"""Coefficient asymptotics from dominant singularities, and the b = 0
Stieltjes transform built from them.

On the oscillatory region x = cos theta the monic polynomials obey

    P_k(x) ~ (|R| / 2^k) sin((k+1) theta - phi + pi/2),   R = |R| e^{i phi},

the two conjugate singularities of the generating function contributing a
single real sinusoid.  For the b = 0 family the growth is governed by the
pole at t = 1/x, giving ratios of 0-phi-1 sums whose quotient is the
Stieltjes transform of the (purely discrete) measure.
"""

from __future__ import annotations

import cmath
import math

from . import _EXPORTS
from .errors import DomainError, PoleError
from .qseries import _brief, _require_double, _require_finite, _within_range, phi, qpochhammer_inf
from .measure import _near_pole, series_R
from .recurrence import Params

__all__ = list(_EXPORTS["asymptotics"])


def asymptotic_P(k: int, x: float, p: Params) -> float:
    """Leading asymptotic value (|R|/2^k) sin((k+1) theta - phi + pi/2) at x = cos theta."""
    if k < 0:
        raise DomainError("asymptotic_P requires k >= 0")
    if not -1 < x < 1:
        raise DomainError("asymptotic_P requires x in (-1, 1)")
    theta = math.acos(x)
    R = series_R(theta, p)
    return math.ldexp(abs(R), -k) * math.sin((k + 1) * theta - cmath.phase(R) + math.pi / 2)


def _b0_params(p: Params):
    if p.b != 0:
        raise DomainError("this routine is for the b = 0 family")
    return p.q, p.a, p.lam


def asymptotic_Q(n: int, x, p: Params):
    """Large-n form of the b = 0 denominators:
    x^n (-a/x; q)_inf 0phi1[-; -a/x; q, lam q / x^2]."""
    q, a, lam = _b0_params(p)
    _require_finite("x must be finite", x)
    if x == 0:
        raise DomainError("asymptotic_Q requires x != 0")
    return _within_range(f"asymptotic_Q at n = {n}, x = {_brief(x)}",
                         lambda: x**n * qpochhammer_inf(-a / x, q) * phi((), (-a / x,), q, lam * q / (x * x)))


def asymptotic_Qstar(n: int, x, p: Params):
    """Large-n form of the b = 0 numerators:
    x^(n-1) (-aq/x; q)_inf 0phi1[-; -aq/x; q, lam q^2 / x^2],
    i.e. :func:`asymptotic_Q` at n - 1 under the shift (a, lam) -> (aq, lam q)."""
    q, a, lam = _b0_params(p)
    return asymptotic_Q(n - 1, x, Params(q, a * q, 0, lam * q))


def b0_support_bound(p: Params) -> float:
    """Outer radius beyond which x is certainly off the b = 0 support.

    Chain-sequence style bound from the monic coefficients alpha_k = -a q^k
    (k >= 0) and beta_k = -lam q^k (k >= 1):
    2 * (max_k |a q^k| + 2 max_k sqrt(-lam q^k)).
    """
    q, a, lam = _b0_params(p)
    if not (lam < 0 and 0 < q < 1):
        raise DomainError("b = 0 measure theory requires lam < 0 and 0 < q < 1")
    return 2.0 * (abs(a) + 2.0 * math.sqrt(-lam * q))


def stieltjes_b0(x, p: Params):
    """Stieltjes transform of the b = 0 measure at x off its real support:

        (1/(x+a)) 0phi1[-; -aq/x; q, lam q^2/x^2] / 0phi1[-; -a/x; q, lam q/x^2].

    A non-real x is never on the support and is taken as it is, however near
    0; a real x must lie at or outside :func:`b0_support_bound`'s radius.
    Either way the parameters must pass that function's check (lam < 0 and
    0 < q < 1).  A non-finite x raises DomainError, and a rational x too
    large for a double meeting float parameters RangeError.
    """
    q, a, lam = _b0_params(p)
    _require_finite("x must be finite", x)
    bound = b0_support_bound(p)
    if x.imag == 0 and abs(x) < bound:
        raise DomainError(f"|x| = {float(abs(x)):.6g} is inside the support exclusion radius {bound:.6g}")
    _require_double("x", x, q, a, lam)
    num = phi((), (-a * q / x,), q, lam * q * q / (x * x))
    den = phi((), (-a / x,), q, lam * q / (x * x))
    if _near_pole(num, den):
        raise PoleError(f"denominator 0phi1 ~ 0 at x = {x}: candidate mass point")
    return num / ((x + a) * den)
