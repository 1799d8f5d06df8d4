"""q-integral machinery: the Jackson integral, the product weight solving the
moment functional equation, and the moment solutions p_k of the monic
recurrence in both q-integral and 2phi1 closed form.

The weight

    f(t) = (2q e^{it'} t, 2q e^{-it'} t, At, q/At; q)_inf
           / ((-4bct/lam, Bt, q/Bt; q)_inf),    A = -4bc/lam, B = 4c,

satisfies f(t) (x - t - 1/4t) = f(t/q) (c/q + lam/4bt) and vanishes at the
points t_{1,2}/q just outside the integration endpoints t_1 = e^{-i theta}/2,
t_2 = e^{i theta}/2, which is exactly what integration by parts needs for

    p_k(x) = prefactor * integral_{t_1}^{t_2} t^k f(t) d_q t

to solve the monic three-term recurrence.  The same p_k has a closed 2phi1
form; for Im(x) >= 0 and Im(x) <= 0 the two stated branches are mirror
images in theta, and both are the same function of the modulus-<=1 root
rho(x), which is how they are evaluated here.
"""

from __future__ import annotations

import cmath
from typing import Callable, NamedTuple

from .errors import DomainError
from .qseries import DEFAULT_CONTROL, PhiSpec, SeriesControl, phi, qpochhammer, qpochhammer_inf, sum_series
from .measure import rho_select
from .recurrence import Params

__all__ = ["QIntegrand", "qintegral", "weight_f", "moment_pk_integral", "moment_pk_closed"]


class QIntegrand(NamedTuple):
    """An integrand and its (possibly complex) q-integral endpoints."""

    evaluator: Callable[[complex], complex]
    lower: complex
    upper: complex


def qintegral(f: QIntegrand, q: float, ctrl: SeriesControl = DEFAULT_CONTROL):
    """Jackson q-integral
    ``b (1-q) sum_n q^n f(b q^n) - a (1-q) sum_n q^n f(a q^n)``.

    Both endpoint sums are truncated under ``ctrl``; equal endpoints cancel
    exactly.  The definition is applied verbatim for complex endpoints.
    """
    if not 0 < abs(q) < 1:
        raise DomainError("qintegral requires 0 < |q| < 1")

    def endpoint_sum(e):
        if e == 0:
            return 0.0

        def terms():
            pw = 1.0  # q^n
            while True:
                yield pw * f.evaluator(e * pw)
                pw *= q

        return e * (1 - q) * sum_series(terms(), ctrl, "q-integral endpoint sum")

    return endpoint_sum(f.upper) - endpoint_sum(f.lower)


def _require_moment_params(p: Params):
    p.require_monic()
    if p.a == 0:
        raise DomainError("moment machinery requires a != 0 (c != 0)")
    if p.lam == 0:
        raise DomainError("moment machinery requires lam != 0")


def weight_f(t, theta: float, p: Params, ctrl: SeriesControl = DEFAULT_CONTROL):
    """The product weight f(t) at x = cos theta, written with the theta
    factorial pair (At, q/At) over (Bt, q/Bt) uncancelled."""
    _require_moment_params(p)
    if t == 0:
        raise DomainError("weight_f requires t != 0")

    q, b, lam, c = p.q, p.b, p.lam, p.c
    A = -4 * b * c / lam
    B = 4 * c
    eit = cmath.exp(1j * theta)
    emit = cmath.exp(-1j * theta)
    num = (
        qpochhammer_inf(2 * q * eit * t, q, ctrl)
        * qpochhammer_inf(2 * q * emit * t, q, ctrl)
        * qpochhammer_inf(A * t, q, ctrl)
        * qpochhammer_inf(q / (A * t), q, ctrl)
    )
    den = (
        qpochhammer_inf(-4 * b * c * t / lam, q, ctrl)
        * qpochhammer_inf(B * t, q, ctrl)
        * qpochhammer_inf(q / (B * t), q, ctrl)
    )
    if den == 0:
        raise DomainError("weight_f denominator product vanishes at this t")
    return num / den


def moment_pk_integral(k: int, x, p: Params, ctrl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Moment solution p_k(x) as the prefactored q-integral of t^k against the weight.

    Requires |lam q / b| < 1 in addition to the monic hypotheses.
    """
    if k < 0:
        raise DomainError("moment index k must be >= 0")
    _require_moment_params(p)
    q, b, lam, c = p.q, p.b, p.lam, p.c
    if not abs(lam * q / b) < 1:
        raise DomainError("q-integral moments require |lam q / b| < 1")
    w = rho_select(x)
    W = 1 / w  # e^{-i theta}, e^{i theta} for Im x >= 0
    sin_t = (W - w) / 2j
    pre = (
        4
        * (-1j * sin_t)
        / (1 - q)
        * qpochhammer_inf(2 * c * W, q, ctrl)
        * qpochhammer_inf(2 * c * w, q, ctrl)
        / (
            qpochhammer_inf(q, q, ctrl)
            * qpochhammer_inf(W * W, q, ctrl)
            * qpochhammer_inf(w * w, q, ctrl)
        )
    )

    def f(t):
        # the (At; q)_inf factor cancelled against (-4bct/lam; q)_inf
        return (
            qpochhammer_inf(2 * q * W * t, q, ctrl)
            * qpochhammer_inf(2 * q * w * t, q, ctrl)
            * qpochhammer_inf(-lam * q / (4 * b * c * t), q, ctrl)
            / (qpochhammer_inf(4 * c * t, q, ctrl) * qpochhammer_inf(q / (4 * c * t), q, ctrl))
        )

    integrand = QIntegrand(lambda t: t**k * f(t), w / 2, W / 2)
    return pre * qintegral(integrand, q, ctrl)


def moment_pk_closed(k: int, x, p: Params, ctrl: SeriesControl = DEFAULT_CONTROL,
                     branch: str = "auto") -> complex:
    """Closed 2phi1 form of the moment solution p_k(x).

    With s the modulus-<=1 root of t^2 - 2xt + 1 and S = 1/s:

        p_k = S^k (2cs; q)_k (-lam q s/2bc; q)_inf / (2^k (q s/2c; q)_inf)
              * 2phi1[-b q^(-k)/lam, 0; q^(1-k) S/2c; q, -lam q s/2bc].

    Requires |lam q / (2bc)| < 1.  ``branch`` selects the stated half-plane
    form; "auto" follows sign(Im x), while "upper"/"lower" force the
    respective branch for real x (they agree there, which is a test).
    """
    if k < 0:
        raise DomainError("moment index k must be >= 0")
    _require_moment_params(p)
    q, b, lam, c = p.q, p.b, p.lam, p.c
    if not abs(lam * q / (2 * b * c)) < 1:
        raise DomainError("closed-form moments require |lam q / (2 b c)| < 1")
    if branch not in ("auto", "upper", "lower"):
        raise DomainError(f"unknown branch {branch!r}")
    xc = complex(x)
    s = rho_select(xc)
    S = 1 / s
    if branch == "upper" and xc.imag < 0:
        raise DomainError("upper branch needs Im(x) >= 0")
    if branch == "lower":
        if xc.imag > 0:
            raise DomainError("lower branch needs Im(x) <= 0")
        if xc.imag == 0:
            s, S = S, s  # the mirror root on the cut
    z = -lam * q * s / (2 * b * c)
    head = (
        S**k
        * qpochhammer(2 * c * s, q, k)
        * qpochhammer_inf(z, q, ctrl)
        / (2**k * qpochhammer_inf(q * s / (2 * c), q, ctrl))
    )
    spec = PhiSpec((-b * q ** (-k) / lam, 0), (q ** (1 - k) * S / (2 * c),), q, z)
    return head * phi(spec, ctrl)
