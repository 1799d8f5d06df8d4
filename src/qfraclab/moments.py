"""q-integral machinery: the Jackson integral, the product weight solving the
moment functional equation, and the moment solutions p_k of the monic
recurrence in both q-integral and 2phi1 closed form.

The weight

    f(t) = (2q e^{it'} t, 2q e^{-it'} t, At, q/At; q)_inf
           / ((-4bct/lam, Bt, q/Bt; q)_inf),    A = -4bc/lam, B = 4c,

in which (At; q)_inf and (-4bct/lam; q)_inf are the same product (one
private function evaluates the cancelled form for both :func:`weight_f` and
:func:`moment_pk_integral`), satisfies f(t) (x - t - 1/4t) = f(t/q)
(c/q + lam/4bt) and vanishes at the points t_{1,2}/q just outside the
integration endpoints t_1 = e^{-i theta}/2, t_2 = e^{i theta}/2, which is
exactly what integration by parts needs for

    p_k(x) = prefactor * integral_{t_1}^{t_2} t^k f(t) d_q t

to solve the monic three-term recurrence.  The Jackson sum evaluates the
weight's products once per endpoint e; every later node e q^n follows from
the one before by the q-shift (a; q)_inf = (1 - a)(aq; q)_inf of each
product, a few complex multiplications per node that never overflow (the
products in q/4ct and -lam q/4bct, which grow like q^-n, are never formed
at small t).  The step uses no moment recurrence and no 2phi1, so the two
routes stay independent.  On the cut, x real in (-1, 1), the parameters are
real and t_1 is the conjugate of t_2, so the products and the Jackson sum
at t_1 are the conjugates of those at t_2: :func:`moment_pk_integral` forms
five products and one sum there, against nine and two off the cut.

The same p_k has a closed 2phi1 form; for Im(x) >= 0 and Im(x) <= 0 the two
stated branches are mirror images in theta, and both are the same function
of the modulus-<=1 root rho(x), which is how they are evaluated here.
"""

from __future__ import annotations

import cmath

from . import _EXPORTS
from .errors import DomainError, RangeError
from .qseries import (
    _brief, _require_double, _require_finite, _within_range, phi, qpochhammer, qpochhammer_inf, sum_series,
)
from .measure import rho_select
from .recurrence import Params

__all__ = list(_EXPORTS["moments"])


def _jackson(e, q, values, k: int = 0):
    """One endpoint of the Jackson integral of ``t^k f(t)``:
    ``e (1-q) sum_n q^n t_n^k f(t_n)`` over the nodes ``t_n = e q^n``, given
    an iterator over the node values ``f(t_n)``.  Summed as
    ``e^(k+1) (1-q) sum_n (q^(k+1))^n f(t_n)`` under the truncation policy;
    ``e = 0`` contributes 0.
    """
    if e == 0:
        return 0.0
    scale = _within_range(f"q-integral endpoint power {e}^{k + 1}", lambda: e ** (k + 1))
    qk = q ** (k + 1)

    def terms():
        pw = 1.0  # q^(n (k+1))
        for value in values:
            yield pw * value
            pw *= qk

    return scale * (1 - q) * sum_series(terms(), "q-integral endpoint sum")


def _nodes(e, q):
    """The Jackson nodes e q^n, n = 0, 1, ..."""
    pw = 1.0  # q^n
    while True:
        yield e * pw
        pw *= q


def qintegral(f, lower, upper, q: float):
    """Jackson q-integral of ``f`` from ``lower`` to ``upper``:
    ``upper (1-q) sum_n q^n f(upper q^n) - lower (1-q) sum_n q^n f(lower q^n)``.

    ``f`` is called once per node.  Both endpoint sums are truncated under
    the q-series truncation policy; equal endpoints cancel exactly.  The
    definition is applied verbatim for complex endpoints; the nodes are
    doubles, so a rational endpoint too large for one raises RangeError.
    :func:`moment_pk_integral` shares the endpoint sum but not the per-node
    calls: it evaluates the weight's products once per endpoint and steps
    the nodes by (a; q)_inf = (1 - a)(aq; q)_inf.
    """
    _require_finite("qintegral requires finite arguments", lower, upper, q)
    if not 0 < abs(q) < 1:
        raise DomainError("qintegral requires 0 < |q| < 1")
    for e in (lower, upper):  # the node sums run in doubles
        _require_double("qintegral endpoint", e, 1.0)
    return _jackson(upper, q, map(f, _nodes(upper, q))) - _jackson(lower, q, map(f, _nodes(lower, q)))


def _require_moment_params(p: Params, k: int = 0):
    if k < 0:
        raise DomainError("moment index k must be >= 0")
    p.require_monic()
    if p.a == 0:
        raise DomainError("moment machinery requires a != 0 (c != 0)")
    if p.lam == 0:
        raise DomainError("moment machinery requires lam != 0")


def _weight(w, p: Params):
    """The weight at x = (w + 1/w)/2, with w = e^{i theta}, at the Jackson
    nodes of an endpoint:

        f(t) = (2q w t, 2q t/w, -lam q/(4bct); q)_inf / (4ct, q/(4ct); q)_inf,

    symmetric under w -> 1/w.  Returns ``nodes(e)``, an iterator over
    f(e), f(eq), f(eq^2), ...  Only f(e) evaluates the products; a caller
    that already holds (2qwe, 2qe/w; q)_inf or (4ce; q)_inf passes them as
    ``num`` or ``den``.  Each later node follows from the one before by
    (a; q)_inf = (1 - a)(aq; q)_inf:

        f(tq) = f(t) (1 - r/tq)(1 - Bt) / ((1 - ut)(1 - vt)(1 - 1/Bt))

    with u = 2qw, v = 2q/w, r = -lam q/(4bc) and B = 4c.  The step tends to
    -lam/b as t -> 0.  A zero of its denominator is, in exact arithmetic,
    a zero of the moment prefactor or a pole of f(e), both caught earlier;
    a floating-point coincidence raises DomainError.
    """
    q, c = p.q, p.c
    u, v = 2 * q * w, 2 * q / w
    r = -p.lam * q / (4 * p.b * c)
    B = 4 * c

    def nodes(e, num=None, den=None):
        t = e
        if den is None:
            den = qpochhammer_inf(B * t, q)
        den *= qpochhammer_inf(q / (B * t), q)
        if den == 0:
            raise DomainError(f"weight denominator (4ct, q/4ct; q)_inf vanishes at t = {t}")
        if num is None:
            num = qpochhammer_inf(u * t, q) * qpochhammer_inf(v * t, q)
        f = num * qpochhammer_inf(r / t, q) / den
        while True:
            yield f
            den = (1 - u * t) * (1 - v * t) * (1 - 1 / (B * t))
            if den == 0:
                raise DomainError(f"weight denominator (1 - 2qwt)(1 - 2qt/w)(1 - 1/4ct) vanishes at t = {t}")
            f *= (1 - r / (t * q)) * (1 - B * t) / den
            t *= q

    return nodes


def weight_f(t, theta: float, p: Params):
    """The product weight f(t) at x = cos theta; a rational t too large for a
    double raises RangeError."""
    _require_finite("weight_f requires finite arguments", t, theta)
    _require_moment_params(p)
    if t == 0:
        raise DomainError("weight_f requires t != 0")
    w = cmath.exp(1j * theta)
    _require_double("t", t, w)
    return next(_weight(w, p)(t))


def moment_pk_integral(k: int, x, p: Params) -> complex:
    """Moment solution p_k(x) as the prefactored q-integral of t^k against the weight.

    The weight's products are evaluated once per endpoint, sharing those
    the prefactor forms, and stepped from node to node (see :func:`_weight`);
    on the cut only the upper endpoint is evaluated, and the lower one is
    its conjugate.  Requires |lam q / b| < 1 in addition to the monic
    hypotheses.
    """
    _require_moment_params(p, k)
    q, b, lam, c = p.q, p.b, p.lam, p.c
    if not abs(lam * q / b) < 1:
        raise DomainError("q-integral moments require |lam q / b| < 1")
    w = rho_select(x)
    xc = complex(x)  # finite and in range: rho_select has checked
    # on the cut the lower endpoint w/2 and all it forms are the upper's conjugates
    cut = xc.imag == 0 and -1 < xc.real < 1
    W = w.conjugate() if cut else 1 / w  # e^{i theta} for Im x >= 0
    sin_t = (W - w) / 2j
    # nine distinct products off the cut, five on it: at the endpoints W/2
    # and w/2 the weight's (2qwt, 2qt/w; q)_inf are (q, qW^2; q)_inf and
    # (qw^2, q; q)_inf, and (qW^2; q)_inf = (W^2; q)_inf / (1 - W^2); its
    # (4ct; q)_inf are the prefactor's (2cW; q)_inf and (2cw; q)_inf
    qq, pW = qpochhammer_inf(q, q), qpochhammer_inf(W * W, q)
    pw = pW.conjugate() if cut else qpochhammer_inf(w * w, q)
    den = qq * pW * pw
    if den == 0:  # w^2 = 1
        raise DomainError("q-integral moments require x != +-1")
    cW = qpochhammer_inf(2 * c * W, q)
    cw = cW.conjugate() if cut else qpochhammer_inf(2 * c * w, q)
    pre = 4 * (-1j * sin_t) / (1 - q) * cW * cw / den
    nodes = _weight(w, p)
    upper = _jackson(W / 2, q, nodes(W / 2, qq * pW / (1 - W * W), cW), k)
    lower = upper.conjugate() if cut else _jackson(w / 2, q, nodes(w / 2, qq * pw / (1 - w * w), cw), k)
    value = pre * (upper - lower)
    if not cmath.isfinite(value):  # far off the cut the products and t^k leave the double range
        raise RangeError(f"q-integral moment p_{k}({_brief(x)}) is not finite in double precision")
    return value


def _pk_closed_at(k: int, s, p: Params) -> complex:
    """The closed form of p_k at the root s of t^2 - 2xt + 1 (see :func:`moment_pk_closed`)."""
    q, b, lam, c = p.q, p.b, p.lam, p.c
    S = 1 / s
    z = -lam * q * s / (2 * b * c)
    head = (
        S**k
        * qpochhammer(2 * c * s, q, k)
        * qpochhammer_inf(z, q)
        / (2**k * qpochhammer_inf(q * s / (2 * c), q))
    )
    return head * phi((-b * q ** (-k) / lam, 0), (q ** (1 - k) * S / (2 * c),), q, z)


def moment_pk_closed(k: int, x, p: Params) -> complex:
    """Closed 2phi1 form of the moment solution p_k(x).

    With s = rho(x), the modulus-<=1 root of t^2 - 2xt + 1, and S = 1/s:

        p_k = S^k (2cs; q)_k (-lam q s/2bc; q)_inf / (2^k (q s/2c; q)_inf)
              * 2phi1[-b q^(-k)/lam, 0; q^(1-k) S/2c; q, -lam q s/2bc].

    Requires |lam q / (2bc)| < 1.  On the cut the other stated branch, at
    the root 1/s, agrees, which is a test.
    """
    _require_moment_params(p, k)
    if not abs(p.lam * p.q / (2 * p.b * p.c)) < 1:
        raise DomainError("closed-form moments require |lam q / (2 b c)| < 1")
    # S^k, 2^k and q^-k leave the double range at large k, on the cut too
    return _within_range(f"closed-form moment p_{k}({_brief(x)})", lambda: _pk_closed_at(k, rho_select(x), p))
