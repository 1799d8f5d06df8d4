"""Closed-form generating functions, evaluated as convergent k-sums.

Each generating function is an outer sum over k of closed rational factors
(finite q-Pochhammer products in t); the outer sum is truncated under the
fixed policy of :func:`qfraclab.qseries.sum_series`.  Coefficient sequences
of these functions are exactly the recurrence families, which gives an
independent oracle for both sides.

Term products are accumulated in regrouped form, e.g.

    (-lam t q / a; q)_k (a t)^k  =  prod_{j=1}^{k} (a t + lam t^2 q^j),

which is identical for a != 0 and remains the correct analytic limit when
a = 0.

Supported kinds:

* ``D`` / ``N``: base-family denominators/numerators at a general x.  Only
  the D series is summed: N(t; a, lam) = t (1 - b) D(t; a q, lam q), as
  the numerator polynomials are the denominators one level in.
* ``P`` / ``Pstar``: monic family denominators/numerators at the spectral
  variable x, which are ``D`` / ``N`` rescaled: with s = gamma (1 - b),
  P_k(x) = D_k(gamma x) / s^k and Pstar_k(x) = gamma N_k(gamma x) / s^k,
  so they are evaluated as ``D`` / ``N`` at t/s and gamma x.

At b = 0 the kinds ``D`` / ``N`` are the b = 0 family Q / Q* (there
alpha = x and beta = 0), so that family needs no kind of its own.
"""

from __future__ import annotations

import cmath

from . import _EXPORTS
from .errors import DomainError
from .measure import rho_select
from .qseries import _require_double, _require_finite, _within_range, sum_series
from .recurrence import Params

__all__ = list(_EXPORTS["genfun"])

KINDS = ("P", "Pstar", "D", "N")

_RADIUS_SAFETY = 0.9


def _base_roots(x, b):
    """alpha, beta with 1 - (1-b) x t - b t^2 = (1 - alpha t)(1 - beta t), |alpha| >= |beta|.

    With s = sqrt(-b), u = s v turns the roots into those of
    v^2 - 2 y v + 1 at y = (1-b) x / (2 s), so alpha = s / rho(y) and
    beta = s rho(y) for the root selector rho of :mod:`qfraclab.measure`.
    """
    if b == 0:
        return complex(x), 0j
    s = cmath.sqrt(-b)
    rho = rho_select((1 - b) * x / (2 * s))
    return s / rho, s * rho


def gf_radius(kind: str, x, p: Params) -> float:
    """Distance from t = 0 to the nearest singularity of the generating function."""
    _require_finite("x must be finite", x)
    if kind in ("P", "Pstar"):
        return 2 * abs(rho_select(x))  # t = 2 rho is the nearer zero of 1 - x t + t^2/4
    if kind in ("D", "N"):
        # the root of larger modulus; a rational x too large for a double is a RangeError
        alpha = _within_range("x", lambda: _base_roots(x, p.b)[0])
        return float("inf") if alpha == 0 else 1 / abs(alpha)
    raise DomainError(f"unknown generating-function kind {kind!r}")


def gf_eval(kind: str, t, x, p: Params):
    """Evaluate the ``kind`` generating function at the point ``t``.

    ``x`` is the spectral/evaluation variable of the coefficient family.
    ``t`` must satisfy ``|t| < 0.9 * radius`` of the nearest singularity,
    else a DomainError is raised.
    """
    _require_finite("gf_eval requires finite arguments", t, x)
    radius = gf_radius(kind, x, p)  # raises on an unknown kind
    _require_double("t", t, 0j)  # t is taken as a complex number
    tc = complex(t)
    if abs(tc) >= _RADIUS_SAFETY * radius:
        raise DomainError(
            f"|t| = {abs(tc):.6g} is at or beyond {_RADIUS_SAFETY} * radius = "
            f"{_RADIUS_SAFETY * radius:.6g} for kind {kind!r}"
        )
    if kind in ("P", "Pstar"):
        p.require_monic()
        g = p.gamma
        tc, x = tc / (g * (1 - p.b)), g * x
    q, a, lam = p.q, p.a, p.lam
    if kind in ("N", "Pstar"):
        a, lam = a * q, lam * q  # the numerator series is the D series at (a q, lam q)
    alpha, beta = _base_roots(x, p.b)

    def terms():
        tk = 1 / ((1 - alpha * tc) * (1 - beta * tc))
        k = 0
        while True:
            yield tk
            tk *= (a * tc + lam * tc * tc * q ** (k + 1)) * q**k / (
                (1 - alpha * tc * q ** (k + 1)) * (1 - beta * tc * q ** (k + 1))
            )
            k += 1

    total = sum_series(terms(), f"{kind} generating function")
    if kind in ("P", "D"):
        return total
    numerator = tc * (1 - p.b) * total
    return g * numerator if kind == "Pstar" else numerator
