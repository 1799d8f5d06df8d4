"""The spectral side: F/G series, phase-amplitude series R, the two density
formulas, the Stieltjes transform, and orthogonality quadrature.

For the monic Nevai-class family the absolutely continuous part of the
orthogonality measure on (-1, 1) is

    mu'(x) = (2/pi) (-lam q/b; q)_inf / (|R|^2 sqrt(1 - x^2)),  x = cos theta,

and the same density is recovered independently by inverting the Stieltjes
transform X(x) = 2 rho F(rho)/G(rho) across the cut.  Agreement of the two
routes is the central cross-check of the package.  X is written once, as a
function of rho, from one pass that sums F and G together:
:func:`stieltjes_transform` returns it at rho(x), and :func:`density_inversion`
is its jump (X(e^{i theta}) - X(e^{-i theta}))/(2 pi i) across the cut.  The
parameters are real, so X(conj rho) = conj X(rho) and that jump is
Im X(e^{i theta})/pi, which needs X at one point only.

Root selection: rho(x) is the root of t^2 - 2xt + 1 = 0 with |rho| <= 1,
computed stably as 1/(x + sqrt(x-1) sqrt(x+1)).  On the cut x in (-1, 1)
this returns the upper-half-plane limit e^{-i theta}.

R is G on the unit circle, R(theta) = -G(e^{i theta}) / (i sin theta) term
by term, and is evaluated so; the oracle ``verify._mp_series_R`` sums R itself.

Convention at c = 0 (a = 0): F and G are read verbatim, i.e. the
``(-2 c rho)^m`` factor kills every m >= 1 term, so F = G = 1 and R follows
as -1/(i sin theta).  The analytic c -> 0 limit of the full expressions
differs (the Pochhammer numerator diverges at the same rate); tests
therefore cross-validate the two density routes only at c != 0 or lam = 0.

Orthogonality quadrature: the Gram matrix integrand is even and 2 pi-periodic
in theta, so it is integrated by the trapezoid rule, which converges
geometrically for such integrands (Trefethen & Weideman, SIAM Review 56,
2014), after Sidi's sin^2 substitution theta = phi - sin(2 phi)/2 (Sidi,
ISNM 112, 1993).  The node count doubles until two successive levels agree
entrywise within a fixed tolerance; see :func:`gram_matrix`.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError, TruncationError
from .qseries import _MAX_TERMS, _REL_TOL, _SMALL_RUN, qpochhammer, qpochhammer_inf
from .recurrence import Params, run_monic

__all__ = [
    "rho_select",
    "series_F",
    "series_G",
    "series_R",
    "density_nevai",
    "density_inversion",
    "stieltjes_transform",
    "norm_squared",
    "gram_matrix",
]


def rho_select(x) -> complex:
    """The modulus-<=1 root rho of t^2 - 2xt + 1 = 0; the other root is 1/rho.

    The branch of sqrt(x^2 - 1) behaves like x at infinity, so the value is
    analytic off [-1, 1]; at x = +-1 it is +-1, and for real x in (-1, 1)
    it is the upper-half-plane limit e^{-i theta} with theta = arccos x.
    The reciprocal form 1/(x + s) avoids cancellation for large |x|.  A
    negative-zero imaginary part counts as +0, so that x - 1 and x + 1 lie on
    the same side of the square root's cut (else x < -1 would get 1/rho).
    """
    xc = complex(x) + 0j  # -0.0 + 0.0 is +0.0
    return 1 / (xc + cmath.sqrt(xc - 1) * cmath.sqrt(xc + 1))


def _fg_sums(rho: complex, p: Params, want_f: bool, want_g: bool) -> tuple[complex, complex]:
    """F(rho) and G(rho) from one term recursion; a sum not wanted is left at its m = 0 term.

    G's m-th term is the regrouped product
    prod_{j=1}^{m} (-2 c rho - (lam/b) q^j rho^2) times
    q^(binom(m, 2)) / ((q; q)_m (q rho^2; q)_m), and F's is that times q^m,
    because binom(m + 1, 2) - binom(m, 2) = m.  Each wanted sum stops on its
    own under the truncation rule of :func:`qfraclab.qseries.sum_series`; the
    recursion runs until every wanted sum has stopped.
    """
    one = 1.0 + 0j
    if p.a == 0:
        return one, one  # only the m = 0 term survives the (-2 c rho)^m factor
    q = p.q
    rho2 = rho * rho
    u = -2 * p.c * rho
    v = -(p.lam / p.b) * rho2
    g = F = G = one  # g: G's current term
    f_small = g_small = 0
    f_done, g_done = not want_f, not want_g
    qm = 1.0  # q^m
    for m in range(1, _MAX_TERMS):
        qn = qm * q
        d2 = 1 - qn * rho2
        if abs(d2) < 1e-14:
            raise DomainError(f"(q rho^2; q) factor vanishes at m = {m}: rho^2 = q^-{m}")
        g *= (u + v * qn) * qm / ((1 - qn) * d2)
        qm = qn
        ag = abs(g)
        if ag != ag or ag == math.inf:  # overflow masquerades as convergence otherwise
            raise TruncationError(f"{'G' if f_done else 'F'} series diverged (nonfinite term at index {m})")
        if not g_done:
            G += g
            if ag <= _REL_TOL * (1.0 + abs(G)):
                g_small += 1
                g_done = g_small >= _SMALL_RUN
            else:
                g_small = 0
        if not f_done:
            f = g * qm
            F += f
            if abs(f) <= _REL_TOL * (1.0 + abs(F)):
                f_small += 1
                f_done = f_small >= _SMALL_RUN
            else:
                f_small = 0
        if f_done and g_done:
            return F, G
    raise TruncationError(f"{'G' if f_done else 'F'} series did not converge within {_MAX_TERMS} terms")


def series_F(rho, p: Params) -> complex:
    """F(rho): the q^(binom(m+1,2)) member of the series pair behind X(x)."""
    p.require_monic()
    return _fg_sums(complex(rho), p, True, False)[0]


def series_G(rho, p: Params) -> complex:
    """G(rho): the q^(binom(m,2)) member; its zeros are the candidate poles of X."""
    p.require_monic()
    return _fg_sums(complex(rho), p, False, True)[1]


def series_R(theta: float, p: Params) -> complex:
    """Phase-amplitude series R(theta) = |R| e^{i phi} for theta in (0, pi).

    R = (-1/(i sin theta)) * sum_m (-lam q e^{i theta}/2bc; q)_m /
        ((q; q)_m (q e^{2 i theta}; q)_m) * (-2c)^m e^{i m theta} q^(binom(m,2)),

    which is -G(e^{i theta}) / (i sin theta) term by term and is evaluated so.
    Use ``abs()`` and ``cmath.phase()`` on the result for |R| and phi.
    """
    if not 0 < theta < math.pi:
        raise DomainError("series_R requires theta in (0, pi)")
    return -series_G(cmath.exp(1j * theta), p) / (1j * math.sin(theta))


def _weight_prefactor(p: Params) -> float:
    return qpochhammer_inf(-p.lam * p.q / p.b, p.q)


def density_nevai(x: float, p: Params) -> float:
    """Density on (-1, 1) via the phase-amplitude route:
    (2/pi) (-lam q/b; q)_inf / (|R|^2 sqrt(1 - x^2))."""
    if not -1 < x < 1:
        raise DomainError("density is defined for x in (-1, 1)")
    p.require_monic()
    theta = math.acos(x)
    R = series_R(theta, p)
    return 2.0 * _weight_prefactor(p) / (math.pi * abs(R) ** 2 * math.sqrt(1 - x * x))


def _X(rho: complex, p: Params) -> complex:
    """X = 2 rho F(rho)/G(rho) at x = (rho + 1/rho)/2; PoleError where G(rho) ~ 0."""
    f, g = _fg_sums(rho, p, True, True)
    if abs(g) <= 1e-14 * max(1.0, abs(f)):
        raise PoleError(f"G(rho) ~ 0 at x = {(rho + 1 / rho) / 2}: candidate discrete mass point")
    return 2 * rho * f / g


def density_inversion(x: float, p: Params) -> float:
    """Density on (-1, 1) via Stieltjes inversion: the jump
    (X(e^{i theta}) - X(e^{-i theta})) / (2 pi i) of X across the cut at x = cos theta.

    The parameters are real, so X(conj rho) = conj X(rho) and the jump is
    Im X(e^{i theta}) / pi: one evaluation of X per point.
    """
    if not -1 < x < 1:
        raise DomainError("density is defined for x in (-1, 1)")
    p.require_monic()
    return _X(cmath.exp(1j * math.acos(x)), p).imag / math.pi


def stieltjes_transform(x, p: Params) -> complex:
    """X(x) = 2 rho F(rho)/G(rho) at rho = rho_select(x), for x off the open
    interval (-1, 1).

    A vanishing G(rho) raises PoleError: real poles outside [-1, 1] are
    candidate mass points of the discrete part of the measure.
    """
    xc = complex(x)
    if not cmath.isfinite(xc):
        raise DomainError(f"x must be finite, got {x}")
    if xc.imag == 0 and -1 < xc.real < 1:
        raise DomainError("x lies inside (-1, 1); use the density routines there")
    p.require_monic()
    return _X(rho_select(xc), p)


def norm_squared(n: int, p: Params) -> float:
    """Squared norm h_n = 4^(-n) (-lam q/b; q)_n of the monic polynomials."""
    if n < 0:
        raise DomainError("norm_squared requires n >= 0")
    p.require_monic()
    return qpochhammer(-p.lam * p.q / p.b, p.q, n) / 4**n


# The adaptive rule of gram_matrix: first level, agreement tolerance between
# successive levels (on the scaled entries), and the node count it may not pass.
_GRAM_START_NODES = 32
_GRAM_TOL = 1e-10
_GRAM_MAX_NODES = 1 << 16


def gram_matrix(p: Params, nmax: int) -> list[list[float]]:
    """Matrix of inner products over the absolutely continuous part.

    Entry (n, m) is (2 (-lam q/b; q)_inf / pi) *
    integral_0^pi P_n(cos theta) P_m(cos theta) / |R(theta)|^2 d theta,
    returned as a list of rows of floats.

    The integrand is even and 2 pi-periodic in theta, so the trapezoid rule
    converges geometrically (Trefethen & Weideman, SIAM Review 56, 2014).
    It is applied in phi after Sidi's sin^2 substitution
    theta = phi - sin(2 phi)/2, weight 1 - cos 2 phi = 2 sin^2 phi
    (Sidi, ISNM 112, 1993), which keeps that rate when G(e^{i theta}) nearly
    vanishes close to theta = 0 or pi.  The endpoint terms are zero and are
    skipped.  The rule starts at 32 nodes and doubles the count, reusing every
    node already evaluated, until two successive levels agree entrywise
    within 1e-10; past 2^16 nodes it raises TruncationError.

    If the measure carries discrete mass outside (-1, 1) the (0, 0) entry
    falls short of 1 by exactly that mass.
    """
    if nmax < 0:
        raise DomainError("nmax must be >= 0")
    p.require_monic()
    pref = 2.0 * _weight_prefactor(p) / math.pi
    pairs = [(n, m) for n in range(nmax + 1) for m in range(n, nmax + 1)]
    depth = max(nmax, 1)

    def node_sum(phis) -> list[float]:
        acc = [0.0] * len(pairs)
        for phi in phis:
            theta = phi - math.sin(2 * phi) / 2
            w = 2 * math.sin(phi) ** 2 / abs(series_R(theta, p)) ** 2
            pv = run_monic(p, math.cos(theta), depth, "P")
            for k, (n, m) in enumerate(pairs):
                acc[k] += w * pv[n] * pv[m]
        return acc

    nodes = _GRAM_START_NODES
    sums = node_sum(j * math.pi / nodes for j in range(1, nodes))
    est = [pref * math.pi / nodes * s for s in sums]
    while True:
        if 2 * nodes > _GRAM_MAX_NODES:
            raise TruncationError(f"Gram quadrature not settled within {_GRAM_MAX_NODES} nodes")
        finer = node_sum((2 * j + 1) * math.pi / (2 * nodes) for j in range(nodes))
        nodes *= 2
        sums = [s + f for s, f in zip(sums, finer)]
        prev, est = est, [pref * math.pi / nodes * s for s in sums]
        if max(abs(u - v) for u, v in zip(est, prev)) <= _GRAM_TOL:
            break
    out = [[0.0] * (nmax + 1) for _ in range(nmax + 1)]
    for (n, m), v in zip(pairs, est):
        out[n][m] = out[m][n] = v
    return out
