"""Acceptance suites: every shipped claim, runnable as one pass/fail line each.

A criterion is one function decorated with ``@_criterion(name, suite,
seconds=budget)``, its one registration point, which returns only its rows
``(label, values, gate)``.  The registered check times the function when a
budget is given and appends that ``seconds`` row, reduces the rows through
:func:`_result`, and turns a raised :class:`~qfraclab.errors.QFracError`
into a failed result with no rows, so a check called directly never raises
one.  A row's value is the largest of its values, NaN counting as largest,
printed as ``label value / gate; ...``, and the criterion passes only if
every value is strictly below its gate, so a NaN fails.  Exact parts count
mismatches and strict decreases report the largest ratio of successive
errors, both against gate 1.

Each check is deterministic (fixed RNG seeds) and self-contained.
:data:`CRITERIA` holds the registered ``(name, suite, check)`` triples in
the order they are defined, and the CLI ``verify`` subcommand and the
acceptance tests both dispatch through it.  Because no check reads
another's state, :func:`run_suite` runs them at the same time, each in its
own forked child, with at most one child per usable CPU, and returns the
results in :data:`CRITERIA` order.  On a 2-vCPU VM this took a
fresh-interpreter ``qfraclab verify`` from a median of 0.77 s to 0.61 s (ten
alternating pairs; 0.72 s to 0.57 s in a second set).  With one CPU the
sweep runs one check after another, in process.

Two checks compare error curves whose true values decay far below
double-precision noise (Markov convergent errors past k ~ 50 and sinusoid
residuals past k ~ 60); those comparisons run in extended precision.
Their polynomials P_k and P*_k are the package's own: its one forward loop
(``run_jfraction`` of ``monic_family``, and ``run_monic``) on mpf
parameters, at 460 and 80 digits, so the suite tests the loop it ships.  The
mpmath oracles are the quantities that loop is compared with, and they stay
because the package has them only in double precision:

* ``_mp_g``: the series G, and F as G at (c q, lam q), summed under its own
  certified stopping rule (below), apart from ``measure._fg_sums``;
* ``_mp_rho``: the root rho of rho^2 - 2 x rho + 1 inside the unit disc,
  apart from ``measure.rho_select``;
* ``_mp_series_R``: R as G on the unit circle, for the asymptotic sinusoid.

Each oracle takes c = a / (2 sqrt(-b)) from its own mpf formula, not from
``Params.c``.  The package's double-precision values are cross-checked
against the oracles where they are resolvable.

The one oracle series is G of the Stieltjes transform, at any |rho| <= 1.
F is G with (c, lam) replaced by (c q, lam q), and the phase-amplitude
series R of the asymptotics is -G(e^{i theta}) / (i sin theta), G summed
on the unit circle, as in the package.  The series is q-hypergeometric:
the ratio of consecutive terms is bounded by B |q|^m / (1 - |q|)^2 with
B = 2|c| + |lam/b|, taken at the parameters the sum runs at.  A sum stops
once that bound is at most 1/2 and the last term is at most ``mp.eps``
times the partial sum; the remaining tail is then no larger than the last
term.  A sum that reaches its cap of 160 terms before the rule holds
raises TruncationError, which fails the criterion.  Real points outside
[-1, 1] run in real arithmetic (mpf), with
rho = 1 / (x + sign(x) sqrt(x^2 - 1)); complex points run in mpc.
"""

from __future__ import annotations

import cmath
import math
import os
import pickle
import random
import selectors
import signal
import threading
import time
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp

from . import asymptotics, cfrac, convergents, measure, moments, qseries, recurrence
from .errors import QFracError, TruncationError
from .qseries import qpochhammer, qpochhammer_inf, theta
from .recurrence import Params

__all__ = ["CheckResult", "CRITERIA", "SUITE_NAMES", "run_suite"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    rows: tuple = ()  # (label, value, gate) per gated quantity; see _result


def _rel_err(a, b) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _draw_q(rng: random.Random, lo: float = 0.05, hi: float = 0.9) -> float:
    q = rng.uniform(lo, hi)
    return q if rng.random() < 0.5 else -q


# ---------------------------------------------------------------------------
# mpmath oracles of X, rho and R, and the extended-precision error curves
# ---------------------------------------------------------------------------


# Term cap of the oracle sum.  Each sum stops earlier, once its tail is
# certified below the working precision; reaching the cap raises instead.
_FG_TERMS = 160


def _mp_rho(x):
    """Root of rho^2 - 2 x rho + 1 inside the unit disc; real x beyond [-1, 1] stays in mpf."""
    if isinstance(x, mp.mpf):
        return 1 / (x + mp.sign(x) * mp.sqrt(x * x - 1))
    s = mp.sqrt(x - 1) * mp.sqrt(x + 1)
    return 1 / (x + s)


def _mp_g(rho, q, c, r):
    """G series at high precision, with r = lam/b and |rho| <= 1; F is ``_mp_g(rho, q, c q, r q)``."""
    rho2 = rho * rho
    eps = +mp.eps
    # |term_{m+1} / term_m| <= (2|c| + |r|) |q|^m / (1 - |q|)^2 for |rho| <= 1
    bound = (2 * abs(c) + abs(r)) / (1 - abs(q)) ** 2
    total = term = mp.mpf(1)
    qm = mp.mpf(1)  # q^m
    for _ in range(1, _FG_TERMS):
        qprev = qm
        qm *= q
        term *= (-2 * c * rho - r * qm * rho2) * qprev / ((1 - qm) * (1 - qm * rho2))
        total += term
        # every later term ratio at most 1/2 and the last term below eps |total|:
        # the tail is then at most the last term, below the working precision
        if bound * abs(qm) <= 0.5 and abs(term) <= eps * abs(total):
            return total
    raise TruncationError(f"F/G oracle not converged within {_FG_TERMS} terms")


def _mp_markov_errors(p: Params, x, ks, dps: int):
    """|Pstar_k/P_k - X| at the requested depths, as mpf so no error underflows, and the oracle's X and F.

    Pstar_k and P_k come from the package's forward loop on mpf parameters;
    X and F are the oracle's.  Real x runs in real arithmetic; X and F are
    returned as complex doubles.
    """
    with mp.workdps(dps):
        pm = Params(*map(mp.mpf, p._values))  # mpf fields at the working precision
        q, c, r = pm.q, pm.a / (2 * mp.sqrt(-pm.b)), pm.lam / pm.b
        xm = mp.mpf(x.real) if complex(x).imag == 0 and abs(x) > 1 else mp.mpc(x)
        rho = _mp_rho(xm)
        F = _mp_g(rho, q, c * q, r * q)
        X = 2 * rho * F / _mp_g(rho, q, c, r)
        seq = recurrence.run_jfraction(recurrence.monic_family(pm), xm, max(ks))
        return [abs(seq.N[k] / seq.D[k] - X) for k in ks], complex(X), complex(F)


def _mp_series_R(theta_mp, q, b, lam, c):
    """R(theta) = -G(e^{i theta}) / (i sin theta)."""
    return -_mp_g(mp.expj(theta_mp), q, c, lam / b) / (mp.mpc(0, 1) * mp.sin(theta_mp))


def _mp_asym_residuals(p: Params, x: float, ks, dps: int = 80):
    """|2^k P_k(x) - |R| sin((k+1) theta - phi + pi/2)| in extended precision,
    P_k from the package's :func:`~qfraclab.recurrence.run_monic` on mpf parameters."""
    with mp.workdps(dps):
        pm = Params(*map(mp.mpf, p._values))  # mpf fields at the working precision
        theta_mp = mp.acos(mp.mpf(x))
        R = _mp_series_R(theta_mp, pm.q, pm.b, pm.lam, pm.a / (2 * mp.sqrt(-pm.b)))
        absR, phase = abs(R), mp.arg(R)
        P = recurrence.run_monic(pm, mp.mpf(x), max(ks))
        return [float(abs(2**k * P[k] - absR * mp.sin((k + 1) * theta_mp - phase + mp.pi / 2))) for k in ks]


# ---------------------------------------------------------------------------
# the acceptance checks
# ---------------------------------------------------------------------------

ACCEPT_PARAMS = Params(0.4, 0.3, -0.25, 0.2)


def _fmt(v) -> str:
    """Three significant digits; an mpf error may lie below the double range."""
    return mp.nstr(v, 3) if isinstance(v, mp.mpf) else f"{v:.3g}"


def _result(name: str, *rows) -> CheckResult:
    """The criterion ``name`` under the module's pass rule; each row's values are a number or a list."""
    reduced = []
    for label, values, gate in rows:
        vals = values if isinstance(values, list) else [values]
        reduced.append((label, next((v for v in vals if v != v), max(vals)), gate))
    return CheckResult(
        name,
        all(v < gate for _, v, gate in reduced),
        "; ".join(f"{label} {_fmt(v)} / {gate:g}" for label, v, gate in reduced),
        tuple(reduced),
    )


CRITERIA = []  # (name, suite, check), appended by _criterion in definition order
SUITE_NAMES = ("qseries", "convergents", "measure", "moments", "asymptotics", "all")


def _criterion(name: str, suite: str, seconds: float | None = None):
    """Register the decorated function, which returns only its rows, as criterion ``name`` of ``suite``.

    The module attribute becomes the registered check.  It times the
    function when ``seconds`` gives a budget and appends that ``seconds``
    row, reduces the rows through :func:`_result`, and returns a raised
    QFracError as a failed result with no rows.
    """

    def register(rows_fn):
        def check() -> CheckResult:
            t0 = time.perf_counter()
            try:
                rows = rows_fn()
            except QFracError as exc:
                return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
            if seconds is not None:
                rows = (*rows, ("seconds", time.perf_counter() - t0, seconds))
            return _result(name, *rows)

        CRITERIA.append((name, suite, check))
        return check

    return register


def _exact_draws(rng: random.Random):
    """The five Fraction draws (q, a, b, lam) of an exact row, with 0 < q < 1 and lam != 0."""
    for _ in range(5):
        yield (Fraction(rng.randint(1, 7), rng.randint(8, 15)), Fraction(rng.randint(-4, 4), rng.randint(5, 9)),
               Fraction(rng.randint(-4, 4), rng.randint(5, 9)), Fraction(rng.randint(-5, 5) or 2, rng.randint(2, 7)))


@_criterion("entry16-identity", "convergents", seconds=5.0)
def check_entry16_identity():
    rng = random.Random(1601)
    errs = []
    for _ in range(100):
        q = _draw_q(rng)
        lam = rng.uniform(-2, 2)
        # the n-th convergent is the backward value of the first n + 1 levels
        levels = recurrence._affine(*recurrence.entry16_family(lam, q).constants())
        nums, dens = cfrac._jfraction_levels(levels, 1, 31)
        for n in range(0, 31):
            N, D = convergents.entry16(n, lam, q)
            errs.append(_rel_err(N / D, cfrac.eval_backward(nums, dens, n + 1)))
    mismatches = 0
    for _ in range(5):
        q = Fraction(rng.randint(1, 8), rng.randint(9, 20))
        lam = Fraction(rng.randint(-6, 6) or 1, rng.randint(2, 9))
        family = recurrence.entry16_family(lam, q)
        for n in range(0, 13):
            N, D = convergents.entry16(n, lam, q)
            mismatches += N / D != cfrac.backward_convergent(family, Fraction(1), n)
    return (
        ("100 draws, n<=30: max rel err", errs, 1e-11),
        ("exact mode n<=12: mismatches", mismatches, 1),
    )


@_criterion("hirschhorn-formula", "convergents", seconds=10.0)
def check_hirschhorn_formula():
    rng = random.Random(1602)
    errs = []
    # |q| and coefficient sizes capped at 0.85: the triple sum's condition
    # number grows fast as |q| -> 1 and double precision could not honestly
    # certify 1e-11 there (measured: 2e-11 at 0.9 caps vs 3e-13 at 0.85)
    for _ in range(50):
        q = _draw_q(rng, hi=0.85)
        a = rng.uniform(-0.85, 0.85)
        b = rng.uniform(-0.85, 0.85)
        lam = rng.uniform(-0.85, 0.85)
        p = Params(q, a, b, lam)
        for n in range(0, 21):
            N, D = convergents.hirschhorn_closed(n + 1, q, a, b, lam)
            errs.append(_rel_err(N / ((1 - b) * D), cfrac.hirschhorn_cf(p, n + 1)))
    # the exact pair against the Fraction recurrence at x = 1
    mismatches = 0
    for q, a, b, lam in _exact_draws(rng):
        seq = recurrence.run_jfraction(recurrence.hirschhorn_family(Params(q, a, b, lam)), Fraction(1), 10)
        for n in range(0, 11):
            mismatches += convergents.hirschhorn_closed(n, q, a, b, lam) != (seq.N[n], seq.D[n])
    return (
        ("50 draws, n<=20: max rel err", errs, 1e-11),
        ("exact n<=10: mismatches", mismatches, 1),
    )


@_criterion("entry15-a0-formulas", "convergents")
def check_entry15_a0():
    rng = random.Random(1603)
    errs15, errs_a0 = [], []
    for _ in range(50):
        q = _draw_q(rng)
        a = rng.uniform(-0.9, 0.9)
        b = rng.uniform(-0.9, 0.9)
        lam = rng.uniform(-1, 1)
        # one run per family: the depth-26 prefix equals every shallower run
        seq15 = recurrence.run_jfraction(recurrence.b0_family(Params(q, a, 0, lam)), 1, 26)
        seq_a0 = recurrence.run_jfraction(recurrence.hirschhorn_family(Params(q, 0, b, lam)), 1, 26)
        for n in range(1, 26):
            Nh, Dh = convergents.entry15(n, a, lam, q)
            errs15.append(_rel_err((1 + a) * Nh / Dh, seq15.D[n + 1] / seq15.N[n + 1]))
            Np, Dp = convergents.a0_closed(n, b, lam, q)
            errs_a0.append(_rel_err(Np / Dp, seq_a0.N[n + 1] / ((1 - b) * seq_a0.D[n + 1])))
    # each closed form against the exact recurrence of its family at x = 1
    mismatches = 0
    one = Fraction(1)
    for q, a, b, lam in _exact_draws(rng):
        seq15 = recurrence.run_jfraction(recurrence.b0_family(Params(q, a, 0, lam)), one, 11)
        seq_a0 = recurrence.run_jfraction(recurrence.hirschhorn_family(Params(q, 0, b, lam)), one, 11)
        for n in range(1, 11):
            Nh, Dh = convergents.entry15(n, a, lam, q)
            mismatches += ((1 + a) * Nh, Dh) != (seq15.D[n + 1], seq15.N[n + 1])
            Np, Dp = convergents.a0_closed(n, b, lam, q)
            mismatches += ((1 - b) * Np, Dp) != (seq_a0.N[n + 1], seq_a0.D[n + 1])
    return (
        ("50 draws, n<=25: entry15 max rel err", errs15, 1e-11),
        ("a0 max rel err", errs_a0, 1e-11),
        ("exact n<=10: mismatches against the Fraction recurrence", mismatches, 1),
    )


@_criterion("density-cross-theorem", "measure", seconds=2.0)
def check_density_cross():
    grid = [-0.99 + 1.98 * i / 100 for i in range(101)]
    # the acceptance set, and one whose measure also has point masses at
    # 1.1133 and 2.1403, the mass-carrying class the benchmark draws
    return [(f"a={p.a:g}, 101 points in (-0.99, 0.99): max |nevai - inversion|",
             [abs(measure.density_nevai(x, p) - measure.density_inversion(x, p)) for x in grid], 1e-8)
            for p in (ACCEPT_PARAMS, Params(0.4, 2.0, -0.25, 0.2))]


@_criterion("markov-limit", "measure")
def check_markov_limit():
    p = ACCEPT_PARAMS
    ks = (50, 100, 200, 300)
    errs300, oracle_gaps, f_gaps, ratios, mp_errs = [], [], [], [], []
    for x in (2.0, -2.0, 1.2 + 0.5j):
        X = measure.stieltjes_transform(x, p)
        errs300.append(abs(recurrence.monic_ratio(p, x, 300) - X))
        # mpf errors: at k = 300 they sit near 1e-344, below the double range
        errs, X_mp, F_mp = _mp_markov_errors(p, x, ks, dps=460)
        ratios += [float(errs[i + 1] / errs[i]) for i in range(len(ks) - 1)]
        mp_errs += errs
        oracle_gaps.append(abs(X - X_mp) / max(1.0, abs(X_mp)))
        f_gaps.append(abs(measure.series_F(measure.rho_select(x), p) - F_mp) / max(1.0, abs(F_mp)))
    # the forward ratio against the backward fraction where the forward run
    # rescales: chunks at x = +-2 past P_k's overflow near k = 1130, and one
    # level per chunk at |x| = 1e150, where the growth bound fails
    rescaled = []
    for x, d in ((2.0, 1200), (-2.0, 1200), (1e150, 40), (1e150 + 3e149j, 40)):
        back = cfrac.backward_convergent(recurrence.monic_family(p), x, d)
        rescaled.append(abs(recurrence.monic_ratio(p, x, d) - back) / abs(back))
    return (
        ("max |Pstar_300/P_300 - X| (double)", errs300, 1e-9),
        ("max |X - oracle X| / max(1, |X|)", oracle_gaps, 1e-12),
        ("max |series_F - oracle F| / max(1, |F|)", f_gaps, 1e-12),
        ("x = +-2, d = 1200: |Pstar_d/P_d - backward| / |backward|", rescaled[:2], 1e-13),
        ("x = 1e150, 1e150+3e149i, d = 40 (no growth bound): same", rescaled[2:], 1e-13),
        (f"extended precision, k in {ks}: largest ratio of successive errors", ratios, 1),
        ("smallest error", min(mp_errs), math.inf),
    )


@_criterion("orthogonality-gram", "measure")
def check_orthogonality_gram():
    p = ACCEPT_PARAMS
    g = measure.gram_matrix(p, 5)
    deficit = abs(1.0 - g[0][0])
    if not deficit < 1e-6:  # a NaN G00 lands here too, and its row fails
        return (("|1 - G00|, Gram rows skipped", deficit, math.inf),)
    return (
        ("|1 - G00|", deficit, 1e-6),
        ("max off-diagonal", [abs(g[n][m]) for n in range(6) for m in range(6) if n != m], 1e-6),
        ("max |G_nn - h_n|", [abs(g[n][n] - measure.norm_squared(n, p)) for n in range(6)], 1e-6),
    )


@_criterion("moment-solutions", "moments")
def check_moment_solutions():
    p = ACCEPT_PARAMS
    x = 0.3
    pkc = [moments.moment_pk_closed(k, x, p) for k in range(17)]
    residuals = []
    for k in range(1, 16):
        alpha, beta = recurrence.monic_alpha(p, k), recurrence.monic_beta(p, k)
        residuals.append(abs(x * pkc[k] - pkc[k + 1] - alpha * pkc[k] - beta * pkc[k - 1]))
    p2 = Params(0.4, 0.3, -0.2, 0.2)  # b = -lam specialization
    pk2 = [moments.moment_pk_closed(k, x, p2) for k in range(11)]
    Pk2 = recurrence.run_monic(p2, x, 10)
    # |lam q / b| = 0.45: the sum needs nodes past the 35th, where the weight's
    # q/4ct and -lam q/4bct products overflow if formed at the node itself
    p3 = Params(0.3, 0.5, -0.2, 0.3)
    slow_tail = abs(moments.moment_pk_integral(0, x, p3) - moments.moment_pk_closed(0, x, p3))
    # x = 0.3 is on the cut, where the q-integral forms one endpoint and
    # conjugates it; these two points run both endpoints
    off_cut = [
        (f"q-integral vs 2phi1 at x = {label} (k<=10)",
         [abs(moments.moment_pk_closed(k, z, p) - moments.moment_pk_integral(k, z, p)) for k in range(11)], 1e-10)
        for label, z in (("0.3+0.4i", 0.3 + 0.4j), ("-1.3", -1.3))
    ]
    return (
        ("k<=15 recurrence residual", residuals, 1e-10),
        ("q-integral vs 2phi1", [abs(pkc[k] - moments.moment_pk_integral(k, x, p)) for k in range(16)], 1e-10),
        *off_cut,
        ("b = -lam vs P_k (k<=10)", [abs(pk2[k] / pk2[0] - Pk2[k]) for k in range(11)], 1e-10),
        ("k = 0 at |lam q/b| = 0.45: q-integral vs 2phi1", slow_tail, 1e-10),
    )


@_criterion("asymptotics", "asymptotics")
def check_asymptotics():
    p = ACCEPT_PARAMS
    ratios, gaps = [], []
    for i in range(9):
        x = -0.8 + 1.6 * i / 8
        r25, r100 = _mp_asym_residuals(p, x, (25, 100), dps=80)
        ratios.append(r100 / r25)
        e25_pkg = abs(2**25 * recurrence.run_monic(p, x, 25)[25] - 2**25 * asymptotics.asymptotic_P(25, x, p))
        gaps.append(abs(e25_pkg - r25))
    pb = Params(0.4, 0.3, 0.0, -0.5)
    seq = recurrence.run_jfraction(recurrence.b0_family(pb), 3.0, 100)
    # the 0phi1 ratio against the b = 0 fraction's Markov limit, by both public routes
    transforms = {x: asymptotics.stieltjes_b0(x, pb) for x in (3.0, -2.5, 5.0, 1.5 + 0.5j, 0.05 + 0.02j)}
    b0_errs = [[abs(route(recurrence.b0_family(pb), x, 200) - s) / abs(s) for x, s in transforms.items()]
               for route in (cfrac.backward_convergent, cfrac.convergent)]
    return (
        ("9-point grid, extended precision: largest ratio |e_100 / e_25|", ratios, 1),
        ("k=25: max |package e_25 - oracle e_25|", gaps, 1e-11),
        ("b=0, n=100: |Q ratio - 1|", abs(seq.D[100] / asymptotics.asymptotic_Q(100, 3.0, pb) - 1), 1e-6),
        ("|Q* ratio - 1|", abs(seq.N[100] / asymptotics.asymptotic_Qstar(100, 3.0, pb) - 1), 1e-6),
        ("b=0, x in {3, -2.5, 5, 1.5+0.5i, 0.05+0.02i}: |backward_convergent_200 - stieltjes_b0| / |stieltjes_b0|",
         b0_errs[0], 1e-13),
        ("same, convergent_200", b0_errs[1], 1e-13),
    )


@_criterion("g-limit-identity", "convergents")
def check_g_limit():
    q, b, lam = 0.4, -0.3, 0.5
    p = Params(q, 0.0, b, lam)
    g_shifted = convergents.g_function(b, lam * q, q)
    err_cf = abs(g_shifted / convergents.g_function(b, lam, q) - cfrac.hirschhorn_cf(p, 200))
    Np, _ = convergents.a0_closed(60, b, lam, q)
    return (
        ("|g(b, lam q)/g(b, lam) - CF_200|", err_cf, 1e-12),
        ("|N'_60 - g(b, lam q)/(1+b)|", abs(Np - g_shifted / (1 + b)), 1e-8),
    )


def _horner(coeffs, t):
    """sum(coeffs[i] * t**i) by Horner's rule."""
    acc = 0.0
    for co in reversed(coeffs):
        acc = acc * t + co
    return acc


def _abs_term_sum(upper, lower, q, z) -> float:
    """sum_k |t_k| over the terms t_k of ``phi(upper, lower, q, z)``.

    Where the terms cancel, a double-precision sum is good to some eps times
    this sum, not times |phi|: against 50-digit sums over the 2000 sums of a
    1000-draw sweep, phi erred by at most 32 eps sum_k |t_k|, while its
    relative error reached 6e-7.
    A scale needs few digits, so the sum stops once a term is below 1e-6 of
    it; stopping early could only shrink the scale and tighten a check.
    """
    total = 0.0
    for t in qseries._phi_terms(upper, lower, q, z):
        term = abs(t)
        total += term
        if not term > 1e-6 * total:  # a NaN term ends the sum too
            return total


def _phi_sum_errors(rng: random.Random, draws: int) -> tuple[list, list]:
    """Errors of ``phi`` against two summation formulas (Gasper & Rahman,
    *Basic Hypergeometric Series*, 2nd ed., 2004, (1.3.2) and (1.5.1)):

        1phi0(a; -; q, z) = (az; q)_inf / (z; q)_inf,
        2phi1(a, b; c; q, c/ab) = (c/a, c/b; q)_inf / (c, c/ab; q)_inf,

    one per draw and formula, over ``draws`` draws of complex a, b, z with
    c = abz, |q| <= 0.85 and |z| < 0.95.  Each error is scaled by the sum's
    sum_k |t_k| >= max(1, |phi|), the size of its rounding error; the
    products are good to ~1e-14.
    """
    binomial, gauss = [], []
    for _ in range(draws):
        q = _draw_q(rng, hi=0.85)
        a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        z = cmath.rect(rng.uniform(0, 0.95), rng.uniform(-cmath.pi, cmath.pi))
        lhs = qseries.phi((a,), (), q, z)
        rhs = qpochhammer_inf(a * z, q) / qpochhammer_inf(z, q)
        binomial.append(abs(lhs - rhs) / _abs_term_sum((a,), (), q, z))
        c = a * b * z
        zc = c / (a * b)
        lhs = qseries.phi((a, b), (c,), q, zc)
        num = qpochhammer_inf(c / a, q) * qpochhammer_inf(c / b, q)
        rhs = num / (qpochhammer_inf(c, q) * qpochhammer_inf(zc, q))
        gauss.append(abs(lhs - rhs) / _abs_term_sum((a, b), (c,), q, zc))
    return binomial, gauss


@_criterion("qseries-kernel", "qseries")
def check_qseries_kernel():
    """Scaled errors of five q-series identities: the first three over 100
    draws, phi's two summation formulas over 25; and the terminating
    q-binomial theorem 1phi0(q^-n; -; q, z) = (z q^-n; q)_n (Gasper & Rahman,
    Basic Hypergeometric Series, sec. 1.3), exactly on 10 Fraction draws
    with n <= 12, which checks the integer path of qpochhammer against
    phi's term ratios."""
    gate = 1e-12
    rng = random.Random(1610)
    splitting, quasi, by_parts = [], [], []
    for _ in range(100):
        q = _draw_q(rng)
        a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        m, n = rng.randint(0, 20), rng.randint(0, 20)
        lhs = qpochhammer(a, q, m + n)
        rhs = qpochhammer(a, q, m) * qpochhammer(a * q**m, q, n)
        splitting.append(abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))

        qq = rng.uniform(0.05, 0.7)
        z = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.1, 2))
        quasi.append(abs(theta(z, qq) / theta(z * qq, qq) + z) / max(1.0, abs(z)))

        fc = [rng.uniform(-1, 1) for _ in range(6)]
        gc = [rng.uniform(-1, 1) for _ in range(6)]
        fpoly = lambda t: _horner(fc, t)
        gpoly = lambda t: _horner(gc, t)
        aa, bb = (0.0, 1.0) if rng.random() < 0.5 else (rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = moments.qintegral(lambda t: fpoly(t) * gpoly(q * t), aa, bb, q)
        part_int = moments.qintegral(lambda t: gpoly(t) * fpoly(t / q), aa, bb, q) / q
        part_bdy = (1 - q) / q * (aa * gpoly(aa) * fpoly(aa / q) - bb * gpoly(bb) * fpoly(bb / q))
        # poly values at t/q blow up for tiny |q|; scale by the cancelling parts
        scale = max(1.0, abs(lhs), abs(part_int), abs(part_bdy))
        by_parts.append(abs(lhs - part_int - part_bdy) / scale)
    # 25 draws per formula (~8 ms): the sweep dispatches this criterion last,
    # so its time adds to verify's wall; tests/test_qseries.py runs 1000
    binomial, gauss = _phi_sum_errors(random.Random(1611), 25)
    rng = random.Random(1612)
    mismatches = 0
    for _ in range(10):
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(8, 15))
        z = Fraction(rng.randint(-9, 9), rng.randint(2, 9))
        n = rng.randint(0, 12)
        mismatches += qseries.phi((q**-n,), (), q, z) != qpochhammer(z * q**-n, q, n)
    return (
        ("splitting", splitting, gate),
        ("theta quasiperiodicity", quasi, gate),
        ("by-parts", by_parts, gate),
        ("q-binomial theorem", binomial, gate),
        ("q-Gauss sum", gauss, gate),
        ("exact q-binomial theorem, mismatches", mismatches, 1),
    )


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _child(r: int, w: int, fn) -> None:
    """Run one criterion in a forked child and write the pickled outcome to the pipe end ``w``.

    The outcome is ``(True, result)`` or ``(False, pickled exception or None,
    traceback text)``.  The child leaves with ``os._exit``, so the stdio
    buffers it inherited are never flushed a second time.
    """
    try:
        os.close(r)
        try:
            payload = pickle.dumps((True, fn()))
        except BaseException as exc:
            import traceback

            text = traceback.format_exc()
            try:
                blob = pickle.dumps(exc)
            except BaseException:
                blob = None
            payload = pickle.dumps((False, blob, text))
        with open(w, "wb") as out:
            out.write(payload)
    finally:
        os._exit(0)


def _outcome(name: str, data: bytes, status: int) -> CheckResult:
    """The result a child sent, or a failed result if it sent none; a raised exception is re-raised."""
    if os.WIFSIGNALED(status):
        return CheckResult(name, False, f"worker killed by signal {os.WTERMSIG(status)}, no result")
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        return CheckResult(name, False, f"worker exited with status {code}, no result")
    try:
        sent = pickle.loads(data)
    except Exception:
        return CheckResult(name, False, f"worker sent no readable result ({len(data)} bytes)")
    if sent[0]:
        return sent[1]
    _, blob, text = sent
    try:
        exc = pickle.loads(blob)
    except Exception:
        raise RuntimeError(f"criterion {name} raised in its worker:\n{text}") from None
    raise exc


def _run_forked(chosen, workers: int) -> list[CheckResult]:
    """Run each criterion in its own forked child, at most ``workers`` alive at once.

    Each child's pipe is read to EOF before the child is reaped, so a large
    result cannot fill the pipe and stall both sides.  Results keep the
    order of ``chosen``.  If a child's exception is re-raised here, or this
    process is interrupted, the children still running are killed and reaped
    first.
    """
    results = [None] * len(chosen)
    todo = list(enumerate(chosen))
    todo.reverse()
    running = {}  # read fd -> [index, name, pid, chunks]
    sel = selectors.DefaultSelector()
    try:
        while todo or running:
            while todo and len(running) < workers:
                i, (name, fn) = todo.pop()
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(r)
                    os.close(w)
                    raise
                if pid == 0:
                    _child(r, w, fn)
                running[r] = [i, name, pid, []]
                os.close(w)
                sel.register(r, selectors.EVENT_READ)
            for key, _ in sel.select():
                i, name, pid, chunks = running[key.fd]
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    chunks.append(chunk)
                    continue
                _, status = os.waitpid(pid, 0)  # EOF: the child has sent all it will send
                del running[key.fd]
                sel.unregister(key.fd)
                os.close(key.fd)
                results[i] = _outcome(name, b"".join(chunks), status)
    finally:
        for fd, (_, _, pid, _) in running.items():
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # already reaped
                pass
            os.close(fd)
        sel.close()
    return results


def run_suite(suite: str) -> list[CheckResult]:
    """Run one named suite (or "all"); unknown names raise QFracError.

    The criteria are independent, so they run at the same time in forked
    children, one per usable CPU, and the results come back in
    :data:`CRITERIA` order.  With one CPU, without ``os.fork``, or while
    other threads are alive (a fork would copy their locks mid-use), they
    run one after another in this process.
    """
    if suite not in SUITE_NAMES:
        raise QFracError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    chosen = [(name, fn) for name, group, fn in CRITERIA if suite == "all" or group == suite]
    workers = min(_worker_count(), len(chosen))
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        return _run_forked(chosen, workers)
    return [fn() for _, fn in chosen]
