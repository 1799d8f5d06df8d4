"""Acceptance suites: every shipped claim, runnable as one pass/fail line each.

Each check is deterministic (fixed RNG seeds) and self-contained; the CLI
``verify`` subcommand and the acceptance tests both dispatch through
:data:`CRITERIA`.  Because no check reads another's state, :func:`run_suite`
runs them at the same time, each in its own forked child, with at most one
child per usable CPU, and returns the results in :data:`CRITERIA` order.  On
a 2-vCPU VM this took a fresh-interpreter ``qfraclab verify`` from a median
of 0.77 s to 0.61 s (ten alternating pairs; 0.72 s to 0.57 s in a second
set).  With one CPU the sweep runs one check after another, in process.
Two checks compare error curves whose true values decay
far below double-precision noise (Markov convergent errors past k ~ 50 and
sinusoid residuals past k ~ 60); those comparisons run in extended
precision via mpmath oracles that re-derive the quantities independently,
while the package's own double-precision values are cross-checked against
the oracles where they are resolvable.

The oracle series (F and G of the Stieltjes transform, R of the
asymptotics) are q-hypergeometric: the ratio of consecutive terms is
bounded by B |q|^m / (1 - |q|)^2, with B = 2|c| + |lam/b| for F and G
(using |rho| <= 1) and B = 2|c| + |lam q/b| for R.  A sum stops once that
bound is at most 1/2 and the last term is at most ``mp.eps`` times the
partial sum; the remaining tail is then no larger than the last term.  A
sum that reaches its term cap (160 for F/G, 80 for R) before the rule
holds raises TruncationError, which fails the criterion.  Real points
outside [-1, 1] run in real arithmetic (mpf), with
rho = 1 / (x + sign(x) sqrt(x^2 - 1)); complex points run in mpc.
"""

from __future__ import annotations

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
from .qseries import qbinomial, qpochhammer, theta
from .recurrence import Params

__all__ = ["CheckResult", "CRITERIA", "SUITE_NAMES", "run_suite"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _rel_err(a, b) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _draw_q(rng: random.Random, lo: float = 0.05, hi: float = 0.9) -> float:
    q = rng.uniform(lo, hi)
    return q if rng.random() < 0.5 else -q


# ---------------------------------------------------------------------------
# mpmath oracles (independent high-precision reimplementations)
# ---------------------------------------------------------------------------


# Term caps of the oracle sums.  Each sum stops earlier, once its tail is
# certified below the working precision; reaching a cap raises instead.
_FG_TERMS = 160
_R_TERMS = 80


def _mp_rho(x):
    """Root of rho^2 - 2 x rho + 1 inside the unit disc; real x beyond [-1, 1] stays in mpf."""
    if isinstance(x, mp.mpf):
        return 1 / (x + mp.sign(x) * mp.sqrt(x * x - 1))
    s = mp.sqrt(x - 1) * mp.sqrt(x + 1)
    return 1 / (x + s)


def _tail_certified(term, total, ratio_bound, eps) -> bool:
    """True when every later term ratio is at most 1/2 and the last term is below eps * |total|.

    The remaining tail is then at most the last term, so the sum is exact to
    the working precision.
    """
    return ratio_bound <= 0.5 and abs(term) <= eps * abs(total)


def _mp_fg(rho, q, b, lam, c, shift: int):
    """F (shift=1) or G (shift=0) series at high precision, with |rho| <= 1."""
    rho2 = rho * rho
    r = lam / b
    eps = +mp.eps
    # |term_{m+1} / term_m| <= (2|c| + |lam/b|) |q|^m / (1 - |q|)^2 for |rho| <= 1
    bound = (2 * abs(c) + abs(r)) / (1 - abs(q)) ** 2
    total = term = mp.mpf(1)
    qm = mp.mpf(1)  # q^m
    for _ in range(1, _FG_TERMS):
        qprev = qm
        qm *= q
        term *= (-2 * c * rho - r * qm * rho2) * (qm if shift else qprev) / ((1 - qm) * (1 - qm * rho2))
        total += term
        if _tail_certified(term, total, bound * abs(qm), eps):
            return total
    raise TruncationError(f"F/G oracle not converged within {_FG_TERMS} terms")


def _mp_monic(q, b, lam, c, x, depth: int):
    """P_0..P_depth and Pstar_0..Pstar_depth, stepped together."""
    P, Ps = [mp.mpf(1), x - c], [mp.mpf(0), mp.mpf(1)]
    r = lam / b
    qk = mp.mpf(1)
    for k in range(1, depth):
        qk *= q
        d, e = x - c * qk, (1 + r * qk) / 4
        P.append(d * P[k] - e * P[k - 1])
        Ps.append(d * Ps[k] - e * Ps[k - 1])
    return P, Ps


def _mp_markov_errors(p: Params, x, ks, dps: int):
    """|Pstar_k/P_k - X| at the requested depths, as mpf so no error underflows.

    Real x runs in real arithmetic; X is returned as a complex double.
    """
    with mp.workdps(dps):
        q, b, lam = mp.mpf(p.q), mp.mpf(p.b), mp.mpf(p.lam)
        c = mp.mpf(p.a) / (2 * mp.sqrt(-b))
        xm = mp.mpf(x.real) if complex(x).imag == 0 and abs(x) > 1 else mp.mpc(x)
        rho = _mp_rho(xm)
        X = 2 * rho * _mp_fg(rho, q, b, lam, c, 1) / _mp_fg(rho, q, b, lam, c, 0)
        P, Ps = _mp_monic(q, b, lam, c, xm, max(ks))
        return [abs(Ps[k] / P[k] - X) for k in ks], complex(X)


def _mp_series_R(theta_mp, q, b, lam, c):
    eit = mp.expj(theta_mp)
    e2it = eit * eit
    # (1 - parg q^m)(-2c e^{i theta} q^m) with parg = -lam q e^{i theta} / (2bc),
    # multiplied out so that c = 0 (a = 0) needs no division
    u, v = -2 * c * eit, -lam * q / b * e2it
    eps = +mp.eps
    # |term_{m+1} / term_m| <= (2|c| + |lam q/b|) |q|^m / (1 - |q|)^2
    bound = (2 * abs(c) + abs(lam * q / b)) / (1 - abs(q)) ** 2
    term = total = mp.mpc(1)
    qm = mp.mpf(1)  # q^m
    for _ in range(1, _R_TERMS):
        qn = qm * q
        term *= (u + v * qm) * qm / ((1 - qn) * (1 - qn * e2it))
        total += term
        qm = qn
        if _tail_certified(term, total, bound * abs(qm), eps):
            return -total / (mp.mpc(0, 1) * mp.sin(theta_mp))
    raise TruncationError(f"R oracle not converged within {_R_TERMS} terms")


def _mp_asym_residuals(p: Params, x: float, ks, dps: int = 80):
    """|2^k P_k(x) - |R| sin((k+1) theta - phi + pi/2)| in extended precision."""
    with mp.workdps(dps):
        q, b, lam = mp.mpf(p.q), mp.mpf(p.b), mp.mpf(p.lam)
        c = mp.mpf(p.a) / (2 * mp.sqrt(-b))
        theta_mp = mp.acos(mp.mpf(x))
        R = _mp_series_R(theta_mp, q, b, lam, c)
        absR, phase = abs(R), mp.arg(R)
        P, _ = _mp_monic(q, b, lam, c, mp.mpf(x), max(ks))
        return [float(abs(2**k * P[k] - absR * mp.sin((k + 1) * theta_mp - phase + mp.pi / 2))) for k in ks]


# ---------------------------------------------------------------------------
# the acceptance checks
# ---------------------------------------------------------------------------

ACCEPT_PARAMS = Params(0.4, 0.3, -0.25, 0.2)


def check_entry16_identity() -> CheckResult:
    t0 = time.perf_counter()
    rng = random.Random(1601)
    worst = 0.0
    for _ in range(100):
        q = _draw_q(rng)
        lam = rng.uniform(-2, 2)
        # the n-th convergent is the backward value of the first n + 1 levels
        nums, dens = cfrac._jfraction_levels(recurrence.entry16_family(lam, q), 1, 31)
        for n in range(0, 31):
            N, D = convergents.entry16(n, lam, q)
            worst = max(worst, _rel_err(N / D, cfrac.eval_backward(nums, dens, n + 1)))
    ok = worst < 1e-11
    exact_ok = True
    for _ in range(5):
        q = Fraction(rng.randint(1, 8), rng.randint(9, 20))
        lam = Fraction(rng.randint(-6, 6) or 1, rng.randint(2, 9))
        nums, dens = cfrac._jfraction_levels(recurrence.entry16_family(lam, q), Fraction(1), 13)
        for n in range(0, 13):
            N, D = convergents.entry16(n, lam, q)
            exact_ok = exact_ok and (N / D == cfrac.eval_backward(nums, dens, n + 1))
    dt = time.perf_counter() - t0
    ok = ok and exact_ok and dt < 5.0
    return CheckResult(
        "entry16-identity",
        ok,
        f"100 draws, n<=30: max rel err {worst:.2e}; exact mode n<=12 "
        f"{'identical' if exact_ok else 'MISMATCH'}; {dt:.2f} s",
    )


def check_hirschhorn_formula() -> CheckResult:
    t0 = time.perf_counter()
    rng = random.Random(1602)
    worst = 0.0
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
            closed = N / ((1 - b) * D)
            worst = max(worst, _rel_err(closed, cfrac.hirschhorn_cf(p, n + 1)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-11 and dt < 10.0
    return CheckResult(
        "hirschhorn-formula",
        ok,
        f"50 draws, n<=20: max rel err {worst:.2e}; {dt:.2f} s",
    )


def check_entry15_a0() -> CheckResult:
    rng = random.Random(1603)
    worst15 = 0.0
    worst_a0 = 0.0
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
            worst15 = max(worst15, _rel_err((1 + a) * Nh / Dh, seq15.D[n + 1] / seq15.N[n + 1]))
            Np, Dp = convergents.a0_closed(n, b, lam, q)
            cf = seq_a0.N[n + 1] / ((1 - b) * seq_a0.D[n + 1])
            worst_a0 = max(worst_a0, _rel_err(Np / Dp, cf))
    exact_ok = True
    for _ in range(5):
        q = Fraction(rng.randint(1, 7), rng.randint(8, 15))
        a = Fraction(rng.randint(-4, 4), rng.randint(5, 9))
        lam = Fraction(rng.randint(-5, 5) or 2, rng.randint(2, 7))
        for n in range(1, 11):
            Nh, Dh = convergents.entry15(n, a, lam, q)
            exact_ok = exact_ok and convergents.ram_Q(n + 1, Fraction(1), a, lam, q) == (1 + a) * Nh
            exact_ok = exact_ok and convergents.ram_Qstar(n + 1, Fraction(1), a, lam, q) == Dh
    ok = worst15 < 1e-11 and worst_a0 < 1e-11 and exact_ok
    return CheckResult(
        "entry15-a0-formulas",
        ok,
        f"50 draws, n<=25: entry15 max rel err {worst15:.2e}, a0 max rel err {worst_a0:.2e}; "
        f"exact consistency n<=10 {'holds' if exact_ok else 'FAILS'}",
    )


def check_density_cross() -> CheckResult:
    t0 = time.perf_counter()
    # the acceptance set, and one whose measure also has point masses at
    # 1.1133 and 2.1403, the mass-carrying class the benchmark draws
    sets = (ACCEPT_PARAMS, Params(0.4, 2.0, -0.25, 0.2))
    worsts = []
    for p in sets:
        worst = 0.0
        for i in range(101):
            x = -0.99 + 1.98 * i / 100
            dn = measure.density_nevai(x, p)
            di = measure.density_inversion(x, p)
            worst = max(worst, abs(dn - di))
        worsts.append(worst)
    dt = time.perf_counter() - t0
    ok = max(worsts) < 1e-8 and dt < 2.0
    per_set = ", ".join(f"a={p.a:g}: {w:.2e}" for p, w in zip(sets, worsts))
    return CheckResult(
        "density-cross-theorem",
        ok,
        f"101 grid points in (-0.99, 0.99) per set: max |nevai - inversion| {per_set}; {dt:.2f} s",
    )


def check_markov_limit() -> CheckResult:
    p = ACCEPT_PARAMS
    points = (2.0, -2.0, 1.2 + 0.5j)
    ks = (50, 100, 200, 300)
    ok = True
    worst = 0.0
    decreasing = True
    mp_errs = []
    for x in points:
        X = measure.stieltjes_transform(x, p)
        err300 = abs(recurrence.monic_ratio(p, x, 300) - X)
        worst = max(worst, err300)
        # mpf errors: at k = 300 they sit near 1e-344, below the double range
        errs, X_mp = _mp_markov_errors(p, x, ks, dps=460)
        decreasing = decreasing and all(errs[i + 1] < errs[i] for i in range(len(ks) - 1))
        mp_errs += errs
        ok = ok and abs(X - X_mp) <= 1e-12 * max(1.0, abs(X_mp))
    ok = ok and worst < 1e-9 and decreasing
    return CheckResult(
        "markov-limit",
        ok,
        f"max |Pstar_300/P_300 - X| = {worst:.2e} (double); strict error decrease over "
        f"k in {ks} {'holds' if decreasing else 'FAILS'} (extended precision, smallest "
        f"error {mp.nstr(min(mp_errs), 3)})",
    )


def check_orthogonality_gram() -> CheckResult:
    p = ACCEPT_PARAMS
    g = measure.gram_matrix(p, 5)
    deficit = 1.0 - g[0][0]
    if abs(deficit) < 1e-6:
        off = max(abs(g[n][m]) for n in range(6) for m in range(6) if n != m)
        diag = max(abs(g[n][n] - measure.norm_squared(n, p)) for n in range(6))
        ok = off < 1e-6 and diag < 1e-6
        detail = f"G00 = {g[0][0]:.9f}; max off-diagonal {off:.2e}; max |G_nn - h_n| {diag:.2e}"
    else:
        ok = True
        detail = f"discrete mass suspected: deficit = {deficit:.3e}; Gram assertions skipped"
    return CheckResult("orthogonality-gram", ok, detail)


def check_moment_solutions() -> CheckResult:
    p = ACCEPT_PARAMS
    x = 0.3
    pkc = [moments.moment_pk_closed(k, x, p) for k in range(17)]
    worst_res = 0.0
    for k in range(1, 16):
        beta = recurrence.monic_beta(p, k)
        res = abs(x * pkc[k] - pkc[k + 1] - recurrence.monic_alpha(p, k) * pkc[k] - beta * pkc[k - 1])
        worst_res = max(worst_res, res)
    worst_agree = 0.0
    for k in range(0, 16):
        worst_agree = max(worst_agree, abs(pkc[k] - moments.moment_pk_integral(k, x, p)))
    p2 = Params(0.4, 0.3, -0.2, 0.2)  # b = -lam specialization
    pk2 = [moments.moment_pk_closed(k, x, p2) for k in range(11)]
    Pk2 = recurrence.run_monic(p2, x, 10, "P")
    worst_spec = max(abs(pk2[k] / pk2[0] - Pk2[k]) for k in range(11))
    # |lam q / b| = 0.45: the sum needs nodes past the 35th, where the weight's
    # q/4ct and -lam q/4bct products overflow if formed at the node itself
    p3 = Params(0.3, 0.5, -0.2, 0.3)
    slow_tail = abs(moments.moment_pk_integral(0, x, p3) - moments.moment_pk_closed(0, x, p3))
    ok = worst_res < 1e-10 and worst_agree < 1e-10 and worst_spec < 1e-10 and slow_tail < 1e-10
    return CheckResult(
        "moment-solutions",
        ok,
        f"k<=15 recurrence residual {worst_res:.2e}; q-integral vs 2phi1 {worst_agree:.2e}; "
        f"b = -lam vs P_k (k<=10) {worst_spec:.2e}; |lam q/b| = 0.45, k = 0: {slow_tail:.2e}",
    )


def check_asymptotics() -> CheckResult:
    p = ACCEPT_PARAMS
    grid = [-0.8 + 1.6 * i / 8 for i in range(9)]
    decrease_ok = True
    match_ok = True
    for x in grid:
        r25, r100 = _mp_asym_residuals(p, x, (25, 100), dps=80)
        decrease_ok = decrease_ok and r100 < r25
        e25_pkg = abs(2**25 * recurrence.run_monic(p, x, 25, "P")[25] - 2**25 * asymptotics.asymptotic_P(25, x, p))
        match_ok = match_ok and abs(e25_pkg - r25) < 1e-11
    pb = Params(0.4, 0.3, 0.0, -0.5)
    seq = recurrence.run_jfraction(recurrence.b0_family(pb), 3.0, 100)
    rq = seq.D[100] / asymptotics.asymptotic_Q(100, 3.0, pb)
    rqs = seq.N[100] / asymptotics.asymptotic_Qstar(100, 3.0, pb)
    ratio_ok = abs(rq - 1) < 1e-6 and abs(rqs - 1) < 1e-6
    ok = decrease_ok and match_ok and ratio_ok
    return CheckResult(
        "asymptotics",
        ok,
        f"9-point grid residual |e_100| < |e_25| {'holds' if decrease_ok else 'FAILS'} "
        f"(package matches oracle at k=25: {'yes' if match_ok else 'NO'}); "
        f"b=0 ratios at n=100: |Q ratio - 1| = {abs(rq - 1):.2e}, |Q* ratio - 1| = {abs(rqs - 1):.2e}",
    )


def check_g_limit() -> CheckResult:
    q, b, lam = 0.4, -0.3, 0.5
    p = Params(q, 0.0, b, lam)
    lhs = convergents.g_function(b, lam * q, q) / convergents.g_function(b, lam, q)
    cf = cfrac.hirschhorn_cf(p, 200)
    err_cf = abs(lhs - cf)
    Np, _ = convergents.a0_closed(60, b, lam, q)
    err_lim = abs(Np - convergents.g_function(b, lam * q, q) / (1 + b))
    ok = err_cf < 1e-12 and err_lim < 1e-8
    return CheckResult(
        "g-limit-identity",
        ok,
        f"|g(b, lam q)/g(b, lam) - CF_200| = {err_cf:.2e}; |N'_60 - g(b, lam q)/(1+b)| = {err_lim:.2e}",
    )


def _horner(coeffs, t):
    """sum(coeffs[i] * t**i) by Horner's rule."""
    acc = 0.0
    for co in reversed(coeffs):
        acc = acc * t + co
    return acc


def check_qseries_kernel() -> CheckResult:
    rng = random.Random(1610)
    worst = 0.0
    for _ in range(100):
        q = _draw_q(rng)
        a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        m, n = rng.randint(0, 20), rng.randint(0, 20)
        lhs = qpochhammer(a, q, m + n)
        rhs = qpochhammer(a, q, m) * qpochhammer(a * q**m, q, n)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))

        nn = rng.randint(2, 20)
        kk = rng.randint(1, nn - 1)
        lhs = qbinomial(nn, kk, q)
        t1 = qbinomial(nn - 1, kk - 1, q)
        t2 = q**kk * qbinomial(nn - 1, kk, q)
        worst = max(worst, abs(lhs - (t1 + t2)) / max(1.0, abs(lhs), abs(t1), abs(t2)))

        qq = rng.uniform(0.05, 0.7)
        z = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.1, 2))
        ratio = theta(z, qq) / theta(z * qq, qq)
        worst = max(worst, abs(ratio + z) / max(1.0, abs(z)))

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
        worst = max(worst, abs(lhs - part_int - part_bdy) / scale)
    ok = worst < 1e-12
    return CheckResult(
        "qseries-kernel",
        ok,
        f"splitting / q-Pascal / theta quasiperiodicity / by-parts over 100 draws: "
        f"max scaled err {worst:.2e}",
    )


CRITERIA = (
    ("entry16-identity", "convergents", check_entry16_identity),
    ("hirschhorn-formula", "convergents", check_hirschhorn_formula),
    ("entry15-a0-formulas", "convergents", check_entry15_a0),
    ("density-cross-theorem", "measure", check_density_cross),
    ("markov-limit", "measure", check_markov_limit),
    ("orthogonality-gram", "measure", check_orthogonality_gram),
    ("moment-solutions", "moments", check_moment_solutions),
    ("asymptotics", "asymptotics", check_asymptotics),
    ("g-limit-identity", "convergents", check_g_limit),
    ("qseries-kernel", "qseries", check_qseries_kernel),
)

SUITE_NAMES = ("qseries", "convergents", "measure", "moments", "asymptotics", "all")


def _run_one(name, fn) -> CheckResult:
    """One criterion; a raised domain error is a failed criterion."""
    try:
        return fn()
    except QFracError as exc:
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _child(r: int, w: int, name: str, fn) -> None:
    """Run one criterion in a forked child and write the pickled outcome to the pipe end ``w``.

    The outcome is ``(True, result)`` or ``(False, pickled exception or None,
    traceback text)``.  The child leaves with ``os._exit``, so the stdio
    buffers it inherited are never flushed a second time.
    """
    try:
        os.close(r)
        try:
            payload = pickle.dumps((True, _run_one(name, fn)))
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
                    _child(r, w, name, fn)
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
    return [_run_one(name, fn) for name, fn in chosen]
