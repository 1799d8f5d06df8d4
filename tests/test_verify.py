"""The acceptance suite's machinery: the extended-precision oracles
(tail-certified sums against fixed-length reference sums, and caps that
raise), the one pass rule of ``_result``, and the forked sweep."""

import importlib
import inspect
import math
import os
import random
import signal
import sys
import threading
import time
from fractions import Fraction

import pytest
from mpmath import mp

import qfraclab
from qfraclab import asymptotics, cfrac, convergents, measure, moments, qseries, recurrence, verify
from qfraclab.errors import DomainError, TruncationError
from qfraclab.recurrence import Params

P = verify.ACCEPT_PARAMS
ASYM_GRID = [-0.8 + 1.6 * i / 8 for i in range(9)]


def _mp_consts(p):
    q, b, lam = mp.mpf(p.q), mp.mpf(p.b), mp.mpf(p.lam)
    return q, b, lam, mp.mpf(p.a) / (2 * mp.sqrt(-b))


def _fg_fixed(rho, q, b, lam, c, shift, nterms=160):
    """F/G summed over a fixed 160 terms, each power of q computed afresh."""
    rho2 = rho * rho
    total = term = mp.mpc(1)
    for m in range(1, nterms):
        qm = q**m
        term *= (-2 * c * rho - (lam / b) * qm * rho2) * q ** (m - 1 + shift) / ((1 - qm) * (1 - qm * rho2))
        total += term
    return total


def _r_fixed(theta, q, b, lam, c, nterms=80):
    """R summed over a fixed 80 terms."""
    eit = mp.exp(mp.mpc(0, 1) * theta)
    parg = -lam * q * eit / (2 * b * c)
    poch = pw = den = mp.mpc(1)
    qm = mp.mpf(1)
    total = mp.mpc(0)
    for _ in range(nterms):
        total += poch * pw / den
        poch *= 1 - parg * qm
        pw *= -2 * c * eit * qm
        den *= (1 - q * qm) * (1 - q * qm * eit * eit)
        qm *= q
    return -total / (mp.mpc(0, 1) * mp.sin(theta))


def _ulps(a, b):
    return abs(a - b) / (abs(b) * mp.eps)  # mp.eps = 2^(1 - prec)


@pytest.mark.parametrize("x", [2.0, -2.0, 1.2 + 0.5j])
@pytest.mark.parametrize("shift", [0, 1])
def test_fg_oracle_matches_fixed_length_sum(x, shift):
    with mp.workdps(460):
        q, b, lam, c = _mp_consts(P)
        xm = mp.mpc(x)
        rho = 1 / (xm + mp.sqrt(xm - 1) * mp.sqrt(xm + 1))
        ref = _fg_fixed(rho, q, b, lam, c, shift)
        xr = mp.mpf(x.real) if isinstance(x, float) else xm
        # F is the oracle's G at (c q, r q): the reference sums F with its own q^m factor
        cs, rs = (c * q, lam / b * q) if shift else (c, lam / b)
        assert _ulps(verify._mp_g(verify._mp_rho(xr), q, cs, rs), ref) < 8


@pytest.mark.parametrize("x", ASYM_GRID)
def test_r_oracle_matches_fixed_length_sum(x):
    with mp.workdps(80):
        q, b, lam, c = _mp_consts(P)
        theta = mp.acos(mp.mpf(x))
        assert _ulps(verify._mp_series_R(theta, q, b, lam, c), _r_fixed(theta, q, b, lam, c)) < 8


def test_r_oracle_at_a_zero_is_the_limit_from_small_a():
    # the R factor is multiplied out, so c = 0 divides by nothing
    ks = (10, 25, 60)
    zero = verify._mp_asym_residuals(Params(0.4, 0.0, -0.25, 0.2), 0.3, ks)
    near = verify._mp_asym_residuals(Params(0.4, 1e-12, -0.25, 0.2), 0.3, ks)
    for r0, r1 in zip(zero, near):
        assert 0 < r0 < float("inf")
        assert abs(r0 - r1) <= 1e-10 * r1


def _failed_detail(suite, name):
    (res,) = [r for r in verify.run_suite(suite) if r.name == name]
    assert not res.passed
    return res.detail


def test_fg_cap_below_need_raises(monkeypatch):
    monkeypatch.setattr(verify, "_FG_TERMS", 20)
    with pytest.raises(TruncationError):
        verify._mp_markov_errors(P, 2.0, (50,), dps=460)
    assert "TruncationError" in _failed_detail("measure", "markov-limit")


def test_markov_limit_fails_without_the_rescale(monkeypatch):
    # with no ledger limit the forward run is never rescaled, P_1200(+-2) passes
    # the double range, and the rows that compare monic_ratio there fail
    monkeypatch.setattr(recurrence, "_LEDGER_LIMIT", math.inf)
    assert "RangeError: Pstar_1200/P_1200 at x = 2.0 leaves the double range" in _failed_detail("measure", "markov-limit")


def test_r_cap_below_need_raises(monkeypatch):
    # R is G's oracle on the unit circle, so G's cap binds it
    monkeypatch.setattr(verify, "_FG_TERMS", 10)
    with pytest.raises(TruncationError):
        verify._mp_asym_residuals(P, 0.3, (25,))
    assert "TruncationError" in _failed_detail("asymptotics", "asymptotics")


def test_qseries_kernel_fails_when_phi_is_off_by_1e_10(monkeypatch):
    real_phi = qseries.phi
    monkeypatch.setattr(qseries, "phi", lambda *args: real_phi(*args) * (1 + 1e-10))
    result = verify.check_qseries_kernel()
    assert not result.passed
    # every part reports its worst error next to its gate; only phi's three fail
    parts = ["splitting", "theta quasiperiodicity", "by-parts", "q-binomial theorem", "q-Gauss sum"]
    exact = "exact q-binomial theorem, mismatches"
    assert [(label, gate) for label, _, gate in result.rows] == [(part, 1e-12) for part in parts] + [(exact, 1)]
    assert [label for label, err, gate in result.rows if not err < gate] == ["q-binomial theorem", "q-Gauss sum", exact]


def test_qseries_kernel_exact_row_counts_each_draw_with_one_factor_off(monkeypatch):
    real = qseries._qterms

    def first_factor_off(x, y, q, n):
        tops, bottoms = real(x, y, q, n)
        if tops:
            tops[0] += 1
        return tops, bottoms

    monkeypatch.setattr(qseries, "_qterms", first_factor_off)
    result = verify.check_qseries_kernel()
    assert not result.passed
    # the one draw with n = 0 has no factor to change
    assert [(label, value) for label, value, gate in result.rows if not value < gate] == [
        ("exact q-binomial theorem, mismatches", 9)
    ]


def test_abs_term_sum_is_phi_where_every_term_is_positive():
    # 1phi0(a; -; q, z) with a < 0 and 0 < q, z < 1: the terms are positive,
    # so sum_k |t_k| is phi itself, up to the scale's 1e-6 stopping rule; with
    # z <= 0.3 the tail left after the stopping term is smaller than that term
    rng = random.Random(19)
    for _ in range(200):
        a, q, z = -rng.uniform(0.01, 3), rng.uniform(0.05, 0.9), rng.uniform(0.01, 0.3)
        exact = qseries.phi((a,), (), q, z)
        assert abs(verify._abs_term_sum((a,), (), q, z) - exact) <= 1e-6 * exact


def test_hirschhorn_exact_row_counts_each_wrong_fraction_pair(monkeypatch):
    real = convergents.hirschhorn_closed

    def off_at_three(n, q, a, b, lam):
        N, D = real(n, q, a, b, lam)
        return (N + 1, D) if n == 3 and isinstance(q, Fraction) else (N, D)

    monkeypatch.setattr(convergents, "hirschhorn_closed", off_at_three)
    result = verify.check_hirschhorn_formula()
    assert not result.passed
    assert [(label, value) for label, value, _ in result.rows if label.startswith("exact")] == [
        ("exact n<=10: mismatches", 5)
    ]


def test_entry16_exact_row_fails_when_the_integer_backward_route_is_off(monkeypatch):
    real = cfrac._backward_exact
    monkeypatch.setattr(cfrac, "_backward_exact", lambda *args: real(*args) + Fraction(1, 10**30))
    result = verify.check_entry16_identity()
    assert not result.passed
    failed = [(label, value, gate) for label, value, gate in result.rows if not value < gate]
    assert failed == [("exact mode n<=12: mismatches", 65, 1)]


def test_entry15_exact_row_fails_through_entry15_when_exact_ram_q_is_off(monkeypatch):
    # entry15 is (ram_Q / (1 + a), ram_Qstar) at x = 1, so the row compares
    # ram_Q with the Fraction recurrence through entry15 alone
    real = convergents.ram_Q

    def exact_off(n, x, a, lam, q):
        value = real(n, x, a, lam, q)
        return value * (1 + Fraction(1, 10**30)) if isinstance(q, Fraction) else value

    monkeypatch.setattr(convergents, "ram_Q", exact_off)
    result = verify.check_entry15_a0()
    assert not result.passed
    failed = [(label, value, gate) for label, value, gate in result.rows if not value < gate]
    assert failed == [("exact n<=10: mismatches against the Fraction recurrence", 50, 1)]


def test_markov_limit_series_f_row_fails_when_series_f_is_off_by_1e_9(monkeypatch):
    real = measure.series_F
    monkeypatch.setattr(measure, "series_F", lambda rho, p: real(rho, p) * (1 + 1e-9))
    result = verify.check_markov_limit()
    assert not result.passed
    assert [label for label, value, gate in result.rows if not value < gate] == [
        "max |series_F - oracle F| / max(1, |F|)"
    ]


def test_moment_solutions_residual_row_fails_when_monic_beta_is_off(monkeypatch):
    real = recurrence.monic_beta
    monkeypatch.setattr(recurrence, "monic_beta", lambda p, k: real(p, k) * (1 + 1e-6))
    result = verify.check_moment_solutions()
    assert not result.passed
    assert [label for label, value, gate in result.rows if not value < gate] == ["k<=15 recurrence residual"]


def test_moment_solutions_reports_the_slow_tail_point():
    result = verify.check_moment_solutions()
    assert result.passed
    (row,) = [row for row in result.rows if "|lam q/b| = 0.45" in row[0]]
    assert row[1] < row[2] == 1e-10


def test_moment_solutions_fails_when_the_off_cut_lower_endpoint_is_off(monkeypatch):
    # off the cut the lower endpoint w/2 has |w| < 1, so |e| < 1/2; on the cut
    # the lower sum is the upper's conjugate and this endpoint is never summed
    real_jackson = moments._jackson

    def lower_off(e, q, values, k=0):
        value = real_jackson(e, q, values, k)
        return value * (1 + 1e-6) if abs(e) < 0.5 - 1e-9 else value

    monkeypatch.setattr(moments, "_jackson", lower_off)
    result = verify.check_moment_solutions()
    assert not result.passed
    failed = [label for label, value, gate in result.rows if not value < gate]
    assert failed == ["q-integral vs 2phi1 at x = 0.3+0.4i (k<=10)", "q-integral vs 2phi1 at x = -1.3 (k<=10)"]


def test_asymptotics_b0_rows_fail_when_stieltjes_b0_is_off_by_1e_10(monkeypatch):
    # the 0phi1 numerator scaled by 1 + 1e-10 scales the transform by as much
    real_b0 = asymptotics.stieltjes_b0
    monkeypatch.setattr(asymptotics, "stieltjes_b0", lambda x, p: real_b0(x, p) * (1 + 1e-10))
    result = verify.check_asymptotics()
    assert not result.passed
    failed = [(label, gate) for label, value, gate in result.rows if not value < gate]
    assert [gate for _, gate in failed] == [1e-13, 1e-13]
    assert "backward_convergent_200" in failed[0][0] and failed[1][0] == "same, convergent_200"


# ---------------------------------------------------------------------------
# the route map: which public functions the sweep reaches
# ---------------------------------------------------------------------------

# public functions no criterion reaches; a change that reaches or deletes one
# takes it off this list, and none may join it
UNREACHED = {"gf_eval", "gf_radius", "weight_f"}


def test_the_sweep_reaches_every_public_function_but_the_recorded_ones(monkeypatch):
    codes = {}
    for module, names in qfraclab._EXPORTS.items():
        home = importlib.import_module(f"qfraclab.{module}")
        for name in names:
            if inspect.isfunction(getattr(home, name)):
                codes[getattr(home, name).__code__] = name
    assert len(codes) == 45 and UNREACHED <= set(codes.values())
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    monkeypatch.setattr(verify, "_worker_count", lambda: 1)  # in this process, where the profile sees it
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        results = verify.run_suite("all")
    finally:
        sys.setprofile(previous)
    assert all(r.passed for r in results)
    unreached = {name for code, name in codes.items() if code not in reached}
    assert not unreached - UNREACHED, "newly unreached by any criterion"
    assert not UNREACHED - unreached, "reached now: take these off UNREACHED"


# ---------------------------------------------------------------------------
# the registration point: names, and a raised domain error as a failed result
# ---------------------------------------------------------------------------


def test_registered_names_are_unique_and_the_cold_probes_fixed_names(monkeypatch):
    import importlib.util
    from pathlib import Path

    # the ledger's verify.<name>_s metrics are keyed on the probe's fixed tuple
    monkeypatch.setattr(sys, "path", list(sys.path))  # the probe puts src/ on the path
    spec = importlib.util.spec_from_file_location("probe", Path(__file__).resolve().parents[1] / "bench" / "probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    names = [name for name, _, _ in verify.CRITERIA]
    assert len(set(names)) == len(names)
    assert tuple(names) == probe.CRITERIA


def test_a_check_called_directly_returns_a_raised_domain_error_as_a_failure(monkeypatch):
    def raises(x, p):
        raise DomainError("no density here")

    monkeypatch.setattr(measure, "density_nevai", raises)
    result = verify.check_density_cross()
    assert result == ("density-cross-theorem", False, "raised DomainError: no density here", ())


# ---------------------------------------------------------------------------
# the pass rule: a row passes only strictly below its gate, and NaN fails
# ---------------------------------------------------------------------------


def test_result_reduces_each_row_to_its_largest_value():
    res = verify._result("c", ("one", 2e-13, 1e-12), ("list", [3e-13, 5e-13, 4e-13], 1e-12))
    assert res == ("c", True, "one 2e-13 / 1e-12; list 5e-13 / 1e-12", (("one", 2e-13, 1e-12), ("list", 5e-13, 1e-12)))


def test_result_fails_a_value_equal_to_its_gate():
    assert not verify._result("c", ("count", 1, 1)).passed
    assert not verify._result("c", ("err", [0.0, 1e-12], 1e-12)).passed


@pytest.mark.parametrize("at", [0, 1, 2])
def test_result_fails_a_nan_anywhere_in_a_list(at):
    values = [1e-16, 2e-16, 3e-16]
    values[at] = math.nan
    res = verify._result("c", ("seconds", 0.5, 2.0), ("errs", values, math.inf))
    assert not res.passed
    assert math.isnan(res.rows[1][1])
    assert res.detail == "seconds 0.5 / 2; errs nan / inf"


def _poisoned(real, bad, value):
    """``real``, except that it returns ``value`` wherever ``bad(*args)`` holds."""
    return lambda *args: value if bad(*args) else real(*args)


NAN_ROUTES = {
    "density_inversion on |x| < 0.5": (
        measure, "density_inversion", lambda x, p: abs(x) < 0.5, math.nan, verify.check_density_cross
    ),
    "hirschhorn_closed at n = 5": (
        convergents, "hirschhorn_closed", lambda n, *_: n == 5, (math.nan, 1.0), verify.check_hirschhorn_formula
    ),
    "moment_pk_integral at k = 3": (
        moments, "moment_pk_integral", lambda k, *_: k == 3, math.nan, verify.check_moment_solutions
    ),
    "float entry15 at n = 4": (
        convergents, "entry15", lambda n, a, *_: n == 4 and isinstance(a, float), (math.nan, 1.0), verify.check_entry15_a0
    ),
    "all-NaN gram_matrix": (
        measure, "gram_matrix", lambda p, nmax: True, [[math.nan] * 6] * 6, verify.check_orthogonality_gram
    ),
}


@pytest.mark.parametrize("route", NAN_ROUTES)
def test_a_nan_route_fails_its_criterion(monkeypatch, route):
    module, name, bad, value, check = NAN_ROUTES[route]
    monkeypatch.setattr(module, name, _poisoned(getattr(module, name), bad, value))
    result = check()
    assert not result.passed
    assert any(math.isnan(value) for _, value, _ in result.rows)


# ---------------------------------------------------------------------------
# the forked sweep: one child per criterion, results in CRITERIA order
# ---------------------------------------------------------------------------


@pytest.fixture
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Count the calls to os.fork."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def _workers(monkeypatch, n):
    monkeypatch.setattr(verify, "_worker_count", lambda: n)


def _criteria(monkeypatch, *fns):
    monkeypatch.setattr(verify, "CRITERIA", tuple((fn.__name__, "qseries", fn) for fn in fns))


def _passes():
    return verify.CheckResult("passes", True, f"ran in {os.getpid()}")


def _divides_by_zero():
    return 1 / 0


def _exits_three():
    os._exit(3)


def _big_detail():
    return verify.CheckResult("big", True, "".join(chr(97 + i % 26) for i in range(1 << 20)))


def _sleeps():
    time.sleep(30)
    return verify.CheckResult("sleeps", True, "woke")


def _interrupts_parent():
    time.sleep(0.2)
    os.kill(os.getppid(), signal.SIGINT)
    return _sleeps()


class _NeedsTwoArgs(Exception):
    """Pickles as _NeedsTwoArgs(a), which cannot be called again to unpickle."""

    def __init__(self, a, b):
        super().__init__(a)


def _raises_unloadable():
    raise _NeedsTwoArgs("left", "right")


def _masked(results):
    """Name, verdict and rows of each result, with the values of its ``seconds`` rows masked."""
    return [
        (r.name, r.passed, [(label, None if label == "seconds" else value, gate) for label, value, gate in r.rows])
        for r in results
    ]


def test_forked_sweep_matches_the_sequential_one(monkeypatch, forks, no_child_left):
    _workers(monkeypatch, 2)
    forked = verify.run_suite("all")
    assert len(forks) == len(verify.CRITERIA)
    _workers(monkeypatch, 1)
    sequential = verify.run_suite("all")
    assert len(forks) == len(verify.CRITERIA)
    assert [r.name for r in forked] == [name for name, _, _ in verify.CRITERIA]
    assert _masked(forked) == _masked(sequential)


def test_criteria_run_in_children(monkeypatch, forks, no_child_left):
    _workers(monkeypatch, 2)
    _criteria(monkeypatch, _passes, _passes, _passes)
    results = verify.run_suite("qseries")
    assert len(forks) == 3
    pids = {r.detail for r in results}
    assert len(pids) == 3 and f"ran in {os.getpid()}" not in pids


def test_one_worker_or_a_live_thread_keeps_the_sweep_in_process(monkeypatch, forks, no_child_left):
    _criteria(monkeypatch, _passes, _passes)
    _workers(monkeypatch, 1)
    assert {r.detail for r in verify.run_suite("qseries")} == {f"ran in {os.getpid()}"}
    _workers(monkeypatch, 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert {r.detail for r in verify.run_suite("qseries")} == {f"ran in {os.getpid()}"}
    finally:
        release.set()
        waiter.join()
    assert not forks


def test_criterion_exception_is_reraised(monkeypatch, no_child_left):
    _workers(monkeypatch, 2)
    _criteria(monkeypatch, _passes, _divides_by_zero, _passes)
    with pytest.raises(ZeroDivisionError):
        verify.run_suite("qseries")


def test_unloadable_exception_carries_the_child_traceback(monkeypatch, no_child_left):
    _workers(monkeypatch, 2)
    _criteria(monkeypatch, _raises_unloadable, _passes)
    with pytest.raises(RuntimeError, match="_raises_unloadable") as info:
        verify.run_suite("qseries")
    assert "_NeedsTwoArgs: left" in str(info.value)


def test_crashed_child_is_a_failure(monkeypatch, no_child_left):
    _workers(monkeypatch, 2)
    _criteria(monkeypatch, _exits_three, _passes)
    crashed, passed = verify.run_suite("qseries")
    assert crashed.name == "_exits_three" and not crashed.passed
    assert "status 3" in crashed.detail
    assert passed.passed


def test_megabyte_detail_comes_back_whole(monkeypatch, no_child_left):
    _workers(monkeypatch, 2)
    _criteria(monkeypatch, _big_detail, _big_detail)
    for result in verify.run_suite("qseries"):
        assert result == _big_detail()


def test_running_children_are_killed_when_one_raises(monkeypatch, no_child_left):
    _workers(monkeypatch, 2)
    _criteria(monkeypatch, _sleeps, _divides_by_zero, _sleeps)
    t0 = time.perf_counter()
    with pytest.raises(ZeroDivisionError):
        verify.run_suite("qseries")
    assert time.perf_counter() - t0 < 10


def test_interrupt_kills_and_reaps_the_children(monkeypatch, no_child_left):
    _workers(monkeypatch, 2)
    _criteria(monkeypatch, _sleeps, _interrupts_parent)
    # a shell may start the test run with SIGINT ignored; raise on it here
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            verify.run_suite("qseries")
        assert time.perf_counter() - t0 < 10
    finally:
        signal.signal(signal.SIGINT, previous)
