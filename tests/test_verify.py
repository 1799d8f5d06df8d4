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
from typing import Callable, NamedTuple

import pytest
from mpmath import mp

import qfraclab
from qfraclab import measure, qseries, recurrence, verify
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


def test_abs_term_sum_is_phi_where_every_term_is_positive():
    # 1phi0(a; -; q, z) with a < 0 and 0 < q, z < 1: the terms are positive,
    # so sum_k |t_k| is phi itself, up to the scale's 1e-6 stopping rule; with
    # z <= 0.3 the tail left after the stopping term is smaller than that term
    rng = random.Random(19)
    for _ in range(200):
        a, q, z = -rng.uniform(0.01, 3), rng.uniform(0.05, 0.9), rng.uniform(0.01, 0.3)
        exact = qseries.phi((a,), (), q, z)
        assert abs(verify._abs_term_sum((a,), (), q, z) - exact) <= 1e-6 * exact


def test_moment_solutions_reports_the_slow_tail_point():
    result = verify.check_moment_solutions()
    assert result.passed
    (row,) = [row for row in result.rows if "|lam q/b| = 0.45" in row[0]]
    assert row[1] < row[2] == 1e-10


# ---------------------------------------------------------------------------
# the perturbation table, the route map: which criterion fails when a
# function is wrong, so which criteria reach it
# ---------------------------------------------------------------------------


def _public_functions():
    """name -> function, for the exported names that are functions."""
    return {name: getattr(qfraclab, name) for names in qfraclab._EXPORTS.values() for name in names
            if inspect.isfunction(getattr(qfraclab, name))}


def _eps(value, eps):
    """eps in the arithmetic of ``value``: a Fraction for a rational, which so stays exact."""
    return Fraction(eps) if isinstance(value, (int, Fraction)) else eps


def _scale(value, eps):
    """``value`` times 1 + eps: of a tuple or list its first entry, of a
    ConvergentSeq its N entries.  A J-fraction family's B constant is shifted
    by eps instead, because entry16's B is 0."""
    if isinstance(value, recurrence.JFamily):  # ahead of the tuples: a JFamily is a NamedTuple
        def shifted(constants=value.constants):
            A, B, C0, C1, q = constants()
            return A, B + _eps(B, eps), C0, C1, q

        return recurrence._family(value.name, shifted)._replace(index_shift=value.index_shift)
    if isinstance(value, (tuple, list)):
        return type(value)([_scale(value[0], eps), *value[1:]])
    if isinstance(value, recurrence.ConvergentSeq):
        return recurrence.ConvergentSeq([_scale(n, eps) for n in value.N], value.D, value.x)
    return value * (1 + _eps(value, eps))


def _where(change, bad=lambda *args: True):
    """The stand-in that gives ``change`` of the real result wherever ``bad(*args)`` holds."""
    return lambda real: lambda *args: change(real(*args)) if bad(*args) else real(*args)


def _scaled(eps):
    return _where(lambda value: _scale(value, eps))


class Row(NamedTuple):
    """One perturbation: ``patch`` is a public function, which patches every
    ``qfraclab.*`` attribute bound to it, or one private ``module._name``;
    ``wrap`` makes the stand-in from the real function; ``criterion`` must fail,
    with exactly the rows ``failing`` when given, each a label or a prefix of
    (label, value, gate) in which None matches any value and "nan" a NaN.
    An empty ``failing`` is a criterion that raised, which fails with no rows."""

    patch: str
    wrap: Callable
    criterion: str
    failing: tuple | None = None


QBINOMIAL_EXACT = "exact q-binomial theorem, mismatches"
B0_BACKWARD = ("b=0, x in {3, -2.5, 5, 1.5+0.5i, 0.05+0.02i}: |backward_convergent_200 - stieltjes_b0| / "
               "|stieltjes_b0|")
ENTRY15_Q = ("Q_(n+1)(1) = (1 + a) Nhat_n against the forward D_(n+1): max rel err", None, 1e-11)
ENTRY15_EXACT = ("exact n<=10: mismatches against the Fraction recurrence", 50, 1)
OFF_CUT = ("q-integral vs 2phi1 at x = 0.3+0.4i (k<=10)", "q-integral vs 2phi1 at x = -1.3 (k<=10)")

PERTURBATIONS = [
    # every part reports its worst error next to its gate; only phi's three fail
    Row("phi", _scaled(1e-10), "qseries-kernel", ("q-binomial theorem", "q-Gauss sum", QBINOMIAL_EXACT)),
    # one factor off in every draw but the one with n = 0, which has no factor to change
    Row("qseries._qterms", _where(lambda tb: ([tb[0][0] + 1, *tb[0][1:]] if tb[0] else tb[0], tb[1])),
        "qseries-kernel", ((QBINOMIAL_EXACT, 9),)),
    # the quasiperiodicity row is homogeneous in theta, so only the triple product sees a scaling
    Row("theta", _scaled(1e-9), "qseries-kernel", ("Jacobi triple product",)),
    Row("hirschhorn_closed", _where(lambda nd: (nd[0] + 1, nd[1]), lambda n, q, *_: n == 3 and isinstance(q, Fraction)),
        "hirschhorn-formula", (("exact n<=10: mismatches", 5),)),
    Row("cfrac._backward_exact", _where(lambda value: value + Fraction(1, 10**30)), "entry16-identity",
        (("exact mode n<=12: mismatches", 65, 1),)),
    # entry15 is (ram_Q / (1 + a), ram_Qstar) at x = 1, and ram_Qstar calls
    # ram_Q, so a scaled ram_Q cancels in entry15's ratio: the Q_(n+1)(1) row
    # sees it in floats, and the exact row in Fractions, down to 1e-30
    Row("ram_Q", _where(lambda v: v * (1 + Fraction(1, 10**30)), lambda n, x, a, lam, q: isinstance(q, Fraction)),
        "entry15-a0-formulas", (ENTRY15_EXACT,)),
    Row("ram_Q", _scaled(1e-9), "entry15-a0-formulas", (ENTRY15_Q, ENTRY15_EXACT)),
    Row("series_F", _scaled(1e-9), "markov-limit", ("max |series_F - oracle F| / max(1, |F|)",)),
    Row("monic_beta", _scaled(1e-6), "moment-solutions", ("k<=15 recurrence residual",)),
    # the functional equation is homogeneous in f, so the perturbation depends on t
    Row("weight_f", lambda real: lambda t, theta, p: real(t, theta, p) * (1 + 1e-9 * abs(t)), "moment-solutions",
        ("weight functional equation",)),
    # off the cut the lower endpoint w/2 has |w| < 1, so |e| < 1/2; on the cut
    # the lower sum is the upper's conjugate and this endpoint is never summed
    Row("moments._jackson", _where(lambda value: value * (1 + 1e-6), lambda e, *_: abs(e) < 0.5 - 1e-9),
        "moment-solutions", OFF_CUT),
    # the 0phi1 numerator scaled by 1 + 1e-10 scales the transform by as much
    Row("stieltjes_b0", _scaled(1e-10), "asymptotics",
        ((B0_BACKWARD, None, 1e-13), ("same, convergent_200", None, 1e-13))),
    Row("gf_eval", _scaled(1e-9), "asymptotics", ("generating functions P, D: gf_eval vs sum_{k<=60} c_k t^k",)),
    # a radius is read only to refuse a point: a wrong one refuses them all, and
    # the DomainError fails the criterion with no rows
    Row("gf_radius", _where(lambda radius: 0.0), "asymptotics", ()),
    Row("b0_support_bound", _where(lambda bound: math.inf), "asymptotics", ()),
    # a NaN from any route fails its criterion
    Row("density_inversion", _where(lambda value: math.nan, lambda x, p: abs(x) < 0.5), "density-cross-theorem",
        tuple((f"a={a}, 101 points in (-0.99, 0.99): max |nevai - inversion|", "nan") for a in ("0.3", "2"))),
    Row("hirschhorn_closed", _where(lambda nd: (math.nan, 1.0), lambda n, *_: n == 5), "hirschhorn-formula",
        (("50 draws, n<=20: max rel err", "nan"), ("exact n<=10: mismatches", 5))),
    Row("moment_pk_integral", _where(lambda value: math.nan, lambda k, *_: k == 3), "moment-solutions",
        (("q-integral vs 2phi1", "nan"), *((label, "nan") for label in OFF_CUT))),
    Row("entry15", _where(lambda nd: (math.nan, 1.0), lambda n, a, *_: n == 4 and isinstance(a, float)),
        "entry15-a0-formulas", (("50 draws, n<=25: entry15 max rel err", "nan"), (ENTRY15_Q[0], "nan"))),
    Row("gram_matrix", _where(lambda g: [[math.nan] * 6] * 6), "orthogonality-gram",
        (("|1 - G00|", "nan"), ("max off-diagonal", "nan"), ("max |G_nn - h_n|", "nan"))),
    # every other public function scaled, or a family's B constant shifted, at
    # its cheapest failing criterion
    Row("qpochhammer", _scaled(1e-9), "moment-solutions"),
    Row("qpochhammer_inf", _scaled(1e-9), "density-cross-theorem"),
    Row("sum_series", _scaled(1e-9), "g-limit-identity"),
    Row("b0_family", _scaled(1e-9), "asymptotics"),
    Row("entry16_family", _scaled(1e-9), "entry16-identity"),
    Row("hirschhorn_family", _scaled(1e-9), "g-limit-identity"),
    # an error in alpha_k reaches the recurrence residual only multiplied by a small P_k
    Row("monic_alpha", _scaled(1e-6), "moment-solutions"),
    Row("monic_family", _scaled(1e-9), "asymptotics"),
    Row("monic_ratio", _scaled(1e-9), "markov-limit"),
    Row("run_jfraction", _scaled(1e-9), "asymptotics"),
    Row("run_monic", _scaled(1e-9), "moment-solutions"),
    Row("backward_convergent", _scaled(1e-9), "g-limit-identity"),
    Row("convergent", _scaled(1e-9), "asymptotics"),
    Row("eval_backward", _scaled(1e-9), "entry16-identity"),
    Row("hirschhorn_cf", _scaled(1e-9), "g-limit-identity"),
    Row("density_inversion", _scaled(1e-9), "density-cross-theorem"),
    Row("density_nevai", _scaled(1e-9), "density-cross-theorem"),
    # G00 = 1 and h_0 = 1: a 1e-9 scaling would sit at the 1e-9 gate itself
    Row("gram_matrix", _scaled(1e-6), "orthogonality-gram"),
    Row("norm_squared", _scaled(1e-6), "orthogonality-gram"),
    Row("rho_select", _scaled(1e-9), "moment-solutions"),
    Row("series_G", _scaled(1e-9), "density-cross-theorem"),
    Row("series_R", _scaled(1e-9), "density-cross-theorem"),
    Row("stieltjes_transform", _scaled(1e-9), "markov-limit"),
    Row("asymptotic_P", _scaled(1e-9), "asymptotics"),
    Row("asymptotic_Q", _scaled(1e-9), "asymptotics"),
    Row("asymptotic_Qstar", _scaled(1e-9), "asymptotics"),
    Row("moment_pk_closed", _scaled(1e-9), "moment-solutions"),
    Row("moment_pk_integral", _scaled(1e-9), "moment-solutions"),
    Row("qintegral", _scaled(1e-9), "qseries-kernel"),
    Row("a0_closed", _scaled(1e-9), "g-limit-identity"),
    Row("entry15", _scaled(1e-9), "entry15-a0-formulas"),
    Row("entry16", _scaled(1e-9), "entry16-identity"),
    Row("g_function", _scaled(1e-9), "g-limit-identity"),
    Row("hirschhorn_closed", _scaled(1e-9), "hirschhorn-formula"),
    Row("ram_Qstar", _scaled(1e-9), "entry15-a0-formulas"),
]


def _bindings(patch):
    """(module, attribute) pairs that ``patch`` names (see Row)."""
    if "." in patch:
        module, name = patch.split(".")
        return [(importlib.import_module(f"qfraclab.{module}"), name)]
    real = getattr(qfraclab, patch)
    return [(module, name) for key, module in list(sys.modules.items()) if key.split(".")[0] == "qfraclab"
            for name, value in vars(module).items() if value is real]


def _shape(row, want):
    """A failing ``row`` cut to the shape of ``want`` (see Row)."""
    if isinstance(want, str):
        return row[0]
    return tuple(None if w is None else "nan" if v != v else v for v, w in zip(row, want))


@pytest.mark.parametrize("row", PERTURBATIONS, ids=lambda row: f"{row.patch}-{row.criterion}")
def test_a_perturbed_function_fails_its_criterion(monkeypatch, row):
    bindings = _bindings(row.patch)
    stand_in = row.wrap(getattr(*bindings[0]))
    for module, name in bindings:
        monkeypatch.setattr(module, name, stand_in)
    result = next(check for name, _, check in verify.CRITERIA if name == row.criterion)()
    assert not result.passed
    if row.failing is not None:
        failed = [r for r in result.rows if not r[1] < r[2]]
        assert [_shape(r, want) for r, want in zip(failed, row.failing)] == list(row.failing)
        assert len(failed) == len(row.failing)


def test_every_public_function_has_a_row():
    # a failing row proves that its criterion reaches the function
    public = set(_public_functions())
    assert len(public) == 45
    assert public == {row.patch for row in PERTURBATIONS if "." not in row.patch}


def test_qseries_kernel_reports_every_part_next_to_its_gate():
    parts = ["splitting", "theta quasiperiodicity", "Jacobi triple product", "by-parts", "q-binomial theorem", "q-Gauss sum"]
    rows = verify.check_qseries_kernel().rows
    assert [(label, gate) for label, _, gate in rows] == [(part, 1e-12) for part in parts] + [(QBINOMIAL_EXACT, 1)]


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
