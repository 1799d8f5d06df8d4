"""The integer routes of the two convergent routes against the Fraction loop.

A built-in family states its constants (A, B, C0, C1, q).  When x and the
constants are all rational, ``run_jfraction`` (and so ``convergent``) and
``backward_convergent`` (and so ``hirschhorn_cf``) run on integers and
reduce once per returned value.  A ``JFamily`` built from ``coeffs`` alone
over the same level triples keeps the Fraction loop (the recurrence kernel
and ``eval_backward``), so it is the reference: every value must equal it in
value and type, and every pole must raise at the same level with the same
message.  Float, complex and mixed runs keep the one loop, bit for bit.
"""

import random
from fractions import Fraction
from itertools import islice

import pytest

from qfraclab import cfrac, recurrence
from qfraclab.cfrac import backward_convergent, convergent, hirschhorn_cf
from qfraclab.errors import PoleError
from qfraclab.recurrence import (
    ConvergentSeq,
    JFamily,
    Params,
    _levels,
    b0_family,
    entry16_family,
    hirschhorn_family,
    run_jfraction,
)

HUGE = 10**400


def _reference(fam: JFamily, depth: int) -> JFamily:
    """A coeffs-only family over the first levels of ``fam``, as the family
    reader gives them at a float x: the Fraction loop."""
    levels = list(islice(_levels(fam, 0.5)[1], depth + 2))
    return JFamily(fam.name, levels.__getitem__, fam.index_shift)


def _typed(v):
    """``v`` with its type; a float or complex by its bits, so NaN and -0.0 compare too."""
    if isinstance(v, float):
        return float, v.hex()
    if isinstance(v, complex):
        return complex, v.real.hex(), v.imag.hex()
    return type(v), v


def _outcome(route, *args):
    """The typed value of ``route(*args)``, or the PoleError it raises with its level."""
    try:
        v = route(*args)
    except PoleError as exc:
        return PoleError, str(exc), exc.level
    if isinstance(v, ConvergentSeq):
        return [_typed(u) for u in v.N], [_typed(u) for u in v.D]
    return _typed(v)


def _family(kind: int, q, a, b, lam) -> tuple:
    if kind == 0:
        p = Params(q, a, b, lam)
        return p, hirschhorn_family(p)
    if kind == 1:
        p = Params(q, a, 0, lam)
        return p, b0_family(p)
    return Params(q, 0, 0, lam), entry16_family(lam, q)


def _rational_draws():
    """Seeded ``(params, family, x, n)`` over the three families: q of either
    sign, int and Fraction constants, int, Fraction and huge x, n = 0..16 with
    n = 1 every eighth draw, and a few n = 60."""
    rng = random.Random(2022)

    def value():
        if rng.random() < 0.25:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    draws = []
    for i in range(270):
        q = Fraction(rng.randint(1, 17), rng.choice((18, 19, 20))) * rng.choice((1, -1))
        a, b, lam = value(), value(), value()
        if b == 1:
            b = Fraction(1, 2)
        x = rng.choice((1, 0, -3, Fraction(rng.randint(-40, 40), rng.randint(1, 9)), HUGE, Fraction(-HUGE, 3)))
        n = 1 if i % 8 == 0 else 60 if i % 45 == 44 else rng.randint(0, 16)
        draws.append((*_family(i % 3, q, a, b, lam), x, n))
    return draws


RATIONAL_DRAWS = _rational_draws()


def _pole_cases():
    """Rational families and points on a grid of halves where the backward
    fraction or the forward D_m vanishes, at the innermost level and inside."""
    halves = [Fraction(k, 2) for k in range(-4, 5)]
    cases = []
    for q in (Fraction(1, 2), Fraction(-1, 2)):
        for lam in (Fraction(-1), Fraction(-1, 4), Fraction(-4), Fraction(1, 4), -2):
            cases += [(entry16_family(lam, q), x, n) for x in halves for n in range(7)]
        for a in halves:
            for lam in (Fraction(-1), Fraction(1, 4), -2):
                cases += [(b0_family(Params(q, a, 0, lam)), x, n) for x in halves for n in range(1, 7)]
                cases += [(hirschhorn_family(Params(q, a, Fraction(-1, 2), lam)), x, n) for x in halves for n in (3, 5)]
    return cases


def test_forward_route_equals_the_fraction_loop():
    for _, fam, x, n in RATIONAL_DRAWS:
        depth = max(1, n + fam.index_shift)
        ref = _reference(fam, depth)
        assert _outcome(run_jfraction, fam, x, depth) == _outcome(run_jfraction, ref, x, depth), (fam, x, depth)


def test_exact_run_types_are_the_fraction_loops():
    # N_0 = 0 and D_0 = 1 as ints, N_1 = A as the family gives it, Fractions after that
    p = Params(Fraction(-2, 5), 2, -1, Fraction(1, 3))  # A = 1 - b = 2, an int
    for fam, A in ((hirschhorn_family(p), 2), (hirschhorn_family(Params(Fraction(1, 3), 1, Fraction(-1, 4), 1)), Fraction(5, 4))):
        seq = run_jfraction(fam, 3, 6)
        assert [type(v) for v in seq.N] == [int, type(A)] + [Fraction] * 5
        assert [type(v) for v in seq.D] == [int] + [Fraction] * 6
        assert (seq.N[0], seq.N[1], seq.D[0]) == (0, A, 1)


@pytest.mark.parametrize("route", [backward_convergent, convergent], ids=["backward", "forward"])
def test_convergent_routes_equal_the_fraction_loop(route):
    for _, fam, x, n in RATIONAL_DRAWS:
        ref = _reference(fam, max(1, n + fam.index_shift))
        assert _outcome(route, fam, x, n) == _outcome(route, ref, x, n), (route, fam, x, n)


def test_hirschhorn_cf_equals_the_fraction_loop():
    # the integer route returns Q / P: the leading numerator 1 - b and the
    # division by 1 - b cancel; the Fraction loop divides twice
    for p, fam, _, n in RATIONAL_DRAWS:
        if fam.name != "hirschhorn" or n == 0:
            continue
        ref = _reference(fam, n)
        expected = _outcome(lambda: backward_convergent(ref, 1, n) / (1 - p.b))
        assert _outcome(hirschhorn_cf, p, n) == expected, (p, n)


def test_poles_raise_at_the_same_level_with_the_same_message():
    levels = set()
    for fam, x, n in _pole_cases():
        ref = _reference(fam, n + fam.index_shift)
        for route in (backward_convergent, convergent):
            got = _outcome(route, fam, x, n)
            assert got == _outcome(route, ref, x, n), (route, fam, x, n)
            if got[0] is PoleError and route is backward_convergent:
                levels.add((got[2], n + fam.index_shift))
    # poles at the innermost level m and at levels inside the fraction
    assert any(lvl == m for lvl, m in levels) and any(1 < lvl < m for lvl, m in levels)
    assert any(lvl == 1 < m for lvl, m in levels)


def test_rational_runs_take_the_integer_route(monkeypatch):
    def fail(*args):
        raise AssertionError("the Fraction loop ran")

    monkeypatch.setattr(recurrence, "_run", fail)
    monkeypatch.setattr(cfrac, "eval_backward", fail)
    for p, fam, x, n in RATIONAL_DRAWS[:60]:
        _outcome(run_jfraction, fam, x, max(1, n))
        _outcome(backward_convergent, fam, x, n)
        _outcome(convergent, fam, x, n)
        if fam.name == "hirschhorn" and n:
            _outcome(hirschhorn_cf, p, n)


def test_families_without_constants_keep_the_fraction_loop(monkeypatch):
    def fail(*args):
        raise AssertionError("the integer route ran")

    monkeypatch.setattr(recurrence, "_integer_levels", fail)
    monkeypatch.setattr(cfrac, "_integer_levels", fail)
    for _, fam, x, n in RATIONAL_DRAWS[:60]:
        builtin_coeffs = fam._replace(constants=None)
        coeffs_only = _reference(fam, max(1, n + fam.index_shift))
        for f in (builtin_coeffs, coeffs_only):
            _outcome(backward_convergent, f, x, n)
            _outcome(convergent, f, x, n)


def _counted(fam: JFamily) -> tuple:
    """``fam`` with a ``constants`` that logs each call, and the log."""
    calls = []

    def constants():
        calls.append(None)
        return fam.constants()

    return fam._replace(constants=constants), calls


@pytest.mark.parametrize("x", [0.7, Fraction(3, 7)], ids=["float-x", "rational-x"])
@pytest.mark.parametrize(
    "p", [Params(0.4, 0.3, -0.25, 0.2), Params(Fraction(2, 5), Fraction(3, 10), Fraction(-1, 4), Fraction(1, 5))],
    ids=["float-params", "rational-params"],
)
def test_each_route_reads_the_constants_once(monkeypatch, p, x):
    # the route is decided on one read, which also checks the family's hypotheses
    for route in (run_jfraction, convergent, backward_convergent):
        fam, calls = _counted(hirschhorn_family(p))
        route(fam, x, 6)
        assert len(calls) == 1, route
    counted = []
    real = cfrac.hirschhorn_family

    def family(params):
        fam, calls = _counted(real(params))
        counted.append(calls)
        return fam

    monkeypatch.setattr(cfrac, "hirschhorn_family", family)
    hirschhorn_cf(p, 6)  # at x = 1
    assert [len(calls) for calls in counted] == [1]


def _float_draws():
    """Float and complex x on float families, and the mixed runs: a rational x
    on a float family and a float x on a Fraction family."""
    rng = random.Random(2023)
    draws = []
    for i in range(150):
        kind = i % 3
        if i % 5 == 4:  # a float x on Fraction constants
            q = Fraction(rng.randint(1, 17), 20) * rng.choice((1, -1))
            args = (q, Fraction(rng.randint(-9, 9), 7), Fraction(rng.randint(-9, 3), 7), Fraction(rng.randint(-9, 9), 7))
            x = rng.uniform(-3, 3)
        else:
            args = (rng.uniform(-0.9, 0.9), rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 0.5), rng.uniform(-1, 1))
            x = rng.choice((1, Fraction(3, 7), rng.uniform(-3, 3), complex(rng.uniform(-3, 3), rng.uniform(-2, 2))))
        draws.append((*_family(kind, *args), x, rng.randint(0, 300)))
    # the forward-overflow input of the benchmark: N and D overflow to NaN at depth 400
    draws.append((None, hirschhorn_family(Params(0.4, 0.3, -0.25, 0.2)), 1e3, 400))
    return draws


def test_float_and_mixed_runs_are_bit_identical_to_the_one_loop():
    for _, fam, x, n in _float_draws():
        depth = max(1, n + fam.index_shift)
        ref = _reference(fam, depth)
        assert _outcome(run_jfraction, fam, x, depth) == _outcome(run_jfraction, ref, x, depth), (fam, x, depth)
        for route in (backward_convergent, convergent):
            assert _outcome(route, fam, x, n) == _outcome(route, ref, x, n), (route, fam, x, n)
