"""The integer routes of the two convergent routes against the Fraction loop.

A built-in family states its constants (A, B, C0, C1, q).  When x and the
constants are all rational, ``run_jfraction`` (and so ``convergent``) and
``backward_convergent`` (and so ``hirschhorn_cf``) run on integers and
reduce once per returned value.  The reference is the Fraction loop over the
same level triples: the generic recurrence loop of ``reference.py`` forward,
and ``eval_backward``, which ``backward_convergent`` takes for a ``JFamily``
built from ``coeffs`` alone, backward.  Every value must equal it in value and
type, and every pole must raise at the same level with the same message.
Float, complex and mixed runs, bit for bit the generic loops' values, are
checked in ``test_inline_routes.py``.
"""

import random
from fractions import Fraction

import pytest
import reference
from reference import coeffs_only, outcome

from qfraclab import cfrac, recurrence
from qfraclab.cfrac import backward_convergent, convergent, hirschhorn_cf
from qfraclab.errors import DomainError, PoleError
from qfraclab.recurrence import (
    JFamily,
    Params,
    b0_family,
    entry16_family,
    hirschhorn_family,
    run_jfraction,
)

HUGE = 10**400


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
        ref = coeffs_only(fam, depth)
        assert outcome(run_jfraction, fam, x, depth) == outcome(reference.run_jfraction, ref, x, depth), (fam, x, depth)


def test_exact_run_types_are_the_fraction_loops():
    # N_0 = 0 and D_0 = 1 as ints, N_1 = A as the family gives it, Fractions after that
    p = Params(Fraction(-2, 5), 2, -1, Fraction(1, 3))  # A = 1 - b = 2, an int
    for fam, A in ((hirschhorn_family(p), 2), (hirschhorn_family(Params(Fraction(1, 3), 1, Fraction(-1, 4), 1)), Fraction(5, 4))):
        seq = run_jfraction(fam, 3, 6)
        assert [type(v) for v in seq.N] == [int, type(A)] + [Fraction] * 5
        assert [type(v) for v in seq.D] == [int] + [Fraction] * 6
        assert (seq.N[0], seq.N[1], seq.D[0]) == (0, A, 1)


ROUTES = [(backward_convergent, backward_convergent), (convergent, reference.convergent)]  # (route, its reference)


@pytest.mark.parametrize("route,ref_route", ROUTES, ids=["backward", "forward"])
def test_convergent_routes_equal_the_fraction_loop(route, ref_route):
    for _, fam, x, n in RATIONAL_DRAWS:
        ref = coeffs_only(fam, max(1, n + fam.index_shift))
        assert outcome(route, fam, x, n) == outcome(ref_route, ref, x, n), (route, fam, x, n)


def test_hirschhorn_cf_equals_the_fraction_loop():
    # the integer route returns Q / P: the leading numerator 1 - b and the
    # division by 1 - b cancel; the Fraction loop divides twice
    for p, fam, _, n in RATIONAL_DRAWS:
        if fam.name != "hirschhorn" or n == 0:
            continue
        ref = coeffs_only(fam, n)
        expected = outcome(lambda: backward_convergent(ref, 1, n) / (1 - p.b))
        assert outcome(hirschhorn_cf, p, n) == expected, (p, n)


def test_poles_raise_at_the_same_level_with_the_same_message():
    levels = set()
    for fam, x, n in _pole_cases():
        ref = coeffs_only(fam, n + fam.index_shift)
        for route, ref_route in ROUTES:
            got = outcome(route, fam, x, n)
            assert got == outcome(ref_route, ref, x, n), (route, fam, x, n)
            if got[0] is PoleError and route is backward_convergent:
                levels.add((got[2], n + fam.index_shift))
    # poles at the innermost level m and at levels inside the fraction
    assert any(lvl == m for lvl, m in levels) and any(1 < lvl < m for lvl, m in levels)
    assert any(lvl == 1 < m for lvl, m in levels)


def test_rational_runs_take_the_integer_route(monkeypatch):
    def fail(*args):
        raise AssertionError("a float or Fraction loop ran")

    # neither the Fraction loops nor the inline float routes
    for module, name in ((recurrence, "_run_affine"), (cfrac, "eval_backward"), (cfrac, "_backward_affine")):
        monkeypatch.setattr(module, name, fail)
    for p, fam, x, n in RATIONAL_DRAWS[:60]:
        outcome(run_jfraction, fam, x, max(1, n))
        outcome(backward_convergent, fam, x, n)
        outcome(convergent, fam, x, n)
        if fam.name == "hirschhorn" and n:
            outcome(hirschhorn_cf, p, n)


def test_families_without_constants_keep_the_fraction_loop(monkeypatch):
    def fail(*args):
        raise AssertionError("the integer route ran")

    # backward; the forward route refuses a family without constants
    monkeypatch.setattr(recurrence, "_integer_levels", fail)
    monkeypatch.setattr(cfrac, "_integer_levels", fail)
    for _, fam, x, n in RATIONAL_DRAWS[:60]:
        for f in (fam._replace(constants=None), coeffs_only(fam, max(1, n + fam.index_shift))):
            outcome(backward_convergent, f, x, n)
            if n + fam.index_shift:
                with pytest.raises(DomainError, match="has none"):
                    convergent(f, x, n)


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
        ref = coeffs_only(fam, depth)
        assert outcome(run_jfraction, fam, x, depth) == outcome(reference.run_jfraction, ref, x, depth), (fam, x, depth)
        for route, ref_route in ROUTES:
            assert outcome(route, fam, x, n) == outcome(ref_route, ref, x, n), (route, fam, x, n)
