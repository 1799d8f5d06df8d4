"""The inline float routes of the built-in families against the generic loops.

A built-in family states its constants (A, B, C0, C1, q).  On a float,
complex or mixed run, ``run_jfraction``, ``run_monic`` and ``monic_ratio``
step A x + B q^k and C0 + C1 q^k inline (``recurrence._run_affine``) and
check the exponent ledger once per chunk of levels; ``backward_convergent``
and ``hirschhorn_cf`` form the same levels inline (``cfrac._backward_affine``).
The reference is the generic loop of ``reference.py`` forward, which reads
one level triple at a time and checks the ledger at every level, and
``cfrac.eval_backward`` on the level lists backward, which
``backward_convergent`` takes for a family built from ``coeffs`` alone:
every value must equal it bit for bit, and every pole must raise at the same
level with the same message.
"""

import cmath
import math
import random
from fractions import Fraction
from itertools import count, islice

import pytest
import reference
from mpmath import mpf
from reference import coeffs_only, outcome

from qfraclab import recurrence
from qfraclab.cfrac import _jfraction_levels, backward_convergent, convergent, eval_backward, hirschhorn_cf
from qfraclab.errors import DomainError, PoleError, RangeError
from qfraclab.recurrence import (
    JFamily,
    Params,
    _affine,
    _ldexp,
    _run_affine,
    b0_family,
    entry16_family,
    hirschhorn_family,
    monic_family,
    monic_ratio,
    run_jfraction,
    run_monic,
)


def _draws():
    """Seeded ``(params, monic params, x, depth)``: q real of either sign or complex;
    float, complex, Fraction and signed-zero parameters; x float, complex, ±0.0,
    rational (a mixed run) and up to 1e300; depth 1 to 1200 (300 for a rational q)."""
    rng = random.Random(24)

    def value():
        r = rng.random()
        if r < 0.1:
            return rng.choice([0.0, -0.0])
        if r < 0.2:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if r < 0.3:
            return complex(rng.uniform(-2, 2), rng.choice([-0.0, rng.uniform(-1, 1)]))
        return rng.uniform(-2, 2)

    def q_value():
        r = rng.random()
        if r < 0.15:
            return Fraction(rng.choice([-7, -3, 1, 2, 5, 8]), 9)
        if r < 0.3:
            return complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        return rng.choice([-1, 1]) * rng.uniform(0.02, 0.97)

    def x_value():
        r = rng.random()
        if r < 0.1:
            return rng.choice([0.0, -0.0])
        if r < 0.3:
            return rng.choice([-1, 1]) * 10 ** rng.uniform(0, 300)  # every chunk length
        if r < 0.4:
            return Fraction(rng.randint(-30, 30), rng.randint(1, 7))
        if r < 0.55:
            return complex(rng.uniform(-3, 3), rng.choice([0.0, -0.0, 1e-12, rng.uniform(-1, 1)]))
        return rng.uniform(-4, 4)

    draws = []
    while len(draws) < 200:
        q, a, b, lam = q_value(), value(), value(), value()
        if b == 1:
            continue
        monic = Params(rng.choice([-1, 1]) * rng.uniform(0.05, 0.9), rng.uniform(-2, 2), -rng.uniform(0.05, 3), 0.0)
        monic = Params(monic.q, monic.a, monic.b, rng.uniform(-0.9, 0.9) * abs(monic.b))  # beta_k > 0
        depth = rng.choice([1, 2, 3, 5, 17, 60, 300]) if rng.random() < 0.95 else 1200
        if isinstance(q, Fraction):  # a running rational q^k grows a digit a level
            depth = min(depth, 300)
        draws.append((Params(q, a, b, lam), monic, x_value(), depth))
    return draws


DRAWS = _draws()


def _families(p: Params, monic: Params) -> list:
    return [
        hirschhorn_family(p),
        b0_family(Params(p.q, p.a, 0, p.lam)),
        entry16_family(p.lam, p.q),
        monic_family(monic),
    ]


def test_the_draws_cover_every_input_class():
    kinds = {type(x) for _, _, x, _ in DRAWS}
    assert kinds == {float, complex, Fraction}
    assert any(math.copysign(1, x) < 0 for _, _, x, _ in DRAWS if x == 0)
    assert max(abs(x) for _, _, x, _ in DRAWS) > 1e250
    assert max(depth for *_, depth in DRAWS) == 1200
    assert any(isinstance(p.q, complex) for p, *_ in DRAWS)


def test_forward_runs_equal_the_generic_loop():
    for p, monic, x, depth in DRAWS:
        for fam in _families(p, monic):
            plain = reference.run_jfraction(coeffs_only(fam, depth), x, depth)
            assert outcome(run_jfraction, fam, x, depth) == outcome(lambda: plain), (fam.name, p, x, depth)
            # each rescaled mantissa times 2^E is the generic loop's value
            N, D, E = _run_affine(fam.constants(), x, depth)
            scaled = [k for k, e in enumerate(E) if e]
            for M, values in ((N, plain.N), (D, plain.D)):
                assert repr([_ldexp(M[k], E[k]) for k in scaled]) == repr([values[k] for k in scaled])


def test_backward_runs_equal_the_generic_loop():
    for p, monic, x, depth in DRAWS:
        for fam in _families(p, monic):
            ref = coeffs_only(fam, depth)
            got = outcome(backward_convergent, fam, x, depth)
            assert got == outcome(backward_convergent, ref, x, depth), (fam.name, p, x, depth)


def test_hirschhorn_cf_equals_the_generic_loop():
    for p, _, _, depth in DRAWS:
        levels = list(islice(_affine(*hirschhorn_family(p).constants()), depth))
        nums = [levels[0][0]] + [-C for _, _, C in levels[1:]]
        dens = [0] + [A * 1 + B for A, B, _ in levels]
        assert outcome(hirschhorn_cf, p, depth) == outcome(
            lambda: eval_backward(nums, dens, depth) / (1 - p.b)
        ), (p, depth)


def test_backward_poles_equal_the_generic_loop():
    # x = -a q^k zeroes the level-k denominator of the b = 0 family exactly
    # where q^k is a power of two: poles at the innermost level, inside and at level 1
    poles = []
    for depth in (1, 2, 5, 9):
        for k in range(depth):
            fam = b0_family(Params(0.5, 3.0, 0, 0.25))
            x = -3.0 * 0.5**k
            got = outcome(backward_convergent, fam, x, depth)
            assert got == outcome(backward_convergent, coeffs_only(fam, depth), x, depth), (depth, k)
            if got[0] is PoleError:
                poles.append((got[2], depth))
    assert any(lvl == m for lvl, m in poles) and any(1 < lvl < m for lvl, m in poles)
    # t_1 = x + lam q / x = 0 at x = 1, q = 1/2, lam = -2: a pole at level 1
    fam = b0_family(Params(0.5, 0.0, 0, -2.0))
    got = outcome(backward_convergent, fam, 1.0, 2)
    assert got == (PoleError, "zero denominator at level 1", 1)
    assert got == outcome(backward_convergent, coeffs_only(fam, 2), 1.0, 2)


def test_run_monic_and_monic_ratio_equal_the_generic_loop(monkeypatch):
    cases = [(monic, x, depth) for _, monic, x, depth in DRAWS]
    got = [(outcome(run_monic, *case), outcome(monic_ratio, *case)) for case in cases]
    monkeypatch.setattr(recurrence, "_run_affine", lambda constants, x, depth: reference._run(_affine(*constants), x, depth))
    assert got == [(outcome(run_monic, *case), outcome(monic_ratio, *case)) for case in cases]


def _custom(constants) -> JFamily:
    return JFamily("custom", None, constants=lambda: constants)


# growth bounds g = (|A x| + |B| + |C0| + |C1|)(1 + 1e-9) just under the 2^400
# cut-off (one level per chunk), under 2^250 (two) and near 2^100 (five), with
# both terms of the recurrence adding
NEAR_CUTOFF = [
    ((1, 0.0, -(2.0**399) * 0.9999, 0.0, 0.5), 2.0**399 * 0.9999),
    ((1, 2.0**248, -(2.0**248), 2.0**247, 0.5), 2.0**248),
    ((1.0, 0.0, 0.0, -(2.0**99), 0.9), 2.0**99),
    ((1, 0.0, -(2.0**399) * 0.9999, 0.0, complex(0.3, 0.4)), complex(2.0**398, 2.0**398) * 0.999),
]


@pytest.mark.parametrize("constants,x", NEAR_CUTOFF, ids=["2^400", "2^250", "2^100", "complex"])
def test_mantissas_stay_finite_below_the_ledger_bound(constants, x):
    g = (abs(constants[0] * x) + sum(map(abs, constants[1:4]))) * (1 + 1e-9)
    assert 2.0**90 < g < 2.0**400
    N, D, E = _run_affine(constants, x, 600)
    assert E[-1] > 2000  # the plain values left the double range long ago
    for m in N + D:
        assert abs(m) < 2.0**1012, m
    fam = _custom(constants)
    for depth in (1, 7, 600):
        ref = coeffs_only(fam, depth)
        assert outcome(run_jfraction, fam, x, depth) == outcome(reference.run_jfraction, ref, x, depth)


# constants the growth bound does not cover take one level per chunk: |q| > 1
# (real and complex), a bound at or past 2^400, a NaN or infinite constant;
# and a seed N_1 = A past the ledger limit (the bound leaves A out), which is
# rescaled before the first chunk, also where its modulus overflows
UNBOUNDED = [
    (1, 0.5, 0.25, 0.1, 1.5),
    (1, 0.5, 0.25, -0.1, -1.2),
    (1, 0.5, 0.25, 0.1, complex(0.9, 0.9)),
    (1, 2.0**400, 0.25, 0.1, 0.5),
    (1, 0.5, float("nan"), 0.1, 0.5),
    (1, 0.5, 0.25, float("inf"), 0.5),
    (1, 0.5, 0.25, 0.1, 1),  # |q| = 1 is bounded
    (1, 0.5, 0.25, 0.1, complex(0.6, 0.8)),
    (1e300, 0.5, 0.25, 0.1, 0.5),
    (complex(1.5e308, -1.5e308), 0.5, 0.25, 0.1, 0.5),
]


@pytest.mark.parametrize("constants", UNBOUNDED, ids=range(len(UNBOUNDED)))
def test_unbounded_constants_equal_the_generic_loop(constants):
    fam = _custom(constants)
    for x in (0.7, -3.0, complex(0.2, -1.5), Fraction(1, 3), 0.0, 0):
        for depth in (1, 4, 300):
            ref = coeffs_only(fam, depth)
            for route, ref_route in ((run_jfraction, reference.run_jfraction), (backward_convergent, backward_convergent)):
                assert outcome(route, fam, x, depth) == outcome(ref_route, ref, x, depth), (route, x, depth)


@pytest.mark.parametrize("x", [0.7, -3.0, complex(0.2, -1.5)])
def test_a_step_that_leaves_the_double_range_is_redone_from_the_scaled_pair(x):
    # q = 4 bounds nothing: lin_k = A x + B 4^k passes 2^512 near k = 257, and a
    # pair not rescaled at its chunk's start times lin_k overflows; that step is
    # done again from its first pair scaled, so every mantissa stays finite and
    # N_k / D_k of the mantissas is the generic loop's
    constants = (1, 0.5, 0.25, 0.1, 4.0)
    N, D, E = _run_affine(constants, x, 300)
    assert all(map(cmath.isfinite, N + D)) and E[-1] > 10000
    ref_N, ref_D, _ = reference._run(_affine(*constants), x, 300)
    assert outcome(lambda: [n / d for n, d in zip(N, D)]) == outcome(lambda: [n / d for n, d in zip(ref_N, ref_D)])
    fam = _custom(constants)
    assert outcome(run_jfraction, fam, x, 300) == outcome(reference.run_jfraction, coeffs_only(fam, 300), x, 300)


@pytest.mark.parametrize(
    "constants,x",
    [((1, 0, 0.25, 1e100, Fraction(1, 2)), Fraction(1, 3)), ((1, mpf(0.5), mpf(0.25), mpf(1e100), mpf(0.5)), mpf(10) ** 200)],
    ids=["rational-D1", "mpmath"],
)
def test_unscaled_runs_are_one_chunk_and_never_rescaled(constants, x):
    # D_1 neither float nor complex: no ledger, so float values past the double
    # range come back infinite or NaN, and an mpf seed past 2^512 is not scaled
    N, D, E = _run_affine(constants, x, 300)
    assert not any(E)
    fam = _custom(constants)
    assert outcome(run_jfraction, fam, x, 300) == outcome(reference.run_jfraction, coeffs_only(fam, 300), x, 300)


@pytest.mark.parametrize("x", [Fraction(10**200, 3), Fraction(10**160, 3)])
def test_an_unscaled_run_whose_rational_values_leave_the_double_range_raises_range_error(x):
    # lin_1 D_1 ~ x^2 is past the double range, x itself is not: subtracting the
    # float C_1 D_0 converts it, which overflows; the backward route divides
    # and stays finite
    fam = _custom((1, 0, 0.25, 1e100, Fraction(1, 2)))
    for route in (run_jfraction, convergent):
        with pytest.raises(RangeError, match="leaves the double range at level 2"):
            route(fam, x, 3)
    assert backward_convergent(fam, x, 3) == pytest.approx(float(1 / x), rel=1e-12)


def test_a_family_from_coeffs_alone_has_no_forward_route():
    # the literal coeffs-only copy of each built-in family, at a shallow depth:
    # the forward routes refuse it by name, and the backward route reads it
    # one call per level, eval_backward on its level lists
    for p, monic, x, _ in DRAWS[:40]:
        for fam in _families(p, monic):
            copy = JFamily(fam.name, fam.coeffs, fam.index_shift)
            for route in (run_jfraction, convergent):
                with pytest.raises(DomainError, match=f"'{fam.name}' has none"):
                    route(copy, x, 9)
            got = outcome(backward_convergent, copy, x, 9)
            assert got == outcome(backward_convergent, fam, x, 9), (fam.name, x)
            m = 9 + fam.index_shift
            nums, dens = _jfraction_levels(map(fam.coeffs, count()), x, m)
            assert got == outcome(eval_backward, nums, dens, m), (fam.name, x)


def test_hypothesis_errors_come_first():
    # the constants are read before any level: b != 0 and require_monic raise as before
    with pytest.raises(DomainError, match="b0 family requires b = 0"):
        run_jfraction(b0_family(Params(0.4, 0.3, -0.25, 0.2)), 0.7, 0)
    with pytest.raises(DomainError, match="monic family requires b < 0"):
        run_monic(Params(0.4, 0.3, 0.25, 0.2), 0.7, 0)
