import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qfraclab.cfrac import backward_convergent, eval_backward, hirschhorn_cf
from qfraclab.convergents import (
    a0_closed,
    entry15,
    entry16,
    g_function,
    hirschhorn_closed,
    ram_Q,
    ram_Qstar,
)
from qfraclab.errors import DomainError, PoleError
from qfraclab.recurrence import Params, b0_family, entry16_family, hirschhorn_family, run_jfraction


class TestEntry16:
    def test_first_values(self):
        lam, q = 0.7, 0.5
        assert entry16(0, lam, q) == (1, 1)
        N, D = entry16(1, lam, q)
        assert (N, D) == (1, 1 + lam * q)
        N, D = entry16(2, lam, q)
        assert N == pytest.approx(1 + lam * q**2)
        assert D == pytest.approx(1 + lam * q + lam * q * q)

    def test_ratio_matches_backward_cf(self):
        rng = random.Random(101)
        for _ in range(20):
            q = rng.uniform(0.05, 0.9) * rng.choice([1, -1])
            lam = rng.uniform(-2, 2)
            fam = entry16_family(lam, q)
            for n in range(0, 31):
                N, D = entry16(n, lam, q)
                val = backward_convergent(fam, 1, n)
                assert abs(N / D - val) <= 1e-11 * max(1.0, abs(val))

    def test_exact_mode(self):
        q, lam = Fraction(3, 7), Fraction(-2, 5)
        fam = entry16_family(lam, q)
        for n in range(0, 13):
            N, D = entry16(n, lam, q)
            assert isinstance(N, Fraction) and isinstance(D, Fraction)
            assert N / D == backward_convergent(fam, Fraction(1), n)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            entry16(-1, 0.5, 0.5)


class TestHirschhornClosed:
    def test_seed_and_first_level(self):
        q, a, b, lam = 0.3, 0.2, 0.4, 0.5
        N0, D0 = hirschhorn_closed(0, q, a, b, lam)
        assert (N0, D0) == (0, 1)
        N1, D1 = hirschhorn_closed(1, q, a, b, lam)
        assert D1 == pytest.approx(1 - b + a)
        assert N1 == pytest.approx(1 - b)

    def test_ratio_matches_recurrence_at_spec_point(self):
        q, a, b, lam = 0.3, 0.2, 0.4, 0.5
        p = Params(q, a, b, lam)
        seq = run_jfraction(hirschhorn_family(p), 1.0, 6)
        N, D = hirschhorn_closed(6, q, a, b, lam)
        assert N / D == pytest.approx(seq.ratio(6), rel=1e-12)

    def test_matches_cf_and_recurrence_random(self):
        rng = random.Random(103)
        for _ in range(25):
            q = rng.uniform(0.05, 0.8) * rng.choice([1, -1])
            a, b, lam = (rng.uniform(-0.8, 0.8) for _ in range(3))
            p = Params(q, a, b, lam)
            seq = run_jfraction(hirschhorn_family(p), 1.0, 31)
            for n in range(1, 31):
                N, D = hirschhorn_closed(n, q, a, b, lam)
                assert abs(N - seq.N[n]) <= 1e-11 * max(1.0, abs(seq.N[n]))
                assert abs(D - seq.D[n]) <= 1e-11 * max(1.0, abs(seq.D[n]))

    def test_exact_mode(self):
        q, a, b, lam = Fraction(2, 5), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 7)
        p = Params(q, a, b, lam)
        seq = run_jfraction(hirschhorn_family(p), Fraction(1), 12)
        for n in range(0, 13):
            assert hirschhorn_closed(n, q, a, b, lam) == (seq.N[n], seq.D[n])


class TestA0Closed:
    def test_b_zero_reduces_to_entry16(self):
        q, lam = 0.45, 0.8
        for n in range(0, 12):
            assert a0_closed(n, 0.0, lam, q) == pytest.approx(entry16(n, lam, q))

    def test_cross_formula_with_hirschhorn(self):
        # N'_n / D'_n is the (n+1)-level fraction, i.e. N_{n+1}(1)/((1-b) D_{n+1}(1))
        q, b, lam = 0.4, -0.3, 0.5
        for n in range(0, 11):
            Np, Dp = a0_closed(n, b, lam, q)
            Nh, Dh = hirschhorn_closed(n + 1, q, 0.0, b, lam)
            assert Np / Dp == pytest.approx(Nh / ((1 - b) * Dh), rel=1e-12)

    def test_ratio_matches_backward_cf(self):
        q, b, lam = 0.4, -0.3, 0.5
        n = 6
        Np, Dp = a0_closed(n, b, lam, q)
        dens = [0.0] + [1 - b] * (n + 1)
        nums = [1.0] + [b + lam * q**k for k in range(1, n + 1)]
        assert Np / Dp == pytest.approx(eval_backward(nums, dens, n + 1), rel=1e-12)

    def test_exact_mode(self):
        q, b, lam = Fraction(2, 5), Fraction(-3, 10), Fraction(1, 2)
        p = Params(q, Fraction(0), b, lam)
        for n in range(0, 13):
            Np, Dp = a0_closed(n, b, lam, q)
            assert Np / Dp == hirschhorn_cf(p, n + 1)


class TestRamPolynomials:
    def test_small_values(self):
        q, a, lam = 0.4, 0.3, -0.5
        x = 1.7
        assert ram_Q(0, x, a, lam, q) == 1
        assert ram_Q(1, x, a, lam, q) == pytest.approx(x + a)
        assert ram_Q(2, x, a, lam, q) == pytest.approx((x + a) * (x + a * q) + lam * q, rel=1e-14)
        assert ram_Qstar(0, x, a, lam, q) == 0
        assert ram_Qstar(1, x, a, lam, q) == 1
        assert ram_Qstar(2, x, a, lam, q) == pytest.approx(x + a * q)

    def test_matches_recurrence(self):
        rng = random.Random(104)
        for _ in range(10):
            q = rng.uniform(0.05, 0.8) * rng.choice([1, -1])
            a, lam = rng.uniform(-1, 1), rng.uniform(-1, 1)
            x = rng.uniform(-2, 2)
            seq = run_jfraction(b0_family(Params(q, a, 0.0, lam)), x, 25)
            for n in range(0, 26):
                assert abs(ram_Q(n, x, a, lam, q) - seq.D[n]) <= 1e-11 * max(1.0, abs(seq.D[n]))
                assert abs(ram_Qstar(n, x, a, lam, q) - seq.N[n]) <= 1e-11 * max(1.0, abs(seq.N[n]))

    def test_x_zero_is_regular(self):
        # the product form has no removable singularity left at x = 0
        q, a, lam = 0.4, 0.3, -0.5
        seq = run_jfraction(b0_family(Params(q, a, 0.0, lam)), 0.0, 8)
        for n in range(9):
            assert ram_Q(n, 0.0, a, lam, q) == pytest.approx(seq.D[n], rel=1e-13)


class TestEntry15:
    def test_n1_ratio(self):
        q, a, lam = 0.4, 0.3, 0.7
        Nh, Dh = entry15(1, a, lam, q)
        assert (1 + a) * Nh / Dh == pytest.approx(1 + a + lam * q / (1 + a * q), rel=1e-13)

    def test_a_zero_reduces_to_entry16(self):
        # the fraction inverts: (Nhat, Dhat) land on entry16's (D, N)
        q, lam = 0.45, 0.8
        for n in range(1, 12):
            N16, D16 = entry16(n, lam, q)
            assert entry15(n, 0.0, lam, q) == pytest.approx((D16, N16))

    def test_consistency_with_ram_polynomials(self):
        rng = random.Random(105)
        for _ in range(8):
            q = rng.uniform(0.05, 0.8) * rng.choice([1, -1])
            a, lam = rng.uniform(-0.8, 0.8), rng.uniform(-1, 1)
            for n in range(1, 21):
                Nh, Dh = entry15(n, a, lam, q)
                assert ram_Q(n + 1, 1.0, a, lam, q) == pytest.approx((1 + a) * Nh, rel=1e-11, abs=1e-11)
                assert ram_Qstar(n + 1, 1.0, a, lam, q) == pytest.approx(Dh, rel=1e-11, abs=1e-11)

    def test_exact_consistency(self):
        # a = -2, q = 1/2 zeroes the product factor 1 + a q at i = 1
        lam = Fraction(-1, 3)
        for q, a in [(Fraction(2, 5), Fraction(1, 4)), (Fraction(1, 2), Fraction(-2))]:
            seq = run_jfraction(b0_family(Params(q, a, 0, lam)), Fraction(1), 11)
            for n in range(1, 11):
                Nh, Dh = entry15(n, a, lam, q)
                assert ram_Q(n + 1, Fraction(1), a, lam, q) == (1 + a) * Nh == seq.D[n + 1]
                assert ram_Qstar(n + 1, Fraction(1), a, lam, q) == Dh == seq.N[n + 1]

    def test_a_minus_one_rejected(self):
        with pytest.raises(DomainError):
            entry15(3, -1.0, 0.5, 0.4)

    def test_needs_n_at_least_one(self):
        with pytest.raises(DomainError):
            entry15(0, 0.3, 0.5, 0.4)


class TestMutualReductions:
    def test_three_way_agreement_at_a0_b0(self):
        # entry16 and a0_closed count tail terms; hirschhorn_closed carries
        # the recurrence index, one ahead
        q, lam = 0.35, -0.6
        for n in range(0, 10):
            e = entry16(n, lam, q)
            a0 = a0_closed(n, 0.0, lam, q)
            h = hirschhorn_closed(n + 1, q, 0.0, 0.0, lam)
            assert a0 == pytest.approx(e)
            assert h == pytest.approx(e)


class TestGFunction:
    def test_lambda_zero(self):
        assert g_function(-0.3, 0.0, 0.4) == 1

    def test_denominator_limit(self):
        q, b, lam = 0.4, -0.3, 0.5
        _, Dp = a0_closed(60, b, lam, q)
        assert abs(Dp - g_function(b, lam, q) / (1 + b)) < 1e-8

    def test_pole_parameter_rejected(self):
        # -bq = q^{-0} i.e. b = -1/q zeroes (-bq; q)_1
        with pytest.raises(DomainError):
            g_function(-1 / 0.4, 0.5, 0.4)


class TestVanishingQFactorial:
    # q = -1 zeroes (q; q)_m from m = 2 on; each closed form raises exactly
    # when one of the q-binomials it sums reaches that index, and returns
    # its value below it
    q, a, b, lam = Fraction(-1), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)

    def test_values_below_the_vanishing_index(self):
        q, a, b, lam = self.q, self.a, self.b, self.lam
        assert hirschhorn_closed(0, q, a, b, lam) == (0, 1)
        assert hirschhorn_closed(1, q, a, b, lam) == (Fraction(5, 4), Fraction(19, 12))
        assert a0_closed(0, b, lam, q) == (1, Fraction(5, 4))
        assert entry16(0, lam, q) == (1, 1)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_hirschhorn_closed_raises(self, n):
        with pytest.raises(DomainError):
            hirschhorn_closed(n, self.q, self.a, self.b, self.lam)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_a0_closed_and_entry16_raise(self, n):
        with pytest.raises(DomainError):
            a0_closed(n, self.b, self.lam, self.q)
        with pytest.raises(DomainError):
            entry16(n, self.lam, self.q)

    # ram_Q(n) reads (q; q)_n, ram_Qstar(n) is ram_Q(n - 1), and entry15(n)
    # reads (q; q)_(n+1) from its least n = 1 on
    x = Fraction(2, 3)

    def test_ram_values_below_the_vanishing_index(self):
        q, a, lam, x = self.q, self.a, self.lam, self.x
        assert ram_Q(0, x, a, lam, q) == 1
        assert ram_Q(1, x, a, lam, q) == x + a
        assert ram_Qstar(0, x, a, lam, q) == 0
        assert ram_Qstar(1, x, a, lam, q) == 1
        assert ram_Qstar(2, x, a, lam, q) == x + a * q

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_ram_Q_raises(self, n):
        with pytest.raises(DomainError):
            ram_Q(n, self.x, self.a, self.lam, self.q)
        with pytest.raises(DomainError):
            ram_Qstar(n + 1, self.x, self.a, self.lam, self.q)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_entry15_raises(self, n):
        with pytest.raises(DomainError):
            entry15(n, self.a, self.lam, self.q)


def _small_rationals(lo, hi):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 9))


# 0 < |q| < 1, so no (q; q)_m factor vanishes
exact_q = st.builds(
    lambda num, den, sign: Fraction(sign * num, num + den),
    st.integers(1, 8),
    st.integers(1, 8),
    st.sampled_from([1, -1]),
)


@settings(deadline=None, max_examples=40)
@given(exact_q, _small_rationals(-6, 6), _small_rationals(-6, 6), _small_rationals(-6, 6), st.integers(0, 10))
def test_hirschhorn_closed_equals_exact_recurrence(q, a, b, lam, n):
    assume(b != 1)
    seq = run_jfraction(hirschhorn_family(Params(q, a, b, lam)), Fraction(1), max(n, 1))
    assert hirschhorn_closed(n, q, a, b, lam) == (seq.N[n], seq.D[n])


# a parameter drawn as a small Fraction or as the int 0 or 1
exact_param = st.one_of(st.sampled_from([0, 1]), _small_rationals(-6, 6))


@settings(deadline=None, max_examples=40)
@given(exact_q, exact_param, st.integers(0, 14))
@example(q=Fraction(-1, 2), lam=1, n=0)
@example(q=Fraction(-2, 3), lam=0, n=5)
def test_entry16_equals_exact_recurrence(q, lam, n):
    # the n-th closed-form pair is the recurrence's pair at index n + 1, x = 1
    seq = run_jfraction(entry16_family(lam, q), Fraction(1), n + 1)
    N, D = entry16(n, lam, q)
    assert isinstance(N, Fraction) and isinstance(D, Fraction)
    assert (N, D) == (seq.N[n + 1], seq.D[n + 1])


@settings(deadline=None, max_examples=40)
@given(exact_q, _small_rationals(-9, 9), exact_param, exact_param, st.integers(0, 16))
@example(q=Fraction(-1, 3), x=Fraction(1, 2), a=0, lam=1, n=0)
@example(q=Fraction(-3, 4), x=Fraction(-2, 5), a=0, lam=1, n=7)
def test_ram_polynomials_equal_exact_recurrence(q, x, a, lam, n):
    seq = run_jfraction(b0_family(Params(q, a, 0, lam)), x, max(n, 1))
    Q = ram_Q(n, x, a, lam, q)
    assert isinstance(Q, Fraction)
    assert Q == seq.D[n]
    assert ram_Qstar(n, x, a, lam, q) == seq.N[n]


@settings(deadline=None, max_examples=40)
@given(exact_q, exact_param, exact_param, st.integers(1, 14))
@example(q=Fraction(-1, 2), a=0, lam=1, n=1)
@example(q=Fraction(-4, 5), a=Fraction(-5, 2), lam=1, n=6)
def test_entry15_equals_exact_recurrence(q, a, lam, n):
    assume(a != -1)
    # (1 + a) Nhat_n and Dhat_n are Q_{n+1} and Q*_{n+1} at x = 1
    seq = run_jfraction(b0_family(Params(q, a, 0, lam)), Fraction(1), n + 1)
    Nh, Dh = entry15(n, a, lam, q)
    assert isinstance(Nh, Fraction) and isinstance(Dh, Fraction)
    assert ((1 + a) * Nh, Dh) == (seq.D[n + 1], seq.N[n + 1])


@settings(deadline=None, max_examples=40)
@given(exact_q, _small_rationals(-6, 6), _small_rationals(-6, 6), st.integers(0, 10))
def test_a0_closed_equals_exact_backward_fraction(q, b, lam, n):
    assume(b != 1)
    Np, Dp = a0_closed(n, b, lam, q)
    try:
        cf = hirschhorn_cf(Params(q, Fraction(0), b, lam), n + 1)
    except PoleError:  # an exact rational truncation can hit a zero denominator
        assume(False)
    assume(Dp != 0)
    assert Np / Dp == cf


# ---------------------------------------------------------------------------
# The scalar path: float, complex and mixed float/Fraction arguments keep the
# tables and the order of operations of the implementation that summed the
# values directly, so every value is bit-for-bit the one recorded from it in
# convergents_golden.json: under the key "<name>/<kind>", _bits of each draw
# of _scalar_draws(name, kind), in order.
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).with_name("convergents_golden.json")

# name -> (closed form, argument names after n, least n)
CLOSED_FORMS = {
    "hirschhorn_closed": (hirschhorn_closed, ("q", "a", "b", "lam"), 0),
    "entry16": (entry16, ("lam", "q"), 0),
    "a0_closed": (a0_closed, ("b", "lam", "q"), 0),
    "ram_Q": (ram_Q, ("x", "a", "lam", "q"), 0),
    "ram_Qstar": (ram_Qstar, ("x", "a", "lam", "q"), 0),
    "entry15": (entry15, ("a", "lam", "q"), 1),
}
SCALAR_KINDS = ("float", "complex", "mixed")


def _scalar_draws(name: str, kind: str) -> list:
    """Eight seeded (n, args) draws of one closed form: all floats, complex q
    with some complex parameters, or floats and Fractions in one call."""
    _, names, least = CLOSED_FORMS[name]
    rng = random.Random(f"{name}/{kind}")
    draws = []
    for _ in range(8):
        n = rng.randint(least, 12)
        args = []
        for arg in names:
            v = rng.uniform(0.05, 0.75) * rng.choice([1, -1]) if arg == "q" else rng.uniform(-0.9, 0.9)
            if kind == "complex" and (arg == "q" or rng.random() < 0.5):
                v = complex(v, rng.uniform(-0.3, 0.3))
            args.append(v)
        if kind == "mixed":  # at least one Fraction and one float
            exact = rng.sample(range(len(args)), rng.randint(1, len(args) - 1))
            args = [Fraction(v).limit_denominator(20) if i in exact else v for i, v in enumerate(args)]
        draws.append((n, tuple(args)))
    return draws


def _bits(value):
    """A value as text that tells every bit and the type apart."""
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    if isinstance(value, float):
        return value.hex()
    return f"{type(value).__name__}:{value}"


@pytest.mark.parametrize("kind", SCALAR_KINDS)
@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_scalar_arguments_give_the_recorded_bits(name, kind):
    golden = json.loads(GOLDEN.read_text())[f"{name}/{kind}"]
    fn = CLOSED_FORMS[name][0]
    for (n, args), want in zip(_scalar_draws(name, kind), golden, strict=True):
        assert _bits(fn(n, *args)) == want, (n, args)
