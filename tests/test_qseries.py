import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfraclab.errors import DomainError, RangeError, TruncationError
from qfraclab import asymptotics, convergents, genfun, moments, qseries, verify
from qfraclab.qseries import phi, qpochhammer, qpochhammer_inf, sum_series, theta
from qfraclab.recurrence import Params

# strategies kept away from the singular sets: |q| in [0.05, 0.9], and the
# Pochhammer argument inside the unit disk so no factor 1 - a q^j can come
# near zero under adversarial shrinking (theta arguments are instead kept
# off the real axis)
qs = st.floats(0.05, 0.9).flatmap(lambda q: st.sampled_from([q, -q]))
complex_a = st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))


def test_qpochhammer_empty_product():
    assert qpochhammer(0.7 + 0.2j, 0.5, 0) == 1


def test_qpochhammer_vanishing_first_factor():
    assert qpochhammer(1, 0.5, 3) == 0


def test_qpochhammer_frozen_value():
    # (0.5; 0.5)_2 = (1 - 0.5)(1 - 0.25)
    assert qpochhammer(0.5, 0.5, 2) == pytest.approx(0.375, abs=0)


def test_qpochhammer_negative_n_rejected():
    with pytest.raises(DomainError):
        qpochhammer(0.5, 0.5, -1)


def test_qpochhammer_inf_trivial_cases():
    assert qpochhammer_inf(0.0, 0.3) == 1
    assert qpochhammer_inf(1.0, 0.5) == 0


def test_qpochhammer_inf_long_product_oracle():
    # 60 explicit factors already reach well below 1e-14
    oracle = 1.0
    for k in range(61):
        oracle *= 1 - 0.5 * 0.5**k
    assert qpochhammer_inf(0.5, 0.5) == pytest.approx(oracle, abs=1e-14)


def test_qpochhammer_inf_requires_q_inside_disk():
    with pytest.raises(DomainError):
        qpochhammer_inf(0.5, 1.0)


def test_theta_zero_argument_rejected():
    with pytest.raises(DomainError):
        theta(0.0, 0.5)


def test_theta_vanishes_at_z_equals_q():
    assert theta(0.5, 0.5) == 0


def test_theta_quasiperiodicity_frozen():
    assert theta(0.3, 0.1) / theta(0.03, 0.1) == pytest.approx(-0.3, abs=1e-12)


def test_theta_long_product_oracle():
    q = 0.5
    oracle = 1.0
    for k in range(80):
        oracle *= (1 - (-1.0) * q**k) * (1 - (q / -1.0) * q**k)
    assert theta(-1.0, q) == pytest.approx(oracle, rel=1e-13)


def test_phi_zero_argument():
    assert phi((0.2, 0.3), (0.4,), 0.5, 0.0) == 1


def test_phi_terminating_equals_explicit_sum():
    q = 0.5
    n = 3
    upper = (q**-n, 0.3)
    lower = (0.25,)
    z = 0.7
    explicit = 0.0
    for k in range(n + 1):
        explicit += (
            qpochhammer(upper[0], q, k)
            * qpochhammer(upper[1], q, k)
            / (qpochhammer(q, q, k) * qpochhammer(lower[0], q, k))
            * z**k
        )
    assert phi(upper, lower, q, z) == pytest.approx(explicit, rel=1e-13)


def test_phi_2phi1_brute_force_oracle():
    # independent 200-term summation straight from the definition
    q, z = 0.5, 0.25
    a1, a2, b1 = 0.2, 0.3, 0.4
    oracle = 0.0
    for k in range(200):
        oracle += (
            qpochhammer(a1, q, k)
            * qpochhammer(a2, q, k)
            / (qpochhammer(q, q, k) * qpochhammer(b1, q, k))
            * z**k
        )
    assert phi((a1, a2), (b1,), q, z) == pytest.approx(oracle, rel=1e-13)


def test_phi_extra_factor_for_lower_majority():
    # 0phi1 carries ((-1)^k q^C(k,2))^2 = q^(k^2 - k)
    q, b, z = 0.4, 0.3, 0.2
    oracle = sum(
        q ** (k * k - k) * z**k / (qpochhammer(q, q, k) * qpochhammer(b, q, k)) for k in range(80)
    )
    assert phi((), (b,), q, z) == pytest.approx(oracle, rel=1e-13)


def test_phi_rejects_lower_q_inverse_power():
    with pytest.raises(DomainError):
        phi((0.2,), (0.5**-2,), 0.5, 0.1)
    with pytest.raises(DomainError):
        phi((0.2,), (1.0,), 0.5, 0.1)


def test_phi_divergent_raises_truncation():
    with pytest.raises(TruncationError):
        phi((0.5, 0.5), (0.3,), 0.5, 1.5)


def test_phi_summation_formulas_over_a_wide_sweep():
    # the qseries-kernel criterion's two phi checks and gate, over 1000 seeded
    # draws per formula in place of the criterion's 25; errors are scaled by
    # sum |t_k|, which phi's cancelling sums are good to (relative to |phi|
    # these draws reach 6e-7)
    binomial, gauss = verify._phi_sum_errors(random.Random(14), 1000)
    assert len(binomial) == len(gauss) == 1000
    assert all(err < 1e-12 for err in binomial + gauss)


def test_truncation_policy_is_the_documented_one():
    assert (qseries._REL_TOL, qseries._SMALL_RUN, qseries._MAX_TERMS) == (1e-15, 3, 10_000)


def test_term_cap_raises_truncation(monkeypatch):
    monkeypatch.setattr(qseries, "_MAX_TERMS", 5)
    with pytest.raises(TruncationError, match="did not converge within 5 terms"):
        sum_series(0.5**k for k in range(100))
    with pytest.raises(TruncationError, match="did not converge within 5 factors"):
        qpochhammer_inf(0.5, 0.5)
    # a series that settles within the cap still sums
    assert sum_series(iter([1.0, 0.0, 0.0, 0.0])) == 1.0


EPS = 2.0**-52


def _head(a, q):
    """The powers a q^k that qpochhammer_inf multiplies as factors 1 - a q^k
    before it sums the rest of the product by Euler's series."""
    switch = qseries._TAIL_RATIO * (1 - abs(q))
    powers, y = [], a
    while abs(y) >= switch:
        powers.append(y)
        y *= q
    return powers


def _rounding_bound(a, q):
    """A relative rounding bound on (a; q)_inf: one unit roundoff per head factor
    and per head product, six for the tail and its product, and k + 1 for the
    running power a q^k, which a factor 1 - a q^k near zero scales by
    |a q^k| / |1 - a q^k|."""
    return EPS * (6 + sum(1 + (k + 1) * abs(y) / abs(1 - y) for k, y in enumerate(_head(a, q))))


def _draw_a_q(rng):
    r = rng.uniform(0.05, 0.95)
    q = rng.choice([r, -r, cmath.rect(r, rng.uniform(-math.pi, math.pi))])
    a = rng.choice([rng.uniform(-3, 3), complex(rng.uniform(-3, 3), rng.uniform(-3, 3))])
    return a, q


def test_qpochhammer_inf_is_within_its_rounding_bound_of_a_40_digit_product():
    # 150 draws of real and complex a and q with |q| <= 0.95; the worst draw
    # of 3000 took 0.22 of its bound, and the median bound is about 6e-15
    rng = random.Random(35)
    with mpmath.workdps(40):
        for _ in range(150):
            a, q = _draw_a_q(rng)
            ref = mpmath.qp(mpmath.mpmathify(a), mpmath.mpmathify(q))
            assert abs(qpochhammer_inf(a, q) - ref) <= _rounding_bound(a, q) * abs(ref), (a, q)


@pytest.mark.parametrize("side", ["above", "below"])
def test_the_q_shift_holds_across_the_switch_to_the_euler_tail(side):
    # |a| just above the switch point and |aq| below it: (a; q)_inf multiplies one
    # factor and sums the tail from aq, and (aq; q)_inf sums it with no head;
    # |a| just below it: (a; q)_inf sums the tail from a itself
    rng = random.Random(36)
    for _ in range(200):
        a, q = _draw_a_q(rng)
        switch = qseries._TAIL_RATIO * (1 - abs(q))
        lo, hi = (switch, switch / abs(q)) if side == "above" else (switch * abs(q), switch)
        a = rng.uniform(lo, hi) * a / abs(a)
        assert len(_head(a, q)) == (1 if side == "above" else 0) and not _head(a * q, q)
        lhs, rhs = qpochhammer_inf(a, q), (1 - a) * qpochhammer_inf(a * q, q)
        assert abs(lhs - rhs) <= 4 * EPS * abs(lhs), (a, q)


def test_a_product_near_the_unit_circle_fits_the_factor_cap():
    # 6209 head factors, under the 10 000 of the cap; multiplying until |a q^k| < 1e-15
    # took about 16 900 and raised TruncationError.  The reference is the exponential
    # of the sum of log(1 - 0.5 * 0.998^k) at 30 digits; the measured error is 1.05e-13
    assert len(_head(0.5, 0.998)) == 6209
    assert qpochhammer_inf(0.5, 0.998) == pytest.approx(3.499151653677842755665509e-127, rel=2e-13, abs=0)


@pytest.mark.parametrize("call", [
    lambda: qpochhammer_inf(1e300, 0.4),
    lambda: theta(1e-300, 0.4),
    lambda: qpochhammer(1e300, 0.4, 5),
    lambda: moments.weight_f(1e300, 1.0, verify.ACCEPT_PARAMS),
    lambda: asymptotics.asymptotic_Q(10, 1e-300, Params(0.4, 0.3, 0, -0.5)),
], ids=["qpochhammer_inf", "theta", "qpochhammer", "weight_f", "asymptotic_Q"])
def test_a_product_past_the_double_range_is_a_range_error(call):
    with pytest.raises(RangeError, match=r"^\(a; q\)_(inf|n) leaves the double range$"):
        call()


def test_theta_whose_two_products_are_doubles_but_not_their_product_is_a_range_error():
    # (z; q)_inf is 1.78e308 and (q/z; q)_inf 1.06
    assert qpochhammer_inf(-547.6, 0.97) < 1.8e308 and qpochhammer_inf(0.97 / -547.6, 0.97) > 1.06
    with pytest.raises(RangeError, match="^<z; q> leaves the double range$"):
        theta(-547.6, 0.97)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@settings(deadline=None)
@given(complex_a, qs, st.integers(0, 20), st.integers(0, 20))
def test_pochhammer_splitting(a, q, m, n):
    lhs = qpochhammer(a, q, m + n)
    rhs = qpochhammer(a, q, m) * qpochhammer(a * q**m, q, n)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


theta_z = st.builds(
    lambda re, im, sign: complex(re, sign * im),
    st.floats(-2.0, 2.0),
    st.floats(0.1, 2.0),
    st.sampled_from([1, -1]),
)


@settings(deadline=None)
@given(theta_z, st.floats(0.05, 0.7))
def test_theta_quasiperiodicity_property(z, q):
    ratio = theta(z, q) / theta(z * q, q)
    assert abs(ratio + z) <= 1e-12 * max(1.0, abs(z))


@settings(deadline=None)
@given(
    st.builds(complex, st.floats(-0.95, 0.95), st.floats(-0.3, 0.3)).filter(lambda z: abs(z) < 0.95),
    st.floats(0.05, 0.8),
)
def test_pochhammer_inf_ratio(a, q):
    lhs = qpochhammer_inf(a, q) / qpochhammer_inf(a * q, q)
    assert abs(lhs - (1 - a)) <= 1e-12 * max(1.0, abs(1 - a))


# every q-series kernel and closed form, its finite reference arguments, and the
# positions of the arguments that may be non-finite (the integer orders never are)
FINITE_CALLS = {
    "qpochhammer": (qpochhammer, (0.3, 0.4, 5), (0, 1)),
    "qpochhammer_inf": (qpochhammer_inf, (0.3, 0.4), (0, 1)),
    "theta": (theta, (0.7, 0.4), (0, 1)),
    "phi": (lambda a, b, q, z: phi((a,), (b,), q, z), (0.3, 0.2, 0.4, 0.5), (0, 1, 2, 3)),
    "hirschhorn_closed": (convergents.hirschhorn_closed, (6, 0.4, 0.3, -0.25, 0.2), (1, 2, 3, 4)),
    "entry16": (convergents.entry16, (6, 0.2, 0.4), (1, 2)),
    "a0_closed": (convergents.a0_closed, (6, -0.25, 0.2, 0.4), (1, 2, 3)),
    "entry15": (convergents.entry15, (6, 0.3, 0.2, 0.4), (1, 2, 3)),
    "ram_Q": (convergents.ram_Q, (6, 0.7, 0.3, 0.2, 0.4), (1, 2, 3, 4)),
    "ram_Qstar": (convergents.ram_Qstar, (0, 0.7, 0.3, 0.2, 0.4), (1, 2, 3, 4)),  # n = 0 returns early
    "g_function": (convergents.g_function, (-0.25, 0.2, 0.4), (0, 1, 2)),
    "qintegral": (lambda lo, hi, q: moments.qintegral(lambda t: 1.0, lo, hi, q), (0.0, 0.7, 0.5), (0, 1, 2)),
    "gf_eval": (lambda t, x: genfun.gf_eval("D", t, x, Params(0.4, 0.3, -0.25, 0.2)), (0.1, 0.3), (0, 1)),
}


def _scalars(value):
    """The scalars of a value or of a pair of values."""
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.inf)], ids=["nan", "inf", "complex-inf"])
@pytest.mark.parametrize("name", FINITE_CALLS)
def test_nonfinite_argument_is_a_domain_error(name, bad):
    fn, args, positions = FINITE_CALLS[name]
    assert all(map(cmath.isfinite, _scalars(fn(*args))))
    for i in positions:
        poisoned = args[:i] + (bad,) + args[i + 1:]
        with pytest.raises(DomainError, match="requires finite arguments"):
            fn(*poisoned)


def test_rationals_past_the_double_range_skip_the_finiteness_check():
    huge = Fraction(10**400, 3)
    assert qpochhammer(huge, Fraction(1, 2), 2) == (1 - huge) * (1 - huge / 2)
    N, D = convergents.entry16(3, 10**400, Fraction(1, 2))
    assert type(D) is Fraction and D > 10**400


HUGE = Fraction(10**400, 3)


# each partial sum past the first is past the largest double
@pytest.mark.parametrize("call", [
    lambda: phi((Fraction(-1),), (), Fraction(2, 5), HUGE),  # divergent
    lambda: phi((Fraction(5, 2),), (), Fraction(2, 5), HUGE),  # terminating
    lambda: convergents.g_function(Fraction(-1, 3), HUGE, Fraction(2, 5)),
], ids=["divergent", "terminating", "g_function"])
def test_a_rational_partial_sum_past_the_double_range_is_a_range_error(call):
    with pytest.raises(RangeError, match="^basic hypergeometric series: partial sum at index 1 leaves the double range$"):
        call()


def test_a_rational_sum_leaves_the_double_range_where_its_partial_sum_does():
    # sum_k (7/3)^k, whose partial sum passes the largest double at k = 838;
    # phi((-1,), (), 2/5, 7/3) leaves the same way at k = 835, but its terms'
    # denominators grow like 5^(k^2 / 2), and it takes about a minute on a 2-vCPU host
    with pytest.raises(RangeError, match="^series: partial sum at index 838 leaves the double range$"):
        sum_series(Fraction(7, 3) ** k for k in range(10_000))


def test_a_divergent_rational_phi_leaves_the_double_range_where_its_partial_sum_does():
    # the k-th term of 1phi0(-1; 2/5, 10^100) is about 7 * 10^(100 k), so the
    # partial sums at indices 0 to 3 are doubles and the one at index 4 is not
    with pytest.raises(RangeError, match="^basic hypergeometric series: partial sum at index 4 leaves the double range$"):
        phi((Fraction(-1),), (), Fraction(2, 5), Fraction(10**100))


def test_a_terminating_rational_sum_and_a_divergent_float_sum_are_unchanged():
    assert phi((Fraction(5, 2),), (), Fraction(2, 5), Fraction(7, 3)) == Fraction(-29, 6)
    with pytest.raises(TruncationError, match=r"nonfinite term at index 836\)$"):
        phi((-1.0,), (), 0.4, 7 / 3)


def _factor_loop(a, q, n):
    """(a; q)_n factor by factor, each product reduced as it is formed."""
    out = 1
    pw = 1
    for _ in range(n):
        out *= 1 - a * pw
        pw *= q
    return out


def _pairs(rng):
    """Seeded (a, q) pairs: ints and Fractions, negative q, a = q^(-j) (a zero
    factor at j), a numerator far past the double range, and the float,
    complex and mixed pairs that keep the factor-by-factor loop."""
    def frac(lo, hi, den_hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, den_hi))

    for _ in range(6):
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 8), rng.randint(9, 20))
        yield frac(-9, 9, 9), q
        yield rng.randint(-5, 5), q
        yield frac(-9, 9, 9), rng.randint(-3, 3)
        yield rng.randint(-5, 5), rng.randint(-3, 3)
        yield q ** -rng.randint(0, 30), q
        yield Fraction(10**400, 3), q
        a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        x = rng.uniform(-0.9, 0.9)
        yield a, x
        yield a.real, x
        yield frac(-9, 9, 9), x
        yield a, q
        yield 2, x
    yield Fraction(3), Fraction(1, 3)
    yield 2, Fraction(1, 3)


def test_qpochhammer_matches_the_factor_loop_in_value_and_type():
    for a, q in _pairs(random.Random(2101)):
        for n in range(31):
            expected = _factor_loop(a, q, n)
            got = qpochhammer(a, q, n)
            assert (type(got), got) == (type(expected), expected), (a, q, n)
    assert type(qpochhammer(Fraction(3), Fraction(1, 3), 2)) is Fraction
    assert qpochhammer(Fraction(3), Fraction(1, 3), 2) == 0
    assert type(qpochhammer(Fraction(3), Fraction(1, 3), 0)) is int


def test_convergents_qfac_tables_are_qpochhammer():
    for q in (Fraction(2, 7), Fraction(-5, 9), Fraction(1, 13)):
        n = 16
        tab, _, tab_den, _ = convergents._qfac_tables(q, n, True)
        for m in range(n + 1):
            assert Fraction(tab[m], tab_den) == qpochhammer(q, q, m)


def _qterm_draws(rng):
    """Seeded (x, y, q, n): Fractions and ints, q of either sign, y = 0, n from 0."""
    def value():
        if rng.random() < 0.3:
            return rng.randint(-6, 6)
        return Fraction(rng.randint(-40, 40), rng.randint(1, 15))

    for i in range(300):
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(13, 20))
        if i % 5 == 4:
            q = rng.choice([-3, -1, 2])
        y = 0 if i % 7 == 3 else value()
        yield value(), y, q, 0 if i % 11 == 5 else rng.randint(1, 25)


def test_the_integer_rule_gives_x_plus_y_q_to_the_j():
    for x, y, q, n in _qterm_draws(random.Random(2301)):
        tops, bottoms = qseries._qterms(x, y, q, n)
        assert len(tops) == len(bottoms) == n
        v = Fraction(q).denominator
        for j, (top, bottom) in enumerate(zip(tops, bottoms)):
            assert type(top) is int and type(bottom) is int
            assert Fraction(top, bottom) == x + y * Fraction(q) ** j, (x, y, q, j)
            assert bottom == bottoms[0] * v**j, (x, y, q, j)
