"""The package-wide finiteness rule.

Every public function returns a finite value or raises a QFracError, however
large its index: a power past the double range is a RangeError, never a bare
OverflowError or a silent inf.  A NaN or infinite argument is a DomainError on
entry, and a rational of any size is finite, so the exact routes take
Fractions far past the double range.
"""

import cmath
import math
from fractions import Fraction

import pytest

from qfraclab.asymptotics import asymptotic_P, asymptotic_Q, stieltjes_b0
from qfraclab.cfrac import backward_convergent, convergent
from qfraclab.convergents import hirschhorn_closed
from qfraclab.errors import DomainError, QFracError, RangeError
from qfraclab.genfun import gf_eval, gf_radius
from qfraclab.measure import norm_squared, rho_select, stieltjes_transform
from qfraclab.moments import moment_pk_closed, moment_pk_integral, qintegral, weight_f
from qfraclab.qseries import phi, qpochhammer, qpochhammer_inf, theta
from qfraclab.recurrence import Params, b0_family, hirschhorn_family, monic_ratio, run_jfraction, run_monic

P = Params(0.4, 0.3, -0.25, 0.2)
P_B0 = Params(0.4, 0.3, 0.0, -0.2)
ON_CUT = (0.3, -0.7)
OFF_CUT = (5, 5.0, 2.0, -1.2, 3j, 1.5 + 0.5j)
INDICES = range(2001)


def _finite_or_raise(fn, indices):
    """Call ``fn(k)`` for every k; each must be finite or raise a QFracError.
    Returns the number of finite values."""
    finite = 0
    for k in indices:
        try:
            value = fn(k)
        except QFracError:
            continue
        assert cmath.isfinite(value), (k, value)
        finite += 1
    return finite


def test_norm_squared_is_finite_at_every_index():
    assert _finite_or_raise(lambda n: norm_squared(n, P), INDICES) == len(INDICES)
    # 4^-n scales by an exact power of two: the same double as the division below 4^512
    for n in (0, 1, 37, 511):
        assert norm_squared(n, P) == qpochhammer(-P.lam * P.q / P.b, P.q, n) / 4**n
    assert norm_squared(10**6, P) == 0.0


def test_norm_squared_stays_exact_on_fractions():
    p = Params(Fraction(2, 5), Fraction(3, 10), Fraction(-1, 4), Fraction(1, 5))
    h = norm_squared(600, p)
    assert type(h) is Fraction and 0 < h < Fraction(1, 4**599)


@pytest.mark.parametrize("x", ON_CUT)
def test_asymptotic_P_is_finite_at_every_index(x):
    assert _finite_or_raise(lambda k: asymptotic_P(k, x, P), INDICES) == len(INDICES)


def test_asymptotic_P_rejects_a_negative_index():
    with pytest.raises(DomainError, match="k >= 0"):
        asymptotic_P(-1, 0.3, P)


@pytest.mark.parametrize("x", ON_CUT + OFF_CUT)
def test_asymptotic_Q_is_finite_or_a_range_error(x):
    _finite_or_raise(lambda n: asymptotic_Q(n, x, P_B0), INDICES)


@pytest.mark.parametrize("x", [3, 3.0, 3j])
def test_asymptotic_Q_past_the_double_range_is_a_range_error(x):
    with pytest.raises(RangeError):
        asymptotic_Q(1000, x, P_B0)
    # x^646 is finite for x = 3, and its product with (-a/x; q)_inf > 1 is not
    with pytest.raises(RangeError):
        asymptotic_Q(646, abs(x), P_B0)


@pytest.mark.parametrize("x", ON_CUT + OFF_CUT)
def test_moment_pk_closed_is_finite_or_a_range_error(x):
    _finite_or_raise(lambda k: moment_pk_closed(k, x, P), INDICES)


@pytest.mark.parametrize("k,x", [(320, 5), (320, 5.0), (2000, 0.3)])
def test_moment_pk_closed_past_the_double_range_is_a_range_error(k, x):
    with pytest.raises(RangeError, match="leaves the double range"):
        moment_pk_closed(k, x, P)


@pytest.mark.parametrize("x", ON_CUT + OFF_CUT)
def test_moment_pk_integral_is_finite_or_a_range_error(x):
    _finite_or_raise(lambda k: moment_pk_integral(k, x, P), range(0, 2001, 5))


@pytest.mark.parametrize("x", ON_CUT + OFF_CUT)
def test_run_monic_is_finite_or_a_range_error(x):
    _finite_or_raise(lambda depth: run_monic(P, x, depth)[-1], (1, 10, 100, 500, 1000, 1130, 1500, 2000))


HUGE = Fraction(10**400)


def test_exact_routes_take_rationals_past_the_double_range():
    q, a, b, lam = Fraction(2, 5), HUGE, Fraction(-1, 4), Fraction(1, 5)
    p = Params(q, a, b, lam)
    family = hirschhorn_family(p)
    for x in (HUGE, Fraction(-(10**400), 7), Fraction(1)):
        seq = run_jfraction(family, x, 6)
        for n in range(7):
            forward = convergent(family, x, n)
            assert type(forward) in (int, Fraction)
            assert forward == backward_convergent(family, x, n)
            if n:
                assert forward == seq.N[n] / seq.D[n]
    seq = run_jfraction(family, Fraction(1), 6)
    for n in range(7):
        assert hirschhorn_closed(n, q, a, b, lam) == (seq.N[n], seq.D[n])


BAD = [math.nan, math.inf, -math.inf, complex(0.3, math.inf)]
FAMILY = hirschhorn_family(P)

# the sites whose check reads "x must be finite, got <x>"
X_SITES = {
    "run_jfraction": lambda x: run_jfraction(FAMILY, x, 5),
    "run_monic": lambda x: run_monic(P, x, 5),
    "convergent": lambda x: convergent(FAMILY, x, 5),
    "convergent-n0": lambda x: convergent(FAMILY, x, 0),
    "backward_convergent": lambda x: backward_convergent(FAMILY, x, 5),
    "backward_convergent-n0": lambda x: backward_convergent(FAMILY, x, 0),
    "rho_select": rho_select,
    "asymptotic_Q": lambda x: asymptotic_Q(5, x, P_B0),
    "stieltjes_b0": lambda x: stieltjes_b0(x, Params(0.4, 0.3, 0, -0.2)),
    "gf_radius": lambda x: gf_radius("D", x, P),
}


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf", "complex-inf"])
@pytest.mark.parametrize("site", X_SITES)
def test_nonfinite_x_is_a_domain_error_at_every_site(site, bad):
    with pytest.raises(DomainError) as info:
        X_SITES[site](bad)
    assert str(info.value) == f"x must be finite, got {bad!r}"


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf", "complex-inf"])
def test_nonfinite_params_and_weight_arguments_are_domain_errors(bad):
    for i, name in ((1, "a"), (2, "b"), (3, "lam")):
        args = [0.4, 0.3, -0.25, 0.2]
        args[i] = bad
        with pytest.raises(DomainError) as info:
            Params(*args)
        assert str(info.value) == f"Params require finite {name}, got {bad!r}"
    for args in ((bad, 0.5), (0.1, bad)):
        with pytest.raises(DomainError, match="weight_f requires finite arguments"):
            weight_f(*args, P)


# the float routes given a rational past the double range: x converts to a
# double once, and that conversion raises RangeError, not a bare OverflowError
PAST_RANGE_SITES = {
    "rho_select": rho_select,
    "stieltjes_transform": lambda x: stieltjes_transform(x, P),
    "gf_radius-D": lambda x: gf_radius("D", x, P),
    "gf_radius-D-b0": lambda x: gf_radius("D", x, P_B0),
    "gf_radius-P": lambda x: gf_radius("P", x, P),
    "moment_pk_integral": lambda x: moment_pk_integral(2, x, P),
    "stieltjes_b0": lambda x: stieltjes_b0(x, P_B0),
    "qintegral": lambda x: qintegral(lambda t: t, 0, x, 0.5),
    "weight_f": lambda x: weight_f(x, 0.3, P),
    # the recurrence routes on float levels, which would convert x at every level
    "run_jfraction": lambda x: run_jfraction(FAMILY, x, 5),
    "run_jfraction-b0": lambda x: run_jfraction(b0_family(P_B0), x, 5),
    "convergent": lambda x: convergent(FAMILY, x, 5),
    "backward_convergent": lambda x: backward_convergent(FAMILY, x, 5),
    "run_monic": lambda x: run_monic(P, x, 5),
    "monic_ratio": lambda x: monic_ratio(P, x, 5),
}


@pytest.mark.parametrize("x", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "-int", "fraction"])
@pytest.mark.parametrize("site", PAST_RANGE_SITES)
def test_a_rational_past_the_double_range_is_a_range_error_on_the_float_routes(site, x):
    with pytest.raises(RangeError, match="leaves the double range"):
        PAST_RANGE_SITES[site](x)


# the float q-series kernels and gf_eval, each naming the argument that meets a
# double: (site, argument named)
KERNEL_SITES = {
    "gf_eval": (lambda x: gf_eval("D", x, 0.3, P_B0), "t"),
    "theta": (lambda x: theta(x, 0.4), "z"),
    "qpochhammer_inf": (lambda x: qpochhammer_inf(x, 0.4), "a"),
    "phi-upper": (lambda x: phi((0.5, x), (0.25,), 0.4, 0.1), "a_2"),
    "phi-lower": (lambda x: phi((0.5,), (0.25, x), 0.4, 0.1), "b_2"),
    "phi-z": (lambda x: phi((0.5,), (0.25,), 0.4, x), "z"),
    "qpochhammer-a": (lambda x: qpochhammer(x, 0.4, 3), "a"),
    "qpochhammer-q": (lambda x: qpochhammer(0.5, x, 3), "q"),
}


@pytest.mark.parametrize("x", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "-int", "fraction"])
@pytest.mark.parametrize("site", KERNEL_SITES)
def test_a_rational_past_the_double_range_meeting_a_float_kernel_names_the_argument(site, x):
    call, argument = KERNEL_SITES[site]
    with pytest.raises(RangeError) as info:
        call(x)
    assert str(info.value) == f"{argument} leaves the double range"


def test_kernels_keep_a_rational_past_the_double_range_where_no_double_meets_it():
    x = Fraction(10**400, 3)
    # one factor multiplies a by q^0 only, so the product stays exact
    assert qpochhammer(x, 0.4, 1) == 1 - x
    assert qpochhammer(x, Fraction(2, 5), 3) == (1 - x) * (1 - x * Fraction(2, 5)) * (1 - x * Fraction(4, 25))


def test_rationals_inside_the_double_range_convert_as_before():
    for x in (Fraction(7, 3), 5, -(10**300)):
        assert rho_select(x) == rho_select(complex(x))
        assert stieltjes_transform(x, P) == stieltjes_transform(complex(x), P)


def test_exact_families_keep_rationals_past_the_double_range():
    # the same x on a family with rational constants stays exact
    p = Params(Fraction(2, 5), Fraction(3, 10), 0, Fraction(-1, 5))
    for x in (10**400, Fraction(10**400, 3)):
        for family in (hirschhorn_family(p), b0_family(p)):
            assert type(run_jfraction(family, x, 5).D[5]) is Fraction
            assert type(convergent(family, x, 5)) is Fraction
            assert backward_convergent(family, x, 5) == convergent(family, x, 5)
        assert type(stieltjes_b0(x, p)) is Fraction


def test_a_range_error_inside_a_range_guard_keeps_its_cause():
    # rho_select names x; the closed form's guard around it does not rename it
    for x in (10**400, Fraction(10**400, 3)):
        with pytest.raises(RangeError) as info:
            moment_pk_closed(2, x, P)
        assert str(info.value) == "x leaves the double range"


# the closed-form moment and the large-n form name x in their RangeError; a
# rational past the double range (or far inside it) has hundreds of digits
LONG_X = [10**400, -(10**400), Fraction(10**400, 3), 10**5000, Fraction(10**300, 7)]


@pytest.mark.parametrize("x", LONG_X, ids=["int", "-int", "fraction", "past-str-limit", "inside"])
@pytest.mark.parametrize(
    "site",
    [lambda x: moment_pk_closed(2, x, P), lambda x: asymptotic_Q(5, x, P_B0)],
    ids=["moment_pk_closed", "asymptotic_Q"],
)
def test_range_error_messages_stay_short_for_a_long_x(site, x):
    with pytest.raises(RangeError, match="leaves the double range") as info:
        site(x)
    assert len(str(info.value)) <= 100, str(info.value)
