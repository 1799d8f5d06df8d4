"""Precision follows the scalar type: with mpmath parameters and x, the
forward loop and the monic constants keep the working precision and test
finiteness in mpmath's own arithmetic, while float parameters keep
``math.sqrt``.  An mpmath value has no double range: a rational x past it
meets mpmath parameters as an mpf x does.  (An mpmath NaN or infinity is a
DomainError, and an mpc field is refused, in ``test_finiteness.py`` and
``test_recurrence.py``.)"""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from qfraclab.asymptotics import asymptotic_Q
from qfraclab.errors import RangeError
from qfraclab.qseries import _within_range
from qfraclab.recurrence import Params, monic_family, monic_ratio, run_jfraction, run_monic

# the acceptance set, and one whose sqrt(-b) is not exact in double precision
PARAM_SETS = [("0.4", "0.3", "-0.25", "0.2"), ("0.4", "0.3", "-0.3", "0.2")]
POINTS = ["0.3", "2", "-1.7", ("1.2", "0.5")]
DEPTH = 60


def _mp_point(x):
    return mpc(*x) if isinstance(x, tuple) else mpf(x)


def _routes(args, x, dps):
    """Every value the three routes give at ``dps`` digits, decimal inputs read at that precision."""
    with mp.workdps(dps):
        p = Params(*map(mpf, args))
        xm = _mp_point(x)
        seq = run_jfraction(monic_family(p), xm, DEPTH)
        return [*run_monic(p, xm, DEPTH), *seq.N[1:], *seq.D[1:], monic_ratio(p, xm, DEPTH), p.c, p.gamma]


@pytest.mark.parametrize("x", POINTS, ids=str)
@pytest.mark.parametrize("args", PARAM_SETS, ids=lambda a: f"b={a[2]}")
def test_mpmath_runs_at_30_digits_agree_with_60_digits(args, x):
    low, high = _routes(args, x, 30), _routes(args, x, 60)
    with mp.workdps(60):
        # an entry that is 0 at 60 digits (P_1 = x - c at x = c = 0.3) is compared absolutely
        errs = [abs(u - v) / abs(v) if v else abs(u) for u, v in zip(low, high)]
    assert len(errs) == 3 * DEPTH + 4 and max(errs) < 1e-27


def test_c_and_gamma_take_the_square_root_at_the_working_precision():
    with mp.workdps(50):
        p = Params(mpf("0.4"), mpf("0.3"), mpf("-0.3"), mpf("0.2"))
        root = mp.sqrt(mpf("0.3"))
        assert p.c == mpf("0.3") / (2 * root)
        assert p.gamma == -2 * root / (1 - mpf("-0.3"))
        # P_20 at 50 digits equals the recurrence stepped here with that c
        x = mpf("0.3")
        P = [mpf(1), x - p.c]
        for k in range(1, 20):
            P.append((x - p.c * p.q**k) * P[k] - (1 + p.lam / p.b * p.q**k) / 4 * P[k - 1])
        assert abs(run_monic(p, x, 20)[20] / P[20] - 1) < mpf(10) ** -45


def test_float_parameters_keep_math_sqrt():
    p = Params(0.4, 0.3, -0.3, 0.2)
    assert p.c == 0.3 / (2.0 * math.sqrt(0.3)) and type(p.c) is float
    assert p.gamma == -2.0 * math.sqrt(0.3) / 1.3


def test_an_mpmath_run_has_no_double_range():
    with mp.workdps(30):
        p = Params(mpf("0.4"), mpf("0.3"), mpf("-0.25"), mpf("0.2"))
        P = run_monic(p, mpf(2), 1200)
        assert P[1200] == run_jfraction(monic_family(p), mpf(2), 1200).D[1200]
        assert mpf("1e325") < P[1200] < mpf("1.1e325")
        big = run_monic(p, mpf("1e400"), 3)
        assert big[3] > mpf("1e1199") and mp.isfinite(big[3])
        assert mp.isfinite(monic_ratio(p, mpf("1e400"), 3))


def test_a_rational_x_past_the_double_range_meets_mpmath_parameters_as_an_mpf_x_does():
    with mp.workdps(30):
        p = Params(mpf("0.4"), mpf("0.3"), mpf("-0.25"), mpf("0.2"))
        exact_x = run_monic(p, Fraction(10**400, 3), 3)[3]
        mp_x = run_monic(p, mpf(10) ** 400 / 3, 3)[3]
        assert mp_x > mpf("3.7e1198") and abs(exact_x / mp_x - 1) < 1e-27


def test_a_large_mpmath_value_is_inside_its_own_range():
    with mp.workdps(30):
        pm = Params(mpf("0.4"), mpf("0.3"), 0, mpf("-0.5"))
        scaled = asymptotic_Q(300, mpf(20), pm) / mpf(20) ** 300
    assert abs(scaled / asymptotic_Q(0, 20.0, Params(0.4, 0.3, 0, -0.5)) - 1) < 1e-13


def test_an_mpmath_infinity_still_leaves_the_range():
    with pytest.raises(RangeError, match="v leaves the double range"):
        _within_range("v", lambda: mpf("inf"))
    with pytest.raises(RangeError, match="v leaves the double range"):
        _within_range("v", lambda: mpc(0, "-inf"))
