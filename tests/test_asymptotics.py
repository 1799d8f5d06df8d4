import math
from fractions import Fraction

import pytest

from qfraclab.asymptotics import (
    asymptotic_P,
    asymptotic_Q,
    asymptotic_Qstar,
    b0_support_bound,
    stieltjes_b0,
)
from qfraclab.cfrac import backward_convergent
from qfraclab.errors import DomainError
from qfraclab.recurrence import Params, b0_family, run_jfraction, run_monic
from qfraclab.verify import _mp_asym_residuals

P_STD = Params(0.4, 0.3, -0.25, 0.2)
P_B0 = Params(0.4, 0.3, 0.0, -0.5)


class TestAsymptoticP:
    def test_output_real(self):
        val = asymptotic_P(12, 0.3, P_STD)
        assert isinstance(val, float)

    def test_residual_already_small_at_k25(self):
        x = 0.3
        e25 = abs(run_monic(P_STD, x, 25)[25] - asymptotic_P(25, x, P_STD)) * 2**25
        assert e25 < 1e-8

    def test_residual_smaller_at_100_than_50(self):
        # both residuals sit below double noise; resolved by the oracle
        r50, r100 = _mp_asym_residuals(P_STD, 0.3, (50, 100), dps=90)
        assert r100 < r50
        assert r100 < 1e-30

    def test_c_zero_parity_pattern(self):
        p = Params(0.4, 0.0, -0.25, 0.2)
        k = 7
        # at x = 0 (theta = pi/2) the m = 0 form is sin((k+1) pi/2) / 2^k
        val = asymptotic_P(k, 0.0, p)
        assert val == pytest.approx(math.sin((k + 1) * math.pi / 2) / 2**k, abs=1e-15)
        # parity: P_k(0) vanishes for odd k, and the approximation does too
        assert asymptotic_P(5, 0.0, p) == pytest.approx(0.0, abs=1e-15)
        assert run_monic(p, 0.0, 5)[5] == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            asymptotic_P(5, 1.0, P_STD)


class TestAsymptoticB0:
    def test_ratio_near_one_at_n80(self):
        seq = run_jfraction(b0_family(P_B0), 3.0, 80)
        assert seq.D[80] / asymptotic_Q(80, 3.0, P_B0) == pytest.approx(1.0, abs=1e-8)
        assert seq.N[80] / asymptotic_Qstar(80, 3.0, P_B0) == pytest.approx(1.0, abs=1e-8)

    def test_ratio_error_decreases_where_visible(self):
        seq = run_jfraction(b0_family(P_B0), 3.0, 40)
        errs = [abs(seq.D[n] / asymptotic_Q(n, 3.0, P_B0) - 1) for n in (10, 15, 20, 25)]
        assert all(errs[i + 1] < errs[i] for i in range(3))

    def test_lambda_zero_is_pure_product(self):
        q, a = 0.4, 0.3
        p = Params(q, a, 0.0, 0.0)
        x = 3.0
        n = 30
        seq = run_jfraction(b0_family(p), x, n)
        prod = 1.0
        for j in range(n):
            prod *= x + a * q**j
        assert seq.D[n] == pytest.approx(prod, rel=1e-13)
        # the asymptotic form is the full infinite product; ratio -> 1 fast
        assert seq.D[n] / asymptotic_Q(n, x, p) == pytest.approx(1.0, abs=1e-10)

    def test_requires_b_zero_and_x_nonzero(self):
        with pytest.raises(DomainError):
            asymptotic_Q(10, 3.0, P_STD)
        with pytest.raises(DomainError):
            asymptotic_Q(10, 0.0, P_B0)

    def test_q_inverse_power_lower_parameter_rejected(self):
        # x = -a makes the 0phi1 lower parameter equal 1 = q^0
        with pytest.raises(DomainError):
            asymptotic_Q(10, -0.3, P_B0)


class TestStieltjesB0:
    def test_support_bound_value(self):
        assert b0_support_bound(P_B0) == pytest.approx(2 * (0.3 + 2 * math.sqrt(0.5 * 0.4)))

    def test_matches_markov_ratio(self):
        seq = run_jfraction(b0_family(P_B0), 3.0, 200)
        assert stieltjes_b0(3.0, P_B0) == pytest.approx(seq.N[200] / seq.D[200], abs=1e-10)

    def test_total_mass_limit(self):
        x = 1e7
        assert stieltjes_b0(x, P_B0) * x == pytest.approx(1.0, abs=1e-6)

    def test_lambda_zero_closed_form(self):
        p = Params(0.4, 0.3, 0.0, -1e-15)
        x = 5.0
        assert stieltjes_b0(x, p) == pytest.approx(1 / (x + p.a), rel=1e-12)

    def test_exclusion_zone_enforced(self):
        with pytest.raises(DomainError):
            stieltjes_b0(1.0, P_B0)

    @pytest.mark.parametrize("x", [1.0, -2.0, complex(1.0), 0.0, Fraction(1), -Fraction(7, 3)])
    def test_exclusion_zone_applies_to_every_real_x(self, x):
        # a complex with zero imaginary part is real; a Fraction's message formats as a float's
        with pytest.raises(DomainError, match=r"^\|x\| = [0-9.]+ is inside the support exclusion radius 2\.38885$"):
            stieltjes_b0(x, P_B0)

    @pytest.mark.parametrize(
        "x",
        [1.5 + 0.5j, 0.05 + 0.02j, 0.3 - 2j, 2.0 + 1e-9j, -1.0 + 0.5j, 0.005 + 0.005j, -0.01 + 0.003j, 1e-3j,
         0.001 + 0.0001j, 1e-8 + 1e-8j],
    )
    def test_non_real_x_is_off_the_support_at_any_modulus(self, x):
        # inside the radius too: the 0phi1 ratio is the b = 0 fraction's Markov limit there
        value = stieltjes_b0(x, P_B0)
        assert abs(value - backward_convergent(b0_family(P_B0), x, 400)) <= 1e-13 * abs(value)
        assert stieltjes_b0(x.conjugate(), P_B0) == value.conjugate()

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite(self, x):
        with pytest.raises(DomainError, match="finite"):
            stieltjes_b0(x, P_B0)

    def test_requires_negative_lambda_and_positive_q(self):
        with pytest.raises(DomainError):
            stieltjes_b0(3.0, Params(0.4, 0.3, 0.0, 0.5))
        with pytest.raises(DomainError):
            stieltjes_b0(3.0, Params(-0.4, 0.3, 0.0, -0.5))
