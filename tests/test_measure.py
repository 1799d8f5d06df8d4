import cmath
import math
import random

import numpy as np
import pytest

from qfraclab import measure
from qfraclab.errors import DomainError, PoleError, TruncationError
from qfraclab.measure import (
    _X,
    density_inversion,
    density_nevai,
    gram_matrix,
    norm_squared,
    rho_select,
    series_F,
    series_G,
    series_R,
    stieltjes_transform,
)
from qfraclab.qseries import qpochhammer, qpochhammer_inf
from qfraclab.recurrence import Params, monic_beta, monic_ratio, run_monic
from qfraclab.verify import _mp_fg, _mp_markov_errors, _mp_rho, _mp_series_R

P_STD = Params(0.4, 0.3, -0.25, 0.2)


class TestRhoSelect:
    def test_endpoints(self):
        assert rho_select(1.0) == 1
        assert rho_select(-1.0) == -1

    def test_real_axis_outside(self):
        assert rho_select(2.0) == pytest.approx(2 - math.sqrt(3), rel=1e-14)
        assert rho_select(-2.0) == pytest.approx(-2 + math.sqrt(3), rel=1e-14)

    def test_cut_gives_upper_half_limit(self):
        x = 0.3
        theta = math.acos(x)
        r = rho_select(x)
        assert r == pytest.approx(cmath.exp(-1j * theta), rel=1e-14)
        assert 1 / r == pytest.approx(cmath.exp(1j * theta), rel=1e-14)

    def test_imaginary_axis(self):
        y = 0.8
        x = 1j * y
        r = rho_select(x)
        assert abs(r) < 1
        assert r == pytest.approx(x - cmath.sqrt(x * x - 1), rel=1e-13)

    def test_root_of_quadratic_with_modulus_at_most_one(self):
        rng = random.Random(11)
        for _ in range(20):
            x = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
            if abs(x.imag) < 1e-3:
                x += 0.5j
            r = rho_select(x)
            assert isinstance(r, complex)
            assert abs(r * r - 2 * x * r + 1) <= 1e-14 * max(1.0, abs(2 * x * r))
            assert r + 1 / r == pytest.approx(2 * x, rel=1e-13)
            assert abs(r) <= 1 + 1e-15

    def test_signed_zero_imaginary_part(self):
        # x - 1 and x + 1 would carry opposite zero signs into the two square roots
        for x in (-2.0, -1.0, 0.3, 2.0):
            assert rho_select(complex(x, -0.0)) == rho_select(x)
        assert stieltjes_transform(complex(-2.0, -0.0), P_STD) == stieltjes_transform(-2.0, P_STD)

    def test_large_x_stability(self):
        # rho = 1/(x + sqrt(x^2-1)) ~ 1/(2x): no cancellation
        assert rho_select(1e6) == pytest.approx(1 / (1e6 + math.sqrt(1e12 - 1)), rel=1e-15)


def _fg_verbatim(rho, p, nterms, shift):
    """Direct partial sum of the F/G series straight from the definition."""
    total = 0j
    for m in range(nterms):
        total += (
            qpochhammer(-p.lam * p.q * rho / (2 * p.b * p.c), p.q, m)
            / (qpochhammer(p.q, p.q, m) * qpochhammer(p.q * rho * rho, p.q, m))
            * (-2 * p.c * rho) ** m
            * p.q ** ((m + shift) * (m + shift - 1) // 2)
        )
    return total


def _abs_term_sum(rho, p, shift):
    """sum_m |t_m| of the F (shift=1) or G (shift=0) series, from the product form."""
    q, r, c = p.q, p.lam / p.b, p.c
    rho2 = rho * rho
    t = s = qm = 1.0
    for _ in range(400):
        qn = qm * q
        t *= abs(-2 * c * rho - r * qn * rho2) * abs(qn if shift else qm) / abs((1 - qn) * (1 - qn * rho2))
        s += t
        qm = qn
    return s


def _monic_draws(rng, n):
    """n monic Params with q in +-[0.1, 0.85]; every other one has |c| in [1, 2], the point-mass class."""
    draws = 0
    while draws < n:
        q = rng.choice((-1, 1)) * rng.uniform(0.1, 0.85)
        b = rng.uniform(-0.8, -0.1)
        c = rng.choice((-1, 1)) * (rng.uniform(1, 2) if draws % 2 else rng.uniform(0.05, 1))
        p = Params(q, 2 * c * math.sqrt(-b), b, rng.uniform(-0.5, 0.5))
        try:
            p.require_monic()
        except DomainError:
            continue
        draws += 1
        yield p


class TestSeriesFG:
    def test_c_zero_convention(self):
        p = Params(0.4, 0.0, -0.25, 0.2)
        assert series_F(0.3 + 0.1j, p) == 1
        assert series_G(0.3 + 0.1j, p) == 1

    def test_verbatim_partial_sum_oracle(self):
        rho = rho_select(2.0)
        f100 = _fg_verbatim(rho, P_STD, 100, 1)
        f200 = _fg_verbatim(rho, P_STD, 200, 1)
        g100 = _fg_verbatim(rho, P_STD, 100, 0)
        g200 = _fg_verbatim(rho, P_STD, 200, 0)
        assert abs(f100 - f200) < 1e-14
        assert abs(g100 - g200) < 1e-14
        assert series_F(rho, P_STD) == pytest.approx(f200, rel=1e-13)
        assert series_G(rho, P_STD) == pytest.approx(g200, rel=1e-13)

    def test_rho_squared_on_q_grid_rejected(self):
        # rho^2 = q^{-1} zeroes a (q rho^2; q)_m factor
        rho = P_STD.q**-0.5
        with pytest.raises(DomainError):
            series_F(rho, P_STD)
        with pytest.raises(DomainError):
            series_G(rho, P_STD)

    def test_matches_the_oracle_over_wide_draws(self):
        # F, G and X = 2 rho F/G against the 40-digit oracle, on the unit
        # circle and inside the disc (rho of real |x| > 1 and of complex x),
        # over negative q, |q| up to 0.85 and the point-mass class |c| in [1, 2].
        # The gate is 1e-12 relative, or 1e-14 * sum_m |t_m| where the terms
        # cancel: no double-precision sum of the terms can beat a few eps
        # times that (at |c| near 2 and |q| > 0.7 the terms reach 1e7 |G|).
        from mpmath import mp

        rng = random.Random(31)
        for p in _monic_draws(rng, 120):
            theta = rng.uniform(0.05, math.pi - 0.05)
            xr = rng.choice((-1, 1)) * rng.uniform(1.05, 3)
            xc = complex(rng.uniform(-2, 2), rng.choice((-1, 1)) * rng.uniform(0.1, 1.5))
            with mp.workdps(40):
                mq, mb, mlam = mp.mpf(p.q), mp.mpf(p.b), mp.mpf(p.lam)
                mc = mp.mpf(p.a) / (2 * mp.sqrt(-mb))
                points = (
                    (cmath.exp(1j * theta), mp.expj(mp.mpf(theta))),
                    (rho_select(xr), _mp_rho(mp.mpf(xr))),
                    (rho_select(xc), _mp_rho(mp.mpc(xc))),
                )
                for rho, mrho in points:
                    F, G = _mp_fg(mrho, mq, mb, mlam, mc, 1), _mp_fg(mrho, mq, mb, mlam, mc, 0)
                    X = complex(2 * mrho * F / G)
                    F, G = complex(F), complex(G)
                    tol_f = max(1e-12, 1e-14 * _abs_term_sum(rho, p, 1) / abs(F))
                    tol_g = max(1e-12, 1e-14 * _abs_term_sum(rho, p, 0) / abs(G))
                    assert abs(series_F(rho, p) - F) <= tol_f * abs(F), (p, rho)
                    assert abs(series_G(rho, p) - G) <= tol_g * abs(G), (p, rho)
                    assert abs(_X(rho, p) - X) <= (tol_f + tol_g) * abs(X), (p, rho)


class TestSeriesR:
    def test_c_zero_value(self):
        p = Params(0.4, 0.0, -0.25, 0.2)
        theta = 1.1
        assert series_R(theta, p) == pytest.approx(-1 / (1j * math.sin(theta)), rel=1e-15)

    def test_theta_domain(self):
        with pytest.raises(DomainError):
            series_R(0.0, P_STD)
        with pytest.raises(DomainError):
            series_R(math.pi, P_STD)

    def test_matches_the_certified_oracle(self):
        # the fixed truncation policy against the 80-digit oracle, whose tail
        # is certified by a term-ratio bound, at theta = pi i / 20
        from mpmath import mp

        sets = [
            P_STD,
            Params(0.7, -0.5, -0.6, 0.3),
            Params(0.2, 1.0, -0.5, -0.4),
            Params(0.85, 0.1, -0.9, 0.5),
            Params(-0.5, 0.6, -0.3, 0.1),
        ]
        for p in sets:
            with mp.workdps(80):
                q, b, lam = mp.mpf(p.q), mp.mpf(p.b), mp.mpf(p.lam)
                c = mp.mpf(p.a) / (2 * mp.sqrt(-b))
                for i in range(1, 20):
                    theta = math.pi * i / 20
                    ref = complex(_mp_series_R(mp.mpf(theta), q, b, lam, c))
                    assert abs(series_R(theta, p) - ref) <= 1e-13 * abs(ref), (p, i)

    def test_matches_the_oracle_over_wide_draws(self):
        # R is evaluated through G on the unit circle; the oracle sums the
        # verbatim R series at 80 digits.  Modulus and phase are both checked.
        from mpmath import mp

        rng = random.Random(29)
        draws = 0
        while draws < 120:
            q = rng.choice((-1, 1)) * rng.uniform(0.1, 0.8)
            p = Params(q, rng.uniform(-1, 1), rng.uniform(-0.8, -0.1), rng.uniform(-0.5, 0.5))
            try:
                p.require_monic()
            except DomainError:
                continue
            draws += 1
            theta = rng.uniform(0.05, math.pi - 0.05)
            with mp.workdps(80):
                b = mp.mpf(p.b)
                c = mp.mpf(p.a) / (2 * mp.sqrt(-b))
                ref = complex(_mp_series_R(mp.mpf(theta), mp.mpf(p.q), b, mp.mpf(p.lam), c))
            assert abs(series_R(theta, p) - ref) <= 1e-12 * abs(ref), (p, theta)


class TestDensities:
    def test_nevai_c_zero_closed_form(self):
        p = Params(0.4, 0.0, -0.25, 0.2)
        x = 0.4
        expected = 2 / math.pi * qpochhammer_inf(-p.lam * p.q / p.b, p.q) * math.sqrt(1 - x * x)
        assert density_nevai(x, p) == pytest.approx(expected, rel=1e-13)

    def test_semicircle_when_a_and_lam_vanish(self):
        p = Params(0.4, 0.0, -0.25, 0.0)
        for x in (-0.5, 0.0, 0.7):
            expected = 2 / math.pi * math.sqrt(1 - x * x)
            assert density_nevai(x, p) == pytest.approx(expected, rel=1e-13)
            assert density_inversion(x, p) == pytest.approx(expected, rel=1e-13)

    def test_inversion_c_zero_verbatim_value(self):
        # with the verbatim m = 0 convention F = G = 1, the jump is (2/pi) sin theta;
        # it matches the phase-amplitude route only when lam = 0 (see ledger)
        p = Params(0.4, 0.0, -0.25, 0.2)
        x = 0.4
        assert density_inversion(x, p) == pytest.approx(
            2 / math.pi * math.sqrt(1 - x * x), rel=1e-13
        )

    def test_cross_method_agreement_at_zero(self):
        dn, di = density_nevai(0.0, P_STD), density_inversion(0.0, P_STD)
        assert type(dn) is float and type(di) is float
        assert dn == pytest.approx(di, abs=1e-8)

    def test_cross_method_agreement_on_grid(self):
        for x in np.linspace(-0.95, 0.95, 21):
            dn = density_nevai(float(x), P_STD)
            di = density_inversion(float(x), P_STD)
            assert abs(dn - di) < 1e-8

    def test_imaginary_residual_small(self):
        # the two-sided jump of X across the cut is real, because the parameters
        # are real and so X(conj rho) = conj X(rho); density_inversion rests on
        # that and evaluates X above the cut only, as Im X(e^{i theta}) / pi
        for x in (-0.8, -0.2, 0.1, 0.6, 0.9):
            theta = math.acos(x)
            jump = _X(cmath.exp(1j * theta), P_STD) - _X(cmath.exp(-1j * theta), P_STD)
            assert abs((jump / (2 * math.pi * 1j)).imag) < 1e-12
        rng = random.Random(37)
        for p in _monic_draws(rng, 200):
            x = rng.uniform(-0.99, 0.99)
            theta = math.acos(x)
            above, below = _X(cmath.exp(1j * theta), p), _X(cmath.exp(-1j * theta), p)
            # IEEE complex arithmetic commutes with conjugation term by term, so exactly
            assert below == above.conjugate(), (p, x)
            two_sided = ((above - below) / (2 * math.pi * 1j)).real
            assert abs(density_inversion(x, p) - two_sided) <= 1e-15 * abs(two_sided), (p, x)

    def test_density_nonnegative(self):
        for x in np.linspace(-0.99, 0.99, 40):
            assert density_inversion(float(x), P_STD) >= -1e-12

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            density_nevai(1.0, P_STD)
        with pytest.raises(DomainError):
            density_inversion(-1.2, P_STD)


class TestStieltjes:
    def test_total_mass_limit(self):
        X = stieltjes_transform(1e6, P_STD)
        # X = 1/x + m1/x^2 + O(x^-3) with first moment m1 = c
        assert abs(X - 1e-6) < 1e-9
        assert X * 1e6 == pytest.approx(1 + P_STD.c * 1e-6, rel=1e-9)

    def test_markov_limit_oracle(self):
        X = stieltjes_transform(2.0, P_STD)
        assert abs(monic_ratio(P_STD, 2.0, 200) - X) < 1e-10

    def test_conjugate_symmetry(self):
        rng = random.Random(17)
        for _ in range(20):
            x = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.2, 2))
            lhs = stieltjes_transform(x.conjugate(), P_STD)
            rhs = stieltjes_transform(x, P_STD).conjugate()
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_cut(self):
        with pytest.raises(DomainError):
            stieltjes_transform(0.2, P_STD)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, complex("inf"), complex(2.0, math.nan)])
    def test_rejects_nonfinite(self, x):
        with pytest.raises(DomainError, match="finite"):
            stieltjes_transform(x, P_STD)

    def test_markov_error_strictly_decreasing(self):
        # sub-double-precision decay: checked by the extended-precision oracle
        for x in (2.0, -2.0, 1.2 + 0.5j):
            errs, X_mp = _mp_markov_errors(P_STD, x, (50, 100, 200, 300), dps=460)
            # at x = +-2 the k = 300 errors are near 1e-344, below the double range
            assert all(e > 0 for e in errs)
            assert all(errs[i + 1] < errs[i] for i in range(3))
            assert errs[-1] < 1e-9
            assert stieltjes_transform(x, P_STD) == pytest.approx(X_mp, rel=1e-12)


class TestOrthogonality:
    def test_norm_squared_values(self):
        p = P_STD
        assert norm_squared(0, p) == 1
        assert norm_squared(1, p) == pytest.approx(monic_beta(p, 1), rel=1e-15)
        prod = 1.0
        for k in range(1, 6):
            prod *= monic_beta(p, k)
        assert norm_squared(5, p) == pytest.approx(prod, rel=1e-13)

    def test_gram_matrix_structure(self):
        g = gram_matrix(P_STD, 5)
        assert g[0][0] <= 1 + 1e-6
        assert abs(g[0][0] - 1) < 1e-6  # no discrete mass at these parameters
        for n in range(6):
            for m in range(6):
                if n == m:
                    assert abs(g[n][n] - norm_squared(n, P_STD)) < 1e-6
                else:
                    assert abs(g[n][m]) < 1e-6

    def test_gram_near_vanishing_beta1(self):
        # beta_1 ~ 0.0025: the weight is so sharply peaked that a fixed
        # 512-node rule misses G by 6.9e-3; the adaptive rule must resolve it
        p = Params(0.4009129322157772, -0.1832346286622913, -0.18001610974372928, 0.4446810951079374)
        g = gram_matrix(p, 5)
        for n in range(6):
            for m in range(6):
                expected = norm_squared(n, p) if n == m else 0.0
                assert abs(g[n][m] - expected) <= 1e-12

    def test_single_integral_matches_gram(self):
        g = gram_matrix(P_STD, 2)
        assert g[1][0] == pytest.approx(0.0, abs=1e-6)
        assert g[2][2] == pytest.approx(
            norm_squared(2, P_STD), abs=1e-6
        )

    def test_mass_deficit_detected_for_verbatim_c_zero(self):
        # a = 0, lam != 0 under the verbatim convention loses exactly
        # 1 - (-lam q/b; q)_inf of total mass
        p = Params(0.4, 0.0, -0.25, 0.2)
        g = gram_matrix(p, 0)
        expected = qpochhammer_inf(-p.lam * p.q / p.b, p.q)
        assert g[0][0] == pytest.approx(expected, rel=1e-10)
        assert 1 - g[0][0] > 1e-6  # the deficit gate would trip here

    def test_node_cap_raises(self, monkeypatch):
        # P_STD settles at 64 nodes; a cap at the first level leaves no room to double
        monkeypatch.setattr(measure, "_GRAM_MAX_NODES", measure._GRAM_START_NODES)
        with pytest.raises(TruncationError):
            gram_matrix(P_STD, 2)
