import cmath
import math
import random

import pytest

from qfraclab.errors import DomainError, QFracError
from qfraclab.measure import rho_select
from qfraclab.moments import _jackson, _pk_closed_at, _weight, moment_pk_closed, moment_pk_integral, qintegral, weight_f
from qfraclab.qseries import qpochhammer_inf, theta
from qfraclab.recurrence import Params, monic_alpha, monic_beta, run_monic

P_STD = Params(0.4, 0.3, -0.25, 0.2)
THETA = math.acos(0.3)
# |lam q / b| = 0.45: the weight's products, formed afresh at each Jackson
# node, overflow at the 35th before the sum converges
P_SLOW_TAIL = Params(0.3, 0.5, -0.2, 0.3)


def _moment_draw(rng, r_lo, r_hi):
    """Monic Params with |lam q / b| in [r_lo, r_hi) and |lam q / 2bc| < 0.9."""
    while True:
        q, b, lam = rng.uniform(0.15, 0.7), rng.uniform(-0.6, -0.1), rng.uniform(-0.5, 0.5)
        c = rng.choice((-1, 1)) * rng.uniform(0.05, 0.4)
        p = Params(q, 2 * c * math.sqrt(-b), b, lam)
        try:
            p.require_monic()
        except DomainError:
            continue
        if r_lo <= abs(lam * q / b) < r_hi and abs(lam * q / (2 * b * c)) < 0.9:
            return p


class TestQIntegral:
    def test_equal_endpoints_cancel(self):
        assert qintegral(lambda t: t * t + 1, 0.7, 0.7, 0.5) == 0

    def test_monomial_geometric_series(self):
        # integral of t from 0 to 1 is 1/(1+q)
        for q in (0.5, 0.2, -0.4):
            val = qintegral(lambda t: t, 0.0, 1.0, q)
            assert val == pytest.approx(1 / (1 + q), rel=1e-14)

    def test_by_parts_identity_on_monomials(self):
        q = 0.5
        f = lambda t: t
        g = lambda t: t * t
        lhs = qintegral(lambda t: f(t) * g(q * t), 0.0, 1.0, q)
        rhs = qintegral(lambda t: g(t) * f(t / q), 0.0, 1.0, q) / q
        rhs += (1 - q) / q * (0.0 - 1.0 * g(1.0) * f(1.0 / q))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_linearity(self):
        q = 0.35
        rng = random.Random(23)
        f = lambda t: 0.3 * t**3 - t + 0.2
        g = lambda t: t * t - 0.4
        aa, bb = rng.uniform(-1, 1), rng.uniform(-1, 1)
        both = qintegral(lambda t: 2 * f(t) - 3 * g(t), aa, bb, q)
        sep = 2 * qintegral(f, aa, bb, q) - 3 * qintegral(g, aa, bb, q)
        assert both == pytest.approx(sep, abs=1e-13)

    def test_q_range(self):
        with pytest.raises(DomainError):
            qintegral(lambda t: t, 0.0, 1.0, 1.0)

    def test_nonconvergent_integrand_raises(self):
        from qfraclab.errors import TruncationError

        with pytest.raises(TruncationError):
            qintegral(lambda t: 1 / t**3, 0.0, 1.0, 0.5)


class TestWeight:
    def test_vanishes_just_outside_endpoints(self):
        t1 = cmath.exp(-1j * THETA) / 2
        t2 = cmath.exp(1j * THETA) / 2
        assert abs(weight_f(t1 / P_STD.q, THETA, P_STD)) < 1e-12
        assert abs(weight_f(t2 / P_STD.q, THETA, P_STD)) < 1e-12

    def test_functional_equation(self):
        x = math.cos(THETA)
        p = P_STD
        rng = random.Random(29)
        for _ in range(10):
            t = cmath.rect(rng.uniform(0.1, 0.8), rng.uniform(0, 2 * math.pi))
            lhs = weight_f(t, THETA, p) * (x - t - 1 / (4 * t))
            rhs = weight_f(t / p.q, THETA, p) * (p.c / p.q + p.lam / (4 * p.b * t))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs), abs(rhs))

    def test_theta_ratio_quasiperiodicity(self):
        # h(t) = <At>/<Bt> obeys h(t)/h(tq) = A/B = -b/lam
        p = P_STD
        A = -4 * p.b * p.c / p.lam
        B = 4 * p.c
        t = 0.37 + 0.21j
        h = lambda tt: theta(A * tt, p.q) / theta(B * tt, p.q)
        assert h(t) / h(t * p.q) == pytest.approx(A / B, rel=1e-12)
        assert A / B == pytest.approx(-p.b / p.lam, rel=1e-15)

    def test_matches_the_uncancelled_seven_product_formula(self):
        # the weight as first written, (At; q)_inf and (-4bct/lam; q)_inf both kept
        rng = random.Random(31)
        for p in (P_STD, Params(0.6, -0.7, -0.4, -0.3), Params(0.3, 1.1, -0.8, 0.5)):
            A, B = -4 * p.b * p.c / p.lam, 4 * p.c
            for _ in range(8):
                theta = rng.uniform(0.1, math.pi - 0.1)
                t = cmath.rect(rng.uniform(0.1, 0.9), rng.uniform(0, 2 * math.pi))
                e = cmath.exp(1j * theta)
                old = (
                    qpochhammer_inf(2 * p.q * e * t, p.q)
                    * qpochhammer_inf(2 * p.q * t / e, p.q)
                    * qpochhammer_inf(A * t, p.q)
                    * qpochhammer_inf(p.q / (A * t), p.q)
                    / (
                        qpochhammer_inf(-4 * p.b * p.c * t / p.lam, p.q)
                        * qpochhammer_inf(B * t, p.q)
                        * qpochhammer_inf(p.q / (B * t), p.q)
                    )
                )
                assert abs(weight_f(t, theta, p) - old) <= 1e-13 * max(1.0, abs(old))

    def test_zero_denominator_factor_rejected(self):
        # B t = 1 = q^0 zeroes the (Bt; q)_inf factor
        t = 1.0 / (4 * P_STD.c)
        with pytest.raises(DomainError):
            weight_f(t, THETA, P_STD)

    def test_zero_denominator_in_the_integral_is_a_domain_error(self):
        # c = 1 and x = 1.25 (w = 1/2 exactly) put the node t = w/2 on B t = 1
        with pytest.raises(DomainError, match="weight denominator"):
            moment_pk_integral(0, 1.25, Params(0.4, 1.0, -0.25, 0.2))
        # at x = +-1 the prefactor's (w^2; q)_inf vanishes
        for x in (1.0, -1.0):
            with pytest.raises(DomainError, match="x !="):
                moment_pk_integral(0, x, P_STD)

    def test_stepped_nodes_match_the_products_node_by_node(self):
        # the q-shift step against the products evaluated afresh at each node
        sets = (Params(0.5, 0.3, -0.25, 0.2), Params(0.6, -0.7, -0.4, -0.3), Params(0.7, 1.1, -0.8, 0.5))
        for p in sets:
            for x in (0.3, -0.62, 0.4 + 0.3j, -1.2 - 0.5j):  # on the cut and off it
                w = rho_select(x)
                nodes = _weight(w, p)
                for e in (w / 2, 1 / (2 * w)):
                    for n, stepped in zip(range(41), nodes(e)):
                        direct = next(nodes(e * p.q**n))
                        assert cmath.isfinite(direct)
                        assert abs(stepped - direct) <= 1e-12 * abs(direct), (p, x, e, n)

    def test_shared_products_match_fifteen_formed_afresh(self):
        # the prefactor's five products and each endpoint's five, none shared
        rng = random.Random(12)
        worst = 0.0
        for _ in range(60):
            p = _moment_draw(rng, 0.0, 0.9)
            x = rng.choice((rng.uniform(-0.95, 0.95), complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1))))
            k = rng.randint(0, 12)
            w = rho_select(x)
            W = 1 / w
            q, c = p.q, p.c
            pre = (
                4 * (-1j * (W - w) / 2j) / (1 - q)
                * qpochhammer_inf(2 * c * W, q) * qpochhammer_inf(2 * c * w, q)
                / (qpochhammer_inf(q, q) * qpochhammer_inf(W * W, q) * qpochhammer_inf(w * w, q))
            )
            nodes = _weight(w, p)
            upper, lower = _jackson(W / 2, q, nodes(W / 2), k), _jackson(w / 2, q, nodes(w / 2), k)
            scale = abs(pre) * (abs(upper) + abs(lower))
            worst = max(worst, abs(moment_pk_integral(k, x, p) - pre * (upper - lower)) / scale)
        assert worst <= 1e-14

    def test_vanishing_step_denominator_is_a_domain_error(self):
        # u = 2qw = 1 at q = 1/2, w = 1: from e = 2 the second node t = 1 has 1 - ut = 0
        nodes = _weight(1.0, Params(0.5, 0.3, -0.25, 0.2))
        with pytest.raises(DomainError, match="weight denominator"):
            for _ in zip(range(3), nodes(2.0)):
                pass

    def test_requires_nonzero_a_lam_t(self):
        with pytest.raises(DomainError):
            weight_f(0.3, THETA, Params(0.4, 0.0, -0.25, 0.2))
        with pytest.raises(DomainError):
            weight_f(0.3, THETA, Params(0.4, 0.3, -0.25, 0.0))
        with pytest.raises(DomainError):
            weight_f(0.0, THETA, P_STD)


class TestMomentSolutions:
    def test_integral_form_recurrence_residual(self):
        x = 0.3
        pk = [moment_pk_integral(k, x, P_STD) for k in range(17)]
        for k in range(1, 16):
            res = x * pk[k] - pk[k + 1] - monic_alpha(P_STD, k) * pk[k] - monic_beta(P_STD, k) * pk[k - 1]
            assert abs(res) < 1e-10

    def test_closed_form_recurrence_residual(self):
        x = 0.3
        pk = [moment_pk_closed(k, x, P_STD) for k in range(12)]
        for k in range(1, 11):
            res = x * pk[k] - pk[k + 1] - monic_alpha(P_STD, k) * pk[k] - monic_beta(P_STD, k) * pk[k - 1]
            assert abs(res) < 1e-10

    def test_integral_equals_closed(self):
        x = 0.3
        for k in range(16):
            assert abs(moment_pk_closed(k, x, P_STD) - moment_pk_integral(k, x, P_STD)) < 1e-10

    def test_branches_agree_for_real_x(self):
        # on the cut the stated lower-branch form sits at the mirror root 1/s
        for x in (0.3, -0.62, 0.9):
            s = rho_select(x)
            up = _pk_closed_at(6, s, P_STD)
            lo = _pk_closed_at(6, 1 / s, P_STD)
            assert up == moment_pk_closed(6, x, P_STD)
            assert abs(up - lo) < 1e-12

    def test_branch_values_conjugate_off_axis(self):
        up = moment_pk_closed(3, 0.3 + 0.2j, P_STD)
        lo = moment_pk_closed(3, 0.3 - 0.2j, P_STD)
        assert up == pytest.approx(lo.conjugate(), rel=1e-12)

    def test_b_equals_minus_lam_specialization(self):
        p = Params(0.4, 0.3, -0.2, 0.2)
        x = 0.3
        p0 = moment_pk_closed(0, x, p)
        p1 = moment_pk_closed(1, x, p)
        assert p0 == pytest.approx(1.0, rel=1e-13)
        assert p1 / p0 == pytest.approx(x - p.c, rel=1e-12)
        Pk = run_monic(p, x, 10, "P")
        for k in range(11):
            assert abs(moment_pk_closed(k, x, p) / p0 - Pk[k]) < 1e-10
        # the q-integral route satisfies the same specialization
        i0 = moment_pk_integral(0, x, p)
        for k in range(6):
            assert abs(moment_pk_integral(k, x, p) / i0 - Pk[k]) < 1e-10

    def test_parameter_guards(self):
        with pytest.raises(DomainError):
            moment_pk_closed(2, 0.3, Params(0.4, 0.0, -0.25, 0.2))  # c = 0
        with pytest.raises(DomainError):
            moment_pk_closed(2, 0.3, Params(0.5, 0.05, -0.5, 0.5))  # |lam q/2bc| >= 1
        with pytest.raises(DomainError):
            moment_pk_integral(2, 0.3, Params(0.5, 0.3, -0.2, -0.5))  # |lam q/b| >= 1, betas fine
        with pytest.raises(DomainError):
            moment_pk_closed(-1, 0.3, P_STD)

    def test_slow_tail_matches_closed(self):
        x = 0.3
        assert abs(moment_pk_integral(0, x, P_SLOW_TAIL) - moment_pk_closed(0, x, P_SLOW_TAIL)) < 1e-10

    def test_slow_tail_sweep_matches_closed(self):
        # |lam q / b| in [0.3, 0.95): the Jackson sum needs hundreds of nodes,
        # far past where products formed at each node overflow
        rng = random.Random(41)
        for _ in range(120):
            p, x = _moment_draw(rng, 0.3, 0.95), rng.uniform(-0.9, 0.9)
            assert abs(moment_pk_integral(0, x, p) - moment_pk_closed(0, x, p)) < 1e-10, (p, x)

    def test_integral_is_finite_or_raises(self):
        rng = random.Random(43)
        for _ in range(300):
            p = Params(rng.choice((-1, 1)) * rng.uniform(0.05, 0.9), rng.uniform(-3, 3), rng.uniform(-3, 0.5), rng.uniform(-2, 2))
            mag = 10 ** rng.uniform(-3, rng.choice((1, 3, 30, 200)))
            x = rng.choice((mag, -mag, complex(mag, rng.uniform(-mag, mag)), rng.uniform(-1, 1)))
            try:
                value = moment_pk_integral(rng.randint(0, 40), x, p)
            except QFracError:
                continue
            assert cmath.isfinite(value), (p, x)
