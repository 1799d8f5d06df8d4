import random
from fractions import Fraction
from itertools import islice

import pytest

from qfraclab.cfrac import backward_convergent, convergent, eval_backward, hirschhorn_cf
from qfraclab.errors import DomainError, PoleError
from qfraclab.recurrence import (
    JFamily,
    Params,
    _levels,
    b0_family,
    entry16_family,
    hirschhorn_family,
    monic_family,
    run_jfraction,
)

P_STD = Params(0.4, 0.3, -0.25, 0.2)


class TestEvalBackward:
    def test_degenerate_all_numerators_zero(self):
        assert eval_backward([0.0, 0.0], [2.5, 1.0, 3.0], 2) == 2.5

    def test_entry16_depth_one_tail(self):
        # 1/1 + (lam q)/1 evaluated backward: two levels
        lam, q = 0.7, 0.5
        value = eval_backward([1.0, lam * q], [0.0, 1.0, 1.0], 2)
        assert value == pytest.approx(1 / (1 + lam * q), rel=1e-15)

    def test_pole_reports_level(self):
        with pytest.raises(PoleError) as err:
            eval_backward([1.0, 1.0], [0.0, 1.0, 0.0], 2)
        assert err.value.level == 2

    def test_input_validation(self):
        with pytest.raises(DomainError):
            eval_backward([1.0], [0.0, 1.0], 0)
        with pytest.raises(DomainError):
            eval_backward([1.0], [0.0], 1)


class TestConvergent:
    def test_entry16_index_convention(self):
        lam, q = 1.0, 0.5
        fam = entry16_family(lam, q)
        assert convergent(fam, 1.0, 0) == pytest.approx(1.0)
        expected = (1 + lam * q**2) / (1 + lam * q + lam * q**2)
        assert convergent(fam, 1.0, 2) == pytest.approx(expected, rel=1e-14)
        assert backward_convergent(fam, 1.0, 2) == pytest.approx(expected, rel=1e-14)

    def test_pole_propagates(self):
        p = P_STD
        fam = hirschhorn_family(p)
        x = -p.a / (1 - p.b)  # D_1(x) = 0
        with pytest.raises(PoleError):
            convergent(fam, x, 1)

    @pytest.mark.parametrize("route", [convergent, backward_convergent])
    @pytest.mark.parametrize(
        "family",
        [hirschhorn_family(P_STD), b0_family(Params(0.4, 0.3, 0, 0.2)), entry16_family(0.2, 0.4), monic_family(P_STD)],
        ids=lambda fam: fam.name,
    )
    def test_index_below_the_first_convergent_is_a_domain_error(self, route, family):
        first = -family.index_shift  # the convergent of no levels
        assert route(family, 1.0, first) == 0
        with pytest.raises(DomainError, match=f"{family.name} convergents start at n = {first}, got n = {first - 1}"):
            route(family, 1.0, first - 1)

    @pytest.mark.parametrize("depth", [1, 2, 5, 20, 100, 200])
    def test_backward_equals_recurrence_every_family(self, depth):
        rng = random.Random(depth)
        families = [
            hirschhorn_family(Params(0.4, 0.3, -0.25, 0.2)),
            b0_family(Params(0.5, -0.4, 0.0, 0.3)),
            entry16_family(0.8, 0.45),
        ]
        for fam in families:
            x = rng.uniform(0.5, 2.0)
            fwd = convergent(fam, x, depth)
            bwd = backward_convergent(fam, x, depth)
            assert abs(fwd - bwd) <= 1e-11 * (1 + abs(fwd))


class TestHirschhornCF:
    def test_all_zero_parameters_collapse_to_one(self):
        p = Params(0.5, 0.0, 0.0, 0.0)
        assert hirschhorn_cf(p, 50) == pytest.approx(1.0)

    def test_b_zero_matches_b0_family_at_one(self):
        p = Params(0.4, 0.3, 0.0, 0.2)
        fam = b0_family(p)
        for depth in (3, 10, 60):
            assert hirschhorn_cf(p, depth) == pytest.approx(
                backward_convergent(fam, 1.0, depth), rel=1e-13
            )

    def test_self_convergence(self):
        v200 = hirschhorn_cf(P_STD, 200)
        v400 = hirschhorn_cf(P_STD, 400)
        assert abs(v200 - v400) <= 1e-12 * (1 + abs(v400))

    def test_depth_doubling_cauchy(self):
        # geometric convergence for |b| < 1: successive doublings settle fast
        p = Params(0.6, -0.2, 0.35, 0.7)
        vals = [hirschhorn_cf(p, d) for d in (50, 100, 200, 400)]
        assert abs(vals[-2] - vals[-1]) <= 1e-10 * (1 + abs(vals[-1]))

    def test_lambda_zero_matches_deep_closed_ratio(self):
        # with lam = 0 the tail is constant-coefficient; the recurrence route
        # at large depth supplies the limit
        p = Params(0.4, 0.3, -0.25, 0.0)
        seq = run_jfraction(hirschhorn_family(p), 1.0, 400)
        limit = seq.ratio(400) / (1 - p.b)
        assert hirschhorn_cf(p, 300) == pytest.approx(limit, rel=1e-10)

    def test_matches_recurrence_normalization(self):
        for depth in (1, 2, 7, 33):
            seq = run_jfraction(hirschhorn_family(P_STD), 1.0, depth)
            assert hirschhorn_cf(P_STD, depth) == pytest.approx(
                seq.ratio(depth) / (1 - P_STD.b), rel=1e-13
            )


def _outcome(f, *args):
    """The value of ``f(*args)``, or the type of the QFracError it raises."""
    try:
        return f(*args)
    except (DomainError, PoleError) as exc:
        return type(exc)


class TestLevelStreams:
    def test_routes_equal_the_per_level_reference(self, family_draws):
        for _, fam, x, depth in family_draws:
            # a coeffs-only family, read one call per level, over the level triples
            # the family reader gives at a float x
            levels = list(islice(_levels(fam, 0.5)[1], depth + 2))
            ref = JFamily(fam.name, levels.__getitem__, fam.index_shift)
            for route in (backward_convergent, convergent):
                assert _outcome(route, fam, x, depth) == _outcome(route, ref, x, depth), (route, fam, x, depth)

    def test_hirschhorn_cf_equals_the_per_level_lists(self, family_draws):
        # the base fraction's levels written out, q^k as a running product, at
        # x = 1 with the leading numerator 1 - b divided out at the end
        for p, _, _, depth in family_draws:
            qk = [p.q**0]
            for _ in range(depth):
                qk.append(qk[-1] * p.q)
            dens = [0] + [1 - p.b + p.a * qk[k] for k in range(depth)]
            nums = [1 - p.b] + [p.b + p.lam * qk[k] for k in range(1, depth)]
            expected = _outcome(lambda: eval_backward(nums, dens, depth) / (1 - p.b))
            assert _outcome(hirschhorn_cf, p, depth) == expected, (p, depth)
            if isinstance(p.q, Fraction):  # and exactly the fraction with numerator 1
                assert expected == _outcome(eval_backward, [1] + nums[1:], dens, depth), (p, depth)
