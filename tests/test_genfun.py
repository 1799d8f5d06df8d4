import cmath
import math
import random

import pytest

from qfraclab.errors import DomainError
from qfraclab.genfun import _base_roots, gf_eval, gf_radius
from qfraclab.recurrence import Params, b0_family, hirschhorn_family, monic_family, run_jfraction, run_monic

P_STD = Params(0.4, 0.3, -0.25, 0.2)
P_B0 = Params(0.4, 0.3, 0.0, -0.2)

# Kinds D / N at b = 0 give the b = 0 family Q / Q*; the test ids below name
# those cases after the family.


@pytest.mark.parametrize(
    "kind,expected,p",
    [
        pytest.param("P", 1, P_STD, id="P-1"),
        pytest.param("Pstar", 0, P_STD, id="Pstar-0"),
        pytest.param("D", 1, P_STD, id="D-1"),
        pytest.param("N", 0, P_STD, id="N-0"),
        pytest.param("D", 1, P_B0, id="Q-1"),
        pytest.param("N", 0, P_B0, id="Qstar-0"),
    ],
)
def test_value_at_origin_is_seed(kind, expected, p):
    assert gf_eval(kind, 0.0, 0.7, p) == pytest.approx(expected)


def test_q_kind_coefficient_oracle():
    # the b = 0 denominators Q_k are D_k at b = 0: recurrence values against
    # the closed form at t = 0.1, x = 1
    p = P_B0
    seq = run_jfraction(b0_family(p), 1.0, 62)
    t = 0.1
    oracle = sum(seq.D[k] * t**k for k in range(61))
    assert gf_eval("D", t, 1.0, p) == pytest.approx(oracle, abs=1e-12)


def test_p_kind_coefficient_oracle():
    p = P_STD
    x = math.cos(1.0)
    Pv = run_monic(p, x, 82)
    t = 0.2
    oracle = sum(Pv[k] * t**k for k in range(81))
    assert gf_eval("P", t, x, p) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize(
    "kind,p",
    [
        pytest.param("P", P_STD, id="P"),
        pytest.param("Pstar", P_STD, id="Pstar"),
        pytest.param("D", P_STD, id="D"),
        pytest.param("N", P_STD, id="N"),
        pytest.param("D", P_B0, id="Q"),
        pytest.param("N", P_B0, id="Qstar"),
    ],
)
def test_coefficient_agreement_inside_third_of_radius(kind, p):
    rng = random.Random(f"gf:{kind}")
    for _ in range(3):
        x = rng.uniform(-0.9, 0.9) if kind in ("P", "Pstar") else rng.uniform(0.6, 1.4)
        radius = gf_radius(kind, x, p)
        t = cmath.rect(0.3 * radius * rng.uniform(0.3, 1.0), rng.uniform(0, 2 * math.pi))
        if kind in ("P", "Pstar"):
            family = monic_family(p)
        else:
            family = b0_family(p) if p.b == 0 else hirschhorn_family(p)
        seq = run_jfraction(family, x, 130)
        vals = seq.D if kind in ("P", "D") else seq.N
        oracle = sum(vals[k] * t**k for k in range(126))
        assert abs(gf_eval(kind, t, x, p) - oracle) <= 1e-11 * (1 + abs(oracle))


def test_numerator_kinds_are_denominator_kinds_at_the_shifted_parameters():
    # N(t; a, lam) = t (1 - b) D(t; a q, lam q), and Pstar(t; a, lam) = t P(t; a q, lam q):
    # the monic numerators are the monic denominators one level up
    rng = random.Random(7)
    draws = 0
    while draws < 100:
        q = rng.choice((-1, 1)) * rng.uniform(0.05, 0.85)
        p = Params(q, rng.uniform(-1.5, 1.5), rng.uniform(-0.9, -0.05), rng.uniform(-1, 1))
        try:
            p.require_monic()
        except DomainError:
            continue
        draws += 1
        shifted = Params(q, p.a * q, p.b, p.lam * q)
        for kind, den, x, factor in (
            ("N", "D", rng.uniform(0.6, 1.4), 1 - p.b),
            ("Pstar", "P", rng.uniform(-0.9, 0.9), 1),
        ):
            t = cmath.rect(0.8 * gf_radius(kind, x, p) * rng.uniform(0.1, 1.0), rng.uniform(0, 2 * math.pi))
            lhs = gf_eval(kind, t, x, p)
            rhs = t * factor * gf_eval(den, t, x, shifted)
            assert abs(lhs - rhs) <= 1e-14 * abs(lhs), (kind, p, x, t)


def test_p_q_difference_equation():
    p = P_STD
    theta = 1.0
    x = math.cos(theta)
    u, v = cmath.exp(1j * theta), cmath.exp(-1j * theta)
    rng = random.Random(5)
    for _ in range(20):
        t = cmath.rect(rng.uniform(0.02, 1.7), rng.uniform(0, 2 * math.pi))
        ft = (1 - u * t / 2) * (1 - v * t / 2)
        lhs = gf_eval("P", t, x, p)
        rhs = 1 / ft - p.c * t * (1 + p.lam * t * p.q / (4 * p.b * p.c)) / ft * gf_eval("P", t * p.q, x, p)
        assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))


def test_d_q_difference_equation():
    p = Params(0.4, 0.3, -0.25, 0.2)
    x = 0.8
    rng = random.Random(6)
    radius = gf_radius("D", x, p)
    for _ in range(20):
        t = cmath.rect(rng.uniform(0.05, 0.85) * radius, rng.uniform(0, 2 * math.pi))
        gt = 1 - x * (1 - p.b) * t - p.b * t * t
        lhs = gf_eval("D", t, x, p)
        rhs = 1 / gt + p.a * t * (1 + p.lam * t * p.q / p.a) / gt * gf_eval("D", t * p.q, x, p)
        assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))


def test_base_roots_factor_the_quadratic():
    # alpha + beta = (1-b) x and alpha beta = -b, with |alpha| >= |beta|; at
    # b = -0.25, x = 0.5 lies on the cut of the root selector (|y| < 1)
    for b in (-0.25, 0.0, 0.3):
        for x in (0.0, 1.0, -1.0, 0.5, 0.7 + 0.4j, -2.5j):
            alpha, beta = _base_roots(x, b)
            assert abs(alpha + beta - (1 - b) * x) <= 1e-15 * (1 + abs(x))
            assert abs(alpha * beta + b) <= 1e-15
            assert abs(alpha) >= abs(beta) * (1 - 1e-15)  # equal on the cut, up to rounding


def test_radius_guard():
    with pytest.raises(DomainError):
        gf_eval("P", 1.81, 0.3, P_STD)  # radius 2 for x inside (-1, 1)
    with pytest.raises(DomainError):
        gf_eval("D", 0.95, 1.0, P_B0)  # radius 1/x = 1 at b = 0


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        gf_eval("Z", 0.1, 0.5, P_STD)


def test_a_zero_limit_of_p_kind():
    # regrouped factors keep the c -> 0 limit of the generating function exact
    p = Params(0.4, 0.0, -0.25, 0.2)
    x = math.cos(1.0)
    Pv = run_monic(p, x, 82)
    t = 0.2
    oracle = sum(Pv[k] * t**k for k in range(81))
    assert gf_eval("P", t, x, p) == pytest.approx(oracle, abs=1e-12)
