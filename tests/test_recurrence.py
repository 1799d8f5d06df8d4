import cmath
import math
import pickle
import random
from fractions import Fraction
from itertools import islice

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import coeffs_only, outcome

from qfraclab.cfrac import backward_convergent, convergent
from qfraclab.errors import DomainError, PoleError, QFracError, RangeError
from qfraclab.qseries import qpochhammer
from qfraclab.recurrence import (
    JCoeffs,
    JFamily,
    Params,
    _affine,
    _run_affine,
    b0_family,
    entry16_family,
    hirschhorn_family,
    monic_alpha,
    monic_beta,
    monic_family,
    monic_ratio,
    run_jfraction,
    run_monic,
)

P_STD = Params(0.4, 0.3, -0.25, 0.2)


def finite_diff_leading(values_at_ints, deg):
    """Leading coefficient of a degree-deg polynomial from its values at 0..deg."""
    diffs = list(values_at_ints)
    for _ in range(deg):
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
    return diffs[0] / math.factorial(deg)


class TestParams:
    def test_q_range_enforced(self):
        with pytest.raises(DomainError):
            Params(1.0, 0.1, -0.2, 0.1)
        with pytest.raises(DomainError):
            Params(0.0, 0.1, -0.2, 0.1)

    def test_b_equal_one_rejected(self):
        with pytest.raises(DomainError):
            Params(0.4, 0.1, 1.0, 0.1)

    def test_derived_constants(self):
        p = P_STD
        assert p.c == pytest.approx(0.3)
        assert p.gamma**2 == pytest.approx(-4 * p.b / (1 - p.b) ** 2, rel=1e-15)

    def test_derived_constants_need_negative_b(self):
        p = Params(0.4, 0.3, 0.0, 0.2)
        with pytest.raises(DomainError):
            p.gamma
        with pytest.raises(DomainError):
            p.c

    def test_require_monic_rejects_nonpositive_beta(self):
        # 1 + lam q / b = 1 - 2.5 < 0
        with pytest.raises(DomainError):
            Params(0.5, 0.1, -0.1, 0.5).require_monic()

    def test_negative_q_allowed(self):
        Params(-0.4, 0.3, -0.25, 0.2).require_monic()

    def test_require_monic_accepts_a_slowly_falling_ratio(self):
        # every beta_k = (1 + 1000 * 0.99999^k) / 4 > 0, while |lam q^k / b| stays
        # above 1 for about 690 000 indices
        p = Params(0.99999, 0.3, -0.25, -250.0)
        assert p.require_monic() is p

    def test_require_monic_equals_the_per_index_reference(self):
        def reference(p):
            """The first beta_k <= 0 as require_monic words it, checked index by
            index until |lam q^k / b| < 1; None if there is none."""
            ratio, k = p.lam * p.q / p.b, 1
            while 1 + ratio > 0:
                if abs(ratio) < 1:
                    return None
                ratio *= p.q
                k += 1
            return f"beta_{k} <= 0: 1 + lam q^{k}/b = {1 + ratio}"

        def outcome(p):
            try:
                p.require_monic()
            except DomainError as exc:
                return str(exc)
            return None

        rng = random.Random(41)
        seen = []
        for _ in range(3000):
            q = rng.choice((-1, 1)) * rng.uniform(0.05, 0.999)
            b = -(10 ** rng.uniform(-2, 1))
            r = rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 3)  # lam q / b
            p = Params(q, rng.uniform(-2, 2), b, r * b / q)
            expected = reference(p)
            assert outcome(p) == expected, p
            seen.append(expected[:6] if expected else None)
        # both outcomes, and a failure at each of the two indices, are drawn
        assert min(seen.count(s) for s in (None, "beta_1", "beta_2")) > 300

    def test_cached_constants_keep_value_semantics(self):
        p, fresh = Params(0.4, 0.3, -0.25, 0.2), Params(0.4, 0.3, -0.25, 0.2)
        c = p.c
        assert p.require_monic() is p
        assert p.c is c and c == fresh.c
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        assert pickle.loads(pickle.dumps(p)) == fresh
        with pytest.raises(AttributeError):
            p._c = 1.0

    @pytest.mark.parametrize(
        "args,c_raises",
        [((0.4, 0.3, 0.0, 0.2), True), ((0.4, 0.3, 0.25, 0.2), True), ((0.4, 0.3j, -0.25, 0.2), True),
         ((0.5, 0.1, -0.1, 0.5), False)],  # the last set has a real c but beta_1 < 0
    )
    def test_invalid_params_raise_on_every_access(self, args, c_raises):
        p = Params(*args)
        for _ in range(3):
            with pytest.raises(DomainError):
                p.require_monic()
            if c_raises:
                with pytest.raises(DomainError):
                    p.c

    @pytest.mark.parametrize(
        "args",
        [(0.4j, 0.3, -0.25, 0.2), (0.4, 0.3j, -0.25, 0.2), (0.4, 0.3, -0.25j, 0.2), (0.4, 0.3, -0.25, 0.2j)],
        ids=["q", "a", "b", "lam"],
    )
    def test_monic_family_rejects_complex_parameters(self, args):
        from qfraclab.measure import density_nevai, gram_matrix

        p = Params(*args)
        for use in (p.require_monic, lambda: p.gamma, lambda: p.c, lambda: gram_matrix(p, 2),
                    lambda: density_nevai(0.3, p)):
            with pytest.raises(DomainError, match="requires real q, a, b and lam"):
                use()


class TestJFraction:
    def test_seed_values_all_families(self):
        x = 0.731
        for fam in (hirschhorn_family(P_STD), b0_family(Params(0.4, 0.3, 0.0, 0.2))):
            c0 = fam.coeffs(0)
            seq = run_jfraction(fam, x, 1)
            assert seq.N[0] == 0 and seq.D[0] == 1
            assert seq.N[1] == c0.A
            assert seq.D[1] == pytest.approx(c0.A * x + c0.B)

    def test_hirschhorn_coeff_values(self):
        p = P_STD
        fam = hirschhorn_family(p)
        c0 = fam.coeffs(0)
        assert (c0.A, c0.B) == (1 - p.b, p.a)
        assert fam.coeffs(1).C == pytest.approx(-(p.b + p.lam * p.q))

    def test_b0_reduction_of_hirschhorn(self):
        p = Params(0.4, 0.3, 0.0, 0.2)
        c2 = b0_family(p).coeffs(2)
        assert c2.A == 1
        assert c2.B == pytest.approx(p.a * p.q**2)
        assert c2.C == pytest.approx(-p.lam * p.q**2)
        h2 = hirschhorn_family(p).coeffs(2)
        assert (h2.A, h2.B, h2.C) == (c2.A, c2.B, c2.C)

    def test_hirschhorn_d2_hand_unrolled(self):
        p = Params(0.3, 0.2, 0.4, 0.5)
        x = 1.37
        seq = run_jfraction(hirschhorn_family(p), x, 2)
        expected = (x * (1 - p.b) + p.a * p.q) * (x * (1 - p.b) + p.a) + (p.b + p.lam * p.q)
        assert seq.D[2] == pytest.approx(expected, rel=1e-14)

    def test_casoratian_n2(self):
        p = Params(0.3, 0.2, 0.4, 0.5)
        seq = run_jfraction(hirschhorn_family(p), 0.9, 2)
        w1 = seq.N[2] * seq.D[1] - seq.N[1] * seq.D[2]
        assert w1 == pytest.approx((1 - p.b) * (-(p.b + p.lam * p.q)), rel=1e-13)

    @pytest.mark.parametrize("which", ["hirschhorn", "b0", "entry16"])
    def test_casoratian_telescopes(self, which):
        rng = random.Random(42 + len(which))
        for _ in range(5):
            q = rng.uniform(0.1, 0.8) * rng.choice([1, -1])
            a, b, lam = rng.uniform(-1, 1), rng.uniform(-0.8, 0.8), rng.uniform(-1, 1)
            if which == "hirschhorn":
                fam = hirschhorn_family(Params(q, a, b, lam))
            elif which == "b0":
                fam = b0_family(Params(q, a, 0.0, lam))
            else:
                fam = entry16_family(lam, q)
            x = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            seq = run_jfraction(fam, x, 31)
            prod = fam.coeffs(0).A
            for k in range(0, 30):
                w = seq.N[k + 1] * seq.D[k] - seq.N[k] * seq.D[k + 1]
                # the telescoped value is a difference of two geometrically
                # growing products; relative means relative to those
                scale = max(1.0, abs(seq.N[k + 1] * seq.D[k]), abs(seq.N[k] * seq.D[k + 1]))
                assert abs(w - prod) <= 1e-10 * scale
                prod *= fam.coeffs(k + 1).C

    def test_degree_and_leading_coefficients(self):
        p = Params(0.3, 0.2, 0.4, 0.5)
        fam = hirschhorn_family(p)
        for k in (2, 4, 6):
            dvals = [run_jfraction(fam, float(i), k).D[k] for i in range(k + 1)]
            assert finite_diff_leading(dvals, k) == pytest.approx((1 - p.b) ** k, rel=1e-8)
            nvals = [run_jfraction(fam, float(i), k).N[k] for i in range(k)]
            assert finite_diff_leading(nvals, k - 1) == pytest.approx((1 - p.b) ** k, rel=1e-8)

    def test_ratio_pole_reported(self):
        # D_1(x) = 0 at x = -B_0 / A_0
        p = P_STD
        c0 = hirschhorn_family(p).coeffs(0)
        x = -c0.B / c0.A
        seq = run_jfraction(hirschhorn_family(p), x, 1)
        with pytest.raises(PoleError):
            seq.ratio(1)

    def test_depth_validation(self):
        with pytest.raises(DomainError):
            run_jfraction(hirschhorn_family(P_STD), 1.0, 0)


class TestMonic:
    def test_p2_hand_unrolled(self):
        p = P_STD
        x = 0.41
        vals = run_monic(p, x, 2)
        expected = (x - p.c * p.q) * (x - p.c) - (1 + p.lam * p.q / p.b) / 4
        assert vals[2] == pytest.approx(expected, rel=1e-14)

    def test_pstar_seeds(self):
        vals = run_jfraction(monic_family(P_STD), 0.3, 2).N
        assert vals[0] == 0 and vals[1] == 1
        assert vals[2] == pytest.approx(0.3 - P_STD.c * P_STD.q)

    def test_monic_leading_coefficient_is_one(self):
        for k in (3, 5, 7):
            vals = [run_monic(P_STD, float(i), k)[k] for i in range(k + 1)]
            assert finite_diff_leading(vals, k) == pytest.approx(1.0, rel=1e-8)

    def test_rescaling_relation(self):
        rng = random.Random(7)
        for _ in range(6):
            q = rng.uniform(0.1, 0.8) * rng.choice([1, -1])
            a = rng.uniform(-1, 1)
            b = rng.uniform(-0.9, -0.05)
            lam = rng.uniform(-0.5, 0.5)
            p = Params(q, a, b, lam)
            try:
                p.require_monic()
            except DomainError:
                continue
            x = rng.uniform(-1.5, 1.5)
            Pv = run_monic(p, x, 10)
            seq = run_jfraction(hirschhorn_family(p), p.gamma * x, 10)
            for k in range(11):
                scaled = seq.D[k] / (p.gamma**k * (1 - p.b) ** k)
                assert abs(Pv[k] - scaled) <= 1e-11 * max(1.0, abs(Pv[k]))

    def test_parity_when_a_zero(self):
        p = Params(0.4, 0.0, -0.25, 0.2)
        x = 0.63
        plus = run_monic(p, x, 10)
        minus = run_monic(p, -x, 10)
        for k in range(11):
            assert minus[k] == pytest.approx((-1) ** k * plus[k], rel=1e-13, abs=1e-15)

    def test_beta_product_identity(self):
        p = P_STD
        prod = 1.0
        for n in range(1, 21):
            prod *= monic_beta(p, n)
            closed = qpochhammer(-p.lam * p.q / p.b, p.q, n) / 4**n
            assert abs(prod - closed) <= 1e-12 * abs(closed)

    def test_overflow_raises_instead_of_nan(self):
        # P_k(2) grows like 1.87^k and leaves the double range near k = 1130
        with pytest.raises(RangeError) as info:
            run_monic(P_STD, 2.0, 1200)
        assert isinstance(info.value, QFracError)
        assert math.isfinite(run_monic(P_STD, 2.0, 1100)[-1])
        # the ratio of the two solutions divides mantissas, so it stays finite past the range
        assert math.isfinite(monic_ratio(P_STD, 2.0, 1200))

    @pytest.mark.parametrize("x", [math.inf, math.nan, complex(0.3, math.inf)])
    def test_nonfinite_x_rejected(self, x):
        for run in (run_monic, monic_ratio):
            with pytest.raises(DomainError, match="finite"):
                run(P_STD, x, 5)
        # the J-fraction entries, forward and backward
        from qfraclab.cfrac import backward_convergent, convergent

        for fam in (hirschhorn_family(P_STD), b0_family(Params(0.4, 0.3, 0, 0.2)), entry16_family(0.2, 0.4),
                    monic_family(P_STD)):
            for evaluate in (run_jfraction, convergent, backward_convergent):
                with pytest.raises(DomainError, match="finite"):
                    evaluate(fam, x, 5)
        # the generating functions and the b = 0 growth asymptotics
        from qfraclab.asymptotics import asymptotic_Q, asymptotic_Qstar
        from qfraclab.genfun import KINDS, gf_eval, gf_radius

        for kind in KINDS:
            with pytest.raises(DomainError, match="finite"):
                gf_radius(kind, x, P_STD)
            with pytest.raises(DomainError, match="finite"):
                gf_eval(kind, 0.1, x, P_STD)
        for asymptotic in (asymptotic_Q, asymptotic_Qstar):
            with pytest.raises(DomainError, match="finite"):
                asymptotic(5, x, Params(0.4, 0.3, 0.0, -0.2))

    def test_fraction_and_complex_x(self):
        x = Fraction(2, 7)
        vals = run_monic(P_STD, x, 6)
        assert vals == pytest.approx(run_monic(P_STD, float(x), 6), rel=1e-14)
        z = complex(0.4, 0.7)
        vals = run_jfraction(monic_family(P_STD), z, 6).N
        conj = run_jfraction(monic_family(P_STD), z.conjugate(), 6).N
        assert all(isinstance(v, complex) for v in vals[2:])
        assert [v.conjugate() for v in vals[2:]] == pytest.approx(conj[2:], rel=1e-14)


class TestB0Norms:
    def test_norm_product_closed_form(self):
        q, lam = 0.4, -0.5
        prod = 1.0
        for n in range(1, 16):
            prod *= -lam * q**n
            assert prod == pytest.approx((-lam) ** n * q ** (n * (n + 1) // 2), rel=1e-13)

    def test_b0_family_requires_b_zero(self):
        with pytest.raises(DomainError):
            b0_family(P_STD).coeffs(1)


BUILTIN_CASES = [
    ("hirschhorn", P_STD),
    ("hirschhorn", Params(Fraction(2, 5), Fraction(3, 10), Fraction(-1, 4), Fraction(1, 5))),
    ("b0", Params(0.5, -0.4, 0.0, 0.3)),
    ("b0", Params(Fraction(1, 2), Fraction(-2, 5), 0, Fraction(3, 10))),
    ("entry16", Params(0.45, 0, 0, 0.8)),
    ("entry16", Params(Fraction(9, 20), 0, 0, Fraction(4, 5))),
    ("monic", P_STD),
    ("monic", Params(-0.7, -0.8, -0.5, 0.4)),
]
FAMILY_OF = {
    "hirschhorn": hirschhorn_family,
    "b0": b0_family,
    "entry16": lambda p: entry16_family(p.lam, p.q),
    "monic": monic_family,
}
BUILTIN_FAMILIES = [FAMILY_OF[name](p) for name, p in BUILTIN_CASES]


def _paper_levels(name, p, k):
    """Level k of a built-in family as the module docstring writes it, with q^k by one ``**``,
    and the size each entry is compared at."""
    qk = p.q**k
    if name == "hirschhorn":
        return (1 - p.b, p.a * qk, -(p.b + p.lam * qk)), abs(p.b) + abs(p.lam * qk)
    if name in ("b0", "entry16"):
        return (1, p.a * qk, -p.lam * qk), abs(p.lam * qk)
    return (1, -monic_alpha(p, k), monic_beta(p, k)), (1 + abs(p.lam * qk / p.b)) / 4


def _no_coeffs(k):
    raise AssertionError(f"coeffs({k}) called")


class TestLevelStreams:
    @pytest.mark.parametrize("fam", BUILTIN_FAMILIES, ids=lambda fam: fam.name)
    def test_stream_yields_the_coeffs_triples(self, fam):
        triples = list(islice(_affine(*fam.constants()), 50))
        reference = [fam.coeffs(k) for k in range(50)]
        assert triples == reference
        assert [list(map(type, t)) for t in triples] == [list(map(type, t)) for t in reference]

    @pytest.mark.parametrize("name,p", BUILTIN_CASES, ids=[name for name, _ in BUILTIN_CASES])
    def test_levels_are_the_papers_coefficients(self, name, p):
        # exact for Fraction parameters; for floats the running q^k of the levels
        # and the ``**`` of the reference each round, k + 2 roundings at most
        for k, (A, B, C) in enumerate(islice(_affine(*FAMILY_OF[name](p).constants()), 80)):
            (a, b, c), c_size = _paper_levels(name, p, k)
            if isinstance(p.q, Fraction):
                assert (A, B, C) == (a, b, c)
            else:
                tol = (k + 2) * 2.0**-52
                assert A == a
                assert abs(B - b) <= tol * abs(b)
                assert abs(C - c) <= tol * c_size

    def test_run_jfraction_equals_the_per_level_reference(self, family_draws):
        for _, fam, x, depth in family_draws:
            # the generic loop, one level triple at a time, over one read of the levels
            assert outcome(run_jfraction, fam, x, depth) == outcome(reference.run_jfraction, coeffs_only(fam, depth), x, depth), (fam, x, depth)

    @pytest.mark.parametrize("fam", BUILTIN_FAMILIES, ids=lambda fam: fam.name)
    def test_both_routes_read_the_stream(self, fam):
        guarded = fam._replace(coeffs=_no_coeffs)
        assert run_jfraction(guarded, 0.7, 60).D == run_jfraction(fam, 0.7, 60).D
        assert backward_convergent(guarded, 0.7, 60) == backward_convergent(fam, 0.7, 60)
        assert convergent(guarded, 0.7, 60) == convergent(fam, 0.7, 60)

    def test_family_without_a_stream_reads_coeffs(self):
        calls = []

        def coeffs(k):
            calls.append(k)
            return builtin.coeffs(k)

        # backward, one call per level; the forward routes refuse it by name
        fam, builtin = JFamily("per-level", coeffs), hirschhorn_family(P_STD)
        assert backward_convergent(fam, 0.7, 40) == backward_convergent(builtin, 0.7, 40)
        assert calls == list(range(40))
        for route in (run_jfraction, convergent):
            with pytest.raises(DomainError, match="'per-level' has none"):
                route(fam, 0.7, 40)

    def test_b0_family_with_nonzero_b_builds_and_raises_at_first_use(self):
        fam = b0_family(P_STD)  # the eval CLI builds every family before choosing one
        with pytest.raises(DomainError, match="b0 family requires b = 0"):
            run_jfraction(fam, 1.0, 5)
        with pytest.raises(DomainError, match="b0 family requires b = 0"):
            backward_convergent(fam, 1.0, 5)


def _monic_kernel(p, x, depth):
    """``(N, D, E)`` of the inline recurrence kernel on the monic constants: the
    P* and P mantissas and their shared exponent ledger."""
    return _run_affine(monic_family(p).constants(), x, depth)


class TestScaledRun:
    def test_matches_plain_run(self):
        _, mant, exps = _monic_kernel(P_STD, 2.0, 300)
        plain = run_monic(P_STD, 2.0, 300)
        for k in (10, 100, 250, 300):
            assert mant[k] * 2.0 ** exps[k] == pytest.approx(plain[k], rel=1e-12)

    def test_survives_depth_past_overflow(self):
        # plain doubles overflow near depth ~1100 at x = 2
        _, mant, exps = _monic_kernel(P_STD, 2.0, 2000)
        assert math.isfinite(mant[2000])
        assert exps[2000] > 0

    def test_monic_ratio_matches_direct(self):
        direct = run_jfraction(monic_family(P_STD), 2.0, 200).N[200] / run_monic(P_STD, 2.0, 200)[200]
        assert monic_ratio(P_STD, 2.0, 200) == pytest.approx(direct, rel=1e-13)


def test_forward_prefix_independent_of_depth():
    # the acceptance suite reads every depth n + 1 <= 26 off one depth-26 run
    rng = random.Random(1603)
    for _ in range(10):
        q = rng.uniform(0.05, 0.9) * rng.choice([1, -1])
        fam = b0_family(Params(q, rng.uniform(-0.9, 0.9), 0, rng.uniform(-1, 1)))
        deep = run_jfraction(fam, 1, 26)
        for n in range(1, 26):
            seq = run_jfraction(fam, 1, n + 1)
            assert deep.D[n + 1] / deep.N[n + 1] == seq.D[n + 1] / seq.N[n + 1]


def test_exact_rational_recurrence():
    q, a, b, lam = Fraction(2, 5), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 7)
    p = Params(q, a, b, lam)
    fam = hirschhorn_family(p)
    seq = run_jfraction(fam, Fraction(1), 6)
    # Casoratian holds exactly
    prod = 1 - b
    for k in range(0, 5):
        assert seq.N[k + 1] * seq.D[k] - seq.N[k] * seq.D[k + 1] == prod
        prod *= fam.coeffs(k + 1).C


def _monic_or_none(q, a, b, lam):
    p = Params(q, a, b, lam)
    try:
        p.require_monic()
    except DomainError:
        return None
    return p


monic_params = st.builds(
    _monic_or_none,
    st.floats(0.05, 0.95).flatmap(lambda q: st.sampled_from([q, -q])),
    st.floats(-3, 3),
    st.floats(-3, -0.01),
    st.floats(-3, 3),
).filter(lambda p: p is not None)
finite_x = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)


def _plain_monic(p, x, depth, seed):
    """The monic recurrence in plain doubles, without the exponent ledger."""
    c, q, r = p.c, p.q, p.lam / p.b
    y_prev, y = (1.0, x - c) if seed == "P" else (0.0, 1.0)
    out = [y_prev, y]
    qk = q
    for _ in range(1, depth):
        y_prev, y = y, (x - c * qk) * y - (1 + r * qk) / 4 * y_prev
        out.append(y)
        qk *= q
    return out


def _ldexp(m, e):
    """m * 2**e, infinite past the double range."""
    if isinstance(m, complex):
        return complex(_ldexp(m.real, e), _ldexp(m.imag, e))
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _same(u, v):
    # exact for real x; for complex x a component that is tiny next to the
    # other one may underflow once the ledger scales the pair down
    return u == v or (isinstance(v, complex) and abs(u / v - 1) <= 1e-15)


@settings(max_examples=150, deadline=None)
@given(monic_params, finite_x, st.integers(1, 1500))
def test_monic_runs_are_finite_or_raise(p, x, depth):
    N, D, E = _monic_kernel(p, x, depth)
    assert len(N) == len(D) == len(E) == depth + 1
    for seed, mant in (("P", D), ("Pstar", N)):
        plain = _plain_monic(p, x, depth, seed)
        assert all(map(cmath.isfinite, mant))
        for m, e, v in zip(mant, E, plain):
            if cmath.isfinite(v):
                assert _same(_ldexp(m, e), v)
        if seed == "P":
            try:
                vals = run_monic(p, x, depth)
            except RangeError:
                assert not all(map(cmath.isfinite, plain))
            else:
                assert vals == [_ldexp(m, e) for m, e in zip(mant, E)]
                assert all(map(cmath.isfinite, vals))
    try:
        ratio = monic_ratio(p, x, depth)
    except QFracError:
        pass
    else:
        assert cmath.isfinite(ratio)


@pytest.mark.parametrize("x", [0.3, 2.0, -1.7, complex(0.4, 0.7), 1e200])
def test_jfraction_of_monic_triples_is_run_monic(x):
    # P_k is the D solution and Pstar_k the N solution of the J-fraction
    # A_k = 1, B_k = -alpha_k, C_k = beta_k; at x = 1e200 the values pass
    # the double range, so they are compared as infinities and run_monic raises
    p = P_STD
    c, r, q = p.c, p.lam / p.b, p.q
    triples, qk = [], 1
    for _ in range(400):  # alpha_k and beta_k with q^k built up as a running product
        triples.append(JCoeffs(1, -c * qk, (1 + r * qk) / 4))
        qk *= q
    seq = reference.run_jfraction(JFamily("monic", triples.__getitem__), x, 400)
    N, D, E = _monic_kernel(p, x, 400)
    assert seq.D == [_ldexp(m, e) for m, e in zip(D, E)]
    assert seq.N == [_ldexp(m, e) for m, e in zip(N, E)]
    if x != 1e200:
        assert seq.D == run_monic(p, x, 400)
    else:
        with pytest.raises(RangeError):
            run_monic(p, x, 400)
    # the coefficient functions as the benchmark's monic family spells them
    bench_fam = JFamily("monic", lambda k: JCoeffs(1, -monic_alpha(p, k), monic_beta(p, k)))
    seq = reference.run_jfraction(bench_fam, x, 400)
    for k in (1, 2, 50, 400):
        value = _ldexp(D[k], E[k])
        assert seq.D[k] == value or abs(seq.D[k] / value - 1) <= 1e-12


def test_fraction_runs_stay_exact_past_the_double_range():
    q, a, b, lam = Fraction(2, 5), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 7)
    p = Params(q, a, b, lam)
    x = Fraction(10**300, 3)
    fam = hirschhorn_family(p)
    seq = run_jfraction(fam, x, 8)
    assert (seq.N[0], seq.D[0]) == (0, 1)
    assert all(type(v) is Fraction for v in seq.N[1:] + seq.D[1:])
    assert seq.D[8] > Fraction(10) ** 2000
    prod = 1 - b
    for k in range(7):
        assert seq.N[k + 1] * seq.D[k] - seq.N[k] * seq.D[k + 1] == prod
        prod *= fam.coeffs(k + 1).C
