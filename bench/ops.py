"""Op kinds of the warm workloads: seeded inputs, two routes, one gate.

An op is one cross-route evaluation: it computes the same object by two
independent public routes of ``qfraclab`` and passes only if they agree
within the gate of its kind.  Every public call goes through
``call(name, fn, *args)``, so the same op code runs untraced (``call``
just applies ``fn``) and traced (``call`` records a span).

The deck of a workload is a fixed list of ops drawn from the seed.  Its
composition (how many ops of each kind, and how many of each input class)
is the same for every seed; only the drawn values change.  That keeps the
time share of each layer, and the share of known-defect inputs, equal
across seeds.

Known-defect inputs stay in the deck on purpose.  Each op records the
defect class its input belongs to (``Op.defect``); a failure on such an
input is a *known* failure, reported per kind, and any other failure is
unexpected and makes the run incorrect.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from qfraclab import asymptotics, cfrac, convergents, genfun, measure, moments, qseries, recurrence
from qfraclab.errors import DomainError
from qfraclab.recurrence import JCoeffs, JFamily, Params

# Gates, as the acceptance suite uses them.  Every comparison is
# |u - v| <= gate * max(1, |u|, |v|); Fraction results must be equal.
DENSITY_GATE = 1e-8
MARKOV_GATE = 1e-9
MOMENT_GATE = 1e-10
CLOSED_GATE = 1e-11
GRAM_GATE = 1e-6  # orthogonality-gram's gate on off-diagonal and |G_nn - h_n|
GRAM_DEFICIT = 1e-6  # at or above it the Gram check is skipped: unverified

# Known-defect input classes (see ROADMAP open items 2-4).
A0_MEASURE = "a0-measure"  # a = 0: the F/G/R shortcut gives a wrong measure
FORWARD_OVERFLOW = "forward-overflow"  # unscaled forward recurrence overflows to NaN
DISCRETE_MASS = "discrete-mass"  # Gram deficit from point masses, no check yet
# Found while building the benchmark: at k = 0 and |lam q / b| of about 0.3
# or more (sooner for small q) the q-integral's products overflow before its
# sum converges.  Moments with k >= 1 and |lam q / b| < 0.3 are clear of it.
QINTEGRAL_OVERFLOW = "qintegral-overflow"

OK, FAILED, UNVERIFIED = "ok", "failed", "unverified"


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    exact: bool = False
    defect: str | None = None


def plain_call(name, fn, *args):
    return fn(*args)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def finite(v) -> bool:
    """True unless a number inside a returned value is NaN or infinite."""
    if isinstance(v, Fraction):
        return True
    if isinstance(v, (int, float, complex)):
        return cmath.isfinite(v)
    if hasattr(v, "density"):  # DensitySample
        return finite(v.density)
    if hasattr(v, "N") and hasattr(v, "D"):  # ConvergentSeq
        return finite(v.N[-1]) and finite(v.D[-1])
    if hasattr(v, "tolist"):  # numpy array or scalar
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return all(finite(u) for u in v)
    return True


def scaled_err(u, v) -> float:
    """|u - v| / max(1, |u|, |v|); inf when either value is not finite."""
    if not (finite(u) and finite(v)):
        return math.inf
    return abs(u - v) / max(1.0, abs(u), abs(v))


def verdict(pairs, gate) -> str:
    """OK when every (u, v) pair agrees: exactly for gate None, else within gate."""
    for u, v in pairs:
        if gate is None:
            if u != v:
                return FAILED
        elif not scaled_err(u, v) <= gate:
            return FAILED
    return OK


# ---------------------------------------------------------------------------
# op kinds: each returns the routes' values, and check() turns them into a status
# ---------------------------------------------------------------------------


def op_density(call, x, p):
    dn = call("measure.density_nevai", measure.density_nevai, x, p)
    di = call("measure.density_inversion", measure.density_inversion, x, p)
    return [(getattr(dn, "density", dn), getattr(di, "density", di))]


def op_stieltjes(call, z, p):
    X = call("measure.stieltjes_transform", measure.stieltjes_transform, z, p)
    return [(X, call("recurrence.monic_ratio", recurrence.monic_ratio, p, z, 300))]


def op_moments(call, k, x, p):
    closed = call("moments.moment_pk_closed", moments.moment_pk_closed, k, x, p)
    return [(closed, call("moments.moment_pk_integral", moments.moment_pk_integral, k, x, p))]


def op_gram(call, p, nmax):
    g = call("measure.gram_matrix", measure.gram_matrix, p, nmax)
    norms = [measure.norm_squared(n, p) for n in range(nmax + 1)]
    return g, norms


def check_gram(result) -> str:
    g, norms = result
    vals = [float(v) for row in g for v in row]
    if not all(map(math.isfinite, vals)):
        return FAILED
    if abs(1.0 - g[0][0]) >= GRAM_DEFICIT:
        return UNVERIFIED
    n = len(norms)
    off = max((abs(g[i][j]) for i in range(n) for j in range(n) if i != j), default=0.0)
    diag = max(abs(g[i][i] - norms[i]) for i in range(n))
    return OK if off < GRAM_GATE and diag < GRAM_GATE else FAILED


def op_stieltjes_b0(call, x, p, depth):
    X = call("asymptotics.stieltjes_b0", asymptotics.stieltjes_b0, x, p)
    cf = call("cfrac.backward_convergent", cfrac.backward_convergent, recurrence.b0_family(p), x, depth)
    return [(X, cf)]


def op_theta(call, z, q):
    ratio = call("qseries.theta", qseries.theta, z, q) / call("qseries.theta", qseries.theta, z * q, q)
    return [(ratio, -z)]


def op_qpochhammer(call, a, q, m, n):
    whole = call("qseries.qpochhammer", qseries.qpochhammer, a, q, m + n)
    head = call("qseries.qpochhammer", qseries.qpochhammer, a, q, m)
    tail = call("qseries.qpochhammer", qseries.qpochhammer, a * q**m, q, n)
    return [(whole, head * tail)]


def op_hirschhorn_cf(call, p, depth):
    back = call("cfrac.hirschhorn_cf", cfrac.hirschhorn_cf, p, depth)
    seq = call("recurrence.run_jfraction", recurrence.run_jfraction, recurrence.hirschhorn_family(p), 1, depth)
    return [(back, seq.ratio(depth) / (1 - p.b))]


def op_convergent(call, p, x, depth):
    fam = recurrence.hirschhorn_family(p)
    back = call("cfrac.backward_convergent", cfrac.backward_convergent, fam, x, depth)
    seq = call("recurrence.run_jfraction", recurrence.run_jfraction, fam, x, depth)
    return [(back, seq.ratio(depth))]


def monic_family(p: Params) -> JFamily:
    """The monic J-fraction: A_k = 1, B_k = -alpha_k, C_k = beta_k."""
    return JFamily("monic", lambda k: JCoeffs(1, -recurrence.monic_alpha(p, k), recurrence.monic_beta(p, k)))


def op_monic_ratio(call, p, z, depth):
    fwd = call("recurrence.monic_ratio", recurrence.monic_ratio, p, z, depth)
    return [(fwd, call("cfrac.backward_convergent", cfrac.backward_convergent, monic_family(p), z, depth))]


def op_hirschhorn_closed(call, p, n):
    N, D = call("convergents.hirschhorn_closed", convergents.hirschhorn_closed, n, p.q, p.a, p.b, p.lam)
    return [(N / ((1 - p.b) * D), call("cfrac.hirschhorn_cf", cfrac.hirschhorn_cf, p, n))]


def op_entry16(call, n, lam, q):
    N, D = call("convergents.entry16", convergents.entry16, n, lam, q)
    fam = recurrence.entry16_family(lam, q)
    return [(N / D, call("cfrac.backward_convergent", cfrac.backward_convergent, fam, 1, n))]


def op_a0_closed(call, n, b, lam, q):
    Np, Dp = call("convergents.a0_closed", convergents.a0_closed, n, b, lam, q)
    fam = recurrence.hirschhorn_family(Params(q, 0.0, b, lam))
    seq = call("recurrence.run_jfraction", recurrence.run_jfraction, fam, 1, n + 1)
    return [(Np / Dp, seq.N[n + 1] / ((1 - b) * seq.D[n + 1]))]


def op_entry15(call, n, a, lam, q):
    Nh, Dh = call("convergents.entry15", convergents.entry15, n, a, lam, q)
    seq = call("recurrence.run_jfraction", recurrence.run_jfraction, recurrence.b0_family(Params(q, a, 0, lam)), 1, n + 1)
    return [((1 + a) * Nh / Dh, seq.D[n + 1] / seq.N[n + 1])]


def op_gf_eval(call, kind, t, x, p, terms):
    value = call("genfun.gf_eval", genfun.gf_eval, kind, t, x, p)
    if kind == "P":
        coeffs = call("recurrence.run_monic", recurrence.run_monic, p, x, terms)
    else:
        coeffs = call("recurrence.run_jfraction", recurrence.run_jfraction, recurrence.hirschhorn_family(p), x, terms).D
    return [(value, sum(c * t**k for k, c in enumerate(coeffs)))]


def op_entry16_exact(call, n, lam, q):
    N, D = call("convergents.entry16", convergents.entry16, n, lam, q)
    fam = recurrence.entry16_family(lam, q)
    back = call("cfrac.backward_convergent", cfrac.backward_convergent, fam, Fraction(1), n)
    seq = call("recurrence.run_jfraction", recurrence.run_jfraction, fam, Fraction(1), n + 1)
    return [(N / D, back), (N / D, seq.ratio(n + 1))]


def op_ram_exact(call, n, x, a, lam, q):
    seq = call("recurrence.run_jfraction", recurrence.run_jfraction, recurrence.b0_family(Params(q, a, 0, lam)), x, n)
    return [
        (call("convergents.ram_Q", convergents.ram_Q, n, x, a, lam, q), seq.D[n]),
        (call("convergents.ram_Qstar", convergents.ram_Qstar, n, x, a, lam, q), seq.N[n]),
    ]


def op_hirschhorn_closed_exact(call, p, n):
    N, D = call("convergents.hirschhorn_closed", convergents.hirschhorn_closed, n, p.q, p.a, p.b, p.lam)
    seq = call("recurrence.run_jfraction", recurrence.run_jfraction, recurrence.hirschhorn_family(p), Fraction(1), n)
    back = call("cfrac.hirschhorn_cf", cfrac.hirschhorn_cf, p, n)
    return [(N, seq.N[n]), (D, seq.D[n]), (N / ((1 - p.b) * D), back)]


# kind -> (op function, gate; None means exact equality, "gram" the Gram check)
KINDS = {
    "density": (op_density, DENSITY_GATE),
    "stieltjes": (op_stieltjes, MARKOV_GATE),
    "moments": (op_moments, MOMENT_GATE),
    "gram": (op_gram, "gram"),
    "stieltjes_b0": (op_stieltjes_b0, MARKOV_GATE),
    "theta": (op_theta, CLOSED_GATE),
    "qpochhammer": (op_qpochhammer, CLOSED_GATE),
    "qpochhammer.exact": (op_qpochhammer, None),
    "hirschhorn_cf": (op_hirschhorn_cf, CLOSED_GATE),
    "convergent": (op_convergent, CLOSED_GATE),
    "monic_ratio": (op_monic_ratio, CLOSED_GATE),
    "hirschhorn_closed": (op_hirschhorn_closed, CLOSED_GATE),
    "entry16": (op_entry16, CLOSED_GATE),
    "a0_closed": (op_a0_closed, CLOSED_GATE),
    "entry15": (op_entry15, CLOSED_GATE),
    "gf_eval": (op_gf_eval, CLOSED_GATE),
    "entry16.exact": (op_entry16_exact, None),
    "ram_Q.exact": (op_ram_exact, None),
    "hirschhorn_closed.exact": (op_hirschhorn_closed_exact, None),
}


def compute(op: Op, call=plain_call):
    """Run both routes of ``op``; exceptions propagate to the caller."""
    return KINDS[op.kind][0](call, *op.args)


def check(op: Op, result) -> str:
    """Status of a computed result: OK, FAILED or UNVERIFIED."""
    gate = KINDS[op.kind][1]
    if gate == "gram":
        return check_gram(result)
    return verdict(result, gate)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    v = rng.uniform(lo, hi)
    return v if rng.random() < 0.5 else -v


def _monic(rng: random.Random, c_lo: float, c_hi: float, q_hi: float = 0.7) -> Params:
    """Monic-domain Params with |c| in [c_lo, c_hi] (c = 0 gives a = 0)."""
    while True:
        q = rng.uniform(0.15, q_hi)
        b = rng.uniform(-0.6, -0.1)
        lam = rng.uniform(-0.5, 0.5)
        c = _signed(rng, c_lo, c_hi)
        p = Params(q, 2.0 * c * math.sqrt(-b), b, lam)
        try:
            return p.require_monic()
        except DomainError:
            continue


def _a0(rng):
    return _monic(rng, 0.0, 0.0)


def _regular(rng):
    return _monic(rng, 0.05, 0.4)


def _mass(rng):
    """|c| in [1, 2]: alpha_0 = c far outside [-1/2, 1/2] gives point masses."""
    return _monic(rng, 1.0, 2.0)


def _plain(rng) -> Params:
    """Monic Params without point masses, so the Gram check applies."""
    q, b, lam, c = rng.uniform(0.15, 0.5), rng.uniform(-0.5, -0.2), rng.uniform(0.1, 0.3), _signed(rng, 0.05, 0.2)
    return Params(q, 2.0 * c * math.sqrt(-b), b, lam).require_monic()


def _moment_params(rng, r_lo: float, r_hi: float) -> Params:
    """Regular Params with |lam q / b| in [r_lo, r_hi) and |lam q / 2bc| < 0.9."""
    while True:
        p = _regular(rng)
        if p.lam != 0 and r_lo <= abs(p.lam * p.q / p.b) < r_hi and abs(p.lam * p.q / (2 * p.b * p.c)) < 0.9:
            return p


def _off_cut(rng, i: int) -> complex:
    """Real for even ``i``, complex for odd: complex arithmetic costs more."""
    if i % 2 == 0:
        return _signed(rng, 1.2, 3.0)
    return complex(rng.uniform(-1.5, 1.5), _signed(rng, 0.3, 1.5))


def _general(rng, cap: float) -> Params:
    q = _signed(rng, 0.05, cap)
    return Params(q, rng.uniform(-cap, cap), rng.uniform(-cap, cap), rng.uniform(-cap, cap))


def _frac(rng, lo: int, hi: int, den_lo: int, den_hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi) or 1, rng.randint(den_lo, den_hi))


def _size(i: int, lo: int, hi: int, step: int = 1) -> int:
    """The i-th size of a group, cycling through lo..hi: sizes drive an op's
    cost, so they are spread evenly instead of drawn, which keeps the cost
    of a pass nearly the same for every seed."""
    return lo + step * (i % ((hi - lo) // step + 1))


def draw(rng: random.Random, kind: str, klass: str | None = None, i: int = 0) -> Op:
    """Op ``i`` of a group of ``kind``; ``klass`` picks an input class where a kind has several."""
    if kind == "density":
        p = {"a0": _a0, "mass": _mass}.get(klass, _regular)(rng)
        return Op(kind, (rng.uniform(-0.99, 0.99), p), defect=A0_MEASURE if klass == "a0" else None)
    if kind == "stieltjes":
        if klass == "mass":  # real z could sit inside the hull of the point masses
            p, z = _mass(rng), complex(rng.uniform(-1.5, 1.5), _signed(rng, 0.5, 1.5))
        else:
            p, z = (_a0 if klass == "a0" else _regular)(rng), _off_cut(rng, i)
        return Op(kind, (z, p), defect=A0_MEASURE if klass == "a0" else None)
    if kind == "moments":
        if klass == "overflow":
            return Op(kind, (0, rng.uniform(-0.9, 0.9), _moment_params(rng, 0.3, 0.95)), defect=QINTEGRAL_OVERFLOW)
        return Op(kind, (_size(i, 1, 10), rng.uniform(-0.9, 0.9), _moment_params(rng, 0.0, 0.3)))
    if kind == "gram":
        p = {"a0": _a0, "mass": _mass}.get(klass, _plain)(rng)
        defect = {"a0": A0_MEASURE, "mass": DISCRETE_MASS}.get(klass)
        return Op(kind, (p, 5), defect=defect)
    if kind == "stieltjes_b0":
        q = rng.uniform(0.15, 0.7)
        p = Params(q, rng.uniform(-0.6, 0.6), 0.0, rng.uniform(-0.8, -0.05))
        support = 2.0 * (abs(p.a) + 2.0 * math.sqrt(-p.lam * q))  # radius outside which x is off the support
        x = _signed(rng, 1.2, 3.0) * support
        return Op(kind, (x, p, 200))
    if kind == "theta":
        z = complex(rng.uniform(-2, 2), _signed(rng, 0.1, 2))
        return Op(kind, (z, rng.uniform(0.05, 0.7)))
    if kind == "qpochhammer":
        a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        return Op(kind, (a, _signed(rng, 0.05, 0.9), rng.randint(0, 20), rng.randint(0, 20)))
    if kind == "qpochhammer.exact":
        a, q = _frac(rng, -9, 9, 2, 9), _frac(rng, 1, 8, 9, 20)
        return Op(kind, (a, q, _size(i, 0, 12), _size(7 * i, 0, 12)), exact=True)
    if kind == "hirschhorn_cf":
        return Op(kind, (_general(rng, 0.85), 1000))
    if kind == "convergent":
        p = _general(rng, 0.85)
        if klass == "large-x":  # |(1 - b) x|^400 is far past the double range
            return Op(kind, (p, _signed(rng, 1e3, 1e3), 400), defect=FORWARD_OVERFLOW)
        # |x| >= 1 keeps x off the zeros of D_n, near which both routes lose
        # digits (errors reached 6e-12 for |x| < 1, 2e-14 for 1 <= |x| <= 2).
        return Op(kind, (p, _signed(rng, 1.0, 2.0), _size(i, 100, 300, 25)))
    if kind == "monic_ratio":
        p = _mass(rng) if klass == "mass" else _regular(rng)
        z = complex(rng.uniform(-1.5, 1.5), _signed(rng, 0.5, 1.5)) if klass == "mass" else _off_cut(rng, i)
        return Op(kind, (p, z, 1000))
    if kind == "hirschhorn_closed":
        return Op(kind, (_general(rng, 0.7), _size(i, 20, 40, 2)))
    # Closed forms at |q| <= 0.75: nearer 1 their sums lose digits in double
    # precision (errors up to 5e-11 at |q| <= 0.8, 2e-13 to 2e-12 at 0.75).
    if kind == "entry16":
        return Op(kind, (_size(i, 0, 30), rng.uniform(-2, 2), _signed(rng, 0.05, 0.75)))
    if kind in ("a0_closed", "entry15"):  # (n, b or a, lam, q)
        return Op(kind, (_size(i, 1, 25), rng.uniform(-0.9, 0.9), rng.uniform(-1, 1), _signed(rng, 0.05, 0.75)))
    if kind == "gf_eval":
        s = rng.uniform(0.2, 0.5)  # |t| / radius, so 80 terms leave a tail below 1e-24
        if klass == "P":  # on the cut both singularities have |t| = 2
            p, x = _regular(rng), rng.uniform(-0.99, 0.99)
            radius = 2.0
        else:  # singularities at the reciprocal roots of z^2 - (1 - b) x z - b
            p, x = _general(rng, 0.85), rng.uniform(-2.0, 2.0)
            disc = cmath.sqrt(((1 - p.b) * x) ** 2 + 4 * p.b)
            radius = 2.0 / max(abs((1 - p.b) * x + disc), abs((1 - p.b) * x - disc))
        t = s * radius * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        return Op(kind, (klass, t, x, p, 80))
    # Exact continued fractions get positive partial numerators and
    # denominators: with small rationals a truncation can otherwise hit an
    # exact pole.  ram_Q compares polynomials and divides by nothing.
    if kind == "entry16.exact":
        return Op(kind, (_size(i, 0, 12), _frac(rng, 1, 6, 2, 9), _frac(rng, 1, 8, 9, 20)), exact=True)
    if kind == "ram_Q.exact":
        x, a = _frac(rng, -9, 9, 2, 9), _frac(rng, -4, 4, 5, 9)
        return Op(kind, (_size(i, 1, 16), x, a, _frac(rng, -5, 5, 2, 7), _frac(rng, 1, 7, 8, 15)), exact=True)
    if kind == "hirschhorn_closed.exact":
        p = Params(_frac(rng, 1, 7, 8, 15), _frac(rng, 0, 4, 5, 9), _frac(rng, 0, 4, 5, 9), _frac(rng, 1, 5, 2, 7))
        return Op(kind, (p, _size(i, 2, 10)), exact=True)
    raise KeyError(kind)


# Deck composition: (kind, input class, count).  The counts set each kind's
# share of a pass (measured on a 2-vCPU x86 VM at the commit that introduced
# the benchmark) so that no one layer hides the others: in ``spectral`` the
# three Gram ops take about a third of the time, series-driven density,
# Stieltjes, moment and b = 0 ops most of the rest; in ``recurrence`` deep
# float loops take about half, exact ops about a third.  They also put the
# median op in the middle of one cluster of similar ops (density in
# ``spectral``; exact entry16, ram_Q and moderate-depth convergents in
# ``recurrence``), so that it does not jump between clusters.
DECKS = {
    "spectral": (
        ("density", None, 288),
        ("density", "a0", 48),
        ("density", "mass", 48),
        ("stieltjes", None, 72),
        ("stieltjes", "a0", 12),
        ("stieltjes", "mass", 12),
        ("moments", None, 100),
        ("moments", "overflow", 4),
        ("gram", None, 1),
        ("gram", "a0", 1),
        ("gram", "mass", 1),
        ("stieltjes_b0", None, 96),
        ("theta", None, 192),
        ("qpochhammer", None, 192),
        ("qpochhammer.exact", None, 104),
    ),
    "recurrence": (
        ("hirschhorn_cf", None, 32),
        ("convergent", None, 54),
        ("convergent", "large-x", 8),
        ("monic_ratio", None, 24),
        ("monic_ratio", "mass", 8),
        ("hirschhorn_closed", None, 22),
        ("entry16", None, 31),
        ("a0_closed", None, 25),
        ("entry15", None, 25),
        ("gf_eval", "P", 16),
        ("gf_eval", "D", 16),
        ("entry16.exact", None, 52),
        ("ram_Q.exact", None, 64),
        ("hirschhorn_closed.exact", None, 36),
    ),
}


def make_deck(workload: str, seed: int) -> list[Op]:
    """The seeded op list of a warm workload, kinds interleaved round-robin."""
    rng = random.Random(f"{workload}:{seed}")
    groups = [[draw(rng, kind, klass, i) for i in range(count)] for kind, klass, count in DECKS[workload]]
    deck = []
    for i in range(max(map(len, groups))):
        deck.extend(g[i] for g in groups if i < len(g))
    return deck


def first_of_each_kind(deck: list[Op]) -> list[Op]:
    seen = {}
    for op in deck:
        seen.setdefault(op.kind, op)
    return list(seen.values())
