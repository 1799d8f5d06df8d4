"""Three-term recurrence engine for the continued-fraction polynomial families.

A J-fraction

    A_0 / (A_0 x + B_0) - C_1 / (A_1 x + B_1) - C_2 / (A_2 x + B_2) - ...

has numerator and denominator polynomials ``N_k(x)``, ``D_k(x)`` that both
satisfy ``y_{k+1} = (A_k x + B_k) y_k - C_k y_{k-1}`` with seeds
``D_0 = 1, D_1 = A_0 x + B_0`` and ``N_0 = 0, N_1 = A_0``.  Every built-in
family has levels of one shape, ``(A, B q^k, C0 + C1 q^k)``:

* the base family ``A_k = 1 - b, B_k = a q^k, C_k = -(b + lam q^k)``,
* its ``b = 0`` specialization ``A_k = 1, B_k = a q^k, C_k = -lam q^k``
  (denominators Q_k, numerators Q*_k),
* the Rogers-Ramanujan-type family (``a = 0`` inside the b = 0 one), whose
  conventional convergent index counts tail terms and is one less than the
  recurrence index, and
* the monic family below.

The monic rescaling ``P_k(x) = D_k(gamma x) / (gamma^k (1 - b)^k)`` with
``gamma^2 = -4b / (1 - b)^2`` turns the base family into

    x P_k = P_{k+1} + alpha_k P_k + beta_k P_{k-1},
    alpha_k = c q^k,  beta_k = (1 + lam q^k / b) / 4,  c = a / (2 sqrt(-b)),

which is a Nevai-class recurrence (alpha_k -> 0, beta_k -> 1/4) whenever
``b < 0`` and every ``beta_k`` is positive.  It is the J-fraction with
``A_k = 1, B_k = -alpha_k, C_k = beta_k`` (:func:`monic_family`): P_k is its
D solution and the numerator polynomials P*_k its N solution.

Each built-in family is described by its constants ``(A, B, C0, C1, q)``
alone, the ``constants`` field of its :class:`JFamily`: its levels are the
level generator :func:`_affine` of them, which steps q^k by a running
product, and its ``coeffs(k)`` is the k-th triple of a fresh generator.
Both convergent routes read a family through one reader, :func:`_read`,
which calls ``constants()`` once and says whether x and the constants are
all rational.  The forward route has two loops, one per kind of arithmetic:

* exact runs run on integers (below);
* float, complex, mixed and other scalar runs (mpmath, say) form
  A x + B q^k and C0 + C1 q^k inline from one running q^k, with no
  generator and no level tuples (:func:`_run_affine`).

It needs the constants: :func:`run_jfraction` (and so ``cfrac.convergent``)
raises DomainError on a family built from ``coeffs`` alone.  The backward
route forms the same levels inline (``cfrac._backward_affine``, which keeps
no ledger) and reads a family without constants one ``coeffs`` call per
level into ``cfrac.eval_backward``.

The forward loop advances N and D together.  Float and complex runs (the
type of ``D_1`` decides) keep one power-of-two exponent ledger for both
solutions: a pair past 2^512 is scaled below 1/8 by a power of two, which
changes no value short of underflow, so where the ledger is checked moves
no value.  It is checked at the start of each chunk of levels.  For
|q| <= 1 every level multiplies the larger of |y_k|, |y_(k-1)| by at most
g = (|A x| + |B| + |C0| + |C1|)(1 + 1e-9), so a chunk of
max(1, floor(500 / max(1, log2 g))) levels that starts with all four values
at or below 2^512 keeps them below 2^1012.  A bound that is NaN, overflows
or reaches 2^400, or one with |q| > 1, bounds nothing (possible through the
public ``constants`` field): such a run takes one level per chunk and checks
its pair against 0 instead of 2^512, so a nonzero pair is scaled below 1/8,
down or up, before every level.  One step from there cannot leave the
double range while each component of A x + B q^k and C0 + C1 q^k is a
finite double, as each component of lin n_1 - C n_0 then stays below
2^1023.  The depth-1 run is the loop with no level to step.  Any other run,
a Fraction or mpmath one say, is one chunk and never rescaled.  Every value
is the one a loop checking the ledger at every level gives, bit for bit
short of underflow in a rescaled mantissa; the tests keep that loop as
their reference.  A run with no growth bound also keeps a full mantissa
where its values fall below the normal double range, which that loop steps
in subnormal arithmetic: there the two may differ in the last bits of a
subnormal value, which this one rounds once, and in the sign of a zero.

Exact runs of a built-in family run on integers.  When x and every
constant are rational (an int or a Fraction), :func:`_integer_levels` reads
A x + B q^k and C0 + C1 q^k from the integer rule of :mod:`qfraclab.qseries`
(``_qterms``), one call each, and scales each by the other's denominator.
With q = u/v, level k times W_k = delta v^k is then the pair of integers
(lin_k, c_k), delta being the product of the denominators of A x, B, C0
and C1; both convergent routes read it.  The forward route steps
Y_(k+1) = lin_k Y_k - c_k W_(k-1) Y_(k-1), so that
y_k = Y_k / (delta^k v^C(k,2)), and builds one reduced Fraction per
returned value (:func:`_run_exact`); the backward route of
:mod:`qfraclab.cfrac` reduces once at the end.  The results have the
values and types of the Fraction loop: ``N_0 = 0`` and ``D_0 = 1`` as ints,
``N_1 = A`` as the family gives it, and Fractions after that.

Precision follows the scalar type.  A run keeps the arithmetic of its
values: the square roots of :class:`Params` use ``math`` for floats and
rationals, as the float results' bits require, and an mpmath value's own
``context``, read by attribute, so that the package imports no mpmath.
Every finiteness test (of x on entry, of :func:`run_monic`'s values and of
:func:`monic_ratio`) is ``cmath``'s, and where that fails, the context's,
so that a float or complex run does no more work than before.  An mpmath run (its D_1
is neither float nor complex) is one unscaled chunk at the working
precision, with no double range: it returns values past 2^1024.  With mpf
parameters at 80 and 460 digits it is the loop the acceptance suite's
Markov and asymptotics criteria step.
"""

from __future__ import annotations

import cmath
import math
from itertools import islice
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from .errors import DomainError, PoleError, RangeError
from .qseries import _brief, _num_den, _qterms, _rational, _require_double, _require_finite

__all__ = [
    "Params",
    "JCoeffs",
    "JFamily",
    "ConvergentSeq",
    "hirschhorn_family",
    "b0_family",
    "entry16_family",
    "run_jfraction",
    "monic_family",
    "monic_alpha",
    "monic_beta",
    "run_monic",
    "monic_ratio",
]


_set = object.__setattr__


class Params:
    """Parameter quadruple (q, a, b, lam) plus the derived constants.

    Immutable: instances compare and hash as the tuple of their fields,
    print like a dataclass, pickle and copy through the constructor, and
    raise AttributeError on assignment.  A plain ``__slots__`` class keeps
    ``dataclasses`` (and the ``inspect`` it loads) off the import path.

    ``gamma`` and ``c`` require real parameters and ``b < 0``; a field of a
    complex type (Python ``complex`` or an mpmath ``mpc``, even with a zero
    imaginary part) raises DomainError.  Their square root is taken in the
    arithmetic of b: ``math.sqrt`` for a float, int or Fraction (a float
    result), and the context's ``sqrt`` for an mpmath value, so that mpf
    parameters give ``gamma`` and ``c`` at the working precision.  Only
    ``gamma^2 = -4b/(1-b)^2`` is forced; with ``c = a / (2 sqrt(-b))`` taken
    positive, the sign of ``gamma`` is pinned by requiring the rescaling
    ``P_k(x) = D_k(gamma x) / (gamma^k (1-b)^k)`` to land on the
    ``alpha_k = +c q^k`` monic family (seeds 1, x - c), which needs the
    negative square root.  The opposite sign merely reflects the family,
    ``P_k -> (-1)^k P_k(-x)``.

    ``c`` and a passed :meth:`require_monic` are cached in two private slots
    on first success, so per-level callers pay for them once; invalid
    parameters raise DomainError on every access.
    """

    __slots__ = ("q", "a", "b", "lam", "_c", "_monic")

    def __init__(self, q: float, a: float, b: float, lam: float):
        if not 0 < abs(q) < 1:
            raise DomainError("Params require 0 < |q| < 1")
        if b == 1:
            raise DomainError("b = 1 zeroes every linear coefficient A_k")
        for name, value in (("a", a), ("b", b), ("lam", lam)):
            _require_finite(f"Params require finite {name}", value)
        _set(self, "q", q)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "lam", lam)

    _values = property(attrgetter("q", "a", "b", "lam"))  # the fields, as a tuple

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen Params")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen Params")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return "Params(q={!r}, a={!r}, b={!r}, lam={!r})".format(*self._values)

    def __reduce__(self):
        return Params, self._values

    def _require_real(self, what: str) -> None:
        # the sum is of a complex type (complex, or an mpmath mpc) exactly when some field is
        total = self.q + self.a + self.b + self.lam
        context = getattr(total, "context", None)
        if isinstance(total, complex if context is None else context.mpc):
            raise DomainError(f"{what} requires real q, a, b and lam, got {self!r}")

    @property
    def gamma(self) -> float:
        self._require_real("gamma")
        if not self.b < 0:
            raise DomainError("gamma is real only for b < 0")
        return -2.0 * _sqrt(-self.b) / (1.0 - self.b)

    @property
    def c(self) -> float:
        try:
            return self._c
        except AttributeError:
            pass
        self._require_real("c")
        if not self.b < 0:
            raise DomainError("c is real only for b < 0")
        c = self.a / (2.0 * _sqrt(-self.b))
        _set(self, "_c", c)
        return c

    def require_monic(self) -> "Params":
        """Validate the monic-family hypotheses: b < 0 and beta_k > 0 for all k >= 1.

        beta_k = (1 + r q^(k-1)) / 4 with r = lam q / b, and |r q^(k-1)|
        falls strictly with k, so the least beta_k is beta_1 or beta_2 (the
        latter when q < 0 flips the sign of the term); those two are
        checked.  A complex q, a, b or lam raises DomainError.
        """
        if hasattr(self, "_monic"):
            return self
        self._require_real("monic family")
        if not self.b < 0:
            raise DomainError("monic family requires b < 0")
        r = self.lam * self.q / self.b
        if not 1 + r > 0:
            raise DomainError(f"beta_1 <= 0: 1 + lam q^1/b = {1 + r}")
        if not 1 + r * self.q > 0:
            raise DomainError(f"beta_2 <= 0: 1 + lam q^2/b = {1 + r * self.q}")
        _set(self, "_monic", True)
        return self


def _sqrt(v):
    """The square root of ``v >= 0`` in v's own arithmetic (see the module docstring)."""
    return getattr(v, "context", math).sqrt(v)


class JCoeffs(NamedTuple):
    """Level-k coefficient triple of a J-fraction.  C is unused at k = 0."""

    A: complex
    B: complex
    C: complex


class JFamily(NamedTuple):
    """A J-fraction family: its level triples ``(A_k, B_k, C_k)`` for k = 0, 1, 2, ...

    ``coeffs(k)`` gives level k.  ``constants``, when given, returns the
    family's ``(A, B, C0, C1, q)``, and then describes it alone: its levels
    are ``(A, B q^k, C0 + C1 q^k)``, which both convergent routes form inline
    without a Python call per level, or, when x and the constants are all
    rational, on integers (see the module docstring).  The built-in families
    set ``coeffs`` from it too (see :func:`_family`).  A family built from
    ``coeffs`` alone has no forward route; the backward route reads it one
    call per level.

    ``index_shift`` maps the family's conventional convergent index onto the
    recurrence index (1 for the Rogers-Ramanujan-type family, whose n-th
    convergent ends at the ``lam q^n`` tail term and equals
    ``N_{n+1}/D_{n+1}`` of the recurrence).
    """

    name: str
    coeffs: Callable[[int], JCoeffs]
    index_shift: int = 0
    constants: Optional[Callable[[], tuple]] = None


def _read(family: JFamily, x) -> tuple:
    """(constants, exact): how both convergent routes read ``family`` at ``x``.

    ``constants()`` is called once, so a family's hypotheses (b = 0 for
    :func:`b0_family`, :meth:`Params.require_monic`) are checked there;
    ``constants`` is None for a family without them, which only the backward
    route reads, through ``coeffs`` once per level.  ``exact`` says whether
    x and the constants are all rational, so whether the integer route
    applies.
    """
    if family.constants is None:
        return None, False
    constants = family.constants()
    return constants, _rational(x) and all(map(_rational, constants))


def _affine(A, B, C0, C1, q):
    """The level triples ``(A, B q^k, C0 + C1 q^k)`` for k = 0, 1, 2, ...; q^k is a
    running product from ``q**0``, which keeps level 0 in the type of every later level."""
    qk = q**0
    while True:
        yield A, B * qk, C0 + C1 * qk
        qk *= q


def _family(name: str, constants) -> JFamily:
    """A built-in family from ``constants()``, which returns its (A, B, C0, C1, q)
    (or raises where the family's hypotheses fail): its ``coeffs(k)`` is the k-th
    triple of a fresh :func:`_affine` of them."""
    return JFamily(name, lambda k: JCoeffs(*next(islice(_affine(*constants()), k, None))), constants=constants)


def hirschhorn_family(p: Params) -> JFamily:
    """Base family: A_k = 1 - b, B_k = a q^k, C_k = -(b + lam q^k)."""
    return _family("hirschhorn", lambda: (1 - p.b, p.a, -p.b, -p.lam, p.q))


def b0_family(p: Params) -> JFamily:
    """b = 0 family: A_k = 1, B_k = a q^k, C_k = -lam q^k; denominators Q_k
    (Q_0 = 1, Q_1 = x + a), numerators Q*_k (Q*_0 = 0, Q*_1 = 1).

    It builds for any ``p``; b != 0 raises DomainError at the first use.
    """

    def constants():
        if p.b != 0:
            raise DomainError("b0 family requires b = 0")
        return 1, p.a, 0, -p.lam, p.q

    return _family("b0", constants)


def entry16_family(lam, q) -> JFamily:
    """Rogers-Ramanujan-type family (a = 0, b = 0), used at x = 1."""
    return b0_family(Params(q, 0, 0, lam))._replace(name="entry16", index_shift=1)


def _monic_constants(p: Params) -> tuple:
    """The constants of :func:`monic_family`, after :meth:`Params.require_monic`."""
    p.require_monic()
    return 1, -p.c, 0.25, p.lam / p.b / 4, p.q


def monic_family(p: Params) -> JFamily:
    """Monic family: A_k = 1, B_k = -alpha_k = -c q^k, C_k = beta_k = 1/4 + (lam/b)/4 q^k;
    P_k is its D solution and P*_k its N solution.  The parameters must pass
    :meth:`Params.require_monic`, checked at the first use."""
    return _family("monic", lambda: _monic_constants(p))


def _integer_levels(constants, x, n: int) -> tuple:
    """(levels, v): levels 0..n-1 of ``(A, B q^k, C0 + C1 q^k)`` at x, on integers.

    x and the constants are rational, and q = u/v.  Two calls of the integer
    rule give A x + B q^k over d_lin v^k and C0 + C1 q^k over d_c v^k, and
    each is scaled by the other's d: entry k of ``levels`` is
    (lin_k, c_k, W_k) with W_k = d_lin d_c v^k, lin_k = W_k (A x + B q^k) and
    c_k = W_k (C0 + C1 q^k), unreduced.  Both convergent routes read it.
    """
    A, B, C0, C1, q = constants
    lins, dens = _qterms(A * x, B, q, n)
    cs, c_dens = _qterms(C0, C1, q, n)
    d_lin, d_c = dens[0], c_dens[0]
    return [(t * d_c, c * d_lin, w * d_c) for t, c, w in zip(lins, cs, dens)], _num_den(q)[1]


class ConvergentSeq:
    """Paired numerator/denominator value sequences of a J-fraction at x.

    ``N[k] / D[k]`` is the k-th convergent; the Casoratian
    ``N_{k+1} D_k - N_k D_{k+1}`` telescopes to ``A_0 prod_{j<=k} C_j``.
    """

    __slots__ = ("N", "D", "x")

    def __init__(self, N: list, D: list, x):
        self.N, self.D, self.x = N, D, x

    def ratio(self, k: int):
        if self.D[k] == 0:
            raise PoleError(f"D_{k}(x) = 0 at x = {self.x}", level=k)
        return self.N[k] / self.D[k]


_LEDGER_LIMIT = 2.0**512  # a value past it (in modulus) triggers a rescale
_CHUNK_BITS = 500  # growth allowed within one chunk: from 2^512 to below 2^1012
_BOUND_LIMIT = 2.0**400  # a growth bound at or past it bounds nothing: one level per chunk


def _exponent(v) -> int:
    """Binary exponent of the largest component of ``v`` (0 for zero)."""
    if isinstance(v, complex):
        return max(math.frexp(v.real)[1], math.frexp(v.imag)[1])
    return math.frexp(v)[1]


def _require_depth(depth: int) -> None:
    if depth < 1:
        raise DomainError(f"a recurrence run requires depth >= 1, got {depth}")


def _scaled(n0, n1, d0, d1, e: int) -> tuple:
    """The pair scaled below 1/8 by a power of two 2^-k, and its ledger exponent e + k."""
    k = max(map(_exponent, (n0, n1, d0, d1))) + 3
    s = 2.0**-k
    return n0 * s, n1 * s, d0 * s, d1 * s, e + k


def _run_affine(constants, x, depth: int):
    """N and D of the J-fraction whose levels are ``(A, B q^k, C0 + C1 q^k)`` for
    ``constants``, to ``depth``, as mantissa lists and their shared exponent
    list ``E`` (all zero for an unscaled run).  The levels are formed inline
    from one running q^k, and the exponent ledger is checked at the start of
    each chunk of levels; a run with no growth bound takes one level per
    chunk and scales its pair below 1/8 before each (see the module
    docstring)."""
    _require_depth(depth)
    _require_finite("x must be finite", x)
    A, B, C0, C1, q = constants
    qk = q**0
    B0 = B * qk
    _require_double("x", x, A, B0)
    Ax = A * x
    d1 = Ax + B0
    scaled = isinstance(d1, (float, complex))
    chunk, limit = depth - 1, _LEDGER_LIMIT  # an unscaled run is one chunk
    if scaled:
        try:
            g = (abs(Ax) + abs(B) + abs(C0) + abs(C1)) * (1 + 1e-9)
        except OverflowError:  # a modulus or a rational past the double range
            g = math.inf
        if g < _BOUND_LIMIT and abs(q) <= 1:
            chunk = _CHUNK_BITS if g <= 2 else int(_CHUNK_BITS / math.log2(g))
        else:  # g NaN, too large or from |q| > 1 bounds nothing: a nonzero pair is scaled before each level
            chunk, limit = 1, 0
    n0, n1, d0 = 0, A, 1
    N, D, E = [n0, n1], [d0, d1], [0, 0]
    e = 0
    qk *= q
    left = depth - 1
    while left:
        if scaled:
            try:
                small = abs(n0) <= limit >= abs(n1) and abs(d0) <= limit >= abs(d1)
            except OverflowError:  # a complex modulus past the double range
                small = False
            if not small:
                n0, n1, d0, d1, e = _scaled(n0, n1, d0, d1, e)
        steps = min(chunk, left)
        left -= steps
        try:
            for _ in range(steps):
                lin = Ax + B * qk
                C = C0 + C1 * qk
                n0, n1 = n1, lin * n1 - C * n0
                d0, d1 = d1, lin * d1 - C * d0
                N.append(n1)
                D.append(d1)
                qk *= q
        except OverflowError:  # a rational past the double range met a float level
            raise RangeError(f"the forward run at x = {_brief(x)} leaves the double range at level {len(D)}") from None
        E += [e] * steps
    return N, D, E


def _ldexp(m, e: int):
    """``m * 2**e`` for a float or complex mantissa; infinite past the double range."""
    if isinstance(m, complex):
        return complex(_ldexp(m.real, e), _ldexp(m.imag, e))
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _values(M: list, E: list) -> list:
    """The values ``M[k] * 2**E[k]`` of one solution of :func:`_run_affine`."""
    if not any(E):
        return M
    return [m if e == 0 else _ldexp(m, e) for m, e in zip(M, E)]


def _run_exact(constants, x, depth: int) -> ConvergentSeq:
    """:func:`run_jfraction` on integers (see the module docstring): D_k = Y_k / S_k
    and N_k = A Z_k / S_k with S_k = W_0 ... W_(k-1), one reduced Fraction each."""
    # imported here, so that importing the module (as the CLI does) does not
    # load fractions and decimal; a rational q has loaded them already
    from fractions import Fraction

    _require_depth(depth)
    A = constants[0]
    a_num, a_den = _num_den(A)
    levels, _ = _integer_levels(constants, x, depth)
    lin, _, w = levels[0]
    y0, y1, z0, z1, s = 1, lin, 0, w, w
    N, D = [0, A], [1, Fraction(y1, s)]
    for lin, c, w_next in levels[1:]:
        cw = c * w  # c_k W_(k-1)
        y0, y1 = y1, lin * y1 - cw * y0
        z0, z1 = z1, lin * z1 - cw * z0
        w = w_next
        s *= w
        N.append(Fraction(a_num * z1, a_den * s))
        D.append(Fraction(y1, s))
    return ConvergentSeq(N, D, x)


def run_jfraction(family: JFamily, x, depth: int) -> ConvergentSeq:
    """Unroll the J-fraction recurrence to ``depth``, seeding both solutions.

    Exact, on integers, when x and the family's constants are rational; float
    values past the double range come back infinite, and a rational x or
    value too large for a double meeting float levels raises RangeError.  A
    family without constants raises DomainError.
    """
    constants, exact = _read(family, x)
    if exact:
        return _run_exact(constants, x, depth)
    if constants is None:
        raise DomainError(f"the forward route reads a family through its constants; {family.name!r} has none")
    N, D, E = _run_affine(constants, x, depth)
    return ConvergentSeq(_values(N, E), _values(D, E), x)


def monic_alpha(p: Params, k: int) -> float:
    """alpha_k = c q^k in closed form, O(1) for any k."""
    return p.c * p.q**k


def monic_beta(p: Params, k: int) -> float:
    """beta_k = (1 + lam q^k / b) / 4 in closed form, O(1) for any k."""
    return (1 + p.lam * p.q**k / p.b) / 4


def run_monic(p: Params, x, depth: int) -> list:
    """The monic orthogonal polynomials P_0 = 1, P_1 = x - c, ..., P_depth at ``x``,
    from ``x P_k = P_{k+1} + alpha_k P_k + beta_k P_{k-1}``.

    A float or complex run with a value past the double range raises
    RangeError, and so does a rational x too large for a double; an mpmath
    run has no such range.  The numerator solution P*_k is
    ``run_jfraction(monic_family(p), x, depth).N``.
    """
    _, D, E = _run_affine(_monic_constants(p), x, depth)
    vals = _values(D, E)
    # cmath first, so that a float or complex run pays no more; where it fails, the
    # test of the run's own arithmetic, read once from its last value, decides
    if not all(map(cmath.isfinite, vals)) and not all(map(getattr(vals[-1], "context", cmath).isfinite, vals)):
        raise RangeError(f"P({_brief(x)}) leaves the double range by depth {depth}")
    return vals


def monic_ratio(p: Params, x, depth: int):
    """Markov-limit ratio ``Pstar_depth(x) / P_depth(x)`` from one scaled run;
    both solutions share the exponent ledger, so their mantissas give the ratio."""
    N, D, _ = _run_affine(_monic_constants(p), x, depth)
    if D[depth] == 0:
        raise PoleError(f"P_{depth}(x) = 0 at x = {x}", level=depth)
    ratio = N[depth] / D[depth]
    if not cmath.isfinite(ratio) and not getattr(ratio, "context", cmath).isfinite(ratio):
        raise RangeError(f"Pstar_{depth}/P_{depth} at x = {_brief(x)} leaves the double range")
    return ratio
