"""The reference the convergent routes' tests compare against.

``_run`` is the generic forward loop: it reads a J-fraction one level triple
at a time and checks the exponent ledger at every level, where the package's
one forward loop (``recurrence._run_affine``) forms the levels inline and
checks the ledger once per chunk of levels.  Rescaling by a power of two is
exact, so the two give the same values short of underflow in a rescaled
mantissa, and the tests ask for them bit for bit.  The backward reference is
``cfrac.eval_backward`` on the level lists, which ``backward_convergent``
still takes for a family built from ``coeffs`` alone (:func:`coeffs_only`).
"""

from itertools import count, islice

from qfraclab.cfrac import _level_count
from qfraclab.errors import QFracError
from qfraclab.qseries import _require_double, _require_finite
from qfraclab.recurrence import (
    _LEDGER_LIMIT,
    ConvergentSeq,
    JFamily,
    _affine,
    _exponent,
    _require_depth,
    _values,
)


def _run(levels, x, depth: int):
    """The generic recurrence loop: N and D of the J-fraction whose level triples
    ``levels`` yields, to ``depth``, as mantissa lists and their shared
    exponent list ``E`` (all zero for Fraction and int runs)."""
    _require_depth(depth)
    _require_finite("x must be finite", x)
    A, B, _ = next(levels)
    _require_double("x", x, A, B)
    n0, n1, d0, d1 = 0, A, 1, A * x + B
    N, D, E = [n0, n1], [d0, d1], [0, 0]
    scaled = isinstance(d1, (float, complex))
    e = 0
    for A, B, C in islice(levels, depth - 1):
        lin = A * x + B
        nn, dn = lin * n1 - C * n0, lin * d1 - C * d0
        if scaled:
            try:
                small = abs(nn) <= _LEDGER_LIMIT >= abs(dn)
            except OverflowError:  # a complex modulus past the double range
                small = False
            if not small:
                k = max(map(_exponent, (n0, n1, d0, d1))) + 3
                s = 2.0**-k
                n0, n1, d0, d1 = n0 * s, n1 * s, d0 * s, d1 * s
                nn, dn = lin * n1 - C * n0, lin * d1 - C * d0
                e += k
        n0, n1, d0, d1 = n1, nn, d1, dn
        N.append(nn)
        D.append(dn)
        E.append(e)
    return N, D, E


def coeffs_only(fam: JFamily, depth: int) -> JFamily:
    """``fam`` without its constants, over its first level triples (those of one
    run of the level generator ``_affine``): a family read one call per level."""
    levels = list(islice(_affine(*fam.constants()), depth + 2))
    return JFamily(fam.name, levels.__getitem__, fam.index_shift)


def run_jfraction(fam: JFamily, x, depth: int) -> ConvergentSeq:
    """``run_jfraction`` by :func:`_run` over ``fam.coeffs``."""
    N, D, E = _run(map(fam.coeffs, count()), x, depth)
    return ConvergentSeq(_values(N, E), _values(D, E), x)


def convergent(fam: JFamily, x, n: int):
    """``cfrac.convergent`` by :func:`_run` over ``fam.coeffs``."""
    _require_finite("x must be finite", x)
    m = _level_count(fam, n)
    return 0 if m == 0 else run_jfraction(fam, x, m).ratio(m)


def _typed(v):
    """``v`` with its type; a float or complex by its bits, so NaN and -0.0 compare too."""
    if isinstance(v, float):
        return float, v.hex()
    if isinstance(v, complex):
        return complex, v.real.hex(), v.imag.hex()
    return type(v), v


def outcome(route, *args):
    """The typed value of ``route(*args)`` (both solutions of a ConvergentSeq), or
    the QFracError it raises, with its message and level."""
    try:
        v = route(*args)
    except QFracError as exc:
        return type(exc), str(exc), getattr(exc, "level", None)
    if isinstance(v, ConvergentSeq):
        return [_typed(u) for u in v.N], [_typed(u) for u in v.D]
    return _typed(v)
