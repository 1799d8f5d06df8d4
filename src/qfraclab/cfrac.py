"""Continued-fraction evaluation.

Two independent routes to the same convergent: the forward three-term
recurrence (ratio ``N_n / D_n`` from :mod:`qfraclab.recurrence`) and
backward evaluation of the truncated fraction from its innermost level.
They must agree to rounding, which is the main cross-check used throughout
the test suite.  Both read a family through the same reader,
:func:`qfraclab.recurrence._read`, which calls its ``constants()`` once,
and both have two routes for a family with constants: the integer route
(below) and the inline one.  On a float, complex or mixed run, the backward
route forms A x + B q^k and C0 + C1 q^k inline (:func:`_backward_affine`):
the running q^k of the level generator is stored on the way in, and each
level does the operations of :func:`eval_backward` on the level lists, in
their order, so the value is bit for bit the one those lists give; it needs
no exponent ledger.  A family built from ``coeffs`` alone (the benchmark's
monic family is one) has no forward route, and :func:`convergent` raises
DomainError on it; :func:`backward_convergent` reads it one ``coeffs`` call
per level into :func:`eval_backward`.  The base fraction
:func:`hirschhorn_cf` is the backward route on the base family; it has no
level loop of its own.

Exact runs of a built-in family run on integers: when x and the family's
constants are all rational, level k times W_k = delta v^k, with q = u/v, is
the pair of integers (lin_k, c_k) of ``recurrence._integer_levels``, which
reads the integer rule of :mod:`qfraclab.qseries`.  The backward route keeps
t = P/Q and steps (P, Q) -> (lin_(k-1) v P - c_k Q, W_k P), which keeps Q's
growth to one factor W_k per level.  It raises PoleError at the same level
and with the same message as :func:`eval_backward` when P = 0, and builds
one Fraction, reduced once, at the end: A Q / P for
:func:`backward_convergent` and Q / P for :func:`hirschhorn_cf`, whose
leading numerator A = 1 - b and final division by 1 - b cancel.  The result
is a Fraction, as the Fraction loop gives.
"""

from __future__ import annotations

from itertools import count, islice

from .errors import DomainError, PoleError
from .qseries import _num_den, _require_double, _require_finite
from .recurrence import JFamily, Params, _integer_levels, _read, hirschhorn_family, run_jfraction

__all__ = ["eval_backward", "backward_convergent", "convergent", "hirschhorn_cf"]


def eval_backward(partial_numers, partial_denoms, depth: int):
    """Evaluate ``b_0 + a_1/(b_1 + a_2/(b_2 + ... + a_depth/b_depth))``.

    ``partial_denoms`` holds ``b_0..b_depth`` and ``partial_numers`` holds
    ``a_1..a_depth``.  Evaluation runs from the innermost level outward; a
    vanishing intermediate denominator raises PoleError carrying the level
    at which the division failed.
    """
    if depth < 1:
        raise DomainError("eval_backward requires depth >= 1")
    if len(partial_denoms) < depth + 1:
        raise DomainError("need partial denominators b_0..b_depth")
    if len(partial_numers) < depth:
        raise DomainError("need partial numerators a_1..a_depth")
    t = partial_denoms[depth]
    for lvl in range(depth, 0, -1):
        if t == 0:
            raise _pole(lvl)
        t = partial_denoms[lvl - 1] + partial_numers[lvl - 1] / t
    return t


def _pole(lvl: int) -> PoleError:
    return PoleError(f"zero denominator at level {lvl}", level=lvl)


def _backward_exact(constants, x, m: int, lead):
    """``lead / t_1`` as one Fraction, reduced once, where t_1 = P / Q is the
    outermost denominator of the m-level fraction (whose value is A / t_1),
    stepped on integers from the innermost level; see the module docstring."""
    # imported here, so that importing the module (as the CLI does) does not
    # load fractions and decimal; a rational q has loaded them already
    from fractions import Fraction

    levels, v = _integer_levels(constants, x, m)
    P, _, Q = levels[-1]  # t_m = lin_(m-1) / W_(m-1)
    for k in range(m - 1, 0, -1):  # t_k = lin_(k-1) / W_(k-1) - (c_k / W_k) / t_(k+1)
        if P == 0:
            raise _pole(k + 1)
        _, c, w = levels[k]
        P, Q = levels[k - 1][0] * v * P - c * Q, w * P
    if P == 0:
        raise _pole(1)
    num, den = _num_den(lead)
    return Fraction(num * Q, den * P)


def _backward_affine(constants, x, m: int):
    """:func:`eval_backward` of the m-level fraction whose levels are
    ``(A, B q^k, C0 + C1 q^k)``, formed inline: q^k is the running product of
    :func:`qfraclab.recurrence._affine`, stored on the way in, and every
    operation is the one the level lists would give, in the same order."""
    A, B, C0, C1, q = constants
    qk = q**0
    _require_double("x", x, A, B * qk)
    Ax = A * x
    qks = [qk]
    for _ in range(m - 1):
        qk *= q
        qks.append(qk)
    powers = reversed(qks)
    qc = next(powers)
    t = Ax + B * qc  # the innermost denominator A x + B q^(m-1)
    for lvl, ql in zip(range(m, 1, -1), powers):  # t = (A x + B q^(lvl-2)) - C_(lvl-1) / t
        if t == 0:
            raise _pole(lvl)
        t = Ax + B * ql + -(C0 + C1 * qc) / t
        qc = ql
    if t == 0:
        raise _pole(1)
    return 0 + A / t


def _jfraction_levels(levels, x, m: int):
    """Partial numerators A_0, -C_1, ..., -C_{m-1} and denominators 0, A_k x + B_k
    of the level triples ``levels``, in one pass."""
    A, B, _ = next(levels)  # level 0 contributes A_0
    _require_double("x", x, A, B)
    nums, dens = [A], [0, A * x + B]
    for A, B, C in islice(levels, m - 1):
        nums.append(-C)
        dens.append(A * x + B)
    return nums, dens


def _level_count(family: JFamily, n: int) -> int:
    """Fraction levels of the n-th convergent: ``n + index_shift``, never negative."""
    m = n + family.index_shift
    if m < 0:
        raise DomainError(f"{family.name} convergents start at n = {-family.index_shift}, got n = {n}")
    return m


def backward_convergent(family: JFamily, x, n: int):
    """n-th convergent of ``family`` at ``x`` by backward evaluation.

    Independent of the recurrence route in :func:`convergent`; the family's
    ``index_shift`` maps its conventional convergent index onto the number
    of fraction levels.  Exact on rationals, on integers for a built-in
    family; a rational x too large for a double meeting float levels raises
    RangeError.
    """
    _require_finite("x must be finite", x)
    m = _level_count(family, n)
    if m == 0:
        return 0
    constants, exact = _read(family, x)
    if exact:
        return _backward_exact(constants, x, m, constants[0])
    if constants is None:
        return eval_backward(*_jfraction_levels(map(family.coeffs, count()), x, m), m)
    return _backward_affine(constants, x, m)


def convergent(family: JFamily, x, n: int):
    """n-th convergent of ``family`` at ``x`` via the recurrence: N_m(x)/D_m(x).

    A family without constants raises DomainError (see the module docstring).
    """
    _require_finite("x must be finite", x)
    m = _level_count(family, n)
    if m == 0:
        return 0
    return run_jfraction(family, x, m).ratio(m)


def hirschhorn_cf(p: Params, depth: int):
    """Base continued fraction, truncated at ``depth`` levels:

        1/(1-b+a) + (b+lam q)/(1-b+aq) + (b+lam q^2)/(1-b+aq^2) + ...

    read with an implicit leading term 0.  This is the x = 1 convergent of
    the base family divided by ``1 - b``, evaluated backward.  On rational
    parameters the family's leading numerator 1 - b and that division
    cancel, and the value is Q / P of the integer route, reduced once.  At
    ``b = 0`` it reduces to the x = 1 value of the fraction R(x) of the
    b = 0 family.  Pole errors from vanishing intermediate denominators
    propagate.
    """
    if depth < 1:
        raise DomainError("hirschhorn_cf requires depth >= 1")
    constants, exact = _read(hirschhorn_family(p), 1)
    if exact:
        return _backward_exact(constants, 1, depth, 1)
    return _backward_affine(constants, 1, depth) / (1 - p.b)
