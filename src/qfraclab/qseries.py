"""q-calculus kernel: Pochhammer symbols, theta products, and basic
hypergeometric partial sums.

Everything here is scalar and polymorphic over the numeric type of its
inputs: float/complex for the usual double-precision paths, and
``fractions.Fraction`` wherever the routine is a finite product or sum
(which is what the exact-rational checks in :mod:`qfraclab.convergents`
rely on).  Infinite sums and products are truncated under one fixed policy
(relative tolerance 1e-15, three small terms in a row, at most 10 000 terms;
see ``_REL_TOL``) and never silently: exhausting the term budget raises
:class:`~qfraclab.errors.TruncationError`.

Finite products and sums on rationals run on integers, by one rule.  With
x = s/t, y = c/d and q = u/v, the term x + y q^j is (s d v^j + c t u^j) over
D v^j with D = t d, for j = 0..n-1: two running powers of u and v (and the
running D v^j) and no division per entry.  :func:`_qterms` is that rule,
and no other loop of the package builds x + y q^j on integers: it gives the
factors of :func:`qpochhammer` (negated, as -1 + a q^j), the factors
1 - q^i of the (q; q)_m tables of :mod:`qfraclab.convergents`, the
x + a q^i of its finite products, and (in two calls) the levels A x + B q^k
and C0 + C1 q^k of both exact convergent routes of
:mod:`qfraclab.recurrence` and :mod:`qfraclab.cfrac`.  Each caller multiplies the unreduced integers and
builds one Fraction, reduced once, at the end.  ``(a; q)_n`` keeps the type
of the factor-by-factor product: the int 1 at n = 0, an int when ``a`` is
an int and so is ``q`` (or n = 1), and otherwise a Fraction, even when its
denominator is 1.

Conventions:

* ``(a; q)_n`` is the n-factor product ``prod_{j=0}^{n-1} (1 - a q^j)``,
  with the empty product equal to 1.
* Negative real bases ``q`` are permitted wherever ``0 < |q| < 1`` is; all
  convergence bounds use ``|q|``.
* A NaN or infinite argument raises :class:`~qfraclab.errors.DomainError`
  on entry, here and in every module of the package, instead of coming back
  as NaN or exhausting the term budget.  Every such check is
  :func:`_require_finite`, which counts a rational of any size as finite.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Iterator, Sequence

from .errors import DomainError, RangeError, TruncationError

__all__ = [
    "sum_series",
    "qpochhammer",
    "qpochhammer_inf",
    "theta",
    "phi",
]


# Truncation policy of every infinite sum and product: a sum stops once
# _SMALL_RUN successive terms t satisfy |t| <= _REL_TOL * (1 + |partial sum|)
# (several in a row, so that an isolated zero term, such as the alternating
# q^(k choose 2) powers produce, does not end it), and a product (a; q)_inf
# once |a q^k| < _REL_TOL for _SMALL_RUN successive k.  Reaching _MAX_TERMS
# terms or factors raises TruncationError.
_REL_TOL = 1e-15
_SMALL_RUN = 3
_MAX_TERMS = 10_000


def _rational(v) -> bool:
    """Whether ``v`` is an int or a Fraction (anything with a ``denominator``)."""
    return hasattr(v, "denominator")


def _require_finite(head: str, *values) -> bool:
    """The package's one argument check: raise DomainError
    ``"<head>, got <value>"`` at the first NaN or infinite value, and return
    whether every value is rational, so whether the exact route applies.

    Rationals are finite by construction and skipped, since converting a
    huge one to float overflows.
    """
    exact = True
    for v in values:
        if not _rational(v):
            exact = False
            if not cmath.isfinite(v):
                raise DomainError(f"{head}, got {v!r}")
    return exact


def _brief(v) -> str:
    """``str(v)`` for an error message, with the middle of a long one (a rational
    of hundreds of digits) elided, so that a message stays short for any x; a
    rational past the digit limit of int-to-str conversion is named by its size."""
    try:
        text = str(v)
    except ValueError:
        return f"<rational of {max(abs(v.numerator), v.denominator).bit_length()} bits>"
    return text if len(text) <= 40 else f"{text[:18]}...{text[-18:]}"


def _within_range(what: str, compute):
    """``compute()`` where it is rational or a finite double, else RangeError
    ``"<what> leaves the double range"``.  Both ways out of the range are
    caught: a float or complex power (or an int one meeting a float) raises
    OverflowError, and a finite power times a factor above 1 gives inf or NaN.
    A RangeError raised inside ``compute()`` names its own cause and passes
    through unchanged."""
    try:
        value = compute()
        if _rational(value) or cmath.isfinite(value):
            return value
    except RangeError:
        raise
    except OverflowError:
        pass
    raise RangeError(f"{what} leaves the double range")


def _require_double(what: str, x, *values) -> None:
    """The one check of a rational meeting a double where x is not converted up
    front: RangeError ``"<what> leaves the double range"`` when a rational
    ``x`` too large for a double meets a float or complex among ``values``,
    whose arithmetic would convert it and raise a bare OverflowError.  x
    itself is left as it is, so a rational inside the range keeps its bits
    and one meeting only rationals stays exact.  Only a rational beyond the
    largest double can fail to convert, and the comparison with it is exact."""
    if _rational(x) and abs(x) > sys.float_info.max and not all(map(_rational, values)):
        _within_range(what, lambda: float(x))


def sum_series(terms: Iterator, what: str = "series"):
    """Sum an iterable of terms under the module's truncation policy.

    Terminating series may simply exhaust the iterator; infinite ones must
    meet the smallness criterion within ``_MAX_TERMS`` terms.
    """
    total = 0
    small = 0
    count = 0
    inf = float("inf")
    for term in terms:
        count += 1
        at = abs(term)
        if at != at or at == inf:  # overflow masquerades as convergence otherwise
            raise TruncationError(f"{what} diverged (nonfinite term at index {count - 1})")
        total += term
        if at <= _REL_TOL * (1.0 + abs(total)):
            small += 1
            if small >= _SMALL_RUN:
                return total
        else:
            small = 0
        if count >= _MAX_TERMS:
            raise TruncationError(f"{what} did not converge within {_MAX_TERMS} terms")
    return total


def _num_den(x) -> tuple:
    """The numerator and denominator of a rational, as ints."""
    return int(x.numerator), int(x.denominator)


def _qterms(x, y, q, n: int) -> tuple:
    """(tops, bottoms): x + y q^j = tops[j] / bottoms[j] for j = 0..n-1, on integers.

    The package's one integer rule (see the module docstring): with x = s/t,
    y = c/d and q = u/v, tops[j] = s d v^j + c t u^j and bottoms[j] = D v^j,
    D = t d, from running powers and unreduced.
    """
    s, t = _num_den(x)
    c, d = _num_den(y)
    u, v = _num_den(q)
    xv, yu, dv = s * d, c * t, t * d
    tops, bottoms = [], []
    for _ in range(n):
        tops.append(xv + yu)
        bottoms.append(dv)
        xv, yu, dv = xv * v, yu * u, dv * v
    return tops, bottoms


def qpochhammer(a, q, n: int):
    """Finite q-shifted factorial ``(a; q)_n = prod_{j=0}^{n-1} (1 - a q^j)``.

    ``n = 0`` returns the int 1.  When ``a`` and ``q`` are both rational (int
    or Fraction), the value is exact and computed on integers: with a = s/t
    and q = u/v it is prod_j (t v^j - s u^j) over t^n v^C(n, 2) (from
    :func:`_qterms`), reduced once into one Fraction.  The result has the
    type the factor-by-factor product would have: an int when ``a`` is an
    int and so is ``q`` (or n = 1, where q does not enter), else a Fraction,
    even with denominator 1.  Float, complex and mixed arguments are
    multiplied factor by factor.
    """
    if n < 0:
        raise DomainError("qpochhammer requires n >= 0")
    if _require_finite("qpochhammer requires finite arguments", a, q) and n:
        # the terms -1 + a q^j are the factors negated, which spares negating a
        tops, bottoms = _qterms(-1, a, q, n)
        num = -math.prod(tops) if n % 2 else math.prod(tops)
        if isinstance(a, int) and (n == 1 or isinstance(q, int)):
            return num
        # imported here, so that float callers such as the CLI do not load
        # fractions and decimal at start-up
        from fractions import Fraction

        return Fraction(num, math.prod(bottoms))
    out = 1
    pw = 1  # q^j
    try:
        for _ in range(n):
            out *= 1 - a * pw
            pw *= q
    except OverflowError:  # a rational past the double range met a double
        _require_double("a", a, q)
        _require_double("q", q, a)
        raise
    return out


def qpochhammer_inf(a, q):
    """Infinite product ``(a; q)_inf`` for ``0 < |q| < 1``.

    The partial product is truncated once ``|a q^k| < _REL_TOL`` for
    ``_SMALL_RUN`` successive ``k``.
    """
    _require_finite("qpochhammer_inf requires finite arguments", a, q)
    if not 0 < abs(q) < 1:
        raise DomainError("qpochhammer_inf requires 0 < |q| < 1")
    out = 1
    term = a  # a q^k
    small = 0
    try:
        for _ in range(_MAX_TERMS):
            out *= 1 - term
            if abs(term) < _REL_TOL:
                small += 1
                if small >= _SMALL_RUN:
                    return out
            else:
                small = 0
            term *= q
    except OverflowError:  # a rational past the double range met q
        _require_double("a", a, q)
        raise
    raise TruncationError(f"(a; q)_inf did not converge within {_MAX_TERMS} factors")


def theta(z, q):
    """Theta factorial ``<z; q> = (z; q)_inf (q/z; q)_inf`` for ``z != 0``.

    Satisfies the quasiperiodicity ``<z; q> / <zq; q> = -z``.
    """
    _require_finite("theta requires finite arguments", z, q)
    if z == 0:
        raise DomainError("theta requires z != 0")
    if not 0 < abs(q) < 1:
        raise DomainError("theta requires 0 < |q| < 1")
    try:
        return qpochhammer_inf(z, q) * qpochhammer_inf(q / z, q)
    except OverflowError:  # a rational past the double range met q (RangeError is one)
        _require_double("z", z, q)
        raise


# Relative tolerance within which a lower phi parameter counts as q^(-m).
_Q_POWER_RTOL = 1e-12


def _is_nonneg_q_power(value, q) -> bool:
    """True when ``value == q**(-m)`` for some integer m >= 0, within _Q_POWER_RTOL."""
    target = abs(value)
    if target == 0:
        return False
    p = 1.0
    for _ in range(_MAX_TERMS):
        if abs(value - p) <= _Q_POWER_RTOL * abs(p):
            return True
        if abs(p) > target * (1 + 1e-9):
            return False
        p /= q
    return False


def phi(upper: Sequence, lower: Sequence, q, z):
    """Partial sum of the r-phi-s basic hypergeometric series in ``z``.

    ``upper`` holds the numerator parameters ``a_1..a_r``, ``lower`` the
    denominator parameters ``b_1..b_s``; the series is

        sum_k  (a_1..a_r; q)_k / ((q; q)_k (b_1..b_s; q)_k)
               * ((-1)^k q^(k choose 2))^(1 + s - r) * z^k.

    No lower parameter may be of the form ``q^(-m)`` with m >= 0, which
    would zero a denominator factor.  Terminating series (an upper parameter
    of the form ``q^(-n)``) finish on their own; otherwise the series must
    converge under the truncation policy, which covers ``r <= s`` always and
    ``r = s + 1`` for ``|z| < 1``.
    """
    _require_finite("phi requires finite arguments", *upper, *lower, q, z)
    if not 0 < abs(q) < 1:
        raise DomainError("phi requires 0 < |q| < 1")
    try:
        for b in lower:
            if _is_nonneg_q_power(b, q):
                raise DomainError(f"lower parameter {b!r} is q^(-m); denominator would vanish")
        return sum_series(_phi_terms(upper, lower, q, z), "basic hypergeometric series")
    except OverflowError:  # a rational past the double range met a double
        values = (*upper, *lower, q, z)
        for i, v in enumerate(values[:-2]):  # named a_1..a_r and b_1..b_s, as in the series
            _require_double(f"a_{i + 1}" if i < len(upper) else f"b_{i - len(upper) + 1}", v, *values)
        _require_double("z", z, *values)
        raise


def _phi_terms(upper: Sequence, lower: Sequence, q, z) -> Iterator:
    """The terms of the series :func:`phi` sums, each from the one before by its term ratio."""
    extra = 1 + len(lower) - len(upper)
    t = 1
    qk = 1  # q^k
    k = 0
    while True:
        yield t
        ratio = z
        for a in upper:
            ratio *= 1 - a * qk
        den = 1 - q * qk  # (q; q)_{k+1} factor
        for b in lower:
            den *= 1 - b * qk
        if den == 0:
            raise DomainError(f"phi denominator vanished at term {k + 1}")
        if extra:
            ratio *= ((-1) * qk) ** extra
        t = t * ratio / den
        qk *= q
        k += 1
