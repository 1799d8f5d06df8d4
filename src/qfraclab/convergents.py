"""Explicit closed-form convergents and the related limit identities.

Every formula here is a finite sum in the q-binomial calculus and is
verified elsewhere against the recurrence and backward-evaluation routes.
All functions are polymorphic over the scalar type: pass floats/complex for
double precision or ``fractions.Fraction`` for exact rational arithmetic
(the formulas are polynomial identities, so small-n checks deserve an exact
backend).

Summation bounds always come from the vanishing conventions of the
q-binomials, never from guessed cutoffs.  Every sum reads its q-binomials
[n choose k]_q = (q; q)_n / ((q; q)_k (q; q)_{n-k}) from two tables built
once per call: the prefix products (q; q)_m and their inverses.  Each sum
also reads the powers of its arguments and of q (q^k, q^(k^2), q^C(k,2))
from tables, and the double and triple sums of :func:`hirschhorn_closed` and
:func:`a0_closed` pull every factor that does not depend on the innermost
index out of the innermost sum, so that loop only multiplies table entries.
The finite products over i in [j, n - j - 1] of :func:`ram_Q` are grown
outward from the innermost range (largest j), two factors per step, from one
table of x + a q^i; :func:`ram_Qstar` is :func:`ram_Q` under the numerator
shift (a, lam) -> (aq, lam q), and :func:`entry15`, the b = 0 fraction at
x = 1, is the pair (Q_{n+1}(1) / (1 + a), Q*_{n+1}(1)) of the two.

Each table comes with a denominator, and one sum runs on either kind.  When
every argument is rational (an int or a Fraction), the tables hold integer
numerators over one denominator each, built from the numerators and
denominators of the arguments (see :func:`_powers`).  The terms
x + y q^j come from the integer rule of :mod:`qfraclab.qseries`
(``_qterms``), as for :func:`qfraclab.qseries.qpochhammer`: with q = u/v,
(q; q)_m is the prefix product of f_i = v^i - u^i over that of w_i = v^i,
and x + a q^i is an integer over D v^i (:func:`_affine`).  One rule builds
both tables of (q; q)_m (:func:`_padded_prefixes`): entry m is the prefix
product of one sequence padded by the factors of the other after it, f over
w for (q; q)_m and w over f for its inverse.  Every term of a sum draws a
fixed number of entries from each table, and a term that draws fewer is
padded: the centred products with powers of the denominator of an outer
pair of factors, and the one term of :func:`hirschhorn_closed` and
:func:`a0_closed` whose q-binomial lacks its lower factor 1/(q; q)_0 by
inv[0], which is the inverse table's denominator on the integer path and 1
on the scalar path.  So the sum runs on ints, and each result is one
Fraction, reduced once, instead of one Fraction per product.  Nothing is
reduced along the way: with q = u/v the common denominator grows like
v^(c n^2), c from about 2 (entry16) to 5 (hirschhorn_closed), so past n of
about 25 (hirschhorn_closed, a0_closed) to 35 (entry16, ram_Q, entry15)
reducing every product is faster; the exact checks of the package stay at
n <= 16.  Float, complex and mixed float/Fraction arguments get tables of
the values themselves, with denominator 1, and so the same operations in
the same order as summing the values directly, bar the exact factor
inv[0] = 1.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .qseries import _num_den, _qterms, _require_finite, phi

__all__ = [
    "entry16",
    "hirschhorn_closed",
    "a0_closed",
    "ram_Q",
    "ram_Qstar",
    "entry15",
    "g_function",
]


def _padded_prefixes(top: list, bottom: list) -> tuple:
    """(entries, denominator): entry m is top_1 ... top_m bottom_(m+1) ... bottom_n
    for m = 0..n, the prefix product of ``top`` padded by the factors of
    ``bottom`` after it, and the denominator is bottom_1 ... bottom_n."""
    out = [1]
    for t in top:
        out.append(out[-1] * t)
    pad = 1
    for m in range(len(top), 0, -1):
        out[m] *= pad
        pad *= bottom[m - 1]
    out[0] = pad
    return out, pad


def _qfac_tables(q, n: int, exact: bool) -> tuple:
    """(tab, inv, tab_den, inv_den): (q; q)_m and 1/(q; q)_m for m = 0..n.

    The products are zero from the first vanishing factor on, so (q; q)_n
    vanishes exactly when some q-binomial of a sum reaching index n would
    divide by zero; that raises DomainError.  Every q-binomial of the module
    is read as tab[n] * inv[k] * inv[n - k] from these two tables.

    On the scalar path the entries are the values and both denominators 1.
    On the integer path, with q = u/v, (q; q)_m is f_1 ... f_m over
    w_1 ... w_m, where f_i = v^i - u^i and w_i = v^i are the factors of
    (q; q)_n from :func:`qfraclab.qseries._qterms`, and both tables come
    from one rule (:func:`_padded_prefixes`): entry m of ``tab`` is
    f_1 ... f_m w_(m+1) ... w_n over w_1 ... w_n, and entry m of ``inv`` the
    same with f and w swapped.  So inv[0] is inv_den on the integer path and
    1 on the scalar path.
    """
    if not exact:
        tab = [q**0] * (n + 1)  # q**0 keeps the scalar type (Fraction stays Fraction)
        pw = q
        for m in range(1, n + 1):
            tab[m] = tab[m - 1] * (1 - pw)
            pw *= q
        if tab[n] == 0:
            raise DomainError("q-binomial undefined: (q; q) factor vanished")
        return tab, [1 / t for t in tab], 1, 1
    f, w = _qterms(1, -q, q, n)  # f_i = v^i - u^i and w_i = v^i for i = 1..n
    tab, tab_den = _padded_prefixes(f, w)
    if tab[n] == 0:
        raise DomainError("q-binomial undefined: (q; q) factor vanished")
    inv, inv_den = _padded_prefixes(w, f)
    return tab, inv, tab_den, inv_den


def _powers(x, exponents, exact: bool) -> tuple:
    """(x^e for each e, denominator).

    On the scalar path each entry is one ``**``, so no rounding accumulates
    along the table.  On the integer path, with x = s/t and E the largest
    exponent, the entry is s^e t^(E - e) over t^E.
    """
    if not exact:
        return [x**e for e in exponents], 1
    s, t = _num_den(x)
    top = max(exponents)
    return [s**e * t ** (top - e) for e in exponents], t**top


def _affine(x, a, q, n: int, exact: bool) -> tuple:
    """(x + a q^i for i = 0..n, denominators): on the scalar path the values and
    None, on the integer path the integers of :func:`qfraclab.qseries._qterms`,
    entry i over D v^i for x = s/t, a = c/d, q = u/v and D = t d."""
    if not exact:
        return [x + a * q**i for i in range(n + 1)], None
    return _qterms(x, a, q, n + 1)


def _centred_products(f, dens, hi: int, count: int) -> tuple:
    """(prod(f[j : hi - j + 1]) for j = 0..count-1, denominator).

    Grown outward from the innermost range (zero or one factor), two factors
    per step; there is no division, so a zero factor is harmless.  Entry j
    lacks the 2j outer factors of entry 0, and on the integer path, where
    f[i] is over dens[i] = D v^i, each pair f[i], f[hi - i] is over the same
    D^2 v^hi.  So entry j is padded by that j times, to share entry 0's
    denominator dens[0] ... dens[hi]; a scalar table has dens None and its
    entries are left as they are.
    """
    out = [1] * count
    prod = 1
    for i in range(count - 1, hi - count + 2):
        prod *= f[i]
    out[count - 1] = prod
    for j in range(count - 2, -1, -1):
        prod *= f[j] * f[hi - j]
        out[j] = prod
    if dens is None:
        return out, 1
    pad = dens[0] * dens[hi]
    return [p * pad**j for j, p in enumerate(out)], math.prod(dens[: hi + 1])


def _value(total, den, exact: bool):
    """A finished sum: the integer path's numerator over its denominator, reduced once."""
    if not exact:
        return total
    # imported here, so that float callers such as the CLI do not load
    # fractions and decimal (about 4 ms at start-up)
    from fractions import Fraction

    return Fraction(total, den)


def entry16(n: int, lam, q):
    """Closed-form convergent pair (N_n, D_n) of the Rogers-Ramanujan-type
    fraction 1/1 + lam q/1 + lam q^2/1 + ... + lam q^n/1:

        N_n = sum_k q^(k^2+k) lam^k [n-k choose k]_q,
        D_n = sum_k q^(k^2)   lam^k [n-k+1 choose k]_q.
    """
    if n < 0:
        raise DomainError("entry16 requires n >= 0")
    exact = _require_finite("entry16 requires finite arguments", lam, q)
    tab, inv, dt, di = _qfac_tables(q, n + 1, exact)
    top = (n + 1) // 2
    q_pw, dq = _powers(q, range(top + 1), exact)
    lam_pw, dl = _powers(lam, range(top + 1), exact)
    q_sq, ds = _powers(q, [k * k for k in range(top + 1)], exact)
    N = 0
    D = 0
    for k in range(0, top + 1):
        w = q_sq[k] * lam_pw[k] * inv[k]
        if 2 * k <= n:
            N += w * q_pw[k] * tab[n - k] * inv[n - 2 * k]
        D += w * tab[n - k + 1] * inv[n - 2 * k + 1]
    den = ds * dl * di * dt * di
    return _value(N, den * dq, exact), _value(D, den, exact)


def hirschhorn_closed(n: int, q, a, b, lam):
    """Triple-sum convergent pair (N_n(1), D_n(1)) of the base fraction.

        D_n(1) = sum_{j,k,l} [k+l; j,l]_q [n-j-l choose k]_q
                 a^(k-j) (-b)^l lam^j q^(C(k,2)+C(j,2)+j),

    N_n(1) carries an extra factor (1-b) and an extra q^k in the power.
    The ratio N_{n+1}(1) / ((1-b) D_{n+1}(1)) is the depth-(n+1) truncation
    of the fraction.
    """
    if n < 0:
        raise DomainError("hirschhorn_closed requires n >= 0")
    exact = _require_finite("hirschhorn_closed requires finite arguments", q, a, b, lam)
    tab, inv, dt, di = _qfac_tables(q, n, exact)
    mb_pw, dmb = _powers(-b, range(n + 1), exact)
    lam_pw, dl = _powers(lam, range(n + 1), exact)
    a_pw, da = _powers(a, range(n + 1), exact)
    qc2, dc = _powers(q, [k * (k - 1) // 2 for k in range(n + 2)], exact)
    a_inv = [i * p for i, p in zip(inv, a_pw)]  # a^i / (q; q)_i
    d_k = [i * t for i, t in zip(inv, qc2)]  # q^C(k,2) / (q; q)_k
    n_k = [i * t for i, t in zip(inv, qc2[1:])]  # q^(C(k,2)+k) / (q; q)_k
    # the k = m term below lacks the loop's factor inv[m - k] = 1/(q; q)_0: pad it by inv[0]
    d_m = [t * inv[0] for t in d_k]
    N = 0
    D = 0
    for l in range(0, n + 1):
        # k runs over j..m with m = n-j-l, which is empty once 2j > n-l
        for j in range(0, (n - l) // 2 + 1):
            m = n - j - l
            # the k-sums hold the k-dependent factors of [k+l; j, l]_q [m choose k]_q
            # a^(k-j) q^C(k,2) (and [m-1 choose k]_q q^k for N); w holds the rest
            sD = tab[m + l] * a_inv[m - j] * d_m[m]  # k = m, where [m-1 choose k] = 0
            sN = 0
            for k in range(j, m):
                u = tab[k + l] * a_inv[k - j]
                sD += u * d_k[k] * inv[m - k]
                sN += u * n_k[k] * inv[m - 1 - k]
            w = inv[j] * inv[l] * mb_pw[l] * lam_pw[j] * qc2[j + 1]  # q^C(j+1,2) = q^(C(j,2)+j)
            D += w * tab[m] * sD
            if m > j:
                N += w * tab[m - 1] * sN
    den = (dt * di * dc) ** 2 * di**3 * dmb * dl * da
    return (1 - b) * _value(N, den, exact), _value(D, den, exact)


def a0_closed(n: int, b, lam, q):
    """Double-sum convergent pair (N'_n, D'_n) of the a = 0 fraction
    1/(1-b) + (b+lam q)/(1-b) + ... + (b+lam q^n)/(1-b):

        N'_n = sum_{k,j} q^(k^2+k) lam^k [k+j choose k]_q [n-k-j   choose k]_q (-b)^j,
        D'_n = sum_{k,j} q^(k^2)   lam^k [k+j choose k]_q [n-k-j+1 choose k]_q (-b)^j.
    """
    if n < 0:
        raise DomainError("a0_closed requires n >= 0")
    exact = _require_finite("a0_closed requires finite arguments", b, lam, q)
    tab, inv, dt, di = _qfac_tables(q, n + 1, exact)
    kmax = (n + 1) // 2
    mb_pw, db = _powers(-b, range(n + 2), exact)
    q_pw, dq = _powers(q, range(kmax + 1), exact)
    lam_pw, dl = _powers(lam, range(kmax + 1), exact)
    q_sq, ds = _powers(q, [k * k for k in range(kmax + 1)], exact)
    b_inv = [i * p for i, p in zip(inv, mb_pw)]  # (-b)^j / (q; q)_j
    N = 0
    D = 0
    for k in range(0, kmax + 1):
        top = n + 1 - 2 * k  # j runs over 0..top for D', 0..top-1 for N'
        # j = top, where [n-k-j choose k] = 0, lacks the loop's factor inv[top - j] = 1/(q; q)_0
        sD = tab[n + 1 - k] * b_inv[top] * inv[0] * tab[k]
        sN = 0
        for j in range(0, top):
            u = tab[k + j] * b_inv[j]
            sD += u * tab[n + 1 - k - j] * inv[top - j]
            sN += u * tab[n - k - j] * inv[top - 1 - j]
        w = q_sq[k] * lam_pw[k] * inv[k] * inv[k]
        N += w * q_pw[k] * sN
        D += w * sD
    den = ds * dl * (di * dt) ** 2 * di * db * di
    return _value(N, den * dq, exact), _value(D, den, exact)


def ram_Q(n: int, x, a, lam, q):
    """Denominator polynomial Q_n(x) of the b = 0 family by its closed j-sum,

        Q_n(x) = sum_j [n-j choose j]_q lam^j q^(j^2) prod_{i=j}^{n-j-1} (x + a q^i),

    i.e. the Pochhammer-ratio form with the x powers absorbed into the
    product, which removes the removable singularities at x = 0 and at
    -a/x = q^(-j).
    """
    if n < 0:
        raise DomainError("ram_Q requires n >= 0")
    exact = _require_finite("ram_Q requires finite arguments", x, a, lam, q)
    tab, inv, dt, di = _qfac_tables(q, n, exact)
    top = n // 2
    lam_pw, dl = _powers(lam, range(top + 1), exact)
    q_sq, ds = _powers(q, [j * j for j in range(top + 1)], exact)
    f, df = _affine(x, a, q, n, exact)  # x + a q^i
    prods, dp = _centred_products(f, df, n - 1, top + 1)
    total = 0
    for j, prod in enumerate(prods):
        total += tab[n - j] * inv[j] * inv[n - 2 * j] * lam_pw[j] * q_sq[j] * prod
    return _value(total, dt * di * di * dl * ds * dp, exact)


def ram_Qstar(n: int, x, a, lam, q):
    """Numerator polynomial Q*_n(x) of the b = 0 family:

        Q*_n(x) = sum_j [n-j-1 choose j]_q lam^j q^(j^2+j) prod_{i=j+1}^{n-j-1} (x + a q^i),

    which is the denominator one level in, Q_{n-1}(x) at (a, lam) -> (aq, lam q).
    """
    if n < 0:
        raise DomainError("ram_Qstar requires n >= 0")
    _require_finite("ram_Qstar requires finite arguments", x, a, lam, q)
    if n == 0:
        return 0
    return ram_Q(n - 1, x, a * q, lam * q, q)


def entry15(n: int, a, lam, q):
    """Convergent pair (Nhat_n, Dhat_n) of the fraction
    1 + a + lam q/(1+aq) + lam q^2/(1+aq^2) + ... + lam q^n/(1+aq^n),
    whose value is (1+a) Nhat_n / Dhat_n:

        Nhat_n = sum_j q^(j^2)   lam^j [n+1-j choose j]_q (-aq; q)_{n-j} / (-a; q)_j,
        Dhat_n = sum_j q^(j^2+j) lam^j [n-j   choose j]_q (-aq; q)_{n-j} / (-aq; q)_j.

    This is the b = 0 fraction at x = 1 (Berndt, Entry 15 of Chapter 16), so
    the pair is (Q_{n+1}(1) / (1 + a), Q*_{n+1}(1)) of :func:`ram_Q` and
    :func:`ram_Qstar`.  a = -1, where the (-a; q)_j factors vanish, is the one
    singular point and raises DomainError.
    """
    if n < 1:
        raise DomainError("entry15 requires n >= 1")
    _require_finite("entry15 requires finite arguments", a, lam, q)
    if 1 + a == 0:
        raise DomainError("a = -1 zeroes the (-a; q)_j factors")
    return ram_Q(n + 1, 1, a, lam, q) / (1 + a), ram_Qstar(n + 1, 1, a, lam, q)


def g_function(b, lam, q):
    """g(b, lam) = sum_k lam^k q^(k^2) / ((q; q)_k (-bq; q)_k).

    This is the basic hypergeometric series 0phi1[-; -bq; q, lam q] and is
    summed as one by :func:`qfraclab.qseries.phi`.  The q^(k^2) factor forces
    rapid convergence for any fixed arguments; -bq of the form q^(-j)
    zeroes a denominator and raises DomainError.
    The fraction of :func:`a0_closed` converges to g(b, lam q)/g(b, lam)
    for |b| < 1, and N'_n -> g(b, lam q)/(1 + b).
    """
    return phi((), (-b * q,), q, lam * q)
