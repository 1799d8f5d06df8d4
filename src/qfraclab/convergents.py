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
once per call: the prefix products (q; q)_m and their inverses.  The double
and triple sums of :func:`hirschhorn_closed` and :func:`a0_closed` also
build the powers of their arguments and of q (with q^C(k,2)), and pull
every factor that does not depend on the innermost index out of the
innermost sum, so that loop only multiplies table entries.  The finite
products over i in [j, n - j] of :func:`entry15` and :func:`ram_Q` are grown
outward from the innermost range (largest j), two factors per step, from
one table of 1 + a q^i (or x + a q^i); :func:`ram_Qstar` is :func:`ram_Q`
under the numerator shift (a, lam) -> (aq, lam q).
"""

from __future__ import annotations

from .errors import DomainError
from .qseries import _require_finite, phi

__all__ = [
    "entry16",
    "hirschhorn_closed",
    "a0_closed",
    "ram_Q",
    "ram_Qstar",
    "entry15",
    "g_function",
]


def _qfac_table(q, n: int) -> list:
    """Prefix products (q; q)_m for m = 0..n; exact for Fraction q."""
    out = [q**0] * (n + 1)  # q**0 keeps the scalar type (Fraction stays Fraction)
    pw = q
    for m in range(1, n + 1):
        out[m] = out[m - 1] * (1 - pw)
        pw *= q
    return out


def _qfac_inverses(tab, top: int) -> list:
    """Inverses 1/(q; q)_m for m = 0..top of a prefix table.

    The products are zero from the first vanishing factor on, so (q; q)_top
    vanishes exactly when some q-binomial of a sum reaching index ``top``
    would divide by zero; that raises DomainError.  Every q-binomial of the
    module is read as tab[n] * inv[k] * inv[n - k] from these two tables.
    """
    if tab[top] == 0:
        raise DomainError("q-binomial undefined: (q; q) factor vanished")
    return [1 / t for t in tab[: top + 1]]


def _powers(x, n: int) -> list:
    """x^0, ..., x^n, each by one ``**`` so no rounding accumulates along the table."""
    return [x**i for i in range(n + 1)]


def _centred_products(f, lo: int, hi: int, count: int) -> list:
    """prod(f[lo + j : hi - j + 1]) for j = 0..count-1.

    Grown outward from the innermost range (zero or one factor), two factors
    per step; there is no division, so a zero factor is harmless.
    """
    out = [1] * count
    prod = 1
    for i in range(lo + count - 1, hi - count + 2):
        prod *= f[i]
    out[count - 1] = prod
    for j in range(count - 2, -1, -1):
        prod *= f[lo + j] * f[hi - j]
        out[j] = prod
    return out


def entry16(n: int, lam, q):
    """Closed-form convergent pair (N_n, D_n) of the Rogers-Ramanujan-type
    fraction 1/1 + lam q/1 + lam q^2/1 + ... + lam q^n/1:

        N_n = sum_k q^(k^2+k) lam^k [n-k choose k]_q,
        D_n = sum_k q^(k^2)   lam^k [n-k+1 choose k]_q.
    """
    if n < 0:
        raise DomainError("entry16 requires n >= 0")
    _require_finite("entry16", lam, q)
    tab = _qfac_table(q, n + 1)
    inv = _qfac_inverses(tab, n + 1)
    top = (n + 1) // 2
    q_pw, lam_pw = _powers(q, top), _powers(lam, top)
    N = 0
    D = 0
    for k in range(0, top + 1):
        w = q ** (k * k) * lam_pw[k] * inv[k]
        if 2 * k <= n:
            N += w * q_pw[k] * tab[n - k] * inv[n - 2 * k]
        D += w * tab[n - k + 1] * inv[n - 2 * k + 1]
    return N, D


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
    _require_finite("hirschhorn_closed", q, a, b, lam)
    tab = _qfac_table(q, n)
    inv = _qfac_inverses(tab, n)
    mb_pw, lam_pw = _powers(-b, n), _powers(lam, n)
    qc2 = [q ** (k * (k - 1) // 2) for k in range(n + 2)]
    a_inv = [i * p for i, p in zip(inv, _powers(a, n))]  # a^i / (q; q)_i
    d_k = [i * t for i, t in zip(inv, qc2)]  # q^C(k,2) / (q; q)_k
    n_k = [i * t for i, t in zip(inv, qc2[1:])]  # q^(C(k,2)+k) / (q; q)_k
    N = 0
    D = 0
    for l in range(0, n + 1):
        # k runs over j..m with m = n-j-l, which is empty once 2j > n-l
        for j in range(0, (n - l) // 2 + 1):
            m = n - j - l
            # the k-sums hold the k-dependent factors of [k+l; j, l]_q [m choose k]_q
            # a^(k-j) q^C(k,2) (and [m-1 choose k]_q q^k for N); w holds the rest
            sD = tab[m + l] * a_inv[m - j] * d_k[m]  # k = m, where [m-1 choose k] = 0
            sN = 0
            for k in range(j, m):
                u = tab[k + l] * a_inv[k - j]
                sD += u * d_k[k] * inv[m - k]
                sN += u * n_k[k] * inv[m - 1 - k]
            w = inv[j] * inv[l] * mb_pw[l] * lam_pw[j] * qc2[j + 1]  # q^C(j+1,2) = q^(C(j,2)+j)
            D += w * tab[m] * sD
            if m > j:
                N += w * tab[m - 1] * sN
    return (1 - b) * N, D


def a0_closed(n: int, b, lam, q):
    """Double-sum convergent pair (N'_n, D'_n) of the a = 0 fraction
    1/(1-b) + (b+lam q)/(1-b) + ... + (b+lam q^n)/(1-b):

        N'_n = sum_{k,j} q^(k^2+k) lam^k [k+j choose k]_q [n-k-j   choose k]_q (-b)^j,
        D'_n = sum_{k,j} q^(k^2)   lam^k [k+j choose k]_q [n-k-j+1 choose k]_q (-b)^j.
    """
    if n < 0:
        raise DomainError("a0_closed requires n >= 0")
    _require_finite("a0_closed", b, lam, q)
    tab = _qfac_table(q, n + 1)
    inv = _qfac_inverses(tab, n + 1)
    b_inv = [i * p for i, p in zip(inv, _powers(-b, n + 1))]  # (-b)^j / (q; q)_j
    N = 0
    D = 0
    for k in range(0, (n + 1) // 2 + 1):
        top = n + 1 - 2 * k  # j runs over 0..top for D', 0..top-1 for N'
        sD = tab[n + 1 - k] * b_inv[top] * tab[k]  # j = top, where [n-k-j choose k] = 0
        sN = 0
        for j in range(0, top):
            u = tab[k + j] * b_inv[j]
            sD += u * tab[n + 1 - k - j] * inv[top - j]
            sN += u * tab[n - k - j] * inv[top - 1 - j]
        w = q ** (k * k) * lam**k * inv[k] * inv[k]
        N += w * q**k * sN
        D += w * sD
    return N, D


def ram_Q(n: int, x, a, lam, q):
    """Denominator polynomial Q_n(x) of the b = 0 family by its closed j-sum,

        Q_n(x) = sum_j [n-j choose j]_q lam^j q^(j^2) prod_{i=j}^{n-j-1} (x + a q^i),

    i.e. the Pochhammer-ratio form with the x powers absorbed into the
    product, which removes the removable singularities at x = 0 and at
    -a/x = q^(-j).
    """
    if n < 0:
        raise DomainError("ram_Q requires n >= 0")
    _require_finite("ram_Q", x, a, lam, q)
    tab = _qfac_table(q, n)
    inv = _qfac_inverses(tab, n)
    f = [x + a * t for t in _powers(q, n)]  # x + a q^i
    total = 0
    for j, prod in enumerate(_centred_products(f, 0, n - 1, n // 2 + 1)):
        total += tab[n - j] * inv[j] * inv[n - 2 * j] * lam**j * q ** (j * j) * prod
    return total


def ram_Qstar(n: int, x, a, lam, q):
    """Numerator polynomial Q*_n(x) of the b = 0 family:

        Q*_n(x) = sum_j [n-j-1 choose j]_q lam^j q^(j^2+j) prod_{i=j+1}^{n-j-1} (x + a q^i),

    which is the denominator one level in, Q_{n-1}(x) at (a, lam) -> (aq, lam q).
    """
    if n < 0:
        raise DomainError("ram_Qstar requires n >= 0")
    _require_finite("ram_Qstar", x, a, lam, q)
    if n == 0:
        return 0
    return ram_Q(n - 1, x, a * q, lam * q, q)


def entry15(n: int, a, lam, q):
    """Convergent pair (Nhat_n, Dhat_n) of the fraction
    1 + a + lam q/(1+aq) + lam q^2/(1+aq^2) + ... + lam q^n/(1+aq^n),
    whose value is (1+a) Nhat_n / Dhat_n:

        Nhat_n = sum_j q^(j^2)   lam^j [n+1-j choose j]_q (-aq; q)_{n-j} / (-a; q)_j,
        Dhat_n = sum_j q^(j^2+j) lam^j [n-j   choose j]_q (-aq; q)_{n-j} / (-aq; q)_j.

    The Pochhammer quotients are reduced to bare products before dividing,
    so only the single factor (1 + a) is ever divided by; a = -1 is the one
    genuinely singular point and raises DomainError.
    """
    if n < 1:
        raise DomainError("entry15 requires n >= 1")
    _require_finite("entry15", a, lam, q)
    if 1 + a == 0:
        raise DomainError("a = -1 zeroes the (-a; q)_j factors")
    tab = _qfac_table(q, n + 1)
    inv = _qfac_inverses(tab, n + 1)
    f = [1 + a * t for t in _powers(q, n)]  # 1 + a q^i
    Nh = 0
    for j, prod in enumerate(_centred_products(f, 0, n, (n + 1) // 2 + 1)):
        Nh += q ** (j * j) * lam**j * tab[n + 1 - j] * inv[j] * inv[n + 1 - 2 * j] * prod / (1 + a)
    Dh = 0
    for j, prod in enumerate(_centred_products(f, 1, n, n // 2 + 1)):
        Dh += q ** (j * j + j) * lam**j * tab[n - j] * inv[j] * inv[n - 2 * j] * prod
    return Nh, Dh


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
