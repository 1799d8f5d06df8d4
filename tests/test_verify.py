"""The extended-precision oracles of the acceptance suite: tail-certified
sums against fixed-length reference sums, and caps that raise."""

import pytest
from mpmath import mp

from qfraclab import verify
from qfraclab.errors import TruncationError
from qfraclab.recurrence import Params

P = verify.ACCEPT_PARAMS
ASYM_GRID = [-0.8 + 1.6 * i / 8 for i in range(9)]


def _mp_consts(p):
    q, b, lam = mp.mpf(p.q), mp.mpf(p.b), mp.mpf(p.lam)
    return q, b, lam, mp.mpf(p.a) / (2 * mp.sqrt(-b))


def _fg_fixed(rho, q, b, lam, c, shift, nterms=160):
    """F/G summed over a fixed 160 terms, each power of q computed afresh."""
    rho2 = rho * rho
    total = term = mp.mpc(1)
    for m in range(1, nterms):
        qm = q**m
        term *= (-2 * c * rho - (lam / b) * qm * rho2) * q ** (m - 1 + shift) / ((1 - qm) * (1 - qm * rho2))
        total += term
    return total


def _r_fixed(theta, q, b, lam, c, nterms=80):
    """R summed over a fixed 80 terms."""
    eit = mp.exp(mp.mpc(0, 1) * theta)
    parg = -lam * q * eit / (2 * b * c)
    poch = pw = den = mp.mpc(1)
    qm = mp.mpf(1)
    total = mp.mpc(0)
    for _ in range(nterms):
        total += poch * pw / den
        poch *= 1 - parg * qm
        pw *= -2 * c * eit * qm
        den *= (1 - q * qm) * (1 - q * qm * eit * eit)
        qm *= q
    return -total / (mp.mpc(0, 1) * mp.sin(theta))


def _ulps(a, b):
    return abs(a - b) / (abs(b) * mp.eps)  # mp.eps = 2^(1 - prec)


@pytest.mark.parametrize("x", [2.0, -2.0, 1.2 + 0.5j])
@pytest.mark.parametrize("shift", [0, 1])
def test_fg_oracle_matches_fixed_length_sum(x, shift):
    with mp.workdps(460):
        q, b, lam, c = _mp_consts(P)
        xm = mp.mpc(x)
        rho = 1 / (xm + mp.sqrt(xm - 1) * mp.sqrt(xm + 1))
        ref = _fg_fixed(rho, q, b, lam, c, shift)
        xr = mp.mpf(x.real) if isinstance(x, float) else xm
        assert _ulps(verify._mp_fg(verify._mp_rho(xr), q, b, lam, c, shift), ref) < 8


@pytest.mark.parametrize("x", ASYM_GRID)
def test_r_oracle_matches_fixed_length_sum(x):
    with mp.workdps(80):
        q, b, lam, c = _mp_consts(P)
        theta = mp.acos(mp.mpf(x))
        assert _ulps(verify._mp_series_R(theta, q, b, lam, c), _r_fixed(theta, q, b, lam, c)) < 8


def test_r_oracle_at_a_zero_is_the_limit_from_small_a():
    # the R factor is multiplied out, so c = 0 divides by nothing
    ks = (10, 25, 60)
    zero = verify._mp_asym_residuals(Params(0.4, 0.0, -0.25, 0.2), 0.3, ks)
    near = verify._mp_asym_residuals(Params(0.4, 1e-12, -0.25, 0.2), 0.3, ks)
    for r0, r1 in zip(zero, near):
        assert 0 < r0 < float("inf")
        assert abs(r0 - r1) <= 1e-10 * r1


def _failed_detail(suite, name):
    (res,) = [r for r in verify.run_suite(suite) if r.name == name]
    assert not res.passed
    return res.detail


def test_fg_cap_below_need_raises(monkeypatch):
    monkeypatch.setattr(verify, "_FG_TERMS", 20)
    with pytest.raises(TruncationError):
        verify._mp_markov_errors(P, 2.0, (50,), dps=460)
    assert "TruncationError" in _failed_detail("measure", "markov-limit")


def test_r_cap_below_need_raises(monkeypatch):
    monkeypatch.setattr(verify, "_R_TERMS", 10)
    with pytest.raises(TruncationError):
        verify._mp_asym_residuals(P, 0.3, (25,))
    assert "TruncationError" in _failed_detail("asymptotics", "asymptotics")


def test_moment_solutions_reports_the_slow_tail_point():
    # the last figure of the detail is the |lam q/b| = 0.45, k = 0 error
    result = verify.check_moment_solutions()
    assert result.passed
    assert "|lam q/b| = 0.45, k = 0" in result.detail
    assert float(result.detail.rsplit(": ", 1)[1]) < 1e-10
