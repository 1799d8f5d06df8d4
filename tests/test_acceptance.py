"""Acceptance gate: one test per shipped criterion, each printing its
pass/fail line, plus the overall time budget for the full sweep."""

import time

import pytest

from qfraclab.verify import CRITERIA, run_suite

_RESULTS = {}
_ELAPSED = None


def _run_all_once():
    global _ELAPSED
    if not _RESULTS:
        t0 = time.perf_counter()
        for res in run_suite("all"):
            _RESULTS[res.name] = res
        _ELAPSED = time.perf_counter() - t0
    return _RESULTS


@pytest.mark.parametrize("name", [name for name, _, _ in CRITERIA])
def test_criterion(name):
    res = _run_all_once()[name]
    print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    assert res.passed, f"{res.name}: {res.detail}"


def test_full_suite_under_time_budget():
    _run_all_once()
    print(f"full acceptance sweep: {_ELAPSED:.2f} s")
    assert _ELAPSED < 60.0


@pytest.mark.parametrize("name", [name for name, _, _ in CRITERIA])
def test_criterion_passes_by_its_rows(name):
    res = _run_all_once()[name]
    assert res.rows
    assert res.passed == all(value < gate for _, value, gate in res.rows)
