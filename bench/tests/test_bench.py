"""Tests of the benchmark itself: its checks, its inputs and its metric names."""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ops  # noqa: E402
import run  # noqa: E402
from qfraclab import cli  # noqa: E402


def _perturb(v, gate):
    if gate is None:
        return v + Fraction(1, 10**40)
    return v + 10 * gate * max(1.0, abs(v))


def _clean_ops():
    """The first op of every kind whose input is not a known-defect class."""
    seen = {}
    for workload in ops.DECKS:
        for op in ops.make_deck(workload, 1):
            if op.defect is None:
                seen.setdefault(op.kind, op)
    assert set(seen) == set(ops.KINDS)
    return list(seen.values())


@pytest.mark.parametrize("op", _clean_ops(), ids=lambda op: op.kind)
def test_checker_accepts_result_and_rejects_perturbed_one(op):
    result = ops.compute(op)
    assert ops.check(op, result) == ops.OK
    gate = ops.KINDS[op.kind][1]
    if gate == "gram":
        g, norms = result
        g = [list(row) for row in g]
        g[0][1] += 10 * ops.GRAM_GATE
        bad = (g, norms)
    else:
        (u, v), *rest = result
        bad = [(u, _perturb(v, gate)), *rest]
    assert ops.check(op, bad) == ops.FAILED


def test_nonfinite_route_fails():
    assert ops.verdict([(float("nan"), float("nan"))], ops.CLOSED_GATE) == ops.FAILED
    assert ops.verdict([(1.0, float("inf"))], ops.DENSITY_GATE) == ops.FAILED


def test_known_defect_inputs_fail_and_are_labelled():
    deck = ops.make_deck("recurrence", 1)
    large_x = [op for op in deck if op.defect == ops.FORWARD_OVERFLOW]
    assert large_x and all(ops.check(op, ops.compute(op)) == ops.FAILED for op in large_x[:2])
    a0 = [op for op in ops.make_deck("spectral", 1) if op.defect == ops.A0_MEASURE and op.kind == "density"]
    assert a0 and ops.check(a0[0], ops.compute(a0[0])) == ops.FAILED


def _cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return subprocess.CompletedProcess(argv, rc, out.getvalue(), "")


@pytest.mark.parametrize("name", ["eval", "convergents", "density", "orthogonality", "moments"])
def test_cli_checker_accepts_output_and_rejects_perturbed_one(name):
    refs = run.cli_references()
    proc = _cli_output(run.SUBCOMMANDS[name])
    assert run.check_cli(name, proc, refs) == ops.OK
    lines = proc.stdout.splitlines()
    if name == "eval":
        lines[3] = f"backward : {float(lines[3].split(':')[1]) + 1e-6!r}"
    elif name == "orthogonality":
        row = lines[1].split(",")
        row[1] = repr(float(row[1]) + 1e-3)
        lines[1] = ",".join(row)
    else:  # perturb a route column of the last row
        row = lines[-1].split(",")
        row[2] = repr(complex(row[2]) + 1e-3).strip("()") if name == "moments" else repr(float(row[2]) + 1e-3)
        lines[-1] = ",".join(row)
    bad = subprocess.CompletedProcess(proc.args, 0, "\n".join(lines) + "\n", "")
    assert run.check_cli(name, bad, refs) == ops.FAILED
    assert run.check_cli(name, subprocess.CompletedProcess(proc.args, 1, proc.stdout, ""), refs) == ops.FAILED


def test_cli_verify_checker():
    def verdict(rc, text):
        return run.check_cli("verify", subprocess.CompletedProcess([], rc, text, ""), {})

    assert verdict(0, "PASS a: x\n10/10 criteria passed\n") == ops.OK
    assert verdict(0, "FAIL a: x\n9/10 criteria passed\n") == ops.FAILED
    assert verdict(1, "10/10 criteria passed\n") == ops.FAILED


@pytest.mark.parametrize("workload", sorted(ops.DECKS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = ops.make_deck(workload, 7)
    assert first == ops.make_deck(workload, 7)
    other = ops.make_deck(workload, 8)
    assert [op.kind for op in first] == [op.kind for op in other]
    assert sum(a != b for a, b in zip(first, other)) > 0.9 * len(first)


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code():
    doc = _declared()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_printed_metric_names_equal_declared(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    rc = run.main(["--workload", "recurrence", "--seed", "3", "--seconds", "0", "--trace", "0"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
