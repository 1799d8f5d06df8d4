"""``tools/ledger.py``: alternating parent/change pairs, one seed per pair,
summarised as medians and quartiles per workload and metric."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ledger.py"
SPEC = importlib.util.spec_from_file_location("ledger", TOOL)
ledger = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ledger)

METRICS = {"ops_per_s": ("higher", 0.25), "op_tail_ms": ("lower", 0.25)}
BENCHMARK = json.dumps({"run_seconds": 2, "end_to_end": [{"name": name, "better": better, "bound": bound}
                                                          for name, (better, bound) in METRICS.items()]})


def _result(ops, tail, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"}, "op_tail_ms": {"value": tail, "unit": "ms"}}}


def _run(workload, pair, side, result):
    return {"workload": workload, "pair": pair, "side": side, "seed": 41 + pair, "result": result}


def no_tier1(tree):
    return None


def no_verify(tree):
    return None


def test_summary_takes_medians_quartiles_and_wins_in_each_metric_direction():
    parent = [(100, 2.0), (110, 2.2), (120, 2.1), (130, 2.4), (140, 2.3)]
    change = [(105, 1.5), (110, 1.6), (119, 2.1), (150, 1.9), (160, 1.4)]
    runs = [_run("spectral", i, "parent", _result(*v)) for i, v in enumerate(parent)]
    runs += [_run("spectral", i, "change", _result(*v)) for i, v in enumerate(change)]
    summary = ledger.summarise(runs, METRICS)["spectral"]
    assert summary["all_correct"] and summary["seeds"] == [41, 42, 43, 44, 45]
    ops, tail = summary["metrics"]["ops_per_s"], summary["metrics"]["op_tail_ms"]
    assert ops["parent"] == {"median": 120, "q1": 110, "q3": 130}
    assert ops["change"]["median"] == 119 and ops["change_over_parent_median"] == 119 / 120
    assert (ops["change_wins"], ops["ties"], ops["pairs"]) == (3, 1, 5)
    assert tail["parent"] == {"median": 2.2, "q1": 2.1, "q3": 2.3}
    assert (tail["change_wins"], tail["ties"], tail["pairs"]) == (4, 1, 5)


PARENT = [100 + i for i in range(10)]  # interquartile range 4.5 about a median of 104.5


@pytest.mark.parametrize("parent, change, expected", [
    # every change run beats every parent run
    (PARENT, [120 + i for i in range(10)], "better"),
    # 9 of 10 pairs won, and the medians 10 apart, more than the parent's 4.5
    (PARENT[:9] + [130], [p + 10 for p in PARENT[:9]] + [120], "better"),
    # the parent's spread, 40 about 100, is wider than the bound: the 30 % loss is unresolved
    ([60, 80, 100, 120, 140] * 2, [30, 50, 70, 90, 110] * 2, "unresolved"),
    # a median 30 % worse, past the bound of 25 %
    (PARENT, [0.7 * p for p in PARENT], "worse"),
    # 9 of 10 pairs won, but the medians only 1 apart, inside the parent's 4.5
    (PARENT, [p + 1 for p in PARENT[:9]] + [PARENT[9] - 1], "unchanged"),
    # pairs split, and the medians within the bound
    (PARENT, [p + (-1) ** i for i, p in enumerate(PARENT)], "unchanged"),
])
def test_each_metric_gets_the_first_verdict_that_holds(parent, change, expected):
    # the tail mirrors the throughput, so both directions reach the same verdict
    runs = [_run("spectral", i, side, _result(ops, 1000 / ops))
            for side, values in (("parent", parent), ("change", change)) for i, ops in enumerate(values)]
    metrics = ledger.summarise(runs, METRICS)["spectral"]["metrics"]
    assert {name: metric["verdict"] for name, metric in metrics.items()} == dict.fromkeys(METRICS, expected)


def test_a_pair_without_both_results_is_left_out_and_marks_the_workload_incorrect():
    runs = [
        _run("recurrence", 0, "parent", _result(1, 1)), _run("recurrence", 0, "change", _result(2, 1)),
        _run("recurrence", 1, "parent", _result(1, 1)), _run("recurrence", 1, "change", None),
    ]
    summary = ledger.summarise(runs, METRICS)["recurrence"]
    assert not summary["all_correct"] and summary["seeds"] == [41, 42]
    assert summary["metrics"]["ops_per_s"]["pairs"] == 1
    runs[-1]["result"] = _result(3, 1, correct=False)
    assert not ledger.summarise(runs, METRICS)["recurrence"]["all_correct"]


def test_parse_output_reads_the_env_classes_info_and_result_lines():
    stdout = "\n".join([
        'env {"seed": 3}', 'classes {"moments": {"ok": 4}}', 'info {"ops": 7}',
        "metric ops_per_s = 5.0 1/s", json.dumps(_result(5.0, 1.0)),
    ])
    record = ledger.parse_output(stdout)
    assert record == {"env": {"seed": 3}, "classes": {"moments": {"ok": 4}}, "info": {"ops": 7},
                      "result": _result(5.0, 1.0)}
    assert ledger.parse_output("error only\n")["result"] is None


def test_src_sha256_is_the_sha256sum_listing_of_src_without_caches(tmp_path):
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text("y = 2\n")
    digest = ledger.src_sha256(tmp_path)
    (tmp_path / "src" / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    assert ledger.src_sha256(tmp_path) == digest
    (tmp_path / "src" / "pkg" / "b.py").write_text("y = 3\n")
    assert ledger.src_sha256(tmp_path) != digest


def test_pairs_alternate_the_first_side_and_share_one_seed(tmp_path):
    trees = {}
    for side in ledger.SIDES:
        trees[side] = tmp_path / side
        (trees[side] / "src").mkdir(parents=True)
        (trees[side] / "BENCHMARK.json").write_text(BENCHMARK)
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        return {"returncode": 0, "env": {}, "classes": {}, "info": {}, "result": _result(seed, 1.0)}

    out = tmp_path / "BENCH.json"
    result = ledger.run_ledger(trees, {"spectral": 3, "cli-cold": 1}, out, run=fake_run, tier1=no_tier1, verify=no_verify)
    assert calls == [
        ("parent", "spectral", 41, 2.0), ("change", "spectral", 41, 2.0),
        ("change", "spectral", 42, 2.0), ("parent", "spectral", 42, 2.0),
        ("parent", "spectral", 43, 2.0), ("change", "spectral", 43, 2.0),
        ("parent", "cli-cold", 41, 2.0), ("change", "cli-cold", 41, 2.0),
    ]
    assert json.loads(out.read_text()) == result
    assert set(result) == {"what", "parent", "change", "finished_utc", "summary", "tier1", "verify", "runs"}
    assert result["parent"] == {"commit": None, "src_sha256": ledger.src_sha256(trees["parent"])}
    assert [run["first"] for run in result["runs"][:4]] == ["parent", "parent", "change", "change"]
    assert result["summary"]["spectral"]["metrics"]["ops_per_s"]["ties"] == 3


def test_a_run_past_the_timeout_is_kept_without_a_result_and_fails_its_workload(tmp_path, monkeypatch):
    def slow(cmd, **kwargs):
        raise ledger.subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(ledger.subprocess, "run", slow)
    timed_out = ledger.bench_run(tmp_path, "spectral", 41, 30.0)
    assert timed_out == {"returncode": None, "env": None, "classes": None, "info": None, "result": None,
                         "stderr": "timeout"}
    trees = {side: tmp_path / side for side in ledger.SIDES}
    for tree in trees.values():
        (tree / "src").mkdir(parents=True)
        (tree / "BENCHMARK.json").write_text(BENCHMARK)

    def fake_run(tree, workload, seed, seconds):
        if tree.name == "change" and seed == 42:
            return timed_out
        return {"returncode": 0, "env": {}, "classes": {}, "info": {}, "result": _result(seed, 1.0)}

    result = ledger.run_ledger(trees, {"spectral": 3}, tmp_path / "BENCH.json", run=fake_run, tier1=no_tier1, verify=no_verify)
    assert result["finished_utc"] is not None and len(result["runs"]) == 6
    summary = result["summary"]["spectral"]
    assert not summary["all_correct"] and summary["seeds"] == [41, 42, 43]
    assert summary["metrics"]["ops_per_s"]["pairs"] == 2


def test_main_runs_ten_pairs_of_every_workload(tmp_path, monkeypatch, capsys):
    for side in ledger.SIDES:
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    plans = []

    def fake_ledger(trees, plan, out):
        plans.append(plan)
        return {"summary": {workload: {"all_correct": True, "metrics": {"ops_per_s": {"verdict": "unchanged"}}}
                            for workload in plan}}

    monkeypatch.setattr(ledger, "run_ledger", fake_ledger)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--out", "x.json"]
    assert ledger.main(argv) == 0
    assert plans == [{"spectral": 10, "recurrence": 10, "cli-cold": 10}]
    assert capsys.readouterr().out.splitlines() == [
        f"verdict {workload} ops_per_s unchanged" for workload in ("spectral", "recurrence", "cli-cold")]


def _probe(**seconds):
    return {"import_s": 0.01, "heavy_imports": 0, "gram_first_s": 0.002,
            "criteria": {name: [value, True] for name, value in seconds.items()}}


def test_bench_run_runs_the_cold_probe_after_the_bench_run_in_the_same_tree(tmp_path, monkeypatch):
    calls = []
    probe = _probe(markov_limit=0.07)

    def fake_subprocess_run(cmd, cwd, **kwargs):
        calls.append((cmd[1:], cwd))
        stdout = json.dumps(probe) if cmd[1] == "bench/probe.py" else json.dumps(_result(5.0, 1.0))
        return ledger.subprocess.CompletedProcess(cmd, 0, stdout + "\n", "")

    monkeypatch.setattr(ledger.subprocess, "run", fake_subprocess_run)
    record = ledger.bench_run(tmp_path, "spectral", 41, 2.0)
    assert [(cmd[0], cwd) for cmd, cwd in calls] == [("bench/run.py", tmp_path), ("bench/probe.py", tmp_path)]
    assert calls[1][0] == ["bench/probe.py", "cold"]
    assert record["result"] == _result(5.0, 1.0) and record["probe"] == probe


def test_a_probe_that_fails_prints_no_json_or_times_out_gives_none(tmp_path, monkeypatch):
    outcomes = iter([(1, json.dumps(_probe(a=1.0))), (0, "Traceback ...\n"), (0, "")])

    def fake_subprocess_run(cmd, **kwargs):
        code, stdout = next(outcomes, (None, None))
        if code is None:
            raise ledger.subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        return ledger.subprocess.CompletedProcess(cmd, code, stdout, "")

    monkeypatch.setattr(ledger.subprocess, "run", fake_subprocess_run)
    assert [ledger.probe_cold(tmp_path) for _ in range(4)] == [None] * 4


def test_summary_times_each_criterion_over_the_pairs_probed_on_both_sides(tmp_path):
    trees = {}
    for side in ledger.SIDES:
        trees[side] = tmp_path / side
        (trees[side] / "src").mkdir(parents=True)
        (trees[side] / "BENCHMARK.json").write_text(BENCHMARK)
    # (parent, change) seconds of two criteria per pair; pair 3's change probe failed
    seconds = {41: ((0.5, 0.125), (0.25, 0.125)), 42: ((0.75, 0.125), (0.5, 0.25)),
               43: ((0.25, 0.125), (0.25, 0.0625)), 44: ((0.125, 0.125), None)}

    def fake_run(tree, workload, seed, seconds_):
        pair = seconds[seed]
        mine = pair[0] if tree.name == "parent" else pair[1]
        probe = _probe(**{"markov-limit": mine[0], "asymptotics": mine[1]}) if mine else None
        return {"returncode": 0, "env": {}, "classes": {}, "info": {}, "result": _result(seed, 1.0), "probe": probe}

    result = ledger.run_ledger(trees, {"spectral": 4}, tmp_path / "BENCH.json", run=fake_run, tier1=no_tier1, verify=no_verify)
    assert result["runs"][0]["probe"] == _probe(**{"markov-limit": 0.5, "asymptotics": 0.125})
    criteria = result["summary"]["spectral"]["criteria"]
    assert sorted(criteria) == ["asymptotics", "markov-limit"]
    markov = criteria["markov-limit"]
    assert markov["better"] == "lower" and markov["pairs"] == 3
    assert markov["parent"] == {"median": 0.5, "q1": 0.375, "q3": 0.625}
    assert markov["change"]["median"] == 0.25 and markov["change_over_parent_median"] == 0.5
    assert (markov["change_wins"], markov["ties"]) == (2, 1)
    assert (criteria["asymptotics"]["change_wins"], criteria["asymptotics"]["ties"]) == (1, 1)
    # the failed probe leaves its pair out of the criteria, not out of the metrics
    assert result["summary"]["spectral"]["metrics"]["ops_per_s"]["pairs"] == 4


TIER1_STDOUT = """\
........................................................................ [100%]
============================= slowest 15 durations =============================
0.82s call     tests/test_measure.py::TestSeriesFG::test_matches_the_oracle_over_wide_draws
0.78s call     tests/test_exact_routes.py::test_poles_raise_at_the_same_level_with_the_same_message
0.05s setup    tests/test_cli.py::test_help[verify]

(12 durations < 0.005s hidden.  Use -vv to show these durations.)
2 failed, 847 passed, 1 warning in 16.80s
"""


def test_tier1_runs_once_in_each_tree_after_the_last_pair(tmp_path):
    trees = {}
    for side in ledger.SIDES:
        trees[side] = tmp_path / side
        (trees[side] / "src").mkdir(parents=True)
        (trees[side] / "BENCHMARK.json").write_text(BENCHMARK)
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append(("run", tree.name))
        return {"returncode": 0, "env": {}, "classes": {}, "info": {}, "result": _result(seed, 1.0)}

    def fake_tier1(tree):
        calls.append(("tier1", tree.name))
        return ledger.parse_tier1(TIER1_STDOUT, 17.5) if tree.name == "parent" else None

    out = tmp_path / "BENCH.json"
    result = ledger.run_ledger(trees, {"spectral": 2}, out, run=fake_run, tier1=fake_tier1, verify=no_verify)
    assert calls[-2:] == [("tier1", "parent"), ("tier1", "change")] and len(calls) == 6
    assert result["tier1"]["change"] is None
    parent = result["tier1"]["parent"]
    assert {key: parent[key] for key in ("wall_s", "passed", "failed", "errors", "pytest_s")} == {
        "wall_s": 17.5, "passed": 847, "failed": 2, "errors": 0, "pytest_s": 16.8}
    assert [(d["seconds"], d["when"]) for d in parent["slowest"]] == [(0.82, "call"), (0.78, "call"), (0.05, "setup")]
    assert parent["slowest"][2]["test"] == "tests/test_cli.py::test_help[verify]"
    assert json.loads(out.read_text()) == result and result["finished_utc"] is not None


def test_tier1_run_runs_pytest_in_the_tree_and_gives_none_on_a_timeout_or_no_summary(tmp_path, monkeypatch):
    seen = []
    outcomes = iter([TIER1_STDOUT, "ImportError while loading conftest\n", None])

    def fake_subprocess_run(cmd, cwd, env, **kwargs):
        seen.append((cmd[1:], cwd, env["PYTHONPATH"].split(ledger.os.pathsep)[0], kwargs["timeout"]))
        stdout = next(outcomes)
        if stdout is None:
            raise ledger.subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        return ledger.subprocess.CompletedProcess(cmd, 1, stdout, "")

    monkeypatch.setattr(ledger.subprocess, "run", fake_subprocess_run)
    first = ledger.tier1_run(tmp_path)
    assert (first["passed"], first["failed"], first["pytest_s"], len(first["slowest"])) == (847, 2, 16.8, 3)
    assert first["wall_s"] >= 0
    assert ledger.tier1_run(tmp_path) is None and ledger.tier1_run(tmp_path) is None
    assert seen == [(["-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=15"], tmp_path, "src",
                     ledger.RUN_TIMEOUT_S)] * 3


def _record(name, *rows, passed=True):
    return {"name": name, "passed": passed, "rows": [list(row) for row in rows]}


def test_verify_runs_once_in_each_tree_last_and_pairs_each_row(tmp_path):
    trees = {}
    for side in ledger.SIDES:
        trees[side] = tmp_path / side
        (trees[side] / "src").mkdir(parents=True)
        (trees[side] / "BENCHMARK.json").write_text(BENCHMARK)
    records = {
        "parent": [_record("qseries-kernel", ("theta quasiperiodicity", 3.5e-15, 1e-12), ("seconds", 0.04, 5.0)),
                   _record("g-limit-identity", ("CF_200", 2.2e-16, 1e-12))],
        "change": [_record("qseries-kernel", ("theta quasiperiodicity", 1.1e-15, 1e-12), ("seconds", 0.03, 5.0)),
                   _record("g-limit-identity", ("CF_200", 2.2e-16, 1e-12), ("new row", 1e-17, 1e-12),
                           passed=False)],
    }
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append(("run", tree.name))
        return {"returncode": 0, "env": {}, "classes": {}, "info": {}, "result": _result(seed, 1.0)}

    def fake_tier1(tree):
        calls.append(("tier1", tree.name))

    def fake_verify(tree):
        calls.append(("verify", tree.name))
        return records[tree.name]

    out = tmp_path / "BENCH.json"
    result = ledger.run_ledger(trees, {"spectral": 1}, out, run=fake_run, tier1=fake_tier1, verify=fake_verify)
    assert calls[-2:] == [("verify", "parent"), ("verify", "change")] and calls[-4][0] == "tier1"
    assert result["verify"]["parent"] == records["parent"] and result["verify"]["change"] == records["change"]
    assert result["verify"]["rows"] == [
        {"criterion": "qseries-kernel", "label": "theta quasiperiodicity", "gate": 1e-12,
         "parent": 3.5e-15, "change": 1.1e-15},
        {"criterion": "qseries-kernel", "label": "seconds", "gate": 5.0, "parent": 0.04, "change": 0.03},
        {"criterion": "g-limit-identity", "label": "CF_200", "gate": 1e-12, "parent": 2.2e-16, "change": 2.2e-16},
        {"criterion": "g-limit-identity", "label": "new row", "gate": 1e-12, "parent": None, "change": 1e-17},
    ]
    assert json.loads(out.read_text()) == result
    # a side whose run printed no records has no values
    assert [row["change"] for row in ledger.verify_rows({"parent": records["parent"], "change": None})] == [None] * 3


def test_verify_run_reads_every_record_and_gives_none_on_a_timeout_or_no_record(tmp_path, monkeypatch):
    seen = []
    lines = [json.dumps(_record("markov-limit", ("max err", 1e-16, 1e-12))),
             json.dumps(_record("asymptotics", ("ratio", 2.0, 1), passed=False))]
    outcomes = iter([(1, "\n".join(lines) + "\n"), (2, "error: boom\n"), None])

    def fake_subprocess_run(cmd, cwd, env, **kwargs):
        seen.append((cmd[1:], cwd, env["PYTHONPATH"].split(ledger.os.pathsep)[0], kwargs["timeout"]))
        outcome = next(outcomes)
        if outcome is None:
            raise ledger.subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        return ledger.subprocess.CompletedProcess(cmd, outcome[0], outcome[1], "")

    monkeypatch.setattr(ledger.subprocess, "run", fake_subprocess_run)
    assert ledger.verify_run(tmp_path) == [json.loads(line) for line in lines]
    assert ledger.verify_run(tmp_path) is None and ledger.verify_run(tmp_path) is None
    assert seen == [(list(ledger.VERIFY), tmp_path, "src", ledger.RUN_TIMEOUT_S)] * 3


def test_the_verify_command_prints_one_record_per_criterion():
    # the real command, run from the repository root as the ledger runs it in a tree
    records = ledger.verify_run(TOOL.parents[1])
    assert len(records) == 10 and all(record["passed"] for record in records)
