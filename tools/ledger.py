"""A before/after ledger of the benchmark: ``bench/run.py`` in alternating
parent/change pairs from two source trees, summarised as one JSON file.

    python tools/ledger.py --parent DIR --change DIR --out BENCH_<n>.json

Each tree is the root of a qfraclab source checkout (``src/``, ``bench/`` and
``BENCHMARK.json``).  Each workload runs ``PAIRS`` (ten) pairs.  Pair i of
a workload runs ``bench/run.py --trace 0`` for the change's ``run_seconds``
once in each tree, with seed ``41 + i`` (as in ``BENCH_13.json``), one run
at a time; the side that runs first alternates from pair to pair, so a
drift in the host's speed falls on both sides alike.  After each
``bench/run.py`` run, ``bench/probe.py cold`` runs once in the same tree:
a fresh interpreter's import time, first Gram call and seconds per
``verify`` criterion.  The summary holds, per workload and end-to-end
metric, each side's median and quartiles (``statistics.quantiles``,
inclusive method), the change's median over the parent's, in how many
pairs the change was better, and a ``verdict`` against the metric's
``bound`` in the change tree's ``BENCHMARK.json``, the first of these that
holds:

* ``better``: every change run beats every parent run, or the change won
  at least nine in ten pairs (ties count for neither side) and its median
  beats the parent's by more than the parent's interquartile range;
* ``unresolved``: the parent's interquartile range over its median is
  wider than the bound;
* ``worse``: the change's median is worse than the parent's by more than
  the bound, relative to the parent's;
* ``unchanged``: otherwise.

``main`` prints one ``verdict <workload> <metric> <verdict>`` line per
metric.  Under ``criteria`` the summary holds the same for each criterion's
seconds, lower being better and with no verdict, over the pairs whose two
probes both reported.  ``runs`` keeps every run's ``env``, ``classes``, ``info``
and result lines, and its probe's JSON (None where the probe failed).  A
run that fails or passes ``RUN_TIMEOUT_S`` keeps its record with no result
and no probe, which leaves its pair out of the summary and marks the
workload incorrect.  The file is rewritten after every pair.  After the
last pair the tier-1 suite (``TIER1``, with ``src`` first on ``PYTHONPATH``)
runs once in each tree, under ``RUN_TIMEOUT_S``: ``tier1`` holds per side
its wall seconds, pytest's passed, failed and error counts and reported
seconds, and its 15 slowest durations, or None where the run timed out or
printed no summary line.  Then ``qfraclab verify --json`` runs once in each
tree, the same way: ``verify`` holds per side its records (None where the
run timed out or printed none), and under ``rows`` each row of either side,
in the parent's order, as its criterion, label and gate with the parent's
and the change's value (None on a side without that row), so that a diff
shows the errors a change moves as well as its seconds.  ``finished_utc``
is set once that is in.

``src_sha256`` names a tree's package source: the SHA-256 of the
``sha256sum`` listing of every file under ``src/`` outside ``__pycache__``,
in sorted path order, which is what
``find src -type f -not -path '*/__pycache__/*' | LC_ALL=C sort | xargs sha256sum | sha256sum``
prints.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
WORKLOADS = ("spectral", "recurrence", "cli-cold")
FIRST_SEED = 41
PAIRS = 10
RUN_TIMEOUT_S = 900
TIER1 = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=15")
VERIFY = ("-c", "from qfraclab.cli import entry; entry()", "verify", "--json")


def src_sha256(tree: Path) -> str:
    files = sorted(
        path.relative_to(tree).as_posix()
        for path in (tree / "src").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    listing = "".join(f"{hashlib.sha256((tree / name).read_bytes()).hexdigest()}  {name}\n" for name in files)
    return hashlib.sha256(listing.encode()).hexdigest()


def git_commit(tree: Path):
    """The tree's HEAD commit, or None for a tree that is not a git checkout."""
    if not (tree / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def parse_output(stdout: str) -> dict:
    """The ``env``, ``classes`` and ``info`` lines of a ``bench/run.py`` run,
    and its last line, the result; a part that is missing is None."""
    record = {"env": None, "classes": None, "info": None, "result": None}
    lines = stdout.splitlines()
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("env", "classes", "info"):
            record[key] = json.loads(rest)
    if lines and lines[-1].startswith("{"):
        record["result"] = json.loads(lines[-1])
    return record


def probe_cold(tree: Path):
    """The JSON line of ``bench/probe.py cold`` run in ``tree``, or None where the
    probe exits non-zero, prints no JSON last or passes ``RUN_TIMEOUT_S``."""
    try:
        out = subprocess.run([sys.executable, "bench/probe.py", "cold"], cwd=tree, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``, then one cold probe there (see the module docstring)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    try:
        out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"returncode": None, "env": None, "classes": None, "info": None, "result": None,
                "stderr": "timeout"}
    record = {"returncode": out.returncode, **parse_output(out.stdout)}
    if out.returncode != 0 or out.stderr.strip():
        record["stderr"] = out.stderr[-2000:]
    record["probe"] = probe_cold(tree)
    return record


def parse_tier1(stdout: str, wall_s: float):
    """The counts, reported seconds and slowest durations of a ``TIER1`` run's
    output, with its wall seconds; None where the last line is no summary
    such as ``2 failed, 847 passed, 1 warning in 17.10s``."""
    lines = stdout.strip().splitlines()
    summary = re.fullmatch(r"=* *(.*?) in ([\d.]+)s(?: \([\d:]+\))? *=*", lines[-1]) if lines else None
    if summary is None:
        return None
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary[1])}
    slowest = [{"seconds": float(m[1]), "when": m[2], "test": m[3]}
               for m in map(re.compile(r"([\d.]+)s (setup|call|teardown) +(\S.*)").fullmatch, lines) if m]
    return {"wall_s": wall_s, "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("errors", counts.get("error", 0)), "pytest_s": float(summary[2]),
            "slowest": slowest}


def _src_env() -> dict:
    """The environment with the tree's ``src`` first on ``PYTHONPATH``."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}


def tier1_run(tree: Path):
    """One ``TIER1`` run in ``tree``, read by :func:`parse_tier1`; None past ``RUN_TIMEOUT_S``."""
    start = time.perf_counter()
    try:
        out = subprocess.run([sys.executable, *TIER1], cwd=tree, env=_src_env(), capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return parse_tier1(out.stdout, time.perf_counter() - start)


def verify_run(tree: Path):
    """The records of one ``VERIFY`` run in ``tree``, a failing criterion's too;
    None where it passes ``RUN_TIMEOUT_S`` or prints no record."""
    try:
        out = subprocess.run([sys.executable, *VERIFY], cwd=tree, env=_src_env(), capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")] or None


def verify_rows(records: dict) -> list:
    """Each row of either side's ``verify`` records (side -> records or None), in
    the parent's order and then the change's new rows, with both sides' values
    and the gate of the first side that has the row."""
    rows = {}
    for side in SIDES:
        for record in records[side] or ():
            for label, value, gate in record["rows"]:
                row = rows.setdefault((record["name"], label), {
                    "criterion": record["name"], "label": label, "gate": gate, "parent": None, "change": None})
                row[side] = value
    return list(rows.values())


def _spread(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _compare(values: dict, direction: str) -> dict:
    """Each side's spread of ``values`` (side -> one value per pair), the change's
    median over the parent's, and the pairs the change won or tied in ``direction``."""
    sign = 1 if direction == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
    entry = {"better": direction, **{side: _spread(values[side]) for side in SIDES}}
    entry["change_over_parent_median"] = entry["change"]["median"] / entry["parent"]["median"]
    entry.update(change_wins=sum(d > 0 for d in diffs), ties=sum(d == 0 for d in diffs), pairs=len(diffs))
    return entry


def _verdict(values: dict, entry: dict, bound: float) -> str:
    """The verdict on a metric (see the module docstring): ``values`` and
    ``entry`` are the input and the result of :func:`_compare`, and ``bound`` the
    largest relative change of the median that counts as no change."""
    sign = 1 if entry["better"] == "higher" else -1
    parent = entry["parent"]
    spread = parent["q3"] - parent["q1"]
    gain = sign * (entry["change"]["median"] - parent["median"])
    if min(sign * c for c in values["change"]) > max(sign * p for p in values["parent"]) or (
            entry["change_wins"] >= 0.9 * entry["pairs"] and gain > spread):
        return "better"
    if spread / parent["median"] > bound:
        return "unresolved"
    if -gain / parent["median"] > bound:
        return "worse"
    return "unchanged"


def summarise(runs: list, metrics: dict) -> dict:
    """Per workload: each metric in ``metrics`` (name -> ("lower" or "higher",
    bound)) over the pairs whose two runs both returned a result, with its
    verdict, and each probed criterion's seconds over the pairs whose two
    probes both timed it."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by = {(run["pair"], run["side"]): run for run in runs if run["workload"] == workload}
        pairs = sorted({pair for pair, _ in by})
        done = [i for i in pairs if all(by.get((i, side), {}).get("result") for side in SIDES)]
        compared = {}
        for name, (direction, bound) in (metrics.items() if done else ()):
            values = {side: [by[i, side]["result"]["metrics"][name]["value"] for i in done] for side in SIDES}
            compared[name] = _compare(values, direction)
            compared[name]["verdict"] = _verdict(values, compared[name], bound)
        timed = {}  # criterion -> side -> seconds, over the pairs probed on both sides
        for i in pairs:
            probes = {side: by.get((i, side), {}).get("probe") for side in SIDES}
            if not all(probes.values()):
                continue
            for name in sorted(set(probes["parent"]["criteria"]) & set(probes["change"]["criteria"])):
                for side in SIDES:
                    timed.setdefault(name, {s: [] for s in SIDES})[side].append(probes[side]["criteria"][name][0])
        summary[workload] = {
            "metrics": compared,
            "criteria": {name: _compare(values, "lower") for name, values in timed.items()},
            "all_correct": len(done) == len(pairs) and all(
                by[i, side]["result"]["correct"] for i in done for side in SIDES),
            "seeds": [by[i, SIDES[0]]["seed"] for i in pairs],
        }
    return summary


def run_ledger(trees: dict, plan: dict, out: Path, run=bench_run, tier1=tier1_run, verify=verify_run) -> dict:
    """Run ``plan`` (workload -> pairs) over ``trees`` (side -> root), then ``tier1``
    and ``verify`` in each tree, and write the ledger to ``out``."""
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    metrics = {metric["name"]: (metric["better"], metric["bound"]) for metric in spec["end_to_end"]}
    ledger = {
        "what": f"bench/run.py --seconds {seconds:g} --trace 0, each run followed by bench/probe.py cold in "
                "its tree, parent and change alternating within each pair (the side that runs first "
                "alternates); each pair shares one seed; then the tier-1 suite and verify --json once in "
                "each tree",
        "parent": {"commit": git_commit(trees["parent"]), "src_sha256": src_sha256(trees["parent"])},
        "change": {"commit": git_commit(trees["change"]), "src_sha256": src_sha256(trees["change"])},
        "finished_utc": None,
        "summary": {},
        "tier1": None,
        "verify": None,
        "runs": [],
    }
    for workload, npairs in plan.items():
        for pair in range(npairs):
            seed = FIRST_SEED + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                record = run(trees[side], workload, seed, seconds)
                ledger["runs"].append({"side": side, "workload": workload, "seed": seed, "pair": pair,
                                       "first": order[0], **record})
                print(f"{workload} pair {pair} {side}: returncode {record['returncode']}", file=sys.stderr)
            ledger["summary"] = summarise(ledger["runs"], metrics)
            out.write_text(json.dumps(ledger, indent=1) + "\n")
    ledger["tier1"] = {side: tier1(trees[side]) for side in SIDES}
    records = {side: verify(trees[side]) for side in SIDES}
    ledger["verify"] = {**records, "rows": verify_rows(records)}
    ledger["finished_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    return ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            print(f"error: {side} tree {tree} has no bench/run.py", file=sys.stderr)
            return 2
    ledger = run_ledger(trees, dict.fromkeys(WORKLOADS, PAIRS), args.out)
    for workload, entry in ledger["summary"].items():
        for name, metric in entry["metrics"].items():
            print(f"verdict {workload} {name} {metric['verdict']}")
    return 0 if all(entry["all_correct"] for entry in ledger["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
