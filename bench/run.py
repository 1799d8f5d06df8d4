"""Benchmark of qfraclab: one workload per run, metrics on the last line.

    python3 bench/run.py --workload {cli-cold,spectral,recurrence} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the package is imported from
``src/`` and never needs installing.  ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cli-cold", "spectral", "recurrence")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120

ACCEPT = ["--q", "0.4", "--a", "0.3", "--b", "-0.25", "--lambda", "0.2"]
SUBCOMMANDS = {
    "eval": ["eval", "--family", "hirschhorn", *ACCEPT, "--depth", "200"],
    "convergents": ["convergents", "--family", "hirschhorn", *ACCEPT, "--n", "20"],
    "density": ["density", *ACCEPT, "--grid", "101"],
    "orthogonality": ["orthogonality", *ACCEPT, "--nmax", "5"],
    "moments": ["moments", *ACCEPT, "--kmax", "10"],
    "verify": ["verify", "--suite", "all"],
}
# The package is not installed and has no __main__, so each fresh
# interpreter calls the CLI's entry function directly.
CLI_SHIM = "import sys; from qfraclab.cli import main; sys.exit(main(sys.argv[1:]))"

# An op's latency is its fastest repetition in the run: every op of a warm
# deck repeats about fifty times in a run, and on a shared host whose speed
# swings by a quarter over tens of seconds the fastest repetition is the one
# least disturbed by other load.  Measured on a 2-vCPU VM over ten 30-second
# runs, ops per second from fastest repetitions spread 6% between runs where
# the mean over all repetitions spread 18%.  A cli-cold subcommand repeats
# only about nine times, in fresh processes; there its median invocation is
# the steadier statistic (median latency spread 10% between runs, against
# 21% for the fastest invocation).
#
# Tail latency percentile of each workload, fixed rather than derived from
# the sample count.  In cli-cold it picks the slowest of the six subcommands
# (verify); in the warm decks, 95 is the highest percentile whose value
# varied by less than 10% between seeds, where 99 varied by 20%.
TAIL_PERCENTILE = {"cli-cold": 92, "spectral": 95, "recurrence": 95}

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}

# Public functions the ops call, as traced span names.
FUNCTIONS = (
    "measure.density_nevai",
    "measure.density_inversion",
    "measure.stieltjes_transform",
    "measure.gram_matrix",
    "moments.moment_pk_closed",
    "moments.moment_pk_integral",
    "asymptotics.stieltjes_b0",
    "qseries.theta",
    "qseries.qpochhammer",
    "qseries.qpochhammer.exact",
    "recurrence.run_jfraction",
    "recurrence.run_jfraction.exact",
    "recurrence.run_monic",
    "recurrence.monic_ratio",
    "cfrac.hirschhorn_cf",
    "cfrac.hirschhorn_cf.exact",
    "cfrac.backward_convergent",
    "cfrac.backward_convergent.exact",
    "convergents.hirschhorn_closed",
    "convergents.hirschhorn_closed.exact",
    "convergents.entry16",
    "convergents.entry16.exact",
    "convergents.a0_closed",
    "convergents.entry15",
    "convergents.ram_Q.exact",
    "convergents.ram_Qstar.exact",
    "genfun.gf_eval",
)
MODULES = ("measure", "moments", "asymptotics", "qseries", "recurrence", "cfrac", "convergents", "genfun")


def per_layer_units() -> dict:
    from probe import CRITERIA

    units = {}
    for name in FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.p50_us": "us"})
    for module in MODULES:
        units.update({f"{module}.raised": "count", f"{module}.nonfinite": "count"})
    units.update({"cli.import_s": "s", "cli.heavy_imports": "count", "measure.gram_matrix.first_s": "s"})
    units.update({f"verify.{name}_s": "s" for name in CRITERIA})
    units.update({f"cli.{name}_s": "s" for name in SUBCOMMANDS})
    units.update({"measure.gram.unverified": "count", "trace.overhead_ratio": "ratio"})
    return units


class BenchError(Exception):
    """A result check could not run; the run reports no result."""


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(argv) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter to completion; returns (wall seconds, process)."""
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv[:3]} did not finish within {CHILD_TIMEOUT_S} s") from exc
    return perf_counter() - t0, proc


def environment(args) -> dict:
    import mpmath
    import numpy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def openblas_threads():
    """Thread count OpenBLAS runs with in this process, or None if not found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


# ---------------------------------------------------------------------------
# cli-cold: fresh interpreters, one subcommand each
# ---------------------------------------------------------------------------


def _rows(stdout: str, header: str) -> list[list[str]]:
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_cli(name: str, proc, refs) -> str:
    """Status of one invocation from its exit code and printed cross-route differences."""
    import ops

    if proc.returncode != 0:
        return ops.FAILED
    out = proc.stdout
    try:
        if name == "eval":
            fields = {k.strip(): v for k, v in (line.split(":", 1) for line in out.strip().splitlines())}
            pairs = [(float(fields["value"]), float(fields["backward"]))]
            return ops.verdict(pairs, ops.CLOSED_GATE)
        if name == "convergents":
            rows = _rows(out, "n,N,D,ratio")
            pairs = [(float(r[1]) / float(r[2]) / refs["one_minus_b"], refs["cf"][int(r[0])])
                     for r in rows if int(r[0]) >= 1]
            return ops.verdict(pairs, ops.CLOSED_GATE) if len(pairs) == 20 else ops.FAILED
        if name == "density":
            rows = _rows(out, "x,density_nevai,density_inversion,abs_diff")
            pairs = [(float(r[1]), float(r[2])) for r in rows]
            return ops.verdict(pairs, ops.DENSITY_GATE) if len(pairs) == 101 else ops.FAILED
        if name == "moments":
            rows = _rows(out, "k,p_k_closed,p_k_qintegral,abs_diff")
            pairs = [(complex(r[1]), complex(r[2])) for r in rows]
            return ops.verdict(pairs, ops.MOMENT_GATE) if len(pairs) == 11 else ops.FAILED
        if name == "orthogonality":
            lines = out.strip().splitlines()
            norms = [line for line in lines if line.startswith("norms:")]
            if not norms:
                return ops.UNVERIFIED
            g = [[float(v) for v in line.split(",")] for line in lines[1:7]]
            h = [float(v) for v in norms[0].split(":", 1)[1].split(",")]
            return ops.check_gram((g, h))
        if name == "verify":
            m = re.search(r"^(\d+)/(\d+) criteria passed$", out, re.M)
            return ops.OK if m and m.group(1) == m.group(2) else ops.FAILED
    except (ValueError, KeyError, IndexError):
        return ops.FAILED
    raise BenchError(f"no check for subcommand {name!r}")


def cli_references() -> dict:
    """Backward-evaluated truncations the ``convergents`` table must match."""
    from qfraclab import cfrac
    from qfraclab.recurrence import Params

    p = Params(0.4, 0.3, -0.25, 0.2)
    return {"one_minus_b": 1 - p.b, "cf": {n: cfrac.hirschhorn_cf(p, n) for n in range(1, 21)}}


def cli_loop(seed: int, seconds: float, refs) -> list[tuple[str, float, str]]:
    """Whole rounds of all subcommands, rotating the seeded order each round."""
    order = list(SUBCOMMANDS)
    random.Random(f"cli-cold:{seed}").shuffle(order)
    samples = []
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < seconds:
        k = rounds % len(order)
        for name in order[k:] + order[:k]:
            wall, proc = spawn(["-c", CLI_SHIM, *SUBCOMMANDS[name]])
            samples.append((name, wall, check_cli(name, proc, refs)))
        rounds += 1
    return samples


# ---------------------------------------------------------------------------
# warm workloads: one deck of ops, run in this interpreter
# ---------------------------------------------------------------------------


def run_deck(deck, tracer=None, errors=None) -> list[tuple[float, str]]:
    """(seconds, status) of every op of one pass; a raising op has failed.

    The first exception of each op kind outside the known-defect classes is
    kept in ``errors`` for the report.
    """
    import ops

    out = []
    for op in deck:
        t0 = perf_counter()
        try:
            if tracer is None:
                result = ops.compute(op)
            else:
                result = tracer.run_op(op, lambda call: ops.compute(op, call))
        except Exception as exc:
            out.append((perf_counter() - t0, ops.FAILED))
            if errors is not None and op.defect is None:
                errors.setdefault(op.kind, repr(exc))
            continue
        elapsed = perf_counter() - t0
        out.append((elapsed, ops.check(op, result)))
    return out


class Tally:
    """Op outcomes: attempts, unexpected failures, per-kind classes of one pass."""

    def __init__(self):
        self.attempted = 0
        self.unexpected = 0
        self.classes = {}
        self.errors = {}

    def add(self, kind: str, status: str, defect, count_class: bool = True) -> None:
        import ops

        self.attempted += 1
        known = status == ops.FAILED and defect is not None
        self.unexpected += status == ops.FAILED and not known
        if count_class:
            row = self.classes.setdefault(kind, {"ok": 0, "failed": 0, "unverified": 0, "known_defect": 0})
            row[status] += 1
            row["known_defect"] += known


def warm_passes(deck, seconds: float, tally: Tally, tracer=None, alternate: bool = False):
    """Whole passes until ``seconds`` elapse.

    Returns each op's fastest untraced time, the untraced and traced
    (passed ops, seconds) totals, and the number of passes.
    """
    import ops

    rates = {False: [0, 0.0], True: [0, 0.0]}
    best = [math.inf] * len(deck)
    start = perf_counter()
    n = 0
    while n == 0 or perf_counter() - start < seconds or (alternate and n < 2):
        traced = tracer is not None and (not alternate or n % 2 == 1)
        results = run_deck(deck, tracer if traced else None, tally.errors)
        for i, (op, (elapsed, status)) in enumerate(zip(deck, results)):
            tally.add(op.kind, status, op.defect, count_class=n == 0)
            if not traced:
                best[i] = min(best[i], elapsed)
        rates[traced][0] += sum(status == ops.OK for _, status in results)
        rates[traced][1] += sum(elapsed for elapsed, _ in results)
        n += 1
    return best, rates, n


def setup_time(workload: str, seed: int) -> float:
    if workload == "cli-cold":
        argv = ["-c", CLI_SHIM, "--help"]
    else:
        argv = [str(BENCH / "probe.py"), "setup", workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        wall, proc = spawn(argv)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        times.append(wall)
    return statistics.median(times)


def end_to_end(args) -> tuple[Tally, dict, dict]:
    tally = Tally()
    setup_s = setup_time(args.workload, args.seed)
    if args.workload == "cli-cold":
        samples = cli_loop(args.seed, args.seconds, cli_references())
        for i, (name, _, status) in enumerate(samples):
            tally.add(name, status, None, count_class=i < len(SUBCOMMANDS))
        latencies = [statistics.median(wall for sub, wall, _ in samples if sub == name) for name in SUBCOMMANDS]
        repeats = len(samples) // len(SUBCOMMANDS)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        import ops

        deck = ops.make_deck(args.workload, args.seed)
        run_deck(ops.first_of_each_kind(deck))  # lazy set-up is timed by the probes
        latencies, _, repeats = warm_passes(deck, args.seconds, tally)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # One pass of the deck (one round of subcommands) decides the classes.
    one_pass = {key: sum(row[key] for row in tally.classes.values()) for key in ("ok", "failed", "unverified")}
    attempted = sum(one_pass.values())
    p = TAIL_PERCENTILE[args.workload]
    values = {
        "setup_s": setup_s,
        "ops_per_s": one_pass["ok"] / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": percentile(latencies, p) * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }
    return tally, values, {"ops": len(latencies), "repeats": repeats, "tail_percentile": p,
                           "one_pass": {**one_pass, "attempted": attempted, "fail_ratio": one_pass["failed"] / attempted}}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def cold_probe(tally: Tally) -> dict:
    _, proc = spawn([str(BENCH / "probe.py"), "cold"])
    if proc.returncode != 0:
        raise BenchError(f"cold probe failed: {proc.stderr.strip()[-400:]}")
    cold = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {
        "cli.import_s": cold["import_s"],
        "cli.heavy_imports": cold["heavy_imports"],
        "measure.gram_matrix.first_s": cold["gram_first_s"],
    }
    for name, (seconds, passed) in cold["criteria"].items():
        values[f"verify.{name}_s"] = seconds
        tally.add(f"verify.{name}", "ok" if passed else "failed", None)
    return values


def per_layer(args) -> tuple[Tally, dict, dict]:
    import ops
    from spans import Tracer

    tally = Tally()
    values = cold_probe(tally)
    if args.workload == "cli-cold":
        samples = cli_loop(args.seed, args.seconds, cli_references())
    else:  # one invocation of each subcommand
        samples = cli_loop(args.seed, 0, cli_references())
    for i, (name, _, status) in enumerate(samples):
        tally.add(name, status, None, count_class=i < len(SUBCOMMANDS))
    for name in SUBCOMMANDS:
        values[f"cli.{name}_s"] = statistics.median(wall for sub, wall, _ in samples if sub == name)

    # The named warm workload runs for --seconds, alternating untraced and
    # traced passes; every other deck gets one pass of each, so that every
    # layer reports a count.
    tracer = Tracer()
    rates = {False: [0, 0.0], True: [0, 0.0]}
    unverified = 0
    for workload in ("spectral", "recurrence"):
        deck = ops.make_deck(workload, args.seed)
        run_deck(ops.first_of_each_kind(deck))
        seconds = args.seconds if workload == args.workload else 0
        _, deck_rates, _ = warm_passes(deck, seconds, tally, tracer, alternate=True)
        if args.workload in (workload, "cli-cold"):
            for traced in (False, True):
                rates[traced][0] += deck_rates[traced][0]
                rates[traced][1] += deck_rates[traced][1]
        if workload == "spectral":
            unverified = tally.classes["gram"]["unverified"]

    for name, (calls, busy, p50) in tracer.layer_stats(FUNCTIONS).items():
        values.update({f"{name}.calls": calls, f"{name}.busy_s": busy, f"{name}.p50_us": p50})
    for module in MODULES:
        values[f"{module}.raised"] = tracer.raised[module]
        values[f"{module}.nonfinite"] = tracer.nonfinite[module]
    values["measure.gram.unverified"] = unverified
    untraced = rates[False][0] / rates[False][1]
    traced = rates[True][0] / rates[True][1]
    values["trace.overhead_ratio"] = untraced / traced - 1.0
    spans_file = OUT / f"spans-{args.workload}.tsv"
    tracer.write(spans_file)
    return tally, values, {"spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT)),
                           "untraced_ops_per_s": untraced, "traced_ops_per_s": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qfraclab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'qfraclab'}; run from a qfraclab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qfraclab

    if Path(qfraclab.__file__).resolve().parent != SRC / "qfraclab":
        print(f"error: imported qfraclab from {qfraclab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args)
    env["loadavg_start"] = os.getloadavg()
    try:
        tally, values, info = per_layer(args) if args.trace else end_to_end(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()
    for kind, error in tally.errors.items():
        print(f"unexpected exception in {kind} ops: {error}", file=sys.stderr)
    units = per_layer_units() if args.trace else END_TO_END
    if set(values) != set(units):
        print(f"error: metric names differ from the declared set: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 1
    print("env " + json.dumps(env))
    print("classes " + json.dumps(tally.classes, sort_keys=True))
    print("info " + json.dumps(info))
    for name in units:
        print(f"metric {name} = {values[name]!r} {units[name]}")
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.unexpected,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
