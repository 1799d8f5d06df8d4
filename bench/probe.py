"""Fresh-interpreter probes, started by ``run.py`` one at a time.

``probe.py setup <workload> <seed>`` imports the package and completes the
first op of every kind in the workload's deck, then exits; ``run.py`` times
it from spawn to exit, which is the workload's set-up time.

``probe.py cold`` reports, as one JSON line, what a fresh interpreter pays
before any warm loop: the import of ``qfraclab.cli``, which heavy modules
that import pulls in, the first ``gram_matrix`` call (cold quadrature nodes
and BLAS), and the time of each acceptance criterion.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# The acceptance criteria timed one by one; fixed here so that the metric
# names stay the same when the suite changes.
CRITERIA = (
    "entry16-identity",
    "hirschhorn-formula",
    "entry15-a0-formulas",
    "density-cross-theorem",
    "markov-limit",
    "orthogonality-gram",
    "moment-solutions",
    "asymptotics",
    "g-limit-identity",
    "qseries-kernel",
)


def setup(workload: str, seed: int) -> int:
    import ops

    for op in ops.first_of_each_kind(ops.make_deck(workload, seed)):
        try:
            ops.check(op, ops.compute(op))
        except Exception:  # the program's failure is the op's status, not the probe's
            pass
    return 0


def cold() -> int:
    t0 = time.perf_counter()
    import qfraclab.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    heavy = sum(name in sys.modules for name in ("numpy", "mpmath"))
    from qfraclab import measure, verify
    from qfraclab.recurrence import Params

    t0 = time.perf_counter()
    measure.gram_matrix(Params(0.4, 0.3, -0.25, 0.2), 5)
    gram_first_s = time.perf_counter() - t0
    by_name = {name: fn for name, _, fn in verify.CRITERIA}
    criteria = {}
    for name in CRITERIA:
        t0 = time.perf_counter()
        passed = bool(by_name[name]().passed)
        criteria[name] = [time.perf_counter() - t0, passed]
    print(json.dumps({"import_s": import_s, "heavy_imports": heavy, "gram_first_s": gram_first_s,
                      "criteria": criteria}))
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2], int(sys.argv[3])))
    sys.exit(cold())
