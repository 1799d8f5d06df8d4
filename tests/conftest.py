import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def run_fresh():
    """Run a code string in a fresh interpreter that imports the package from ``src``,
    so that modules imported by other tests do not count; returns the finished process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))

    def run(code: str):
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)

    return run


@pytest.fixture(scope="session")
def family_draws():
    """Seeded ``(params, family, x, depth)`` draws over the three built-in J-fraction
    families: float parameters with real or complex x, and Fraction parameters with
    exact x."""
    import random
    from fractions import Fraction

    from qfraclab.recurrence import Params, b0_family, entry16_family, hirschhorn_family

    rng = random.Random(11)

    def twentieths(lo, hi):
        return Fraction(rng.randint(lo, hi), 20)

    draws = []
    for i in range(300):
        if i % 3 == 2:
            q = twentieths(1, 18) * rng.choice((1, -1))
            a, b, lam = twentieths(-30, 30), twentieths(-30, 10), twentieths(-20, 20)
            x, depth = rng.choice((1, Fraction(rng.randint(-40, 40), 7))), rng.randint(1, 10)
        else:
            q, a, b, lam = rng.uniform(-0.9, 0.9), rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 0.5), rng.uniform(-1, 1)
            x = rng.choice((1, rng.uniform(-3, 3), complex(rng.uniform(-3, 3), rng.uniform(-2, 2))))
            depth = rng.randint(1, 300)
        kind = (i // 3) % 3  # every family meets every number type
        if kind == 0:
            p = Params(q, a, b, lam)
            family = hirschhorn_family(p)
        elif kind == 1:
            p = Params(q, a, 0, lam)
            family = b0_family(p)
        else:
            p = Params(q, 0, 0, lam)
            family = entry16_family(lam, q)
        draws.append((p, family, x, depth))
    return draws
