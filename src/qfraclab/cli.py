"""Command-line front-end.

Subcommands:

* ``eval``         evaluate a continued fraction by two independent methods
* ``convergents``  tabulate closed-form convergents
* ``density``      emit the spectral density over an x-grid as CSV or JSON
* ``orthogonality``print the Gram matrix of weighted inner products
* ``moments``      compare the q-integral and closed moment solutions
* ``verify``       run the acceptance suites (``--json``: one object per criterion)

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Numbers are printed with ``repr``, the shortest round-trip decimal form,
so output is byte-identical across runs with the same flags.

Each subcommand imports the modules it uses when it runs, so building the
parser (and ``--help``) loads no numerical module.
"""

from __future__ import annotations

import argparse
import sys

from . import SUITE_NAMES
from .errors import PoleError, QFracError

__all__ = ["main", "entry"]


def _fmt(v) -> str:
    if isinstance(v, complex):
        return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}j"
    return repr(float(v))


# The parameters each family of ``eval`` and ``convergents`` fixes at 0.
_FIXED = {"b0": ("b",), "entry16": ("a", "b"), "a0": ("a",), "entry15": ("b",)}


def _read_params_file(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise QFracError(f"bad params-file line (want key=value): {line!r}")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in ("q", "a", "b", "lambda"):
                    raise QFracError(f"unknown params-file key {key!r}")
                out["lam" if key == "lambda" else key] = float(val)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not a number
        raise QFracError(f"bad params file: {exc}") from None
    return out


def _params_from(args):
    """Merge flags over params-file values; explicit flags win.  The
    subcommands with ``--family`` (eval, convergents) default an unset a or
    b to 0, and a nonzero value of a parameter that the chosen family fixes
    at 0 is an error."""
    from .recurrence import Params

    vals = {"q": args.q, "a": args.a, "b": args.b, "lam": args.lam}
    if getattr(args, "params_file", None):
        fromfile = _read_params_file(args.params_file)
        for key, val in fromfile.items():
            if vals[key] is None:
                vals[key] = val
    family = getattr(args, "family", None)
    for key in _FIXED.get(family, ()):
        if vals[key] not in (None, 0):
            raise QFracError(f"family {family} fixes {key} = 0, got {key} = {vals[key]!r}")
    if family is not None:
        vals["a"] = 0.0 if vals["a"] is None else vals["a"]
        vals["b"] = 0.0 if vals["b"] is None else vals["b"]
    missing = [k for k, v in vals.items() if v is None]
    if missing:
        raise QFracError(f"missing parameter(s): {', '.join(missing)}")
    return Params(vals["q"], vals["a"], vals["b"], vals["lam"])


def _add_param_flags(sub):
    sub.add_argument("--q", type=float, default=None)
    sub.add_argument("--a", type=float, default=None)
    sub.add_argument("--b", type=float, default=None)
    sub.add_argument("--lambda", dest="lam", type=float, default=None)
    sub.add_argument("--params-file", default=None, help="key=value lines for q, a, b, lambda")


def _cmd_eval(args) -> int:
    from . import cfrac, recurrence

    p = _params_from(args)
    depth = args.depth
    if depth < 1:
        raise QFracError("--depth must be >= 1")
    # family -> (J-fraction, label, divisor of its convergents)
    fam, label, scale = {
        "hirschhorn": (recurrence.hirschhorn_family(p), "H(x)/(1-b)", 1 - p.b),
        "b0": (recurrence.b0_family(p), "R(x)", 1),
        "entry16": (recurrence.entry16_family(p.lam, p.q), "Rogers-Ramanujan-type fraction", 1),
    }[args.family]
    forward = cfrac.convergent(fam, args.x, depth) / scale
    backward = cfrac.backward_convergent(fam, args.x, depth) / scale
    diff = abs(forward - backward)
    print(f"family   : {args.family} ({label})")
    print(f"depth    : {depth}")
    print(f"value    : {_fmt(forward)}")
    print(f"backward : {_fmt(backward)}")
    print(f"|diff|   : {_fmt(diff)}")
    return 0


def _cmd_convergents(args) -> int:
    from . import convergents

    n = args.n
    if n < 0:
        raise QFracError("--n must be >= 0")
    p = _params_from(args)
    # family -> (closed form called with (m, p), first m)
    closed, first = {
        "entry16": (lambda m, p: convergents.entry16(m, p.lam, p.q), 0),
        "a0": (lambda m, p: convergents.a0_closed(m, p.b, p.lam, p.q), 0),
        "hirschhorn": (lambda m, p: convergents.hirschhorn_closed(m, p.q, p.a, p.b, p.lam), 0),
        "entry15": (lambda m, p: convergents.entry15(m, p.a, p.lam, p.q), 1),
    }[args.family]
    rows = []
    for m in range(first, n + 1):
        N, D = closed(m, p)
        if D == 0:
            raise PoleError(f"D_{m} = 0: the depth-{m} convergent of family {args.family} has a pole")
        rows.append(f"{m},{_fmt(N)},{_fmt(D)},{_fmt(N / D)}")
    print("n,N,D,ratio")
    for row in rows:
        print(row)
    return 0


def _cmd_density(args) -> int:
    from . import measure

    p = _params_from(args)
    if args.grid < 2:
        raise QFracError("--grid must be >= 2")
    if not (-1 < args.xmin < args.xmax < 1):
        raise QFracError("need -1 < xmin < xmax < 1")
    xs = [args.xmin + (args.xmax - args.xmin) * i / (args.grid - 1) for i in range(args.grid)]
    rows = [(x, measure.density_nevai(x, p), measure.density_inversion(x, p)) for x in xs]
    if args.format == "csv":
        lines = ["x,density_nevai,density_inversion,abs_diff"]
        for x, dn, di in rows:
            lines.append(f"{x!r},{dn!r},{di!r},{abs(dn - di)!r}")
        text = "\n".join(lines) + "\n"
    else:
        import json

        text = json.dumps(
            {
                "params": {"q": p.q, "a": p.a, "b": p.b, "lambda": p.lam},
                "columns": ["x", "density_nevai", "density_inversion"],
                "samples": [list(row) for row in rows],
            },
            indent=2,
        ) + "\n"
    if args.out:  # opened only now, so a failed run leaves an existing file as it was
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise QFracError(f"cannot write --out file: {exc}") from None
    else:
        sys.stdout.write(text)
    return 0


def _cmd_orthogonality(args) -> int:
    from . import measure

    p = _params_from(args)
    g = measure.gram_matrix(p, args.nmax)
    deficit = 1.0 - g[0][0]
    print(f"Gram matrix, n,m <= {args.nmax} (adaptive periodic quadrature):")
    for row in g:
        print(",".join(map(repr, row)))
    print(f"mass_deficit: {deficit!r}")
    if abs(deficit) >= 1e-6:
        print(f"discrete mass suspected: deficit = {deficit!r}")
    else:
        print("norms:", ",".join(repr(measure.norm_squared(n, p)) for n in range(args.nmax + 1)))
    return 0


def _cmd_moments(args) -> int:
    from . import moments

    if args.kmax < 0:
        raise QFracError("--kmax must be >= 0")
    p = _params_from(args)
    print("k,p_k_closed,p_k_qintegral,abs_diff")
    for k in range(args.kmax + 1):
        pc = moments.moment_pk_closed(k, args.x, p)
        pi_ = moments.moment_pk_integral(k, args.x, p)
        print(f"{k},{_fmt(pc)},{_fmt(pi_)},{abs(pc - pi_)!r}")
    return 0


def _json_number(v):
    """A row's value or gate as strict JSON: a finite int or double as a number;
    inf, nan and an mpf (which may lie below the double range) as text."""
    if isinstance(v, (int, float)) and abs(v) < float("inf"):
        return v
    return str(v)


def _cmd_verify(args) -> int:
    from . import verify  # loads mpmath, which no other subcommand needs

    results = verify.run_suite(args.suite)
    failed = sum(not res.passed for res in results)
    if args.json:
        import json

        for res in results:
            rows = [[label, _json_number(v), _json_number(gate)] for label, v, gate in res.rows]
            print(json.dumps({"name": res.name, "passed": bool(res.passed), "rows": rows}, allow_nan=False))
    else:
        for res in results:
            print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
        print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfraclab",
        description="q-series and continued-fraction numerical laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a continued fraction two ways")
    pe.add_argument("--family", choices=("hirschhorn", "b0", "entry16"), required=True)
    _add_param_flags(pe)
    pe.add_argument("--x", type=float, default=1.0)
    pe.add_argument("--depth", type=int, default=200)
    pe.set_defaults(func=_cmd_eval)

    pc = sub.add_parser("convergents", help="tabulate closed-form convergents")
    pc.add_argument("--family", choices=("entry16", "hirschhorn", "a0", "entry15"), required=True)
    _add_param_flags(pc)
    pc.add_argument("--n", type=int, required=True)
    pc.set_defaults(func=_cmd_convergents)

    pd = sub.add_parser("density", help="spectral density over an x-grid")
    _add_param_flags(pd)
    pd.add_argument("--grid", type=int, default=101)
    pd.add_argument("--xmin", type=float, default=-0.99)
    pd.add_argument("--xmax", type=float, default=0.99)
    pd.add_argument("--format", choices=("csv", "json"), default="csv")
    pd.add_argument("--out", default=None, help="write to this file instead of stdout")
    pd.set_defaults(func=_cmd_density)

    po = sub.add_parser("orthogonality", help="Gram matrix of weighted inner products")
    _add_param_flags(po)
    po.add_argument("--nmax", type=int, default=5)
    po.set_defaults(func=_cmd_orthogonality)

    pm = sub.add_parser("moments", help="moment solutions, closed vs q-integral")
    _add_param_flags(pm)
    pm.add_argument("--x", type=float, default=0.3)
    pm.add_argument("--kmax", type=int, default=10)
    pm.set_defaults(func=_cmd_moments)

    pv = sub.add_parser("verify", help="run acceptance suites")
    pv.add_argument("--suite", choices=SUITE_NAMES, default="all")
    pv.add_argument("--json", action="store_true",
                    help="print one JSON object per criterion: name, passed and its [label, value, gate] rows")
    pv.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except QFracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
