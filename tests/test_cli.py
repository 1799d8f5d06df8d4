import json

import pytest

from qfraclab.cli import main

ACCEPT_FLAGS = ["--q", "0.4", "--a", "0.3", "--b", "-0.25", "--lambda", "0.2"]
# the acceptance flags less the parameters each eval family fixes at 0
EVAL_FLAGS = {
    "hirschhorn": ACCEPT_FLAGS,
    "b0": ["--q", "0.4", "--a", "0.3", "--lambda", "0.2"],
    "entry16": ["--q", "0.4", "--lambda", "0.2"],
}


def test_eval_hirschhorn_methods_agree(capsys):
    rc = main(["eval", "--family", "hirschhorn", *ACCEPT_FLAGS, "--depth", "200"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = {l.split(":")[0].strip(): l.split(":", 1)[1].strip() for l in out.strip().splitlines()}
    assert abs(float(lines["value"]) - float(lines["backward"])) <= 1e-12 * (1 + abs(float(lines["value"])))


@pytest.mark.parametrize("x", ["0.5", "2"])
@pytest.mark.parametrize("family", ["hirschhorn", "b0", "entry16"])
def test_eval_backward_is_taken_at_the_same_x(family, x, capsys):
    from qfraclab import cfrac, recurrence

    rc = main(["eval", "--family", family, *EVAL_FLAGS[family], "--x", x, "--depth", "50"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert [line.split(":")[0].strip() for line in lines] == ["family", "depth", "value", "backward", "|diff|"]
    value, backward = (float(line.split(":", 1)[1]) for line in lines[2:4])
    assert abs(value - backward) <= 1e-12 * (1 + abs(value))
    if family == "hirschhorn":  # H(x)/(1 - b) from the backward route at this x
        p = recurrence.Params(0.4, 0.3, -0.25, 0.2)
        expected = cfrac.backward_convergent(recurrence.hirschhorn_family(p), float(x), 50) / (1 - p.b)
        assert backward == expected


def test_eval_depth_must_be_positive(capsys):
    assert main(["eval", "--family", "hirschhorn", *ACCEPT_FLAGS, "--depth", "0"]) == 2
    assert "--depth must be >= 1" in capsys.readouterr().err


def test_moments_kmax_must_be_nonnegative(capsys):
    assert main(["moments", *ACCEPT_FLAGS, "--kmax", "-1"]) == 2
    out, err = capsys.readouterr()
    assert "--kmax must be >= 0" in err
    assert out == ""


def test_moments_past_the_double_range_exit_two(capsys):
    # the closed form's S^k leaves the double range at k = 310 for x = 5: a
    # RangeError, printed as one line after the rows before it
    assert main(["moments", *ACCEPT_FLAGS, "--x", "5", "--kmax", "400"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: closed-form moment p_310(5.0) leaves the double range\n"
    assert captured.out.splitlines()[-1].startswith("309,")


def test_eval_b0_family(capsys):
    rc = main(["eval", "--family", "b0", "--q", "0.4", "--a", "0.3", "--lambda", "-0.5",
               "--x", "3.0", "--depth", "150"])
    assert rc == 0
    assert "value" in capsys.readouterr().out


def test_convergents_entry16_row(capsys):
    rc = main(["convergents", "--family", "entry16", "--q", "0.5", "--lambda", "1", "--n", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,N,D,ratio"
    last = rows[-1].split(",")
    lam, q = 1.0, 0.5
    assert float(last[1]) == pytest.approx(1 + lam * q**2)
    assert float(last[2]) == pytest.approx(1 + lam * q + lam * q * q)


def test_convergents_pole_exits_two_with_no_table(capsys):
    # D_1 = 1 + lam q vanishes at lam q = -1
    rc = main(["convergents", "--family", "entry16", "--q", "0.5", "--lambda", "-2", "--n", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: D_1 = 0")


def test_density_csv_schema_and_determinism(capsys):
    args = ["density", *ACCEPT_FLAGS, "--grid", "11"]
    rc = main(args)
    first = capsys.readouterr().out
    assert rc == 0
    rc = main(args)
    second = capsys.readouterr().out
    assert first == second  # byte-identical rerun
    lines = first.strip().split("\n")
    assert lines[0] == "x,density_nevai,density_inversion,abs_diff"
    assert len(lines) == 12
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 4
        assert float(parts[3]) < 1e-8


def test_density_json_schema(capsys):
    rc = main(["density", *ACCEPT_FLAGS, "--grid", "5", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["params"]["lambda"] == 0.2
    assert doc["columns"] == ["x", "density_nevai", "density_inversion"]
    # both routes, the same rows as the CSV
    main(["density", *ACCEPT_FLAGS, "--grid", "5"])
    csv_rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert doc["samples"] == [[float(v) for v in row[:3]] for row in csv_rows]


def test_density_json_both_is_usage_error(capsys):
    # there is no --method flag: JSON carries both routes, like CSV
    for method in ("both", "nevai", "inversion"):
        rc = main(["density", *ACCEPT_FLAGS, "--grid", "5", "--format", "json", "--method", method])
        assert rc == 2
        assert "unrecognized arguments: --method" in capsys.readouterr().err


def test_density_out_file(tmp_path, capsys):
    target = tmp_path / "dens.csv"
    rc = main(["density", *ACCEPT_FLAGS, "--grid", "5", "--out", str(target)])
    assert rc == 0
    text = target.read_text()
    assert text.startswith("x,density_nevai")
    assert text.endswith("\n") and "\r" not in text


def test_density_out_to_an_unwritable_path_exits_two(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "d.csv"
    rc = main(["density", *ACCEPT_FLAGS, "--grid", "5", "--out", str(target)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error: ")
    assert out == ""


def test_density_failing_midway_leaves_an_existing_out_file(tmp_path, capsys, monkeypatch):
    from qfraclab import measure
    from qfraclab.errors import DomainError

    def fail_past_zero(x, p):
        if x > 0:
            raise DomainError("poisoned density")
        return real(x, p)

    real = measure.density_nevai
    monkeypatch.setattr(measure, "density_nevai", fail_past_zero)
    target = tmp_path / "dens.csv"
    target.write_text("earlier run\n")
    assert main(["density", *ACCEPT_FLAGS, "--grid", "5", "--out", str(target)]) == 2
    assert capsys.readouterr().err == "error: poisoned density\n"
    assert target.read_text() == "earlier run\n"


def test_params_file(tmp_path, capsys):
    pf = tmp_path / "params.txt"
    pf.write_text("q=0.4\na=0.3\nb=-0.25\nlambda=0.2\n")
    rc = main(["eval", "--family", "hirschhorn", "--params-file", str(pf), "--depth", "50"])
    assert rc == 0
    out1 = capsys.readouterr().out
    rc = main(["eval", "--family", "hirschhorn", *ACCEPT_FLAGS, "--depth", "50"])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_orthogonality_runs(capsys):
    rc = main(["orthogonality", *ACCEPT_FLAGS, "--nmax", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mass_deficit" in out


def test_moments_runs(capsys):
    rc = main(["moments", *ACCEPT_FLAGS, "--x", "0.3", "--kmax", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[-1]) < 1e-10


def test_verify_suite_exit_zero(capsys):
    rc = main(["verify", "--suite", "qseries"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("PASS")


def test_verify_all_on_shipped_defaults(capsys):
    rc = main(["verify", "--suite", "all"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.strip().splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(l.startswith("PASS") for l in lines)


def test_verify_failure_exits_one(capsys, monkeypatch):
    from qfraclab import verify

    def fake_run(suite):
        return [verify.CheckResult("stub", False, "forced failure")]

    monkeypatch.setattr(verify, "run_suite", fake_run)
    rc = main(["verify", "--suite", "all"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("FAIL stub")


def _strict_json(line: str):
    """Parse one line of JSON, refusing the non-standard NaN and Infinity constants."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(line, parse_constant=reject)


def test_verify_json_prints_one_strict_object_per_criterion(capsys, monkeypatch):
    import math

    from mpmath import mp

    from qfraclab import verify

    rows = (
        ("mismatches", 0, 1),
        ("max rel err", 1.5e-16, 1e-12),
        ("a NaN route", math.nan, 1e-12),
        ("smallest error", mp.mpf("1e-344"), math.inf),
    )
    monkeypatch.setattr(
        verify,
        "run_suite",
        lambda suite: [verify.CheckResult("stub", False, "", rows), verify.CheckResult("raised", False, "raised")],
    )
    rc = main(["verify", "--json"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert [_strict_json(line) for line in lines] == [
        {
            "name": "stub",
            "passed": False,
            "rows": [
                ["mismatches", 0, 1],
                ["max rel err", 1.5e-16, 1e-12],
                ["a NaN route", "nan", 1e-12],
                ["smallest error", "1.0e-344", "inf"],
            ],
        },
        {"name": "raised", "passed": False, "rows": []},
    ]


def test_verify_json_rows_are_the_criteria_rows(capsys):
    from mpmath import mp

    from qfraclab import verify

    rc = main(["verify", "--suite", "measure", "--json"])
    records = [_strict_json(line) for line in capsys.readouterr().out.splitlines()]
    assert rc == 0
    assert [r["name"] for r in records] == [name for name, suite, _ in verify.CRITERIA if suite == "measure"]
    assert all(r["passed"] is True and r["rows"] for r in records)
    # markov-limit's smallest error lies below the double range and has no gate
    label, value, gate = next(r for r in records if r["name"] == "markov-limit")["rows"][-1]
    assert (label, gate) == ("smallest error", "inf")
    assert 0 < mp.mpf(value) < 1e-300


def test_suite_choices_match_verify():
    from qfraclab import cli, verify

    assert cli.SUITE_NAMES == verify.SUITE_NAMES


def test_cli_import_loads_neither_numpy_nor_mpmath(run_fresh):
    # only what the import adds counts, not what the interpreter's site preloaded
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qfraclab.cli\n"
        "added = set(sys.modules) - before\n"
        "ours = sorted(m for m in added if m.split('.')[0] == 'qfraclab')\n"
        "assert ours == ['qfraclab', 'qfraclab.cli', 'qfraclab.errors'], ours\n"
        "heavy = sorted(added & {'dataclasses', 'json', 'numpy', 'mpmath'})\n"
        "assert not heavy, heavy\n"
        "sys.exit(qfraclab.cli.main(['verify', '--suite', 'qseries']))\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


LIGHT_SUBCOMMANDS = [
    ["eval", "--family", "hirschhorn", *ACCEPT_FLAGS, "--depth", "50"],
    ["convergents", "--family", "hirschhorn", *ACCEPT_FLAGS, "--n", "3"],
    ["density", *ACCEPT_FLAGS, "--grid", "3"],
    ["orthogonality", *ACCEPT_FLAGS, "--nmax", "1"],
    ["moments", *ACCEPT_FLAGS, "--kmax", "1"],
]


def test_light_subcommands_add_no_heavy_module(run_fresh):
    # one interpreter runs them in turn: a module that one of them loads is
    # still loaded when the next is checked, so the first culprit is named
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from qfraclab.cli import main\n"
        f"for argv in {LIGHT_SUBCOMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    heavy = sorted((set(sys.modules) - before) & {'dataclasses', 'fractions', 'json', 'numpy', 'mpmath'})\n"
        "    assert not heavy, (argv[0], heavy)\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv,message",
    [
        (["eval", "--family", "hirschhorn", "--q", "0.4", "--a", "nan", "--b", "-0.25", "--lambda", "0.2"],
         "Params require finite a, got nan"),
        (["eval", "--family", "hirschhorn", *ACCEPT_FLAGS, "--x", "nan"], "x must be finite, got nan"),
        (["eval", "--family", "b0", *ACCEPT_FLAGS], "family b0 fixes b = 0, got b = -0.25"),
        (["eval", "--family", "entry16", "--q", "0.4", "--a", "0.9", "--lambda", "0.2"],
         "family entry16 fixes a = 0, got a = 0.9"),
        (["convergents", "--family", "entry16", "--q", "0.4", "--a", "0.9", "--lambda", "0.2", "--n", "3"],
         "family entry16 fixes a = 0, got a = 0.9"),
        (["convergents", "--family", "entry16", "--q", "0.4", "--b", "-0.25", "--lambda", "0.2", "--n", "3"],
         "family entry16 fixes b = 0, got b = -0.25"),
        (["convergents", "--family", "a0", *ACCEPT_FLAGS, "--n", "3"], "family a0 fixes a = 0, got a = 0.3"),
        (["convergents", "--family", "entry15", *ACCEPT_FLAGS, "--n", "3"], "family entry15 fixes b = 0, got b = -0.25"),
    ],
    ids=["nan-a", "nan-x", "b0-b", "entry16-a", "convergents-entry16-a", "convergents-entry16-b", "a0-a", "entry15-b"],
)
def test_bad_values_exit_two_with_a_message(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_fixed_parameter_given_as_zero_is_accepted(capsys):
    flags = ["--q", "0.4", "--a", "0.3", "--lambda", "0.2", "--x", "3.0", "--depth", "40"]
    assert main(["eval", "--family", "b0", *flags]) == 0
    implicit = capsys.readouterr().out
    assert main(["eval", "--family", "b0", *flags, "--b", "0"]) == 0
    assert capsys.readouterr().out == implicit


# the flags of each family subcommand less --a and --b, which default to 0 there
FAMILY_RUNS = {
    f"eval-{family}": ["eval", "--family", family, "--q", "0.4", "--lambda", "0.2", "--x", "3.0", "--depth", "40"]
    for family in ("hirschhorn", "b0", "entry16")
} | {
    f"convergents-{family}": ["convergents", "--family", family, "--q", "0.4", "--lambda", "0.2", "--n", "6"]
    for family in ("entry16", "hirschhorn", "a0", "entry15")
}


@pytest.mark.parametrize("run", FAMILY_RUNS)
def test_family_subcommands_default_a_and_b_to_zero(run, capsys):
    assert main(FAMILY_RUNS[run]) == 0
    unset = capsys.readouterr().out
    assert main([*FAMILY_RUNS[run], "--a", "0", "--b", "0"]) == 0
    assert capsys.readouterr().out == unset


@pytest.mark.parametrize("command", [["density", "--grid", "5"], ["orthogonality"], ["moments"]])
def test_subcommands_without_family_need_a(command, capsys):
    assert main([*command, "--q", "0.4", "--b", "-0.25", "--lambda", "0.2"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: missing parameter(s): a\n"
    assert out == ""


def test_params_file_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["eval", "--family", "hirschhorn", "--params-file", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: bad params file: [Errno 2]")
    pf = tmp_path / "params.txt"
    pf.write_text("q=0.4\na=three tenths\nb=-0.25\nlambda=0.2\n")
    assert main(["eval", "--family", "hirschhorn", "--params-file", str(pf)]) == 2
    assert capsys.readouterr().err == "error: bad params file: could not convert string to float: 'three tenths'\n"
    # a file value counts like a flag for a parameter the family fixes
    pf.write_text("q=0.4\nb=-0.25\nlambda=0.2\n")
    assert main(["eval", "--family", "b0", "--params-file", str(pf)]) == 2
    assert capsys.readouterr().err == "error: family b0 fixes b = 0, got b = -0.25\n"


def test_usage_errors_exit_two(capsys):
    assert main(["eval", "--family", "nosuch", "--q", "0.4", "--lambda", "0.2"]) == 2
    capsys.readouterr()
    assert main(["nosuchcommand"]) == 2
    capsys.readouterr()
    # domain error: q outside (0, 1)
    assert main(["eval", "--family", "entry16", "--q", "1.5", "--lambda", "0.2"]) == 2
    capsys.readouterr()
    # missing required parameter
    assert main(["eval", "--family", "entry16", "--lambda", "0.2"]) == 2


def _readme_commands():
    """Every ``qfraclab ...`` line of README.md's ``sh`` blocks, comments stripped."""
    import re
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = "\n".join(re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)).splitlines()
    return [line.split("#", 1)[0].strip() for line in lines if line.startswith("qfraclab ")]


@pytest.mark.parametrize("line", _readme_commands(), ids=lambda line: line.split()[1])
def test_readme_example_runs(line, tmp_path, capsys):
    import shlex

    argv = shlex.split(line)[1:]
    target = None
    if ">" in argv:  # the shell redirect, pointed into tmp_path
        argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
    assert main(argv) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    assert out
    if target is not None:
        (tmp_path / target).write_text(out, encoding="utf-8")


def test_readme_examples_are_found():
    subcommands = {line.split()[1] for line in _readme_commands()}
    assert subcommands == {"eval", "convergents", "density", "orthogonality", "moments", "verify"}
