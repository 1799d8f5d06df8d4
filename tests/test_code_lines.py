"""``tools/code_lines.py``: code lines are lines with a token other than a comment
or a line break, less the lines of module, class and function docstrings."""

import importlib.util
import runpy
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a comment


class K:
    """Class docstring."""

    def f(self, x):
        """Function docstring,

        on three lines."""
        # a comment line
        text = """a string that is not a docstring,
        on two lines"""
        return (x +
                math.pi, text)
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, class, def, the two lines of the string, the two of the return
    assert code_lines.code_lines(SOURCE) == 7


def test_the_script_prints_one_count_per_module_and_the_total(capsys):
    runpy.run_path(str(TOOL), run_name="__main__")
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
    modules = {p.stem for p in (TOOL.parents[1] / "src" / "qfraclab").glob("*.py")}
    assert set(rows) == modules | {"total"}
    assert int(rows["total"]) == sum(int(rows[m]) for m in modules)
