"""Code lines per module of ``src/qfraclab``: lines that hold a token other than a
comment or a line break, less the lines of module, class and function docstrings.

    python tools/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    package = Path(__file__).resolve().parent.parent / "src" / "qfraclab"
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    for name, n in counts.items():
        print(f"{name:12} {n:5}")
    print(f"{'total':12} {sum(counts.values()):5}")
