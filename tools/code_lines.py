"""Count code lines of Python files: no blank lines, comments or docstrings.

A line counts when it holds a token other than a comment, a line break or
an indent change, and lies outside every docstring (the leading string
statement of a module, class or function). Prints one line per file and
the total.

With --against REF, prints for each file its count at the git revision
REF (read with `git show`), its count now and the difference, then the
totals; a file missing on one side counts as 0 there. Each PATH must
exist and REF must name a commit; otherwise, or with no PATH, the usage
line goes to stderr and the exit status is 1.

    python3 tools/code_lines.py src/confee
    python3 tools/code_lines.py --against HEAD^ src/confee
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

USAGE = "usage: code_lines.py [--against REF] PATH [PATH ...]\n"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: bytes) -> int:
    """The number of code lines in the source of one Python file."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def _counts_now(paths: list) -> dict:
    """Relative file name -> code lines, for the .py files under paths."""
    files = []
    for path in paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return {os.path.relpath(path): code_lines(path.read_bytes()) for path in files}


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], capture_output=True)


def _counts_at(ref: str, paths: list) -> dict:
    """Relative file name -> code lines at ref, for the .py files under paths."""
    listed = _git("ls-tree", "-r", "-z", "--name-only", ref, "--", *map(str, paths))
    names = [name for name in listed.stdout.decode().split("\0") if name.endswith(".py")]
    return {name: code_lines(_git("show", f"{ref}:./{name}").stdout) for name in names}


def main(argv: list) -> int:
    ref = None
    if argv[:1] == ["--against"] and len(argv) > 1:
        ref, argv = argv[1], argv[2:]
    paths = list(map(Path, argv))
    if (
        not paths
        or not all(path.exists() for path in paths)
        or ref is not None and _git("rev-parse", "--verify", "-q", f"{ref}^{{commit}}").returncode
    ):
        sys.stderr.write(USAGE)
        return 1
    now = _counts_now(paths)
    if ref is None:
        for name, count in now.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(now.values()):6d}  total")
        return 0
    before = _counts_at(ref, paths)
    print(f"{'at ref':>6}  {'now':>6}  {'diff':>6}  (against {ref})")
    rows = [(name, before.get(name, 0), now.get(name, 0)) for name in sorted({*before, *now})]
    rows.append(("total", sum(before.values()), sum(now.values())))
    for name, old, new in rows:
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
