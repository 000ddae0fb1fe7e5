"""Count the lines of each ``src/curetau`` module by kind.

Run from a checkout, optionally naming a commit to take the delta against:

    python3 tools/src_lines.py [BASE]

For each module of the checked-out tree's ``src/curetau`` it prints its
lines, split into code, docstrings, comments and blank lines, and the total.
An empty line is blank, in a docstring too.  A docstring is the first
statement of a module, class or function when it is a string, and its other
lines are those of its ``ast`` span.  Elsewhere a line holding only a comment
is a comment line, and every other line is code (a comment after code leaves
the line code).

With BASE, exported with ``git archive`` into a temporary directory, each row
also gives the change against that commit's module of the same name; a
module on one side only counts as empty on the other.
"""

import argparse
import ast
import sys
import tempfile
from pathlib import Path

from ab_common import ROOT, export

KINDS = ("lines", "code", "docstrings", "comments", "blank")


def docstring_lines(tree):
    """The numbers of the lines that docstrings span."""
    spans = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.update(range(first.lineno, first.end_lineno + 1))
    return spans


def count(path):
    """The module's counts, keyed as ``KINDS``."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            kind = "blank"
        elif number in docs:
            kind = "docstrings"
        elif stripped.startswith("#"):
            kind = "comments"
        else:
            kind = "code"
        counts["lines"] += 1
        counts[kind] += 1
    return counts


def tally(package):
    """Counts per module file name of ``package``, and their total."""
    modules = {path.name: count(path) for path in sorted(package.glob("*.py"))}
    modules["total"] = {kind: sum(c[kind] for c in modules.values()) for kind in KINDS}
    return modules


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", help="the commit to take the delta against")
    args = parser.parse_args(argv)
    change = tally(ROOT / "src" / "curetau")
    base = None
    if args.base:
        with tempfile.TemporaryDirectory() as scratch:
            export(args.base, Path(scratch))
            base = tally(Path(scratch) / "src" / "curetau")
    names = sorted((set(change) | set(base or ())) - {"total"}) + ["total"]
    empty = dict.fromkeys(KINDS, 0)
    header = "".join(f"{kind:>11}" for kind in KINDS)
    if base is not None:
        header += "   delta vs " + args.base
    print(f"{'module':<16}{header}")
    for name in names:
        counts = change.get(name, empty)
        row = f"{name:<16}" + "".join(f"{counts[kind]:>11}" for kind in KINDS)
        if base is not None:
            before = base.get(name, empty)
            row += "  " + " ".join(f"{counts[kind] - before[kind]:+d}" for kind in KINDS)
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
