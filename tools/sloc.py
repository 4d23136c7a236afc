"""Count code lines: every line that holds a token of code, not a docstring, comment or blank.

Usage:
    python tools/sloc.py FILE...             -- prints the total over the files
    python tools/sloc.py --base REV FILE...  -- prints each file's code lines at
        git revision REV and in the working tree, the delta, and the totals

A line counts when a token other than a comment or a line break starts or
runs through it, so each line of a multi-line expression or string literal
counts.  The lines of a docstring (a string that is the first statement of a
module, class or function) do not.  A file missing at REV or in the working
tree counts 0 lines there.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        scope = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, scope) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _git(path: str, *args: str) -> subprocess.CompletedProcess:
    """``git args...`` run in the directory of ``path``."""
    where = os.path.dirname(os.path.abspath(path))
    return subprocess.run(["git", "-C", where, *args], capture_output=True, text=True)


def _at_rev(rev: str, path: str) -> str:
    """The text of ``path`` at git revision ``rev``; empty when it is not there."""
    if _git(path, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}").returncode:
        raise SystemExit(f"sloc: {rev!r} is not a commit of the repository holding {path}")
    done = _git(path, "show", f"{rev}:./{os.path.basename(path)}")
    return done.stdout if done.returncode == 0 else ""


def _in_tree(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", metavar="REV", help="also count each file at this git revision")
    ap.add_argument("files", nargs="+")
    args = ap.parse_args()
    if args.base is None:
        print(sum(code_lines(_in_tree(p)) for p in args.files))
        return
    rows = [
        (p, code_lines(_at_rev(args.base, p)), code_lines(_in_tree(p) if os.path.exists(p) else ""))
        for p in args.files
    ]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'file':<{width}}  {args.base[:12]:>12}  {'tree':>6}  {'delta':>6}")
    for path, base, now in rows:
        print(f"{path:<{width}}  {base:>12}  {now:>6}  {now - base:>+6}")


if __name__ == "__main__":
    main()
