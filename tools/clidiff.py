"""Compare the CLI's output at a git revision with the working tree's, per scenario and subcommand.

Usage, from anywhere in the repository:

    python tools/clidiff.py --base REV [--scenario PATH ...]

``src/switchdwell`` at REV is extracted into a temporary directory, as
``tools/ab.py`` does.  Each subcommand of the working tree's CLI then runs on
each scenario (by default the bundled ``src/switchdwell/scenarios/*.scenario``)
in a fresh interpreter, once with the base package and once with the working
tree's, each in an empty directory of its own with ``--out out``.  The exit
codes, stdout, stderr, the files written and their bytes are compared.  One
line per (scenario, subcommand) says ``identical`` or what differs, and the
exit status is 1 when anything differs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:  # loaded by path, as the tests do
    sys.path.insert(0, str(HERE))
from ab import ROOT, extract  # noqa: E402

TREE = ROOT / "src"


def tree_differences(base: Path, tree: Path) -> list[str]:
    """Each relative path whose presence or bytes differ between the trees ``base`` and ``tree``."""
    files = [
        {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}
        for root in (base, tree)
    ]
    out = []
    for rel in sorted(files[0].keys() | files[1].keys()):
        if rel not in files[1]:
            out.append(f"{rel} only in base")
        elif rel not in files[0]:
            out.append(f"{rel} only in tree")
        elif files[0][rel].read_bytes() != files[1][rel].read_bytes():
            out.append(f"{rel} differs")
    return out


def _run(src: Path, scenario: Path, command: str, cwd: Path) -> subprocess.CompletedProcess:
    cwd.mkdir(parents=True)
    return subprocess.run(
        [sys.executable, "-m", "switchdwell.cli", command, "--scenario", str(scenario),
         "--out", "out"],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
    )


def compare(base_src: Path, scenario: Path, command: str, work: Path) -> tuple[int, list[str]]:
    """The base's exit code and what differs between the base's and the tree's run of ``command``.

    ``base_src`` holds the base's ``switchdwell``; the runs write under
    ``work``, which must not exist.  The list is empty when the exit codes,
    stdout, stderr and output trees are the same bytes.
    """
    base = _run(base_src, scenario, command, work / "base")
    tree = _run(TREE, scenario, command, work / "tree")
    diffs = [f"exit {base.returncode} vs {tree.returncode}"] * (base.returncode != tree.returncode)
    diffs += [name for name in ("stdout", "stderr") if getattr(base, name) != getattr(tree, name)]
    return base.returncode, diffs + tree_differences(work / "base", work / "tree")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, metavar="REV")
    ap.add_argument("--scenario", nargs="+", type=Path, metavar="PATH",
                    help="scenario files (default: the bundled ones)")
    args = ap.parse_args(argv)
    scenarios = [p.resolve() for p in args.scenario or ()] or sorted(
        (TREE / "switchdwell" / "scenarios").glob("*.scenario")
    )
    sys.path.insert(0, str(TREE))
    from switchdwell.cli import _SUBCOMMAND_FLAGS

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        base_src = extract(args.base, Path(tmp)).parent
        for i, scenario in enumerate(scenarios):
            for command in _SUBCOMMAND_FLAGS:
                code, diffs = compare(base_src, scenario, command, Path(tmp) / f"{i}" / command)
                differ += bool(diffs)
                verdict = "differs: " + "; ".join(diffs) if diffs else f"identical (exit {code})"
                print(f"{scenario.name} {command}: {verdict}")
    print(f"{differ} of {len(scenarios) * len(_SUBCOMMAND_FLAGS)} runs differ")
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())
