"""Compare the CLI's output at a git revision with the working tree's, per scenario and subcommand.

Usage, from anywhere in the repository:

    python tools/clidiff.py --base REV [--scenario PATH ...]

``src/switchdwell`` at REV is extracted into a temporary directory, as
``tools/ab.py`` does.  Each subcommand of the working tree's CLI then runs on
each scenario in a fresh interpreter, once with the base package and once
with the working tree's, each in an empty directory of its own with
``--out out``.  By default the scenarios are the bundled
``src/switchdwell/scenarios/*.scenario`` and ``tools/*.scenario``, which runs
the analyses the bundled ones leave out (convergence and tube), so every
kind of output file is compared.  The exit codes, stdout, stderr, the files
written and their bytes are compared.  One
line per (scenario, subcommand) says ``identical`` or what differs, and then
each run's peak resident set size, base -> tree, as ``os.wait4`` reports it,
and its wall time from start to exit.  The exit status is 1 when any bytes
differ; the sizes and times do not count.  A single cold run's time moves
by 10-20% from run to run on a shared machine, so compare several.  This
script imports nothing that loads numpy (see ``tools/checkout.py``), so the
sizes are the runs' own.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:  # loaded by path, as the tests do
    sys.path.insert(0, str(HERE))
from checkout import ROOT, extract  # noqa: E402

TREE = ROOT / "src"
DEFAULT_SCENARIOS = sorted((TREE / "switchdwell" / "scenarios").glob("*.scenario")) + sorted(
    HERE.glob("*.scenario")
)


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


def _run(
    src: Path, scenario: Path, command: str, cwd: Path
) -> tuple[subprocess.CompletedProcess, float, float]:
    """The run of ``command``, its peak resident set size in MB from ``os.wait4`` and its
    wall time in s."""
    cwd.mkdir(parents=True)
    args = [sys.executable, "-m", "switchdwell.cli", command, "--scenario", str(scenario),
            "--out", "out"]
    # output goes to files, not pipes, so the child cannot block while wait4 waits
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(src)),
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(args, proc.returncode, out.read(), err.read())
    return done, usage.ru_maxrss / 1024, wall  # kB on Linux


def compare(
    base_src: Path, scenario: Path, command: str, work: Path
) -> tuple[int, list[str], tuple[float, float], tuple[float, float]]:
    """The base's exit code, what differs between its run of ``command`` and the tree's, and
    the two runs' peak resident set sizes in MB and wall times in s, base first.

    ``base_src`` holds the base's ``switchdwell``; the runs write under
    ``work``, which must not exist.  The list is empty when the exit codes,
    stdout, stderr and output trees are the same bytes.
    """
    base, base_mb, base_s = _run(base_src, scenario, command, work / "base")
    tree, tree_mb, tree_s = _run(TREE, scenario, command, work / "tree")
    diffs = [f"exit {base.returncode} vs {tree.returncode}"] * (base.returncode != tree.returncode)
    diffs += [name for name in ("stdout", "stderr") if getattr(base, name) != getattr(tree, name)]
    diffs += tree_differences(work / "base", work / "tree")
    return base.returncode, diffs, (base_mb, tree_mb), (base_s, tree_s)


def verdict(
    code: int, diffs: list[str], peak_mb: tuple[float, float], wall_s: tuple[float, float]
) -> str:
    """A report line's verdict: what differs, or ``identical``, then peak RSS and wall time,
    base -> tree."""
    text = "differs: " + "; ".join(diffs) if diffs else f"identical (exit {code})"
    return text + "; peak RSS {:.1f} -> {:.1f} MB; wall {:.3f} -> {:.3f} s".format(
        *peak_mb, *wall_s
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, metavar="REV")
    ap.add_argument("--scenario", nargs="+", type=Path, metavar="PATH",
                    help="scenario files (default: the bundled ones and tools/*.scenario)")
    args = ap.parse_args(argv)
    scenarios = [p.resolve() for p in args.scenario or ()] or DEFAULT_SCENARIOS
    commands = subprocess.run(
        [sys.executable, "-c", "from switchdwell.cli import _SUBCOMMAND_FLAGS as c; print(*c)"],
        env=dict(os.environ, PYTHONPATH=str(TREE)), capture_output=True, text=True, check=True,
    ).stdout.split()

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        base_src = extract(args.base, Path(tmp)).parent
        for i, scenario in enumerate(scenarios):
            for command in commands:
                code, diffs, *usage = compare(
                    base_src, scenario, command, Path(tmp) / f"{i}" / command
                )
                differ += bool(diffs)
                print(f"{scenario.name} {command}: {verdict(code, diffs, *usage)}")
    print(f"{differ} of {len(scenarios) * len(commands)} runs differ")
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())
