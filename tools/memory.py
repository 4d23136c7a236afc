"""Peak memory and wall time of a cold ``switchdwell run`` against the number of RK4 samples.

Usage, from anywhere in the repository:

    python tools/memory.py --samples N [N ...] [--base REV]

For each N, the bundled example1 runs with ``boundary_points = 3`` and the
horizon of its ``cycle`` signal set so that the run simulates N samples over
all its trajectories; the primary signal's four take 4 x 2 861 of them, so N
must exceed 11 444.  Each run is a fresh interpreter in an empty directory,
as ``tools/clidiff.py`` runs them, with the working tree's package or, with
``--base``, also with the package at git revision REV.  One line per N gives
the samples counted in the trajectory CSVs written, each run's peak resident
set size from ``os.wait4`` and its wall time, base -> tree.  The output is
deleted after counting; near ``MAX_SAMPLES`` it is about 1.4 GB.  This
script imports nothing that loads numpy, so the sizes are the runs' own.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:  # loaded by path, as the tests do
    sys.path.insert(0, str(HERE))
from clidiff import TREE, _run  # noqa: E402
from checkout import extract  # noqa: E402

EXAMPLE1 = TREE / "switchdwell" / "scenarios" / "example1.scenario"
PRIMARY_SAMPLES = 4 * 2861  # x0 and 3 boundary starts, 2.86 s at step 1e-3
STEP = 1e-3


def scenario(samples: int) -> str:
    """Example1 with 3 boundary starts and a cycle of ``samples - PRIMARY_SAMPLES`` samples."""
    steps = samples - PRIMARY_SAMPLES - 1
    if steps < 1:
        raise SystemExit(f"--samples must exceed {PRIMARY_SAMPLES}, got {samples}")
    text = EXAMPLE1.read_text(encoding="utf-8")
    for old, new in (("boundary_points = 16", "boundary_points = 3"),
                     ("horizon = 22.88", f"horizon = {steps * STEP!r}")):
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def counted_samples(out: Path) -> int:
    """The data rows of the trajectory CSVs under ``out``, read a megabyte at a time."""
    rows = 0
    for path in out.glob("trajectory_*.csv"):
        with open(path, "rb") as f:
            rows += sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b"")) - 1
    return rows


def measure(src: Path, samples: int, work: Path) -> tuple[int, float, float]:
    """(samples counted, peak RSS in MB, wall time in s) of one cold run on ``src``'s package.

    The run writes under ``work``, which must not exist and is left holding
    only the scenario.
    """
    work.mkdir(parents=True)
    path = work / "memory.scenario"
    path.write_text(scenario(samples), encoding="utf-8")
    done, peak_mb, wall_s = _run(src, path, "run", work / "run")
    if done.returncode:
        raise SystemExit(f"run of {samples} samples exited {done.returncode}: "
                         f"{done.stderr.decode().strip()}")
    out = work / "run" / "out"
    rows = counted_samples(out)
    shutil.rmtree(out)
    return rows, peak_mb, wall_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--samples", nargs="+", type=int, required=True, metavar="N")
    ap.add_argument("--base", metavar="REV", help="also run the package at this git revision")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [TREE]
        if args.base:
            sides.insert(0, extract(args.base, Path(tmp) / "base").parent)
        for n in args.samples:
            runs = [measure(src, n, Path(tmp) / f"{n}" / str(i)) for i, src in enumerate(sides)]
            counts = " -> ".join(str(rows) for rows, _, _ in runs)
            peaks = " -> ".join(f"{mb:.1f}" for _, mb, _ in runs)
            walls = " -> ".join(f"{s:.2f}" for _, _, s in runs)
            print(f"{counts} samples: peak RSS {peaks} MB; wall {walls} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
