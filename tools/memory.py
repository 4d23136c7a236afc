"""Peak memory and wall time of a cold ``switchdwell run`` against its number of samples.

Usage, from anywhere in the repository:

    python tools/memory.py [--samples N [N ...]] [--cert-samples K [K ...]] [--base REV]

For each N, the bundled example1 runs with ``boundary_points = 3`` and the
horizon of its ``cycle`` signal set so that the run simulates N samples over
all its trajectories; the primary signal's four take 4 x 2 861 of them, so N
must exceed 11 444.  Each run is a fresh interpreter in an empty directory,
as ``tools/clidiff.py`` runs them, with the working tree's package or, with
``--base``, also with the package at git revision REV.  One line per N gives
the samples counted in the trajectory CSVs written, each run's peak resident
set size from ``os.wait4`` and its wall time, base -> tree.  The output is
deleted after counting; near ``MAX_SAMPLES`` it is about 1.4 GB.

For each K of ``--cert-samples``, the bundled example1 runs as shipped but
with ``samples = K``, so each of its three modes' certificate checks tests
K points; the line gives the samples per mode read from the written
``certificate_report.json``, then peak RSS and wall time as above.  This
script imports nothing that loads numpy, so the sizes are the runs' own.
"""

from __future__ import annotations

import argparse
import json
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


def _example1(*edits: tuple[str, str]) -> str:
    """Example1's text with each (old, new) line replaced; each old line occurs once."""
    text = EXAMPLE1.read_text(encoding="utf-8")
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def scenario(samples: int) -> str:
    """Example1 with 3 boundary starts and a cycle of ``samples - PRIMARY_SAMPLES`` samples."""
    steps = samples - PRIMARY_SAMPLES - 1
    if steps < 1:
        raise SystemExit(f"--samples must exceed {PRIMARY_SAMPLES}, got {samples}")
    return _example1(("boundary_points = 16", "boundary_points = 3"),
                     ("horizon = 22.88", f"horizon = {steps * STEP!r}"))


def certificate_scenario(samples: int) -> str:
    """Example1 with ``samples`` certificate samples per mode."""
    return _example1(("samples = 10000", f"samples = {samples}"))


def counted_samples(out: Path) -> int:
    """The data rows of the trajectory CSVs under ``out``, read a megabyte at a time."""
    rows = 0
    for path in out.glob("trajectory_*.csv"):
        with open(path, "rb") as f:
            rows += sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b"")) - 1
    return rows


def certificate_samples(out: Path) -> int:
    """The samples each mode's certificate check tested, from ``certificate_report.json``."""
    doc = json.loads((out / "certificate_report.json").read_text(encoding="utf-8"))
    (tested,) = {report["samples_tested"] for report in doc["reports"]}
    return tested


def measure(src: Path, text: str, count, work: Path) -> tuple[int, float, float]:
    """(``count`` of the output, peak RSS in MB, wall time in s) of one cold run of ``text``.

    The run uses ``src``'s package and writes under ``work``, which must not
    exist and is left holding only the scenario.
    """
    work.mkdir(parents=True)
    path = work / "memory.scenario"
    path.write_text(text, encoding="utf-8")
    done, peak_mb, wall_s = _run(src, path, "run", work / "run")
    if done.returncode:
        raise SystemExit(f"run of {path} exited {done.returncode}: "
                         f"{done.stderr.decode().strip()}")
    out = work / "run" / "out"
    counted = count(out)
    shutil.rmtree(out)
    return counted, peak_mb, wall_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--samples", nargs="+", type=int, default=[], metavar="N",
                    help="RK4 samples summed over the trajectories")
    ap.add_argument("--cert-samples", nargs="+", type=int, default=[], metavar="K",
                    help="certificate samples per mode")
    ap.add_argument("--base", metavar="REV", help="also run the package at this git revision")
    args = ap.parse_args(argv)
    if not args.samples and not args.cert_samples:
        ap.error("give --samples, --cert-samples or both")
    cases = [(f"{n}", scenario(n), counted_samples, "samples") for n in args.samples]
    cases += [(f"cert{k}", certificate_scenario(k), certificate_samples, "certificate samples")
              for k in args.cert_samples]
    with tempfile.TemporaryDirectory() as tmp:
        sides = [TREE]
        if args.base:
            sides.insert(0, extract(args.base, Path(tmp) / "base").parent)
        for name, text, count, unit in cases:
            runs = [measure(src, text, count, Path(tmp) / name / str(i))
                    for i, src in enumerate(sides)]
            counts = " -> ".join(str(n) for n, _, _ in runs)
            peaks = " -> ".join(f"{mb:.1f}" for _, mb, _ in runs)
            walls = " -> ".join(f"{s:.2f}" for _, _, s in runs)
            print(f"{counts} {unit}: peak RSS {peaks} MB; wall {walls} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
