"""Command-line entry point: scenario execution and bit-stable CSV/JSON outputs.

A run is ``analyse`` then ``emit``.  ``analyse`` runs every requested stage
and writes nothing: it returns each output file as its relative paths and
its content, an iterable of encoded blocks, with every JSON document
already encoded and every trajectory checked for finite V.  ``emit``
creates ``--out`` and streams each content once: every block goes to one
sha256 and to the file's first path, which is then copied to its other
paths; the manifest is written last.  So emission holds one block at a
time, an input error or a numeric failure leaves no file behind, and an
existing ``--out`` stays untouched.

Exit codes: 0 success / all verifications passed, 2 verification failure,
3 input error, 4 numeric failure (non-finite state, V or JSON value).

Every float cell of the CSV outputs is rendered as ``'%.17g'`` by ``_csv.csv_blocks``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import shutil
import sys
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ._csv import _BLOCK, Runs, csv_blocks, labels
from .core import SwitchedSystem
from .dwell import global_dwell, local_dwell, mu_bound, triangle_gap
from .errors import IoError, NonfiniteState, SwitchDwellError
from .lyapunov import check_certificate, region_boundary_points
from .scenario import Scenario, parse_scenario
from .sim import Trajectory, convergence_product, simulate_switched, tube_sample, verify_trapping
from .sim import _v_active

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


def _json(name: str, obj) -> bytes:
    """``obj`` as indented, key-sorted JSON; a NaN or infinity in it is ``NonfiniteState``."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonfiniteState(f"non-finite value in {name}") from exc
    return (text + "\n").encode("utf-8")


def _trajectory_csv(traj: Trajectory, system: SwitchedSystem) -> Iterator[bytes]:
    """One row per sample, V_active and the mode column from the trajectory's plan, in blocks.

    V is computed for one block of rows at a time, as the block is rendered,
    so neither ``analyse`` nor the CSV ever holds V for a whole trajectory.
    """
    n = system.dimension
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",mode,V_active\n"
    plan = traj._plan
    v = functools.partial(_v_active, traj, system)
    yield from csv_blocks(header, traj.times, traj.states, Runs(plan.modes, plan.lens), v)


def analyse(s: Scenario) -> tuple[int, list[str], list[tuple]]:
    """Run the requested analyses in order, print a line per stage, and write nothing.

    Order: certify, dwell, simulate, trapping, convergence, triangle, tube,
    plot data.  ``s`` comes from ``parse_scenario``, which has resolved and
    checked every input, so what can still fail here is numeric
    (``NonfiniteState``).  Returns (exit_status, warnings, files): each file
    is its relative paths and its content, an iterable of encoded blocks
    (a CSV is rendered block by block as it is written).
    """
    files: list[tuple] = []
    warnings: list[str] = []
    failed = False
    flags = s.analyses
    system, eps = s.system, s.eps

    def report(name: str, obj) -> None:
        files.append(((name,), (_json(name, obj),)))

    if flags.get("certify"):
        lower = np.full(system.dimension, s.box[0])
        upper = np.full(system.dimension, s.box[1])
        reports = [
            check_certificate(sub, (lower, upper), s.samples, s.seed)
            for sub in system.subsystems
        ]
        ok = all(r.passed for r in reports)
        failed |= not ok
        report(
            "certificate_report.json",
            {"all_passed": ok, "reports": [r.to_dict() for r in reports]},
        )
        print(f"certify: {'pass' if ok else 'FAIL'}")

    if flags.get("dwell_table"):
        table = local_dwell(eps, system, s.transitions)
        doc = table.to_dict()
        # every scenario mode is identity-quadratic, so mu has its closed form;
        # the fallback key stays for stable output bytes
        mu = mu_bound(eps, system, mode="closed_form")
        doc["mu_closed_form_fallback"] = False
        doc["mu"] = mu
        doc["t_glob"] = global_dwell(eps, mu, min(x.decay_rate for x in system.subsystems))
        doc["t_required"] = max(doc["t_glob"], table.t_loc)
        report("dwell_table.json", doc)
        print(f"dwell: t_loc={table.t_loc:.6g} t_glob={doc['t_glob']:.6g}")

    trajs: dict[tuple[str, int], Trajectory] = {}
    if s.simulates:
        for name, spec in s.signals.items():
            for i, x0 in enumerate(spec.x0):
                traj = simulate_switched(system, spec.signal, x0, spec.horizon, s.step)
                trajs[(name, i)] = traj
                # the states are checked by simulate_switched; V is checked a
                # block at a time and dropped, and recomputed when the CSV is rendered
                for lo in range(0, len(traj.times), _BLOCK):
                    if not np.isfinite(_v_active(traj, system, lo, lo + _BLOCK)).all():
                        raise NonfiniteState(f"non-finite value in trajectory_{name}_{i}.csv")
                # one buffer: the same bytes are the plot directory's trajectory.csv
                paths = (f"trajectory_{name}_{i}.csv",)
                if flags.get("plot_data"):
                    paths += (f"plot_{name}_{i}/trajectory.csv",)
                files.append((paths, _trajectory_csv(traj, system)))

    if flags.get("trapping"):
        reports = {}
        for (name, i), traj in trajs.items():
            rep = verify_trapping(traj, system, s.signals[name].signal, eps)
            reports[f"{name}_{i}"] = rep.to_dict()
            failed |= not rep.overall_pass
        ok = all(r["overall_pass"] for r in reports.values())
        report("trapping_report.json", {"all_passed": ok, "runs": reports})
        print(f"trapping: {'pass' if ok else 'FAIL'}")

    if flags.get("convergence"):
        rep = convergence_product(
            system, s.signals["signal"].signal, trajs[("signal", 0)], eps, s.i_max
        )
        report("convergence_report.json", rep.to_dict())
        print(
            "convergence: "
            + ("certified" if rep.certified else "not certified by i_max")
            + (f", entry at switch {rep.entry_index}" if rep.entry_index is not None else "")
        )

    if flags.get("triangle"):
        ta = triangle_gap(eps, *(system[m] for m in s.triangle_modes))
        if ta.eps0 is None:
            warnings.append("triangle: geometry outside the eps0 search domain")
        report("triangle_report.json", ta.to_dict())
        print(f"triangle: gap={ta.gap:.6g} ({'detour longer' if ta.gap < 0 else 'detour not longer'})")

    if flags.get("tube"):
        result = tube_sample(
            system, s.tube_from, s.tube_to, eps, s.tube_times, s.tube_boundary_count, s.step
        )
        to_sub = system[s.tube_to]
        doc = {
            "from": str(s.tube_from),
            "to": str(s.tube_to),
            "eps": eps,
            "snapshots": [
                {
                    "t": t,
                    "points": [[float(c) for c in p] for p in pts],
                    "max_v_target": float(to_sub.v_batch(pts).max()),
                }
                for t, pts in result
            ],
        }
        report("tube_report.json", doc)
        print("tube: written")

    if flags.get("plot_data"):
        plots = [f"plot_{name}_{i}" for name, i in trajs]
        # closed 256-point boundary polylines, the same in every plot directory
        for sub in system.subsystems:
            pts = region_boundary_points(sub, eps, 256)
            body = csv_blocks("x1,x2\n", np.vstack([pts, pts[:1]]))
            files.append((tuple(f"{plot}/region_{sub.label}.csv" for plot in plots), body))
        for plot, traj in zip(plots, trajs.values()):
            events = traj.switch_events
            body = csv_blocks(
                "t,x1,x2,prev_mode,next_mode\n",
                np.array([(ev.t, *ev.state) for ev in events]).reshape(len(events), 3),
                labels(ev.prev_mode for ev in events),
                labels(ev.next_mode for ev in events),
            )
            files.append(((f"{plot}/switch_points.csv",), body))
        print("plot-data: written")

    return (EXIT_VERIFICATION if failed else EXIT_OK), warnings, files


def emit(status: int, warnings: list[str], files: list[tuple], out_dir) -> dict:
    """Create ``out_dir`` and stream each file's content, hashed once, to its paths.

    Each block of a content is hashed and written to the first path as it
    is rendered, and the finished file is copied to the other paths, so
    emission holds one block, and two open files, at a time: a region CSV
    has a path in every plot directory, and a scenario may have thousands
    of those, more than a process may hold open.  The
    manifest, written last and by the same path, lists every file with its
    sha256.  Returns the manifest.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc
    sha256: dict[Path, str] = {}

    def write(paths: tuple[str, ...], blocks: Iterable[bytes]) -> None:
        digest = hashlib.sha256()
        first, *others = (out / rel for rel in paths)
        first.parent.mkdir(parents=True, exist_ok=True)
        with open(first, "wb") as f:
            for block in blocks:
                digest.update(block)
                f.write(block)
        for path in others:
            path.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(first, path)
        # Path keys: the manifest sorts by path components
        sha256.update(dict.fromkeys(map(Path, paths), digest.hexdigest()))

    for paths, blocks in files:
        write(paths, blocks)
    listed = [{"path": str(p), "sha256": h} for p, h in sorted(sha256.items())]
    manifest = {"exit_status": status, "warnings": warnings, "files": listed}
    write(("manifest.json",), (_json("manifest.json", manifest),))
    return manifest


def run_scenario(s: Scenario, out_dir) -> tuple[int, dict]:
    """``analyse`` the scenario, then ``emit`` its files to ``out_dir``: (exit_status, manifest).

    A ``NonfiniteState`` from ``analyse`` propagates before ``out_dir`` is
    created or touched; what ``emit`` can raise is ``IoError`` or ``OSError``.
    """
    status, warnings, files = analyse(s)
    return status, emit(status, warnings, files, out_dir)


_SUBCOMMAND_FLAGS = {
    "run": None,
    "dwell": {"dwell_table": True},
    "simulate": {"simulate": True},
    "verify": {"trapping": True},
    "certify": {"certify": True},
    "triangle": {"triangle": True},
    "plot-data": {"plot_data": True},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="switchdwell",
        description="Dwell-time analysis and switched-trajectory verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_FLAGS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--step", type=float, default=None, help="override integration step")
        p.add_argument("--eps", type=float, default=None, help="override region level")
        p.add_argument("--seed", type=int, default=None, help="override sampling seed")
    args = parser.parse_args(argv)

    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        with np.errstate(all="ignore"):  # an overflow is reported once, as NonfiniteState
            scenario = parse_scenario(
                text,
                step=args.step,
                eps=args.eps,
                seed=args.seed,
                analyses=_SUBCOMMAND_FLAGS[args.command],
            )
            status, _ = run_scenario(scenario, args.out)
        return status
    except NonfiniteState as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SwitchDwellError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
