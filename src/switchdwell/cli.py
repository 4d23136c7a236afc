"""Command-line entry point: scenario execution and bit-stable CSV/JSON outputs.

A run is ``analyse`` then ``emit``.  ``analyse`` runs every requested stage
and writes nothing: it returns each output file as its relative paths, its
content (an iterable of encoded blocks) and its row count, with every JSON
document already encoded.  Each trajectory is one windowed pass
(``_stream.scan``) that checks every state and V for finiteness and keeps
only its plan, its start and a few numbers per switch, so a run's memory
grows with its switches, not its samples.  ``emit`` creates ``--out`` and
streams each content once: every block goes to one sha256 and to the file's
first path, which is then copied to its other paths; the manifest is
written last.  A trajectory CSV is refilled from its plan block by block in
the process that writes it (``_trajectory_csv``).  A large output is split
between this process and one forked child (``FORK_ROWS``), so emission
holds one block and two open files in each of at most two processes.  An
input error or a numeric failure leaves no file behind, and an existing
``--out`` stays untouched.  ``entry``, which the ``switchdwell`` script and ``python -m
switchdwell.cli`` run, is ``main`` followed by ``gc.freeze()``.

Exit codes: 0 success / all verifications passed, 2 verification failure,
3 input error, 4 numeric failure (non-finite state, V or JSON value).

Every float cell of the CSV outputs is rendered as ``'%.17g'`` by ``_csv.csv_block``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import sys
import warnings
from pathlib import Path
from typing import Iterator

import numpy as np

from . import _csv, _stream, sim
from ._csv import Runs, csv_block, csv_blocks, labels
from .core import SwitchedSystem
from .dwell import global_dwell, local_dwell, mu_bound, triangle_gap
from .errors import IoError, NonfiniteState, SwitchDwellError
from .lyapunov import check_certificate, region_boundary_points
from .scenario import Scenario, parse_scenario
from .sim import tube_sample

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4
# rows of a trajectory that analyse's pass (_stream.scan) takes at once:
# windows of the CSV's 1024-row blocks (_csv._BLOCK) made example1's analyse
# 4% slower, in 53 of 60 alternating in-process rounds
SCAN_ROWS = 2048


def _json(name: str, obj) -> bytes:
    """``obj`` as indented, key-sorted JSON; a NaN or infinity in it is ``NonfiniteState``."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonfiniteState(f"non-finite value in {name}") from exc
    return (text + "\n").encode("utf-8")


def _trajectory_csv(plan: sim._Plan, system: SwitchedSystem, x0: np.ndarray) -> Iterator[bytes]:
    """One row per sample of the trajectory from ``x0`` on ``plan``, refilled one block at a time.

    Each block of ``_csv._BLOCK`` rows is a window of ``_stream.windows``, with
    its times (``times_of``), modes (``Runs``) and active V, rendered as it
    is asked for: whichever process writes the file holds one block.
    """
    n = system.dimension
    yield ("t," + ",".join(f"x{i + 1}" for i in range(n)) + ",mode,V_active\n").encode()
    modes = Runs(plan.modes, plan.lens)
    for lo, X in _stream.windows(plan, system, x0, _csv._BLOCK):
        hi = lo + len(X)
        yield csv_block(plan.times_of(lo, hi), X, modes[lo:hi], sim._v_active(plan, system, X, lo))


def analyse(s: Scenario) -> tuple[int, list[str], list[tuple]]:
    """Run the requested analyses in order, print a line per checked stage, and write nothing.

    Order: certify, dwell, simulate, trapping, convergence, triangle, tube,
    plot data; the tube and plot data lines say ``written``, so
    ``run_scenario`` prints them once ``emit`` has written.  ``s`` comes
    from ``parse_scenario``, which has resolved and checked every input, so
    what can still fail here is numeric (``NonfiniteState``).  Each
    trajectory is one pass of ``_stream.scan``, which keeps its plan, start
    and switch states, and its verdict columns, not its samples.  Returns
    (exit_status, warnings, files): each file is its relative paths, its
    content, an iterable of encoded blocks (a CSV is rendered block by block
    as it is written, a trajectory CSV refilled from its plan), and its row
    count, 1 for a JSON document.
    """
    files: list[tuple] = []
    warnings: list[str] = []
    failed = False
    flags = s.analyses
    system, eps = s.system, s.eps

    def report(name: str, obj) -> None:
        files.append(((name,), (_json(name, obj),), 1))

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

    scans: dict[tuple[str, int], _stream.Scan] = {}
    if s.simulates:
        for name, spec in s.signals.items():
            for i, x0 in enumerate(spec.x0):
                csv = f"trajectory_{name}_{i}.csv"
                # only the primary trajectory's W reaches a report
                w = flags.get("convergence") and (name, i) == ("signal", 0)
                scan = _stream.scan(system, spec.signal, x0, spec.horizon, s.step, SCAN_ROWS,
                                    csv, w)
                scans[(name, i)] = scan
                # one content: the same bytes are the plot directory's trajectory.csv
                paths = (csv,)
                if flags.get("plot_data"):
                    paths += (f"plot_{name}_{i}/trajectory.csv",)
                files.append((paths, _trajectory_csv(scan.plan, system, scan.x0), scan.plan.size))

    if flags.get("trapping"):
        reports = {}
        for (name, i), scan in scans.items():
            rep = sim._trapping(scan.plan, scan.v_exit, eps)
            reports[f"{name}_{i}"] = rep.to_dict()
            failed |= not rep.overall_pass
        ok = all(r["overall_pass"] for r in reports.values())
        report("trapping_report.json", {"all_passed": ok, "runs": reports})
        print(f"trapping: {'pass' if ok else 'FAIL'}")

    if flags.get("convergence"):
        scan = scans[("signal", 0)]
        rep = sim._convergence(scan.plan, system, eps, s.i_max, scan.v_exit, scan.w_verdicts)
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

    if flags.get("plot_data"):
        plots = [f"plot_{name}_{i}" for name, i in scans]
        # closed 256-point boundary polylines, the same in every plot directory
        for sub in system.subsystems:
            pts = region_boundary_points(sub, eps, 256)
            body = csv_blocks("x1,x2\n", np.vstack([pts, pts[:1]]))
            paths = tuple(f"{plot}/region_{sub.label}.csv" for plot in plots)
            files.append((paths, body, len(pts) + 1))
        for plot, scan in zip(plots, scans.values()):
            plan = scan.plan
            body = csv_blocks(
                "t,x1,x2,prev_mode,next_mode\n",
                np.column_stack((plan.switch_t, scan.switch_states)),
                labels(plan.exit_modes),
                labels(plan.modes[1:]),
            )
            files.append(((f"{plot}/switch_points.csv",), body, len(plan.switch_t)))

    return (EXIT_VERIFICATION if failed else EXIT_OK), warnings, files


# a file's emission time in rows: a row takes about 0.53 us to render, hash
# and write, and each path about 80 us more to open, write and close, or to
# copy the content to
PATH_ROWS = 150
# emit splits the files between two processes above this many rows' worth:
# example2's 6 900 take about 4 ms in one process and in two alike, so the
# fork, the reply and the reaping cost about what the split saves there
FORK_ROWS = 12_000


def _rows(file: tuple) -> int:
    """Emission time of ``analyse``'s (paths, blocks, rows), in rows: ``PATH_ROWS`` a path."""
    return file[2] + PATH_ROWS * len(file[0])


def _write(out: Path, files: list[tuple]) -> dict[str, str]:
    """Stream each content to its first path, hashing it once, and copy it to the others.

    Returns {relative path: sha256}.  Every directory must exist.
    """
    sha256 = {}
    for paths, blocks, _ in files:
        digest = hashlib.sha256()
        first, *others = (out / rel for rel in paths)
        with open(first, "wb") as f:
            for block in blocks:
                digest.update(block)
                f.write(block)
        for path in others:
            shutil.copyfile(first, path)
        sha256.update(dict.fromkeys(paths, digest.hexdigest()))
    return sha256


def _shares(files: list[tuple]) -> tuple[list, list]:
    """Two shares of ``files``: the largest first, each to the share with fewer rows (``_rows``)."""
    shares, rows = ([], []), [0, 0]
    for file in sorted(files, key=_rows, reverse=True):
        i = rows[1] < rows[0]
        shares[i].append(file)
        rows[i] += _rows(file)
    return shares


def _write_in_two(out: Path, files: list[tuple]) -> dict[str, str]:
    """``_write`` with one share of ``files`` in a forked child and the other in this process.

    The child writes the second share (``_shares``), sends ``{path: sha256}``
    or its error message through a pipe as JSON and leaves by ``os._exit``,
    so it flushes no inherited stdio and runs no exit handler.  It renders
    with numpy ufuncs only, so it calls no BLAS and starts no thread, and
    forking is safe even when BLAS has started threads in this process.
    The child is reaped before this returns, on errors too; its error, or
    its exit without a reply, is raised as ``IoError``.
    """
    mine, theirs = _shares(files)
    if not theirs:  # one file
        return _write(out, mine)
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns when a process with threads forks: BLAS may
            # have started some, and the child calls no BLAS
            warnings.filterwarnings("ignore", "This process", DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to spare: this one writes every file
        os.close(r)
        os.close(w)
        return _write(out, files)
    if pid == 0:
        code = 1  # no reply: interrupted
        try:
            os.close(r)
            try:
                reply = {"sha256": _write(out, theirs)}
            except Exception as exc:  # raised by the parent
                reply = {"error": str(exc) or repr(exc)}
            with open(w, "w", encoding="utf-8") as pipe:
                json.dump(reply, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        sha256 = _write(out, mine)
    finally:
        with open(r, "rb") as pipe:
            data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise IoError(f"the output writer process ended with status {status}")
    reply = json.loads(data)
    if "error" in reply:
        raise IoError(reply["error"])
    return sha256 | reply["sha256"]


def emit(status: int, warnings: list[str], files: list[tuple], out_dir) -> dict:
    """Create ``out_dir`` and its directories, and stream each content, hashed once, to its paths.

    ``files`` are ``analyse``'s (paths, blocks, rows).  Each block of a
    content is hashed and written to the first path as it is rendered, and
    the finished file is copied to the other paths, so a process holds one
    block, and two open files, at a time: a region CSV has a path in every
    plot directory, and a scenario may have thousands of those, more than a
    process may hold open.  Above ``FORK_ROWS`` rows' worth (``_rows``), on
    Linux with two CPUs or more, the files are split between this process
    and a forked child (``_write_in_two``), so two processes each hold one
    block and two open files.  The manifest, written last by this process,
    lists every file with its sha256.  Returns the manifest.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc
    for folder in dict.fromkeys((out / rel).parent for paths, *_ in files for rel in paths):
        folder.mkdir(parents=True, exist_ok=True)
    two = (
        sys.platform == "linux"
        and len(os.sched_getaffinity(0)) >= 2
        and sum(map(_rows, files)) > FORK_ROWS
    )
    sha256 = (_write_in_two if two else _write)(out, files)
    # the manifest sorts by path components
    listed = [
        {"path": p, "sha256": h} for p, h in sorted(sha256.items(), key=lambda kv: Path(kv[0]))
    ]
    manifest = {"exit_status": status, "warnings": warnings, "files": listed}
    _write(out, [(("manifest.json",), (_json("manifest.json", manifest),), 1)])
    return manifest


def run_scenario(s: Scenario, out_dir) -> tuple[int, dict]:
    """``analyse`` the scenario, then ``emit`` its files to ``out_dir``: (exit_status, manifest).

    A ``NonfiniteState`` from ``analyse`` propagates before ``out_dir`` is
    created or touched; what ``emit`` can raise is ``IoError`` or ``OSError``.
    The tube and plot data lines are printed once ``emit`` has returned.
    """
    status, warnings, files = analyse(s)
    manifest = emit(status, warnings, files, out_dir)
    for stage, line in (("tube", "tube: written"), ("plot_data", "plot-data: written")):
        if s.analyses.get(stage):
            print(line)
    return status, manifest


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


def entry() -> int:
    """``main()`` for a process that ends when it returns: the ``switchdwell`` script's entry.

    ``gc.freeze()`` moves every live object to the permanent generation, so
    the collections at interpreter shutdown skip what dies with the process
    (about 11 ms of example1's 16 ms exit).  ``main()`` itself leaves the
    collector as it found it, for callers that go on running.
    """
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
