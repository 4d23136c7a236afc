"""Command-line entry point: scenario execution and bit-stable CSV/JSON outputs.

Exit codes: 0 success / all verifications passed, 2 verification failure,
3 input error, 4 numeric failure (non-finite state).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .core import SwitchedSystem, SwitchingSignal
from .dwell import epsilon0_search, global_dwell, local_dwell, mu_bound, triangle_gap
from .errors import (
    NonfiniteState,
    SwitchDwellError,
    UnsupportedCertificate,
    UnsupportedDimension,
    ValidationError,
)
from .lyapunov import check_certificate, region_boundary_points
from .scenario import Scenario, parse_scenario
from .sim import Trajectory, convergence_product, simulate_switched, tube_sample, verify_trapping

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


def _write_text(path: Path, text: str, written: list[Path]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    written.append(path)


def _write_json(path: Path, obj, written: list[Path]) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n", written)


def _trajectory_csv(traj: Trajectory, system: SwitchedSystem) -> str:
    """One row per sample, V_active evaluated per constant-mode segment."""
    n = system.dimension
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",mode,V_active\n"
    modes = traj.modes
    cuts = [0] + [k for k in range(1, len(modes)) if modes[k] != modes[k - 1]] + [len(modes)]
    parts = [header]
    for lo, hi in zip(cuts, cuts[1:]):
        m = modes[lo]
        row = "%.17g," * (n + 1) + str(m).replace("%", "%%") + ",%.17g\n"
        v = system[m].v_batch(traj.states[lo:hi])
        rows = np.column_stack([traj.times[lo:hi], traj.states[lo:hi], v]).tolist()
        parts.extend(map(row.__mod__, map(tuple, rows)))
    return "".join(parts)


def _emit_regions_and_switches(
    traj: Trajectory, system: SwitchedSystem, eps: float, out_dir: Path, written: list[Path]
) -> None:
    """region_<label>.csv boundary polylines and switch_points.csv; 2-D systems only."""
    if system.dimension != 2:
        raise UnsupportedDimension("plot data emission needs a 2-D system")
    for sub in system.subsystems:
        pts = region_boundary_points(sub, eps, 256)
        rows = np.vstack([pts, pts[:1]]).tolist()
        body = "x1,x2\n" + "".join("%.17g,%.17g\n" % (x1, x2) for x1, x2 in rows)
        _write_text(out_dir / f"region_{sub.label}.csv", body, written)
    body = "t,x1,x2,prev_mode,next_mode\n" + "".join(
        "%.17g,%.17g,%.17g,%s,%s\n" % (ev.t, *ev.state, ev.prev_mode, ev.next_mode)
        for ev in traj.switch_events
    )
    _write_text(out_dir / "switch_points.csv", body, written)


def emit_plot_data(
    traj: Trajectory,
    system: SwitchedSystem,
    eps: float,
    out_dir,
    written: list[Path] | None = None,
) -> list[Path]:
    """Write trajectory.csv, region_<label>.csv polylines and switch_points.csv.

    The files are sufficient to recreate the phase-plane figures in any
    plotting tool; 2-D systems only.
    """
    out_dir = Path(out_dir)
    written = written if written is not None else []
    _emit_regions_and_switches(traj, system, eps, out_dir, written)
    _write_text(out_dir / "trajectory.csv", _trajectory_csv(traj, system), written)
    return written


def _default_transitions(signal: SwitchingSignal):
    pairs = []
    prev = signal.initial_mode
    for _, mode in signal.segments:
        pairs.append((prev, mode))
        prev = mode
    if signal.period is not None and prev != signal.initial_mode:
        pairs.append((prev, signal.initial_mode))
    return pairs


def run_scenario(s: Scenario, out_dir) -> tuple[int, dict]:
    """Execute the requested analyses in order and write the output tree.

    Order: certify, dwell, simulate, trapping, convergence, triangle, tube,
    plot data; finally a manifest listing every file with its sha256.
    Returns (exit_status, manifest).
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SwitchDwellError(f"cannot create output directory {out}: {exc}") from exc
    written: list[Path] = []
    warnings: list[str] = []
    failed = False
    flags = s.analyses
    system, eps = s.system, s.eps

    if flags.get("certify"):
        lower = np.full(system.dimension, s.box[0])
        upper = np.full(system.dimension, s.box[1])
        reports = [
            check_certificate(sub, (lower, upper), s.samples, s.seed)
            for sub in system.subsystems
        ]
        ok = all(r.passed for r in reports)
        failed |= not ok
        _write_json(
            out / "certificate_report.json",
            {"all_passed": ok, "reports": [r.to_dict() for r in reports]},
            written,
        )
        print(f"certify: {'pass' if ok else 'FAIL'}")

    if flags.get("dwell_table"):
        transitions = s.transitions
        if transitions is None and "signal" in s.signals:
            transitions = _default_transitions(s.signals["signal"].signal)
        if not transitions:
            raise ValidationError("dwell_table needs transitions (explicit or via a signal)")
        table = local_dwell(eps, system, transitions)
        doc = table.to_dict()
        try:
            mu = mu_bound(eps, system, mode="closed_form")
            doc["mu_closed_form_fallback"] = False
        except UnsupportedCertificate:
            mu = mu_bound(eps, system, mode="sampled", seed=s.seed)
            doc["mu_closed_form_fallback"] = True
            warnings.append("mu: closed form unsupported, sampled estimate used")
        doc["mu"] = mu
        doc["t_glob"] = global_dwell(eps, mu, min(x.decay_rate for x in system.subsystems))
        doc["t_required"] = max(doc["t_glob"], table.t_loc)
        _write_json(out / "dwell_table.json", doc, written)
        print(f"dwell: t_loc={table.t_loc:.6g} t_glob={doc['t_glob']:.6g}")

    need_sim = any(
        flags.get(k) for k in ("simulate", "trapping", "convergence", "plot_data")
    )
    trajs: dict[tuple[str, int], Trajectory] = {}
    if need_sim:
        if not s.signals:
            raise ValidationError("simulation requested but no signal defined")
        for name, spec in s.signals.items():
            starts = list(spec.x0 if spec.x0 is not None else s.x0_list)
            if name == "signal" and s.boundary_points and s.start_region is not None:
                starts += list(
                    region_boundary_points(system[s.start_region], eps, s.boundary_points)
                )
            if not starts:
                raise ValidationError(f"signal {name!r}: no initial conditions")
            horizon = spec.horizon if spec.horizon is not None else s.horizon
            if horizon is None:
                raise ValidationError(f"signal {name!r}: no horizon")
            for i, x0 in enumerate(starts):
                traj = simulate_switched(system, spec.signal, x0, horizon, s.step)
                trajs[(name, i)] = traj
                # rendered once: the same text is the plot directory's trajectory.csv
                text = _trajectory_csv(traj, system)
                _write_text(out / f"trajectory_{name}_{i}.csv", text, written)
                if flags.get("plot_data"):
                    _write_text(out / f"plot_{name}_{i}" / "trajectory.csv", text, written)

    if flags.get("trapping"):
        reports = {}
        for (name, i), traj in trajs.items():
            rep = verify_trapping(traj, system, s.signals[name].signal, eps)
            reports[f"{name}_{i}"] = rep.to_dict()
            failed |= not rep.overall_pass
        ok = all(r["overall_pass"] for r in reports.values())
        _write_json(out / "trapping_report.json", {"all_passed": ok, "runs": reports}, written)
        print(f"trapping: {'pass' if ok else 'FAIL'}")

    if flags.get("convergence"):
        if ("signal", 0) not in trajs:
            raise ValidationError("convergence needs the primary signal simulated")
        rep = convergence_product(
            system, s.signals["signal"].signal, trajs[("signal", 0)], eps, s.i_max
        )
        _write_json(out / "convergence_report.json", rep.to_dict(), written)
        print(
            "convergence: "
            + ("certified" if rep.certified else "not certified by i_max")
            + (f", entry at switch {rep.entry_index}" if rep.entry_index is not None else "")
        )

    if flags.get("triangle"):
        if s.triangle_modes is None:
            raise ValidationError("triangle analysis needs triangle_modes")
        u0, v, u1 = (system[m] for m in s.triangle_modes)
        ta = triangle_gap(eps, u0, v, u1)
        doc = ta.to_dict()
        d = max(
            float(np.linalg.norm(u0.equilibrium)), float(np.linalg.norm(u1.equilibrium))
        )
        r = min(
            float(np.linalg.norm(v.equilibrium - u0.equilibrium)),
            float(np.linalg.norm(u1.equilibrium - v.equilibrium)),
        )
        if d > 0 and 0 < r <= 2 * d:
            doc["eps0"] = epsilon0_search(d, r, u0.alpha, u0.beta, u0.decay_rate)
        else:
            warnings.append("triangle: geometry outside the eps0 search domain")
        _write_json(out / "triangle_report.json", doc, written)
        print(f"triangle: gap={ta.gap:.6g} ({'detour longer' if ta.gap < 0 else 'detour not longer'})")

    if flags.get("tube"):
        if s.tube_from is None or s.tube_to is None or not s.tube_times:
            raise ValidationError("tube analysis needs tube_from, tube_to and tube_times")
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
        _write_json(out / "tube_report.json", doc, written)
        print("tube: written")

    if flags.get("plot_data"):
        for (name, i), traj in trajs.items():
            _emit_regions_and_switches(traj, system, eps, out / f"plot_{name}_{i}", written)
        print("plot-data: written")

    status = EXIT_VERIFICATION if failed else EXIT_OK
    manifest = {
        "exit_status": status,
        "warnings": warnings,
        "files": [
            {
                "path": str(p.relative_to(out)),
                "sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
            }
            for p in sorted(written)
        ],
    }
    _write_json(out / "manifest.json", manifest, [])
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
        text = Path(args.scenario).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        scenario = parse_scenario(text)
        if args.step is not None:
            scenario.step = args.step
        if args.eps is not None:
            scenario.eps = args.eps
        if args.seed is not None:
            scenario.seed = args.seed
        forced = _SUBCOMMAND_FLAGS[args.command]
        if forced is not None:
            scenario.analyses = dict(forced)
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
