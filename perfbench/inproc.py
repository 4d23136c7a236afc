"""In-process workloads: one closed-loop client in one process, calling the package.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/inproc.py --workload trap_sweep --seed 1 --seconds 20 \
        --trace 0 --spans-dir .perfbench_work/spans

Set-up generates the seeded inputs and their references (``gen.py``) and
runs one untimed pass; then the same pass over all ops repeats until
``--seconds`` have elapsed.  Only the package calls are timed; the gates
check every result after each pass.  With ``--trace 1`` half the time runs
untraced and half traced, and the spans are written to ``--spans-dir`` at
exit.  The last stdout line is one JSON object with the raw samples (pass
walls, op latencies, set-up time), the gate outcome and, traced, the
per-layer metrics; ``run.py`` turns the samples into metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
import spans
from switchdwell import dwell, lyapunov, sim

SETUP_REPEATS = 3


def run_op(op):
    if op.kind == "sim":
        traj = sim.simulate_switched(op.system, op.signal, op.x0, op.horizon, op.step)
        report = sim.verify_trapping(traj, op.system, op.signal, op.eps)
        conv = None
        if op.mu_values is not None:
            conv = sim.convergence_product(op.system, op.signal, traj, op.eps, op.work.switches)
        return traj, report, conv
    if op.kind == "tube":
        return sim.tube_sample(
            op.system, op.from_label, op.to_label, op.eps, op.t_grid, op.count, op.step
        )
    if op.kind == "certificate":
        return lyapunov.check_certificate(op.sub, op.box, op.n_samples, op.seed)
    if op.kind == "mu":
        return dwell.mu_bound(op.eps, op.system, mode="sampled", n_samples=op.n_samples, seed=op.seed)
    if op.kind == "boundary":
        return lyapunov.region_boundary_points(op.sub, op.eps, op.count)
    raise ValueError(op.kind)


def _check_sim(op, result) -> str | None:
    traj, report, conv = result
    if len(traj.times) != op.work.samples or len(traj.switch_events) != op.work.switches:
        return f"{len(traj.times)} samples / {len(traj.switch_events)} switches, grid gives " \
               f"{op.work.samples} / {op.work.switches}"
    states = np.array([ev.state for ev in traj.switch_events])
    err = float(np.max(np.abs(states - op.ref_switch_states)))
    if not err <= gen.STATE_TOL:
        return f"switch states off the reference by {err:.3e}"
    if report.overall_pass is not True or len(report.records) != op.work.switches:
        return "trapping verdict differs from the known pass"
    if conv is not None:
        if not np.allclose(conv.mu_values, op.mu_values[: op.work.switches], rtol=1e-12, atol=0):
            return "convergence mu values differ from the closed form"
        if conv.entry_index != 0 or not all(v.nonincreasing for v in conv.w_verdicts):
            return "convergence report differs from the known answer"
    return None


def _check_tube(op, result) -> str | None:
    if [t for t, _ in result] != op.t_grid:
        return "tube snapshot times differ from the grid"
    src, dst = op.system[op.from_label], op.system[op.to_label]
    pts0 = result[0][1]
    v0 = np.einsum("ij,ij->i", pts0 - src.equilibrium, pts0 - src.equilibrium)
    if pts0.shape != (op.count, src.dimension) or not np.all(np.abs(v0 - op.eps) <= gen.BOUNDARY_TOL):
        return "tube start points are not on the region boundary"
    x_d = dst.equilibrium
    for (_, img), prop in zip(result, op.propagators):
        err = float(np.max(np.abs(img - (x_d + (pts0 - x_d) @ prop.T))))
        if not err <= gen.STATE_TOL:
            return f"tube image off the expm reference by {err:.3e}"
    for t, img in result:
        d = img - x_d
        if t >= op.dwell and not np.all(np.einsum("ij,ij->i", d, d) <= op.eps):
            return f"tube snapshot at t = {t} is outside the target region"
    return None


def check(op, result, first: dict, key: int) -> str | None:
    """None when the result is correct, else the reason it is not."""
    if result is None:
        return "op raised"
    if op.kind == "sim":
        return _check_sim(op, result)
    if op.kind == "tube":
        return _check_tube(op, result)
    if op.kind == "certificate":
        ok = result.passed and result.samples_tested == op.n_samples
        return None if ok else "certificate check did not pass"
    if op.kind == "mu":
        if not 1.0 <= result <= op.sup * (1 + 1e-12):
            return f"sampled mu {result} outside [1, {op.sup}]"
        if first.setdefault(key, result) != result:
            return "sampled mu differs between passes"
        return None
    if op.kind == "boundary":
        if result.shape != op.ref_points.shape:
            return "boundary point count differs"
        err = float(np.max(np.abs(result - op.ref_points)))
        return None if err <= gen.BOUNDARY_TOL else f"boundary points off by {err:.3e}"
    return f"unknown op {op.kind}"


class Loop:
    """Closed loop over the ops, with per-op latencies and gate outcomes."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict = {}
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.sample = None  # one sim result, for the gate self-test

    def run_for(self, seconds: float) -> None:
        deadline = perf_counter() + seconds
        while True:
            results, lat = [], []
            t_pass = perf_counter()
            for op in self.ops:
                t = perf_counter()
                try:
                    results.append(run_op(op))
                except Exception as exc:  # a failing op is counted, not fatal
                    results.append(None)
                    self.reasons.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                lat.append(perf_counter() - t)
            self.walls.append(perf_counter() - t_pass)
            self.latencies += lat
            for i, (op, res) in enumerate(zip(self.ops, results)):
                self.attempted += 1
                reason = check(op, res, self.first, i)
                if reason is not None:
                    self.failed += 1
                    self.reasons.append(f"{op.kind}: {reason}")
                elif op.kind == "sim" and self.sample is None:
                    self.sample = (op, res)
            if perf_counter() >= deadline:
                return


def gate_self_test(loop: Loop) -> list[str]:
    """A flipped verdict and a perturbed switch state must each fail the gate."""
    if loop.sample is None:
        return ["no correct sim result to self-test the gates on"]
    op, (traj, report, conv) = loop.sample
    flipped = dataclasses.replace(report, overall_pass=not report.overall_pass)
    ev = traj.switch_events[0]
    moved = dataclasses.replace(ev, state=ev.state + 1e-3)
    perturbed = dataclasses.replace(traj, switch_events=[moved] + traj.switch_events[1:])
    missed = []
    if check(op, (traj, flipped, conv), {}, -1) is None:
        missed.append("flipped trapping verdict passed the gate")
    if check(op, (perturbed, report, conv), {}, -1) is None:
        missed.append("perturbed switch state passed the gate")
    return missed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(gen.BUILDERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-dir", type=Path, required=True)
    args = ap.parse_args(argv)
    build = gen.BUILDERS[args.workload]

    gen_times = []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        t = perf_counter()
        ops = build(args.seed)
        gen_times.append(perf_counter() - t)

    for op in ops:                          # one untimed pass: lazy imports, caches
        run_op(op)
    loop = Loop(ops)
    loop.run_for(args.seconds if not args.trace else args.seconds / 2)
    out = {"gen_s": statistics.median(gen_times), "walls": loop.walls, "latencies": loop.latencies}
    if args.trace:
        tracer = spans.Tracer()
        with tracer.installed():
            ops = build(args.seed)          # traced set-up: core and dwell spans
            n_setup = len(tracer.spans)
            traced = Loop(ops)
            traced.run_for(args.seconds / 2)
        tracer.dump(args.spans_dir / f"{args.workload}.json")
        sums = spans.combine(
            spans.layer_sums(tracer.spans[:n_setup]),
            spans.layer_sums(tracer.spans[n_setup:], base=n_setup),
            len(traced.walls),
        )
        out["layers"] = spans.per_layer(sums)
        out["traced_walls"] = traced.walls
        for name in ("attempted", "failed", "reasons"):
            setattr(loop, name, getattr(loop, name) + getattr(traced, name))
    self_test = gate_self_test(loop)
    out.update(
        attempted=loop.attempted,
        failed=loop.failed,
        correct=loop.failed == 0 and not self_test,
        info={"ops_per_pass": len(ops), "failures": loop.reasons[:10], "self_test_missed": self_test},
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
