"""Spans around the package's public functions, recorded from outside the package.

A wrapper replaces a public function in every module namespace where callers
look it up (``switchdwell.cli.simulate_switched``,
``switchdwell.kernels.affine_rk4_path``, ...).  Each call records a span
``[name, start, end, parent, counts]`` in memory; the list is written out when
the traced process ends.  A span's self time is its duration minus the
durations of its children.  ``counts`` holds work counts taken by arithmetic
from the call's arguments: kernel RK4 steps from the step grid it was
given, simulation steps, samples and switches from the signal and horizon.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter

from counts import grid_steps, simulation_work


def _kernel_count(a: dict) -> dict:
    """RK4 steps of the kernel's step grid, times the rows of a batch."""
    x0 = a.get("x0", a.get("X0"))
    rows = 1 if x0.ndim == 1 else x0.shape[0]
    return {"kernels.affine_steps": (int(a["n_full"]) + (a["h_last"] > 0.0)) * rows}


def _simulate_count(a: dict) -> dict:
    w = simulation_work(a["system"], a["signal"], a["horizon"], a["step"])
    return {"sim.generic_steps": w.generic_steps, "sim.samples": w.samples,
            "core.switches": w.switches}


def _tube_count(a: dict) -> dict:
    """Steps of one chained pass through the grid: the useful part of the work."""
    steps = grid_steps(0.0, max(a["t_grid"]), a["step"])
    return {"tube.useful_steps": steps * a["boundary_count"]}


def _certificate_count(a: dict) -> dict:
    return {"lyapunov.certificate_samples": int(a["n_samples"])}


# (module, attribute looked up by callers, span name, work counter)
TARGETS = [
    ("switchdwell.cli", "parse_scenario", "scenario.parse_scenario", None),
    ("switchdwell.cli", "run_scenario", "cli.run_scenario", None),
    ("switchdwell.cli", "emit_plot_data", "cli.emit_plot_data", None),
    ("switchdwell.cli", "check_certificate", "lyapunov.check_certificate", _certificate_count),
    ("switchdwell.cli", "local_dwell", "dwell.local_dwell", None),
    ("switchdwell.cli", "mu_bound", "dwell.mu_bound", None),
    ("switchdwell.cli", "global_dwell", "dwell.global_dwell", None),
    ("switchdwell.cli", "triangle_gap", "dwell.triangle_gap", None),
    ("switchdwell.cli", "epsilon0_search", "dwell.epsilon0_search", None),
    ("switchdwell.cli", "region_boundary_points", "lyapunov.region_boundary_points", None),
    ("switchdwell.cli", "v_eval", "lyapunov.v_eval", None),
    ("switchdwell.cli", "simulate_switched", "sim.simulate_switched", _simulate_count),
    ("switchdwell.cli", "verify_trapping", "sim.verify_trapping", None),
    ("switchdwell.cli", "convergence_product", "sim.convergence_product", None),
    ("switchdwell.cli", "tube_sample", "sim.tube_sample", _tube_count),
    ("switchdwell.scenario", "make_affine_subsystem", "core.make_affine_subsystem", None),
    ("switchdwell.scenario", "signal_from_dwell", "core.signal_from_dwell", None),
    ("switchdwell.core", "make_affine_subsystem", "core.make_affine_subsystem", None),
    ("switchdwell.core", "signal_from_dwell", "core.signal_from_dwell", None),
    ("switchdwell.core", "validate_dwell", "core.validate_dwell", None),
    ("switchdwell.core", "Subsystem", "core.Subsystem", None),
    ("switchdwell.core", "SwitchedSystem", "core.SwitchedSystem", None),
    ("switchdwell.dwell", "local_dwell", "dwell.local_dwell", None),
    ("switchdwell.dwell", "mu_bound", "dwell.mu_bound", None),
    ("switchdwell.dwell", "triangle_gap", "dwell.triangle_gap", None),
    ("switchdwell.lyapunov", "v_eval", "lyapunov.v_eval", None),
    ("switchdwell.lyapunov", "check_certificate", "lyapunov.check_certificate", _certificate_count),
    ("switchdwell.lyapunov", "region_boundary_points", "lyapunov.region_boundary_points", None),
    ("switchdwell.sim", "v_eval", "lyapunov.v_eval", None),
    ("switchdwell.sim", "region_boundary_points", "lyapunov.region_boundary_points", None),
    ("switchdwell.sim", "simulate_switched", "sim.simulate_switched", _simulate_count),
    ("switchdwell.sim", "verify_trapping", "sim.verify_trapping", None),
    ("switchdwell.sim", "convergence_product", "sim.convergence_product", None),
    ("switchdwell.sim", "w_monitor", "sim.w_monitor", None),
    ("switchdwell.sim", "tube_sample", "sim.tube_sample", _tube_count),
    ("switchdwell.kernels", "affine_rk4_path", "kernels.affine_rk4_path", _kernel_count),
    ("switchdwell.kernels", "affine_rk4_batch_final", "kernels.affine_rk4_batch_final", _kernel_count),
]


class Tracer:
    """In-memory span recorder; one per traced process, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, counts]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter=None):
        # inlined rather than through span(): hot leaves such as v_eval run
        # ~10^5 times per CLI run, and the generator protocol doubles the cost
        sig = inspect.signature(fn) if counter is not None else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            counts = counter(sig.bind(*args, **kwargs).arguments) if sig else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, counts]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore the originals after."""
        saved = []
        try:
            for mod_name, attr, name, counter in TARGETS:
                mod = import_module(mod_name)
                if not hasattr(mod, attr):
                    continue
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(name, orig, counter))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def dump(self, path) -> None:
        # one dumps() call: json.dump() streams through the pure-Python encoder
        with open(path, "w") as fh:
            fh.write(json.dumps(self.spans, separators=(",", ":")))


def layer_sums(spans, base: int = 0) -> dict:
    """Additive per-layer sums over ``spans`` (a slice starting at index ``base``).

    Parents before the slice count as roots.  Times are seconds.
    """
    spans = [[n, a, b, p - base if p >= base else -1, c] for n, a, b, p, c in spans]
    dur = [b - a for _, a, b, _, _ in spans]
    self_s = list(dur)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            self_s[s[3]] -= d
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for i, (name, _, _, parent, counts) in enumerate(spans):
        add(name + ".incl_s", dur[i])
        add(name + ".self_s", self_s[i])
        add(name + ".calls", 1)
        for key, value in (counts or {}).items():
            add(key, value)
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name.startswith("core.") and not parent_name.startswith("core."):
            add("core.build_s", dur[i])
        if name.startswith("kernels.") and parent_name == "sim.tube_sample":
            add("tube.kernel_steps", counts["kernels.affine_steps"])
    return out


def combine(setup: dict, passes: dict, n_passes: int) -> dict:
    """One set-up plus the mean of the traced passes."""
    keys = set(setup) | set(passes)
    return {k: setup.get(k, 0.0) + passes.get(k, 0.0) / n_passes for k in keys}


def per_layer(sums: dict) -> dict:
    """Per-layer metric values (0 where a layer did no work) from summed spans."""
    g = lambda k: sums.get(k, 0.0)  # noqa: E731
    tube_attempted = g("tube.kernel_steps")
    return {
        "scenario.parse_s": g("scenario.parse_scenario.incl_s"),
        "scenario.parse_calls": g("scenario.parse_scenario.calls"),
        "core.build_s": g("core.build_s"),
        "core.switches": g("core.switches"),
        "dwell.local_dwell_s": g("dwell.local_dwell.incl_s"),
        "dwell.mu_bound_s": g("dwell.mu_bound.incl_s"),
        "dwell.triangle_s": g("dwell.triangle_gap.incl_s") + g("dwell.epsilon0_search.incl_s"),
        "dwell.calls": sum(v for k, v in sums.items() if k.startswith("dwell.") and k.endswith(".calls")),
        "lyapunov.check_certificate_s": g("lyapunov.check_certificate.incl_s"),
        "lyapunov.certificate_samples": g("lyapunov.certificate_samples"),
        "lyapunov.region_boundary_points_s": g("lyapunov.region_boundary_points.incl_s"),
        "lyapunov.v_eval_s": g("lyapunov.v_eval.incl_s"),
        "lyapunov.v_eval_calls": g("lyapunov.v_eval.calls"),
        "kernels.affine_path_s": g("kernels.affine_rk4_path.incl_s"),
        "kernels.affine_batch_s": g("kernels.affine_rk4_batch_final.incl_s"),
        "kernels.affine_steps": g("kernels.affine_steps"),
        "kernels.calls": g("kernels.affine_rk4_path.calls") + g("kernels.affine_rk4_batch_final.calls"),
        "sim.simulate_switched_self_s": g("sim.simulate_switched.self_s"),
        "sim.generic_steps": g("sim.generic_steps"),
        "sim.verify_trapping_s": g("sim.verify_trapping.incl_s"),
        "sim.convergence_product_s": g("sim.convergence_product.incl_s"),
        "sim.tube_sample_self_s": g("sim.tube_sample.self_s"),
        "sim.samples": g("sim.samples"),
        "sim.tube_useful_step_ratio": g("tube.useful_steps") / tube_attempted if tube_attempted else 0.0,
        "cli.run_scenario_self_s": g("cli.run_scenario.self_s"),
        "cli.emit_plot_data_self_s": g("cli.emit_plot_data.self_s"),
    }
