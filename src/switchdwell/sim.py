"""Fixed-step RK4 simulation of switched trajectories and trapping monitors.

Integration lands exactly on switch instants; the sample at a switch time
carries the incoming mode.  Membership checks at switch instants test the
region of the mode being exited: with a dwell-compliant signal the state has
been flowing toward that mode's equilibrium for the whole preceding interval,
which is what the dwell-time guarantee certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .core import Label, Subsystem, SwitchedSystem, SwitchingSignal
from .dwell import pair_mu
from .errors import (
    InsufficientSwitches,
    NonfiniteState,
    SignalMismatch,
    UnsupportedCertificate,
)
from .lyapunov import MEMBERSHIP_TOL, in_region, region_boundary_points

W_MONOTONE_TOL = 1e-7


@dataclass(frozen=True)
class SwitchEvent:
    """Switch at time ``t``; ``index`` is the sample at ``t``, the first to carry ``next_mode``."""

    t: float
    prev_mode: Label
    next_mode: Label
    state: np.ndarray
    index: int


@dataclass(eq=False)
class Trajectory:
    """Time-stamped states and the switch events that split them into constant-mode runs.

    ``initial_mode`` is active from sample 0 and each event's ``next_mode``
    from that event's ``index`` on; ``segments`` is the one place that turns
    the events into sample ranges.
    """

    times: np.ndarray
    states: np.ndarray
    initial_mode: Label
    switch_events: list[SwitchEvent]
    step: float

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def segments(self) -> list[tuple[int, int, Label]]:
        """(lo, hi, mode) per run: samples lo..hi-1 carry mode and hi starts the next run."""
        los = [0] + [ev.index for ev in self.switch_events]
        his = los[1:] + [len(self.times)]
        modes = [self.initial_mode] + [ev.next_mode for ev in self.switch_events]
        return list(zip(los, his, modes))

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def index_at(self, t: float) -> int:
        """Index of the sample at time t (to 1e-9 absolute)."""
        i = int(np.searchsorted(self.times, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.times) and abs(self.times[j] - t) <= 1e-9:
                return j
        raise KeyError(f"no sample at t = {t}")

    def state_at(self, t: float) -> np.ndarray:
        return self.states[self.index_at(t)]


def _grid(t0: float, t1: float, step: float) -> tuple[int, float]:
    """Number of full steps and the final partial step covering [t0, t1]."""
    span = t1 - t0
    n_full = int(math.floor(span / step + 1e-9))
    rem = span - n_full * step
    if rem <= step * 1e-9:
        rem = 0.0
    return n_full, rem


def _check_finite(states: np.ndarray, label: Label) -> None:
    if not np.isfinite(states).all():
        raise NonfiniteState(f"non-finite state while integrating mode {label!r}")


def integrate(sub: Subsystem, x0, t0: float, t1: float, step: float) -> Trajectory:
    """Classical fixed-step RK4 over [t0, t1]; the last step shrinks to land on t1.

    A zero-length span gives the single start sample.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    n_full, rem = _grid(t0, t1, step)
    states = _run(sub, _start_state(sub, x0), step, n_full, rem)
    _check_finite(states, sub.label)
    times = t0 + step * np.arange(len(states))
    times[-1] = t1
    return Trajectory(
        times=times,
        states=states,
        initial_mode=sub.label,
        switch_events=[],
        step=step,
    )


def _start_state(sub: Subsystem, x0) -> np.ndarray:
    x0 = sub.check_dimension(x0)
    if not np.all(np.isfinite(x0)):
        raise NonfiniteState("non-finite initial state")
    return x0


def _run(sub: Subsystem, x0: np.ndarray, step: float, n_full: int, rem: float) -> np.ndarray:
    """States of one constant-mode run from a checked start x0: n_full steps, then rem if > 0."""
    if sub.affine is not None:
        A, b = sub.affine
        return kernels.affine_rk4_path(A, b, x0, step, n_full, rem)
    return _generic_rk4_path(sub.field, x0, step, n_full, rem)


def _generic_rk4_path(f, x0, h, n_full, h_last):
    steps = [h] * n_full + ([h_last] if h_last > 0.0 else [])
    out = np.empty((len(steps) + 1, x0.shape[0]))
    out[0] = x0
    x = x0
    for i, hi in enumerate(steps):
        k1 = np.asarray(f(x), dtype=float)
        k2 = np.asarray(f(x + 0.5 * hi * k1), dtype=float)
        k3 = np.asarray(f(x + 0.5 * hi * k2), dtype=float)
        k4 = np.asarray(f(x + hi * k3), dtype=float)
        x = x + (hi / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = x
    return out


def simulate_switched(
    system: SwitchedSystem,
    signal: SwitchingSignal,
    x0,
    horizon: float,
    step: float,
) -> Trajectory:
    """Integrate each inter-switch interval with its active subsystem, chaining states.

    The state is continuous at switches; only the mode changes.  Interval i
    runs from its switch sample ``lo_i`` to the next one: its samples up to,
    not including, its end belong to it, and the sample at a switch instant
    starts the next interval, so it carries the incoming mode and is the
    event's ``index``.  The tail from the last switch to the horizon keeps
    its end sample, and is that one sample when the last switch lands on the
    horizon.  Periodic signals are unrolled to the horizon.

    Every interval's grid is planned first, so ``times`` and ``states`` are
    allocated once and each interval writes its rows in place, starting from
    the row the previous one ended on.  Each run is the same fixed-step RK4
    as ``integrate``: ``kernels.affine_rk4_path`` for affine modes, which
    reuses the step-map powers kept per (A, b, step), and generic RK4
    otherwise; a non-finite state names the interval's mode.
    """
    if horizon <= signal.t0:
        raise ValueError("horizon must exceed the signal start time")
    if step <= 0:
        raise ValueError("step must be positive")
    x0 = _start_state(system[signal.initial_mode], x0)
    switches = signal.switches_until(horizon)
    t_lo = [signal.t0] + [ts for ts, _, _ in switches]
    t_hi = t_lo[1:] + [horizon]
    modes = [signal.initial_mode] + [nxt for _, _, nxt in switches]
    grids = [_grid(a, z, step) for a, z in zip(t_lo, t_hi)]
    rows = [n_full + (rem > 0.0) for n_full, rem in grids]
    # interval i fills samples lo[i]..lo[i + 1]; lo[-1] is the last sample
    lo = list(accumulate(rows, initial=0))
    states = np.empty((lo[-1] + 1, x0.shape[0]))
    states[0] = x0
    for i, (mode, (n_full, rem)) in enumerate(zip(modes, grids)):
        run = states[lo[i] : lo[i + 1] + 1]
        run[:] = _run(system[mode], run[0], step, n_full, rem)
        _check_finite(run, mode)
    rows[-1] += 1  # the tail keeps its end sample
    times = np.repeat(t_lo, rows) + step * (np.arange(len(states)) - np.repeat(lo[:-1], rows))
    times[-1] = horizon
    switch_states = states[lo[1:-1]]
    switch_states.setflags(write=False)
    events = [
        SwitchEvent(t=ts, prev_mode=prev, next_mode=nxt, state=xe, index=index)
        for (ts, prev, nxt), index, xe in zip(switches, lo[1:-1], switch_states)
    ]
    return Trajectory(
        times=times,
        states=states,
        initial_mode=signal.initial_mode,
        switch_events=events,
        step=step,
    )


def _match_signal(traj: Trajectory, signal: SwitchingSignal) -> None:
    expected = signal.switches_until(float(traj.times[-1]))
    if len(expected) != len(traj.switch_events):
        raise SignalMismatch(
            f"trajectory has {len(traj.switch_events)} switch events, "
            f"signal prescribes {len(expected)}"
        )
    for ev, (t, prev, nxt) in zip(traj.switch_events, expected):
        if abs(ev.t - t) > 1e-9 or ev.prev_mode != prev or ev.next_mode != nxt:
            raise SignalMismatch(f"switch event {ev} disagrees with signal switch {(t, prev, nxt)}")


@dataclass(frozen=True)
class TrappingRecord:
    index: int
    t: float
    mode: Label
    v: float
    member: bool
    strict_member: bool


@dataclass(frozen=True)
class TrappingReport:
    """Region membership at every switch instant; overall_pass iff all members."""

    eps: float
    records: tuple[TrappingRecord, ...]
    overall_pass: bool

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "overall_pass": self.overall_pass,
            "records": [
                {
                    "index": r.index,
                    "t": r.t,
                    "mode": str(r.mode),
                    "v": r.v,
                    "member": r.member,
                    "strict_member": r.strict_member,
                }
                for r in self.records
            ],
        }


def verify_trapping(
    traj: Trajectory,
    system: SwitchedSystem,
    signal: SwitchingSignal,
    eps: float,
) -> TrappingReport:
    """Test, at each switch instant, membership in the exited mode's trapping region.

    At switch time t_i the trajectory has flowed toward the exited mode's
    equilibrium over the whole interval ending at t_i; the dwell-time guarantee
    promises x(t_i) in that mode's N^eps when the dwell condition held.
    Membership uses the 1e-9 tolerance on V; strict membership is reported
    alongside.  V comes from one ``Subsystem.v_batch`` call per exited mode.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _match_signal(traj, signal)
    events = traj.switch_events
    by_mode: dict[Label, list[int]] = {}
    for i, ev in enumerate(events):
        by_mode.setdefault(ev.prev_mode, []).append(i)
    vs = np.empty(len(events))
    for mode, idx in by_mode.items():
        vs[idx] = system[mode].v_batch(np.array([events[i].state for i in idx]))
    records = tuple(
        TrappingRecord(
            index=i,
            t=ev.t,
            mode=ev.prev_mode,
            v=v,
            member=v <= eps + MEMBERSHIP_TOL,
            strict_member=v <= eps,
        )
        for i, (ev, v) in enumerate(zip(events, vs.tolist()))
    )
    return TrappingReport(
        eps=eps,
        records=records,
        overall_pass=all(r.member for r in records),
    )


@dataclass(frozen=True)
class WIntervalVerdict:
    index: int
    t_start: float
    t_end: float
    mode: Label
    nonincreasing: bool
    max_relative_increase: float


def w_monitor(
    traj: Trajectory,
    system: SwitchedSystem,
    signal: SwitchingSignal,
) -> list[WIntervalVerdict]:
    """Per-interval monotonicity of W(t) = exp(k_u t) V_u(x(t)) along the trajectory.

    W is evaluated with the interval's active mode at every sample of the
    closed interval from a segment's ``lo`` to its ``hi`` (the next switch
    sample supplies the left limit; the last interval ends at the last
    sample, and a switch at the horizon opens none); a verdict is true iff W
    never increases by more than 1e-7 relative between consecutive samples.
    Each interval uses ``exp(k_u (t - t_lo)) V_u``, W divided by the constant
    ``exp(k_u t_lo)``: the relative increase is the same, and long horizons
    do not overflow.

    The intervals' closed sample ranges are laid end to end, grouped by mode,
    so a switch sample appears once per side and each mode's rows form one
    block: V comes from one ``v_batch`` call per mode, the differences from
    one ``diff``, and each interval's worst from one ``maximum.reduceat``,
    with the difference across each junction masked out.
    """
    _match_signal(traj, signal)
    return _w_verdicts(traj, system)


def _w_verdicts(traj: Trajectory, system: SwitchedSystem) -> list[WIntervalVerdict]:
    """``w_monitor``'s verdicts for a trajectory already matched to its signal."""
    last = len(traj.times) - 1
    runs: dict[Label, list[tuple[int, int, int]]] = {}
    for j, (lo, hi, mode) in enumerate(traj.segments()):
        hi = min(hi, last)
        if hi > lo:
            runs.setdefault(mode, []).append((j, lo, hi))
    segs = [(j, lo, hi, mode) for mode, rs in runs.items() for j, lo, hi in rs]
    if not segs:
        return []
    lo = np.array([seg[1] for seg in segs])
    lens = np.array([seg[2] for seg in segs]) - lo + 1
    starts = np.cumsum(lens) - lens
    idx = np.arange(starts[-1] + lens[-1]) - np.repeat(starts - lo, lens)
    mode_starts = starts[np.cumsum([len(rs) for rs in runs.values()])[:-1]]
    blocks = np.split(traj.states.take(idx, axis=0), mode_starts)
    v = np.concatenate([system[mode].v_batch(block) for mode, block in zip(runs, blocks)])
    k = np.repeat([system[seg[3]].decay_rate for seg in segs], lens)
    w = np.exp(k * (traj.times.take(idx) - np.repeat(traj.times[lo], lens))) * v
    dw = np.diff(w)
    scale = np.maximum(np.abs(w[:-1]), np.abs(w[1:]))
    scale[scale == 0.0] = 1.0
    rel = dw / scale
    rel[starts[1:] - 1] = -np.inf
    worst = np.maximum.reduceat(rel, starts).tolist()
    verdicts = [
        WIntervalVerdict(
            index=j,
            t_start=float(traj.times[a]),
            t_end=float(traj.times[z]),
            mode=mode,
            nonincreasing=wj <= W_MONOTONE_TOL,
            max_relative_increase=wj,
        )
        for (j, a, z, mode), wj in zip(segs, worst)
    ]
    return sorted(verdicts, key=lambda v: v.index)


@dataclass(frozen=True)
class ConvergenceReport:
    """Decay products and trapping-entry bookkeeping for the global-attraction test."""

    eps: float
    mu_values: tuple[float, ...]
    mu_tilde_values: tuple[float, ...]
    log_products: tuple[float, ...]
    certified: bool
    entry_index: Optional[int]
    w_verdicts: tuple[WIntervalVerdict, ...]

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "mu_values": list(self.mu_values),
            "mu_tilde_values": list(self.mu_tilde_values),
            "log_products": list(self.log_products),
            "certified": self.certified,
            "entry_index": self.entry_index,
            "w_nonincreasing_everywhere": all(v.nonincreasing for v in self.w_verdicts),
        }


def convergence_product(
    system: SwitchedSystem,
    signal: SwitchingSignal,
    traj: Trajectory,
    eps: float,
    i_max: int,
) -> ConvergenceReport:
    """Partial products mu_0..mu_i * exp(-integral of k) over the first i_max switches.

    mu_i is the closed-form pair bound ``dwell.pair_mu`` for the modes on
    either side of switch i; products are accumulated in log space.
    ``certified`` means some P_i dropped below 1e-6 * P_0; a false value is not
    a counterexample (the criterion is sufficient only).  ``entry_index`` is the
    first switch at which the state is inside the exited mode's region.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _match_signal(traj, signal)
    events = traj.switch_events
    if len(events) < i_max:
        raise InsufficientSwitches(
            f"need {i_max} switches, trajectory has {len(events)}"
        )
    if not all(s.quadratic for s in system.subsystems):
        raise UnsupportedCertificate("convergence products need quadratic certificates")

    times = [signal.t0] + [ev.t for ev in events[:i_max]]
    interval_modes = [signal.initial_mode] + [ev.next_mode for ev in events[: i_max]]
    log_terms = []
    mus = []
    mu_tildes = []
    pair_mus: dict[tuple[Label, Label], float] = {}  # one norm per distinct mode pair
    for j in range(i_max):
        pair = (interval_modes[j], interval_modes[j + 1])
        a, b = system[pair[0]], system[pair[1]]
        if pair not in pair_mus:
            pair_mus[pair] = pair_mu(eps, float(np.linalg.norm(b.equilibrium - a.equilibrium)))
        mu = pair_mus[pair]
        mus.append(mu)
        mu_tildes.append(math.exp((b.decay_rate - a.decay_rate) * times[j + 1]) * mu)
        log_terms.append(math.log(mu) - a.decay_rate * (times[j + 1] - times[j]))
    log_products = tuple(np.cumsum(log_terms))
    certified = any(lp <= log_products[0] + math.log(1e-6) for lp in log_products)
    entry = next(
        (i for i, ev in enumerate(events) if in_region(system[ev.prev_mode], eps, ev.state)),
        None,
    )
    return ConvergenceReport(
        eps=eps,
        mu_values=tuple(mus),
        mu_tilde_values=tuple(mu_tildes),
        log_products=log_products,
        certified=certified,
        entry_index=entry,
        w_verdicts=tuple(_w_verdicts(traj, system)),
    )


def tube_sample(
    system: SwitchedSystem,
    from_label: Label,
    to_label: Label,
    eps: float,
    t_grid: Sequence[float],
    boundary_count: int,
    step: float,
) -> list[tuple[float, np.ndarray]]:
    """Boundary of N^eps_{from} propagated under the 'to' subsystem for each t.

    Returns (t, points) pairs sampling the reachable tube's outer boundary
    (exact in the boundary-count limit for 2-D quadratic regions, where the
    smooth flow maps boundaries to boundaries).
    """
    t_grid = [float(t) for t in t_grid]
    if any(t < 0 for t in t_grid) or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be nonnegative and increasing")
    from_sub = system[from_label]
    to_sub = system[to_label]
    pts = region_boundary_points(from_sub, eps, boundary_count)
    out = []
    for t in t_grid:
        if t == 0.0:
            out.append((t, pts.copy()))
            continue
        n_full, rem = _grid(0.0, t, step)
        if to_sub.affine is not None:
            A, b = to_sub.affine
            img = kernels.affine_rk4_batch_final(A, b, pts, step, n_full, rem)
        else:
            img = np.vstack(
                [integrate(to_sub, p, 0.0, t, step).final_state for p in pts]
            )
        _check_finite(img, to_label)
        out.append((t, img))
    return out
