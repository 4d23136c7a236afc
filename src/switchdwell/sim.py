"""Fixed-step RK4 simulation of switched trajectories and trapping monitors.

Integration lands exactly on switch instants; the sample at a switch time
carries the incoming mode.  Membership checks at switch instants test the
region of the mode being exited: with a dwell-compliant signal the state has
been flowing toward that mode's equilibrium for the whole preceding interval,
which is what the dwell-time guarantee certifies.

There is one integration path: ``integrate`` over ``[t0, t1]`` is
``simulate_switched`` of the one-mode system and the signal that holds that
mode from ``t0``, to the horizon ``t1``.  Its one-mode system and signal are
new objects every time, so its plan is built uncached and takes no slot of
the plan cache.

A ``Trajectory`` is an immutable value whose time structure, a ``_Plan``, is
fixed when it is built.  Everything that does not depend on the start state
is planned once per ``(system, signal, horizon, step)``, in a plan kept in a
least recently used cache of ``PLAN_CACHE_SIZE`` entries keyed by the
identity of the system and signal objects: the unrolled switches, the
interval grids and row offsets, the segments, the fill (every product of the
affine intervals with its operand, and every callable interval, in the order
they run) and the record columns.  Its times are an affine function of the
row within each interval, made for any rows on demand (``times_of``); the
one read-only ``times`` array that every trajectory built from the plan
shares is made on first use.  Any other trajectory, one made by hand or with
``dataclasses.replace``, builds a plan of its own once, from read-only copies
of its times and states.  A plan holds only such derived data, never a state
or a verdict: the fill's entries (about 150 bytes per product, one product
per ``B`` steps), ``times`` once used, and the kernel operands it builds, one
seed block per affine mode with a full step (each at most
``kernels.SEED_BLOCK_BYTES``, about 0.1 ms to build at n = 2) and one
partial-step map of ``8 n (n+1)`` bytes per distinct (mode, partial step).
Plans are the only place where step maps are kept: ``kernels`` keeps nothing
between calls.  ``PLAN_CACHE_SIZE`` (8) plans are kept, so a pass over
several systems, or a step and its half, plans each signal once and not once
per visit; at most 8 plans stay alive after their sweep.  What also depends
on the system is a pure function of ``(plan, system)`` in an ``lru_cache`` of
as many entries: W's factors ``exp(k (t - t_lo))`` (``_w_terms``, about
``8 N`` bytes for N samples) and, with ``eps`` and ``i_max``, the
convergence terms (``_convergence_terms``).  ``tube_sample`` plans its affine
maps the same way: one read-only map per time of its grid, in an
``lru_cache`` of as many ``(subsystem, step, grid)`` keys (``_tube_maps``).
Every cache is keyed by the identity of its system, signal or subsystem
objects.  Threads share a cached plan, so nothing writes to its operands,
and its ``times`` is set once: the fill loop reads them and writes only a
trajectory's own rows and scratch row.  A check matches the plan's switches
to its signal unless the plan was made from that very signal object
(``_plan_of``).

There is one fill routine, ``_fill``: it yields a trajectory's states in
windows of any number of rows, each product written whole, so the rows have
the same bits whatever the window.  ``simulate_switched`` runs it as one
window over the whole trajectory; the CLI runs it in windows
(``_stream``), keeping a few numbers per switch and none per sample, and
refills each trajectory as it writes it.  The checks on a whole trajectory
and the windowed pass share each formula: W's factor (``_w_factor``), its
relative increases (``_w_increases``), the verdicts (``_w_records``) and
the reports (``_trapping``, ``_convergence``).

V is read through one routine, ``_v_rows``: the active mode's V at any rows
(``_v_active``) and the exited mode's V at each switch, the switch rows of
``states`` (``_v_exit``), are each one ``_sq_dist`` pass with every row's own
equilibrium when all the modes involved are quadratic, and one ``v_batch``
call per run otherwise.  V at the switches depends on the states, so it is
kept on the trajectory for the last system object it was read under.  The
records are named tuples built from ``tolist()`` columns, and the
convergence terms are computed once per distinct mode pair.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass
from functools import lru_cache
from itertools import accumulate, chain, repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .core import Label, Subsystem, SwitchedSystem, SwitchingSignal, _check_eps, _sq_dist
from .dwell import _equilibrium_distance, pair_mu
from .errors import (
    InsufficientSwitches,
    NonfiniteState,
    SignalMismatch,
    UnsupportedCertificate,
)
from .lyapunov import MEMBERSHIP_TOL, region_boundary_points

W_MONOTONE_TOL = 1e-7
PLAN_CACHE_SIZE = 8


@dataclass(frozen=True)
class SwitchEvent:
    """Switch at time ``t``; ``index`` is the sample at ``t``, the first to carry ``next_mode``."""

    t: float
    prev_mode: Label
    next_mode: Label
    state: np.ndarray
    index: int


class _Events(list):
    """A trajectory's switch events: a list that refuses every in-place edit.

    Reading, slicing and ``+`` work as on a list and give plain lists, so
    ``dataclasses.replace(traj, switch_events=[moved] + traj.switch_events[1:])``
    builds an edited trajectory.
    """

    def _refuse(self, *args, **kwargs):
        raise TypeError("a trajectory's switch events cannot be edited in place; "
                        "use dataclasses.replace")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce__(self):
        return _Events, (list(self),)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped states and the switch events that split them into constant-mode runs.

    An immutable value: ``initial_mode`` is active from sample 0 and each
    event's ``next_mode`` from that event's ``index`` on, and the plan that
    turns the events into segments and switch columns is fixed when the
    trajectory is built.  ``simulate_switched`` passes its cached plan as
    ``plan``, with the plan's ``times`` and read-only ``states``.  Any other
    trajectory gets read-only copies of its ``times`` and ``states`` and a
    plan of its own, built once after checking that the times strictly
    increase; ``plan`` is an ``InitVar``, which ``dataclasses.replace`` does
    not copy.  ``switch_events`` is kept as a list that refuses in-place
    edits (``TypeError``): edit a trajectory through ``dataclasses.replace``.
    V at a switch reads the switch row of ``states``, not the event's copy
    of it.
    """

    times: np.ndarray
    states: np.ndarray
    initial_mode: Label
    switch_events: list[SwitchEvent]
    step: float
    plan: InitVar[Optional[_Plan]] = None
    _v_switch = (None, None)  # not a field: (system, V at the switches) of the last _v_exit

    def __post_init__(self, plan):
        object.__setattr__(self, "switch_events", _Events(self.switch_events))
        if plan is None:
            times, states = np.array(self.times, dtype=float), np.array(self.states, dtype=float)
            if len(times) != len(states):
                raise ValueError("times and states must have equal length")
            if (np.subtract(times[1:], times[:-1]) <= 0).any():
                raise ValueError("sample times must be strictly increasing")
            times.setflags(write=False)
            states.setflags(write=False)
            object.__setattr__(self, "times", times)
            object.__setattr__(self, "states", states)
            los = [0] + [ev.index for ev in self.switch_events]
            switches = [(ev.t, ev.prev_mode, ev.next_mode) for ev in self.switch_events]
            plan = _Plan(None, self.initial_mode, los, switches, len(times), times=times)
        object.__setattr__(self, "_plan", plan)

    def segments(self) -> list[tuple[int, int, Label]]:
        """(lo, hi, mode) per run: samples lo..hi-1 carry mode and hi starts the next run."""
        return list(self._plan.segments)

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
    """Number of full steps and the final partial step covering [t0, t1].

    A remainder of at most 1e-9 steps is no step, and neither is one whose
    first sample, ``t0 + n_full * step`` as the plan's ``times`` compute it,
    rounds onto t1.
    """
    span = t1 - t0
    n_full = int(math.floor(span / step + 1e-9))
    rem = span - n_full * step
    if rem <= step * 1e-9 or t0 + n_full * step >= t1:
        rem = 0.0
    return n_full, rem


def _time_resolution(t0: float, t1: float) -> float:
    """8 ulps of the larger of ``|t0|`` and ``|t1|``: a step over [t0, t1] must exceed it.

    With ``_grid``'s remainder rule such a step keeps a plan's times
    strictly increasing.
    """
    return 8.0 * math.ulp(max(abs(t0), abs(t1)))


def _check_finite(states: np.ndarray, label: Label) -> None:
    if not np.isfinite(states).all():
        raise NonfiniteState(f"non-finite state while integrating mode {label!r}")


def _check_step(step: float) -> None:
    if not 0 < step < math.inf:  # NaN too
        raise ValueError(f"step must be finite and positive, got {step!r}")


def integrate(sub: Subsystem, x0, t0: float, t1: float, step: float) -> Trajectory:
    """Classical fixed-step RK4 over [t0, t1]; the last step shrinks to land on t1.

    One interval of ``simulate_switched``: the signal that holds ``sub`` from
    ``t0`` on, simulated to the horizon ``t1``, so the trajectory has that
    plan, built without the plan cache, and its ``t1`` must be finite and
    after ``t0``.  A zero-length span (``t1 == t0``) gives the single start
    sample, a copy of ``x0``.
    """
    signal = SwitchingSignal(t0, sub.label)  # which rejects a t0 that is not finite
    if t1 != t0:  # planned uncached: no later call asks for these new objects' plan
        return _simulate(_signal_plan.__wrapped__, SwitchedSystem((sub,)), signal, x0, t1, step)
    _check_step(step)
    return Trajectory([t1], [_start_state(sub, x0)], sub.label, [], step)


def _start_state(sub: Subsystem, x0) -> np.ndarray:
    x0 = sub.check_dimension(x0)
    if not np.all(np.isfinite(x0)):
        raise NonfiniteState("non-finite initial state")
    return x0


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

    The switches, the fill and the read-only ``times`` come from the plan of
    ``(system, signal, horizon, step)`` (``_signal_plan``), so a sweep of
    starts through one signal plans once and shares one ``times``; ``states``
    is allocated once, filled by ``_fill`` as one window, and read-only once
    filled.  Each run is fixed-step RK4 (``integrate`` is this function on
    one interval).  An affine interval is a few entries of the fill, each
    one product written in place from the last row filled, through one
    scratch row ``[x, 1]`` per trajectory: ``[x, 1]`` times a chunk of the
    seed block, or the partial step's map times ``[x, 1]``.  A callable
    interval is one entry, generic RK4 written row by row.  The whole buffer
    is checked for finiteness once at the end, and each callable interval's
    start row before it runs, so a callable is never given a non-finite
    start; either check names the first interval that holds a non-finite
    state.
    """
    return _simulate(_signal_plan, system, signal, x0, horizon, step)


def _simulate(planner, system, signal, x0, horizon, step) -> Trajectory:
    """``simulate_switched`` on the plan from ``planner``, ``_signal_plan`` or its uncached form."""
    plan, x0 = _start(system, signal, x0, horizon, step, planner)
    states = np.empty((plan.size, x0.shape[0]))
    for _ in _fill(plan, system, x0, states, plan.size):
        pass
    states.setflags(write=False)
    rows = plan.los[1:]
    switch_states = states[rows]
    switch_states.setflags(write=False)
    events = list(
        map(SwitchEvent, plan.switch_t, plan.exit_modes, plan.modes[1:], switch_states, rows)
    )
    return Trajectory(plan.times, states, signal.initial_mode, events, step, plan)


def _start(system, signal, x0, horizon, step, planner=None) -> tuple[_Plan, np.ndarray]:
    """(plan, start state) of a simulation, its arguments checked; ``planner`` is ``_signal_plan``
    by default."""
    if not signal.t0 < horizon < math.inf:  # NaN too
        raise ValueError(f"horizon must be finite and > t0 = {signal.t0!r}, got {horizon!r}")
    _check_step(step)
    x0 = _start_state(system[signal.initial_mode], x0)
    return (planner or _signal_plan)(system, signal, float(horizon), float(step)), x0


def _fill(plan, system, x0, buf, width):
    """Yield ``(lo, X)``: the trajectory from ``x0`` on ``plan`` in windows, X its rows from lo.

    The one fill loop.  It runs ``plan.fill`` in order, each entry from the
    carried last row ``x`` of a scratch row ``[x, 1]``: a product writes its
    rows in place, and a callable interval writes its RK4 steps one row at a
    time.  ``X`` is a view of ``buf``, checked for finiteness
    (``_check_rows``) and overwritten after the next ``yield``; every window
    but the last has ``width`` rows, and ``buf`` holds ``width`` rows plus
    one seed block's steps, or the whole trajectory.  A product that runs
    past its window is written whole, and its rows past the window move to
    the top of ``buf`` for the next one, so every product is the product of
    one whole fill and the bits do not depend on ``width``.
    """
    n = x0.shape[0]
    flat = buf.reshape(-1)
    z = np.empty(n + 1)  # [x, 1], x the last row filled
    z[n] = 1.0
    x, matmul, full, step = z[:n], np.matmul, width * n, plan.grid[1]
    x[:] = x0
    buf[0] = x0
    at, base = n, 0  # the flat offset in buf of the next row, and buf[0]'s row
    for op, size, partial in plan.fill:
        if partial is not None:  # one product: a chunk of full steps, or a partial step
            if at >= full:
                at, base = yield from _full_windows(plan, buf, flat, width, at, base)
            out = flat[at : at + size]
            if partial:
                matmul(op, z, out=out)
            else:
                matmul(z, op, out=out)
            at += size
            x[:] = flat[at - n : at]
            continue
        mode, (n_full, rem) = op, size  # a callable interval
        if not np.isfinite(x).all():
            _check_rows(plan, buf[: at // n], base)
        f, y = system[mode].field, x
        for h in chain(repeat(step, n_full), [rem] * (rem > 0.0)):
            k1 = np.asarray(f(y), dtype=float)
            k2 = np.asarray(f(y + 0.5 * h * k1), dtype=float)
            k3 = np.asarray(f(y + 0.5 * h * k2), dtype=float)
            k4 = np.asarray(f(y + h * k3), dtype=float)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if at >= full:
                at, base = yield from _full_windows(plan, buf, flat, width, at, base)
            flat[at : at + n] = y
            at += n
        x[:] = y
    if at > full:
        at, base = yield from _full_windows(plan, buf, flat, width, at, base)
    if at:
        _check_rows(plan, buf[: at // n], base)
        yield base, buf[: at // n]


def _full_windows(plan, buf, flat, width, at, base):
    """Check and yield each full window of ``width`` rows at the top of ``buf``; return (at, base).

    ``flat`` is ``buf`` flat, filled up to offset ``at``, and ``base`` the
    row at ``buf[0]``; after each window the rows past it move to the top.
    """
    full = width * buf.shape[1]
    while at >= full:
        _check_rows(plan, buf[:width], base)
        yield base, buf[:width]
        if at > full:
            flat[: at - full] = flat[full:at]
        at, base = at - full, base + width
    return at, base


def _check_rows(plan, X: np.ndarray, lo: int) -> None:
    """``_check_finite`` on the rows ``X`` of samples ``lo ...`` per segment, with closing samples.

    One pass when all are finite; a non-finite state raises naming the
    first segment that holds one among these rows.
    """
    if not np.isfinite(X).all():
        first = max(bisect_left(plan.los, lo) - 1, 0)
        for start, end, mode in plan.segments[first : bisect_left(plan.los, lo + len(X))]:
            _check_finite(X[max(start, lo) - lo : end + 1 - lo], mode)


class _Plan:
    """A trajectory's time structure: what its checks need that no state and no system changes.

    ``size`` is the number of samples; ``segments`` are
    ``Trajectory.segments``, and ``modes``, ``los`` and ``lens`` their
    columns; ``switch_t`` and ``exit_modes`` are the record columns of the
    switches.  ``signal`` is the one ``simulate_switched`` planned from,
    None for a trajectory built any other way, whose ``times`` are given.
    A plan of a signal has instead its ``grid``, (interval start times,
    step, horizon), from which ``times_of`` makes the times of any rows and
    ``times`` all of them, once, on first use.  ``fill``, for a plan that
    ``simulate_switched`` fills from, is a tuple of entries in the order
    they run, each starting from the row the one before ended on.  A product
    is ``(op, size, partial)``: its read-only operand and the size of its
    output, ``size`` doubles from the row after its source row.  A chunk of
    an affine interval's full steps (``partial`` false) has its mode's seed
    block as operand, or the view of its first ``m n`` columns for a last
    chunk of m < B steps; a partial step has the top rows of its step's map
    (``kernels``).  A callable interval is ``(mode, (n_full, rem), None)``:
    its mode and grid.  The operands are shared by the plan's entries and,
    through the plan, by threads.  Nothing but ``times`` is written to a
    plan after it is built.
    """

    def __init__(self, signal, initial_mode, los, switches, size,
                 times=None, grid=None, fill=None):
        self.signal, self.los, self.size, self.fill = signal, los, size, fill
        self._times, self.grid = times, grid
        self.modes = [initial_mode] + [nxt for _, _, nxt in switches]
        self.segments = list(zip(los, los[1:] + [size], self.modes))
        self.lens = [hi - lo for lo, hi, _ in self.segments]
        self.switch_t = [t for t, _, _ in switches]
        self.exit_modes = [prev for _, prev, _ in switches]

    @property
    def times(self) -> np.ndarray:
        """Every sample's time, read-only: for a plan of a signal, ``times_of`` every row, kept."""
        if self._times is None:
            times = self.times_of(0, self.size)
            times.setflags(write=False)
            self._times = times
        return self._times

    def times_of(self, lo: int, hi: int) -> np.ndarray:
        """The times of samples ``lo ... hi - 1``, with the bits of ``times`` whatever the window.

        Row r of interval i is at ``t_i + step * (r - lo_i)`` and the last
        row at the horizon; given times are sliced.
        """
        if self.grid is None:
            return self._times[lo:hi]
        starts, step, horizon = self.grid
        hi = min(hi, self.size)
        j0, j1, counts = self.cut(lo, hi)
        offsets = np.arange(lo, hi) - np.array(self.los[j0:j1]).repeat(counts)
        times = np.array(starts[j0:j1]).repeat(counts) + step * offsets
        if hi == self.size:
            times[-1] = horizon
        return times

    def cut(self, lo: int, hi: int) -> tuple[int, int, list]:
        """(j0, j1, counts): segments j0 ... j1 - 1 hold samples lo ... hi - 1, so many each."""
        j0, j1 = bisect_right(self.los, lo) - 1, bisect_left(self.los, hi)
        return j0, j1, [min(end, hi) - max(start, lo) for start, end, _ in self.segments[j0:j1]]


def _w_runs(plan: _Plan) -> Optional[tuple]:
    """The runs with at least one step, None without one: (js, firsts, lasts, modes, closed).

    Run j is segment j, from its first sample to its last, the next switch's
    or the trajectory's last; the first ``closed`` runs end at a switch.
    """
    last = plan.size - 1
    runs = [(j, lo, min(hi, last), m) for j, (lo, hi, m) in enumerate(plan.segments)
            if min(hi, last) > lo]
    if not runs:
        return None
    js, firsts, lasts, modes = (list(c) for c in zip(*runs))
    return js, firsts, lasts, modes, len(js) - (js[-1] == len(plan.segments) - 1)


def _w_factor(k, t, t_lo):
    """``exp(k (t - t_lo))``: W over ``exp(k t_lo)`` per unit V, at time t of a run from t_lo."""
    return np.exp(k * (t - t_lo))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _w_terms(plan: _Plan, system: SwitchedSystem) -> Optional[tuple]:
    """``_w_verdicts``' inputs that do not depend on the states; None without a run of one step.

    (factor, close_rows, closing, close_runs, firsts, js, t_start, t_end, modes):
    ``_w_factor`` at every sample, the difference rows that close at a
    switch with their factors and segments, and the columns of the runs
    (``_w_runs``: segment j, its first sample, times and mode).  As many
    ``(plan, system)`` are kept as plans.
    """
    runs = _w_runs(plan)
    if runs is None:
        return None
    js, firsts, lasts, modes, closed = runs
    t = plan.times
    k = np.array([system[mode].decay_rate for mode in plan.modes]).repeat(plan.lens)
    factor = _w_factor(k, t, t[plan.los].repeat(plan.lens))
    j_end, lo_end, hi_end = (np.array(c[:closed], dtype=int) for c in (js, firsts, lasts))
    closing = _w_factor(k[lo_end], t[hi_end], t[lo_end])
    t_start, t_end = t[firsts].tolist(), t[lasts].tolist()
    return factor, hi_end - 1, closing, j_end, firsts, js, t_start, t_end, modes


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _signal_plan(system: SwitchedSystem, signal: SwitchingSignal, horizon: float, step: float):
    """The plan of every trajectory of ``signal`` to ``horizon`` at ``step``.

    Keyed by the identity of ``system`` and ``signal`` (neither compares by
    value), so value-equal signals such as ones labelled ``1`` and ``1.0``
    keep plans, and labels, of their own.  A step that the time axis cannot
    resolve (``_time_resolution``) raises a ``ValueError`` that names it.
    """
    if not step > (finest := _time_resolution(signal.t0, horizon)):
        t = max(signal.t0, horizon, key=abs)
        raise ValueError(f"step {step!r} at t = {t!r}: times this large need step > {finest:.3g}")
    switches = signal.switches_until(horizon)
    t_lo = [signal.t0] + [ts for ts, _, _ in switches]
    t_hi = t_lo[1:] + [horizon]
    grids = [_grid(a, z, step) for a, z in zip(t_lo, t_hi)]
    rows = [n_full + (rem > 0.0) for n_full, rem in grids]
    # interval i fills samples lo[i]..lo[i + 1]; lo[-1] is the last sample
    lo = list(accumulate(rows, initial=0))
    modes = [signal.initial_mode] + [nxt for _, _, nxt in switches]
    affine = {m: ab for m in dict.fromkeys(modes) if (ab := system[m].affine) is not None}
    # one seed block per affine mode with a full step, one map per (mode, partial step)
    full = {m for m, (n_full, _) in zip(modes, grids) if n_full > 0}
    blocks = {m: kernels._seed_block(*ab, step) for m, ab in affine.items() if m in full}
    parts = dict.fromkeys((m, rem) for m, (_, rem) in zip(modes, grids) if rem > 0.0)
    lasts = {(m, rem): kernels._last_rows(*affine[m], rem) for m, rem in parts if m in affine}
    # the fill: one entry per product, chunks of at most B full steps then the
    # partial step, and one per callable interval, in the order they run
    n, fill = system.dimension, []
    steps = kernels._seed_steps(n)
    for m, (n_full, rem) in zip(modes, grids):
        if m not in affine:
            fill.append((m, (n_full, rem), None))
            continue
        for k in range(0, n_full, steps):
            chunk = min(steps, n_full - k)
            op = blocks[m] if chunk == steps else blocks[m][:, : chunk * n]
            fill.append((op, chunk * n, False))
        if rem > 0.0:
            fill.append((lasts[m, rem], n, True))
    return _Plan(signal, signal.initial_mode, lo[:-1], switches, lo[-1] + 1,
                 grid=(t_lo, step, horizon), fill=tuple(fill))


def _plan_of(traj: Trajectory, signal: SwitchingSignal) -> _Plan:
    """``traj``'s plan, its switches matched to ``signal`` unless it was planned from ``signal``."""
    plan = traj._plan
    if plan.signal is not signal:
        _match_signal(plan, signal)
    return plan


def _match_signal(plan: _Plan, signal: SwitchingSignal) -> None:
    """Raise ``SignalMismatch`` unless the plan starts as ``signal`` does and has its switches.

    A switch is (t, exited mode, entered mode), and the start counts as one
    with no exited mode, at ``t0`` into ``initial_mode``; times agree to
    1e-9 and modes by ``!=``.  Each switch's index must be a sample after
    the previous switch's (the start's is 0) whose time is the switch's.
    """
    for prev, index, t in zip(plan.los, plan.los[1:], plan.switch_t):
        if not (prev < index < plan.size and abs(plan.times[index] - t) <= 1e-9):
            raise SignalMismatch(f"switch event at t = {t!r} has index {index}, not its sample")
    starts = [float(plan.times[0])] + plan.switch_t
    got = list(zip(starts, [None] + plan.exit_modes, plan.modes))
    expected = [(signal.t0, None, signal.initial_mode)]
    expected += signal.switches_until(float(plan.times[-1]))
    if len(expected) != len(got):
        raise SignalMismatch(
            f"trajectory has {len(got) - 1} switch events, signal prescribes {len(expected) - 1}"
        )
    for (t, prev, nxt), want in zip(got, expected):
        if abs(t - want[0]) > 1e-9 or prev != want[1] or nxt != want[2]:
            raise SignalMismatch(f"switch {(t, prev, nxt)} disagrees with the signal's {want}")


class TrappingRecord(NamedTuple):
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
    alongside.  V is ``_v_exit``, evaluated at the switch states only, and
    the records are built from its columns and the plan's.
    """
    _check_eps(eps)
    return _trapping(_plan_of(traj, signal), _v_exit(traj, system), eps)


def _trapping(plan: _Plan, vs: np.ndarray, eps: float) -> TrappingReport:
    """``verify_trapping``'s report from the exited modes' V at the switches, ``vs``."""
    member = vs <= eps + MEMBERSHIP_TOL
    columns = vs.tolist(), member.tolist(), (vs <= eps).tolist()
    records = tuple(map(TrappingRecord, range(len(vs)), plan.switch_t, plan.exit_modes, *columns))
    return TrappingReport(eps, records, bool(member.all()))


class WIntervalVerdict(NamedTuple):
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

    V is ``_v_active`` at every sample, and the closing sample of an interval
    that ends at a switch takes its left limit, the exited mode's V there
    (``_v_exit``); the relative increases come from one pass over the samples
    and each interval's worst from one ``maximum.reduceat``.
    """
    _plan_of(traj, signal)
    return _w_verdicts(traj, system)


def _v_rows(system: SwitchedSystem, X: np.ndarray, modes: list, counts: list) -> np.ndarray:
    """V of ``modes[j]`` at each of the next ``counts[j]`` rows of ``X``.

    When every mode is quadratic this is one ``_sq_dist`` pass with each
    row's own equilibrium; otherwise it is one ``v_batch`` call per run.
    Either way the result is bit-equal to one ``v_batch`` per run.  The
    per-row equilibria are gathered on every call, not kept: on a plan they
    would add n N doubles to what a sweep holds.
    """
    subs = [system[mode] for mode in modes]
    if all(sub.quadratic for sub in subs):
        centres = np.array([sub.equilibrium for sub in subs]).reshape(len(subs), X.shape[1])
        return _sq_dist(X, centres.T.repeat(counts, axis=1))
    los = accumulate(counts, initial=0)
    return np.concatenate([sub.v_batch(X[lo : lo + n]) for sub, lo, n in zip(subs, los, counts)])


def _v_exit(traj: Trajectory, system: SwitchedSystem) -> np.ndarray:
    """The exited mode's V at each switch, read-only: ``_v_rows`` at the switch rows of ``states``.

    On a simulated trajectory those rows are bit-equal to the events'
    states, so this is ``v_eval(system[ev.prev_mode], ev.state)`` per event.
    The array is kept on the trajectory for the last system object it was
    read under, so ``verify_trapping`` and ``convergence_product`` share one
    pass.
    """
    kept, v = traj._v_switch
    if kept is not system:
        plan = traj._plan
        rows = plan.los[1:]
        v = _v_rows(system, traj.states[rows], plan.exit_modes, [1] * len(rows))
        v.setflags(write=False)
        object.__setattr__(traj, "_v_switch", (system, v))
    return v


def _v_active(plan: _Plan, system: SwitchedSystem, X: np.ndarray, lo: int = 0) -> np.ndarray:
    """The active mode's V at the rows ``X`` of samples ``lo ... lo + len(X) - 1``.

    ``_v_rows`` over the segments cut to those rows (``_Plan.cut``); a row's
    V does not depend on the window, so V may be taken block by block with
    the bits of one whole pass.
    """
    j0, j1, counts = plan.cut(lo, lo + len(X))
    return _v_rows(system, X, plan.modes[j0:j1], counts)


def _w_verdicts(traj: Trajectory, system: SwitchedSystem) -> list[WIntervalVerdict]:
    """``w_monitor``'s verdicts for a trajectory already matched to its signal.

    Entry j of ``_v_exit`` is segment j's V at its closing switch sample.
    """
    plan = traj._plan
    terms = _w_terms(plan, system)
    if terms is None:
        return []
    factor, close_rows, closing, close_runs, firsts, js, t_start, t_end, modes = terms
    w = factor * _v_rows(system, traj.states, plan.modes, plan.lens)  # _v_active, every row
    # w at each difference's later sample; an interval closing at a switch
    # takes the exited mode's W there, its left limit
    later = w[1:].copy()
    later[close_rows] = closing * _v_exit(traj, system)[close_runs]
    worst = np.maximum.reduceat(_w_increases(w[:-1], later), firsts)
    return _w_records(worst, js, t_start, t_end, modes)


def _w_increases(w: np.ndarray, later: np.ndarray) -> np.ndarray:
    """The relative increase from each W to its later one, over the larger magnitude (1 if 0)."""
    scale = np.maximum(np.abs(w), np.abs(later))
    scale[scale == 0.0] = 1.0
    return (later - w) / scale


def _w_records(worst: np.ndarray, js, t_start, t_end, modes) -> list[WIntervalVerdict]:
    columns = (worst <= W_MONOTONE_TOL).tolist(), worst.tolist()
    return list(map(WIntervalVerdict, js, t_start, t_end, modes, *columns))


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

    The terms come from ``_convergence_terms``, which keeps those of the
    last ``PLAN_CACHE_SIZE`` ``(plan, system, eps, i_max)``; a mu-tilde that
    overflows is inf.  ``i_max`` must be a nonnegative integer
    (``operator.index``, so numpy integers too).
    """
    _check_eps(eps)
    try:
        i_max = operator.index(i_max)
    except TypeError:
        raise ValueError(f"i_max must be an integer, got {i_max!r}") from None
    if i_max < 0:
        raise ValueError("i_max must be nonnegative")
    plan = _plan_of(traj, signal)
    if len(plan.switch_t) < i_max:
        raise InsufficientSwitches(
            f"need {i_max} switches, trajectory has {len(plan.switch_t)}"
        )
    if not all(s.quadratic for s in system.subsystems):
        raise UnsupportedCertificate("convergence products need quadratic certificates")
    return _convergence(plan, system, eps, i_max, _v_exit(traj, system), _w_verdicts(traj, system))


def _convergence(plan, system, eps, i_max, v_exit, w_verdicts) -> ConvergenceReport:
    """``convergence_product``'s report, its arguments checked, from V at the switches and W."""
    mu_values, mu_tilde_values, log_products = _convergence_terms(plan, system, eps, i_max)
    certified = any(lp <= log_products[0] + math.log(1e-6) for lp in log_products)
    inside = np.flatnonzero(v_exit <= eps + MEMBERSHIP_TOL)
    entry_index = int(inside[0]) if inside.size else None
    return ConvergenceReport(
        eps, mu_values, mu_tilde_values, log_products, certified, entry_index, tuple(w_verdicts)
    )


def _pair_terms(system: SwitchedSystem, eps: float, u: Label, v: Label) -> tuple:
    """(mu, log mu, k_v - k_u, k_u) of a switch from mode u to mode v, mu from ``pair_mu``."""
    a, b = system[u], system[v]
    mu = pair_mu(eps, _equilibrium_distance(a, b))
    return mu, math.log(mu), b.decay_rate - a.decay_rate, a.decay_rate


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _convergence_terms(plan: _Plan, system: SwitchedSystem, eps: float, i_max: int) -> tuple:
    """(mu, mu-tilde, log products) over ``plan``'s first time and its first ``i_max`` switches.

    mu, log mu and the decay rates enter once per distinct mode pair
    (``_pair_terms``); what is left per switch is one ``math.exp`` for
    mu-tilde, inf where it overflows, and one multiply-subtract for the log
    term.  As many keys are kept as plans: a sweep checks the starts of one
    signal back to back, and a pass visits a few signals in turn.
    """
    modes = plan.modes[: i_max + 1]
    times = [float(plan.times_of(0, 1)[0])] + plan.switch_t[:i_max]
    pairs = list(zip(modes, modes[1:]))
    pair_terms = {pair: _pair_terms(system, eps, *pair) for pair in dict.fromkeys(pairs)}
    terms = [pair_terms[pair] for pair in pairs]
    log_products = tuple(
        accumulate(
            log_mu - k_a * (t1 - t0)
            for (_, log_mu, _, k_a), t0, t1 in zip(terms, times, times[1:])
        )
    )
    mu_tilde = tuple(_exp(dk * t1) * mu for (mu, _, dk, _), t1 in zip(terms, times[1:]))
    return tuple(mu for mu, *_ in terms), mu_tilde, log_products


def _exp(x: float) -> float:
    """``math.exp(x)``, and inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


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
    smooth flow maps boundaries to boundaries).  An affine 'to' mode maps
    the points by the planned maps of ``_tube_maps``; a callable one
    integrates each point (``integrate``).  Each snapshot is a new array.
    """
    _check_step(step)
    t_grid = [float(t) for t in t_grid]
    finite = all(0 <= t < math.inf for t in t_grid)  # written to fail on NaN too
    if not finite or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be finite, nonnegative and increasing")
    from_sub = system[from_label]
    to_sub = system[to_label]
    pts = region_boundary_points(from_sub, eps, boundary_count)
    maps = _tube_maps(to_sub, float(step), tuple(t_grid)) if to_sub.affine is not None else None
    out = []
    for i, t in enumerate(t_grid):
        if t == 0.0:
            out.append((t, pts.copy()))
            continue
        if maps is not None:
            img = kernels._map_rows(maps[i], pts)
        else:
            img = np.vstack(
                [integrate(to_sub, p, 0.0, t, step).final_state for p in pts]
            )
        _check_finite(img, to_label)
        out.append((t, img))
    return out


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _tube_maps(sub: Subsystem, step: float, t_grid: tuple) -> tuple:
    """The read-only map of affine ``sub`` from time 0 to each t of ``t_grid`` (None at t = 0).

    Each is ``kernels._final_map`` over ``_grid(0, t, step)``.  Keyed by the
    identity of ``sub``, like ``_signal_plan``; as many keys are kept as plans.
    """
    return tuple(kernels._final_map(*sub.affine, step, *_grid(0.0, t, step)) if t > 0.0 else None
                 for t in t_grid)
