"""A simulated trajectory taken in windows: checked in one pass, refilled to be written.

``switchdwell run`` holds no trajectory.  ``scan`` takes each through one
pass of ``sim._fill`` in windows of a few thousand rows, checks every state
and V for finiteness, and keeps what the reports need: the plan, the start
state, the switch states, the exited modes' V there and, for the
convergence report, W's worst increase per interval (``WMax``).  ``windows``
refills the rows when the trajectory CSV is written.  Each row, V and W has
the bits of the whole trajectory of ``sim.simulate_switched``, and each
formula is ``sim``'s: this module only carries values across windows.  It
is imported by ``cli`` alone, so the library's imports do not compile it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .core import SwitchedSystem
from .errors import NonfiniteState
from .sim import (
    WIntervalVerdict,
    _fill,
    _Plan,
    _start,
    _v_active,
    _v_rows,
    _w_factor,
    _w_increases,
    _w_records,
    _w_runs,
)


def windows(plan: _Plan, system: SwitchedSystem, x0: np.ndarray, width: int):
    """``sim._fill`` into a buffer of its own: the trajectory in windows of ``width`` rows."""
    n = x0.shape[0]
    return _fill(plan, system, x0, np.empty((min(width + kernels._seed_steps(n), plan.size), n)),
                 width)


class WMax:
    """``sim._w_verdicts`` taken window by window: each run's worst increase is a running maximum.

    ``add`` takes the windows in order, with their times, active V and V at
    every switch up to the window's end.  A difference spans two samples, so
    the last W of a window is carried to the next.  What is kept is a few
    numbers per segment: each segment's first time, and each run's worst.
    """

    def __init__(self, plan: _Plan, system: SwitchedSystem):
        self.plan, self.runs = plan, _w_runs(plan)
        self.k = np.array([system[mode].decay_rate for mode in plan.modes])
        self.t_lo = np.empty(len(plan.los))  # the time of each segment's first sample
        self.t_end = self.w = None  # the last time and W added
        if self.runs is not None:
            js, firsts, lasts, _, closed = self.runs
            self.firsts = np.array(firsts)
            self.closes, self.close_runs = lasts[:closed], js[:closed]
            self.worst = np.full(len(js), -np.inf)

    def add(self, lo: int, t: np.ndarray, v: np.ndarray, v_exit: np.ndarray) -> None:
        plan, hi = self.plan, lo + len(t)
        j0, j1, counts = plan.cut(lo, hi)
        starts = bisect_left(plan.los, lo)
        self.t_lo[starts:j1] = t[np.array(plan.los[starts:j1], dtype=int) - lo]
        self.t_end = t[-1]
        if self.runs is None:
            return
        w = _w_factor(self.k[j0:j1].repeat(counts), t, self.t_lo[j0:j1].repeat(counts)) * v
        d0 = lo - 1 if lo else 0  # the first difference: from the carried W on
        if lo:
            w = np.concatenate(([self.w], w))
        self.w = w[-1]
        later = w[1:].copy()
        c0, c1 = bisect_left(self.closes, lo), bisect_left(self.closes, hi)
        if c1 > c0:
            rows, runs = np.array(self.closes[c0:c1]), self.close_runs[c0:c1]
            closing = _w_factor(self.k[runs], t[rows - lo], self.t_lo[runs])
            later[rows - 1 - d0] = closing * v_exit[runs]
        r0 = np.searchsorted(self.firsts, d0, side="right") - 1
        r1 = np.searchsorted(self.firsts, d0 + len(later))
        if len(later) and r1 > r0:
            at = np.maximum(self.firsts[r0:r1] - d0, 0)
            part = np.maximum.reduceat(_w_increases(w[:-1], later), at)
            self.worst[r0:r1] = np.maximum(self.worst[r0:r1], part)

    def verdicts(self) -> list[WIntervalVerdict]:
        """The verdicts, once every window is added."""
        if self.runs is None:
            return []
        js, _, _, modes, _ = self.runs
        t_end = np.append(self.t_lo[1:], self.t_end)[js]
        return _w_records(self.worst, js, self.t_lo[js].tolist(), t_end.tolist(), modes)


class Scan(NamedTuple):
    """What ``scan`` keeps of a trajectory: a few numbers per switch, none per sample."""

    plan: _Plan
    x0: np.ndarray
    switch_states: np.ndarray
    v_exit: np.ndarray
    w_verdicts: Optional[list]


def scan(system, signal, x0, horizon, step, width, name, w=False) -> Scan:
    """One pass over the trajectory of ``simulate_switched``, in windows of ``width`` rows.

    Each window's states (``sim._fill``) and active V are checked for
    finiteness; a non-finite V raises ``NonfiniteState`` naming ``name``
    once the pass is over, so a non-finite state anywhere is reported
    first, as a whole check of the states would.  Kept: the plan, the start
    state, the switch states, the exited modes' V there and, when ``w``,
    the verdicts of ``WMax``; all are bit-equal to those of the whole
    trajectory.
    """
    plan, x0 = _start(system, signal, x0, horizon, step)
    rows = plan.los[1:]
    switch_states, v_exit = np.empty((len(rows), x0.shape[0])), np.empty(len(rows))
    wmax, bad_v = WMax(plan, system) if w else None, False
    for lo, X in windows(plan, system, x0, width):
        hi = lo + len(X)
        a, b = bisect_left(rows, lo), bisect_left(rows, hi)
        if b > a:
            switch_states[a:b] = X[np.subtract(rows[a:b], lo)]
            v_exit[a:b] = _v_rows(system, switch_states[a:b], plan.exit_modes[a:b], [1] * (b - a))
        if bad_v:
            continue
        v = _v_active(plan, system, X, lo)
        bad_v = not np.isfinite(v).all()
        if wmax and not bad_v:
            wmax.add(lo, plan.times_of(lo, hi), v, v_exit)
    if bad_v:  # raised once every state is checked: a non-finite state is named first
        raise NonfiniteState(f"non-finite value in {name}")
    for array in (switch_states, v_exit):
        array.setflags(write=False)
    return Scan(plan, x0, switch_states, v_exit, wmax and wmax.verdicts())
