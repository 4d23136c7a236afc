"""Work counts by arithmetic on step grids and switching signals.

These follow the package's documented conventions (fixed-step RK4 whose
last step shrinks to land on the interval end; periodic patterns unrolled,
the wrap counting as a switch when the mode changes) and never ask the
package, so they repeat exactly and do not move when the code does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def grid_steps(t0: float, t1: float, step: float) -> int:
    """RK4 steps on [t0, t1]: full steps of ``step`` plus one shorter last step."""
    span = t1 - t0
    n_full = int(math.floor(span / step + 1e-9))
    return n_full + (1 if span - n_full * step > step * 1e-9 else 0)


def unroll_switches(signal, horizon: float) -> list[tuple[float, object]]:
    """(t_i, mode entered) for every switch in (t0, horizon], periodic pattern unrolled."""
    if signal.period is None:
        return [(t, m) for t, m in signal.segments if t <= horizon]
    out = []
    last = signal.segments[-1][1] if signal.segments else signal.initial_mode
    k = 0
    while True:
        base = signal.t0 + k * signal.period
        if base > horizon:
            return out
        if k > 0 and last != signal.initial_mode:
            out.append((base, signal.initial_mode))
        for t, m in signal.segments:
            ti = base + (t - signal.t0)
            if ti > horizon:
                return out
            out.append((ti, m))
        k += 1


@dataclass
class Work:
    """Work counts of one simulation."""

    affine_steps: int = 0
    generic_steps: int = 0
    samples: int = 0
    switches: int = 0


def simulation_work(system, signal, horizon: float, step: float) -> Work:
    """Steps, samples and switches of ``simulate_switched`` on its grid."""
    work = Work()
    cur, mode = signal.t0, signal.initial_mode
    intervals = []
    for t, nxt in unroll_switches(signal, horizon):
        intervals.append((cur, t, mode))
        cur, mode = t, nxt
        work.switches += 1
    if cur < horizon:
        intervals.append((cur, horizon, mode))
    for a, b, m in intervals:
        n = grid_steps(a, b, step)
        if system[m].affine is not None:
            work.affine_steps += n
        else:
            work.generic_steps += n
    work.samples = work.affine_steps + work.generic_steps + 1
    return work
