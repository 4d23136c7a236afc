"""Seeded inputs, their references and their work counts for the in-process workloads.

Everything here runs in set-up, outside the timed region.  Each input gets
an independent reference: affine switch states from chained
``scipy.linalg.expm``, callable-mode switch states from a tight
``solve_ivp`` run, boundary points and mu bounds from their closed forms.
Every signal is checked against ``validate_dwell`` with the ``local_dwell``
table at generation time, so every trapping verdict has a known answer.
Work counts (RK4 steps, samples, switches) come from arithmetic on the step
grids and signals, never from the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from switchdwell import core, dwell, prebuilt

from counts import Work, simulation_work, unroll_switches

# The dwell of every interval exceeds the largest dwell the table requires
# of it by this factor, so each verdict has a margin far above integrator error.
DWELL_MARGIN = 1.1

# trap_sweep: (dimension, modes) of the random systems, fixed so that every
# seed asks for the same amount of work; the demo system comes first.
AFFINE_SHAPES = ((3, 4), (4, 6), (5, 8), (6, 3), (2, 5))
AFFINE_EPS = 0.05
AFFINE_STEP = 5e-3
AFFINE_HORIZON = 20.0
AFFINE_STARTS = 3
TUBE_STEP = 1e-3       # the paper's step
TUBE_GRID = 8
TUBE_SPAN = 1.5
TUBE_POINTS = 64

# callable_modes
CALLABLE_SYSTEMS = 2
CALLABLE_MODES = 3
CALLABLE_EPS = 0.05
CALLABLE_STEP = 1e-2
CALLABLE_HORIZON = 20.0
CALLABLE_STARTS = 3
CERT_SAMPLES = 10_000
CERT_BOX = (-2.5, 2.5)
MU_SAMPLES = 10_000
BOUNDARY_POINTS = 16

STATE_TOL = 1e-6       # switch states against the reference, per coordinate
BOUNDARY_TOL = 1e-9


@dataclass
class SimOp:
    """simulate_switched + verify_trapping (+ convergence_product on affine systems)."""

    system: core.SwitchedSystem
    signal: core.SwitchingSignal
    x0: np.ndarray
    horizon: float
    step: float
    eps: float
    ref_switch_states: np.ndarray
    work: Work
    mu_values: Optional[list[float]] = None   # closed-form pair bounds, affine only
    kind: str = "sim"


@dataclass
class TubeOp:
    system: core.SwitchedSystem
    from_label: object
    to_label: object
    eps: float
    t_grid: list[float]
    count: int
    step: float
    propagators: list[np.ndarray]   # expm(A_to t) for each grid time
    dwell: float                    # snapshots from here on lie inside the target
    kind: str = "tube"


@dataclass
class CertOp:
    sub: core.Subsystem
    box: tuple[np.ndarray, np.ndarray]
    n_samples: int
    seed: int
    kind: str = "certificate"


@dataclass
class MuOp:
    system: core.SwitchedSystem
    eps: float
    n_samples: int
    seed: int
    sup: float             # closed-form supremum (1 + D / sqrt(eps))^2
    kind: str = "mu"


@dataclass
class BoundaryOp:
    sub: core.Subsystem
    eps: float
    count: int
    ref_points: np.ndarray
    kind: str = "boundary"


def _random_contracting(rng, n: int) -> np.ndarray:
    """A = -Q diag(s) Q^T + K with K skew: the symmetric part is -Q diag(s) Q^T < 0."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = rng.uniform(1.6, 3.2, n)
    g = rng.standard_normal((n, n))
    return -(q * s) @ q.T + 0.5 * (g - g.T)


def _affine_system(rng, n: int, modes: int) -> core.SwitchedSystem:
    subs = []
    for label in range(modes):
        A = _random_contracting(rng, n)
        x_u = rng.standard_normal(n)
        x_u *= rng.uniform(0.4, 0.9) / np.linalg.norm(x_u)
        subs.append(core.make_affine_subsystem(A, -A @ x_u, label))
    return core.SwitchedSystem(subsystems=tuple(subs))


def _callable_subsystem(label, x_u: np.ndarray, omega: float) -> core.Subsystem:
    """f(x) = -(1 + |d|^2) d + omega J d with d = x - x_u, V = |d|^2, k = 2."""

    def field(x):
        d = x - x_u
        return -(1.0 + d @ d) * d + omega * np.array([-d[1], d[0]])

    def lyapunov(x):
        d = x - x_u
        return float(d @ d)

    sq = core.ClassKFn(1.0, 2.0)
    return core.Subsystem(
        label=label, field=field, equilibrium=x_u, decay_rate=2.0,
        alpha=sq, beta=sq, lyapunov=lyapunov,
    )


def _callable_system(rng) -> tuple[core.SwitchedSystem, dict]:
    subs, params = [], {}
    angles = rng.uniform(0, 2 * np.pi) + np.arange(CALLABLE_MODES) * 2 * np.pi / CALLABLE_MODES
    for label, a in enumerate(angles):
        x_u = rng.uniform(0.3, 0.5) * np.array([np.cos(a), np.sin(a)])
        omega = float(rng.uniform(-2.0, 2.0))
        params[label] = (x_u, omega)
        subs.append(_callable_subsystem(label, x_u, omega))
    return core.SwitchedSystem(subsystems=tuple(subs)), params


def _compliant_signal(rng, system, eps: float, horizon: float):
    """Periodic signal through every mode in seeded order, checked dwell-compliant.

    The hold time of mode m exceeds both T(prev -> m), which trapping at the
    switch out of m needs, and T(m -> next), which ``validate_dwell`` checks.
    """
    order = [system.labels[i] for i in rng.permutation(len(system.labels))]
    pairs = [(order[j], order[(j + 1) % len(order)]) for j in range(len(order))]
    T = dwell.local_dwell(eps, system, pairs).entries
    holds = [
        DWELL_MARGIN * max(T[(order[j - 1], order[j])], T[pairs[j]]) * rng.uniform(1.0, 1.2)
        for j in range(len(order))
    ]
    signal = core.signal_from_dwell(order[0], order[1:], holds, periodic=True)
    if core.validate_dwell(signal, lambda a, b: T[(a, b)]):
        raise RuntimeError("generated signal is not dwell-compliant")
    # keep the horizon clear of switch instants so the grid is unambiguous
    while any(abs(t - horizon) < 1e-6 for t, _ in unroll_switches(signal, horizon + 1.0)):
        horizon += 1e-3
    return signal, horizon, order


def _boundary_starts(rng, sub: core.Subsystem, eps: float, count: int) -> list[np.ndarray]:
    dirs = rng.standard_normal((count, sub.dimension))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return list(sub.equilibrium + math.sqrt(eps) * dirs)


def _chained(x0, signal, horizon, advance: Callable) -> np.ndarray:
    """States at each switch, advancing the reference solution interval by interval."""
    x, cur, mode, states = np.array(x0, dtype=float), signal.t0, signal.initial_mode, []
    for t, nxt in unroll_switches(signal, horizon):
        x = advance(mode, x, t - cur)
        states.append(x.copy())
        cur, mode = t, nxt
    return np.array(states)


def _mu_values(system, signal, horizon: float, eps: float) -> list[float]:
    modes = [signal.initial_mode] + [m for _, m in unroll_switches(signal, horizon)]
    out = []
    for a, b in zip(modes, modes[1:]):
        d = float(np.linalg.norm(system[b].equilibrium - system[a].equilibrium))
        out.append((1.0 + d / math.sqrt(eps)) ** 2)
    return out


def trap_sweep(seed: int) -> list:
    """The demo system plus random contracting systems in 2 to 6 dimensions."""
    rng = np.random.default_rng(seed)
    systems = [prebuilt.demo_system()] + [_affine_system(rng, n, m) for n, m in AFFINE_SHAPES]
    ops = []
    for system in systems:
        signal, horizon, order = _compliant_signal(rng, system, AFFINE_EPS, AFFINE_HORIZON)

        def advance(mode, x, dt, system=system):
            sub = system[mode]
            return sub.equilibrium + expm(sub.affine[0] * dt) @ (x - sub.equilibrium)

        work = simulation_work(system, signal, horizon, AFFINE_STEP)
        mus = _mu_values(system, signal, horizon, AFFINE_EPS)
        for x0 in _boundary_starts(rng, system[order[-1]], AFFINE_EPS, AFFINE_STARTS):
            ops.append(SimOp(
                system, signal, x0, horizon, AFFINE_STEP, AFFINE_EPS,
                _chained(x0, signal, horizon, advance), work, mus,
            ))
        # the reachable tube of the pair with the shortest dwell, over a fixed
        # span so every seed asks for the same work; snapshots at or after the
        # dwell lie inside the target region.  t = 0 returns the sampled
        # boundary itself, which the reference maps forward.
        pairs = [(a, b) for a in system.labels for b in system.labels if a != b]
        table = dwell.local_dwell(AFFINE_EPS, system, pairs).entries
        src, dst = min(pairs, key=table.get)
        t_grid = [0.0] + [TUBE_SPAN * (i + 1) / TUBE_GRID for i in range(TUBE_GRID)]
        A = system[dst].affine[0]
        ops.append(TubeOp(
            system, src, dst, AFFINE_EPS, t_grid, TUBE_POINTS, TUBE_STEP,
            [expm(A * t) for t in t_grid], table[(src, dst)],
        ))
    return ops


def _region_points(sub, eps: float, count: int) -> np.ndarray:
    """Documented boundary of N^eps for V = |x - x_u|^2 in 2-D: equally spaced angles from 0."""
    theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return sub.equilibrium + math.sqrt(eps) * np.column_stack([np.cos(theta), np.sin(theta)])


def callable_modes(seed: int) -> list:
    """2-D modes given only as Python callables: no affine data, no quadratic flag."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(CALLABLE_SYSTEMS):
        system, params = _callable_system(rng)
        signal, horizon, order = _compliant_signal(rng, system, CALLABLE_EPS, CALLABLE_HORIZON)
        work = simulation_work(system, signal, horizon, CALLABLE_STEP)
        starts = _boundary_starts(rng, system[order[-1]], CALLABLE_EPS, CALLABLE_STARTS)

        def advance(mode, X, dt, params=params):
            x_u, omega = params[mode]

            def rhs(_, y):
                D = y.reshape(-1, 2) - x_u
                r = 1.0 + np.einsum("ij,ij->i", D, D)
                return (-r[:, None] * D + omega * np.column_stack([-D[:, 1], D[:, 0]])).ravel()

            sol = solve_ivp(rhs, (0.0, dt), X.ravel(), method="DOP853", rtol=1e-12, atol=1e-13)
            return sol.y[:, -1].reshape(X.shape)

        # one stacked reference solve for all starts of this system
        ref = _chained(np.array(starts), signal, horizon, advance)
        for i, x0 in enumerate(starts):
            ops.append(SimOp(
                system, signal, x0, horizon, CALLABLE_STEP, CALLABLE_EPS, ref[:, i, :], work,
            ))
        box = (np.full(2, CERT_BOX[0]), np.full(2, CERT_BOX[1]))
        for sub in system.subsystems:
            ops.append(CertOp(sub, box, CERT_SAMPLES, int(rng.integers(2**31))))
            ops.append(BoundaryOp(
                sub, CALLABLE_EPS, BOUNDARY_POINTS,
                _region_points(sub, CALLABLE_EPS, BOUNDARY_POINTS),
            ))
        d_max = max(
            float(np.linalg.norm(a.equilibrium - b.equilibrium))
            for a in system.subsystems for b in system.subsystems
        )
        ops.append(MuOp(
            system, CALLABLE_EPS, MU_SAMPLES, int(rng.integers(2**31)),
            (1.0 + d_max / math.sqrt(CALLABLE_EPS)) ** 2,
        ))
    return ops


BUILDERS = {"trap_sweep": trap_sweep, "callable_modes": callable_modes}
