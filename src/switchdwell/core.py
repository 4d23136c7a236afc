"""Domain types for switched systems: subsystems, certificates, switching signals.

Conventions
-----------
A switching signal is a literal piecewise-constant mode: ``initial_mode`` on
``[t0, t_1)`` and the mode attached to switch time ``t_i`` on ``[t_i, t_{i+1})``
(right-continuous).  All types are immutable after construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Hashable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyTransitions,
    NonpositiveDwell,
    NotContracting,
    SingularMatrix,
    UnknownLabel,
)

Label = Hashable
VectorField = Callable[[np.ndarray], np.ndarray]

_EQUILIBRIUM_TOL = 1e-9


@dataclass(frozen=True)
class ClassKFn:
    """Power-law class-K function ``s -> c * s**p`` on s >= 0, with closed-form inverse."""

    c: float
    p: float

    def __post_init__(self):
        if not (self.c > 0 and self.p > 0):
            raise ValueError(f"ClassKFn needs c > 0 and p > 0, got c={self.c}, p={self.p}")

    def eval(self, s):
        """``c * s**p``; elementwise when ``s`` is an array."""
        if np.any(np.less(s, 0)):
            raise ValueError("class-K functions are defined on s >= 0")
        return self.c * s ** self.p

    def inverse(self, y: float) -> float:
        if y < 0:
            raise ValueError("class-K inverse is defined on y >= 0")
        return (y / self.c) ** (1.0 / self.p)


def _frozen_vector(x, name: str) -> np.ndarray:
    v = np.array(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v}")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class Subsystem:
    """One mode of the switched system with its Lyapunov certificate.

    ``lyapunov`` is V_u, sandwiched between ``alpha(||x - x_u||)`` and
    ``beta(||x - x_u||)`` and decaying at rate ``decay_rate`` along ``field``.
    ``affine`` carries (A, b) when the mode is x' = Ax + b (integrated by the
    exact RK4 map in ``kernels``); ``quadratic`` marks V_u(x) = ||x - x_u||^2.

    ``v_batch`` and ``grad_batch`` are the single evaluation path for V_u and
    its gradient over rows of states: ``quadratic`` selects the closed forms
    ``||d||^2`` and ``2d`` with ``d = x - x_u``; any other mode loops over
    ``lyapunov``, with central differences for the gradient.
    """

    label: Label
    field: VectorField
    equilibrium: np.ndarray
    decay_rate: float
    alpha: ClassKFn
    beta: ClassKFn
    lyapunov: Callable[[np.ndarray], float]
    affine: Optional[tuple[np.ndarray, np.ndarray]] = None
    quadratic: bool = False

    def __post_init__(self):
        # each check is written to fail on NaN too
        eq = _frozen_vector(self.equilibrium, f"equilibrium of mode {self.label!r}")
        object.__setattr__(self, "equilibrium", eq)
        if not self.decay_rate > 0:
            raise ValueError("decay_rate must be positive")
        residual = np.linalg.norm(np.asarray(self.field(self.equilibrium), dtype=float))
        if not residual <= _EQUILIBRIUM_TOL:
            raise ValueError(
                f"equilibrium of mode {self.label!r} is not a zero of the field "
                f"(|f(x_u)| = {residual:.3e})"
            )
        v0 = float(self.lyapunov(self.equilibrium))
        if not abs(v0) <= 1e-12:
            raise ValueError(f"V({self.label!r}) must vanish at the equilibrium, got {v0!r}")
        for s in np.logspace(-6, 3, 19):
            if not self.alpha.eval(s) <= self.beta.eval(s) * (1 + 1e-12):
                raise ValueError(f"alpha > beta at s={s} for mode {self.label!r}")

    @property
    def dimension(self) -> int:
        return self.equilibrium.shape[0]

    def v_batch(self, X: np.ndarray) -> np.ndarray:
        """V_u at each row of ``X``."""
        if self.quadratic:
            D = X - self.equilibrium
            return np.vecdot(D, D)
        return np.fromiter(map(self.lyapunov, X), dtype=float, count=len(X))

    def grad_batch(self, X: np.ndarray) -> np.ndarray:
        """Gradient of V_u at each row of ``X``.

        Central differences for non-quadratic V, with step
        ``h = 1e-6 * (1 + ||x||)`` per row along each axis.
        """
        if self.quadratic:
            return 2.0 * (X - self.equilibrium)
        h = 1e-6 * (1.0 + np.sqrt(np.vecdot(X, X)))
        G = np.empty_like(X)
        for j in range(X.shape[1]):
            step = np.zeros_like(X)
            step[:, j] = h
            G[:, j] = (self.v_batch(X + step) - self.v_batch(X - step)) / (2.0 * h)
        return G

    def check_dimension(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.equilibrium.shape:
            raise DimensionMismatch(
                f"state of shape {x.shape} for mode {self.label!r} of dimension {self.dimension}"
            )
        return x


@dataclass(frozen=True, eq=False)
class SwitchedSystem:
    """Collection of subsystems sharing the state dimension, keyed by label."""

    subsystems: tuple[Subsystem, ...]
    _by_label: dict = dc_field(init=False, repr=False)

    def __post_init__(self):
        subs = tuple(self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        if not subs:
            raise ValueError("a switched system needs at least one subsystem")
        by_label = {}
        for sub in subs:
            if sub.label in by_label:
                raise ValueError(f"duplicate mode label {sub.label!r}")
            if sub.dimension != subs[0].dimension:
                raise DimensionMismatch("all subsystems must share the state dimension")
            by_label[sub.label] = sub
        object.__setattr__(self, "_by_label", by_label)

    @property
    def dimension(self) -> int:
        return self.subsystems[0].dimension

    @property
    def labels(self) -> tuple[Label, ...]:
        return tuple(s.label for s in self.subsystems)

    def __getitem__(self, label: Label) -> Subsystem:
        try:
            return self._by_label[label]
        except KeyError:
            raise UnknownLabel(f"unknown mode label {label!r}") from None

    def __contains__(self, label: Label) -> bool:
        return label in self._by_label


@dataclass(frozen=True, eq=False)
class SwitchingSignal:
    """Piecewise-constant mode signal with optional periodic extension.

    ``segments`` are (switch_time, mode) pairs with strictly increasing times
    > t0; ``mode_at`` is right-continuous (``mode_at(t_i)`` is the mode entered
    at t_i).  With ``period`` set, the pattern on [t0, t0 + period) repeats
    and must switch at least once.

    Unrolling rule (the only place it is written): switch i of cycle k lands
    at ``(t0 + k*period) + (t_i - t0)``, and for k > 0 the wrap back to
    ``initial_mode`` at ``t0 + k*period`` is a switch when the pattern's last
    mode differs from ``initial_mode``.  ``switches_until``, ``mode_at``,
    ``switches_per_period`` and ``validate_dwell`` all read this enumeration.
    """

    t0: float
    initial_mode: Label
    segments: tuple[tuple[float, Label], ...] = ()
    period: Optional[float] = None

    def __post_init__(self):
        # each check is written to fail on NaN too
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0!r}")
        segs = tuple((float(t), m) for t, m in self.segments)
        object.__setattr__(self, "segments", segs)
        prev = self.t0
        for t, _ in segs:
            if not t > prev:
                raise ValueError("switch times must be strictly increasing and > t0")
            prev = t
        if self.period is not None:
            if not (self.period > 0 and math.isfinite(self.period)):
                raise ValueError(f"period must be positive and finite, got {self.period!r}")
            if not segs:
                raise ValueError("a periodic pattern must switch at least once")
            if segs[-1][0] >= self.t0 + self.period:
                raise ValueError("switch times must lie inside one period")

    @property
    def switch_times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.segments)

    @property
    def _wraps(self) -> bool:
        return self.period is not None and self.segments[-1][1] != self.initial_mode

    @property
    def switches_per_period(self) -> int:
        """Switches in one cycle, the wrap included; all switches when aperiodic."""
        return len(self.segments) + self._wraps

    def _unroll(self, k0: int = 0) -> Iterator[tuple[float, Label, Label]]:
        """(t_i, mode_before, mode_after) in time order from cycle ``k0`` on."""
        if self.period is None:
            prev = self.initial_mode
            for t, mode in self.segments:
                yield t, prev, mode
                prev = mode
            return
        for k in itertools.count(k0):
            base = self.t0 + k * self.period
            if k > 0 and self._wraps:
                yield base, self.segments[-1][1], self.initial_mode
            prev = self.initial_mode
            for t, mode in self.segments:
                yield base + (t - self.t0), prev, mode
                prev = mode

    def mode_at(self, t: float) -> Label:
        if not self.t0 <= t < math.inf:
            raise ValueError(f"t={t} is not a finite time from the signal start t0={self.t0} on")
        k0 = 0 if self.period is None else max(0, math.floor((t - self.t0) / self.period) - 1)
        mode = self.initial_mode
        # t lies in cycle k0 + 1 up to rounding, so three cycles always reach it
        for ti, before, after in self.first_switches(3 * self.switches_per_period, k0):
            if ti > t:
                return before
            mode = after
        return mode

    def first_switches(self, count: int, k0: int = 0) -> list[tuple[float, Label, Label]]:
        """The first ``count`` (t_i, mode_before, mode_after) from cycle ``k0`` on."""
        return list(itertools.islice(self._unroll(k0), count))

    def switches_until(self, t_end: float) -> list[tuple[float, Label, Label]]:
        """All (t_i, mode_before, mode_after) with t0 < t_i <= t_end, periodic signals unrolled."""
        return list(itertools.takewhile(lambda s: s[0] <= t_end, self._unroll()))


@dataclass(frozen=True)
class DwellViolation:
    """One consecutive switch pair whose gap is below the required dwell."""

    index: int
    from_mode: Label
    to_mode: Label
    gap: float
    required: float


def make_affine_subsystem(A, b, label: Label) -> Subsystem:
    """Subsystem for x' = Ax + b with the identity-weighted quadratic certificate.

    The equilibrium is -A^{-1} b, V(x) = ||x - x_u||^2 with alpha = beta = s^2,
    and the decay rate is -lambda_max(A + A^T), the tightest constant for this V.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if b.shape != (A.shape[0],):
        raise DimensionMismatch(f"b of shape {b.shape} for A of shape {A.shape}")
    sym_eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
    if sym_eigs[-1] >= 0:
        raise NotContracting(
            f"symmetric part of A has a nonnegative eigenvalue ({sym_eigs[-1]:.6g})"
        )
    try:
        equilibrium = np.linalg.solve(A, -b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"A of mode {label!r} is not invertible") from exc
    A.setflags(write=False)
    b.setflags(write=False)
    x_u = equilibrium.copy()

    def field(x: np.ndarray) -> np.ndarray:
        return A @ x + b

    def lyapunov(x: np.ndarray) -> float:
        d = np.asarray(x, dtype=float) - x_u
        return float(d @ d)

    return Subsystem(
        label=label,
        field=field,
        equilibrium=equilibrium,
        decay_rate=float(-2.0 * sym_eigs[-1]),
        alpha=ClassKFn(1.0, 2.0),
        beta=ClassKFn(1.0, 2.0),
        lyapunov=lyapunov,
        affine=(A, b),
        quadratic=True,
    )


def signal_from_dwell(
    initial_mode: Label,
    transitions: Sequence[Label],
    dwell: float | Sequence[float] | None = None,
    t0: float = 0.0,
    periodic: bool = False,
) -> SwitchingSignal:
    """Signal holding each mode for a dwell time: switch i lands at t0 + sum(dwell[:i+1]).

    A scalar dwell repeats; a list must have one entry per transition, plus a
    trailing hold time for the final mode when ``periodic`` (the period is the
    total duration of the pattern).
    """
    transitions = list(transitions)
    if not transitions:
        if periodic:
            raise EmptyTransitions("a periodic signal needs at least one transition")
        return SwitchingSignal(t0=t0, initial_mode=initial_mode)
    n = len(transitions)
    if dwell is None:
        raise NonpositiveDwell("dwell is required when there are transitions")
    if np.isscalar(dwell):
        dwells = [float(dwell)] * (n + 1 if periodic else n)
    else:
        dwells = [float(d) for d in dwell]
        expected = n + 1 if periodic else n
        if len(dwells) != expected:
            raise ValueError(
                f"need {expected} dwell values for {n} transitions"
                f"{' (periodic)' if periodic else ''}, got {len(dwells)}"
            )
    if any(d <= 0 for d in dwells):
        raise NonpositiveDwell(f"dwell values must be positive, got {dwells}")
    times = t0 + np.cumsum(dwells[:n])
    segments = tuple((float(t), m) for t, m in zip(times, transitions))
    period = float(sum(dwells)) if periodic else None
    return SwitchingSignal(t0=t0, initial_mode=initial_mode, segments=segments, period=period)


def validate_dwell(
    signal: SwitchingSignal,
    required: Callable[[Label, Label], float],
) -> list[DwellViolation]:
    """Consecutive switch pairs violating ``gap >= required(from_mode, to_mode)``.

    The switches are the first ``signal.switches_per_period + 1`` of the
    signal's enumeration (see ``SwitchingSignal``); the gap from t0 to the
    first switch counts, with the initial mode as ``from_mode``.  For a
    periodic signal that reaches the first switch of the second cycle, so
    each recurring switch is checked once with its steady gap (a hold across
    the wrap is one gap); an empty list means the signal is dwell-compliant.
    """
    violations = []
    prev_t = signal.t0
    switches = signal.first_switches(signal.switches_per_period + 1)
    for i, (t, prev_mode, mode) in enumerate(switches):
        req = float(required(prev_mode, mode))
        if t - prev_t < req:
            violations.append(DwellViolation(i, prev_mode, mode, t - prev_t, req))
        prev_t = t
    return violations
