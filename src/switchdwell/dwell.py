"""Dwell-time formulas: pairwise, local supremum, global (mu-bound), travel-time triangle.

The pairwise dwell time from region N^eps_{u1} into N^eps_{u2} under the
flow of u2 is

    T = -(1/k_2) * ln( eps / beta_2(||x_2 - x_1|| + alpha_1^{-1}(eps)) )

which can be negative when the source region already maps inside the target;
``pairwise_dwell`` clamps at 0 and tables retain the raw value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ClassKFn, Label, Subsystem, SwitchedSystem, _check_eps
from .errors import (
    EmptyConfiguration,
    HeterogeneousCertificates,
    InvalidEpsilon,
    InvalidMu,
    NoThreshold,
    NonfiniteState,
    UnsupportedCertificate,
)


@dataclass(frozen=True)
class DwellTable:
    """Pairwise dwell times over a transition set and their supremum t_loc."""

    eps: float
    entries: dict[tuple[Label, Label], float]
    raw_entries: dict[tuple[Label, Label], float]
    t_loc: float

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "entries": [
                {"from": str(a), "to": str(b), "dwell": t, "raw": self.raw_entries[(a, b)]}
                for (a, b), t in self.entries.items()
            ],
            "t_loc": self.t_loc,
        }


@dataclass(frozen=True)
class TriangleAnalysis:
    """Travel-time gap T_{u0,u1} - T_{u0,v} - T_{v,u1} and its closed-form twin.

    ``eps0`` is ``epsilon0_search``'s threshold for the worst case of this
    geometry, or None when the geometry is outside its search domain.
    """

    eps: float
    gap: float
    gap_via_constant: float
    K: float
    eps0: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "gap": self.gap,
            "gap_via_constant": self.gap_via_constant,
            "K": self.K,
            "eps0": self.eps0,
            "detour_longer": self.gap < 0,
        }


# global_dwell's relative margin above the bound ln(mu)/k_min
GLOBAL_DWELL_MARGIN = 0.01


def _equilibrium_distance(a: Subsystem, b: Subsystem) -> float:
    """``||x_b - x_a||``, the distance between the equilibria of two modes."""
    return float(np.linalg.norm(b.equilibrium - a.equilibrium))


def _pairwise_raw(eps: float, from_sub: Subsystem, to_sub: Subsystem) -> float:
    dist = _equilibrium_distance(from_sub, to_sub)
    delta = to_sub.beta.eval(dist + from_sub.alpha.inverse(eps))
    if delta <= 0:
        raise InvalidEpsilon("beta(||x2 - x1|| + alpha^{-1}(eps)) must be positive")
    return -math.log(eps / delta) / to_sub.decay_rate


def pairwise_dwell(eps: float, from_sub: Subsystem, to_sub: Subsystem) -> float:
    """Dwell time to travel from N^eps_{from} into N^eps_{to}, clamped at 0."""
    _check_eps(eps)
    return max(0.0, _pairwise_raw(eps, from_sub, to_sub))


def local_dwell(
    eps: float,
    system: SwitchedSystem,
    transitions: Sequence[tuple[Label, Label]],
) -> DwellTable:
    """Pairwise dwell for each transition; t_loc is their maximum."""
    _check_eps(eps)
    transitions = list(transitions)
    if not transitions:
        raise ValueError("transitions must be nonempty")
    entries: dict[tuple[Label, Label], float] = {}
    raw: dict[tuple[Label, Label], float] = {}
    for a, b in transitions:
        raw[(a, b)] = _pairwise_raw(eps, system[a], system[b])
        entries[(a, b)] = max(0.0, raw[(a, b)])
    return DwellTable(eps=eps, entries=entries, raw_entries=raw, t_loc=max(entries.values()))


def pair_mu(eps: float, dist: float) -> float:
    """Closed-form bound (1 + dist/sqrt(eps))^2 on V_a/V_b outside N^eps_b.

    Exact for identity-quadratic certificates whose equilibria lie ``dist``
    apart; increasing in ``dist``.  A bound that overflows is inf.
    """
    try:
        return (1.0 + dist / math.sqrt(eps)) ** 2
    except OverflowError:
        return math.inf


def mu_bound(
    eps: float,
    system: SwitchedSystem,
    mode: str = "closed_form",
    n_samples: int = 100_000,
    seed: int = 42,
) -> float:
    """Uniform bound on V_a(x)/V_b(x) outside N^eps_b, over all ordered mode pairs.

    ``closed_form`` (identity-quadratic certificates only) returns
    (1 + D/sqrt(eps))^2 with D the largest pairwise equilibrium distance,
    the exact supremum.  ``sampled`` maximizes the ratio over seeded random
    points outside the region, at distances from x_b between
    alpha^{-1}(eps) and 2 (d + alpha^{-1}(eps)) + 1, with d the largest
    distance from x_b to another equilibrium; it approaches the closed form
    from below.  A V_b that leaves no sample outside its region (one below
    alpha there) raises ``ValueError``, and a NaN sampled V_b or ratio (a NaN
    V_a, or inf / inf) raises ``NonfiniteState``: dropping it could lower the
    bound, and so the global dwell time.  A ratio of +inf is returned, a
    safe bound.
    """
    _check_eps(eps)
    subs = system.subsystems
    if mode == "closed_form":
        if not all(s.quadratic for s in subs):
            raise UnsupportedCertificate(
                "closed-form mu needs identity-weighted quadratic certificates"
            )
        d_max = 0.0
        for a in subs:
            for b in subs:
                d_max = max(d_max, _equilibrium_distance(b, a))
        return pair_mu(eps, d_max)
    if mode != "sampled":
        raise ValueError(f"mode must be 'closed_form' or 'sampled', got {mode!r}")
    if not n_samples >= 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    n = system.dimension
    best = 1.0
    for b in subs:
        r_in = b.alpha.inverse(eps)
        r_out = 2.0 * (max(_equilibrium_distance(b, a) for a in subs) + r_in) + 1.0
        dirs = rng.standard_normal((n_samples, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = r_in * (1 + 1e-12) + rng.random(n_samples) * (r_out - r_in)
        pts = b.equilibrium + radii[:, None] * dirs
        vb = b.v_batch(pts)
        if np.isnan(vb).any():
            raise NonfiniteState(f"NaN V sampled for mode {b.label!r}")
        outside = vb > eps
        if not outside.any():
            raise ValueError(
                f"no sample of mode {b.label!r} lies outside its region within radius "
                f"{r_out} (alpha^-1(eps) = {r_in})"
            )
        for a in subs:
            if a is not b:
                ratio = float((a.v_batch(pts)[outside] / vb[outside]).max())  # NaN if any is
                if math.isnan(ratio):
                    raise NonfiniteState(f"NaN V_a/V_b sampled, a = {a.label!r}, b = {b.label!r}")
                best = max(best, ratio)
    return best


def global_dwell(eps: float, mu: float, k_min: float) -> float:
    """``1 + GLOBAL_DWELL_MARGIN`` times the global-attraction bound ln(mu)/k_min."""
    _check_eps(eps)
    if not mu >= 1.0:  # NaN too
        raise InvalidMu(f"mu must be >= 1, got {mu}")
    if not k_min > 0:
        raise ValueError("k_min must be positive")
    if mu == 1.0:
        return 0.0
    return (1.0 + GLOBAL_DWELL_MARGIN) * math.log(mu) / k_min


def _shared_certificate(subs: Sequence[Subsystem]) -> tuple[ClassKFn, ClassKFn, float]:
    a0, b0, k0 = subs[0].alpha, subs[0].beta, subs[0].decay_rate
    for s in subs[1:]:
        if s.alpha != a0 or s.beta != b0 or s.decay_rate != k0:
            raise HeterogeneousCertificates(
                "triangle analysis needs identical alpha, beta and decay rate"
            )
    return a0, b0, k0


def triangle_gap(eps: float, u0: Subsystem, v: Subsystem, u1: Subsystem) -> TriangleAnalysis:
    """Gap T_{u0,u1} - T_{u0,v} - T_{v,u1}, computed directly and via -ln(K/eps^{1/k}).

    Negative gap means the detour through v takes longer than the direct
    travel.  Both computations agree to 1e-10 relative (algebraic identity);
    requires shared alpha, beta, k.  ``eps0`` is searched with
    d = max(||x_u0||, ||x_u1||) and r the shorter detour leg, when
    d > 0 and 0 < r <= 2d; it stays None when the search finds no threshold.
    """
    _check_eps(eps)
    alpha, beta, k = _shared_certificate([u0, v, u1])
    gap = (
        _pairwise_raw(eps, u0, u1)
        - _pairwise_raw(eps, u0, v)
        - _pairwise_raw(eps, v, u1)
    )
    ai = alpha.inverse(eps)
    d01 = _equilibrium_distance(u0, u1)
    d0v = _equilibrium_distance(u0, v)
    dv1 = _equilibrium_distance(v, u1)
    K = (beta.eval(dv1 + ai) / beta.eval(d01 + ai)) ** (1.0 / k) * beta.eval(d0v + ai) ** (
        1.0 / k
    )
    gap_formula = -math.log(K / eps ** (1.0 / k))
    d = max(float(np.linalg.norm(u0.equilibrium)), float(np.linalg.norm(u1.equilibrium)))
    r = min(d0v, dv1)
    eps0 = None
    if d > 0 and 0 < r <= 2 * d:
        try:
            eps0 = epsilon0_search(d, r, alpha, beta, k)
        except NoThreshold:  # no eps in the search grid, e.g. a detour leg of 2e-7
            pass
    return TriangleAnalysis(eps=eps, gap=gap, gap_via_constant=gap_formula, K=K, eps0=eps0)


def epsilon0_search(
    d: float, r: float, alpha: ClassKFn, beta: ClassKFn, k: float
) -> float:
    """Largest eps0 such that the worst-case triangle gap is negative on (0, eps0).

    Worst case over configurations ||x_{u0}||, ||x_{u1}|| <= d and
    ||x_{u0}-x_v||, ||x_v-x_{u1}|| >= r uses
    K0 = beta(r + alpha^{-1}(eps))^{2/k} / beta(2d + alpha^{-1}(eps))^{1/k};
    the gap is negative iff K0/eps^{1/k} > 1.  Bisection to relative width 1e-6.
    ``NoThreshold`` when the condition fails at the grid's first point, 1e-12,
    or holds at every point up to its last, 1e6.
    """
    if not (d > 0 and r > 0):  # NaN too
        raise ValueError("d and r must be positive")
    if r > 2 * d:
        raise EmptyConfiguration(f"r = {r} > 2d = {2 * d} admits no configuration")
    if not k > 0:
        raise ValueError("k must be positive")

    def margin(eps: float) -> float:
        ai = alpha.inverse(eps)
        k0 = beta.eval(r + ai) ** (2.0 / k) / beta.eval(2.0 * d + ai) ** (1.0 / k)
        return k0 / eps ** (1.0 / k) - 1.0

    grid = np.logspace(-12, 6, 400)
    if margin(grid[0]) <= 0:
        raise NoThreshold("condition fails already at eps = 1e-12")
    lo = grid[0]
    hi = None
    for g in grid[1:]:
        if margin(g) <= 0:
            hi = g
            break
        lo = g
    if hi is None:
        raise NoThreshold("condition holds on the whole grid, up to eps = 1e6")
    while (hi - lo) / lo > 1e-6:
        mid = math.sqrt(lo * hi)
        if margin(mid) > 0:
            lo = mid
        else:
            hi = mid
    return float(lo)
