"""Lyapunov certificate evaluation, sampled validation, and trapping regions.

The trapping region of mode u at level eps is N^eps_u = {x : V_u(x) <= eps}.
V_u and its gradient come from ``Subsystem.v_batch``/``grad_batch``.
Certificate checks are sample-based: they can falsify the sandwich and decay
conditions on a box but never prove them; callers should treat a clean report
as "not falsified on the sampled set".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy  # noqa: F401  cheap, unlike scipy.stats; perfbench/run.py reads its version after import

from .core import Label, Subsystem
from .errors import UnsupportedDimension

MEMBERSHIP_TOL = 1e-9
DECAY_TOL = 1e-9


def v_eval(sub: Subsystem, x) -> float:
    """V_u(x); zero iff x is the equilibrium for the default quadratic."""
    return float(sub.v_batch(sub.check_dimension(x)[None, :])[0])


def in_region(sub: Subsystem, eps: float, x, strict: bool = False) -> bool:
    """Membership of x in N^eps_u, with a 1e-9 absolute tolerance on V.

    ``strict=True`` tests exact mathematical membership V(x) <= eps instead.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    v = v_eval(sub, x)
    return v <= eps if strict else v <= eps + MEMBERSHIP_TOL


@dataclass
class CertificateReport:
    """Outcome of a sampled certificate check for one subsystem."""

    label: Label
    samples_tested: int
    sandwich_violations: list = field(default_factory=list)
    decay_violations: list = field(default_factory=list)
    max_decay_slack: float = float("-inf")

    @property
    def passed(self) -> bool:
        return not self.sandwich_violations and not self.decay_violations

    def to_dict(self) -> dict:
        return {
            "label": str(self.label),
            "samples_tested": self.samples_tested,
            "passed": self.passed,
            "n_sandwich_violations": len(self.sandwich_violations),
            "n_decay_violations": len(self.decay_violations),
            "sandwich_violations": [
                {"x": list(x), "v": v, "lower": lo, "upper": hi}
                for x, v, lo, hi in self.sandwich_violations[:50]
            ],
            "decay_violations": [
                {"x": list(x), "derivative": d, "bound": b}
                for x, d, b in self.decay_violations[:50]
            ],
            "max_decay_slack": self.max_decay_slack,
        }


def check_certificate(sub: Subsystem, box, n_samples: int, seed: int) -> CertificateReport:
    """Sample the box (Halton, seeded) and test the sandwich and decay conditions.

    At each point: alpha(||x-x_u||) <= V(x) <= beta(||x-x_u||) and
    grad V(x) . f(x) <= -k V(x) + 1e-9, with V and its gradient from
    ``Subsystem.v_batch``/``grad_batch``.  Violation lists are ordered by
    sample index.
    """
    from scipy.stats import qmc  # scipy.stats dominates import time; load on use

    lower, upper = (np.asarray(s, dtype=float) for s in box)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not np.all(upper > lower):
        raise ValueError("box must have positive volume")
    sampler = qmc.Halton(d=sub.dimension, scramble=True, seed=seed)
    pts = qmc.scale(sampler.random(n_samples), lower, upper)

    diff = pts - sub.equilibrium
    r = np.sqrt(np.vecdot(diff, diff))
    v = sub.v_batch(pts)
    lo, hi = sub.alpha.eval(r), sub.beta.eval(r)
    if sub.affine is not None:
        A, b = sub.affine
        f = pts @ A.T + b
    else:
        f = np.fromiter(map(sub.field, pts), dtype=(float, sub.dimension), count=n_samples)
    deriv = np.vecdot(sub.grad_batch(pts), f)
    slack = deriv + sub.decay_rate * v
    # a finite-difference gradient carries a relative error, so off the closed
    # form the tolerance scales with the derivative magnitude
    tol = DECAY_TOL if sub.quadratic else DECAY_TOL * (1.0 + np.abs(deriv))
    report = CertificateReport(label=sub.label, samples_tested=n_samples)
    report.max_decay_slack = float(slack.max())
    for i in np.nonzero((v < lo - MEMBERSHIP_TOL) | (v > hi + MEMBERSHIP_TOL))[0]:
        report.sandwich_violations.append((pts[i].copy(), float(v[i]), float(lo[i]), float(hi[i])))
    for i in np.nonzero(slack > tol)[0]:
        report.decay_violations.append((pts[i].copy(), float(deriv[i]), -sub.decay_rate * float(v[i])))
    return report


def region_boundary_points(sub: Subsystem, eps: float, count: int) -> np.ndarray:
    """``count`` points on the level set V_u(x) = eps, as an array of rows.

    Quadratic V in 2-D: equally spaced angles on the circle of radius
    sqrt(eps); quadratic V in other dimensions: deterministic directions on
    the sphere.  Non-quadratic V is supported in 2-D only, by radial
    bisection per angle.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if count < 3:
        raise ValueError("count must be >= 3")
    n = sub.dimension
    if sub.quadratic:
        radius = np.sqrt(eps)
        if n == 2:
            theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
            dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        else:
            rng = np.random.default_rng(0)
            dirs = rng.standard_normal((count, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return sub.equilibrium + radius * dirs
    if n != 2:
        raise UnsupportedDimension(
            "boundary parameterization of non-quadratic regions needs n = 2"
        )
    theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    pts = np.empty((count, 2))
    for i, th in enumerate(theta):
        d = np.array([np.cos(th), np.sin(th)])
        hi = sub.alpha.inverse(eps) * 2.0 + 1.0
        while sub.lyapunov(sub.equilibrium + hi * d) < eps:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if sub.lyapunov(sub.equilibrium + mid * d) < eps:
                lo = mid
            else:
                hi = mid
        pts[i] = sub.equilibrium + 0.5 * (lo + hi) * d
    return pts
