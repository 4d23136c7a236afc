"""Lyapunov certificate evaluation, sampled validation, and trapping regions.

The trapping region of mode u at level eps is N^eps_u = {x : V_u(x) <= eps}.
V_u and its derivative along the field come from ``Subsystem.v_batch`` and
``Subsystem.lie_batch``.
Certificate checks are sample-based: they can falsify the sandwich and decay
conditions on a box but never prove them; callers should treat a clean report
as "not falsified on the sampled set".  The samples are a Halton sequence
shifted modulo 1 by a seeded random vector (a Cranley-Patterson rotation,
R. Cranley & T. N. L. Patterson, SIAM J. Numer. Anal. 13, 1976), drawn by
``_halton`` with ``random`` from the standard library, so a run that
certifies imports neither ``scipy.stats`` nor ``numpy.random``.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field

import numpy as np
import scipy  # noqa: F401  cheap; perfbench/run.py reads its version after import

from .core import Label, Subsystem, _check_eps
from .errors import NonfiniteState, UnsupportedDimension

MEMBERSHIP_TOL = 1e-9
DECAY_TOL = 1e-9
# certificate samples checked at once: 130 (affine) to 190 (callable) bytes
# each in 2-D, so a check of any size holds under 0.4 MB and its violations
_SAMPLE_BLOCK = 2048


def v_eval(sub: Subsystem, x) -> float:
    """V_u(x); zero iff x is the equilibrium for the default quadratic."""
    return float(sub.v_batch(sub.check_dimension(x)[None, :])[0])


def in_region(sub: Subsystem, eps: float, x, strict: bool = False) -> bool:
    """Membership of x in N^eps_u, with a 1e-9 absolute tolerance on V.

    ``strict=True`` tests exact mathematical membership V(x) <= eps instead.
    """
    _check_eps(eps)
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


def _primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def _shift(d: int, seed: int) -> list[float]:
    """The Cranley-Patterson shift of ``seed``: the first ``d`` draws of ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [rng.random() for _ in range(d)]


def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """First ``n`` points of the Halton sequence in [0, 1)^d, shifted by ``seed``, shape (n, d).

    Dimension j holds the radical inverses of ``0 ... n-1`` in base p_j, the
    j-th prime, shifted modulo 1 by the j-th draw of ``random.Random(seed)``
    (a Cranley-Patterson rotation, ``_shift``).  Only integer divmod and
    correctly rounded IEEE products, quotients, sums and ``% 1.0`` are used,
    so the points have the same bits on every platform.  ``seed`` is a
    non-negative int.
    """
    return _halton_rows(_shift(d, seed), 0, n)


def _halton_rows(shift: list[float], lo: int, hi: int) -> np.ndarray:
    """Rows ``lo ... hi-1`` of the Halton set shifted by ``shift``, shape (hi - lo, len(shift)).

    They have the bits of the same rows of the whole set: a digit past the
    largest index's is 0 for every row, and adding ``0 * f`` to a
    non-negative sum leaves it as it was.
    """
    pts = np.empty((hi - lo, len(shift)))
    for j, (base, s) in enumerate(zip(_primes(len(shift)), shift)):
        q, seq, f = np.arange(lo, hi), np.zeros(hi - lo), 1.0 / base
        top = hi - 1  # the largest index: one pass per digit of it
        while top:
            q, digit = np.divmod(q, base)
            seq += digit * f
            f /= base
            top //= base
        pts[:, j] = (seq + s) % 1.0
    return pts


def check_certificate(sub: Subsystem, box, n_samples: int, seed: int) -> CertificateReport:
    """Sample the box (shifted Halton, seeded) and test the sandwich and decay conditions.

    The ``n_samples`` points are ``_halton(dimension, n_samples, seed)``
    scaled to the box.  ``seed`` is a non-negative integer, taken through
    ``operator.index`` (so numpy integers too); a negative one raises
    ``ValueError``.

    At each point: alpha(||x-x_u||) <= V(x) <= beta(||x-x_u||) and
    grad V(x) . f(x) <= -k V(x) + 1e-9, with V from ``Subsystem.v_batch``
    and grad V . f from ``Subsystem.lie_batch``: for a callable V, one
    field call and three V calls per point in any dimension.  The points
    are checked in blocks of ``_SAMPLE_BLOCK``, in sample order, each made
    by ``_halton_rows`` with the check's one shift, so the check holds one
    block and the violations found whatever ``n_samples`` is, and its
    report has the bits of one check of all the points at once.  Violation
    lists are ordered by sample index.  A non-finite V, field, bound or derivative at any point raises
    ``NonfiniteState``: no comparison with it could find a violation.  A
    non-finite field raises before V is evaluated off the sample points of
    its block; earlier blocks are checked in full.
    """
    lower, upper = (np.asarray(s, dtype=float) for s in box)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if (seed := operator.index(seed)) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if not np.all(upper > lower):
        raise ValueError("box must have positive volume")
    shift = _shift(sub.dimension, seed)
    report = CertificateReport(label=sub.label, samples_tested=n_samples)
    for start in range(0, n_samples, _SAMPLE_BLOCK):
        pts = _halton_rows(shift, start, min(start + _SAMPLE_BLOCK, n_samples))
        _check_block(sub, pts * (upper - lower) + lower, report)
    return report


def _check_block(sub: Subsystem, pts: np.ndarray, report: CertificateReport) -> None:
    """``check_certificate`` on the points ``pts``: the slack's maximum and violations go to ``report``."""
    diff = pts - sub.equilibrium
    r = np.sqrt(np.vecdot(diff, diff))
    v = sub.v_batch(pts)
    lo, hi = sub.alpha.eval(r), sub.beta.eval(r)
    if sub.affine is not None:
        A, b = sub.affine
        f = pts @ A.T + b
    else:
        f = np.fromiter(map(sub.field, pts), dtype=(float, sub.dimension), count=len(pts))
    # a non-finite field makes every derivative NaN, and V is not evaluated off the samples
    deriv = sub.lie_batch(pts, f) if np.isfinite(f).all() else np.full(len(pts), np.nan)
    slack = deriv + sub.decay_rate * v
    if not all(np.isfinite(a).all() for a in (v, lo, hi, slack)):
        raise NonfiniteState(f"non-finite V, bound or derivative sampled for mode {sub.label!r}")
    # a finite difference carries a relative error, so off the closed form
    # the tolerance scales with the derivative magnitude
    tol = DECAY_TOL if sub.quadratic else DECAY_TOL * (1.0 + np.abs(deriv))
    report.max_decay_slack = max(report.max_decay_slack, float(slack.max()))
    for i in np.nonzero((v < lo - MEMBERSHIP_TOL) | (v > hi + MEMBERSHIP_TOL))[0]:
        report.sandwich_violations.append((pts[i].copy(), float(v[i]), float(lo[i]), float(hi[i])))
    for i in np.nonzero(slack > tol)[0]:
        report.decay_violations.append((pts[i].copy(), float(deriv[i]), -sub.decay_rate * float(v[i])))


def region_boundary_points(sub: Subsystem, eps: float, count: int) -> np.ndarray:
    """``count`` points on the level set V_u(x) = eps, as an array of rows.

    Quadratic V in 2-D: equally spaced angles on the circle of radius
    sqrt(eps); quadratic V in other dimensions: deterministic directions on
    the sphere.  Non-quadratic V is supported in 2-D only, by radial
    bisection per angle, which stops once the bracket cannot shrink; a NaN
    V on a ray, or a V that stays below eps until the radius overflows,
    raises ``NonfiniteState`` (a V of +inf counts as at least eps).
    """
    _check_eps(eps)
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
        ray = f"for mode {sub.label!r} on the ray at angle {float(th)!r}"

        def below(r: float) -> bool:
            v = float(sub.lyapunov(sub.equilibrium + r * d))
            if math.isnan(v):
                raise NonfiniteState(f"V is NaN {ray}")
            return v < eps

        hi = sub.alpha.inverse(eps) * 2.0 + 1.0
        while below(hi):
            hi *= 2.0
            if hi == math.inf:
                raise NonfiniteState(f"V stays below eps = {eps!r} {ray}")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break  # lo and hi are adjacent floats: neither can move again
            if below(mid):
                lo = mid
            else:
                hi = mid
        pts[i] = sub.equilibrium + 0.5 * (lo + hi) * d
    return pts
