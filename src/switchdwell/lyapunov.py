"""Lyapunov certificate evaluation, sampled validation, and trapping regions.

The trapping region of mode u at level eps is N^eps_u = {x : V_u(x) <= eps}.
V_u and its derivative along the field come from ``Subsystem.v_batch`` and
``Subsystem.lie_batch``.
Certificate checks are sample-based: they can falsify the sandwich and decay
conditions on a box but never prove them; callers should treat a clean report
as "not falsified on the sampled set".  The samples are an Owen-scrambled
Halton sequence (A. B. Owen, "A randomized Halton algorithm in R",
arXiv:1706.02808, 2017), the same points as ``scipy.stats.qmc.Halton`` with
``scramble=True``, drawn by ``_halton`` without importing ``scipy.stats``.
Their digit permutations come from ``_PCG64``, a pure-Python copy of
``np.random.default_rng``'s generator and ``shuffle``, so a run that
certifies does not import ``numpy.random`` either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy  # noqa: F401  cheap; perfbench/run.py reads its version after import

from .core import Label, Subsystem, _check_eps
from .errors import NonfiniteState, UnsupportedDimension

MEMBERSHIP_TOL = 1e-9
DECAY_TOL = 1e-9
HALTON_CACHE_SIZE = 1


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


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _hasher(h: int, mult: int):
    """SeedSequence's 32-bit hash: xor with a running constant, which is then stepped by ``mult``."""

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16

    return hashmix


def _seed_words(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(8)``: eight 32-bit words.

    The int's 32-bit words, least significant first, are hashed into a pool
    of four words, the pool is mixed, and any words past the fourth are
    mixed in; the output hashes the pool words in turn.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    output = _hasher(0x8B51F9DD, 0x58F38DED)
    return [output(pool[i % 4]) for i in range(8)]


class _PCG64:
    """``np.random.default_rng(seed)``'s stream and ``shuffle``, bit for bit, in pure Python.

    PCG64 (M. E. O'Neill, HMC-CS-2014-0905, 2014): a 128-bit LCG with the
    XSL-RR output, seeded from ``_seed_words`` as numpy seeds it.  A 32-bit
    draw is the low half of a fresh 64-bit output, and the next one is its
    high half.  ``shuffle`` is ``Generator.shuffle`` on a 1-D array:
    Fisher-Yates from the last item, each index drawn in ``[0, i]`` by
    masked rejection on 32-bit draws, so lists of up to ``2**32`` items.
    Drawing here keeps ``numpy.random`` out of a run that only certifies.
    """

    MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        w = _seed_words(seed)
        state, seq = (w[k] << 64 | w[k + 1] << 96 | w[k + 2] | w[k + 3] << 32 for k in (0, 4))
        self.inc = seq << 1 & _M128 | 1
        self.state = ((self.inc + state) * self.MULT + self.inc) & _M128
        self.high = None  # the unread high half of the last 64-bit output

    def next32(self) -> int:
        if self.high is not None:
            out, self.high = self.high, None
            return out
        s = self.state = (self.state * self.MULT + self.inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        self.high = x >> 32
        return x & _M32

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self.next32() & mask) > i:
                pass
            items[i], items[j] = items[j], items[i]


@lru_cache(maxsize=HALTON_CACHE_SIZE)
def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """First ``n`` points of the scrambled Halton sequence in [0, 1)^d, shape (n, d), read-only.

    Owen's random digit permutations: dimension j uses base p_j (the j-th
    prime) and one shuffled ``arange(p_j)`` per digit, for every digit that
    a double can resolve.  Seeding, shuffle order and the order of the
    floating-point sums follow ``scipy.stats.qmc.Halton(d, scramble=True,
    seed=seed).random(n)``, so the points are bit-identical to scipy's; the
    shuffles are ``_PCG64``'s, bit-identical to ``np.random.default_rng(seed)``'s.
    The last point set is kept, by ``(d, n, seed)``: the modes of one
    system share a dimension and a seed, so certifying them in turn draws
    the set once, and a run that changes seeds holds one set, not many.
    ``seed`` is a non-negative int.
    """
    rng = _PCG64(seed)
    pts = np.empty((n, d))
    for j, base in enumerate(_primes(d)):
        perms = [list(range(base)) for _ in range(math.ceil(54 / math.log2(base)) - 1)]
        for perm in perms:
            rng.shuffle(perm)
        perms = np.array(perms)
        q = np.arange(n)
        top = n - 1  # the largest index; its digits run out last
        seq = np.zeros(n)
        b2r = 1.0 / base
        for perm in perms:
            if top > 0:
                q, digit = np.divmod(q, base)
                seq += perm[digit] * b2r
                top //= base
            else:  # every remaining digit is 0
                seq += perm[0] * b2r
            b2r /= base
        pts[:, j] = seq
    pts.setflags(write=False)
    return pts


def check_certificate(sub: Subsystem, box, n_samples: int, seed: int) -> CertificateReport:
    """Sample the box (scrambled Halton, seeded) and test the sandwich and decay conditions.

    The ``n_samples`` points are ``_halton(dimension, n_samples, seed)``
    scaled to the box: Owen-scrambled Halton (Owen 2017), the same points
    as ``scipy.stats.qmc.Halton(scramble=True)`` under ``qmc.scale``.

    At each point: alpha(||x-x_u||) <= V(x) <= beta(||x-x_u||) and
    grad V(x) . f(x) <= -k V(x) + 1e-9, with V from ``Subsystem.v_batch``
    and grad V . f from ``Subsystem.lie_batch``: for a callable V, one
    field call and three V calls per point in any dimension.  Violation
    lists are ordered by sample index.  A non-finite V, field, bound or
    derivative at any point raises ``NonfiniteState``: no comparison with it
    could find a violation.  A non-finite field raises before V is
    evaluated off the sample points.
    """
    lower, upper = (np.asarray(s, dtype=float) for s in box)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not np.all(upper > lower):
        raise ValueError("box must have positive volume")
    pts = _halton(sub.dimension, n_samples, seed) * (upper - lower) + lower

    diff = pts - sub.equilibrium
    r = np.sqrt(np.vecdot(diff, diff))
    v = sub.v_batch(pts)
    lo, hi = sub.alpha.eval(r), sub.beta.eval(r)
    if sub.affine is not None:
        A, b = sub.affine
        f = pts @ A.T + b
    else:
        f = np.fromiter(map(sub.field, pts), dtype=(float, sub.dimension), count=n_samples)
    # a non-finite field makes every derivative NaN, and V is not evaluated off the samples
    deriv = sub.lie_batch(pts, f) if np.isfinite(f).all() else np.full(n_samples, np.nan)
    slack = deriv + sub.decay_rate * v
    if not all(np.isfinite(a).all() for a in (v, lo, hi, slack)):
        raise NonfiniteState(f"non-finite V, bound or derivative sampled for mode {sub.label!r}")
    # a finite difference carries a relative error, so off the closed form
    # the tolerance scales with the derivative magnitude
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
