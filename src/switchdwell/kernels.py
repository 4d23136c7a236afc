"""RK4 kernels for affine subsystems.

One classical RK4 step of size h on ``x' = A x + b`` is exactly the affine map
``x -> M x + c`` with ``M = I + hA P``, ``c = h P b`` and
``P = I + hA/2 + (hA)^2/6 + (hA)^3/24`` (the stability-polynomial identity,
Hairer, Norsett & Wanner, *Solving ODEs I*).  ``_rk4_map`` builds it as one
homogeneous ``(n+1) x (n+1)`` matrix G, so k steps are the matrix power G^k.

A switched trajectory runs the same few modes at the same step over and over,
so each ``(A, b, h)``, keyed by content, gets one cache entry holding:

* the squarings ``G, G^2, G^4, ...``, extended only when a longer interval
  needs another one;
* once a path asks for it, the seed block: the transposes of
  ``G^0 ... G^(B-1)`` side by side, built by doubling over a stack.

``affine_rk4_path`` fills its first B rows with one product of the start
state and the seed block, doubles from ``k = B`` with the squarings
``G^B, G^2B, ...``, and takes the partial step last, so an interval shorter
than B steps costs one product plus the partial step.  B is
``SEED_BLOCK_STEPS``, halved for large n until one block fits in
``SEED_BLOCK_BYTES`` (B = 256 up to n = 7).

At most ``POWER_CACHE_SIZE`` entries are kept (least recently used go first);
states are never cached.  Seed blocks add at most ``POWER_CACHE_SIZE *
SEED_BLOCK_BYTES`` = 32 MiB; each squaring adds ``8 (n+1)^2`` bytes, and an
entry holds at most ``max(log2 B, bit_length(n_full))`` of them.  A cached
path is bit-identical to the same algorithm with every map built afresh.  Its
rows differ from plain doubling ``G, G^2, G^4, ...`` from row 1 (the rule
before seed blocks) by rounding alone, about 1e-15.
"""

import threading
from functools import lru_cache

import numpy as np

__all__ = ["affine_rk4_path", "affine_rk4_batch_final"]

POWER_CACHE_SIZE = 256
SEED_BLOCK_STEPS = 256
SEED_BLOCK_BYTES = 128 * 1024
_EXTENDING = threading.Lock()  # two threads must not both grow one entry


def _rk4_map(A, b, h):
    """Homogeneous matrix [[I + hA P, h P b], [0, 1]] of one RK4 step of size h."""
    n = A.shape[0]
    hA = h * A
    eye = np.eye(n)
    P = eye + hA @ (eye / 2.0 + hA @ (eye / 6.0 + hA / 24.0))
    G = np.eye(n + 1)
    G[:n, :n] += hA @ P
    G[:n, n] = h * (P @ b)
    return G


def _seed_steps(n1):
    """B for maps of size n1: a power of two, so that G^B is a cached squaring."""
    fit = SEED_BLOCK_BYTES // (8 * n1 * n1)
    return min(SEED_BLOCK_STEPS, 1 << max(fit.bit_length() - 1, 0))


def _seed_block(powers, steps):
    """``[(G^0)^T ... (G^(steps-1))^T]`` side by side, from the squarings ``powers``."""
    n1 = powers[0].shape[0]
    stack = np.empty((steps, n1, n1))
    stack[0] = np.eye(n1)
    k = 1
    for Gk in powers[: steps.bit_length() - 1]:
        stack[k : 2 * k] = stack[:k] @ Gk
        k *= 2
    block = stack.transpose(2, 0, 1).reshape(n1, steps * n1)
    block.setflags(write=False)
    return block


class _StepMap:
    """Cache entry of one (A, b, h): squarings ``[G, G^2, G^4, ...]`` and the seed block."""

    __slots__ = ("powers", "block")

    def __init__(self, G):
        self.powers = [G]
        self.block = None


@lru_cache(maxsize=POWER_CACHE_SIZE)
def _cached_powers(A_bytes: bytes, b_bytes: bytes, n: int, h: float) -> _StepMap:
    G = _rk4_map(np.frombuffer(A_bytes).reshape(n, n), np.frombuffer(b_bytes), h)
    G.setflags(write=False)
    return _StepMap(G)


def _step_map(A, b, h, count, seed=False):
    """Cache entry of the map of step h: ``count`` squarings, and the seed block if ``seed``."""
    A = np.ascontiguousarray(A, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    entry = _cached_powers(A.tobytes(), b.tobytes(), A.shape[0], float(h))
    if len(entry.powers) < count or (seed and entry.block is None):
        with _EXTENDING:
            if seed and entry.block is None:
                steps = _seed_steps(A.shape[0] + 1)
                _extend(entry.powers, steps.bit_length() - 1)  # G, G^2, ..., G^(B/2)
                entry.block = _seed_block(entry.powers, steps)
            _extend(entry.powers, count)
    return entry


def _extend(powers, count):
    """Append squarings until ``powers`` holds ``count``; the caller holds ``_EXTENDING``."""
    while len(powers) < count:
        G = powers[-1] @ powers[-1]
        G.setflags(write=False)
        powers.append(G)


def _matrix_power(powers, n_full):
    """G^n_full from ``powers``, multiplied in ``np.linalg.matrix_power``'s order."""
    if n_full == 0:
        return np.eye(powers[0].shape[0])
    if n_full == 3:  # its shortcut (G G) G, not the bit loop's G (G G)
        return powers[1] @ powers[0]
    result = None
    for i, G in enumerate(powers[: n_full.bit_length()]):
        if n_full >> i & 1:
            result = G if result is None else result @ G
    return result


def affine_rk4_path(A, b, x0, h, n_full, h_last):
    """States of x' = Ax + b from x0: n_full steps of h, then one of h_last (if > 0)."""
    n = x0.shape[0]
    X = np.empty((n_full + 1 + (h_last > 0.0), n + 1))
    X[0, :n] = x0
    X[0, n] = 1.0
    if n_full > 0:
        doublings = int(n_full).bit_length()
        entry = _step_map(A, b, h, doublings, seed=True)
        steps = entry.block.shape[1] // (n + 1)
        # rows 1..k-1 from the seed block; then rows [0, k) mapped by G^k give k..2k-1
        k = min(steps, n_full + 1)
        X[1:k] = (X[0] @ entry.block[:, n + 1 : k * (n + 1)]).reshape(k - 1, n + 1)
        for Gk in entry.powers[steps.bit_length() - 1 : doublings]:
            m = min(k, n_full + 1 - k)
            X[k : k + m] = X[:m] @ Gk.T
            k += m
    if h_last > 0.0:
        X[-1] = X[n_full] @ _step_map(A, b, h_last, 1).powers[0].T
    return X[:, :n]


def affine_rk4_batch_final(A, b, X0, h, n_full, h_last):
    """Final states for a batch of initial conditions X0 (rows)."""
    n = X0.shape[1]
    G = _matrix_power(_step_map(A, b, h, int(n_full).bit_length()).powers, int(n_full))
    if h_last > 0.0:
        G = _step_map(A, b, h_last, 1).powers[0] @ G
    return X0 @ G[:n, :n].T + G[:n, n]
