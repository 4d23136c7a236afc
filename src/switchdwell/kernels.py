"""RK4 kernels for affine subsystems.

One classical RK4 step of size h on ``x' = A x + b`` is exactly the affine map
``x -> M x + c`` with ``M = I + hA P``, ``c = h P b`` and
``P = I + hA/2 + (hA)^2/6 + (hA)^3/24`` (the stability-polynomial identity,
Hairer, Norsett & Wanner, *Solving ODEs I*).  ``_rk4_map`` builds it as one
homogeneous ``(n+1) x (n+1)`` matrix, so n steps are a matrix power and a
whole path is filled by repeated doubling instead of a per-step loop.

A switched trajectory runs the same few modes at the same step over and over,
so the squarings ``G, G^2, G^4, ...`` of each step map are kept, keyed by the
content of ``(A, b, h)``, and extended only when a longer interval needs
another one.  At most ``POWER_CACHE_SIZE`` keys are kept (least recently used
go first); states are never cached.  Every product is the one the uncached
code would form, in the same order, so results are bit-identical.
"""

import threading
from functools import lru_cache

import numpy as np

__all__ = ["affine_rk4_path", "affine_rk4_batch_final"]

POWER_CACHE_SIZE = 256
_EXTENDING = threading.Lock()  # two threads must not both append the next power


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


@lru_cache(maxsize=POWER_CACHE_SIZE)
def _cached_powers(A_bytes: bytes, b_bytes: bytes, n: int, h: float) -> list:
    G = _rk4_map(np.frombuffer(A_bytes).reshape(n, n), np.frombuffer(b_bytes), h)
    G.setflags(write=False)
    return [G]


def _powers(A, b, h, count):
    """``[G, G^2, G^4, ...]`` of the step map of size h, at least ``count`` long."""
    A = np.ascontiguousarray(A, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    powers = _cached_powers(A.tobytes(), b.tobytes(), A.shape[0], float(h))
    if len(powers) < count:
        with _EXTENDING:
            while len(powers) < count:
                G = powers[-1] @ powers[-1]
                G.setflags(write=False)
                powers.append(G)
    return powers


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
    # rows [0, k) hold steps 0..k-1; mapping them by G^k gives steps k..2k-1
    doublings = int(n_full).bit_length()
    k = 1
    for Gk in _powers(A, b, h, doublings)[:doublings]:
        m = min(k, n_full + 1 - k)
        X[k : k + m] = X[:m] @ Gk.T
        k += m
    if h_last > 0.0:
        X[-1] = X[n_full] @ _powers(A, b, h_last, 1)[0].T
    return X[:, :n]


def affine_rk4_batch_final(A, b, X0, h, n_full, h_last):
    """Final states for a batch of initial conditions X0 (rows)."""
    n = X0.shape[1]
    G = _matrix_power(_powers(A, b, h, int(n_full).bit_length()), int(n_full))
    if h_last > 0.0:
        G = _powers(A, b, h_last, 1)[0] @ G
    return X0 @ G[:n, :n].T + G[:n, n]
