"""RK4 kernels for affine subsystems.

One classical RK4 step of size h on ``x' = A x + b`` is exactly the affine map
``x -> M x + c`` with ``M = I + hA P``, ``c = h P b`` and
``P = I + hA/2 + (hA)^2/6 + (hA)^3/24`` (the stability-polynomial identity,
Hairer, Norsett & Wanner, *Solving ODEs I*).  ``_rk4_map`` builds it as one
homogeneous ``(n+1) x (n+1)`` matrix, so n steps are a matrix power and a
whole path is filled by repeated doubling instead of a per-step loop.
"""

import numpy as np

__all__ = ["affine_rk4_path", "affine_rk4_batch_final"]


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


def affine_rk4_path(A, b, x0, h, n_full, h_last):
    """States of x' = Ax + b from x0: n_full steps of h, then one of h_last (if > 0)."""
    n = x0.shape[0]
    X = np.empty((n_full + 1 + (h_last > 0.0), n + 1))
    X[0, :n] = x0
    X[0, n] = 1.0
    # rows [0, k) hold steps 0..k-1; mapping them by G^k gives steps k..2k-1
    Gk = _rk4_map(A, b, h)
    k = 1
    while k <= n_full:
        m = min(k, n_full + 1 - k)
        X[k : k + m] = X[:m] @ Gk.T
        k += m
        if k <= n_full:
            Gk = Gk @ Gk
    if h_last > 0.0:
        X[-1] = X[n_full] @ _rk4_map(A, b, h_last).T
    return X[:, :n]


def affine_rk4_batch_final(A, b, X0, h, n_full, h_last):
    """Final states for a batch of initial conditions X0 (rows)."""
    n = X0.shape[1]
    G = np.linalg.matrix_power(_rk4_map(A, b, h), n_full)
    if h_last > 0.0:
        G = _rk4_map(A, b, h_last) @ G
    return X0 @ G[:n, :n].T + G[:n, n]
