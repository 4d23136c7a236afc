"""RK4 kernels for affine subsystems: pure functions that keep nothing between calls.

One classical RK4 step of size h on ``x' = A x + b`` is exactly the affine map
``x -> M x + c`` with ``M = I + hA P``, ``c = h P b`` and
``P = I + hA/2 + (hA)^2/6 + (hA)^3/24`` (the stability-polynomial identity,
Hairer, Norsett & Wanner, *Solving ODEs I*).  ``_rk4_map`` builds it as one
homogeneous ``(n+1) x (n+1)`` matrix G, so k steps are the matrix power G^k.

The states of an affine interval come from chained one-row products with
two read-only operands, which ``sim``'s plans build once and list in the
order they run: rows ``1 ... B`` from row 0 by one product of ``[x_0, 1]``
with the seed block (``_seed_block``), rows ``B+1 ... 2B`` from row B, and so
on, then the partial step by the top n rows of its map (``_last_rows``), so
an interval shorter than B steps costs one product plus the partial step.
The seed block is the top n rows of ``G^1 ... G^B``, transposed and laid
side by side, an ``(n+1) x B n`` matrix: the last row of every G^j is the
constant ``(0 ... 0 1)``, so it is left out, and a product of ``[x_k, 1]``
with the block gives the states ``x_(k+1) ... x_(k+B)``; a last chunk of
m < B steps uses its first ``m n`` columns.  It is built by doubling over a
stack of the G^j with the squarings ``G, G^2, ..., G^(B/2)``, about 0.1 ms
at n = 2.  B is ``SEED_BLOCK_STEPS``, halved for large n until one block
fits in ``SEED_BLOCK_BYTES`` (B = 256 up to n = 7).  Plans are the only
place where step maps are kept, and ``sim`` states that bound.

``_final_map`` is the map of a whole interval, one power of the step map:
``np.linalg.matrix_power`` of G, times the partial step's map.
``_map_rows`` applies it to a batch of rows.  ``sim.tube_sample`` keeps
these maps in its plans of tube grids.

Rounding contract: row ``kB + j`` of an interval is ``G^j`` applied to row
``kB`` in one matrix-vector product, so its rounding differs from stepping
one G at a time by about 1e-15 over a few thousand steps.  These products go through BLAS,
whose kernel (``OPENBLAS_CORETYPE``) can change their last bits; V and W
(``core._sq_dist``) do not.
"""

import numpy as np

SEED_BLOCK_STEPS = 256
SEED_BLOCK_BYTES = 128 * 1024


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


def _seed_steps(n):
    """B for states of dimension n: a power of two that keeps the block in ``SEED_BLOCK_BYTES``."""
    fit = SEED_BLOCK_BYTES // (8 * (n + 1) * n)
    return min(SEED_BLOCK_STEPS, 1 << max(fit.bit_length() - 1, 0))


def _seed_block(A, b, h):
    """Top rows of ``G^1 ... G^B``, transposed side by side, read-only; B is ``_seed_steps(n)``."""
    n = A.shape[0]
    steps = _seed_steps(n)
    stack = np.empty((steps, n + 1, n + 1))
    stack[0] = Gk = _rk4_map(A, b, h)
    k = 1
    while k < steps:  # G^(k+1) ... G^(2k) from G^1 ... G^k and Gk = G^k
        stack[k : 2 * k] = stack[:k] @ Gk
        Gk = Gk @ Gk
        k *= 2
    block = stack[:, :n].transpose(2, 0, 1).reshape(n + 1, steps * n)
    block.setflags(write=False)
    return block


def _last_rows(A, b, h):
    """Top n rows of the map of one step of h, read-only: the operand of a partial step."""
    last = _rk4_map(A, b, h)[: A.shape[0]]
    last.setflags(write=False)
    return last


def _final_map(A, b, h, n_full, h_last):
    """Homogeneous map of n_full steps of h, then one of h_last (if > 0), read-only."""
    G = np.linalg.matrix_power(_rk4_map(A, b, h), n_full)
    if h_last > 0.0:
        G = _rk4_map(A, b, h_last) @ G
    G.setflags(write=False)
    return G


def _map_rows(G, X0):
    """The rows of X0 mapped by the homogeneous map G."""
    n = X0.shape[1]
    return X0 @ G[:n, :n].T + G[:n, n]
