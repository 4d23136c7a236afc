"""RK4 kernels for affine subsystems.

One classical RK4 step of size h on ``x' = A x + b`` is exactly the affine map
``x -> M x + c`` with ``M = I + hA P``, ``c = h P b`` and
``P = I + hA/2 + (hA)^2/6 + (hA)^3/24`` (the stability-polynomial identity,
Hairer, Norsett & Wanner, *Solving ODEs I*).  ``_rk4_map`` builds it as one
homogeneous ``(n+1) x (n+1)`` matrix G, so k steps are the matrix power G^k.

A switched trajectory runs the same few modes at the same step over and over,
so two ``lru_cache`` functions of ``(A, b, h)``, keyed by the bytes of A and b,
the dimension n and h, keep what each step map needs, as read-only arrays:

* ``_squaring(..., i)``, the power ``G^(2^i)``: i = 0 is ``_rk4_map`` and
  i > 0 squares i - 1.  Callers ask for i = 0, 1, ... in order, so each
  squaring finds the one before it cached;
* ``_seed_block``, the top n rows of ``G^1 ... G^B``, transposed and laid
  side by side, an ``(n+1) x B n`` matrix.  The last row of every G^j is the
  constant ``(0 ... 0 1)``, so it is left out: a product of ``[x_k, 1]``
  with the block gives the states ``x_(k+1) ... x_(k+B)`` and no constant
  column.  It is built by doubling over a stack of the G^j, from the
  squarings ``G, G^2, ..., G^(B/2)``.

``affine_rk4_path`` fills its rows by chained one-row products: rows
``1 ... B`` from row 0, rows ``B+1 ... 2B`` from row B, and so on, then takes
the partial step last, so an interval shorter than B steps costs one product
plus the partial step.  The fill is ``_fill(X, block, last)``, which writes
into a caller's rows in place from two operands that ``_operands`` looks up:
the seed block, only when there is a full step, and the top n rows of the
map of the partial step, only when there is one.  ``_fill`` is stateless,
with a scratch row of its own per call, so threads may share the operands,
which it never writes.  ``sim``'s plans keep each interval's operands, so a
simulation from a cached plan searches no cache at all.
``affine_rk4_path`` is the kernel's public entry for one path; nothing in the
package calls it.  B is ``SEED_BLOCK_STEPS``, halved for large n until one
block fits in ``SEED_BLOCK_BYTES`` (B = 256 up to n = 7).
``affine_rk4_batch_final`` needs only one power per batch and multiplies the
squarings.

Each cache keeps at most ``POWER_CACHE_SIZE`` entries (least recently used go
first); states are never cached.  Seed blocks take at most
``POWER_CACHE_SIZE * SEED_BLOCK_BYTES`` = 32 MiB, and squarings at most
``POWER_CACHE_SIZE`` maps of ``8 (n+1)^2`` bytes.  A batch that needs more
squarings than that recomputes the evicted ones on its next call.  The plans
that ``sim`` keeps can hold maps these caches have evicted; ``sim`` states
that bound.

Rounding contract: a cached path is bit-identical to the same algorithm with
every map built afresh.  Row ``kB + j`` is ``G^j`` applied to row ``kB`` in one
matrix-vector product, so its rounding differs from stepping one G at a time
by about 1e-15 over a few thousand steps.  These products go through BLAS,
whose kernel (``OPENBLAS_CORETYPE``) can change their last bits; V and W
(``core._sq_dist``) do not.
"""

from functools import lru_cache

import numpy as np

__all__ = ["affine_rk4_path", "affine_rk4_batch_final"]

POWER_CACHE_SIZE = 256
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


@lru_cache(maxsize=POWER_CACHE_SIZE)
def _squaring(A_bytes: bytes, b_bytes: bytes, n: int, h: float, i: int) -> np.ndarray:
    """G^(2^i) of the step map of size h, read-only: i = 0 is ``_rk4_map``, i > 0 squares i - 1."""
    if i == 0:
        G = _rk4_map(np.frombuffer(A_bytes).reshape(n, n), np.frombuffer(b_bytes), h)
    else:
        G = _squaring(A_bytes, b_bytes, n, h, i - 1)
        G = G @ G
    G.setflags(write=False)
    return G


@lru_cache(maxsize=POWER_CACHE_SIZE)
def _seed_block(A_bytes: bytes, b_bytes: bytes, n: int, h: float) -> np.ndarray:
    """Top rows of ``G^1 ... G^B``, transposed side by side, read-only; B is ``_seed_steps(n)``."""
    steps = _seed_steps(n)
    stack = np.empty((steps, n + 1, n + 1))
    stack[0] = _squaring(A_bytes, b_bytes, n, h, 0)
    k = 1
    for i in range(steps.bit_length() - 1):  # G^(k+1) ... G^(2k) from G^1 ... G^k
        stack[k : 2 * k] = stack[:k] @ _squaring(A_bytes, b_bytes, n, h, i)
        k *= 2
    block = stack[:, :n].transpose(2, 0, 1).reshape(n + 1, steps * n)
    block.setflags(write=False)
    return block


def _mode_key(A, b):
    """Cache key of x' = Ax + b without the step: the bytes of A and b, and n."""
    A = np.ascontiguousarray(A, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return A.tobytes(), b.tobytes(), A.shape[0]


def _matrix_power(key, h, n_full):
    """G^n_full of the step map of size h, multiplied in ``np.linalg.matrix_power``'s order."""
    if n_full == 0:
        return np.eye(key[2] + 1)
    if n_full == 3:  # its shortcut (G G) G, not the bit loop's G (G G)
        return _squaring(*key, h, 1) @ _squaring(*key, h, 0)
    result = None
    for i in range(n_full.bit_length()):  # in order, so each squaring finds the last cached
        G = _squaring(*key, h, i)
        if n_full >> i & 1:
            result = G if result is None else result @ G
    return result


def _operands(key, h, n_full, h_last):
    """``_fill``'s (block, last) for n_full steps of h, then one of h_last (if > 0).

    block is the seed block when n_full > 0 and last the top n rows of the
    map of h_last when h_last > 0; each is None otherwise.
    """
    block = _seed_block(*key, float(h)) if n_full > 0 else None
    last = _squaring(*key, float(h_last), 0)[: key[2]] if h_last > 0.0 else None
    return block, last


def _fill(X, block, last):
    """Rows ``1 ...`` of X from ``X[0]``, in place: full steps by ``block``, then ``last`` if given.

    X is C-contiguous (a row range of a C-contiguous array is) and has one
    row per full step after row 0, and one more for the partial step.
    """
    n = X.shape[1]
    n_full = len(X) - 1 - (last is not None)
    z = np.empty(n + 1)  # [x_k, 1], the homogeneous row a product starts from
    z[n] = 1.0
    if n_full > 0:
        steps = block.shape[1] // n
        flat = X.reshape(-1)
        for k in range(0, n_full, steps):
            m = min(steps, n_full - k)
            z[:n] = X[k]
            np.matmul(z, block[:, : m * n], out=flat[(k + 1) * n : (k + 1 + m) * n])
    if last is not None:
        z[:n] = X[n_full]
        np.matmul(last, z, out=X[-1])


def affine_rk4_path(A, b, x0, h, n_full, h_last):
    """States of x' = Ax + b from x0: n_full steps of h, then one of h_last (if > 0)."""
    X = np.empty((n_full + 1 + (h_last > 0.0), x0.shape[0]))
    X[0] = x0
    _fill(X, *_operands(_mode_key(A, b), h, n_full, h_last))
    return X


def affine_rk4_batch_final(A, b, X0, h, n_full, h_last):
    """Final states for a batch of initial conditions X0 (rows)."""
    n = X0.shape[1]
    key = _mode_key(A, b)
    G = _matrix_power(key, float(h), int(n_full))
    if h_last > 0.0:
        G = _squaring(*key, float(h_last), 0) @ G
    return X0 @ G[:n, :n].T + G[:n, n]
