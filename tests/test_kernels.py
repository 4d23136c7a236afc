import numpy as np
import pytest
from scipy.linalg import expm

from switchdwell import kernels
from switchdwell.sim import _generic_rk4_path

A = np.array([[-1.0, -1.0], [1.0, -1.0]])
B = np.array([1.0, 1.0])


def _generic(A, b, x0, h, n_full, h_last):
    """Step-by-step RK4 on the same affine field: the reference for the kernels."""
    return _generic_rk4_path(lambda x: A @ x + b, x0, h, n_full, h_last)


def _contracting(n, seed):
    rng = np.random.default_rng(seed)
    skew = rng.normal(size=(n, n))
    A = -2.0 * np.eye(n) + (skew - skew.T) + 0.3 * rng.normal(size=(n, n))
    assert np.linalg.eigvals(A).real.max() < 0
    return A, rng.normal(size=n), rng.normal(size=n)


def test_path_matches_generic_rk4_over_100k_steps():
    x0 = np.array([2.0, -3.0])
    path = kernels.affine_rk4_path(A, B, x0, 1e-3, 100_000, 4e-4)
    ref = _generic(A, B, x0, 1e-3, 100_000, 4e-4)
    assert path.shape == ref.shape == (100_002, 2)
    np.testing.assert_allclose(path, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_path_matches_generic_rk4_in_higher_dimensions(n):
    A_n, b, x0 = _contracting(n, seed=n)
    path = kernels.affine_rk4_path(A_n, b, x0, 1e-3, 5_000, 3e-4)
    ref = _generic(A_n, b, x0, 1e-3, 5_000, 3e-4)
    np.testing.assert_allclose(path, ref, rtol=0, atol=1e-12)


def test_path_matches_matrix_exponential():
    x0 = np.array([2.0, -3.0])
    xf = -np.linalg.solve(A, B)
    path = kernels.affine_rk4_path(A, B, x0, 1e-3, 20_000, 0.0)
    for k in range(0, 20_001, 1_000):
        exact = xf + expm(A * (k * 1e-3)) @ (x0 - xf)
        np.testing.assert_allclose(path[k], exact, rtol=0, atol=1e-12)


def test_partial_step_only():
    x0 = np.array([2.0, -3.0])
    path = kernels.affine_rk4_path(A, B, x0, 1e-3, 0, 4e-4)
    assert path.shape == (2, 2)
    np.testing.assert_allclose(path, _generic(A, B, x0, 1e-3, 0, 4e-4), rtol=0, atol=1e-15)
    batch = kernels.affine_rk4_batch_final(A, B, x0[None, :], 1e-3, 0, 4e-4)
    np.testing.assert_allclose(batch[0], path[-1], rtol=0, atol=1e-15)


def test_no_trailing_partial_step():
    x0 = np.array([1.0, 0.0])
    out = kernels.affine_rk4_path(A, B, x0, 1e-2, 100, 0.0)
    assert out.shape == (101, 2)
    np.testing.assert_allclose(out, _generic(A, B, x0, 1e-2, 100, 0.0), rtol=0, atol=1e-13)


def test_batch_final_matches_per_path_finals():
    for n in (2, 4, 6):
        A_n, b, _ = _contracting(n, seed=10 + n)
        X0 = np.random.default_rng(5).normal(size=(10, n))
        batch = kernels.affine_rk4_batch_final(A_n, b, X0, 1e-3, 300, 2e-4)
        assert batch.shape == X0.shape
        for i, x0 in enumerate(X0):
            path = kernels.affine_rk4_path(A_n, b, x0, 1e-3, 300, 2e-4)
            # the two kernels multiply the step maps in different orders, so
            # components near zero agree in absolute, not relative, terms
            np.testing.assert_allclose(batch[i], path[-1], rtol=0, atol=1e-14)
