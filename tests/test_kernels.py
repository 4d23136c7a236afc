import numpy as np
import pytest
from scipy.linalg import expm

from switchdwell import integrate, kernels, make_affine_subsystem, simulate_switched
from switchdwell.core import ClassKFn, Subsystem, SwitchedSystem, SwitchingSignal, signal_from_dwell
from switchdwell.errors import NonfiniteState
from switchdwell.prebuilt import demo_system
from switchdwell.sim import _grid, _signal_plan

A = np.array([[-1.0, -1.0], [1.0, -1.0]])
B = np.array([1.0, 1.0])


def _generic_rk4_path(f, x0, h, n_full, h_last):
    """Classical RK4 of ``x' = f(x)`` written out step by step: n_full steps of h, then h_last."""
    steps = [h] * n_full + ([h_last] if h_last > 0.0 else [])
    out = np.empty((len(steps) + 1, x0.shape[0]))
    out[0] = x = x0
    for i, hi in enumerate(steps):
        k1 = np.asarray(f(x), dtype=float)
        k2 = np.asarray(f(x + 0.5 * hi * k1), dtype=float)
        k3 = np.asarray(f(x + 0.5 * hi * k2), dtype=float)
        k4 = np.asarray(f(x + hi * k3), dtype=float)
        x = x + (hi / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = x
    return out


def _generic(A, b, x0, h, n_full, h_last):
    """Step-by-step RK4 on the same affine field: the reference for the kernels."""
    return _generic_rk4_path(lambda x: A @ x + b, x0, h, n_full, h_last)


def _contracting(n, seed):
    rng = np.random.default_rng(seed)
    skew = rng.normal(size=(n, n))
    A = -2.0 * np.eye(n) + (skew - skew.T) + 0.3 * rng.normal(size=(n, n))
    assert np.linalg.eigvals(A).real.max() < 0
    return A, rng.normal(size=n), rng.normal(size=n)


def _chained_fill(X, block, last):
    """Rows ``1 ...`` of X from ``X[0]``, in place, one interval at a time: the reference fill.

    This is the fill as one call per interval: full steps by ``block`` in
    chunks of at most B, then ``last`` if given, through the same products
    in the same order as the plan's list of them.  X has one row per full
    step after row 0, and one more for the partial step.
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


def _chained_path(A, b, x0, h, n_full, h_last):
    """``_chained_fill`` on fresh operands: the rows of one affine interval."""
    X = np.empty((n_full + 1 + (h_last > 0.0), x0.shape[0]))
    X[0] = x0
    block = kernels._seed_block(A, b, h) if n_full > 0 else None
    last = kernels._last_rows(A, b, h_last) if h_last > 0.0 else None
    _chained_fill(X, block, last)
    return X


def _planned_path(A, b, x0, h, n_full, h_last):
    """``integrate``'s states over n_full steps of h and then about h_last, and that grid."""
    t1 = n_full * h + h_last
    grid = _grid(0.0, t1, h)
    assert grid[0] == n_full and (grid[1] > 0.0) == (h_last > 0.0)
    return integrate(make_affine_subsystem(A, b, "a"), x0, 0.0, t1, h).states, grid


def _integrated(A, b, x0, t1, h):
    """``integrate``'s states over [0, t1], its grid, and step-by-step RK4 over that grid.

    The states are ``_chained_fill``'s rows on that grid, bit for bit.
    """
    n_full, h_last = _grid(0.0, t1, h)
    path = integrate(make_affine_subsystem(A, b, "a"), x0, 0.0, t1, h).states
    assert path.tobytes() == _chained_path(A, b, x0, h, n_full, h_last).tobytes()
    return path, (n_full, h_last), _generic(A, b, x0, h, n_full, h_last)


def test_path_matches_generic_rk4_over_100k_steps():
    x0 = np.array([2.0, -3.0])
    path, (n_full, h_last), ref = _integrated(A, B, x0, 100.0004, 1e-3)
    assert n_full == 100_000 and h_last > 0.0
    assert path.shape == ref.shape == (100_002, 2)
    np.testing.assert_allclose(path, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_path_matches_generic_rk4_in_higher_dimensions(n):
    A_n, b, x0 = _contracting(n, seed=n)
    path, (n_full, h_last), ref = _integrated(A_n, b, x0, 5.0003, 1e-3)
    assert n_full == 5_000 and h_last > 0.0
    np.testing.assert_allclose(path, ref, rtol=0, atol=1e-12)


def test_path_matches_matrix_exponential():
    x0 = np.array([2.0, -3.0])
    xf = -np.linalg.solve(A, B)
    path, grid, _ = _integrated(A, B, x0, 20.0, 1e-3)
    assert grid == (20_000, 0.0)
    for k in range(0, 20_001, 1_000):
        exact = xf + expm(A * (k * 1e-3)) @ (x0 - xf)
        np.testing.assert_allclose(path[k], exact, rtol=0, atol=1e-12)


def test_partial_step_only():
    x0 = np.array([2.0, -3.0])
    path, grid, ref = _integrated(A, B, x0, 4e-4, 1e-3)
    assert grid == (0, 4e-4)
    assert path.shape == (2, 2)
    np.testing.assert_allclose(path, ref, rtol=0, atol=1e-15)
    batch = kernels._map_rows(kernels._final_map(A, B, 1e-3, *grid), x0[None, :])
    np.testing.assert_allclose(batch[0], path[-1], rtol=0, atol=1e-15)


def test_no_trailing_partial_step():
    x0 = np.array([1.0, 0.0])
    out, grid, ref = _integrated(A, B, x0, 1.0, 1e-2)
    assert grid == (100, 0.0)
    assert out.shape == (101, 2)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)


def test_batch_final_matches_per_path_finals():
    for n in (2, 4, 6):
        A_n, b, _ = _contracting(n, seed=10 + n)
        X0 = np.random.default_rng(5).normal(size=(10, n))
        grid = _grid(0.0, 0.3002, 1e-3)
        assert grid[0] == 300 and grid[1] > 0.0
        batch = kernels._map_rows(kernels._final_map(A_n, b, 1e-3, *grid), X0)
        assert batch.shape == X0.shape
        for i, x0 in enumerate(X0):
            path, _, _ = _integrated(A_n, b, x0, 0.3002, 1e-3)
            # the two kernels multiply the step maps in different orders, so
            # components near zero agree in absolute, not relative, terms
            np.testing.assert_allclose(batch[i], path[-1], rtol=0, atol=1e-14)


def _uncached_path(A, b, x0, h, n_full, h_last):
    """The chained seed-block path written out step by step: the reference for the fill."""
    n = x0.shape[0]
    n1 = n + 1
    steps = kernels.SEED_BLOCK_STEPS
    while steps > 1 and 8 * n1 * n * steps > kernels.SEED_BLOCK_BYTES:
        steps //= 2
    # stack[j - 1] = G^j for j = 1..steps, doubled with Gk = G^(2^i)
    stack = np.empty((steps, n1, n1))
    stack[0] = Gk = kernels._rk4_map(A, b, h)
    k = 1
    while k < steps:
        stack[k : 2 * k] = stack[:k] @ Gk
        Gk = Gk @ Gk
        k *= 2
    # top n rows of each G^j, transposed side by side: no constant column
    block = stack[:, :n].transpose(2, 0, 1).reshape(n1, steps * n)
    X = np.empty((n_full + 1 + (h_last > 0.0), n))
    X[0] = x0
    for k in range(0, n_full, steps):  # rows k+1..k+m from row k
        m = min(steps, n_full - k)
        X[k + 1 : k + 1 + m] = (np.append(X[k], 1.0) @ block[:, : m * n]).reshape(m, n)
    if h_last > 0.0:
        X[-1] = kernels._rk4_map(A, b, h_last)[:n] @ np.append(X[n_full], 1.0)
    return X


def test_cached_paths_are_bit_equal_to_fresh_ones():
    A_n, b, x0 = _contracting(4, seed=21)
    # short, long, short again, interleaved with another mode, the second
    # round on the plans of the first: a fill writes only its trajectory's
    # rows and scratch row, so no start sees what an earlier one left
    cases = [(1e-3, 5, 3e-4), (1e-3, 1_000, 0.0), (1e-3, 70, 7e-4), (2e-3, 33, 1e-4)]
    modes = {"n": (A_n, b, x0), "2": (A, B, x0[:2])}
    systems = {m: SwitchedSystem((make_affine_subsystem(a, bb, m),)) for m, (a, bb, _) in modes.items()}
    signals = {m: SwitchingSignal(0.0, m) for m in modes}
    _signal_plan.cache_clear()
    for h, n_full, h_last in cases * 2:
        for m in ("2", "n"):
            a, bb, x = modes[m]
            horizon = n_full * h + h_last
            grid = _grid(0.0, horizon, h)
            assert grid[0] == n_full and (grid[1] > 0.0) == (h_last > 0.0)
            states = simulate_switched(systems[m], signals[m], x, horizon, h).states
            assert states.tobytes() == _uncached_path(a, bb, x, h, *grid).tobytes()
    assert _signal_plan.cache_info()[:2] == (len(cases) * 2, len(cases) * 2)  # (hits, misses)


@pytest.mark.parametrize("h_last", [0.0, 2e-4])
def test_batch_final_is_bit_equal_to_matrix_power(h_last):
    A_n, b, _ = _contracting(3, seed=31)
    X0 = np.random.default_rng(6).normal(size=(5, 3))
    for n_full in range(71):
        G = np.linalg.matrix_power(kernels._rk4_map(A_n, b, 1e-3), n_full)
        if h_last > 0.0:
            G = kernels._rk4_map(A_n, b, h_last) @ G
        ref = X0 @ G[:3, :3].T + G[:3, 3]
        got = kernels._map_rows(kernels._final_map(A_n, b, 1e-3, n_full, h_last), X0)
        assert got.tobytes() == ref.tobytes(), n_full


@pytest.mark.parametrize("h_last", [0.0, 2e-4])
def test_batch_final_past_the_squaring_cache_is_bit_equal_to_matrix_power(h_last):
    # 1101 squarings, past the 256 that a squaring cache once held: each
    # call makes all of them afresh, and a second call gives the same bytes
    A_n, b, _ = _contracting(3, seed=33)
    X0 = np.random.default_rng(7).normal(size=(4, 3))
    n_full = 2**1100 + 12345
    G = np.linalg.matrix_power(kernels._rk4_map(A_n, b, 1e-3), n_full)
    if h_last > 0.0:
        G = kernels._rk4_map(A_n, b, h_last) @ G
    ref = X0 @ G[:3, :3].T + G[:3, 3]
    for _ in range(2):
        got = kernels._map_rows(kernels._final_map(A_n, b, 1e-3, n_full, h_last), X0)
        assert got.tobytes() == ref.tobytes()


def _seed_cases():
    """(n, B): dimensions 2-7 keep B = 256; n = 12 makes the byte budget lower it."""
    cases = [(n, kernels._seed_steps(n)) for n in (2, 3, 4, 5, 6, 7, 12)]
    assert [B for _, B in cases] == [256] * 6 + [64]
    return cases


@pytest.mark.parametrize("n, B", _seed_cases())
@pytest.mark.parametrize("h_last", [0.0, 1.3e-4])
def test_paths_around_the_seed_block(n, B, h_last):
    A_n, b, x0 = _contracting(n, seed=60 + n)
    h = 2e-4
    xf = -np.linalg.solve(A_n, b)
    for n_full in (0, 1, B - 2, B - 1, B, B + 1, 2 * B, 2 * B + 1, 3 * B, 3 * B + 1):
        # through the plan's fill; its partial step is the grid's, about h_last
        path, (_, rem) = _planned_path(A_n, b, x0, h, n_full, h_last)
        assert path.shape == (n_full + 1 + (h_last > 0.0), n)
        assert path.tobytes() == _uncached_path(A_n, b, x0, h, n_full, rem).tobytes()
        assert path.tobytes() == _chained_path(A_n, b, x0, h, n_full, rem).tobytes()
        ref = _generic(A_n, b, x0, h, n_full, rem)
        np.testing.assert_allclose(path, ref, rtol=0, atol=1e-12)
        ts = h * np.arange(n_full + 1)
        if h_last > 0.0:
            ts = np.append(ts, n_full * h + rem)
        for k in sorted({0, 1, n_full // 2, n_full, len(ts) - 1} & set(range(len(ts)))):
            exact = xf + expm(A_n * ts[k]) @ (x0 - xf)
            np.testing.assert_allclose(path[k], exact, rtol=0, atol=1e-12)


def _callable_mode(label, field):
    """A 2-D mode given only by its vector field."""
    return Subsystem(
        label=label, field=field, equilibrium=np.zeros(2), decay_rate=1.0,
        alpha=ClassKFn(1.0, 2.0), beta=ClassKFn(1.0, 2.0), lyapunov=lambda x: float(x @ x),
    )


def _mixed():
    """The demo system plus the callable mode 'c'."""
    c = _callable_mode("c", lambda x: 0.1 * np.sin(x[::-1]) - x)
    return SwitchedSystem(demo_system().subsystems + (c,))


def _per_interval(system, traj, step):
    """``traj``'s states filled again one interval at a time, each from the row the last ended on.

    An affine interval is ``_chained_fill`` on operands built for it alone,
    and a callable one is generic RK4 copied in.
    """
    X = np.empty_like(traj.states)
    X[0] = traj.states[0]
    for lo, hi, mode in traj.segments():
        hi = min(hi, len(X) - 1)  # the tail keeps its end sample
        n_full, rem = _grid(traj.times[lo], traj.times[hi], step)
        run, sub = X[lo : hi + 1], system[mode]
        if sub.affine is None:
            run[:] = _generic_rk4_path(sub.field, run[0], step, n_full, rem)
            continue
        block = kernels._seed_block(*sub.affine, step) if n_full > 0 else None
        last = kernels._last_rows(*sub.affine, rem) if rem > 0.0 else None
        _chained_fill(run, block, last)
    return X


@pytest.mark.parametrize("signal, horizon", [
    (signal_from_dwell(1, ["c", 0], [0.4013, 0.25]), 1.0),
    (signal_from_dwell(1, ["c", 0, "c", -1], [0.4013, 0.25, 0.6, 0.12, 0.3], periodic=True), 4.0),
], ids=["affine_callable_affine", "periodic"])
def test_a_mixed_fill_is_bit_equal_to_one_interval_at_a_time(signal, horizon):
    system = _mixed()
    for x0 in (np.array([0.7, -0.4]), np.array([-3.0, 2.5])):
        traj = simulate_switched(system, signal, x0, horizon, 1e-3)
        modes = [mode for _, _, mode in traj.segments()]
        assert modes[:3] == [1, "c", 0]
        assert traj.states.tobytes() == _per_interval(system, traj, 1e-3).tobytes()


def test_the_fill_is_a_tuple_of_tuples_with_read_only_operands():
    system = _mixed()
    sig = signal_from_dwell(1, ["c", 0, "c", -1], [0.4013, 0.25, 0.6, 0.12, 0.3], periodic=True)
    traj = simulate_switched(system, sig, np.array([0.7, -0.4]), 4.0, 1e-3)
    fill, n, B = traj._plan.fill, 2, kernels._seed_steps(2)
    assert type(fill) is tuple and all(type(entry) is tuple for entry in fill)
    products = [entry for entry in fill if entry[2] is not None]
    calls = [entry for entry in fill if entry[2] is None]
    assert all(len(entry) == 3 for entry in fill)
    for op, size, partial in products:
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 0.0
        # the output starts at the row after the source, which is the last row filled
        assert op.shape == ((n, n + 1) if partial else (n + 1, size)) and size % n == 0
    # the products and callable intervals write every row after the first, in order
    rows = [size // n for _, size, _ in products]
    rows += [n_full + (rem > 0.0) for _, (n_full, rem), _ in calls]
    assert sum(rows) == len(traj.times) - 1
    # per affine interval: one product per chunk of at most B full steps,
    # then one for the partial step; one entry per callable interval
    count = 0
    for lo, hi, mode in traj.segments():
        hi = min(hi, len(traj.times) - 1)
        n_full, rem = _grid(traj.times[lo], traj.times[hi], 1e-3)
        if mode == "c":
            assert (mode, (n_full, rem), None) in calls
        else:
            count += -(-n_full // B) + (rem > 0.0)
    assert count == len(products) and len(calls) == sum(m == "c" for _, _, m in traj.segments())


def test_a_non_finite_start_of_a_callable_interval_raises_before_its_field_is_called():
    # x' = 1000 x overflows within the first second
    up = Subsystem(
        label="up", field=lambda x: 1000.0 * x, equilibrium=np.zeros(2), decay_rate=1.0,
        alpha=ClassKFn(1.0, 2.0), beta=ClassKFn(1.0, 2.0), lyapunov=lambda x: float(x @ x),
        affine=(1000.0 * np.eye(2), np.zeros(2)),
    )
    calls = []

    def field(x):
        calls.append(x.copy())
        return -x

    system = SwitchedSystem(demo_system().subsystems + (up, _callable_mode("c", field)))
    sig = signal_from_dwell(0, ["up", "c"], [0.3, 1.0])
    calls.clear()  # a Subsystem checks its field at its equilibrium
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonfiniteState, match="mode 'up'"):
            simulate_switched(system, sig, np.array([0.5, 1.0]), 1.5, 1e-3)
    assert calls == []
