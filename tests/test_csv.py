import numpy as np

from switchdwell._csv import _BLOCK, Runs, csv_blocks, labels


def csv_bytes(header, *columns) -> bytes:
    return b"".join(csv_blocks(header, *columns))


def per_value(values) -> bytes:
    return b"".join(b"%.17g\n" % x for x in values.tolist())


def test_float_cells_match_percent_17g():
    rng = np.random.default_rng(20240601)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    powers = np.array([float(f"1e{k}") for k in range(-280, 281)])
    around = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
    edges = np.array(
        [0.0, -0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0,
         np.finfo(float).max, 1e-280, 1e280, np.inf, -np.inf, np.nan,
         9.9999999999999996e-281, 0.5, 2.5, 1e-4 * (1 - 2**-52), 2.0**53]
    )
    grid = np.arange(20_000) * 1e-3
    values = np.concatenate([bits, around, -around, edges, -edges, grid])
    assert csv_bytes("", values) == per_value(values)


def test_rows_join_floats_and_labels():
    floats = np.array([[0.0, 1.5], [-2e-7, 3e20]])
    modes = labels(["α", -1])
    body = csv_bytes("a,b,m,v\n", floats, modes, np.array([0.25, 1 / 3]))
    expected = "a,b,m,v\n0,1.5,α,0.25\n-1.9999999999999999e-07,3e+20,-1,0.33333333333333331\n"
    assert body == expected.encode()
    assert csv_bytes("x\n", np.zeros((0, 2)), labels([])) == b"x\n"


def test_blocks_are_the_header_then_one_per_block_of_rows():
    values = np.arange(2 * _BLOCK + 1, dtype=float)
    blocks = csv_blocks("v\n", values)
    assert next(blocks) == b"v\n"
    assert [b.count(b"\n") for b in blocks] == [_BLOCK, _BLOCK, 1]
    assert list(csv_blocks("x\n", np.zeros((0, 2)))) == [b"x\n"]


def test_label_runs_equal_the_repeated_labels():
    values = ["α", -1, "long" * 20]
    # runs across a block boundary, ending on one, and two short runs in one block
    for lens in [_BLOCK - 1, 2, _BLOCK + 3], [_BLOCK, 1, 2 * _BLOCK - 1], [1, 1, 2 * _BLOCK]:
        times = np.arange(sum(lens), dtype=float)
        repeated = labels(values).repeat(lens)
        assert csv_bytes("t,m\n", times, Runs(values, lens)) == csv_bytes("t,m\n", times, repeated)
