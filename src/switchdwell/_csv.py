"""CSV files, streamed in blocks, with every float cell exactly as ``'%.17g' % v`` renders it.

Algorithm.  For ``a = |v|`` the 17 significant digits are the integer
``n`` in ``[10**16, 10**17)`` nearest to ``a * 10**(16 - X)``, where ``X`` is
the decimal exponent.  ``X`` starts as ``floor(log10(a))``.  The product is
taken as a double-double: Dekker's split and two-product (T. J. Dekker,
*Numer. Math.* 18, 1971) of ``a`` with the exact pair ``(hi, lo)`` of
``10**k``, built lazily from integers.  Its floor and fraction are then
known to about 1e-14.  Rounding the fraction gives ``n``, and the digits are
laid out as ``%g`` does: fixed point for ``-4 <= X < 17``, ``d.ddde±XX``
otherwise, with trailing fraction zeros and a bare point stripped.

Pitfall.  ``log10`` can be off by one next to a power of ten, so ``X``
is corrected while the *unrounded* floor lies outside ``[10**16, 10**17)``.
Testing the rounded ``n`` instead accepts ``9.9999999999999996e-281`` with
``X = -280`` and prints ``1e-280``.  A rounding carry to ``10**17`` then
becomes ``10**16`` with ``X + 1``.

Fallback.  These values are rendered one at a time by ``'%.17g' %``:
zero, non-finite values, ``|v|`` outside ``[1e-280, 1e280]`` (where the
split could overflow or the pair underflow), and values whose fraction lies
within 1e-6 of the 0.5 tie, where ``'%.17g'`` rounds half to even.

Layout.  Each cell is a NUL-padded row of ``_WIDTH`` bytes.  Cells are laid
out per exponent group by slice assignment, the groups come from a stable
sort on ``X``.  A CSV block is one byte row per CSV row: each cell, label
or run of labels is written into its columns, followed by a comma, and the
last comma is a newline.  Dropping every NUL leaves the text, so no label
may contain NUL, which ``scenario`` guarantees.

Streaming.  ``csv_blocks`` yields a file as its encoded header and then one
encoded block (``csv_block``) per ``_BLOCK`` rows, so rendering holds one
block at a time whatever the file's length; a small file is just a few
blocks.  A label column given as ``Runs`` is written run by run into each
block.  A caller that makes its rows block by block, as ``cli`` does a
trajectory's, renders each with ``csv_block``.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

_WIDTH = 24  # the longest cell: -1.2345678901234567e-100
# rows rendered at once, the float cells by one _cells call: 2048 rows with a
# call per column peaked 0.55 MB higher on a cold example1 run (38.65 MB,
# against 38.09) and rendered its files 9% slower; 8192 peaked 2.6 MB higher
_BLOCK = 1024
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_E16, _E17 = 10**16, 10**17

# uint16 keeps these tables' temporaries small: they count in every run's peak memory
_QUADS = np.arange(10000, dtype=np.uint16)[:, None]
_DIGITS = (_QUADS // np.array([1000, 100, 10, 1], np.uint16) % 10).astype(np.uint8) + ord("0")
_ZEROS = _QUADS % np.array([10000, 1000, 100, 10], np.uint16) == 0  # this digit and the rest
# "%04d" % i as 4 ASCII bytes in one uint32 at i, with trailing zeros as NUL at 10000 + i
_ASCII4 = np.concatenate([_DIGITS, _DIGITS * ~_ZEROS]).view(np.uint32).ravel()


@functools.cache
def _pow10(k: int) -> tuple[float, float]:
    """10**k as (hi, lo): hi correctly rounded, lo the correctly rounded remainder."""
    a, b = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = a / b  # int true division rounds correctly
    n, d = hi.as_integer_ratio()
    return hi, (a * d - n * b) / (b * d)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(floor, fraction) of ``a * 10**(16 - X)``."""
    k = 16 - X
    k0 = int(k.min())
    hi, lo = np.array([_pow10(j) for j in range(k0, int(k.max()) + 1)]).T
    h, l = hi[k - k0], lo[k - k0]
    p = a * h  # an integer once p >= 2**53
    ah, al = _split(a)
    hh, hl = _split(h)
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * l
    fl = np.floor(r)
    return p.astype(np.int64) + fl.astype(np.int64), r - fl


def _cells(v: np.ndarray) -> np.ndarray:
    """(N, _WIDTH) uint8: ``'%.17g' % x`` for each x in ``v`` (N > 0), NUL padded."""
    a = np.abs(v)
    easy = (a >= 1e-280) & (a <= 1e280)
    a[~easy] = 1.0
    X = np.floor(np.log10(a)).astype(np.int64)
    f, frac = _scaled(a, X)
    for _ in range(2):
        fix = np.flatnonzero((f < _E16) | (f >= _E17))
        if not fix.size:
            break
        X[fix] += np.where(f[fix] < _E16, -1, 1)
        f[fix], frac[fix] = _scaled(a[fix], X[fix])
    easy &= (f >= _E16) & (f < _E17) & (np.abs(frac - 0.5) > 1e-6)
    n = f + (frac > 0.5)
    carry = n == _E17
    n[carry] = _E16
    X[carry] += 1

    order = np.argsort(X.astype(np.int16), kind="stable")
    n = n[order]
    top = n // 10**8  # the lead digit and chunks 0 and 1
    q = np.empty((len(n), 4), np.int32)  # four 4-digit chunks after the lead digit
    q[:, 0], q[:, 1] = np.divmod((top % 10**8).astype(np.int32), 10000)
    q[:, 2], q[:, 3] = np.divmod((n - top * 10**8).astype(np.int32), 10000)
    tail = np.ones(q.shape, bool)  # every chunk after this one is 0: strip its trailing zeros
    for j in (2, 1, 0):
        tail[:, j] = tail[:, j + 1] & (q[:, j + 1] == 0)
    D = np.zeros((len(n), 5), np.uint32)
    D[:, 1:] = _ASCII4[q + 10000 * tail]
    digits = D.view(np.uint8)[:, 3:]  # 17 digits, the stripped ones NUL
    digits[:, 0] = top // 10**8 + ord("0")

    C = np.zeros((len(n), _WIDTH), np.uint8)
    lo = 0
    for x, count in enumerate(np.bincount(X - X.min()).tolist(), start=int(X.min())):
        c, d = C[lo : lo + count], digits[lo : lo + count]
        lo += count
        if not count:
            continue
        if -4 <= x < 0:
            lead = np.frombuffer(b"0." + b"0" * (-1 - x), np.uint8)
            c[:, 1 : 1 + len(lead)] = lead
            c[:, 1 + len(lead) : 18 + len(lead)] = d
            continue
        fixed = 0 <= x < 17
        s = x + 1 if fixed else 1  # digits before the point
        c[:, 1 : 1 + s] = d[:, :s] | ord("0")  # an integer part keeps its zeros
        c[:, 2 + s : 19] = d[:, s:]
        c[:, 1 + s] = np.where(c[:, 2 + s] != 0, ord("."), 0)
        if not fixed:
            exponent = np.frombuffer(b"e%+03d" % x, np.uint8)
            c[:, 19 : 19 + len(exponent)] = exponent
    out = np.empty_like(C)
    out.view(f"V{_WIDTH}")[order] = C.view(f"V{_WIDTH}")  # whole rows back to input order
    out[:, 0] = (v < 0).view(np.uint8) * ord("-")
    for i in np.flatnonzero(~easy):
        text = b"%.17g" % v[i]
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out


def csv_blocks(header: str, *columns) -> Iterator[bytes]:
    """``header`` then one CSV row per row of ``columns``, as encoded blocks of ``_BLOCK`` rows.

    The columns are as ``csv_block`` takes them, the first an array.  The
    blocks joined are the file: the header first, then one block per
    ``_BLOCK`` rows, rendered when it is asked for.
    """
    yield header.encode()
    for lo in range(0, len(columns[0]), _BLOCK):
        yield csv_block(*(col[lo : lo + _BLOCK] for col in columns))


def csv_block(*columns) -> bytes:
    """One encoded CSV row per row of ``columns``.

    Each column is a float array of N rows (or N rows of k floats, k cells)
    rendered as ``'%.17g'``, N labels written as they are, an ``S`` (bytes)
    array, or a ``Runs`` of N rows; at least one is a float array.  The
    float cells of all columns are rendered by one ``_cells`` call, and each
    cell is then laid into the rows beside its comma.
    """
    n = len(columns[0])
    floats = [col.reshape(n, -1) for col in columns if isinstance(col, np.ndarray)
              and col.dtype.kind != "S"]
    F = iter(_cells(np.hstack(floats).ravel()).reshape(n, -1, _WIDTH).swapaxes(0, 1))
    cells = []  # (width, what fills it): a cell array, or a Runs that writes its rows
    for col in columns:
        if isinstance(col, Runs):
            cells.append((col.table.itemsize, col))
        elif col.dtype.kind == "S":
            cells.append((col.itemsize, col.view(np.uint8).reshape(n, -1)))
        else:
            cells.extend((_WIDTH, next(F)) for _ in range(col.size // n))
    B = np.empty((n, sum(width + 1 for width, _ in cells)), np.uint8)
    end = 0
    for width, cell in cells:
        body = B[:, end : end + width]
        if isinstance(cell, Runs):
            cell.write(body)
        else:
            body[...] = cell
        B[:, end + width] = ord(",")
        end += width + 1
    B[:, -1] = ord("\n")
    return B[B != 0].tobytes()


def labels(values) -> np.ndarray:
    """The UTF-8 bytes of ``str(m)`` for each label, as an ``S`` array for ``csv_blocks``."""
    return np.array([str(m).encode() for m in values], dtype="S")


class Runs:
    """A label column given by runs: label ``values[j]`` on the next ``lens[j]`` rows.

    A slice of rows is the ``Runs`` of its own rows, and ``csv_block``
    writes each run's label bytes into the block's rows, so a column of
    long labels is never gathered row by row.
    """

    def __init__(self, values, lens):
        self.table, self.ends = labels(values), np.cumsum(lens)

    def __len__(self) -> int:
        return int(self.ends[-1])

    def __getitem__(self, rows: slice) -> Runs:
        start, stop = rows.start, min(rows.stop, len(self))
        j0 = np.searchsorted(self.ends, start, side="right")  # the run of row start
        j1 = np.searchsorted(self.ends, stop) + 1  # past the run of row stop - 1
        block = Runs.__new__(Runs)
        block.table, block.ends = self.table[j0:j1], np.minimum(self.ends[j0:j1], stop) - start
        return block

    def write(self, out: np.ndarray) -> None:
        """Each run's label bytes into its rows of ``out``, (len(self), table.itemsize) uint8."""
        start = 0
        for label, end in zip(self.table.view(np.uint8).reshape(len(self.table), -1),
                              self.ends.tolist()):
            out[start:end] = label
            start = end
