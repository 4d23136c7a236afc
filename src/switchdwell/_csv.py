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
sort on ``X``, and a CSV block is the ``hstack`` of its cells with the comma
and newline columns.  Dropping every NUL leaves the text, so no label may
contain NUL, which ``scenario`` guarantees.

Streaming.  ``csv_blocks`` yields a file as its encoded header and then one
encoded block (``csv_block``) per ``_BLOCK`` rows, so rendering holds one
block at a time whatever the file's length; a small file is just a few
blocks.  A label column given as ``Runs`` is gathered block by block too.
A caller that makes its rows block by block, as ``cli`` does a trajectory's,
renders each with ``csv_block``.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

_WIDTH = 24  # the longest cell: -1.2345678901234567e-100
_BLOCK = 2048  # rows rendered at once: 8192 raised a cold example1 run's peak RSS by 2.6 MB
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
    rendered as ``'%.17g'``, or N labels written as they are, an ``S``
    (bytes) array.
    """
    cells = []
    for col in columns:
        if col.dtype.kind == "S":
            cells.append(col.view(np.uint8).reshape(len(col), -1))
        else:
            F = _cells(col.ravel()).reshape(len(col), -1, _WIDTH)
            cells.extend(F[:, j] for j in range(F.shape[1]))
    comma = np.full((len(cells[0]), 1), ord(","), np.uint8)
    newline = np.full_like(comma, ord("\n"))
    B = np.hstack([x for cell in cells for x in (cell, comma)][:-1] + [newline])
    return B[B != 0].tobytes()


def labels(values) -> np.ndarray:
    """The UTF-8 bytes of ``str(m)`` for each label, as an ``S`` array for ``csv_blocks``."""
    return np.array([str(m).encode() for m in values], dtype="S")


class Runs:
    """A label column given by runs: label ``values[j]`` on the next ``lens[j]`` rows.

    A slice of rows gathers its labels' bytes when its block is rendered,
    so a column of long labels is never held for every row.
    """

    def __init__(self, values, lens):
        self.table, self.ends = labels(values), np.cumsum(lens)

    def __getitem__(self, rows: slice) -> np.ndarray:
        i = np.arange(rows.start, min(rows.stop, self.ends[-1]))
        return self.table[np.searchsorted(self.ends, i, side="right")]
