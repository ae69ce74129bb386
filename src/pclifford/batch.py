"""numpy batches of the packed kernels behind the exponent stream.

Each function mirrors a scalar one and equals it element by element,
for rows of at most 64 bits, which fit a uint64:

- index_picks: the pick lists of a range of group indices, read as
  mixed-radix numbers the way the index samplers of group read them, in
  uint64 only: exact mode enumerates at most 10^7 elements;
- group_rows_batch: group.group_rows, the pick-list builder of each group;
- rank_batch: f2core.rank_ints, by the same leading-bit echelon;
- exponents: design._exponent, the fixed-point exponent of an element.

A batch of packed rows is a (rows, B) uint64 array: row i of every
element is one contiguous vector, the batch counterpart of rows[i], and
a reduction over the rows runs along the first axis.  Each scalar step
becomes np.where branches or a masked XOR-reduction over the batch.  No
row needs a 65th bit: the transvection middles are closed forms, and the
restricted rank writes its augmented bit into bit 0.
design loads this module on its first potential, so importing the
package neither compiles it nor loads numpy.
"""

from __future__ import annotations

import numpy as np

from ._bits import eta_swap

__all__ = ["index_picks", "group_rows_batch", "rank_batch", "exponents"]


def index_picks(sizes: list[int], lo: int, hi: int) -> np.ndarray:
    """(hi - lo, len(sizes)) pick lists of the indices lo + 1 .. hi: index
    - 1 as mixed-radix digits, the first entry least significant."""
    rem = np.arange(lo, hi, dtype=np.uint64)
    picks = np.empty((len(rem), len(sizes)), np.uint64)
    for i, s in enumerate(sizes):
        picks[:, i] = rem % s
        rem = rem // s
    return picks


def group_rows_batch(kind: str, dim: int, picks) -> np.ndarray:
    """group_rows of every pick list of a (B, len(level_sizes)) array, as
    (dim, B) uint64: entry [i, b] is row i of element b; dim <= 64."""
    if dim > 64:
        raise ValueError("batched rows are uint64: dim must be <= 64")
    # entry i of every pick list in one contiguous row, as the rows
    picks = np.ascontiguousarray(np.asarray(picks, dtype=np.uint64).T)
    if kind == "orthogonal":
        return _orthogonal_rows(dim, picks)
    if kind == "symplectic":
        return _symplectic_rows(dim, picks)
    raise ValueError(f"unknown group kind {kind!r}")


def rank_batch(rows: np.ndarray) -> np.ndarray:
    """rank_ints of each matrix of a batch: rows[i, b] is packed row i of
    matrix b, uint64.

    The batch form of f2core's leading-bit echelon: each row is reduced
    by the reduced rows before it, taking r ^ row when it is smaller, which
    clears the leading bit of row from r; the nonzero reduced rows then have
    distinct leading bits, and the rank is their count.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    reduced = []
    rank = np.zeros(rows.shape[1], np.intp)
    for r in rows:
        for row in reduced:
            r = np.minimum(r, r ^ row)
        reduced.append(r)
        rank += r != 0
    return rank


def exponents(kind: str, dim: int, restricted: bool, picks) -> np.ndarray:
    """_exponent of the element of each pick list, by its formula: dim
    less the rank of S + I, or restricted, of its rows with bit 0 set over
    j with bit 0 clear."""
    diag = np.uint64(1) << np.arange(dim - 1, -1, -1, dtype=np.uint64)[:, None]
    kicked = group_rows_batch(kind, dim, picks) ^ diag
    if restricted:
        j = np.full((1, kicked.shape[1]), (1 << dim) - 2, np.uint64)
        kicked = np.vstack([kicked | np.uint64(1), j])
    return dim - rank_batch(kicked)


# ---------------------------------------------------------------------------
# the builders of group, level by level over the batch


def _top_bits(x: np.ndarray, n: int) -> np.ndarray:
    """top_bit of each entry of x < 2^n, 0 for 0: the lower bits smeared in."""
    shift = 1
    while shift < n:
        x = x | (x >> shift)
        shift <<= 1
    return x ^ (x >> 1)


def _rank_one(level: np.ndarray, u: np.ndarray, h: np.ndarray) -> None:
    """rank_one on every element of a (k, B) level, in place: the rows at
    the set bits of u XOR-reduced, then added to the rows at the bits of h."""
    shifts = np.arange(len(level) - 1, -1, -1, dtype=np.uint64)[:, None]
    select = -((u >> shifts) & 1)  # all ones where row i is selected
    acc = np.bitwise_xor.reduce(level & select, axis=0)
    if h is not u:
        select = -((h >> shifts) & 1)
    level ^= select & acc


def _orthogonal_rows(dim: int, picks: np.ndarray) -> np.ndarray:
    rows = np.zeros((dim, picks.shape[1]), np.uint64)
    rows[-1] = 1
    for k in range(2, dim + 1):
        idx = picks[dim - k]
        f = (idx << 1) | (1 ^ (np.bitwise_count(idx) & 1))
        # householder_pair(top, f): one reflection when f misses the top
        # bit, else two through z, the top zero of f (f is never all-ones);
        # f = top gives a = b, two reflections that cancel
        top = 1 << (k - 1)
        z = _top_bits(f ^ ((1 << k) - 1), k)
        has_top = (f & top) != 0
        a = np.where(has_top, z | top, f ^ top)
        b = np.where(has_top, f ^ z, 0)
        level = rows[dim - k :]
        level[0] = top
        _rank_one(level, a, a)
        _rank_one(level, b, b)
    return rows


def _symp(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    return (np.bitwise_count(a & eta_swap(b, n)) & 1).astype(bool)


def _route(e: int, x: np.ndarray, w: np.ndarray | int, dim: int) -> list[np.ndarray]:
    """group's _route for a batch of targets x and middles w, as two
    vectors, zero where _route gives fewer."""
    direct = (x == e) | _symp(np.uint64(e), x, dim)
    return [np.where(direct, e ^ x, e ^ w), np.where(direct, 0, w ^ x)]


def _symplectic_rows(dim: int, picks: np.ndarray) -> np.ndarray:
    rows = np.zeros((dim, picks.shape[1]), np.uint64)
    for k in range(2, dim + 1, 2):
        c1 = picks[dim - k] + 1
        y = eta_swap(c1, k)
        top = _top_bits(y, k)
        k2 = picks[dim - k + 1]
        rev = np.zeros_like(k2)
        for i in range(k - 1):
            rev |= ((k2 >> i) & 1) << (k - 2 - i)
        below = top - 1
        c2 = ((rev & ~below) << 1) | (rev & below)
        c2 |= np.where(np.bitwise_count(c2 & y) & 1, 0, top)
        level = rows[dim - k :]
        level[0] = 1 << (k - 1)
        level[1] = 1 << (k - 2)
        # _pair_transvections: route e1 to c1, then e2 to c2 pulled back
        e1, e2 = 1 << (k - 1), 1 << (k - 2)
        t_part = _route(e1, c1, e2 | top, k)
        d = c2
        for h in reversed(t_part):
            d = d ^ np.where(_symp(h, d, k), h, 0)
        for h in _route(e2, d, e1 | e2, k) + t_part:
            _rank_one(level, eta_swap(h, k), h)
    return rows
