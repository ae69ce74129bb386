"""numpy batches of the packed kernels behind the exponent stream.

Each function mirrors a scalar one and equals it element by element,
for rows of at most 64 bits, which fit a uint64:

- random_picks: the pick lists of count random sampler calls, drawn by
  group.random_draws, the same draws as rng.randrange, as uint64;
- group_rows_batch: group.group_rows, one loop over group.levels;
- rank_batch: f2core.rank_ints, by the same leading-bit echelon;
- exponents: design._exponent, the fixed-point exponent of an element.

__all__ holds what design calls; the builders and the rank are reached
through them and tested on their own.

A batch of packed rows is a (rows, B) uint64 array: row i of every
element is one contiguous vector, the batch counterpart of rows[i], and
a reduction over the rows runs along the first axis.  Each scalar step
becomes np.where branches or a masked XOR-reduction over the batch.  No
row needs a 65th bit: the transvection middles are closed forms, and the
restricted rank writes its augmented bit into bit 0.

A level is split in two.  One vector function per group computes the
level's vectors from its picks: the reflections (a, b) for O(N), the
four transvections as rows (eta h, h) for Sp, zero where fewer are
needed.  One apply step then makes the level's rank-one updates, one
_rank_one call each, so no update's temporaries outlive it, on a (k, B)
array with one vector per element.

A random batch reads its small levels from tables memoized for the
process, each at most _TABLE_PICKS = 4096 columns, and every table lays
its picks out in the samplers' index order (_every_pick, folded back by
_index): column c of a subgroup table is the element at sampler index
c + 1.  Levels 2..m build the group of m labels on the bottom m rows,
whatever dim is, from the last entries of the pick list, a pick list of
that group; where it has at most 4096 elements, one column of its table
replaces those levels.  These are O(5) and Sp(4), 720 elements each,
28.8 kB and 23 kB; a smaller group is read whole.  Above m, the vectors
depend on the group, the level k and the picks, never on dim, so a
level of at most 4096 picks reads them from a table of the vector
function on every pick, with one fancy index: O(N) levels 6..13 and Sp
level 6, 9 tables and about 260 kB.  Larger levels compute their
vectors per batch.  Both steps take the levels, the entries each reads
and their radices from group.levels and group.level_sizes, and the
vector function from a table keyed by kind, so nothing here branches on
the kind of group.

design loads this module on its first Monte Carlo potential of at
most 64 labels, so importing the package, exact mode and Monte Carlo
past 64 labels neither compile it nor load numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import takewhile

import numpy as np

from ._bits import eta_swap
from .group import group_order, level_sizes, levels, random_draws

__all__ = ["random_picks", "exponents"]

# the bottom levels whose group has at most this many elements read one
# table of that group (O(5), Sp(4)); a level above them with at most this
# many picks reads its vectors from a table of every pick (O(N) levels
# 6..13, Sp level 6); 0 turns the tables of random batches off
_TABLE_PICKS = 4096


def random_picks(rng, sizes: list[int], count: int) -> np.ndarray:
    """(count, len(sizes)) pick lists of count sampler calls: rng.randrange(s)
    for each s of sizes, one pick list after another, by random_draws."""
    draws = random_draws(rng, sizes, count)
    return np.fromiter(draws, np.uint64, count * len(sizes)).reshape(count, len(sizes))


def group_rows_batch(kind: str, dim: int, picks) -> np.ndarray:
    """group_rows of every pick list of a (B, len(level_sizes)) array, as
    (dim, B) uint64: entry [i, b] is row i of element b; dim <= 64."""
    table = levels(kind, dim)
    if dim > 64:
        raise ValueError("batched rows are uint64: dim must be <= 64")
    sizes = level_sizes(kind, dim)
    # entry i of every pick list in one contiguous row, as the rows
    picks = np.ascontiguousarray(np.asarray(picks, dtype=np.uint64).T)
    rows = np.repeat(_identity(dim), picks.shape[1], axis=1)
    # levels 2..m, whose group has at most _TABLE_PICKS elements, read the
    # entries from dim - m on: a pick list of that group, one table column
    low = list(takewhile(lambda level: group_order(kind, level[0]) <= _TABLE_PICKS, table))
    if low:
        m = low[-1][0]
        rows[dim - m :] = _subgroup_table(kind, m)[:, _index(picks[dim - m :], sizes[dim - m :])]
    _build_levels(rows, kind, table[len(low) :], sizes, picks)
    return rows


def _build_levels(rows: np.ndarray, kind: str, table, sizes: list[int], picks) -> None:
    """The levels of table on a (dim, B) batch in place, bottom up; picks[e]
    is entry e of every pick list."""
    for k, entries in table:
        radices = tuple(sizes[e] for e in entries)
        vectors = _level_vectors(kind, k, radices, [picks[e] for e in entries])
        _apply(rows[len(rows) - k :], *vectors)


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
    """_exponent of the element of each pick list."""
    return _exponents(group_rows_batch(kind, dim, picks), restricted)


def _exponents(rows: np.ndarray, restricted: bool) -> np.ndarray:
    """_exponent of each element of a (dim, B) batch of rows, by its
    formula: dim less the rank of S + I, or restricted, of its rows with
    bit 0 set over j with bit 0 clear."""
    dim = len(rows)
    kicked = rows ^ _identity(dim)
    if restricted:
        j = np.full((1, kicked.shape[1]), (1 << dim) - 2, np.uint64)
        kicked = np.vstack([kicked | np.uint64(1), j])
    return dim - rank_batch(kicked)


# ---------------------------------------------------------------------------
# the builders of group, level by level over the batch


def _identity(n: int) -> np.ndarray:
    """The packed rows of the n x n identity, as an (n, 1) column."""
    return np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64)[:, None]


def _top_bits(x: np.ndarray, n: int) -> np.ndarray:
    """top_bit of each entry of x < 2^n, 0 for 0: the lower bits smeared in."""
    shift = 1
    while shift < n:
        x = x | (x >> shift)
        shift <<= 1
    return x ^ (x >> 1)


def _rank_one(level: np.ndarray, u: np.ndarray, h: np.ndarray) -> None:
    """rank_one on every element of a (k, B) level, in place: the rows at
    the set bits of u XOR-reduced, then added to the rows at the bits of
    h; u and h hold one vector per element."""
    shifts = np.arange(len(level) - 1, -1, -1, dtype=np.uint64)[:, None]
    select = -((u >> shifts) & 1)  # all ones where row i is selected
    acc = np.bitwise_xor.reduce(level & select, axis=0)
    if h is not u:
        # freed first: a third level-sized array makes malloc trim and refault the heap
        del select
        select = -((h >> shifts) & 1)
    level ^= select & acc


# the updates of a level as the rows (u, h) of its vectors that _rank_one takes
_REFLECTIONS = ((0, 0), (1, 1))
_TRANSVECTIONS = ((0, 1), (2, 3), (4, 5), (6, 7))


def _orthogonal_vectors(k: int, idx: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The two reflections of level k as the rows (a, b): householder_pair
    sends the top bit to the idx-th odd-parity vector f."""
    f = (idx << 1) | (1 ^ (np.bitwise_count(idx) & 1))
    # householder_pair(top, f): one reflection when f misses the top
    # bit, else two through z, the top zero of f (f is never all-ones);
    # f = top gives a = b, two reflections that cancel
    top = 1 << (k - 1)
    z = _top_bits(f ^ ((1 << k) - 1), k)
    has_top = (f & top) != 0
    a = np.where(has_top, z | top, f ^ top)
    b = np.where(has_top, f ^ z, 0)
    return np.stack([a, b]), _REFLECTIONS


def _symp(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    return (np.bitwise_count(a & eta_swap(b, n)) & 1).astype(bool)


def _route(e: int, x: np.ndarray, w: np.ndarray | int, dim: int) -> list[np.ndarray]:
    """group's _route for a batch of targets x and middles w, as two
    vectors, zero where _route gives fewer."""
    direct = (x == e) | _symp(np.uint64(e), x, dim)
    return [np.where(direct, e ^ x, e ^ w), np.where(direct, 0, w ^ x)]


def _symplectic_vectors(k: int, p1: np.ndarray, p2: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The four transvections h of level k as the rows (eta h, h), zero
    where fewer are needed: they route e1 and e2 to c1 = p1 + 1 and its
    p2-th partner c2."""
    c1 = p1 + 1
    y = eta_swap(c1, k)
    top = _top_bits(y, k)
    rev = np.zeros_like(p2)
    for i in range(k - 1):
        rev |= ((p2 >> i) & 1) << (k - 2 - i)
    below = top - 1
    c2 = ((rev & ~below) << 1) | (rev & below)
    c2 |= np.where(np.bitwise_count(c2 & y) & 1, 0, top)
    # _pair_transvections: route e1 to c1, then e2 to c2 pulled back
    e1, e2 = 1 << (k - 1), 1 << (k - 2)
    t_part = _route(e1, c1, e2 | top, k)
    d = c2
    for h in reversed(t_part):
        d = d ^ np.where(_symp(h, d, k), h, 0)
    hs = _route(e2, d, e1 | e2, k) + t_part
    return np.stack([v for h in hs for v in (eta_swap(h, k), h)]), _TRANSVECTIONS


# the vector function of each group, for the entries levels gives it
_VECTORS = {"orthogonal": _orthogonal_vectors, "symplectic": _symplectic_vectors}


def _every_pick(radices) -> np.ndarray:
    """Every pick list of the radices as a column: column c folds to c by _index."""
    return np.indices(radices[::-1], np.uint64).reshape(len(radices), math.prod(radices))[::-1]


def _index(picks, radices) -> np.ndarray:
    """The column of each pick list, picks[i] being entry i of every list:
    index - 1 of group's samplers, the inverse of _every_pick."""
    if not len(radices):
        return np.zeros(picks.shape[1:], np.uint64)  # the one empty pick list
    index = picks[-1]
    for p, r in zip(picks[-2::-1], radices[-2::-1]):
        index = index * r + p
    return index


@lru_cache(maxsize=None)
def _level_table(kind: str, k: int, radices: tuple[int, ...]) -> tuple[np.ndarray, tuple]:
    """The vector function of a level on every pick, by _every_pick,
    read-only: a batch reads it where the level has <= _TABLE_PICKS picks."""
    vectors, layout = _VECTORS[kind](k, *_every_pick(radices))
    vectors.flags.writeable = False
    return vectors, layout


def _level_vectors(kind: str, k: int, radices: tuple[int, ...], picks) -> tuple[np.ndarray, tuple]:
    """The vectors of level k for the picks of its entries, one array per
    entry, with the update layout: a column of the level's table when it
    has at most _TABLE_PICKS picks, else computed."""
    if math.prod(radices) > _TABLE_PICKS:
        return _VECTORS[kind](k, *picks)
    vectors, layout = _level_table(kind, k, radices)
    return vectors[:, _index(picks, radices)], layout


@lru_cache(maxsize=None)
def _subgroup_table(kind: str, m: int) -> np.ndarray:
    """Every element of the group of levels 2..m, as (m, order) rows,
    read-only: column c is the element at sampler index c + 1.  At most
    _TABLE_PICKS columns, built as one batch of every pick list."""
    sizes = level_sizes(kind, m)
    picks = _every_pick(sizes)
    rows = np.repeat(_identity(m), picks.shape[1], axis=1)
    _build_levels(rows, kind, levels(kind, m), sizes, picks)
    rows.flags.writeable = False
    return rows


def _apply(level: np.ndarray, vectors: np.ndarray, layout: tuple) -> None:
    """The updates of a (k, B) level in place, in layout order: row i of
    vectors holds one vector per element; each _rank_one frees its
    temporaries before the next is built."""
    rows = list(vectors)  # one view per row: a reflection passes one twice
    for i, j in layout:
        _rank_one(level, rows[i], rows[j])
