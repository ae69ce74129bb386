"""Packed-int kernels shared by every layer.

The bit convention is the one of f2core: entry i of a length-n vector
sits at bit position n - i, so the row of a packed matrix addressed by
bit position p is rows[n - 1 - p], n = len(rows).  A row-list kernel
reads its row count from its list; a vector kernel takes its width,
which a packed int does not carry in its leading zeros.  Every set-bit
loop and byte selector of the package lives here.  A vector times a
matrix is a gather of the rows its set bits select; a matrix times a
matrix is one product, which reads the left factor a byte at a time
against a table of row XORs.

The Jordan-Wigner matrix W (make_form("jw", n), the dense reference) has
row i equal to the ones at j >= i less i's pair partner, so W x, x^T W
and W M W are prefix parities plus a pair correction: O(n log n) bit
work for a vector, one pass over the rows for a matrix.

A selector x of weight w and bit length m picks its rows in one of two
ways.  A sparse one walks its set bits, four big-int operations per bit:
about 0.3 us a bit at 64 to 1024 bits and 0.4 us at 4096 on 2 shared
CPUs.  A dense one is rendered once as m bytes, 0 or 1 with the top bit
first, and itertools.compress picks its rows in C: a fixed 1.5 us plus 10
to 25 ns per bit of m, set or not, and half as much again in rank_one's
scatter, which makes an int per index.  The two cross near weight 14 at
m = 64, 38 at 256, 100 at 1024 and 190 at 4096, so x is dense when
w >= 12 and w^2 >= 6 m.  gather and rank_one test this inline: a
function call would add 5 to 10 % to a weight-2 selector.  The random
level vectors of the samplers and most encoder reflections are dense.
The weight-2 reflections of the orthogonal levels and the transvection
routes are sparse, and compress would be 6 to 50 times slower on them.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress
from operator import xor


# bounded, as a string may have any length: at 8192 labels the division
# costs about 3 us, and a Pauli-basis string operation asks about 30 times
@lru_cache(maxsize=64)
def pair_mask(n: int) -> int:
    """Ones at the low bit of each adjacent pair, entry indices 2, 4, ...

    For odd n the pairs are counted from the least significant bit, so
    the leading entry belongs to no pair.
    """
    return ((1 << (n - n % 2)) - 1) // 3


def eta_swap(x: int, n: int) -> int:
    """Swap the two entries of every pair: the Pauli form eta applied to x."""
    lo = pair_mask(n)
    return ((x >> 1) & lo) | ((x & lo) << 1)


def symp_pauli(a: int, b: int, n: int) -> int:
    """Pauli symplectic product a^T eta b on packed vectors."""
    return (a & eta_swap(b, n)).bit_count() & 1


def prefix_parity(x: int) -> int:
    """Bit p: the parity of x at p and above, in log2 n shift-XOR steps."""
    shift = 1
    while shift < x.bit_length():
        x ^= x >> shift
        shift <<= 1
    return x


def jw_col(x: int, n: int) -> int:
    """W x: entry i is the parity of x at i and after, less x_(i+1) for odd i."""
    total = (1 << n) - 1 if x.bit_count() & 1 else 0
    return (prefix_parity(x) >> 1) ^ total ^ ((x & pair_mask(n)) << 1)


def jw_row(x: int, n: int) -> int:
    """x^T W: entry j is the parity of x at j and before, less x_(j-1) for even j."""
    return prefix_parity(x) ^ ((x >> 1) & pair_mask(n))


def jw_conjugate(rows) -> list[int]:
    """W M W on the packed rows of a square M: x^T W per row, then one
    suffix XOR up the rows (row i of W M is the XOR of rows j >= i, less
    row i + 1 for odd i)."""
    n = len(rows)
    mw = [jw_row(r, n) for r in rows]
    out = [0] * n
    acc = 0
    for k in range(n - 1, -1, -1):
        acc ^= mw[k]
        out[k] = acc
    for k in range(0, n - 1, 2):
        out[k] ^= mw[k + 1]
    return out


# "0" and "1" to the bytes 0 and 1, the selector form of compress
_BYTE_BITS = bytes.maketrans(b"01", b"\0\1")


def _selector(x: int) -> bytes:
    """One byte per bit of x, 0 or 1, the top bit first."""
    return format(x, "b").encode().translate(_BYTE_BITS)


def gather(rows, x: int) -> int:
    """x^T R: the XOR of the rows selected by the set bits of x."""
    n = len(rows)
    w = x.bit_count()
    if w >= 12 and w * w >= 6 * x.bit_length():  # dense: see the module docstring
        return reduce(xor, compress(rows[n - x.bit_length() :], _selector(x)), 0)
    acc = 0
    while x:
        low = x
        x &= x - 1
        acc ^= rows[n - (low ^ x).bit_length()]  # the row of the bit just cleared
    return acc


def span_table(vecs) -> list[int]:
    """Entry i: the XOR of the vecs that the set bits of i select, the
    first vector at bit 0; built by doubling, where a zero vector only
    copies.  The image of every label under the map whose columns are
    vecs."""
    table = [0]
    for g in vecs:
        table += [x ^ g for x in table] if g else table
    return table


def product(a_rows, b_rows) -> list[int]:
    """A B on packed rows, A n = len(b_rows) bits wide: the method of
    Four Russians (Albrecht, Bard and Hart, ACM TOMS 37(1), 2010).

    The rows of A are rendered once as big-endian bytes, each n bits wide
    after 8 * nb - n leading zeros.  Byte column c then selects from the
    8 rows of B below it (the padding rows are zero), so one span_table
    of those rows serves byte c of every row of A.  Only one table is
    alive at a time.
    """
    n = len(b_rows)
    nb = (n + 7) // 8
    text = b"".join([r.to_bytes(nb, "big") for r in a_rows])
    padded = [0] * (8 * nb - n) + list(b_rows)
    out = [0] * len(a_rows)
    for c in range(nb):
        table = span_table(reversed(padded[8 * c : 8 * c + 8]))  # byte bit 0 first
        out = list(map(xor, out, map(table.__getitem__, text[c::nb])))
    return out


def row_parities(rows, x: int) -> int:
    """R x: one bit per row, its parity against x, the first row on top."""
    acc = 0
    for r in rows:
        acc = (acc << 1) | ((r & x).bit_count() & 1)
    return acc


def rank_one(rows: list[int], u: int, h: int) -> None:
    """In-place left multiplication by I + h u^T on packed rows: the row
    u^T R is XORed into each row selected by h.

    The reflection h_a is the pair (a, a); the transvection of h is the
    pair (eta h, h).
    """
    acc = gather(rows, u)
    if not acc:
        return
    n = len(rows)
    w = h.bit_count()
    if w >= 12 and w * w >= 6 * h.bit_length():  # dense, as in gather
        for i in compress(range(n - h.bit_length(), n), _selector(h)):
            rows[i] ^= acc
        return
    while h:
        low = h
        h &= h - 1
        rows[n - (low ^ h).bit_length()] ^= acc


def right_reflect(rows: list[int], *vecs: int) -> None:
    """In-place right multiplication by h_a = I + a a^T for each a of vecs
    in turn: a row r gains a when r^T a = 1.  Zero vectors are skipped."""
    for a in filter(None, vecs):
        for i, r in enumerate(rows):
            if (r & a).bit_count() & 1:
                rows[i] = r ^ a


def top_bit(x: int) -> int:
    return 1 << (x.bit_length() - 1)


def householder_pair(v: int, w: int, n: int) -> tuple[int, int]:
    """Even a, b with h_b h_a v = w (and also w -> v); b may be zero.

    Callers guarantee p(v) = p(w) and v, w not in {0, all-ones}.
    """
    if v == w:
        return 0, 0
    pv = v.bit_count() & 1
    if ((v & w).bit_count() & 1) ^ pv == 1:
        # v^T w = 1 - p(v): one reflection suffices
        return v ^ w, 0
    full = (1 << n) - 1
    common0 = full & ~v & ~w
    common1 = v & w
    if common0 and common1:
        a = top_bit(common0) | top_bit(common1)
    else:
        # mixed pair: one index set only in v, one only in w
        a = top_bit(v & ~w) | top_bit(w & ~v)
    return a, v ^ w ^ a
