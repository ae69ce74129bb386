"""Generators and uniform sampling for O(N, F2) and Sp(2n, F2).

Parity-preserving Cliffords are represented projectively by orthogonal
matrices; the braiding operator with even label a acts on labels as the
Householder reflection h_a = I + a a^T.  General Cliffords correspond to
symplectic matrices and transvections.

Elements are built level by level: each level fixes the image of one
standard basis vector (one symplectic pair for Sp) and recurses on the
stabilizer.  At odd level N the all-ones vector cannot be a column of
an orthogonal matrix, so that level has 2**(N-1) - 1 choices rather
than 2**(N-1); the odd levels are what make |O(2n)| smaller than
|Sp(2n)|.  A symplectic level routes (e1, e2) to (c1, c2) by at most
four transvections; c2 and the route middles come in closed form
(compare Koenig and Smolin, arXiv:1406.2170), never from a solve.

Pick-list contract.  group_rows(kind, dim, picks) builds every element;
picks holds one number per entry s of level_sizes(kind, dim), with
0 <= pick < s, and the entries run from the top level down.  O(N) has
one entry per level N, N-1, ..., 2 (the odd-parity first column).
Sp(2n) has two per level 2n, 2n-2, ..., 2: the first column c1, then
its partner c2.  levels(kind, dim) is the one map from a level to the
entries it reads; group_rows and the batch builders each loop over it
and hand the entries to one function per group.  Random samplers
draw rng.randrange(s) for each entry in that order, never a big
integer, and all draw through random_draws: on a random.Random it runs
randrange's own getrandbits loop inline, so it gives the same draws and
leaves the same state, and any other rng draws by its own randrange.
Index samplers read index - 1 as a mixed-radix number whose least
significant digit is the first entry, and the group order is the
product of the sizes.  Reordering the entries changes every seeded and
indexed output.  The entries from dim - m on are a pick list of the
group on m labels, which levels 2..m build.  The batch module builds
whole arrays of pick lists at once, each element equal to what
group_rows gives, and lays its tables out in the same index order:
column c holds the pick list of index c + 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from ._bits import (
    eta_swap,
    householder_pair,
    jw_conjugate,
    product,
    rank_one,
    right_reflect,
    symp_pauli,
    top_bit,
)
from .f2core import BitMatrix, BitVec, symp_product
from .strings import MajoranaString, parse_string, format_string, zeta_coeff

__all__ = [
    "OrthogonalMap",
    "SymplecticMap",
    "CliffordWord",
    "braid_action",
    "sample_orthogonal",
    "sample_orthogonal_random",
    "sample_symplectic",
    "sample_symplectic_random",
    "group_order",
    "level_sizes",
    "level_bits",
    "levels",
    "random_draws",
    "LABEL_CAP",
    "group_rows",
    "decompose_orthogonal",
    "reflection_product",
    "word_orthogonal",
    "parse_braid_word",
    "format_braid_word",
]


def _preserves_form(rows: Sequence[int], n: int, form) -> bool:
    """S F S^T = F on the packed rows r_i of S (form(x) = F x) as one
    product: the rows of S F are F r_i (F is symmetric), so S F S^T is S
    times their transpose, compared with the rows F e_i of F."""
    sf_t = BitMatrix(n, n, tuple(map(form, rows))).transpose().data
    return product(rows, sf_t, n) == [form(1 << (n - 1 - i)) for i in range(n)]


@dataclass(frozen=True)
class OrthogonalMap:
    """Binary matrix with m^T m = I, checked as m m^T = I (the same for a
    square matrix); its diagonal makes every row odd, so m fixes the
    all-ones vector."""

    m: BitMatrix

    def __post_init__(self) -> None:
        m = self.m
        if m.rows != m.cols:
            raise ValueError("orthogonal map must be square")
        if not _preserves_form(m.data, m.rows, lambda x: x):
            raise ValueError("matrix is not orthogonal")

    @property
    def dim(self) -> int:
        return self.m.rows


@dataclass(frozen=True)
class SymplecticMap:
    """Binary matrix with m^T F m = F for the form F of its basis, eta
    (pauli) or omega = J + I (majorana); checked as m F m^T = F, the same
    because F F = I at even dimension."""

    m: BitMatrix
    basis: str = "pauli"

    def __post_init__(self) -> None:
        n = self.m.rows
        if n != self.m.cols or n % 2:
            raise ValueError("symplectic map must be square of even dimension")
        if self.basis == "pauli":
            form = lambda x: eta_swap(x, n)
        elif self.basis == "majorana":
            full = (1 << n) - 1
            form = lambda x: x ^ (full if x.bit_count() & 1 else 0)
        else:
            raise ValueError(f"unknown basis {self.basis!r}")
        if not _preserves_form(self.m.data, n, form):
            raise ValueError("matrix does not preserve the symplectic form")

    @property
    def dim(self) -> int:
        return self.m.rows


@dataclass(frozen=True)
class CliffordWord:
    """Braid generator word, optionally prefixed by a single string.

    The represented unitary is prefix * B(a_1) * ... * B(a_m); under
    conjugation the rightmost generator acts first, so the word's F2
    representation is the matrix product h_{a_1} ... h_{a_m}.
    """

    n: int
    gens: tuple[BitVec, ...] = field(default_factory=tuple)
    prefix: Optional[MajoranaString] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one mode pair")
        for a in self.gens:
            if a.n != 2 * self.n:
                raise ValueError("generator length does not match the word")
            if a.parity:
                raise ValueError("odd-parity generator in a parity-preserving word")
        if self.prefix is not None and self.prefix.v.n != 2 * self.n:
            raise ValueError("prefix length does not match the word")


# ---------------------------------------------------------------------------
# elementary actions


def braid_action(a: BitVec, s: MajoranaString, allow_odd: bool = False) -> MajoranaString:
    """Conjugation of a string by the braid B(a), phase included.

    Strings commuting with mu(a) are untouched; anticommuting ones pick
    up i * zeta(a, v) and move to v + a.
    """
    if a.n != s.v.n:
        raise ValueError("length mismatch")
    if a.parity and not allow_odd:
        raise ValueError("braid vector must have even parity")
    if symp_product(a, s.v, s.basis) == 0:
        return s
    phase = (s.phase + 1 + zeta_coeff(a, s.v, s.basis)) % 4
    return MajoranaString(phase, a ^ s.v, s.basis)


# ---------------------------------------------------------------------------
# pick lists: level sizes, group orders, row builders


# the most labels of a group element built from a pick list: its level
# sizes and rows take dim^2 bits, and the build time grows about as dim^2
# (its dense reflections take their rows through itertools.compress)
LABEL_CAP = 4096


def _check_group(kind: str, dim: int) -> None:
    if type(dim) is not int:  # a bool or float would pass into every report
        raise ValueError(f"dimension must be an int, not {dim!r}")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if kind == "symplectic" and dim % 2:
        raise ValueError("symplectic groups need even dimension")
    if kind not in ("orthogonal", "symplectic"):
        raise ValueError(f"unknown group kind {kind!r}")


def level_sizes(kind: str, dim: int) -> list[int]:
    """Radix of each pick-list entry, in draw order, for at most LABEL_CAP
    labels."""
    _check_group(kind, dim)
    if dim > LABEL_CAP:
        raise ValueError(f"dimension {dim} exceeds the cap of {LABEL_CAP} labels on group elements")
    if kind == "orthogonal":
        # odd-parity first columns; the all-ones vector is impossible at odd k
        return [(1 << (k - 1)) - (k & 1) for k in range(dim, 1, -1)]
    # first column c1 != 0, then one of the partners of c1
    return [s for k in range(dim, 0, -2) for s in ((1 << k) - 1, 1 << (k - 1))]


def level_bits(kind: str, dim: int) -> int:
    """sum(s.bit_length() - 1 for s in level_sizes(kind, dim)) in closed
    form: the group order is at least 2^level_bits, known without
    building the sizes, whose memory grows with dim^2."""
    _check_group(kind, dim)
    if kind == "orthogonal":
        # k - 1 bits at level k, one fewer at odd k (2^(k-1) - 1)
        return dim * (dim - 1) // 2 - (dim - 1) // 2
    # two entries of k - 1 bits at each even k: 2 n^2 for dim = 2n
    return dim * dim // 2


@lru_cache(maxsize=64, typed=True)  # group_order(kind, True) is checked, not a hit for 1
def group_order(kind: str, dim: int) -> int:
    """The product of the level sizes, pairwise: a left fold is quadratic."""
    sizes = level_sizes(kind, dim)
    while len(sizes) > 1:
        sizes = [math.prod(sizes[i : i + 2]) for i in range(0, len(sizes), 2)]
    return math.prod(sizes)


def levels(kind: str, dim: int) -> list[tuple[int, tuple[int, ...]]]:
    """Each level bottom up, as its size k and the pick-list entries it
    reads: (dim - k,) for O(N), the first column; (dim - k, dim - k + 1)
    for Sp(2n), c1 then its partner c2.  The dim - len(level_sizes) rows
    no level builds start as the identity: one for O(N), none for Sp."""
    _check_group(kind, dim)
    if kind == "orthogonal":
        return [(k, (dim - k,)) for k in range(2, dim + 1)]
    return [(k, (dim - k, dim - k + 1)) for k in range(2, dim + 1, 2)]


def group_rows(kind: str, dim: int, picks: Sequence[int]) -> list[int]:
    """Packed rows of the element named by a pick list (pauli basis for
    Sp); picks are trusted to lie in range.  The rows start as the
    identity, and level k acts on the bottom k of them."""
    table = levels(kind, dim)
    level_fn = _LEVEL[kind]
    rows = [1 << (dim - 1 - i) for i in range(dim)]
    for k, entries in table:
        level_fn(rows, k, *(picks[e] for e in entries))
    return rows


def _index_picks(kind: str, dim: int, index: int) -> list[int]:
    """index - 1 as mixed-radix digits, the first entry least significant;
    in range exactly when nothing remains, so the order is not formed."""
    sizes = level_sizes(kind, dim)
    low = level_bits(kind, dim)
    rem = index - 1
    picks = []
    # the order is below 2^(low + len(sizes)): a longer index is not divided
    if rem.bit_length() <= low + len(sizes):
        for s in sizes:
            rem, digit = divmod(rem, s)
            picks.append(digit)
    if index < 1 or rem:
        # from 2^64 on the order and the index are named by their size: O(100)
        # has about 1500 digits, and past 4300 Python refuses to print an integer
        top = group_order(kind, dim) if low < 64 else f"N, a group order N of at least 2^{low}"
        size = abs(index).bit_length()
        sign = "negative " if index < 0 else ""
        name = f"index {index}" if size <= 64 else f"{sign}index of {size} bits"
        raise ValueError(f"{name} out of range 1..{top}")
    return picks


def random_draws(rng: random.Random, sizes: Sequence[int], count: int = 1) -> Iterator[int]:
    """rng.randrange(s) for each s of sizes, count times over, one draw
    after another: the pick lists of count random sampler calls.

    On a random.Random itself, randrange(s) is getrandbits(k), k =
    s.bit_length(), drawn again while it is not below s.  That loop runs
    here inline, with getrandbits bound once: the same draws and the same
    final state as randrange, at about a third of its cost.  Any other rng
    (a subclass, which may override random() or randrange, or
    SystemRandom) draws through its own randrange.  An s < 1 raises
    ValueError, as randrange does: the getrandbits loop would never end.
    """
    if min(sizes, default=1) < 1:
        raise ValueError("empty range for randrange()")
    if type(rng) is not random.Random:
        for _ in range(count):
            for s in sizes:
                yield rng.randrange(s)
        return
    getrandbits = rng.getrandbits
    bits = [(s, s.bit_length()) for s in sizes]
    for _ in range(count):
        for s, k in bits:
            r = getrandbits(k)
            while r >= s:
                r = getrandbits(k)
            yield r


def _random_picks(kind: str, dim: int, seed) -> list[int]:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return list(random_draws(rng, level_sizes(kind, dim)))


# ---------------------------------------------------------------------------
# orthogonal builder


def _orthogonal_level(rows: list[int], k: int, idx: int) -> None:
    """Level k, in place on the bottom k rows: the two reflections of
    householder_pair send the top bit to the idx-th odd-parity vector of
    length k in lexicographic order."""
    f = (idx << 1) | (1 ^ (idx.bit_count() & 1))
    a, b = householder_pair(1 << (k - 1), f, k)
    rank_one(rows, a, a, len(rows))
    rank_one(rows, b, b, len(rows))


def sample_orthogonal(dim: int, index: int) -> OrthogonalMap:
    """Bijection from 1..|O(dim)| onto the orthogonal group."""
    rows = group_rows("orthogonal", dim, _index_picks("orthogonal", dim, index))
    return OrthogonalMap(BitMatrix(dim, dim, tuple(rows)))


def sample_orthogonal_random(dim: int, seed=None) -> OrthogonalMap:
    """Uniform over O(dim): one level index drawn per recursion level."""
    rows = group_rows("orthogonal", dim, _random_picks("orthogonal", dim, seed))
    return OrthogonalMap(BitMatrix(dim, dim, tuple(rows)))


# ---------------------------------------------------------------------------
# symplectic builder (pauli basis internally)


def _route(e: int, x: int, w: int, dim: int) -> list[int]:
    """At most two transvection vectors taking e to x: e ^ x when <e, x> =
    1, else two through a middle w with <e, w> = <w, x> = 1."""
    if x == e:
        return []
    return [e ^ x] if symp_pauli(e, x, dim) else [e ^ w, w ^ x]


def _pair_transvections(c1: int, c2: int, dim: int) -> list[int]:
    """Transvection vectors routing (e1, e2) to (c1, c2), applied in list
    order; c1 nonzero and <c1, c2> = 1.  The middles are the echelon
    solutions with free bits 0: w = e2 | top_bit(eta c1) to c1 (eta c1 has
    no e1 bit when <e1, c1> = 0), and w = e1 | e2 to d = c2 pulled back,
    which fixes e1 because <e1, d> = <c1, c2> = 1."""
    e1, e2 = 1 << (dim - 1), 1 << (dim - 2)
    t_part = _route(e1, c1, e2 | top_bit(eta_swap(c1, dim)), dim)
    d = c2
    for h in reversed(t_part):
        if symp_pauli(h, d, dim):
            d ^= h
    return _route(e2, d, e1 | e2, dim) + t_part


def _symplectic_level(rows: list[int], k: int, p1: int, p2: int) -> None:
    """Level k, in place on the bottom k rows: transvections route the top
    pair (e1, e2) to c1 = p1 + 1 and its p2-th partner c2."""
    c1 = p1 + 1
    # partners solve y^T c2 = 1, y = eta c1: bit t of p2 sets the t-th
    # free position from the left, and the top bit p of y fixes parity
    y = eta_swap(c1, k)
    p = y.bit_length() - 1
    rev = int(format(p2, f"0{k - 1}b")[::-1], 2)
    c2 = ((rev >> p) << (p + 1)) | (rev & ((1 << p) - 1))
    c2 |= (1 ^ (c2 & y).bit_count() & 1) << p
    for h in _pair_transvections(c1, c2, k):
        rank_one(rows, eta_swap(h, k), h, len(rows))


# the level function of each group, for the entries levels gives it
_LEVEL = {"orthogonal": _orthogonal_level, "symplectic": _symplectic_level}


def _symplectic_map(rows: list[int], dim: int, basis: str) -> SymplecticMap:
    if basis == "majorana":
        rows = jw_conjugate(rows, dim)  # W M W: the same map on Majorana labels
    # SymplecticMap rejects any other basis
    return SymplecticMap(BitMatrix(dim, dim, tuple(rows)), basis)


def sample_symplectic(dim: int, index: int, basis: str = "pauli") -> SymplecticMap:
    """Bijection from 1..|Sp(dim)| onto the symplectic group."""
    rows = group_rows("symplectic", dim, _index_picks("symplectic", dim, index))
    return _symplectic_map(rows, dim, basis)


def sample_symplectic_random(dim: int, seed=None, basis: str = "pauli") -> SymplecticMap:
    """Uniform over Sp(dim); per-level draws, deterministic given seed."""
    rows = group_rows("symplectic", dim, _random_picks("symplectic", dim, seed))
    return _symplectic_map(rows, dim, basis)


# ---------------------------------------------------------------------------
# decomposition into generators


def decompose_orthogonal(S: OrthogonalMap) -> list[BitVec]:
    """Householder word (length <= 2N) whose reflection product is S.

    Columns are fixed left to right; each step costs two reflections at
    most, and identity steps contribute nothing.  Columns are the rows
    of S^T (h_b h_a S is S^T h_a h_b) and leave the list once fixed.
    """
    N = S.dim
    cols = list(S.m.transpose().data)
    word: list[int] = []
    for k in range(N, 1, -1):
        a, b = householder_pair(1 << (k - 1), cols[0], k)
        right_reflect(cols, a, b)
        assert cols[0] == 1 << (k - 1), "column peel failed"
        del cols[0]
        word.extend(bits for bits in (a, b) if bits)
    assert cols == [1]
    return [BitVec(N, bits) for bits in word]


def reflection_product(word: Sequence[BitVec], dim: int) -> BitMatrix:
    """Matrix product h_{w1} h_{w2} ... h_{wm}; empty product is identity."""
    rows = [1 << (dim - 1 - i) for i in range(dim)]
    for x in reversed(word):
        if x.n != dim:
            raise ValueError("word vector length does not match dimension")
        if x.parity:
            raise ValueError("householder vector must have even parity")
        rank_one(rows, x.bits, x.bits, dim)
    return BitMatrix(dim, dim, tuple(rows))


def word_orthogonal(word: CliffordWord) -> OrthogonalMap:
    """F2 representation h_{a1} ... h_{am} of a parity-preserving word.

    The prefix string conjugates every label to itself, so it does not
    appear here.
    """
    return OrthogonalMap(reflection_product(word.gens, 2 * word.n))


# ---------------------------------------------------------------------------
# braid word text format


def parse_braid_word(text: str, n: Optional[int] = None) -> CliffordWord:
    """Braid word format: optional 'P i^<a> <bits>' line, then 'B <bits>'
    lines."""
    prefix = None
    gens = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("P "):
            if prefix is not None or gens:
                raise ValueError("prefix line must come first")
            prefix = parse_string(line[2:])
        elif line.startswith("B "):
            gens.append(BitVec.from_string(line[2:]))
        else:
            raise ValueError(f"unrecognized braid word line: {line!r}")
    if n is None:
        if prefix is not None:
            n = prefix.v.n // 2
        elif gens:
            n = gens[0].n // 2
        else:
            raise ValueError("empty braid word needs an explicit mode count")
    return CliffordWord(n, tuple(gens), prefix)


def format_braid_word(word: CliffordWord) -> str:
    lines = []
    if word.prefix is not None:
        lines.append("P " + format_string(word.prefix))
    lines.extend("B " + str(a) for a in word.gens)
    return "\n".join(lines) + ("\n" if lines else "")
