"""Bit-packed linear algebra over F2.

Vectors and matrices are stored as Python ints, one int per matrix row.
Bit index 1 is the most significant bit of the packed word, so the
printed form of a vector reads left to right in index order: the vector
with a single one at index 1 of length 4 prints as "1000".

Structural matrices built here:

* omega       all-ones minus identity, the Majorana commutation form
* omega_lower strictly lower triangular all-ones
* eta         block diagonal [[0,1],[1,0]], the Pauli commutation form
* eta_lower   strictly lower part of eta
* jw          upper triangle (diagonal included) of the complement of
              eta; involutive, and omega = W^T eta W

rank_ints and rref_ints share one leading-bit echelon, {leading bit: row};
the rank is its size, the reduced form its rows back-substituted once.
All arithmetic is mod 2.  Phases never live at this layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ._bits import product, row_parities, symp_pauli

__all__ = [
    "BitVec",
    "BitMatrix",
    "AffineSolution",
    "make_form",
    "complement",
    "dot",
    "symp_product",
    "solve_affine",
    "rref_ints",
    "rank_ints",
    "parse_matrix",
    "format_matrix",
]


@dataclass(frozen=True)
class BitVec:
    """Packed F2 vector; entry i lives at bit position n - i."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("BitVec length must be >= 1")
        # bit_length, not 1 << n: a header may declare a length past memory
        if self.bits < 0 or self.bits.bit_length() > self.n:
            raise ValueError("packed bits exceed the declared length")

    @classmethod
    def from_string(cls, text: str) -> "BitVec":
        text = text.strip()
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a bitstring: {text!r}")
        return cls(len(text), int(text, 2))

    def get(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        return (self.bits >> (self.n - i)) & 1

    def indices(self) -> tuple[int, ...]:
        """1-based indices of the nonzero entries."""
        return tuple(i for i in range(1, self.n + 1) if self.get(i))

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    @property
    def parity(self) -> int:
        return self.bits.bit_count() & 1

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVec(self.n, self.bits ^ other.bits)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b")


@dataclass(frozen=True)
class BitMatrix:
    """Row-major packed F2 matrix."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be >= 1")
        if len(self.data) != self.rows:
            raise ValueError("row count does not match data")
        # bit_length, not 1 << cols: a width may be declared past memory
        for r in self.data:
            if r < 0 or r.bit_length() > self.cols:
                raise ValueError("packed row exceeds the declared width")

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << (n - i) for i in range(1, n + 1)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def from_rows(cls, rows: Sequence[BitVec]) -> "BitMatrix":
        if not rows:
            raise ValueError("need at least one row")
        cols = rows[0].n
        if any(r.n != cols for r in rows):
            raise ValueError("rows of unequal length")
        return cls(len(rows), cols, tuple(r.bits for r in rows))

    def row(self, i: int) -> BitVec:
        if not 1 <= i <= self.rows:
            raise ValueError(f"row index {i} out of range 1..{self.rows}")
        return BitVec(self.cols, self.data[i - 1])

    def col(self, j: int) -> BitVec:
        if not 1 <= j <= self.cols:
            raise ValueError(f"column index {j} out of range 1..{self.cols}")
        shift = self.cols - j
        bits = 0
        for r in self.data:
            bits = (bits << 1) | ((r >> shift) & 1)
        return BitVec(self.rows, bits)

    def transpose(self) -> "BitMatrix":
        """Column j is every cols-th character of the rows printed end to end."""
        cols, spec = self.cols, f"0{self.cols}b"
        text = "".join([format(r, spec) for r in self.data])
        out = tuple(int(text[j::cols], 2) for j in range(cols))
        return BitMatrix(cols, self.rows, out)

    def mul(self, other: "BitMatrix") -> "BitMatrix":
        """self @ other by one Four-Russians product (_bits.product)."""
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = product(self.data, other.data)
        return BitMatrix(self.rows, other.cols, tuple(out))

    def mulvec(self, v: BitVec) -> BitVec:
        if self.cols != v.n:
            raise ValueError("length mismatch")
        return BitVec(self.rows, row_parities(self.data, v.bits))

    def rank(self) -> int:
        return rank_ints(self.data)

    def __str__(self) -> str:
        return "\n".join(format(r, f"0{self.cols}b") for r in self.data)


def dot(v: BitVec, w: BitVec) -> int:
    if v.n != w.n:
        raise ValueError("length mismatch")
    return (v.bits & w.bits).bit_count() & 1


def complement(a):
    """Entrywise 0 <-> 1 exchange; involutive."""
    if isinstance(a, BitVec):
        return BitVec(a.n, a.bits ^ ((1 << a.n) - 1))
    if isinstance(a, BitMatrix):
        mask = (1 << a.cols) - 1
        return BitMatrix(a.rows, a.cols, tuple(r ^ mask for r in a.data))
    raise TypeError("expected BitVec or BitMatrix")


def symp_product(v: BitVec, w: BitVec, basis: str = "majorana") -> int:
    """Symplectic product, computed without materializing the form.

    For the majorana form, omega w = p(w) j + w, so the product reduces
    to p(v) p(w) + v . w.  For the pauli form, eta w swaps pair entries.
    """
    if v.n != w.n:
        raise ValueError("length mismatch")
    if v.n % 2:
        raise ValueError("symplectic product needs even length")
    if basis == "majorana":
        return (v.parity & w.parity) ^ ((v.bits & w.bits).bit_count() & 1)
    if basis == "pauli":
        return symp_pauli(v.bits, w.bits, v.n)
    raise ValueError(f"unknown basis {basis!r}")


def make_form(kind: str, dim: int):
    """Structural matrices and vectors; see the module docstring."""
    if type(dim) is not int:  # True would format its rows 'True' bits wide
        raise ValueError(f"dimension must be an int, not {dim!r}")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if kind == "identity":
        return BitMatrix.identity(dim)
    if kind == "all_ones":
        return BitVec(dim, (1 << dim) - 1)
    if kind == "omega":
        return complement(BitMatrix.identity(dim))
    if kind == "omega_lower":
        rows = tuple(
            ((1 << (i - 1)) - 1) << (dim - i + 1) for i in range(1, dim + 1)
        )
        return BitMatrix(dim, dim, rows)
    if kind in ("eta", "eta_lower", "jw"):
        if dim % 2:
            raise ValueError(f"{kind} requires even dimension")
        # row i holds its pair partner: i + 1 for odd i, i - 1 for even i
        eta_rows = [1 << (dim - (i + 1 if i % 2 else i - 1)) for i in range(1, dim + 1)]
        if kind == "eta":
            return BitMatrix(dim, dim, tuple(eta_rows))
        if kind == "eta_lower":  # the entries of the even rows
            return BitMatrix(dim, dim, tuple(r if k % 2 else 0 for k, r in enumerate(eta_rows)))
        # row i: the ones at columns >= i less the partner
        rows = tuple(((1 << (dim - k)) - 1) & ~r for k, r in enumerate(eta_rows))
        return BitMatrix(dim, dim, rows)
    raise ValueError(f"unknown form kind {kind!r}")


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """{leading bit: row}, each row XORed with the stored row at its
    leading bit until that bit is new; zero rows are dropped."""
    lead: dict[int, int] = {}
    for r in rows:
        while r and (p := r.bit_length() - 1) in lead:
            r ^= lead[p]
        if r:
            lead[p] = r
    return lead


def rref_ints(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form on packed rows: the nonzero reduced rows,
    leftmost pivot first, and their pivot bit positions.  Each echelon row,
    leftmost pivot first, clears its pivot from the rows placed before it."""
    lead = _echelon(rows)
    pivots = sorted(lead, reverse=True)
    done: list[int] = []
    for p in pivots:
        for k, r in enumerate(done):
            if (r >> p) & 1:
                done[k] = r ^ lead[p]
        done.append(lead[p])
    return done, pivots


def rank_ints(rows: Iterable[int]) -> int:
    return len(_echelon(rows))


@dataclass(frozen=True)
class AffineSolution:
    """One representative plus a kernel basis; 2**len(kernel) solutions."""

    x0: BitVec
    kernel: tuple[BitVec, ...]

    @property
    def count(self) -> int:
        return 1 << len(self.kernel)


def solve_affine(M: BitMatrix, b: BitVec) -> Optional[AffineSolution]:
    """Solve M x = b over F2; None when inconsistent.

    The representative sets all free variables to zero.  Kernel basis
    vectors are listed by free column, leftmost first.
    """
    if M.rows != b.n:
        raise ValueError("row count does not match right-hand side")
    aug = [
        (r << 1) | ((b.bits >> (M.rows - 1 - k)) & 1)
        for k, r in enumerate(M.data)
    ]
    red, pivots = rref_ints(aug)
    if pivots and pivots[-1] == 0:
        return None
    x0 = 0
    for row, p in zip(red, pivots):
        if row & 1:
            x0 |= 1 << (p - 1)
    pivot_set = set(p - 1 for p in pivots)
    kernel = []
    for q in range(M.cols - 1, -1, -1):
        if q in pivot_set:
            continue
        vec = 1 << q
        for row, p in zip(red, pivots):
            if (row >> (q + 1)) & 1:
                vec |= 1 << (p - 1)
        kernel.append(BitVec(M.cols, vec))
    return AffineSolution(BitVec(M.cols, x0), tuple(kernel))


def parse_matrix(text: str) -> BitMatrix:
    """Matrix text format: one '0'/'1' row per line, blank line terminates."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            if rows:
                break
            continue
        rows.append(BitVec.from_string(line))
    if not rows:
        raise ValueError("no matrix rows found")
    return BitMatrix.from_rows(rows)


def format_matrix(m: BitMatrix) -> str:
    return str(m) + "\n\n"
