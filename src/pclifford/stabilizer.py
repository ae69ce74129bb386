"""Fermionic stabilizers over even-parity isotropic subspaces.

A stabilizer group is generated by signed Hermitian strings mubar(b_i)
over an isotropic subspace M of even-parity labels, with a sign
character (-1)^(v^T m) attached through a coset representative v.  The
encoder stab_clifford returns the braid word of reflections routing the
canonical subspace onto M, generator by generator.

Subspace bases are canonicalized to reduced row echelon form on
construction; the RREF order is the definitional generator order for
mubar products, which are phase-sensitive to ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ._bits import householder_pair, right_reflect, row_parities
from .f2core import BitMatrix, BitVec, dot, rref_ints, solve_affine
from .group import LABEL_CAP, CliffordWord, OrthogonalMap
from .strings import MajoranaString, compose

__all__ = [
    "IsotropicSubspace",
    "Stabilizer",
    "canonical_isotropic",
    "validate_isotropic",
    "add_ancilla",
    "stab_clifford",
    "stabilizer_element",
    "logical_generators",
    "state_parity",
    "transform_isotropic",
    "parse_stabilizer",
    "format_stabilizer",
]


def _reduce(bits: int, rows: Sequence[int]) -> int:
    """XOR each row, in order, into bits whenever bits holds its leading bit."""
    for row in rows:
        if (bits >> (row.bit_length() - 1)) & 1:
            bits ^= row
    return bits


@dataclass(frozen=True)
class IsotropicSubspace:
    """Even-parity subspace with pairwise vanishing symplectic products.

    The basis is stored in RREF (pivot columns ascending), so equal
    subspaces compare equal regardless of the generators supplied.
    """

    n: int
    basis: tuple[BitVec, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one mode pair")
        n2 = 2 * self.n
        for b in self.basis:
            if b.n != n2:
                raise ValueError("generator length does not match the mode count")
            if b.parity:
                raise ValueError(f"odd-parity generator {b}")
        # on even rows the Majorana product is the dot product; the top set
        # bit of each row's parities against the later rows is its first clash
        bits = [b.bits for b in self.basis]
        for i, b in enumerate(bits):
            clash = row_parities(bits[i + 1 :], b)
            if clash:
                c = self.basis[len(bits) - clash.bit_length()]
                raise ValueError(f"generators {self.basis[i]} and {c} do not commute")
        # commuting even rows span W inside W-perp (b.b = parity b = 0), so
        # r <= n; a pivot at bit 0 would be a reduced row of weight 1, odd
        work, _ = rref_ints(bits)
        if len(work) != len(self.basis):
            raise ValueError("generators are linearly dependent")
        object.__setattr__(
            self, "basis", tuple(BitVec(n2, bits) for bits in work)
        )

    @property
    def r(self) -> int:
        return len(self.basis)

    def matrix(self) -> BitMatrix:
        return BitMatrix(self.r, 2 * self.n, tuple(b.bits for b in self.basis))

    def reduce(self, v: BitVec) -> BitVec:
        """Lexicographically minimal representative of v + span(basis)."""
        if v.n != 2 * self.n:
            raise ValueError("length mismatch")
        return BitVec(v.n, _reduce(v.bits, [row.bits for row in self.basis]))

    def contains(self, v: BitVec) -> bool:
        return self.reduce(v).bits == 0

    def contains_all_ones(self) -> bool:
        return self.contains(BitVec(2 * self.n, (1 << (2 * self.n)) - 1))

    def coords(self, m: BitVec) -> tuple[int, ...]:
        """Expansion coefficients of a member over the RREF basis."""
        if not self.contains(m):
            raise ValueError(f"{m} is not in the subspace")
        # in RREF each pivot column carries exactly one generator
        return tuple(
            (m.bits >> (row.bits.bit_length() - 1)) & 1 for row in self.basis
        )


@dataclass(frozen=True)
class Stabilizer:
    """Isotropic subspace plus a sign character given by a coset rep.

    The sign vector is canonicalized to the lexicographically minimal
    representative of its coset, so equal stabilizers compare equal.
    """

    space: IsotropicSubspace
    sign_vector: Optional[BitVec] = None

    def __post_init__(self) -> None:
        n2 = 2 * self.space.n
        v = self.sign_vector if self.sign_vector is not None else BitVec(n2, 0)
        if v.n != n2:
            raise ValueError("sign vector length does not match the subspace")
        object.__setattr__(self, "sign_vector", self.space.reduce(v))

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def r(self) -> int:
        return self.space.r


def canonical_isotropic(n: int, r: int) -> IsotropicSubspace:
    """First r rows of the consecutive-pair pattern 1100..., 0011..., ..."""
    if not 1 <= r <= n:
        raise ValueError(f"rank {r} out of range 1..{n}")
    n2 = 2 * n
    rows = tuple(BitVec(n2, 0b11 << (n2 - 2 * i)) for i in range(1, r + 1))
    return IsotropicSubspace(n, rows)


def validate_isotropic(rows: Sequence[BitVec]) -> IsotropicSubspace:
    """Canonicalize raw generators, rejecting anything non-isotropic."""
    if not rows:
        raise ValueError("empty generator list")
    if rows[0].n % 2:
        raise ValueError("generators must have even length")
    return IsotropicSubspace(rows[0].n // 2, tuple(rows))


def add_ancilla(M: IsotropicSubspace) -> IsotropicSubspace:
    """Two trailing zero coordinates; pushes the all-ones vector out of
    the span."""
    n2 = 2 * (M.n + 1)
    return IsotropicSubspace(M.n + 1, tuple(BitVec(n2, b.bits << 2) for b in M.basis))


def stab_clifford(M: IsotropicSubspace) -> CliffordWord:
    """Braid word whose reflection product S maps the i-th canonical
    generator to basis[i]; word_orthogonal(word) is S.

    Walks the generators once, pushing each b through the word so far to
    read m = S^T b, then routes m back to the canonical pair with at most
    two reflections that fix everything already routed; they extend the
    word on the right, so it has at most 2r reflections, and a pair that
    cancels is left out.  Requires the all-ones vector outside M
    (add_ancilla delivers that), which also caps r at n - 1 so the
    working tail is always at least 4 wide.
    """
    n2 = 2 * M.n
    if n2 > LABEL_CAP:
        raise ValueError(f"{n2} labels exceed the cap of {LABEL_CAP} labels on the encoder")
    if M.contains_all_ones():
        raise ValueError("all-ones vector lies in the subspace; run add_ancilla first")
    word: list[int] = []
    for i, b in enumerate(M.basis):
        row = [b.bits]
        right_reflect(row, *word)
        m = row[0]
        tw = n2 - 2 * i
        mask = (1 << tw) - 1
        m_tail = m & mask
        m_lead = m >> tw
        # nonzero by independence; not all-ones or the all-ones vector
        # would sit in the subspace
        assert m_tail != 0 and m_tail != mask, "tail invariant violated"
        e_tail = 0b11 << (tw - 2)
        if m_tail == e_tail:
            a_tail = b_tail = 0b0110 << (tw - 4)
        else:
            a_tail, b_tail = householder_pair(e_tail, m_tail, tw)
        a = (m_lead << tw) | a_tail
        if a != b_tail:
            word.extend(x for x in (a, b_tail) if x)
    return CliffordWord(M.n, tuple(BitVec(n2, x) for x in word))


def stabilizer_element(stab: Stabilizer, m: BitVec) -> MajoranaString:
    """Signed Hermitian stabilizer string for a member label m.

    mubar(m) multiplies the basis strings carrying m's RREF coordinates
    in stored order; the character contributes (-1)^(sign_vector^T m).
    """
    cs = stab.space.coords(m)
    out = MajoranaString(0, BitVec(2 * stab.n, 0))
    for c, b in zip(cs, stab.space.basis):
        if c:
            out = compose(out, MajoranaString(0, b))
    phase = (out.phase + 2 * dot(stab.sign_vector, m)) % 4
    return MajoranaString(phase, out.v)


def logical_generators(stab: Stabilizer) -> list[BitVec]:
    """Basis of the centralizer of M modulo M; 2(n - r) vectors.

    Representatives are reduced against M, so each has zeros in M's
    pivot columns.  Odd-parity representatives can occur exactly when
    the all-ones vector is outside M.
    """
    space = stab.space
    n2 = 2 * space.n
    sol = solve_affine(space.matrix(), BitVec(space.r, 0))
    assert sol is not None  # homogeneous systems are always consistent
    acc = [b.bits for b in space.basis]
    out = []
    for kv in sol.kernel:
        bits = _reduce(kv.bits, acc)
        if bits:
            acc.append(bits)
            out.append(BitVec(n2, bits))
    assert len(out) == n2 - 2 * space.r, "centralizer dimension mismatch"
    return out


def state_parity(stab: Stabilizer) -> int:
    """+1 or -1; defined for maximal stabilizers only."""
    if stab.r != stab.n:
        raise ValueError("state parity needs a maximal stabilizer (r = n)")
    return -1 if stab.sign_vector.parity else 1


def transform_isotropic(S: OrthogonalMap, M: IsotropicSubspace) -> IsotropicSubspace:
    if S.dim != 2 * M.n:
        raise ValueError("dimension mismatch")
    return IsotropicSubspace(M.n, tuple(S.m.mulvec(b) for b in M.basis))


# ---------------------------------------------------------------------------
# text format: header `n=<n> r=<r>`, r generator bitstrings, optional sign


def parse_stabilizer(text: str) -> Stabilizer:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty stabilizer file")
    fields: dict[str, str] = {}
    for part in lines[0].split():
        key, _, value = part.partition("=")
        if key in fields or key not in ("n", "r"):
            why = "repeated" if key in fields else "unknown"
            raise ValueError(f"{why} key {key!r} in stabilizer header {lines[0]!r}")
        fields[key] = value
    try:
        n = int(fields["n"])
        r = int(fields["r"])
    except (ValueError, KeyError) as exc:
        raise ValueError(f"bad stabilizer header {lines[0]!r}") from exc
    if r < 0:
        raise ValueError(f"generator count r={r} must be >= 0")
    if len(lines) < 1 + r:
        raise ValueError(f"expected {r} generator lines")
    rows = [BitVec.from_string(ln) for ln in lines[1 : 1 + r]]
    sign = None
    for ln in lines[1 + r :]:
        if sign is not None or not ln.startswith("sign="):
            why = "repeated sign" if ln.startswith("sign=") else "unrecognized stabilizer"
            raise ValueError(f"{why} line {ln!r}")
        sign = BitVec.from_string(ln[len("sign=") :])
    return Stabilizer(IsotropicSubspace(n, tuple(rows)), sign)


def format_stabilizer(stab: Stabilizer) -> str:
    lines = [f"n={stab.n} r={stab.r}"]
    lines.extend(str(b) for b in stab.space.basis)
    lines.append(f"sign={stab.sign_vector}")
    return "\n".join(lines) + "\n"
