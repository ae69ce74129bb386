"""Phase-exact algebra of Majorana and Pauli strings.

A string is a pair (phase exponent, F2 vector) with a basis tag.  The
phase is an exponent of i, kept mod 4, never a float.  The basis string
labeled by v is mu(v) = i**q(v) g_k1 ... g_km, the ordered product of
the generators at the entries k1 < ... < km set in v, with q(v) = v^T L v
and L the strictly lower triangle of the commutation form (omega for
Majorana labels, eta for Pauli labels).  The generators square to one
and anticommute exactly where the form has a one, so bringing g_v g_w
back to order costs (-1)**(v^T L w) and composition is exact:

    mu(v) mu(w) = i**zeta(v, w) mu(v + w),
    zeta(v, w) = 2 v^T L w + q(v) + q(w) - q(v + w)  (mod 4).

Dense fidelity of all of this is pinned down in the oracle module.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._bits import jw_col, pair_mask, prefix_parity
from .f2core import BitVec, make_form, symp_product

__all__ = [
    "BASES",
    "MajoranaString",
    "zeta_coeff",
    "compose",
    "commutes",
    "jordan_wigner_map",
    "parity_operator",
    "quad_lower",
    "parse_string",
    "format_string",
]

BASES = ("majorana", "pauli")


@dataclass(frozen=True)
class MajoranaString:
    """i**phase times the basis string labeled by v."""

    phase: int
    v: BitVec
    basis: str = "majorana"

    def __post_init__(self) -> None:
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.v.n % 2:
            raise ValueError("string labels have even length")
        object.__setattr__(self, "phase", self.phase % 4)

    @property
    def n(self) -> int:
        return self.v.n // 2

    def __str__(self) -> str:
        return format_string(self)


def _lower(v: BitVec, w: BitVec, basis: str) -> int:
    """v^T L w, one packed kernel per form: for omega_lower each entry of v
    meets the parity of w before it, for eta_lower entry 2k meets 2k - 1."""
    if basis == "majorana":
        return (v.bits & (prefix_parity(w.bits) >> 1)).bit_count() & 1
    if basis == "pauli":
        return (v.bits & (w.bits >> 1) & pair_mask(v.n)).bit_count() & 1
    raise ValueError(f"unknown basis {basis!r}")


def quad_lower(v: BitVec, basis: str = "majorana") -> int:
    """q(v) = v^T L v with L the strictly lower triangle of the form; for
    omega_lower it counts the C(|v|, 2) pairs of set entries: bit 1 of |v|."""
    if basis == "majorana":
        return (v.weight >> 1) & 1
    return _lower(v, v, basis)


def zeta_coeff(v: BitVec, w: BitVec, basis: str = "majorana") -> int:
    """Composition coefficient zeta(v, w) as an exponent of i, mod 4."""
    if v.n != w.n:
        raise ValueError("length mismatch")
    if v.n % 2:
        raise ValueError("string labels have even length")
    q = quad_lower(v, basis) + quad_lower(w, basis) - quad_lower(v ^ w, basis)
    return (2 * _lower(v, w, basis) + q) % 4


def compose(s1: MajoranaString, s2: MajoranaString) -> MajoranaString:
    """Exact operator product of two strings."""
    if s1.basis != s2.basis:
        raise ValueError("basis mismatch")
    if s1.v.n != s2.v.n:
        raise ValueError("length mismatch")
    phase = (s1.phase + s2.phase + zeta_coeff(s1.v, s2.v, s1.basis)) % 4
    return MajoranaString(phase, s1.v ^ s2.v, s1.basis)


def commutes(s1: MajoranaString, s2: MajoranaString) -> bool:
    if s1.basis != s2.basis:
        raise ValueError("basis mismatch")
    return symp_product(s1.v, s2.v, s1.basis) == 0


def jordan_wigner_map(s: MajoranaString) -> MajoranaString:
    """Relabel v -> W v and flip the basis tag; involutive.

    W = make_form("jw", 2n) has row i equal to the ones at j >= i less
    i's pair partner, so (W v)_i = v_i + v_(i+1) + ... + v_2n, less
    v_(i+1) when i is odd: a prefix parity plus a pair correction,
    computed on the packed label without building W.  The identification
    is at the level of vector labels; dense phase fidelity is the oracle
    module's business.
    """
    other = "pauli" if s.basis == "majorana" else "majorana"
    return MajoranaString(s.phase, BitVec(s.v.n, jw_col(s.v.bits, s.v.n)), other)


def parity_operator(n: int) -> MajoranaString:
    """The all-modes string mu(j); commutes exactly with even strings."""
    if n < 1:
        raise ValueError("need at least one mode pair")
    return MajoranaString(0, make_form("all_ones", 2 * n), "majorana")


def parse_string(text: str, basis: str = "majorana") -> MajoranaString:
    """String text format: 'i^<a> <bitstring>'."""
    parts = text.split()
    if len(parts) != 2 or not parts[0].startswith("i^"):
        raise ValueError(f"expected 'i^<a> <bitstring>', got {text!r}")
    try:
        phase = int(parts[0][2:])
    except ValueError as exc:
        raise ValueError(f"bad phase exponent in {text!r}") from exc
    return MajoranaString(phase, BitVec.from_string(parts[1]), basis)


def format_string(s: MajoranaString) -> str:
    return f"i^{s.phase} {s.v}"
