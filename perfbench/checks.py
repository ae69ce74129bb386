"""Independent F2 helpers that the workload checks use.

Packed rows follow the library's convention: index 1 is the most
significant bit of an n-bit int.  Nothing here imports the library, so a
check built on these helpers does not share code with what it checks.
"""

from __future__ import annotations


def parity(x: int) -> int:
    return x.bit_count() & 1


def identity(n: int) -> list[int]:
    return [1 << (n - 1 - i) for i in range(n)]


def mulvec(rows: list[int], v: int) -> int:
    """M v for a matrix given by its packed rows."""
    out = 0
    for r in rows:
        out = (out << 1) | parity(r & v)
    return out


def transpose(rows: list[int], cols: int) -> list[int]:
    n = len(rows)
    out = [0] * cols
    for i, r in enumerate(rows):
        mark = 1 << (n - 1 - i)
        for j in range(cols):
            if (r >> (cols - 1 - j)) & 1:
                out[j] |= mark
    return out


def matmul(a: list[int], b: list[int]) -> list[int]:
    """A B, with A's column count equal to len(b)."""
    k = len(b)
    out = []
    for r in a:
        acc = 0
        for j in range(k):
            if (r >> (k - 1 - j)) & 1:
                acc ^= b[j]
        out.append(acc)
    return out


def eta_rows(rows: list[int]) -> list[int]:
    """eta M: swaps the rows of each adjacent pair (1,2), (3,4), ..."""
    out = list(rows)
    for i in range(0, len(rows) - 1, 2):
        out[i], out[i + 1] = rows[i + 1], rows[i]
    return out


def is_orthogonal(rows: list[int]) -> bool:
    """S^T S = I and S j = j."""
    n = len(rows)
    full = (1 << n) - 1
    if matmul(transpose(rows, n), rows) != identity(n):
        return False
    return mulvec(rows, full) == full


def is_symplectic_pauli(rows: list[int]) -> bool:
    """S^T eta S = eta for the pair form eta."""
    n = len(rows)
    return matmul(transpose(rows, n), eta_rows(rows)) == eta_rows(identity(n))


def rref(rows: list[int]) -> list[int]:
    """Reduced row echelon basis of the row span, leftmost pivot first."""
    basis: dict[int, int] = {}
    for r in rows:
        for p, b in basis.items():
            if (r >> p) & 1:
                r ^= b
        if not r:
            continue
        p = r.bit_length() - 1
        for q in basis:
            if (basis[q] >> p) & 1:
                basis[q] ^= r
        basis[p] = r
    return [basis[p] for p in sorted(basis, reverse=True)]


def reflect(a: int, v: int) -> int:
    """h_a v = v + (a . v) a."""
    return v ^ a if parity(a & v) else v
