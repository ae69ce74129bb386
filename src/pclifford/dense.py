"""Explicit complex representation on 2**n dimensions, n <= 6.

Ground truth for everything the F2 layer claims.  Pauli strings are
built literally as the tensor product

    pi(v) = i**q(v) (Z**v1 X**v2) o (Z**v3 X**v4) o ...

with q the pauli quadratic form from the strings module.  Majorana
strings are built as honest normal-ordered matrix products of the mode
operators chi_i = pi(W e_i); the label identification mu(v) ~ pi(W v)
holds only up to sign, so the oracle never takes the shortcut.

Entries are complex floats; every tested value is a dyadic times a
power of 1/sqrt(2), so comparisons at 1e-10 have ample slack.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .f2core import BitVec, dot, make_form
from .strings import MajoranaString, quad_lower

__all__ = [
    "DIM_CAP",
    "dense_string",
    "dense_braid",
    "dense_word",
    "stabilizer_projector_dense",
    "parity_restricted_trace_sq",
]

DIM_CAP = 12  # largest 2n the oracle accepts

_I2 = np.eye(2, dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_ZX = _Z @ _X


def _check_dim(n2: int) -> None:
    if n2 % 2:
        raise ValueError("string labels have even length")
    if n2 > DIM_CAP:
        raise ValueError(f"dense oracle is capped at 2n = {DIM_CAP}")


# 1024 entries each: at 12 labels an entry is a 64 x 64 complex matrix, 64 KB
@lru_cache(maxsize=1024)
def _pauli_matrix(n2: int, bits: int) -> np.ndarray:
    """pi(v) for the packed label bits, phase normalization included."""
    v = BitVec(n2, bits)
    factors = []
    for k in range(n2 // 2):
        z = v.get(2 * k + 1)
        x = v.get(2 * k + 2)
        if z and x:
            factors.append(_ZX)
        elif z:
            factors.append(_Z)
        elif x:
            factors.append(_X)
        else:
            factors.append(_I2)
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    out = (1j ** quad_lower(v, "pauli")) * out
    out.setflags(write=False)
    return out


@lru_cache(maxsize=1024)
def _majorana_matrix(n2: int, bits: int) -> np.ndarray:
    """mu(v) as i**q(v) times the ordered product of mode operators."""
    W = make_form("jw", n2)
    out = np.eye(1 << (n2 // 2), dtype=complex)
    v = BitVec(n2, bits)
    for i in v.indices():
        out = out @ _pauli_matrix(n2, W.col(i).bits)
    out = (1j ** quad_lower(v, "majorana")) * out
    out.setflags(write=False)
    return out


def dense_string(s: MajoranaString) -> np.ndarray:
    _check_dim(s.v.n)
    if s.basis == "pauli":
        base = _pauli_matrix(s.v.n, s.v.bits)
    else:
        base = _majorana_matrix(s.v.n, s.v.bits)
    return (1j**s.phase) * base


def dense_braid(a: BitVec, basis: str = "majorana") -> np.ndarray:
    """(I + i mu(a)) / sqrt(2); unitary."""
    _check_dim(a.n)
    m = dense_string(MajoranaString(0, a, basis))
    eye = np.eye(m.shape[0], dtype=complex)
    return (eye + 1j * m) / math.sqrt(2)


def dense_word(word) -> np.ndarray:
    """Ordered product: prefix, then the braids left to right.

    Under conjugation the rightmost braid acts first, matching the
    matrix-product convention of the word's F2 representation.
    """
    n2 = 2 * word.n
    _check_dim(n2)
    out = np.eye(1 << word.n, dtype=complex)
    for a in word.gens:
        out = out @ dense_braid(a)
    if word.prefix is not None:
        out = dense_string(word.prefix) @ out
    return out


def stabilizer_projector_dense(stab) -> np.ndarray:
    """(1/|M|) sum over m of (-1)**(v^T m) mubar(m), built densely.

    mubar(m) is the product of the dense generator strings in stored
    basis order, so the projector is independent of the F2 phase code.
    """
    space = stab.space
    n2 = 2 * space.n
    _check_dim(n2)
    r = len(space.basis)
    gens = [dense_string(MajoranaString(0, b, "majorana")) for b in space.basis]
    dim = 1 << space.n
    acc = np.zeros((dim, dim), dtype=complex)
    for mask in range(1 << r):
        mat = np.eye(dim, dtype=complex)
        mbits = 0
        for i in range(r):
            if (mask >> i) & 1:
                mat = mat @ gens[i]
                mbits ^= space.basis[i].bits
        sign = -1.0 if dot(stab.sign_vector, BitVec(n2, mbits)) else 1.0
        acc += sign * mat
    return acc / (1 << r)


def parity_restricted_trace_sq(word) -> float:
    """|tr(P+ U)|**2 for a parity-preserving word."""
    n2 = 2 * word.n
    _check_dim(n2)
    if word.prefix is not None and word.prefix.v.parity:
        raise ValueError("word prefix has odd parity")
    U = dense_word(word)
    j = make_form("all_ones", n2)
    pplus = (np.eye(U.shape[0], dtype=complex) + dense_string(MajoranaString(0, j, "majorana"))) / 2
    return abs(np.trace(pplus @ U)) ** 2
