"""Packed-int kernels against the loop implementations they replaced."""

import bisect
import functools
import itertools
import operator
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pclifford import _bits
from pclifford._bits import (
    eta_swap,
    gather,
    householder_pair,
    jw_col,
    jw_conjugate,
    jw_row,
    pair_mask,
    prefix_parity,
    product,
    rank_one,
    span_table,
    symp_pauli,
)
from pclifford.f2core import BitMatrix, BitVec, make_form, symp_product
from pclifford.strings import MajoranaString, _lower, jordan_wigner_map, quad_lower, zeta_coeff

MAX_LEN = 300


# ---------------------------------------------------------------------------
# references: the loops and string-built masks the kernels replaced


def ref_masks(n):
    """String-built pair masks; the empty string at n = 1 reads as 0."""
    hi = int("10" * (n // 2) or "0", 2)
    lo = int("01" * (n // 2) or "0", 2)
    return hi, lo


def ref_eta_swap(bits, n):
    hi, lo = ref_masks(n)
    return ((bits & hi) >> 1) | ((bits & lo) << 1)


def ref_reflect(rows, a, n):
    """In-place left multiplication by h_a on packed rows."""
    if a == 0:
        return
    acc = 0
    x = a
    while x:
        p = (x & -x).bit_length() - 1
        acc ^= rows[n - 1 - p]
        x &= x - 1
    x = a
    while x:
        p = (x & -x).bit_length() - 1
        rows[n - 1 - p] ^= acc
        x &= x - 1


def ref_apply_transvection_rows(rows, h, dim):
    """In-place left multiplication by the transvection matrix of h."""
    if h == 0:
        return
    hi, lo = ref_masks(dim)
    eta_h = ((h & hi) >> 1) | ((h & lo) << 1)
    acc = 0
    x = eta_h
    while x:
        p = (x & -x).bit_length() - 1
        acc ^= rows[dim - 1 - p]
        x &= x - 1
    x = h
    while x:
        p = (x & -x).bit_length() - 1
        rows[dim - 1 - p] ^= acc
        x &= x - 1


def ref_rank_one(rows: list[int], u: int, h: int, n: int) -> None:
    """rank_one with the gather loop inlined, as it was before it called
    gather."""
    acc = 0
    x = u
    while x:
        p = (x & -x).bit_length() - 1
        acc ^= rows[n - 1 - p]
        x &= x - 1
    if not acc:
        return
    while h:
        p = (h & -h).bit_length() - 1
        rows[n - 1 - p] ^= acc
        h &= h - 1


def ref_cross_lower(v, w):
    """v^T L w for the majorana form, one shift and popcount per set bit."""
    acc = 0
    x = v.bits
    while x:
        p = (x & -x).bit_length() - 1
        acc ^= (w.bits >> (p + 1)).bit_count() & 1
        x &= x - 1
    return acc


def ref_transpose(m):
    """The set-bit scatter transpose: row i goes, as one bit, into the
    output row of each of its set columns."""
    out = [0] * m.cols
    for i, r in enumerate(m.data):
        while r:
            p = (r & -r).bit_length() - 1
            out[m.cols - 1 - p] ^= 1 << (m.rows - 1 - i)
            r &= r - 1
    return BitMatrix(m.cols, m.rows, tuple(out))


def ref_prefix_parity(x, n):
    """Bit by bit: bit p is the parity of the bits of x at p and above."""
    out = 0
    acc = 0
    for p in range(n - 1, -1, -1):
        acc ^= (x >> p) & 1
        out |= acc << p
    return out


def dense(m):
    return np.array(
        [[int(ch) for ch in format(r, f"0{m.cols}b")] for r in m.data], dtype=np.int64
    ).reshape(m.rows, m.cols)


def packed(a):
    return tuple(int("".join(str(int(b)) for b in row), 2) for row in a)


# ---------------------------------------------------------------------------
# strategies: a length, then words of that length drawn from one seed


lengths = st.integers(1, MAX_LEN)
seeds = st.integers(0, 2**32 - 1)


def words(seed, n, count):
    rng = random.Random(seed)
    return [rng.getrandbits(n) for _ in range(count)]


def test_pair_mask_every_length():
    for n in range(1, MAX_LEN + 1):
        hi, lo = ref_masks(n)
        assert pair_mask(n) == lo
        assert pair_mask(n) << 1 == hi


def test_pair_mask_cache_matches_the_formula_and_stays_bounded():
    pair_mask.cache_clear()
    for n in [*range(1, 71), 8192]:
        for _ in range(2):  # the computed mask, then the cached one
            assert pair_mask(n) == ((1 << (n - n % 2)) - 1) // 3
    info = pair_mask.cache_info()
    assert info.maxsize == 64 and info.currsize == 64
    assert info.hits == 71


@given(lengths, seeds)
def test_eta_swap_matches_string_masks(n, seed):
    for x in words(seed, n, 4):
        assert eta_swap(x, n) == ref_eta_swap(x, n)
        # an involution on the paired entries; odd n drops the leading one
        assert eta_swap(eta_swap(x, n), n) == x & (3 * pair_mask(n))


@given(lengths, seeds)
def test_symp_pauli_matches_string_masks(n, seed):
    a, b = words(seed, n, 2)
    assert symp_pauli(a, b, n) == (a & ref_eta_swap(b, n)).bit_count() & 1


@given(lengths, seeds)
def test_pauli_quad_lower_matches_string_mask(n, seed):
    # public and defined for odd lengths too
    (x,) = words(seed, n, 1)
    _, lo = ref_masks(n)
    assert quad_lower(BitVec(n, x), "pauli") == (x & (x >> 1) & lo).bit_count() & 1


def check_prefix_parity(n, seed):
    for x in words(seed, n, 4):
        assert prefix_parity(x) == ref_prefix_parity(x, n)


def check_majorana_lower(n, seed):
    v, w = (BitVec(n, x) for x in words(seed, n, 2))
    assert _lower(v, w, "majorana") == ref_cross_lower(v, w)
    assert _lower(v, v, "majorana") == ref_cross_lower(v, v)
    assert quad_lower(v) == ref_cross_lower(v, v)
    # the closed form: q(v) = C(|v|, 2) mod 2, at odd lengths too
    assert quad_lower(v) == (v.weight * (v.weight - 1) // 2) & 1


@given(lengths, seeds)
def test_prefix_parity_matches_bit_loop(n, seed):
    check_prefix_parity(n, seed)


@given(lengths, seeds)
def test_majorana_lower_matches_loop(n, seed):
    check_majorana_lower(n, seed)


def test_majorana_quad_lower_every_length():
    for n in range(1, MAX_LEN + 1):
        for x in words(n, n, 4):
            v = BitVec(n, x)
            assert quad_lower(v) == ref_cross_lower(v, v)


# seeded cases at lengths the hypothesis range does not reach
@pytest.mark.parametrize("n, seed", [(n, seed) for n in (1024, 8192) for seed in range(3)])
def test_kernels_match_loops_at_large_lengths(n, seed):
    check_prefix_parity(n, seed)
    check_majorana_lower(n, seed)


@pytest.mark.parametrize("basis", ["majorana", "pauli"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_zeta_is_the_symplectic_product_mod_2(basis, n):
    labels = [BitVec(n, x) for x in range(1 << n)]
    for v, w in itertools.product(labels, repeat=2):
        assert zeta_coeff(v, w, basis) % 2 == symp_product(v, w, basis)


@settings(max_examples=60, deadline=None)
@given(lengths, seeds, st.booleans())
def test_reflection_matches_loop(n, seed, zero):
    rows = words(seed, n, n + 1)
    a = 0 if zero else rows.pop()
    want = rows[:n]
    got = list(want)
    ref_reflect(want, a, n)
    rank_one(got, a, a, n)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(lengths, seeds, st.booleans())
def test_transvection_matches_loop(n, seed, zero):
    rows = words(seed, n, n + 1)
    h = 0 if zero else rows.pop()
    want = rows[:n]
    got = list(want)
    ref_apply_transvection_rows(want, h, n)
    rank_one(got, eta_swap(h, n), h, n)
    assert got == want


def reflect(a, v):
    """h_a v = v + (a^T v) a on a packed vector; h_0 is the identity."""
    return v ^ (a if (a & v).bit_count() & 1 else 0)


def test_householder_pair_of_equal_vectors():
    assert householder_pair(0b1010, 0b1010, 4) == (0, 0)


def test_householder_pair_single_reflection_branch():
    # v^T w = 1 - p(v): the one reflection v + w
    assert householder_pair(0b100, 0b010, 3) == (0b110, 0)


def test_householder_pair_disjoint_branch():
    # v and w share no zero: a joins the top bit only v has and the top
    # bit only w has
    a, b = householder_pair(0b111100, 0b001111, 6)
    assert (a, b) == (0b100010, 0b010001)
    assert reflect(b, reflect(a, 0b111100)) == 0b001111


def test_householder_pair_routes_every_pair_both_ways():
    """Every pair of equal parity at n = 2..6, neither zero nor all-ones."""
    for n in range(2, 7):
        full = (1 << n) - 1
        for v, w in itertools.product(range(1, full), repeat=2):
            if (v.bit_count() ^ w.bit_count()) & 1:
                continue
            a, b = householder_pair(v, w, n)
            assert a.bit_count() % 2 == 0 and b.bit_count() % 2 == 0
            assert reflect(b, reflect(a, v)) == w
            # the same pair routes the reverse direction
            assert reflect(b, reflect(a, w)) == v


SELECTORS = (
    "zero",
    "one-bit",
    "two-bit",
    "random",
    "short",
    "below-switch",
    "at-switch",
    "above-switch",
)


def read_through_compress(x):
    """Whether gather and rank_one read the rows of x through compress:
    a reflection by x on the identity rows calls it twice or never."""
    m = x.bit_length()
    rows = [1 << (m - 1 - i) for i in range(m)]
    with mock.patch.object(_bits, "compress", wraps=itertools.compress) as spy:
        rank_one(rows, x, x, m)
    assert spy.call_count in (0, 2)
    return spy.call_count == 2


@functools.cache
def switch_weight(m):
    """The least weight at which a selector of bit length m is read through
    compress, by bisection; m + 1 when no weight of that length is."""
    ones = (1 << m) - 1

    def top_bits_dense(w):
        return read_through_compress(ones ^ (ones >> w))

    return bisect.bisect_left(range(1, m + 1), True, key=top_bits_dense) + 1


def selector(rng, n, kind):
    """A vector of length n: zero, one or two set bits, uniform, uniform
    of a random shorter bit length (a level k < n of the builders), or of
    bit length m <= n and weight one below, at or one above the weight
    at which gather and rank_one switch to compress."""
    if kind == "random":
        return rng.getrandbits(n)
    if kind == "short":
        return rng.getrandbits(rng.randint(1, n))
    if kind.endswith("switch"):
        m = rng.randint(1, n)
        shift = {"below-switch": -1, "at-switch": 0, "above-switch": 1}[kind]
        weight = min(max(switch_weight(m) + shift, 1), m)
        x = sum(1 << p for p in rng.sample(range(m - 1), weight - 1)) | 1 << (m - 1)
        assert x.bit_length() == m and x.bit_count() == weight
        assert read_through_compress(x) == (weight >= switch_weight(m))
        return x
    weight = {"zero": 0, "one-bit": 1, "two-bit": 2}[kind]
    return sum(1 << p for p in rng.sample(range(n), min(weight, n)))


def check_rank_one(n, seed, u_kind, h_kind):
    rng = random.Random(seed)
    want = [rng.getrandbits(n) for _ in range(n)]
    u, h = selector(rng, n, u_kind), selector(rng, n, h_kind)
    got = list(want)
    ref_rank_one(want, u, h, n)
    rank_one(got, u, h, n)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(lengths, seeds, st.sampled_from(SELECTORS), st.sampled_from(SELECTORS))
@example(1, 0, "one-bit", "one-bit")
@example(MAX_LEN, 1, "two-bit", "random")
@example(64, 2, "at-switch", "below-switch")
@example(256, 3, "above-switch", "short")
@example(1024, 4, "below-switch", "at-switch")
@example(2048, 5, "at-switch", "above-switch")
def test_rank_one_matches_inlined_loops(n, seed, u_kind, h_kind):
    """u and h drawn independently, not only the pairs (a, a) and (eta h, h)."""
    check_rank_one(n, seed, u_kind, h_kind)


def test_rank_one_matches_inlined_loops_at_4096():
    for seed, (u_kind, h_kind) in enumerate(itertools.product(SELECTORS, repeat=2)):
        check_rank_one(4096, seed, u_kind, h_kind)


@settings(max_examples=40, deadline=None)
@given(lengths, seeds, st.sampled_from(SELECTORS))
@example(1, 0, "random")
@example(64, 1, "at-switch")
@example(1024, 2, "below-switch")
@example(4096, 3, "at-switch")
@example(4096, 4, "above-switch")
@example(4096, 5, "two-bit")
def test_gather_matches_loop(n, seed, kind):
    rows = words(seed, n, n)
    x = selector(random.Random(seed), n, kind)
    acc = 0
    for i in range(n):
        if (x >> (n - 1 - i)) & 1:
            acc ^= rows[i]
    assert gather(rows, x, n) == acc


shapes = st.tuples(lengths, lengths, lengths)


def ref_product(a_rows, b_rows, n):
    """A B by one gather per row of A, as BitMatrix.mul was before product."""
    return [gather(b_rows, r, n) for r in a_rows]


@settings(max_examples=80, deadline=None)
@given(shapes, seeds)
@example((1, 1, 1), 0)  # width 1: seven padding rows in the only byte
@example((7, 1, MAX_LEN), 1)
@example((MAX_LEN, 8, 3), 2)  # one whole byte, no padding
@example((5, 9, 11), 3)  # one bit past a byte
@example((9, MAX_LEN, MAX_LEN), 4)
def test_product_matches_gather_loop_and_dense(shape, seed):
    r, k, c = shape
    a = words(seed, k, r)
    b = words(seed + 1, c, k)
    got = product(a, b, k)
    assert got == ref_product(a, b, k)
    A, B = BitMatrix(r, k, tuple(a)), BitMatrix(k, c, tuple(b))
    assert tuple(got) == packed((dense(A) @ dense(B)) % 2)


@pytest.mark.parametrize("seed", range(4))
def test_span_table_xors_the_selected_vectors(seed):
    rng = random.Random(seed)
    vecs = [rng.choice([0, rng.getrandbits(70)]) for _ in range(7)]
    table = span_table(iter(vecs))
    assert len(table) == 1 << len(vecs)
    for i, x in enumerate(table):
        picked = itertools.compress(vecs, map(int, f"{i:07b}"[::-1]))  # bit 0 first
        assert x == functools.reduce(operator.xor, picked, 0)


@pytest.mark.parametrize("k", [1, 7, 8, 9, 64, 65])
def test_product_of_unit_rows_selects_rows(k):
    # e_i^T B is row i of B: every bit position of every byte, in order
    b = words(k, 2 * k + 3, k)
    assert product([1 << (k - 1 - i) for i in range(k)], b, k) == b
    assert product([(1 << k) - 1, 0], b, k) == [functools.reduce(operator.xor, b), 0]
    assert product([], b, k) == []


def test_product_matches_gather_loop_at_4096():
    a = words(4096, 4096, 4096)
    b = words(4097, 4096, 4096)
    assert product(a, b, 4096) == ref_product(a, b, 4096)


@settings(max_examples=40, deadline=None)
@given(shapes, seeds)
def test_mul_matches_dense(shape, seed):
    r, k, c = shape
    A = BitMatrix(r, k, tuple(words(seed, k, r)))
    B = BitMatrix(k, c, tuple(words(seed + 1, c, k)))
    assert A.mul(B).data == packed((dense(A) @ dense(B)) % 2)


@settings(max_examples=40, deadline=None)
@given(lengths, lengths, seeds)
def test_transpose_matches_dense(r, c, seed):
    A = BitMatrix(r, c, tuple(words(seed, c, r)))
    assert A.transpose().data == packed(dense(A).T)


@settings(max_examples=60, deadline=None)
@given(lengths, lengths, seeds)
@example(1, 1, 0)
@example(1, MAX_LEN, 1)
@example(MAX_LEN, 1, 2)
@example(MAX_LEN, MAX_LEN - 1, 3)
def test_transpose_matches_scatter_loop(r, c, seed):
    A = BitMatrix(r, c, tuple(words(seed, c, r)))
    assert A.transpose() == ref_transpose(A)


def test_transpose_matches_scatter_loop_at_4096():
    A = BitMatrix(4096, 4096, tuple(words(4096, 4096, 4096)))
    assert A.transpose() == ref_transpose(A)


# ---------------------------------------------------------------------------
# the Jordan-Wigner relabeling against the dense reference make_form("jw")


even_lengths = st.integers(1, MAX_LEN // 2).map(lambda k: 2 * k)


def check_jw_vectors(n, seed):
    W = make_form("jw", n)
    for x in words(seed, n, 4):
        assert jw_col(x, n) == W.mulvec(BitVec(n, x)).bits
        # x^T W: the XOR of the rows of W that x selects
        rows = (row for i, row in enumerate(W.data) if (x >> (n - 1 - i)) & 1)
        assert jw_row(x, n) == functools.reduce(operator.xor, rows, 0)
        assert jw_col(jw_col(x, n), n) == x


def check_jordan_wigner_map(n, seed):
    W = make_form("jw", n)
    for k, x in enumerate(words(seed, n, 2)):
        for basis, other in (("majorana", "pauli"), ("pauli", "majorana")):
            s = MajoranaString(k, BitVec(n, x), basis)
            t = jordan_wigner_map(s)
            assert t == MajoranaString(k, W.mulvec(s.v), other)
            assert jordan_wigner_map(t) == s


@given(even_lengths, seeds)
def test_jw_vector_kernels_match_matrix(n, seed):
    check_jw_vectors(n, seed)
    Wt = make_form("jw", n).transpose()
    for x in words(seed + 1, n, 2):
        assert jw_row(x, n) == Wt.mulvec(BitVec(n, x)).bits


@given(even_lengths, seeds)
def test_jordan_wigner_map_matches_matrix(n, seed):
    check_jordan_wigner_map(n, seed)


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (1024, 8192) for seed in range(2)])
def test_jw_kernels_match_matrix_at_large_lengths(n, seed):
    check_jw_vectors(n, seed)
    check_jordan_wigner_map(n, seed)


@settings(max_examples=40, deadline=None)
@given(even_lengths, seeds)
def test_jw_conjugate_matches_matrix_products(n, seed):
    W = make_form("jw", n)
    M = BitMatrix(n, n, tuple(words(seed, n, n)))
    assert tuple(jw_conjugate(M.data, n)) == W.mul(M).mul(W).data


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_jw_conjugate_on_every_unit_matrix(n):
    W = make_form("jw", n)
    for i, p in itertools.product(range(n), range(n)):
        rows = [0] * n
        rows[i] = 1 << p
        M = BitMatrix(n, n, tuple(rows))
        assert tuple(jw_conjugate(rows, n)) == W.mul(M).mul(W).data
