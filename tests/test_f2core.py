"""Packed F2 linear algebra: forms, products, solvers, text format."""

from functools import reduce
from operator import xor

import pytest
from hypothesis import given, strategies as st

from pclifford.f2core import (
    AffineSolution,
    BitMatrix,
    BitVec,
    complement,
    dot,
    format_matrix,
    make_form,
    parse_matrix,
    rank_ints,
    rref_ints,
    solve_affine,
    symp_product,
)


def bv(text):
    return BitVec.from_string(text)


def vecs(max_n=10):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(BitVec, st.just(n), st.integers(0, (1 << n) - 1))
    )


def even_pairs(max_n2=10):
    # two vectors of one common even length
    return st.integers(1, max_n2 // 2).flatmap(
        lambda n: st.tuples(
            st.builds(BitVec, st.just(2 * n), st.integers(0, (1 << (2 * n)) - 1)),
            st.builds(BitVec, st.just(2 * n), st.integers(0, (1 << (2 * n)) - 1)),
        )
    )


def random_matrix(rng, rows, cols):
    return BitMatrix(rows, cols, tuple(rng.randrange(1 << cols) for _ in range(rows)))


class TestBitVec:
    def test_string_round_trip(self):
        v = bv("10110")
        assert str(v) == "10110"
        assert v.n == 5 and v.bits == 0b10110

    def test_index_convention_msb_first(self):
        # index 1 is the leftmost printed character
        v = BitVec(4, 0b1000)
        assert str(v) == "1000"
        assert v.get(1) == 1 and v.get(4) == 0

    def test_indices_in_order(self):
        v = bv("01101")
        assert v.indices() == (2, 3, 5)

    def test_indices_of_zero_and_full(self):
        assert BitVec(5, 0).indices() == ()
        assert bv("11111").indices() == (1, 2, 3, 4, 5)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            BitVec(0, 0)
        with pytest.raises(ValueError):
            BitVec(2, 4)
        with pytest.raises(ValueError):
            BitVec.from_string("10a1")

    @given(even_pairs())
    def test_xor_is_addition(self, pair):
        v, w = pair
        assert (v ^ w) ^ w == v


class TestBitMatrix:
    def test_identity_and_mul(self):
        eye = BitMatrix.identity(4)
        m = parse_matrix("1100\n0110\n0011\n1001\n")
        assert eye.mul(m) == m and m.mul(eye) == m

    def test_transpose_involution(self):
        import random

        rng = random.Random(7)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert m.transpose().transpose() == m

    def test_mulvec_matches_mul(self):
        import random

        rng = random.Random(11)
        for _ in range(30):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            v = BitVec(cols, rng.randrange(1 << cols))
            as_col = m.mul(BitMatrix(cols, 1, tuple((v.bits >> (cols - 1 - i)) & 1 for i in range(cols))))
            assert m.mulvec(v).bits == int("".join(str(r) for r in as_col.data), 2)

    def test_col_extraction(self):
        m = parse_matrix("110\n011\n")
        assert str(m.col(1)) == "10"
        assert str(m.col(2)) == "11"
        assert str(m.col(3)) == "01"

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            BitMatrix(2, 2, (1,))
        with pytest.raises(ValueError):
            BitMatrix(1, 2, (4,))
        with pytest.raises(ValueError):
            parse_matrix("11\n101\n")

    def test_row_range_checked_by_bit_length(self):
        # once OverflowError: the check built 1 << cols
        assert BitMatrix(1, 2**70, (0,)).data == (0,)
        assert BitMatrix(1, 2**70, (1 << 69,)).data == (1 << 69,)
        for row in (-1, 1 << 3):
            with pytest.raises(ValueError):
                BitMatrix(1, 3, (row,))
        with pytest.raises(ValueError):
            BitMatrix(1, 2**70, (-1,))


class TestForms:
    def test_omega_2(self):
        assert make_form("omega", 2) == parse_matrix("01\n10\n")

    def test_complement_identity_is_omega(self):
        for dim in (2, 4, 6, 8):
            assert complement(BitMatrix.identity(dim)) == make_form("omega", dim)

    def test_complement_involution(self):
        m = parse_matrix("101\n010\n")
        assert complement(complement(m)) == m
        v = bv("0110")
        assert complement(complement(v)) == v

    def test_omega_decomposes_into_lower_parts(self):
        # omega = L + L^T with L the strictly lower triangle
        for dim in (2, 3, 5, 8):
            L = make_form("omega_lower", dim)
            total = tuple(a ^ b for a, b in zip(L.data, L.transpose().data))
            assert total == make_form("omega", dim).data

    def test_eta_decomposes_into_lower_parts(self):
        for dim in (2, 4, 6, 10):
            L = make_form("eta_lower", dim)
            total = tuple(a ^ b for a, b in zip(L.data, L.transpose().data))
            assert total == make_form("eta", dim).data

    def test_jw_dim_2_is_identity(self):
        assert make_form("jw", 2) == BitMatrix.identity(2)

    def test_jw_involution_up_to_64(self):
        for dim in range(2, 66, 2):
            W = make_form("jw", dim)
            assert W.mul(W) == BitMatrix.identity(dim)

    def test_jw_intertwines_forms_up_to_64(self):
        for dim in range(2, 66, 2):
            W = make_form("jw", dim)
            eta = make_form("eta", dim)
            assert W.transpose().mul(eta).mul(W) == make_form("omega", dim)

    def test_jw_is_upper_triangle_of_eta_complement(self):
        for dim in (2, 4, 6, 8):
            W = make_form("jw", dim)
            comp = complement(make_form("eta", dim))
            for i in range(1, dim + 1):
                for jcol in range(1, dim + 1):
                    want = comp.row(i).get(jcol) if jcol >= i else 0
                    assert W.row(i).get(jcol) == want

    def test_omega_invertible_up_to_64(self):
        # non-degeneracy of the commutation form
        for dim in range(2, 66, 2):
            assert make_form("omega", dim).rank() == dim

    def test_odd_dim_rejected_for_pair_forms(self):
        for kind in ("eta", "eta_lower", "jw"):
            with pytest.raises(ValueError):
                make_form(kind, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_form("hadamard", 4)


class TestSympProduct:
    def test_single_mode_pairs(self):
        assert symp_product(bv("10"), bv("01")) == 1
        assert symp_product(bv("1100"), bv("0110")) == 1

    @given(even_pairs())
    def test_matches_materialized_form(self, pair):
        v, w = pair
        for basis, kind in (("majorana", "omega"), ("pauli", "eta")):
            form = make_form(kind, v.n)
            assert symp_product(v, w, basis) == dot(v, form.mulvec(w))

    @given(even_pairs())
    def test_alternating(self, pair):
        v, w = pair
        assert symp_product(v, v) == 0
        assert symp_product(v, v, "pauli") == 0
        assert symp_product(v, w) == symp_product(w, v)

    @given(even_pairs(8), even_pairs(8))
    def test_bilinear(self, p1, p2):
        v, w = p1
        u, _ = p2
        if u.n != v.n:
            u = BitVec(v.n, u.bits & ((1 << v.n) - 1) if u.n > v.n else u.bits)
        for basis in ("majorana", "pauli"):
            lhs = symp_product(v ^ u, w, basis)
            assert lhs == symp_product(v, w, basis) ^ symp_product(u, w, basis)

    def test_omega_action_identity(self):
        # omega v = p(v) j + v, exhaustively at 2n <= 8
        for n2 in (2, 4, 6, 8):
            omega = make_form("omega", n2)
            j = make_form("all_ones", n2)
            for bits in range(1 << n2):
                v = BitVec(n2, bits)
                want = BitVec(n2, (j.bits if v.parity else 0) ^ v.bits)
                assert omega.mulvec(v) == want

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            symp_product(BitVec(3, 1), BitVec(3, 1))


def ref_rref_ints(rows):
    """rref_ints before the leading-bit echelon: an insertion-sorted pivot
    list, each new pivot eliminated from every stored row at once."""
    work: list[int] = []
    pivots: list[int] = []
    for r in rows:
        for pr, p in zip(work, pivots):
            if (r >> p) & 1:
                r ^= pr
        if r == 0:
            continue
        p = r.bit_length() - 1
        for k in range(len(work)):
            if (work[k] >> p) & 1:
                work[k] ^= r
        pos = 0
        while pos < len(work) and pivots[pos] > p:
            pos += 1
        work.insert(pos, r)
        pivots.insert(pos, p)
    return work, pivots


@st.composite
def row_lists(draw):
    """0-40 rows of 1-300 bits: fresh rows, zero rows, repeats of earlier
    rows and XOR combinations of earlier rows."""
    width = draw(st.integers(1, 300))
    rows: list[int] = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combo"]))
        if kind == "zero":
            rows.append(0)
        elif kind == "fresh" or not rows:
            rows.append(draw(st.integers(0, (1 << width) - 1)))
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(reduce(xor, draw(st.lists(st.sampled_from(rows), min_size=2, max_size=4))))
    return rows


class TestRref:
    @given(row_lists())
    def test_rref_and_rank_match_the_reference(self, rows):
        want = ref_rref_ints(rows)
        assert rref_ints(rows) == want
        assert rank_ints(rows) == len(want[0])

    @given(row_lists())
    def test_generator_input_matches_the_reference(self, rows):
        want = ref_rref_ints(rows)
        assert rref_ints(r for r in rows) == want
        assert rank_ints(iter(rows)) == len(want[0])

    def test_rank_examples(self):
        assert rank_ints([0b110, 0b011, 0b101]) == 2
        assert rank_ints([0]) == 0
        assert rank_ints([0b1, 0b10, 0b100]) == 3

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=8))
    def test_rref_is_canonical(self, rows):
        red, pivots = rref_ints(rows)
        # pivots strictly decreasing, each pivot clear in every other row
        assert pivots == sorted(pivots, reverse=True)
        for i, (row, p) in enumerate(zip(red, pivots)):
            assert (row >> p) & 1
            for k, other in enumerate(red):
                if k != i:
                    assert not (other >> p) & 1

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=8))
    def test_rref_preserves_row_space(self, rows):
        red, _ = rref_ints(rows)
        spanned = {0}
        for r in red:
            spanned |= {s ^ r for s in spanned}
        for r in rows:
            assert r in spanned


class TestSolveAffine:
    def test_identity_system(self):
        sol = solve_affine(BitMatrix.identity(4), bv("1010"))
        assert sol.x0 == bv("1010") and sol.kernel == ()
        assert sol.count == 1

    def test_zero_matrix(self):
        sol = solve_affine(BitMatrix.zeros(3, 4), BitVec(3, 0))
        assert sol.x0.bits == 0 and len(sol.kernel) == 4

    def test_double_swap_kernel(self):
        # S swaps positions 1<->3 and 2<->4; S + I has kernel dimension 2
        S = parse_matrix("0010\n0001\n1000\n0100\n")
        kicked = BitMatrix(4, 4, tuple(r ^ i for r, i in zip(S.data, BitMatrix.identity(4).data)))
        sol = solve_affine(kicked, BitVec(4, 0))
        assert len(sol.kernel) == 2
        fixed = sum(1 for b in range(16) if S.mulvec(BitVec(4, b)) == BitVec(4, b))
        assert fixed == sol.count == 4

    def test_inconsistent_returns_none(self):
        # both equations read x1, so the right side must repeat
        M = BitMatrix(2, 2, (0b10, 0b10))
        assert solve_affine(M, bv("11")) is not None
        assert solve_affine(M, bv("01")) is None

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**30))
    def test_solutions_actually_solve(self, rows, cols, seedval):
        import random

        rng = random.Random(seedval)
        M = random_matrix(rng, rows, cols)
        b = BitVec(rows, rng.randrange(1 << rows))
        sol = solve_affine(M, b)
        if sol is None:
            # inconsistency certificate: b outside the column span
            assert rank_ints(M.transpose().data + (b.bits,)) > M.rank()
            return
        assert M.mulvec(sol.x0) == b
        for kv in sol.kernel:
            assert M.mulvec(kv).bits == 0
        assert isinstance(sol, AffineSolution)
        assert sol.count == 1 << (cols - M.rank())


class TestTextFormat:
    def test_round_trip(self):
        m = parse_matrix("110\n011\n101\n")
        assert parse_matrix(format_matrix(m)) == m

    def test_blank_line_terminates(self):
        m = parse_matrix("11\n00\n\n10\n")
        assert m.rows == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix("\n\n")


I2 = BitMatrix.identity(2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: bv("101").get(4), ValueError, "index 4 out of range 1..3"),
        (lambda: bv("10") ^ bv("101"), ValueError, "length mismatch"),
        (lambda: BitMatrix(0, 2, ()), ValueError, "matrix dimensions must be >= 1"),
        (lambda: BitMatrix.from_rows([]), ValueError, "need at least one row"),
        (lambda: I2.row(3), ValueError, "row index 3 out of range 1..2"),
        (lambda: I2.col(0), ValueError, "column index 0 out of range 1..2"),
        (lambda: I2.mul(BitMatrix.identity(3)), ValueError, "inner dimensions do not match"),
        (lambda: I2.mulvec(bv("101")), ValueError, "length mismatch"),
        (lambda: dot(bv("10"), bv("101")), ValueError, "length mismatch"),
        (lambda: complement(5), TypeError, "expected BitVec or BitMatrix"),
        (lambda: symp_product(bv("10"), bv("1010")), ValueError, "length mismatch"),
        (lambda: symp_product(bv("10"), bv("11"), "x"), ValueError, "unknown basis 'x'"),
        (lambda: make_form("identity", 0), ValueError, "dimension must be >= 1"),
        (
            lambda: solve_affine(I2, bv("101")),
            ValueError,
            "row count does not match right-hand side",
        ),
    ],
)
def test_input_checks_raise_their_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
