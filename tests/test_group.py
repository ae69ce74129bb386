"""Orthogonal/symplectic sampling, Householder machinery, braid words."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pclifford.f2core import BitMatrix, BitVec, make_form, parse_matrix
from pclifford.strings import MajoranaString
from pclifford.dense import dense_braid, dense_string
from pclifford.group import (
    CliffordWord,
    OrthogonalMap,
    SymplecticMap,
    apply_householder,
    braid_action,
    decompose_orthogonal,
    format_braid_word,
    group_order,
    parse_braid_word,
    reduce_to_elementary,
    reflection_product,
    sample_orthogonal,
    sample_orthogonal_random,
    sample_symplectic,
    sample_symplectic_random,
    word_orthogonal,
)


def bv(text):
    return BitVec.from_string(text)


def even_vectors(n_bits):
    return st.integers(0, (1 << n_bits) - 1).filter(
        lambda b: b.bit_count() % 2 == 0
    ).map(lambda b: BitVec(n_bits, b))


class TestMapTypes:
    def test_orthogonal_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            OrthogonalMap(parse_matrix("11\n01\n"))

    def test_orthogonal_rejects_non_square(self):
        with pytest.raises(ValueError):
            OrthogonalMap(BitMatrix(1, 2, (0b10,)))

    def test_symplectic_rejects_odd_dim(self):
        with pytest.raises(ValueError):
            SymplecticMap(BitMatrix.identity(3))

    def test_symplectic_form_depends_on_basis(self):
        # the jw matrix preserves neither form, but swapping one pair does
        W = make_form("jw", 4)
        with pytest.raises(ValueError):
            SymplecticMap(W)
        swap = parse_matrix("0100\n1000\n0010\n0001\n")
        SymplecticMap(swap, "pauli")
        SymplecticMap(swap, "majorana")

    def test_orthogonal_is_symplectic_small(self):
        # m^T m = I forces m^T omega m = omega; exhaustive at N = 2, 4
        for dim in (2, 4):
            omega = make_form("omega", dim)
            for i in range(1, group_order("orthogonal", dim) + 1):
                m = sample_orthogonal(dim, i).m
                assert m.transpose().mul(omega).mul(m) == omega

    def test_orthogonal_is_symplectic_sampled_dim6(self):
        omega = make_form("omega", 6)
        rng = random.Random(0)
        for _ in range(300):
            m = sample_orthogonal_random(6, rng).m
            assert m.transpose().mul(omega).mul(m) == omega

    def test_word_validates_generators(self):
        with pytest.raises(ValueError):
            CliffordWord(1, (bv("10"),))
        with pytest.raises(ValueError):
            CliffordWord(2, (bv("11"),))
        with pytest.raises(ValueError):
            CliffordWord(1, (), MajoranaString(0, bv("1100")))


class TestHouseholder:
    def test_definition_example(self):
        assert apply_householder(bv("1100"), bv("1000")) == bv("0100")

    @given(even_vectors(8), st.integers(0, 255))
    def test_involution(self, a, vbits):
        v = BitVec(8, vbits)
        assert apply_householder(a, apply_householder(a, v)) == v

    @given(even_vectors(8))
    def test_fixes_all_ones(self, a):
        j = make_form("all_ones", 8)
        assert apply_householder(a, j) == j

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            apply_householder(bv("100"), bv("010"))

    @given(even_vectors(8), even_vectors(8), st.integers(0, 255))
    @settings(max_examples=200)
    def test_reflection_braiding(self, a, b, vbits):
        # h_b h_a h_b = h_{h_b a}
        v = BitVec(8, vbits)
        lhs = apply_householder(b, apply_householder(a, apply_householder(b, v)))
        assert lhs == apply_householder(apply_householder(b, a), v)


class TestGroupOrder:
    def test_orthogonal_values(self):
        assert [group_order("orthogonal", n) for n in range(1, 7)] == [
            1, 2, 6, 48, 720, 23040,
        ]

    def test_symplectic_values(self):
        assert group_order("symplectic", 2) == 6
        assert group_order("symplectic", 4) == 720
        assert group_order("symplectic", 6) == 1451520

    def test_quotient_relation(self):
        # |O(2n)| = |Sp(2n)| / (4^n - 1)
        for n in (1, 2, 3, 4, 5):
            assert group_order("orthogonal", 2 * n) * (4**n - 1) == group_order(
                "symplectic", 2 * n
            )

    def test_errors(self):
        with pytest.raises(ValueError):
            group_order("symplectic", 3)
        with pytest.raises(ValueError):
            group_order("unitary", 4)
        with pytest.raises(ValueError):
            group_order("orthogonal", 0)


class TestSampleOrthogonal:
    def test_dim_1(self):
        assert sample_orthogonal(1, 1).m == BitMatrix.identity(1)

    def test_dim_2_set(self):
        got = {sample_orthogonal(2, i).m.data for i in (1, 2)}
        assert got == {(0b10, 0b01), (0b01, 0b10)}

    def test_bijection_up_to_dim_5(self):
        for dim in range(1, 6):
            order = group_order("orthogonal", dim)
            seen = {sample_orthogonal(dim, i).m.data for i in range(1, order + 1)}
            assert len(seen) == order

    def test_index_range(self):
        with pytest.raises(ValueError):
            sample_orthogonal(4, 0)
        with pytest.raises(ValueError):
            sample_orthogonal(4, 49)

    def test_random_deterministic(self):
        a = sample_orthogonal_random(8, seed=42)
        b = sample_orthogonal_random(8, seed=42)
        assert a == b

    def test_random_accepts_rng_instance(self):
        rng = random.Random(1)
        first = sample_orthogonal_random(6, rng)
        second = sample_orthogonal_random(6, rng)
        assert first != second  # the stream advances

    def test_random_frequencies_dim_3(self):
        # 6 elements; chi-square style sanity bound on 6000 draws
        rng = random.Random(7)
        counts = {}
        for _ in range(6000):
            key = sample_orthogonal_random(3, rng).m.data
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c - 1000) < 5 * (1000 * (5 / 6)) ** 0.5


class TestSampleSymplectic:
    def test_bijection_dim_2_and_4(self):
        for dim, order in ((2, 6), (4, 720)):
            seen = {sample_symplectic(dim, i).m.data for i in range(1, order + 1)}
            assert len(seen) == order

    def test_majorana_basis_conversion(self):
        W = make_form("jw", 4)
        for i in (1, 50, 333, 720):
            p = sample_symplectic(4, i, "pauli")
            m = sample_symplectic(4, i, "majorana")
            assert W.mul(p.m).mul(W) == m.m
            assert m.basis == "majorana"

    def test_majorana_bijection_dim_2(self):
        seen = {sample_symplectic(2, i, "majorana").m.data for i in range(1, 7)}
        assert len(seen) == 6

    def test_index_range(self):
        with pytest.raises(ValueError):
            sample_symplectic(2, 7)
        with pytest.raises(ValueError):
            sample_symplectic(2, 0)

    def test_random_deterministic(self):
        a = sample_symplectic_random(8, seed=9)
        b = sample_symplectic_random(8, seed=9)
        assert a == b
        assert a.basis == "pauli"

    def test_random_majorana_valid(self):
        rng = random.Random(11)
        for _ in range(20):
            sample_symplectic_random(6, rng, "majorana")  # constructor validates

    @pytest.mark.parametrize("basis", ["bogus", "Pauli", ""])
    def test_unknown_basis_rejected(self, basis):
        with pytest.raises(ValueError, match="basis"):
            sample_symplectic(4, 7, basis)
        with pytest.raises(ValueError, match="basis"):
            sample_symplectic_random(4, 7, basis)


def _param_id(v):
    """The sampler's name and the index, by its bit count from 2^64 on:
    pytest would print a huge index into the test name."""
    if callable(v):
        return v.__name__
    if isinstance(v, int):
        return str(v) if abs(v) < 1 << 64 else f"{'-' * (v < 0)}{abs(v).bit_length()}bits"
    return "msg"


@pytest.mark.parametrize(
    "sampler, index, message",
    [
        (sample_orthogonal, 10**5000, "index of 16610 bits out of range 1..48"),
        (sample_orthogonal, -(10**5000), "negative index of 16610 bits out of range 1..48"),
        (sample_symplectic, 10**5000, "index of 16610 bits out of range 1..720"),
        (sample_symplectic, -(10**5000), "negative index of 16610 bits out of range 1..720"),
        # the switch: printed below 2^64, named by its bit count from 2^64 on
        (sample_orthogonal, 2**64 - 1, f"index {2**64 - 1} out of range 1..48"),
        (sample_orthogonal, -(2**64 - 1), f"index {-(2**64 - 1)} out of range 1..48"),
        (sample_symplectic, 2**64, "index of 65 bits out of range 1..720"),
        (sample_symplectic, -(2**64), "negative index of 65 bits out of range 1..720"),
        # small indices keep their message
        (sample_orthogonal, 49, "index 49 out of range 1..48"),
        (sample_orthogonal, 0, "index 0 out of range 1..48"),
        (sample_symplectic, 721, "index 721 out of range 1..720"),
        (sample_symplectic, -5, "index -5 out of range 1..720"),
    ],
    ids=_param_id,
)
def test_out_of_range_index_is_named_by_its_size_from_2_to_the_64(sampler, index, message):
    """Past 4300 digits Python refuses to print an integer, so a huge
    index would raise its digit-limit error instead of this message."""
    with pytest.raises(ValueError) as info:
        sampler(4, index)
    assert str(info.value) == message


class TestDecomposeOrthogonal:
    def test_identity_gives_empty_word(self):
        word = decompose_orthogonal(OrthogonalMap(BitMatrix.identity(6)))
        assert word == []

    def test_single_reflection(self):
        h = reflection_product([bv("1100")], 4)
        word = decompose_orthogonal(OrthogonalMap(h))
        assert reflection_product(word, 4) == h

    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(60):
            dim = rng.choice([2, 4, 6, 8, 10])
            S = sample_orthogonal_random(dim, rng)
            word = decompose_orthogonal(S)
            assert len(word) <= 2 * dim
            assert all(x.parity == 0 for x in word)
            assert reflection_product(word, dim) == S.m

    def test_round_trip_exhaustive_dim_4(self):
        for i in range(1, 49):
            S = sample_orthogonal(4, i)
            assert reflection_product(decompose_orthogonal(S), 4) == S.m


def ref_reduce_to_elementary(a):
    """reduce_to_elementary as a recursion, one level per step: b h_x b."""
    full = (1 << a.n) - 1

    def rec(bits):
        if bits.bit_count() in (2, 4):
            return [bits]
        top3 = 0
        x = bits
        for _ in range(3):
            t = 1 << (x.bit_length() - 1)
            top3 |= t
            x ^= t
        clear = ~bits & full
        b = top3 | (clear & -clear)
        return [b] + rec(bits ^ b) + [b]

    return [BitVec(a.n, bits) for bits in rec(a.bits)]


def random_even(rng, n):
    """An even vector of n bits, neither zero nor all-ones."""
    while True:
        bits = rng.randrange(1, (1 << n) - 1)
        if bits.bit_count() % 2 == 0:
            return BitVec(n, bits)


class TestReduceToElementary:
    def test_matches_the_recursive_reference(self):
        rng = random.Random(23)
        for _ in range(300):
            a = random_even(rng, rng.randint(3, 300))
            assert reduce_to_elementary(a) == ref_reduce_to_elementary(a)

    def test_word_acts_as_the_reflection_at_4096_labels(self):
        # about 2000 steps, past the depth at which a recursion fails
        rng = random.Random(29)
        a = random_even(rng, 4096)
        word = reduce_to_elementary(a)
        assert len(word) == a.weight - 3 and all(x.weight in (2, 4) for x in word)
        for _ in range(3):
            v = BitVec(4096, rng.getrandbits(4096))
            got = v
            for x in reversed(word):
                got = apply_householder(x, got)
            assert got == apply_householder(a, v)

    def test_low_weight_passthrough(self):
        assert reduce_to_elementary(bv("1100")) == [bv("1100")]
        assert reduce_to_elementary(bv("111100")) == [bv("111100")]

    def test_weight_six_example(self):
        got = reduce_to_elementary(bv("11111100"))
        assert got == [bv("11100001"), bv("00011101"), bv("11100001")]

    def test_product_reproduces_reflection(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.choice([6, 8, 10, 12])
            while True:
                bits = rng.randrange(1, (1 << n) - 1)
                if bits.bit_count() % 2 == 0 and bits.bit_count() >= 2:
                    break
            a = BitVec(n, bits)
            word = reduce_to_elementary(a)
            assert all(x.weight in (2, 4) for x in word)
            assert reflection_product(word, n) == reflection_product([a], n)

    def test_rejects_j_and_zero_and_odd(self):
        with pytest.raises(ValueError):
            reduce_to_elementary(bv("111111"))
        with pytest.raises(ValueError):
            reduce_to_elementary(bv("000000"))
        with pytest.raises(ValueError):
            reduce_to_elementary(bv("100"))


class TestBraidAction:
    def test_mode_relabel_example(self):
        out = braid_action(bv("1100"), MajoranaString(0, bv("1000")))
        assert out == MajoranaString(0, bv("0100"))

    def test_commuting_string_unchanged(self):
        s = MajoranaString(2, bv("0011"))
        assert braid_action(bv("1100"), s) == s

    def test_fixes_own_string(self):
        a = bv("0110")
        s = MajoranaString(1, a)
        assert braid_action(a, s) == s

    def test_rejects_odd_without_flag(self):
        with pytest.raises(ValueError):
            braid_action(bv("10"), MajoranaString(0, bv("01")))
        braid_action(bv("10"), MajoranaString(0, bv("01")), allow_odd=True)

    def test_f2_part_is_householder(self):
        rng = random.Random(19)
        for _ in range(200):
            n2 = 2 * rng.randint(1, 4)
            while True:
                ab = rng.randrange(1 << n2)
                if ab.bit_count() % 2 == 0:
                    break
            a = BitVec(n2, ab)
            v = BitVec(n2, rng.randrange(1 << n2))
            out = braid_action(a, MajoranaString(0, v))
            assert out.v == apply_householder(a, v)

    def test_matches_dense_conjugation(self):
        rng = random.Random(23)
        for _ in range(150):
            n2 = 2 * rng.randint(1, 3)
            while True:
                ab = rng.randrange(1 << n2)
                if ab.bit_count() % 2 == 0:
                    break
            a = BitVec(n2, ab)
            s = MajoranaString(rng.randrange(4), BitVec(n2, rng.randrange(1 << n2)))
            B = dense_braid(a)
            want = B @ dense_string(s) @ B.conj().T
            assert np.allclose(dense_string(braid_action(a, s)), want, atol=1e-9)

    def test_matches_dense_conjugation_odd(self):
        rng = random.Random(29)
        for _ in range(80):
            n2 = 2 * rng.randint(1, 3)
            a = BitVec(n2, rng.randrange(1, 1 << n2))
            s = MajoranaString(rng.randrange(4), BitVec(n2, rng.randrange(1 << n2)))
            B = dense_braid(a)
            want = B @ dense_string(s) @ B.conj().T
            got = dense_string(braid_action(a, s, allow_odd=True))
            assert np.allclose(got, want, atol=1e-9)


class TestWordOrthogonal:
    def test_matches_sequential_action(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(1, 4)
            n2 = 2 * n
            gens = []
            for _ in range(rng.randint(0, 5)):
                while True:
                    bits = rng.randrange(1 << n2)
                    if bits.bit_count() % 2 == 0:
                        break
                gens.append(BitVec(n2, bits))
            word = CliffordWord(n, tuple(gens))
            S = word_orthogonal(word)
            v = BitVec(n2, rng.randrange(1 << n2))
            expect = v
            for a in reversed(gens):
                expect = apply_householder(a, expect)
            assert S.m.mulvec(v) == expect


class TestBraidWordFormat:
    def test_round_trip(self):
        word = CliffordWord(2, (bv("1100"), bv("0110")), MajoranaString(3, bv("1111")))
        assert parse_braid_word(format_braid_word(word)) == word

    def test_no_prefix(self):
        word = CliffordWord(3, (bv("110000"),))
        assert parse_braid_word(format_braid_word(word)) == word

    def test_empty_needs_mode_count(self):
        with pytest.raises(ValueError):
            parse_braid_word("")
        assert parse_braid_word("", n=2) == CliffordWord(2)

    def test_prefix_must_lead(self):
        with pytest.raises(ValueError):
            parse_braid_word("B 1100\nP i^0 1100\n")

    def test_unknown_line(self):
        with pytest.raises(ValueError):
            parse_braid_word("Q 1100\n")
