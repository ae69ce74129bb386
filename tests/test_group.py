"""Orthogonal/symplectic sampling, Householder machinery, braid words."""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pclifford.f2core import BitMatrix, BitVec, dot, make_form, parse_matrix
from pclifford.strings import MajoranaString
from pclifford.dense import dense_braid, dense_string
from pclifford.group import (
    CliffordWord,
    OrthogonalMap,
    SymplecticMap,
    braid_action,
    decompose_orthogonal,
    format_braid_word,
    group_order,
    level_bits,
    level_sizes,
    parse_braid_word,
    reflection_product,
    sample_orthogonal,
    sample_orthogonal_random,
    sample_symplectic,
    sample_symplectic_random,
    word_orthogonal,
)


def bv(text):
    return BitVec.from_string(text)


def reflect(a, v):
    return v ^ a if dot(a, v) else v  # h_a v = v + (a^T v) a


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
        assert reflection_product([bv("1100")], 4).mulvec(bv("1000")) == bv("0100")

    @given(even_vectors(8))
    def test_involution(self, a):
        h = reflection_product([a], 8)
        assert h.mul(h) == BitMatrix.identity(8)

    @given(even_vectors(8))
    def test_fixes_all_ones(self, a):
        j = make_form("all_ones", 8)
        assert reflection_product([a], 8).mulvec(j) == j

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            reflection_product([bv("100")], 3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            reflection_product([bv("1100")], 6)

    def test_empty_product_is_identity(self):
        assert reflection_product([], 6) == BitMatrix.identity(6)

    def test_word_acts_reflection_by_reflection_at_4096_labels(self):
        # rightmost reflection acts first, at a size far past the small cases
        rng = random.Random(29)
        word = []
        for _ in range(4):
            bits = rng.getrandbits(4096)
            word.append(BitVec(4096, bits ^ (bits.bit_count() & 1)))
        m = reflection_product(word, 4096)
        for _ in range(3):
            v = BitVec(4096, rng.getrandbits(4096))
            expect = v
            for a in reversed(word):
                expect = reflect(a, expect)
            assert m.mulvec(v) == expect

    @given(even_vectors(8), even_vectors(8))
    @settings(max_examples=200)
    def test_reflection_braiding(self, a, b):
        # h_b h_a h_b = h_{h_b a}
        hb = reflection_product([b], 8)
        lhs = hb.mul(reflection_product([a], 8)).mul(hb)
        assert lhs == reflection_product([hb.mulvec(a)], 8)


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

    @pytest.mark.parametrize("kind, step", [("orthogonal", 1), ("symplectic", 2)])
    def test_pairwise_product_is_the_product_of_the_level_sizes(self, kind, step):
        for dim in [*range(step, 41, step), 258 - step, 258]:  # Sp: 256, not 257
            assert group_order(kind, dim) == math.prod(level_sizes(kind, dim)), dim

    def test_errors(self):
        with pytest.raises(ValueError):
            group_order("symplectic", 3)
        with pytest.raises(ValueError):
            group_order("unitary", 4)
        with pytest.raises(ValueError):
            group_order("orthogonal", 0)


@pytest.mark.parametrize("dim", [True, False, 2.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda d: sample_orthogonal(d, 1),
        lambda d: sample_orthogonal_random(d, seed=1),
        lambda d: sample_symplectic(d, 1),
        lambda d: sample_symplectic_random(d, seed=1),
        lambda d: level_sizes("orthogonal", d),
        lambda d: level_bits("symplectic", d),
        lambda d: group_order("orthogonal", d),
    ],
    ids=["index", "random", "sp-index", "sp-random", "sizes", "bits", "order"],
)
def test_a_dimension_that_is_not_an_int_is_refused(call, dim):
    """True == 1 and 2.0 == 2, yet they would print as true and 2.0 in a
    report: the group check takes ints only, before the order's memo."""
    group_order("orthogonal", 1), group_order("orthogonal", 2)
    with pytest.raises(ValueError, match=f"dimension must be an int, not {dim!r}"):
        call(dim)


@pytest.mark.parametrize(
    "call, x",
    [
        (lambda x: sample_orthogonal(4, x), 2.0),
        (lambda x: sample_orthogonal(4, x), True),
        (lambda x: sample_symplectic(2, x), 1.5),
        (lambda x: sample_symplectic(2, x, "majorana"), False),
    ],
    ids=["o-float", "o-bool", "sp-float", "sp-bool"],
)
def test_an_index_that_is_not_an_int_is_refused(call, x):
    """True == 1, yet it would pick the element at index 1; a float has
    no bit length to range-check."""
    with pytest.raises(ValueError, match=f"^index must be an int, not {x!r}$"):
        call(x)


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


@pytest.mark.parametrize(
    "sampler, low", [(sample_orthogonal, 2095105), (sample_symplectic, 2097152)], ids=_param_id
)
def test_over_long_index_is_refused_before_any_division(sampler, low):
    """|G| < 2^(level_bits + len(level_sizes)), so a longer index is out of
    range without dividing it by the level sizes, which takes seconds here."""
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        sampler(2048, 1 << 4_000_000)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == (
        f"index of 4000001 bits out of range 1..N, a group order N of at least 2^{low}"
    )


@pytest.mark.parametrize("kind, step", [("orthogonal", 1), ("symplectic", 2)])
def test_the_last_index_is_within_the_bit_bound(kind, step):
    """The bound that skips the divisions never skips an index in range."""
    for dim in range(step, 41, step):
        bound = level_bits(kind, dim) + len(level_sizes(kind, dim))
        assert (group_order(kind, dim) - 1).bit_length() <= bound


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
            assert out.v == reflect(a, v)

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
                expect = reflect(a, expect)
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


@pytest.mark.parametrize(
    "call, message",
    [(lambda: braid_action(bv("11"), MajoranaString(0, bv("1100"))), "length mismatch")],
)
def test_input_checks_raise_their_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
