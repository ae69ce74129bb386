"""Isotropic subspaces, encoders, stabilizer elements, logical operators."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pclifford.f2core import BitVec, dot, make_form, rank_ints, solve_affine, symp_product
from pclifford.strings import MajoranaString, compose
from pclifford.group import (
    decompose_orthogonal,
    sample_orthogonal_random,
    word_orthogonal,
)
from pclifford.dense import dense_braid, dense_string, stabilizer_projector_dense
from pclifford.stabilizer import (
    IsotropicSubspace,
    Stabilizer,
    add_ancilla,
    canonical_isotropic,
    format_stabilizer,
    logical_generators,
    parse_stabilizer,
    stab_clifford,
    stabilizer_element,
    state_parity,
    transform_isotropic,
    validate_isotropic,
)


def bv(text):
    return BitVec.from_string(text)


def reflect(a, v):
    return v ^ a if dot(a, v) else v  # h_a v = v + (a^T v) a


def random_isotropic(rng, n, r):
    S = sample_orthogonal_random(2 * n, rng)
    return transform_isotropic(S, canonical_isotropic(n, r))


class TestIsotropicSubspace:
    def test_canonical_shapes(self):
        M = canonical_isotropic(2, 2)
        assert [str(b) for b in M.basis] == ["1100", "0011"]
        M = canonical_isotropic(3, 1)
        assert [str(b) for b in M.basis] == ["110000"]

    def test_canonical_invariants(self):
        for n in range(1, 6):
            for r in range(1, n + 1):
                M = canonical_isotropic(n, r)
                for b in M.basis:
                    assert b.parity == 0
                for b1 in M.basis:
                    for b2 in M.basis:
                        assert symp_product(b1, b2) == 0

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            canonical_isotropic(2, 0)
        with pytest.raises(ValueError):
            canonical_isotropic(2, 3)

    def test_basis_is_canonicalized(self):
        # generator order and combinations do not change the stored basis
        a = validate_isotropic([bv("1100"), bv("0011")])
        b = validate_isotropic([bv("1111"), bv("1100")])
        assert a.basis == b.basis
        assert a == b

    def test_rejects_bad_generators(self):
        with pytest.raises(ValueError):
            validate_isotropic([bv("1000")])  # odd parity
        with pytest.raises(ValueError):
            validate_isotropic([bv("1100"), bv("0110")])  # anticommuting
        with pytest.raises(ValueError):
            validate_isotropic([bv("1100"), bv("1100")])  # dependent
        with pytest.raises(ValueError):
            validate_isotropic([])

    def test_rejects_overfull(self):
        # n + 1 pairwise-commuting even vectors cannot all be independent,
        # so overfullness always surfaces as a dependence error
        with pytest.raises(ValueError):
            validate_isotropic([bv("1100"), bv("0011"), bv("1111")])

    def test_reduce_is_coset_canonical(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 5)
            M = random_isotropic(rng, n, rng.randint(1, n))
            v = BitVec(2 * n, rng.randrange(1 << (2 * n)))
            red = M.reduce(v)
            # same coset, and minimal over the whole coset
            assert M.contains(red ^ v)
            for mask in range(1 << M.r):
                member = red.bits
                for i in range(M.r):
                    if (mask >> i) & 1:
                        member ^= M.basis[i].bits
                assert red.bits <= member

    def test_contains_and_coords(self):
        M = validate_isotropic([bv("1100"), bv("0011")])
        assert M.contains(bv("1111"))
        assert not M.contains(bv("0110"))
        assert M.coords(bv("1111")) == (1, 1)
        assert M.coords(bv("0011")) == (0, 1)
        with pytest.raises(ValueError):
            M.coords(bv("0110"))

    def test_names_the_first_pair_that_does_not_commute(self):
        # the pairwise symp_product loop the row-parity check replaced
        rng = random.Random(5)
        clashes = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            rows = [BitVec(2 * n, rng.randrange(1 << (2 * n))) for _ in range(rng.randint(1, n))]
            rows = [BitVec(2 * n, b.bits ^ b.parity) for b in rows]  # even
            first = next(
                ((b, c) for i, b in enumerate(rows) for c in rows[i + 1 :] if symp_product(b, c)),
                None,
            )
            if first is None:
                continue
            clashes += 1
            with pytest.raises(ValueError) as err:
                IsotropicSubspace(n, tuple(rows))
            assert str(err.value) == f"generators {first[0]} and {first[1]} do not commute"
        assert clashes > 50

    def test_rejects_rows_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="generator length does not match the mode count"):
            IsotropicSubspace(3, (bv("1100"),))
        with pytest.raises(ValueError, match="even length"):
            validate_isotropic([bv("110")])

    def test_reduce_rejects_the_wrong_length(self):
        with pytest.raises(ValueError, match="length mismatch"):
            canonical_isotropic(2, 1).reduce(bv("110000"))

    def test_contains_all_ones(self):
        assert canonical_isotropic(2, 2).contains_all_ones()
        assert not canonical_isotropic(2, 1).contains_all_ones()
        assert not add_ancilla(canonical_isotropic(2, 2)).contains_all_ones()


class TestAddAncilla:
    def test_shifts_and_grows(self):
        M = add_ancilla(canonical_isotropic(2, 2))
        assert M.n == 3 and M.r == 2
        assert [str(b) for b in M.basis] == ["110000", "001100"]

    def test_preserves_isotropy_random(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 6)
            M = random_isotropic(rng, n, rng.randint(1, n))
            grown = add_ancilla(M)
            assert grown.r == M.r and grown.n == M.n + 1


def assert_routes(word, M):
    """The word has at most 2r even reflections and its product S sends
    each canonical generator to the basis vector of the same index."""
    assert len(word.gens) <= 2 * M.r and word.n == M.n
    S = word_orthogonal(word)
    std = canonical_isotropic(M.n, M.r)
    for e, b in zip(std.basis, M.basis):
        assert S.m.mulvec(e) == b


class TestStabClifford:
    def test_canonical_routes_to_identity(self):
        for n in range(2, 6):
            for r in range(1, n):
                word = stab_clifford(canonical_isotropic(n, r))
                assert word.gens == ()
                assert_routes(word, canonical_isotropic(n, r))

    def test_refuses_past_the_label_cap(self):
        # checked before any reflection is chosen
        with pytest.raises(ValueError, match="4098 labels exceed the cap of 4096 labels"):
            stab_clifford(canonical_isotropic(2049, 1))

    def test_rejects_all_ones_member(self):
        with pytest.raises(ValueError, match="add_ancilla"):
            stab_clifford(canonical_isotropic(3, 3))

    def test_random_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            n0 = rng.randint(1, 12)
            r = rng.randint(1, n0)
            M = add_ancilla(random_isotropic(rng, n0, r))
            assert_routes(stab_clifford(M), M)

    def test_output_is_orthogonal(self):
        # the OrthogonalMap constructor verifies m^T m = I; survival is the test
        rng = random.Random(9)
        for _ in range(20):
            M = add_ancilla(random_isotropic(rng, 4, rng.randint(1, 4)))
            word_orthogonal(stab_clifford(M))

    def test_routes_at_the_label_cap(self):
        # canonical pairs mixed by seeded even reflections, at 4096 labels
        rng = random.Random(13)
        n, r = 2048, 4
        basis = canonical_isotropic(n, r).basis
        for _ in range(8):
            bits = rng.getrandbits(2 * n)
            a = BitVec(2 * n, bits ^ (bits.bit_count() & 1))
            basis = tuple(reflect(a, b) for b in basis)
        M = IsotropicSubspace(n, basis)
        assert_routes(stab_clifford(M), M)


class TestStabilizerElement:
    def test_composition_law(self):
        # mubar(m) mubar(m') = mubar(m + m') thanks to the sign character
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 4)
            r = rng.randint(1, n)
            space = random_isotropic(rng, n, r)
            stab = Stabilizer(space, BitVec(2 * n, rng.randrange(1 << (2 * n))))
            members = []
            for mask in range(1 << r):
                bits = 0
                for i in range(r):
                    if (mask >> i) & 1:
                        bits ^= space.basis[i].bits
                members.append(BitVec(2 * n, bits))
            m1 = rng.choice(members)
            m2 = rng.choice(members)
            lhs = compose(stabilizer_element(stab, m1), stabilizer_element(stab, m2))
            assert lhs == stabilizer_element(stab, m1 ^ m2)

    def test_elements_are_hermitian(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 4)
            space = random_isotropic(rng, n, rng.randint(1, n))
            stab = Stabilizer(space, BitVec(2 * n, rng.randrange(1 << (2 * n))))
            for b in space.basis:
                elem = stabilizer_element(stab, b)
                assert elem.phase in (0, 2)

    def test_sign_character(self):
        space = validate_isotropic([bv("1100")])
        plus = Stabilizer(space, bv("0000"))
        minus = Stabilizer(space, bv("1000"))
        assert stabilizer_element(plus, bv("1100")).phase == 0
        assert stabilizer_element(minus, bv("1100")).phase == 2

    def test_rejects_non_member(self):
        stab = Stabilizer(canonical_isotropic(2, 1))
        with pytest.raises(ValueError):
            stabilizer_element(stab, bv("0011"))

    def test_distinct_sign_classes_give_distinct_projectors(self):
        # the 2^r sign classes resolve the identity
        n, r = 2, 2
        space = canonical_isotropic(n, r)
        reps = []
        for bits in range(1 << (2 * n)):
            v = space.reduce(BitVec(2 * n, bits))
            if v not in reps:
                reps.append(v)
        assert len(reps) == 1 << r
        total = np.zeros((1 << n, 1 << n), dtype=complex)
        for v in reps:
            total += stabilizer_projector_dense(Stabilizer(space, v))
        assert np.allclose(total, np.eye(1 << n), atol=1e-12)


class TestLogicalGenerators:
    def test_count_and_reduction(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 5)
            r = rng.randint(1, n)
            space = random_isotropic(rng, n, r)
            stab = Stabilizer(space)
            logs = logical_generators(stab)
            assert len(logs) == 2 * (n - r)
            for ell in logs:
                # commutes with the whole stabilizer group
                for b in space.basis:
                    assert symp_product(ell, b) == 0
                # already the canonical coset representative
                assert space.reduce(ell) == ell
                assert ell.bits != 0

    def test_independent_modulo_space(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(2, 5)
            r = rng.randint(1, n - 1)
            space = random_isotropic(rng, n, r)
            logs = logical_generators(Stabilizer(space))
            base = [b.bits for b in space.basis]
            assert rank_ints(base + [l.bits for l in logs]) == r + len(logs)

    def test_maximal_case_empty(self):
        assert logical_generators(Stabilizer(canonical_isotropic(3, 3))) == []


class TestStateParity:
    def test_requires_maximal(self):
        with pytest.raises(ValueError):
            state_parity(Stabilizer(canonical_isotropic(2, 1)))

    def test_canonical_vacuum_is_even(self):
        assert state_parity(Stabilizer(canonical_isotropic(3, 3))) == 1

    def test_single_excitation_is_odd(self):
        stab = Stabilizer(canonical_isotropic(2, 2), bv("1000"))
        assert state_parity(stab) == -1

    def test_matches_projected_parity_dense(self):
        # the parity operator is only defined up to sign; the convention that
        # makes state_parity exact is the product of the stored basis strings,
        # which is the group element of the zero-sign stabilizer at j
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(1, 3)
            space = random_isotropic(rng, n, n)
            stab = Stabilizer(space, BitVec(2 * n, rng.randrange(1 << (2 * n))))
            P = stabilizer_projector_dense(stab)
            mubar = stabilizer_element(Stabilizer(space), make_form("all_ones", 2 * n))
            got = np.trace(P @ dense_string(mubar)) / np.trace(P)
            assert abs(got - state_parity(stab)) < 1e-9


class TestTransform:
    def test_transform_isotropic_preserves_rank(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(1, 5)
            M = random_isotropic(rng, n, rng.randint(1, n))
            S = sample_orthogonal_random(2 * n, rng)
            out = transform_isotropic(S, M)
            assert out.r == M.r and out.n == M.n

    def test_transform_isotropic_dense_support(self):
        # conjugating the projector by a word of S gives support exactly
        # the span of transform_isotropic(S, space), each coefficient of
        # magnitude 2^(-r); the signs depend on the word, so none is checked
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 3)
            r = rng.randint(1, n)
            space = random_isotropic(rng, n, r)
            stab = Stabilizer(space, BitVec(2 * n, rng.randrange(1 << (2 * n))))
            S = sample_orthogonal_random(2 * n, rng)
            moved = transform_isotropic(S, space)
            U = np.eye(1 << n, dtype=complex)
            P = stabilizer_projector_dense(stab)
            # realize S densely through its reflection word
            for a in decompose_orthogonal(S):
                U = U @ dense_braid(a)
            # dense word multiplies left to right; conjugate P by it
            conj = U @ P @ U.conj().T
            dim = 1 << n
            for bits in range(1 << (2 * n)):
                v = BitVec(2 * n, bits)
                coef = np.trace(conj @ dense_string(MajoranaString(0, v))) / dim
                if moved.contains(v):
                    assert abs(abs(coef) - 2.0 ** (-r)) < 1e-9
                else:
                    assert abs(coef) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transform_isotropic(
                sample_orthogonal_random(4, 1), canonical_isotropic(3, 1)
            )


class TestTextFormat:
    def test_round_trip(self):
        stab = Stabilizer(canonical_isotropic(3, 2), bv("100000"))
        again = parse_stabilizer(format_stabilizer(stab))
        assert again == stab

    def test_parse_example(self):
        stab = parse_stabilizer("n=3 r=1\n111100\n")
        assert stab.n == 3 and stab.r == 1
        assert stab.space.basis == (bv("111100"),)
        assert stab.sign_vector.bits == 0

    def test_sign_line(self):
        stab = parse_stabilizer("n=2 r=1\n1100\nsign=0100\n")
        assert stab.sign_vector == bv("0100")

    def test_repeated_sign_line(self):
        # one sign line at most, as the header takes each key once
        with pytest.raises(ValueError, match=r"^repeated sign line 'sign=0100'$"):
            parse_stabilizer("n=2 r=1\n1100\nsign=1000\nsign=0100\n")

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_stabilizer("")
        with pytest.raises(ValueError):
            parse_stabilizer("r=1\n1100\n")
        with pytest.raises(ValueError):
            parse_stabilizer("n=2 r=2\n1100\n")
        with pytest.raises(ValueError):
            parse_stabilizer("n=2 r=1\n1100\nwhat=1\n")
        with pytest.raises(ValueError):
            parse_stabilizer("n=3 r=1\n1100\n")


def test_parse_rejects_negative_generator_count():
    with pytest.raises(ValueError, match=r"r=-1 must be >= 0"):
        parse_stabilizer("n=2 r=-1\n")


# ---------------------------------------------------------------------------
# the isotropy gate: commuting independent even rows are accepted, and
# then r <= n with no pivot at bit 0, so neither needs a check of its own


def check_isotropy_gate(n, rows):
    """IsotropicSubspace accepts rows exactly when they commute pairwise
    and are independent, and what it accepts has r <= n and every pivot
    above bit 0."""
    assert all(b.n == 2 * n and b.parity == 0 for b in rows)
    commute = all((a.bits & b.bits).bit_count() % 2 == 0 for a in rows for b in rows)
    independent = rank_ints(b.bits for b in rows) == len(rows)
    if not (commute and independent):
        with pytest.raises(ValueError, match="do not commute|linearly dependent"):
            IsotropicSubspace(n, tuple(rows))
        return
    M = IsotropicSubspace(n, tuple(rows))
    assert M.r == len(rows) <= n
    assert all(b.bits.bit_length() > 1 for b in M.basis)  # leading bit is the pivot


@pytest.mark.parametrize("n", [1, 2])
def test_isotropy_gate_on_every_set_of_even_rows(n):
    evens = [BitVec(2 * n, x) for x in range(1 << (2 * n)) if x.bit_count() % 2 == 0]
    for k in range(len(evens) + 1):
        for rows in itertools.combinations(evens, k):
            check_isotropy_gate(n, rows)


@st.composite
def even_row_sets(draw):
    """n <= 6 and up to n + 2 even rows: uniform ones, which seldom
    commute, or combinations of a maximal isotropic basis, which always
    do and can be dependent or overfull."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        xs = draw(st.lists(st.integers(0, (1 << (2 * n)) - 1), max_size=n + 2))
        return n, [BitVec(2 * n, x ^ (x.bit_count() & 1)) for x in xs]
    S = sample_orthogonal_random(2 * n, draw(st.integers(0, 2**32)))
    basis = transform_isotropic(S, canonical_isotropic(n, n)).basis
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
    rows = []
    for mask in masks:
        bits = 0
        for i, b in enumerate(basis):
            if mask >> i & 1:
                bits ^= b.bits
        rows.append(BitVec(2 * n, bits))
    return n, rows


@settings(max_examples=300, deadline=None)
@given(even_row_sets())
def test_isotropy_gate_on_random_even_rows(case):
    check_isotropy_gate(*case)


# ---------------------------------------------------------------------------
# the two pivot-reduction loops that the shared one replaced


def ref_reduce(space, v):
    """IsotropicSubspace.reduce with its own loop."""
    if v.n != 2 * space.n:
        raise ValueError("length mismatch")
    bits = v.bits
    for row in space.basis:
        pivot = 1 << (row.bits.bit_length() - 1)
        if bits & pivot:
            bits ^= row.bits
    return BitVec(v.n, bits)


def ref_logical_generators(stab):
    """logical_generators with its own loop."""
    space = stab.space
    n2 = 2 * space.n
    sol = solve_affine(space.matrix(), BitVec(space.r, 0))
    assert sol is not None  # homogeneous systems are always consistent
    acc = [b.bits for b in space.basis]
    out = []
    for kv in sol.kernel:
        bits = kv.bits
        for row in acc:
            pivot = 1 << (row.bit_length() - 1)
            if bits & pivot:
                bits ^= row
        if bits:
            acc.append(bits)
            out.append(BitVec(n2, bits))
    assert len(out) == n2 - 2 * space.r, "centralizer dimension mismatch"
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_pivot_reduction_matches_its_loops(n):
    rng = random.Random(n)
    n2 = 2 * n
    for r in range(1, n + 1):
        for _ in range(4):
            M = random_isotropic(rng, n, r)
            for _ in range(8):
                v = BitVec(n2, rng.getrandbits(n2))
                assert M.reduce(v) == ref_reduce(M, v)
            stab = Stabilizer(M, BitVec(n2, rng.getrandbits(n2)))
            assert logical_generators(stab) == ref_logical_generators(stab)
