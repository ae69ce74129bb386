"""String algebra: zeta coefficient, composition, commutation, relabeling."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pclifford.f2core import BitVec, make_form, symp_product
from pclifford.strings import (
    MajoranaString,
    commutes,
    compose,
    format_string,
    jordan_wigner_map,
    parity_operator,
    parse_string,
    quad_lower,
    zeta_coeff,
)


def bv(text):
    return BitVec.from_string(text)


def strings(max_n=4, basis="majorana"):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            MajoranaString,
            st.integers(0, 3),
            st.builds(BitVec, st.just(2 * n), st.integers(0, (1 << (2 * n)) - 1)),
            st.just(basis),
        )
    )


def string_triples(max_n=3, basis="majorana"):
    def at(n):
        lab = st.builds(BitVec, st.just(2 * n), st.integers(0, (1 << (2 * n)) - 1))
        s = st.builds(MajoranaString, st.integers(0, 3), lab, st.just(basis))
        return st.tuples(s, s, s)

    return st.integers(1, max_n).flatmap(at)


class TestZeta:
    def test_known_small_values(self):
        assert zeta_coeff(bv("10"), bv("01")) == 3
        assert zeta_coeff(bv("01"), bv("10")) == 1

    def test_self_coefficient_vanishes(self):
        # zeta(v, v) = 1 makes every unphased string square to identity
        for n2 in (2, 4, 6):
            for bits in range(1 << n2):
                v = BitVec(n2, bits)
                assert zeta_coeff(v, v) == 0
                assert zeta_coeff(v, v, "pauli") == 0

    def test_swap_ratio_is_commutation_sign(self):
        # zeta(v,w) - zeta(w,v) = 2 <v,w> mod 4
        for n2 in (2, 4, 6):
            for vb in range(1 << n2):
                for wb in range(1 << n2):
                    v, w = BitVec(n2, vb), BitVec(n2, wb)
                    for basis in ("majorana", "pauli"):
                        diff = (zeta_coeff(v, w, basis) - zeta_coeff(w, v, basis)) % 4
                        assert diff == 2 * symp_product(v, w, basis)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            zeta_coeff(bv("10"), bv("0110"))


class TestQuadLower:
    def test_majorana_counts_ordered_pairs(self):
        # q(v) = w(w-1)/2 mod 2 for weight w
        assert quad_lower(bv("11")) == 1
        assert quad_lower(bv("1110")) == 1
        assert quad_lower(bv("1111")) == 0

    def test_pauli_counts_zx_pairs(self):
        assert quad_lower(bv("11"), "pauli") == 1
        assert quad_lower(bv("10"), "pauli") == 0
        assert quad_lower(bv("1101"), "pauli") == 1
        assert quad_lower(bv("1111"), "pauli") == 0

    @given(strings())
    def test_matches_bilinear_definition(self, s):
        for basis, kind in (("majorana", "omega_lower"), ("pauli", "eta_lower")):
            L = make_form(kind, s.v.n)
            from pclifford.f2core import dot

            assert quad_lower(s.v, basis) == dot(s.v, L.mulvec(s.v))


class TestCompose:
    def test_single_mode_example(self):
        out = compose(MajoranaString(0, bv("10")), MajoranaString(0, bv("01")))
        assert out == MajoranaString(3, bv("11"))

    def test_square_is_identity(self):
        for n2 in (2, 4, 6):
            for bits in range(1 << n2):
                s = MajoranaString(0, BitVec(n2, bits))
                assert compose(s, s) == MajoranaString(0, BitVec(n2, 0))

    def test_identity_string_is_neutral(self):
        e = MajoranaString(0, bv("0000"))
        s = MajoranaString(2, bv("1011"))
        assert compose(e, s) == s
        assert compose(s, e) == s

    @given(string_triples())
    @settings(max_examples=200)
    def test_associative(self, triple):
        a, b, c = triple
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(string_triples(basis="pauli"))
    @settings(max_examples=200)
    def test_associative_pauli(self, triple):
        a, b, c = triple
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_phases_add(self):
        s1 = MajoranaString(1, bv("10"))
        s2 = MajoranaString(2, bv("01"))
        base = compose(MajoranaString(0, bv("10")), MajoranaString(0, bv("01")))
        assert compose(s1, s2).phase == (base.phase + 3) % 4

    def test_mismatches_rejected(self):
        with pytest.raises(ValueError):
            compose(MajoranaString(0, bv("10")), MajoranaString(0, bv("10"), "pauli"))
        with pytest.raises(ValueError):
            compose(MajoranaString(0, bv("10")), MajoranaString(0, bv("1010")))


class TestCommutes:
    def test_single_modes_anticommute(self):
        assert not commutes(MajoranaString(0, bv("10")), MajoranaString(0, bv("01")))
        assert not commutes(MajoranaString(0, bv("1100")), MajoranaString(0, bv("0110")))

    def test_parity_operator_commutant(self):
        # j commutes with exactly the even strings
        for n in (1, 2, 3):
            j = parity_operator(n)
            for bits in range(1 << (2 * n)):
                s = MajoranaString(0, BitVec(2 * n, bits))
                assert commutes(j, s) == (s.v.parity == 0)

    @given(strings(), st.integers(0, 3), st.integers(0, 3))
    def test_phase_independent(self, s, p1, p2):
        t = MajoranaString(p2, BitVec(s.v.n, (s.v.bits * 7 + 3) % (1 << s.v.n)))
        assert commutes(MajoranaString(p1, s.v), t) == commutes(s, t)

    @given(strings())
    def test_matches_compose_order(self, s):
        rng = random.Random(s.v.bits)
        t = MajoranaString(0, BitVec(s.v.n, rng.randrange(1 << s.v.n)))
        st_ = compose(s, t)
        ts = compose(t, s)
        assert st_.v == ts.v
        assert commutes(s, t) == (st_.phase == ts.phase)


class TestJordanWigner:
    def test_single_mode(self):
        out = jordan_wigner_map(MajoranaString(0, bv("10")))
        assert out.basis == "pauli" and out.v == bv("10")

    def test_third_column_example(self):
        out = jordan_wigner_map(MajoranaString(0, bv("0010")))
        assert out.v == bv("1110")

    @given(strings())
    def test_involutive(self, s):
        assert jordan_wigner_map(jordan_wigner_map(s)) == s

    @given(strings())
    def test_phase_and_label_contract(self, s):
        out = jordan_wigner_map(s)
        W = make_form("jw", s.v.n)
        assert out.phase == s.phase
        assert out.v == W.mulvec(s.v)
        assert out.basis == "pauli"

    @given(strings(basis="majorana"))
    def test_preserves_commutation(self, s):
        rng = random.Random(s.v.bits + 17)
        t = MajoranaString(0, BitVec(s.v.n, rng.randrange(1 << s.v.n)))
        assert commutes(s, t) == commutes(jordan_wigner_map(s), jordan_wigner_map(t))


class TestParityOperator:
    def test_shape(self):
        assert parity_operator(1).v == bv("11")
        assert parity_operator(2).v == bv("1111")
        assert parity_operator(2).v.weight == 4
        assert parity_operator(3).phase == 0

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            parity_operator(0)


class TestTextFormat:
    def test_round_trip(self):
        s = MajoranaString(3, bv("0110"))
        assert parse_string(format_string(s)) == s

    def test_phase_normalized(self):
        assert parse_string("i^7 10").phase == 3
        assert parse_string("i^-1 10").phase == 3

    def test_basis_flag(self):
        s = parse_string("i^1 1100", basis="pauli")
        assert s.basis == "pauli"

    def test_garbage_rejected(self):
        for text in ("i^ 10", "10", "i^1", "i^1 10 11", "j^1 10"):
            with pytest.raises(ValueError):
                parse_string(text)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MajoranaString(0, bv("10"), "x"), "unknown basis 'x'"),
        (lambda: zeta_coeff(bv("10"), bv("11"), "x"), "unknown basis 'x'"),
        (lambda: zeta_coeff(bv("101"), bv("110")), "string labels have even length"),
        (
            lambda: commutes(MajoranaString(0, bv("10")), MajoranaString(0, bv("10"), "pauli")),
            "basis mismatch",
        ),
    ],
)
def test_input_checks_raise_their_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
