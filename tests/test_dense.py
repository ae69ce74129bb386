"""Dense oracle: the complex representation against which F2 claims are checked."""

import itertools
import math
import random

import numpy as np
import pytest

from pclifford.f2core import BitVec, make_form
from pclifford.strings import MajoranaString, commutes, compose, zeta_coeff
from pclifford.group import CliffordWord, braid_action, word_orthogonal
from pclifford.stabilizer import (
    IsotropicSubspace,
    Stabilizer,
    add_ancilla,
    canonical_isotropic,
    stabilizer_element,
    transform_isotropic,
)
from pclifford.dense import (
    DIM_CAP,
    dense_braid,
    dense_string,
    dense_word,
    parity_restricted_trace_sq,
    stabilizer_projector_dense,
)
from pclifford.design import fixed_point_profile
from pclifford.group import sample_orthogonal_random


def bv(text):
    return BitVec.from_string(text)


def mu(text, phase=0, basis="majorana"):
    return MajoranaString(phase, bv(text), basis)


def random_even_word(rng, n, with_prefix=False):
    gens = []
    for _ in range(rng.randint(0, 6)):
        while True:
            bits = rng.randrange(1 << (2 * n))
            if bits.bit_count() % 2 == 0:
                break
        gens.append(BitVec(2 * n, bits))
    prefix = None
    if with_prefix and rng.random() < 0.5:
        while True:
            bits = rng.randrange(1 << (2 * n))
            if bits.bit_count() % 2 == 0:
                break
        prefix = MajoranaString(rng.randrange(4), BitVec(2 * n, bits))
    return CliffordWord(n, tuple(gens), prefix)


class TestDenseString:
    def test_pauli_z(self):
        assert np.array_equal(dense_string(mu("10", basis="pauli")), np.diag([1, -1]))

    def test_pauli_x(self):
        assert np.array_equal(
            dense_string(mu("01", basis="pauli")), np.array([[0, 1], [1, 0]])
        )

    def test_majorana_pair_is_minus_y(self):
        got = dense_string(mu("11"))
        assert np.array_equal(got, np.array([[0, 1j], [-1j, 0]]))

    def test_phase_prefactor(self):
        base = dense_string(mu("0110"))
        assert np.array_equal(dense_string(mu("0110", phase=3)), (1j**3) * base)

    def test_trace_identity(self):
        for n2 in (2, 4, 6):
            for bits in range(1 << n2):
                tr = np.trace(dense_string(MajoranaString(0, BitVec(n2, bits))))
                want = (1 << (n2 // 2)) if bits == 0 else 0
                assert abs(tr - want) < 1e-12

    def test_hermitian(self):
        for n2 in (2, 4):
            for bits in range(1 << n2):
                for basis in ("majorana", "pauli"):
                    m = dense_string(MajoranaString(0, BitVec(n2, bits), basis))
                    assert np.array_equal(m, m.conj().T)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            dense_string(MajoranaString(0, BitVec(DIM_CAP + 2, 0)))


class TestComposeExactness:
    @pytest.mark.parametrize("basis", ["majorana", "pauli"])
    def test_all_pairs_small(self, basis):
        for n2 in (2, 4):
            mats = {
                bits: dense_string(MajoranaString(0, BitVec(n2, bits), basis))
                for bits in range(1 << n2)
            }
            for vb, wb in itertools.product(range(1 << n2), repeat=2):
                got = compose(
                    MajoranaString(0, BitVec(n2, vb), basis),
                    MajoranaString(0, BitVec(n2, wb), basis),
                )
                assert np.array_equal(dense_string(got), mats[vb] @ mats[wb])

    def test_all_pairs_three_modes(self):
        n2 = 6
        mats = [dense_string(MajoranaString(0, BitVec(n2, b))) for b in range(1 << n2)]
        for vb, wb in itertools.product(range(1 << n2), repeat=2):
            got = compose(
                MajoranaString(0, BitVec(n2, vb)), MajoranaString(0, BitVec(n2, wb))
            )
            assert np.array_equal(dense_string(got), mats[vb] @ mats[wb])

    def test_commutes_matches_dense(self):
        rng = random.Random(3)
        for n2 in (2, 4, 6):
            for _ in range(120):
                v = BitVec(n2, rng.randrange(1 << n2))
                w = BitVec(n2, rng.randrange(1 << n2))
                s, t = MajoranaString(0, v), MajoranaString(0, w)
                A, B = dense_string(s), dense_string(t)
                assert commutes(s, t) == np.array_equal(A @ B, B @ A)

    def test_jw_identification_up_to_sign(self):
        # relabeling v -> Wv preserves the operator up to a sign only
        for n2 in (2, 4):
            W = make_form("jw", n2)
            for bits in range(1 << n2):
                m = dense_string(MajoranaString(0, BitVec(n2, bits)))
                p = dense_string(MajoranaString(0, W.mulvec(BitVec(n2, bits)), "pauli"))
                assert np.array_equal(m, p) or np.array_equal(m, -p)

    def test_irreducibility_sum(self):
        # (1/4) 2^(-2n) sum over phases and labels of |tr i^a mu(v)|^2 = 1
        for n2 in (2, 4, 6, 8):
            total = 0.0
            for a in range(4):
                for bits in range(1 << n2):
                    tr = np.trace(dense_string(MajoranaString(a, BitVec(n2, bits))))
                    total += abs(tr) ** 2
            assert abs(total / (4 * 4**(n2 // 2)) - 1.0) < 1e-12


class TestDenseBraid:
    def test_unitary(self):
        rng = random.Random(5)
        for _ in range(30):
            n2 = 2 * rng.randint(1, 3)
            a = BitVec(n2, rng.randrange(1 << n2))
            B = dense_braid(a)
            assert np.allclose(B @ B.conj().T, np.eye(B.shape[0]), atol=1e-12)

    def test_square_is_i_mu(self):
        rng = random.Random(6)
        for _ in range(30):
            n2 = 2 * rng.randint(1, 3)
            a = BitVec(n2, rng.randrange(1 << n2))
            B = dense_braid(a)
            assert np.allclose(
                B @ B, 1j * dense_string(MajoranaString(0, a)), atol=1e-12
            )

    def test_single_pair_example(self):
        Y = np.array([[0, -1j], [1j, 0]])
        assert np.allclose(
            dense_braid(bv("11")), (np.eye(2) - 1j * Y) / math.sqrt(2), atol=1e-15
        )


class TestDenseWord:
    def test_empty_word(self):
        assert np.array_equal(dense_word(CliffordWord(2)), np.eye(4))

    def test_single_generator(self):
        a = bv("1100")
        assert np.array_equal(dense_word(CliffordWord(2, (a,))), dense_braid(a))

    def test_prefix_applies_left(self):
        w = CliffordWord(1, (bv("11"),), mu("11", phase=1))
        want = dense_string(mu("11", phase=1)) @ dense_braid(bv("11"))
        assert np.array_equal(dense_word(w), want)

    def test_conjugation_matches_braid_action(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 3)
            word = random_even_word(rng, n)
            U = dense_word(word)
            s = MajoranaString(rng.randrange(4), BitVec(2 * n, rng.randrange(1 << (2 * n))))
            out = s
            for a in reversed(word.gens):
                out = braid_action(a, out)
            got = U @ dense_string(s) @ U.conj().T
            if word.prefix is None:
                assert np.allclose(got, dense_string(out), atol=1e-9)
            else:
                # a string prefix can only flip the sign
                d = dense_string(out)
                assert np.allclose(got, d, atol=1e-9) or np.allclose(got, -d, atol=1e-9)

    def test_parity_operator_invariant(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(1, 3)
            word = random_even_word(rng, n, with_prefix=True)
            U = dense_word(word)
            J = dense_string(MajoranaString(0, make_form("all_ones", 2 * n)))
            assert np.allclose(U @ J @ U.conj().T, J, atol=1e-9)

    def test_clifford_coefficient_relation(self):
        # conjugation phases c(v) obey
        #   c(v) c(v') = [zeta(v,v') / zeta(Sv,Sv')] c(v+v')
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 3)
            n2 = 2 * n
            word = random_even_word(rng, n)
            U = dense_word(word)
            S = word_orthogonal(word)
            dim = 1 << n

            def coeff(vbits):
                v = BitVec(n2, vbits)
                D = U @ dense_string(MajoranaString(0, v)) @ U.conj().T
                M = dense_string(MajoranaString(0, S.m.mulvec(v)))
                return np.trace(M @ D) / dim

            for _ in range(10):
                vb = rng.randrange(1 << n2)
                wb = rng.randrange(1 << n2)
                v, w = BitVec(n2, vb), BitVec(n2, wb)
                lhs = coeff(vb) * coeff(wb)
                ratio = 1j ** ((zeta_coeff(v, w) - zeta_coeff(S.m.mulvec(v), S.m.mulvec(w))) % 4)
                rhs = ratio * coeff(vb ^ wb)
                assert abs(lhs - rhs) < 1e-9


class TestStabilizerProjector:
    def test_single_mode_example(self):
        stab = Stabilizer(IsotropicSubspace(1, (bv("11"),)))
        P = stabilizer_projector_dense(stab)
        assert np.allclose(P, (np.eye(2) + dense_string(mu("11"))) / 2, atol=1e-12)
        assert abs(np.trace(P) - 1) < 1e-12

    def test_idempotent_and_trace(self):
        rng = random.Random(10)
        for _ in range(40):
            n = rng.randint(1, 3)
            r = rng.randint(1, n)
            S0 = sample_orthogonal_random(2 * n, rng)
            space = transform_isotropic(S0, canonical_isotropic(n, r))
            sign = BitVec(2 * n, rng.randrange(1 << (2 * n)))
            stab = Stabilizer(space, sign)
            P = stabilizer_projector_dense(stab)
            assert np.allclose(P @ P, P, atol=1e-9)
            assert abs(np.trace(P) - 2 ** (n - r)) < 1e-9
            assert np.allclose(P, P.conj().T, atol=1e-12)

    def test_stabilizer_action_fixes_projector(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 3)
            r = rng.randint(1, n)
            S0 = sample_orthogonal_random(2 * n, rng)
            space = transform_isotropic(S0, canonical_isotropic(n, r))
            stab = Stabilizer(space, BitVec(2 * n, rng.randrange(1 << (2 * n))))
            P = stabilizer_projector_dense(stab)
            for mask in range(1 << stab.r):
                mbits = 0
                for i in range(stab.r):
                    if (mask >> i) & 1:
                        mbits ^= space.basis[i].bits
                elem = stabilizer_element(stab, BitVec(2 * n, mbits))
                assert np.allclose(dense_string(elem) @ P, P, atol=1e-9)


class TestParityRestrictedTrace:
    def test_identity_word(self):
        assert abs(parity_restricted_trace_sq(CliffordWord(2)) - 4.0) < 1e-12

    def test_even_string_words_exhaustive(self):
        # pure prefix words at n=2: value always 0 or (f_+ + c_+)/2 = 4
        n2 = 4
        for bits in range(1 << n2):
            v = BitVec(n2, bits)
            if v.parity or bits == 0 or bits == (1 << n2) - 1:
                continue
            word = CliffordWord(2, (), MajoranaString(0, v))
            val = parity_restricted_trace_sq(word)
            assert min(abs(val - 0.0), abs(val - 4.0)) < 1e-9

    def test_rejects_odd_generators(self):
        # an odd generator never reaches the trace: the word rejects it
        with pytest.raises(ValueError, match="odd-parity generator"):
            parity_restricted_trace_sq(CliffordWord(1, (bv("10"),)))
        with pytest.raises(ValueError):
            parity_restricted_trace_sq(CliffordWord(1, (), mu("10")))

    def test_matches_profile_prediction(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(1, 3)
            word = random_even_word(rng, n, with_prefix=True)
            val = parity_restricted_trace_sq(word)
            prof = fixed_point_profile(word_orthogonal(word))
            allowed = (prof.f_plus + prof.c_plus) / 2
            assert min(abs(val), abs(val - allowed)) < 1e-9


@pytest.mark.parametrize(
    "call, message",
    [(lambda: dense_braid(BitVec(3, 0b110)), "string labels have even length")],
)
def test_input_checks_raise_their_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
