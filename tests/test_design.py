"""Fixed-point profiles, frame potentials, orbits, quotient embedding."""

import bisect
import itertools
import json
import random
from fractions import Fraction

import pytest

from pclifford.f2core import BitMatrix, BitVec, parse_matrix
from pclifford.group import (
    OrthogonalMap,
    group_order,
    sample_orthogonal,
    sample_orthogonal_random,
    sample_symplectic,
)
from pclifford.design import (
    FixedPointProfile,
    fixed_point_profile,
    frame_potential,
    haar_frame_potential,
    orbit_count,
    orbit_decomposition,
    parity_frame_potential,
    quotient_action,
)


def brute_profile(S):
    dim = S.m.rows
    j = (1 << dim) - 1
    f = f_plus = c_plus = 0
    for bits in range(1 << dim):
        v = BitVec(dim, bits)
        out = S.m.mulvec(v).bits
        if out == bits:
            f += 1
            if bits.bit_count() % 2 == 0:
                f_plus += 1
        if out == bits ^ j and bits.bit_count() % 2 == 0:
            c_plus += 1
    return f, f_plus, c_plus


class TestFixedPointProfile:
    def test_identity_example(self):
        prof = fixed_point_profile(OrthogonalMap(BitMatrix.identity(4)))
        assert (prof.f, prof.f_plus, prof.c_plus) == (16, 8, 0)

    def test_double_swap_example(self):
        S = OrthogonalMap(parse_matrix("0010\n0001\n1000\n0100\n"))
        prof = fixed_point_profile(S)
        assert (prof.f, prof.f_plus, prof.c_plus) == (4, 4, 4)

    def test_matches_brute_force_orthogonal(self):
        rng = random.Random(3)
        for _ in range(150):
            dim = rng.choice([2, 3, 4, 5, 6, 7, 8])
            S = sample_orthogonal_random(dim, rng)
            prof = fixed_point_profile(S)
            assert brute_profile(S) == (prof.f, prof.f_plus, prof.c_plus)

    def test_matches_brute_force_symplectic(self):
        rng = random.Random(5)
        for _ in range(60):
            dim = rng.choice([2, 4, 6])
            S = sample_symplectic(dim, rng.randint(1, group_order("symplectic", dim)))
            f = brute_profile(S)[0]
            assert fixed_point_profile(S).f == f

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedPointProfile(3, 2, 0)
        with pytest.raises(ValueError):
            FixedPointProfile(4, 2, 1)


class TestFramePotential:
    def test_symplectic_2_moments(self):
        got = [frame_potential("symplectic", 2, t).value for t in range(1, 5)]
        assert got == [1, 2, 5, 15]

    def test_restricted_orthogonal_4_moments(self):
        got = [parity_frame_potential(4, t).value for t in range(1, 5)]
        assert got == [1, 2, 5, 15]

    def test_unrestricted_orthogonal_4(self):
        # plain fixed-point moments over O(4); values pinned by enumeration
        got = [frame_potential("orthogonal", 4, t).value for t in range(1, 4)]
        assert got[0] == 1
        total = sum(
            brute_profile(sample_orthogonal(4, i))[0] for i in range(1, 49)
        )
        assert got[1] == Fraction(total, 48)

    def test_exact_values_are_rational(self):
        rep = frame_potential("symplectic", 2, 3)
        assert isinstance(rep.value, Fraction)
        assert rep.mode == "exact" and rep.restricted is False

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            frame_potential("orthogonal", 8, 2, budget=10**4)

    def test_monte_carlo_deterministic(self):
        a = parity_frame_potential(6, 2, mode="monte_carlo", seed=1, samples=500)
        b = parity_frame_potential(6, 2, mode="monte_carlo", seed=1, samples=500)
        assert a.estimate == b.estimate and a.std_error == b.std_error
        assert a.samples == 500 and a.seed == 1

    def test_monte_carlo_near_exact(self):
        exact = float(parity_frame_potential(4, 2).value)
        rep = parity_frame_potential(4, 2, mode="monte_carlo", seed=2, samples=4000)
        assert abs(rep.estimate - exact) < 6 * rep.std_error

    def test_parity_restriction_is_orthogonal_only(self):
        from pclifford.design import _potential

        with pytest.raises(ValueError):
            _potential("symplectic", 4, 2, True, "exact", 10**7, None, 10)

    @pytest.mark.parametrize("dim", [1, 3, 5, 7])
    def test_parity_restriction_needs_even_dim(self, dim):
        # at odd dim the all-ones vector is odd, so there is no even quotient
        with pytest.raises(ValueError, match="N even"):
            parity_frame_potential(dim, 3)
        with pytest.raises(ValueError, match="N even"):
            parity_frame_potential(dim, 3, mode="monte_carlo", seed=1, samples=10)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            frame_potential("orthogonal", 4, 0)
        with pytest.raises(ValueError):
            frame_potential("orthogonal", 4, 2, mode="bayesian")
        with pytest.raises(ValueError):
            frame_potential("unitary", 4, 2)

    def test_exact_bit_cap(self):
        # dim (t - 1) bounds the bits of each summand 2^(e(t - 1))
        for call in (
            lambda: frame_potential("orthogonal", 4, 10**20),
            lambda: frame_potential("orthogonal", 4, 5000),
            lambda: parity_frame_potential(4, 5000),
            lambda: frame_potential("orthogonal", 1, 8194),
        ):
            with pytest.raises(ValueError, match="cap of 8192 bits"):
                call()
        # the edge is admitted and prints within the interpreter's digit limit
        assert frame_potential("orthogonal", 1, 8193).value == 2**8192
        assert len(str(frame_potential("orthogonal", 4, 2049).value)) < 4300

    def test_json_exact_integer(self):
        rep = parity_frame_potential(4, 3)
        payload = json.loads(rep.to_json())
        assert payload["value"] == 5
        assert payload["mode"] == "exact" and payload["restricted"] is True

    def test_json_fraction_string(self):
        # group moments come out integral (orbit counts), so pin the
        # non-integral branch directly
        from pclifford.design import FramePotentialReport

        rep = FramePotentialReport("orthogonal", 4, 2, "exact", False, value=Fraction(3, 2))
        assert json.loads(rep.to_json())["value"] == "3/2"

    def test_moments_are_orbit_counts(self):
        # average of f(S)^(t-1) counts orbits on (t-1)-tuples
        for t in (2, 3):
            val = frame_potential("orthogonal", 4, t).value
            assert val == orbit_count(4, t - 1, "orthogonal")

    def test_json_monte_carlo(self):
        rep = parity_frame_potential(4, 2, mode="monte_carlo", seed=3, samples=50)
        payload = json.loads(rep.to_json())
        assert payload["samples"] == 50 and payload["seed"] == 3
        assert "value" not in payload


class TestHaarReference:
    def test_catalan_for_single_qubit(self):
        assert [haar_frame_potential(t, 2) for t in (1, 2, 3, 4)] == [1, 2, 5, 14]

    def test_factorial_for_large_dim(self):
        assert haar_frame_potential(3, 8) == 6
        assert haar_frame_potential(4, 16) == 24
        assert haar_frame_potential(2, 2) == 2

    def test_every_order_and_dimension(self):
        assert haar_frame_potential(5, 4) == 119
        assert haar_frame_potential(4, 3) == 23
        assert [haar_frame_potential(t, 1) for t in range(1, 8)] == [1] * 7
        with pytest.raises(ValueError):
            haar_frame_potential(0, 2)
        with pytest.raises(ValueError):
            haar_frame_potential(3, 0)

    def test_counts_permutations_by_longest_increasing_subsequence(self):
        # Rains: permutations of t with no increasing subsequence past N
        def longest(perm):
            tails = []
            for x in perm:
                i = bisect.bisect_left(tails, x)
                tails[i : i + 1] = [x]
            return len(tails)

        for t in range(1, 7):
            lengths = [longest(p) for p in itertools.permutations(range(t))]
            for N in range(1, t + 2):
                assert haar_frame_potential(t, N) == sum(n <= N for n in lengths), (t, N)


class TestOrbits:
    def test_orthogonal_4_orbits(self):
        sizes = orbit_decomposition(4, 1, "orthogonal")
        assert sizes == [1, 1, 6, 8]
        assert orbit_count(4, 1, "orthogonal") == 4

    def test_orbit_classes_are_parity_classes(self):
        # {0}, {j}, middle evens, odds
        assert orbit_decomposition(6, 1, "orthogonal") == [1, 1, 30, 32]

    def test_symplectic_transitive_on_nonzero(self):
        assert orbit_decomposition(2, 1, "symplectic") == [1, 3]
        assert orbit_decomposition(4, 1, "symplectic") == [1, 15]

    def test_even_quotient_points(self):
        sizes = orbit_decomposition(4, 1, "orthogonal", "even_quotient")
        assert sum(sizes) == 4  # 8 even labels / complement pairing
        assert sizes == [1, 3]

    def test_pair_orbits(self):
        # diagonal action on pairs: zero/nonzero slots plus equal/unequal
        assert orbit_decomposition(2, 2, "symplectic") == [1, 3, 3, 3, 6]

    def test_guards(self):
        with pytest.raises(ValueError):
            orbit_decomposition(4, 0, "orthogonal")
        with pytest.raises(ValueError):
            orbit_decomposition(3, 1, "symplectic")
        with pytest.raises(ValueError):
            orbit_decomposition(4, 1, "symplectic", "even_quotient")
        with pytest.raises(ValueError):
            orbit_decomposition(4, 1, "dihedral")
        with pytest.raises(ValueError):
            orbit_decomposition(4, 9, "orthogonal")
        with pytest.raises(ValueError):
            orbit_decomposition(5, 1, "orthogonal", "even_quotient")

    @pytest.mark.parametrize("dim", [0, -3])
    def test_dimension_must_be_positive(self, dim):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            orbit_decomposition(dim, 1, "orthogonal")

    @pytest.mark.parametrize(
        "dim, k, group, space",
        [
            (2, 17, "orthogonal", "even_quotient"),  # one point, tuple order > 16
            (4, 5, "orthogonal", "full"),  # 2^20 tuples
            (18, 1, "orthogonal", "even_quotient"),  # 2^16 tuples, 3213 generators
            (16, 1, "symplectic", "full"),  # 2^16 tuples, 2^16 - 1 generators
            (8, 3, "symplectic", "full"),  # 255 generators on 2^24 tuples
        ],
    )
    def test_work_limits(self, dim, k, group, space):
        with pytest.raises(ValueError, match=r"2\^(16|24)"):
            orbit_decomposition(dim, k, group, space)


class TestQuotientAction:
    def test_identity_maps_to_identity(self):
        out = quotient_action(OrthogonalMap(BitMatrix.identity(6)))
        assert out.m == BitMatrix.identity(4)
        assert out.basis == "pauli"

    def test_homomorphism_random(self):
        rng = random.Random(7)
        for _ in range(60):
            dim = rng.choice([4, 6, 8])
            A = sample_orthogonal_random(dim, rng)
            B = sample_orthogonal_random(dim, rng)
            lhs = quotient_action(OrthogonalMap(A.m.mul(B.m)))
            rhs = quotient_action(A).m.mul(quotient_action(B).m)
            assert lhs.m == rhs

    def test_surjective_with_uniform_fibers_dim_4(self):
        images = {}
        for i in range(1, 49):
            img = quotient_action(sample_orthogonal(4, i)).m.data
            images[img] = images.get(img, 0) + 1
        assert len(images) == 6  # all of Sp(2)
        assert set(images.values()) == {8}  # kernel size 2^(dim-1)

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            quotient_action(OrthogonalMap(BitMatrix.identity(2)))


class TestMonteCarloSeed:
    def test_default_run_reports_its_seed_and_reproduces(self):
        a = frame_potential("orthogonal", 6, 3, mode="monte_carlo", samples=20)
        assert isinstance(a.seed, int)
        assert json.loads(a.to_json())["seed"] == a.seed
        b = frame_potential("orthogonal", 6, 3, mode="monte_carlo", seed=a.seed, samples=20)
        assert b.to_json() == a.to_json()
        assert (b.estimate, b.std_error) == (a.estimate, a.std_error)

    def test_default_restricted_run_reproduces(self):
        a = parity_frame_potential(6, 3, mode="monte_carlo", samples=20)
        b = parity_frame_potential(6, 3, mode="monte_carlo", seed=a.seed, samples=20)
        assert isinstance(a.seed, int) and b.to_json() == a.to_json()

    def test_passed_rng_keeps_seed_null(self):
        rep = frame_potential("orthogonal", 4, 2, mode="monte_carlo", seed=random.Random(5), samples=10)
        assert rep.seed is None
        assert json.loads(rep.to_json())["seed"] is None

    @pytest.mark.parametrize("seed", [True, False, 1.5, "abc", b"xy"])
    def test_seed_that_cannot_be_replayed_is_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            frame_potential("orthogonal", 4, 2, mode="monte_carlo", seed=seed, samples=5)
        with pytest.raises(ValueError, match="seed must be"):
            parity_frame_potential(4, 2, mode="monte_carlo", seed=seed, samples=5)
