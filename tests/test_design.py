"""Fixed-point profiles, frame potentials, orbits, quotient embedding."""

import bisect
import itertools
import json
import math
import random
import re
import time
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from operator import xor

import pytest

from pclifford._bits import eta_swap, span_table
from pclifford.f2core import BitMatrix, BitVec, parse_matrix
from pclifford.group import (
    LABEL_CAP,
    OrthogonalMap,
    group_order,
    level_sizes,
    sample_orthogonal,
    sample_orthogonal_random,
    sample_symplectic,
)
from pclifford.design import (
    _EXACT_BITS,
    FixedPointProfile,
    _orbit_count,
    fixed_point_profile,
    frame_potential,
    haar_frame_potential,
    orbit_decomposition,
    parity_frame_potential,
    quotient_action,
)
from test_golden import _witt_count


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

    @pytest.mark.parametrize("dim", [3, 4, 7, 8, 9, 100, 101, 128, 200, 4000, 8192])
    def test_labels_fall_in_four_orbits_at_every_size(self, dim):
        """F_2 counts the orbits on single labels: O(N) for N >= 3 keeps
        0, j, the other labels of j's parity and those of the other
        parity; Sp(2n) only 0 and the nonzero labels."""
        assert frame_potential("orthogonal", dim, 2).value == 4
        if dim % 2 == 0:
            assert frame_potential("symplectic", dim, 2).value == 2

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
            _potential("symplectic", 4, 2, True, "exact", None, 10)

    @pytest.mark.parametrize("dim", [1, 3, 5, 7])
    def test_parity_restriction_needs_even_dim(self, dim):
        # at odd dim the all-ones vector is odd, so there is no even quotient
        with pytest.raises(ValueError, match="even quotient needs even dimension"):
            parity_frame_potential(dim, 3)
        with pytest.raises(ValueError, match="even quotient needs even dimension"):
            parity_frame_potential(dim, 3, mode="monte_carlo", seed=1, samples=10)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            frame_potential("orthogonal", 4, 0)
        with pytest.raises(ValueError):
            frame_potential("orthogonal", 4, 2, mode="bayesian")
        with pytest.raises(ValueError):
            frame_potential("unitary", 4, 2)

    def test_exact_bit_cap(self):
        # dim (t - 1), or (dim - 2)(t - 1) restricted, bounds the bits of the count
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
            assert val == len(orbit_decomposition(4, t - 1, "orthogonal"))

    def test_json_monte_carlo(self):
        rep = parity_frame_potential(4, 2, mode="monte_carlo", seed=3, samples=50)
        payload = json.loads(rep.to_json())
        assert payload["samples"] == 50 and payload["seed"] == 3
        assert "value" not in payload


# ---------------------------------------------------------------------------
# the orbit count behind exact mode, memoized per (group, dim, space, order)

# the keys exact mode reached when it enumerated the group: O(1..7),
# restricted O(2, 4, 6), Sp(2, 4, 6)
EXACT_KEYS = (
    [("orthogonal", dim, False) for dim in range(1, 8)]
    + [("orthogonal", dim, True) for dim in (2, 4, 6)]
    + [("symplectic", dim, False) for dim in (2, 4, 6)]
)


def exact_value(kind, dim, restricted, t):
    if restricted:
        return parity_frame_potential(dim, t).value
    return frame_potential(kind, dim, t).value


@pytest.mark.parametrize(
    "kind, dim, restricted",
    EXACT_KEYS + [("orthogonal", 8, False), ("orthogonal", 64, True), ("symplectic", 128, False)],
)
def test_warm_memo_gives_the_potentials_of_a_cold_count(kind, dim, restricted):
    _orbit_count.cache_clear()
    # the second pass reads the memo
    warm = [exact_value(kind, dim, restricted, t) for _ in range(2) for t in range(1, 6)]
    assert _orbit_count.cache_info().hits == 5
    cold = []
    for t in range(1, 6):
        _orbit_count.cache_clear()
        cold.append(exact_value(kind, dim, restricted, t))
    assert warm == cold * 2


def test_the_orbit_count_memo_is_bounded():
    """At most 256 counts of at most 8193 bits each: about 300 kB."""
    _orbit_count.cache_clear()
    assert _orbit_count.cache_info().maxsize == 256
    for t in range(1, 301):
        frame_potential("orthogonal", 8, t)
    assert _orbit_count.cache_info().currsize == 256


@pytest.mark.parametrize(
    "kind, dim, restricted, t",
    [
        ("orthogonal", 8, False, 1026),  # 8 x 1025 bits, past the cap
        ("orthogonal", 8, True, 1367),  # 6 x 1366 bits on the even quotient
        ("symplectic", 8192, False, 3),
        ("orthogonal", 4, False, 0),
        ("symplectic", 3, False, 2),
    ],
)
def test_refused_request_adds_no_memo_entry(kind, dim, restricted, t):
    exact_value("symplectic", 2, False, 2)  # at least one entry
    before = _orbit_count.cache_info()
    with pytest.raises(ValueError):
        exact_value(kind, dim, restricted, t)
    assert _orbit_count.cache_info() == before


# every exact request under the cap of 8192 bits answers in well under a
# second: the Witt loop stops at min(t - 1, 2n), past which no form embeds.
# The slowest found, O(90) at t = 92 and O(128) at t = 65, took 22 ms and
# 13 ms cold on 2 shared CPUs
COLD_CASES = [
    ("orthogonal", 1, False, 8193),
    ("orthogonal", 2, False, 4097),
    ("orthogonal", 2, True, 4097),
    ("orthogonal", 7, False, 1171),
    ("orthogonal", 90, False, 92),
    ("orthogonal", 90, True, 92),
    ("orthogonal", 128, False, 65),
    ("orthogonal", 128, True, 65),
    ("symplectic", 128, False, 65),
    ("orthogonal", 1024, False, 9),
    ("orthogonal", 8192, False, 2),
    ("symplectic", 8192, False, 2),
]


@pytest.mark.parametrize("kind, dim, restricted, t", COLD_CASES)
def test_every_request_under_the_cap_answers_within_a_second_cold(kind, dim, restricted, t):
    _orbit_count.cache_clear()
    start = time.perf_counter()
    value = exact_value(kind, dim, restricted, t)
    assert time.perf_counter() - start < 1.0
    assert dim * (t - 1) <= _EXACT_BITS and value.denominator == 1
    # a count of orbits on (t - 1)-tuples of at most 2^(dim (t - 1)) of them
    assert 1 <= value <= 1 << (dim * (t - 1))


def test_the_longest_tuples_of_o2():
    """Restricted O(2) acts on one point, 0 bits, at any tuple order."""
    assert exact_value("orthogonal", 2, True, 4097) == 1
    assert exact_value("orthogonal", 2, True, 10**6) == 1
    # O(2) = {I, the swap}: 2^4096 tuples, 2^2048 of them fixed by the swap
    assert exact_value("orthogonal", 2, False, 4097) == (4**4096 + 2**4096) // 2


# ---------------------------------------------------------------------------
# the design order at every size: restricted O(2n) against the Haar
# reference of 2^(n - 1) dimensions, Rains' formula, which owes nothing to
# Witt's theorem


def test_restricted_orthogonal_is_a_3_design_and_not_a_4_design_at_every_size():
    """Restricted O(2n) has the Haar potentials of U(2^(n - 1)) at t = 1,
    2, 3 and a larger one at t = 4, from 4 labels to 2732, the largest
    dim that t = 4 admits ((2732 - 2) x 3 <= 8192 on the even quotient)."""
    assert (2732 - 2) * 3 <= _EXACT_BITS < (2734 - 2) * 3
    for dim in range(4, 2733, 2):
        haar_dim = 2 ** (dim // 2 - 1)
        for t in (1, 2, 3):
            assert parity_frame_potential(dim, t).value == haar_frame_potential(t, haar_dim), (dim, t)
        assert parity_frame_potential(dim, 4).value != haar_frame_potential(4, haar_dim), dim


@pytest.mark.parametrize(
    "n, f4, f5", [(2, 15, 51), (3, 29, 219), (4, 30, 269), (5, 30, 270), (1025, 30, 270)]
)
def test_restricted_potentials_at_t_4_and_5(n, f4, f5):
    assert parity_frame_potential(2 * n, 4).value == f4
    assert parity_frame_potential(2 * n, 5).value == f5


@pytest.mark.parametrize("dim, t", [(4, 4097), (6, 2049), (2050, 5)])
def test_restricted_orthogonal_is_symplectic_up_to_the_cap(dim, t):
    """Restricted O(dim) counts orbits on the even quotient, 2^(dim - 2)
    points acted on as Sp(dim - 2), under the cap the Sp count has: the
    edge is answered and one step past it is refused."""
    assert (dim - 2) * (t - 1) <= _EXACT_BITS < (dim - 2) * t
    assert parity_frame_potential(dim, t).value == frame_potential("symplectic", dim - 2, t).value
    with pytest.raises(ValueError, match="past the cap of 8192 bits"):
        parity_frame_potential(dim, t + 1)
    with pytest.raises(ValueError, match="past the cap of 8192 bits"):
        frame_potential("symplectic", dim - 2, t + 1)


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


# ---------------------------------------------------------------------------
# orbit_decomposition before the small generating sets: the union of every
# tuple under every weight-2/4 reflection or nonzero transvection

_TUPLE_BITS = 16  # at most 2^16 tuples, and a tuple order of at most 16
_ORBIT_BUDGET = 1 << 24  # generators x tuples x tuple order


def ref_orbit_decomposition(
    dim: int, tuple_order: int, group: str, space: str = "full"
) -> list[int]:
    """Sorted orbit sizes of the generator closure on (space)^tuple_order.

    A generator is a rank-one pair (u, h) acting as p -> p + (u^T p) h,
    the convention of _bits.rank_one.  Orthogonal generators are the
    weight-2/4 reflections h_a = (a, a); symplectic generators are all
    nonzero transvections (eta a, a).  The symplectic group does not act
    on the even quotient (transvections move the all-ones vector), so
    that combination is rejected.

    Two limits bound the work, and a request beyond either raises
    ValueError before anything is enumerated: at most 2^16 tuples and a
    tuple order of at most 16, and at most 2^24 for generators x tuples
    x tuple order.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if tuple_order < 1:
        raise ValueError("tuple order must be >= 1")
    if space not in ("full", "even_quotient"):
        raise ValueError(f"unknown space {space!r}")
    if space == "even_quotient" and dim % 2:
        raise ValueError("even quotient needs even dimension")
    bits = dim - 2 if space == "even_quotient" else dim  # log2 of the point count
    if max(bits, 1) * tuple_order > _TUPLE_BITS:  # one point: order <= 16
        raise ValueError(
            f"{tuple_order}-tuples of 2^{bits} points exceed the tuple cap "
            f"(at most 2^{_TUPLE_BITS} tuples and tuple order {_TUPLE_BITS})"
        )
    if group == "symplectic":
        if dim % 2:
            raise ValueError("symplectic groups need even dimension")
        if space == "even_quotient":
            raise ValueError("the symplectic group does not act on the even quotient")
        gens = [(eta_swap(a, dim), a) for a in range(1, 1 << dim)]
    elif group == "orthogonal":
        gens = [(a, a) for a in range(1 << dim) if a.bit_count() in (2, 4)]
    else:
        raise ValueError(f"unknown group {group!r}")
    j = (1 << dim) - 1
    # the even quotient: one point per pair {v, v + j} of even labels
    points = [
        v for v in range(1 << dim)
        if space == "full" or (v.bit_count() % 2 == 0 and v <= v ^ j)
    ]
    npts = len(points)
    total = npts**tuple_order
    if len(gens) * total * tuple_order > _ORBIT_BUDGET:
        raise ValueError(
            f"{len(gens)} generators x {total} tuples x tuple order {tuple_order} "
            f"exceed the orbit work budget of 2^24"
        )
    pos = {p: i for i, p in enumerate(points)}
    if space == "even_quotient":
        pos.update({p ^ j: i for i, p in enumerate(points)})
    parent = list(range(total))  # union-find forest over tuple indices

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, h in gens:
        img = [pos[p ^ (h if (u & p).bit_count() & 1 else 0)] for p in points]
        # tuple index: the first position is the least significant digit
        timg = [0]
        for _ in range(tuple_order):
            timg = [img[d] + npts * r for r in timg for d in range(npts)]
        for tidx, out in enumerate(timg):
            ra, rb = find(tidx), find(out)
            if ra != rb:
                parent[ra] = rb
    return sorted(Counter(map(find, range(total))).values())


def map_label(cols, p: int) -> int:
    """The image of label p under the map whose columns are cols."""
    return reduce(xor, (c for b, c in enumerate(cols) if p >> b & 1), 0)


def compose(a, b) -> tuple:
    """a after b, both as columns."""
    return tuple(map_label(a, c) for c in b)


def _reference_cases():
    """Every request the reference answers, up to the cost of its O(8)
    pairs, about a second: generators x tuples at most 98 x 2^16."""
    groups, spaces = ("orthogonal", "symplectic"), ("full", "even_quotient")
    for group, dim, space in itertools.product(groups, range(1, 17), spaces):
        if (group, space) == ("symplectic", "even_quotient"):
            continue
        if dim % 2 and (group, space) != ("orthogonal", "full"):
            continue
        gens = (1 << dim) - 1 if group == "symplectic" else math.comb(dim, 2) + math.comb(dim, 4)
        bits = dim - 2 if space == "even_quotient" else dim
        for k in range(1, 17):
            if max(bits, 1) * k <= 16 and gens << (bits * k) <= 98 << 16:
                yield group, dim, space, k


REFERENCE_CASES = list(_reference_cases())


# ---------------------------------------------------------------------------
# the search orbit_decomposition ran before the closed form: orbits of a
# generating set of constant size, found breadth first over every tuple

@lru_cache(maxsize=None)
def orbit_generators(group: str, dim: int) -> tuple[tuple[int, ...], ...]:
    """The generators the search acts with, each as its columns: entry b
    is the image of the label 1 << b.

    O(N) takes tau = h_(e_1 + e_2), the N-cycle sigma of the labels and,
    for N >= 4, h_1111: sigma^m tau sigma^-m is the adjacent
    transposition h_(e_(m+1) + e_(m+2)), the transpositions give every
    permutation P, and P h_a P^-1 = h_(Pa) makes every weight-4
    reflection a conjugate of h_1111.  Sp(2n) takes the transvections of
    x_1, z_1 and z_1 + z_2 and, for n >= 2, the cyclic shift c of the n
    qubit pairs: c^m T_a c^-m = T_(c^m a) gives x_k, z_k and
    z_k + z_(k+1) for every k, whose closure is transitive on the
    nonzero labels, and g T_a g^-1 = T_(ga) then gives every
    transvection.  The tests below certify both sets by closure size and
    by these conjugates.
    """
    if group == "symplectic":
        # T_a = (eta a, a) for x_1, z_1 and z_1 + z_2; the shift moves one pair
        pairs = [(eta_swap(a, dim), a) for a in (2, 1, 5) if a >> dim == 0]
        step = 2
    else:
        # h_a = (a, a) for e_1 + e_2 and, past 3 labels, 1111; the shift: one label
        pairs = [(a, a) for a in (3, 15) if a >> dim == 0]
        step = 1
    # the rank-one pair (u, h) maps p to p + (u^T p) h
    gens = [tuple((1 << b) ^ (h if u >> b & 1 else 0) for b in range(dim)) for u, h in pairs]
    if dim > 2:  # the cycle: at 2 labels it is the identity or tau itself
        gens.append(tuple(1 << (b + step) % dim for b in range(dim)))
    return tuple(gens)


def search_orbit_decomposition(
    dim: int, tuple_order: int, group: str, space: str = "full"
) -> list[int]:
    """Sorted orbit sizes of orbit_generators on (space)^tuple_order, for
    at most 2^16 tuples.

    A point is an index: in the full space the label itself; in the even
    quotient the low dim - 2 bits of the one label of its class with
    bit dim - 1 clear (bit dim - 2 is then their parity).  A generator
    is linear on the points, so its image of every point comes from its
    columns by doubling (_bits.span_table); in the quotient column k is
    the image of the label with bits k and dim - 2, read back as a
    point.  Each generator permutes the tuples, so an orbit is what a
    search along the generator images reaches from any one of its
    tuples.
    """
    bits = dim - 2 if space == "even_quotient" else dim  # log2 of the point count
    assert max(bits, 1) * tuple_order <= _TUPLE_BITS
    j = (1 << dim) - 1
    npts = 1 << bits
    images = []
    for cols in orbit_generators(group, dim):
        if space == "even_quotient":
            # the image of the label with bits k and dim - 2; adding j
            # clears bit dim - 1, and the low bits are its point
            cols = [
                (v ^ j if v >> (dim - 1) else v) & (npts - 1)
                for v in (c ^ cols[-2] for c in cols[:-2])
            ]
        img = span_table(cols)  # the image of each point
        # tuple index: the first position is the least significant digit
        timg = img
        for _ in range(tuple_order - 1):
            timg = [d + npts * r for r in timg for d in img]
        images.append(array("l", timg))
    seen = bytearray(npts**tuple_order)
    sizes = []
    start = 0
    while start >= 0:  # the first tuple not yet seen starts the next orbit
        seen[start] = 1
        orbit = [start]
        for x in orbit:  # the loop reaches the tuples it appends
            for img in images:
                y = img[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        sizes.append(len(orbit))
        start = seen.find(0, start + 1)
    return sorted(sizes)


def _search_cases():
    """Every request the search answered: Sp(2..16) and O(1..16) on the
    full space and O(2..18) on the even quotient, up to 2^16 tuples."""
    spaces = [
        ("symplectic", "full", range(2, 17, 2)),
        ("orthogonal", "full", range(1, 17)),
        ("orthogonal", "even_quotient", range(2, 19, 2)),
    ]
    for group, space, dims in spaces:
        for dim in dims:
            bits = dim - 2 if space == "even_quotient" else dim
            for k in range(1, 17):
                if max(bits, 1) * k <= _TUPLE_BITS:
                    yield group, dim, space, k


SEARCH_CASES = list(_search_cases())


def witt_orbit_count(group: str, dim: int, space: str, k: int) -> int:
    """The number of orbits on k-tuples from test_golden's _witt_count,
    F_(k+1) of Sp(2n): O(2n + 1) is Sp(2n) with k free bits of j, O(2n)
    the (k + 1)-tuples of Sp(2n) with a nonzero first entry, and the even
    quotient of O(2n) is acted on as Sp(2n - 2)."""
    n = dim // 2
    if group == "symplectic":
        return _witt_count(n, k + 1)
    if space == "even_quotient":
        return _witt_count(n - 1, k + 1)
    if dim % 2:
        return 2**k * _witt_count(n, k + 1)
    return _witt_count(n, k + 2) - _witt_count(n, k + 1)


def check_orbit_sizes(group: str, dim: int, space: str, k: int, sizes: list[int]):
    """The sizes sum to the tuple count, each divides the group order (up
    to LABEL_CAP, past which no level sizes are built), and there are as
    many as the Witt count says.  A size divides the product of the level
    sizes iff peeling gcd(r, s) off r for each level size s ends at 1,
    since gcd(a / g, s / g) = 1: the order itself is never formed."""
    bits = dim - 2 if space == "even_quotient" else dim
    assert sum(sizes) == 1 << (bits * k)
    if dim <= LABEL_CAP:
        for size in set(sizes):
            r = size
            for s in level_sizes(group, dim):
                r //= math.gcd(r, s)
            assert r == 1, size
    assert len(sizes) == witt_orbit_count(group, dim, space, k)


def _large_cases():
    """Every tuple order each (group, space) admits at 64 to 4096 labels:
    at most 8192 bits per tuple and at most 2^16 orbits."""
    for dim in (64, 65, 1024, 4095, 4096):
        for group, space in [
            ("symplectic", "full"),
            ("orthogonal", "full"),
            ("orthogonal", "even_quotient"),
        ]:
            if dim % 2 and (group, space) != ("orthogonal", "full"):
                continue
            bits = dim - 2 if space == "even_quotient" else dim
            k = 1
            while bits * k <= _EXACT_BITS and witt_orbit_count(group, dim, space, k) <= 1 << 16:
                yield group, dim, space, k
                k += 1


LARGE_CASES = list(_large_cases())


class TestOrbits:
    def test_orthogonal_4_orbits(self):
        sizes = orbit_decomposition(4, 1, "orthogonal")
        assert sizes == [1, 1, 6, 8]
        assert len(orbit_decomposition(4, 1, "orthogonal")) == 4

    def test_orbit_classes_are_parity_classes(self):
        # {0}, {j}, middle evens, odds
        assert orbit_decomposition(6, 1, "orthogonal") == [1, 1, 30, 32]

    def test_symplectic_transitive_on_nonzero(self):
        for dim in range(2, 17, 2):
            assert orbit_decomposition(dim, 1, "symplectic") == [1, (1 << dim) - 1]

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
        with pytest.raises(ValueError, match="orbits exceed"):
            orbit_decomposition(4, 9, "orthogonal")
        with pytest.raises(ValueError):
            orbit_decomposition(5, 1, "orthogonal", "even_quotient")

    @pytest.mark.parametrize(
        "dim, group, message",
        [
            (4, "dihedral", "unknown group kind 'dihedral'"),
            (3, "symplectic", "symplectic groups need even dimension"),
            (0, "dihedral", "dimension must be >= 1"),
        ],
    )
    def test_group_arguments_get_the_group_messages(self, dim, group, message):
        with pytest.raises(ValueError, match=message):
            orbit_decomposition(dim, 1, group)

    @pytest.mark.parametrize("dim", [0, -3])
    def test_dimension_must_be_positive(self, dim):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            orbit_decomposition(dim, 1, "orthogonal")

    @pytest.mark.parametrize("dim", [4, 64])
    @pytest.mark.parametrize("k", [1, 6, 17])
    @pytest.mark.parametrize(
        "group, space, odd, message",
        [
            ("symplectic", "even_quotient", 0, "the symplectic group does not act on the even quotient"),
            ("orthogonal", "even_quotient", 1, "even quotient needs even dimension"),
            ("orthogonal", "x", 0, "unknown space 'x'"),
        ],
    )
    def test_argument_errors_come_before_the_limits(self, dim, k, group, space, odd, message):
        """At 64 labels every tuple order here is past a limit too."""
        with pytest.raises(ValueError) as info:
            orbit_decomposition(dim + odd, k, group, space)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "dim, k, group, space, message",
        [
            (1, 17, "orthogonal", "full", "131072 orbits exceed the cap of 2^16"),
            (1, 8192, "orthogonal", "full", "at least 2^8192 orbits exceed the cap of 2^16"),
            (4096, 3, "symplectic", "full", "take 12288 bits, past the cap of 8192"),
            (8193, 1, "orthogonal", "full", "take 8193 bits, past the cap of 8192"),
            (4, 4097, "orthogonal", "even_quotient", "take 8194 bits, past the cap of 8192"),
            (2050, 5, "orthogonal", "even_quotient", "take 10240 bits, past the cap of 8192"),
            (64, 6, "symplectic", "full", "151470 orbits exceed the cap of 2^16"),
            (64, 5, "orthogonal", "full", "146880 orbits exceed the cap of 2^16"),
        ],
    )
    def test_work_limits(self, dim, k, group, space, message):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            orbit_decomposition(dim, k, group, space)
        assert time.perf_counter() - start < 1.0
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize(
        "dim, k, group, space",
        [
            (4, 5, "orthogonal", "full"),  # 2^20 tuples, past the search
            (8, 3, "symplectic", "full"),  # 2^24 tuples
            (1, 16, "orthogonal", "full"),  # exactly 2^16 orbits
            (8192, 1, "symplectic", "full"),  # 8192 bits
            (8194, 1, "orthogonal", "even_quotient"),
        ],
    )
    def test_requests_past_the_search_are_answered(self, dim, k, group, space):
        check_orbit_sizes(group, dim, space, k, orbit_decomposition(dim, k, group, space))

    @pytest.mark.parametrize("k", [17, 10**7])
    def test_the_one_point_quotient_of_o2_answers_at_any_tuple_order(self, k):
        start = time.perf_counter()
        assert orbit_decomposition(2, k, "orthogonal", "even_quotient") == [1]
        assert time.perf_counter() - start < 1.0

    def test_orthogonal_4_five_tuples_give_the_exact_potential(self):
        assert len(orbit_decomposition(4, 5, "orthogonal")) == frame_potential("orthogonal", 4, 6).value

    @pytest.mark.parametrize(
        "dim, group, space",
        [
            (18, "orthogonal", "even_quotient"),  # 2^16 points
            (16, "symplectic", "full"),
        ],
    )
    def test_single_labels_at_the_old_tuple_cap(self, dim, group, space):
        start = time.perf_counter()
        assert orbit_decomposition(dim, 1, group, space) == [1, 65535]
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "group, dim",
        [("orthogonal", dim) for dim in range(1, 7)] + [("symplectic", 2), ("symplectic", 4)],
    )
    def test_generator_closure_is_the_whole_group(self, group, dim):
        """Each generator preserves the form, so a closure of the group's
        order is the group."""
        identity = tuple(1 << i for i in range(dim))  # the images of the basis
        gens = orbit_generators(group, dim)
        tables = [[map_label(cols, p) for p in range(1 << dim)] for cols in gens]
        closure, stack = {identity}, [identity]
        while stack:
            images = stack.pop()
            for table in tables:
                out = tuple(table[p] for p in images)
                if out not in closure:
                    closure.add(out)
                    stack.append(out)
        assert len(closure) == group_order(group, dim)

    @pytest.mark.parametrize(
        "group, dim",
        [("orthogonal", dim) for dim in range(1, 19)]
        + [("symplectic", dim) for dim in range(2, 17, 2)],
    )
    def test_generators_preserve_the_form_and_conjugate_to_the_linear_size_set(self, group, dim):
        """Every size the search reaches: each generator preserves the
        form, and each generator of the linear-size set (adjacent
        transpositions and h_1111; transvections of x_k, z_k and
        z_k + z_(k+1)) is a cycle-power conjugate of one of them."""
        gens = orbit_generators(group, dim)
        if group == "orthogonal":
            assert len(gens) <= 3
            form = lambda a, b: (a & b).bit_count() & 1
            vecs = [3 << i for i in range(dim - 1)] + [15 << dim >> 4] * (dim >= 4)
            linear = [(a, a) for a in vecs]
            step = 1
        else:
            assert len(gens) <= 4
            form = lambda a, b: (a & eta_swap(b, dim)).bit_count() & 1
            vecs = [v << k for k in range(0, dim, 2) for v in (2, 1, 5) if v << k >> dim == 0]
            linear = [(eta_swap(a, dim), a) for a in vecs]
            step = 2
        for cols in gens:
            assert len(cols) == dim
            for a, b in itertools.product(range(dim), repeat=2):
                assert form(cols[a], cols[b]) == form(1 << a, 1 << b), (cols, a, b)
        identity = tuple(1 << b for b in range(dim))
        cycle = tuple(1 << (b + step) % dim for b in range(dim))
        assert cycle in gens or cycle == identity
        powers = [identity]  # cycle^m for m = 0 .. order - 1
        while compose(cycle, powers[-1]) != identity:
            powers.append(compose(cycle, powers[-1]))
        conjugates = {
            compose(compose(powers[m], g), powers[-m]) for m in range(len(powers)) for g in gens
        }
        for u, h in linear:
            rank_one = tuple((1 << b) ^ (h if u >> b & 1 else 0) for b in range(dim))
            assert rank_one in conjugates, (u, h)

    def test_the_search_answered_106_requests(self):
        assert len(SEARCH_CASES) == 106

    @pytest.mark.parametrize("group, dim, space, k", SEARCH_CASES)
    def test_matches_the_generator_search(self, group, dim, space, k):
        want = search_orbit_decomposition(dim, k, group, space)
        assert orbit_decomposition(dim, k, group, space) == want

    @pytest.mark.parametrize(
        "n, k",
        [(n, k) for n in range(1, 9) for k in range(1, 17) if 2 * n * k <= 16],
    )
    def test_even_quotient_of_orthogonal_is_symplectic(self, n, k):
        """O(2n + 2) acts on its even quotient as Sp(2n) (README)."""
        want = orbit_decomposition(2 * n, k, "symplectic")
        assert orbit_decomposition(2 * n + 2, k, "orthogonal", "even_quotient") == want

    @pytest.mark.parametrize("group, dim, space, k", REFERENCE_CASES)
    def test_matches_the_reference(self, group, dim, space, k):
        want = ref_orbit_decomposition(dim, k, group, space)
        assert orbit_decomposition(dim, k, group, space) == want

    @pytest.mark.parametrize("group, dim, space, k", LARGE_CASES)
    def test_sizes_past_the_search_match_the_witt_count(self, group, dim, space, k):
        check_orbit_sizes(group, dim, space, k, orbit_decomposition(dim, k, group, space))

    @pytest.mark.parametrize("group, dim, space", sorted({case[:3] for case in LARGE_CASES}))
    def test_the_first_tuple_order_past_the_limits_is_refused(self, group, dim, space):
        k = max(case[3] for case in LARGE_CASES if case[:3] == (group, dim, space))
        with pytest.raises(ValueError, match="cap"):
            orbit_decomposition(dim, k + 1, group, space)

    @pytest.mark.parametrize("kind, dim, restricted", EXACT_KEYS)
    def test_orbit_counts_are_the_exact_potentials(self, kind, dim, restricted):
        """F_t counts the orbits on (t - 1)-tuples (Burnside); the
        parity-restricted potential counts them on the even quotient."""
        space = "even_quotient" if restricted else "full"
        for t in range(2, 6):
            orbits = orbit_decomposition(dim, t - 1, kind, space)
            assert len(orbits) == exact_value(kind, dim, restricted, t), t


def quotient_fibers(dim):
    """{image: count} of quotient_action over every element of O(dim)."""
    return Counter(
        quotient_action(sample_orthogonal(dim, i)).m.data
        for i in range(1, group_order("orthogonal", dim) + 1)
    )


class TestQuotientAction:
    def test_identity_maps_to_identity(self):
        out = quotient_action(OrthogonalMap(BitMatrix.identity(6)))
        assert out.m == BitMatrix.identity(4)
        assert out.basis == "pauli"

    def test_homomorphism_random(self):
        rng = random.Random(7)
        dims = itertools.chain((rng.choice([4, 6, 8]) for _ in range(60)), [64, 256] * 3)
        for dim in dims:
            A = sample_orthogonal_random(dim, rng)
            B = sample_orthogonal_random(dim, rng)
            lhs = quotient_action(OrthogonalMap(A.m.mul(B.m)))
            rhs = quotient_action(A).m.mul(quotient_action(B).m)
            assert lhs.m == rhs

    def test_surjective_with_uniform_fibers_dim_4(self):
        fibers = quotient_fibers(4)
        assert len(fibers) == 6  # all of Sp(2)
        assert set(fibers.values()) == {8}  # kernel size 2^(dim-1)

    def test_surjective_with_uniform_fibers_dim_6(self):
        fibers = quotient_fibers(6)
        assert len(fibers) == group_order("symplectic", 4) == 720
        assert set(fibers.values()) == {32}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_group_orders_give_the_fiber_size(self, n):
        # onto Sp(2n - 2) with fibers of 2^(2n - 1): |O(2n)| = |Sp(2n - 2)| 2^(2n - 1)
        sp = group_order("symplectic", 2 * n - 2)
        assert group_order("orthogonal", 2 * n) == sp << (2 * n - 1)

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            quotient_action(OrthogonalMap(BitMatrix.identity(2)))

    @pytest.mark.parametrize("dim", [5, 7])
    def test_needs_even_dimension(self, dim):
        with pytest.raises(ValueError, match="even dimension"):
            quotient_action(sample_orthogonal_random(dim, seed=dim))


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


MC = {"mode": "monte_carlo", "seed": 1, "samples": 5}


@pytest.mark.parametrize("x", [True, False, 2.0, 2.5])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda x: frame_potential("orthogonal", x, 2), "dimension must be an int"),
        (lambda x: frame_potential("symplectic", x, 2, **MC), "dimension must be an int"),
        (lambda x: parity_frame_potential(x, 2), "dimension must be an int"),
        (lambda x: frame_potential("orthogonal", 4, x), "frame potential order must be an int"),
        (lambda x: frame_potential("orthogonal", 4, x, **MC), "frame potential order must be an int"),
        (lambda x: parity_frame_potential(4, x, **MC), "frame potential order must be an int"),
        (lambda x: frame_potential("orthogonal", 4, 2, **{**MC, "samples": x}), "samples must be an int"),
        (lambda x: orbit_decomposition(x, 1, "orthogonal"), "dimension must be an int"),
        (lambda x: orbit_decomposition(4, x, "orthogonal"), "tuple order must be an int"),
        (lambda x: haar_frame_potential(x, 2), "Haar order must be an int"),
        (lambda x: haar_frame_potential(2, x), "Haar dimension must be an int"),
    ],
    ids=[
        "dim", "mc-dim", "parity-dim", "t", "mc-t", "parity-t", "samples", "orbits-dim",
        "orbits-k", "haar-t", "haar-n",
    ],
)
def test_bools_and_floats_are_refused_where_ints_are_read(call, message, x):
    """The seed rule, type(x) is int, at every int argument: True == 1 and
    2.0 == 2, yet a report would print them as true and 2.0."""
    with pytest.raises(ValueError, match=f"{message}.*, not {x!r}$"):
        call(x)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: orbit_decomposition(4, 1, "orthogonal", "x"), "unknown space 'x'")],
)
def test_input_checks_raise_their_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
