"""The batched exponent stream against the scalar path it replaces.

group_rows_batch must equal group_rows on every pick list, rank_batch
must equal rank_ints, and the exponents of a chunk must equal _exponent
element by element.  The prefix tree that exact mode walked before it
became the Witt orbit count is kept here as the reference of exact
potentials: it must give every element of the group once, its histogram
the counts of the scalar exponents, and the potentials of its histogram
those of exact mode.  Every table is laid out in the samplers' index
order: column c of a subgroup table must be the public sampler's
element at index c + 1, column c of a level table its vector function
on the pick that _index folds to c, and the tail of a pick list must
fold to the index of its subgroup's pick list.  group.random_draws must draw what rng.randrange draws, to the final
state of the rng.  Dimension 64 is the edge of the uint64 rows; the
restricted rank writes its augmented bit into bit 0, so no row needs a
65th bit.
"""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pclifford import batch, group
from pclifford.batch import (
    exponents,
    group_rows_batch,
    random_picks,
    rank_batch,
)
from pclifford.design import (
    _exponent,
    _parity_counts,
    fixed_point_profile,
    frame_potential,
    parity_frame_potential,
)
from pclifford.f2core import rank_ints
from pclifford.group import (
    LABEL_CAP,
    _index_picks,
    group_order,
    group_rows,
    level_bits,
    level_sizes,
    levels,
    random_draws,
    sample_orthogonal,
    sample_orthogonal_random,
    sample_symplectic,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def every_pick_list(kind, dim):
    return [list(p) for p in itertools.product(*map(range, level_sizes(kind, dim)))]


def seeded_pick_lists(kind, dim, count, seed):
    rng = random.Random(seed)
    sizes = level_sizes(kind, dim)
    return [[rng.randrange(s) for s in sizes] for _ in range(count)]


def batch_rows(kind, dim, picks):
    """group_rows_batch as one list of packed rows per pick list."""
    return group_rows_batch(kind, dim, picks).T.tolist()


EVERY = [("orthogonal", d) for d in range(1, 7)] + [("symplectic", 2), ("symplectic", 4)]
# O(13) has the last tabulated level (4095 picks) and O(14) the first
# computed one (8192); Sp(6) the last tabulated Sp level, Sp(8) the first
SEEDED = [
    (kind, dim)
    for dim in (7, 8, 16, 63, 64)
    for kind in ("orthogonal", "symplectic")
    if kind == "orthogonal" or dim % 2 == 0
] + [("orthogonal", 13), ("orthogonal", 14), ("symplectic", 6)]


@pytest.mark.parametrize("kind, dim", EVERY)
def test_batch_rows_match_scalar_on_every_pick_list(kind, dim):
    picks = every_pick_list(kind, dim)
    assert len(picks) == group_order(kind, dim)
    assert batch_rows(kind, dim, picks) == [group_rows(kind, dim, p) for p in picks]


@pytest.mark.parametrize("kind, dim", SEEDED)
def test_batch_rows_match_scalar_on_seeded_pick_lists(kind, dim):
    picks = seeded_pick_lists(kind, dim, 2000, seed=dim)
    assert batch_rows(kind, dim, picks) == [group_rows(kind, dim, p) for p in picks]


@pytest.mark.parametrize("kind, dim", EVERY)
def test_computed_level_vectors_match_scalar_on_every_pick_list(kind, dim, monkeypatch):
    """With no level tabulated, every level computes its vectors: the
    path of levels of more than _TABLE_PICKS picks."""
    monkeypatch.setattr(batch, "_TABLE_PICKS", 0)
    picks = every_pick_list(kind, dim)
    assert batch_rows(kind, dim, picks) == [group_rows(kind, dim, p) for p in picks]


def tabulated_levels():
    """(kind, k, radices) of every level of at most _TABLE_PICKS picks:
    all of them occur in O(64) and Sp(64)."""
    found = []
    for kind in ("orthogonal", "symplectic"):
        sizes = level_sizes(kind, 64)
        for k, entries in levels(kind, 64):
            radices = tuple(sizes[e] for e in entries)
            if math.prod(radices) <= batch._TABLE_PICKS:
                found.append((kind, k, radices))
    return found


def test_tables_cover_the_small_levels_in_about_270_kb():
    levels_found = tabulated_levels()
    assert [(kind, k) for kind, k, _ in levels_found] == [
        *(("orthogonal", k) for k in range(2, 14)),
        *(("symplectic", k) for k in (2, 4, 6)),
    ]
    # a cold subgroup table reads the tables of its levels: built first,
    # the count below is what batches add
    batch._subgroup_table("orthogonal", 5)
    batch._subgroup_table("symplectic", 4)
    batch._level_table.cache_clear()
    for kind, dim in (("orthogonal", 64), ("symplectic", 64)):
        group_rows_batch(kind, dim, seeded_pick_lists(kind, dim, 3, seed=dim))
    # the subgroup tables cover O(N) levels 2-5 and Sp levels 2-4: the
    # batches build O(N) levels 6-13 and Sp level 6
    assert batch._level_table.cache_info().currsize == 9
    assert len(levels_found) == 15
    tables = [batch._level_table(*level)[0] for level in levels_found]
    assert sum(t.nbytes for t in tables) < 300_000
    assert batch._level_table.cache_info().currsize == 15  # the other 6 were built here


@pytest.mark.parametrize("kind, k, radices", tabulated_levels())
def test_level_table_is_the_vector_function_on_every_pick(kind, k, radices):
    """Column c of a table is the vector function on the pick at index c,
    the first entry varying fastest; applied to the identity, it makes
    the scalar level of group."""
    batch._level_table.cache_clear()
    vectors, layout = batch._level_table(kind, k, radices)
    assert not vectors.flags.writeable
    every = [p[::-1] for p in itertools.product(*map(range, radices[::-1]))]
    assert vectors.shape[1] == len(every)
    one = [batch._VECTORS[kind](k, *np.array(p, np.uint64)[:, None]) for p in every]
    assert all(lay == layout for _, lay in one)
    assert np.array_equal(np.hstack([v for v, _ in one]), vectors)
    level = np.repeat(batch._identity(k), len(every), axis=1)
    batch._apply(level, vectors, layout)
    want = []
    for p in every:
        rows = [1 << (k - 1 - i) for i in range(k)]
        group._LEVEL[kind](rows, k, *p)
        want.append(rows)
    assert level.T.tolist() == want


# the groups of at most _TABLE_PICKS elements: O(1..5), Sp(2), Sp(4)
SUBGROUPS = [
    (kind, m)
    for kind, dims in (("orthogonal", range(1, 7)), ("symplectic", range(2, 7, 2)))
    for m in dims
    if group_order(kind, m) <= batch._TABLE_PICKS
]


@pytest.mark.parametrize("kind, m", SUBGROUPS)
def test_subgroup_table_is_group_rows_in_index_order(kind, m):
    """Column c of a subgroup table is the element the public sampler
    gives at index c + 1."""
    batch._subgroup_table.cache_clear()
    table = batch._subgroup_table(kind, m)
    assert not table.flags.writeable
    sample = sample_orthogonal if kind == "orthogonal" else sample_symplectic
    want = [list(sample(m, c + 1).m.data) for c in range(group_order(kind, m))]
    assert table.T.tolist() == want


@pytest.mark.parametrize(
    "radices",
    [(), (7,), tuple(level_sizes("orthogonal", 5)), tuple(level_sizes("symplectic", 4))],
    ids=["empty", "one-entry", "O5", "Sp4"],
)
def test_index_folds_every_pick_back_to_its_column(radices):
    picks = batch._every_pick(radices)
    assert picks.shape == (len(radices), math.prod(radices)) and picks.dtype == np.uint64
    assert np.array_equal(batch._index(picks, radices), np.arange(math.prod(radices)))


@pytest.mark.parametrize("kind, m", SUBGROUPS)
def test_the_tail_of_a_pick_list_folds_to_its_subgroup_index(kind, m):
    """Levels 2..m of O(64) and Sp(64) read the entries from 64 - m on, a
    pick list of the group on m labels: its table column is its index."""
    dim = 64
    sizes = level_sizes(kind, dim)
    assert sizes[dim - m :] == level_sizes(kind, m)
    tails = np.array(seeded_pick_lists(kind, dim, 200, seed=m), np.uint64).T[dim - m :]
    index = batch._index(tails, sizes[dim - m :])
    assert [_index_picks(kind, m, i + 1) for i in index.tolist()] == tails.T.tolist()


def test_random_batches_build_the_two_subgroup_tables_in_64_kb():
    assert SUBGROUPS == [("orthogonal", m) for m in range(1, 6)] + [
        ("symplectic", 2),
        ("symplectic", 4),
    ]
    batch._subgroup_table.cache_clear()
    for kind, dim in (("orthogonal", 64), ("symplectic", 64)):
        group_rows_batch(kind, dim, seeded_pick_lists(kind, dim, 3, seed=dim))
    assert batch._subgroup_table.cache_info().currsize == 2
    tables = [batch._subgroup_table("orthogonal", 5), batch._subgroup_table("symplectic", 4)]
    assert batch._subgroup_table.cache_info().currsize == 2  # those were cache hits
    assert [t.shape for t in tables] == [(5, 720), (4, 720)]
    assert sum(t.nbytes for t in tables) < 64_000


def test_batch_rows_take_the_extreme_picks():
    # the last pick list of a level is where the odd level skips all-ones
    # and where the symplectic c1 and its partner take their top values
    for kind, dim in (("orthogonal", 64), ("orthogonal", 63), ("symplectic", 64)):
        sizes = level_sizes(kind, dim)
        picks = [[s - 1 for s in sizes], [0] * len(sizes)]
        assert batch_rows(kind, dim, picks) == [group_rows(kind, dim, p) for p in picks]


def test_batch_rows_need_uint64_rows():
    with pytest.raises(ValueError, match="dim must be <= 64"):
        group_rows_batch("orthogonal", 65, [[0] * 64])
    with pytest.raises(ValueError, match="unknown group kind"):
        group_rows_batch("unitary", 4, [[0, 0, 0]])


@settings(max_examples=200, deadline=None)
@given(
    width=st.sampled_from([1, 3, 6, 8, 63, 64]),
    data=st.data(),
)
def test_rank_batch_matches_rank_ints(width, data):
    m = data.draw(st.integers(1, 9))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, (1 << width) - 1), min_size=m, max_size=m),
            min_size=1,
            max_size=5,
        )
    )
    packed = np.array(rows, np.uint64).T
    assert rank_batch(packed).tolist() == [rank_ints(r) for r in rows]


def test_rank_batch_of_dependent_rows():
    # equal rows, and a row that is the XOR of two others
    rows = np.array([[5, 5, 0], [3, 5, 6]], np.uint64).T
    assert rank_batch(rows).tolist() == [1, 2]


def with_restriction(cases):
    """Each case unrestricted, and restricted where that is defined."""
    return [(k, d, False) for k, d in cases] + [
        (k, d, True) for k, d in cases if k == "orthogonal" and d % 2 == 0
    ]


@pytest.mark.parametrize("kind, dim, restricted", with_restriction(EVERY))
def test_exponents_match_scalar_on_every_pick_list(kind, dim, restricted):
    picks = every_pick_list(kind, dim)
    want = [_exponent(group_rows(kind, dim, p), dim, restricted) for p in picks]
    assert exponents(kind, dim, restricted, picks).tolist() == want


@pytest.mark.parametrize("kind, dim, restricted", with_restriction(SEEDED))
def test_exponents_match_scalar_on_seeded_pick_lists(kind, dim, restricted):
    picks = seeded_pick_lists(kind, dim, 300, seed=dim + 1)
    want = [_exponent(group_rows(kind, dim, p), dim, restricted) for p in picks]
    assert exponents(kind, dim, restricted, picks).tolist() == want


@pytest.mark.parametrize("dim", [2, 4, 6, 8, 64, 66, 130])
def test_restricted_exponent_matches_the_two_rank_counts(dim):
    """One rank with the augmented bit in bit 0 against the two ranks of
    _parity_counts, (f_+ + c_+)/2 = 2^e: every element up to O(6)."""
    if dim <= 6:
        picks = every_pick_list("orthogonal", dim)
    else:
        picks = seeded_pick_lists("orthogonal", dim, 200, seed=dim)
    rows = [group_rows("orthogonal", dim, p) for p in picks]
    want = [sum(_parity_counts(r, dim)).bit_length() - 2 for r in rows]
    assert [_exponent(r, dim, True) for r in rows] == want
    if dim <= 64:
        assert exponents("orthogonal", dim, True, picks).tolist() == want


# ---------------------------------------------------------------------------
# the prefix tree exact mode walked before the Witt count: every element,
# each level applied to a block of prefix states at once


_CHUNK = 2048  # elements per block, at least the 2016 picks of Sp(6) level 6


def every_element(kind, dim):
    """Every element of the group once, as (dim, B) blocks, B <= _CHUNK.
    Each level's step is a generator over the blocks of the level below,
    so the tree is walked depth first, one block per level alive."""
    sizes = level_sizes(kind, dim)
    blocks = [batch._identity(dim - len(sizes))]  # the rows no level builds
    for k, entries in levels(kind, dim):
        radices = tuple(sizes[e] for e in entries)
        blocks = level_blocks(blocks, k, *batch._level_table(kind, k, radices))
    return blocks


def level_blocks(blocks, k, vectors, layout):
    """Level k on each (rows, B) block below, g states at a time, as
    (k, g * picks) blocks, the state slowest; every pick of the level is
    in one block."""
    picks = vectors.shape[1]
    g = _CHUNK // picks
    assert g >= 1
    for states in blocks:
        top = k - len(states)
        for i in range(0, states.shape[1], g):
            prefix = states[:, i : i + g]
            level = np.empty((k, prefix.shape[1], picks), np.uint64)
            level[:top] = batch._identity(k)[:top, None]
            level[top:] = prefix[:, :, None]
            level = level.reshape(k, -1)
            batch._apply(level, np.tile(vectors, prefix.shape[1]), layout)
            yield level


@lru_cache(maxsize=None)
def tree_histogram(kind, dim, restricted):
    """Entry e: the elements the tree gives with exponent e."""
    hist = np.zeros(dim + 1, np.int64)
    for rows in every_element(kind, dim):
        hist += np.bincount(batch._exponents(rows, dim, restricted), minlength=dim + 1)
    return tuple(hist.tolist())


def tree_elements(kind, dim):
    """Every element the prefix tree gives, one list of packed rows each."""
    blocks = list(every_element(kind, dim))
    assert all(b.shape[0] == dim and 0 < b.shape[1] <= _CHUNK for b in blocks)
    return [rows for b in blocks for rows in b.T.tolist()]


@pytest.mark.parametrize("kind, dim", EVERY)
def test_prefix_tree_gives_every_element_of_the_index_samplers(kind, dim):
    indices = range(1, group_order(kind, dim) + 1)
    want = [group_rows(kind, dim, _index_picks(kind, dim, i)) for i in indices]
    assert Counter(map(tuple, tree_elements(kind, dim))) == Counter(map(tuple, want))


@pytest.mark.parametrize("kind, dim, restricted", with_restriction(EVERY))
def test_tree_histogram_counts_the_scalar_exponents(kind, dim, restricted):
    elements = [group_rows(kind, dim, p) for p in every_pick_list(kind, dim)]
    want = Counter(_exponent(rows, dim, restricted) for rows in elements)
    hist = tree_histogram(kind, dim, restricted)
    assert len(hist) == dim + 1 and all(type(count) is int for count in hist)
    assert {e: count for e, count in enumerate(hist) if count} == want


@pytest.mark.parametrize("kind, dim", [("orthogonal", 7), ("symplectic", 6)])
def test_prefix_tree_covers_the_largest_groups_once(kind, dim):
    """O(7) and Sp(6), 1451520 elements each: one key per element, the
    rows packed side by side, and as many distinct keys as the order."""
    shifts = np.arange(dim - 1, -1, -1, dtype=np.uint64)[:, None] * np.uint64(dim)
    keys = [np.bitwise_or.reduce(b << shifts, axis=0) for b in every_element(kind, dim)]
    keys = np.sort(np.concatenate(keys))
    # distinct keys counted on the sorted array: np.unique takes about 1 s here
    assert len(keys) == group_order(kind, dim)
    assert np.count_nonzero(keys[1:] != keys[:-1]) + 1 == len(keys)


# the keys the tree reaches in well under a second each, the keys exact
# mode enumerated: O(1..7), restricted O(2, 4, 6), Sp(2, 4, 6)
TREE_KEYS = with_restriction(EVERY) + [("orthogonal", 7, False), ("symplectic", 6, False)]


def index_pick_lists(kind, dim, lo, hi):
    """The pick lists of indices lo + 1..hi as _index_picks decodes them,
    as a (hi - lo, len(level_sizes)) uint64 array."""
    sizes = level_sizes(kind, dim)
    picks = np.empty((hi - lo, len(sizes)), np.uint64)
    rem = np.arange(lo, hi, dtype=np.uint64)
    for i, s in enumerate(sizes):
        picks[:, i] = rem % np.uint64(s)
        rem //= np.uint64(s)
    return picks


@pytest.mark.parametrize("kind, dim, restricted", TREE_KEYS)
def test_tree_histogram_counts_every_index(kind, dim, restricted):
    """Each key walked with the level tables cleared equals the exponents
    of every index built as a random batch, through the tables; where
    every element is enumerated here, also the scalar exponents."""
    tree_histogram.cache_clear()
    batch._level_table.cache_clear()
    cold = tree_histogram(kind, dim, restricted)
    order = group_order(kind, dim)
    want = np.zeros(dim + 1, np.int64)
    for lo in range(0, order, 1 << 16):
        picks = index_pick_lists(kind, dim, lo, min(order, lo + (1 << 16)))
        want += np.bincount(exponents(kind, dim, restricted, picks), minlength=dim + 1)
    assert cold == tuple(want.tolist())
    if (kind, dim) in EVERY:
        elements = (group_rows(kind, dim, p) for p in every_pick_list(kind, dim))
        scalar = Counter(_exponent(rows, dim, restricted) for rows in elements)
        assert {e: count for e, count in enumerate(cold) if count} == scalar
    assert len(TREE_KEYS) == 13


@pytest.mark.parametrize("kind, dim, restricted", TREE_KEYS)
def test_exact_potentials_are_the_tree_averages(kind, dim, restricted):
    """Exact mode counts orbits by Witt's theorem and builds no element;
    the tree averages f^(t - 1) over every element: by Burnside's lemma
    the two agree, here for t = 1..8."""
    hist = tree_histogram(kind, dim, restricted)
    order = group_order(kind, dim)
    assert sum(hist) == order
    for t in range(1, 9):
        total = sum(count << (e * (t - 1)) for e, count in enumerate(hist))
        if restricted:
            rep = parity_frame_potential(dim, t)
        else:
            rep = frame_potential(kind, dim, t)
        assert rep.value == Fraction(total, order), t


def test_index_pick_lists_decode_like_the_index_samplers():
    kind, dim = "symplectic", 4
    picks = index_pick_lists(kind, dim, 0, group_order(kind, dim))
    want = [_index_picks(kind, dim, i) for i in range(1, group_order(kind, dim) + 1)]
    assert picks.tolist() == want


def test_random_picks_are_the_sampler_draws():
    sizes = level_sizes("symplectic", 8)
    got = random_picks(random.Random(4), sizes, 50)
    assert got.dtype == np.uint64 and got.shape == (50, len(sizes))
    assert got.tolist() == seeded_pick_lists("symplectic", 8, 50, seed=4)
    assert random_picks(random.Random(4), [], 3).shape == (3, 0)


# the radices of O(64) and Sp(64) take two-word getrandbits draws: 2^63
# and 2^64 - 1 are 64 bits long; 2^64, 65 bits, takes three words
STREAM_CASES = [
    (level_sizes("orthogonal", 64), 20),
    (level_sizes("symplectic", 64), 20),
    ([1, 2, 3, 1 << 63, (1 << 64) - 1, 1 << 64], 200),
    (level_sizes("symplectic", 8), 0),
    ([], 5),
]


@pytest.mark.parametrize("sizes, count", STREAM_CASES)
def test_random_draws_are_randrange_to_the_final_state(sizes, count):
    want_rng = random.Random(9)
    want = [want_rng.randrange(s) for _ in range(count) for s in sizes]
    rng = random.Random(9)
    assert list(random_draws(rng, sizes, count)) == want
    assert rng.getstate() == want_rng.getstate()
    rng = random.Random(9)
    picks = random_picks(rng, sizes, count)
    assert picks.shape == (count, len(sizes)) and picks.ravel().tolist() == want
    assert rng.getstate() == want_rng.getstate()


class RandomByFloats(random.Random):
    """Overriding random() makes randrange draw from it, not getrandbits."""

    def random(self):
        return super().random()


class ShiftedRandrange(random.Random):
    def randrange(self, s):
        return (super().randrange(s) + 1) % s


@pytest.mark.parametrize("cls", [RandomByFloats, ShiftedRandrange])
def test_random_draws_of_a_subclass_are_its_own_randrange(cls):
    sizes, count = level_sizes("symplectic", 8), 30
    want_rng = cls(9)
    want = [want_rng.randrange(s) for _ in range(count) for s in sizes]
    # the subclass streams differ from random.Random's, so the test can fail
    base = random.Random(9)
    assert want != [base.randrange(s) for _ in range(count) for s in sizes]
    rng = cls(9)
    assert list(random_draws(rng, sizes, count)) == want
    assert rng.getstate() == want_rng.getstate()
    rng = cls(9)
    assert random_picks(rng, sizes, count).ravel().tolist() == want


def test_random_draws_refuse_an_empty_range_like_randrange():
    for s in (0, -3):
        with pytest.raises(ValueError):
            random.Random(1).randrange(s)
        with pytest.raises(ValueError, match="empty range"):
            list(random_draws(random.Random(1), [3, s]))


def test_monte_carlo_at_64_labels_draws_uint64_picks():
    """A chunk of 1024 pick lists of O(64) takes 0.5 MB as uint64 and
    2.3 MB as Python lists, which made a 4.6 MB peak."""
    tracemalloc.start()
    try:
        frame_potential("orthogonal", 64, 2, mode="monte_carlo", seed=1, samples=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_monte_carlo_above_64_bits_takes_the_scalar_path():
    """Past 64 labels each sample is a sampler call and a rank, as before."""
    dim, t, n = 66, 2, 3
    rep = frame_potential("orthogonal", dim, t, mode="monte_carlo", seed=7, samples=n)
    rng = random.Random(7)
    want = [fixed_point_profile(sample_orthogonal_random(dim, rng)).f ** (t - 1) for _ in range(n)]
    assert rep.estimate == sum(want) / n
    par = parity_frame_potential(dim, 3, mode="monte_carlo", seed=7, samples=n)
    rng = random.Random(7)
    profiles = [fixed_point_profile(sample_orthogonal_random(dim, rng)) for _ in range(n)]
    assert par.estimate == sum(((p.f_plus + p.c_plus) // 2) ** 2 for p in profiles) / n


def test_monte_carlo_above_64_bits_holds_one_pick_list():
    """Past 64 labels a chunk is one pick list: 100 pick lists of O(130),
    129 Python ints each, take about 0.6 MB, one pick list and its element
    about 40 kB."""
    tracemalloc.start()
    try:
        frame_potential("orthogonal", 130, 2, mode="monte_carlo", seed=1, samples=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000


# ---------------------------------------------------------------------------
# huge dimensions are refused from a bit count, before the level sizes exist


@pytest.mark.parametrize("kind", ["orthogonal", "symplectic"])
def test_level_bits_is_the_bit_count_of_the_level_sizes(kind):
    for dim in range(2 if kind == "symplectic" else 1, 300, 2 if kind == "symplectic" else 1):
        assert level_bits(kind, dim) == sum(s.bit_length() - 1 for s in level_sizes(kind, dim))


def test_level_sizes_stop_at_the_label_cap():
    assert LABEL_CAP == 4096 and len(level_sizes("symplectic", LABEL_CAP)) == LABEL_CAP
    for kind in ("orthogonal", "symplectic"):
        with pytest.raises(ValueError, match="cap of 4096 labels"):
            level_sizes(kind, LABEL_CAP + 2)
        # the order and the exact mode refuse from level_bits, which has no cap
        assert level_bits(kind, LABEL_CAP + 2) > 8192


def test_level_bits_validates_like_level_sizes():
    for kind, dim in (("orthogonal", 0), ("symplectic", 3), ("unitary", 4)):
        with pytest.raises(ValueError) as want:
            level_sizes(kind, dim)
        with pytest.raises(ValueError, match=str(want.value)):
            level_bits(kind, dim)


# ---------------------------------------------------------------------------
# levels: the one map from a level to the pick-list entries it reads

LEVEL_CASES = [
    (kind, dim)
    for dim in [*range(1, 65), LABEL_CAP]
    for kind in ("orthogonal", "symplectic")
    if kind == "orthogonal" or dim % 2 == 0
]


@pytest.mark.parametrize("kind, dim", LEVEL_CASES)
def test_levels_read_every_entry_once_bottom_up(kind, dim):
    table = levels(kind, dim)
    n_sizes = len(level_sizes(kind, dim))
    assert sorted(e for _, entries in table for e in entries) == list(range(n_sizes))
    step = 1 if kind == "orthogonal" else 2
    assert [k for k, _ in table] == list(range(2, dim + 1, step))
    # the rows no level builds: the identity row of O(1), none for Sp
    assert dim - n_sizes == (1 if kind == "orthogonal" else 0)


def test_levels_validate_like_the_builders():
    for kind, dim in (("unitary", 4), ("symplectic", 3), ("symplectic", 7)):
        with pytest.raises(ValueError) as want:
            levels(kind, dim)
        with pytest.raises(ValueError, match=str(want.value)):
            group_rows(kind, dim, [0] * dim)
        with pytest.raises(ValueError, match=str(want.value)):
            group_rows_batch(kind, dim, [[0] * dim])


# the refusal runs in a child process, with its address space capped, so a
# regression that builds the sizes fails the test rather than the machine
CHILD = """
import sys, time
from pclifford.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_quickly(argv):
    """The child's result, after checking that main took under a second;
    its last line of stdout is that time."""
    res = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=_cap_memory,
    )
    assert float(res.stdout.split()[-1]) < 1.0
    return res


def _assert_quick_refusal(argv, message):
    res = _run_quickly(argv)
    assert res.returncode == 1 and message in res.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["order", "--group", "o", "--dim", "1000000"], "more than 4300 digits"),
        (["order", "--group", "sp", "--dim", "1000000"], "more than 4300 digits"),
        (["frame", "--group", "o", "--dim", "1000000", "--t", "2", "--exact"], "cap of 8192 bits"),
        (["sample", "--group", "o", "--dim", "1000000"], "cap of 4096 labels"),
        (["sample", "--group", "sp", "--dim", "1000000", "--index", "1"], "cap of 4096 labels"),
        (["frame", "--group", "o", "--dim", "1000000", "--t", "2", "--samples", "1"], "cap of 4096 labels"),
        (["jw", "--dim", "1000000"], "cap of 4096 labels"),
    ],
)
def test_huge_dimensions_exit_within_a_second(argv, message):
    _assert_quick_refusal(argv, message)


@pytest.mark.parametrize("group", ["o", "sp"])
def test_huge_dimensions_answer_t_1_within_a_second(group):
    """F_1 is 1 for every group: the one orbit of the empty tuple."""
    res = _run_quickly(["frame", "--group", group, "--dim", "1000000", "--t", "1", "--exact"])
    assert res.returncode == 0 and res.stderr == ""
    assert json.loads(res.stdout.splitlines()[0])["value"] == 1


def test_huge_stabilizer_header_exits_within_a_second(tmp_path):
    # one generator of 200000 labels: the (2n)^2-bit encoder is refused
    path = tmp_path / "huge.stab"
    path.write_text("n=100000 r=1\n11" + "0" * 199998 + "\n")
    _assert_quick_refusal(["stab-encode", str(path)], "cap of 4096 labels")

