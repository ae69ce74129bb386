"""Golden outputs of the samplers, the encoder and the Monte Carlo potentials.

The hashes were taken from the implementation that predates the shared
packed-bit kernels, so any refactor of the builders must reproduce the
same matrices, braid words and estimates for the same seeds, and draw
the same random numbers in the same order.
"""

import hashlib
import io
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from pclifford.cli import main
from pclifford.design import frame_potential, orbit_decomposition, parity_frame_potential
from pclifford.f2core import BitMatrix, BitVec
from pclifford.group import (
    braid_action,
    decompose_orthogonal,
    group_order,
    sample_orthogonal,
    sample_orthogonal_random,
    sample_symplectic,
    sample_symplectic_random,
    word_orthogonal,
)
from pclifford.stabilizer import (
    add_ancilla,
    canonical_isotropic,
    stab_clifford,
    transform_isotropic,
)
from pclifford.strings import (
    MajoranaString,
    compose,
    jordan_wigner_map,
    quad_lower,
    zeta_coeff,
)

ORTHOGONAL_DIMS = (1, 2, 3, 4, 5, 6, 7, 8, 64, 256)
SYMPLECTIC_DIMS = (2, 4, 6, 192)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _indices(order: int, dim: int) -> list[int]:
    """Both ends of 1..order plus a few seeded interior indices."""
    if order <= 8:
        return list(range(1, order + 1))
    rng = random.Random(dim)
    return [1, order] + [rng.randrange(order) + 1 for _ in range(4)]


def _orthogonal_index_items():
    for dim in ORTHOGONAL_DIMS:
        for i in _indices(group_order("orthogonal", dim), dim):
            yield dim, hex(i), sample_orthogonal(dim, i).m.data


def _orthogonal_seeded_items():
    for dim in ORTHOGONAL_DIMS:
        for seed in (0, 1, 2):
            yield dim, seed, sample_orthogonal_random(dim, seed).m.data


def _symplectic_index_items():
    for dim in SYMPLECTIC_DIMS:
        for basis in ("pauli", "majorana"):
            idx = _indices(group_order("symplectic", dim), dim)
            for i in idx if dim < 192 else idx[:3]:
                yield dim, basis, hex(i), sample_symplectic(dim, i, basis).m.data


def _symplectic_seeded_items():
    for dim in SYMPLECTIC_DIMS:
        for basis in ("pauli", "majorana"):
            for seed in (0, 1) if dim == 192 else (0, 1, 2):
                yield dim, basis, seed, sample_symplectic_random(dim, seed, basis).m.data


def _encoder_items():
    rng = random.Random(20240715)
    for _ in range(40):
        n0 = rng.randint(1, 12)
        r = rng.randint(1, n0)
        S0 = sample_orthogonal_random(2 * n0, rng)
        M = add_ancilla(transform_isotropic(S0, canonical_isotropic(n0, r)))
        S = word_orthogonal(stab_clifford(M))
        word = decompose_orthogonal(S)
        yield n0, r, S.m.data, tuple(str(a) for a in word)


def _monte_carlo_items():
    for seed in (1, 2, 3):
        for rep in (
            frame_potential("orthogonal", 6, 3, mode="monte_carlo", seed=seed, samples=400),
            frame_potential("orthogonal", 7, 2, mode="monte_carlo", seed=seed, samples=400),
            frame_potential("symplectic", 4, 3, mode="monte_carlo", seed=seed, samples=400),
            parity_frame_potential(6, 4, mode="monte_carlo", seed=seed, samples=400),
        ):
            yield rep.ensemble, rep.dim, rep.t, repr(rep.estimate), repr(rep.std_error)


GOLDEN = {
    "orthogonal_index": "ac5828dec42ab2268aa682aa55d021e21e45b22b0fd9e286278850829bf07476",
    "orthogonal_seeded": "16338691b68d3597ee3fc0bf1aba1b2ebc801b57ff98c92e0bc8fff18f4ea401",
    "symplectic_index": "6940da7f98447731dc21cdeef39c33a72e34fe7f94d44608592eccdb64a25ea1",
    "symplectic_seeded": "4b80451facb4d2b01e8dbb371cb17caad3574fd067f08418c40cefd7e7f1bafc",
    "encoder": "a5a414611d808a289295bbb3511a64f1e9a26a64de41701148c9626ee31bdf61",
    "monte_carlo": "40106f7ad5c4021aa190755b56329ac02b871ebe1625b7eb3f59ec28f50f8720",
}

ITEMS = {
    "orthogonal_index": _orthogonal_index_items,
    "orthogonal_seeded": _orthogonal_seeded_items,
    "symplectic_index": _symplectic_index_items,
    "symplectic_seeded": _symplectic_seeded_items,
    "encoder": _encoder_items,
    "monte_carlo": _monte_carlo_items,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert _digest(ITEMS[name]()) == GOLDEN[name]


@pytest.mark.parametrize(
    "kind, dim, t, restricted",
    [
        ("orthogonal", 6, 2, False),
        ("orthogonal", 7, 3, False),
        ("orthogonal", 8, 2, True),
        ("symplectic", 6, 2, False),
    ],
)
def test_monte_carlo_consumes_the_sampler_stream(kind, dim, t, restricted):
    """An MC run of k samples leaves the rng where k sampler calls do."""
    k = 25
    by_sampler = random.Random(99)
    for _ in range(k):
        if kind == "orthogonal":
            sample_orthogonal_random(dim, by_sampler)
        else:
            sample_symplectic_random(dim, by_sampler)
    by_mc = random.Random(99)
    if restricted:
        parity_frame_potential(dim, t, mode="monte_carlo", seed=by_mc, samples=k)
    else:
        frame_potential(kind, dim, t, mode="monte_carlo", seed=by_mc, samples=k)
    assert by_mc.getstate() == by_sampler.getstate()


def _orthogonal_order_closed_form(dim: int) -> int:
    """|O(2n+1)| = |Sp(2n)| and |O(2n)| = 2^(2n-1) |Sp(2n-2)|."""
    if dim % 2:
        return _symplectic_order_closed_form(dim - 1)
    return (1 << (dim - 1)) * _symplectic_order_closed_form(dim - 2)


def _symplectic_order_closed_form(dim: int) -> int:
    """|Sp(2n, F2)| = 2^(n^2) prod_{i=1..n} (4^i - 1)."""
    n = dim // 2
    return (1 << (n * n)) * math.prod((1 << (2 * i)) - 1 for i in range(1, n + 1))


@pytest.mark.parametrize("dim", range(1, 65))
def test_orthogonal_order_matches_closed_forms(dim):
    level_product = math.prod((1 << (k - 1)) - (k & 1) for k in range(2, dim + 1))
    assert group_order("orthogonal", dim) == level_product
    assert group_order("orthogonal", dim) == _orthogonal_order_closed_form(dim)


@pytest.mark.parametrize("dim", range(2, 65, 2))
def test_symplectic_order_matches_closed_form(dim):
    assert group_order("symplectic", dim) == _symplectic_order_closed_form(dim)


# ---------------------------------------------------------------------------
# exact potentials, the order of the Monte Carlo float sums and orbit sizes,
# pinned on the implementation that computed each mode in its own loop; the
# orbit sizes were read from the search over all 2^16 O(8) label pairs

EXACT_POTENTIALS = {
    ("orthogonal", 1, False): ("1", "2", "4", "8"),
    ("orthogonal", 2, False): ("1", "3", "10", "36"),
    ("orthogonal", 3, False): ("1", "4", "20", "120"),
    ("orthogonal", 4, False): ("1", "4", "23", "190"),
    ("orthogonal", 5, False): ("1", "4", "24", "232"),
    ("orthogonal", 6, False): ("1", "4", "24", "239"),
    ("orthogonal", 2, True): ("1", "1", "1", "1"),
    ("orthogonal", 4, True): ("1", "2", "5", "15"),
    ("orthogonal", 6, True): ("1", "2", "6", "29"),
    ("symplectic", 2, False): ("1", "2", "5", "15"),
    ("symplectic", 4, False): ("1", "2", "6", "29"),
}


@pytest.mark.parametrize("kind, dim, restricted", sorted(EXACT_POTENTIALS))
def test_exact_potentials(kind, dim, restricted):
    if restricted:
        got = [parity_frame_potential(dim, t).value for t in range(1, 5)]
    else:
        got = [frame_potential(kind, dim, t).value for t in range(1, 5)]
    assert tuple(map(str, got)) == EXACT_POTENTIALS[kind, dim, restricted]


def test_exact_potential_orthogonal_7():
    # pinned by enumerating O(7) (1451520 elements); t = 2 and 3 were read
    # as 4 and 24 by the scalar enumeration
    got = [str(frame_potential("orthogonal", 7, t).value) for t in (2, 3, 4)]
    assert got == ["4", "24", "240"]


def _gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of F2^n."""
    num = math.prod((1 << (n - i)) - 1 for i in range(k))
    return num // math.prod((1 << (i + 1)) - 1 for i in range(k))


def _alternating_form_ranks(m: int) -> Counter:
    """{rank: count} over every alternating form on F2^m, from its matrix."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    ranks = Counter()
    for bits in range(1 << len(pairs)):
        rows = [0] * m
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        ranks[BitMatrix(m, m, tuple(rows)).rank() if m else 0] += 1
    return ranks


def _forms_of_rank(m: int, rank: int) -> int:
    """The alternating forms of the given rank on F2^m by MacWilliams'
    product, prod_(i<s) 4^i / (4^(i+1) - 1) x prod_(i<2s) (2^(m-i) - 1)
    for rank 2s; none of odd rank."""
    if rank % 2 or rank > m:
        return 0
    s = rank // 2
    count = Fraction(1)
    for i in range(s):
        count *= Fraction(4**i, 4 ** (i + 1) - 1)
    for i in range(rank):
        count *= 2 ** (m - i) - 1
    assert count.denominator == 1
    return int(count)


@pytest.mark.parametrize("m", range(7))
def test_form_rank_product_matches_enumeration(m):
    want = _alternating_form_ranks(m)
    assert {rank: _forms_of_rank(m, rank) for rank in range(m + 1)} == {
        rank: want[rank] for rank in range(m + 1)
    }


def _witt_count(n: int, t: int) -> int:
    """F_t of Sp(2n) as the number of orbits on (t-1)-tuples of labels.

    By Witt's theorem an orbit is fixed by the kernel of the tuple, a
    subspace of F2^(t-1), and the alternating Gram form the tuple induces
    on the m-dimensional quotient; a form of rank 2s embeds in F2^(2n)
    iff m - s <= n.
    """
    return sum(
        _gaussian_binomial(t - 1, m) * _forms_of_rank(m, 2 * s)
        for m in range(t)
        for s in range(m // 2 + 1)
        if m - s <= n
    )


@pytest.mark.parametrize("n, t", [(1, t) for t in range(1, 5)] + [(2, t) for t in range(1, 5)])
def test_witt_count_matches_the_pinned_symplectic_values(n, t):
    assert str(_witt_count(n, t)) == EXACT_POTENTIALS["symplectic", 2 * n, False][t - 1]


@pytest.mark.parametrize("t, want", [(3, 6), (4, 30)])
def test_exact_potential_symplectic_6_matches_witt_count(t, want):
    # the values the enumeration of Sp(6) (1451520 elements) gave
    assert _witt_count(3, t) == want
    assert frame_potential("symplectic", 6, t).value == want


@pytest.mark.parametrize("t", [2, 3, 4])
def test_exact_orthogonal_potentials_from_the_witt_count(t):
    """F2^7 = E + <j> with E the even vectors, on which the dot form is
    alternating: O(7) fixes j and acts on E as Sp(6), so a tuple is an
    E-tuple and t - 1 free bits.  O(6) is the stabilizer in O(7) of
    e_7 + j, so its orbits are the Sp(6) orbits of t-tuples whose first
    entry is nonzero."""
    assert frame_potential("orthogonal", 7, t).value == 2 ** (t - 1) * _witt_count(3, t)
    assert frame_potential("orthogonal", 6, t).value == _witt_count(3, t + 1) - _witt_count(3, t)


MC_LARGE = {
    1: ("51323544.10666667", "22901283.045428168"),
    2: ("17217491.584", "11472162.065483276"),
    3: ("39127230.848", "19838143.339997374"),
}


@pytest.mark.parametrize("seed", sorted(MC_LARGE))
def test_monte_carlo_sums_in_sample_order(seed):
    """O(8) at t = 8: summands reach 2^56, so the float sums are not exact
    and their value depends on the order of the additions."""
    rep = frame_potential("orthogonal", 8, 8, mode="monte_carlo", seed=seed, samples=3000)
    assert (repr(rep.estimate), repr(rep.std_error)) == MC_LARGE[seed]


# Monte Carlo on both sides of each table boundary of batch: the subgroup
# tables (O(5)/O(6), Sp(4)/Sp(6)), the level tables (O(13)/O(14),
# Sp(6)/Sp(8)) and the uint64 rows (64 labels); taken before the subgroup
# tables were added
MC_GRID = "3f257e6f6f1fe9a8ea488be5badb8426de50578bfed902c79e5a961f5dbda6c2"


def _monte_carlo_grid():
    """(estimate, std_error) at t = 3 for seeds 1-3 of each group, each
    even O(N) unrestricted and then restricted."""
    grid = (("orthogonal", (2, 3, 4, 5, 6, 7, 8, 13, 14, 64)), ("symplectic", (2, 4, 6, 8, 64)))
    for kind, dims in grid:
        for dim in dims:
            kw = dict(mode="monte_carlo", samples=300 if dim == 64 else 3000)
            for restricted in (False, True) if kind == "orthogonal" and dim % 2 == 0 else (False,):
                for seed in (1, 2, 3):
                    if restricted:
                        rep = parity_frame_potential(dim, 3, seed=seed, **kw)
                    else:
                        rep = frame_potential(kind, dim, 3, seed=seed, **kw)
                    yield rep.estimate, rep.std_error


def test_monte_carlo_grid_digest():
    text = "".join(repr(item) for item in _monte_carlo_grid())
    assert hashlib.sha256(text.encode()).hexdigest() == MC_GRID


# every orbit case of perfbench/workloads.py: {orbit size: multiplicity}
ORBIT_SIZES = {
    ("orthogonal", 4, "full", 1): {1: 2, 6: 1, 8: 1},
    ("orthogonal", 4, "full", 2): {1: 4, 6: 6, 8: 6, 24: 7},
    ("orthogonal", 4, "even_quotient", 1): {1: 1, 3: 1},
    ("orthogonal", 4, "even_quotient", 2): {1: 1, 3: 3, 6: 1},
    ("orthogonal", 4, "even_quotient", 3): {1: 1, 3: 7, 6: 7},
    ("orthogonal", 6, "full", 1): {1: 2, 30: 1, 32: 1},
    ("orthogonal", 6, "full", 2): {1: 4, 30: 6, 32: 6, 360: 1, 480: 7},
    ("orthogonal", 6, "even_quotient", 1): {1: 1, 15: 1},
    ("orthogonal", 6, "even_quotient", 2): {1: 1, 15: 3, 90: 1, 120: 1},
    ("orthogonal", 6, "even_quotient", 3): {1: 1, 15: 7, 90: 7, 120: 7, 360: 7},
    ("orthogonal", 8, "full", 1): {1: 2, 126: 1, 128: 1},
    ("orthogonal", 8, "full", 2): {1: 4, 126: 6, 128: 6, 7560: 1, 8064: 7},
    ("orthogonal", 8, "even_quotient", 1): {1: 1, 63: 1},
    ("orthogonal", 8, "even_quotient", 2): {1: 1, 63: 3, 1890: 1, 2016: 1},
    ("symplectic", 2, "full", 1): {1: 1, 3: 1},
    ("symplectic", 2, "full", 2): {1: 1, 3: 3, 6: 1},
    ("symplectic", 2, "full", 3): {1: 1, 3: 7, 6: 7},
    ("symplectic", 4, "full", 1): {1: 1, 15: 1},
    ("symplectic", 4, "full", 2): {1: 1, 15: 3, 90: 1, 120: 1},
    ("symplectic", 4, "full", 3): {1: 1, 15: 7, 90: 7, 120: 7, 360: 7},
    ("symplectic", 6, "full", 1): {1: 1, 63: 1},
    ("symplectic", 6, "full", 2): {1: 1, 63: 3, 1890: 1, 2016: 1},
    ("symplectic", 8, "full", 1): {1: 1, 255: 1},
}


@pytest.mark.parametrize("group, dim, space, k", sorted(ORBIT_SIZES))
def test_orbit_sizes(group, dim, space, k):
    want = sorted(Counter(ORBIT_SIZES[group, dim, space, k]).elements())
    assert orbit_decomposition(dim, k, group, space) == want


# ---------------------------------------------------------------------------
# the string layer: composition coefficients, the quadratic form, products
# and braid conjugation on seeded labels, pinned on the implementation that
# summed a cross term, a symmetric correction and the symplectic product

STRING_LENGTHS = (2, 6, 64, 1024, 8192)
# quad_lower is public at odd lengths too
QUAD_LENGTHS = STRING_LENGTHS + (1, 3, 7, 65, 1025)


def _string_rng(n: int, basis: str) -> random.Random:
    return random.Random(4 * n + ("majorana", "pauli").index(basis))


def _string_count(n: int) -> int:
    return 64 if n <= 64 else 8


def _labels(n: int, basis: str) -> list[BitVec]:
    rng = _string_rng(n, basis)
    return [BitVec(n, rng.getrandbits(n)) for _ in range(2 * _string_count(n))]


def _zeta_items():
    for basis in ("majorana", "pauli"):
        for n in STRING_LENGTHS:
            labels = _labels(n, basis)
            for v, w in zip(labels[::2], labels[1::2]):
                yield basis, n, zeta_coeff(v, w, basis), zeta_coeff(w, v, basis)


def _quad_items():
    for basis in ("majorana", "pauli"):
        for n in QUAD_LENGTHS:
            rng = _string_rng(n, basis)
            for _ in range(_string_count(n)):
                yield basis, n, quad_lower(BitVec(n, rng.getrandbits(n)), basis)


def _compose_items():
    for basis in ("majorana", "pauli"):
        for n in STRING_LENGTHS:
            labels = _labels(n, basis)
            for k, (v, w) in enumerate(zip(labels[::2], labels[1::2])):
                s1 = MajoranaString(k, v, basis)
                s2 = MajoranaString(3 * k + 1, w, basis)
                yield basis, n, repr(compose(s1, s2)), repr(compose(s2, s1))


def _braid_items():
    for basis in ("majorana", "pauli"):
        for n in STRING_LENGTHS:
            labels = _labels(n, basis)
            for k, (a, v) in enumerate(zip(labels[::2], labels[1::2])):
                even = BitVec(n, a.bits ^ (a.bits.bit_count() & 1))
                s = MajoranaString(k, v, basis)
                yield basis, n, repr(braid_action(even, s))
                yield basis, n, repr(braid_action(a, s, allow_odd=True))


STRING_GOLDEN = {
    "zeta_coeff": "9730a8b85ef308b1f33c8e188c7c756b562485e2279935308328f6c27a27c36e",
    "quad_lower": "d3e7a215980e3427d33e6b57dfb139731141404cf964f3beb007e51be3274cb6",
    "compose": "b9d098ef090e5a6d72294dbfa0e30fd74a2d08b246c4c41b79872a112ddc47cf",
    "braid_action": "cfda1947702646c8e96ffe70185a92a908266bc286ee804a32699bd760c8b432",
}

STRING_ITEMS = {
    "zeta_coeff": _zeta_items,
    "quad_lower": _quad_items,
    "compose": _compose_items,
    "braid_action": _braid_items,
}


@pytest.mark.parametrize("name", sorted(STRING_GOLDEN))
def test_string_golden_digest(name):
    assert _digest(STRING_ITEMS[name]()) == STRING_GOLDEN[name]


# the Jordan-Wigner relabeling of seeded strings in both bases, pinned on
# the implementation that multiplied by the dense make_form("jw") matrix
JW_GOLDEN = "c7e550a4dc2da963d443a4b8f07bab8b83d860a161474c893944b81bbcdd20b0"


def _jw_items():
    for basis in ("majorana", "pauli"):
        for n in STRING_LENGTHS:
            for k, v in enumerate(_labels(n, basis)):
                yield basis, n, repr(jordan_wigner_map(MajoranaString(k, v, basis)))


def test_jordan_wigner_golden_digest():
    assert _digest(_jw_items()) == JW_GOLDEN


# ---------------------------------------------------------------------------
# the command line: (exit code, stdout, stderr) of in-process main for every
# subcommand, its usage errors and its help, pinned before the entry points
# read their argparse namespace directly

CLI_INVOCATIONS = [
    ([], ""),
    (["--help"], ""),
    (["frob"], ""),
    (["order", "--group", "o", "--n", "3"], ""),
    (["order", "--group", "sp", "--dim", "4"], ""),
    (["order", "--group", "u", "--dim", "4"], ""),
    (["order", "--group", "o"], ""),
    (["order", "--group", "o", "--dim", "4", "--n", "2"], ""),
    (["sample", "--help"], ""),
    (["sample", "--group", "o", "--dim", "4", "--index", "5"], ""),
    (["sample", "--group", "o", "--dim", "8"], ""),
    (["sample", "--group", "sp", "--dim", "4", "--index", "7"], ""),
    (["sample", "--group", "sp", "--dim", "6", "--seed", "3", "--basis", "majorana"], ""),
    (["sample", "--group", "o", "--dim", "4", "--index", "1", "--seed", "3"], ""),
    (["sample", "--group", "o", "--dim", "4", "--basis", "pauli"], ""),
    (["jw", "--dim", "6"], ""),
    (["jw", "--dim", "3"], ""),
    (["compose"], "i^0 1100\ni^0 0110\n"),
    (["compose", "--basis", "pauli", "-"], "i^0 11\ni^0 10\n"),
    (["compose"], ""),
    (["compose", "/nonexistent/strings.txt"], ""),
    (["stab-encode"], "n=3 r=1\n111100\n"),
    (["stab-encode", "-"], "n=2 r=2\n1100\n0011\n"),
    (["stab-encode"], "n=2 r=1\n1000\n"),
    (["frame", "--help"], ""),
    (["frame", "--group", "o", "--dim", "4", "--t", "4", "--exact", "--parity-restricted"], ""),
    (["frame", "--group", "sp", "--dim", "2", "--t", "4", "--exact"], ""),
    (["frame", "--group", "o", "--n", "3", "--t", "2", "--samples", "400"], ""),
    (["frame", "--group", "sp", "--dim", "4", "--t", "3", "--samples", "300", "--seed", "5"], ""),
    (["frame", "--group", "o", "--dim", "6", "--t", "3", "--samples", "200", "--parity-restricted"], ""),
    (["frame", "--group", "sp", "--dim", "4", "--t", "2", "--exact", "--parity-restricted"], ""),
    (["orbits", "--group", "o", "--dim", "4", "--tuple-order", "2"], ""),
    (["orbits", "--group", "o", "--n", "2", "--space", "even-quotient"], ""),
    (["orbits", "--group", "sp", "--dim", "4"], ""),
    (["verify"], ""),
    (["verify", "--seed", "5"], ""),
]
CLI_INVOCATIONS += [([sub, "--help"], "") for sub in ("order", "jw", "compose", "stab-encode", "orbits", "verify")]
# re-pinned when the orbits help became "orbit sizes by Witt's theorem": of
# the 42 items only the top-level --help changed
CLI_GOLDEN = "59dc7cec5c1d9bcabc1d086bf5e7b357b172cce8548adf68a504e927b0b52eab"


def _cli_items(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    for argv, stdin in CLI_INVOCATIONS:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(list(argv))
        out, err = capsys.readouterr()
        yield argv, code, out, err


def test_cli_golden_digest(capsys, monkeypatch):
    assert _digest(_cli_items(capsys, monkeypatch)) == CLI_GOLDEN
