"""Frame potentials, fixed-point profiles, orbit counts.

The t-th frame potential of a group of F2 maps is the group average of
f(S)^(t-1), where f counts fixed labels; the parity-restricted variant
averages ((f_+ + c_+)/2)^(t-1) with f_+ the even fixed labels and c_+
the even labels S maps to their complement.  It needs an even
dimension: only then is the all-ones vector j even, and 0 and j make
f_+ >= 2.  Fixed-point counts come from rank computations, never from
enumeration.

By Burnside's lemma the average of f^(t-1) is the number of orbits on
(t-1)-tuples of labels, and the restricted average the number on
(t-1)-tuples of the even quotient.  Exact mode returns that count,
which orbit_decomposition's Witt classes give in closed form at every
size; no element is built, and numpy is not loaded.  The count is
memoized per (group, dim, space, tuple order), at most 256 of them.

Every count is a power of two, so in Monte Carlo an element enters only
through its fixed-point exponent e = log2 f, or e = log2((f_+ +
c_+)/2) when restricted, and its summand is 2^(e(t-1)).  e is dim less
one rank: of S + I, or restricted, of [S + I | 1] over [j | 0], which
is r = rank [S + I; j] when c_+ = f_+ = 2^(dim - r) and r + 1 when c_+
= 0.  At even dim every row of S + I and j is even, so bit 0 is the
parity of the other bits and can hold the augmented bit without
changing the rank: a row of 64 labels stays in 64 bits.  One exponent
formula, in _exponent and its batch counterpart, is the only path from
an element to a summand; Monte Carlo sums the exponents of random pick
lists as a stream.

Every Monte Carlo pick comes from group.random_draws, which runs
randrange's own getrandbits loop inline on a random.Random: the same
draws as the samplers, at about a third of the cost of randrange.  Up to
64 labels the run goes in chunks of at most 1024 pick lists, drawn
straight into uint64 and built and ranked in numpy (a chunk at 64 labels
peaks near 3 MB).  Past 64 labels a row does not fit a uint64, so each
sample is built by the scalar group_rows and ranked by _exponent, and
numpy is not loaded: the stream holds one element, dim Python ints, at
a time.

Monte Carlo estimates report mean and standard error of the mean (null
for a single sample).  A run is reproducible from (seed, dim, samples)
alone and consumes the rng exactly as the same number of sampler calls
would: a chunk draws its pick lists in sample order, and the last chunk
only the samples that remain.  Its float sums run in sample order: past
2^53 they round, and a histogram reduction would round differently.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from ._bits import gather, row_parities
from .f2core import BitMatrix, rank_ints
from .group import (
    OrthogonalMap,
    SymplecticMap,
    group_rows,
    level_bits,
    level_sizes,
    random_draws,
)

__all__ = [
    "FixedPointProfile",
    "FramePotentialReport",
    "fixed_point_profile",
    "frame_potential",
    "parity_frame_potential",
    "haar_frame_potential",
    "orbit_decomposition",
    "quotient_action",
]


@dataclass(frozen=True)
class FixedPointProfile:
    """f: all fixed labels; f_plus: even fixed labels; c_plus: even
    labels mapped to their complement (0 or f_plus)."""

    f: int
    f_plus: int
    c_plus: int

    def __post_init__(self) -> None:
        for x in (self.f, self.f_plus):
            if x < 1 or x & (x - 1):
                raise ValueError("fixed-point counts must be powers of two")
        if self.c_plus not in (0, self.f_plus):
            raise ValueError("complemented count must be 0 or f_plus")


@dataclass(frozen=True)
class FramePotentialReport:
    """seed: the int a Monte Carlo run used, drawn from the system when
    none is given; null for a passed random.Random, whose stream (not an
    int) the caller owns."""

    ensemble: str
    dim: int
    t: int
    mode: str
    restricted: bool
    value: Optional[Fraction] = None
    estimate: Optional[float] = None
    std_error: Optional[float] = None
    samples: Optional[int] = None
    seed: Optional[int] = None

    def to_json(self) -> str:
        payload: dict = {
            "ensemble": self.ensemble,
            "dim": self.dim,
            "t": self.t,
            "mode": self.mode,
            "restricted": self.restricted,
        }
        if self.mode == "exact":
            assert self.value is not None
            payload["value"] = (
                int(self.value) if self.value.denominator == 1 else str(self.value)
            )
        else:
            payload["estimate"] = self.estimate
            payload["std_error"] = self.std_error
            payload["samples"] = self.samples
            payload["seed"] = self.seed
        return json.dumps(payload, allow_nan=False)


# ---------------------------------------------------------------------------
# fixed points by rank


def _parity_counts(rows: list[int]) -> tuple[int, int]:
    """(f_plus, c_plus) from two rank computations on S + I."""
    dim = len(rows)
    kicked = [rows[i] ^ (1 << (dim - 1 - i)) for i in range(dim)]
    j = (1 << dim) - 1
    r2 = rank_ints(kicked + [j])
    f_plus = 1 << (dim - r2)
    # (S+I)v = j together with j^T v = 0, checked via the augmented rank
    aug = [(row << 1) | 1 for row in kicked] + [j << 1]
    c_plus = f_plus if rank_ints(aug) == r2 else 0
    return f_plus, c_plus


def _exponent(rows: list[int], restricted: bool) -> int:
    """e = log2 f, or log2((f_+ + c_+)/2) when restricted: dim less the
    rank of S + I, or of its rows with bit 0 set over j with bit 0 clear."""
    dim = len(rows)
    kicked = [rows[i] ^ (1 << (dim - 1 - i)) for i in range(dim)]
    if restricted:
        kicked = [r | 1 for r in kicked] + [(1 << dim) - 2]
    return dim - rank_ints(kicked)


def fixed_point_profile(S: OrthogonalMap | SymplecticMap) -> FixedPointProfile:
    """Counts via kernel ranks of S + I; O(dim^3), no enumeration."""
    rows = list(S.m.data)
    f = 1 << _exponent(rows, False)
    f_plus, c_plus = _parity_counts(rows)
    return FixedPointProfile(f, f_plus, c_plus)


# ---------------------------------------------------------------------------
# the exponent stream and the potentials

# Monte Carlo pick lists per batch to 64 labels, near 3 MB there; 128-256 fault less, run slower
_MC_BATCH = 1024


def _potential(
    kind: str,
    dim: int,
    t: int,
    restricted: bool,
    mode: str,
    seed,
    samples: int,
) -> FramePotentialReport:
    space = "even_quotient" if restricted else "full"
    _check_space(kind, dim, space)
    # bools and floats are refused as the seed is: they would print as such
    if type(t) is not int or t < 1:
        raise ValueError(f"frame potential order must be an int >= 1, not {t!r}")
    if mode == "exact":
        refusal = _count_refusal(dim, space, t - 1)
        if refusal:
            raise ValueError(refusal)
        count = _orbit_count(kind, dim, space, t - 1)
        return FramePotentialReport(kind, dim, t, "exact", restricted, value=Fraction(count))
    if mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    if type(samples) is not int or samples < 1:
        raise ValueError(f"samples must be an int >= 1, not {samples!r}")
    # only these can be recorded and passed back to replay the run
    if not (seed is None or isinstance(seed, random.Random) or type(seed) is int):
        raise ValueError(f"seed must be None, an int or a random.Random, not {seed!r}")
    if seed is None:
        seed = next(random_draws(random.SystemRandom(), [1 << 53]))
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    sizes = level_sizes(kind, dim)
    if dim > 64:  # past the uint64 rows of the batch module, one at a time
        pick_lists = (list(random_draws(rng, sizes)) for _ in range(samples))
        stream = (_exponent(group_rows(kind, dim, p), restricted) for p in pick_lists)
    else:
        from . import batch  # numpy, loaded with the first potential of <= 64 labels

        # chunks in sample order; the last draws only the samples that remain
        chunks = (
            batch.random_picks(rng, sizes, min(_MC_BATCH, samples - lo))
            for lo in range(0, samples, _MC_BATCH)
        )
        stream = itertools.chain.from_iterable(
            batch.exponents(kind, dim, restricted, picks).tolist() for picks in chunks
        )
    acc = 0.0
    acc_sq = 0.0
    try:
        for e in stream:
            x = 2.0 ** (e * (t - 1))
            acc += x
            acc_sq += x * x
        finite = math.isfinite(acc) and math.isfinite(acc_sq)
    except OverflowError:
        finite = False
    if not finite:
        # point at --exact only where exact mode takes the request
        refusal = _count_refusal(dim, space, t - 1)
        hint = f"exact mode refuses it too: {refusal}" if refusal else "use exact mode (--exact)"
        raise ValueError(f"Monte Carlo sums at t={t} overflow a float; {hint}")
    est = acc / samples
    se = None  # undefined for a single sample
    if samples > 1:
        var = max(acc_sq - samples * est * est, 0.0) / (samples - 1)
        se = math.sqrt(var / samples)
    return FramePotentialReport(
        kind,
        dim,
        t,
        "monte_carlo",
        restricted,
        estimate=est,
        std_error=se,
        samples=samples,
        seed=seed if isinstance(seed, int) else None,
    )


def frame_potential(
    kind: str,
    dim: int,
    t: int,
    mode: str = "exact",
    seed=None,
    samples: int = 10**6,
) -> FramePotentialReport:
    """Group average of f(S)^(t-1), exact or Monte Carlo."""
    return _potential(kind, dim, t, False, mode, seed, samples)


def parity_frame_potential(
    dim: int,
    t: int,
    mode: str = "exact",
    seed=None,
    samples: int = 10**6,
) -> FramePotentialReport:
    """Orthogonal-ensemble average of ((f_+ + c_+)/2)^(t-1)."""
    return _potential("orthogonal", dim, t, True, mode, seed, samples)


def haar_frame_potential(t: int, N: int) -> int:
    """Haar reference: the sum of (f^lam)^2 over the partitions lam of t
    with at most N rows, f^lam from hook lengths.  It counts the
    permutations of t with no increasing subsequence longer than N
    (Rains, EJC 1998): the Catalan number for N = 2, t! for N >= t."""
    # the int rule of _potential: True and 2.5 would count as 1 and 2 rows
    if type(t) is not int:
        raise ValueError(f"Haar order must be an int, not {t!r}")
    if type(N) is not int:
        raise ValueError(f"Haar dimension must be an int, not {N!r}")
    if t < 1 or N < 1:
        raise ValueError("order and dimension must be >= 1")

    def shapes(rest: int, rows: int, largest: int):
        """Partitions of rest into at most rows parts, none above largest."""
        if rest == 0:
            yield []
        elif rows:
            for part in range(min(rest, largest), 0, -1):
                for tail in shapes(rest - part, rows - 1, part):
                    yield [part] + tail

    total = 0
    for lam in shapes(t, N, t):
        cols = [sum(p > j for p in lam) for j in range(lam[0])]
        hooks = math.prod(p - j + cols[j] - i - 1 for i, p in enumerate(lam) for j in range(p))
        total += (math.factorial(t) // hooks) ** 2
    return total


# ---------------------------------------------------------------------------
# orbits by Witt's theorem

# points-bits x tuple order bounds the bits of every orbit count and size
# on a space; 2^13 bits keep each within the 4300 digits Python prints
_EXACT_BITS = 1 << 13
_ORBIT_CAP = 1 << 16  # the most orbits one list holds


def _check_space(group: str, dim: int, space: str) -> None:
    """Rejects a group, dim or space that no orbit count acts on."""
    level_bits(group, dim)  # validates group and dim
    if space not in ("full", "even_quotient"):
        raise ValueError(f"unknown space {space!r}")
    if space == "even_quotient" and dim % 2:
        raise ValueError("even quotient needs even dimension")
    if group == "symplectic" and space == "even_quotient":
        raise ValueError("the symplectic group does not act on the even quotient")


def _count_refusal(dim: int, space: str, k: int) -> Optional[str]:
    """Why orbits on k-tuples of the space are not counted, or None."""
    bits = dim - 2 if space == "even_quotient" else dim  # log2 of the point count
    if bits * k > _EXACT_BITS:
        return (
            f"{k}-tuples of 2^{bits} points take {bits * k} bits, "
            f"past the cap of {_EXACT_BITS} bits"
        )
    return None


def _subspaces(k: int, d: int) -> int:
    """[k d]_2, the d-dimensional subspaces of F2^k; 0 for d outside 0..k.
    Taken as [k k-d]_2 where that has fewer factors."""
    if not 0 <= d <= k:
        return 0
    d = min(d, k - d)
    num = math.prod((1 << (k - i)) - 1 for i in range(d))
    return num // math.prod((2 << i) - 1 for i in range(d))


def _alternating_forms(m: int, s: int) -> int:
    """A(m, 2s), the alternating forms of rank 2s on F2^m."""
    num = math.prod((1 << (m - i)) - 1 for i in range(2 * s)) << (s * (s - 1))
    return num // math.prod((4 << 2 * i) - 1 for i in range(s))


def _embeddings(n: int, m: int, s: int) -> int:
    """The isometric embeddings into F2^(2n) of a form of rank 2s on F2^m."""
    pairs = math.prod(((1 << 2 * (n - i)) - 1) << (2 * (n - i) - 1) for i in range(s))
    free = 2 * (n - s)
    return pairs * math.prod((1 << (free - i)) - (1 << i) for i in range(m - 2 * s))


def _witt_classes(n: int, k: int, first_nonzero: bool = False) -> list[tuple[int, int, int]]:
    """(m, s, count) of the Sp(2n) orbits on k-tuples: count orbits of
    relation codimension m and form rank 2s, for each m - s <= n; m stops
    at min(k, 2n), past which no s is left.  With first_nonzero only the
    tuples whose first entry is nonzero, whose relation spaces avoid e_1."""
    classes = []
    for m in range(min(k, 2 * n) + 1):
        d = k - m  # the dimension of the relation space
        kernels = _subspaces(k, d) - (_subspaces(k - 1, d - 1) if first_nonzero else 0)
        for s in range(max(m - n, 0), m // 2 + 1):
            classes.append((m, s, kernels * _alternating_forms(m, s)))
    return classes


def _orbit_classes(group: str, dim: int, space: str, k: int) -> tuple[int, bool, list]:
    """(n, first_nonzero, classes): the orbits of the group on k-tuples of
    the space as the Sp(2n) classes of _witt_classes, by the reductions
    orbit_decomposition describes.  With first_nonzero each orbit size is
    the Sp(2n) one over the 4^n - 1 nonzero labels."""
    n = dim // 2
    if group == "symplectic":
        return n, False, _witt_classes(n, k)
    if space == "even_quotient":
        return n - 1, False, _witt_classes(n - 1, k)
    if dim % 2:
        return n, False, [(m, s, count << k) for m, s, count in _witt_classes(n, k)]
    return n, True, _witt_classes(n, k + 1, True)


@lru_cache(maxsize=256)
def _orbit_count(group: str, dim: int, space: str, k: int) -> int:
    """The number of orbits on k-tuples: F_(k+1), the exact potential.
    Callers apply _count_refusal first, so a refused request leaves the
    memo as it was, and at most 256 ints of at most 8193 bits are kept."""
    return sum(count for _, _, count in _orbit_classes(group, dim, space, k)[2])


def orbit_decomposition(
    dim: int, tuple_order: int, group: str, space: str = "full"
) -> list[int]:
    """Sorted orbit sizes of the group on (space)^tuple_order.

    The orthogonal group O(N) preserves the dot form on F2^N, the
    symplectic group Sp(2n) the pair form.  The even quotient is the
    even labels modulo the all-ones vector j; the symplectic group does
    not act on it (transvections move j), so that combination is
    rejected.

    Every count comes from Witt's theorem for Sp(2n), by which an
    isometry between subspaces extends to the whole space.  A k-tuple
    is a linear map F2^k -> F2^(2n); its orbit is fixed by the relation
    space K (the kernel, of codimension m) and the alternating form of
    rank 2s that it induces on F2^k / K.  Such a form embeds iff
    m - s <= n, and there are [k m]_2 A(m, 2s) orbits of each (m, s),
    with A(m, 2s) = prod_(i<s) 4^i / (4^(i+1) - 1) x prod_(i<2s)
    (2^(m-i) - 1) the forms of that rank (MacWilliams, Amer. Math.
    Monthly 1969).  Each orbit holds the isometric embeddings of its
    form: prod_(i<s) (4^(n-i) - 1) 2^(2(n-i)-1) ways to place the s
    hyperbolic pairs one after the other, times prod_(i<m-2s)
    (2^(2(n-s)-i) - 2^i) ways to place the m - 2s radical vectors, each
    independent of and orthogonal to the earlier ones, in the 2(n - s)
    dimensions the pairs leave.  The other cases reduce to this one:

    - O(2n + 1) fixes j, and acts on the even labels, where the dot form
      is alternating, as Sp(2n): the Sp(2n) orbits, each once per choice
      of the k bits of j.
    - O(2n) on the even quotient acts as Sp(2n - 2) (quotient_action).
    - O(2n) is the stabilizer in O(2n + 1) of e_(2n+1), so in Sp(2n) of
      its even part, and v -> v + |v| j makes F2^(2n) the even labels of
      F2^(2n+1): its orbits are the Sp(2n) orbits of (k + 1)-tuples
      whose first entry is nonzero, [k+1 d]_2 - [k d-1]_2 relation
      spaces of each dimension d, and each size is divided by the
      4^n - 1 nonzero labels.

    Orbit counting of this kind gives the frame potentials of Clifford
    groups (Zhu, Kueng, Grassl, Gross, arXiv:1609.08172; Gross, Nezami,
    Walter, arXiv:1712.08628); the number of orbits on (t-1)-tuples is
    the t-th frame potential.

    Every argument is checked before two limits, and a request past
    either raises ValueError before any list is built: points-bits x
    tuple order at most 8192 (_count_refusal, as for exact potentials),
    so that every size prints in full, and at most 2^16 orbits, counted
    from the multiplicities.  No cap bounds the tuple order itself.
    """
    _check_space(group, dim, space)
    if type(tuple_order) is not int or tuple_order < 1:
        raise ValueError(f"tuple order must be an int >= 1, not {tuple_order!r}")
    refusal = _count_refusal(dim, space, tuple_order)
    if refusal:
        raise ValueError(refusal)
    n, first_nonzero, classes = _orbit_classes(group, dim, space, tuple_order)
    total = sum(count for _, _, count in classes)
    if total > _ORBIT_CAP:
        shown = total if total.bit_length() <= 64 else f"at least 2^{total.bit_length() - 1}"
        raise ValueError(f"{shown} orbits exceed the cap of 2^16 orbits per list")
    labels = (1 << 2 * n) - 1 if first_nonzero else 1  # the nonzero labels, one Sp(2n) orbit
    sizes = []
    for size, count in sorted((_embeddings(n, m, s) // labels, c) for m, s, c in classes):
        sizes += [size] * count
    return sizes


# ---------------------------------------------------------------------------
# quotient embedding Sp(2n-2) <= O(2n)


def _embedding_rows(n2: int) -> list[int]:
    """Symplectic basis of the even labels modulo the all-ones vector.

    Row pairs (odd, even) for k = 1..n-1; the pairwise dot products
    reproduce the standard pair form, all rows leave the last position
    clear, and every row has even weight.
    """
    rows = []
    for k in range(1, n2 // 2):
        prefix_odd = ((1 << (2 * k - 1)) - 1) << (n2 - (2 * k - 1))
        rows.append(prefix_odd | (1 << (n2 - (2 * k + 1))))
        rows.append(((1 << (2 * k)) - 1) << (n2 - 2 * k))
    return rows


def quotient_action(S: OrthogonalMap) -> SymplecticMap:
    """Induced symplectic action on even labels modulo the all-ones
    vector, expressed in the embedded pair basis; a homomorphism onto
    Sp(dim-2) with kernel of size 2^(dim-1)."""
    n2 = S.dim
    if n2 < 4 or n2 % 2:
        raise ValueError("quotient action needs an even dimension of at least two mode pairs")
    rows = _embedding_rows(n2)
    # row k of (eta B) S B^T: row k ^ 1 of B through S, read against B
    out = (row_parities(rows, gather(S.m.data, rows[k ^ 1])) for k in range(n2 - 2))
    return SymplecticMap(BitMatrix(n2 - 2, n2 - 2, tuple(out)), "pauli")
