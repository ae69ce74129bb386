"""Acceptance criteria, one test per criterion, one printed line each.

Run with -rP (the repository default) to see every line in the PASSES
section of the pytest summary.
"""

import itertools
import random

import numpy as np

from pclifford.f2core import BitVec, make_form
from pclifford.strings import MajoranaString, compose, zeta_coeff
from pclifford.group import (
    CliffordWord,
    OrthogonalMap,
    braid_action,
    group_order,
    sample_orthogonal,
    sample_orthogonal_random,
    sample_symplectic,
    word_orthogonal,
)
from pclifford.stabilizer import add_ancilla, canonical_isotropic, stab_clifford, transform_isotropic
from pclifford.dense import dense_braid, dense_string, parity_restricted_trace_sq
from pclifford.design import (
    fixed_point_profile,
    frame_potential,
    haar_frame_potential,
    orbit_decomposition,
    parity_frame_potential,
    quotient_action,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_even(rng, n2):
    while True:
        bits = rng.randrange(1 << n2)
        if bits.bit_count() % 2 == 0:
            return BitVec(n2, bits)


def test_criterion_01_orthogonal_orders():
    want = {2: 2, 4: 48, 6: 23040}
    ok = True
    for dim, order in want.items():
        if group_order("orthogonal", dim) != order:
            ok = False
            break
        seen = {sample_orthogonal(dim, i).m.data for i in range(1, order + 1)}
        if len(seen) != order:
            ok = False
            break
    _report(1, ok, "orthogonal orders 2/48/23040 with distinct enumeration at N=2,4,6")


def test_criterion_02_symplectic_orders():
    ok = group_order("symplectic", 2) == 6 and group_order("symplectic", 4) == 720
    for dim, order in ((2, 6), (4, 720)):
        seen = {sample_symplectic(dim, i).m.data for i in range(1, order + 1)}
        ok = ok and len(seen) == order
    _report(2, ok, "symplectic orders 6/720 with distinct enumeration at dim=2,4")


def test_criterion_03_jordan_wigner():
    ok = True
    for dim in range(2, 66, 2):
        W = make_form("jw", dim)
        eye = make_form("identity", dim)
        if W.mul(W) != eye:
            ok = False
            break
        if W.transpose().mul(make_form("eta", dim)).mul(W) != make_form("omega", dim):
            ok = False
            break
    _report(3, ok, "W^2 = I and omega = W^T eta W for all even dims <= 64")


def test_criterion_04_phase_algebra():
    ok = True
    pairs = 0
    for n2 in (2, 4, 6):
        mats = [dense_string(MajoranaString(0, BitVec(n2, b))) for b in range(1 << n2)]
        for vb, wb in itertools.product(range(1 << n2), repeat=2):
            got = compose(MajoranaString(0, BitVec(n2, vb)), MajoranaString(0, BitVec(n2, wb)))
            if not np.array_equal(dense_string(got), mats[vb] @ mats[wb]):
                ok = False
            pairs += 1
        for vb in range(1 << n2):
            if zeta_coeff(BitVec(n2, vb), BitVec(n2, vb)) != 0:
                ok = False
    _report(4, ok, f"compose exact against dense products for {pairs} pairs; i^zeta(v,v) = 1")


def test_criterion_05_braid_correctness():
    rng = random.Random(20260817)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 4)
        n2 = 2 * n
        a = _random_even(rng, n2)
        s = MajoranaString(rng.randrange(4), BitVec(n2, rng.randrange(1 << n2)))
        B = dense_braid(a)
        want = B @ dense_string(s) @ B.conj().T
        if not np.allclose(dense_string(braid_action(a, s)), want, atol=1e-9):
            ok = False
            break
    _report(5, ok, "500 random braid conjugations match dense at n <= 4 (atol 1e-9)")


def test_criterion_06_encoder():
    rng = random.Random(61803)
    ok = True
    for _ in range(1000):
        n0 = rng.randint(1, 15)
        r = rng.randint(1, n0)
        S0 = sample_orthogonal_random(2 * n0, rng)
        M = add_ancilla(transform_isotropic(S0, canonical_isotropic(n0, r)))
        S = word_orthogonal(stab_clifford(M))
        std = canonical_isotropic(M.n, M.r)
        for i, b in enumerate(M.basis):
            if S.m.mulvec(std.basis[i]) != b:
                ok = False
    _report(6, ok, "1000 random encoders route canonical generators exactly (n <= 16)")


def test_criterion_07_trace_identity():
    rng = random.Random(271828)
    ok = True
    for k in range(200):
        n = (2, 3, 4)[k % 3]
        n2 = 2 * n
        gens = tuple(_random_even(rng, n2) for _ in range(rng.randint(0, 8)))
        prefix = None
        if rng.random() < 0.4:
            prefix = MajoranaString(rng.randrange(4), _random_even(rng, n2))
        word = CliffordWord(n, gens, prefix)
        val = parity_restricted_trace_sq(word)
        prof = fixed_point_profile(word_orthogonal(word))
        allowed = (prof.f_plus + prof.c_plus) / 2
        if min(abs(val - 0.0), abs(val - allowed)) > 1e-9:
            ok = False
            break
    _report(7, ok, "200 random words: |tr(P+ U)|^2 in {0, (f_+ + c_+)/2} (atol 1e-9)")


def test_criterion_08_design_moment_equality():
    want = (1, 2, 5, 15)
    ok = True
    for t in range(1, 5):
        if parity_frame_potential(4, t).value != want[t - 1]:
            ok = False
        if frame_potential("symplectic", 2, t).value != want[t - 1]:
            ok = False
    six = []
    for t in range(1, 5):
        a = parity_frame_potential(6, t).value
        b = frame_potential("symplectic", 4, t).value
        six.append(a)
        if a != b:
            ok = False
    _report(
        8,
        ok,
        f"restricted O(4) = Sp(2) = {want}; "
        f"restricted O(6) = Sp(4) = {tuple(int(x) for x in six)}",
    )


def test_criterion_09_design_order():
    third = parity_frame_potential(4, 3).value
    fourth = parity_frame_potential(4, 4).value
    ok = (
        third == haar_frame_potential(3, 2) == 5
        and fourth == 15
        and haar_frame_potential(4, 2) == 14
        and fourth != haar_frame_potential(4, 2)
    )
    _report(9, ok, "3-design: F+_3 = 5 matches Haar; F+_4 = 15 != 14 breaks 4-design")


def test_criterion_10_orbit_structure():
    sizes = orbit_decomposition(4, 1, "orthogonal")
    ok = sizes == [1, 1, 6, 8]
    _report(10, ok, f"O(4) orbit sizes {sizes}")


def test_criterion_11_quotient_homomorphism():
    elements = [sample_orthogonal(4, i) for i in range(1, 49)]
    images = [quotient_action(S).m for S in elements]
    fibers = {}
    for img in images:
        fibers[img.data] = fibers.get(img.data, 0) + 1
    ok = len(fibers) == 6 and set(fibers.values()) == {8}
    for A, qa in zip(elements, images):
        for B, qb in zip(elements, images):
            if quotient_action(OrthogonalMap(A.m.mul(B.m))).m != qa.mul(qb):
                ok = False
                break
        if not ok:
            break
    _report(11, ok, "quotient action maps O(4) onto Sp(2) with uniform fibers of 8")


def test_criterion_12_monte_carlo_consistency():
    ok = True
    details = []
    for t, seed in ((2, 314159), (3, 643856)):
        exact = float(parity_frame_potential(6, t).value)
        rep = parity_frame_potential(6, t, mode="monte_carlo", seed=seed, samples=10**6)
        z = abs(rep.estimate - exact) / rep.std_error
        details.append(f"t={t}: z={z:.2f}")
        if z > 5.0:
            ok = False
    _report(12, ok, "MC (10^6 samples) vs exact O(6): " + ", ".join(details))
