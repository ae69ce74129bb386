"""Synthesize a braid-generator encoder for a random stabilizer subspace.

Samples an isotropic subspace, builds the braid word of reflections that
routes the canonical subspace onto it, and prints that word together with
its orthogonal matrix and the exact checks.
"""

import argparse
import random

from pclifford.f2core import dot, format_matrix
from pclifford.group import (
    format_braid_word,
    sample_orthogonal_random,
    word_orthogonal,
)
from pclifford.stabilizer import (
    add_ancilla,
    canonical_isotropic,
    stab_clifford,
    transform_isotropic,
)


def run(n: int, r: int, seed: int) -> None:
    rng = random.Random(seed)
    scramble = sample_orthogonal_random(2 * n, rng)
    target = transform_isotropic(scramble, canonical_isotropic(n, r))
    print(f"target: {target.r} commuting generators on {target.n} mode pairs")
    print(format_matrix(target.matrix()))

    if target.contains_all_ones():
        # no orthogonal map moves the all-ones vector, so spans containing
        # it (every maximal one does) need an ancilla pair first
        target = add_ancilla(target)
        print("span contains the all-ones vector, added an ancilla pair:")
        print(format_matrix(target.matrix()))

    word = stab_clifford(target)
    encoder = word_orthogonal(word)
    print(f"encoder applies {len(word.gens)} reflections "
          f"(bound {2 * target.r}):")
    print(format_braid_word(word))
    print(format_matrix(encoder.m))

    assert len(word.gens) <= 2 * target.r
    for e, b in zip(canonical_isotropic(target.n, target.r).basis, target.basis):
        x = e
        for a in reversed(word.gens):  # the rightmost reflection acts first
            if dot(a, x):  # h_a x = x + (a^T x) a
                x ^= a
        assert x == b == encoder.m.mulvec(e)
    print("checks: word reproduces the encoder, encoder routes the canonical")
    print("subspace onto the target")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4, help="mode pairs")
    parser.add_argument("--r", type=int, default=2, help="stabilizer rank")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if not 1 <= args.r <= args.n:
        parser.error("need 1 <= r <= n")
    run(args.n, args.r, args.seed)


if __name__ == "__main__":
    main()
