"""Exact frame potential scan across a few small groups.

Tabulates the plain orthogonal potential, the parity-restricted one, the
symplectic potential on half the modes, and the Haar reference.  The
headline facts are visible directly in the rows: the restricted
orthogonal column at 2n matches the symplectic column at 2n-2 for every
t, and at dim 4 the t=4 entry is 15 against the Haar 14.  Exact mode
counts orbits in closed form at every size; these dims keep the table
short.
"""

import argparse

from pclifford.design import frame_potential, haar_frame_potential, parity_frame_potential

ORTHOGONAL_DIMS = (2, 4, 6)
SYMPLECTIC_DIMS = (2, 4)


def fmt(value) -> str:
    return str(int(value)) if value.denominator == 1 else str(value)


def scan(max_t: int) -> None:
    ts = range(1, max_t + 1)
    header = f"{'ensemble':<18s}" + "".join(f"t={t:<7d}" for t in ts)
    print(header)
    print("-" * len(header.rstrip()))

    def row(label: str, cells: list[str]) -> None:
        print(f"{label:<18s}" + "".join(f"{c:<9s}" for c in cells))

    for dim in ORTHOGONAL_DIMS:
        row(f"O({dim}) full", [fmt(frame_potential("orthogonal", dim, t).value) for t in ts])
        row(f"O({dim}) restricted", [fmt(parity_frame_potential(dim, t).value) for t in ts])
    for dim in SYMPLECTIC_DIMS:
        row(f"Sp({dim})", [fmt(frame_potential("symplectic", dim, t).value) for t in ts])
    for N in sorted(set(SYMPLECTIC_DIMS) | {2}):
        row(f"Haar N={N}", [str(haar_frame_potential(t, N)) for t in ts])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-t", type=int, default=4)
    args = parser.parse_args()
    scan(args.max_t)


if __name__ == "__main__":
    main()
