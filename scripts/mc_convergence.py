"""Monte Carlo frame potential estimates against the exact group averages.

Runs the sampling estimator at increasing sample counts and reports the
z-score of each estimate against the exact value, which stays order one
when the uniform sampler is honest.
"""

import argparse

from pclifford.design import parity_frame_potential

ORDERS = (2, 3)
SCHEDULE = (10**3, 10**4, 10**5)


def run(dim: int, seed: int, schedule: tuple[int, ...]) -> None:
    for t in ORDERS:
        exact = parity_frame_potential(dim, t).value
        print(f"restricted O({dim}), t={t}: exact = {exact}")
        for k, samples in enumerate(schedule):
            report = parity_frame_potential(dim, t, mode="monte_carlo", seed=seed + k, samples=samples)
            z = (report.estimate - float(exact)) / report.std_error
            print(
                f"  samples={samples:>8d}  estimate={report.estimate:10.4f}"
                f"  std_error={report.std_error:8.4f}  z={z:+.2f}"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=6)
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument(
        "--deep", action="store_true", help="extend the schedule to 10^6 samples"
    )
    args = parser.parse_args()
    run(args.dim, args.seed, SCHEDULE + ((10**6,) if args.deep else ()))


if __name__ == "__main__":
    main()
