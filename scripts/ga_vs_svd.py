#!/usr/bin/env python3
"""Compare the genetic search against the SVD effective basis on the
reference filtered scenario and write the per-generation convergence log.
"""

import argparse
import time
from pathlib import Path

import pdcfilter as pf
from pdcfilter.genetic import write_convergence_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--modes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--population", type=int, default=256)
    parser.add_argument("--out", type=Path, default=Path("out/ga"))
    args = parser.parse_args()

    svd = pf.run_single(pf.RunConfig(n_retained=args.modes))
    start = time.perf_counter()
    ga = pf.run_single(
        pf.RunConfig(basis="ga", ga_modes=args.modes, population=args.population, rng_seed=args.seed)
    ).ga_result
    elapsed = time.perf_counter() - start

    grid = svd.projections.grid
    svd_modes = svd.projections.basis.signal_fns
    print(f"genetic search: {elapsed:.1f} s, generations {ga.generations_used}")
    for k in range(args.modes):
        overlap = abs(grid.overlap(ga.modes[k], svd_modes[k]))
        print(
            f"mode {k + 1}: ga {ga.per_mode_squeezing_db[k]:7.4f} dB  "
            f"svd {svd.squeezing[k].squeezing_db:7.4f} dB  |overlap| = {overlap:.4f}"
        )

    args.out.mkdir(parents=True, exist_ok=True)
    log_path = args.out / "ga_convergence.csv"
    write_convergence_csv(ga.convergence_log, log_path)
    print(f"wrote {log_path}")


if __name__ == "__main__":
    main()
