#!/usr/bin/env python3
"""Compare the genetic search against the SVD effective basis on the
reference filtered scenario and write the artifacts of the genetic run,
its per-generation convergence log among them.
"""

import argparse
import time
from pathlib import Path

import numpy as np

import pdcfilter as pf


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--modes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--population", type=int, default=256)
    parser.add_argument("--out", type=Path, default=Path("out/ga"))
    args = parser.parse_args()

    svd = pf.run_single(pf.RunConfig(n_retained=args.modes))
    start = time.perf_counter()
    ga_report = pf.run_single(
        pf.RunConfig(basis="ga", ga_modes=args.modes, population=args.population, rng_seed=args.seed)
    )
    elapsed = time.perf_counter() - start

    ga = ga_report.ga_result
    grid = svd.projections.grid
    svd_modes = svd.projections.basis.signal_fns
    print(f"genetic search: {elapsed:.1f} s, generations {ga.generations_used}")
    for k in range(args.modes):
        overlap = abs(np.sum(ga.modes[k].conj() * svd_modes[k]) * grid.d_omega)
        print(
            f"mode {k + 1}: ga {ga.per_mode_squeezing_db[k]:7.4f} dB  "
            f"svd {svd.squeezing[k].squeezing_db:7.4f} dB  |overlap| = {overlap:.4f}"
        )

    for path in pf.export_report(ga_report, args.out):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
