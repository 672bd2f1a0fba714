#!/usr/bin/env python3
"""Walk the reference scenario end to end and print the key numbers.

Builds the anticorrelated double-Gaussian state (6 dB in the first mode),
applies a rectangular filter of width 4 to both arms, and compares the
filtered state measured in the original broadband basis against the
filter-adapted (effective) basis.
"""

import numpy as np

import pdcfilter as pf


def main() -> None:
    grid = pf.build_frequency_grid(200, -10.0, 10.0)
    jsa = pf.build_gaussian_jsa(pf.GaussianJsaParams(6.0, 2.0, -np.pi / 4), grid)
    schmidt = pf.schmidt_decompose(jsa, n_retained=5)
    gain = pf.gain_for_target_db(schmidt, 6.0)
    schmidt = pf.apply_gain(schmidt, gain)

    print(f"gain B = {gain:.6f}")
    print("unfiltered modes:")
    for k, (lam, r) in enumerate(zip(schmidt.lambdas[:5], schmidt.r_values[:5]), start=1):
        print(f"  mode {k}: lambda = {lam:.6f}  r = {r:.6f}  {pf.squeezing_db(r):.4f} dB")

    filt = pf.make_rect_filter(0.0, 4.0, grid)

    for label, basis in (
        ("original broadband basis", pf.MeasurementBasis.from_schmidt(schmidt, 5)),
        ("effective (filter-adapted) basis", _effective_basis(jsa, gain, filt, grid)),
    ):
        proj = pf.filtered_projections(schmidt, filt, filt, basis)
        cov = pf.assemble_covariance(proj)
        report = pf.squeezing_report(cov)
        print(f"\nfiltered state, {label}:")
        for entry in report:
            print(
                f"  mode {entry.mode_index}: {entry.squeezing_db:7.4f} dB"
                f"  ({entry.combination} combination)"
            )
        print(f"  purity = {pf.purity(cov):.6f}")
        print(f"  single-mode character = {pf.single_mode_character(report):.4f}")


def _effective_basis(jsa, gain, filt, grid) -> pf.MeasurementBasis:
    eff = pf.svd_effective_basis(jsa, gain, filt, filt, n_retained=5)
    return pf.MeasurementBasis(eff.signal_modes[:5], eff.idler_modes[:5], grid)


if __name__ == "__main__":
    main()
