"""Twelve first integrals under the self-coupled flow.

Runs the standard conservation scenario (sigma = 1.5, G = 1, periodic
gravity, 100 steps at dt = 1e-3) and prints the relative drift of every
charge. T + W/2 is the conserved energy of the coupled system; <H>
double counts the pair interaction and drifts at the 1e-5 level, which
is physics, not integrator error.
"""

import numpy as np

from lln.fields import GridSpec, gaussian_packet
from lln.evolve import RunConfig, run
from lln.charges import compute_charges, drift_stats, write_csv


def main():
    grid = GridSpec(32, 16.0)
    f = gaussian_packet(grid, sigma=1.5, k0=(2 * np.pi / grid.length, 0, 0))
    cfg = RunConfig(dt=1e-3, steps=100, evolver="split", source="self",
                    G=1.0, monitor_every=10, monitor=compute_charges)
    res = run(f, cfg)
    drifts = drift_stats(res.records)
    print(f"{'charge':>8} {'relative drift':>16}")
    for name in ("M", "P", "J", "G", "E_sn", "E_paper", "T_kin"):
        print(f"{name:>8} {drifts[name]:>16.3e}")
    write_csv(res.records, "self_charges.csv")
    print("\nfull time series written to self_charges.csv")


if __name__ == "__main__":
    main()
