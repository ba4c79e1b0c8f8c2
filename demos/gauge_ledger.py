"""The charge ledger under the vertical gauge map.

evolve.gauge_transform takes phi -> exp(i m theta/hbar) phi and
varpi -> varpi + grad theta for a periodic theta: a symmetry of the Bargmann
structure, so every physical quantity must keep its value. For three Coriolis
frames (a band-limited varpi, the rigid rotation Omega = 0.8 e3, Taub-NUT with
a = 0.2) this prints, per compute_charges column, the relative move
|Q' - Q| / |Q| (|Q| the sup norm of a vector charge; the absolute move where
Q is 0), beside the move of curl varpi over its maximum and the relative
residual of the energy split E_paper = T_kin + W_pot - (hbar/4) int s . curl
varpi before and after the map.

T_kin and E_paper hold to the aliasing of exp(i m theta/hbar) phi (2.6e-9 at
most at 32^3), M, W_pot, curl varpi and the split to round-off. P and J (and G
and D built on them) are the canonical charges and move with the gauge.

Run: python demos/gauge_ledger.py [n]   (n = 32 by default, L = 16)
"""

import sys
from dataclasses import fields

import numpy as np

from lln.charges import ChargeRecord, compute_charges
from lln.evolve import gauge_transform
from lln.fields import GridSpec, band_limited_noise, gaussian_packet, integrate, spin_density
from lln.geometry import GridPotential
from lln.gravity import taub_nut_grid, uniform_rotation_potential

FRAMES = ("band-limited", "uniform", "taub-nut")


def frame(grid, name):
    if name == "band-limited":
        varpi = 0.3 * band_limited_noise(grid, modes=2, seed=41, comps=(3,))
        return GridPotential(grid, U=varpi[0] ** 2, varpi=varpi)
    if name == "uniform":
        return uniform_rotation_potential(grid, (0.0, 0.0, 0.8))
    return taub_nut_grid(grid, a=0.2)[0]


def packet(grid):
    """A spinning, boosted, off-centre packet: every charge column is nonzero."""
    return gaussian_packet(grid, sigma=1.2, center=(0.7, -0.4, 0.3), k0=(0.4, -0.2, 0.1),
                           spin=(0.8, 0.6j), m=1.3, hbar=0.9, time=0.25)


def energy_split_residual(f, p, rec):
    """|E_paper - (T_kin + W_pot - (hbar/4) int s . curl varpi)| / |E_paper|."""
    s = spin_density(f.data)
    spin_term = 0.25 * f.hbar * float(integrate(np.sum(s * p.curl_varpi, axis=0), f.grid))
    return abs(rec.E_paper - (rec.T_kin + rec.W_pot - spin_term)) / abs(rec.E_paper)


def gauge_moves(n, name, length=16.0):
    """{column: relative move} under theta = 0.7 band_limited_noise(modes=2, seed=5),
    plus 'curl' (the move of curl varpi over its maximum) and 'split' and
    'split_gauged' (energy_split_residual before and after the map)."""
    grid = GridSpec(n, length)
    f, p = packet(grid), frame(grid, name)
    f2, p2 = gauge_transform(f, p, 0.7 * band_limited_noise(grid, modes=2, seed=5))
    a, b = compute_charges(f, p), compute_charges(f2, p2)
    out = {}
    for fld in fields(ChargeRecord):
        x, y = (np.atleast_1d(getattr(r, fld.name)) for r in (a, b))
        if fld.name in ("t", "E_sn"):
            continue
        scale = float(np.max(np.abs(x))) or 1.0
        cols = [fld.name] if x.size == 1 else [fld.metadata["vector"] + c for c in "xyz"]
        out.update((col, float(d) / scale) for col, d in zip(cols, np.abs(y - x)))
    out["curl"] = float(np.max(np.abs(p2.curl_varpi - p.curl_varpi)) / np.max(np.abs(p.curl_varpi)))
    out["split"] = energy_split_residual(f, p, a)
    out["split_gauged"] = energy_split_residual(f2, p2, b)
    return out


def main(n=32):
    table = {name: gauge_moves(n, name) for name in FRAMES}
    print(f"relative move of each charge under gauge_transform, {n}^3, L = 16")
    print(f"{'column':>14}" + "".join(f"{name:>14}" for name in FRAMES))
    for col in table[FRAMES[0]]:
        print(f"{col:>14}" + "".join(f"{table[name][col]:>14.2e}" for name in FRAMES))
    return table


if __name__ == "__main__":
    main(*(int(v) for v in sys.argv[1:]))
