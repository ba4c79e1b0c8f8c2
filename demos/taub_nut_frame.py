"""The Taub-NUT Coriolis frame and its monopole field strength.

The preset's varpi is the gravitomagnetic potential of a mass with NUT
charge a: its curl is the radial monopole -2a x/r^3 (so the Coriolis
curvature squares to 4 a^2 / r^4) at the price of a string singularity
along half the symmetry axis. The grid preset carries the closed-form
Jacobian of varpi; the spectral Jacobian of the same masked, non-periodic
varpi is printed beside it.
"""

import sys

import numpy as np

from lln.fields import GridSpec
from lln.geometry import GridPotential
from lln.gravity import taub_nut_grid, taub_nut_varpi


def fd_curl(fn, x, h=5e-4):
    J = np.empty((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        J[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return np.array([J[1, 2] - J[2, 1], J[2, 0] - J[0, 2], J[0, 1] - J[1, 0]])


def grid_curl_errors(n, a, length=16.0):
    """Max |curl varpi - monopole| off the preset's mask, exact and spectral
    Jacobian, and the median relative error of each on 1.5 < r < 5 at axis
    distance > 1.5."""
    grid = GridSpec(n, length)
    p, mask = taub_nut_grid(grid, a=a)
    x = grid.mesh()
    r = np.sqrt(np.sum(x**2, axis=0))
    mono = -2.0 * a * x / np.where(mask, r, 1.0) ** 3
    shell = mask & (r > 1.5) & (r < 5.0) & (np.hypot(x[0], x[1]) > 1.5)
    row = []
    for pot in (p, GridPotential(grid, varpi=p.varpi)):
        d = np.linalg.norm(pot.curl_varpi - mono, axis=0)
        row += [float(np.max(d[mask])),
                float(np.median(d[shell] / np.linalg.norm(mono[:, shell], axis=0)))]
    return row


def main(ns=(32, 64)):
    a = 0.7
    w = lambda x: taub_nut_varpi(x, a=a)

    print(f"NUT parameter a = {a}; curl varpi vs the monopole -2a x/r^3")
    print(f"{'point':>24} {'|curl - monopole|':>18} {'|curl|^2 r^4/4a^2':>18}")
    rng = np.random.default_rng(1)
    for _ in range(6):
        x = rng.uniform(-5, 5, size=3)
        while np.hypot(x[0], x[1]) < 1.0 or np.linalg.norm(x) < 2.0:
            x = rng.uniform(-5, 5, size=3)
        r = np.linalg.norm(x)
        c = fd_curl(w, x)
        mono = -2 * a * x / r**3
        print(f"({x[0]:6.2f},{x[1]:6.2f},{x[2]:6.2f}) "
              f"{np.max(np.abs(c - mono)):>18.2e} "
              f"{np.dot(c, c) * r**4 / (4 * a**2):>18.12f}")

    print("\nthe grid preset (L = 16): |curl varpi - monopole| off the mask,")
    print("max and median relative on 1.5 < r < 5 away from the axis")
    print(f"{'n':>4} {'exact max':>11} {'exact med':>11} {'spectral max':>13} {'spectral med':>13}")
    table = {}
    for n in ns:
        table[n] = grid_curl_errors(n, a)
        print(f"{n:>4} {table[n][0]:>11.2e} {table[n][1]:>11.2e} "
              f"{table[n][2]:>13.2e} {table[n][3]:>13.2e}")

    print("\nthe string: |varpi| along x = (0.05, 0, z)")
    for z in (2.0, 0.5, -0.5, -2.0):
        v = w(np.array([0.05, 0.0, z]))
        print(f"  z = {z:5.1f}   |varpi| = {np.linalg.norm(v):10.3f}"
              + ("   <- singular side" if z < 0 else ""))
    return table


if __name__ == "__main__":
    main(tuple(int(v) for v in sys.argv[1:]) or (32, 64))
