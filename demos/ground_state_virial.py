"""Self-gravitating ground state by imaginary-time relaxation.

Relaxes a Gaussian seed at G = 4 with isolated (non-periodic) gravity and
compares the chemical potential, particle energy, and virial ratio against
the radial solution of the same coupled system that
`tests/oracles.py::radial_ground_state` computes (its values are quoted
below, and a test holds them to it): E/mu = 1/3 exactly for the scale-free
interaction.
"""

import numpy as np

from lln.fields import GridSpec, gaussian_packet, integrate
from lln.evolve import RelaxConfig, ground_state

# (mu, E, r_rms) of the radial oracle at G = 4, M = hbar = m = 1
RADIAL = (-2.604307325, -0.868102442, 1.158803)


def main():
    mu0, E0, rms0 = RADIAL
    grid = GridSpec(32, 16.0)
    f0 = gaussian_packet(grid, sigma=1.2)
    res = ground_state(f0, RelaxConfig(G=4.0, dtau=0.02, tol=1e-9, poisson="isolated"))
    print(f"converged: {res.converged} after {res.iterations} sweeps")
    print(f"chemical potential mu = {res.energy:.6f}   (radial oracle {mu0:.9f})")
    print(f"particle energy  E  = {res.energy_sn:.6f}   (radial oracle {E0:.9f})")
    print(f"virial ratio   E/mu = {res.energy_sn / res.energy:.6f}   (exact 1/3)")

    X = grid.mesh()
    rho = np.sum(np.abs(res.field.data) ** 2, axis=0)
    r_rms = np.sqrt(float(integrate(rho * np.sum(X**2, axis=0), grid)))
    print(f"cloud size    r_rms = {r_rms:.4f}   (radial oracle {rms0:.6f})")
    print("grid values land a few percent off the oracle at this resolution;")
    print("rerun at n = 48 to watch the gap shrink")


if __name__ == "__main__":
    main()
