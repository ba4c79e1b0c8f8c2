"""Test-side oracles that more than one test module reads.

Not collected by pytest (no test_ prefix); test modules import it as
``oracles``, the tests directory being on the import path.
"""

from dataclasses import dataclass

import numpy as np

from lln.fields import (
    BispinorField,
    canonical_current,
    density,
    first_moments,
    gradient,
    integrate,
    spin_density,
)


@dataclass
class Observables:
    norm2: float
    centroid: np.ndarray  # <x>
    momentum: np.ndarray  # <p> canonical
    spin: np.ndarray  # <(hbar/2) sigma>
    edge_fraction: float  # norm fraction in the outer 10% shell of any axis
    edge_warning: bool


def observables(f: BispinorField) -> Observables:
    g = f.grid
    rho = density(f.data)
    total = float(integrate(rho, g))
    cen = first_moments(rho, g) / total
    mom = f.hbar * integrate(canonical_current(f.data, gradient(f.data, g)), g) / total
    spin = 0.5 * f.hbar * integrate(spin_density(f.data), g) / total
    edge = np.max(np.abs(g.mesh()), axis=0) > 0.45 * g.length
    frac = float(integrate(rho * edge, g) / total)
    return Observables(
        norm2=total,
        centroid=cen,
        momentum=mom,
        spin=spin,
        edge_fraction=frac,
        edge_warning=frac > 1e-6,
    )
