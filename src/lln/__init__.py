"""Numerical workbench for the self-gravitating Levy-Leblond equation.

The package covers the plane-wave (Bargmann) geometry carrying the system,
the 12-parameter symmetry group of the coupled equations with its projective
spinor representation, spectral field utilities, Poisson solvers for the
gravitational sector, split-step and RK4 propagators, and the conserved
charge ledger.
"""

import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy: no BLAS thread pools

from .fields import (
    BispinorField,
    GridSpec,
    Snapshot,
    SnapshotDataError,
    band_limited_noise,
    gaussian_packet,
    load_snapshot,
    save_potentials,
    save_snapshot,
)
from .geometry import (
    DENSITY_WEIGHT,
    GridPotential,
    brinkmann_metric,
    brinkmann_metric_inverse,
    chirality_matrix,
    christoffels,
    christoffels_fd,
    clifford_residual,
    dirac_residual,
    gamma_set,
    lie_derivative_spinor_density,
    ricci_constraint_residual,
    spin_connection,
)
from .gravity import (
    constraint_potential,
    mass_density,
    poisson_isolated,
    poisson_periodic,
    taub_nut_varpi,
)
from .sngroup import (
    LieParams,
    SnGroupElement,
    compose,
    element_from_dict,
    element_to_dict,
    exp_element,
    inverse,
    load_element,
    represent,
    represent_fn,
    represent_pair,
    save_element,
    transform_potentials,
)
from .evolve import (
    GroundStateResult,
    RelaxConfig,
    RunConfig,
    RunResult,
    StabilityError,
    apply_hamiltonian,
    chi_from_phi,
    current_and_continuity,
    energy_expectation,
    gauge_transform,
    ground_state,
    run,
)
from .charges import (
    CSV_COLUMNS,
    ChargeRecord,
    compute_charges,
    covariance_test,
    drift_stats,
    read_csv,
    write_csv,
)

__version__ = "0.1.0"
