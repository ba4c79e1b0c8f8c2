"""Test-side oracles: observables that more than one test module reads, the
commutator form of the spinor connection that the closed form in
:mod:`lln.geometry` is checked against, and the radial self-gravitating
ground state.

Not collected by pytest (no test_ prefix); test modules import it as
``oracles``, the tests directory being on the import path.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from lln.fields import (
    BispinorField,
    canonical_current,
    density,
    first_moments,
    gradient,
    integrate,
    spin_density,
)
from lln.geometry import (
    DENSITY_WEIGHT,
    GammaSet,
    GridPotential,
    PotentialSample,
    _metric_part,
    brinkmann_metric,
    christoffels,
    gamma_set,
    generator_field,
    generator_matrix,
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


############################################################
# the spinor connection by commutators of the grid gammas
############################################################


def grid_gammas(p: GridPotential) -> GammaSet:
    """gamma_set at the nodes, matrix axes leading, grid axes trailing:
    (5, 4, 4) + grid shape, about 84 MB for both index positions at 32^3."""
    gs = gamma_set(p.U, np.moveaxis(p.varpi, 0, -1))  # (grid, 5, 4, 4)
    up = np.moveaxis(gs.upper, (-3, -2, -1), (0, 1, 2))
    low = np.moveaxis(gs.lower, (-3, -2, -1), (0, 1, 2))
    return GammaSet(upper=up, lower=low)


def dgamma_lower(p: GridPotential, mu: int) -> np.ndarray:
    """d_mu gamma_rho on the grid, shape (5, 4, 4) + grid; mu in 0..4.

    The lowered matrices are affine in (U, varpi), so their derivative is
    gamma_set(d_mu U, d_mu varpi).lower less its constant part.
    """
    if mu >= 3:  # static potentials, s-independent metric
        return np.zeros((5, 4, 4) + p.grid.shape, dtype=complex)
    low = gamma_set(p.dU[mu], np.moveaxis(p.dvarpi[mu], 0, -1)).lower
    low -= gamma_set(0.0, np.zeros(3)).lower
    return np.moveaxis(low, (-3, -2, -1), (0, 1, 2))


def spin_connection_commutator(p: GridPotential) -> np.ndarray:
    """omega_mu = -(1/8) [gamma^rho, d_mu gamma_rho - Gamma^sigma_{mu rho} gamma_sigma],
    shape (5, 4, 4) + grid; omega_s = 0."""
    gam = grid_gammas(p)
    # christoffels at the nodes, index axes moved in front; static potentials
    nodes = PotentialSample(
        U=p.U,
        varpi=np.moveaxis(p.varpi, 0, -1),
        dU=np.moveaxis(p.dU, 0, -1),
        dtU=np.zeros(p.grid.shape),
        dvarpi=np.moveaxis(p.dvarpi, (0, 1), (-2, -1)),
        dtvarpi=np.zeros(p.grid.shape + (3,)),
    )
    Gam = np.moveaxis(christoffels(nodes), (-3, -2, -1), (0, 1, 2))
    out = np.zeros((5, 4, 4) + p.grid.shape, dtype=complex)
    for mu in range(4):  # omega_s = 0
        D = dgamma_lower(p, mu) - np.einsum(
            "sr...,sab...->rab...", Gam[:, mu, :], gam.lower
        )
        comm = np.einsum("rab...,rbc...->ac...", gam.upper, D) - np.einsum(
            "rab...,rbc...->ac...", D, gam.upper
        )
        out[mu] = -comm / 8.0
    return out


def covariant_spinor_derivative_commutator(psi, p: GridPotential, m, hbar, dt_psi, omega):
    """nabla_mu psi, shape (5, 4) + grid, with omega from spin_connection_commutator."""
    psi = np.asarray(psi, dtype=complex)
    out = np.empty((5,) + psi.shape, dtype=complex)
    out[:3] = gradient(psi, p.grid)
    out[3] = dt_psi
    out[4] = (1j * m / hbar) * psi
    return out + np.einsum("mab...,b...->ma...", omega, psi)


def lie_derivative_commutator(psi, p: GridPotential, X, nabla, t0=0.0):
    """L_X psi = X^mu nabla_mu psi - (1/4) d_[mu X_nu] gamma^mu gamma^nu psi
    + w (div X) psi on the s = 0 slice, with coordinate gammas on the grid
    and nabla from covariant_spinor_derivative_commutator."""
    psi = np.asarray(psi, dtype=complex)
    L = generator_matrix(X)
    Xup = generator_field(L, p.grid.mesh(), t0)
    transport = np.einsum("m...,ma...->a...", Xup, nabla)
    # d_mu X_nu = g_{nu lambda} L[lambda, mu] + (d_mu g_{nu lambda}) X^lambda
    g = brinkmann_metric(p.U, np.moveaxis(p.varpi, 0, -1))
    dX = np.einsum("...nl,lm->mn...", g, L[:5, :5])
    dg = _metric_part(np.moveaxis(p.dU, 0, -1), np.moveaxis(p.dvarpi, (0, 1), (-2, -1)))
    dX[:3] += np.einsum("...mnl,l...->mn...", dg, Xup)
    A = 0.5 * (dX - np.swapaxes(dX, 0, 1))
    up = grid_gammas(p).upper
    kos = np.zeros_like(psi)
    for mu in range(5):
        for nu in range(5):
            a = A[mu, nu]
            if not np.any(a):
                continue
            kos += -0.25 * a * np.einsum("ab...,bc...,c...->a...", up[mu], up[nu], psi)
    return transport + kos + DENSITY_WEIGHT * np.trace(L[:5, :5]) * psi


############################################################
# the spherical self-gravitating ground state
############################################################


@cache
def radial_ground_state(G: float = 4.0, radius: float = 30.0, intervals=(8000, 16000)):
    """(mu, E, r_rms) of the lowest spherical state of -(1/2) Delta phi
    + U phi = mu phi, Delta U = 4 pi G |phi|^2, int |phi|^2 = 1 (m = hbar = 1),
    isolated: U is -G times the enclosed mass over r plus the shell integral
    of 4 pi r |phi|^2 outside r. E = mu - W/2 with W = int U |phi|^2.

    Solved on u = r phi with u(0) = u(radius) = 0 by the three-point
    Laplacian and trapezoid potential integrals, each h^2 accurate: the
    lowest eigenpair of the tridiagonal matrix, iterated with the potential
    of its own density to a fixed mu, then h^2 Richardson extrapolation over
    the two interval counts. At G = 4 this gives mu = -2.604307325,
    E = -0.868102442 (E/mu = 1/3 to 2e-11, the virial law) and
    r_rms = 1.158803; radius 40 and intervals (4000, 8000) agree to 4e-9.
    """

    def solve(n):
        h = radius / n
        r = h * np.arange(1, n)
        w, mu_prev = r**2 * np.exp(-(r**2)), 0.0  # w: 4 pi u^2, the mass per dr
        for _ in range(200):
            w /= np.sum(w) * h
            q = w / r
            U = -G * h * ((np.cumsum(w) - 0.5 * w) / r + np.cumsum(q[::-1])[::-1] - 0.5 * q)
            (mu,), u = eigh_tridiagonal(1.0 / h**2 + U, np.full(n - 2, -0.5 / h**2),
                                        select="i", select_range=(0, 0))
            if abs(mu - mu_prev) < 1e-14 * abs(mu):
                break
            w, mu_prev = u[:, 0] ** 2, mu
        W = h * np.sum(w * U)  # w is the density U was taken from
        return np.array([mu, mu - 0.5 * W, np.sqrt(h * np.sum(w * r**2))])

    coarse, fine = (solve(n) for n in intervals)
    return tuple(float(v) for v in (4.0 * fine - coarse) / 3.0)
