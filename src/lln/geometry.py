"""Bargmann lift of Newtonian gravity with Coriolis vector potential.

The five-dimensional pp-wave (Brinkmann) metric carried here is, in the
coordinate order (x1, x2, x3, t, s),

    g = dx.dx + 2 varpi.dx dt - 2U dt^2 + 2 dt ds,

with xi = d/ds the covariantly constant null direction. g is its constant
entries plus `_metric_part(U, varpi)`, which also gives dg, g being affine in
the potentials. The Levi-Civita connection, d_mu X_nu of a generator and the
spinor covariant derivative nabla are each written once. Spinors are Dirac
4-spinors built from two Pauli pairs (phi over chi); equal-weight densities
carry the conformal weight 2/5. All pointwise algebra below is vectorized
over arbitrary leading axes; field-level operators act on grids from
:mod:`lln.fields`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Optional

import numpy as np

from .fields import (
    PAULI,
    GridSpec,
    axial_vector,
    curl,
    density,
    gradient,
    jacobian,
    laplacian,
    sample_points,
    sigma_dot,
    sigma_grad,
)

__all__ = [
    "DENSITY_WEIGHT",
    "PotentialSample",
    "GridPotential",
    "brinkmann_metric",
    "brinkmann_metric_inverse",
    "volume_density",
    "GammaSet",
    "gamma_set",
    "clifford_residual",
    "chirality_matrix",
    "christoffels",
    "christoffels_fd",
    "RicciCheck",
    "ricci_constraint_residual",
    "generator_matrix",
    "generator_field",
    "spin_connection",
    "covariant_spinor_derivative",
    "lie_derivative_spinor_density",
    "dirac_residual",
]

# weight of an equal-scaling spinor density in dimension 5: (N - 1)/(2N)
DENSITY_WEIGHT = 0.4

_I2 = np.eye(2, dtype=complex)


############################################################
# potential data
############################################################


@dataclass
class PotentialSample:
    """Values (and optionally first derivatives) of (U, varpi) at points.

    Shapes: U (...,), varpi (..., 3), dU (..., 3), dvarpi (..., 3, 3) with
    dvarpi[..., i, j] = d_i varpi_j, dtU (...,), dtvarpi (..., 3).
    """

    U: np.ndarray
    varpi: np.ndarray
    dU: Optional[np.ndarray] = None
    dtU: Optional[np.ndarray] = None
    dvarpi: Optional[np.ndarray] = None
    dtvarpi: Optional[np.ndarray] = None

    @property
    def has_derivatives(self) -> bool:
        return not (
            self.dU is None
            or self.dtU is None
            or self.dvarpi is None
            or self.dtvarpi is None
        )


_ZERO = np.zeros(())  # the varpi of every GridPotential built without one


class GridPotential:
    """Static (U, varpi) sampled on a periodic grid.

    Spatial derivatives are spectral and cached; time derivatives are zero.
    Off-lattice samples come from the trigonometric interpolant. U_self is
    the part of U its state sources (evolve.self_potential sets it); None
    marks a purely external U. Without a varpi, varpi is a read-only view
    of one shared zero and coriolis is False from the start.
    """

    def __init__(self, grid: GridSpec, U=None, varpi=None, dvarpi=None, U_self=None):
        self.grid = grid
        self.U_self = U_self
        self.U = np.zeros(grid.shape) if U is None else np.asarray(U, dtype=float)
        if varpi is None:
            self.varpi = np.broadcast_to(_ZERO, (3,) + grid.shape)
            self.coriolis = False
        else:
            self.varpi = np.asarray(varpi, dtype=float)
        if self.U.shape != grid.shape or self.varpi.shape != (3,) + grid.shape:
            raise ValueError("potential arrays do not match the grid")
        # exact derivatives may be supplied for a varpi that is not periodic
        # (a rigid rotation's varpi is linear in x, so its spectral gradient
        # would ring at the seam); curl and divergence then derive from them
        if dvarpi is not None:
            dvarpi = np.asarray(dvarpi, dtype=float)
            if dvarpi.shape != (3, 3) + grid.shape:
                raise ValueError("dvarpi override must have shape (3, 3) + grid shape")
            self.dvarpi = dvarpi

    @cached_property
    def coriolis(self) -> bool:
        """Whether varpi is nonzero anywhere: without it H has no Coriolis terms."""
        return bool(np.any(self.varpi))

    @cached_property
    def dU(self):
        return gradient(self.U, self.grid)

    @cached_property
    def dvarpi(self):
        # [i, j] = d_i varpi_j
        return jacobian(self.varpi, self.grid)

    @cached_property
    def curl_varpi(self):
        return axial_vector(self.dvarpi)

    @cached_property
    def div_varpi(self):
        return np.trace(self.dvarpi)

    @cached_property
    def omega2(self):
        """|Omega|^2 = (1/2) Omega_ij Omega_ij = |curl varpi|^2."""
        return np.sum(self.curl_varpi**2, axis=0)

    def sample(self, x, t=0.0, derivatives: bool = False) -> PotentialSample:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        U = sample_points(self.U, self.grid, x)
        w = sample_points(self.varpi, self.grid, x)  # (3, P)
        s = PotentialSample(U=U, varpi=np.moveaxis(w, 0, -1))
        if derivatives:
            dU = sample_points(self.dU, self.grid, x)
            dw = sample_points(self.dvarpi.reshape((9,) + self.grid.shape), self.grid, x)
            s.dU = np.moveaxis(dU, 0, -1)
            s.dvarpi = np.moveaxis(dw.reshape(3, 3, -1), (0, 1), (-2, -1))
            s.dtU = np.zeros_like(s.U)
            s.dtvarpi = np.zeros_like(s.varpi)
        return s


############################################################
# metric and Clifford algebra (pointwise, vectorized)
############################################################


def _metric_part(U, varpi) -> np.ndarray:
    """The potential entries of g: varpi_j in g_jt and g_tj, -2U in g_tt.

    g is affine in (U, varpi), so _metric_part(dU, dvarpi) is also dg.
    """
    U, w = np.asarray(U), np.asarray(varpi)
    g = np.zeros(np.broadcast_shapes(U.shape, w.shape[:-1]) + (5, 5))
    g[..., :3, 3] = w
    g[..., 3, :3] = w
    g[..., 3, 3] = -2.0 * U
    return g


def brinkmann_metric(U, varpi) -> np.ndarray:
    """Metric components g_{mu nu}, shape (..., 5, 5); varpi is indexed last."""
    g = _metric_part(U, varpi)
    g[..., range(3), range(3)] = 1.0
    g[..., [3, 4], [4, 3]] = 1.0
    return g


def brinkmann_metric_inverse(U, varpi) -> np.ndarray:
    """Inverse metric g^{mu nu}; closed form, det g = -1 identically."""
    U, w = np.asarray(U), np.asarray(varpi)
    base = np.broadcast_shapes(U.shape, w.shape[:-1])
    gi = np.zeros(base + (5, 5))
    for i in range(3):
        gi[..., i, i] = 1.0
    gi[..., :3, 4] = -w
    gi[..., 4, :3] = -w
    gi[..., 3, 4] = 1.0
    gi[..., 4, 3] = 1.0
    gi[..., 4, 4] = 2.0 * U + np.sum(w**2, axis=-1)
    return gi


def volume_density(g: np.ndarray) -> np.ndarray:
    """sqrt(-det g), evaluated numerically (should be identically 1)."""
    return np.sqrt(-np.linalg.det(g))


@dataclass
class GammaSet:
    upper: np.ndarray  # (..., 5, 4, 4), gamma^mu
    lower: np.ndarray  # (..., 5, 4, 4), gamma_mu = g_{mu nu} gamma^nu


def gamma_set(U, varpi) -> GammaSet:
    """Curved-space gamma matrices adapted to the Brinkmann frame.

    The spatial gamma^j are block diagonal (-i sigma_j, +i sigma_j); gamma^t
    has the identity in the lower-left Pauli block; gamma^s carries the
    potentials. Lowered matrices are produced with the metric numerically.
    """
    U, w = np.asarray(U), np.asarray(varpi)
    base = np.broadcast_shapes(U.shape, w.shape[:-1])
    up = np.zeros(base + (5, 4, 4), dtype=complex)
    for j in range(3):
        up[..., j, :2, :2] = -1j * PAULI[j]
        up[..., j, 2:, 2:] = 1j * PAULI[j]
    up[..., 3, 2:, :2] = _I2
    sw = np.einsum("...j,jab->...ab", w, PAULI)
    up[..., 4, :2, :2] = 1j * sw
    up[..., 4, :2, 2:] = -2.0 * _I2
    up[..., 4, 2:, 2:] = -1j * sw
    up[..., 4, 2:, :2] = U[..., None, None] * _I2
    g = brinkmann_metric(U, w)
    low = np.einsum("...mn,...nab->...mab", g, up)
    return GammaSet(upper=up, lower=low)


def clifford_residual(gammas: np.ndarray, metric: np.ndarray) -> float:
    """max |{gamma_mu, gamma_nu} + 2 g_{mu nu}| over all slots and points.

    Works for either index position when handed the matching metric array.
    """
    anti = np.einsum("...mab,...nbc->...mnac", gammas, gammas)
    anti = anti + np.einsum("...nab,...mbc->...mnac", gammas, gammas)
    target = -2.0 * metric[..., None, None] * np.eye(4)
    return float(np.max(np.abs(anti - target)))


_EPS5 = [(p, float(np.linalg.det(np.eye(5)[list(p)]))) for p in permutations(range(5))]


def chirality_matrix(gam: GammaSet, g: np.ndarray) -> np.ndarray:
    """Volume element Gamma = -(sqrt(-g)/5!) eps_{mnrls} g^m g^n g^r g^l g^s.

    With eps_{123ts} = +1 this evaluates to the identity: odd-dimensional
    Clifford algebras have a central volume element, and the sign convention
    here fixes the inequivalent representation choice.
    """
    up = gam.upper
    vol = volume_density(g)
    base = up.shape[:-3]
    out = np.zeros(base + (4, 4), dtype=complex)
    for p, sign in _EPS5:
        term = up[..., p[0], :, :]
        for idx in p[1:]:
            term = term @ up[..., idx, :, :]
        out += sign * term
    return -vol[..., None, None] / 120.0 * out


############################################################
# Christoffel symbols and curvature
############################################################


def christoffels(sample: PotentialSample) -> np.ndarray:
    """Levi-Civita connection of the Brinkmann metric at the sample's points.

    Dense Gamma^rho_{mu nu}, shape (..., 5, 5, 5), index order [rho, mu, nu].

    Non-vanishing families only: Gamma^i_tt, Gamma^i_jt, Gamma^s_ij,
    Gamma^s_it, Gamma^s_tt. Requires a sample with first derivatives.
    """
    if not sample.has_derivatives:
        raise ValueError("christoffels requires a sample carrying derivatives")
    dtU = np.asarray(sample.dtU)[..., None]
    dtw = np.asarray(sample.dtvarpi)[..., None, :]
    # d_mu of (U, varpi) along (x, t, s); nothing depends on s
    dg = _metric_part(np.concatenate([sample.dU, dtU, np.zeros_like(dtU)], axis=-1),
                      np.concatenate([sample.dvarpi, dtw, np.zeros_like(dtw)], axis=-2))
    return _connection_from_dg(brinkmann_metric_inverse(sample.U, sample.varpi), dg)


def _metric_at(potential, x, t):
    s = potential.sample(np.atleast_2d(x), t)
    return brinkmann_metric(s.U, s.varpi)[0]


def _connection_from_dg(gi, dg):
    """(1/2) g^{rs} (d_m g_{sn} + d_n g_{sm} - d_s g_{mn}) with dg[..., l] = d_l g."""
    # the bracket first, then g^{-1} as one batched matmul: an einsum is ~4x slower
    bracket = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1)  # [s, m, n]
    bracket -= dg
    return (0.5 * gi @ bracket.reshape(bracket.shape[:-2] + (25,))).reshape(bracket.shape)


def christoffels_fd(potential, point, t: float = 0.0, h: float = 1e-3) -> np.ndarray:
    """Connection at one event from centered differences of the metric itself.

    Independent cross-check for :func:`christoffels`: only metric values are
    sampled, so it never touches the closed-form derivative bookkeeping.
    Differentiation along s is skipped (the metric has no s dependence, the
    difference quotient is identically zero).
    """
    point = np.asarray(point, dtype=float)
    dg = np.zeros((5, 5, 5))
    for mu in range(3):
        e = np.zeros(3)
        e[mu] = h
        dg[mu] = (_metric_at(potential, point + e, t) - _metric_at(potential, point - e, t)) / (2 * h)
    dg[3] = (_metric_at(potential, point, t + h) - _metric_at(potential, point, t - h)) / (2 * h)
    s = potential.sample(np.atleast_2d(point), t)
    gi = brinkmann_metric_inverse(s.U, s.varpi)[0]
    return _connection_from_dg(gi, dg)


@dataclass
class RicciCheck:
    """Field-equation residuals of a (U, varpi, rho) triple on a grid."""

    scalar: np.ndarray  # Delta U + |Omega|^2/2 - 4 pi G rho (static varpi)
    vector: np.ndarray  # curl curl varpi (vanishing <=> harmonic Coriolis)
    scalar_max: float
    scalar_max_meanfree: float
    vector_max: float


def ricci_constraint_residual(p: GridPotential, rho=None, G: float = 1.0) -> RicciCheck:
    """Check the only nontrivial curvature component against its source.

    The tt Ricci component reduces to Delta U + d_t(delta varpi) + |Omega|^2/2,
    and the off-tt components vanish iff delta(Omega) = curl curl varpi = 0.
    The potential is static, so d_t(delta varpi) = 0. A periodic U can only
    balance the mean-free part of the source, so the mean-free residual is
    reported alongside the raw maximum.
    """
    grid = p.grid
    rho = np.zeros(grid.shape) if rho is None else np.asarray(rho)
    lhs = laplacian(p.U, grid) + 0.5 * p.omega2
    scalar = lhs - 4.0 * np.pi * G * rho
    vector = curl(p.curl_varpi, grid)
    mf = scalar - scalar.mean()
    return RicciCheck(
        scalar=scalar,
        vector=vector,
        scalar_max=float(np.max(np.abs(scalar))),
        scalar_max_meanfree=float(np.max(np.abs(mf))),
        vector_max=float(np.max(np.abs(vector))),
    )


############################################################
# conformal generators
############################################################


def generator_matrix(X) -> np.ndarray:
    """6x6 affine matrix L of a conformal Bargmann generator.

    X is any object with attributes (omega, beta, gamma, delta, eps, eta)
    describing the vector field

        X^x = omega x x + t beta + gamma - 3 delta x,
        X^t = -5 delta t + eps,
        X^s = -beta.x - delta s + eta.

    The field is affine in (x, t, s), so L holds it completely:
    (X^x, X^t, X^s, 0) = L (x, t, s, 1) and d_nu X^mu = L[mu, nu].
    """
    om = np.asarray(X.omega, dtype=float)
    delta = float(X.delta)
    L = np.zeros((6, 6))
    L[:3, :3] = np.array(
        [[0.0, -om[2], om[1]], [om[2], 0.0, -om[0]], [-om[1], om[0], 0.0]]
    ) - 3.0 * delta * np.eye(3)
    L[:3, 3] = X.beta
    L[3, 3] = -5.0 * delta
    L[4, :3] = -np.asarray(X.beta, dtype=float)
    L[4, 4] = -delta
    L[:3, 5] = X.gamma
    L[3, 5] = X.eps
    L[4, 5] = X.eta
    return L


def generator_field(L: np.ndarray, x, t=0.0, s=0.0) -> np.ndarray:
    """X^mu = L (x, t, s, 1) at events; x has its 3 components first.

    Returns shape (5,) + the broadcast batch shape of x[0], t and s.
    """
    events = np.stack(np.broadcast_arrays(*np.asarray(x, dtype=float), t, s, 1.0))
    return np.einsum("mn,n...->m...", L[:5], events)


############################################################
# spinor calculus on grids
############################################################


def _connection_matrices() -> np.ndarray:
    """Constant T, shape (5 * 16, 6), with omega_mu = T F reshaped, where
    F = (d_1 U, d_2 U, d_3 U, (curl varpi)_1, (curl varpi)_2, (curl varpi)_3)."""
    eps = np.zeros((3, 3, 3))  # Omega_ij = eps_ijk (curl varpi)_k
    eps[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
    eps[[0, 2, 1], [2, 1, 0], [1, 0, 2]] = -1.0
    gam = gamma_set(0.0, np.zeros(3)).upper  # the frame gammas Gamma^a
    sp = gam[:3]
    C = gam[3] @ sp - sp @ gam[3]  # [Gamma^t, Gamma^i]
    T = np.zeros((5, 4, 4, 6), dtype=complex)
    T[:3, ..., 3:] = -0.125 * np.einsum("ijk,iab->jabk", eps, C)
    T[3, ..., :3] = 0.25 * np.moveaxis(C, 0, -1)
    T[3, ..., 3:] = 0.125 * np.einsum("ijk,iab,jbc->ack", eps, sp, sp)
    return T.reshape(80, 6)


def spin_connection(p: GridPotential) -> np.ndarray:
    """Connection matrices omega_mu, shape (5, 4, 4, grid).

    nabla_mu psi = d_mu psi + omega_mu psi. The coframe theta^i = dx^i,
    theta^t = dt, theta^s = ds + varpi.dx - U dt is orthonormal for g
    (g = theta^i theta^i + 2 theta^t theta^s), and gamma_set is its frame
    image: gamma^mu = E^mu_a Gamma^a with the constant Gamma^a = gamma_set at
    zero potentials. With Omega_ij = d_i varpi_j - d_j varpi_i the only
    non-closed coframe form has d theta^s = (1/2) Omega_ij dx^i ^ dx^j -
    dU ^ dt, and Cartan's structure equation gives

        omega_j = -(1/8) Omega_ij [Gamma^t, Gamma^i],
        omega_t = (1/4) d_i U [Gamma^t, Gamma^i] + (1/8) Omega_ij Gamma^i Gamma^j,
        omega_s = 0,

    constant matrices times the Newton-Cartan data grad U and curl varpi.
    The coordinate form -(1/8) [gamma^rho, d_mu gamma_rho -
    Gamma^sigma_{mu rho} gamma_sigma] is the test oracle.
    """
    F = np.concatenate([p.dU, p.curl_varpi]).reshape(6, -1)
    return (_connection_matrices() @ F).reshape((5, 4, 4) + p.grid.shape)


def covariant_spinor_derivative(
    psi: np.ndarray,
    p: GridPotential,
    m: float,
    hbar: float,
    dt_psi=None,
) -> np.ndarray:
    """nabla_mu psi for a 4-spinor grid field, shape (5, 4, grid).

    The field is understood as the s-equivariant lift psi * exp(i m s / hbar),
    so the s slot is algebraic: nabla_s psi = (i m / hbar) psi. The t slot
    needs dt_psi (raises when absent), spatial slots are spectral.
    """
    if dt_psi is None:
        raise ValueError("covariant t-derivative needs dt_psi")
    psi = np.asarray(psi, dtype=complex)
    out = np.empty((5,) + psi.shape, dtype=complex)
    out[:3] = gradient(psi, p.grid)
    out[3] = dt_psi
    out[4] = (1j * m / hbar) * psi
    # omega psi = sum_f F_f (T_f psi), never building omega (42 MB at 32^3)
    T, Tpsi = _connection_matrices().reshape(20, 4, 6), np.empty_like(out)
    for f, F in enumerate((*p.dU, *p.curl_varpi)):
        np.matmul(T[..., f], psi.reshape(4, -1), out=Tpsi.reshape(20, -1))
        out += np.multiply(Tpsi, F, out=Tpsi)
    return out


def lie_derivative_spinor_density(
    psi: np.ndarray,
    p: GridPotential,
    X,
    m: float,
    hbar: float,
    dt_psi=None,
    t0: float = 0.0,
) -> np.ndarray:
    """Spinor-density Lie derivative along a conformal generator, on the s=0 slice.

    X is any object :func:`generator_matrix` accepts. Implements
    L_X = X^mu nabla_mu - (1/4) d_[mu X_nu] gamma^mu gamma^nu + w (div X),
    w = DENSITY_WEIGHT; indices are lowered with the full Brinkmann metric,
    so potential terms are included. The s-linear part of X^s acts through (im/hbar) s and drops
    on the s = 0 slice; its trace survives in div X. dt_psi is required
    whenever X^t is not identically zero at the field's time slice (pass the
    PDE right-hand side or a finite-difference stamp).
    """
    psi = np.asarray(psi, dtype=complex)
    L = generator_matrix(X)
    # X^mu on the s = 0 slice at time t0; X^t is spatially constant.
    Xup = generator_field(L, p.grid.mesh(), t0)
    if dt_psi is None:
        if np.any(Xup[3]):
            raise ValueError("generator moves time; dt_psi is required")
        dt_psi = np.zeros_like(psi)
    transport = np.einsum("m...,ma...->a...", Xup,
                          covariant_spinor_derivative(psi, p, m, hbar, dt_psi))

    # d_mu X_nu = g_{nu lambda} d_mu X^lambda + (d_mu g_{nu lambda}) X^lambda,
    # with d_mu X^lambda = L[lambda, mu] exactly: X^mu is affine, so only the
    # potentials are differentiated (spectrally); taking an FFT derivative of
    # the linear-in-x pieces themselves would alias on the torus. Static
    # potentials vary along x only, so only the rows d_i g enter.
    g = brinkmann_metric(p.U, np.moveaxis(p.varpi, 0, -1))  # grid axes first
    dX = np.einsum("...nl,lm->mn...", g, L[:5, :5])
    del g  # each 5x5 grid array is 6.5 MB at 32^3,
    for i in range(3):  # so the d_i g come one at a time
        dg = _metric_part(p.dU[i], np.moveaxis(p.dvarpi[i], 0, -1))
        dX[i] += np.einsum("...nl,l...->n...", dg, Xup)

    A = 0.5 * (dX - np.swapaxes(dX, 0, 1))
    # frame components A_ab = E^mu_a A_mu nu E^nu_b (see spin_connection):
    # E differs from the identity only in its s row, by e = (-varpi, U, 0),
    # so E^T A E adds multiples of the s column and then of the s row
    e = np.concatenate([-p.varpi, p.U[None], np.zeros((1,) + p.grid.shape)])
    A += A[:, 4:5] * e
    A += e[:, None] * A[4:5]
    # -(1/4) A_ab Gamma^a Gamma^b = -(1/4) sum_{a<b} A_ab [Gamma^a, Gamma^b]
    gam = gamma_set(0.0, np.zeros(3)).upper
    kos = np.zeros_like(psi)
    for a, b in zip(*np.triu_indices(5, 1)):
        comm = gam[a] @ gam[b] - gam[b] @ gam[a]
        kos -= 0.25 * A[a, b] * np.einsum("ij,j...->i...", comm, psi)

    divX = np.trace(L[:5, :5])
    return transport + kos + DENSITY_WEIGHT * divX * psi


def dirac_residual(
    phi: np.ndarray,
    chi: np.ndarray,
    dt_phi: np.ndarray,
    p: GridPotential,
    m: float,
    hbar: float,
):
    """Pointwise residual of the two coupled Pauli-pair equations.

    line1: hbar sigma(grad) phi + 2 m chi - i m sigma(varpi) phi
    line2: i hbar dt_phi - m U phi - hbar sigma(grad) chi
           + i m sigma(varpi) chi - (hbar/4) sigma(curl varpi) phi

    dt_phi is an input: pass the analytic time derivative when known, or a
    centered difference of evolution snapshots (second-order in the step).
    Returns (node_residual, line1, line2).
    """
    grid = p.grid
    phi = np.asarray(phi, dtype=complex)
    chi = np.asarray(chi, dtype=complex)
    line1 = hbar * sigma_grad(phi, grid) + 2.0 * m * chi
    line2 = (
        1j * hbar * np.asarray(dt_phi, dtype=complex)
        - m * p.U * phi
        - hbar * sigma_grad(chi, grid)
    )
    if p.coriolis:
        line1 = line1 - 1j * m * sigma_dot(p.varpi, phi)
        line2 = line2 + 1j * m * sigma_dot(p.varpi, chi)
        line2 = line2 - 0.25 * hbar * sigma_dot(p.curl_varpi, phi)
    node = np.sqrt(density(line1) + density(line2))
    return node, line1, line2
