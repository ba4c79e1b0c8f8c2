import tracemalloc

import numpy as np
import pytest
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

from hypothesis import given, settings, strategies as st

from lln import fields, gravity
from lln.evolve import RunConfig, apply_hamiltonian, chi_from_phi, max_frequency, run
from lln.fields import GridSpec, band_limited_noise
from lln.geometry import (
    _connection_from_dg,
    _metric_at,
    DENSITY_WEIGHT,
    GridPotential,
    PotentialSample,
    brinkmann_metric,
    brinkmann_metric_inverse,
    chirality_matrix,
    christoffels,
    christoffels_fd,
    clifford_residual,
    covariant_spinor_derivative,
    gamma_set,
    lie_derivative_spinor_density,
    ricci_constraint_residual,
    spin_connection,
    volume_density,
)
import oracles

RNG = np.random.default_rng(20260819)
G32 = GridSpec(n=32, length=16.0)
G16 = GridSpec(n=16, length=16.0)

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def random_uw(P=256, scale=1.0):
    U = scale * RNG.standard_normal(P)
    w = scale * RNG.standard_normal((P, 3))
    return U, w


@dataclass
class AnalyticPotential:
    """Closed-form (U, varpi), with optional closed-form first derivatives.

    Callables take (x, t) with x of shape (..., 3) and return shapes as in
    PotentialSample. Derivative callables are needed only by the closed-form
    Christoffel path; finite-difference oracles work from values alone.
    """

    U: Callable
    varpi: Callable
    dU: Optional[Callable] = None
    dtU: Optional[Callable] = None
    dvarpi: Optional[Callable] = None
    dtvarpi: Optional[Callable] = None

    def sample(self, x, t=0.0, derivatives: bool = False) -> PotentialSample:
        x = np.asarray(x, dtype=float)
        s = PotentialSample(
            U=np.asarray(self.U(x, t), dtype=float),
            varpi=np.asarray(self.varpi(x, t), dtype=float),
        )
        if derivatives:
            if self.dU is None or self.dvarpi is None:
                raise ValueError(
                    "analytic potential lacks derivative callables; "
                    "use the finite-difference oracle instead"
                )
            s.dU = np.asarray(self.dU(x, t), dtype=float)
            s.dvarpi = np.asarray(self.dvarpi(x, t), dtype=float)
            s.dtU = (
                np.asarray(self.dtU(x, t), dtype=float)
                if self.dtU
                else np.zeros_like(s.U)
            )
            s.dtvarpi = (
                np.asarray(self.dtvarpi(x, t), dtype=float)
                if self.dtvarpi
                else np.zeros_like(s.varpi)
            )
        return s


def trig_potential(time_dependent=False):
    """Periodic closed-form (U, varpi) with hand-written derivatives."""
    k = 2 * np.pi / 16.0

    def ft(t):
        return 1.0 + (0.5 * np.sin(0.7 * t) if time_dependent else 0.0)

    def dft(t):
        return 0.35 * np.cos(0.7 * t) if time_dependent else 0.0

    def U(x, t):
        a, b, c = x[..., 0], x[..., 1], x[..., 2]
        return (0.3 * np.sin(k * a) * np.cos(2 * k * b) + 0.2 * np.cos(k * c)) * ft(t)

    def dU(x, t):
        a, b, c = x[..., 0], x[..., 1], x[..., 2]
        out = np.zeros(x.shape)
        out[..., 0] = 0.3 * k * np.cos(k * a) * np.cos(2 * k * b)
        out[..., 1] = -0.6 * k * np.sin(k * a) * np.sin(2 * k * b)
        out[..., 2] = -0.2 * k * np.sin(k * c)
        return out * ft(t)

    def dtU(x, t):
        a, b, c = x[..., 0], x[..., 1], x[..., 2]
        return (0.3 * np.sin(k * a) * np.cos(2 * k * b) + 0.2 * np.cos(k * c)) * dft(t)

    def w(x, t):
        a, b, c = x[..., 0], x[..., 1], x[..., 2]
        out = np.zeros(x.shape)
        out[..., 0] = 0.2 * np.sin(k * b)
        out[..., 1] = 0.1 * np.cos(k * c) * ft(t)
        out[..., 2] = 0.15 * np.sin(k * (a + b))
        return out

    def dw(x, t):
        # [..., i, j] = d_i w_j
        a, b, c = x[..., 0], x[..., 1], x[..., 2]
        out = np.zeros(x.shape[:-1] + (3, 3))
        out[..., 1, 0] = 0.2 * k * np.cos(k * b)
        out[..., 2, 1] = -0.1 * k * np.sin(k * c) * ft(t)
        out[..., 0, 2] = 0.15 * k * np.cos(k * (a + b))
        out[..., 1, 2] = 0.15 * k * np.cos(k * (a + b))
        return out

    def dtw(x, t):
        a, b, c = x[..., 0], x[..., 1], x[..., 2]
        out = np.zeros(x.shape)
        out[..., 1] = 0.1 * np.cos(k * c) * dft(t)
        return out

    return AnalyticPotential(U=U, varpi=w, dU=dU, dtU=dtU, dvarpi=dw, dtvarpi=dtw)


def test_coriolis_says_whether_varpi_is_nonzero():
    assert not GridPotential(G16).coriolis
    assert not GridPotential(G16, varpi=np.zeros((3,) + G16.shape)).coriolis
    p = GridPotential(G16, varpi=0.3 * band_limited_noise(G16, modes=2, seed=41, comps=(3,)))
    assert p.coriolis is True
    assert vars(p)["coriolis"] is True  # cached: varpi is scanned once


def test_potential_without_varpi_shares_one_read_only_zero():
    # a potential built without varpi allocates none and decides coriolis
    # without a scan; everything read off it matches an explicit zero varpi
    # bit for bit
    U = 0.3 * band_limited_noise(G16, modes=2, seed=43)
    bare, zero = GridPotential(G16, U=U), GridPotential(G16, U=U, varpi=np.zeros((3,) + G16.shape))
    assert vars(bare)["coriolis"] is False and not zero.coriolis
    assert not bare.varpi.flags.writeable and bare.varpi.shape == (3,) + G16.shape
    assert np.shares_memory(bare.varpi, GridPotential(G32).varpi)
    f = fields.gaussian_packet(G16, sigma=1.2, spin=(0.6, 0.8j))
    for name in ("varpi", "dvarpi", "curl_varpi", "div_varpi", "omega2"):
        assert np.array_equal(getattr(bare, name), getattr(zero, name)), name
    x = RNG.uniform(-4.0, 4.0, (5, 3))
    sb, sz = bare.sample(x, derivatives=True), zero.sample(x, derivatives=True)
    for name in ("U", "varpi", "dU", "dvarpi", "dtU", "dtvarpi"):
        assert np.array_equal(getattr(sb, name), getattr(sz, name)), name
    for fn in (apply_hamiltonian, chi_from_phi):
        assert np.array_equal(fn(f.data, bare, G16, f.m, f.hbar), fn(f.data, zero, G16, f.m, f.hbar))
    assert max_frequency(bare, G16, f.m, f.hbar) == max_frequency(zero, G16, f.m, f.hbar)
    cfg = RunConfig(dt=2e-3, steps=3, source="external")
    assert np.array_equal(run(f, cfg, bare).field.data, run(f, cfg, zero).field.data)


############################################################
# metric and Clifford algebra
############################################################


def test_metric_determinant_and_volume():
    U, w = random_uw()
    g = brinkmann_metric(U, w)
    assert np.max(np.abs(np.linalg.det(g) + 1.0)) < 1e-12
    assert np.max(np.abs(volume_density(g) - 1.0)) < 1e-12


def test_metric_inverse_closed_form():
    U, w = random_uw()
    g = brinkmann_metric(U, w)
    gi = brinkmann_metric_inverse(U, w)
    eye = np.eye(5)
    assert np.max(np.abs(np.einsum("...mn,...nr->...mr", g, gi) - eye)) < 1e-12
    assert np.max(np.abs(gi - np.linalg.inv(g))) < 1e-11


def test_clifford_both_index_positions():
    U, w = random_uw()
    gam = gamma_set(U, w)
    g = brinkmann_metric(U, w)
    gi = brinkmann_metric_inverse(U, w)
    assert clifford_residual(gam.upper, gi) < 1e-13
    assert clifford_residual(gam.lower, g) < 1e-13


def test_clifford_detects_corruption():
    U, w = random_uw(P=8)
    gam = gamma_set(U, w)
    gi = brinkmann_metric_inverse(U, w)
    bad = gam.upper.copy()
    bad[..., 4, 0, 0] += 0.01
    assert clifford_residual(bad, gi) > 1e-3


def test_chirality_is_identity():
    U, w = random_uw(P=64)
    gam = gamma_set(U, w)
    g = brinkmann_metric(U, w)
    vol = chirality_matrix(gam, g)
    assert np.max(np.abs(vol - np.eye(4))) < 1e-12


def test_lowered_gamma_blocks():
    # gamma_s = gamma^t; gamma_i = gamma^i + w_i gamma^t;
    # gamma_t = w_j gamma^j - 2U gamma^t + gamma^s
    U, w = random_uw(P=32)
    gam = gamma_set(U, w)
    up, low = gam.upper, gam.lower
    assert np.max(np.abs(low[..., 4, :, :] - up[..., 3, :, :])) < 1e-14
    for i in range(3):
        ref = up[..., i, :, :] + w[..., i, None, None] * up[..., 3, :, :]
        assert np.max(np.abs(low[..., i, :, :] - ref)) < 1e-13
    ref_t = (
        np.einsum("...j,...jab->...ab", w, up[..., :3, :, :])
        - 2.0 * U[..., None, None] * up[..., 3, :, :]
        + up[..., 4, :, :]
    )
    assert np.max(np.abs(low[..., 3, :, :] - ref_t)) < 1e-13


def test_gamma_set_is_the_frame_image_of_constant_gammas():
    # gamma^mu = E^mu_a Gamma^a for the coframe theta^s = ds + varpi.dx - U dt:
    # E is the identity but for its s row (-varpi, U, 1), and Gamma^a is
    # gamma_set at zero potentials; spin_connection rests on this
    U, w = random_uw(P=50)
    E = np.broadcast_to(np.eye(5), U.shape + (5, 5)).copy()
    E[..., 4, :3] = -w
    E[..., 4, 3] = U
    frame = np.einsum("...ma,aij->...mij", E, gamma_set(0.0, np.zeros(3)).upper)
    assert np.max(np.abs(gamma_set(U, w).upper - frame)) < 1e-14


############################################################
# connection
############################################################

def _allowed_mask():
    M = np.zeros((5, 5, 5), dtype=bool)
    M[:3, 3, 3] = True
    M[:3, :3, 3] = True
    M[:3, 3, :3] = True
    M[4, :3, :3] = True
    M[4, :3, 3] = True
    M[4, 3, :3] = True
    M[4, 3, 3] = True
    return M


def _christoffel_families(sample):
    """Oracle: the non-vanishing Christoffel families written out by hand."""
    dU, dtU, dw, dtw, w = (np.asarray(a) for a in (
        sample.dU, sample.dtU, sample.dvarpi, sample.dtvarpi, sample.varpi))
    G = np.zeros(np.broadcast_shapes(dU.shape[:-1], dw.shape[:-2]) + (5, 5, 5))
    om = dw - np.swapaxes(dw, -1, -2)  # Omega_ij = d_i w_j - d_j w_i
    acc = dU + dtw  # Gamma^i_tt
    G[..., :3, 3, 3] = acc
    G[..., :3, :3, 3] = -0.5 * om  # Gamma^i_jt, symmetric in (j, t)
    G[..., :3, 3, :3] = -0.5 * om
    G[..., 4, :3, :3] = 0.5 * (dw + np.swapaxes(dw, -1, -2))
    s_it = -dU - 0.5 * np.einsum("...ij,...j->...i", om, w)
    G[..., 4, :3, 3] = s_it
    G[..., 4, 3, :3] = s_it
    G[..., 4, 3, 3] = -dtU - np.einsum("...i,...i->...", w, acc)
    return G


@settings(database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from([(1,), (7,), (3, 4)]),
       scale=st.sampled_from([0.1, 1.0, 10.0]))
def test_christoffels_match_family_oracle(seed, batch, scale):
    # the general Levi-Civita contraction against the hand-written families,
    # time derivatives included
    rng = np.random.default_rng(seed)
    s = PotentialSample(
        U=scale * rng.standard_normal(batch),
        varpi=scale * rng.standard_normal(batch + (3,)),
        dU=scale * rng.standard_normal(batch + (3,)),
        dtU=scale * rng.standard_normal(batch),
        dvarpi=scale * rng.standard_normal(batch + (3, 3)),
        dtvarpi=scale * rng.standard_normal(batch + (3,)),
    )
    got, ref = christoffels(s), _christoffel_families(s)
    assert got.shape == ref.shape == batch + (5, 5, 5)
    assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
    assert np.array_equal(got == 0, ref == 0)


def test_christoffel_zero_pattern_and_symmetry():
    pot = trig_potential()
    pts = RNG.uniform(-6, 6, size=(40, 3))
    s = pot.sample(pts, t=0.0, derivatives=True)
    dense = christoffels(s)
    mask = _allowed_mask()
    assert np.max(np.abs(dense[:, ~mask])) == 0.0
    assert np.max(np.abs(dense - np.swapaxes(dense, -1, -2))) == 0.0


def test_christoffel_closed_vs_fd_static():
    pot = trig_potential()
    for point in ([0.7, -1.3, 2.1], [3.1, 0.2, -0.4], [-2.0, 5.0, 1.0]):
        s = pot.sample(np.array([point]), t=0.0, derivatives=True)
        closed = christoffels(s)[0]
        fd = christoffels_fd(pot, point, t=0.0, h=1e-3)
        assert np.max(np.abs(closed - fd)) < 1e-6
        assert np.max(np.abs(fd[~_allowed_mask()])) < 1e-10


def test_christoffel_closed_vs_fd_time_dependent():
    pot = trig_potential(time_dependent=True)
    for t in (0.0, 0.9):
        point = [1.1, -0.6, 0.8]
        s = pot.sample(np.array([point]), t=t, derivatives=True)
        closed = christoffels(s)[0]
        fd = christoffels_fd(pot, point, t=t, h=1e-3)
        assert np.max(np.abs(closed - fd)) < 1e-6


def test_christoffel_on_grid_potential_samples():
    # spectral derivatives of a band-limited grid potential feed the closed form
    U = 0.2 * band_limited_noise(G32, modes=2, seed=31)
    w = 0.1 * band_limited_noise(G32, modes=2, seed=32, comps=(3,))
    p = GridPotential(G32, U=U, varpi=w)
    point = [0.9, -2.3, 1.7]
    s = p.sample(np.array([point]), derivatives=True)
    closed = christoffels(s)[0]
    fd = christoffels_fd(p, point, h=1e-3)
    assert np.max(np.abs(closed - fd)) < 1e-6


def test_christoffel_requires_derivatives():
    pot = trig_potential()
    s = pot.sample(np.zeros((1, 3)), t=0.0, derivatives=False)
    with pytest.raises(ValueError):
        christoffels(s)


def test_analytic_potential_guards():
    bare = AnalyticPotential(U=lambda x, t: np.zeros(x.shape[:-1]),
                             varpi=lambda x, t: np.zeros(x.shape))
    with pytest.raises(ValueError):
        bare.sample(np.zeros((1, 3)), derivatives=True)


############################################################
# curvature
############################################################


def ricci_fd(potential, point, t: float = 0.0, h: float = 1e-3) -> np.ndarray:
    """Ricci tensor at one event, assembled from finite differences of g.

    Second derivatives use centered stencils over (x, t); the s direction is
    flat by inspection of the metric components. Convention
    R_{mu nu} = d_rho Gamma^rho_{mu nu} - d_mu Gamma^rho_{rho nu} + GG - GG.
    """
    point = np.asarray(point, dtype=float)

    def gat(dx, dt_):
        return _metric_at(potential, point + dx, t + dt_)

    zeros3 = np.zeros(3)
    g0 = gat(zeros3, 0.0)
    gi0 = np.linalg.inv(g0)

    def step(mu):
        if mu < 3:
            e = np.zeros(3)
            e[mu] = h
            return e, 0.0
        if mu == 3:
            return zeros3, h
        return None  # s: flat direction

    dg = np.zeros((5, 5, 5))
    ddg = np.zeros((5, 5, 5, 5))
    for mu in range(4):
        ex, et = step(mu)
        gp, gm = gat(ex, et), gat(-ex, -et)
        dg[mu] = (gp - gm) / (2 * h)
        ddg[mu, mu] = (gp - 2 * g0 + gm) / h**2
    for mu in range(4):
        for nu in range(mu + 1, 4):
            exm, etm = step(mu)
            exn, etn = step(nu)
            gpp = gat(exm + exn, etm + etn)
            gmm = gat(-exm - exn, -etm - etn)
            gpm = gat(exm - exn, etm - etn)
            gmp = gat(-exm + exn, -etm + etn)
            ddg[mu, nu] = ddg[nu, mu] = (gpp + gmm - gpm - gmp) / (4 * h**2)

    Gam = _connection_from_dg(gi0, dg)
    dGam = np.zeros((5, 5, 5, 5))  # [lambda, rho, mu, nu]
    for lam in range(4):
        dgi = -gi0 @ dg[lam] @ gi0
        dGam[lam] = _connection_from_dg(dgi, dg) + _connection_from_dg(gi0, ddg[lam])
    ric = (
        np.einsum("rrmn->mn", dGam)
        - np.einsum("mrrn->mn", dGam)
        + np.einsum("rrl,lmn->mn", Gam, Gam)
        - np.einsum("rml,lrn->mn", Gam, Gam)
    )
    return ric


def test_ricci_structure():
    U = 0.2 * band_limited_noise(G32, modes=2, seed=3)
    w = 0.1 * band_limited_noise(G32, modes=2, seed=4, comps=(3,))
    p = GridPotential(G32, U=U, varpi=w)
    tt_ref_grid = fields.laplacian(U, G32) + 0.5 * p.omega2
    ti_ref_grid = 0.5 * fields.curl(p.curl_varpi, G32)
    point = np.array([0.73, -1.1, 0.4])
    ric = ricci_fd(p, point, h=1e-2)
    tt_ref = fields.sample_points(tt_ref_grid, G32, point[None])[0].real
    ti_ref = fields.sample_points(ti_ref_grid, G32, point[None])[:, 0].real
    assert abs(ric[3, 3] - tt_ref) < 2e-5
    assert np.max(np.abs(ric[3, :3] - ti_ref)) < 2e-5
    assert np.max(np.abs(ric - ric.T)) < 1e-7
    assert np.max(np.abs(ric[:3, :3])) < 1e-5  # flat spatial block
    assert np.max(np.abs(ric[4, :])) < 1e-10  # s row exactly flat
    assert np.max(np.abs(ric[:, 4])) < 1e-10


def test_constraint_residual_solved_field():
    rho = band_limited_noise(G32, modes=3, seed=7)
    rho -= rho.mean()
    w = 0.2 * band_limited_noise(G32, modes=2, seed=8, comps=(3,))
    p0 = GridPotential(G32, varpi=w)
    U = gravity.constraint_potential(G32, rho, varpi_curl2=p0.omega2, G=1.3)
    p = GridPotential(G32, U=U, varpi=w)
    chk = ricci_constraint_residual(p, rho=rho, G=1.3)
    assert chk.scalar_max_meanfree < 1e-10
    # generic varpi does not satisfy the vector constraint
    assert chk.vector_max > 1e-3


def test_constraint_uniform_rotation():
    om = np.array([0.3, -0.2, 0.5])
    p = gravity.uniform_rotation_potential(G32, om)
    chk = ricci_constraint_residual(p)
    assert chk.vector_max == 0.0
    assert np.max(np.abs(p.curl_varpi - om.reshape(3, 1, 1, 1))) < 1e-14
    assert np.max(np.abs(p.div_varpi)) < 1e-14
    assert np.max(np.abs(p.omega2 - np.dot(om, om))) < 1e-13
    # |Omega|^2 is constant, so the mean-free scalar residual vanishes
    assert chk.scalar_max_meanfree < 1e-13
    assert abs(chk.scalar_max - 0.5 * np.dot(om, om)) < 1e-13


############################################################
# spinor calculus
############################################################


def four_spinor(seed=0, grid=G32):
    re = band_limited_noise(grid, modes=3, seed=seed, comps=(4,))
    im = band_limited_noise(grid, modes=3, seed=seed + 1000, comps=(4,))
    return (re + 1j * im).astype(complex)


def test_covariant_derivative_vertical_slot():
    p = GridPotential(G32)
    psi = four_spinor(1)
    out = covariant_spinor_derivative(psi, p, m=1.4, hbar=0.9, dt_psi=np.zeros_like(psi))
    assert np.max(np.abs(out[4] - (1j * 1.4 / 0.9) * psi)) < 1e-14
    with pytest.raises(ValueError):
        covariant_spinor_derivative(psi, p, m=1.0, hbar=1.0)


def test_spin_connection_flat_and_vertical():
    assert np.max(np.abs(spin_connection(GridPotential(G16)))) == 0.0
    U = 0.2 * band_limited_noise(G16, modes=2, seed=11)
    w = 0.1 * band_limited_noise(G16, modes=2, seed=12, comps=(3,))
    p = GridPotential(G16, U=U, varpi=w)
    om = spin_connection(p)
    assert np.max(np.abs(om[4])) == 0.0  # nothing depends on s


def _dgamma_lower_blocks(p, mu):
    """d_mu gamma_rho written by hand: only the lower-left Pauli blocks of
    gamma_t (-U I2) and gamma_j (varpi_j I2) move."""
    out = np.zeros((5, 4, 4) + p.grid.shape, dtype=complex)
    if mu >= 3:
        return out
    for a in (0, 1):
        out[3, 2 + a, a] = -p.dU[mu]
        for j in range(3):
            out[j, 2 + a, a] = p.dvarpi[mu][j]
    return out


def test_dgamma_lower_matches_the_hand_written_blocks():
    U = 0.2 * band_limited_noise(G16, modes=2, seed=11)
    w = 0.1 * band_limited_noise(G16, modes=2, seed=12, comps=(3,))
    p = GridPotential(G16, U=U, varpi=w)
    for mu in range(5):
        assert np.array_equal(oracles.dgamma_lower(p, mu), _dgamma_lower_blocks(p, mu)), mu


def test_spin_connection_contraction_closed_form():
    # gamma^mu omega_mu has only the lower-left Pauli block,
    # equal to (i/4) sigma(curl varpi); U drops out entirely
    U = 0.3 * band_limited_noise(G16, modes=2, seed=13)
    w = 0.15 * band_limited_noise(G16, modes=2, seed=14, comps=(3,))
    p = GridPotential(G16, U=U, varpi=w)
    up = np.moveaxis(gamma_set(p.U, np.moveaxis(p.varpi, 0, -1)).upper, (-3, -2, -1), (0, 1, 2))
    con = np.einsum("mab...,mbc...->ac...", up, spin_connection(p))
    ref = 0.25j * np.einsum("jab,j...->ab...", PAULI, p.curl_varpi)
    assert np.max(np.abs(con[2:, :2] - ref)) < 1e-14
    con2 = con.copy()
    con2[2:, :2] = 0.0
    assert np.max(np.abs(con2)) < 1e-14


@pytest.mark.parametrize("grid, aU, aw", [(G16, 0.3, 0.15), (G16, 3.0, 1.0), (G32, 0.3, 0.15)],
                         ids=["16-weak", "16-strong", "32-weak"])
def test_spinor_calculus_matches_the_commutator_oracle(grid, aU, aw):
    # the closed-form connection, the covariant derivative and the Kosmann
    # Lie derivative against the coordinate commutator form on grid gammas
    # (measured at most 1.5e-16 relative)
    U = aU * band_limited_noise(grid, modes=2, seed=17)
    w = aw * band_limited_noise(grid, modes=2, seed=18, comps=(3,))
    p = GridPotential(grid, U=U, varpi=w)
    psi, dt_psi = four_spinor(19, grid), four_spinor(20, grid)
    X = SimpleNamespace(omega=np.array([0.1, -0.2, 0.3]), beta=np.array([0.2, 0.1, -0.1]),
                        gamma=np.array([0.3, 0.2, 0.1]), delta=0.05, eps=0.4, eta=0.3)
    omega = oracles.spin_connection_commutator(p)
    nabla = oracles.covariant_spinor_derivative_commutator(psi, p, 1.3, 0.8, dt_psi, omega)
    pairs = [
        (spin_connection(p), omega),
        (covariant_spinor_derivative(psi, p, 1.3, 0.8, dt_psi), nabla),
        (lie_derivative_spinor_density(psi, p, X, 1.3, 0.8, dt_psi=dt_psi, t0=0.4),
         oracles.lie_derivative_commutator(psi, p, X, nabla, t0=0.4)),
    ]
    for got, ref in pairs:
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(database=None, deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**16), c=st.floats(-5.0, 5.0))
def test_spin_connection_sees_only_grad_U_and_curl_varpi(seed, c):
    # omega is built from the Newton-Cartan data alone: a gauge shift
    # varpi -> varpi + grad theta and a constant U -> U + c leave it alone
    U = 0.3 * band_limited_noise(G16, modes=2, seed=seed)
    w = 0.15 * band_limited_noise(G16, modes=2, seed=seed + 1, comps=(3,))
    theta = band_limited_noise(G16, modes=2, seed=seed + 2)
    ref = spin_connection(GridPotential(G16, U=U, varpi=w))
    scale = np.max(np.abs(ref))
    for q in (GridPotential(G16, U=U, varpi=w + fields.gradient(theta, G16)),
              GridPotential(G16, U=U + c, varpi=w)):
        assert np.max(np.abs(spin_connection(q) - ref)) <= 1e-13 * scale


def test_spin_connection_memory_at_32():
    # constant gammas times grid fields: the 42 MB result and little beside
    U = 0.3 * band_limited_noise(G32, modes=2, seed=15)
    w = 0.15 * band_limited_noise(G32, modes=2, seed=16, comps=(3,))
    p = GridPotential(G32, U=U, varpi=w)
    tracemalloc.start()
    try:
        spin_connection(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 60e6, peak


def test_lie_derivative_memory_at_32():
    # omega is applied field by field, never built (42 MB at 32^3), and the
    # Kosmann term's 5x5 grid arrays are freed early (35 MB measured; 68 MB
    # when omega was built)
    U = 0.3 * band_limited_noise(G32, modes=2, seed=15)
    w = 0.15 * band_limited_noise(G32, modes=2, seed=16, comps=(3,))
    p = GridPotential(G32, U=U, varpi=w)
    psi, dt_psi = four_spinor(21), four_spinor(22)
    X = SimpleNamespace(omega=np.array([0.1, -0.2, 0.3]), beta=np.array([0.2, 0.1, -0.1]),
                        gamma=np.array([0.3, 0.2, 0.1]), delta=0.05, eps=0.4, eta=0.3)
    tracemalloc.start()
    try:
        lie_derivative_spinor_density(psi, p, X, 1.3, 0.8, dt_psi=dt_psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 45e6, peak


def test_lie_derivative_vertical_generator():
    p = GridPotential(G32)
    psi = four_spinor(5)
    X = SimpleNamespace(omega=np.zeros(3), beta=np.zeros(3), gamma=np.zeros(3),
                        delta=0.0, eps=0.0, eta=0.7)
    out = lie_derivative_spinor_density(psi, p, X, m=1.2, hbar=0.8)
    assert np.max(np.abs(out - (1j * 1.2 / 0.8) * 0.7 * psi)) < 1e-14


def test_lie_derivative_rotation_closed_form():
    # L_X for a rotation = orbital transport + spin term (i w/2) diag(s3, s3)
    p = GridPotential(G32)
    psi = four_spinor(6)
    w0 = 0.9
    X = SimpleNamespace(omega=np.array([0.0, 0.0, w0]), beta=np.zeros(3),
                        gamma=np.zeros(3), delta=0.0, eps=0.0, eta=0.0)
    out = lie_derivative_spinor_density(psi, p, X, m=1.0, hbar=1.0)
    Xm = G32.mesh()
    g = fields.gradient(psi, G32)
    orbital = w0 * (-Xm[1] * g[0] + Xm[0] * g[1])
    spin = np.zeros_like(psi)
    spin[:2] = 0.5j * w0 * np.einsum("ab,b...->a...", PAULI[2], psi[:2])
    spin[2:] = 0.5j * w0 * np.einsum("ab,b...->a...", PAULI[2], psi[2:])
    assert np.max(np.abs(out - orbital - spin)) < 1e-12


def test_lie_derivative_static_time_translation_is_dt():
    # d_t is Killing for static (U, varpi) and leaves the Brinkmann frame
    # alone, so its spinor Lie derivative is d_t psi itself: the spin
    # connection along t and the potential terms of d_[mu X_nu] cancel
    U = 0.3 * band_limited_noise(G32, modes=2, seed=15)
    w = 0.15 * band_limited_noise(G32, modes=2, seed=16, comps=(3,))
    p = GridPotential(G32, U=U, varpi=w)
    psi, dt_psi = four_spinor(7), four_spinor(8)
    X = SimpleNamespace(omega=np.zeros(3), beta=np.zeros(3), gamma=np.zeros(3),
                        delta=0.0, eps=1.0, eta=0.0)
    out = lie_derivative_spinor_density(psi, p, X, m=1.0, hbar=1.0, dt_psi=dt_psi)
    assert np.max(np.abs(out - dt_psi)) < 1e-13  # measured 1.1e-16


def test_lie_derivative_needs_dt_psi_when_time_moves():
    p = GridPotential(G16)
    psi = np.zeros((4,) + G16.shape, dtype=complex)
    X = SimpleNamespace(omega=np.zeros(3), beta=np.zeros(3), gamma=np.zeros(3),
                        delta=0.0, eps=1.0, eta=0.0)
    with pytest.raises(ValueError):
        lie_derivative_spinor_density(psi, p, X, m=1.0, hbar=1.0)


def test_lie_derivative_dilation_weight():
    # pure dilation on a flat background at t = 0: orbital transport, the
    # chiral rotation from the antisymmetrized (t, s) derivative pair, and
    # the density weight times div X = -15 delta
    p = GridPotential(G32)
    psi = four_spinor(7)
    d = 0.05
    X = SimpleNamespace(omega=np.zeros(3), beta=np.zeros(3), gamma=np.zeros(3),
                        delta=d, eps=0.0, eta=0.0)
    dt_psi = np.zeros_like(psi)
    out = lie_derivative_spinor_density(psi, p, X, m=1.0, hbar=1.0, dt_psi=dt_psi)
    Xm = G32.mesh()
    g = fields.gradient(psi, G32)
    transport = -3.0 * d * np.einsum("j...,ja...->a...", Xm, g)
    chiral = d * np.concatenate([psi[:2], -psi[2:]], axis=0)
    expected = transport + chiral + DENSITY_WEIGHT * (-15.0 * d) * psi
    assert np.max(np.abs(out - expected)) < 1e-12
