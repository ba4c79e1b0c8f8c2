"""Dynamics of the upper Pauli pair.

After eliminating the lower pair algebraically, the wave equation is an
ordinary Schrodinger problem i hbar dphi/dt = H phi with

    H = (1/2m)(P - m varpi)^2 + m U - (hbar/4) sigma(curl varpi),

P = -i hbar grad, applied in this canonical form only. Split-step
integration covers the varpi = 0 case (exactly unitary); a spectral RK4 path
handles the rest. With varpi = 0, H acts as (T + m U) x 1 on the pair, so a
component that starts at zero stays exactly zero: `run` advances only the
components that are not identically zero, as a view into the field, kicked
by cos + i sin of a real angle. In imaginary time every factor of a sweep is
real too, so `ground_state` relaxes the nonzero real and imaginary parts of
the components as real planes, with real FFTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Optional

import numpy as np

from .fields import (
    PAULI,
    BispinorField,
    GridSpec,
    _norm_divisor,
    canonical_current,
    curl,
    density,
    divergence,
    fftn,
    gradient,
    ifftn,
    irfftn,
    laplacian,
    norm2,
    rfftn,
    shift_field,
    sigma_dot,
    sigma_grad,
    spin_density,
)
from .geometry import GridPotential
from .gravity import mass_density, poisson_isolated, poisson_periodic

__all__ = [
    "chi_from_phi",
    "apply_hamiltonian",
    "energy_expectation",
    "StabilityError",
    "max_frequency",
    "RunConfig",
    "RunResult",
    "run",
    "self_potential",
    "sn_energy",
    "RelaxConfig",
    "ground_state",
    "GroundStateResult",
    "CurrentCheck",
    "current_and_continuity",
    "gauge_transform",
]


def chi_from_phi(phi, p: Optional[GridPotential], grid: GridSpec, m: float, hbar: float):
    """Algebraic lower pair: chi = -(hbar/2m) sigma(grad) phi + (i/2) sigma(varpi) phi."""
    phi = np.asarray(phi, dtype=complex)
    chi = -(hbar / (2.0 * m)) * sigma_grad(phi, grid)
    if p is not None and p.coriolis:
        chi = chi + 0.5j * sigma_dot(p.varpi, phi)
    return chi


def apply_hamiltonian(
    phi,
    p: Optional[GridPotential],
    grid: GridSpec,
    m: float,
    hbar: float,
):
    """H phi = (1/2m)(P - m varpi)^2 phi + m U phi - (hbar/4) sigma(curl varpi) phi.

    Hermitian on the grid: spectral derivatives are exactly antisymmetric.
    The Laplacian's output is scaled in place and m U phi added slab by slab,
    each product in its operand order: without Coriolis, one buffer of phi's size.
    """
    phi = np.asarray(phi, dtype=complex)
    out = laplacian(phi, grid)
    np.multiply(-(hbar**2 / (2.0 * m)), out, out=out)
    if p is None:
        return out
    if p.coriolis:
        w = p.varpi
        gphi = gradient(phi, grid)
        wgrad = np.einsum("j...,ja...->a...", w, gphi)
        divw = p.div_varpi
        # (i hbar/2)(div varpi) + i hbar varpi.grad comes from expanding
        # the square; |varpi|^2 completes it.
        out = out + 1j * hbar * wgrad + 0.5j * hbar * divw * phi
        out = out + 0.5 * m * np.sum(w**2, axis=0) * phi
        out = out - 0.25 * hbar * sigma_dot(p.curl_varpi, phi)
    for i in range(grid.n):
        out[..., i, :, :] += (m * p.U[i]) * phi[..., i, :, :]
    return out


def energy_expectation(phi, p, grid, m, hbar) -> float:
    """<phi, H phi>, with conj(phi) H phi formed slab by slab in H phi."""
    h = apply_hamiltonian(phi, p, grid, m, hbar)
    for i in range(grid.n):
        np.multiply(np.conj(phi[..., i, :, :]), h[..., i, :, :], out=h[..., i, :, :])
    return float(np.real(np.sum(h)) * grid.dv)


class StabilityError(RuntimeError):
    pass


def max_frequency(p: Optional[GridPotential], grid: GridSpec, m: float, hbar: float) -> float:
    """Conservative spectral-radius estimate of H/hbar (rad per unit time)."""
    kmax = float(np.abs(grid.k1()).max())
    w = hbar * 3.0 * kmax**2 / (2.0 * m)  # corner of the k-lattice
    if p is not None:
        wmax = float(np.max(np.sqrt(np.sum(p.varpi**2, axis=0))))
        pot = float(np.max(np.abs(p.U + 0.5 * np.sum(p.varpi**2, axis=0))))
        w += m * pot / hbar
        w += wmax * np.sqrt(3.0) * kmax
        if p.coriolis:
            w += 0.25 * float(np.max(np.sqrt(p.omega2)))
    return w


############################################################
# integrators
############################################################


def _is_count(v):
    """An int or numpy integer, but not a bool, which subclasses int."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_modes(cfg, sources):
    """The source and Poisson names of a RunConfig or RelaxConfig."""
    if cfg.source not in sources:
        raise ValueError(f"unknown source mode {cfg.source!r}")
    if cfg.poisson not in ("periodic", "isolated"):
        raise ValueError(f"unknown poisson mode {cfg.poisson!r}")


@dataclass
class RunConfig:
    dt: float
    steps: int
    evolver: str = "split"  # "split" | "rk4"
    source: str = "free"  # "free" | "external" | "self"
    G: float = 1.0
    poisson: str = "periodic"  # self-consistent solve: "periodic" | "isolated"
    monitor_every: int = 0
    monitor: Optional[Callable] = None

    def __post_init__(self):
        if self.evolver not in ("split", "rk4"):
            raise ValueError(f"unknown evolver {self.evolver!r}")
        _check_modes(self, ("free", "external", "self"))
        if not (0 < self.dt < np.inf and np.isfinite(self.G)) or self.steps < 0:
            raise ValueError("dt must be finite and positive, G finite and steps nonnegative")
        # a fractional steps fails mid-run and a negative monitor_every is refused;
        # monitor_every=1 records every step, 0 records nothing
        counts = (self.steps, self.monitor_every)
        if not all(_is_count(v) and v >= 0 for v in counts):
            raise ValueError(f"steps and monitor_every must be counts, got {counts}")


@dataclass
class RunResult:
    field: BispinorField
    times: list
    records: list
    warnings: list = dc_field(default_factory=list)


def self_potential(
    phi, grid: GridSpec, m: float, G: float, poisson: str,
    base: Optional[GridPotential] = None,
) -> GridPotential:
    """Self-consistent potential of phi: U solves Delta U = 4 pi G m |phi|^2
    (per unit norm) with the "periodic" or "isolated" solver, and is the
    result's U_self, the part phi sources; a base potential is added on top
    when given."""
    rho = mass_density(phi, grid, m)
    if poisson == "periodic":
        U = poisson_periodic(rho, grid, G)
    elif poisson == "isolated":
        U = poisson_isolated(rho, grid, G)
    else:
        raise ValueError(f"unknown poisson mode {poisson!r}")
    if base is None:
        return GridPotential(grid, U=U, U_self=U)
    # the base's exact varpi derivatives carry over (see GridPotential); a
    # Jacobian the base has not computed is not computed here
    return GridPotential(grid, U=U + base.U, varpi=base.varpi,
                         dvarpi=vars(base).get("dvarpi"), U_self=U)


def sn_energy(rho, pot: GridPotential, grid: GridSpec, m: float, e_paper: float) -> float:
    """E_sn = E_paper - W_self/2 at density rho = |phi|^2, the conserved energy
    of the self-sourced flow: <H> counts the pair interaction W_self twice, an
    external U once. pot must carry U_self, as self_potential sets it."""
    return e_paper - 0.5 * (float(np.sum(pot.U_self * rho) * grid.dv) * m)


def _potential_for(phi, cfg, grid, m, p: Optional[GridPotential]):
    """The potential in force on phi under a RunConfig or RelaxConfig."""
    if cfg.source == "self":
        return self_potential(phi, grid, m, cfg.G, cfg.poisson, p)
    if cfg.source == "external" and p is None:
        raise ValueError("external source mode needs a potential")
    return p


def _live(data):
    """The slice of components of data that are not identically zero.

    Without Coriolis, H is (T + m U) x 1: a zero component stays exactly
    zero under kicks, drifts and normalization, and adds exact zeros to the
    density and the energy sums, so advancing the rest alone changes no
    bit. A field without a nonzero component keeps both. data[_live(data)]
    is a view; the same slice picks the Pauli block of those components.
    """
    nonzero = np.flatnonzero([np.any(c) for c in data])
    if nonzero.size == 0:
        return slice(0, len(data))
    return slice(int(nonzero[0]), int(nonzero[-1]) + 1)


def _drift(live, multiplier):
    """live <- ifftn(multiplier * fftn(live)) in place: no fresh buffers per
    step, and the operand order keeps the rounding of multiplier * F."""
    F = fftn(live, overwrite_x=True)
    np.multiply(multiplier, F, out=F)
    F = ifftn(F, overwrite_x=True)
    if not np.may_share_memory(F, live):  # in place, live[...] = F copies via a temporary
        live[...] = F


def _kick_phase(pot: Optional[GridPotential], m, hbar, dt, kick=None):
    """The half-kick phase exp(-i m U dt / 2 hbar) (None without a potential)
    as cos + i sin of the real angle (U * -m/hbar) * dt/2, written into the
    real and imaginary planes of one buffer: kick, the spent phase, if given."""
    if pot is None:
        return None
    theta = pot.U * (-m / hbar) * (dt / 2.0)
    kick = np.empty(theta.shape, dtype=complex) if kick is None else kick
    np.cos(theta, out=kick.real)
    np.sin(theta, out=kick.imag)
    return kick


def run(f: BispinorField, cfg: RunConfig, p: Optional[GridPotential] = None) -> RunResult:
    """Advance a field cfg.steps times by cfg.dt.

    split: Strang splitting kick/drift/kick, exactly norm preserving;
    requires vanishing Coriolis potential. Self-consistent U is refreshed
    after every drift (the drift does not change |phi|, so this costs one
    Poisson solve per step). The half-kick phase exp(-i m U dt / 2 hbar)
    (_kick_phase) is evaluated once per U and applied both where it closes
    step k and where it opens step k+1; a static U is evaluated once per run.
    Kicks, drifts and the Poisson source touch only the components that are
    not identically zero at entry (a view into f.data, so monitors and the
    result see the full pair), with results bit-identical to advancing both.
    Between steps it holds its copy of f, the drift multiplier, the kick
    phase and U alone: a caller that keeps no reference frees f at the copy.
    rk4: classical Runge-Kutta on the full H, any potentials; refuses steps
    beyond the stability bound with a suggested dt.
    """
    f = f.copy()
    grid, m, hbar = f.grid, f.m, f.hbar
    records, times, warns = [], [], []

    def note(step_field, pot):
        if cfg.monitor is not None:
            records.append(cfg.monitor(step_field, pot))
            times.append(step_field.time)

    if cfg.evolver == "split":
        if p is not None and p.coriolis:
            raise ValueError(
                "split-step requires vanishing Coriolis potential; use rk4"
            )
        drift = np.exp(-1j * hbar * grid.k2 * cfg.dt / (2.0 * m))

        live = f.data[_live(f.data)]
        pot = _potential_for(live, cfg, grid, m, p)
        kick = _kick_phase(pot, m, hbar, cfg.dt)
        if cfg.monitor_every:
            note(f, pot)
        for step in range(cfg.steps):
            if kick is not None:
                live *= kick
            _drift(live, drift)
            if cfg.source == "self":
                del pot  # the spent U goes before the next solve
                pot = _potential_for(live, cfg, grid, m, p)
                kick = _kick_phase(pot, m, hbar, cfg.dt, kick)
            if kick is not None:
                live *= kick
            f.time += cfg.dt
            if cfg.monitor_every and (step + 1) % cfg.monitor_every == 0:
                note(f, pot)
    else:
        pot0 = _potential_for(f.data, cfg, grid, m, p)
        wmax = max_frequency(pot0, grid, m, hbar)
        if cfg.dt * wmax > 2.5:
            raise StabilityError(
                f"rk4 step {cfg.dt:g} exceeds the stability bound for this "
                f"operator (max frequency ~{wmax:.3g}); "
                f"use dt <= {2.5 / wmax:.3g}"
            )

        def rhs(phi):
            pk = _potential_for(phi, cfg, grid, m, p)
            return (-1j / hbar) * apply_hamiltonian(phi, pk, grid, m, hbar)

        if cfg.monitor_every:
            note(f, pot0)
        for step in range(cfg.steps):
            y = f.data
            k1 = rhs(y)
            k2_ = rhs(y + 0.5 * cfg.dt * k1)
            k3 = rhs(y + 0.5 * cfg.dt * k2_)
            k4 = rhs(y + cfg.dt * k3)
            f.data = y + (cfg.dt / 6.0) * (k1 + 2 * k2_ + 2 * k3 + k4)
            f.time += cfg.dt
            if cfg.monitor_every and (step + 1) % cfg.monitor_every == 0:
                note(f, _potential_for(f.data, cfg, grid, m, p))

    if not np.all(np.isfinite(f.data)):
        raise StabilityError("evolution produced non-finite amplitudes")
    return RunResult(field=f, times=times, records=records, warnings=warns)


############################################################
# ground state by imaginary-time relaxation
############################################################

# Differences of the sweep map that each Anderson step mixes. From eight
# starts on the configs/ground_state_self.json settings, depths 4, 5, 6 and
# 7 took 66-135, 65-105, 54-109 and 49-62 sweeps to tol 1e-9; at depth 7
# the two ring buffers hold 3.7 MB for one real 32^3 plane.
_ANDERSON_DEPTH = 7


@dataclass
class RelaxConfig:
    """Imaginary-time relaxation settings: the sweep's step dtau, the bound
    tol on the fixed-point residual ||S(psi) - psi||, and max_iter, the most
    sweep-map evaluations to spend (see ground_state)."""

    dtau: float = 0.05
    tol: float = 1e-10
    max_iter: int = 20000
    source: str = "self"  # "self" | "external"
    G: float = 1.0
    poisson: str = "periodic"  # self-consistent solve: "periodic" | "isolated"

    def __post_init__(self):
        _check_modes(self, ("self", "external"))
        if not (0 < self.dtau < np.inf and 0 <= self.tol < np.inf and np.isfinite(self.G)
                and _is_count(self.max_iter) and self.max_iter >= 1):
            raise ValueError("ground_state needs finite dtau > 0, tol >= 0, G and max_iter >= 1")


@dataclass
class GroundStateResult:
    field: BispinorField
    energy: float  # <H> under the state's own U, the chemical potential in self-sourced mode
    iterations: int  # sweep-map evaluations
    converged: bool
    potential: GridPotential
    residual: float  # ||H phi - energy phi|| / ||phi|| at the returned state
    fixed_point_residual: float  # ||S(psi) - psi|| at the returned state
    recentred_by: np.ndarray  # the shift applied to the start, zero when not recentred
    energy_sn: Optional[float] = None  # sn_energy, where the potential has U_self


def _sweep(psi, decay, cfg: RelaxConfig, grid: GridSpec, m, hbar, p=None):
    """The sweep map S on real planes psi: a half kick exp(-m U dtau / 2 hbar)
    under the potential in force on psi, the kinetic decay multiplier on the
    rfftn half spectrum, the second half kick, and renormalization. Returns
    (S(psi), that potential) and leaves psi as it was."""
    pot = _potential_for(psi, cfg, grid, m, p)
    half_kick = pot.U * (-(m / hbar) * cfg.dtau / 2.0)
    np.exp(half_kick, out=half_kick)
    F = rfftn(psi * half_kick)
    F *= decay
    out = irfftn(F, s=grid.shape)
    out *= half_kick
    out /= _norm_divisor(out, grid)
    return out, pot


def _to_nearest_node(psi, grid: GridSpec):
    """The shift that moves the centroid of sum(psi^2) on the torus onto the
    nearest lattice node, at most dx/2 along each axis. The centroid is the
    phase of the density's first Fourier mode along each axis, which the
    spectral shift moves by exactly the shift.

    A component below 1e-12 dx is returned as an exact zero, so a start
    already on a node is left in place. The phase of a sum of positive terms
    is good to a few eps, and one eps of phase is eps n dx / (2 pi) in
    position: 2.2e-15 dx at n = 64, 450 times below the bound (the centred
    start of configs/ground_state_self.json read 4e-17 dx). A move below the
    bound would change psi by at most pi 1e-12 relative (|k| <= pi / dx)."""
    rho = np.sum(psi**2, axis=0)
    mode = np.exp(2j * np.pi / grid.length * grid.axis())
    c = np.array([np.angle(rho.sum(axis=axes) @ mode) for axes in ((1, 2), (0, 2), (0, 1))])
    c *= grid.length / (2.0 * np.pi)
    shift = grid.dx * np.round(c / grid.dx) - c
    shift[np.abs(shift) < 1e-12 * grid.dx] = 0.0
    return shift


def ground_state(f0: BispinorField, cfg: RelaxConfig,
                 p: Optional[GridPotential] = None) -> GroundStateResult:
    """Imaginary-time relaxation to the lowest state: the sweep map S
    (_sweep) iterated to its fixed point with type-II Anderson mixing
    (Anderson, J. ACM 12 (1965) 547; Walker & Ni, SIAM J. Numer. Anal. 49
    (2011) 1715). Kicks, decay and norm are real, so S acts on the nonzero
    real and imaginary parts of the components as real planes psi (a zero
    part stays zero). The next psi is S(psi) - dG gamma, renormalized, where
    gamma fits the residual S(psi) - psi by its last _ANDERSON_DEPTH
    differences dF in least squares, on a Gram matrix that gains one row per
    step; dG are the matching differences of S(psi).

    It stops at the first psi whose fixed-point residual ||S(psi) - psi||
    (L2 with dv) is below tol and returns that psi; iterations counts
    evaluations of S, and after max_iter of them the last psi evaluated is
    returned unconverged. The energy is <phi, H phi> of the returned state
    under its own U, and the residual ||H phi - E phi|| / ||phi|| comes from
    the same H phi; S's fixed point is O(dtau^2) off the eigenstate, so that
    residual does not fall with tol.

    With a self source and no external potential, a start between lattice
    nodes would slide toward one far more slowly than it relaxes, so it is
    first moved by the spectral shift (fields.shift_field, at most dx/2 per
    axis) that puts its density's centroid on the nearest node: recentred_by.
    """
    if p is not None and p.coriolis:
        raise ValueError("imaginary-time split-step requires vanishing varpi")
    f = f0.normalized()
    grid, m, hbar = f.grid, f.m, f.hbar
    # views into f.data, which the relaxed planes are written back through
    planes = [q for part in (f.data.real, f.data.imag) for q in part if np.any(q)]
    psi = np.stack(planes)
    shift = np.zeros(3)
    if cfg.source == "self" and p is None:
        shift = _to_nearest_node(psi, grid)
        if np.any(shift):
            psi = shift_field(psi, grid, shift)
            psi /= _norm_divisor(psi, grid)
    # k^2 is built here and dropped: a kept slice would pin it whole
    decay = np.exp(-hbar * grid.k2[..., :grid.n // 2 + 1] * cfg.dtau / (2.0 * m))
    # ring buffers of the last differences of S(psi) and of the residual r;
    # the Gram matrix of the residual differences and their products b with r
    dG = np.empty((_ANDERSON_DEPTH, psi.size))
    dF = np.empty_like(dG)
    gram = np.empty((_ANDERSON_DEPTH, _ANDERSON_DEPTH))
    b = np.zeros(_ANDERSON_DEPTH)
    # max_iter >= 1, so the loop binds it, pot and res
    for it in range(1, cfg.max_iter + 1):
        g, pot = _sweep(psi, decay, cfg, grid, m, hbar, p)
        g = g.ravel()
        r = g - psi.ravel()
        res = float(np.sqrt((r @ r) * grid.dv))
        if res < cfg.tol or it == cfg.max_iter:
            break
        nxt = g  # the first step is the plain sweep
        if it > 1:
            j, kept = (it - 2) % _ANDERSON_DEPTH, min(it - 1, _ANDERSON_DEPTH)
            np.subtract(g, g_prev, out=dG[j])
            np.subtract(r, r_prev, out=dF[j])
            gram[j, :kept] = gram[:kept, j] = dF[:kept] @ dF[j]
            # r = r_prev + dF[j]: an older difference's product with r gains
            # its Gram entry with dF[j]; the new one's is taken afresh
            b[:kept] += gram[:kept, j]
            b[j] = dF[j] @ r
            gamma = np.linalg.lstsq(gram[:kept, :kept], b[:kept], rcond=None)[0]
            nxt = gamma @ dG[:kept]
            np.subtract(g, nxt, out=nxt)
            nxt /= np.sqrt((nxt @ nxt) * grid.dv)
        g_prev, r_prev = g, r
        psi = nxt.reshape(psi.shape)
    converged = res < cfg.tol
    for q, x in zip(planes, psi):
        q[...] = x
    # <H> and the residual from one H phi on the nonzero components: the
    # whole pair doubles peak memory
    live = f.data[_live(f.data)]
    h = apply_hamiltonian(live, pot, grid, m, hbar)
    E = float(np.vdot(live, h).real) * grid.dv
    return GroundStateResult(
        field=f, energy=E, iterations=it, converged=converged, potential=pot,
        residual=float(np.sqrt(norm2(h - E * live, grid) / norm2(live, grid))),
        fixed_point_residual=res, recentred_by=shift,
        energy_sn=None if pot.U_self is None else sn_energy(density(psi), pot, grid, m, E),
    )


############################################################
# currents and gauge maps
############################################################


@dataclass
class CurrentCheck:
    rho: np.ndarray
    J_pair: np.ndarray  # from the bilinear in (phi, chi)
    J_phi: np.ndarray  # phi-only form with magnetization curl
    dt_rho: np.ndarray
    residual: np.ndarray  # dt_rho + div J_pair
    residual_max: float
    form_mismatch: float  # max |J_pair - J_phi|


def current_and_continuity(
    phi, p: Optional[GridPotential], grid: GridSpec, m: float, hbar: float
) -> CurrentCheck:
    """Probability density/current and the continuity residual.

    J is computed twice: as i(phi+ sigma chi - chi+ sigma phi) with the
    algebraic chi, and in the phi-only form
    (hbar/m) Im(phi+ grad phi) + (hbar/2m) curl(phi+ sigma phi) - varpi rho.
    dt_rho is evaluated through the equation of motion, so the continuity
    residual measures operator consistency, not integrator error.
    """
    phi = np.asarray(phi, dtype=complex)
    rho = density(phi)
    chi = chi_from_phi(phi, p, grid, m, hbar)
    z = np.einsum("a...,jab,b...->j...", np.conj(phi), PAULI, chi)
    J_pair = -2.0 * np.imag(z)
    J_phi = (hbar / m) * canonical_current(phi, gradient(phi, grid))
    J_phi = J_phi + (hbar / (2.0 * m)) * curl(spin_density(phi), grid)
    if p is not None and p.coriolis:
        J_phi = J_phi - p.varpi * rho
    h = apply_hamiltonian(phi, p, grid, m, hbar)
    dt_rho = (2.0 / hbar) * np.imag(np.einsum("a...,a...->...", np.conj(phi), h))
    residual = dt_rho + divergence(J_pair, grid)
    return CurrentCheck(
        rho=rho,
        J_pair=J_pair,
        J_phi=J_phi,
        dt_rho=dt_rho,
        residual=residual,
        residual_max=float(np.max(np.abs(residual))),
        form_mismatch=float(np.max(np.abs(J_pair - J_phi))),
    )


def gauge_transform(f: BispinorField, p: Optional[GridPotential], theta, dt_theta=None):
    """Vertical gauge map: phi' = exp(i m theta/hbar) phi, varpi' = varpi + grad theta,
    U' = U - dt_theta. All densities and currents are invariant."""
    grid = f.grid
    theta = np.asarray(theta, dtype=float)
    U, varpi = (np.zeros(grid.shape), 0.0) if p is None else (p.U, p.varpi)
    f2 = replace(f, data=np.exp(1j * f.m / f.hbar * theta) * f.data)
    U2 = U - (0.0 if dt_theta is None else np.asarray(dt_theta))
    p2 = GridPotential(grid, U=U2, varpi=varpi + gradient(theta, grid))
    return f2, p2
