"""Conserved charges of the twelve symmetries and covariance checks.

Charge records always carry two energies: E_paper = <phi, H phi> with the
potential in force (conserved for static external potentials and free
motion), and E_sn = T + W/2, the conserved functional of the self-sourced
nonlinear flow (NaN in other modes, where it is not a charge). The expansion
charge D is reported but never asserted: for free packets it obeys the
virial drift dD/dt = -11 <T>, which makes a useful diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .evolve import RunConfig, apply_hamiltonian, run
from .fields import PAULI, BispinorField, GridSpec, gradient, integrate
from .geometry import GridPotential
from .sngroup import SnGroupElement, represent, transform_potentials

__all__ = [
    "ChargeRecord",
    "CSV_COLUMNS",
    "momentum_density",
    "compute_charges",
    "charge_monitor",
    "drift_stats",
    "write_csv",
    "read_csv",
    "covariance_test",
]

CSV_COLUMNS = (
    "t",
    "E_paper",
    "E_sn",
    "Px",
    "Py",
    "Pz",
    "Jx",
    "Jy",
    "Jz",
    "M",
    "Gx",
    "Gy",
    "Gz",
    "D",
    "T_kin",
    "W_pot",
)


@dataclass
class ChargeRecord:
    t: float
    E_paper: float
    E_sn: float
    P: np.ndarray
    J: np.ndarray
    M: float
    Gb: np.ndarray  # boost (center of mass) charge
    D: float
    T_kin: float
    W_pot: float

    def row(self):
        return (
            [self.t, self.E_paper, self.E_sn]
            + list(self.P)
            + list(self.J)
            + [self.M]
            + list(self.Gb)
            + [self.D, self.T_kin, self.W_pot]
        )


def momentum_density(phi, p: Optional[GridPotential], grid: GridSpec, m: float, hbar: float):
    """Canonical momentum density hbar Im(phi+ grad phi) (+ Coriolis spin term)."""
    phi = np.asarray(phi, dtype=complex)
    return _momentum_density(phi, gradient(phi, grid), p, m, hbar)


def _momentum_density(phi, gphi, p: Optional[GridPotential], m: float, hbar: float):
    cphi = np.conj(phi)
    dens = np.empty((3,) + phi.shape[1:])
    for j in range(3):
        np.sum((cphi * gphi[j]).imag, axis=0, out=dens[j])
    dens *= hbar
    if p is not None and np.any(p.varpi):
        sdens = np.einsum("a...,jab,b...->j...", cphi, PAULI, phi).real
        dens = dens + 0.5 * hbar * m * np.cross(
            np.moveaxis(p.varpi, 0, -1), np.moveaxis(sdens, 0, -1)
        ).transpose(3, 0, 1, 2)
    return dens


def _first_moments(f, grid: GridSpec):
    """int x_a f dV for a = 1, 2, 3 from the 1-D marginals of f.

    Leading component axes of f are carried along: shape (3,) + f.shape[:-3].
    """
    x = grid.axis()
    s12 = np.sum(f, axis=-1)
    marginals = (np.sum(s12, axis=-1), np.sum(s12, axis=-2), np.sum(f, axis=(-3, -2)))
    return np.stack([mg @ x for mg in marginals]) * grid.dv


def compute_charges(
    f: BispinorField,
    p: Optional[GridPotential] = None,
    mode: str = "free",
) -> ChargeRecord:
    """All twelve first integrals of one field snapshot.

    p must be the potential actually in force at this instant (for the
    self-sourced flow, the solved U; the run monitor hands it over).

    One spectral gradient serves both the momentum density and the kinetic
    energy T = (hbar^2/2m) sum_j |d_j phi|^2 dV, which equals -<phi, Delta phi>
    because spectral derivatives are anti-Hermitian. Position moments come
    from 1-D marginals; E_paper = <phi, H phi> goes through apply_hamiltonian.
    """
    grid, m, hbar = f.grid, f.m, f.hbar
    phi = f.data
    rho = np.sum(np.abs(phi) ** 2, axis=0)

    gphi = gradient(phi, grid)
    T_kin = hbar**2 / (2 * m) * float(np.vdot(gphi, gphi).real) * grid.dv
    pdens = _momentum_density(phi, gphi, p, m, hbar)
    del gphi  # free 3 x 2 n^3 complex before apply_hamiltonian allocates
    P = integrate(pdens, grid)
    xp = _first_moments(pdens, grid)  # [a, c] = int x_a p_c
    # int phi+ sigma_j phi from the 2x2 Gram matrix of the components
    gram = np.array([[np.vdot(phi[a], phi[b]) for b in range(2)] for a in range(2)])
    spin = np.einsum("jab,ab->j", PAULI, gram).real * grid.dv
    J = np.array(
        [xp[1, 2] - xp[2, 1], xp[2, 0] - xp[0, 2], xp[0, 1] - xp[1, 0]]
    ) + 0.5 * hbar * spin
    Mq = m * float(integrate(rho, grid))

    U = p.U if p is not None else np.zeros(grid.shape)
    W_pot = m * float(integrate(U * rho, grid))
    E_paper = float(np.vdot(phi, apply_hamiltonian(phi, p, grid, m, hbar)).real) * grid.dv
    E_sn = T_kin + 0.5 * W_pot if mode == "self" else float("nan")

    Gb = f.time * P - m * _first_moments(rho, grid)
    D = -5.0 * f.time * E_paper - 3.0 * float(np.trace(xp))
    return ChargeRecord(
        t=f.time,
        E_paper=E_paper,
        E_sn=E_sn,
        P=P,
        J=J,
        M=Mq,
        Gb=Gb,
        D=D,
        T_kin=T_kin,
        W_pot=W_pot,
    )


def charge_monitor(mode: str = "free"):
    """Monitor callback for evolve.run that appends ChargeRecords."""

    def cb(f: BispinorField, p: Optional[GridPotential]):
        return compute_charges(f, p, mode=mode)

    return cb


def drift_stats(records) -> dict:
    """Relative drift of every charge across a record sequence.

    max_t |Q(t) - Q(0)| / max(1, |Q(0)|), with vector charges measured in
    the sup norm. E_sn is skipped when it is NaN (non-self-consistent runs).
    """
    if not records:
        return {}
    r0 = records[0]
    out = {}

    def rel(name, vals0, vals):
        v0 = np.atleast_1d(np.asarray(vals0, dtype=float))
        dev = max(
            float(np.max(np.abs(np.atleast_1d(np.asarray(v, dtype=float)) - v0)))
            for v in vals
        )
        out[name] = dev / max(1.0, float(np.max(np.abs(v0))))

    rel("E_paper", r0.E_paper, [r.E_paper for r in records])
    if not np.isnan(r0.E_sn):
        rel("E_sn", r0.E_sn, [r.E_sn for r in records])
    rel("P", r0.P, [r.P for r in records])
    rel("J", r0.J, [r.J for r in records])
    rel("M", r0.M, [r.M for r in records])
    rel("G", r0.Gb, [r.Gb for r in records])
    rel("T_kin", r0.T_kin, [r.T_kin for r in records])
    return out


def write_csv(records, path):
    """Deterministic CSV: fixed column order, shortest round-trip floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in records:
            fh.write(",".join(format(float(v), ".17g") for v in r.row()) + "\n")


def read_csv(path):
    """Inverse of write_csv; returns a list of ChargeRecords."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected charge CSV columns")
        out = []
        for line in fh:
            vals = [float(tok) for tok in line.strip().split(",")]
            rec = dict(zip(CSV_COLUMNS, vals))
            out.append(
                ChargeRecord(
                    t=rec["t"],
                    E_paper=rec["E_paper"],
                    E_sn=rec["E_sn"],
                    P=np.array([rec["Px"], rec["Py"], rec["Pz"]]),
                    J=np.array([rec["Jx"], rec["Jy"], rec["Jz"]]),
                    M=rec["M"],
                    Gb=np.array([rec["Gx"], rec["Gy"], rec["Gz"]]),
                    D=rec["D"],
                    T_kin=rec["T_kin"],
                    W_pot=rec["W_pot"],
                )
            )
    return out


def covariance_test(
    f0: BispinorField,
    u: SnGroupElement,
    cfg: RunConfig,
    p: Optional[GridPotential] = None,
) -> dict:
    """Evolve-then-map against map-then-evolve.

    Leg A: run f0 for cfg.steps * cfg.dt, then apply u.
    Leg B: apply u to f0, transform any external potential, then run the
    same number of steps with dt/nu^5 at mass nu m (the anisotropic scaling
    keeps the final times aligned exactly).

    Returns the relative L2 discrepancy and both final fields.
    """
    nu = u.nu
    res_a = run(f0.copy(), cfg, p)
    legA = represent(u, res_a.field)

    f0_hat = represent(u, f0)
    p_hat = None
    if p is not None:
        p_hat = transform_potentials(u, p, t_hat=f0_hat.time)
    cfg_hat = replace(cfg, dt=cfg.dt / nu**5, monitor_every=0, monitor=None)
    res_b = run(f0_hat, cfg_hat, p_hat)
    legB = res_b.field

    diff = float(np.sqrt(np.sum(np.abs(legA.data - legB.data) ** 2) * f0.grid.dv))
    ref = float(np.sqrt(np.sum(np.abs(legA.data) ** 2) * f0.grid.dv))
    return {
        "rel_l2": diff / ref,
        "legA": legA,
        "legB": legB,
        "final_time_A": legA.time,
        "final_time_B": legB.time,
    }
