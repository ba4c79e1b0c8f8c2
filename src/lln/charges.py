"""Conserved charges of the twelve symmetries and covariance checks.

Charge records always carry two energies: E_paper = <phi, H phi> with the
potential in force (conserved for static external potentials and free
motion), and E_sn = E_paper - W_self/2, the conserved functional of the
self-sourced nonlinear flow, which counts the self-sourced part W_self of
W_pot at half weight and an external U in full. E_sn is defined where the
potential carries a self-sourced part (GridPotential.U_self, which
evolve.self_potential sets) and NaN otherwise, where it is not a charge.
The expansion charge D is not conserved: for free packets it obeys the
virial drift dD/dt = -11 <T>, and on a static external U
dD/dt = -5 E_paper - 6 <T> + 3 m int rho x.grad U; both laws are asserted
by tests/test_acceptance.py::test_dilation_charge_diagnostic_archive.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields, replace
from typing import Optional

import numpy as np

from . import evolve
from .evolve import RunConfig, energy_expectation, run, sn_energy
from .fields import (
    PAULI,
    BispinorField,
    _marginals,
    axial_vector,
    canonical_current,
    density,
    first_moments,
    integrate,
    norm2,
    spin_density,
)
from .geometry import GridPotential, _covariant_partial
from .sngroup import SnGroupElement, represent, transform_potentials

__all__ = [
    "ChargeRecord",
    "CSV_COLUMNS",
    "compute_charges",
    "drift_stats",
    "write_csv",
    "read_csv",
    "covariance_test",
]


@dataclass
class ChargeRecord:
    """One row of the charge CSV, fields in column order. A "vector" field is
    written as the columns name + x, y, z; drift_stats skips "drift": False."""

    t: float = dc_field(metadata={"drift": False})
    E_paper: float
    E_sn: float
    P: np.ndarray = dc_field(metadata={"vector": "P"})
    J: np.ndarray = dc_field(metadata={"vector": "J"})
    M: float
    Gb: np.ndarray = dc_field(metadata={"vector": "G"})  # boost (center of mass) charge
    D: float = dc_field(metadata={"drift": False})  # expansion charge, not conserved
    T_kin: float
    W_pot: float = dc_field(metadata={"drift": False})

    def row(self):
        return [float(v) for fld in fields(self) for v in np.atleast_1d(getattr(self, fld.name))]


def _columns(fld):
    name = fld.metadata.get("vector")
    return (fld.name,) if name is None else tuple(name + a for a in "xyz")


CSV_COLUMNS = tuple(c for fld in fields(ChargeRecord) for c in _columns(fld))


def compute_charges(f: BispinorField, p: Optional[GridPotential] = None) -> ChargeRecord:
    """All twelve first integrals of one field snapshot; also the charge
    monitor of evolve.run, which collects the records it returns.

    p must be the potential actually in force at this instant (for the
    self-sourced flow, the solved U; the run monitor hands it over). E_sn
    is taken iff p carries U_self.

    Each covariant partial D_j phi (geometry._covariant_partial) serves both
    its momentum-density row and its share of T = (hbar^2/2m) sum_j |D_j phi|^2 dV,
    the kinetic term of <phi, H phi>: gauge invariant. P and J, and G and D
    built on them, stay canonical (rows hbar Im(phi+ d_j phi) + (hbar m / 2)
    (varpi x s)_j), so under Coriolis they move under evolve.gauge_transform.
    Each partial is folded into T, its row, P and the row's 1-D marginals (for
    int x_a p_c), then dropped, and one density serves M, W_pot, E_sn and G:
    about one live-component buffer per call. E_paper is energy_expectation.

    Every column is taken on the components run advances (evolve._live), as
    a zero one adds only exact zeros; a Coriolis-coupled pair stays whole.
    """
    grid, m, hbar = f.grid, f.m, f.hbar
    live = slice(0, 2) if p is not None and p.coriolis else evolve._live(f.data)
    phi = f.data[live]
    E_paper = energy_expectation(phi, p, grid, m, hbar)

    rho = density(phi)
    Mq = m * float(integrate(rho, grid))
    W_pot = 0.0 if p is None else m * float(integrate(p.U * rho, grid))
    E_sn = float("nan") if p is None or p.U_self is None else sn_energy(rho, p, grid, m, E_paper)
    centroid = first_moments(rho, grid)

    # D_j leaves hbar Im(phi+ d_j phi) - m varpi_j rho in row j: Coriolis adds
    # m varpi_j rho back, and (hbar m / 2)(varpi x s)_j, s the spin density
    coupling = None if p is None or not p.coriolis else (
        m * p.varpi * rho + 0.5 * hbar * m * np.cross(p.varpi, spin_density(phi), axis=0))
    del rho
    sq_norms, P, marg = [], np.empty(3), np.empty((3, 3, grid.n))
    for j in range(3):
        dphi = _covariant_partial(phi, p, grid, m, hbar, j)
        sq_norms.append(norm2(dphi, grid))
        row = canonical_current(phi, (dphi,))[0]
        row *= hbar
        if coupling is not None:
            row += coupling[j]
        P[j] = integrate(row, grid)
        marg[:, j] = _marginals(row)
        del dphi, row  # before the next partial is computed
    T_kin = hbar**2 / (2 * m) * sum(sq_norms)
    xp = first_moments(None, grid, marg)  # [a, c] = int x_a p_c
    # int phi+ sigma_j phi from the Gram block of the live components (one buffer)
    prod = np.empty_like(phi[0])
    gram = np.array([[np.sum(np.multiply(np.conjugate(a, out=prod), b, out=prod)) for b in phi]
                     for a in phi])
    spin = np.einsum("jab,ab->j", PAULI[:, live, live], gram).real * grid.dv
    J = axial_vector(xp) + 0.5 * hbar * spin

    Gb = f.time * P - m * centroid
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


def drift_stats(records) -> dict:
    """Relative drift of every conserved charge across a record sequence.

    max_t |Q(t) - Q(0)| / max(1, |Q(0)|), with vector charges measured in
    the sup norm. A charge that is NaN at the start is skipped: E_sn outside
    self-consistent runs.
    """
    if not records:
        return {}
    out = {}
    for fld in fields(ChargeRecord):
        if not fld.metadata.get("drift", True):
            continue
        vals = np.array([np.atleast_1d(getattr(r, fld.name)) for r in records], dtype=float)
        v0 = vals[0]
        if np.any(np.isnan(v0)):
            continue
        dev = float(np.max(np.abs(vals - v0)))
        out[fld.metadata.get("vector", fld.name)] = dev / max(1.0, float(np.max(np.abs(v0))))
    return out


def write_csv(records, path):
    """Deterministic CSV: fixed column order, shortest round-trip floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in records:
            fh.write(",".join(format(v, ".17g") for v in r.row()) + "\n")


def read_csv(path):
    """Inverse of write_csv; returns a list of ChargeRecords."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected charge CSV columns")
        out = []
        for lineno, line in enumerate(fh, start=2):
            vals = [float(tok) for tok in line.strip().split(",")]
            if len(vals) != len(CSV_COLUMNS):
                raise ValueError(
                    f"{path}:{lineno}: {len(vals)} values for {len(CSV_COLUMNS)} columns"
                )
            rec, i = {}, 0
            for fld in fields(ChargeRecord):
                k = len(_columns(fld))
                rec[fld.name] = np.array(vals[i : i + k]) if k > 1 else vals[i]
                i += k
            out.append(ChargeRecord(**rec))
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
    res_a = run(f0, cfg, p)
    legA = represent(u, res_a.field)

    f0_hat = represent(u, f0)
    p_hat = None
    if p is not None:
        p_hat = transform_potentials(u, p, t_hat=f0_hat.time)
    cfg_hat = replace(cfg, dt=cfg.dt / nu**5, monitor_every=0, monitor=None)
    res_b = run(f0_hat, cfg_hat, p_hat)
    legB = res_b.field

    diff = np.sqrt(norm2(legA.data - legB.data, f0.grid))
    return {
        "rel_l2": float(diff / np.sqrt(norm2(legA.data, f0.grid))),
        "legA": legA,
        "legB": legB,
        "final_time_A": legA.time,
        "final_time_B": legB.time,
    }
