"""Newtonian sources: Poisson solvers and Coriolis vector-potential presets."""

from __future__ import annotations

from functools import cache

import numpy as np

from .fields import GridSpec, density, fftn, ifftn, irfftn, rfftn
from .geometry import GridPotential

__all__ = [
    "poisson_periodic",
    "poisson_isolated",
    "inverse_laplacian",
    "constraint_potential",
    "mass_density",
    "uniform_rotation_potential",
    "taub_nut_varpi",
    "taub_nut_grid",
    "self_cell_coefficient",
]


def mass_density(phi, grid: GridSpec, m: float):
    """Gravitating density m |phi|^2 per unit total norm.

    The self-consistent coupling is written for a unit-norm spinor; dividing
    by the actual norm keeps the source physical for any amplitude and is
    what the anisotropic dilation covariance requires. Scaled in place.
    """
    dens = density(phi)
    total = dens.sum() * grid.dv
    if total <= 0:
        raise ValueError("cannot normalize a zero field")
    dens /= total  # the values of m * (dens / total)
    return np.multiply(dens, m, out=dens)


def inverse_laplacian(f, grid: GridSpec):
    """Mean-free spectral inverse of a real field: Delta(out) = f - mean(f).

    Runs rfftn/irfftn with the cached half-spectrum multiplier of the grid.
    """
    F = rfftn(f)
    F *= grid.inv_laplacian_rfft
    return irfftn(F, s=grid.shape)


def poisson_periodic(rho, grid: GridSpec, G: float = 1.0):
    """Solve Delta U = 4 pi G rho on the torus.

    Only the mean-free part of rho is invertible; the returned U has zero
    mean and satisfies Delta U = 4 pi G (rho - rho_mean) exactly in the
    spectral sense.
    """
    U = inverse_laplacian(rho, grid)
    return np.multiply(U, 4.0 * np.pi * G, out=U)


def constraint_potential(grid: GridSpec, rho, varpi_curl2=0.0, G: float = 1.0):
    """U balancing the full tt curvature constraint on the torus.

    Delta U = 4 pi G rho - |Omega|^2 / 2, mean-free part, for a static varpi
    (d_t(delta varpi) = 0). Pass |curl varpi|^2 for varpi_curl2 when a
    Coriolis field is present.
    """
    src = 4.0 * np.pi * G * np.asarray(rho) - 0.5 * np.asarray(varpi_curl2)
    return inverse_laplacian(np.broadcast_to(src, grid.shape), grid)


############################################################
# isolated (free-space) Poisson via doubled-grid convolution
############################################################

def self_cell_coefficient() -> float:
    """Mean of 1/|x| over the unit cube [-1/2, 1/2]^3 (dimensionless), in
    closed form; the singular cell of the free-space kernel takes this mean."""
    return float(3.0 * np.log(2.0 + np.sqrt(3.0)) - 0.5 * np.pi)


@cache
def _isolated_kernel(grid: GridSpec):
    """(Khat, work) of the grid: the doubled-grid kernel half-spectrum and
    the complex (2n, 2n, n+1) workspace the solve transforms in."""
    M = 2 * grid.n
    idx = np.arange(M)
    q = ((idx + grid.n) % M - grid.n) * grid.dx  # signed displacement
    R = np.sqrt(q.reshape(-1, 1, 1) ** 2 + q.reshape(1, -1, 1) ** 2 + q.reshape(1, 1, -1) ** 2)
    R.flat[0] = 1.0
    K = 1.0 / R
    K.flat[0] = self_cell_coefficient() / grid.dx
    Khat = rfftn(K)
    return Khat, np.empty_like(Khat)


def poisson_isolated(rho, grid: GridSpec, G: float = 1.0):
    """Free-space potential of a compact source: U = -G int rho/|x-x'|.

    Zero-padded convolution on the doubled grid, so periodic images never
    contribute; the source must be well localized inside the box (check the
    edge fraction of the state first).

    Only the octant that holds rho is nonzero and only that octant is read
    back, so the transforms skip the zeros: the forward pass runs the real
    transform along axis 2 on the n^2 source rows, then axis 1 on the first
    n slabs, then axis 0; the inverse pass runs the same steps in reverse,
    keeping only the rows that are read back. The complex steps run in place
    in one workspace cached per grid next to the kernel, so a call allocates
    nothing of doubled-grid size, and calls on the same grid from several
    threads at once are not safe. The returned U is a fresh array.
    """
    rho = np.asarray(rho, dtype=float)
    n = grid.n
    M = 2 * n
    Khat, work = _isolated_kernel(grid)
    # overwrite_x on complex input makes scipy write the transform into its
    # argument; src is the first n slabs of work, the ones the source fills
    src = work[:n]
    src[:, :n] = rfftn(rho, s=(M,), axes=(2,))
    src[:, n:] = 0.0
    fftn(src, axes=(1,), overwrite_x=True)
    work[n:] = 0.0
    fftn(work, axes=(0,), overwrite_x=True)
    np.multiply(work, Khat, out=work)
    ifftn(work, axes=(0,), overwrite_x=True)
    ifftn(src, axes=(1,), overwrite_x=True)
    conv = irfftn(src[:, :n], s=(M,), axes=(2,))
    return -G * grid.dv * conv[:, :, :n]


############################################################
# Coriolis presets
############################################################


def taub_nut_varpi(x, a: float = 1.0, sign: int = +1):
    """Self-dual mass-less Taub-NUT vector potential (wire along -+ z axis).

    varpi = 2a (x2 dx1 - x1 dx2) / (r (x3 + sign r)); its exterior derivative
    is the monopole field 2a grad(1/r): |Omega|^2 = 4 a^2 / r^4, divergence
    and curl(curl .) both vanish away from the axis.
    """
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(x**2, axis=-1))
    den = r * (x[..., 2] + sign * r)
    out = np.zeros_like(x)
    out[..., 0] = 2.0 * a * x[..., 1] / den
    out[..., 1] = -2.0 * a * x[..., 0] / den
    return out


def taub_nut_grid(grid: GridSpec, a: float = 1.0, sign: int = +1, r_cut=None):
    """The Taub-NUT frame on a grid; returns (GridPotential, valid_mask).

    sign = +1 puts the string on the negative z axis; r_cut (default 2 cells)
    masks the axis tube and the origin, where varpi and its Jacobian are set
    to zero. This varpi jumps at the mask and the seam, so its closed-form
    Jacobian is passed through, as `uniform_rotation_potential` does.
    """
    r_cut = 2.0 * grid.dx if r_cut is None else r_cut
    if sign not in (1, -1):
        raise ValueError(f"taub-NUT sign must be +1 or -1, got {sign!r}")
    if not r_cut > 0:
        raise ValueError(f"taub-NUT r_cut must be > 0, got {r_cut!r}")
    x = grid.mesh()
    on_string = (sign * x[2] < 0) & (np.sqrt(x[0] ** 2 + x[1] ** 2) < r_cut)
    mask = (np.sqrt(np.sum(x**2, axis=0)) > r_cut) & ~on_string
    x = np.where(mask, x, 1.0)  # masked points stand in at (1, 1, 1)
    varpi = np.moveaxis(taub_nut_varpi(np.moveaxis(x, 0, -1), a=a, sign=sign), -1, 0)
    # varpi = 2a v / D: d_i varpi_j = (2a d_i v_j - varpi_j d_i D) / D, v = x cross e3
    r = np.sqrt(np.sum(x**2, axis=0))
    dden = x * (x[2] / r + 2.0 * sign)
    dden[2] += r
    dv = np.cross(np.eye(3), [0.0, 0.0, 1.0])[:, :, None, None, None]
    dvarpi = (2.0 * a * dv - dden[:, None] * varpi) / (r * (x[2] + sign * r))
    return GridPotential(grid, varpi=np.where(mask, varpi, 0.0),
                         dvarpi=np.where(mask, dvarpi, 0.0)), mask


def uniform_rotation_potential(grid: GridSpec, Omega0) -> GridPotential:
    """Rigid-rotation frame: constant vorticity Omega0 (a 3-vector; a scalar
    is taken along the z axis), varpi = (1/2) Omega0 x x.

    The linear-in-x varpi is not periodic, so its spectral gradient would
    ring at the seam; the constant d_i varpi_j = (1/2) eps_ijk Omega_k is
    passed through instead.
    """
    om = np.asarray(Omega0, dtype=float)
    if om.ndim == 0:
        om = np.array([0.0, 0.0, float(om)])
    varpi = 0.5 * np.cross(om, np.moveaxis(grid.mesh(), 0, -1)).transpose(3, 0, 1, 2)
    dw = 0.5 * np.cross(om, np.eye(3))  # d_i varpi_j = (Omega x e_i)_j / 2
    dvarpi = np.broadcast_to(dw[:, :, None, None, None], (3, 3) + grid.shape)
    return GridPotential(grid, U=None, varpi=varpi, dvarpi=dvarpi)
