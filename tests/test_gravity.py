import os

import numpy as np
import pytest
import scipy.fft

from lln import fields, gravity
from lln.fields import GridSpec, band_limited_noise, gaussian_packet
from lln.geometry import GridPotential
from lln.gravity import (
    constraint_potential,
    inverse_laplacian,
    mass_density,
    poisson_isolated,
    poisson_periodic,
    self_cell_coefficient,
    taub_nut_grid,
    taub_nut_varpi,
    uniform_rotation_potential,
)

G32 = GridSpec(n=32, length=16.0)

SELF_CELL = 2.380077363979553  # 3 ln(2 + sqrt 3) - pi/2, mean of 1/|x| over the unit cube


def test_poisson_periodic_residual():
    rho = band_limited_noise(G32, modes=4, seed=21)
    U = poisson_periodic(rho, G32, G=1.4)
    lhs = fields.laplacian(U, G32)
    rhs = 4 * np.pi * 1.4 * (rho - rho.mean())
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    assert abs(U.mean()) < 1e-14


def test_inverse_laplacian_mean_free():
    f = band_limited_noise(G32, modes=3, seed=22)
    u = inverse_laplacian(f, G32)
    assert np.max(np.abs(fields.laplacian(u, G32) - (f - f.mean()))) < 1e-11


def test_isolated_point_mass_far_field():
    # a one-cell source reproduces -G/r exactly at lattice displacements
    rho = np.zeros(G32.shape)
    i0 = G32.n // 2
    rho[i0, i0, i0] = 1.0 / G32.dv  # unit mass
    U = poisson_isolated(rho, G32, G=1.0)
    for d in ([3, 0, 0], [0, 4, 0], [2, 2, 1], [0, 0, 6], [5, 3, 1]):
        r = np.linalg.norm(np.array(d) * G32.dx)
        val = U[i0 + d[0], i0 + d[1], i0 + d[2]]
        assert abs(val + 1.0 / r) < 1e-12
    # the singular cell takes the cell-averaged value
    assert abs(U[i0, i0, i0] + self_cell_coefficient() / G32.dx) < 1e-12


def test_isolated_gaussian_profile():
    # U = -G M erf(r / (sqrt(2) s)) / r for a gaussian source of density std s
    s, M, G = 1.0, 2.3, 1.7
    X = G32.mesh()
    r2 = np.sum(X**2, axis=0)
    rho = M * (2 * np.pi * s**2) ** -1.5 * np.exp(-r2 / (2 * s**2))
    U = poisson_isolated(rho, G32, G=G)
    from scipy.special import erf

    r = np.sqrt(r2)
    rs = np.where(r > 0, r, 1.0)
    ref = -G * M * erf(rs / (np.sqrt(2) * s)) / rs
    i0 = G32.n // 2
    ref[i0, i0, i0] = -G * M * np.sqrt(2.0 / np.pi) / s  # r -> 0 limit
    err = np.abs(U - ref)
    # second-order quadrature error against the source curvature, largest at
    # the center (measured 6.7e-3 of GM/s) and negligible past a few widths
    assert np.max(err) < 1.2e-2 * G * M / s
    assert np.max(err[r > 5 * s]) < 1e-6
    # total interaction energy against the closed form -G M^2 / (s sqrt(pi))
    W = np.sum(rho * U) * G32.dv
    W_ref = -G * M**2 / (s * np.sqrt(np.pi))
    assert abs(W / W_ref - 1.0) < 0.01


def test_self_cell_coefficient():
    from scipy.integrate import dblquad

    c = self_cell_coefficient()
    assert abs(c - SELF_CELL) < 1e-15
    # independent face-integral oracle: 1/|x| is homogeneous of degree -1, so
    # by the divergence theorem the cube mean is 3 int_[0,1]^2 (1+u^2+v^2)^-1/2
    face = dblquad(lambda v, u: (1.0 + u * u + v * v) ** -0.5, 0.0, 1.0, 0.0, 1.0,
                   epsabs=1e-14, epsrel=1e-14)[0]
    assert abs(3.0 * face - c) < 1e-14
    # independent midpoint-rule oracle, second order in the cell count
    for m, tol in ((64, 2e-4), (128, 5e-5)):
        ax = (np.arange(m) + 0.5) / m - 0.5
        XX, YY, ZZ = np.meshgrid(ax, ax, ax, indexing="ij")
        mid = np.mean(1.0 / np.sqrt(XX**2 + YY**2 + ZZ**2))
        assert abs(mid - c) < tol


def test_isolated_kernel_is_cached():
    from lln.gravity import _isolated_kernel

    assert _isolated_kernel(G32) is _isolated_kernel(G32)
    Khat, work = _isolated_kernel(G32)
    assert work.shape == Khat.shape == (64, 64, 33)
    work.fill(np.nan)
    poisson_isolated(np.ones(G32.shape), G32)
    # the solve transforms in the cached workspace, not a fresh one
    assert np.all(np.isfinite(work))
    assert _isolated_kernel(G32)[0] is Khat
    assert _isolated_kernel(G32)[1] is work


def _poisson_isolated_dense(rho, grid, G=1.0):
    """Oracle: the full zero-padded doubled-grid convolution, transforming
    all (2n)^3 points."""
    M = 2 * grid.n
    pad = np.zeros((M, M, M))
    pad[: grid.n, : grid.n, : grid.n] = rho
    Khat = gravity._isolated_kernel(grid)[0]
    conv = scipy.fft.irfftn(scipy.fft.rfftn(pad) * Khat, s=(M, M, M))
    return -G * grid.dv * conv[: grid.n, : grid.n, : grid.n]


def _isolated_sources(grid, seed):
    r2 = np.sum(grid.mesh() ** 2, axis=0)
    gauss = np.exp(-r2 / 2.0)
    noise = np.random.default_rng(seed).standard_normal(grid.shape)
    return gauss, noise


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize(
    "n, length", [(16, 8.0), (16, 12.0), (32, 16.0), (32, 11.0)]
)
def test_isolated_pruned_matches_dense_oracle(n, length):
    grid = GridSpec(n=n, length=length)
    for rho in _isolated_sources(grid, seed=n):
        U = poisson_isolated(rho, grid, G=1.3)
        assert U.shape == grid.shape and U.dtype == np.float64
        assert _rel_err(U, _poisson_isolated_dense(rho, grid, G=1.3)) <= 1e-13


def test_isolated_result_never_aliases_the_workspace():
    G16 = GridSpec(n=16, length=8.0)
    gauss, noise = _isolated_sources(G32, seed=31)
    U1 = poisson_isolated(gauss, G32)
    kept = U1.copy()
    U2 = poisson_isolated(noise, G32)
    assert np.array_equal(U1, kept)  # the second call left the first alone
    for U in (U1, U2):
        assert U.flags.c_contiguous
        for cached in gravity._isolated_kernel(G32):
            assert not np.shares_memory(U, cached)
    # calls on two grids interleave without sharing a workspace
    for _ in range(2):
        for grid, seed in ((G16, 16), (G32, 32), (G16, 17)):
            for rho in _isolated_sources(grid, seed):
                U = poisson_isolated(rho, grid)
                assert _rel_err(U, _poisson_isolated_dense(rho, grid)) <= 1e-13


def test_isolated_allocates_no_doubled_grid_array():
    import tracemalloc

    rho = _isolated_sources(G32, seed=33)[0]
    poisson_isolated(rho, G32)  # kernel, workspace and FFT plans are built
    tracemalloc.start()
    try:
        poisson_isolated(rho, G32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a full-pad solve peaks at 6.1 MiB here, the pruned one at 1.0
    assert peak < (2 * G32.n) ** 3 * 8


def test_mass_density():
    f = gaussian_packet(G32, sigma=1.0, m=1.7)
    dens = mass_density(2.0 * f.data, G32, m=1.7)  # amplitude must drop out
    assert abs(np.sum(dens) * G32.dv - 1.7) < 1e-12
    with pytest.raises(ValueError):
        mass_density(np.zeros((2,) + G32.shape), G32, m=1.0)


def test_constraint_potential_closure():
    rho = band_limited_noise(G32, modes=3, seed=23)
    w = 0.2 * band_limited_noise(G32, modes=2, seed=24, comps=(3,))
    p0 = GridPotential(G32, varpi=w)
    U = constraint_potential(G32, rho, varpi_curl2=p0.omega2, G=0.8)
    lhs = fields.laplacian(U, G32) + 0.5 * p0.omega2
    rhs = 4 * np.pi * 0.8 * rho
    diff = lhs - rhs
    assert np.max(np.abs(diff - diff.mean())) < 1e-10


############################################################
# Coriolis presets
############################################################


def _fd_jacobian(fn, x, h=1e-4):
    """J[i, j] = d_i f_j by central differences."""
    x = np.asarray(x, dtype=float)
    J = np.zeros((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        J[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return J


def test_uniform_preset():
    om = np.array([0.4, -0.1, 0.9])
    varpi = uniform_rotation_potential(G32, om).varpi
    X = G32.mesh()
    ref = 0.5 * np.cross(om, np.moveaxis(X, 0, -1)).transpose(3, 0, 1, 2)
    assert np.max(np.abs(varpi - ref)) == 0.0
    # scalar shorthand puts the axis on z
    v2 = uniform_rotation_potential(G32, 2.0).varpi
    r2 = np.cross([0, 0, 2.0], np.moveaxis(X, 0, -1)).transpose(3, 0, 1, 2) * 0.5
    assert np.max(np.abs(v2 - r2)) == 0.0


def test_uniform_rotation_potential_exact_derivatives():
    om = np.array([0.0, 0.0, 0.7])
    p = uniform_rotation_potential(G32, om)
    assert np.max(np.abs(p.curl_varpi - om.reshape(3, 1, 1, 1))) == 0.0
    assert np.max(np.abs(np.trace(p.dvarpi))) == 0.0
    assert np.max(np.abs(p.omega2 - 0.49)) < 1e-15
    # dvarpi override carries the constant matrix (1/2) eps_ijk Omega_k
    assert abs(p.dvarpi[0, 1, 3, 3, 3] - 0.35) < 1e-15
    assert abs(p.dvarpi[1, 0, 3, 3, 3] + 0.35) < 1e-15


def test_uniform_rotation_jacobian_is_one_read_only_view():
    # the constant d_i varpi_j is broadcast over the grid, never copied into it
    p = uniform_rotation_potential(G32, [0.2, -0.4, 0.7])
    assert not p.dvarpi.flags.writeable
    assert p.dvarpi.strides[2:] == (0, 0, 0)


def test_taub_nut_monopole_field():
    # curl varpi = -2a x / r^3, so |curl|^2 = 4 a^2 / r^4; div varpi = 0
    a = 0.8
    rng = np.random.default_rng(77)
    pts = rng.uniform(-4, 4, size=(24, 3))
    pts = pts[np.abs(pts[:, 2]) + np.hypot(pts[:, 0], pts[:, 1]) > 1.0]
    for x in pts:
        J = _fd_jacobian(lambda q: taub_nut_varpi(q, a=a), x)
        curl = np.array([J[1, 2] - J[2, 1], J[2, 0] - J[0, 2], J[0, 1] - J[1, 0]])
        r = np.linalg.norm(x)
        ref = -2.0 * a * x / r**3
        assert np.max(np.abs(curl - ref)) < 1e-6
        assert abs(np.sum(curl**2) - 4 * a**2 / r**4) < 1e-6
        assert abs(np.trace(J)) < 1e-7


def test_taub_nut_string_position():
    # sign=+1 is finite on the +z axis and singular toward -z
    up = taub_nut_varpi(np.array([0.0, 0.0, 2.0]), a=1.0, sign=+1)
    assert np.all(np.isfinite(up))
    near = taub_nut_varpi(np.array([0.05, 0.0, -2.0]), a=1.0, sign=+1)
    assert np.max(np.abs(near)) > 50.0  # blows up like 1/axis-distance^2
    dn = taub_nut_varpi(np.array([0.0, 0.0, -2.0]), a=1.0, sign=-1)
    assert np.all(np.isfinite(dn))


def test_taub_nut_preset_mask():
    p, mask = taub_nut_grid(G32, a=1.0, sign=+1, r_cut=1.0)
    assert not mask.all()
    assert np.all(p.varpi[:, ~mask] == 0.0) and np.all(p.dvarpi[:, :, ~mask] == 0.0)
    assert np.all(np.isfinite(p.varpi)) and np.all(np.isfinite(p.dvarpi))
    # mask keeps points near the +z axis but cuts the -z tube
    i0 = G32.n // 2
    k_up = i0 + 4  # x3 = +2
    k_dn = i0 - 4
    assert mask[i0 + 1, i0, k_up]
    assert not mask[i0, i0, k_dn]


@pytest.mark.parametrize("n, sign", [(32, +1), (64, -1)])
def test_taub_nut_preset_exact_jacobian(n, sign):
    # off the mask the closed-form Jacobian gives the monopole curl
    # -2a x / r^3 and zero divergence to round-off (measured 1.5e-14 and
    # 2.4e-13 for the curl, 3e-16 for the divergence); the spectral Jacobian
    # of the masked, non-periodic varpi was 0.2-0.6 relative off at the median
    grid, a = GridSpec(n, 16.0), 0.2
    p, mask = taub_nut_grid(grid, a=a, sign=sign)
    pts = grid.mesh()
    x = pts[:, mask]
    mono = -2.0 * a * x / np.sqrt(np.sum(x**2, axis=0)) ** 3
    assert np.max(np.abs(p.curl_varpi[:, mask] - mono)) < 1e-12
    assert np.max(np.abs(np.trace(p.dvarpi)[mask])) < 1e-12
    # and it is the derivative of the pointwise varpi
    for i in np.flatnonzero(mask)[:: mask.sum() // 7]:
        J = _fd_jacobian(lambda y: taub_nut_varpi(y, a=a, sign=sign), pts.reshape(3, -1)[:, i])
        assert np.max(np.abs(p.dvarpi.reshape(3, 3, -1)[:, :, i] - J)) < 1e-7


def test_gradient_preset_is_curl_free():
    theta = band_limited_noise(G32, modes=3, seed=25)
    p = GridPotential(G32, varpi=fields.gradient(theta, G32))
    assert np.max(np.abs(p.curl_varpi)) < 1e-11


def test_inverse_laplacian_real_half_spectrum_matches_full():
    # rfftn/irfftn with the cached -1/k^2 half-spectrum against the full
    # fftn pair with the same multiplier
    f = np.random.default_rng(26).standard_normal(G32.shape)
    u = inverse_laplacian(f, G32)
    k2 = G32.k2.copy()
    k2.flat[0] = 1.0
    F = -np.fft.fftn(f) / k2
    F.flat[0] = 0.0
    uc = np.fft.ifftn(F)
    assert u.dtype == np.float64
    scale = np.max(np.abs(u))
    assert np.max(np.abs(u - uc.real)) <= 1e-13 * scale
    assert np.max(np.abs(uc.imag)) <= 1e-13 * scale
    assert G32.inv_laplacian_rfft is G32.inv_laplacian_rfft


def test_lln_threads_caps_gravity_ffts(monkeypatch):
    monkeypatch.setenv("LLN_THREADS", "1")
    gravity._isolated_kernel.cache_clear()  # rebuild the kernel too
    seen = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        def spy(*args, _fn=getattr(scipy.fft, name), _name=name, **kwargs):
            seen.append((_name, kwargs.get("workers")))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, spy)
    rho = mass_density(gaussian_packet(G32, sigma=1.0).data, G32, 1.0)
    poisson_periodic(rho, G32)
    poisson_isolated(rho, G32)
    assert [n for n, _ in seen].count("rfftn") == 3  # periodic, kernel, source
    assert {n for n, _ in seen} == {"fftn", "ifftn", "rfftn", "irfftn"}
    assert all(w == 1 for _, w in seen), seen


def _spy_fft_workers(monkeypatch):
    """The `workers` of every scipy.fft transform called from now on."""
    seen = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        def spy(*args, _fn=getattr(scipy.fft, name), **kwargs):
            seen.append(kwargs.get("workers"))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, spy)
    return seen


def test_fft_workers_follow_the_grain(monkeypatch):
    # one worker per fields.GRAIN points, at most LLN_THREADS: the 16^3 and
    # 32^3 solves (the 64 x 64 x 33 workspace of n = 32 included) run on one,
    # the 64^3 periodic pair on two
    monkeypatch.setenv("LLN_THREADS", "2")
    G16, G64 = GridSpec(n=16, length=16.0), GridSpec(n=64, length=16.0)
    rhos = {g.n: mass_density(gaussian_packet(g, sigma=1.0).data, g, 1.0)
            for g in (G16, G32, G64)}
    for g in (G16, G32):
        poisson_isolated(rhos[g.n], g)  # the kernel's one-off (2n)^3 transform
    seen = _spy_fft_workers(monkeypatch)
    for g in (G16, G32):
        poisson_isolated(rhos[g.n], g)
    assert seen == [1] * 12  # six transforms a solve
    seen.clear()
    poisson_periodic(rhos[64], G64)
    assert seen == [2, 2]
    seen.clear()
    monkeypatch.delenv("LLN_THREADS")
    poisson_periodic(rhos[64], G64)
    assert seen == [min(os.cpu_count(), 2)] * 2
    assert fields._workers(64**3) == min(os.cpu_count(), 64**3 // fields.GRAIN)
