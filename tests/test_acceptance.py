"""Acceptance gate at desk scale (32^3, double precision).

Each test pins one headline property of the workbench with locked
tolerances; refinement and diagnostic series are archived in a
session-scoped pytest temporary directory (``artifacts0`` under pytest's
base temporary directory), outside the source tree.
"""

import json

import numpy as np
import pytest

from lln.fields import (
    PAULI,
    GridSpec,
    band_limited_noise,
    density,
    gaussian_packet,
    gradient,
    integrate,
)
from lln.geometry import (
    GridPotential,
    brinkmann_metric,
    brinkmann_metric_inverse,
    chirality_matrix,
    christoffels,
    christoffels_fd,
    clifford_residual,
    dirac_residual,
    gamma_set,
    ricci_constraint_residual,
)
from lln.gravity import constraint_potential, taub_nut_varpi
from lln.evolve import (
    RunConfig,
    chi_from_phi,
    gauge_transform,
    run,
)
from lln.charges import compute_charges, covariance_test, drift_stats
from lln.sngroup import (
    SnGroupElement,
    act,
    compose,
    inverse,
    represent,
    represent_fn,
)

G16 = GridSpec(16, 16.0)
G32 = GridSpec(32, 16.0)
K1 = 2.0 * np.pi / G32.length


@pytest.fixture(scope="session")
def artifacts(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts")


############################################################
# 1. Clifford algebra and chirality
############################################################


def test_clifford_algebra_and_chirality():
    rng = np.random.default_rng(101)
    U = rng.uniform(-3.0, 3.0, size=1000)
    w = rng.uniform(-1.0, 1.0, size=(1000, 3))
    g = brinkmann_metric(U, w)
    gi = brinkmann_metric_inverse(U, w)
    gam = gamma_set(U, w)
    assert clifford_residual(gam.upper, gi) < 1e-13
    assert clifford_residual(gam.lower, g) < 1e-13
    chir = chirality_matrix(gam, g)
    assert np.max(np.abs(chir - np.eye(4))) < 1e-12


############################################################
# 2. Christoffel closed forms vs finite differences
############################################################


def christoffel_pattern():
    """Slots allowed to be nonzero: the five families of the connection."""
    allowed = np.zeros((5, 5, 5), dtype=bool)
    for i in range(3):
        allowed[i, 3, 3] = True
        allowed[4, i, 3] = allowed[4, 3, i] = True
        for j in range(3):
            allowed[i, j, 3] = allowed[i, 3, j] = True
            allowed[4, i, j] = True
    allowed[4, 3, 3] = True
    return allowed


def test_christoffel_closed_forms_against_finite_differences():
    pot = GridPotential(
        G16,
        U=band_limited_noise(G16, 3, 301),
        varpi=0.5 * band_limited_noise(G16, 3, 302, comps=(3,)),
    )
    rng = np.random.default_rng(303)
    mask = christoffel_pattern()
    worst, worst_zero = 0.0, 0.0
    for x in rng.uniform(-4.0, 4.0, size=(6, 3)):
        closed = christoffels(pot.sample(x, derivatives=True))[0]
        fd = christoffels_fd(pot, x, h=1e-3)
        worst = max(worst, float(np.max(np.abs(closed - fd))))
        worst_zero = max(worst_zero, float(np.max(np.abs(fd[~mask]))))
    assert worst < 1e-5
    assert worst_zero < 1e-8


############################################################
# 3. curvature constraint and the Taub-NUT frame
############################################################


def test_curvature_constraint_on_solved_potential():
    rho = band_limited_noise(G16, 3, 311)
    rho = rho - rho.mean()
    w = 0.4 * band_limited_noise(G16, 3, 312, comps=(3,))
    helper = GridPotential(G16, U=np.zeros(G16.shape), varpi=w)
    U = constraint_potential(G16, rho, varpi_curl2=helper.omega2, G=1.3)
    solved = GridPotential(G16, U=U, varpi=w)
    chk = ricci_constraint_residual(solved, rho=rho, G=1.3)
    assert chk.scalar_max_meanfree < 1e-10


def test_taub_nut_field_strength():
    # the frame field's measured curl is the monopole -2a x/r^3: its norm
    # obeys 4 a^2 / r^4 and it is co-closed, checked off the string axis
    a, h = 0.7, 5e-4
    rng = np.random.default_rng(3)
    pts = rng.uniform(-6.0, 6.0, size=(200, 3))
    r = np.linalg.norm(pts, axis=1)
    keep = (np.hypot(pts[:, 0], pts[:, 1]) > 1.5) & (r > 2.0) & (r < 6.0)
    pts = pts[keep][:24]
    assert len(pts) == 24

    def curl_fd(fn, x):
        J = np.empty((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            J[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
        return np.array([J[1, 2] - J[2, 1], J[2, 0] - J[0, 2], J[0, 1] - J[1, 0]])

    def div_fd(fn, x):
        out = 0.0
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            out += (fn(x + e)[i] - fn(x - e)[i]) / (2.0 * h)
        return out

    def monopole(x):
        return -2.0 * a * x / np.linalg.norm(x) ** 3

    for x in pts:
        c = curl_fd(lambda y: taub_nut_varpi(y, a=a), x)
        rr = np.linalg.norm(x)
        assert np.max(np.abs(c - monopole(x))) < 1e-6
        assert abs(np.dot(c, c) - 4.0 * a**2 / rr**4) < 1e-6
        assert abs(div_fd(monopole, x)) < 1e-6


############################################################
# 4. free-evolution analytics
############################################################


def test_free_packet_spreading_law():
    sigma0 = 1.2
    f = gaussian_packet(G32, sigma=sigma0)
    out = run(f, RunConfig(dt=1e-2, steps=100, evolver="split")).field
    X = G32.mesh()
    rho = np.sum(np.abs(out.data) ** 2, axis=0)
    var = np.array([float(integrate(rho * X[j] ** 2, G32)) for j in range(3)])
    var /= float(integrate(rho, G32))
    expect = sigma0**2 + (out.hbar * out.time / (2.0 * out.m * sigma0)) ** 2
    assert np.max(np.abs(var - expect)) / expect < 1e-6


def test_free_charge_conservation():
    f = gaussian_packet(G32, sigma=1.0, center=(0.5, -0.25, 0.0),
                        k0=(K1, 0, -K1), spin=(0.8, 0.6))
    cfg = RunConfig(dt=1e-3, steps=100, evolver="split",
                    monitor_every=10, monitor=compute_charges)
    res = run(f, cfg)
    drifts = drift_stats(res.records)
    for name in ("E_paper", "P", "J", "M", "G"):
        assert drifts[name] < 1e-10, (name, drifts[name])
    assert abs(res.field.norm2 - 1.0) / cfg.steps < 1e-12


############################################################
# 5. the first-order pair
############################################################


def test_algebraic_pair_closes_by_construction():
    p = GridPotential(
        G32,
        U=0.3 * band_limited_noise(G32, 2, 501),
        varpi=0.3 * band_limited_noise(G32, 2, 502, comps=(3,)),
    )
    f = gaussian_packet(G32, sigma=1.0, k0=(K1, 0, 0))
    chi = chi_from_phi(f.data, p, G32, f.m, f.hbar)
    _, line1, _ = dirac_residual(f.data, chi, np.zeros_like(f.data), p, f.m, f.hbar)
    assert np.max(np.abs(line1)) < 1e-10


def test_plane_wave_solves_both_lines():
    rng = np.random.default_rng(510)
    X = G32.mesh()
    flat = GridPotential(G32)
    for _ in range(3):
        m = float(rng.uniform(0.5, 2.0))
        hbar = float(rng.uniform(0.5, 1.5))
        k = K1 * rng.integers(-4, 5, size=3).astype(float)
        spin = rng.normal(size=2) + 1j * rng.normal(size=2)
        phase = np.exp(1j * np.einsum("j,j...->...", k, X))
        phi = spin[:, None, None, None] * phase
        E = hbar**2 * np.dot(k, k) / (2.0 * m)
        chi = chi_from_phi(phi, None, G32, m, hbar)
        node, _, _ = dirac_residual(phi, chi, (-1j * E / hbar) * phi, flat, m, hbar)
        assert np.max(node) < 1e-8


############################################################
# 6. gauge-related runs
############################################################


def test_gauge_related_runs_share_densities():
    theta = 0.5 * band_limited_noise(G32, 2, 601)
    pA = GridPotential(G32, U=0.3 * band_limited_noise(G32, 2, 602),
                       varpi=-gradient(theta, G32))
    fA = gaussian_packet(G32, sigma=1.0, k0=(K1, 0, 0))
    fB, pB = gauge_transform(fA, pA, theta)
    # the pure-gauge frame is removed identically
    assert np.max(np.abs(pB.varpi)) == 0.0

    cfg = RunConfig(dt=1e-3, steps=50, evolver="rk4", source="external")
    outA = run(fA, cfg, pA).field
    outB = run(fB, cfg, pB).field
    rhoA = np.sum(np.abs(outA.data) ** 2, axis=0)
    rhoB = np.sum(np.abs(outB.data) ** 2, axis=0)
    assert np.max(np.abs(rhoA - rhoB)) < 1e-8


############################################################
# 7. spin precession identity
############################################################


def spin_commutator_residual(Omega, hbar: float = 1.0) -> float:
    """Exact 2x2 check of the precession law for uniform vorticity.

    (i/hbar) [ -(hbar/4) sigma(Omega), S_j ] must equal (S x Omega)_j / 2
    with S = (hbar/2) sigma; returns the max operator-norm deviation.
    """
    Omega = np.asarray(Omega, dtype=float)
    Hs = -0.25 * hbar * np.einsum("j,jab->ab", Omega, PAULI)
    worst = 0.0
    for j in range(3):
        S_j = 0.5 * hbar * PAULI[j]
        comm = (1j / hbar) * (Hs @ S_j - S_j @ Hs)
        # (S x Omega)_j = sigma(v), v = (hbar/2) Omega x e_j
        v = 0.5 * hbar * np.cross(Omega, np.eye(3)[j])
        target = 0.5 * np.einsum("k,kab->ab", v, PAULI)
        worst = max(worst, float(np.max(np.abs(comm - target))))
    return worst


def test_spin_precession_operator_identity():
    rng = np.random.default_rng(701)
    for _ in range(6):
        Om = rng.normal(size=3) * rng.uniform(0.1, 3.0)
        assert spin_commutator_residual(Om, hbar=float(rng.uniform(0.3, 2.0))) < 1e-15


############################################################
# 8. group algebra, cocycle, unitarity
############################################################


def packet_fn(x, t):
    x = np.asarray(x, dtype=float)
    r2 = np.sum((x - np.array([0.5, -0.3, 0.2])) ** 2, axis=-1)
    env = np.exp(-r2 / 6.0 + 1j * (0.4 * x[..., 0] - 0.2 * x[..., 2]))
    env = env * (1.0 + 0.3 * np.sin(0.9 * t))
    return np.stack([env, 0.5j * env], axis=-1)


def test_group_algebra_closure():
    rng = np.random.default_rng(801)
    xs = rng.uniform(-2.0, 2.0, size=(6, 3))
    ts = rng.uniform(-1.0, 1.0, size=6)
    ss = rng.uniform(-1.0, 1.0, size=6)

    def gap(ua, ub):
        xa, ta, sa = act(ua, xs, ts, ss)
        xb, tb, sb = act(ub, xs, ts, ss)
        return max(float(np.max(np.abs(xa - xb))),
                   float(np.max(np.abs(ta - tb))),
                   float(np.max(np.abs(sa - sb))))

    for trial in range(5):
        u = SnGroupElement.random(seed=810 + trial)
        v = SnGroupElement.random(seed=820 + trial)
        w = SnGroupElement.random(seed=830 + trial)
        # compose agrees with sequential action
        xh, th, sh = act(v, xs, ts, ss)
        xa, ta, sa = act(u, xh, th, sh)
        xb, tb, sb = act(compose(u, v), xs, ts, ss)
        seq = max(float(np.max(np.abs(xa - xb))),
                  float(np.max(np.abs(ta - tb))),
                  float(np.max(np.abs(sa - sb))))
        assert seq < 1e-10
        assert gap(compose(u, inverse(u)), SnGroupElement()) < 1e-10
        assert gap(compose(compose(u, v), w), compose(u, compose(v, w))) < 1e-10


def test_projective_cocycle_phase_constancy():
    rng = np.random.default_rng(802)
    pts = rng.uniform(-3.0, 3.0, size=(60, 3))
    t_out = 0.41
    for s1, s2 in ((11, 12), (13, 14), (15, 16)):
        u1 = SnGroupElement.random(seed=s1)
        u2 = SnGroupElement.random(seed=s2)
        f2, m2 = represent_fn(u2, packet_fn, m=1.0, hbar=1.0)
        f21, _ = represent_fn(u1, f2, m=m2, hbar=1.0)
        f12, _ = represent_fn(compose(u1, u2), packet_fn, m=1.0, hbar=1.0)
        a = f21(pts, t_out).ravel()
        b = f12(pts, t_out).ravel()
        keep = np.abs(b) > 1e-6 * np.abs(b).max()
        z = np.vdot(b, a)
        z /= abs(z)
        ang = abs(np.angle(z))
        assert min(ang, np.pi - ang) < 1e-8  # spin double cover: +1 or -1
        pointwise = np.angle(a[keep] / (z * b[keep]))
        assert np.std(pointwise) < 1e-8
        assert np.max(np.abs(a - z * b)) < 1e-10


def test_unitarity_and_dilation_norm_scaling():
    f = gaussian_packet(G32, sigma=1.0, center=(0.5, 0.0, 0.0), k0=(K1, 0, 0))
    # exact subgroup of the nu = 1 sector on this lattice: quarter turn,
    # lattice translation, commensurate boost, clock and fiber shifts
    bq = (2.0 * np.pi * f.hbar / (f.m * G32.length)) * np.array([1.0, 0.0, -2.0])
    u = compose(
        SnGroupElement.rotation((0, 0, 1), np.pi / 2),
        compose(SnGroupElement.translation(c=(2.0, -1.5, 0.5), e=0.3, h=-0.7),
                SnGroupElement.boost(bq)),
    )
    assert abs(u.nu - 1.0) < 1e-12
    g = represent(u, f)
    assert abs(g.norm2 - f.norm2) < 1e-12

    nu = 1.1
    d = represent(SnGroupElement.dilation(nu), gaussian_packet(G32, sigma=0.8))
    assert abs(d.norm2 - nu) < 1e-4  # |phi|^2 carries one factor of nu


############################################################
# 9. self-consistent conservation, locked by dt refinement
############################################################


def test_self_consistent_conservation_with_refinement(artifacts):
    table = []
    for dt, steps in ((4e-3, 25), (2e-3, 50), (1e-3, 100)):
        f = gaussian_packet(G32, sigma=1.5, k0=(K1, 0, 0))
        cfg = RunConfig(dt=dt, steps=steps, evolver="split", source="self",
                        G=1.0, poisson="periodic",
                        monitor_every=max(1, steps // 10),
                        monitor=compute_charges)
        d = drift_stats(run(f, cfg).records)
        table.append((dt, steps, d))

    with open(artifacts / "dt_refinement.csv", "w", encoding="utf-8") as fh:
        names = ("M", "P", "J", "E_sn", "G", "E_paper")
        fh.write("dt,steps," + ",".join(names) + "\n")
        for dt, steps, d in table:
            fh.write(f"{dt:.17g},{steps}," +
                     ",".join(format(d[n], ".17g") for n in names) + "\n")

    d = table[-1][2]
    assert d["M"] < 1e-6
    assert d["P"] < 1e-6
    assert d["J"] < 1e-6
    assert d["E_sn"] < 1e-4
    assert d["G"] < 1e-6
    # E_sn drift is integrator-limited and falls at 2nd order; dt / 4
    # should buy ~16x (measured 14.8)
    e4, e2, e1 = (row[2]["E_sn"] for row in table)
    assert e2 < e4 and e1 < e2
    assert 8.0 < e4 / e1 < 32.0


############################################################
# 10. dynamical exponent 5/3: dilation covariance
############################################################


def test_dilation_covariance_headline(artifacts):
    u = SnGroupElement.dilation(1.1)
    rel = {}
    for n in (32, 48):
        grid = GridSpec(n, 16.0)
        f0 = gaussian_packet(grid, sigma=0.8)
        cfg = RunConfig(dt=1e-3, steps=100, evolver="split", source="self",
                        G=1.0, poisson="isolated")
        out = covariance_test(f0, u, cfg)
        assert abs(out["final_time_A"] - out["final_time_B"]) < 1e-12
        rel[n] = out["rel_l2"]

    # measured 3.788e-4 at 32^3 and 1.936e-4 at 48^3 (ratio 1.96): the
    # discrepancy is discretization, not a failure of the symmetry
    assert rel[32] < 1e-3
    assert rel[48] < rel[32]

    fb = gaussian_packet(G32, sigma=1.0)
    ub = SnGroupElement.boost(K1 * np.array([1.0, 0.0, 0.0]))
    cfg = RunConfig(dt=1e-3, steps=100, evolver="split", source="self", G=1.0)
    rel_boost = covariance_test(fb, ub, cfg)["rel_l2"]
    assert rel_boost < 1e-3  # measured 1.1e-9

    with open(artifacts / "dilation_covariance.json", "w", encoding="utf-8") as fh:
        json.dump({"nu": 1.1, "rel_l2_32": rel[32], "rel_l2_48": rel[48],
                   "refinement_ratio": rel[32] / rel[48],
                   "boost_rel_l2": rel_boost}, fh, indent=2, sort_keys=True)
        fh.write("\n")


############################################################
# 11. dilation charge: free balance law asserted, coupled series archived
############################################################


def test_dilation_charge_diagnostic_archive(artifacts):
    ext = GridPotential(G32, U=0.3 * band_limited_noise(G32, 2, 1101))
    scenarios = {
        "free": ("free", None),
        "external": ("external", ext),
        "self": ("self", None),
    }
    x = G32.mesh()
    for name, (source, p) in scenarios.items():
        f = gaussian_packet(G32, sigma=1.0, k0=(K1, 0, 0))
        virial = []  # m int rho x.grad U at each record

        def monitor(g, pot):
            if pot is not None:
                rho = density(g.data)
                virial.append(g.m * integrate(rho * np.sum(x * pot.dU, axis=0), G32))
            return compute_charges(g, pot)

        cfg = RunConfig(dt=1e-3, steps=100, evolver="split", source=source,
                        G=1.0, monitor_every=5, monitor=monitor)
        res = run(f, cfg, p)
        t = np.array(res.times)
        D = np.array([r.D for r in res.records])
        dDdt = np.gradient(D, t)
        assert len(t) == 21
        assert np.all(np.isfinite(dDdt))
        with open(artifacts / f"d_charge_{name}.csv", "w", encoding="utf-8") as fh:
            fh.write("t,D,dD_dt\n")
            for row in zip(t, D, dDdt):
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")
        T = np.array([r.T_kin for r in res.records])
        if name == "free":
            # the free balance law dD/dt = -11 T (measured 2.9e-12 on the
            # interior points, where np.gradient is second order)
            rhs = -11.0 * T
            err = np.max(np.abs(dDdt - rhs)[1:-1]) / np.max(np.abs(rhs)[1:-1])
            assert err <= 1e-10
        if name == "external":
            # static U: dD/dt = -5 E_paper - 6 T + 3 m int rho x.grad U
            # (measured 3.1e-8 on the interior points)
            E = np.array([r.E_paper for r in res.records])
            rhs = -5.0 * E - 6.0 * T + 3.0 * np.array(virial)
            err = np.max(np.abs(dDdt - rhs)[1:-1]) / np.max(np.abs(rhs)[1:-1])
            assert err <= 1e-6
        # the self series is archived, not asserted
