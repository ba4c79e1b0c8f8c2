"""First integrals of the flow: drift under free and self-coupled
evolution, the charge CSV format, and evolve-then-map consistency."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lln.fields import (
    PAULI,
    GridSpec,
    band_limited_noise,
    canonical_current,
    density,
    fftn,
    gaussian_packet,
    gradient,
    ifftn,
    integrate,
    norm2,
    spin_density,
)
from lln import evolve
from lln.evolve import RunConfig, apply_hamiltonian, gauge_transform, run, self_potential
from lln.geometry import GridPotential
from lln.gravity import mass_density, poisson_periodic, taub_nut_grid, uniform_rotation_potential
from lln.sngroup import SnGroupElement
from lln.charges import (
    CSV_COLUMNS,
    ChargeRecord,
    compute_charges,
    covariance_test,
    drift_stats,
    read_csv,
    write_csv,
)

G32 = GridSpec(32, 16.0)
K1 = 2.0 * np.pi / G32.length


def free_run(steps=50, dt=1e-3, every=10):
    # sigma tight enough that the tail at the position-operator seam is
    # below roundoff; x cross p is not a periodic observable
    f = gaussian_packet(G32, sigma=1.0, center=(0.5, -0.25, 0.0),
                        k0=(K1, 0, -K1), spin=(0.8, 0.6))
    cfg = RunConfig(dt=dt, steps=steps, evolver="split", source="free",
                    monitor_every=every, monitor=compute_charges)
    return run(f, cfg)


def self_run(steps=100, dt=1e-3, every=10):
    f = gaussian_packet(G32, sigma=1.5, k0=(K1, 0, 0))
    cfg = RunConfig(dt=dt, steps=steps, evolver="split", source="self",
                    G=1.0, poisson="periodic",
                    monitor_every=every, monitor=compute_charges)
    return run(f, cfg)


def test_plane_wave_charges():
    X = G32.mesh()
    k = np.array([2 * K1, -K1, 0.0])
    data = np.zeros((2,) + G32.shape, dtype=complex)
    data[0] = np.exp(1j * np.einsum("j,j...->...", k, X))
    from lln.fields import BispinorField

    f = BispinorField(grid=G32, data=data, m=1.3, hbar=0.7)
    f = f.normalized()
    rec = compute_charges(f)
    assert np.max(np.abs(rec.P - f.hbar * k)) < 1e-12
    assert abs(rec.M - f.m) < 1e-12
    assert abs(rec.E_paper - f.hbar**2 * np.dot(k, k) / (2 * f.m)) < 1e-12
    assert np.isnan(rec.E_sn)
    assert abs(rec.T_kin - rec.E_paper) < 1e-12
    # spin up along z: J_z picks up hbar/2 on top of the orbital part
    pd = f.hbar * canonical_current(f.data, gradient(f.data, G32))
    assert pd.shape == (3,) + G32.shape
    assert np.max(np.abs(integrate(pd, G32) - rec.P)) < 1e-12


def _charges_reference(f, p, mode):
    """Oracle: the charges by dense formulas (3-D gradient, Laplacian, mesh)."""
    grid, m, hbar = f.grid, f.m, f.hbar
    phi = f.data
    X = grid.mesh()
    rho = np.sum(np.abs(phi) ** 2, axis=0)
    F = fftn(phi)
    gphi = np.stack([ifftn(1j * k * F) for k in grid.kvec])
    pdens = hbar * np.imag(np.einsum("a...,ja...->j...", np.conj(phi), gphi))
    sdens = np.einsum("a...,jab,b...->j...", np.conj(phi), PAULI, phi).real
    integ = lambda a: np.sum(a, axis=(-3, -2, -1)) * grid.dv
    lap = ifftn(-grid.k2 * fftn(phi))
    T = float(np.real(np.sum(np.conj(phi) * (-(hbar**2) / (2 * m)) * lap)) * grid.dv)
    if p is not None and np.any(p.varpi):
        # covariant T = (hbar^2/2m) sum_j |(d_j - i (m/hbar) varpi_j) phi|^2, developed
        T += float(integ(0.5 * m * np.sum(p.varpi**2, axis=0) * rho
                         - np.einsum("j...,j...->...", p.varpi, pdens)))
        pdens = pdens + 0.5 * hbar * m * np.cross(
            np.moveaxis(p.varpi, 0, -1), np.moveaxis(sdens, 0, -1)
        ).transpose(3, 0, 1, 2)
    P = integ(pdens)
    xcrossp = np.cross(np.moveaxis(X, 0, -1), np.moveaxis(pdens, 0, -1))
    J = integ(np.moveaxis(xcrossp, -1, 0)) + 0.5 * hbar * integ(sdens)
    U = p.U if p is not None else np.zeros(grid.shape)
    W = m * float(integ(U * rho))
    E = float(np.real(np.sum(np.conj(phi) * apply_hamiltonian(phi, p, grid, m, hbar)))
              * grid.dv)
    E_sn = T + 0.5 * W if mode == "self" else float("nan")
    Gb = f.time * P - m * integ(X * rho)
    D = -5.0 * f.time * E - 3.0 * float(integ(np.einsum("j...,j...->...", X, pdens)))
    return ChargeRecord(t=f.time, E_paper=E, E_sn=E_sn, P=P, J=J, M=m * float(integ(rho)),
                        Gb=Gb, D=D, T_kin=T, W_pot=W)


@pytest.mark.parametrize("kind", ["none", "self", "varpi"])
def test_compute_charges_matches_dense_formulas(kind):
    # spinning, boosted, off-centre packet: every charge column is nonzero
    f = gaussian_packet(G32, sigma=1.0, center=(0.7, -0.4, 0.3),
                        k0=(K1, -2 * K1, 0.5 * K1), spin=(0.8, 0.6j), m=1.3, hbar=0.9,
                        time=0.25)
    p, mode = None, "free"
    if kind == "self":
        U = poisson_periodic(mass_density(f.data, G32, f.m), G32)
        p, mode = GridPotential(G32, U=U, U_self=U), "self"
    elif kind == "varpi":
        varpi = 0.3 * band_limited_noise(G32, modes=2, seed=41, comps=(3,))
        p, mode = GridPotential(G32, U=varpi[0] ** 2, varpi=varpi), "external"
    new = np.array(compute_charges(f, p).row())
    ref = np.array(_charges_reference(f, p, mode).row())
    assert np.all(np.abs(ref[3:13]) > 1e-2)  # P, J, M and G components
    np.testing.assert_allclose(new, ref, rtol=1e-12, atol=0, equal_nan=True)


def traced_peak(fn):
    """The traced peak of fn() in bytes, tracemalloc running for that call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compute_charges_holds_one_partial_at_a_time():
    # T_kin and P come out as the full-gradient formulas give them, bit for
    # bit, but neither the 3 x 2 n^3 gradient nor two partials are ever
    # alive: the traced peak is 1.50 field sizes, one partial and |d_j phi|^2
    f = gaussian_packet(G32, sigma=1.0, center=(0.7, -0.4, 0.3),
                        k0=(K1, -2 * K1, 0.5 * K1), spin=(0.8, 0.6j), m=1.3, hbar=0.9)
    U = poisson_periodic(mass_density(f.data, G32, f.m), G32)
    p = GridPotential(G32, U=U, U_self=U)
    rec = compute_charges(f, p)
    gphi = gradient(f.data, G32)
    assert rec.T_kin == f.hbar**2 / (2 * f.m) * sum(norm2(g, G32) for g in gphi)
    assert np.array_equal(rec.P, integrate(f.hbar * canonical_current(f.data, gphi), G32))
    del gphi
    assert traced_peak(lambda: compute_charges(f, p)) < 1.6 * f.data.nbytes


def _live_case(spin, coriolis):
    f = gaussian_packet(G32, sigma=1.0, center=(0.7, -0.4, 0.3),
                        k0=(K1, -2 * K1, 0.5 * K1), spin=spin, m=1.3, hbar=0.9, time=0.25)
    if coriolis:
        varpi = 0.3 * band_limited_noise(G32, modes=2, seed=41, comps=(3,))
        return f, GridPotential(G32, U=varpi[0] ** 2, varpi=varpi), "external"
    U = poisson_periodic(mass_density(f.data, G32, f.m), G32)
    return f, GridPotential(G32, U=U, U_self=U), "self"


@pytest.mark.parametrize("spin, coriolis, width", [
    ((1, 0), False, 1), ((0, 1), False, 1), ((0.6, 0.8j), False, 2), ((1, 0), True, 2),
])
def test_compute_charges_runs_on_the_live_components(spin, coriolis, width, monkeypatch):
    # a zero component is skipped (evolve._live) unless Coriolis couples the
    # pair; the record is the whole pair's bit for bit, and the dense
    # oracle's to 1e-12 relative (measured 6.0e-14)
    f, p, mode = _live_case(spin, coriolis)
    widths = []

    def spy(phi, *args):
        widths.append(len(phi))
        return apply_hamiltonian(phi, *args)

    monkeypatch.setattr(evolve, "apply_hamiltonian", spy)
    rec = compute_charges(f, p).row()
    assert widths == [width]
    ref = _charges_reference(f, p, mode).row()
    np.testing.assert_allclose(rec, ref, rtol=1e-12, atol=0, equal_nan=True)
    monkeypatch.setattr(evolve, "_live", lambda data: slice(0, 2))
    assert np.array_equal(rec, compute_charges(f, p).row(), equal_nan=True)
    assert widths == [width, 2]


@pytest.mark.parametrize("spin", [(1, 0), (0, 1)])
def test_compute_charges_of_a_basis_spinor_holds_one_component(spin):
    # the traced peak is 0.79 field sizes on the live component: one partial
    # and one real grid array
    f, p, _ = _live_case(spin, False)
    compute_charges(f, p)
    assert traced_peak(lambda: compute_charges(f, p)) < 1.0 * f.data.nbytes


def test_monitored_run_peaks_no_higher_than_the_steps():
    # a self/periodic run holds its field, U, the kick and the drift
    # multiplier; the steps peak at 2.77 field sizes (see
    # test_self_run_holds_one_field_and_its_multipliers), and a record every
    # 5 steps lifts that to 3.04: one partial and its momentum row on top
    f = gaussian_packet(G32, sigma=1.5, k0=(K1, 0, 0))
    cfg = RunConfig(dt=1e-3, steps=10, source="self", poisson="periodic",
                    monitor_every=5, monitor=compute_charges)
    run(f, cfg)
    assert traced_peak(lambda: run(f, cfg)) < 3.5 * f.data.nbytes


def test_monitor_takes_e_paper_from_apply_hamiltonian(monkeypatch):
    # E_paper is <phi, H phi> with H applied through evolve.apply_hamiltonian,
    # once per record; no Parseval shortcut stands in for it
    energies = []

    def spy(phi, p, grid, m, hbar):
        h = apply_hamiltonian(phi, p, grid, m, hbar)
        energies.append(float(np.real(np.sum(np.conj(phi) * h)) * grid.dv))
        return h

    monkeypatch.setattr(evolve, "apply_hamiltonian", spy)
    records = self_run(steps=30, every=10).records
    assert len(records) == 4
    assert [r.E_paper for r in records] == energies


def test_free_conservation():
    res = free_run()
    assert len(res.records) == 6
    drifts = drift_stats(res.records)
    # free flow: every generator commutes with H, including the boost pair
    for name in ("E_paper", "P", "J", "M", "G", "T_kin"):
        assert drifts[name] < 1e-10, (name, drifts[name])
    assert "E_sn" not in drifts  # NaN outside self-sourced runs


def test_self_consistent_conservation():
    res = self_run()
    drifts = drift_stats(res.records)
    assert drifts["M"] < 1e-6
    assert drifts["P"] < 1e-6
    assert drifts["J"] < 1e-6
    assert drifts["G"] < 1e-6
    # the conserved energy of the coupled system is T + W/2
    assert drifts["E_sn"] < 1e-4
    # <H> itself double counts the interaction and is NOT constant
    assert drifts["E_paper"] > 10 * drifts["E_sn"]


def test_e_sn_is_conserved_on_top_of_an_external_potential():
    # E_sn = E_paper - W_self/2 counts the external energy once; halving all
    # of W_pot, the external part included, drifted by 5.6e-4 on this run
    G16 = GridSpec(16, 16.0)
    p = GridPotential(G16, U=0.0125 * np.sum(G16.mesh() ** 2, axis=0))
    f = gaussian_packet(G16, sigma=1.0, k0=(0.4, 0, 0))
    cfg = RunConfig(dt=2e-3, steps=200, evolver="split", source="self", G=1.0,
                    poisson="isolated", monitor_every=20, monitor=compute_charges)
    records = run(f, cfg, p).records
    assert drift_stats(records)["E_sn"] <= 1e-8  # measured 4.7e-10
    # at t = 0 the field is f: E_sn = T + W_self/2 + W_ext
    rec = records[0]
    W_ext = f.m * float(np.sum(p.U * np.sum(np.abs(f.data) ** 2, axis=0)) * G16.dv)
    expected = rec.T_kin + 0.5 * (rec.W_pot - W_ext) + W_ext
    assert rec.E_sn == pytest.approx(expected, rel=1e-12)


def test_torus_seam_sets_the_g_j_drift_floor():
    # The sawtooth moment int x rho behind G and J jumps by L at the seam.
    # With sigma = 1.5 the packet's tail reaches x = +-8 at L = 16 and the
    # drift sits far above roundoff; at L = 24 (same dx, dt) it is gone.
    def drifts(n, length):
        f = gaussian_packet(GridSpec(n, length), sigma=1.5, center=(0.07, -0.03, 0.11),
                            k0=(2.0 * np.pi / 16.0, 0, 0))
        cfg = RunConfig(dt=1e-3, steps=200, evolver="split", source="self",
                        poisson="periodic", monitor_every=10,
                        monitor=compute_charges)
        return drift_stats(run(f, cfg).records)

    seam = drifts(32, 16.0)
    assert seam["G"] > 1e-7
    wide = drifts(48, 24.0)
    assert wide["G"] < 1e-11
    assert wide["J"] < 1e-11


def test_e_sn_modes():
    f = gaussian_packet(G32, sigma=1.2)
    assert np.isnan(compute_charges(f).E_sn)
    from lln.gravity import mass_density, poisson_periodic
    from lln.geometry import GridPotential

    rho = mass_density(f.data, G32, f.m)
    U = poisson_periodic(rho, G32, G=1.0)
    p = GridPotential(G32, U=U, U_self=U)
    rec = compute_charges(f, p)
    assert np.isfinite(rec.E_sn)
    assert abs(rec.E_sn - (rec.T_kin + 0.5 * rec.W_pot)) < 1e-12
    assert rec.W_pot < 0.0


def test_e_sn_follows_the_potential():
    # E_sn is taken iff the potential in force carries U_self: the solved
    # potential of the state does, an external one does not, and on top of
    # an external base only the self-sourced part is halved
    f = gaussian_packet(G32, sigma=1.2, k0=(K1, 0, 0))
    rec = compute_charges(f, self_potential(f.data, G32, f.m, 1.0, "periodic"))
    assert np.isfinite(rec.E_sn)
    assert abs(rec.E_sn - (rec.T_kin + 0.5 * rec.W_pot)) < 1e-12
    base = GridPotential(G32, U=0.0125 * np.sum(G32.mesh() ** 2, axis=0))
    assert base.U_self is None
    assert np.isnan(compute_charges(f, base).E_sn)
    both = self_potential(f.data, G32, f.m, 1.0, "periodic", base)
    rec = compute_charges(f, both)
    W_self = f.m * float(integrate(both.U_self * density(f.data), G32))
    assert abs(W_self) > 1e-2 and abs(rec.W_pot - W_self) > 1e-2
    assert abs(rec.E_sn - (rec.E_paper - 0.5 * W_self)) < 1e-12


def test_boost_charge_tracks_centroid():
    # G = t P - m <x> M-weighted; for the free packet the centroid moves
    # at P/M so G stays put
    res = free_run(steps=40, every=40)
    first, last = res.records[0], res.records[-1]
    v = first.P / first.M
    dt_c = (last.t - first.t) * v
    # reconstruct <x> m rho integral from G: <x>_m = (t P - G)/1
    x0 = first.t * first.P - first.Gb
    x1 = last.t * last.P - last.Gb
    assert np.max(np.abs((x1 - x0) - first.M * dt_c / 1.0)) < 1e-8


def test_csv_roundtrip_and_determinism(tmp_path):
    res = free_run(steps=20, every=5)
    path = tmp_path / "charges.csv"
    write_csv(res.records, path)
    back = read_csv(path)
    assert len(back) == len(res.records)
    for a, b in zip(res.records, back):
        assert a.t == b.t
        assert a.E_paper == b.E_paper
        assert np.isnan(b.E_sn)
        assert np.array_equal(a.P, b.P)
        assert np.array_equal(a.J, b.J)
        assert a.M == b.M
        assert np.array_equal(a.Gb, b.Gb)
        assert a.D == b.D
        assert a.T_kin == b.T_kin
        assert a.W_pot == b.W_pot
    path2 = tmp_path / "charges2.csv"
    write_csv(res.records, path2)
    assert path.read_bytes() == path2.read_bytes()
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_read_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,energy\n0.0,1.0\n")
    with pytest.raises(ValueError, match="columns"):
        read_csv(path)


def _record(vals):
    return ChargeRecord(t=vals[0], E_paper=vals[1], E_sn=vals[2], P=np.array(vals[3:6]),
                        J=np.array(vals[6:9]), M=vals[9], Gb=np.array(vals[10:13]),
                        D=vals[13], T_kin=vals[14], W_pot=vals[15])


_row = st.lists(st.floats(allow_nan=False), min_size=16, max_size=16)
_CSV_PROPERTY = settings(database=None, deadline=None, max_examples=60,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@_CSV_PROPERTY
@given(rows=st.lists(_row, max_size=5), nan_e_sn=st.booleans())
def test_charge_csv_round_trip(tmp_path, rows, nan_e_sn):
    if nan_e_sn:
        rows = [r[:2] + [float("nan")] + r[3:] for r in rows]
    records = [_record(r) for r in rows]
    write_csv(records, tmp_path / "c.csv")
    back = read_csv(tmp_path / "c.csv")
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert np.array_equal(a.row(), b.row(), equal_nan=True)
        assert b.P.shape == b.J.shape == b.Gb.shape == (3,)
    write_csv(back, tmp_path / "d.csv")
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()


@_CSV_PROPERTY
@given(k=st.integers(1, 24).filter(lambda k: k != len(CSV_COLUMNS)))
def test_read_csv_rejects_a_row_of_the_wrong_length(tmp_path, k):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(["1.5"] * k) + "\n")
    with pytest.raises(ValueError, match="values"):
        read_csv(path)


def test_charge_record_row_matches_columns():
    rec = ChargeRecord(
        t=0.0, E_paper=1.0, E_sn=float("nan"),
        P=np.zeros(3), J=np.zeros(3), M=1.0,
        Gb=np.zeros(3), D=0.0, T_kin=1.0, W_pot=0.0,
    )
    assert len(rec.row()) == len(CSV_COLUMNS)


def test_drift_stats_empty():
    assert drift_stats([]) == {}


def test_covariance_rotation_free():
    # quarter turns are exact on the lattice and commute with the free flow
    f = gaussian_packet(G32, sigma=1.0, center=(1.0, 0.5, -0.5), k0=(K1, 0, 0))
    u = SnGroupElement.rotation((0, 0, 1), np.pi / 2)
    cfg = RunConfig(dt=1e-3, steps=5, evolver="split", source="free")
    data = f.data.copy()
    out = covariance_test(f, u, cfg)
    assert np.array_equal(f.data, data) and f.time == 0.0  # leg A ran a copy
    assert out["rel_l2"] < 1e-12
    assert abs(out["final_time_A"] - out["final_time_B"]) < 1e-15
    assert set(out) == {"rel_l2", "legA", "legB", "final_time_A", "final_time_B"}


def test_covariance_legs_share_the_run_config(monkeypatch):
    # leg B runs the caller's config with dt / nu^5 and without the monitor
    seen = []

    def spy(f, cfg, p=None):
        seen.append(cfg)
        return run(f, cfg, p)

    monkeypatch.setattr("lln.charges.run", spy)
    calls = []
    cfg = RunConfig(dt=1e-3, steps=4, evolver="split", source="self", G=2.5,
                    poisson="isolated", monitor_every=2,
                    monitor=lambda f, pot: calls.append(f.time))
    u = SnGroupElement.dilation(1.1)
    f = gaussian_packet(GridSpec(16, 16.0), sigma=1.0)
    covariance_test(f, u, cfg)
    assert len(calls) == 3  # leg A only: t = 0 and every second step
    a, b = seen
    assert a is cfg
    assert (b.G, b.poisson) == (2.5, "isolated")
    assert (b.evolver, b.source, b.steps) == ("split", "self", 4)
    assert b.dt == cfg.dt / u.nu**5
    assert (b.monitor_every, b.monitor) == (0, None)


@pytest.mark.parametrize("frame", ["band-limited", "rigid", "taub-nut"])
def test_kinetic_energy_is_the_gauge_invariant_kinetic_term_of_h(frame):
    # T_kin = (hbar^2/2m) sum_j |D_j phi|^2: E_paper = T_kin + W_pot -
    # (hbar/4) int s . curl varpi to round-off (measured <= 2.6e-16), and a
    # vertical gauge map moves T_kin no more than E_paper itself (measured
    # <= 1.3e-11, Taub-NUT)
    f, p, _ = _live_case((0.8, 0.6j), True)
    if frame == "rigid":
        p = uniform_rotation_potential(G32, (0, 0, 0.8))
    elif frame == "taub-nut":
        p = taub_nut_grid(G32, a=0.2)[0]
    f2, p2 = gauge_transform(f, p, 0.7 * band_limited_noise(G32, modes=2, seed=5))
    for g, q in ((f, p), (f2, p2)):
        rec = compute_charges(g, q)
        spin = 0.25 * g.hbar * integrate(np.sum(spin_density(g.data) * q.curl_varpi, axis=0), G32)
        assert abs(rec.E_paper - (rec.T_kin + rec.W_pot - spin)) < 1e-15 * abs(rec.E_paper)
    a, b = compute_charges(f, p), compute_charges(f2, p2)
    assert abs(b.T_kin - a.T_kin) < 1e-10 * a.T_kin
    assert abs(b.T_kin - a.T_kin) < 2.0 * abs(b.E_paper - a.E_paper) + 1e-15 * a.T_kin
