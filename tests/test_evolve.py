"""Hamiltonian forms, integrators, the coupled first-order system,
continuity, gauge maps, spin precession, and the self-gravitating
ground state against a radial oracle."""

import json
import tracemalloc

import numpy as np
import pytest

from lln.fields import (
    BispinorField,
    GridSpec,
    PAULI,
    band_limited_noise,
    fftn,
    gaussian_packet,
    gradient,
    ifftn,
    integrate,
    laplacian,
    rfftn,
    sigma_dot,
)
from lln.geometry import GridPotential, dirac_residual
from lln.gravity import mass_density, poisson_isolated, taub_nut_grid, uniform_rotation_potential
from lln.evolve import (
    RelaxConfig,
    RunConfig,
    StabilityError,
    apply_hamiltonian,
    chi_from_phi,
    current_and_continuity,
    energy_expectation,
    gauge_transform,
    ground_state,
    max_frequency,
    run,
    self_potential,
)
from lln import evolve
from lln.charges import compute_charges
from lln.cli import main
from lln.sngroup import SnGroupElement, compose, represent_pair, transform_potentials
from oracles import observables, radial_ground_state

G16 = GridSpec(16, 16.0)
G32 = GridSpec(32, 16.0)


def bandlimited_potential(grid, seed, wamp=0.25):
    """Low-mode periodic U and varpi so products stay under Nyquist."""
    U = 0.3 * band_limited_noise(grid, 2, seed)
    w = wamp * band_limited_noise(grid, 2, seed + 1, comps=(3,))
    return GridPotential(grid, U=U, varpi=w)


def bandlimited_spinor(grid, seed, modes=2):
    data = band_limited_noise(grid, modes, seed, comps=(2,), real=False)
    return data / np.sqrt(np.sum(np.abs(data) ** 2) * grid.dv)


############################################################
# operator forms
############################################################


def sigma_grad(phi, grid):
    """sigma(grad) phi = sum_j sigma_j d_j phi, the canonical part of the
    developed oracle (the library forms sigma(D) only)."""
    return np.einsum("jab,jb...->a...", PAULI, gradient(phi, grid))


def _developed_hamiltonian(phi, p, grid, m, hbar):
    """Oracle for apply_hamiltonian: the same operator expanded as

    -(hbar^2/2m) Delta + (i hbar/2){sigma(grad), sigma(varpi)}
    + m (U + |varpi|^2/2) + (hbar/4) sigma(curl varpi).
    """
    phi = np.asarray(phi, dtype=complex)
    if p is None:
        p = GridPotential(grid)
    w = p.varpi
    out = -(hbar**2 / (2.0 * m)) * laplacian(phi, grid)
    if np.any(w):
        sg_sw = sigma_grad(sigma_dot(w, phi), grid)
        sw_sg = sigma_dot(w, sigma_grad(phi, grid))
        out = out + 0.5j * hbar * (sg_sw + sw_sg)
        out = out + 0.5 * m * np.sum(w**2, axis=0) * phi
        out = out + 0.25 * hbar * sigma_dot(p.curl_varpi, phi)
    return out + m * p.U * phi


def _oracle_mismatch(phi, p, grid, m, hbar):
    a = apply_hamiltonian(phi, p, grid, m, hbar)
    b = _developed_hamiltonian(phi, p, grid, m, hbar)
    return float(np.max(np.abs(a - b)))


def test_hamiltonian_forms_agree_bandlimited():
    # products of 2-mode factors live at most at mode 4 < Nyquist(16)=8,
    # so the canonical and developed expansions must agree to roundoff
    phi = bandlimited_spinor(G16, 7)
    p = bandlimited_potential(G16, 11)
    assert _oracle_mismatch(phi, p, G16, m=1.3, hbar=0.9) < 1e-13


def test_hamiltonian_forms_agree_gaussian():
    f = gaussian_packet(G32, sigma=1.0, center=(0.5, -0.3, 0.2), k0=(0.785398163397448, 0, 0))
    p = bandlimited_potential(G32, 5, wamp=0.3)
    # Gaussian tails alias a little; the two expansions move the aliased
    # energy around differently
    assert _oracle_mismatch(f.data, p, G32, m=1.0, hbar=1.0) < 1e-8


def test_hamiltonian_hermitian():
    # each D_j = d_j - i (m/hbar) varpi_j is anti-Hermitian on the grid, so
    # H is Hermitian to round-off whatever Jacobian the potential carries:
    # the exact Taub-NUT one, and Gaussian packets that are not band-limited
    # (the expanded square with div varpi read 5.3e-9 on the band-limited
    # varpi and 2.0e-6 on the exact Taub-NUT Jacobian with these packets).
    # The developed oracle is Hermitian on band-limited inputs only
    m, hbar = 1.1, 0.8
    spinors = [(bandlimited_spinor(G16, 100 + s), bandlimited_spinor(G16, 200 + s))
               for s in range(4)]
    packets = [(gaussian_packet(G32, sigma=1.0, center=(2.5, 0.5, 2.5), spin=(0.6, 0.8j)).data,
                gaussian_packet(G32, sigma=1.2, center=(1.5, -0.5, 2.0), spin=(1.0, 0.3)).data)]
    cases = {
        "band-limited, 16^3": (G16, bandlimited_potential(G16, 23), spinors,
                               (apply_hamiltonian, _developed_hamiltonian)),
        "band-limited": (G32, bandlimited_potential(G32, 23), packets, (apply_hamiltonian,)),
        "rotation": (G32, uniform_rotation_potential(G32, (0.1, -0.2, 0.5)), packets,
                     (apply_hamiltonian,)),
        "taub-NUT": (G32, taub_nut_grid(G32, a=0.2)[0], packets, (apply_hamiltonian,)),
    }
    for case, (grid, p, pairs, forms) in cases.items():
        for a, b in pairs:
            for H in forms:
                lhs = np.vdot(a, H(b, p, grid, m, hbar))
                rhs = np.vdot(H(a, p, grid, m, hbar), b)
                assert abs(lhs - rhs) < 1e-13 * abs(lhs), (case, H.__name__)


@pytest.mark.parametrize("width, bound", [(2, 1.25), (1, 0.65)])
def test_apply_hamiltonian_holds_one_buffer(width, bound):
    # without Coriolis, H phi is the Laplacian's own output scaled in place,
    # with m U phi added slab by slab: at 32^3 the traced peak is 1.10 field
    # sizes on the pair and 0.54 on one component
    f = gaussian_packet(G32, sigma=1.5, spin=(0.6, 0.8j))
    pot = self_potential(f.data, G32, f.m, 1.0, "periodic")
    phi = f.data[:width]
    apply_hamiltonian(phi, pot, G32, f.m, f.hbar)
    tracemalloc.start()
    try:
        apply_hamiltonian(phi, pot, G32, f.m, f.hbar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * f.data.nbytes


def test_coriolis_hamiltonian_holds_four_buffers():
    # the square as sum_j D_j D_j holds the sum, D_j phi, its transform and
    # one slab product: a traced peak of 3.1 field sizes at 32^3 (the
    # expanded square with its gradient and einsum held 7.5)
    f = gaussian_packet(G32, sigma=1.5, spin=(0.6, 0.8j))
    pot = uniform_rotation_potential(G32, (0.1, -0.2, 0.5))
    apply_hamiltonian(f.data, pot, G32, f.m, f.hbar)
    tracemalloc.start()
    try:
        apply_hamiltonian(f.data, pot, G32, f.m, f.hbar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0 * f.data.nbytes


def test_hamiltonian_form_and_dealias_guards(tmp_path, capsys):
    # the evolver block selects no operator form and no dealiasing: a
    # config naming either key fails closed
    for key, val in (("hamiltonian", "developed"), ("dealias", True)):
        cfg = {
            "grid": {"n": 16, "length": 16.0},
            "initial": {"kind": "gaussian"},
            "evolver": {"kind": "rk4", "dt": 1e-3, "steps": 2, key: val},
        }
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(cfg))
        assert main(["evolve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown keys" in err and key in err


def test_energy_expectation_plane_wave():
    k = 3 * 2.0 * np.pi / G16.length
    X = G16.mesh()
    phi = np.zeros((2,) + G16.shape, dtype=complex)
    phi[0] = np.exp(1j * k * X[0])
    phi /= np.sqrt(np.sum(np.abs(phi) ** 2) * G16.dv)
    m, hbar = 1.4, 0.7
    E = energy_expectation(phi, None, G16, m, hbar)
    assert abs(E - hbar**2 * k**2 / (2 * m)) < 1e-13


def test_max_frequency_grows_with_potential():
    w0 = max_frequency(None, G16, 1.0, 1.0)
    p = bandlimited_potential(G16, 2)
    assert w0 > 0
    assert max_frequency(p, G16, 1.0, 1.0) > w0


############################################################
# integrators
############################################################


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(dt=1e-3, steps=10, evolver="euler")
    with pytest.raises(ValueError):
        RunConfig(dt=1e-3, steps=10, source="vacuum")
    with pytest.raises(ValueError):
        RunConfig(dt=1e-3, steps=10, poisson="open")
    with pytest.raises(ValueError):
        RunConfig(dt=-1e-3, steps=10)
    with pytest.raises(ValueError):
        RunConfig(dt=1e-3, steps=-1)


@pytest.mark.parametrize("kw", [{"monitor_every": -1}, {"monitor_every": 2.5}, {"steps": 2.5},
                                {"steps": True}, {"monitor_every": True}])
def test_run_config_refuses_what_is_not_a_count(kw):
    # monitor_every=-1 recorded every step (6 records in 5 steps) and 2.5
    # was taken; a fractional steps failed mid-run in range(); True passed
    # as the int 1
    with pytest.raises(ValueError, match="steps and monitor_every must be counts"):
        RunConfig(**{"dt": 1e-3, "steps": 5, **kw})
    assert RunConfig(dt=1e-3, steps=np.int64(5), monitor_every=np.int64(2)).steps == 5


@pytest.mark.parametrize("kw", [{"dt": np.inf}, {"G": np.nan}])
def test_run_config_refuses_non_finite_values(kw):
    # each ran every step and then raised StabilityError on non-finite
    # amplitudes
    with pytest.raises(ValueError, match="dt must be finite and positive, G finite"):
        RunConfig(**{"dt": 1e-3, "steps": 5, "source": "self", **kw})


def test_self_run_holds_one_field_and_its_multipliers():
    # a self/periodic run holds its copy of the field, the drift multiplier,
    # the kick phase and U: 2.25 field sizes. A step peaks at 2.77 at 32^3,
    # in the Poisson solve (3.02 with k^2 cached on the grid, a fresh kick
    # buffer per U and the spent U alive through the solve)
    f = gaussian_packet(G32, sigma=1.5, k0=(2 * np.pi / G32.length, 0, 0))
    cfg = RunConfig(dt=1e-3, steps=10, source="self", poisson="periodic")
    run(f, cfg)
    tracemalloc.start()
    try:
        run(f, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.85 * f.data.nbytes


def test_external_mode_needs_potential():
    f = gaussian_packet(G16, sigma=1.2)
    with pytest.raises(ValueError):
        run(f, RunConfig(dt=1e-3, steps=1, source="external"))


@pytest.mark.parametrize("evolver", ["split", "rk4"])
def test_free_mode_takes_no_potential(evolver):
    # a free run that moved in the potential it was handed would not be free
    f = gaussian_packet(G16, sigma=1.2)
    p = GridPotential(G16, U=0.1 * np.sum(G16.mesh()**2, axis=0))
    with pytest.raises(ValueError, match="free source mode takes no potential"):
        run(f, RunConfig(dt=1e-3, steps=1, evolver=evolver), p)


def test_solvers_refuse_a_source_without_its_potential():
    # the one pairing rule as a library caller meets it: a free run takes no
    # potential, an external run (or relaxation) needs one
    f = gaussian_packet(G16, sigma=1.2)
    p = GridPotential(G16, U=0.1 * np.sum(G16.mesh()**2, axis=0))
    for evolver in ("split", "rk4"):
        with pytest.raises(ValueError, match="^free source mode takes no potential$"):
            run(f, RunConfig(dt=1e-3, steps=1, evolver=evolver), p)
        with pytest.raises(ValueError, match="^external source mode needs a potential$"):
            run(f, RunConfig(dt=1e-3, steps=1, evolver=evolver, source="external"))
    with pytest.raises(ValueError, match="^external source mode needs a potential$"):
        ground_state(f, RelaxConfig(source="external", max_iter=1))


def test_split_rejects_coriolis():
    f = gaussian_packet(G16, sigma=1.2)
    p = uniform_rotation_potential(G16, (0, 0, 0.5))
    with pytest.raises(ValueError):
        run(f, RunConfig(dt=1e-3, steps=1, evolver="split", source="external"), p)


def test_rk4_stability_guard():
    f = gaussian_packet(G32, sigma=1.0)
    with pytest.raises(StabilityError, match="use dt"):
        run(f, RunConfig(dt=1.0, steps=1, evolver="rk4"))


def test_free_gaussian_spreading():
    # density variance per axis: sigma0^2 + (hbar t / 2 m sigma0)^2
    sigma0, m, hbar = 1.2, 1.0, 1.0
    f = gaussian_packet(G32, sigma=sigma0, m=m, hbar=hbar)
    cfg = RunConfig(dt=1e-2, steps=100, evolver="split", source="free")
    out = run(f, cfg).field
    t = out.time
    X = G32.mesh()
    rho = np.sum(np.abs(out.data) ** 2, axis=0)
    var = np.array([float(integrate(rho * X[j] ** 2, G32)) for j in range(3)])
    var /= float(integrate(rho, G32))
    expect = sigma0**2 + (hbar * t / (2 * m * sigma0)) ** 2
    assert np.max(np.abs(var - expect)) < 1e-6
    assert abs(out.norm2 - 1.0) < 1e-12  # split is exactly unitary


def test_split_conserves_free_energy():
    f = gaussian_packet(G32, sigma=1.0, k0=(0.785398163397448, 0, 0))
    E0 = energy_expectation(f.data, None, G32, f.m, f.hbar)
    out = run(f, RunConfig(dt=5e-3, steps=200, evolver="split")).field
    E1 = energy_expectation(out.data, None, G32, out.m, out.hbar)
    assert abs(E1 - E0) < 1e-12


def test_rk4_matches_split_external():
    f = gaussian_packet(G32, sigma=1.0, k0=(0.392699081698724, 0, 0))
    p = GridPotential(G32, U=0.2 * band_limited_noise(G32, 2, 9))
    cfg_s = RunConfig(dt=1e-3, steps=20, evolver="split", source="external")
    cfg_r = RunConfig(dt=1e-3, steps=20, evolver="rk4", source="external")
    a = run(f, cfg_s, p).field
    b = run(f, cfg_r, p).field
    # both are O(dt) exact here well beyond their formal orders; the gap
    # is the Strang dt^2 commutator term
    assert np.max(np.abs(a.data - b.data)) < 1e-9
    assert abs(a.time - b.time) < 1e-15


def _split_reference(f, cfg, p=None):
    """Oracle: Strang steps that evaluate both half-kick phases afresh and
    solve periodic Poisson with the full complex FFT pair."""
    f = f.copy()
    grid, m, hbar = f.grid, f.m, f.hbar
    drift = np.exp(-1j * hbar * grid.k2 * cfg.dt / (2.0 * m))

    def potential(phi):
        if cfg.source != "self":
            return None if p is None else p.U
        rho = mass_density(phi, grid, m)
        if cfg.poisson == "isolated":
            return poisson_isolated(rho, grid, cfg.G)
        k2 = grid.k2.copy()
        k2.flat[0] = 1.0
        F = -fftn(-4.0 * np.pi * cfg.G * rho) / k2
        F.flat[0] = 0.0
        return -ifftn(F).real

    U = potential(f.data)
    for _ in range(cfg.steps):
        if U is not None:
            f.data *= np.exp(-1j * (m / hbar) * U * (cfg.dt / 2.0))
        f.data = ifftn(drift * fftn(f.data))
        if cfg.source == "self":
            U = potential(f.data)
        if U is not None:
            f.data *= np.exp(-1j * (m / hbar) * U * (cfg.dt / 2.0))
        f.time += cfg.dt
    return f


@pytest.mark.parametrize(
    "source, poisson, exact",
    [("free", "periodic", True), ("external", "periodic", True),
     ("self", "isolated", True), ("self", "periodic", False)],
)
def test_split_reuses_half_kick_phase(source, poisson, exact):
    # run evaluates the phase once per U; the reference twice per step
    f = gaussian_packet(G16, sigma=1.2, center=(0.4, -0.3, 0.2), k0=(0.4, 0, -0.2),
                        spin=(0.6, 0.8j), m=1.3, hbar=0.9)
    p = None
    if source == "external":
        p = GridPotential(G16, U=0.5 * band_limited_noise(G16, 2, 17))
    cfg = RunConfig(dt=2e-3, steps=12, source=source, poisson=poisson, G=2.0)
    out = run(f, cfg, p).field
    ref = _split_reference(f, cfg, p)
    assert out.time == ref.time
    if exact:
        assert np.array_equal(out.data, ref.data)
    else:
        assert np.max(np.abs(out.data - ref.data)) <= 1e-13 * np.max(np.abs(ref.data))
        assert not np.array_equal(out.data, ref.data)  # rfftn Poisson rounds differently


SPINS = [(1, 0), (0, 1), (0.6, 0.8j)]


def _spin_packet(grid, spin):
    return gaussian_packet(grid, sigma=1.2, center=(0.4, -0.3, 0.2), k0=(0.4, 0, -0.2),
                           spin=spin, m=1.3, hbar=0.9)


@pytest.mark.parametrize("spin", SPINS[:2])
@pytest.mark.parametrize(
    "source, poisson", [("free", "periodic"), ("external", "periodic"), ("self", "isolated")]
)
def test_split_matches_the_reference_for_every_spinor(spin, source, poisson):
    # the reference advances both components; run only the nonzero ones
    # (the two-component spinor is test_split_reuses_half_kick_phase)
    f = _spin_packet(G16, spin)
    p = None
    if source == "external":
        p = GridPotential(G16, U=0.5 * band_limited_noise(G16, 2, 17))
    cfg = RunConfig(dt=2e-3, steps=12, source=source, poisson=poisson, G=2.0)
    out = run(f, cfg, p).field
    ref = _split_reference(f, cfg, p)
    assert np.array_equal(out.data, ref.data)
    for a in range(2):
        assert np.any(out.data[a]) == (spin[a] != 0)  # a zero component stays exactly zero


@pytest.mark.parametrize("spin", SPINS)
def test_live_components_match_the_full_pair(spin, monkeypatch):
    # oracle: the same loops with both components advanced (the live view
    # replaced by the whole pair); fields, charge records, energies and
    # iteration counts must agree bit for bit
    f = _spin_packet(G16, spin)
    cfg = RunConfig(dt=2e-3, steps=12, source="self", poisson="periodic", G=2.0,
                    monitor_every=4, monitor=compute_charges)
    rcfg = RelaxConfig(G=4.0, dtau=0.02, tol=1e-9, max_iter=60, poisson="isolated")
    live = run(f, cfg), ground_state(f, rcfg)
    monkeypatch.setattr(evolve, "_live", lambda data: slice(0, 2))
    full = run(f, cfg), ground_state(f, rcfg)
    assert np.array_equal(live[0].field.data, full[0].field.data)
    assert live[0].times == full[0].times
    assert len(live[0].records) == 4
    for a, b in zip(live[0].records, full[0].records):
        assert np.array_equal(a.row(), b.row())
    assert np.array_equal(live[1].field.data, full[1].field.data)
    assert np.array_equal(live[1].potential.U, full[1].potential.U)
    for name in ("energy", "iterations", "converged", "residual", "energy_sn"):
        assert getattr(live[1], name) == getattr(full[1], name), name


@pytest.mark.parametrize("spin, width", [((1, 0), 1), ((0, 1), 1), ((0.6, 0.8j), 2)])
def test_split_loops_transform_only_the_live_components(spin, width, monkeypatch):
    # the drift transforms of run touch the nonzero components alone, so the
    # saving cannot silently disappear
    widths = []

    def spy(x, *args, **kwargs):
        widths.append(x.shape[0])
        return fftn(x, *args, **kwargs)

    monkeypatch.setattr(evolve, "fftn", spy)
    f = _spin_packet(G16, spin)
    run(f, RunConfig(dt=2e-3, steps=3, source="self", poisson="periodic"))
    assert widths == [width] * 3


@pytest.mark.parametrize("spin, planes", [((1, 0), 2), ((0, 1), 2), ((0.6, 0.8j), 4), (None, 1)])
def test_ground_state_transforms_only_the_nonzero_planes(spin, planes, monkeypatch):
    # the drift rfftn of each of the three sweeps, and no other, runs on the
    # real and imaginary parts that are not identically zero: 2 per complex
    # component, 1 for a real spin-up packet
    widths = []

    def spy(x, *args, **kwargs):
        widths.append(x.shape[0])
        return rfftn(x, *args, **kwargs)

    monkeypatch.setattr(evolve, "rfftn", spy)
    f = gaussian_packet(G16, sigma=1.2) if spin is None else _spin_packet(G16, spin)
    ground_state(f, RelaxConfig(G=2.0, tol=0.0, max_iter=3, poisson="isolated"))
    assert widths == [planes] * 3


@pytest.mark.parametrize("n", [8, 16])
def test_ground_state_kinetic_energy_by_parseval(n):
    # white noise in all four real planes has content on every plane of the
    # spectrum, the k_z = 0 and Nyquist planes included: with U = 0 the
    # returned energy is the kinetic -(hbar^2/2m) <psi, Delta psi> alone
    grid = GridSpec(n, 5.0)
    rng = np.random.default_rng(n)
    data = rng.standard_normal((2,) + grid.shape) + 1j * rng.standard_normal((2,) + grid.shape)
    f = BispinorField(grid, data, m=1.3, hbar=0.9)
    res = ground_state(f, RelaxConfig(source="external", dtau=1e-3, max_iter=1),
                       GridPotential(grid))
    T = energy_expectation(res.field.data, None, grid, f.m, f.hbar)
    assert abs(res.energy - T) <= 1e-12 * T


def test_monitor_plumbing():
    f = gaussian_packet(G16, sigma=1.2)
    seen = []

    def probe(field, pot):
        seen.append(field.time)
        return field.norm2

    cfg = RunConfig(dt=1e-3, steps=10, monitor_every=5, monitor=probe)
    res = run(f, cfg)
    assert res.times == seen
    assert len(res.records) == 3  # initial state plus steps 5 and 10
    assert np.allclose(seen, [0.0, 5e-3, 1e-2], atol=1e-15)
    assert all(abs(r - 1.0) < 1e-12 for r in res.records)


def test_potential_in_force_keeps_the_base_derivatives():
    # a rigid rotation's varpi is linear in x, so a spectral Jacobian of it
    # rings at the seam (curl 3.0 against 0.3 here); the self-consistent
    # potential must carry the base's exact derivatives over
    base = uniform_rotation_potential(G16, 0.3)
    f = gaussian_packet(G16, sigma=1.0)
    seen = []
    cfg = RunConfig(dt=1e-3, steps=0, evolver="rk4", source="self", monitor_every=1,
                    monitor=lambda field, pot: seen.append(pot))
    run(f, cfg, base)
    pot = seen[0]
    assert np.array_equal(pot.dvarpi, base.dvarpi)
    assert np.array_equal(pot.curl_varpi, base.curl_varpi)
    exact = GridPotential(G16, U=pot.U, varpi=base.varpi, dvarpi=base.dvarpi)
    h, h_exact = (apply_hamiltonian(f.data, q, G16, f.m, f.hbar) for q in (pot, exact))
    assert np.linalg.norm(h - h_exact) <= 1e-12 * np.linalg.norm(h_exact)
    assert max_frequency(pot, G16, f.m, f.hbar) == max_frequency(exact, G16, f.m, f.hbar)
    # the self potential shares the base's Jacobian rather than taking its own
    plain = bandlimited_potential(G16, 5)
    assert np.shares_memory(self_potential(f.data, G16, f.m, 1.0, "periodic", plain).dvarpi,
                            plain.dvarpi)


def test_self_run_takes_the_base_jacobian_once(jacobian_calls):
    # every RK4 stage and every monitor call builds a self potential on the
    # base's varpi; the spectral Jacobian of it is taken once, on the base
    base = bandlimited_potential(G16, 7)
    cfg = RunConfig(dt=1e-3, steps=5, evolver="rk4", source="self", monitor_every=1,
                    monitor=lambda field, pot: compute_charges(field, pot))
    run(gaussian_packet(G16, sigma=1.0), cfg, base)
    assert jacobian_calls == [1]


def test_strang_self_consistent_second_order():
    # split endpoint error against an rk4 reference falls by ~4 per dt halving
    f = gaussian_packet(G32, sigma=1.5)
    T = 0.04

    ref = run(
        f, RunConfig(dt=T / 160, steps=160, evolver="rk4", source="self", G=1.0)
    ).field

    def split_err(steps):
        out = run(
            f, RunConfig(dt=T / steps, steps=steps, evolver="split", source="self", G=1.0)
        ).field
        return float(np.sqrt(np.sum(np.abs(out.data - ref.data) ** 2) * G32.dv))

    e1 = split_err(10)
    e2 = split_err(20)
    assert e2 < 1e-6
    assert 3.0 < e1 / e2 < 5.0


############################################################
# first-order system and continuity
############################################################


def test_chi_relation_closes_line1():
    p = bandlimited_potential(G16, 41)
    phi = bandlimited_spinor(G16, 42)
    m, hbar = 1.2, 0.9
    chi = chi_from_phi(phi, p, G16, m, hbar)
    _, line1, _ = dirac_residual(phi, chi, np.zeros_like(phi), p, m, hbar)
    assert np.max(np.abs(line1)) < 1e-13


def test_dirac_residual_plane_wave():
    # free eigenstate with analytic time derivative solves both lines
    k = np.array([2, -1, 3]) * 2.0 * np.pi / G16.length
    m, hbar = 1.0, 1.0
    X = G16.mesh()
    phase = np.exp(1j * np.einsum("j,j...->...", k, X))
    phi = np.array([0.8 * phase, (0.3 + 0.4j) * phase])
    E = hbar**2 * np.dot(k, k) / (2 * m)
    dt_phi = (-1j * E / hbar) * phi
    chi = chi_from_phi(phi, None, G16, m, hbar)
    node, line1, line2 = dirac_residual(phi, chi, dt_phi, GridPotential(G16), m, hbar)
    assert np.max(np.abs(line1)) < 1e-12
    assert np.max(np.abs(line2)) < 1e-12
    assert np.max(node) < 1e-12


def test_dirac_residual_evolution_centered_difference():
    # centered snapshots of an rk4 run satisfy line2 to O(h^2)
    f0 = gaussian_packet(G32, sigma=1.0, k0=(0.392699081698724, 0, 0))
    p = bandlimited_potential(G32, 8, wamp=0.3)
    m, hbar = f0.m, f0.hbar

    def residual(h):
        snaps = []
        cfg = RunConfig(dt=h, steps=2, evolver="rk4", source="external",
                        monitor_every=1, monitor=lambda fld, pot: fld.copy())
        snaps = run(f0, cfg, p).records
        mid = snaps[1].data
        dt_phi = (snaps[2].data - snaps[0].data) / (2.0 * h)
        chi = chi_from_phi(mid, p, G32, m, hbar)
        node, _, _ = dirac_residual(mid, chi, dt_phi, p, m, hbar)
        return float(np.max(node))

    r1 = residual(2e-3)
    r2 = residual(1e-3)
    assert r2 < 1e-5
    assert 3.5 < r1 / r2 < 4.5


def test_continuity_and_current_forms():
    f = gaussian_packet(G32, sigma=1.0, k0=(0.785398163397448, 0, 0), spin=(0.8, 0.6j))
    p = uniform_rotation_potential(G32, (0.1, -0.2, 0.5))
    chk = current_and_continuity(f.data, p, G32, f.m, f.hbar)
    assert chk.residual_max < 1e-7
    assert chk.form_mismatch < 1e-8
    # dt rho integrates to zero: total mass is stationary
    assert abs(float(integrate(chk.dt_rho, G32))) < 1e-10
    assert np.min(chk.rho) >= 0.0


def test_continuity_bandlimited_exact():
    p = bandlimited_potential(G16, 51)
    phi = bandlimited_spinor(G16, 52, modes=2)
    chk = current_and_continuity(phi, p, G16, 1.0, 1.0)
    # everything in band: operator identity holds to roundoff
    assert chk.residual_max < 1e-12
    assert chk.form_mismatch < 1e-13


############################################################
# gauge maps
############################################################


def _assert_gauge_covariant(grid, p, f):
    # phi' = e phi, e = exp(i m theta/hbar): chi, H phi and the Dirac lines
    # take the factor e, and rho, J, curl varpi and E_paper keep their values.
    # Measured: <= 7.9e-8 relative on the covariant fields (chi on Taub-NUT,
    # set by the aliasing of e phi), <= 5.5e-15 on curl varpi (the exact
    # Jacobians are kept), <= 3.7e-15 on E_paper.
    m, hbar = f.m, f.hbar
    theta = 0.4 * band_limited_noise(grid, 2, 17)
    f2, p2 = gauge_transform(f, p, theta)
    e = np.exp(1j * m / hbar * theta)
    assert np.max(np.abs(np.sum(np.abs(f2.data) ** 2, axis=0)
                         - np.sum(np.abs(f.data) ** 2, axis=0))) < 1e-13
    assert np.max(np.abs(p2.varpi - p.varpi - gradient(theta, grid))) < 1e-13

    def rel(new, old):
        return np.max(np.abs(new - old)) / np.max(np.abs(old))

    chi, dt_phi = bandlimited_spinor(grid, 3), bandlimited_spinor(grid, 4)
    _, l1, l2 = dirac_residual(f.data, chi, dt_phi, p, m, hbar)
    _, k1, k2 = dirac_residual(f2.data, e * chi, e * dt_phi, p2, m, hbar)
    a = current_and_continuity(f.data, p, grid, m, hbar)
    b = current_and_continuity(f2.data, p2, grid, m, hbar)
    pairs = [(chi_from_phi(f2.data, p2, grid, m, hbar), e * chi_from_phi(f.data, p, grid, m, hbar)),
             (apply_hamiltonian(f2.data, p2, grid, m, hbar), e * apply_hamiltonian(f.data, p, grid, m, hbar)),
             (k1, e * l1), (k2, e * l2), (b.J_phi, a.J_phi), (b.J_pair, a.J_pair)]
    assert max(rel(new, old) for new, old in pairs) < 3e-7
    assert rel(p2.curl_varpi, p.curl_varpi) < 2e-14
    E = energy_expectation(f.data, p, grid, m, hbar)
    assert abs(energy_expectation(f2.data, p2, grid, m, hbar) - E) < 1e-13 * abs(E)


def test_gauge_transform_invariance():
    f = gaussian_packet(G32, sigma=1.0, k0=(0.392699081698724, 0, 0))
    _assert_gauge_covariant(G32, uniform_rotation_potential(G32, (0, 0, 0.3)), f)


def test_gauge_transform_invariance_on_taub_nut():
    # the packet sits off the masked core and the seam (L = 24), where
    # varpi phi is smooth
    grid = GridSpec(48, 24.0)
    f = gaussian_packet(grid, sigma=0.7, center=(0, 0, 6), k0=(0.392699081698724, 0, 0))
    _assert_gauge_covariant(grid, taub_nut_grid(grid, a=0.2)[0], f)


def _gauge_commutes(p):
    f = gaussian_packet(G32, sigma=1.0)
    theta = 0.3 * band_limited_noise(G32, 2, 21)
    cfg = RunConfig(dt=1e-3, steps=10, evolver="rk4", source="external")

    evolved = run(f, cfg, p).field
    legA, _ = gauge_transform(evolved, p, theta)

    f2, p2 = gauge_transform(f, p, theta)
    legB = run(f2, cfg, p2).field
    return np.max(np.abs(legA.data - legB.data))


def test_gauge_commutes_with_evolution():
    assert _gauge_commutes(bandlimited_potential(G32, 19, wamp=0.2)) < 1e-8


def test_gauge_commutes_with_evolution_in_the_rigid_frame():
    # the gauged potential keeps the exact Jacobian (theta is periodic), so
    # the non-periodic rigid frame commutes as well as a periodic varpi:
    # 5.3e-12 for both
    assert _gauge_commutes(uniform_rotation_potential(G32, (0, 0, 0.3))) < 1e-8


############################################################
# spin precession
############################################################


def test_spin_derivative_uniform_vorticity():
    # d<sigma>/dt = -(1/2) Omega x <sigma>, exactly: every spin-diagonal
    # piece of H commutes with sigma on the grid
    Om = np.array([0.3, -0.5, 0.8])
    p = uniform_rotation_potential(G32, Om)
    f = gaussian_packet(G32, sigma=1.2, spin=(0.8, 0.36 + 0.48j))
    hphi = apply_hamiltonian(f.data, p, G32, f.m, f.hbar)
    s = np.array([
        float(np.real(np.sum(np.conj(f.data) * np.einsum("ab,b...->a...", PAULI[j], f.data))) * G32.dv)
        for j in range(3)
    ])
    ds_dt = np.array([
        (2.0 / f.hbar) * float(np.imag(
            np.sum(np.conj(np.einsum("ab,b...->a...", PAULI[j], f.data)) * hphi)
        ) * G32.dv)
        for j in range(3)
    ])
    assert np.max(np.abs(ds_dt + 0.5 * np.cross(Om, s))) < 1e-12


def test_spin_precession_evolved():
    # rk4 run in a rigid frame: <sigma> rotates by -|Omega| t / 2 about the axis
    Om = np.array([0.0, 0.0, 0.8])
    p = uniform_rotation_potential(G16, Om)
    f = gaussian_packet(G16, sigma=1.2, spin=(1.0, 1.0))
    cfg = RunConfig(dt=5e-3, steps=100, evolver="rk4", source="external")
    out = run(f, cfg, p).field

    def spin_vec(fld):
        return observables(fld).spin

    s0, s1 = spin_vec(f), spin_vec(out)
    ang = -0.5 * np.linalg.norm(Om) * out.time
    A = SnGroupElement.rotation(Om / np.linalg.norm(Om), ang).A
    assert np.max(np.abs(s1 - A @ s0)) < 1e-8


############################################################
# ground states
############################################################


def test_ground_state_guards():
    f = gaussian_packet(G16, sigma=1.2)
    with pytest.raises(ValueError):
        ground_state(f, RelaxConfig(source="free"))
    with pytest.raises(ValueError):
        ground_state(f, RelaxConfig(source="external"))
    with pytest.raises(ValueError):
        ground_state(f, RelaxConfig(source="external"),
                     p=uniform_rotation_potential(G16, (0, 0, 0.1)))
    # a misspelt mode used to fall through to the isolated solver
    with pytest.raises(ValueError, match="unknown poisson mode 'perodic'"):
        ground_state(f, RelaxConfig(poisson="perodic"))
    # without the guard, max_iter = 0 ends in an AttributeError and dtau = 0
    # returns the untouched packet as "converged"
    for bad in ({"max_iter": 0}, {"dtau": 0.0}, {"dtau": -0.05}, {"tol": -1e-9}):
        with pytest.raises(ValueError, match="ground_state needs"):
            ground_state(f, RelaxConfig(**bad))


@pytest.mark.parametrize("kw", [{"tol": np.inf}, {"max_iter": 2.5}, {"dtau": np.inf},
                                {"G": np.nan}, {"max_iter": True}])
def test_relax_config_fails_closed(kw):
    # tol = inf reported converged=True after one sweep, max_iter = 2.5
    # raised TypeError mid-run, dtau = inf and G = nan failed mid-run on
    # "cannot normalize a field of norm^2 nan", and max_iter = True ran one
    # sweep
    with pytest.raises(ValueError, match="ground_state needs"):
        RelaxConfig(**kw)


def test_ground_state_harmonic_trap():
    # external isotropic well m U = m w^2 |x|^2 / 2: E0 = 1.5 hbar w,
    # density variance hbar / (2 m w) per axis
    X = G32.mesh()
    w = 1.0
    p = GridPotential(G32, U=0.5 * w**2 * np.sum(X**2, axis=0))
    f0 = gaussian_packet(G32, sigma=1.0)
    res = ground_state(f0, RelaxConfig(source="external", dtau=0.02, tol=1e-12), p)
    assert res.converged
    assert not np.any(res.recentred_by)  # an external potential keeps the start
    assert res.energy_sn is None
    assert abs(res.energy - 1.5) < 2e-3
    rho = np.sum(np.abs(res.field.data) ** 2, axis=0)
    var = float(integrate(rho * X[0] ** 2, G32))
    assert abs(var - 0.5) < 5e-3


def _sweep_reference(f0, G, dtau, sweeps, poisson):
    """Oracle: the complex sweep over both components, with the drift written
    out of place, decay * F, and <H> from apply_hamiltonian; returns the
    field and the last energy, under the potential of the last sweep's input."""
    f = f0.copy().normalized()
    grid, m, hbar = f.grid, f.m, f.hbar
    decay = np.exp(-hbar * grid.k2 * dtau / (2.0 * m))
    for _ in range(sweeps):
        pot = self_potential(f.data, grid, m, G, poisson)
        half_kick = np.exp(-(m / hbar) * pot.U * (dtau / 2.0))
        f.data *= half_kick
        f.data = ifftn(decay * fftn(f.data))
        f.data *= half_kick
        f = f.normalized()
        E = energy_expectation(f.data, pot, grid, m, hbar)
    return f, E


def _sweeps(f0, G, dtau, sweeps, poisson):
    """evolve._sweep applied sweeps times to the nonzero real planes of f0,
    normalized; returns the field and <H> under the last sweep's potential."""
    f = f0.copy().normalized()
    grid, m, hbar = f.grid, f.m, f.hbar
    planes = [q for part in (f.data.real, f.data.imag) for q in part if np.any(q)]
    psi = np.stack(planes)
    cfg = RelaxConfig(G=G, dtau=dtau, poisson=poisson)
    decay = np.exp(-hbar * grid.k2[..., : grid.n // 2 + 1] * dtau / (2.0 * m))
    for _ in range(sweeps):
        psi, pot = evolve._sweep(psi, decay, cfg, grid, m, hbar)
    for q, x in zip(planes, psi):
        q[...] = x
    return f, energy_expectation(f.data, pot, grid, m, hbar)


def _assert_matches_sweep_reference(res, E_res, f, E):
    # real transforms round differently from the complex oracle's: 2.9e-15
    # and 9.1e-16 relative measured on the field and the energy
    assert np.max(np.abs(res.data - f.data)) <= 1e-13 * np.max(np.abs(f.data))
    assert abs(E_res - E) <= 1e-13 * abs(E)
    for a in range(2):
        assert np.any(res.data[a]) == np.any(f.data[a])  # zeros stay exactly zero


@pytest.mark.parametrize("poisson", ["isolated", "periodic"])
def test_ground_state_real_planes_match_the_complex_sweep(poisson):
    # a real spin-up packet sweeps as one real plane
    f0 = gaussian_packet(G16, sigma=1.2, center=(0.3, -0.2, 0.1), m=1.3, hbar=0.9)
    G, dtau, sweeps = 4.0, 0.02, 25
    f, E = _sweep_reference(f0, G, dtau, sweeps, poisson)
    _assert_matches_sweep_reference(*_sweeps(f0, G, dtau, sweeps, poisson), f, E)


@pytest.mark.parametrize("spin", SPINS)
@pytest.mark.parametrize("poisson", ["isolated", "periodic"])
def test_ground_state_sweep_reference_for_every_spinor(poisson, spin):
    # the reference sweeps both complex components; _sweep only the nonzero
    # real planes
    f0 = _spin_packet(G16, spin)
    f, E = _sweep_reference(f0, 4.0, 0.02, 25, poisson)
    res, E_res = _sweeps(f0, 4.0, 0.02, 25, poisson)
    _assert_matches_sweep_reference(res, E_res, f, E)
    for a in range(2):
        assert np.any(res.data[a]) == (spin[a] != 0)


def test_ground_state_self_gravity_oracle():
    # radial oracle (M = hbar = m = 1, isolated boundary): G = 4 gives
    # chemical potential -2.604307325, particle energy -0.868102442 and
    # r_rms 1.158803; the 32^3 grid reads -2.5237682, -0.8509607 and
    # 1.1900, 3.1%, 2.0% and 2.7% off at dx = 0.5
    mu0, E0, rms0 = radial_ground_state(G=4.0)
    assert abs(E0 / mu0 - 1.0 / 3.0) < 1e-9  # the virial law
    f0 = gaussian_packet(G32, sigma=1.2)
    res = ground_state(f0, RelaxConfig(G=4.0, dtau=0.02, tol=1e-9, poisson="isolated"))
    assert res.converged
    assert res.iterations > 10
    mu = res.energy
    assert abs(mu - mu0) / abs(mu0) < 0.04
    assert res.energy_sn is not None and res.energy_sn < 0
    assert res.energy_sn > mu  # E = mu - W/2 and W < 0
    assert abs(res.energy_sn - E0) / abs(E0) < 0.03
    # virial: E/mu = 1/3 for the scale-free self-coupled cloud
    assert abs(res.energy_sn / mu - 1.0 / 3.0) < 0.01
    rho = np.sum(np.abs(res.field.data) ** 2, axis=0)
    rms = np.sqrt(float(integrate(rho * np.sum(G32.mesh() ** 2, axis=0), G32)))
    assert abs(rms - rms0) / rms0 < 0.04
    # the sweep's fixed point is O(dtau^2) off the eigenstate: 3.3e-4 here
    assert 1e-4 < res.residual < 1e-3


def test_ground_state_start_offset_does_not_move_mu():
    # at dx = 0.5 the lattice pins a relaxed packet to a node: from a start
    # between nodes the plain sweep slid toward one for 20000 sweeps without
    # converging, and energies stopped early differed by 1e-4 relative. The
    # start's centroid is moved onto the nearest node first
    grid = GridSpec(16, 8.0)
    cfg = RelaxConfig(G=4.0, dtau=0.02, tol=1e-10, max_iter=2000, poisson="isolated")
    offset = np.array([0.13, -0.07, 0.21])
    node, off = (ground_state(gaussian_packet(grid, sigma=1.2, center=c), cfg)
                 for c in (np.zeros(3), offset))
    assert node.converged and off.converged
    assert max(node.fixed_point_residual, off.fixed_point_residual) < cfg.tol
    assert np.max(np.abs(node.recentred_by)) < 1e-15
    # the torus centroid of the cut-off packet: 3e-4 from its centre at L = 8
    assert np.max(np.abs(off.recentred_by + offset)) < 1e-3
    assert abs(off.energy - node.energy) <= 1e-7 * abs(node.energy)  # 4.4e-9 measured


def test_ground_state_leaves_a_node_centred_start_in_place(monkeypatch):
    # the torus centroid of the centred packet of
    # configs/ground_state_self.json comes out 2e-17 off the node: round-off,
    # not a move, so no shift_field transform pair is spent on it
    calls = []
    shift_field = evolve.shift_field
    monkeypatch.setattr(evolve, "shift_field", lambda *a: calls.append(a) or shift_field(*a))
    res = ground_state(gaussian_packet(G32, sigma=1.2), RelaxConfig(max_iter=1))
    assert res.recentred_by.tolist() == [0.0, 0.0, 0.0]
    assert calls == []


def test_ground_state_matches_a_long_plain_sweep():
    # reference: the plain sweep map iterated from the same node-centred start
    # until its fixed-point residual is below 1e-12 (508 sweeps), and <H>
    # of its last input under that input's own potential
    f0 = gaussian_packet(G16, sigma=1.2)
    cfg = RelaxConfig(G=4.0, dtau=0.05, tol=1e-10, poisson="isolated")
    f = f0.copy().normalized()
    psi = f.data.real[:1].copy()
    decay = np.exp(-G16.k2[..., :9] * cfg.dtau / 2.0)
    for _ in range(2000):
        out, pot = evolve._sweep(psi, decay, cfg, G16, f.m, f.hbar)
        if np.sqrt(np.sum((out - psi) ** 2) * G16.dv) < 1e-12:
            break
        psi = out
    else:
        pytest.fail("the plain sweep did not reach residual 1e-12 in 2000 sweeps")
    f.data[0] = psi[0]
    mu = energy_expectation(f.data, pot, G16, f.m, f.hbar)
    res = ground_state(f0, cfg)
    assert res.converged and res.iterations < 200
    assert abs(res.energy - mu) <= 1e-7 * abs(mu)  # 1.8e-11 measured


@pytest.mark.parametrize("source", ["self", "external"])
def test_ground_state_residual_matches_hamiltonian(source):
    X = G16.mesh()
    p = GridPotential(G16, U=0.5 * np.sum(X**2, axis=0)) if source == "external" else None
    f0 = gaussian_packet(G16, sigma=1.2, center=(0.3, -0.2, 0.1), m=1.3, hbar=0.9)
    res = ground_state(f0, RelaxConfig(G=4.0, dtau=0.02, tol=0.0, max_iter=25,
                                       source=source, poisson="isolated"), p)
    f = res.field
    h = apply_hamiltonian(f.data, res.potential, G16, f.m, f.hbar)
    r = np.linalg.norm(h - res.energy * f.data) / np.linalg.norm(f.data)
    assert res.residual == pytest.approx(r, rel=1e-12)
    assert 0.0 < res.residual < 1.0
    # the energy is <H> of the returned state under its own potential
    E = energy_expectation(f.data, res.potential, G16, f.m, f.hbar)
    assert res.energy == pytest.approx(E, rel=1e-14)  # 2.2e-16 measured


############################################################
# covariance of the algebraic pair
############################################################


def test_chi_transforms_with_the_group():
    m, hbar = 1.0, 1.0
    f = gaussian_packet(G32, sigma=0.8, center=(1.0, -0.5, 0.5), m=m, hbar=hbar,
                        time=0.3)
    chi = chi_from_phi(f.data, None, G32, m, hbar)

    b = 2 * np.pi * hbar / (m * G32.length) * np.array([2.0, 0.0, -1.0])
    u = compose(
        SnGroupElement.rotation((0, 0, 1), np.pi / 2),
        SnGroupElement.boost(b),
    )
    f_out, chi_out = represent_pair(u, f, chi)
    p_hat = transform_potentials(u, GridPotential(G32), t_hat=f_out.time)
    assert np.max(np.abs(p_hat.U)) < 1e-14
    chi_direct = chi_from_phi(f_out.data, None, G32, f_out.m, hbar)
    # wrap ghosts of the sigma=0.8 envelope set the floor
    assert np.max(np.abs(chi_out - chi_direct)) < 1e-7
