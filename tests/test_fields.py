import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lln import fields
from lln.fields import (
    BispinorField,
    GridSpec,
    SnapshotDataError,
    band_limited_noise,
    gaussian_packet,
    load_snapshot,
    sample_points,
    save_potentials,
    save_snapshot,
    shift_field,
)
from oracles import observables

G32 = GridSpec(n=32, length=16.0)
G16 = GridSpec(n=16, length=16.0)


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_lln_threads_must_be_a_positive_integer(value, monkeypatch):
    # no silent clamp to one thread and no late failure inside an FFT
    monkeypatch.setenv("LLN_THREADS", value)
    with pytest.raises(ValueError, match="LLN_THREADS"):
        fields._workers()


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(n=7, length=16.0)
    with pytest.raises(ValueError):
        GridSpec(n=2, length=16.0)
    with pytest.raises(ValueError):
        GridSpec(n=16, length=-1.0)
    g = GridSpec(n=16, length=8.0)
    assert g.dx == 0.5
    assert g.dv == 0.125
    ax = g.axis()
    assert ax[0] == -4.0 and ax[-1] == 4.0 - 0.5
    assert abs(ax[g.n // 2]) == 0.0


def test_kvec_matches_fftfreq():
    g = G16
    k1 = g.k1()
    assert np.allclose(k1, 2 * np.pi * np.fft.fftfreq(g.n, d=g.dx))
    # broadcast shapes multiply out to the full grid
    kx, ky, kz = g.kvec
    assert (kx + ky + kz).shape == g.shape


def test_gaussian_packet_moments():
    # sigma is the one-axis standard deviation of the density
    f = gaussian_packet(G32, sigma=1.2)
    assert abs(f.norm2 - 1.0) < 1e-13
    obs = observables(f)
    assert np.max(np.abs(obs.centroid)) < 1e-9
    X = G32.mesh()
    dens = np.sum(np.abs(f.data) ** 2, axis=0)
    for i in range(3):
        var = float(np.sum(X[i] ** 2 * dens) * G32.dv)
        assert abs(var - 1.44) < 1e-8
    assert not obs.edge_warning


def test_gaussian_packet_momentum_and_spin():
    k0 = (2 * np.pi / 16.0) * np.array([1.0, -2.0, 0.0])
    f = gaussian_packet(G32, sigma=1.0, k0=k0, spin=(0.0, 1.0))
    obs = observables(f)
    assert np.max(np.abs(obs.momentum - k0)) < 1e-12
    # spin expectation of the down spinor
    assert np.max(np.abs(obs.spin - np.array([0.0, 0.0, -0.5]))) < 1e-13


def test_gaussian_packet_center_offset():
    # centroid shifts slightly toward the nearest wrap image; 2e-8 at offset 2
    f = gaussian_packet(G32, sigma=1.0, center=(1.0, -0.5, 2.0))
    obs = observables(f)
    assert np.max(np.abs(obs.centroid - np.array([1.0, -0.5, 2.0]))) < 1e-7


def test_band_limited_noise_spectrum():
    a = band_limited_noise(G16, modes=3, seed=5)
    F = np.fft.fftn(a)
    j = np.fft.fftfreq(16, d=1.0 / 16)
    J = np.meshgrid(j, j, j, indexing="ij")
    outside = (np.abs(J[0]) > 3) | (np.abs(J[1]) > 3) | (np.abs(J[2]) > 3)
    assert np.max(np.abs(F[outside])) < 1e-10 * np.max(np.abs(F))
    assert abs(np.max(np.abs(a)) - 1.0) < 1e-12  # peak normalized
    # deterministic in the seed
    b = band_limited_noise(G16, modes=3, seed=5)
    assert np.array_equal(a, b)


def test_parseval():
    f = gaussian_packet(G32, sigma=1.2)
    F = fields.fftn(f.data)
    assert abs(np.sum(np.abs(f.data) ** 2) - np.sum(np.abs(F) ** 2) / G32.n**3) < 1e-12


def test_gradient_antisymmetry():
    # <f, dg/dx> = -<df/dx, g> for the spectral derivative
    a = band_limited_noise(G32, modes=4, seed=1)
    b = band_limited_noise(G32, modes=4, seed=2)
    da = fields.gradient(a, G32)
    db = fields.gradient(b, G32)
    for i in range(3):
        lhs = np.sum(a * db[i]) * G32.dv
        rhs = -np.sum(da[i] * b) * G32.dv
        assert abs(lhs - rhs) < 1e-12


def _gradient_3d(f, grid):
    # oracle: one 3-D forward transform, then i k_j and a 3-D inverse per axis
    F = fields.fftn(np.asarray(f))
    out = np.stack([fields.ifftn(1j * k * F) for k in grid.kvec])
    return out.real if np.isrealobj(f) else out


@pytest.mark.parametrize("real", [True, False])
def test_gradient_per_axis_matches_3d_multiplier(real):
    # white noise fills every mode, the Nyquist planes included
    rng = np.random.default_rng(97)
    f = rng.standard_normal((2, 3) + G16.shape)
    if not real:
        f = f + 1j * rng.standard_normal(f.shape)
    g = fields.gradient(f, G16)
    ref = _gradient_3d(f, G16)
    assert g.shape == ref.shape == (3, 2, 3) + G16.shape
    assert g.dtype == ref.dtype
    assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_gradient_of_plane_wave():
    k = 2 * np.pi / 16.0 * np.array([2.0, -1.0, 3.0])
    X = G16.mesh()
    w = np.exp(1j * np.einsum("i,i...->...", k, X))
    dw = fields.gradient(w, G16)
    for i in range(3):
        assert np.max(np.abs(dw[i] - 1j * k[i] * w)) < 1e-12


def test_curl_div_identities():
    v = band_limited_noise(G16, modes=3, seed=9, comps=(3,))
    assert np.max(np.abs(fields.divergence(fields.curl(v, G16), G16))) < 1e-11
    s = band_limited_noise(G16, modes=3, seed=10)
    assert np.max(np.abs(fields.curl(fields.gradient(s, G16), G16))) < 1e-11


def test_laplacian_consistency():
    s = band_limited_noise(G16, modes=3, seed=11)
    lap = fields.laplacian(s, G16)
    div_grad = fields.divergence(fields.gradient(s, G16), G16)
    assert np.max(np.abs(lap - div_grad)) < 1e-11


def test_shift_field_lattice_is_roll():
    f = gaussian_packet(G32, sigma=1.2)
    sh = shift_field(f.data, G32, np.array([G32.dx, 0.0, 0.0]))
    assert np.max(np.abs(sh - np.roll(f.data, 1, axis=1))) < 1e-13


def test_shift_field_off_lattice_gaussian():
    # spectral shift against the analytic translated gaussian; sigma small
    # enough that wrap images sit below the tolerance
    f = gaussian_packet(G32, sigma=0.8, normalize=False)
    v = np.array([0.31, -0.73, 0.12])
    sh = shift_field(f.data, G32, v)
    ref = gaussian_packet(G32, sigma=0.8, center=v, normalize=False)
    assert np.max(np.abs(sh - ref.data)) < 1e-7


def test_sample_points_on_lattice_exact():
    f = band_limited_noise(G16, modes=4, seed=3, comps=(2,)).astype(complex)
    pts = G16.mesh().reshape(3, -1).T[::37]
    vals = sample_points(f, G16, pts)
    idx = np.round((pts + 8.0) / G16.dx).astype(int) % G16.n
    ref = f[:, idx[:, 0], idx[:, 1], idx[:, 2]]
    assert np.max(np.abs(vals - ref)) < 1e-12


def _sample_points_einsum(f, grid, pts):
    # the one-contraction form sample_points replaced, kept as its oracle
    F = fields.fftn(np.asarray(f))
    E1, E2, E3 = (fields._phase_matrix(grid, pts[:, i]) for i in range(3))
    out = np.einsum("pa,pb,pc,...abc->...p", E1, E2, E3, F, optimize=True)
    return out.real if np.isrealobj(f) else out


@pytest.mark.parametrize("lead", [(), (2,), (9,)])
@pytest.mark.parametrize("count", [1, 37, 5000])  # 5000 spans several chunks
def test_sample_points_matches_one_contraction(lead, count):
    rng = np.random.default_rng(count + len(lead))
    pts = rng.uniform(-8.0, 8.0, size=(count, 3))
    real = rng.standard_normal(lead + G16.shape)
    for f in (real, real + 1j * rng.standard_normal(lead + G16.shape)):
        vals = sample_points(f, G16, pts)
        ref = _sample_points_einsum(f, G16, pts)
        assert vals.shape == lead + (count,)
        assert np.isrealobj(vals) == np.isrealobj(f)
        assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_observables_edge_warning():
    f = gaussian_packet(G32, sigma=1.0, center=(7.5, 0.0, 0.0))
    obs = observables(f)
    assert obs.edge_warning
    assert obs.edge_fraction > 1e-3


def test_snapshot_roundtrip(tmp_path):
    f = gaussian_packet(G32, sigma=1.0, k0=(0.4, 0, 0), m=1.3, hbar=0.7)
    f.time = 0.25
    path = tmp_path / "state.lls"
    save_snapshot(path, f, G=2.0)
    snap = load_snapshot(path)
    assert snap.kind == "bispinor"
    assert snap.grid == G32
    assert snap.m == 1.3 and snap.hbar == 0.7 and snap.G == 2.0
    assert snap.time == 0.25
    g = snap.to_field()
    assert np.array_equal(g.data, f.data)  # bit exact
    assert g.m == f.m and g.time == f.time


def test_potential_snapshot_roundtrip(tmp_path):
    U = band_limited_noise(G16, modes=2, seed=4)
    w = band_limited_noise(G16, modes=2, seed=5, comps=(3,))
    path = tmp_path / "pot.lls"
    save_potentials(path, G16, U, w, m=1.0, hbar=1.0, G=1.0, time=0.0)
    snap = load_snapshot(path)
    assert snap.kind == "potential"
    U2, w2 = snap.to_potentials()
    assert np.array_equal(U2, U)
    assert np.array_equal(w2, w)
    with pytest.raises(ValueError):
        snap.to_field()  # wrong kind


_finite = st.floats(-1e6, 1e6)
_positive = st.floats(1e-3, 1e3)


@settings(database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.sampled_from([4, 6, 8]), length=_positive, seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-100, 1e100), m=_positive, hbar=_positive, G=_finite,
       time=_finite, mass_tag=_positive, poisson=st.sampled_from([None, "periodic", "isolated"]))
def test_snapshot_files_round_trip(tmp_path, n, length, seed, scale, m, hbar, G, time,
                                   mass_tag, poisson):
    grid = GridSpec(n, length)
    rng = np.random.default_rng(seed)
    data = scale * (rng.standard_normal((2,) + grid.shape)
                    + 1j * rng.standard_normal((2,) + grid.shape))
    f = BispinorField(grid=grid, data=data, m=m, hbar=hbar, time=time, mass_tag=mass_tag)
    save_snapshot(tmp_path / "s.lls", f, G=G, poisson=poisson)
    snap = load_snapshot(tmp_path / "s.lls")
    assert (snap.kind, snap.grid, snap.G, snap.poisson) == ("bispinor", grid, G, poisson)
    g = snap.to_field()
    assert np.array_equal(g.data, f.data)
    assert (g.m, g.hbar, g.time, g.mass_tag) == (m, hbar, time, mass_tag)

    U, w = data[0].real, data.imag[[0, 1, 0]]
    save_potentials(tmp_path / "p.lls", grid, U, w, m=m, hbar=hbar, G=G, time=time)
    snap = load_snapshot(tmp_path / "p.lls")
    assert (snap.kind, snap.grid, snap.m, snap.hbar, snap.G, snap.time) == (
        "potential", grid, m, hbar, G, time)
    U2, w2 = snap.to_potentials()
    assert np.array_equal(U2, U) and np.array_equal(w2, w)


def test_load_snapshot_fills_one_field_size_buffer(tmp_path):
    # the payload is read one x3 slab at a time into the final layout: the
    # traced peak is 1.10 field sizes at 32^3 (2.07 with the whole payload
    # read and then transposed into a copy)
    f = gaussian_packet(G32, sigma=1.5, spin=(0.6, 0.8j))
    path = tmp_path / "s.lls"
    save_snapshot(path, f)
    assert np.array_equal(load_snapshot(path).data, f.data)
    tracemalloc.start()
    try:
        load_snapshot(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * f.data.nbytes


def test_snapshot_rejects_nan(tmp_path):
    f = gaussian_packet(G16, sigma=1.0)
    path = tmp_path / "bad.lls"
    save_snapshot(path, f, G=1.0)
    raw = path.read_bytes()
    head, _, payload = raw.partition(b"\n")
    arr = np.frombuffer(payload, dtype=np.complex128).copy()
    arr[3] = np.nan + 0j
    path.write_bytes(head + b"\n" + arr.tobytes())
    with pytest.raises(SnapshotDataError):
        load_snapshot(path)


def test_snapshot_rejects_malformed_header(tmp_path):
    f = gaussian_packet(G16, sigma=1.0)
    path = tmp_path / "s.lls"
    save_snapshot(path, f, G=1.0)
    raw = path.read_bytes()
    head, _, payload = raw.partition(b"\n")
    import json

    hd = json.loads(head)
    for breakage in (
        {"format": "xxx"},
        {"dtype": "float32"},
        {"components": 3},
        {"n": [32, 32, 16]},
    ):
        h2 = dict(hd)
        h2.update(breakage)
        path.write_bytes(json.dumps(h2).encode() + b"\n" + payload)
        with pytest.raises(ValueError):
            load_snapshot(path)


def test_snapshot_rejects_repeated_header_key(tmp_path):
    path = tmp_path / "s.lls"
    save_snapshot(path, gaussian_packet(G16, sigma=1.0))
    head, _, payload = path.read_bytes().partition(b"\n")
    path.write_bytes(head[:-1] + b', "m": 2.0}\n' + payload)
    with pytest.raises(ValueError, match="repeated key 'm'"):
        load_snapshot(path)


def test_snapshot_rejects_truncated_payload(tmp_path):
    f = gaussian_packet(G16, sigma=1.0)
    path = tmp_path / "t.lls"
    save_snapshot(path, f, G=1.0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-64])
    with pytest.raises(ValueError):
        load_snapshot(path)


def test_field_validation():
    with pytest.raises(ValueError, match="sigma"):
        gaussian_packet(G16, sigma=0.0)
    with pytest.raises(ValueError, match="sigma"):
        gaussian_packet(G16, sigma=-1.0)
    with pytest.raises(ValueError, match="normalize"):
        gaussian_packet(G16, spin=(0.0, 0.0))
    with pytest.raises(ValueError):
        BispinorField(grid=G16, data=np.zeros((3,) + G16.shape, dtype=complex), m=1.0, hbar=1.0)
    with pytest.raises(ValueError):
        BispinorField(grid=G16, data=np.zeros((2, 8, 8, 8), dtype=complex), m=1.0, hbar=1.0)
