import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from lln import sngroup
from lln.evolve import chi_from_phi
from lln.fields import (
    PAULI,
    GridSpec,
    band_limited_noise,
    gaussian_packet,
    gradient,
    sample_points,
)
from lln.geometry import (
    DENSITY_WEIGHT,
    GridPotential,
    generator_field,
    generator_matrix,
    lie_derivative_spinor_density,
)
from lln.sngroup import (
    LieParams,
    SnGroupElement,
    act,
    compose,
    element_from_dict,
    element_to_dict,
    exp_element,
    inverse,
    load_element,
    matrix_from_quat,
    quat_from_matrix,
    represent,
    represent_fn,
    represent_pair,
    save_element,
    su2_from_quat,
    transform_potentials,
)
from oracles import observables

G16 = GridSpec(n=16, length=16.0)
G32 = GridSpec(n=32, length=16.0)


def params_close(u, v, tol=1e-12):
    return (
        np.max(np.abs(u.A - v.A)) < tol
        and np.max(np.abs(u.b - v.b)) < tol
        and np.max(np.abs(u.c - v.c)) < tol
        and abs(u.d - v.d) < tol
        and abs(u.e - v.e) < tol
        and abs(u.g - v.g) < tol
        and abs(u.h - v.h) < tol
    )


############################################################
# group structure
############################################################


def test_compose_matches_sequential_action():
    rng = np.random.default_rng(1)
    for seed in range(6):
        u1 = SnGroupElement.random(seed=seed)
        u2 = SnGroupElement.random(seed=seed + 100)
        u12 = compose(u1, u2)
        x = rng.standard_normal((8, 3))
        t = rng.standard_normal(8)
        s = rng.standard_normal(8)
        x2, t2, s2 = act(u2, x, t, s)
        xa, ta, sa = act(u1, x2, t2, s2)
        xb, tb, sb = act(u12, x, t, s)
        assert np.max(np.abs(xa - xb)) < 1e-12
        assert np.max(np.abs(ta - tb)) < 1e-12
        assert np.max(np.abs(sa - sb)) < 1e-12


def test_inverse():
    for seed in range(5):
        u = SnGroupElement.random(seed=seed)
        assert params_close(compose(u, inverse(u)), SnGroupElement.identity(), 1e-12)
        assert params_close(compose(inverse(u), u), SnGroupElement.identity(), 1e-12)
    u = SnGroupElement.random(seed=11)
    x = np.array([[0.3, -1.2, 2.0]])
    xh, th, sh = act(u, x, 0.4, -0.7)
    x0, t0, s0 = act(inverse(u), xh, th, sh)
    assert np.max(np.abs(x0 - x)) < 1e-12
    assert abs(t0 - 0.4) < 1e-12 and abs(s0 + 0.7) < 1e-12


def test_associativity_and_identity():
    u1 = SnGroupElement.random(seed=3)
    u2 = SnGroupElement.random(seed=4)
    u3 = SnGroupElement.random(seed=5)
    assert params_close(compose(compose(u1, u2), u3), compose(u1, compose(u2, u3)), 1e-12)
    e = SnGroupElement.identity()
    assert params_close(compose(e, u1), u1, 1e-15)
    assert params_close(compose(u1, e), u1, 1e-15)


_unit = st.floats(-1.0, 1.0)
_vec = st.tuples(_unit, _unit, _unit)
PROPERTY = settings(database=None, deadline=None, max_examples=60)


@st.composite
def elements(draw):
    q = np.array(draw(st.tuples(_unit, _unit, _unit, _unit)))
    assume(np.linalg.norm(q) > 0.1)
    nu = float(np.exp(draw(st.floats(-0.5, 0.5))))
    return SnGroupElement(A=matrix_from_quat(q / np.linalg.norm(q)), b=draw(_vec),
                          c=draw(_vec), d=nu**-2, e=draw(_unit), g=nu**3, h=draw(_unit))


generators = st.builds(LieParams, omega=_vec, beta=_vec, gamma=_vec, delta=_unit,
                       eps=_unit, eta=_unit)


@PROPERTY
@given(u1=elements(), u2=elements(), u3=elements())
def test_compose_is_associative(u1, u2, u3):
    assert params_close(compose(compose(u1, u2), u3), compose(u1, compose(u2, u3)), 1e-11)


@PROPERTY
@given(u=elements())
def test_inverse_on_both_sides(u):
    e = SnGroupElement.identity()
    assert params_close(compose(u, inverse(u)), e, 1e-11)
    assert params_close(compose(inverse(u), u), e, 1e-11)


@PROPERTY
@given(X=generators, s=_unit, t=_unit)
def test_exp_map_is_a_one_parameter_subgroup(X, s, t):
    assert params_close(compose(exp_element(X, s), exp_element(X, t)),
                        exp_element(X, s + t), 1e-10)


# closed forms of the action and the group law, kept as oracles for the
# matrix path that act, compose and inverse share


def _act_oracle(u, x, t, s):
    Ax = x @ u.A.T
    xh = (Ax + np.multiply.outer(t, u.b) + u.c) / u.g
    sh = (s - Ax @ u.b - 0.5 * np.dot(u.b, u.b) * t + u.h) / u.nu
    return xh, (u.d * t + u.e) / u.g, sh


def _compose_oracle(u1, u2):
    h = (u2.h + u2.nu * u1.h - u2.d * np.dot(u1.b, u1.A @ u2.c)
         - 0.5 * u2.d * u2.e * np.dot(u1.b, u1.b))
    return SnGroupElement(A=u1.A @ u2.A, b=u1.A @ u2.b + u2.d * u1.b,
                          c=u1.A @ u2.c + u2.e * u1.b + u2.g * u1.c, d=u1.d * u2.d,
                          e=u1.d * u2.e + u2.g * u1.e, g=u1.g * u2.g, h=h)


def _inverse_oracle(u):
    At = u.A.T
    h = (0.5 * u.e * np.dot(u.b, u.b) / u.d - np.dot(u.b, u.c) - u.h) / u.nu
    return SnGroupElement(A=At, b=-(At @ u.b) / u.d, c=At @ (u.e * u.b / u.nu - u.c / u.g),
                          d=1.0 / u.d, e=-u.e / u.nu, g=1.0 / u.g, h=h)


_events = st.lists(st.tuples(_unit, _unit, _unit, _unit, _unit), min_size=1, max_size=6)


@PROPERTY
@given(u=elements(), ev=_events)
def test_act_matches_closed_form(u, ev):
    ev = 3.0 * np.array(ev)
    x, t, s = ev[:, :3], ev[:, 3], ev[:, 4]
    for got, ref in zip(act(u, x, t, s), _act_oracle(u, x, t, s)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12


@PROPERTY
@given(u1=elements(), u2=elements())
def test_compose_and_inverse_match_closed_forms(u1, u2):
    assert params_close(compose(u1, u2), _compose_oracle(u1, u2), 1e-11)
    assert params_close(inverse(u1), _inverse_oracle(u1), 1e-11)


@PROPERTY
@given(u=elements(), t_hat=_unit, m=st.floats(0.5, 2.0))
def test_represent_fn_samples_the_pulled_back_event(u, t_hat, m):
    # the output at (x_hat, t_hat) is the input at u^-1 (x_hat, t_hat, 0),
    # times the spinor block and the phase exp(i m s_in / hbar)
    hbar = 0.7
    x_hat = np.random.default_rng(3).uniform(-3, 3, size=(5, 3))
    x_in, t_in, s_in = act(inverse(u), x_hat, t_hat, 0.0)
    upper = u.nu**5 * su2_from_quat(u.quat)
    ref = np.exp(1j * m / hbar * s_in)[:, None] * (packet_fn(x_in, t_in[0]) @ upper.T)
    fn_hat, m_hat = represent_fn(u, packet_fn, m=m, hbar=hbar)
    assert np.max(np.abs(fn_hat(x_hat, t_hat) - ref)) <= 1e-12
    assert m_hat == u.nu * m


def test_element_validation():
    with pytest.raises(ValueError, match="finite"):
        SnGroupElement(d=float("nan"), g=float("nan"))
    with pytest.raises(ValueError, match="finite"):
        SnGroupElement(b=[0.0, float("inf"), 0.0])
    with pytest.raises(ValueError):
        SnGroupElement(A=np.eye(3) + 0.01)
    with pytest.raises(ValueError):
        SnGroupElement(A=np.diag([1.0, 1.0, -1.0]))  # improper
    with pytest.raises(ValueError):
        SnGroupElement(d=-1.0, g=1.0)
    with pytest.raises(ValueError):
        SnGroupElement(d=1.1, g=1.0)  # d^3 g^2 != 1
    with pytest.raises(ValueError):
        SnGroupElement.dilation(-2.0)


def test_dilation_constructor():
    u = SnGroupElement.dilation(1.3)
    assert abs(u.nu - 1.3) < 1e-14
    assert abs(u.d - 1.3**-2) < 1e-14
    assert abs(u.g - 1.3**3) < 1e-14
    assert abs(u.d**3 * u.g**2 - 1.0) < 1e-12
    # space contracts by g, time by g/d = nu^5 / nu^... check exponents
    x, t, s = act(u, np.array([1.0, 0, 0]), 1.0, 1.0)
    assert abs(x[0] - 1.3**-3) < 1e-14
    assert abs(t - 1.3**-5) < 1e-14


def test_time_map_is_affine():
    # the represented field lives at the affine image (d t + e)/g of its time
    u = SnGroupElement.random(seed=9)
    grid = GridSpec(n=8, length=16.0)
    for t in (0.0, 0.7):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the boost is not a lattice mode
            out = represent(u, gaussian_packet(grid, sigma=1.2, time=t))
        assert abs(out.time - (u.d * t + u.e) / u.g) <= 1e-14


############################################################
# quaternions
############################################################


def test_quaternion_conjugation():
    rng = np.random.default_rng(8)
    for _ in range(10):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        A = matrix_from_quat(q)
        a = su2_from_quat(q)
        v = rng.standard_normal(3)
        lhs = a @ np.einsum("j,jab->ab", v, PAULI) @ a.conj().T
        rhs = np.einsum("j,jab->ab", A @ v, PAULI)
        assert np.max(np.abs(lhs - rhs)) < 1e-13
        assert np.max(np.abs(A.T @ A - np.eye(3))) < 1e-13
        assert abs(np.linalg.det(A) - 1.0) < 1e-13


def test_quat_matrix_roundtrip():
    rng = np.random.default_rng(12)
    for _ in range(10):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        q2 = quat_from_matrix(matrix_from_quat(q))
        assert min(np.max(np.abs(q2 - q)), np.max(np.abs(q2 + q))) < 1e-12


############################################################
# exponential map
############################################################


def test_exp_identity_and_families():
    X0 = LieParams()
    assert params_close(exp_element(X0), SnGroupElement.identity(), 1e-14)

    d = exp_element(LieParams(delta=0.3))
    assert params_close(d, SnGroupElement.dilation(np.exp(0.3)), 1e-12)

    om = np.array([0.3, -0.4, 1.2])
    r = exp_element(LieParams(omega=om))
    ref = SnGroupElement.rotation(om / np.linalg.norm(om), np.linalg.norm(om))
    assert np.max(np.abs(r.A - ref.A)) < 1e-12

    b = exp_element(LieParams(beta=[0.2, -0.1, 0.4]))
    assert params_close(b, SnGroupElement.boost([0.2, -0.1, 0.4]), 1e-12)

    tr = exp_element(LieParams(gamma=[1.0, 0.5, -0.25], eps=0.8, eta=-0.3))
    assert params_close(tr, SnGroupElement.translation([1.0, 0.5, -0.25], e=0.8, h=-0.3), 1e-12)


def test_exp_one_parameter_subgroup():
    X = LieParams(omega=[0.2, 0.1, -0.3], beta=[0.05, -0.15, 0.1],
                  gamma=[0.4, 0.0, -0.2], delta=0.1, eps=0.3, eta=0.2)
    u = compose(exp_element(X, 0.7), exp_element(X, 0.5))
    assert params_close(u, exp_element(X, 1.2), 1e-12)


def test_lie_vector_components():
    X = LieParams(omega=[0, 0, 2.0], beta=[1.0, 0, 0], gamma=[0, 3.0, 0],
                  delta=0.2, eps=0.5, eta=0.7)
    Xup = generator_field(generator_matrix(X), [1.0, 0.0, 0.0], t=2.0, s=1.5)
    xx, xt, xs = Xup[:3], Xup[3], Xup[4]
    # omega x x = (0, 2, 0); + t beta = (2, 0, 0); + gamma; - 3 delta x
    assert np.max(np.abs(xx - np.array([2.0 - 0.6, 2.0 + 3.0, 0.0]))) < 1e-14
    assert abs(xt - (-5 * 0.2 * 2.0 + 0.5)) < 1e-14
    assert abs(xs - (-1.0 - 0.2 * 1.5 + 0.7)) < 1e-14


############################################################
# JSON round trip
############################################################


def test_element_json_roundtrip(tmp_path):
    u = SnGroupElement.random(seed=21)
    path = tmp_path / "el.json"
    save_element(path, u)
    v = load_element(path)
    assert params_close(u, v, 1e-12)
    d = element_to_dict(u)
    assert abs(d["nu"] - u.nu) < 1e-14


@settings(database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(u=elements())
def test_element_json_round_trip_property(tmp_path, u):
    save_element(tmp_path / "el.json", u)
    assert params_close(load_element(tmp_path / "el.json"), u, 1e-12)
    assert params_close(element_from_dict(json.loads(json.dumps(element_to_dict(u)))), u, 1e-12)


def test_element_dict_validation():
    base = element_to_dict(SnGroupElement.random(seed=22))
    for key in ("a", "b", "c", "d", "e", "g", "h"):
        broken = {k: v for k, v in base.items() if k != key}
        with pytest.raises(ValueError, match=key):
            element_from_dict(broken)
    bad = dict(base)
    bad["a"] = [1.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        element_from_dict(bad)
    bad = dict(base)
    bad["a"] = [1.0, 1.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        element_from_dict(bad)
    bad = dict(base)
    bad["nu"] = base["nu"] * 1.5
    with pytest.raises(ValueError):
        element_from_dict(bad)
    ok = {k: v for k, v in base.items() if k != "nu"}
    element_from_dict(ok)  # nu is optional


############################################################
# representation on grid fields
############################################################


def test_represent_lattice_translation_exact():
    f = gaussian_packet(G32, sigma=1.2, k0=(2 * np.pi / 16, 0, 0))
    u = SnGroupElement.translation(c=np.array([2, -1, 3]) * G32.dx)
    out = represent(u, f)
    # x_hat = x + c: the output at node y carries the old value at y - c
    ref = np.roll(f.data, (2, -1, 3), axis=(1, 2, 3))
    assert np.max(np.abs(out.data - ref)) < 1e-13
    assert abs(out.norm2 - f.norm2) < 1e-13
    assert out.m == f.m


def test_represent_time_and_vertical_translation():
    f = gaussian_packet(G32, sigma=1.0)
    u = SnGroupElement.translation(e=0.7, h=0.0)
    out = represent(u, f)
    assert np.max(np.abs(out.data - f.data)) < 1e-14  # same slice, shifted tag
    assert abs(out.time - 0.7) < 1e-14
    uv = SnGroupElement.translation(h=0.9)
    outv = represent(uv, f)
    phase = np.exp(-1j * f.m / f.hbar * 0.9)
    assert np.max(np.abs(outv.data - phase * f.data)) < 1e-13


def test_represent_commensurate_boost():
    k1 = 2 * np.pi / G32.length
    b = np.array([2 * k1, 0.0, 0.0])  # m = hbar = 1: lattice mode
    f = gaussian_packet(G32, sigma=1.2)
    p0 = observables(f).momentum
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # commensurate: must not warn
        out = represent(SnGroupElement.boost(b), f)
    p1 = observables(out).momentum
    assert np.max(np.abs(p1 - (p0 + 1.0 * b))) < 1e-10
    assert abs(out.norm2 - f.norm2) < 1e-13


def test_represent_warns_on_incommensurate_boost():
    f = gaussian_packet(G32, sigma=1.2)
    with pytest.warns(UserWarning, match="lattice mode"):
        represent(SnGroupElement.boost([0.37, 0.0, 0.0]), f)


@pytest.mark.parametrize(
    "entry", [represent, lambda u, f: represent_pair(u, f, None)],
    ids=["represent", "represent_pair"],
)
def test_incommensurate_boost_warning_names_the_caller(entry):
    f = gaussian_packet(G16, sigma=1.2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entry(SnGroupElement.boost([0.37, 0.0, 0.0]), f)
    assert [str(w.message) for w in caught] == [
        "boost phase wavevector m g b / hbar is not a lattice mode; "
        "the represented field is discontinuous across the periodic seam"
    ]
    assert caught[0].filename == __file__


def test_represent_quarter_turn():
    f = gaussian_packet(G32, sigma=1.0, center=(1.0, -0.5, 0.0),
                        k0=(2 * np.pi / 16, 0, 0))
    u = SnGroupElement.rotation([0, 0, 1], np.pi / 2)
    out = represent(u, f)
    assert abs(out.norm2 - f.norm2) < 1e-12
    o0, o1 = observables(f), observables(out)
    assert np.max(np.abs(o1.centroid - u.A @ o0.centroid)) < 1e-6
    assert np.max(np.abs(o1.momentum - u.A @ o0.momentum)) < 1e-10
    # spin rotates with the frame
    assert np.max(np.abs(o1.spin - u.A @ o0.spin)) < 1e-10


def test_represent_dilation_norm_scaling():
    # ||rho(u) phi||^2 = nu ||phi||^2; compact packet keeps wrap ghosts tiny
    f = gaussian_packet(G32, sigma=0.8)
    nu = 1.1
    out = represent(SnGroupElement.dilation(nu), f)
    assert abs(out.norm2 / f.norm2 - nu) < 1e-5
    assert abs(out.m - nu * f.m) < 1e-14
    assert abs(out.mass_tag - nu) < 1e-14


def test_grid_cocycle_exact_subgroup():
    # lattice translations, quarter turns, time/vertical shifts: the pullback
    # lands on grid nodes, so the grid cocycle closes to rounding
    re = band_limited_noise(G16, modes=3, seed=41, comps=(2,))
    im = band_limited_noise(G16, modes=3, seed=42, comps=(2,))
    from lln.fields import BispinorField

    f = BispinorField(grid=G16, data=re + 1j * im, m=1.0, hbar=1.0)
    u1 = compose(
        SnGroupElement.rotation([0, 0, 1], np.pi / 2),
        SnGroupElement.translation(c=np.array([2, 1, -1]) * G16.dx, h=0.4),
    )
    u2 = compose(
        SnGroupElement.rotation([1, 0, 0], np.pi),
        SnGroupElement.translation(c=np.array([0, -3, 2]) * G16.dx, e=0.8),
    )
    seq = represent(u1, represent(u2, f))
    direct = represent(compose(u1, u2), f)
    err = min(
        np.max(np.abs(seq.data - direct.data)),
        np.max(np.abs(seq.data + direct.data)),  # spin double cover sign
    )
    assert err < 1e-13
    assert abs(seq.time - direct.time) < 1e-14
    assert abs(seq.m - direct.m) < 1e-14


############################################################
# representation on callables
############################################################


def packet_fn(x, t):
    """Smooth analytic Pauli pair, off shell on purpose."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum((x - np.array([0.5, -0.3, 0.2])) ** 2, axis=-1)
    env = np.exp(-r2 / 6.0 + 1j * (0.4 * x[..., 0] - 0.2 * x[..., 2]))
    env = env * (1.0 + 0.3 * np.sin(0.9 * t))
    out = np.stack([env, 0.5j * env], axis=-1)
    return out


def test_function_side_cocycle():
    rng = np.random.default_rng(55)
    pts = rng.uniform(-3, 3, size=(40, 3))
    t_out = 0.37
    for s1, s2 in ((1, 2), (3, 4), (5, 6)):
        u1 = SnGroupElement.random(seed=s1)
        u2 = SnGroupElement.random(seed=s2)
        f2, m2 = represent_fn(u2, packet_fn, m=1.0, hbar=1.0)
        f21, m21 = represent_fn(u1, f2, m=m2, hbar=1.0)
        f12, m12 = represent_fn(compose(u1, u2), packet_fn, m=1.0, hbar=1.0)
        assert abs(m21 - m12) < 1e-12
        a = f21(pts, t_out).ravel()
        b = f12(pts, t_out).ravel()
        z = np.vdot(b, a)
        z /= abs(z)
        ang = np.angle(z)
        assert min(abs(ang), np.pi - abs(ang)) < 1e-8  # alpha in {0, pi}
        assert np.max(np.abs(a - z * b)) < 1e-12


def test_function_side_matches_grid_side():
    # sampling the transformed callable on the mesh reproduces represent();
    # the grid side pulls back the periodized packet, so wrap ghosts set the
    # floor and the packet must stay compact relative to the stretch
    sig = 0.8
    f = gaussian_packet(G32, sigma=sig)
    amp = float(np.abs(f.data[0]).max())

    def fn(x, t):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x**2, axis=-1)
        out = np.zeros(x.shape[:-1] + (2,), dtype=complex)
        out[..., 0] = amp * np.exp(-r2 / (4 * sig**2))
        return out

    u = SnGroupElement.dilation(1.05)
    out_grid = represent(u, f)
    gn, m2 = represent_fn(u, fn, m=f.m, hbar=f.hbar)
    mesh = np.moveaxis(G32.mesh(), 0, -1)
    ref = np.moveaxis(gn(mesh, out_grid.time), -1, 0)
    assert np.max(np.abs(out_grid.data - ref)) < 1e-6 * np.max(np.abs(ref))
    assert abs(m2 - out_grid.m) < 1e-14


############################################################
# infinitesimal action
############################################################


def four_spinor_field(grid, seed):
    re = band_limited_noise(grid, modes=3, seed=seed, comps=(4,))
    im = band_limited_noise(grid, modes=3, seed=seed + 500, comps=(4,))
    return (re + 1j * im).astype(complex)


def infinitesimal_action(
    X: LieParams,
    psi: np.ndarray,
    grid: GridSpec,
    m: float,
    hbar: float,
    dt_psi=None,
    t0: float = 0.0,
) -> np.ndarray:
    """Group-side Lie derivative of a 4-spinor density on flat space.

    Built directly from the generator data (no metric machinery), as the
    strong-operator derivative: represent(exp(tau X)) = exp(-tau L) with L
    the returned operator. dt_psi is required whenever the generator moves
    time (eps != 0 or delta != 0 at t0 != 0).
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[0] != 4:
        raise ValueError("expected a 4-component spinor field")
    L = generator_matrix(X)
    Xup = generator_field(L, grid.mesh(), t0)
    Xx, Xt, Xs = Xup[:3], Xup[3], Xup[4]

    gpsi = gradient(psi, grid)
    out = np.einsum("j...,ja...->a...", Xx, gpsi)
    if np.any(Xt):
        if dt_psi is None:
            raise ValueError("generator moves time; dt_psi is required")
        out = out + Xt * np.asarray(dt_psi, dtype=complex)
    out = out + (1j * m / hbar) * Xs * psi

    so = np.einsum("j,jab->ab", X.omega, PAULI)
    sb = np.einsum("j,jab->ab", X.beta, PAULI)
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = X.delta * np.eye(2) + 0.5j * so
    block[2:, 2:] = -X.delta * np.eye(2) + 0.5j * so
    block[2:, :2] = 0.5j * sb
    out = out + np.einsum("ab,b...->a...", block, psi)

    out = out + DENSITY_WEIGHT * np.trace(L[:5, :5]) * psi
    return out


def test_infinitesimal_guards():
    psi = four_spinor_field(G16, 61)
    with pytest.raises(ValueError):
        infinitesimal_action(LieParams(eps=1.0), psi, G16, m=1.0, hbar=1.0)
    with pytest.raises(ValueError):
        infinitesimal_action(LieParams(), psi[:2], G16, m=1.0, hbar=1.0)


def test_infinitesimal_matches_geometry_side():
    # two independent builds of the same operator: group data vs Kosmann
    # derivative with the full metric machinery, on a flat background
    psi = four_spinor_field(G32, 62)
    dt_psi = four_spinor_field(G32, 63)
    X = LieParams(omega=[0.2, -0.1, 0.3], beta=[0.1, 0.05, -0.2],
                  gamma=[0.4, -0.3, 0.1], delta=0.12, eps=0.6, eta=-0.25)
    p = GridPotential(G32)
    a = infinitesimal_action(X, psi, G32, m=1.3, hbar=0.8, dt_psi=dt_psi, t0=0.45)
    b = lie_derivative_spinor_density(psi, p, X, m=1.3, hbar=0.8, dt_psi=dt_psi, t0=0.45)
    assert np.max(np.abs(a - b)) < 1e-13


def test_representation_derivative_richardson():
    # (d/dtau) represent(exp(tau X)) at 0 equals minus the generator action,
    # with second-order convergence in the step
    from lln.fields import BispinorField

    psi = four_spinor_field(G16, 64)
    phi, chi = psi[:2], psi[2:]
    X = LieParams(omega=[0.04, -0.03, 0.06], beta=[0.05, 0.02, -0.04],
                  gamma=[0.3, -0.2, 0.1], delta=0.04, eps=0.0, eta=0.12)
    L = infinitesimal_action(X, psi, G16, m=1.0, hbar=1.0)

    def derivative(h):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outs = []
            for sgn in (+1, -1):
                u = exp_element(X, sgn * h)
                f = BispinorField(grid=G16, data=phi, m=1.0, hbar=1.0)
                fo, co = represent_pair(u, f, chi)
                outs.append(np.concatenate([fo.data, co], axis=0))
        return (outs[0] - outs[1]) / (2 * h)

    e1 = np.max(np.abs(derivative(5e-3) + L))
    e2 = np.max(np.abs(derivative(2.5e-3) + L))
    assert e2 < 5e-5  # measured 1.04e-5
    assert 3.5 < e1 / e2 < 4.5  # O(h^2), measured ratio 4.000


def _element_classes():
    k1 = 2 * np.pi / G16.length
    return {
        "translation": SnGroupElement.translation(c=[0.31, -0.2, 1.05], e=0.2, h=0.4),
        "boost": SnGroupElement.boost(k1 * np.array([1.0, -2.0, 0.0])),
        "dilation": SnGroupElement.dilation(1.07),
        "quarter_turn": SnGroupElement.rotation([0, 1, 0], np.pi / 2),
        "rotation": SnGroupElement.rotation([1.0, 2.0, -1.0], 0.7),
    }


@pytest.mark.parametrize("kind", list(_element_classes()))
def test_represent_pair_carries_represent_bit_for_bit(kind):
    # phi goes through the same pull-back, resample and upper block whether
    # or not chi rides along in the stacked resample
    from lln.fields import BispinorField

    psi = four_spinor_field(G16, 65)
    f = BispinorField(grid=G16, data=psi[:2], time=0.3)
    u = _element_classes()[kind]
    fo, chi_out = represent_pair(u, f, psi[2:])
    assert np.array_equal(represent(u, f).data, fo.data)
    assert chi_out.shape == (2,) + G16.shape


@pytest.mark.parametrize("kind", list(_element_classes()))
def test_stacked_fields_resample_in_one_call(kind, monkeypatch):
    # (phi, chi) and (U, varpi) are each pulled back by one resample
    from lln.fields import BispinorField

    calls = []
    resample = sngroup._resample_linear

    def counted(data, *args):
        calls.append(data.shape[0])
        return resample(data, *args)

    monkeypatch.setattr(sngroup, "_resample_linear", counted)
    psi = four_spinor_field(G16, 66)
    u = _element_classes()[kind]
    represent_pair(u, BispinorField(grid=G16, data=psi[:2]), psi[2:])
    assert calls == [4]
    calls.clear()
    p = GridPotential(G16, U=psi[0].real, varpi=psi[1:].imag)
    transform_potentials(u, p, t_hat=0.4)
    assert calls == [4]


############################################################
# induced action on potentials
############################################################


def test_transform_potentials_static_closure():
    # boost-free maps keep a static potential static, and the induced grid
    # actions compose exactly on the commensurate subgroup: quarter turns,
    # lattice shifts, and the dilation with g = 2 (doubled frequencies stay
    # periodic and below Nyquist for modes <= 3 at n = 16)
    U = 0.3 * band_limited_noise(G16, modes=3, seed=71)
    w = 0.2 * band_limited_noise(G16, modes=3, seed=72, comps=(3,))
    p = GridPotential(G16, U=U, varpi=w)
    u1 = compose(SnGroupElement.dilation(2.0 ** (1.0 / 3.0)),
                 SnGroupElement.rotation([0, 0, 1], np.pi / 2))
    u2 = SnGroupElement.translation(c=np.array([1, -2, 0]) * G16.dx, e=0.5)
    seq = transform_potentials(u1, transform_potentials(u2, p))
    direct = transform_potentials(compose(u1, u2), p)
    assert np.max(np.abs(seq.U - direct.U)) < 1e-10
    assert np.max(np.abs(seq.varpi - direct.varpi)) < 1e-10


def test_transform_potentials_boost_term():
    # a pure boost tilts U by the Coriolis projection and fixes varpi
    U = 0.3 * band_limited_noise(G16, modes=3, seed=73)
    w = 0.2 * band_limited_noise(G16, modes=3, seed=74, comps=(3,))
    p = GridPotential(G16, U=U, varpi=w)
    b = np.array([0.3, -0.1, 0.2])
    out = transform_potentials(SnGroupElement.boost(b), p)
    ref_U = U + np.einsum("j...,j->...", w, b)
    assert np.max(np.abs(out.U - ref_U)) < 1e-12
    assert np.max(np.abs(out.varpi - w)) < 1e-12


def test_transform_potentials_dilation_scaling():
    # U scales by nu^4 with coordinates stretched by g = nu^3
    from lln.fields import resample_separable

    U = 0.3 * band_limited_noise(G16, modes=2, seed=75)
    p = GridPotential(G16, U=U)
    nu = 1.1
    out = transform_potentials(SnGroupElement.dilation(nu), p)
    ax = G16.axis()
    ref = nu**4 * resample_separable(U, G16, (nu**3 * ax,) * 3)
    assert np.max(np.abs(out.U - ref)) < 1e-12


############################################################
# resampling paths: lattice-exact turns against the dense interpolant
############################################################


def _signed_permutations():
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            P = np.zeros((3, 3))
            P[np.arange(3), perm] = signs
            yield P


@pytest.mark.parametrize("n", [8, 16])
def test_permuted_lattice_matches_dense(n):
    # every signed permutation, with and without a diagonal scale and a
    # non-lattice shift, against the dense interpolant at a spread of nodes
    grid = GridSpec(n=n, length=16.0)
    rng = np.random.default_rng(n)
    mesh = np.moveaxis(grid.mesh(), 0, -1).reshape(-1, 3)
    nodes = np.unique(np.r_[0, grid.n**3 - 1, rng.integers(0, grid.n**3, 60)])
    for P in _signed_permutations():
        for D in (np.eye(3), np.diag([1.07, 0.93, 1.0])):
            M = D @ P
            for v in (np.zeros(3), np.array([0.31, -0.77, 0.123])):
                for lead in ((1,), (2,), (3,)):
                    shape = lead + grid.shape
                    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    out = sngroup._resample_linear(data, grid, M, v).reshape(lead + (-1,))
                    out = out[..., nodes]
                    ref = sample_points(data, grid, mesh[nodes] @ M.T + v)
                    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def _dense_transform_potentials(u, p, t_hat):
    # transform_potentials with every resampling through the dense interpolant
    grid = p.grid
    pts = act(inverse(u), np.moveaxis(grid.mesh(), 0, -1).reshape(-1, 3), t_hat)[0]
    U_p = sample_points(p.U, grid, pts).reshape(grid.shape)
    w_p = sample_points(p.varpi, grid, pts).reshape((3,) + grid.shape)
    U_hat = u.nu**4 * (U_p + np.einsum("j...,j->...", w_p, u.A.T @ u.b))
    return U_hat, u.nu**2 * np.einsum("ij,j...->i...", u.A, w_p)


def test_transform_potentials_quarter_turn_boost_matches_dense():
    U = 0.3 * band_limited_noise(G16, modes=3, seed=81)
    w = 0.2 * band_limited_noise(G16, modes=3, seed=82, comps=(3,))
    p = GridPotential(G16, U=U, varpi=w)
    b = 2 * np.pi / G16.length * np.array([1.0, 0.0, -2.0])
    u = compose(SnGroupElement.rotation([1, 0, 0], -np.pi / 2), SnGroupElement.boost(b))
    out = transform_potentials(u, p, t_hat=0.4)
    U_ref, w_ref = _dense_transform_potentials(u, p, 0.4)
    assert np.max(np.abs(out.U - U_ref)) <= 1e-13 * np.max(np.abs(U_ref))
    assert np.max(np.abs(out.varpi - w_ref)) <= 1e-13 * np.max(np.abs(w_ref))


def _lattice_elements():
    k1 = 2 * np.pi / G16.length
    quarter = SnGroupElement.rotation([0, 1, 0], np.pi / 2)
    nu = 1.07
    mixed = compose(
        compose(quarter, SnGroupElement.dilation(nu)),
        compose(SnGroupElement.translation(c=[0.31, -0.2, 0.05]),
                SnGroupElement.boost(k1 / nu**3 * np.array([1.0, -1.0, 0.0]))),
    )
    return {
        "quarter_x": SnGroupElement.rotation([1, 0, 0], np.pi / 2),
        "quarter_z_minus": SnGroupElement.rotation([0, 0, 1], -np.pi / 2),
        "half_y": SnGroupElement.rotation([0, 1, 0], np.pi),
        "half_face_diagonal": SnGroupElement.rotation([1, 1, 0], np.pi),
        "quarter_dilation_translation_boost": mixed,
    }


@pytest.fixture
def dense_forbidden(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense sample_points reached")

    monkeypatch.setattr(sngroup, "sample_points", refuse)


@pytest.mark.parametrize("name", sorted(_lattice_elements()))
def test_lattice_elements_avoid_the_dense_path(name, dense_forbidden):
    u = _lattice_elements()[name]
    f = gaussian_packet(G16, sigma=1.2, center=(0.4, -0.3, 0.2), time=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the boosts here are lattice modes
        represent(u, f)
        represent_pair(u, f, chi_from_phi(f.data, None, G16, f.m, f.hbar))
    p = GridPotential(G16, U=0.3 * band_limited_noise(G16, modes=3, seed=83),
                      varpi=0.2 * band_limited_noise(G16, modes=3, seed=84, comps=(3,)))
    transform_potentials(u, p)


def test_generic_rotation_takes_the_dense_path(dense_forbidden):
    f = gaussian_packet(G16, sigma=1.2)
    with pytest.raises(AssertionError, match="dense sample_points reached"):
        represent(SnGroupElement.rotation([1.0, 2.0, -0.5], 0.9), f)
