"""The twelve-parameter symmetry group of the self-gravitating wave equation.

Elements u = (A, b, c, d, e, g, h): a rotation A, a boost velocity b, a space
translation c, time-axis parameters (d, e, g) with the anisotropy constraint
d^3 g^2 = 1, and an s-translation h. The scale factor is nu = d g; a pure
dilation has d = nu^-2, g = nu^3 (space stretches by nu^3, time by nu^5,
giving the dynamical exponent z = 5/3).

The action on Bargmann coordinates is affine, so each element is one 6x6
matrix E = ``u.matrix`` on (x, t, s, 1):

    x -> (A x + b t + c) / g
    t -> (d t + e) / g
    s -> (s - <b, A x> - |b|^2 t / 2 + h) / nu

with last row (0, ..., 0, 1). The group law is the matrix product: compose,
inverse and exp_element read their parameters back off E1 E2, E^-1 and
expm(tau L), and the representation reads its pull-back (input point, input
time and boost phase exponent) off the rows of the inverse matrix.

The spinor representation rescales mass by nu and acts on the 4-component
spinor (phi, chi) by one 4x4 block lower-triangular matrix; the induced
action on (U, varpi) is one real 4x4 matrix. Both take one pushforward: a
resample of the stacked components at the pulled-back points, then the
matrix; see :func:`represent` and :func:`transform_potentials`.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .fields import (
    PAULI,
    BispinorField,
    GridSpec,
    _json_number,
    _load_json,
    sample_points,
    shift_field,
    resample_separable,
)
from .geometry import GridPotential, generator_field, generator_matrix

__all__ = [
    "SnGroupElement",
    "LieParams",
    "quat_from_matrix",
    "matrix_from_quat",
    "su2_from_quat",
    "act",
    "compose",
    "inverse",
    "exp_element",
    "represent",
    "represent_pair",
    "represent_fn",
    "transform_potentials",
    "element_to_dict",
    "element_from_dict",
    "save_element",
    "load_element",
]

_TOL = 1e-9


############################################################
# quaternions (scalar-first, unit norm)
############################################################


def quat_sign_fix(q):
    """Canonical sign: scalar part positive, ties broken by first nonzero."""
    q = np.asarray(q, dtype=float)
    for comp in q:
        if comp > _TOL:
            return q.copy()
        if comp < -_TOL:
            return -q
    return q.copy()


def quat_from_matrix(A):
    """Unit quaternion of a proper rotation (Shepperd's method)."""
    A = np.asarray(A, dtype=float)
    tr = np.trace(A)
    cand = np.array([tr, A[0, 0], A[1, 1], A[2, 2]])
    which = int(np.argmax(cand))
    if which == 0:
        w = np.sqrt(1.0 + tr) / 2.0
        s = 4.0 * w
        q = np.array(
            [w, (A[2, 1] - A[1, 2]) / s, (A[0, 2] - A[2, 0]) / s, (A[1, 0] - A[0, 1]) / s]
        )
    else:
        i = which - 1
        j, k = (i + 1) % 3, (i + 2) % 3
        t = np.sqrt(1.0 + A[i, i] - A[j, j] - A[k, k])
        v = np.empty(4)
        v[1 + i] = t / 2.0
        v[0] = (A[k, j] - A[j, k]) / (2.0 * t)
        v[1 + j] = (A[j, i] + A[i, j]) / (2.0 * t)
        v[1 + k] = (A[k, i] + A[i, k]) / (2.0 * t)
        q = v
    return quat_sign_fix(q / np.linalg.norm(q))


def matrix_from_quat(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def su2_from_quat(q):
    """a = w - i (x s1 + y s2 + z s3); satisfies a sigma(v) a^dag = sigma(Av)."""
    w, x, y, z = q
    return w * np.eye(2, dtype=complex) - 1j * (
        x * PAULI[0] + y * PAULI[1] + z * PAULI[2]
    )


############################################################
# group elements
############################################################


@dataclass
class SnGroupElement:
    """(A, b, c, d, e, g, h) with A in SO(3), d, g > 0, d^3 g^2 = 1."""

    A: np.ndarray = dc_field(default_factory=lambda: np.eye(3))
    b: np.ndarray = dc_field(default_factory=lambda: np.zeros(3))
    c: np.ndarray = dc_field(default_factory=lambda: np.zeros(3))
    d: float = 1.0
    e: float = 0.0
    g: float = 1.0
    h: float = 0.0

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float).reshape(3)
        self.c = np.asarray(self.c, dtype=float).reshape(3)
        self.d, self.e, self.g, self.h = map(float, (self.d, self.e, self.g, self.h))
        if self.A.shape != (3, 3):
            raise ValueError("rotation block must be a 3x3 matrix")
        params = (self.A, self.b, self.c, self.d, self.e, self.g, self.h)
        if not all(np.isfinite(v).all() for v in params):
            raise ValueError("group element entries must be finite")
        if np.max(np.abs(self.A.T @ self.A - np.eye(3))) > 1e-8:
            raise ValueError("rotation block must be orthogonal (A^T A = 1)")
        if np.linalg.det(self.A) < 0:
            raise ValueError("rotation block must be proper (det A = +1)")
        if self.d <= 0 or self.g <= 0:
            raise ValueError("d and g must be positive")
        if abs(self.d**3 * self.g**2 - 1.0) > 1e-8:
            raise ValueError("scaling relation violated: d**3 * g**2 must equal 1")

    @property
    def nu(self) -> float:
        return self.d * self.g

    @cached_property
    def quat(self) -> np.ndarray:
        return quat_from_matrix(self.A)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The 6x6 affine matrix E of the action on (x, t, s, 1); read-only."""
        nu = self.nu
        E = np.zeros((6, 6))
        E[:3, :3] = self.A / self.g
        E[:3, 3] = self.b / self.g
        E[:3, 5] = self.c / self.g
        E[3, 3] = self.d / self.g
        E[3, 5] = self.e / self.g
        E[4, :3] = -(self.A.T @ self.b) / nu
        E[4, 3] = -0.5 * np.dot(self.b, self.b) / nu
        E[4, 4] = 1.0 / nu
        E[4, 5] = self.h / nu
        E[5, 5] = 1.0
        E.setflags(write=False)
        return E

    # ----- constructors -----

    @classmethod
    def rotation(cls, axis, angle: float) -> "SnGroupElement":
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        q = np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis])
        return cls(A=matrix_from_quat(q))

    @classmethod
    def boost(cls, b) -> "SnGroupElement":
        return cls(b=np.asarray(b, dtype=float))

    @classmethod
    def translation(cls, c=(0.0, 0.0, 0.0), e: float = 0.0, h: float = 0.0) -> "SnGroupElement":
        return cls(c=np.asarray(c, dtype=float), e=e, h=h)

    @classmethod
    def dilation(cls, nu: float) -> "SnGroupElement":
        if nu <= 0:
            raise ValueError("dilation factor must be positive")
        return cls(d=nu**-2, g=nu**3)

    @classmethod
    def random(cls, seed: int = 0) -> "SnGroupElement":
        rng = np.random.default_rng(seed)
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        nu = float(np.exp(0.5 * rng.uniform(-1, 1)))
        return cls(
            A=matrix_from_quat(q),
            b=0.5 * rng.standard_normal(3),
            c=0.5 * rng.standard_normal(3),
            d=nu**-2,
            e=0.5 * rng.standard_normal(),
            g=nu**3,
            h=0.5 * rng.standard_normal(),
        )


def _element(E) -> SnGroupElement:
    """The element whose matrix is E, read back off its blocks."""
    nu = 1.0 / E[4, 4]
    d = float(np.sqrt(nu * E[3, 3]))
    g = nu / d
    return SnGroupElement(A=g * E[:3, :3], b=g * E[:3, 3], c=g * E[:3, 5], d=d,
                          e=g * E[3, 5], g=g, h=nu * E[4, 5])


############################################################
# action, composition, inversion
############################################################


def act(u: SnGroupElement, x, t=0.0, s=0.0):
    """Apply u to event coordinates; x may carry leading batch axes (..., 3),
    t and s broadcast against them. Returns (x_hat (..., 3), t_hat, s_hat)."""
    out = generator_field(u.matrix, np.moveaxis(np.asarray(x, dtype=float), -1, 0), t, s)
    return np.moveaxis(out[:3], 0, -1), out[3], out[4]


def compose(u1: SnGroupElement, u2: SnGroupElement) -> SnGroupElement:
    """Group product: (u1 * u2) acts as u1 after u2."""
    return _element(u1.matrix @ u2.matrix)


def inverse(u: SnGroupElement) -> SnGroupElement:
    return _element(np.linalg.inv(u.matrix))


############################################################
# Lie algebra
############################################################


@dataclass
class LieParams:
    """Generator components: rotation omega, boost beta, translations
    (gamma: space, eps: time, eta: vertical), anisotropic dilation delta.

    The vector field is written out at :func:`lln.geometry.generator_matrix`.
    """

    omega: np.ndarray = dc_field(default_factory=lambda: np.zeros(3))
    beta: np.ndarray = dc_field(default_factory=lambda: np.zeros(3))
    gamma: np.ndarray = dc_field(default_factory=lambda: np.zeros(3))
    delta: float = 0.0
    eps: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float).reshape(3)
        self.beta = np.asarray(self.beta, dtype=float).reshape(3)
        self.gamma = np.asarray(self.gamma, dtype=float).reshape(3)


def exp_element(X: LieParams, tau: float = 1.0) -> SnGroupElement:
    """Exponentiate a generator to a finite element.

    The action on (x, t, s) is affine, so the flow is a 6x6 homogeneous
    matrix exponential; the element parameters are read back off its blocks.
    """
    from scipy.linalg import expm  # imported here: 0.1 s of start-up no CLI run needs
    return _element(expm(tau * generator_matrix(X)))


############################################################
# spinor representation
############################################################


def _rep_matrix(u: SnGroupElement) -> np.ndarray:
    """The 4x4 block lower-triangular representation matrix on (phi, chi)."""
    nu = u.nu
    a = su2_from_quat(u.quat)
    R = np.zeros((4, 4), dtype=complex)
    R[:2, :2] = nu**5 * a  # nu^6 * (a / nu)
    R[2:, :2] = nu**6 * (-0.5j) * np.einsum("j,jab,bc->ac", nu * u.b, PAULI, a)
    R[2:, 2:] = nu**7 * a  # nu^6 * nu
    return R


def _pullback(u: SnGroupElement, t_out: float):
    """The output slice at time t_out, read off the matrix of u^-1.

    Returns (M, v, t_in, k, s_in): output point x pulls back to M x + v at
    time t_in, and the output event (x, t_out, 0) to vertical coordinate
    k . x + s_in; the boost phase of the representation is
    exp(i m (k . x + s_in) / hbar).
    """
    F = np.linalg.inv(u.matrix)
    return (F[:3, :3], F[:3, 3] * t_out + F[:3, 5], F[3, 3] * t_out + F[3, 5],
            F[4, :3], F[4, 3] * t_out + F[4, 5])


def _resample_linear(data, grid: GridSpec, M, v):
    """Interpolant of data evaluated at M x + v over the node mesh x.

    Three paths, each exact for the interpolant:

    - M = 1: spectral shift by -v.
    - M with one nonzero per row and column (quarter and half turns about
      axes or face diagonals, times dilations): input coordinate i depends
      on output coordinate perm[i] alone, y_i = M[i, perm[i]] x_perm[i] + v_i.
      The interpolant is evaluated on that 1-D lattice per axis (O(n^4),
      separable) and result axis i is moved to output axis perm[i].
    - any other M (a generic rotation): dense evaluation at every node,
      O(n^6); keep those to small grids.
    """
    if np.max(np.abs(M - np.eye(3))) < 1e-13:
        return shift_field(data, grid, -v)
    perm = np.argmax(np.abs(M), axis=1)
    scale = M[np.arange(3), perm]
    if len(set(perm)) == 3 and np.max(np.abs(M[:, perm] - np.diag(scale))) < 1e-13:
        ax = grid.axis()
        out = resample_separable(data, grid, [scale[i] * ax + v[i] for i in range(3)])
        lead = data.ndim - 3
        return np.ascontiguousarray(np.moveaxis(out, lead + np.arange(3), lead + perm))
    mesh = np.moveaxis(grid.mesh(), 0, -1).reshape(-1, 3)
    pts = mesh @ M.T + v
    vals = sample_points(data, grid, pts)
    return vals.reshape(data.shape[:-3] + grid.shape)


def _pushforward(u: SnGroupElement, data, grid: GridSpec, t_out: float, R):
    """R applied to the stacked components of data resampled at the pull-back
    of the t_out slice, the step shared by spinors and (U, varpi); returns
    (out, k, s_in), with the boost phase exponent of that pull-back."""
    M, v, _, k, s_in = _pullback(u, t_out)
    return np.einsum("ab,b...->a...", R, _resample_linear(data, grid, M, v)), k, s_in


def represent(u: SnGroupElement, f: BispinorField) -> BispinorField:
    """Apply the spinor representation of u to a grid field.

    Output lives on the same grid at time (d t + e)/g, with mass nu m. The
    upper Pauli pair transforms among itself (the representation matrix is
    block lower triangular); use represent_pair to transport a derived chi.
    """
    return _represent_pair(u, f, None)[0]


def represent_pair(u: SnGroupElement, f: BispinorField, chi):
    """Transform (phi, chi) together; returns (field_out, chi_out).

    With chi None only phi is transported and chi_out is None.
    """
    return _represent_pair(u, f, chi)


def _represent_pair(u: SnGroupElement, f: BispinorField, chi):
    grid = f.grid
    t_hat = float(u.matrix[3, 3] * f.time + u.matrix[3, 5])  # the affine t -> (d t + e)/g
    psi = f.data if chi is None else np.concatenate([f.data, np.asarray(chi, dtype=complex)])
    out, k, s_in = _pushforward(u, psi, grid, t_hat, _rep_matrix(u)[:len(psi), :len(psi)])
    # the boost phase exp(i m (k.x + s_in)/hbar) is 1 without boost or s-shift
    if np.any(k) or s_in != 0:
        ratio = f.m * k / f.hbar / (2.0 * np.pi / grid.length)  # k = g b
        if np.max(np.abs(ratio - np.round(ratio))) > 1e-8:  # level 3: represent's caller
            warnings.warn("boost phase wavevector m g b / hbar is not a lattice mode; the "
                          "represented field is discontinuous across the periodic seam",
                          stacklevel=3)
        phase = np.exp(1j * f.m / f.hbar * (np.einsum("j,j...->...", k, grid.mesh()) + s_in))
        out = phase * out
    field = BispinorField(grid=grid, data=out[:2], m=u.nu * f.m, hbar=f.hbar, time=t_hat,
                          mass_tag=u.nu * f.mass_tag)
    return field, None if chi is None else out[2:]


def represent_fn(u: SnGroupElement, fn, m: float, hbar: float):
    """Representation on a callable Pauli pair fn(x, t) -> (..., 2).

    Returns (new_fn, new_mass); chain the mass when composing by hand.
    """
    upper = _rep_matrix(u)[:2, :2]

    def out(x, t):
        x = np.asarray(x, dtype=float)
        M, v, tau, k, s_in = _pullback(u, t)
        val = fn(x @ M.T + v, tau)  # (..., 2)
        phase = np.exp(1j * m / hbar * (x @ k + s_in))
        return phase[..., None] * np.einsum("ab,...b->...a", upper, val)

    return out, u.nu * m


############################################################
# induced action on the potentials
############################################################


def transform_potentials(u: SnGroupElement, p: GridPotential, t_hat=None) -> GridPotential:
    """Pull a static (U, varpi) pair through u.

    U -> nu^4 (U + varpi . A^T b) and varpi -> nu^2 A varpi, both evaluated
    at the pulled-back event: one constant 4x4 matrix, pushed forward as for
    spinors. For a static input the output slice is taken at t_hat (default
    e/g, which pulls back to the t = 0 slice); elements with a boost make a
    static potential time dependent, so pick the slice you mean. Without a
    Coriolis sector only U is resampled, and the image has none either.
    """
    nu = u.nu
    if t_hat is None:
        t_hat = float(u.matrix[3, 5])  # the image (d 0 + e)/g of t = 0
    R = np.zeros((4, 4))
    R[0] = nu**4 * np.concatenate([[1.0], u.A.T @ u.b])
    R[1:, 1:] = nu**2 * u.A
    data = np.concatenate([p.U[None], p.varpi]) if p.coriolis else p.U[None]
    out = _pushforward(u, data, p.grid, t_hat, R[:len(data), :len(data)])[0]
    return GridPotential(p.grid, U=out[0], varpi=out[1:] if p.coriolis else None)


############################################################
# JSON serialization
############################################################


def element_to_dict(u: SnGroupElement) -> dict:
    return {"a": u.quat.tolist(), "b": u.b.tolist(), "c": u.c.tolist(),
            "d": u.d, "e": u.e, "g": u.g, "h": u.h, "nu": u.nu}


# the fields of an element's JSON form: each list's length, 0 for one number
_ELEMENT_FIELDS = {"a": 4, "b": 3, "c": 3, "d": 0, "e": 0, "g": 0, "h": 0, "nu": 0}


def element_from_dict(data: dict) -> SnGroupElement:
    """The element of a dict such as element_to_dict writes, read by the
    config rules (fields._json_number): fields a to h and an optional nu,
    each a JSON number or a list of 4 (a) or 3 (b, c) of them. Any other
    key or value raises ValueError naming it."""
    unknown = sorted(set(data) - set(_ELEMENT_FIELDS))
    if unknown:
        raise ValueError(f"group element has unknown fields {unknown}")
    vals = {}
    for key, size in _ELEMENT_FIELDS.items():
        if key in data:
            vals[key] = _json_number(data[key], size=size)
            if vals[key] is None:
                raise ValueError(f"group element field {key!r} = {data[key]!r} must be "
                                 + (f"a list of {size} numbers" if size else "a number"))
        elif key != "nu":
            raise ValueError(f"group element is missing field {key!r}")
    if not abs(np.linalg.norm(vals["a"]) - 1.0) <= 1e-6:
        raise ValueError("quaternion must have unit length")
    u = SnGroupElement(A=matrix_from_quat(vals["a"]), **{k: vals[k] for k in "bcdegh"})
    if "nu" in vals and not abs(vals["nu"] - u.nu) <= 1e-6:
        raise ValueError("declared nu is inconsistent with d*g")
    return u


def save_element(path, u: SnGroupElement):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(element_to_dict(u), fh, indent=2)
        fh.write("\n")


def load_element(path) -> SnGroupElement:
    with open(path, "r", encoding="utf-8") as fh:
        return element_from_dict(_load_json(fh.read()))
