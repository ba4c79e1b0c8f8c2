"""Periodic grids, spectral calculus, and bispinor field containers.

Everything downstream lives on a cubic box [-L/2, L/2)^3 sampled on an N^3
lattice. Derivatives are spectral (exact on band-limited data), quadrature is
the torus trapezoid rule, and off-lattice values come from the trigonometric
interpolant through the samples. Axis order of every gridded array is
``[..., x1, x2, x3]``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace
from functools import cache, cached_property
from math import prod

import numpy as np
import scipy.fft as sfft

__all__ = [
    "PAULI",
    "GridSpec",
    "BispinorField",
    "sigma_dot",
    "gradient",
    "laplacian",
    "divergence",
    "jacobian",
    "axial_vector",
    "curl",
    "integrate",
    "norm2",
    "density",
    "spin_density",
    "canonical_current",
    "first_moments",
    "gaussian_packet",
    "band_limited_noise",
    "shift_field",
    "resample_separable",
    "sample_points",
    "Snapshot",
    "SnapshotDataError",
    "save_snapshot",
    "save_potentials",
    "load_snapshot",
]

# Pauli matrices, index order [j, row, col].
PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


# points per FFT worker: on 2 vCPUs a second worker cost 16^3 and 32^3
# isolated sweeps CPU (7.4 -> 10.3 and 49.7 -> 50.6 ms per five) for no wall
# time, and cut 64^3 sweeps to 0.64x the wall time at the same CPU
GRAIN = 1 << 17


def _budget() -> int:
    """FFT worker cap: LLN_THREADS, a positive integer, else every CPU."""
    return _parse_budget(os.environ.get("LLN_THREADS", "").strip())


def _workers(points: int = 0) -> int:
    """FFT workers for a transform of `points` elements: one per GRAIN
    points, at most the budget."""
    return min(_budget(), max(1, points // GRAIN))


@cache  # keeps returned values only, so a bad value raises on every call
def _parse_budget(val: str) -> int:
    if not val:
        return os.cpu_count() or 1
    if not val.isdecimal() or int(val) < 1:
        raise ValueError(f"LLN_THREADS must be a positive integer, got {val!r}")
    return int(val)


def _resized(shape, axes, s) -> int:
    """Element count of an array of `shape` with axes[i] resized to s[i]."""
    shape = list(shape)
    for a, m in zip(axes, s):
        shape[a] = m
    return prod(shape)


def fftn(f, axes=(-3, -2, -1), overwrite_x=False):
    return sfft.fftn(f, axes=axes, overwrite_x=overwrite_x, workers=_workers(np.size(f)))


def ifftn(F, axes=(-3, -2, -1), overwrite_x=False):
    return sfft.ifftn(F, axes=axes, overwrite_x=overwrite_x, workers=_workers(np.size(F)))


def rfftn(f, s=None, axes=(-3, -2, -1)):
    s_ = [np.shape(f)[a] for a in axes] if s is None else list(s)
    out = _resized(np.shape(f), axes, s_[:-1] + [s_[-1] // 2 + 1])
    return sfft.rfftn(f, s=s, axes=axes, workers=_workers(max(np.size(f), out)))


def irfftn(F, s, axes=(-3, -2, -1)):
    # count the output given by s: the 64^3 inverse of a 64 x 64 x 33 input
    # keeps the workers of a 64^3 transform
    out = _resized(np.shape(F), axes, s)
    return sfft.irfftn(F, s=s, axes=axes, workers=_workers(max(np.size(F), out)))


@dataclass(frozen=True)
class GridSpec:
    """Cubic periodic grid: n points per axis on a box of side length."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise ValueError("grid size must be even and >= 4")
        if not (0 < self.length < np.inf):
            raise ValueError("box length must be finite and positive")

    @property
    def shape(self):
        return (self.n, self.n, self.n)

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dv(self) -> float:
        return self.dx**3

    def axis(self) -> np.ndarray:
        """Box-centered chart: x_i = (i - n/2) dx, i = 0..n-1."""
        return (np.arange(self.n) - self.n // 2) * self.dx

    def mesh(self) -> np.ndarray:
        """Dense coordinates, shape (3, n, n, n)."""
        a = self.axis()
        return np.stack(np.meshgrid(a, a, a, indexing="ij"))

    def k1(self) -> np.ndarray:
        return 2.0 * np.pi * sfft.fftfreq(self.n, d=self.dx)

    @cached_property
    def kvec(self):
        """Wavenumbers broadcast against the three trailing axes."""
        k = self.k1()
        return (
            k.reshape(-1, 1, 1),
            k.reshape(1, -1, 1),
            k.reshape(1, 1, -1),
        )

    @property
    def k2(self) -> np.ndarray:
        """|k|^2 on the full spectrum, built on each access, never cached."""
        k1, k2, k3 = self.kvec
        return k1**2 + k2**2 + k3**2

    @cached_property
    def inv_laplacian_rfft(self) -> np.ndarray:
        """-1/k^2 on the rfftn half-spectrum (k2[..., :n/2 + 1]), 0 at k = 0."""
        k2 = self.k2[..., : self.n // 2 + 1]
        return np.divide(-1.0, k2, out=np.zeros_like(k2), where=k2 > 0)


def sigma_dot(v, phi):
    """Pointwise sigma(v) phi for a Pauli pair phi[..., grid].

    v is either a constant 3-vector or a vector field (3, n, n, n).
    """
    v = np.asarray(v)
    return np.einsum("j...,jab,b...->a...", v, PAULI, phi)


def _spectral(f, multiplier, axes=(-3, -2, -1)):
    """ifftn(multiplier * fftn(f)) over axes, real for real input; a callable
    multiplier gives the factor of slab i of the first grid axis alone."""
    F = fftn(f, axes=axes)
    if callable(multiplier):
        for i in range(F.shape[-3]):
            F[..., i, :, :] *= multiplier(i)
    else:
        F *= multiplier
    out = ifftn(F, axes=axes, overwrite_x=True)
    return out.real if np.isrealobj(f) else out


def _partial(f, grid: GridSpec, j: int):
    """d_j f: the multiplier i k_j depends on axis j alone, so it is a 1-D
    transform pair along that axis; the other two axes would cancel."""
    return _spectral(f, 1j * grid.kvec[j], axes=(j - 3,))


def gradient(f, grid: GridSpec):
    """Spectral gradient; returns shape (3,) + f.shape."""
    f = np.asarray(f)
    out = np.empty((3,) + f.shape, dtype=float if np.isrealobj(f) else complex)
    for j in range(3):
        out[j] = _partial(f, grid, j)
    return out


def laplacian(f, grid: GridSpec):
    """Spectral Laplacian, -k^2 summed per slab in GridSpec.k2's order."""
    s1, s2, s3 = (k.ravel() ** 2 for k in grid.kvec)
    s12 = -(s1[:, None] + s2)  # s12 - s3 is -(s1 + s2 + s3): rounding is sign-symmetric
    return _spectral(np.asarray(f), lambda i: s12[i, :, None] - s3)


def divergence(v, grid: GridSpec):
    return sum(_partial(v[j], grid, j) for j in range(3))


def jacobian(v, grid: GridSpec):
    """[i, j] = d_i v_j of a vector field v of shape (3,) + grid shape."""
    return np.stack([gradient(v[j], grid) for j in range(3)], axis=1)


def axial_vector(t):
    """eps_ijk t[j, k] over the two leading axes of t: curl v from the
    Jacobian t[j, k] = d_j v_k, x cross p from the moments int x_j p_k."""
    return np.stack([t[1, 2] - t[2, 1], t[2, 0] - t[0, 2], t[0, 1] - t[1, 0]])


def curl(v, grid: GridSpec):
    return axial_vector(jacobian(v, grid))


def integrate(f, grid: GridSpec):
    """Torus quadrature over the trailing grid axes."""
    return np.sum(f, axis=(-3, -2, -1)) * grid.dv


def _abs2(a):
    """|a|^2, squared in the buffer of |a| (np.abs(a) ** 2 makes a second)."""
    sq = np.abs(a)
    return np.multiply(sq, sq, out=sq)


def norm2(a, grid: GridSpec) -> float:
    return float(np.sum(_abs2(a)) * grid.dv)


def density(phi):
    """|phi|^2 summed over the leading component axis."""
    return np.sum(_abs2(phi), axis=0)


def spin_density(phi):
    """phi+ sigma_j phi of a Pauli pair, shape (3,) + grid shape."""
    return np.einsum("a...,jab,b...->j...", np.conj(phi), PAULI, phi).real


def canonical_current(phi, gphi):
    """Im(phi+ d_j phi) summed over components, one row per partial in gphi
    (the gradient of phi, or a sequence of some of its partials), formed
    slab by slab along the first grid axis: no temporary of phi's size."""
    out = np.empty((len(gphi),) + phi.shape[1:])
    for j, dphi in enumerate(gphi):
        for i, slab in enumerate(out[j]):
            np.sum((np.conj(phi[:, i]) * dphi[:, i]).imag, axis=0, out=slab)
    return out


def _marginals(f):
    """The 1-D marginals of f along grid axes 1, 2 and 3."""
    s12 = np.sum(f, axis=-1)
    return np.sum(s12, axis=-1), np.sum(s12, axis=-2), np.sum(f, axis=(-3, -2))


def first_moments(f, grid: GridSpec, marg=None):
    """int x_a f dV for a = 1, 2, 3 from the 1-D marginals of f (or marg,
    its _marginals gathered row by row by the caller; f is then not read).

    Leading component axes of f are carried along: shape (3,) + f.shape[:-3].
    """
    marg = _marginals(f) if marg is None else marg
    return np.stack([mg @ grid.axis() for mg in marg]) * grid.dv


############################################################
# field container
############################################################


@dataclass
class BispinorField:
    """Upper Pauli pair phi on a grid; the lower pair chi is derived, not stored.

    mass_tag tracks the accumulated dilation factor applied by symmetry maps
    (starts at 1; the physical mass m is rescaled in step with it).
    """

    grid: GridSpec
    data: np.ndarray  # (2, n, n, n) complex
    m: float = 1.0
    hbar: float = 1.0
    time: float = 0.0
    mass_tag: float = 1.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != (2,) + self.grid.shape:
            raise ValueError(
                f"bispinor data must have shape (2, n, n, n), got {self.data.shape}"
            )

    def copy(self) -> "BispinorField":
        return replace(self, data=self.data.copy())

    @property
    def norm2(self) -> float:
        return norm2(self.data, self.grid)

    def normalized(self) -> "BispinorField":
        return replace(self, data=self.data / _norm_divisor(self.data, self.grid))


def _norm_divisor(a, grid: GridSpec) -> float:
    """sqrt(norm2(a)), the divisor that normalizes a; a zero or non-finite
    norm is refused."""
    n2 = norm2(a, grid)
    if not 0.0 < n2 < np.inf:
        raise ValueError(f"cannot normalize a field of norm^2 {n2}")
    return np.sqrt(n2)


def gaussian_packet(
    grid: GridSpec,
    sigma: float = 1.0,
    center=(0.0, 0.0, 0.0),
    k0=(0.0, 0.0, 0.0),
    spin=(1.0, 0.0),
    m: float = 1.0,
    hbar: float = 1.0,
    time: float = 0.0,
    normalize: bool = True,
) -> BispinorField:
    """Gaussian wave packet, |phi|^2 of one-axis variance sigma^2.

    Envelope exp(-|x - c|^2 / (4 sigma^2)) times plane phase exp(i k0.(x - c)).
    """
    if not sigma > 0:
        raise ValueError(f"packet width sigma must be positive, got {sigma}")
    # |x - c|^2 and k0.(x - c) from 1-D terms broadcast, summed as the dense
    # mesh's sum and einsum did (the phase from +0): the same bits, no mesh
    d = [grid.axis() - ci for ci in np.asarray(center, dtype=float)]
    kd = [kj * dj for kj, dj in zip(np.asarray(k0, dtype=float), d)]
    env = np.empty(grid.shape, dtype=complex)
    env.real = (d[0] ** 2)[:, None, None] + (d[1] ** 2)[None, :, None] + (d[2] ** 2)[None, None, :]
    np.divide(np.negative(env.real, out=env.real), 4.0 * sigma**2, out=env.real)
    env.imag = ((0.0 + kd[0])[:, None, None] + kd[1][None, :, None]) + kd[2][None, None, :]
    data = np.asarray(spin, dtype=complex).reshape(2, 1, 1, 1) * np.exp(env, out=env)
    del env
    if normalize:
        data /= _norm_divisor(data, grid)
    return BispinorField(grid=grid, data=data, m=m, hbar=hbar, time=time)


def band_limited_noise(grid: GridSpec, modes: int = 4, seed: int = 0, comps=(), real: bool = True):
    """Random smooth field from Fourier modes with |k_i| <= modes * (2 pi / L).

    Useful as a generic test field: trigonometric interpolation and spectral
    derivatives are exact on it. Peak magnitude is normalized to ~1.
    """
    rng = np.random.default_rng(seed)
    shape = tuple(comps) + grid.shape
    F = np.zeros(shape, dtype=complex)
    idx = [i % grid.n for i in range(-modes, modes + 1)]
    sub = np.ix_(*([idx] * 3))
    block = tuple(comps) + (2 * modes + 1,) * 3
    vals = rng.standard_normal(block) + 1j * rng.standard_normal(block)
    F[(Ellipsis,) + sub] = vals
    f = ifftn(F)
    if real:
        f = f.real
    f /= np.max(np.abs(f))
    return f


############################################################
# trigonometric interpolation and resampling
############################################################

# The interpolant through samples f_j at x_j = (j - n/2) dx is
#   f(x) = (1/n) sum_k F_k exp(i k (x + L/2)),   F = fft(f),
# per axis; the L/2 offset matters because fft indexes from the box corner.


def _phase_matrix(grid: GridSpec, pts: np.ndarray) -> np.ndarray:
    """(P, n) matrix E with E @ fft(f) = interpolant values at pts (one axis)."""
    k = grid.k1()
    return np.exp(1j * np.outer(pts + grid.length / 2.0, k)) / grid.n


def shift_field(f, grid: GridSpec, v):
    """g(x) = f(x - v) by spectral phase shift (exact for the interpolant)."""
    v = np.asarray(v, dtype=float)
    # exp(-i k.v) is separable: three 1-D phases broadcast together
    k1, k2, k3 = grid.kvec
    phase = np.exp(-1j * k1 * v[0]) * np.exp(-1j * k2 * v[1]) * np.exp(-1j * k3 * v[2])
    return _spectral(np.asarray(f), phase)


def resample_separable(f, grid: GridSpec, axes_pts) -> np.ndarray:
    """Evaluate the interpolant on a tensor-product lattice.

    axes_pts = (p1, p2, p3), arrays of per-axis sample coordinates. Cost is
    O(n^4) per axis instead of O(n^6) for a dense point cloud. Leading
    component axes of f are carried along.
    """
    F = fftn(np.asarray(f))
    E1, E2, E3 = (_phase_matrix(grid, np.asarray(p, dtype=float)) for p in axes_pts)
    out = np.einsum("pa,qb,rc,...abc->...pqr", E1, E2, E3, F, optimize=True)
    return out.real if np.isrealobj(f) else out


def sample_points(f, grid: GridSpec, pts) -> np.ndarray:
    """Interpolant values at an arbitrary point cloud pts (P, 3).

    Dense O(P n^3) evaluation: per chunk of points, the last axis is
    contracted by one matrix product G = F @ E3^T, then the middle and first
    axes pointwise. Chunks keep G near 2^16 complex entries (1 MB), so the
    working set stays in cache whatever P is. Leading component axes of f
    are carried along; real input gives real output.
    """
    pts = np.asarray(pts, dtype=float)
    F = fftn(np.asarray(f))
    lead = F.shape[:-3]
    n = grid.n
    rows = F.reshape(-1, n)
    P = pts.shape[0]
    chunk = max(1, 65536 // rows.shape[0])
    out = np.empty(lead + (P,), dtype=complex)
    for lo in range(0, P, chunk):
        sl = slice(lo, min(lo + chunk, P))
        E1, E2, E3 = (_phase_matrix(grid, pts[sl, i]) for i in range(3))
        G = (rows @ E3.T).reshape(lead + (n, n, -1))
        out[..., sl] = np.einsum("pa,...ap->...p", E1, np.einsum("pb,...abp->...ap", E2, G))
    return out.real if np.isrealobj(f) else out


############################################################
# snapshot files (.lls)
############################################################

# One utf-8 JSON header line, then raw little-endian complex128. Payload index
# runs components fastest, then x1, then x2, then x3 slowest; in numpy terms a
# C-order array of shape (n3, n2, n1, components).

# the entries every header holds with these values, and the component count
# of each kind of payload
_SNAP_FIXED = {"format": "lls", "version": 1, "dtype": "complex128",
               "endianness": "little", "layout": "components-fastest"}
_SNAP_COMPONENTS = {"bispinor": 2, "potential": 4}


class SnapshotDataError(ValueError):
    """Payload is structurally valid but numerically unusable (NaN/Inf)."""


@dataclass
class Snapshot:
    kind: str  # "bispinor" | "potential"
    grid: GridSpec
    data: np.ndarray  # (C, n, n, n) complex
    m: float
    hbar: float
    G: float
    time: float
    mass_tag: float = 1.0
    poisson: str | None = None  # solver of the self-consistent U, if recorded

    def _payload(self, kind) -> np.ndarray:
        if self.kind != kind:
            raise ValueError(f"snapshot kind is {self.kind!r}, not {kind}")
        return self.data

    def to_field(self) -> BispinorField:
        return BispinorField(
            grid=self.grid,
            data=self._payload("bispinor"),
            m=self.m,
            hbar=self.hbar,
            time=self.time,
            mass_tag=self.mass_tag,
        )

    def to_potentials(self):
        """Returns (U, varpi) as real arrays."""
        data = self._payload("potential").real
        return data[0].copy(), data[1:].copy()


def _write_snapshot(path, kind, grid, data, m, hbar, G, time, mass_tag=1.0, poisson=None):
    data = np.asarray(data, dtype=complex)
    # **_SNAP_FIXED fills the format and version places in place and puts the
    # rest after components: the key order of every header written so far
    header = {
        "format": None,
        "version": None,
        "kind": kind,
        "n": [grid.n, grid.n, grid.n],
        "length": grid.length,
        "components": int(data.shape[0]),
        **_SNAP_FIXED,
        "m": float(m),
        "hbar": float(hbar),
        "G": float(G),
        "time": float(time),
        "mass_tag": float(mass_tag),
    }
    if poisson is not None:
        header["poisson"] = poisson
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for k in range(grid.n):  # one x3 slab at a time, never the whole payload
            fh.write(np.ascontiguousarray(data[..., k].T, dtype="<c16"))


def save_snapshot(path, f: BispinorField, G: float = 0.0, poisson=None):
    """Write f; poisson ("periodic" | "isolated") records how a run solved U."""
    _write_snapshot(
        path, "bispinor", f.grid, f.data, f.m, f.hbar, G, f.time, f.mass_tag, poisson
    )


def save_potentials(path, grid: GridSpec, U, varpi, m=1.0, hbar=1.0, G=0.0, time=0.0):
    data = np.concatenate([np.asarray(U)[None], np.asarray(varpi)]).astype(complex)
    _write_snapshot(path, "potential", grid, data, m, hbar, G, time)


def _json_number(value, integral=False, size=0):
    """value as a float (an int where integral), or with size a list of
    exactly size of them, if it is a JSON int or float (never a bool or a
    string), in the float range (NaN fails too) and whole where integral;
    else None. The number rule of run configs, snapshot headers and group
    elements, each of which words its own refusal."""
    if size:
        items = [_json_number(v, integral) for v in value] if isinstance(value, list) else []
        return items if len(items) == size and None not in items else None
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (not integral or float(value).is_integer())):
        return int(value) if integral else float(value)
    return None


def _unique_keys(pairs) -> dict:
    """A JSON object's dict, refusing a key the object repeats (json alone
    keeps the last copy and drops the others unread)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _load_json(text):
    """The JSON document text, each object's keys unique: the one reader of
    run configs, snapshot headers and group element files."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def load_snapshot(path) -> Snapshot:
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = _load_json(line.decode("utf-8"))
        except ValueError as exc:  # not utf-8, not JSON, or a repeated key
            raise ValueError(f"{path}: malformed snapshot header: {exc}") from exc
        for key in ("kind", "n", "length", "components", "m", "hbar", "G", "time",
                    *_SNAP_FIXED):
            if key not in header:
                raise ValueError(f"{path}: snapshot header missing {key!r}")
        for key, value in _SNAP_FIXED.items():  # 1 is no 1.0 and no true here
            if not (type(header[key]) is type(value) and header[key] == value):
                raise ValueError(f"{path}: snapshot header {key} = {header[key]!r} "
                                 f"must be {value!r}")
        if header.get("poisson", "periodic") not in ("periodic", "isolated"):
            raise ValueError(f"{path}: unknown poisson mode {header['poisson']!r}")
        # held to the config rules; the sizes n and the component count are counts
        counts = {"n": "three whole numbers", "components": "a whole number"}
        num = {}
        for key in ("m", "hbar", "G", "time", "mass_tag", "length", "n", "components"):
            val = header.get(key, 1.0)
            num[key] = _json_number(val, key in counts, 3 if key == "n" else 0)
            if num[key] is None:
                raise ValueError(f"{path}: snapshot header {key} = {val!r} must be "
                                 + counts.get(key, "a finite number"))
        for key in ("m", "hbar", "mass_tag"):
            if not num[key] > 0:
                raise ValueError(f"{path}: snapshot header {key} = {num[key]} must be > 0")
        n1, n2, n3 = num["n"]
        if not (n1 == n2 == n3):
            raise ValueError(f"{path}: only cubic grids are supported")
        grid = GridSpec(n=n1, length=num["length"])
        kind, C = header["kind"], num["components"]
        if not (isinstance(kind, str) and _SNAP_COMPONENTS.get(kind) == C):
            raise ValueError(f"{path}: a {kind!r} snapshot with {C} components is none "
                             f"of the kinds {_SNAP_COMPONENTS}")
        size = (os.fstat(fh.fileno()).st_size - fh.tell()) // 16
        expect = C * grid.n**3
        if size != expect:
            raise ValueError(f"{path}: payload has {size} values, expected {expect}")
        data = np.empty((C,) + grid.shape, dtype=complex)
        slab = np.empty((grid.n, grid.n, C), dtype="<c16")
        for k in range(grid.n):  # one x3 slab at a time, as _write_snapshot wrote
            fh.readinto(slab)
            data[..., k] = slab.T
    if not np.all(np.isfinite(data)):
        raise SnapshotDataError(f"{path}: snapshot contains non-finite values")
    return Snapshot(
        kind=kind,
        grid=grid,
        data=data,
        poisson=header.get("poisson"),
        **{key: num[key] for key in ("m", "hbar", "G", "time", "mass_tag")},
    )
