"""Command line front end.

Subcommands: verify-geometry, evolve, ground-state, charges, symmetry-check.
Run configs are single JSON documents validated fail-closed: repeated keys
(`fields._load_json`, the reader of snapshot headers and element files too),
unknown keys and keys the chosen form of `potentials` or `initial` never
reads, numbers that break the library's one rule (`fields._json_number`,
which reads group elements too), non-string paths, vectors of the wrong
length, output paths in a missing directory and settings that could not take
effect, such as a source mode paired with a potential the solvers refuse
(`evolve._check_source`), are errors. Each subcommand reads and checks every
setting, LLN_THREADS included, before it computes anything.
Exit codes: 0 all checks pass, 1 a check or computation failed (including
non-finite snapshot data; a failed computation prints one `<subcommand>
failed:` line), 2 usage or configuration errors.

Environment: LLN_THREADS (a positive integer, default every CPU) caps the
FFT worker threads; a transform gets one worker per `fields.GRAIN` points
within that cap. LLN_OUTDIR prefixes relative output paths. `import lln`
sets OPENBLAS_NUM_THREADS=1 where unset: numpy's products here are too small
to gain from BLAS threads, and an explicit setting wins.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import charges as charges_mod
from . import evolve as evolve_mod
from . import fields, geometry, gravity, sngroup

__all__ = ["main"]


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _config_phase(source):
    """Every setting is read in this block, before any compute: a malformed
    value leaves as ConfigError (exit 2) naming `source`. Non-finite snapshot
    data is not a config error and stays exit 1."""
    try:
        yield
    except fields.SnapshotDataError:
        raise
    except (TypeError, ValueError, KeyError, IndexError, OSError, OverflowError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _out_path(path):
    base = os.environ.get("LLN_OUTDIR", "")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _check_keys(d: dict, allowed, required, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _section(cfg, name, allowed, required=()) -> dict:
    """cfg[name] checked against its keys; {} when the section is absent."""
    sec = cfg.get(name, {})
    _check_keys(sec, allowed, required, name)
    return sec


def _expect(ok, value, where, what):
    if not ok:
        raise ConfigError(f"{where}: expected {what}, got {value!r}")
    return value


def _num(value, where, integral=False, size=0):
    """A JSON number (with size, a list of exactly size of them) by the
    library's rule, fields._json_number: a float, or an int where integral.
    Anything else is refused, never coerced."""
    number = fields._json_number(value, integral, size)
    _expect(number is not None, value, where, f"a list of {size} finite numbers" if size
            else "an integer" if integral else "a finite number")
    return number


def _flag(value, where) -> bool:
    return _expect(isinstance(value, bool), value, where, "true or false")


def _path(value, where) -> str:
    # an integer would make open() take over a file descriptor
    return _expect(isinstance(value, str) and value, value, where, "a non-empty path")


def _out_file(value, where) -> str:
    path = _out_path(_path(value, where))
    return _expect(os.path.isdir(os.path.dirname(path) or "."), path, where,
                   "a path in an existing directory")


def _out_paths(outputs) -> dict:
    return {k: _out_file(v, f"outputs.{k}") for k, v in outputs.items()}


# the keys each form of a section reads: a key only another form reads is an
# error. potentials: a snapshot alone, or a preset with optional U_point_mass
_POTENTIAL_FORMS = {"snapshot": {"snapshot"}, "none": {"preset", "U_point_mass"},
                    "uniform": {"preset", "U_point_mass", "Omega0"},
                    "taubnut": {"preset", "U_point_mass", "a", "sign", "r_cut"},
                    "gradient": {"preset", "U_point_mass", "theta"}}
_INITIAL_FORMS = {"gaussian": {"kind", "sigma", "center", "k0", "spin", "normalize"},
                  "snapshot": {"kind", "path"}}


def _form(sec, where, key, default, forms) -> str:
    """The form sec[key] names, with sec held to the keys that form reads."""
    form = _expect(isinstance(sec, dict), sec, where, "an object").get(key, default)
    if not (isinstance(form, str) and form in forms):
        raise ConfigError(f"{where}: unknown {key} {form!r}")
    _check_keys(sec, forms[form], (), f"{where} as {form}")
    return form


def _load_config(path, *sections) -> dict:
    """A run config: the shared sections plus `sections`, the first required."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = fields._load_json(fh.read())
    _check_keys(cfg, {"grid", "physics", "potentials", "initial", "outputs", "checks",
                      *sections}, {"grid", "initial", sections[0]}, "config")
    return cfg


def _snapshot_potential(path, grid) -> geometry.GridPotential:
    snap = fields.load_snapshot(path)
    if snap.grid != grid:
        raise ConfigError("potentials snapshot grid does not match run grid")
    return geometry.GridPotential(grid, *snap.to_potentials())


def _build_potentials(cfg, grid):
    """Returns (GridPotential or None). Fail-closed on unknown presets."""
    preset = _form(cfg, "potentials", "preset",
                   "snapshot" if isinstance(cfg, dict) and "snapshot" in cfg else "none",
                   _POTENTIAL_FORMS)
    if preset == "snapshot":
        return _snapshot_potential(_path(cfg["snapshot"], "potentials.snapshot"), grid)
    U, varpi, kw, frame = None, None, {}, None
    if preset == "uniform":
        om = cfg.get("Omega0", 1.0)
        om = _num(om, "potentials.Omega0", size=3 if isinstance(om, list) else 0)
        frame = gravity.uniform_rotation_potential(grid, om)
    elif preset == "taubnut":
        frame, _ = gravity.taub_nut_grid(grid, **{
            k: _num(cfg[k], f"potentials.{k}", integral=k == "sign")
            for k in ("a", "sign", "r_cut") if k in cfg})
    elif preset == "gradient":
        th = cfg.get("theta")
        _check_keys(th or {}, {"amplitude", "sigma"}, {"amplitude", "sigma"},
                    "potentials.theta")
        amp = _num(th["amplitude"], "potentials.theta.amplitude")
        sigma = _num(th["sigma"], "potentials.theta.sigma")
        _expect(sigma > 0, sigma, "potentials.theta.sigma", "a width > 0")
        r2 = np.sum(grid.mesh()**2, axis=0)
        varpi = fields.gradient(amp * np.exp(-r2 / (2.0 * sigma**2)), grid)
    if frame is not None:  # both frames carry their exact Jacobian
        varpi, kw = frame.varpi, {"dvarpi": frame.dvarpi}
    if "U_point_mass" in cfg:
        pm = cfg["U_point_mass"]
        _check_keys(pm, {"GM", "soften"}, {"GM"}, "potentials.U_point_mass")
        soften = _num(pm.get("soften", grid.dx), "potentials.U_point_mass.soften")
        _expect(soften > 0, soften, "potentials.U_point_mass.soften", "a length > 0")
        r = np.sqrt(np.sum(grid.mesh()**2, axis=0) + soften**2)
        U = -_num(pm["GM"], "potentials.U_point_mass.GM") / r
    if U is None and varpi is None:
        return None
    pot = geometry.GridPotential(grid, U=U, varpi=varpi, **kw)
    # a width in range can still underflow: sigma**2 or soften**2 == 0
    if not (np.isfinite(pot.U).all() and np.isfinite(pot.varpi).all()):
        raise ConfigError("potentials: these preset values give a non-finite potential")
    return pot


def _build_initial(cfg, grid, phys) -> fields.BispinorField:
    if _form(cfg, "initial", "kind", None, _INITIAL_FORMS) == "gaussian":
        return fields.gaussian_packet(
            grid,
            sigma=_num(cfg.get("sigma", 1.0), "initial.sigma"),
            center=_num(cfg.get("center", [0.0, 0.0, 0.0]), "initial.center", size=3),
            k0=_num(cfg.get("k0", [0.0, 0.0, 0.0]), "initial.k0", size=3),
            spin=[complex(*_num(s, "initial.spin", size=2)) if isinstance(s, list)
                  else _num(s, "initial.spin") for s in cfg.get("spin", [1.0, 0.0])],
            m=phys["m"], hbar=phys["hbar"],
            normalize=_flag(cfg.get("normalize", True), "initial.normalize"),
        )
    f = fields.load_snapshot(_path(cfg.get("path"), "initial.path")).to_field()
    if f.grid != grid:
        raise ConfigError("initial snapshot grid does not match run grid")
    for key in ("m", "hbar"):
        if abs(getattr(f, key) - phys[key]) > 1e-12:
            raise ConfigError(f"initial snapshot carries {key}={getattr(f, key)} but "
                              f"physics.{key}={phys[key]}")
    return f


def _setup(cfg):
    """Physics constants, potential and initial field of a run config."""
    grid_cfg = _section(cfg, "grid", {"n", "length"}, {"n", "length"})
    grid = fields.GridSpec(n=_num(grid_cfg["n"], "grid.n", integral=True),
                           length=_num(grid_cfg["length"], "grid.length"))
    phys_cfg = _section(cfg, "physics", {"m", "hbar", "G"})
    phys = {k: _num(phys_cfg.get(k, 1.0), f"physics.{k}") for k in ("m", "hbar", "G")}
    if phys["m"] <= 0 or phys["hbar"] <= 0:
        raise ConfigError("physics: m and hbar must be positive")
    # a non-finite potential is reported once, as a config error, not as warnings
    with np.errstate(all="ignore"):
        pot = _build_potentials(cfg.get("potentials", {}), grid)
    return phys, pot, _build_initial(cfg["initial"], grid, phys)


def _solver_config(cls, cfg, name, pot, allowed, count, required=(), **fixed):
    """cls (RunConfig or RelaxConfig) from section `name`: numbers are read
    here, `count` as an integer, names pass as given for cls to check, and
    its source must pair with pot by the solvers' rule."""
    kw = {k: v if k in ("kind", "source", "poisson") else _num(v, f"{name}.{k}", k == count)
          for k, v in _section(cfg, name, allowed, required).items()}
    if "kind" in kw:
        kw["evolver"] = kw.pop("kind")
    rcfg = cls(**fixed, **kw)
    with _config_phase(f"{name}.source"):
        evolve_mod._check_source(rcfg.source, pot)
    return rcfg


def _build_runconfig(cfg, G, pot, monitor_every=0) -> evolve_mod.RunConfig:
    return _solver_config(evolve_mod.RunConfig, cfg, "evolver", pot,
                          {"kind", "dt", "steps", "source", "poisson"}, "steps",
                          {"dt", "steps"}, G=G, monitor_every=monitor_every)


def _write_report(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(report, failures, path) -> int:
    """The result phase of a run subcommand: the report file at `path`, the
    report's scalar entries as the one stdout JSON line and each failed check
    as one stderr line. Exit 1 if any check failed."""
    if path:
        _write_report(path, report)
    print(json.dumps({k: v for k, v in report.items() if not isinstance(v, dict)}))
    for message in failures:
        print(message, file=sys.stderr)
    return 1 if failures else 0


############################################################
# subcommands
############################################################


def cmd_verify_geometry(args) -> int:
    with _config_phase("verify-geometry"):
        _expect(math.isfinite(args.h) and args.h > 0, args.h, "--h", "a finite step > 0")
        _expect(args.samples >= 1, args.samples, "--samples", "a count >= 1")
        _expect(args.points >= 1, args.points, "--points", "a count >= 1")
        _expect(args.seed >= 0, args.seed, "--seed", "an integer >= 0")
        _expect(math.isfinite(args.G), args.G, "--G", "a finite number")
        # the report entries each --tol-<name> bounds
        groups = {"clifford": ("clifford_upper", "clifford_lower", "chirality",
                               "volume_density", "metric_inverse"),
                  "christoffel": ("christoffel_fd", "christoffel_offpattern"),
                  "constraint": ("constraint_scalar", "constraint_vector_uniform")}
        for name in groups:
            tol = getattr(args, f"tol_{name}")
            _expect(math.isfinite(tol) and tol >= 0, tol, f"--tol-{name}", "a finite tolerance >= 0")
        out = args.json and _out_file(args.json, "--json")
        grid = fields.GridSpec(n=args.n, length=args.length)
    rng = np.random.default_rng(args.seed)
    report = {}

    # Clifford relations and chirality over random potential samples
    U = rng.uniform(-3.0, 3.0, size=args.samples)
    w = rng.uniform(-1.0, 1.0, size=(args.samples, 3))
    g = geometry.brinkmann_metric(U, w)
    gi = geometry.brinkmann_metric_inverse(U, w)
    gam = geometry.gamma_set(U, w)
    report["clifford_upper"] = geometry.clifford_residual(gam.upper, gi)
    report["clifford_lower"] = geometry.clifford_residual(gam.lower, g)
    chir = geometry.chirality_matrix(gam, g)
    report["chirality"] = float(np.max(np.abs(chir - np.eye(4))))
    report["volume_density"] = float(np.max(np.abs(geometry.volume_density(g) - 1.0)))
    report["metric_inverse"] = float(
        np.max(np.abs(np.einsum("...ij,...jk->...ik", g, gi) - np.eye(5)))
    )

    # closed-form Christoffels vs finite differences of the metric
    pot = geometry.GridPotential(
        grid,
        U=fields.band_limited_noise(grid, modes=3, seed=int(rng.integers(1 << 30))),
        varpi=fields.band_limited_noise(
            grid, modes=3, seed=int(rng.integers(1 << 30)), comps=(3,)
        ),
    )
    pts = rng.uniform(-grid.length / 4, grid.length / 4, size=(args.points, 3))
    worst_pat, worst_zero = 0.0, 0.0
    for x in pts:
        samp = pot.sample(x, derivatives=True)
        closed = geometry.christoffels(samp)[0]
        fd = geometry.christoffels_fd(pot, x, h=args.h)
        # np.maximum, unlike max, carries a NaN through to the verdict
        worst_pat = np.maximum(worst_pat, np.max(np.abs(closed - fd)))
        mask = np.abs(closed) < 1e-14
        worst_zero = np.maximum(worst_zero, np.max(np.abs(fd[mask])))
    report["christoffel_fd"] = float(worst_pat)
    report["christoffel_offpattern"] = float(worst_zero)

    # curvature constraint on a solved configuration
    rho = fields.band_limited_noise(grid, modes=3, seed=7)
    rho = rho - rho.mean()
    Usol = gravity.constraint_potential(grid, rho, varpi_curl2=pot.omega2, G=args.G)
    solved = geometry.GridPotential(grid, U=Usol, varpi=pot.varpi, dvarpi=pot.dvarpi)
    chk = geometry.ricci_constraint_residual(solved, rho=rho, G=args.G)
    report["constraint_scalar"] = chk.scalar_max_meanfree
    report["constraint_vector_uniform"] = geometry.ricci_constraint_residual(
        gravity.uniform_rotation_potential(grid, 0.7)).vector_max

    tols = {k: getattr(args, f"tol_{name}") for name, keys in groups.items() for k in keys}
    # every verdict is written `not (v <= tol)`, so that NaN fails
    failures = {k: v for k, v in report.items() if not (v <= tols[k])}
    report["pass"] = not failures
    if out:
        _write_report(out, report)
    for key in sorted(report):
        if key != "pass":
            print(f"{key:28s} {report[key]:.3e}  (tol {tols[key]:.1e})")
    if failures:
        print(f"FAIL: {sorted(failures)}", file=sys.stderr)
        return 1
    print("geometry checks passed")
    return 0


def cmd_evolve(args) -> int:
    with _config_phase(args.config):
        cfg = _load_config(args.config, "evolver")
        phys, pot, f0 = _setup(cfg)
        outputs = _section(cfg, "outputs",
                           {"charges_csv", "charges_every", "snapshot", "report"})
        every = _num(outputs.pop("charges_every", 0), "outputs.charges_every", integral=True)
        _expect(every >= 0, every, "outputs.charges_every", "a step count >= 0")
        paths = _out_paths(outputs)
        checks = _section(cfg, "checks", {"norm_tol", "charge_tols"})
        tols = checks.get("charge_tols", {})
        _expect(isinstance(tols, dict), tols, "checks.charge_tols", "an object")
        tols = {k: _num(v, f"checks.charge_tols.{k}") for k, v in tols.items()}
        if (tols or "charges_csv" in paths) and not every:
            raise ConfigError("checks.charge_tols and outputs.charges_csv need "
                              "outputs.charges_every > 0")
        norm_tol = _num(checks["norm_tol"], "checks.norm_tol") if "norm_tol" in checks else None
        rcfg = _build_runconfig(cfg, phys["G"], pot, monitor_every=every)
    if every:
        rcfg.monitor = charges_mod.compute_charges

    norm0 = f0.norm2
    handed, f0 = [f0], None  # from a list, f0 is freed once run has its own copy
    result = evolve_mod.run(handed.pop(), rcfg, pot)
    report = {"steps": rcfg.steps, "dt": rcfg.dt, "final_time": result.field.time,
              "final_norm2": result.field.norm2}
    failures = []
    if result.records:
        drifts = charges_mod.drift_stats(result.records)
        report["charge_drift"] = drifts
        # which charges exist depends on the run's mode, so names are
        # checked here rather than in the config phase
        for name, tol in tols.items():
            if name not in drifts:
                raise ConfigError(f"check on unknown charge {name!r}")
            if not (drifts[name] <= tol):
                failures.append(f"charge drift {name} = {drifts[name]:.3e} exceeds {tol}")
        if "charges_csv" in paths:
            charges_mod.write_csv(result.records, paths["charges_csv"])
    if norm_tol is not None:
        drift = abs(result.field.norm2 - norm0)
        report["norm_drift"] = drift
        if not (drift <= norm_tol):
            failures.append(f"norm drift {drift:.3e} exceeds {norm_tol}")
    if "snapshot" in paths:
        fields.save_snapshot(paths["snapshot"], result.field, G=phys["G"],
                             poisson=rcfg.poisson)
    return _finish(report, failures, paths.get("report"))


def cmd_ground_state(args) -> int:
    with _config_phase(args.config):
        cfg = _load_config(args.config, "relax")
        phys, pot, f0 = _setup(cfg)
        rcfg = _solver_config(evolve_mod.RelaxConfig, cfg, "relax", pot, {
            "dtau", "tol", "max_iter", "source", "poisson"}, "max_iter", G=phys["G"])
        paths = _out_paths(_section(cfg, "outputs", {"snapshot", "report"}))
        checks = _section(cfg, "checks", {"require_converged", "energy_window"})
        require = _flag(checks.get("require_converged", True), "checks.require_converged")
        window = (_num(checks["energy_window"], "checks.energy_window", size=2)
                  if "energy_window" in checks else None)

    res = evolve_mod.ground_state(f0, rcfg, pot)
    failures = ["relaxation did not converge"] if require and not res.converged else []
    if window is not None and not (window[0] <= res.energy <= window[1]):
        failures.append(f"energy {res.energy:.6g} outside window [{window[0]}, {window[1]}]")
    if "snapshot" in paths:
        fields.save_snapshot(paths["snapshot"], res.field, G=phys["G"], poisson=rcfg.poisson)
    report = {"energy": res.energy, "iterations": res.iterations,
              "converged": res.converged, "residual": res.residual,
              "fixed_point_residual": res.fixed_point_residual,
              "recentred_by": [float(v) for v in res.recentred_by]}
    return _finish(report, failures, paths.get("report"))


def cmd_charges(args) -> int:
    with _config_phase(f"--mode {args.mode}"):
        evolve_mod._check_source(args.mode, args.potentials or None)
    if args.poisson and args.mode != "self":
        raise ConfigError("--poisson: only --mode self solves a Poisson equation")
    with _config_phase(f"--snapshot {args.snapshot}"):
        out = args.out and _out_file(args.out, "--out")
        snap = fields.load_snapshot(args.snapshot)
        f = snap.to_field()
    pot = None
    if args.potentials:
        with _config_phase(f"--potentials {args.potentials}"):
            pot = _snapshot_potential(args.potentials, f.grid)
    if args.mode == "self":
        # the solver the run used, as recorded in the header; files written
        # before the header carried it were periodic. The self-consistent U
        # goes on top of any external potential, as in the run
        poisson = args.poisson or snap.poisson or "periodic"
        pot = evolve_mod.self_potential(f.data, f.grid, f.m, snap.G, poisson, pot)
    rec = charges_mod.compute_charges(f, pot)
    if out:
        charges_mod.write_csv([rec], out)
    # strict JSON: a charge that is not defined in this mode (E_sn outside
    # self mode) is null, where the CSV writes nan
    payload = {k: v if math.isfinite(v) else None
               for k, v in zip(charges_mod.CSV_COLUMNS, rec.row())}
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    return 0


def cmd_symmetry_check(args) -> int:
    with _config_phase(args.config):
        cfg = _load_config(args.config, "evolver", "element", "element_path")
        if ("element" in cfg) == ("element_path" in cfg):
            raise ConfigError("provide exactly one of element, element_path")
        phys, pot, f0 = _setup(cfg)
        if "element" in cfg:
            u = sngroup.element_from_dict(cfg["element"])
        else:
            u = sngroup.load_element(_path(cfg["element_path"], "element_path"))
        rcfg = _build_runconfig(cfg, phys["G"], pot)
        tol = _num(_section(cfg, "checks", {"tol"}).get("tol", 1e-3), "checks.tol")
        paths = _out_paths(_section(cfg, "outputs", {"report"}))

    res = charges_mod.covariance_test(f0, u, rcfg, pot)
    failures = ([f"covariance discrepancy {res['rel_l2']:.3e} exceeds {tol}"]
                if not (res["rel_l2"] <= tol) else [])
    report = {"rel_l2": res["rel_l2"], "final_time": res["final_time_A"], "nu": u.nu}
    return _finish(report, failures, paths.get("report"))


############################################################
# entry point
############################################################


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lln",
        description="Workbench for the self-gravitating spin-1/2 wave equation "
        "and its Bargmann-lift symmetries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("verify-geometry", help="Clifford/connection/curvature self checks")
    pg.add_argument("--n", type=int, default=16)
    pg.add_argument("--length", type=float, default=16.0)
    pg.add_argument("--samples", type=int, default=500)
    pg.add_argument("--points", type=int, default=5)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--h", type=float, default=1e-3)
    pg.add_argument("--G", type=float, default=1.0)
    pg.add_argument("--tol-clifford", type=float, default=1e-12)
    pg.add_argument("--tol-christoffel", type=float, default=1e-5)
    pg.add_argument("--tol-constraint", type=float, default=1e-8)
    pg.add_argument("--json", help="write a JSON report here")
    pg.set_defaults(func=cmd_verify_geometry)

    pe = sub.add_parser("evolve", help="advance a state and monitor charges")
    pe.add_argument("--config", required=True)
    pe.set_defaults(func=cmd_evolve)

    pq = sub.add_parser("ground-state", help="imaginary-time relaxation")
    pq.add_argument("--config", required=True)
    pq.set_defaults(func=cmd_ground_state)

    pc = sub.add_parser("charges", help="charges of a stored snapshot")
    pc.add_argument("--snapshot", required=True)
    pc.add_argument("--potentials", help="optional potential snapshot (.lls)")
    pc.add_argument("--mode", choices=("free", "external", "self"), default="free")
    pc.add_argument("--poisson", choices=("periodic", "isolated"),
                    help="Poisson solver for --mode self (default: the one recorded "
                    "in the snapshot header, else periodic)")
    pc.add_argument("--out", help="write a one-row charge CSV here")
    pc.set_defaults(func=cmd_charges)

    ps = sub.add_parser("symmetry-check", help="evolve-then-map vs map-then-evolve")
    ps.add_argument("--config", required=True)
    ps.set_defaults(func=cmd_symmetry_check)

    args = parser.parse_args(argv)
    try:
        with _config_phase("environment"):
            fields._budget()
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except fields.SnapshotDataError as exc:
        print(f"bad data: {exc}", file=sys.stderr)
        return 1
    except (evolve_mod.StabilityError, ValueError) as exc:
        # after SnapshotDataError, a ValueError subclass
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1
