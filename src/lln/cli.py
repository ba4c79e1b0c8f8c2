"""Command line front end.

Subcommands: verify-geometry, evolve, ground-state, charges, symmetry-check.
Run configs are single JSON documents validated fail-closed (unknown keys are
errors). Exit codes: 0 all checks pass, 1 a check or computation failed
(including non-finite snapshot data), 2 usage or configuration errors.

Environment: LLN_THREADS caps FFT worker threads, LLN_OUTDIR prefixes
relative output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import charges as charges_mod
from . import evolve as evolve_mod
from . import fields, geometry, gravity, sngroup

__all__ = ["main"]


class ConfigError(Exception):
    pass


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


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return cfg


def _build_grid(cfg) -> fields.GridSpec:
    _check_keys(cfg, {"n", "length"}, {"n", "length"}, "grid")
    try:
        return fields.GridSpec(n=int(cfg["n"]), length=float(cfg["length"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}")


def _build_physics(cfg) -> dict:
    cfg = cfg or {}
    _check_keys(cfg, {"m", "hbar", "G"}, set(), "physics")
    out = {"m": float(cfg.get("m", 1.0)), "hbar": float(cfg.get("hbar", 1.0)),
           "G": float(cfg.get("G", 1.0))}
    if out["m"] <= 0 or out["hbar"] <= 0:
        raise ConfigError("physics: m and hbar must be positive")
    return out


def _build_potentials(cfg, grid):
    """Returns (GridPotential or None). Fail-closed on unknown presets."""
    if cfg is None:
        return None
    _check_keys(
        cfg,
        {"preset", "Omega0", "a", "sign", "r_cut", "theta", "snapshot", "U_point_mass"},
        set(),
        "potentials",
    )
    if "snapshot" in cfg:
        snap = fields.load_snapshot(cfg["snapshot"])
        if snap.grid != grid:
            raise ConfigError("potentials snapshot grid does not match run grid")
        U, varpi = snap.to_potentials()
        return geometry.GridPotential(grid, U=U, varpi=varpi)
    preset = cfg.get("preset", "none")
    if preset == "none":
        U = None
        varpi = None
    elif preset == "uniform":
        pot = gravity.uniform_rotation_potential(grid, cfg.get("Omega0", 1.0))
        if "U_point_mass" not in cfg:
            return pot
        U = None
        varpi = pot.varpi
        dvarpi = pot.dvarpi
    elif preset == "taubnut":
        kw = {}
        if "a" in cfg:
            kw["a"] = float(cfg["a"])
        if "sign" in cfg:
            kw["sign"] = int(cfg["sign"])
        if "r_cut" in cfg:
            kw["r_cut"] = float(cfg["r_cut"])
        varpi, _ = gravity.coriolis_preset("taubnut", grid, **kw)
        U = None
    elif preset == "gradient":
        th = cfg.get("theta")
        _check_keys(th or {}, {"amplitude", "sigma"}, {"amplitude", "sigma"},
                    "potentials.theta")
        X = grid.mesh()
        r2 = np.sum(X**2, axis=0)
        theta = float(th["amplitude"]) * np.exp(-r2 / (2.0 * float(th["sigma"]) ** 2))
        varpi, _ = gravity.coriolis_preset("gradient", grid, theta=theta)
        U = None
    else:
        raise ConfigError(f"potentials: unknown preset {preset!r}")
    if "U_point_mass" in cfg:
        pm = cfg["U_point_mass"]
        _check_keys(pm, {"GM", "soften"}, {"GM"}, "potentials.U_point_mass")
        X = grid.mesh()
        r = np.sqrt(np.sum(X**2, axis=0) + float(pm.get("soften", grid.dx)) ** 2)
        U = -float(pm["GM"]) / r
    if U is None and varpi is None:
        return None
    kw = {"dvarpi": dvarpi} if preset == "uniform" else {}
    return geometry.GridPotential(grid, U=U, varpi=varpi, **kw)


def _build_initial(cfg, grid, phys) -> fields.BispinorField:
    _check_keys(
        cfg,
        {"kind", "sigma", "center", "k0", "spin", "path", "normalize"},
        {"kind"},
        "initial",
    )
    kind = cfg["kind"]
    if kind == "gaussian":
        spin = cfg.get("spin", [1.0, 0.0])
        spin_c = [complex(s[0], s[1]) if isinstance(s, list) else complex(s) for s in spin]
        return fields.gaussian_packet(
            grid,
            sigma=float(cfg.get("sigma", 1.0)),
            center=cfg.get("center", (0.0, 0.0, 0.0)),
            k0=cfg.get("k0", (0.0, 0.0, 0.0)),
            spin=spin_c,
            m=phys["m"],
            hbar=phys["hbar"],
            normalize=bool(cfg.get("normalize", True)),
        )
    if kind == "snapshot":
        if "path" not in cfg:
            raise ConfigError("initial: snapshot kind needs a path")
        snap = fields.load_snapshot(cfg["path"])
        f = snap.to_field()
        if f.grid != grid:
            raise ConfigError("initial snapshot grid does not match run grid")
        for key, val in (("m", phys["m"]), ("hbar", phys["hbar"])):
            if abs(getattr(f, key) - val) > 1e-12:
                raise ConfigError(
                    f"initial snapshot carries {key}={getattr(f, key)} but "
                    f"physics.{key}={val}"
                )
        return f
    raise ConfigError(f"initial: unknown kind {kind!r}")


def _build_runconfig(cfg, G, monitor_every=0) -> evolve_mod.RunConfig:
    _check_keys(
        cfg,
        {"kind", "dt", "steps", "source", "poisson"},
        {"dt", "steps"},
        "evolver",
    )
    try:
        return evolve_mod.RunConfig(
            dt=float(cfg["dt"]),
            steps=int(cfg["steps"]),
            evolver=cfg.get("kind", "split"),
            source=cfg.get("source", "free"),
            G=G,
            poisson=cfg.get("poisson", "periodic"),
            monitor_every=monitor_every,
        )
    except ValueError as exc:
        raise ConfigError(f"evolver: {exc}")


def _write_report(path, payload):
    with open(_out_path(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


############################################################
# subcommands
############################################################


def cmd_verify_geometry(args) -> int:
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
    grid = fields.GridSpec(n=args.n, length=args.length)
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
        worst_pat = max(worst_pat, float(np.max(np.abs(closed - fd))))
        mask = np.abs(closed) < 1e-14
        worst_zero = max(worst_zero, float(np.max(np.abs(fd[mask]))))
    report["christoffel_fd"] = worst_pat
    report["christoffel_offpattern"] = worst_zero

    # curvature constraint on a solved configuration
    rho = fields.band_limited_noise(grid, modes=3, seed=7)
    rho = rho - rho.mean()
    Usol = gravity.constraint_potential(grid, rho, varpi_curl2=pot.omega2, G=args.G)
    solved = geometry.GridPotential(grid, U=Usol, varpi=pot.varpi)
    chk = geometry.ricci_constraint_residual(solved, rho=rho, G=args.G)
    report["constraint_scalar"] = chk.scalar_max_meanfree
    report["constraint_vector_uniform"] = float(
        geometry.ricci_constraint_residual(
            gravity.uniform_rotation_potential(grid, 0.7)
        ).vector_max
    )

    # Schwarzian of the induced affine time maps
    u = sngroup.SnGroupElement.random(seed=args.seed)
    report["schwarzian_affine"] = float(
        np.max(np.abs(geometry.schwarzian(u.time_map(), np.linspace(-1, 1, 7))))
    )

    tols = {
        "clifford_upper": args.tol_clifford,
        "clifford_lower": args.tol_clifford,
        "chirality": args.tol_clifford,
        "volume_density": args.tol_clifford,
        "metric_inverse": args.tol_clifford,
        "christoffel_fd": args.tol_christoffel,
        "christoffel_offpattern": args.tol_christoffel,
        "constraint_scalar": args.tol_constraint,
        "constraint_vector_uniform": args.tol_constraint,
        "schwarzian_affine": args.tol_clifford,
    }
    failures = {k: v for k, v in report.items() if v > tols[k]}
    report["pass"] = not failures
    if args.json:
        _write_report(args.json, report)
    for key in sorted(report):
        if key != "pass":
            print(f"{key:28s} {report[key]:.3e}  (tol {tols[key]:.1e})")
    if failures:
        print(f"FAIL: {sorted(failures)}", file=sys.stderr)
        return 1
    print("geometry checks passed")
    return 0


def cmd_evolve(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        {"grid", "physics", "potentials", "initial", "evolver", "outputs", "checks"},
        {"grid", "initial", "evolver"},
        "config",
    )
    grid = _build_grid(cfg["grid"])
    phys = _build_physics(cfg.get("physics"))
    pot = _build_potentials(cfg.get("potentials"), grid)
    f0 = _build_initial(cfg["initial"], grid, phys)
    outputs = cfg.get("outputs") or {}
    _check_keys(
        outputs,
        {"charges_csv", "charges_every", "snapshot", "report"},
        set(),
        "outputs",
    )
    checks = cfg.get("checks") or {}
    _check_keys(checks, {"norm_tol", "charge_tols"}, set(), "checks")

    every = int(outputs.get("charges_every", 0))
    rcfg = _build_runconfig(cfg["evolver"], phys["G"], monitor_every=every)
    if every:
        rcfg.monitor = charges_mod.charge_monitor(mode=rcfg.source)

    try:
        result = evolve_mod.run(f0, rcfg, pot)
    except (evolve_mod.StabilityError, ValueError) as exc:
        print(f"evolve failed: {exc}", file=sys.stderr)
        return 1

    report = {"steps": rcfg.steps, "dt": rcfg.dt, "final_time": result.field.time,
              "final_norm2": result.field.norm2}
    rc = 0
    if result.records:
        drifts = charges_mod.drift_stats(result.records)
        report["charge_drift"] = drifts
        for name, tol in (checks.get("charge_tols") or {}).items():
            if name not in drifts:
                print(f"check on unknown charge {name!r}", file=sys.stderr)
                return 2
            if drifts[name] > float(tol):
                print(
                    f"charge drift {name} = {drifts[name]:.3e} exceeds {tol}",
                    file=sys.stderr,
                )
                rc = 1
        if "charges_csv" in outputs:
            charges_mod.write_csv(result.records, _out_path(outputs["charges_csv"]))
    if "norm_tol" in checks:
        drift = abs(result.field.norm2 - f0.norm2)
        report["norm_drift"] = drift
        if drift > float(checks["norm_tol"]):
            print(f"norm drift {drift:.3e} exceeds {checks['norm_tol']}", file=sys.stderr)
            rc = 1
    if "snapshot" in outputs:
        fields.save_snapshot(_out_path(outputs["snapshot"]), result.field, G=phys["G"],
                             poisson=rcfg.poisson)
    if "report" in outputs:
        _write_report(outputs["report"], report)
    print(json.dumps({k: v for k, v in report.items() if not isinstance(v, dict)}))
    return rc


def cmd_ground_state(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        {"grid", "physics", "potentials", "initial", "relax", "outputs", "checks"},
        {"grid", "initial", "relax"},
        "config",
    )
    grid = _build_grid(cfg["grid"])
    phys = _build_physics(cfg.get("physics"))
    pot = _build_potentials(cfg.get("potentials"), grid)
    f0 = _build_initial(cfg["initial"], grid, phys)
    relax = cfg["relax"]
    _check_keys(
        relax,
        {"dtau", "tol", "max_iter", "source", "poisson"},
        set(),
        "relax",
    )
    outputs = cfg.get("outputs") or {}
    _check_keys(outputs, {"snapshot", "report"}, set(), "outputs")
    checks = cfg.get("checks") or {}
    _check_keys(checks, {"require_converged", "energy_window"}, set(), "checks")
    poisson = relax.get("poisson", "periodic")
    if poisson not in ("periodic", "isolated"):
        raise ConfigError(f"relax: unknown poisson mode {poisson!r}")

    try:
        res = evolve_mod.ground_state(
            f0,
            G=phys["G"],
            dtau=float(relax.get("dtau", 0.05)),
            tol=float(relax.get("tol", 1e-10)),
            max_iter=int(relax.get("max_iter", 20000)),
            source=relax.get("source", "self"),
            p=pot,
            poisson=poisson,
        )
    except ValueError as exc:
        print(f"ground-state failed: {exc}", file=sys.stderr)
        return 1

    report = {
        "energy": res.energy,
        "iterations": res.iterations,
        "converged": res.converged,
    }
    rc = 0
    if checks.get("require_converged", True) and not res.converged:
        print("relaxation did not converge", file=sys.stderr)
        rc = 1
    if "energy_window" in checks:
        lo, hi = checks["energy_window"]
        if not (float(lo) <= res.energy <= float(hi)):
            print(
                f"energy {res.energy:.6g} outside window [{lo}, {hi}]",
                file=sys.stderr,
            )
            rc = 1
    if "snapshot" in outputs:
        fields.save_snapshot(_out_path(outputs["snapshot"]), res.field, G=phys["G"],
                             poisson=poisson)
    if "report" in outputs:
        _write_report(outputs["report"], report)
    print(json.dumps(report))
    return rc


def cmd_charges(args) -> int:
    try:
        snap = fields.load_snapshot(args.snapshot)
        f = snap.to_field()
    except fields.SnapshotDataError as exc:
        print(f"bad snapshot data: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"cannot read snapshot: {exc}", file=sys.stderr)
        return 2
    pot = None
    if args.potentials:
        try:
            psnap = fields.load_snapshot(args.potentials)
            U, varpi = psnap.to_potentials()
            if psnap.grid != f.grid:
                print("potential snapshot grid mismatch", file=sys.stderr)
                return 2
            pot = geometry.GridPotential(f.grid, U=U, varpi=varpi)
        except fields.SnapshotDataError as exc:
            print(f"bad snapshot data: {exc}", file=sys.stderr)
            return 1
        except (ValueError, OSError) as exc:
            print(f"cannot read potentials: {exc}", file=sys.stderr)
            return 2
    if args.mode == "self" and pot is None:
        # the solver the run used, as recorded in the header; files written
        # before the header carried it were periodic
        poisson = args.poisson or snap.poisson or "periodic"
        pot = evolve_mod.self_potential(f.data, f.grid, f.m, snap.G, poisson)
    rec = charges_mod.compute_charges(f, pot, mode=args.mode)
    if args.out:
        charges_mod.write_csv([rec], _out_path(args.out))
    payload = dict(zip(charges_mod.CSV_COLUMNS, [float(v) for v in rec.row()]))
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_symmetry_check(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        {"grid", "physics", "potentials", "initial", "evolver", "element",
         "element_path", "outputs", "checks"},
        {"grid", "initial", "evolver"},
        "config",
    )
    if ("element" in cfg) == ("element_path" in cfg):
        raise ConfigError("provide exactly one of element, element_path")
    grid = _build_grid(cfg["grid"])
    phys = _build_physics(cfg.get("physics"))
    pot = _build_potentials(cfg.get("potentials"), grid)
    f0 = _build_initial(cfg["initial"], grid, phys)
    try:
        if "element" in cfg:
            u = sngroup.element_from_dict(cfg["element"])
        else:
            u = sngroup.load_element(cfg["element_path"])
    except ValueError as exc:
        raise ConfigError(f"element: {exc}")
    rcfg = _build_runconfig(cfg["evolver"], phys["G"])
    checks = cfg.get("checks") or {}
    _check_keys(checks, {"tol"}, set(), "checks")
    outputs = cfg.get("outputs") or {}
    _check_keys(outputs, {"report"}, set(), "outputs")

    try:
        res = charges_mod.covariance_test(f0, u, rcfg, pot)
    except (evolve_mod.StabilityError, ValueError) as exc:
        print(f"symmetry check failed to run: {exc}", file=sys.stderr)
        return 1
    report = {
        "rel_l2": res["rel_l2"],
        "final_time": res["final_time_A"],
        "nu": u.nu,
    }
    if "report" in outputs:
        _write_report(outputs["report"], report)
    print(json.dumps(report))
    tol = float(checks.get("tol", 1e-3))
    if res["rel_l2"] > tol:
        print(f"covariance discrepancy {res['rel_l2']:.3e} exceeds {tol}", file=sys.stderr)
        return 1
    return 0


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
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except fields.SnapshotDataError as exc:
        print(f"bad data: {exc}", file=sys.stderr)
        return 1
