"""Exercising the command line front end in process, plus two subprocess
tests at the end: one runs ``python -m lln`` and checks the ``lln``
console-script declaration in pyproject.toml, the other checks what a fresh
``import lln.cli`` starts. Exit code contract: 0 pass, 1 failed check or bad
data, 2 usage/config errors."""

import copy
import ctypes
import glob
import json
import os
import string
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lln
from lln import charges as charges_mod
from lln import evolve as evolve_mod
from lln import cli, fields, geometry, gravity, sngroup
from lln.cli import main

G16 = {"n": 16, "length": 16.0}


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def evolve_config(tmp_path, **over):
    cfg = {
        "grid": dict(G16),
        "initial": {"kind": "gaussian", "sigma": 1.2},
        "evolver": {"kind": "split", "dt": 1e-3, "steps": 20},
    }
    cfg.update(over)
    return write_config(tmp_path, cfg)


@pytest.mark.parametrize("arg, value", [
    ("--h", "0"), ("--samples", "0"), ("--points", "0"), ("--n", "0"), ("--length", "inf"),
    ("--json", "no-such-dir/r.json"), ("--seed", "-1"), ("--G", "nan"), ("--G", "inf"),
    ("--tol-clifford", "nan"), ("--tol-christoffel", "inf"), ("--tol-constraint", "-1"),
])
def test_verify_geometry_usage_error_exits_2(arg, value, monkeypatch, capsys):
    def compute(*args, **kwargs):
        raise AssertionError("computed before the usage error")

    monkeypatch.setattr(geometry, "brinkmann_metric", compute)
    assert main(["verify-geometry", arg, value]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_verify_geometry_nan_christoffels_fail(monkeypatch, capsys):
    fd = geometry.christoffels_fd
    monkeypatch.setattr(geometry, "christoffels_fd", lambda *a, **kw: fd(*a, **kw) * np.nan)
    assert main(["verify-geometry", "--samples", "10", "--points", "1"]) == 1
    captured = capsys.readouterr()
    assert "christoffel_fd               nan" in captured.out
    assert captured.err == "FAIL: ['christoffel_fd', 'christoffel_offpattern']\n"


def test_verify_geometry(tmp_path, capsys):
    report = tmp_path / "geom.json"
    rc = main([
        "verify-geometry", "--samples", "100", "--points", "2",
        "--json", str(report),
    ])
    assert rc == 0
    out = json.loads(report.read_text())
    assert out["pass"] is True
    assert out["clifford_upper"] < 1e-12
    assert out["christoffel_fd"] < 1e-5
    assert "geometry checks passed" in capsys.readouterr().out


def test_evolve_end_to_end(tmp_path, capsys):
    csv = tmp_path / "charges.csv"
    snap = tmp_path / "final.lls"
    report = tmp_path / "report.json"
    path = evolve_config(
        tmp_path,
        outputs={
            "charges_csv": str(csv),
            "charges_every": 5,
            "snapshot": str(snap),
            "report": str(report),
        },
        checks={"norm_tol": 1e-10, "charge_tols": {"M": 1e-10, "P": 1e-8}},
    )
    rc = main(["evolve", "--config", path])
    assert rc == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(line["final_time"] - 0.02) < 1e-15

    recs = charges_mod.read_csv(csv)
    assert len(recs) == 5  # initial state plus every fifth step
    assert recs[-1].t == pytest.approx(0.02, abs=1e-15)

    loaded = fields.load_snapshot(str(snap))
    f = loaded.to_field()
    assert abs(f.time - 0.02) < 1e-15
    assert abs(f.norm2 - 1.0) < 1e-10

    rep = json.loads(report.read_text())
    assert rep["charge_drift"]["M"] < 1e-10
    assert rep["norm_drift"] < 1e-10


def test_evolve_unknown_keys_fail_closed(tmp_path, capsys):
    path = evolve_config(tmp_path, colour="red")
    assert main(["evolve", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "unknown keys" in err and "colour" in err

    cfg = {
        "grid": dict(G16),
        "initial": {"kind": "gaussian"},
        "evolver": {"dt": 1e-3, "steps": 5, "cfl": 0.5},
    }
    assert main(["evolve", "--config", write_config(tmp_path, cfg, "e.json")]) == 2
    assert "cfl" in capsys.readouterr().err


def test_evolve_missing_config_and_bad_json(tmp_path, capsys):
    assert main(["evolve", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["evolve", "--config", str(bad)]) == 2


def test_evolve_nan_snapshot_is_data_error(tmp_path, capsys):
    grid = fields.GridSpec(16, 16.0)
    f = fields.gaussian_packet(grid, sigma=1.2)
    snap = tmp_path / "seed.lls"
    fields.save_snapshot(str(snap), f)
    blob = snap.read_bytes()
    head, payload = blob.split(b"\n", 1)
    nan8 = struct.pack("<d", float("nan"))
    snap.write_bytes(head + b"\n" + nan8 + payload[8:])

    cfg = {
        "grid": dict(G16),
        "initial": {"kind": "snapshot", "path": str(snap)},
        "evolver": {"dt": 1e-3, "steps": 1},
    }
    rc = main(["evolve", "--config", write_config(tmp_path, cfg)])
    assert rc == 1
    assert "bad data" in capsys.readouterr().err


def test_evolve_charge_tolerance_violation(tmp_path, capsys):
    # <H> is not the conserved energy of the coupled flow, so a tight
    # E_paper tolerance on a self-sourced run must trip
    path = evolve_config(
        tmp_path,
        evolver={"kind": "split", "dt": 1e-3, "steps": 10, "source": "self"},
        outputs={"charges_every": 5},
        checks={"charge_tols": {"E_paper": 1e-12}},
    )
    assert main(["evolve", "--config", path]) == 1
    assert "charge drift E_paper" in capsys.readouterr().err


def test_nan_charge_drift_fails_the_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(charges_mod, "drift_stats", lambda records: {"M": float("nan")})
    path = evolve_config(
        tmp_path,
        evolver={"kind": "split", "dt": 1e-3, "steps": 2},
        outputs={"charges_every": 1},
        checks={"charge_tols": {"M": 1e-8}},
    )
    assert main(["evolve", "--config", path]) == 1
    assert capsys.readouterr().err == "charge drift M = nan exceeds 1e-08\n"


def test_evolve_unknown_charge_name(tmp_path, capsys):
    path = evolve_config(
        tmp_path,
        outputs={"charges_every": 5},
        checks={"charge_tols": {"Q": 1.0}},
    )
    assert main(["evolve", "--config", path]) == 2
    assert "unknown charge" in capsys.readouterr().err


def test_ground_state_window(tmp_path, capsys):
    report = tmp_path / "gs.json"
    cfg = {
        "grid": dict(G16),
        "physics": {"G": 4.0},
        "initial": {"kind": "gaussian", "sigma": 1.2},
        "relax": {"dtau": 0.05, "tol": 1e-8, "max_iter": 4000,
                  "poisson": "isolated"},
        "outputs": {"report": str(report)},
        # dx = 1 under-resolves this cloud; the coarse-grid value is -4.29
        "checks": {"require_converged": True, "energy_window": [-5.0, -3.5]},
    }
    assert main(["ground-state", "--config", write_config(tmp_path, cfg)]) == 0
    rep = json.loads(report.read_text())
    assert rep["converged"] is True
    assert -5.0 <= rep["energy"] <= -3.5
    assert 0.0 < rep["residual"] < 0.1  # 1.2e-2: O(dtau^2) at dtau = 0.05
    assert rep["fixed_point_residual"] < 1e-8  # the relax.tol it stopped on
    # a self-sourced start is moved onto the nearest node, here already one
    assert len(rep["recentred_by"]) == 3 and max(map(abs, rep["recentred_by"])) < 1e-15

    cfg["checks"]["energy_window"] = [0.0, 1.0]
    rc = main(["ground-state", "--config", write_config(tmp_path, cfg, "g2.json")])
    assert rc == 1
    assert "outside window" in capsys.readouterr().err


def test_charges_subcommand(tmp_path, capsys):
    grid = fields.GridSpec(16, 16.0)
    f = fields.gaussian_packet(grid, sigma=1.2, k0=(2 * np.pi / 16.0, 0, 0))
    snap = tmp_path / "state.lls"
    fields.save_snapshot(str(snap), f, G=1.0)
    csv = tmp_path / "row.csv"
    rc = main(["charges", "--snapshot", str(snap), "--mode", "self",
               "--out", str(csv)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["M"] - 1.0) < 1e-12
    assert payload["W_pot"] < 0.0
    assert np.isfinite(payload["E_sn"])
    row = charges_mod.read_csv(csv)[0]
    assert row.M == pytest.approx(payload["M"], abs=0)


def _w_pot(f, U):
    return f.m * float(np.sum(U * np.sum(np.abs(f.data) ** 2, axis=0)) * f.grid.dv)


def test_charges_readback_uses_recorded_poisson(tmp_path, capsys):
    snap = tmp_path / "gs.lls"
    cfg = {
        "grid": dict(G16),
        "initial": {"kind": "gaussian", "sigma": 1.2},
        "relax": {"dtau": 0.05, "max_iter": 20, "source": "self", "poisson": "isolated"},
        "outputs": {"snapshot": str(snap)},
        "checks": {"require_converged": False},
    }
    assert main(["ground-state", "--config", write_config(tmp_path, cfg)]) == 0
    loaded = fields.load_snapshot(str(snap))
    assert loaded.poisson == "isolated"
    f = loaded.to_field()
    rho = gravity.mass_density(f.data, f.grid, f.m)
    w_iso = _w_pot(f, gravity.poisson_isolated(rho, f.grid, loaded.G))
    w_per = _w_pot(f, gravity.poisson_periodic(rho, f.grid, loaded.G))
    assert abs(w_iso - w_per) > 0.1 * abs(w_per)  # the two solvers really differ

    capsys.readouterr()
    assert main(["charges", "--snapshot", str(snap), "--mode", "self"]) == 0
    assert json.loads(capsys.readouterr().out)["W_pot"] == pytest.approx(w_iso, rel=1e-12)
    rc = main(["charges", "--snapshot", str(snap), "--mode", "self", "--poisson", "periodic"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["W_pot"] == pytest.approx(w_per, rel=1e-12)

    # a header without the key (older files) reads back with periodic Poisson
    old = tmp_path / "old.lls"
    fields.save_snapshot(str(old), f, G=loaded.G)
    assert fields.load_snapshot(str(old)).poisson is None
    assert main(["charges", "--snapshot", str(old), "--mode", "self"]) == 0
    assert json.loads(capsys.readouterr().out)["W_pot"] == pytest.approx(w_per, rel=1e-12)


def test_charges_readback_on_top_of_external_potentials(tmp_path, capsys):
    # --mode self with --potentials solves the self-consistent U on top of
    # the external one, as the run did; it used to take the external U alone
    # (W_pot -0.606 against the run's -0.903 here)
    grid = fields.GridSpec(16, 16.0)
    pot = tmp_path / "pot.lls"
    r = np.sqrt(np.sum(grid.mesh() ** 2, axis=0) + 0.5**2)
    fields.save_potentials(str(pot), grid, U=-1.0 / r, varpi=np.zeros((3,) + grid.shape))
    csv, snap = tmp_path / "run.csv", tmp_path / "final.lls"
    path = evolve_config(
        tmp_path,
        potentials={"snapshot": str(pot)},
        evolver={"kind": "split", "dt": 1e-3, "steps": 10, "source": "self"},
        outputs={"charges_csv": str(csv), "charges_every": 5, "snapshot": str(snap)},
    )
    assert main(["evolve", "--config", path]) == 0
    last = charges_mod.read_csv(csv)[-1]
    capsys.readouterr()
    rc = main(["charges", "--snapshot", str(snap), "--mode", "self",
               "--potentials", str(pot)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    for name in ("E_paper", "E_sn", "W_pot"):
        assert payload[name] == pytest.approx(getattr(last, name), rel=1e-9), name


def test_snapshot_poisson_key_written_and_checked(tmp_path, capsys):
    snap = tmp_path / "final.lls"
    path = evolve_config(
        tmp_path,
        evolver={"kind": "split", "dt": 1e-3, "steps": 2, "source": "self",
                 "poisson": "isolated"},
        outputs={"snapshot": str(snap)},
    )
    assert main(["evolve", "--config", path]) == 0
    assert fields.load_snapshot(str(snap)).poisson == "isolated"
    head, payload = snap.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["poisson"] = "spectral"
    snap.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    assert main(["charges", "--snapshot", str(snap), "--mode", "self"]) == 2
    cfg = {"grid": dict(G16), "initial": {"kind": "gaussian"},
           "relax": {"poisson": "spectral"}}
    assert main(["ground-state", "--config", write_config(tmp_path, cfg, "g.json")]) == 2
    assert "unknown poisson mode" in capsys.readouterr().err


def test_charges_exit_codes(tmp_path, capsys):
    assert main(["charges", "--snapshot", str(tmp_path / "ghost.lls")]) == 2
    grid = fields.GridSpec(16, 16.0)
    f = fields.gaussian_packet(grid, sigma=1.2)
    snap = tmp_path / "nan.lls"
    fields.save_snapshot(str(snap), f)
    blob = snap.read_bytes()
    head, payload = blob.split(b"\n", 1)
    snap.write_bytes(head + b"\n" + struct.pack("<d", float("inf")) + payload[8:])
    assert main(["charges", "--snapshot", str(snap)]) == 1


def _snapshot_with_header(tmp_path, **edits):
    """A valid 16^3 snapshot whose header has the given keys overwritten."""
    snap = tmp_path / "edited.lls"
    fields.save_snapshot(str(snap), fields.gaussian_packet(fields.GridSpec(16, 16.0), sigma=1.2))
    head, payload = snap.read_bytes().split(b"\n", 1)
    header = dict(json.loads(head), **edits)
    snap.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return snap


@pytest.mark.parametrize("key, value", [
    ("m", float("nan")), ("m", 0.0), ("hbar", -1.0), ("mass_tag", float("inf")),
    ("G", float("nan")), ("time", float("inf")),
])
def test_unusable_snapshot_header_is_config_error(tmp_path, monkeypatch, capsys, key, value):
    # both readers of a bispinor snapshot refuse the header before any compute
    def solver(*args, **kwargs):
        raise AssertionError("computed from an unusable snapshot header")

    monkeypatch.setattr(charges_mod, "compute_charges", solver)
    monkeypatch.setattr(evolve_mod, "run", solver)
    snap = _snapshot_with_header(tmp_path, **{key: value})
    assert main(["charges", "--snapshot", str(snap)]) == 2
    cfg = {"grid": dict(G16), "initial": {"kind": "snapshot", "path": str(snap)},
           "evolver": {"dt": 1e-3, "steps": 1}}
    assert main(["evolve", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"snapshot header {key} = ") == 2, err


def test_charges_external_mode_needs_potentials(tmp_path, monkeypatch, capsys):
    # without --potentials the external mode would report a free field's
    # charges; it is refused before the snapshot is read or any charge computed
    def solver(*args, **kwargs):
        raise AssertionError("charges computed for a setting that cannot take effect")

    monkeypatch.setattr(charges_mod, "compute_charges", solver)
    monkeypatch.setattr(fields, "load_snapshot", solver)
    rc = main(["charges", "--snapshot", str(tmp_path / "state.lls"), "--mode", "external"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "external source mode needs a potential" in err[0]


@pytest.mark.parametrize("extra, flag", [
    (["--out", "no-such-dir/row.csv"], "--out"),
    (["--mode", "free", "--poisson", "isolated"], "--poisson"),
    (["--mode", "external", "--potentials", "POTS", "--poisson", "periodic"], "--poisson"),
])
def test_charges_usage_error_exits_2_before_compute(tmp_path, monkeypatch, capsys, extra, flag):
    # an output path in a missing directory, or a Poisson solver the mode
    # never runs, is refused before any charge is computed
    def solver(*args, **kwargs):
        raise AssertionError("charges computed despite a usage error")

    monkeypatch.setattr(charges_mod, "compute_charges", solver)
    grid = fields.GridSpec(16, 16.0)
    pots = tmp_path / "pots.lls"
    fields.save_potentials(str(pots), grid, np.zeros(grid.shape), np.zeros((3,) + grid.shape))
    snap = _snapshot_with_header(tmp_path)
    extra = [str(pots) if a == "POTS" else a for a in extra]
    assert main(["charges", "--snapshot", str(snap), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {flag}")


@pytest.mark.parametrize("mode", ["free", "external"])
def test_charges_prints_strict_json(tmp_path, capsys, mode):
    # E_sn is not a charge outside self mode: null on stdout, nan in the CSV
    grid = fields.GridSpec(16, 16.0)
    f = fields.gaussian_packet(grid, sigma=1.2, k0=(2 * np.pi / 16.0, 0, 0))
    snap = tmp_path / "state.lls"
    fields.save_snapshot(str(snap), f)
    args = ["charges", "--snapshot", str(snap), "--mode", mode, "--out", str(tmp_path / "row.csv")]
    if mode == "external":
        pots = tmp_path / "pots.lls"
        X = grid.mesh()
        fields.save_potentials(str(pots), grid, 0.1 * np.sum(X**2, axis=0),
                               np.zeros((3,) + grid.shape))
        args += ["--potentials", str(pots)]
    assert main(args) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["E_sn"] is None
    assert all(isinstance(v, float) for k, v in payload.items() if k != "E_sn")
    row = charges_mod.read_csv(tmp_path / "row.csv")[0]
    assert np.isnan(row.E_sn)
    assert row.M == payload["M"]


def test_symmetry_check_rotation(tmp_path, capsys):
    u = sngroup.SnGroupElement.rotation((0, 0, 1), np.pi / 2)
    report = tmp_path / "sym.json"
    cfg = {
        "grid": dict(G16),
        "initial": {"kind": "gaussian", "sigma": 1.0,
                    "center": [1.0, 0.5, -0.5]},
        "evolver": {"kind": "split", "dt": 1e-3, "steps": 5},
        "element": sngroup.element_to_dict(u),
        "checks": {"tol": 1e-10},
        "outputs": {"report": str(report)},
    }
    assert main(["symmetry-check", "--config", write_config(tmp_path, cfg)]) == 0
    rep = json.loads(report.read_text())
    assert rep["rel_l2"] < 1e-10
    assert rep["nu"] == pytest.approx(1.0)


def test_symmetry_check_tol_violation(tmp_path, capsys):
    # generic dilation resampling cannot beat 1e-12 on a 16-point lattice
    u = sngroup.SnGroupElement.dilation(1.1)
    cfg = {
        "grid": dict(G16),
        "initial": {"kind": "gaussian", "sigma": 0.8},
        "evolver": {"kind": "split", "dt": 1e-3, "steps": 2},
        "element": sngroup.element_to_dict(u),
        "checks": {"tol": 1e-12},
    }
    rc = main(["symmetry-check", "--config", write_config(tmp_path, cfg)])
    assert rc == 1
    assert "exceeds" in capsys.readouterr().err


def test_nan_covariance_discrepancy_fails_the_check(solver_calls, monkeypatch, capsys):
    monkeypatch.setattr(charges_mod, "covariance_test",
                        lambda *a, **kw: {"rel_l2": float("nan"), "final_time_A": 0.0})
    assert _run_config("symmetry-check", BASES["symmetry-check"]) == 1
    assert capsys.readouterr().err == "covariance discrepancy nan exceeds 0.001\n"


def test_nan_norm_drift_fails_the_check(solver_calls, monkeypatch, capsys):
    def run(f0, cfg, p=None):
        f = f0.copy()
        f.data = f.data * np.nan
        return evolve_mod.RunResult(field=f, times=[f.time], records=[])

    monkeypatch.setattr(evolve_mod, "run", run)
    assert _run_config("evolve", _with(BASES["evolve"], {"checks.norm_tol": 1e-10})) == 1
    assert capsys.readouterr().err == "norm drift nan exceeds 1e-10\n"


def test_symmetry_check_element_exclusivity(tmp_path, capsys):
    u = sngroup.SnGroupElement.rotation((0, 0, 1), np.pi / 2)
    elem = tmp_path / "elem.json"
    sngroup.save_element(str(elem), u)
    cfg = {
        "grid": dict(G16),
        "initial": {"kind": "gaussian"},
        "evolver": {"dt": 1e-3, "steps": 1},
        "element": sngroup.element_to_dict(u),
        "element_path": str(elem),
    }
    assert main(["symmetry-check", "--config", write_config(tmp_path, cfg)]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_outdir_redirection(tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "artifacts"
    monkeypatch.setenv("LLN_OUTDIR", str(outdir))
    path = evolve_config(
        tmp_path,
        evolver={"kind": "split", "dt": 1e-3, "steps": 1},
        outputs={"report": "report.json", "snapshot": "final.lls"},
    )
    assert main(["evolve", "--config", path]) == 0
    assert (outdir / "report.json").exists()
    assert (outdir / "final.lls").exists()


############################################################
# config phase: every setting is read before compute
############################################################


@pytest.fixture
def solver_calls(tmp_path, monkeypatch):
    """Stub out the three solvers, recording each call; each stub asserts
    that the config phase handed it a finite field and potential. The
    working directory is tmp_path and outputs go to tmp_path/out."""
    calls = []

    def finite(f0, p):
        assert np.isfinite(f0.data).all()
        assert p is None or (np.isfinite(p.U).all() and np.isfinite(p.varpi).all())

    def run(f0, cfg, p=None):
        finite(f0, p)
        calls.append("run")
        return evolve_mod.RunResult(field=f0, times=[f0.time], records=[])

    def ground_state(f0, cfg, p=None):
        finite(f0, p)
        calls.append("ground_state")
        return SimpleNamespace(field=f0, energy=-1.0, iterations=1, converged=True,
                               residual=0.0, fixed_point_residual=0.0,
                               recentred_by=np.zeros(3))

    def covariance_test(f0, u, cfg, p=None):
        finite(f0, p)
        calls.append("covariance_test")
        return {"rel_l2": 0.0, "final_time_A": 0.0}

    monkeypatch.setattr(evolve_mod, "run", run)
    monkeypatch.setattr(evolve_mod, "ground_state", ground_state)
    monkeypatch.setattr(charges_mod, "covariance_test", covariance_test)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LLN_OUTDIR", str(tmp_path / "out"))
    return calls


DROP = object()

BASES = {
    "evolve": {
        "grid": dict(G16),
        "initial": {"kind": "gaussian", "sigma": 1.2},
        "evolver": {"kind": "split", "dt": 1e-3, "steps": 20},
    },
    "ground-state": {
        "grid": dict(G16),
        "initial": {"kind": "gaussian", "sigma": 1.2},
        "relax": {"dtau": 0.05, "max_iter": 20},
    },
    "symmetry-check": {
        "grid": dict(G16),
        "initial": {"kind": "gaussian", "sigma": 0.8},
        "evolver": {"dt": 1e-3, "steps": 2},
        "element": sngroup.element_to_dict(sngroup.SnGroupElement.dilation(1.1)),
    },
}


def _with(cfg, edits):
    """A deep copy of cfg with each dotted key set to its value (DROP deletes)."""
    cfg = copy.deepcopy(cfg)
    for key, value in edits.items():
        *parents, leaf = key.split(".")
        node = cfg
        for name in parents:
            node = node.setdefault(name, {})
        if value is DROP:
            del node[leaf]
        else:
            node[leaf] = value
    return cfg


def _run_config(command, cfg):
    with open("run.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return main([command, "--config", "run.json"])


def _assert_config_error(command, edits, calls, capsys):
    rc = _run_config(command, _with(BASES[command], edits))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("config error"), err
    assert calls == []


def test_config_bases_reach_the_solvers(solver_calls, capsys):
    # the unedited bases are valid, so each failure below is the edit's
    for command, stub in (("evolve", "run"), ("ground-state", "ground_state"),
                          ("symmetry-check", "covariance_test")):
        assert _run_config(command, BASES[command]) == 0
        assert solver_calls.pop() == stub


@pytest.mark.parametrize("command, edits", [
    ("evolve", {"physics.G": "x"}),
    ("evolve", {"outputs.charges_every": "x"}),
    ("evolve", {"checks.norm_tol": "x"}),
    ("evolve", {"outputs.charges_every": 5, "checks.charge_tols": {"M": "x"}}),
    ("evolve", {"outputs.charges_every": 5, "checks.charge_tols": [1]}),
    ("evolve", {"initial.sigma": "x"}),
    ("evolve", {"initial.center": [1]}),
    ("evolve", {"initial.spin": "xy"}),
    ("evolve", {"initial": {"kind": "snapshot", "path": "missing.lls"}}),
    ("evolve", {"potentials": {"snapshot": "missing.lls"}}),
    ("symmetry-check", {"element": DROP, "element_path": "missing.json"}),
    ("evolve", {"potentials": {"preset": "taubnut", "a": "x"}}),
    ("ground-state", {"relax.dtau": "x"}),
    ("ground-state", {"checks.energy_window": [1]}),
    ("ground-state", {"checks.energy_window": ["a", "b"]}),
    ("symmetry-check", {"checks.tol": "x"}),
    ("evolve", {"potentials": {"preset": "vortex"}}),
    ("evolve", {"potentials": {"preset": "uniform", "Omega0": True}}),
    ("evolve", {"potentials": {"preset": "uniform", "Omega0": [1.0, 2.0]}}),
    ("evolve", {"initial.spin": ["j", "1"]}),
    ("evolve", {"initial.k0": ["0.5", 0, 0]}),
    ("evolve", {"initial.center": ["nan", 0, 0], "initial.normalize": False}),
])
def test_malformed_value_is_config_error(command, edits, solver_calls, capsys):
    _assert_config_error(command, edits, solver_calls, capsys)


_NAN_ELEMENT = dict(BASES["symmetry-check"]["element"], d=float("nan"), g=float("nan"))


@pytest.mark.parametrize("command, edits", [
    ("evolve", {"grid.length": float("inf")}),
    ("evolve", {"grid.length": 10**400}),
    ("evolve", {"evolver.dt": float("inf")}),
    ("evolve", {"initial.sigma": 0}),
    ("evolve", {"initial.sigma": -1}),
    ("evolve", {"initial.spin": [0, 0]}),
    ("symmetry-check", {"element": _NAN_ELEMENT}),
    ("evolve", {"outputs.report": "nodir/r.json"}),
    ("ground-state", {"outputs.snapshot": "nodir/gs.lls"}),
    ("evolve", {"outputs.charges_csv": "c.csv"}),
    ("ground-state", {"relax.max_iter": 0}),
    ("ground-state", {"relax.max_iter": -3}),
    ("ground-state", {"relax.dtau": 0}),
    ("ground-state", {"relax.dtau": -0.05}),
    ("ground-state", {"relax.tol": -1e-9}),
    ("evolve", {"potentials": {"preset": "taubnut", "sign": 0}}),
    ("evolve", {"potentials": {"preset": "taubnut", "r_cut": -1}}),
    ("evolve", {"potentials": {"preset": "gradient",
                               "theta": {"amplitude": 0.1, "sigma": 0}}}),
    ("evolve", {"potentials": {"U_point_mass": {"GM": 1.0, "soften": 0}}}),
    # in range, but sigma**2 and soften**2 underflow to zero
    ("evolve", {"potentials": {"preset": "gradient",
                               "theta": {"amplitude": 0.1, "sigma": 1e-200}}}),
    ("evolve", {"potentials": {"U_point_mass": {"GM": 1.0, "soften": 1e-200}}}),
    # abs(nan - nu) > tol is false: the declared nu must be compared the other way
    ("symmetry-check", {"element.nu": float("nan")}),
])
def test_value_that_cannot_run_is_config_error(command, edits, solver_calls, capsys):
    _assert_config_error(command, edits, solver_calls, capsys)


# the first section a config has names its subcommand (symmetry checks evolve too)
COMMANDS = {"element": "symmetry-check", "relax": "ground-state", "evolver": "evolve"}
STUBS = {"evolve": "run", "ground-state": "ground_state",
         "symmetry-check": "covariance_test"}


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1]
                                         / "configs").glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_reach_their_solver(path, solver_calls, capsys):
    # the stubs' made-up results may fail a check (exit 1), never the config
    command = next(c for section, c in COMMANDS.items()
                   if section in json.loads(path.read_text()))
    rc = main([command, "--config", str(path)])
    assert rc in (0, 1), capsys.readouterr().err
    assert solver_calls == [STUBS[command]]


@pytest.mark.parametrize("command, edits", [
    ("evolve", {"potentials": {"preset": "uniform"}}),  # split needs varpi = 0
    ("evolve", {"evolver": {"kind": "rk4", "dt": 1.0, "steps": 1}}),  # unstable
    ("ground-state", {"potentials": {"preset": "uniform"}}),
    ("symmetry-check", {"potentials": {"preset": "uniform"}}),
])
def test_compute_failure_exits_1_with_one_line(command, edits, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LLN_OUTDIR", raising=False)
    outputs = {"report": "r.json"} if command == "symmetry-check" else {
        "report": "r.json", "snapshot": "s.lls"}
    assert _run_config(command, _with(BASES[command], dict(edits, outputs=outputs))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{command} failed: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert sorted(os.listdir(tmp_path)) == ["run.json"]


def test_charge_tols_need_the_monitor(solver_calls, capsys):
    _assert_config_error("evolve", {"checks.charge_tols": {"M": 1e-8}}, solver_calls, capsys)
    _assert_config_error("evolve", {"outputs.charges_every": 0,
                                    "checks.charge_tols": {"M": 1e-8}}, solver_calls, capsys)


def test_negative_charges_every(solver_calls, capsys):
    _assert_config_error("evolve", {"outputs.charges_every": -1}, solver_calls, capsys)


@pytest.mark.parametrize("command, key, value", [
    ("evolve", "grid.n", 8.7),
    ("evolve", "grid.n", 16.5),
    ("evolve", "evolver.steps", True),
    ("evolve", "evolver.steps", 1.5),
    ("ground-state", "relax.max_iter", True),
    ("ground-state", "relax.max_iter", 20.5),
    ("evolve", "outputs.charges_every", True),
    ("evolve", "outputs.charges_every", 2.5),
])
def test_counts_must_be_integers(command, key, value, solver_calls, capsys):
    _assert_config_error(command, {key: value}, solver_calls, capsys)


@pytest.mark.parametrize("value", ["yes", 1, None])
def test_require_converged_must_be_boolean(value, solver_calls, capsys):
    _assert_config_error("ground-state", {"checks.require_converged": value},
                         solver_calls, capsys)


@pytest.mark.parametrize("command, key", [
    ("evolve", "outputs.report"),
    ("evolve", "outputs.snapshot"),
    ("evolve", "outputs.charges_csv"),
    ("ground-state", "outputs.report"),
    ("symmetry-check", "outputs.report"),
])
@pytest.mark.parametrize("value", ["", 3, None, ["r.json"]])
def test_outputs_must_be_paths(command, key, value, solver_calls, capsys):
    _assert_config_error(command, {key: value}, solver_calls, capsys)


@pytest.mark.parametrize("command, section, value", [
    (command, section, value)
    for command, section in [("evolve", "outputs"), ("evolve", "checks"),
                             ("evolve", "physics"), ("ground-state", "outputs"),
                             ("ground-state", "checks"), ("symmetry-check", "outputs"),
                             ("symmetry-check", "checks")]
    for value in ([], 0, None)
] + [("evolve", "potentials", None)])  # [] and 0 were rejected already
def test_sections_must_be_objects(command, section, value, solver_calls, capsys):
    _assert_config_error(command, {section: value}, solver_calls, capsys)


def test_relax_source_is_checked_before_compute(solver_calls, capsys):
    _assert_config_error("ground-state", {"relax.source": "free"}, solver_calls, capsys)


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_lln_threads_is_config_error(value, solver_calls, monkeypatch, capsys):
    monkeypatch.setenv("LLN_THREADS", value)
    _assert_config_error("evolve", {}, solver_calls, capsys)
    monkeypatch.setenv("LLN_THREADS", value)
    assert main(["charges", "--snapshot", "missing.lls"]) == 2
    assert "LLN_THREADS" in capsys.readouterr().err


@pytest.fixture
def openblas():
    """numpy's bundled OpenBLAS, its thread count restored afterwards."""
    found = sorted(glob.glob(cli._OPENBLAS))
    if not found:
        pytest.skip("numpy has no bundled scipy-openblas here")
    lib = ctypes.CDLL(found[0])
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    before = lib.scipy_openblas_get_num_threads64_()
    yield lib
    lib.scipy_openblas_set_num_threads64_(before)


def test_main_runs_openblas_on_one_thread(tmp_path, openblas, capsys):
    openblas.scipy_openblas_set_num_threads64_(2)
    path = evolve_config(tmp_path, evolver={"kind": "split", "dt": 1e-3, "steps": 2})
    assert main(["evolve", "--config", path]) == 0
    assert openblas.scipy_openblas_get_num_threads64_() == 1
    assert capsys.readouterr().err == ""


def test_main_runs_without_openblas(tmp_path, openblas, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_OPENBLAS", str(tmp_path / "libscipy_openblas*"))
    openblas.scipy_openblas_set_num_threads64_(2)
    path = evolve_config(tmp_path, evolver={"kind": "split", "dt": 1e-3, "steps": 2})
    assert main(["evolve", "--config", path]) == 0
    assert openblas.scipy_openblas_get_num_threads64_() == 2  # left alone
    assert "OpenBLAS threads not capped" in capsys.readouterr().err


# fuzz bases: together they reach every section, every outputs and checks
# key, each potentials form and both element forms
FUZZ_BASES = [
    ("evolve", {
        "grid": dict(G16),
        "physics": {"m": 1.0, "hbar": 1.0, "G": 1.0},
        "potentials": {"preset": "taubnut", "a": 1.0, "sign": 1, "r_cut": 2.0},
        "initial": {"kind": "gaussian", "sigma": 1.2, "center": [0.5, 0.0, 0.0],
                    "k0": [0.3, 0.0, 0.0], "spin": [[1.0, 0.0], 0.0], "normalize": True},
        "evolver": {"kind": "split", "dt": 1e-3, "steps": 20, "source": "self",
                    "poisson": "periodic"},
        "outputs": {"charges_csv": "c.csv", "charges_every": 5, "snapshot": "f.lls",
                    "report": "r.json"},
        "checks": {"norm_tol": 1e-10, "charge_tols": {"M": 1e-8, "P": 1e-8}},
    }),
    ("ground-state", {
        "grid": dict(G16),
        "physics": {"G": 4.0},
        "potentials": {"preset": "gradient", "theta": {"amplitude": 0.1, "sigma": 2.0},
                       "U_point_mass": {"GM": 1.0, "soften": 0.5}},
        "initial": {"kind": "snapshot", "path": "seed.lls"},
        "relax": {"dtau": 0.05, "tol": 1e-8, "max_iter": 20, "source": "self",
                  "poisson": "isolated"},
        "outputs": {"snapshot": "gs.lls", "report": "gs.json"},
        "checks": {"require_converged": True, "energy_window": [-5.0, 5.0]},
    }),
    ("symmetry-check", {
        "grid": dict(G16),
        "physics": {"G": 1.0},
        "potentials": {"snapshot": "pot.lls"},
        "initial": {"kind": "gaussian", "sigma": 0.8},
        "evolver": {"dt": 1e-3, "steps": 2, "source": "external"},
        "element": sngroup.element_to_dict(sngroup.SnGroupElement.dilation(1.1)),
        "checks": {"tol": 1e-3},
        "outputs": {"report": "sym.json"},
    }),
    ("symmetry-check", {
        "grid": dict(G16),
        "potentials": {"preset": "uniform", "Omega0": 0.5, "U_point_mass": {"GM": 1.0}},
        "initial": {"kind": "gaussian"},
        "evolver": {"dt": 1e-3, "steps": 2},
        "element_path": "elem.json",
    }),
]

_letters = st.text(string.ascii_letters, min_size=1, max_size=8)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-64, 64),
    st.floats(-64.0, 64.0), st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    _letters,
)
_values = st.one_of(_scalars, st.lists(_scalars, max_size=4),
                    st.dictionaries(_letters, _scalars, max_size=3))


def _nodes(node, path=()):
    """Paths of every key or list item below node."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    return [p for k, v in items for p in [path + (k,)] + _nodes(v, path + (k,))]


@st.composite
def _mutated_configs(draw):
    command, base = draw(st.sampled_from(FUZZ_BASES))
    cfg = copy.deepcopy(base)
    path = draw(st.sampled_from(_nodes(cfg)))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    elif action == "add":
        target = draw(st.sampled_from([d for d in [cfg, parent] if isinstance(d, dict)]))
        target["x" + draw(_letters)] = draw(_values)
    else:
        parent[path[-1]] = draw(_values)
    return command, cfg


@pytest.fixture
def fuzz_files(solver_calls):
    grid = fields.GridSpec(16, 16.0)
    fields.save_snapshot("seed.lls", fields.gaussian_packet(grid, sigma=1.2))
    X = grid.mesh()
    fields.save_potentials("pot.lls", grid, U=-np.exp(-np.sum(X**2, axis=0) / 8.0),
                           varpi=np.zeros((3,) + grid.shape))
    sngroup.save_element("elem.json", sngroup.SnGroupElement.dilation(1.1))
    return solver_calls


def test_fuzz_bases_are_valid(fuzz_files, capsys):
    for command, cfg in FUZZ_BASES:
        assert _run_config(command, cfg) == 0, capsys.readouterr().err
    assert len(fuzz_files) == len(FUZZ_BASES)


@settings(database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_mutated_configs())
def test_config_fuzz_exits_cleanly(case, fuzz_files):
    # a malformed config exits 2 before any solver runs, never with a traceback
    command, cfg = case
    fuzz_files.clear()
    rc = _run_config(command, cfg)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert fuzz_files == []


def test_entry_point_subprocess():
    # the child must import the lln under test, whatever its working
    # directory, relative PYTHONPATH or installed copies
    src = str(Path(lln.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    proc = subprocess.run(
        [sys.executable, "-m", "lln",
         "verify-geometry", "--samples", "50", "--points", "1"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "geometry checks passed" in proc.stdout

    # `python -m lln` bypasses the pip-generated wrapper; check its declaration
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["lln"] == "lln.cli:main"


_STARTUP_PROBE = """
import json, os, sys
import lln.cli
tasks = "/proc/self/task"
print(json.dumps([os.environ["OPENBLAS_NUM_THREADS"], "scipy.linalg" in sys.modules,
                  len(os.listdir(tasks)) if os.path.isdir(tasks) else None]))
"""


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_starts_no_blas_threads_and_no_scipy_linalg(preset):
    # a fresh interpreter: `import lln` must set OPENBLAS_NUM_THREADS before
    # numpy loads, so the bundled OpenBLAS copies start no worker threads; an
    # explicit setting wins. scipy.linalg (only `exp_element` needs it) stays out.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(lln.__file__).resolve().parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    value, linalg, threads = json.loads(proc.stdout)
    assert value == (preset or "1")
    assert not linalg
    if preset is None and threads is not None:
        assert threads == 1
