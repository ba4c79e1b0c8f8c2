"""Exercising the command line front end in process, plus one subprocess
smoke test at the end that runs ``python -m lln`` and checks the ``lln``
console-script declaration in pyproject.toml. Exit code contract: 0 pass,
1 failed check or bad data, 2 usage/config errors."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lln
from lln import charges as charges_mod
from lln import fields, gravity, sngroup
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
