"""Smoke tests of the demo scripts on tiny grids, and the oracle values
they quote."""

import importlib.util
import time
from pathlib import Path

import numpy as np

from oracles import radial_ground_state

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_kernel_timings_runs_at_n8(capsys):
    mod = _load("kernel_timings")
    t0 = time.process_time()
    table = mod.main(ns=(8,), repeats=1)
    assert time.process_time() - t0 < 2.0
    assert len(table) == 17
    for row in table.values():
        assert len(row) == 1 and np.isfinite(row[0][1:]).all()
    assert table["kick phase"][0][0] == ()  # no transform
    assert table["fft pair, 1 comp., 1 worker"][0][0] == (1,)
    # the traced peak of a call holds at least its result: the kick phase's
    # complex n^3, the Hamiltonian's 2 n^3
    assert table["kick phase"][0][3] >= 8**3 * 16 / 1e6
    assert table["apply_hamiltonian"][0][3] >= 2 * 8**3 * 16 / 1e6
    # one fresh `lln evolve` process: its peak RSS holds the interpreter
    # with numpy and scipy at least
    assert table["lln evolve (process)"][0][0] == () and table["lln evolve (process)"][0][3] > 20
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-5:] == ["n=8", "workers", "CPU", "wall", "MB"] and len(lines) == 18
    assert float(lines[1 + list(table).index("kick phase")].split()[-1]) == round(
        table["kick phase"][0][3], 2)


def test_taub_nut_frame_grid_rows_at_n16(capsys):
    # the preset's closed-form Jacobian gives the monopole curl to round-off
    # off the mask; the spectral Jacobian of the same varpi is O(1) off
    table = _load("taub_nut_frame").main(ns=(16,))
    exact_max, exact_med, spectral_max, spectral_med = table[16]
    assert exact_max < 1e-12 and exact_med < 1e-14
    assert spectral_med > 0.1
    assert "spectral med" in capsys.readouterr().out


def test_gauge_ledger_rows_at_n16(capsys):
    # the gauge-invariant columns hold to the aliasing of exp(i m theta/hbar)
    # phi (T_kin with E_paper, 1.6e-6 at most here), curl varpi and the energy
    # split to round-off; the canonical P moves by percents
    table = _load("gauge_ledger").main(n=16)
    assert set(table) == {"band-limited", "uniform", "taub-nut"}
    for row in table.values():
        assert row["T_kin"] < 2.0 * row["E_paper"] < 1e-5 and row["M"] < 1e-15
        assert max(row["curl"], row["split"], row["split_gauged"]) < 1e-14
        assert min(row["Px"], row["Py"], row["Pz"]) > 1e-2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["column", "band-limited", "uniform", "taub-nut"]
    assert len(lines) == 2 + len(table["uniform"])


def test_virial_demo_quotes_the_radial_oracle():
    mu, E, rms = _load("ground_state_virial").RADIAL
    mu0, E0, rms0 = radial_ground_state(G=4.0)
    assert abs(mu - mu0) < 1e-9 and abs(E - E0) < 1e-9 and abs(rms - rms0) < 1e-6
