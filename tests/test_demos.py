"""Smoke test of the kernel timing script on a tiny grid."""

import importlib.util
import time
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "demos" / "kernel_timings.py"


def test_kernel_timings_runs_at_n8(capsys):
    spec = importlib.util.spec_from_file_location("kernel_timings", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
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
