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
    assert len(table) == 15
    for row in table.values():
        assert len(row) == 1 and np.isfinite(row[0][1:]).all()
    assert table["kick phase"][0][0] == ()  # no transform
    assert table["fft pair, 1 comp., 1 worker"][0][0] == (1,)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-4:] == ["n=8", "workers", "CPU", "wall"] and len(lines) == 16
