"""The benchmark's layer gate, run in-process on every workload.

`perfbench/run.py --trace 1` fails a workload when a layer it lists never
fires or when two traced runs disagree on a count. This runs each workload of
perfbench/workloads.py under perfbench/tracing.py's Tracer through
`lln.cli.main` and applies the same two gates, so a change that moves work off
a listed layer fails here rather than in a traced benchmark run. The
benchmark files are read, never changed.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import lln.cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


workloads, tracing = _load("workloads"), _load("tracing")


def _traced_counts(name, root, monkeypatch):
    """Per-layer counts of one traced seed-1 repetition of workload `name`."""
    cfg_dir, out_dir = root / "configs", root / "out"
    cfg_dir.mkdir(parents=True)
    out_dir.mkdir()
    wl = workloads.make(name, 1, str(cfg_dir))
    if name == "evolve_self64":  # the layers are under test, not the sizes
        path = cfg_dir / "evolve.json"
        cfg = json.loads(path.read_text())
        cfg["grid"]["n"], cfg["evolver"]["steps"] = 16, 20
        path.write_text(json.dumps(cfg))
    monkeypatch.setenv("LLN_OUTDIR", str(out_dir))
    # start cold, as each traced run of run.py does in its own process
    for module in [m for n, m in sys.modules.items() if n.startswith("lln.")]:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    tracer = tracing.Tracer().install()
    try:
        for op in wl.ops(str(cfg_dir), str(out_dir)):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                lln.cli.main(op.argv)
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.metrics().items() if not k.endswith("_s")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_enters_every_listed_layer(name, tmp_path, monkeypatch):
    counts = [_traced_counts(name, tmp_path / f"run{i}", monkeypatch) for i in range(2)]
    assert counts[0] == counts[1]
    silent = [layer for layer in workloads.WORKLOADS[name].layers
              if f"{layer}.calls" not in counts[0]]
    assert silent == []
