"""Span tracing of ``lln`` layers, installed from outside the package.

``Tracer.install()`` replaces each traced function at every module attribute
that binds it (``lln.gravity.poisson_periodic`` and ``lln.evolve.poisson_periodic``
alike) and wraps the four ``scipy.fft`` transforms the package calls. Spans
(name, start, end, parent, cpu_start, cpu_end) are kept in memory; ``metrics()``
folds them into per-layer self time and the exact counts, and ``dump()``
writes them once.

Start and end are wall-clock readings; self time is taken from the process CPU
clock (all threads, so it includes the FFT worker threads), which time stolen
by the hypervisor of a shared machine inflates far less than the wall clock.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np
import scipy.fft

# (module, function) -> layer name. Layers of several functions share a name.
LAYERS = {
    ("lln.cli", "main"): "cli.main",
    ("lln.evolve", "run"): "evolve.run",
    ("lln.evolve", "ground_state"): "evolve.ground_state",
    ("lln.evolve", "apply_hamiltonian"): "evolve.apply_hamiltonian",
    ("lln.charges", "compute_charges"): "charges.compute_charges",
    ("lln.gravity", "poisson_periodic"): "gravity.poisson_periodic",
    ("lln.gravity", "poisson_isolated"): "gravity.poisson_isolated",
    ("lln.sngroup", "represent"): "sngroup.represent",
    ("lln.fields", "sample_points"): "fields.sample_points",
    ("lln.fields", "resample_separable"): "fields.resample_separable",
    ("lln.fields", "shift_field"): "fields.shift_field",
    ("lln.fields", "save_snapshot"): "fields.snapshot",
    ("lln.fields", "load_snapshot"): "fields.snapshot",
}
FFT_FUNCTIONS = ("fftn", "ifftn", "rfftn", "irfftn")
FFT_LAYER = "fields.fft"


def _fft_points(args, kwargs, out):
    # real-space points transformed: the input of fftn/ifftn/rfftn, the output
    # of irfftn, i.e. the larger of the two
    return {"points": max(np.size(args[0]), np.size(out))}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _iterations(args, kwargs, out):
    return {"iterations": out.iterations}


def _sample_points(args, kwargs, out):
    pts = args[2] if len(args) > 2 else kwargs["pts"]
    return {"points": len(pts)}


COUNTERS = {
    FFT_LAYER: _fft_points,
    "fields.snapshot": _file_bytes,
    "evolve.ground_state": _iterations,
    "fields.sample_points": _sample_points,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, cpu_start, cpu_end]
        self.counts = {}  # layer -> {stat: int}
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def wrap(self, layer: str, fn):
        counter = COUNTERS.get(layer)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, time.perf_counter(), None, stack[-1] if stack else -1,
                    time.process_time(), None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[5] = time.process_time()
                span[2] = time.perf_counter()
                stack.pop()
            tally = counts.setdefault(layer, {})
            tally["calls"] = tally.get("calls", 0) + 1
            if counter is not None:
                for stat, value in counter(args, kwargs, out).items():
                    tally[stat] = tally.get(stat, 0) + int(value)
            return out

        return traced

    def _patch_everywhere(self, original, wrapper):
        """Rebind wrapper at every lln module attribute that holds original."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "lln" or modname.startswith("lln.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        for (modname, fname), layer in LAYERS.items():
            original = getattr(sys.modules[modname], fname)
            self._patch_everywhere(original, self.wrap(layer, original))
        for fname in FFT_FUNCTIONS:
            original = getattr(scipy.fft, fname)
            wrapper = self.wrap(FFT_LAYER, original)
            self._patches.append((scipy.fft, fname, original))
            setattr(scipy.fft, fname, wrapper)
            self._patch_everywhere(original, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict:
        """Per-layer sum of span CPU time minus the CPU time of child spans."""
        child = [0.0] * len(self.spans)
        for _, _, _, parent, cpu0, cpu1 in self.spans:
            if parent >= 0:
                child[parent] += cpu1 - cpu0
        out = {}
        for (name, _, _, _, cpu0, cpu1), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (cpu1 - cpu0 - inner)
        return out

    def metrics(self) -> dict:
        """Flat ``<layer>.<stat>`` dict of counts and self times."""
        out = {}
        for layer, tally in self.counts.items():
            for stat, value in tally.items():
                out[f"{layer}.{stat}"] = value
        for layer, value in self.self_times().items():
            out[f"{layer}.self_s"] = value
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "cpu_start", "cpu_end"],
                       "spans": self.spans}, fh)
