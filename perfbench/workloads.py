"""Benchmark workloads: configs generated from a seed, the CLI operations a
repetition runs, and the checks each operation's outputs must pass.

A workload is a seed-driven recipe. ``build(seed)`` returns the configs to
write at set-up; ``ops(cfg_dir, out_dir)`` returns the ``lln`` invocations of
one repetition. Each operation carries a check that reads the exit code, the
stdout JSON and the files written under ``out_dir`` and returns a list of
problems; an empty list means the operation passed. Problems that match a
known defect of the program (``KNOWN_DEFECTS``) still count as failed
operations, but do not mark the run's outputs as wrong.

Only the standard library is imported here: this module is loaded while the
set-up time is being measured.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

TWO_PI = 2.0 * math.pi

# configs/evolve_self.json tolerances, copied so that the benchmark's checks
# do not move when that example config is edited.
EVOLVE_NORM_TOL = 1e-10
EVOLVE_CHARGE_TOLS = {"M": 1e-06, "P": 1e-06, "J": 1e-06, "E_sn": 1e-04, "G": 1e-06}

# configs/ground_state_self.json settings and checks.
GS_ENERGY_WINDOW = (-2.8, -2.3)

# Per-class rel_l2 bounds for the symmetry checks on 16^3, set from the largest
# value measured over 14 seeds at the commit that introduced the benchmark
# (see WORKLOADS.md): translation 6.1e-6, boost 2.2e-5, dilation 2.1e-4,
# quarter turn 1.3e-10, generic rotation 7.7e-3.
SYMMETRY_BOUNDS = {
    "translation": 1e-4,
    "boost": 1e-4,
    "dilation": 1e-3,
    "quarter_turn": 1e-9,
    "rotation": 3e-2,
}

# The readback of the final charges from the snapshot must match the last CSV
# row to this relative accuracy (same data, same formulas).
READBACK_TOL = 1e-9

# Substrings of problems that are known defects of the program: the ROADMAP
# "J/G drift floor" makes the boost charge G of the self-gravitating 64^3 run
# drift by ~1.1e-6 over 200 steps, just above the 1e-6 tolerance.
KNOWN_DEFECTS = ("charge drift G ",)


@dataclass
class Op:
    """One ``lln`` invocation and the check of what it produced."""

    name: str
    argv: list
    check: Callable[[int, str], list]
    work: Callable[[str], float] = lambda stdout: 0.0


def last_json(stdout: str):
    """The JSON document the CLI printed (single line or indented)."""
    text = stdout.strip()
    if not text:
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    try:
        return json.loads(text.splitlines()[-1])
    except json.JSONDecodeError:
        return None


def _offset(rng: random.Random, dx: float):
    """A sub-cell offset of the packet centre, uniform in [-dx/2, dx/2)^3."""
    return [dx * (rng.random() - 0.5) for _ in range(3)]


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


class Workload:
    name = ""
    layers = ()  # trace layers every traced run of this workload must enter
    rep_s = 1.0  # nominal wall time of one repetition on a 2-vCPU machine

    @classmethod
    def reps(cls, seconds: float) -> int:
        """Repetitions a run of ``seconds`` measures: fixed by the budget, not
        by the speed of the run, so the operations attempted never vary."""
        return max(1, int(seconds // cls.rep_s))

    def accuracy(self) -> dict:
        """Accuracy values of the last checked repetition, for the log."""
        return {}


############################################################
# evolve_self64
############################################################


class EvolveSelf64(Workload):
    """``lln evolve`` on 64^3 with self/periodic gravity, then ``lln charges``
    on the written snapshot."""

    name = "evolve_self64"
    layers = ("cli.main", "evolve.run", "gravity.poisson_periodic", "charges.compute_charges",
              "evolve.apply_hamiltonian", "fields.fft", "fields.snapshot")
    n, length, steps, dt, every = 64, 16.0, 200, 1e-3, 10
    rep_s = 18.0

    def build(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        config = {
            "grid": {"n": self.n, "length": self.length},
            "physics": {"m": 1.0, "hbar": 1.0, "G": 1.0},
            "initial": {
                "kind": "gaussian",
                "sigma": 1.5,
                "k0": [TWO_PI / self.length, 0.0, 0.0],
                "center": _offset(rng, self.length / self.n),
            },
            "evolver": {"kind": "split", "dt": self.dt, "steps": self.steps,
                        "source": "self", "poisson": "periodic"},
            "outputs": {"charges_csv": "charges.csv", "charges_every": self.every,
                        "snapshot": "final.lls", "report": "report.json"},
            "checks": {"norm_tol": EVOLVE_NORM_TOL,
                       "charge_tols": dict(EVOLVE_CHARGE_TOLS)},
        }
        return {"evolve.json": config}

    def ops(self, cfg_dir: str, out_dir: str) -> list:
        self._out = out_dir
        return [
            Op("evolve", ["evolve", "--config", os.path.join(cfg_dir, "evolve.json")],
               self._check_evolve, lambda stdout: float(self.steps)),
            Op("charges", ["charges", "--mode", "self",
                           "--snapshot", os.path.join(out_dir, "final.lls")],
               self._check_charges),
        ]

    def _rows(self):
        with open(os.path.join(self._out, "charges.csv"), newline="") as fh:
            return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]

    def _check_evolve(self, rc: int, stdout: str) -> list:
        out = last_json(stdout)
        if rc not in (0, 1) or out is None:
            return [f"evolve exited {rc} without a result"]
        problems = []
        if out.get("steps") != self.steps:
            problems.append(f"evolve reported {out.get('steps')} steps")
        if not abs(out.get("final_time", 0.0) - self.steps * self.dt) < 1e-9:
            problems.append(f"final time {out.get('final_time')}")
        if not out.get("norm_drift", 1.0) <= EVOLVE_NORM_TOL:
            problems.append(f"norm drift {out.get('norm_drift')} exceeds {EVOLVE_NORM_TOL}")
        for name in ("report.json", "final.lls"):
            if not os.path.isfile(os.path.join(self._out, name)):
                problems.append(f"evolve wrote no {name}")
        rows = self._rows()
        if len(rows) != self.steps // self.every + 1:
            problems.append(f"charge CSV has {len(rows)} rows")
            return problems
        self.drifts = {name: _drift(rows, name) for name in EVOLVE_CHARGE_TOLS}
        over = [name for name, tol in EVOLVE_CHARGE_TOLS.items() if self.drifts[name] > tol]
        for name in over:
            problems.append(f"charge drift {name} = {self.drifts[name]:.3e} "
                            f"exceeds {EVOLVE_CHARGE_TOLS[name]}")
        if (rc == 1) != bool(over or out.get("norm_drift", 1.0) > EVOLVE_NORM_TOL):
            problems.append(f"evolve exit code {rc} disagrees with its charge CSV")
        return problems

    def accuracy(self) -> dict:
        return {"charge_drift": getattr(self, "drifts", {})}

    def _check_charges(self, rc: int, stdout: str) -> list:
        out = last_json(stdout)
        if rc != 0 or out is None:
            return [f"charges exited {rc}"]
        last = self._rows()[-1]
        problems = []
        for key in ("t", "M", "Px", "Py", "Pz", "Jx", "Jy", "Jz", "Gx", "Gy", "Gz",
                    "E_sn", "W_pot", "T_kin"):
            scale = max(1.0, abs(last[key]))
            if not abs(out.get(key, math.inf) - last[key]) <= READBACK_TOL * scale:
                problems.append(f"snapshot readback {key} = {out.get(key)} "
                                f"differs from the run's last record {last[key]}")
        return problems


_VECTOR = {"P": ("Px", "Py", "Pz"), "J": ("Jx", "Jy", "Jz"), "G": ("Gx", "Gy", "Gz")}


def _drift(rows, name) -> float:
    """max_t |Q(t) - Q(0)| / max(1, |Q(0)|), sup norm for vector charges."""
    cols = _VECTOR.get(name, (name,))
    q0 = [rows[0][c] for c in cols]
    dev = max(max(abs(r[c] - v) for c, v in zip(cols, q0)) for r in rows)
    return dev / max(1.0, max(abs(v) for v in q0))


############################################################
# ground_state_iso32
############################################################


class GroundStateIso32(Workload):
    """``lln ground-state`` with the settings of configs/ground_state_self.json."""

    name = "ground_state_iso32"
    layers = ("cli.main", "evolve.ground_state", "evolve.apply_hamiltonian",
              "gravity.poisson_isolated", "fields.fft", "fields.snapshot")
    n, length = 32, 16.0
    rep_s = 22.0

    def build(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        config = {
            "grid": {"n": self.n, "length": self.length},
            "physics": {"G": 4.0},
            "initial": {"kind": "gaussian", "sigma": 1.2,
                        "center": _offset(rng, self.length / self.n)},
            "relax": {"dtau": 0.02, "tol": 1e-09, "max_iter": 20000,
                      "source": "self", "poisson": "isolated"},
            "outputs": {"snapshot": "ground_state.lls", "report": "report.json"},
            "checks": {"require_converged": True,
                       "energy_window": list(GS_ENERGY_WINDOW)},
        }
        return {"ground_state.json": config}

    def ops(self, cfg_dir: str, out_dir: str) -> list:
        self._out = out_dir
        return [Op("ground-state",
                   ["ground-state", "--config", os.path.join(cfg_dir, "ground_state.json")],
                   self._check, self._work)]

    @staticmethod
    def _work(stdout: str) -> float:
        out = last_json(stdout) or {}
        return float(out.get("iterations", 0))

    def _check(self, rc: int, stdout: str) -> list:
        out = last_json(stdout)
        if rc != 0 or out is None:
            return [f"ground-state exited {rc}"]
        problems = []
        if out.get("converged") is not True:
            problems.append("relaxation did not converge")
        lo, hi = GS_ENERGY_WINDOW
        if not lo <= out.get("energy", math.nan) <= hi:
            problems.append(f"energy {out.get('energy')} outside [{lo}, {hi}]")
        if not out.get("iterations", 0) >= 1:
            problems.append(f"iterations {out.get('iterations')}")
        for name in ("report.json", "ground_state.lls"):
            if not os.path.isfile(os.path.join(self._out, name)):
                problems.append(f"ground-state wrote no {name}")
        return problems


############################################################
# symmetry_mix16
############################################################


def _quat(axis, angle):
    norm = math.sqrt(sum(a * a for a in axis))
    s = math.sin(angle / 2.0) / norm
    return [math.cos(angle / 2.0)] + [s * a for a in axis]


def _element(a=(1.0, 0.0, 0.0, 0.0), b=(0.0, 0.0, 0.0), c=(0.0, 0.0, 0.0),
             nu=1.0, h=0.0) -> dict:
    """Element JSON as ``lln`` reads it; a dilation by nu has d = nu^-2, g = nu^3."""
    return {"a": list(a), "b": list(b), "c": list(c), "d": nu**-2, "e": 0.0,
            "g": nu**3, "h": h}


class SymmetryMix16(Workload):
    """Twelve ``lln symmetry-check`` runs on 16^3, two or three per class."""

    name = "symmetry_mix16"
    layers = ("cli.main", "evolve.run", "gravity.poisson_isolated", "sngroup.represent",
              "fields.shift_field", "fields.resample_separable", "fields.sample_points",
              "fields.fft")
    n, length, steps, dt = 16, 16.0, 20, 1e-3
    rep_s = 6.0
    classes = (("translation", 2), ("boost", 2), ("dilation", 2),
               ("quarter_turn", 3), ("rotation", 3))

    def _draw(self, rng: random.Random, kind: str) -> dict:
        if kind == "translation":
            c = [0, 0, 0]
            while not any(c):
                c = [rng.randint(-3, 3) for _ in range(3)]
            dx = self.length / self.n
            return _element(c=[dx * ci for ci in c], h=rng.uniform(-1.0, 1.0))
        if kind == "boost":
            k = [0, 0, 0]
            while not any(k):
                k = [rng.randint(-2, 2) for _ in range(3)]
            return _element(b=[TWO_PI / self.length * ki for ki in k])
        if kind == "dilation":
            return _element(nu=math.exp(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.1)))
        if kind == "quarter_turn":
            axis = [0.0, 0.0, 0.0]
            axis[rng.randrange(3)] = 1.0
            return _element(a=_quat(axis, rng.choice((-1.0, 1.0)) * math.pi / 2.0))
        axis = [rng.gauss(0.0, 1.0) for _ in range(3)]
        return _element(a=_quat(axis, rng.uniform(0.3, 2.8)))

    def build(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        self.checks = []
        configs = {}
        for kind, count in self.classes:
            for i in range(count):
                name = f"{kind}_{i}"
                configs[f"{name}.json"] = {
                    "grid": {"n": self.n, "length": self.length},
                    "physics": {"G": 1.0},
                    "initial": {"kind": "gaussian", "sigma": 1.0,
                                "center": _offset(rng, self.length / self.n)},
                    "evolver": {"kind": "split", "dt": self.dt, "steps": self.steps,
                                "source": "self", "poisson": "isolated"},
                    "element": self._draw(rng, kind),
                    "checks": {"tol": SYMMETRY_BOUNDS[kind]},
                    "outputs": {"report": f"{name}.json"},
                }
                self.checks.append((name, kind))
        return configs

    def ops(self, cfg_dir: str, out_dir: str) -> list:
        self._out = out_dir
        return [Op(name, ["symmetry-check", "--config", os.path.join(cfg_dir, f"{name}.json")],
                   self._checker(name, kind), lambda stdout: 1.0)
                for name, kind in self.checks]

    def _checker(self, name, kind):
        def check(rc: int, stdout: str) -> list:
            out = last_json(stdout)
            if out is None:
                return [f"{name} exited {rc} without a result"]
            problems = []
            bound = SYMMETRY_BOUNDS[kind]
            if not out.get("rel_l2", math.inf) <= bound:
                problems.append(f"{name} rel_l2 = {out.get('rel_l2')} exceeds {bound}")
            if (rc == 0) == bool(problems):
                problems.append(f"{name} exit code {rc} disagrees with rel_l2")
            if not os.path.isfile(os.path.join(self._out, f"{name}.json")):
                problems.append(f"{name} wrote no report")
            return problems
        return check


WORKLOADS = {w.name: w for w in (EvolveSelf64, GroundStateIso32, SymmetryMix16)}


def make(name: str, seed: int, cfg_dir: str):
    """Instantiate a workload and write its configs into cfg_dir."""
    wl = WORKLOADS[name]()
    for fname, payload in wl.build(seed).items():
        _write_json(os.path.join(cfg_dir, fname), payload)
    return wl
