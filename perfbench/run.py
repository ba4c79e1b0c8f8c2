"""Benchmark of the ``lln`` command line workbench.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Every measurement runs in a fresh
interpreter (worker.py) that imports ``lln.cli`` from ``src/`` and drives
``lln.cli.main(argv)`` on configs generated from the seed; run outputs go to
a scratch directory under ``.perfbench_out/`` that is removed afterwards.

--trace 0 measures the end-to-end metrics: the median set-up time of several
fresh interpreters, and the median over the repetitions that --seconds buys
at the workload's nominal repetition time. The repetition count depends on
--seconds alone, never on how fast a run goes, so every run of a workload
attempts the same operations.
--trace 1 makes one plain and two traced repetitions, each in its own
process, and reports per-layer counts and self times; the two traced runs
must agree on every count, and every layer the workload is known to enter
must have fired.

The last line of stdout is the result JSON; the line before it holds the
failures, accuracy log and provenance, which are also saved under
``.perfbench_out/results/``. See WORKLOADS.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    pass


def _worker(args, scratch: Path, tag: str, deadline: float, *extra) -> dict:
    wdir = scratch / tag
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    env["LLN_THREADS"] = str(len(os.sched_getaffinity(0)))
    env.pop("LLN_OUTDIR", None)
    launched = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--launched", repr(launched), "--dir", str(wdir),
           *extra]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} did not finish within the run's {DEADLINE_S:.0f} s")
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{tag} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _provenance(args, worker: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history to name
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lln").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(affinity),
        "affinity": affinity,
        "os_cpu_count": os.cpu_count(),
        "LLN_THREADS": len(affinity),
        **worker["versions"],
    }


def _end_to_end(args, scratch: Path, deadline: float):
    setups = [_worker(args, scratch, f"setup{i}", deadline, "--setup-only")
              for i in range(SETUP_PROBES)]
    count = workloads.WORKLOADS[args.workload].reps(args.seconds)
    run = _worker(args, scratch, "run", deadline, "--reps", str(count))
    setups.append(run)
    reps = run["reps"]
    metrics = {
        "setup_s": statistics.median(s["setup_cpu_s"] for s in setups),
        "solve_cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "work_per_cpu_s": statistics.median(r["work"] / r["cpu_s"] for r in reps),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    detail = {"setup_cpu_s": [s["setup_cpu_s"] for s in setups],
              "setup_wall_s": [s["setup_wall_s"] for s in setups], "reps": reps}
    return [run], metrics, detail


def _per_layer(args, scratch: Path, deadline: float):
    plain = _worker(args, scratch, "plain", deadline, "--reps", "1")
    spans = OUT / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    traced = [_worker(args, scratch, f"traced{i}", deadline, "--trace",
                      str(spans / f"{args.workload}-seed{args.seed}-{os.getpid()}-{i}.json"))
              for i in range(2)]
    layers = [t["layers"] for t in traced]
    counts = [{k: v for k, v in lay.items() if not k.endswith("_s")} for lay in layers]
    if counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0]) | set(counts[1])
                      if counts[0].get(k) != counts[1].get(k))
        raise BenchError(f"traced runs at one seed disagree on counts: {diff}")
    expected = workloads.WORKLOADS[args.workload].layers
    silent = [name for name in expected if f"{name}.calls" not in counts[0]]
    if silent:
        raise BenchError(f"expected layers never fired: {silent}")

    traced_solve = statistics.median(t["reps"][0]["cpu_s"] for t in traced)
    merged = dict(counts[0])
    for key in {k for lay in layers for k in lay if k.endswith("_s")}:
        merged[key] = statistics.median(lay.get(key, 0.0) for lay in layers)
    merged["trace.overhead_s"] = traced_solve - plain["reps"][0]["cpu_s"]
    detail = {"plain_reps": plain["reps"], "traced_reps": [t["reps"][0] for t in traced],
              "layers": merged}
    return [plain, *traced], merged, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "lln" / "cli.py").is_file():
        print(f"no lln sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + DEADLINE_S
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
    try:
        measure = _per_layer if args.trace else _end_to_end
        try:
            runs, metrics, detail = measure(args, scratch, deadline)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    unexpected = sorted({p for r in runs for p in r["unexpected"]})
    record = {
        "provenance": _provenance(args, runs[0]),
        "failures": sorted({p for r in runs for p in r["failures"]}),
        "unexpected": unexpected,
        "accuracy": runs[0]["accuracy"],
        **detail,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        # a layer the workload never enters has no span: zero calls, zero time
        "metrics": {k: {"value": metrics.get(k, 0), "unit": u} for k, u in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
