"""One benchmark process: import ``lln.cli``, write the workload's configs,
then drive ``lln.cli.main(argv)`` in this process and check every output.

Run by run.py, never by hand: it takes the launch time of the process on the
shared monotonic clock so that the set-up time includes interpreter start.
The last line of stdout is a JSON summary for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads


def _args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() of the parent just before the launch")
    ap.add_argument("--dir", required=True, help="scratch directory of this process")
    ap.add_argument("--reps", type=int, default=1, help="repetitions to measure")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="SPANS",
                    help="trace one repetition and write its spans to this file")
    return ap.parse_args()


def _run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except Exception:  # an uncaught error is a failed operation, not a crash
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def _check(op, rc, stdout, stderr) -> list:
    if rc is None:
        return [f"{op.name} raised: {(stderr.strip().splitlines() or ['?'])[-1]}"]
    try:
        problems = op.check(rc, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"{op.name} outputs unreadable: {exc!r}"]
    if rc != 0 and not problems:
        problems = [f"{op.name} exited {rc}: {stderr.strip()}"]
    return problems


def main() -> int:
    args = _args()
    cfg_dir = os.path.join(args.dir, "configs")
    os.makedirs(cfg_dir)
    import lln.cli as cli

    wl = workloads.make(args.workload, args.seed, cfg_dir)
    setup = {"setup_cpu_s": time.process_time(),
             "setup_wall_s": time.monotonic() - args.launched}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()

    reps, failures, unexpected, accuracy = [], [], [], {}
    attempted = failed = 0
    for _ in range(1 if tracer is not None else args.reps):
        out_dir = os.path.join(args.dir, f"rep{len(reps)}")
        os.makedirs(out_dir)
        os.environ["LLN_OUTDIR"] = out_dir
        ops = wl.ops(cfg_dir, out_dir)
        results = []
        steal0, times0, cpu0, t0 = _steal_s(), os.times(), time.process_time(), time.monotonic()
        for op in ops:
            results.append(_run_op(cli, op))
        wall_s, cpu_s = time.monotonic() - t0, time.process_time() - cpu0
        times1, steal_s = os.times(), _steal_s() - steal0

        work = 0.0
        for op, (rc, stdout, stderr) in zip(ops, results):
            attempted += 1
            problems = _check(op, rc, stdout, stderr)
            if problems:
                failed += 1
                failures.extend(problems)
                unexpected.extend(p for p in problems
                                  if not any(k in p for k in workloads.KNOWN_DEFECTS))
            work += op.work(stdout)
            if not reps:
                accuracy[op.name] = workloads.last_json(stdout)
        reps.append({"cpu_s": cpu_s, "user_s": times1.user - times0.user,
                     "sys_s": times1.system - times0.system, "wall_s": wall_s,
                     "steal_s": steal_s, "work": work})

    summary = {
        **setup,
        "reps": reps,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(set(failures)),
        "unexpected": sorted(set(unexpected)),
        "accuracy": dict(accuracy, **wl.accuracy()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is not None:
        tracer.uninstall()
        summary["layers"] = tracer.metrics()
        tracer.dump(args.trace)
    print(json.dumps(summary))
    return 0


def _steal_s() -> float:
    """CPU time a hypervisor has taken from the running (virtual) machine,
    all CPUs summed (0 where /proc/stat has no steal column)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    sys.exit(main())
