"""One benchmark process: import trotterlab, run one workload's ops, report.

``run.py`` launches this in a fresh interpreter; the last line it prints is a
JSON report.  The first op is the set-up op and is never timed with the
others; with ``--first-only`` the process stops after it.  Otherwise ops run
back to back (closed loop, one client) until ``--seconds`` have passed.
Every op's output is checked after its timer stops.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--src", required=True, help="directory holding the trotterlab package")
    p.add_argument("--workdir", required=True)
    p.add_argument("--first-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()

    import workloads as wl

    import trotterlab

    if Path(trotterlab.__file__).resolve().parent != (Path(args.src) / "trotterlab").resolve():
        print(f"trotterlab imported from {trotterlab.__file__}, not {args.src}", file=sys.stderr)
        return 2

    workdir = Path(args.workdir)
    threads = min(2, len(os.sched_getaffinity(0)))
    work = wl.Sequence(args.workload, args.seed, threads, args.tiny, workdir)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)

    report = {
        "op_s": [],
        "phase_s": {name: [] for name in work.phases},
        "attempted": 0,
        "failed": 0,
        "problems": [],
        "master_seeds": [],
        "written": [0, 0],
    }

    def run_op(k: int, timed: bool):
        if tracer is not None:
            tracer.active = timed
        t0 = time.perf_counter()
        try:
            out, err = work.op(), None
        except Exception:  # an op that raises counts as failed; the run goes on
            out, err = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        return out, dt, err

    def settle(out, err, k: int, timed: bool) -> None:
        report["attempted"] += 1
        problems = [err] if err else []
        if not err:
            try:
                problems += work.check(out, k)
                if args.seed == wl.GOLDEN_SEED and not args.tiny:
                    problems += work.golden_problems(out)
                report["master_seeds"] = sorted(set(report["master_seeds"]) | set(work.master_seeds(out)))
                if timed:
                    report["written"] = [a + b for a, b in zip(report["written"], work.written())]
                    for name, seconds in work.phase_s.items():
                        report["phase_s"][name].append(seconds)
            except Exception:
                problems.append("check raised: " + traceback.format_exc(limit=3))
        work.cleanup()
        if problems:
            report["failed"] += 1
            report["problems"] += problems[: max(0, 5 - len(report["problems"]))]

    out, dt, err = run_op(0, timed=False)
    report["first_op_end"] = time.monotonic()
    report["first_op_s"] = dt
    settle(out, err, 0, timed=False)
    del out  # so that the next op's peak memory is its own

    if not args.first_only:
        deadline = time.perf_counter() + args.seconds
        k = 1
        while time.perf_counter() < deadline:
            out, dt, err = run_op(k, timed=True)
            report["op_s"].append(dt)
            settle(out, err, k, timed=True)
            del out
            k += 1

    n_timed = max(1, len(report["op_s"]))
    if tracer is not None:
        import numpy as np

        layers = tracer.layer_metrics(n_timed)
        layers["output.files_written"] = report["written"][0] / n_timed
        layers["output.bytes_written"] = report["written"][1] / n_timed
        report["layers"] = layers
        np.savez_compressed(workdir.parent / f"spans_{args.workload}.npz", **tracer.span_array())

    import numpy
    import scipy

    report["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    report["threads"] = threads
    report["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del report["written"]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
