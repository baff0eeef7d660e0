"""Run the benchmark over several seeds and save the results for compare.py.

    python3 perfbench/sample.py OUT_DIR [--root DIR ...] [--workloads a,b]
                                [--seeds 10] [--first-seed 1] [--seconds S]
                                [--trace 0|1]

Each ``--root`` is a checkout holding ``src/trotterlab``, ``BENCHMARK.json`` and
this ``perfbench/`` (copy it in, so both sides run identical benchmark code);
the default is the checkout this script sits in.  With two roots the runs
alternate which side goes first, seed by seed.  Results go to
``OUT_DIR/<root index>/<workload>.jsonl``; with one root, straight to
``OUT_DIR/<workload>.jsonl``.  ``--seconds`` defaults to ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("out")
    p.add_argument("--root", action="append", default=[])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    roots = [Path(r).resolve() for r in args.root] or [HERE.parent]
    outs = [Path(args.out) / str(i) for i in range(len(roots))] if len(roots) > 1 else [Path(args.out)]
    for out in outs:
        out.mkdir(parents=True, exist_ok=True)

    for workload in args.workloads.split(","):
        for i, seed in enumerate(range(args.first_seed, args.first_seed + args.seeds)):
            order = list(range(len(roots)))
            if i % 2:
                order.reverse()
            for side in order:
                cmd = [
                    sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                ]
                t0 = time.monotonic()
                proc = subprocess.run(cmd, cwd=roots[side], capture_output=True, text=True, timeout=900)
                took = time.monotonic() - t0
                if proc.returncode != 0:
                    print(f"{workload} seed {seed} on {roots[side]} failed:\n{proc.stderr}", file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                with (outs[side] / f"{workload}.jsonl").open("a") as fh:
                    fh.write(json.dumps({"seed": seed, "result": result}) + "\n")
                summary = {k: round(v["value"], 5) for k, v in result["metrics"].items()} if not args.trace else ""
                print(f"{workload} seed {seed} root {side} ({took:.1f} s): failed {result['failed']}/{result['attempted']} {summary}")
    return compare.main([str(o) for o in outs])


if __name__ == "__main__":
    sys.exit(main())
