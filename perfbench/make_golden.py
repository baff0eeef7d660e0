"""Regenerate golden.json: the exported numbers of one op of each phase.

    PYTHONPATH=src python3 perfbench/make_golden.py

Runs from a checkout root at the golden seed.  The benchmark compares every
op at that seed against these values at 1e-12, so regenerate only when a
change is meant to alter trotterlab's numbers.
"""

import json
import os
import tempfile
from pathlib import Path

import workloads as wl


def main() -> None:
    golden = {}
    threads = min(2, len(os.sched_getaffinity(0)))
    for name, cls in wl.PHASES.items():
        with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
            work = cls(wl.GOLDEN_SEED, threads, False, Path(tmp))
            out = work.op()
            golden[name] = work.exports(out)
            work.cleanup()
    wl.golden_path().write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
