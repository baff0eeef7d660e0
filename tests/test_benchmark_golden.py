"""The benchmark's seed-0 golden check, one op of each workload.

Runs ``perfbench/workloads.py`` through its public API: every op's output
check, the 1e-12 comparison with ``perfbench/golden.json`` and the master
seed read back from the outputs.
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_the_golden_numbers_at_seed_0(tmp_path, name):
    threads = min(2, len(os.sched_getaffinity(0)))
    work = workloads.Sequence(name, 0, threads, False, tmp_path)
    out = work.op()
    try:
        assert work.check(out, 0) == []
        assert work.golden_problems(out) == []
        assert set(work.master_seeds(out)) == {0}
    finally:
        work.cleanup()
