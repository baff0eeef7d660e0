"""Smoke test of the benchmark itself, on tiny ops.

    python3 perfbench/smoke.py          (or: python3 -m pytest perfbench/smoke.py)

Run from anywhere; it drives ``run.py`` in this checkout with ``--tiny``.  It
checks that every metric ``BENCHMARK.json`` names is emitted with its unit in
both modes, that ``--seed`` reaches the sweeps' ``master_seed``, and that
``run.py`` fails without printing a result when the trotterlab sources are
missing.  The file is not named ``test_*`` so the package's own test run does
not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_metrics_units_and_seed() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            args = ("--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny")
            proc = _run(ROOT, *args)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
            assert {k: v["unit"] for k, v in result["metrics"].items()} == want, workload
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            assert f"# master_seed: [{SEED}]" in lines, workload


def test_refuses_without_sources() -> None:
    (ROOT / ".perfbench_run").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_run") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_metrics_units_and_seed()
    test_refuses_without_sources()
    print("perfbench smoke: ok")
