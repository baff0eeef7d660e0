"""trotterlab benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/trotterlab``; nothing is
installed.  Every process it starts has BLAS and OpenMP pinned to one thread,
so pool threads x BLAS threads <= nproc.  The seed becomes the sweeps'
``master_seed``.

``--trace 0`` gives the end-to-end metrics.  ``SETUP_LAUNCHES`` fresh
interpreters each run one set-up op; the last of them goes on to run timed ops
back to back for ``--seconds``.

* ``op_s.p50``: median wall seconds per timed op.
* ``setup_s``: median over the launches of (interpreter launch -> end of the
  first op), minus ``op_s.p50``, so set-up moved into a lazy first call counts.
* ``peak_rss_mib``: ``ru_maxrss`` of the process that ran the timed ops.

``--trace 1`` gives the per-layer metrics of ``tracing.PER_LAYER``: an
untraced and a traced process each run for half of ``--seconds``; the ratio
of their medians is the tracing overhead, and the import times come from
``python -X importtime``.

Lines before the last one are a human-readable report.  The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import BUCKETS, MODULES, PER_LAYER, parse_importtime  # noqa: E402

WORKLOADS = ("recipes", "cli_verify")
END_TO_END = (("op_s.p50", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
SETUP_LAUNCHES = 5
IMPORT_PROBES = 3
PIN_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class WorkerError(RuntimeError):
    pass


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.update({name: "1" for name in PIN_THREADS})
    return env


def launch(args, src: Path, workdir: Path, seconds: float, *flags: str) -> tuple[float, dict]:
    """Run one worker; return (launch time on the monotonic clock, its report)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--src", str(src),
        "--workdir", str(workdir),
        *flags,
    ]
    if args.tiny:
        cmd.append("--tiny")
    t_launch = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(src), capture_output=True, text=True, timeout=seconds + 100)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return t_launch, json.loads(lines[-1])


def import_times(src: Path) -> dict[str, float]:
    """Median cumulative import seconds of each trotterlab module."""
    probes = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import trotterlab.cli"],
            env=child_env(src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise WorkerError(f"import probe exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        probes.append(parse_importtime(proc.stderr))
    return {m: statistics.median(p.get(m, 0.0) for p in probes) for m in MODULES}


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{index}/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "python": sys.version.split()[0],
    }


def _kib(size: str) -> float | None:
    units = {"K": 1, "M": 1024, "G": 1024**2}
    try:
        return float(size[:-1]) * units[size[-1]]
    except (KeyError, ValueError, IndexError):
        return None


def print_cache_notes(info: dict) -> None:
    """State size of each dense bucket against the cache sizes."""
    l2, l3 = _kib(info["caches"].get("L2", "")), _kib(info["caches"].get("L3", ""))
    for name, lo, hi, n in BUCKETS:
        state_kib = 16 * 2**n / 1024
        where = "unknown cache sizes"
        if l2 and l3:
            where = "fits L2" if state_kib <= l2 else ("spills L2, fits L3" if state_kib <= l3 else "exceeds L3")
        print(f"# dense bucket {name}: N in [{lo}, {hi}], state at N = {n} is {state_kib:g} KiB ({where})")
    if l3:
        n_l3 = math.ceil(math.log2(l3 * 1024 / 16))
        n_bw = math.ceil(math.log2(4 * l3 * 1024 / 16))
        print(
            f"# no workload exceeds L3 ({l3 / 1024:g} MiB): a state outgrows it at N >= {n_l3} and is "
            f"4x its size at N >= {n_bw}, above trotterlab's cap of N = 24; GB/s figures are computed "
            "from array sizes, not measured DRAM bandwidth"
        )


def summarize(reports: list[dict]) -> tuple[int, int]:
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    seeds = sorted({s for r in reports for s in r["master_seeds"]})
    print(f"# master_seed: {seeds}")
    print(f"# ops attempted {attempted}, failed {failed}, failed_frac {failed / max(1, attempted):.4g}")
    for r in reports:
        for problem in r["problems"]:
            print(f"# FAILED: {problem.strip()}")
    return attempted, failed


def run_end_to_end(args, src: Path, workdir: Path) -> tuple[dict, list[dict]]:
    setups, reports = [], []
    for i in range(SETUP_LAUNCHES):
        last = i == SETUP_LAUNCHES - 1
        t_launch, rep = launch(args, src, workdir, args.seconds if last else 0.0, *([] if last else ["--first-only"]))
        setups.append(rep["first_op_end"] - t_launch)
        reports.append(rep)
    ops = reports[-1]["op_s"]
    p50 = statistics.median(ops)
    print(f"# op_s.p50 = {p50:.6g} s over n = {len(ops)} timed ops")
    for phase, times in reports[-1]["phase_s"].items():
        if times:  # ops that raised leave no phase times
            print(f"#   phase {phase}: median {statistics.median(times):.6g} s over n = {len(times)}")
    pct = math.floor(100 * (1 - 10 / len(ops)))
    if pct > 50:
        tail = statistics.quantiles(ops, n=100, method="inclusive")[pct - 1]
        print(f"# op_s.p{pct} = {tail:.6g} s (the highest percentile with >= 10 ops beyond it)")
    print(f"# launch-to-first-op-end samples: {[round(s, 4) for s in setups]} s")
    metrics = {
        "op_s.p50": p50,
        "setup_s": statistics.median(setups) - p50,
        "peak_rss_mib": reports[-1]["maxrss_mib"],
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, reports


def run_per_layer(args, src: Path, workdir: Path) -> tuple[dict, list[dict]]:
    half = args.seconds / 2
    _, plain = launch(args, src, workdir, half)
    _, traced = launch(args, src, workdir, half, "--trace")
    layers = traced["layers"]
    plain_p50, traced_p50 = statistics.median(plain["op_s"]), statistics.median(traced["op_s"])
    layers["trace_overhead_frac"] = traced_p50 / plain_p50 - 1
    print(f"# tracing overhead: op_s.p50 {plain_p50:.6g} s untraced, {traced_p50:.6g} s traced")
    for module, seconds in import_times(src).items():
        layers[f"import_s.{module}"] = seconds
    return {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}, [plain, traced]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every op (smoke test)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "trotterlab" / "__init__.py").is_file():
        print(f"perfbench: no trotterlab sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    info = machine()
    print(f"# machine: {json.dumps(info)}")
    print_cache_notes(info)

    rundir = root / ".perfbench_run"
    rundir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=rundir))
    try:
        run = run_per_layer if args.trace else run_end_to_end
        metrics, reports = run(args, src, workdir)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# versions: {json.dumps(reports[-1]['versions'])}, pool threads {reports[-1]['threads']}")
    attempted, failed = summarize(reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
