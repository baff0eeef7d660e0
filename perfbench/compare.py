"""Compare two result sets of the benchmark, workload by workload.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

A result set is a directory of ``<workload>.jsonl`` files, one line
``{"seed": n, "result": <last line of run.py>}`` per run, as ``sample.py``
writes them.  With one directory it prints each metric's median, quartiles
and spread (quartile distance over median) against the bound in
``BENCHMARK.json``.  With two it pairs runs by seed and prints, for every
workload x metric, both sides' median and quartiles, the share of pairs the
change wins (ties count for neither) and a verdict:

* improved: the change wins at least 9 in 10 pairs and its median is better
  by more than the base's quartile distance;
* worse: the change's median is worse than the base's by more than the bound;
* unresolved: the base's spread is wider than the bound and not every
  change run beats every base run;
* no worse: otherwise.

Metrics without a bound (per layer) get only the improved test.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict[str, dict[int, dict]]:
    """{workload: {seed: metrics}} for one result set."""
    out = {}
    for path in sorted(Path(directory).glob("*.jsonl")):
        runs = {}
        for line in path.read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                runs[rec["seed"]] = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        out[path.stem] = runs
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base: list[float], change: list[float], pairs, lower: bool, bound: float | None) -> tuple[float, str]:
    def better(a, b):  # a beats b
        return a < b if lower else a > b

    wins = sum(better(c, b) for b, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    q1, mb, q3 = quartiles(base)
    mc = statistics.median(change)
    if share >= 0.9 and better(mc, mb) and abs(mc - mb) > q3 - q1:
        return share, "improved"
    if bound is None:
        return share, "no claim"
    worse_by = (mc - mb) / abs(mb) if lower else (mb - mc) / abs(mb)
    if mb and worse_by > bound:
        return share, "worse"
    if spread(base) > bound and not all(better(c, b) for c in change for b in base):
        return share, "unresolved"
    return share, "no worse"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(d) for d in argv]
    base = sets[0]
    if len(sets) == 1:
        print(f"{'workload':22} {'metric':40} {'n':>3} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    else:
        print(
            f"{'workload':22} {'metric':40} {'n':>3} {'base med':>11} {'base q1-q3':>23} "
            f"{'change med':>11} {'change q1-q3':>23} {'wins':>5} verdict"
        )
    for workload in sorted(base):
        for name, meta in metrics.items():
            seeds = [s for s in base[workload] if name in base[workload][s]]
            if not seeds:
                continue
            b = [base[workload][s][name] for s in seeds]
            bound = meta.get("bound")
            if len(sets) == 1:
                q1, med, q3 = quartiles(b)
                sp = spread(b)
                flag = " <-- over bound/3" if bound is not None and sp > bound / 3 else ""
                bnd = f"{bound:6.3f}" if bound is not None else "     -"
                print(f"{workload:22} {name:40} {len(b):3d} {q1:11.5g} {med:11.5g} {q3:11.5g} {sp:7.3%} {bnd}{flag}")
                continue
            other = sets[1].get(workload, {})
            pairs = [(base[workload][s][name], other[s][name]) for s in seeds if s in other and name in other[s]]
            if not pairs:
                continue
            c = [p[1] for p in pairs]
            share, word = verdict(b, c, pairs, meta["better"] == "lower", bound)
            bq, cq = quartiles(b), quartiles(c)
            print(
                f"{workload:22} {name:40} {len(pairs):3d} {bq[1]:11.5g} {bq[0]:11.5g}-{bq[2]:<11.5g} "
                f"{cq[1]:11.5g} {cq[0]:11.5g}-{cq[2]:<11.5g} {share:5.0%} {word}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
