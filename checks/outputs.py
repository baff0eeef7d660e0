"""Output check: compare every exported output with another checkout's.

Run from a checkout: ``python checks/outputs.py OTHER_ROOT``, where
OTHER_ROOT is another checkout of the repository, such as the parent commit
unpacked with ``git archive``.  For each checkout, in a temporary directory
and with ``PYTHONPATH`` set to the checkout's ``src``, the script runs
``trotterlab figure <id>`` for every panel as CSV, companion files included,
and as JSON, at master seeds 0 and 5, and ``trotterlab verify``.  A
command's stdout, stderr and exit status are kept as one more file.

Then it compares the two sides file by file.  A file's text is split into
numbers and the text between them: the text must match exactly, and each
number may move by at most TOL.  The script reports every file that
differs, with how many of its numbers moved and the largest absolute
difference among them, and exits 1 if any number moves by more than TOL,
any other text differs or a file exists on one side only.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PANELS = ("2a4", "2b4", "2c4", "2d4", "3b", "3c", "3d", "4a", "4b", "4c", "4d")
SEEDS = (0, 5)
TOL = 1e-12
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _run_all(root: Path, out: Path) -> None:
    """Write every output of the checkout at ``root`` into ``out``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    runs = [("verify", ["verify"])]
    for panel in PANELS:
        for seed in SEEDS:
            for fmt in ("csv", "json"):
                name = f"{panel}_s{seed}"
                args = ["figure", panel, "--seed", str(seed), "--format", fmt]
                runs.append((f"{name}_{fmt}", [*args, "--out", f"{name}.{fmt}"]))
    for name, args in runs:
        cmd = [sys.executable, "-m", "trotterlab.cli", *args]
        done = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
        log = f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
        (out / f"{name}.log").write_text(log)


def _compare(a: str, b: str) -> tuple[bool, int, int, float]:
    """(same text between the numbers, numbers, numbers moved, largest move) of two texts."""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb) or pa[::2] != pb[::2]:
        return False, 0, 0, 0.0
    moves = [abs(float(x) - float(y)) for x, y in zip(pa[1::2], pb[1::2]) if x != y]
    return True, len(pa) // 2, len(moves), max(moves, default=0.0)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src/trotterlab").is_dir():
        print("usage: python checks/outputs.py OTHER_ROOT (a checkout with src/trotterlab)")
        return 2
    other = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        dirs = (Path(tmp) / "this", Path(tmp) / "other")
        for root, out in zip((ROOT, other), dirs):
            out.mkdir()
            _run_all(root, out)
        names = sorted({p.name for d in dirs for p in d.iterdir()})
        bad, worst, differ = 0, 0.0, 0
        for name in names:
            paths = [d / name for d in dirs]
            if not all(p.exists() for p in paths):
                print(f"{name}: only in {'this checkout' if paths[0].exists() else 'OTHER_ROOT'}")
                bad += 1
                continue
            same, count, moved, largest = _compare(*(p.read_text() for p in paths))
            if not same:
                print(f"{name}: text differs")
                bad += 1
            elif moved:
                print(f"{name}: {moved} of {count} numbers moved, largest by {largest:.3g}")
                bad += largest > TOL
            differ += not same or moved > 0
            worst = max(worst, largest)
    print(f"{len(names)} files, {differ} differ, largest move {worst:.3g} (bound {TOL:g})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
