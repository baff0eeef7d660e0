"""Mutation check: every one-line mutant in the table must fail a test.

Run from a checkout: ``python checks/mutants.py``.  The script copies the
package, the tests and the files they read into a temporary directory and
runs the tests there once unmutated.  Then, for each row of ``MUTANTS``, it
replaces the row's snippet in its file under ``src/trotterlab`` and runs the
row's test files with ``pytest -x``.  A mutant is killed when a test fails
and survives when all pass.  A row marked equivalent says why no test can
tell it from the code, and is expected to survive.

Exits 1 if a snippet no longer occurs exactly once in its file (the table
has rotted), if the unmutated tests fail, if a mutant survives, or if an
equivalent one is killed.  The idea is mutation analysis (DeMillo, Lipton
and Sayward, IEEE Computer 11(4), 1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/trotterlab
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    equivalent: str | None = None  # why no test can kill it


MUTANTS = (
    Mutant(
        "child seed skips the point mix", "sweep.py",
        "    h = _splitmix64(h ^ (point_index & _MASK64))",
        "    h ^= point_index & _MASK64",
        ("tests/test_sweep.py",),
    ),
    Mutant(
        "child seed swaps point and trial", "sweep.py",
        "child_seed(spec.master_seed, i, k)", "child_seed(spec.master_seed, k, i)",
        ("tests/test_sweep.py",),
    ),
    Mutant(
        "tail window drops the initial site at its start", "dense.py",
        "int(site >= start)", "int(site > start)",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "stacks group items whatever their circuit", "sweep.py",
        "i - start == cap or circuits[i] != circuits[start]", "i - start == cap",
        ("tests/test_sweep.py",),
    ),
    Mutant(
        "variance over trials - 1", "sweep.py",
        "m2 / samples.shape[2]", "m2 / (samples.shape[2] - 1)",
        ("tests/test_sweep.py",),
    ),
    Mutant(
        "peak gaps take their maximum", "analytics.py",
        "np.minimum.reduceat(ys,", "np.maximum.reduceat(ys,",
        ("tests/test_analytics.py",),
    ),
    Mutant(
        "flat top at its left edge", "analytics.py",
        "peaks = (steps[tops] + 1 + steps[tops + 1]) // 2", "peaks = steps[tops] + 1",
        ("tests/test_analytics.py",),
    ),
    Mutant(
        "peak pop on < for <=", "analytics.py",
        "while stack and stack[-1][0] <= heights[k]:",
        "while stack and stack[-1][0] < heights[k]:",
        ("tests/test_analytics.py",),
    ),
    Mutant(
        "popped lows not folded", "analytics.py",
        "low = min(low, stack.pop()[1])", "stack.pop()",
        ("tests/test_analytics.py",),
    ),
    Mutant(
        "right pass reads the wrong gap", "analytics.py",
        "low = gaps[k + side]", "low = gaps[k]",
        ("tests/test_analytics.py",),
    ),
    Mutant(
        "subspace walker keeps the last z layer", "subspace.py",
        "            amps[...] = bonded\n",
        "            np.multiply(bonded, z_phases, out=amps)\n",
        ("tests/test_subspace.py",),
    ),
    Mutant(
        "disorder radius check lets -1 < R < 0 through", "model.py",
        "if self.disorder_radius < 0:", "if self.disorder_radius < -1:",
        ("tests/test_model.py",),
    ),
    Mutant(
        "norm bound counts n more gates", "dense.py",
        "gates = 1 + steps * (n - 1) + (steps - 1) * n",
        "gates = 1 + steps * (n - 1) + (steps - 1) * n + n",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "occupation fold reverses the rows", "dense.py",
        "    return sums\n", "    return sums[::-1]\n",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "every row takes row 0's Rz table", "dense.py",
        "np.exp(0.5j * phis[:, first - 1 :].T,", "np.exp(0.5j * phis[[0] * b, first - 1 :].T,",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "bond mixing turns CRx by its full angle", "dense.py",
        "(2, 3, angle / 2)", "(2, 3, angle)",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "fused groups mix their bonds in reverse order", "dense.py",
        "        for j in range(j0, j1 + 1):", "        for j in range(j1, j0 - 1, -1):",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "low chunks take the first rows' lead phases", "dense.py",
        "phases[r0:r1, s * runs : (s + 1) * runs]", "phases[: r1 - r0, s * runs : (s + 1) * runs]",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "the last group always folds its phases into per-row factors", "dense.py",
        "fold = 2 ** (2 * width + 1) < c << m", "fold = True",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "the last group never folds its phases into per-row factors", "dense.py",
        "fold = 2 ** (2 * width + 1) < c << m", "fold = False",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "the last step keeps its Rz phase table", "dense.py",
        "            phases[...] = 1.0\n", "            pass\n",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "the fold path keeps its Rz factors at the last step", "dense.py",
        "            factors[...] = shared\n", "            pass\n",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "the shared path's phase table gives every row row 0's phases", "dense.py",
        "phases = _kron_tables(diagonals[:cut])",
        "phases = _kron_tables(diagonals[:cut] if fold else diagonals[:cut, :, [0] * b])",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "high/low split lets in a group that starts a qubit early", "dense.py",
        "if a_i > m - k)", "if a_i >= m - k)",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "high chunks all read the first columns", "dense.py",
        "sub[r, :, c0 : c0 + cols]", "sub[r, :, :cols]",
        ("tests/test_dense.py",),
    ),
    Mutant(
        "chain oracle skips its start-vector check", "subspace.py",
        "    if np.shape(init) not in ((n,), (b, n)):", "    if False:",
        ("tests/test_subspace.py",),
    ),
    Mutant(
        "angle errors echo the whole value", "model.py",
        "        if len(shown) > 40:", "        if False:",
        ("tests/test_cli.py",),
    ),
)


def _pytest(root: Path, tests) -> int:
    """pytest's exit status for ``tests`` run with ``-x`` in the copy at ``root``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # pyproject adds src
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True).returncode


def main() -> int:
    sources = {m.path: (ROOT / "src/trotterlab" / m.path).read_text() for m in MUTANTS}
    rotted = [m.name for m in MUTANTS if sources[m.path].count(m.snippet) != 1]
    for name in rotted:
        print(f"snippet no longer matches exactly once: {name}")
    if rotted:
        return 1
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".*")
                shutil.copytree(ROOT / name, root / name, ignore=ignore)
            else:
                shutil.copy2(ROOT / name, root / name)
        every_test = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(root, every_test) != 0:
            print(f"the unmutated tests fail: {' '.join(every_test)}")
            return 1
        for m in MUTANTS:
            target = root / "src/trotterlab" / m.path
            target.write_text(sources[m.path].replace(m.snippet, m.replacement))
            start = time.perf_counter()
            code = _pytest(root, m.tests)
            target.write_text(sources[m.path])
            if code not in (0, 1):  # 1: a test failed; anything else is no verdict
                status, bad = f"error {code}", bad + 1
            elif m.equivalent:
                status = "equivalent" if code == 0 else "killed, but marked equivalent"
                bad += code != 0
            else:
                status = "killed" if code else "SURVIVED"
                bad += code == 0
            seconds = time.perf_counter() - start
            print(f"{status:<11} {m.name} [{' '.join(m.tests)}, {seconds:.1f} s]")
    print(f"{len(MUTANTS)} mutants, {bad} not as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
