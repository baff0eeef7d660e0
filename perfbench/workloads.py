"""The benchmark workloads and the four phases they are made of.

A phase is one of the paper workloads: its op, its output check and its
exports.  A workload runs its phases back to back as one op.  Each op drives
trotterlab only through public functions, called through the module
attribute so that a traced run sees them.  ``check`` runs outside the timed
interval and returns a list of problems (empty when the op's output is
right); dense-backend references are computed once per process and reused.
``exports`` picks the numbers compared with ``golden.json`` at the default
seed.  ``tiny=True`` shrinks every op for the smoke test.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from trotterlab import analytics, cli, dense, figures, model, sweep, verification

GOLDEN_SEED = 0
GOLDEN_TOL = 1e-12
BACKEND_TOL = 1e-10
# expm is accurate to about eps * ||Ht|| (up to ~3e3 in 2d4); the worst gap
# to the eigh oracle over every 7th point of all 8 series is 4e-14.
EXPM_TOL = 1e-11


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _close(name: str, got, want, tol: float) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    gap = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if gap <= tol else [f"{name}: off by {gap:.3e} (tol {tol:.0e})"]


def _occupation_series(spec: model.TrotterCircuitSpec, seed: int) -> list[np.ndarray]:
    """Dense-backend occupations after each Trotter step of ``spec``.

    Rz gates do not change occupations, so each step's occupations are read
    right after its bond layer.
    """
    n = spec.n_qubits
    state = dense.init_basis(n, "0" * n)
    series, bonds = [], 0
    for gate in model.build_circuit(spec, seed):
        dense.apply_gate(state, gate)
        if gate.kind in (model.GateKind.XY, model.GateKind.CRX):
            bonds += 1
            if bonds % (n - 1) == 0:
                series.append(dense.occupation_probs(state))
    return series


def _resolve(entries, params: dict) -> list[float]:
    """Template entries of the 2x4 recipes: numbers, or names with an optional '-'."""
    return [
        (-params[e[1:]] if e.startswith("-") else params[e]) if isinstance(e, str) else float(e) for e in entries
    ]


class Phase:
    def cleanup(self) -> None:
        """Remove what the last op wrote."""

    def written(self) -> tuple[int, int]:
        """(files, bytes) the last op wrote."""
        return 0, 0


class ContinuousResonance(Phase):
    """Panels 2a4-2d4 at one thread, then peak finding on all 8 series."""

    def __init__(self, seed: int, threads: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.figure_ids = ("2a4",) if tiny else ("2a4", "2b4", "2c4", "2d4")

    def op(self):
        figs = [figures.figure_recipe(f, master_seed=self.seed, threads=1) for f in self.figure_ids]
        peaks = [
            [analytics.find_peaks(analytics.Curve(*res.mean_curve("probability"))) for _, res in fig.series]
            for fig in figs
        ]
        return figs, peaks

    def master_seed(self, out) -> int:
        return out[0][0].provenance["master_seed"]

    def check(self, out, k: int) -> list[str]:
        from scipy.linalg import expm

        figs, peaks = out
        rng = _rng(self.seed, k)
        problems = []
        for fig, fig_peaks in zip(figs, peaks):
            for (label, res), series_peaks in zip(fig.series, fig_peaks):
                fixed = res.spec.fixed
                if len(res.rows) != res.spec.grid.count:
                    problems.append(f"{fig.figure_id} {label}: {len(res.rows)} rows")
                if not series_peaks:
                    problems.append(f"{fig.figure_id} {label}: no peaks")
                for i in rng.choice(len(res.rows), size=2, replace=False):
                    row = res.rows[i]
                    params = {"V1": row.swept_value, "V2": float(fixed["V2"])}
                    couplings = _resolve(fixed["couplings"], params)
                    h = np.diag(_resolve(fixed["potentials"], params)) + np.diag(couplings, 1) + np.diag(couplings, -1)
                    psi = expm(-1j * h * float(fixed["t"]))[:, 0]
                    problems += _close(
                        f"{fig.figure_id} {label} V1={row.swept_value:.4f} vs expm",
                        row.observables["probability"],
                        abs(psi[-1]) ** 2,
                        EXPM_TOL,
                    )
        return problems

    def exports(self, out) -> dict:
        figs, peaks = out
        ex = {}
        for fig, fig_peaks in zip(figs, peaks):
            for (label, res), series_peaks in zip(fig.series, fig_peaks):
                key = f"{fig.figure_id}/{label}"
                ex[f"{key}/probability"] = [r.observables["probability"] for r in res.rows[::40]]
                ex[f"{key}/peaks"] = [v for peak in series_peaks for v in peak]
        return ex


class CrxDense(Phase):
    """Panels 3b and 3c on the thread pool, then one 4-step CRx circuit at N = 20."""

    def __init__(self, seed: int, threads: int, tiny: bool, workdir: Path) -> None:
        self.seed, self.threads, self.tiny = seed, threads, tiny
        self.refs: dict = {}
        n = 8 if tiny else 20
        self.big = model.TrotterCircuitSpec(
            n_qubits=n,
            n_steps=4,
            gate_family=model.GateFamily.CRX,
            bond_angles=(math.pi / 2,) * (n - 1),
            z_layer=model.ZLayerSpec(base_phi=math.pi / 2, disorder_radius=math.pi / 4),
        )

    def op(self):
        fig3b = figures.figure_recipe("3b", master_seed=self.seed, threads=self.threads)
        fig3c = None if self.tiny else figures.figure_recipe("3c", master_seed=self.seed, threads=self.threads)
        state = dense.run_circuit(self.big, self.seed)
        return fig3b, fig3c, state, dense.occupation_probs(state)

    def master_seed(self, out) -> int:
        return out[0].provenance["master_seed"]

    def check(self, out, k: int) -> list[str]:
        fig3b, fig3c, state, occ = out
        problems = []
        probs = np.array([r.observables["probability"] for _, res in fig3b.series for r in res.rows])
        if probs.size != 630 or probs.min() < -1e-12 or probs.max() > 1 + 1e-12:
            problems.append(f"3b: {probs.size} probabilities in [{probs.min():.3e}, {probs.max():.3e}]")
        if state.norm_error() > 1e-12 or occ.min() < -1e-12 or occ.max() > 1 + 1e-12:
            problems.append(f"N={state.n_qubits}: norm error {state.norm_error():.3e}")
        if fig3c is None:
            return problems

        res = fig3c.series[0][1]
        i = int(_rng(self.seed, k).integers(len(res.rows)))
        row = res.rows[i]
        trace = next(t for t in res.traces if t.swept_value == row.swept_value and t.trial == 0)
        key = (res.spec.master_seed, i)
        if key not in self.refs:
            self.refs[key] = self._reference(res, i, trace.report.profile_eta)
        norm_error, final_tail, profile = self.refs[key]
        name = f"3c R={row.swept_value:.4f} trial 0"
        if norm_error > 1e-12:
            problems.append(f"{name}: norm error {norm_error:.3e}")
        problems += _close(f"{name} final tail vs run_circuit", trace.report.tail_series[-1], final_tail, BACKEND_TOL)
        problems += _close(f"{name} profile vs run_circuit", trace.report.final_profile, profile, BACKEND_TOL)
        return problems

    @staticmethod
    def _reference(res, i: int, eta: int) -> tuple[float, float, np.ndarray]:
        """Norm error and final tail of 3c's item (i, trial 0), and its profile at ``eta``."""
        fixed = res.spec.fixed
        n = int(fixed["n_qubits"])
        full = model.TrotterCircuitSpec(
            n_qubits=n,
            n_steps=int(fixed["n_steps"]),
            gate_family=model.GateFamily.CRX,
            bond_angles=(model.parse_angle(fixed["bond_angle"]),) * (n - 1),
            z_layer=model.ZLayerSpec(
                base_phi=model.parse_angle(fixed["base_phi"]), disorder_radius=res.rows[i].swept_value
            ),
        )
        seed = sweep.child_seed(res.spec.master_seed, i, 0)
        final = dense.run_circuit(full, seed)
        early = model.TrotterCircuitSpec(
            n_qubits=n, n_steps=eta, gate_family=full.gate_family, bond_angles=full.bond_angles, z_layer=full.z_layer
        )
        profile = dense.occupation_probs(dense.run_circuit(early, seed))
        return final.norm_error(), analytics.tail_prob(dense.occupation_probs(final)), profile

    def exports(self, out) -> dict:
        fig3b, fig3c, _, occ = out
        ex = {
            f"3b/{label}": [r.observables["probability"] for r in res.rows[::9]] for label, res in fig3b.series
        }
        res = fig3c.series[0][1]
        ex["3c/mean_tail"] = [r.observables["mean_tail"] for r in res.rows]
        ex["3c/tail_at_profile_eta"] = [r.observables["tail_at_profile_eta"] for r in res.rows]
        ex["n20/occupation"] = list(occ)
        return ex


def _read_csv(path: Path) -> tuple[dict, list[list[str]]]:
    """Provenance header and data rows (without the column header)."""
    provenance, rows = {}, []
    with path.open() as fh:
        for line in fh:
            if line.startswith("# provenance: "):
                provenance = json.loads(line[len("# provenance: "):])
            elif not line.startswith("#"):
                rows.append(line.rstrip("\n"))
    return provenance, list(csv.reader(rows[1:]))


class XyLocalizationCli(Phase):
    """``trotterlab localization`` in process with the panel-4b config."""

    def __init__(self, seed: int, threads: int, tiny: bool, workdir: Path) -> None:
        self.seed, self.threads, self.workdir = seed, threads, workdir
        n, steps, count, trials = (6, 10, 2, 2) if tiny else (15, 80, 5, 20)
        self.n, self.trials, self.count = n, trials, count
        self.refs: dict = {}
        self.config = workdir / "localization.json"
        self.config.write_text(
            json.dumps(
                {
                    "experiment": {
                        "kind": "localization",
                        "swept": "R",
                        "grid": [0, "pi/2", count],
                        "fixed": {
                            "n_qubits": n,
                            "n_steps": steps,
                            "bond_angle": "pi/4",
                            "base_phi": "pi/2",
                            "profile_eta": min(10, steps),
                        },
                        "trials": trials,
                        "master_seed": seed,
                    },
                    "output": {"format": "csv"},
                }
            )
        )
        self.outdir: Path | None = None

    def op(self):
        self.outdir = Path(tempfile.mkdtemp(dir=self.workdir))
        out = self.outdir / "loc.csv"
        argv = ["localization", "--config", str(self.config), "--threads", str(self.threads), "--out", str(out)]
        return cli.main(argv), out

    def master_seed(self, out) -> int:
        return _read_csv(out[1])[0]["master_seed"]

    def written(self) -> tuple[int, int]:
        files = [p for p in self.outdir.iterdir() if p.is_file()]
        return len(files), sum(p.stat().st_size for p in files)

    def check(self, out, k: int) -> list[str]:
        rc, path = out
        if rc != 0:
            return [f"cli exit code {rc}"]
        problems = []
        n_files, _ = self.written()
        if n_files != 1 + 3 * self.count:
            problems.append(f"{n_files} files written, expected {1 + 3 * self.count}")
        provenance, rows = _read_csv(path)
        r_values = sorted({float(r[0]) for r in rows})
        ipr = np.array([float(r[2]) for r in rows])
        if len(rows) != self.count * self.trials or len(r_values) != self.count:
            problems.append(f"{len(rows)} rows over {len(r_values)} R values")
        if ipr.min() < 1 / self.n - 1e-9 or ipr.max() > 1 + 1e-9:
            problems.append(f"ipr_ave outside [1/N, 1]: [{ipr.min():.4f}, {ipr.max():.4f}]")

        i = int(_rng(self.seed, k).integers(len(r_values)))
        r = r_values[i]
        fixed = provenance["fixed"]
        spec = model.TrotterCircuitSpec(
            n_qubits=self.n,
            n_steps=int(fixed["n_steps"]),
            bond_angles=(model.parse_angle(fixed["bond_angle"]),) * (self.n - 1),
            z_layer=model.ZLayerSpec(base_phi=model.parse_angle(fixed["base_phi"]), disorder_radius=r),
        )
        key = (provenance["master_seed"], i)
        if key not in self.refs:
            self.refs[key] = _occupation_series(spec, sweep.child_seed(provenance["master_seed"], i, 0))
        occ = self.refs[key]
        ipr_series = [float(np.sum(p**2)) for p in occ]
        eta = int(fixed["profile_eta"])
        name = f"R={r:.4f} trial 0"
        main = next(float(row[2]) for row in rows if float(row[0]) == r and row[1] == "0")
        problems += _close(f"{name} ipr_ave vs dense", main, np.mean(ipr_series), BACKEND_TOL)
        for kind, want in (
            ("ipr", ipr_series),
            ("tail", [analytics.tail_prob(p) for p in occ]),
            ("profile", occ[eta - 1]),
        ):
            _, comp = _read_csv(path.with_name(f"loc_{kind}_r{i}.csv"))
            problems += _close(f"{name} {kind} companion vs dense", [float(c[1]) for c in comp], want, BACKEND_TOL)
        return problems

    def cleanup(self) -> None:
        if self.outdir is not None:
            shutil.rmtree(self.outdir)
            self.outdir = None

    def exports(self, out) -> dict:
        _, rows = _read_csv(out[1])
        return {"ipr_ave": [float(r[2]) for r in rows]}


class Verify(Phase):
    """``verification.run_all_suites()``: the five self-check suites."""

    def __init__(self, seed: int, threads: int, tiny: bool, workdir: Path) -> None:
        pass

    def op(self):
        return verification.run_all_suites()

    def master_seed(self, out) -> None:
        return None  # the suites draw from fixed internal seeds

    def check(self, out, k: int) -> list[str]:
        if len(out) != 5 or sum(r.passed for r in out) == 0:
            return [f"{len(out)} suites, {sum(r.passed for r in out)} checks passed"]
        return [f"{r.name}: {r.failed} failed ({r.detail})" for r in out if r.failed]

    def exports(self, out) -> dict:
        return {r.name: [r.passed, r.failed, r.worst] for r in out}


PHASES = {
    "continuous_resonance": ContinuousResonance,
    "crx_dense": CrxDense,
    "xy_localization_cli": XyLocalizationCli,
    "verify": Verify,
}

# Two workloads of two phases each: the run-to-run drift of this kind of host
# only averages out over windows of about a minute, and the run budget allows
# that for two workloads, not four.  Each layer is still run by one of them.
WORKLOADS = {
    "recipes": ("continuous_resonance", "crx_dense"),
    "cli_verify": ("xy_localization_cli", "verify"),
}


def golden_path() -> Path:
    return Path(__file__).with_name("golden.json")


class Sequence:
    """A workload: its phases run back to back as one op."""

    def __init__(self, name: str, seed: int, threads: int, tiny: bool, workdir: Path) -> None:
        self.phases = {p: PHASES[p](seed, threads, tiny, workdir) for p in WORKLOADS[name]}
        self.phase_s: dict[str, float] = {}

    def op(self) -> dict:
        outs = {}
        for name, phase in self.phases.items():
            t0 = time.perf_counter()
            outs[name] = phase.op()
            self.phase_s[name] = time.perf_counter() - t0
        return outs

    def check(self, outs: dict, k: int) -> list[str]:
        return [f"{name}: {p}" for name, phase in self.phases.items() for p in phase.check(outs[name], k)]

    def golden_problems(self, outs: dict) -> list[str]:
        golden = json.loads(golden_path().read_text())
        problems = []
        for name, phase in self.phases.items():
            want, got = golden[name], phase.exports(outs[name])
            if sorted(want) != sorted(got):
                problems.append(f"{name}: golden keys differ: {sorted(set(want) ^ set(got))}")
                continue
            for key in sorted(want):
                problems += _close(f"{name}: golden {key}", got[key], want[key], GOLDEN_TOL)
        return problems

    def master_seeds(self, outs: dict) -> list[int]:
        seeds = (phase.master_seed(outs[name]) for name, phase in self.phases.items())
        return [s for s in seeds if s is not None]

    def written(self) -> tuple[int, int]:
        files, size = zip(*(phase.written() for phase in self.phases.values()))
        return sum(files), sum(size)

    def cleanup(self) -> None:
        for phase in self.phases.values():
            phase.cleanup()
