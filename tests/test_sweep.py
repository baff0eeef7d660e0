"""Sweep harness: determinism, seeding, aggregation, convergence."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trotterlab.analytics import Curve, find_peaks
from trotterlab.errors import ConfigurationError, InvalidStateError, NumericalError
from trotterlab.analytics import ipr, tail_prob
from trotterlab.dense import final_stack, occupation_stack
from trotterlab.dense import iterate_stack as dense_stack
from trotterlab.model import (
    GateFamily,
    TrotterCircuitSpec,
    ZLayerSpec,
    realize_z_layer,
)
from trotterlab.subspace import basis_state, chain_hamiltonians, evolve_chains
from trotterlab.subspace import iterate_stack as subspace_stack
from trotterlab.sweep import (
    ExperimentKind,
    GridSpec,
    SweepSpec,
    child_seed,
    convergence_study,
    run_sweep,
)


def discrete_n2_spec(trials=1, seed=0, count=101):
    return SweepSpec(
        kind=ExperimentKind.RESONANCE_DISCRETE,
        swept="phi",
        grid=GridSpec(-math.pi, math.pi, count),
        fixed={
            "n_qubits": 2,
            "n_steps": 2,
            "bond_angles": [math.pi / 4],
            "z_template": ["phi", "alpha"],
            "alpha": 0.0,
        },
        trials=trials,
        master_seed=seed,
    )


def localization_spec(seed=0, trials=3, n=8, steps=12):
    return SweepSpec(
        kind=ExperimentKind.LOCALIZATION,
        swept="R",
        grid=GridSpec(0.0, math.pi / 2, 3),
        fixed={
            "n_qubits": n,
            "n_steps": steps,
            "bond_angle": math.pi / 4,
            "base_phi": math.pi / 2,
            "profile_eta": 5,
        },
        trials=trials,
        master_seed=seed,
    )


def test_child_seed_is_deterministic_and_spread():
    assert child_seed(7, 3, 4) == child_seed(7, 3, 4)
    seeds = {child_seed(0, i, k) for i in range(50) for k in range(50)}
    assert len(seeds) == 2500
    assert all(0 <= s < 2**64 for s in seeds)


def test_resonance_discrete_peak_at_alpha():
    result = run_sweep(discrete_n2_spec())
    xs, ys = result.mean_curve("probability")
    peaks = find_peaks(Curve(xs, ys), min_prominence=0.02)
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(0.0, abs=0.01)


def test_row_count_and_aggregate_shape():
    spec = localization_spec(trials=4)
    result = run_sweep(spec)
    assert len(result.rows) == 3 * 4
    names = sorted(result.rows[0].observables)
    assert names == ["ipr_ave", "mean_tail", "tail_at_profile_eta"]
    assert sorted(result.moments) == names
    assert all(m.shape == v.shape == (3,) for m, v in result.moments.values())
    assert len(result.traces) == 3 * 4


def same_moments(a, b) -> bool:
    """Whether two results' per-point means and variances are equal, bit for bit."""
    return a.moments.keys() == b.moments.keys() and all(
        np.array_equal(x, y) for name in a.moments for x, y in zip(a.moments[name], b.moments[name])
    )


def test_rerun_is_identical():
    a = run_sweep(localization_spec())
    b = run_sweep(localization_spec())
    assert a.rows == b.rows
    assert same_moments(a, b)
    assert a.traces == b.traces


def test_zero_disorder_variance_is_exactly_zero():
    result = run_sweep(localization_spec(trials=6))
    zero_r = result.values == 0.0
    assert zero_r.any()
    assert all(np.all(variance[zero_r] == 0.0) for _, variance in result.moments.values())


def welford(samples):
    """The scalar reference: (mean, population variance) by Welford's update."""
    mean = m2 = 0.0
    for i, x in enumerate(samples, start=1):
        delta = x - mean
        mean += delta / i
        m2 += delta * (x - mean)
    return mean, m2 / len(samples)


def test_aggregates_match_recomputation():
    result = run_sweep(localization_spec(trials=5, seed=3))
    for name, (means, variances) in result.moments.items():
        for v, mean, variance in zip(result.values, means, variances):
            samples = [r.observables[name] for r in result.rows if r.swept_value == v]
            # the vectorised pass makes the scalar update's operations, bit for bit
            assert (mean, variance) == welford(samples)
            assert mean == pytest.approx(np.mean(samples), abs=1e-12)
            assert variance == pytest.approx(np.var(samples), abs=1e-12)
            assert variance >= 0.0


def test_child_seed_contract_reproduces_work_item():
    # trace for (point i, trial k) must equal a by-hand realization with
    # the documented child seed
    spec = localization_spec(seed=11, trials=2)
    result = run_sweep(spec)
    r_values = sorted({t.swept_value for t in result.traces})
    i, k = 2, 1
    seed = child_seed(11, i, k)
    phis = realize_z_layer(
        ZLayerSpec(base_phi=math.pi / 2, disorder_radius=r_values[i]), 8, seed
    )
    circuit = TrotterCircuitSpec(
        n_qubits=8,
        n_steps=12,
        bond_angles=(math.pi / 4,) * 7,
    )
    iprs = [ipr(np.abs(amps[0]) ** 2) for _, amps in subspace_stack(circuit, np.array([phis]))]
    trace = next(t for t in result.traces if t.trial == k and t.swept_value == r_values[i])
    assert np.max(np.abs(np.array(trace.report.ipr_series) - iprs)) < 1e-15


def test_missing_fixed_parameter_is_named():
    spec = SweepSpec(
        kind=ExperimentKind.RESONANCE_CONTINUOUS,
        swept="V1",
        grid=GridSpec(-1, 1, 5),
        fixed={"couplings": [0.1]},
    )
    with pytest.raises(ConfigurationError, match="potentials"):
        run_sweep(spec)


def test_subspace_backend_rejected_for_crx():
    # the single-excitation walker rejects CRx circuits, so the gate family
    # sends a CRx sweep to the dense walker
    spec = SweepSpec(
        kind=ExperimentKind.CRX_RESONANCE,
        swept="phi",
        grid=GridSpec(-1, 1, 3),
        fixed={
            "n_qubits": 2,
            "n_steps": 2,
            "bond_angles": [0.5],
            "z_template": ["phi", "0"],
        },
    )
    circuit = TrotterCircuitSpec(2, 2, GateFamily.CRX, (0.5,))
    with pytest.raises(ConfigurationError, match="only supports XY"):
        next(subspace_stack(circuit, np.zeros((1, 2))))
    assert len(run_sweep(spec).rows) == 3


def test_verification_mode_cross_checks_backends():
    result = run_sweep(discrete_n2_spec(count=11), verification_mode=True)
    assert result.provenance["verification_mode"] is True
    assert len(result.rows) == 11


def test_verification_mode_cross_checks_localization_stacks(monkeypatch):
    import trotterlab.sweep as sweep

    spec = localization_spec(seed=2, trials=2, n=5, steps=6)
    assert run_sweep(spec, verification_mode=True).rows == run_sweep(spec).rows
    real = sweep.occupation_stack
    monkeypatch.setattr(sweep, "occupation_stack", lambda amps: real(amps) + 1e-6)
    with pytest.raises(NumericalError, match="backends disagree"):
        run_sweep(spec, verification_mode=True)


def test_verification_mode_leaves_the_outputs_unchanged():
    # an N = 17 dense item walks alone, while its single-excitation rows
    # share one stack: the cross-check must not regroup the rows it checks
    spec = localization_spec(seed=1, trials=2, n=17, steps=20)
    on = run_sweep(spec, verification_mode=True)
    off = run_sweep(spec)
    assert on.rows == off.rows
    assert on.traces == off.traces
    assert same_moments(on, off)


def drifting_walker(real):
    """A stack walker whose last row loses norm 1 before its last step.

    The walker checks its own final stack, so the drift goes in one step
    earlier; 1e-11 is above the 1e-12 norm bound and below ``ipr``'s 1e-9
    sum check, which would otherwise fire first.
    """

    def walk(circuit, phis):
        for eta, amps in real(circuit, phis):
            if eta == circuit.n_steps - 1:
                amps[-1] *= 1 + 1e-11
            yield eta, amps

    return walk


@pytest.mark.parametrize(
    "spec, options, walker",
    [
        (replace(discrete_n2_spec(count=3), kind=ExperimentKind.CRX_RESONANCE), {}, "dense_stack"),
        (discrete_n2_spec(count=3), {"verification_mode": True}, "dense_stack"),
        (discrete_n2_spec(count=3), {}, "subspace_stack"),
        (localization_spec(trials=2, n=4, steps=6), {}, "subspace_stack"),
    ],
    ids=["crx", "verification-mode", "subspace-resonance", "subspace-localization"],
)
def test_dense_stack_norm_drift_raises(monkeypatch, spec, options, walker):
    import trotterlab.sweep as sweep

    run_sweep(spec, **options)
    monkeypatch.setattr(sweep, walker, drifting_walker(getattr(sweep, walker)))
    with pytest.raises(InvalidStateError, match="norm drifted"):
        run_sweep(spec, **options)


@pytest.mark.parametrize("value", [0.01, np.nan, 1.5], ids=["below", "nan", "above"])
def test_out_of_range_ipr_raises(monkeypatch, value):
    # the whole stack's IPR array is range-checked against [1/N, 1]
    import trotterlab.sweep as sweep

    spec = localization_spec(trials=2, n=4, steps=6)
    run_sweep(spec)
    monkeypatch.setattr(sweep, "ipr", lambda probs: np.full(len(probs), value))
    with pytest.raises(InvalidStateError, match=r"IPR values escape \[1/4, 1\]"):
        run_sweep(spec)


def test_convergence_study_first_order_ratios():
    couplings, potentials = np.full(4, 0.5), np.array([1.0, 0.5, 0.0, -0.5, 1.0])
    table = convergence_study(couplings, potentials, 3.0, [10, 20, 40, 80])
    assert [n for n, _ in table] == [10, 20, 40, 80]
    ratios = [table[i][1] / table[i + 1][1] for i in range(3)]
    assert all(1.5 <= r <= 2.5 for r in ratios)


def test_convergence_study_commuting_limit_is_exact():
    for _, dist in convergence_study(np.zeros(2), np.array([1.0, -0.5, 2.0]), 7.0, [1, 2, 4]):
        assert dist < 1e-13


def test_convergence_study_t0():
    for _, dist in convergence_study(np.array([0.4]), np.array([0.2, -0.2]), 0.0, [1, 5]):
        assert dist == 0.0


def test_convergence_study_requires_increasing_steps():
    couplings, potentials = np.array([0.4]), np.array([0.2, -0.2])
    with pytest.raises(ConfigurationError):
        convergence_study(couplings, potentials, 1.0, [10, 10])
    with pytest.raises(ConfigurationError):
        convergence_study(couplings, potentials, 1.0, [20, 10])


@pytest.mark.parametrize("n_t", [1, 3, 7])
def test_convergence_study_walks_the_mapped_circuit(n_t):
    # theta_j = J_j tau and phi_j = V_j tau: the walker's final state, times
    # the last z layer (a circuit drops it, convergence_study applies it),
    # sits at convergence_study's distance from the exact evolution
    rng = np.random.default_rng(n_t)
    n = int(rng.integers(4, 6))
    couplings, potentials = rng.uniform(-2, 2, n - 1), rng.uniform(-3, 3, n)
    t = 2.5
    tau = t / n_t
    circuit = TrotterCircuitSpec(
        n_qubits=n, n_steps=n_t, bond_angles=tuple(j * tau for j in couplings)
    )
    phis = np.array([[v * tau for v in potentials]])
    disc = final_stack(subspace_stack, circuit, phis)[0] * np.exp(-1j * phis[0])
    hams = chain_hamiltonians(couplings[None], potentials[None])
    dist = float(np.linalg.norm(disc - evolve_chains(hams, t, basis_state(n))[0]))
    assert abs(dist - convergence_study(couplings, potentials, t, [n_t])[0][1]) <= 1e-12


def test_convergence_sweep_uses_geometric_grid():
    spec = SweepSpec(
        kind=ExperimentKind.CONVERGENCE,
        swept="n_steps",
        grid=GridSpec(10, 80, 4),
        fixed={
            "couplings": [0.5, 0.5, 0.5, 0.5],
            "potentials": [1.0, 0.5, 0.0, -0.5, 1.0],
            "t": 3.0,
        },
    )
    result = run_sweep(spec)
    assert [int(r.swept_value) for r in result.rows] == [10, 20, 40, 80]
    dists = [r.observables["distance"] for r in result.rows]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    couplings, potentials = np.full(4, 0.5), np.array([1.0, 0.5, 0.0, -0.5, 1.0])
    assert convergence_study(couplings, potentials, 3.0, [10, 20, 40, 80]) == [
        (int(r.swept_value), r.observables["distance"]) for r in result.rows
    ]


def test_omitted_trials_give_20_rows_per_point_to_localization_only():
    def rows_per_point(spec):
        result = run_sweep(replace(spec, trials=None))
        assert result.provenance["trials"] * spec.grid.count == len(result.rows)
        return len(result.rows) / spec.grid.count

    continuous = SweepSpec(
        kind=ExperimentKind.RESONANCE_CONTINUOUS,
        swept="V1",
        grid=GridSpec(-1, 1, 3),
        fixed={"couplings": [0.5], "potentials": ["V1", 0.0], "t": 1.0},
    )
    convergence = replace(
        continuous,
        kind=ExperimentKind.CONVERGENCE,
        grid=GridSpec(1, 4, 3),
        fixed={"couplings": [0.5], "potentials": [1.0, -1.0], "t": 1.0},
    )
    discrete = discrete_n2_spec(count=3)
    crx = replace(discrete, kind=ExperimentKind.CRX_RESONANCE)
    assert rows_per_point(localization_spec(n=3, steps=5)) == 20
    for spec in (discrete, crx, continuous, convergence):
        assert rows_per_point(spec) == 1


def test_n20_crx_localization_readout_allocates_only_the_state_and_one_buffer():
    # the walk holds the 16 MiB state and at most 1 MiB of scratch; the tail
    # read of every step and the profile fold at profile_eta add nothing
    # 2^N-sized (an |a|^2 array of the block alone would be 4 MiB)
    from trotterlab.sweep import _localization_rows

    circuit = TrotterCircuitSpec(
        n_qubits=20, n_steps=2, gate_family=GateFamily.CRX, bond_angles=(np.pi / 2,) * 19
    )
    phis = np.random.default_rng(0).uniform(-np.pi, np.pi, (1, 20))
    tracemalloc.start()
    try:
        _localization_rows(circuit, phis, profile_eta=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (16 + 1 + 2) * 2**20


def test_rejected_sweep_allocates_no_per_item_labels():
    # 2^20 items of an N = 1000 chain are rejected on n_qubits before any
    # per-item list exists (a list of (i, v, k) labels alone peaks near 96 MiB)
    spec = SweepSpec(
        kind=ExperimentKind.LOCALIZATION,
        swept="R",
        grid=GridSpec(0.0, 1.0, 1024),
        fixed={"n_qubits": 1000, "n_steps": 1, "bond_angle": 0.7, "base_phi": 1.0},
        trials=1024,
    )
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="n_qubits must be in"):
            run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_localization_result_holds_no_per_item_objects():
    # 64 x 64 items of two N = 3 steps: the returned result keeps arrays,
    # not a Row, a Trace and a report with three tuples of floats per item
    spec = SweepSpec(
        kind=ExperimentKind.LOCALIZATION,
        swept="R",
        grid=GridSpec(0.0, 1.0, 64),
        fixed={"n_qubits": 3, "n_steps": 2, "bond_angle": 0.7, "base_phi": 1.0},
        trials=64,
    )
    tracemalloc.start()
    try:
        result = run_sweep(spec)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20
    assert len(result.rows) == len(result.traces) == 64 * 64


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        GridSpec(0, 1, 1)
    with pytest.raises(ConfigurationError):
        SweepSpec(
            kind=ExperimentKind.LOCALIZATION,
            swept="R",
            grid=GridSpec(0, 1, 3),
            trials=0,
        )


def test_resonance_peaks_sit_on_barrier_spectrum():
    # the transmission maxima of the 4-site chain line up with the
    # eigenvalues of its isolated middle dimer
    dimer = chain_hamiltonians(np.array([[20.0]]), np.array([[10.0, -10.0]]))[0]
    dimer_levels = np.linalg.eigvalsh(dimer)
    spec = SweepSpec(
        kind=ExperimentKind.RESONANCE_CONTINUOUS,
        swept="V1",
        grid=GridSpec(-40.0, 40.0, 1601),
        fixed={
            "couplings": [1.0, 20.0, 1.0],
            "potentials": ["V1", 10.0, -10.0, "V1"],
            "t": 3.0,
        },
    )
    xs, ys = run_sweep(spec).mean_curve("probability")
    peaks = find_peaks(Curve(xs, ys), min_prominence=0.02)
    assert len(peaks) == len(dimer_levels) == 2
    for (pos, _), level in zip(peaks, dimer_levels):
        assert abs(pos - level) < 0.05 * abs(level)


@given(
    seed=st.integers(0, 2**64 - 1),
    trials=st.integers(1, 4),
    n=st.integers(3, 10),
    steps=st.integers(1, 12),
)
def test_batched_localization_rows_match_items_run_alone(seed, trials, n, steps):
    # every (i, k) row and trace of the one-walk ensemble equals
    # a one-row subspace walk of that item with child_seed(master, i, k)
    spec = SweepSpec(
        kind=ExperimentKind.LOCALIZATION,
        swept="R",
        grid=GridSpec(0.0, math.pi, 3),
        fixed={
            "n_qubits": n,
            "n_steps": steps,
            "bond_angle": 0.7,
            "base_phi": 1.1,
            "profile_eta": steps,
        },
        trials=trials,
        master_seed=seed,
    )
    result = run_sweep(spec)
    assert [(r.swept_value, r.trial) for r in result.rows] == [
        (t.swept_value, t.trial) for t in result.traces
    ]
    for idx, (row, trace) in enumerate(zip(result.rows, result.traces)):
        i, k = divmod(idx, trials)
        circuit = TrotterCircuitSpec(
            n_qubits=n,
            n_steps=steps,
            bond_angles=(0.7,) * (n - 1),
            z_layer=ZLayerSpec(base_phi=1.1, disorder_radius=row.swept_value),
        )
        phis = np.array([realize_z_layer(circuit.z_layer, n, child_seed(seed, i, k))])
        probs = [np.abs(amps[0]) ** 2 for _, amps in subspace_stack(circuit, phis)]
        rep = trace.report
        assert np.max(np.abs(np.array(rep.ipr_series) - [np.sum(p**2) for p in probs])) <= 1e-12
        assert np.max(np.abs(np.array(rep.tail_series) - [tail_prob(p) for p in probs])) <= 1e-12
        assert np.max(np.abs(np.array(rep.final_profile) - probs[-1])) <= 1e-12
        # each item's means sum its steps in np.mean's order, bit for bit
        assert row.observables["ipr_ave"] == np.mean(rep.ipr_series)
        assert row.observables["mean_tail"] == np.mean(rep.tail_series)


@given(
    seed=st.integers(0, 2**64 - 1),
    crx=st.booleans(),
    n=st.integers(2, 6),
    steps=st.integers(1, 6),
    swept_bond=st.booleans(),
    verification_mode=st.booleans(),
)
def test_resonance_rows_match_items_run_alone(seed, crx, n, steps, swept_bond, verification_mode):
    # each row of a stacked resonance sweep equals its point's circuit run
    # alone, whatever the master seed; a bond template naming the swept
    # parameter gives every point its own stack
    kind = ExperimentKind.CRX_RESONANCE if crx else ExperimentKind.RESONANCE_DISCRETE
    bonds = ["phi"] + [0.9] * (n - 2) if swept_bond else [0.9] * (n - 1)
    spec = SweepSpec(
        kind=kind,
        swept="phi",
        grid=GridSpec(-2.0, 2.5, 4),
        fixed={
            "n_qubits": n,
            "n_steps": steps,
            "bond_angles": bonds,
            "z_template": ["phi", "-alpha"] + [0.3] * (n - 2),
            "alpha": 0.4,
            "target_qubit": n - 1 if n > 2 else n,
        },
        master_seed=seed,
    )
    result = run_sweep(spec, verification_mode=verification_mode and not crx)
    assert len(result.rows) == 4
    target = spec.fixed["target_qubit"]
    for row in result.rows:
        phi = row.swept_value
        circuit = TrotterCircuitSpec(
            n_qubits=n,
            n_steps=steps,
            gate_family=GateFamily.CRX if crx else GateFamily.XY,
            bond_angles=tuple([phi] + [0.9] * (n - 2) if swept_bond else [0.9] * (n - 1)),
        )
        phis = np.array([(phi, -0.4) + (0.3,) * (n - 2)])
        if crx:
            want = occupation_stack(final_stack(dense_stack, circuit, phis))[0, target - 1]
        else:
            want = abs(final_stack(subspace_stack, circuit, phis)[0, target - 1]) ** 2
        assert row.trial == 0
        assert abs(row.observables["probability"] - want) <= 1e-12
