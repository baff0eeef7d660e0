"""Dense backend against independent matrix-exponential oracles.

The oracle builds each gate as an explicit 2x2 or 4x4 unitary with
scipy.linalg.expm and embeds it with Kronecker products; the backend under
test never forms those matrices, so agreement is a real cross-check.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from trotterlab import dense
from trotterlab.analytics import tail_prob, tail_start
from trotterlab.dense import (
    NORM_DRIFT_C,
    StateVector,
    _frame_phases,
    _fused_groups,
    apply_gate,
    check_norms,
    final_stack,
    init_basis,
    iterate_stack,
    occupation_probs,
    occupation_stack,
    run_circuit,
    tail_stack,
)
from trotterlab.errors import ConfigurationError, InvalidStateError
from trotterlab.model import (
    GateFamily,
    GateKind,
    GateOp,
    TrotterCircuitSpec,
    ZLayerSpec,
    build_circuit,
    realize_z_layer,
)
from trotterlab.subspace import iterate_stack as subspace_stack

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def oracle_matrix(gate: GateOp) -> np.ndarray:
    if gate.kind is GateKind.X:
        return SX
    if gate.kind is GateKind.RZ:
        return expm(-0.5j * gate.angle * SZ)
    if gate.kind is GateKind.XY:
        # hop angle theta: generator (XX + YY)/2
        return expm(-0.5j * gate.angle * (np.kron(SX, SX) + np.kron(SY, SY)))
    if gate.kind is GateKind.CRX:
        u = np.eye(4, dtype=complex)
        u[2:, 2:] = expm(-0.5j * gate.angle * SX)
        return u
    raise AssertionError(gate.kind)


def embed(mat: np.ndarray, sites: tuple[int, ...], n: int) -> np.ndarray:
    ops = [np.eye(2, dtype=complex)] * n
    full = np.eye(1, dtype=complex)
    for q in range(1, n + 1):
        if q == sites[0]:
            full = np.kron(full, mat)
        elif len(sites) == 2 and q == sites[1]:
            continue  # absorbed into the two-qubit block
        else:
            full = np.kron(full, ops[q - 1])
    return full


def random_state(n: int, rng) -> StateVector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps.astype(np.complex128))


@pytest.mark.parametrize("seed", range(6))
def test_apply_gate_matches_matrix_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    state = random_state(n, rng)
    kind = rng.choice([GateKind.X, GateKind.RZ, GateKind.XY, GateKind.CRX])
    if kind in (GateKind.XY, GateKind.CRX):
        j = int(rng.integers(1, n))
        gate = GateOp(kind, (j, j + 1), float(rng.uniform(-np.pi, np.pi)))
    elif kind is GateKind.RZ:
        gate = GateOp(kind, (int(rng.integers(1, n + 1)),), float(rng.uniform(-np.pi, np.pi)))
    else:
        gate = GateOp(kind, (int(rng.integers(1, n + 1)),))
    expected = embed(oracle_matrix(gate), gate.sites, n) @ state.amplitudes
    got = apply_gate(StateVector(n, state.amplitudes.copy()), gate).amplitudes
    assert np.max(np.abs(got - expected)) < 1e-14


def test_init_basis_examples():
    assert np.allclose(init_basis(2, "10").amplitudes, [0, 0, 1, 0])
    assert np.allclose(init_basis(1, "0").amplitudes, [1, 0])
    state = init_basis(3, "100")
    assert state.amplitudes[4] == 1.0
    assert np.sum(np.abs(state.amplitudes)) == 1.0


def test_init_basis_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        init_basis(3, "10")
    with pytest.raises(ConfigurationError):
        init_basis(2, "12")
    with pytest.raises(ConfigurationError):
        init_basis(25, "0" * 25)  # above the desk-scale cap


def test_crx_on_10_gives_entangled_pair():
    theta = 0.83
    state = init_basis(2, "10")
    apply_gate(state, GateOp(GateKind.CRX, (1, 2), theta))
    expected = np.array([0, 0, np.cos(theta / 2), -1j * np.sin(theta / 2)])
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-15
    assert np.allclose(occupation_probs(state), [1.0, np.sin(theta / 2) ** 2])


def test_xy_zero_angle_is_identity():
    rng = np.random.default_rng(3)
    state = random_state(3, rng)
    before = state.amplitudes.copy()
    apply_gate(state, GateOp(GateKind.XY, (2, 3), 0.0))
    assert np.array_equal(state.amplitudes, before)


def test_xy_quarter_pi_on_10():
    state = init_basis(2, "10")
    apply_gate(state, GateOp(GateKind.XY, (1, 2), np.pi / 4))
    expected = np.array([0, -1j * np.sqrt(0.5), np.sqrt(0.5), 0])
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-15


def test_x_twice_is_identity():
    rng = np.random.default_rng(11)
    state = random_state(4, rng)
    before = state.amplitudes.copy()
    for _ in range(2):
        apply_gate(state, GateOp(GateKind.X, (3,)))
    assert np.max(np.abs(state.amplitudes - before)) < 1e-15


def test_gate_site_out_of_range():
    state = init_basis(2, "00")
    with pytest.raises(ConfigurationError):
        apply_gate(state, GateOp(GateKind.RZ, (3,), 0.1))


def test_run_circuit_n2_resonant_point():
    # theta = pi/4 and equal z angles: the closed form gives probability 1
    spec = TrotterCircuitSpec(
        n_qubits=2,
        n_steps=2,
        bond_angles=(np.pi / 4,),
    )
    state = run_circuit(spec)  # the default z layer is all zeros
    assert abs(abs(state.amplitudes[int("01", 2)]) ** 2 - 1.0) < 1e-12


def test_run_circuit_zero_hopping_keeps_excitation():
    spec = TrotterCircuitSpec(
        n_qubits=4,
        n_steps=5,
        bond_angles=(0.0, 0.0, 0.0),
        z_layer=ZLayerSpec(base_phi=0.7),
    )
    state = run_circuit(spec, seed=1)
    assert abs(abs(state.amplitudes[int("1000", 2)]) ** 2 - 1.0) < 1e-12


def test_run_circuit_n3_frozen_value():
    # sin^4 t cos^2 t (4 + cos^2 t + 4 cos t) at t=pi/4, frozen from the formula
    expected = 0.125 * (4.5 + 2 * np.sqrt(2))
    spec = TrotterCircuitSpec(
        n_qubits=3,
        n_steps=2,
        bond_angles=(np.pi / 4, np.pi / 4),
    )  # the default z layer is all zeros
    assert abs(abs(run_circuit(spec).amplitudes[int("001", 2)]) ** 2 - expected) < 1e-12


def test_norm_preserved_after_every_gate():
    rng = np.random.default_rng(42)
    spec = TrotterCircuitSpec(
        n_qubits=5,
        n_steps=8,
        bond_angles=tuple(rng.uniform(-np.pi, np.pi, 4)),
        z_layer=ZLayerSpec(base_phi=0.9, disorder_radius=1.1),
    )
    from trotterlab.model import build_circuit

    state = init_basis(5, "00000")
    for gate in build_circuit(spec, seed=5):
        apply_gate(state, gate)
        assert state.norm_error() <= 1e-12


def test_xy_circuit_conserves_excitation_number():
    rng = np.random.default_rng(9)
    spec = TrotterCircuitSpec(
        n_qubits=6,
        n_steps=10,
        bond_angles=tuple(rng.uniform(-np.pi, np.pi, 5)),
        z_layer=ZLayerSpec(base_phi=1.2, disorder_radius=0.8),
    )
    state = run_circuit(spec, seed=2)
    single = [1 << k for k in range(6)]
    in_subspace = sum(abs(state.amplitudes[i]) ** 2 for i in single)
    assert abs(in_subspace - 1.0) < 1e-12


def test_occupation_probs_uniform_single_excitation():
    amps = np.zeros(16, dtype=complex)
    for k in range(4):
        amps[1 << k] = 0.5
    probs = occupation_probs(StateVector(4, amps))
    assert np.allclose(probs, [0.25] * 4, atol=1e-15)


def test_crx_breaks_excitation_conservation():
    # the control stays up while the target flips: two excitations appear
    spec = TrotterCircuitSpec(
        n_qubits=3,
        n_steps=2,
        gate_family=GateFamily.CRX,
        bond_angles=(1.0, 1.3),
        z_layer=ZLayerSpec(base_phi=0.4),
    )
    state = run_circuit(spec, seed=0)
    single = [1 << k for k in range(3)]
    in_subspace = sum(abs(state.amplitudes[i]) ** 2 for i in single)
    assert in_subspace < 1.0 - 1e-3
    assert state.norm_error() <= 1e-12


def test_long_circuit_norm_drift_bound_grows_with_gate_count():
    # 46k gates drift past the old fixed 1e-12 bound; the circuit is valid
    rng = np.random.default_rng(1)
    spec = TrotterCircuitSpec(
        n_qubits=12,
        n_steps=2000,
        gate_family=GateFamily.CRX,
        bond_angles=tuple(rng.uniform(-np.pi, np.pi, 11)),
        z_layer=ZLayerSpec(base_phi=float(rng.uniform(-3, 3)), disorder_radius=1.0),
    )
    state = run_circuit(spec, seed=0)
    assert 1e-12 < state.norm_error() <= np.finfo(float).eps * len(build_circuit(spec, 0))


def test_check_norms_flags_any_drifted_row_of_a_stack():
    spec = TrotterCircuitSpec(n_qubits=3, n_steps=4, bond_angles=(0.7, 1.1))
    for _, amps in iterate_stack(spec, np.zeros((4, 3))):
        pass
    check_norms(spec, amps)
    nan_row = amps.copy()
    nan_row[1] = np.nan  # a NaN error compares False with the bound
    amps[-1] *= 1 + 1e-9
    for bad, err in ((amps, "2.000e-09"), (nan_row, "nan"), (np.full((1, 8), np.nan), "nan")):
        with pytest.raises(InvalidStateError, match=f"norm drifted by {err}"):
            check_norms(spec, bad)


def test_check_norms_bound_counts_every_gate_of_the_circuit():
    # 5691 gates lift the bound eps * 5691 = 1.26e-12 above the 1e-12 floor, so
    # a drift 0.1 % either side of it pins the gate count, one gate in 600
    spec = TrotterCircuitSpec(n_qubits=10, n_steps=300, bond_angles=(0.3,) * 9)
    gates = len(build_circuit(spec))
    assert gates == 5691
    bound = NORM_DRIFT_C * np.finfo(float).eps * gates
    amps = np.zeros((1, 10), dtype=np.complex128)
    amps[0, 0] = np.sqrt(1 + 0.999 * bound)
    check_norms(spec, amps)
    amps[0, 0] = np.sqrt(1 + 1.001 * bound)
    with pytest.raises(InvalidStateError, match="after 5691 gates"):
        check_norms(spec, amps)


def reference_trajectory(spec: TrotterCircuitSpec, phis: np.ndarray) -> list[np.ndarray]:
    """Amplitudes after each Trotter step, applying build_circuit gate by gate.

    Each Rz gate on qubit j takes the angle ``phis[j - 1]``.
    """
    n = spec.n_qubits
    gates = iter(
        replace(g, angle=float(phis[g.sites[0] - 1])) if g.kind is GateKind.RZ else g
        for g in build_circuit(spec)
    )
    state = apply_gate(init_basis(n, "0" * n), next(gates))  # the X gate
    series = []
    for eta in range(1, spec.n_steps + 1):
        z_gates = n if eta < spec.n_steps else 0
        for _ in range(n - 1 + z_gates):
            apply_gate(state, next(gates))
        series.append(state.amplitudes.copy())
    assert next(gates, None) is None
    return series


def frame_phases(spec: TrotterCircuitSpec) -> np.ndarray:
    """i^(-g(x)) on every basis state x: the walker's frame, from qubit bits.

    g(x) sums the positions of x's excited qubits for XY and counts its
    excited qubits s+1..N for a CRx walk from site s.
    """
    n = spec.n_qubits
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # column q - 1: qubit q
    if spec.gate_family is GateFamily.XY:
        g = bits @ np.arange(1, n + 1)
    else:
        g = bits[:, spec.initial_excitation_site :].sum(axis=1)
    return np.array([1, -1j, -1, 1j])[g % 4]


def walker_view(spec: TrotterCircuitSpec, series: list[np.ndarray]) -> list[np.ndarray]:
    """What the walker yields for a reference trajectory: frame amplitudes, then the state."""
    phases = frame_phases(spec)
    return [phases * amps for amps in series[:-1]] + series[-1:]


@st.composite
def circuit_specs(draw):
    n = draw(st.integers(2, 10))
    angle = st.floats(-np.pi, np.pi)
    hand_set = draw(st.booleans())
    if hand_set:
        phis = draw(st.lists(angle, min_size=n, max_size=n))
    else:
        law = ZLayerSpec(base_phi=draw(angle), disorder_radius=draw(st.floats(0, np.pi)))
    spec = TrotterCircuitSpec(
        n_qubits=n,
        n_steps=draw(st.integers(1, 20)),
        gate_family=draw(st.sampled_from(GateFamily)),
        bond_angles=tuple(draw(st.lists(angle, min_size=n - 1, max_size=n - 1))),
        initial_excitation_site=draw(st.integers(1, n)),
    )
    seed = draw(st.integers(0, 2**63 - 1))
    if not hand_set:
        phis = realize_z_layer(law, n, seed)
    return spec, np.array([phis])


@given(circuit_specs())
def test_walker_matches_gate_by_gate_reference(case):
    spec, phis = case
    expected = reference_trajectory(spec, phis[0])
    got = [amps[0].copy() for _, amps in iterate_stack(spec, phis)]
    assert len(got) == len(expected) == spec.n_steps
    for amps, ref in zip(got, walker_view(spec, expected)):
        assert np.max(np.abs(amps - ref)) <= 1e-12


@given(circuit_specs())
def test_crx_reference_stays_in_the_reachable_block(case):
    # A CRx bond's control is its lower qubit and Rz is diagonal, so from
    # |e_s> qubits 1..s-1 stay |0> and qubit s stays |1>: every non-zero
    # amplitude lies in the block [2^(N-s), 2^(N-s+1)) the walker steps.
    spec, phis = case
    spec = replace(spec, gate_family=GateFamily.CRX)
    n, s = spec.n_qubits, spec.initial_excitation_site
    outside = np.ones(2**n, dtype=bool)
    outside[2 ** (n - s) : 2 ** (n - s + 1)] = False
    for amps in reference_trajectory(spec, phis[0]):
        assert np.all(amps[outside] == 0.0)


def test_crx_from_the_last_site_only_gains_z_phases():
    # s = N: the reachable block is the one amplitude at index 1 and no
    # bond's control ever fires, so each z layer multiplies it by a phase
    n = 5
    phis = np.array([[0.3, -1.1, 0.7, 2.0, -0.4]])
    spec = TrotterCircuitSpec(
        n_qubits=n,
        n_steps=3,
        gate_family=GateFamily.CRX,
        bond_angles=(0.9, -0.5, 1.3, 2.2),
        initial_excitation_site=n,
    )
    phase = np.exp(0.5j * (phis[0, -1] - phis[0, :-1].sum()))
    reference = reference_trajectory(spec, phis[0])
    for (eta, amps), ref in zip(iterate_stack(spec, phis), reference):
        layers = min(eta, spec.n_steps - 1)
        expected = np.zeros(2**n, dtype=complex)
        expected[1] = phase**layers
        assert np.max(np.abs(amps[0] - expected)) <= 1e-15
        assert np.max(np.abs(ref - expected)) <= 1e-15


@pytest.mark.parametrize("family", GateFamily)
def test_walker_matches_reference_across_fused_group_boundaries(family):
    # N = 11..16 cuts the bond layer into more fused groups, and at more
    # offsets, than the hypothesis cases (N <= 10) reach; CRx walks from
    # sites 1, 2, N-1 and N have blocks of N-1, N-2, 1 and 0 qubits
    rng = np.random.default_rng(12)
    for n in range(11, 17):
        for site in (1, 2, n - 1, n):
            spec = TrotterCircuitSpec(
                n_qubits=n,
                n_steps=3,
                gate_family=family,
                bond_angles=tuple(rng.uniform(-np.pi, np.pi, n - 1)),
                initial_excitation_site=site,
            )
            phis = rng.uniform(-np.pi, np.pi, (2, n))
            got = [amps.copy() for _, amps in iterate_stack(spec, phis)]
            occ = occupation_stack(got[-1], None if family is GateFamily.XY else site)
            for b, row in enumerate(phis):
                expected = reference_trajectory(spec, row)
                for amps, ref in zip(got, walker_view(spec, expected)):
                    assert np.max(np.abs(amps[b] - ref)) <= 1e-12
                ref_occ = occupation_probs(StateVector(n, expected[-1]))
                assert np.max(np.abs(occ[b] - ref_occ)) <= 1e-12


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_folded_occupation_probs_match_per_qubit_sums(n, seed):
    state = random_state(n, np.random.default_rng(seed))
    per_qubit = [
        np.sum(np.abs(state.amplitudes.reshape(2 ** (j - 1), 2, -1)[:, 1, :]) ** 2)
        for j in range(1, n + 1)
    ]
    assert np.max(np.abs(occupation_probs(state) - per_qubit)) <= 1e-14


@st.composite
def stack_cases(draw):
    n = draw(st.integers(2, 10))
    angle = st.floats(-np.pi, np.pi)
    spec = TrotterCircuitSpec(
        n_qubits=n,
        n_steps=draw(st.integers(1, 12)),
        gate_family=draw(st.sampled_from(GateFamily)),
        bond_angles=tuple(draw(st.lists(angle, min_size=n - 1, max_size=n - 1))),
        initial_excitation_site=draw(st.integers(1, n)),
    )
    rows = draw(st.lists(st.lists(angle, min_size=n, max_size=n), min_size=1, max_size=6))
    return spec, np.array(rows)


@given(stack_cases())
def test_each_stack_row_matches_gate_by_gate_reference(case):
    # row b of the stack walk is the circuit with z angles phis[b], applied
    # gate by gate; the occupation fold of the stack is row by row
    spec, phis = case
    got = [(amps.copy(), occupation_stack(amps)) for _, amps in iterate_stack(spec, phis)]
    assert len(got) == spec.n_steps
    for b, row in enumerate(phis):
        expected = reference_trajectory(spec, row)
        for (amps, occ), ref in zip(got, walker_view(spec, expected)):
            assert np.max(np.abs(amps[b] - ref)) <= 1e-12
            ref_occ = occupation_probs(StateVector(spec.n_qubits, ref))
            assert np.max(np.abs(occ[b] - ref_occ)) <= 1e-12


def test_stack_rejects_misshapen_z_angles():
    spec = TrotterCircuitSpec(n_qubits=3, n_steps=1, bond_angles=(0.1, 0.2))
    for phis in (np.zeros(3), np.zeros((2, 4))):
        with pytest.raises(ConfigurationError, match="z angles"):
            next(iterate_stack(spec, phis))


@pytest.mark.parametrize("family", GateFamily)
def test_frame_groups_are_real_orthogonal_matrices(family):
    # every fused group in the frame is real up to exact zeros, so the
    # walker may drop its imaginary part; N = 2..9 with CRx sites 1, 2, N-1
    # and N reach every group width the walker makes.  A CRx group after
    # the first has a first qubit that is only a control, so its
    # off-diagonal control blocks are exact zeros the walker never multiplies
    rng = np.random.default_rng(4)
    widths = set()
    for n in range(2, 10):
        for site in sorted({1, 2, n - 1, n}):
            spec = TrotterCircuitSpec(
                n_qubits=n,
                n_steps=1,
                gate_family=family,
                bond_angles=tuple(rng.uniform(-np.pi, np.pi, n - 1)),
                initial_excitation_site=site,
            )
            first = 1 if family is GateFamily.XY else site + 1
            for i, (_, width, u) in enumerate(_fused_groups(spec, first)):
                widths.add(width)
                assert np.all(u.imag == 0.0)
                assert np.max(np.abs(u.real @ u.real.T - np.eye(2**width))) <= 1e-14
                if family is GateFamily.CRX and i > 0:
                    h = 2 ** (width - 1)
                    assert np.all(u[:h, h:] == 0.0) and np.all(u[h:, :h] == 0.0)
    assert widths == ({2, 3, 4} if family is GateFamily.XY else {1, 2, 3, 4})


@pytest.mark.parametrize("family", GateFamily)
def test_fused_groups_are_the_gate_by_gate_groups_bit_for_bit(family):
    # each group as it was built gate by gate: apply_gate on eye(2^q), read
    # as a 2q-qubit state whose first q qubits index the rows, one GateOp per
    # bond of the run (bond first - 1 joins the first run), then the frame
    # phases; N = 2..20 from every first walked qubit
    kind = GateKind.XY if family is GateFamily.XY else GateKind.CRX
    rng = np.random.default_rng(27)
    count = 0
    for n in range(2, 21):
        spec = TrotterCircuitSpec(n, 1, family, tuple(rng.uniform(-np.pi, np.pi, n - 1)))
        for first in range(1, n + 2):
            for a, width, u in _fused_groups(spec, first):
                # the run's bonds j0..j1 act on qubits j0..j1 + 1
                j0 = first - 1 if a == 1 and first > 1 else first + a - 1
                j1 = first + a + width - 3
                q = j1 + 2 - j0
                state = StateVector(2 * q, np.eye(2**q, dtype=np.complex128).ravel())
                for j in range(j0, j1 + 1):
                    bond = GateOp(kind, (j - j0 + 1, j - j0 + 2), spec.bond_angles[j - 1])
                    apply_gate(state, bond)
                ref = state.amplitudes.reshape(2**q, 2**q)[-(2**width) :, -(2**width) :]
                assert np.array_equal(u, ref * _frame_phases(width, family is GateFamily.XY))
                count += 1
    assert count > 500  # 530 groups per family at FUSED_QUBITS = 4


def test_crx_block_walk_matches_reference_at_every_group_width():
    # CRx walks from sites 1, 2, N-1 and N for N = 2..10 reach every group
    # width, block products and a last group that is also the first
    rng = np.random.default_rng(21)
    for n in range(2, 11):
        for site in sorted({1, 2, n - 1, n}):
            spec = TrotterCircuitSpec(
                n_qubits=n,
                n_steps=3,
                gate_family=GateFamily.CRX,
                bond_angles=tuple(rng.uniform(-np.pi, np.pi, n - 1)),
                initial_excitation_site=site,
            )
            phis = rng.uniform(-np.pi, np.pi, (2, n))
            got = [amps.copy() for _, amps in iterate_stack(spec, phis)]
            for b, row in enumerate(phis):
                for amps, ref in zip(got, walker_view(spec, reference_trajectory(spec, row))):
                    assert np.max(np.abs(amps[b] - ref)) <= 1e-12


@given(st.integers(3, 10), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_tail_read_matches_the_tail_of_the_occupations(n, steps, seed, data):
    # every site, including those inside the tail window, whose qubit s
    # (held at |1>) adds the row's norm to the tail
    site = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    spec = TrotterCircuitSpec(
        n_qubits=n,
        n_steps=steps,
        gate_family=GateFamily.CRX,
        bond_angles=tuple(rng.uniform(-np.pi, np.pi, n - 1)),
        initial_excitation_site=site,
    )
    for _, amps in iterate_stack(spec, rng.uniform(-np.pi, np.pi, (3, n))):
        want = tail_prob(occupation_stack(amps, site=site))
        assert np.max(np.abs(tail_stack(amps, site, tail_start(n)) - want)) <= 1e-13


@pytest.mark.parametrize(
    ("family", "steps"), [(GateFamily.CRX, 1), (GateFamily.XY, 2)], ids=["crx", "xy"]
)
def test_n20_walk_allocates_only_the_state_and_scratch(family, steps):
    # the state is 16 MiB, the scratch at most 1 MiB and the lead-phase table
    # 1/16 of the block, which D's table at the last step is written over; no
    # buffer, table or index of the walk may grow to the block's size, which
    # is 8 MiB for the CRx walk from site 1 and the whole 16 MiB stack for XY
    spec = TrotterCircuitSpec(
        n_qubits=20,
        n_steps=steps,
        gate_family=family,
        bond_angles=(np.pi / 2,) * 19,
        z_layer=ZLayerSpec(base_phi=np.pi / 2, disorder_radius=np.pi / 4),
    )
    tracemalloc.start()
    try:
        run_circuit(spec, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (16 + 3) * 2**20


def test_closed_form_stack_walk_allocates_a_few_stacks():
    # the closed-form suites' stack: 441 rows of N = 3, 56 KiB.  Its last
    # group is its only one, so the walk takes one shared factor, a phase
    # table and a scratch of the stack's size, and no per-row factor of
    # 2 KiB a row.  The peak comes as the table's last level is built, whose
    # broadcast product takes numpy buffers of twice its size
    axis = np.linspace(-np.pi, np.pi, 21)
    phis = np.stack((np.repeat(axis, 21), np.repeat(axis, 21) + np.tile(axis, 21)), axis=1)
    phis = np.concatenate((phis, phis[:, :1]), axis=1)
    spec = TrotterCircuitSpec(n_qubits=3, n_steps=2, bond_angles=(np.pi / 4,) * 2)
    tracemalloc.start()
    try:
        final_stack(iterate_stack, spec, phis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320 * 2**10


@pytest.mark.parametrize("scratch", [2**3, 2**5])
@pytest.mark.parametrize("family", GateFamily)
def test_chunked_walks_match_the_default_walk_bit_for_bit(monkeypatch, family, scratch):
    # a scratch this small cuts a stack of m <= 5 walked qubits into chunks
    # of one or two rows, and runs a step of m >= 6 as both passes, each of
    # many chunks; every chunk must run the products of the default walk,
    # where each of these stacks is one chunk
    rng = np.random.default_rng(28)
    for n in range(2, 13):
        for site in sorted({1, 2, n - 1, n}):
            spec = TrotterCircuitSpec(
                n_qubits=n,
                n_steps=3,
                gate_family=family,
                bond_angles=tuple(rng.uniform(-np.pi, np.pi, n - 1)),
                initial_excitation_site=site,
            )
            phis = rng.uniform(-np.pi, np.pi, (3, n))
            expected = [amps.copy() for _, amps in iterate_stack(spec, phis)]
            with monkeypatch.context() as patch:
                patch.setattr(dense, "_SCRATCH_AMPS", scratch)
                got = [amps.copy() for _, amps in iterate_stack(spec, phis)]
            assert len(got) == len(expected) == 3
            for amps, ref in zip(got, expected):
                assert np.array_equal(amps, ref)


def test_n18_crx_walk_through_both_passes_matches_the_reference():
    # from site 1 the walk steps m = 17 qubits, more than the default
    # scratch holds, so every step runs the high pass and the low pass
    rng = np.random.default_rng(18)
    spec = TrotterCircuitSpec(
        n_qubits=18,
        n_steps=2,
        gate_family=GateFamily.CRX,
        bond_angles=tuple(rng.uniform(-np.pi, np.pi, 17)),
        initial_excitation_site=1,
    )
    phis = rng.uniform(-np.pi, np.pi, (1, 18))
    got = [amps[0].copy() for _, amps in iterate_stack(spec, phis)]
    for amps, ref in zip(got, walker_view(spec, reference_trajectory(spec, phis[0]))):
        assert np.max(np.abs(amps - ref)) <= 1e-12


@pytest.mark.parametrize("family", GateFamily)
def test_shared_factor_walks_match_the_reference(family):
    # N <= 9 walks at most 9 qubits, whose last group's per-row factors
    # would outweigh a row, so every walk here takes the shared factor and
    # the stack-sized phase table.  441 rows, cut into 2, 4 or 7 chunks
    # where 7, 8 or 9 qubits are walked, repeat six z rows, so that no chunk
    # after the first starts on row 0's angles
    rng = np.random.default_rng(29)
    for n in range(2, 10):
        for site in range(1, n + 1):
            spec = TrotterCircuitSpec(
                n_qubits=n,
                n_steps=3,
                gate_family=family,
                bond_angles=tuple(rng.uniform(-np.pi, np.pi, n - 1)),
                initial_excitation_site=site,
            )
            rows = rng.uniform(-np.pi, np.pi, (6, n))
            expected = [walker_view(spec, reference_trajectory(spec, row)) for row in rows]
            for b in (1, 2, 3, 441):
                got = [amps.copy() for _, amps in iterate_stack(spec, rows[np.arange(b) % 6])]
                for step, amps in enumerate(got):
                    want = np.array([expected[r % 6][step] for r in range(b)])
                    assert np.max(np.abs(amps - want)) <= 1e-12


@pytest.mark.parametrize("walk", [iterate_stack, subspace_stack], ids=["dense", "subspace"])
def test_walkers_reject_an_empty_stack(walk):
    spec = TrotterCircuitSpec(n_qubits=3, n_steps=1, bond_angles=(0.1, 0.2))
    with pytest.raises(ConfigurationError, match=r"shape \(0, 3\), expected \(B, 3\) with B >= 1"):
        next(walk(spec, np.zeros((0, 3))))
