"""Subspace backend and continuous oracle against independent routes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from trotterlab.dense import iterate_stack as dense_stack
from trotterlab.dense import final_stack, occupation_stack
from trotterlab.errors import ConfigurationError, InvalidStateError, NumericalError
from trotterlab.model import (
    GateFamily,
    TrotterCircuitSpec,
    ZLayerSpec,
    realize_z_layer,
)
from trotterlab.subspace import (
    basis_state,
    chain_hamiltonians,
    evolve_chains,
    iterate_stack,
    step_matrix,
    trotter_step,
)
from trotterlab.verification import random_circuit_spec


def test_trotter_step_zero_bond_angles_is_phase_only():
    state = np.array([0.6, 0.8j, 0.0])
    assert trotter_step(state, (0.0, 0.0), (0.5, -0.2, 0.0)) is state  # in place
    assert abs(abs(state[0]) - 0.6) < 1e-15
    assert abs(abs(state[1]) - 0.8) < 1e-15


def test_trotter_step_full_swap_angle():
    state = basis_state(2, 1)
    trotter_step(state, (np.pi / 2,), (0.0, 0.0))
    assert np.max(np.abs(state - np.array([0.0, -1j]))) < 1e-15


def test_trotter_step_two_steps_give_p001():
    # two steps with explicit (phi, alpha, phi) reproduce the closed form
    theta, phi, alpha = 0.65, 0.4, -1.1
    state = basis_state(3, 1)
    trotter_step(state, (theta, theta), (phi, alpha, phi))
    trotter_step(state, (theta, theta), (0.0, 0.0, 0.0))  # the last step has no z layer
    from trotterlab.analytics import p001_closed_form

    assert abs(abs(state[2]) ** 2 - p001_closed_form(theta, phi, alpha)) < 1e-12


def test_trotter_step_length_validation():
    state = basis_state(3, 1)
    with pytest.raises(ConfigurationError):
        trotter_step(state, (0.1,), (0.0, 0.0, 0.0))
    with pytest.raises(ConfigurationError):
        trotter_step(state, (0.1, 0.2), (0.0, 0.0))


@pytest.mark.parametrize("site", [0, 4])
def test_basis_state_rejects_a_site_out_of_range(site):
    with pytest.raises(ConfigurationError, match=f"site {site} outside"):
        basis_state(3, site)


def test_run_discrete_rejects_crx():
    spec = TrotterCircuitSpec(
        n_qubits=2,
        n_steps=1,
        gate_family=GateFamily.CRX,
        bond_angles=(0.2,),
    )
    with pytest.raises(ConfigurationError):
        next(iterate_stack(spec, np.zeros((1, 2))))


@pytest.mark.parametrize("seed", range(5))
def test_run_discrete_matches_dense_probabilities(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    spec = TrotterCircuitSpec(
        n_qubits=n,
        n_steps=int(rng.integers(1, 12)),
        bond_angles=tuple(rng.uniform(-np.pi, np.pi, n - 1)),
    )
    law = ZLayerSpec(
        base_phi=float(rng.uniform(-np.pi, np.pi)),
        disorder_radius=float(rng.uniform(0, np.pi)),
    )
    phis = np.array([realize_z_layer(law, n, int(rng.integers(0, 2**32)))])
    dense_probs = occupation_stack(final_stack(dense_stack, spec, phis))
    sub_probs = np.abs(final_stack(iterate_stack, spec, phis)) ** 2
    assert np.max(np.abs(dense_probs - sub_probs)) < 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_dense_amplitudes_are_the_signed_conjugate_of_subspace_amplitudes(seed):
    # the gate-level Rz layer gives |e_j> the phase exp(+i phi_j) and the
    # subspace walker exp(-i phi_j): <e_j|psi> = c (-1)^j conj(a_j), |c| = 1,
    # and the dense walker's frame amplitude of |e_j>, i^-j times it, is
    # c i^j conj(a_j)
    spec, phis = random_circuit_spec(np.random.default_rng(seed))
    n = spec.n_qubits
    dense = final_stack(dense_stack, spec, phis)[0, [2 ** (n - j) for j in range(1, n + 1)]]
    mapped = 1j ** np.arange(1, n + 1) * np.conj(final_stack(iterate_stack, spec, phis)[0])
    k = np.argmax(np.abs(mapped))
    c = dense[k] / mapped[k]
    assert abs(abs(c) - 1) < 1e-12
    assert np.max(np.abs(dense - c * mapped)) < 1e-12


def test_run_discrete_partial_steps_keep_z_layer():
    # eta < n_steps: the z layer applies on every evolved step
    spec = TrotterCircuitSpec(
        n_qubits=3,
        n_steps=5,
        bond_angles=(0.4, 0.4),
    )
    phis = np.array([(0.3, -0.2, 0.1)])
    partial = next(amps[0].copy() for eta, amps in iterate_stack(spec, phis) if eta == 2)
    state = basis_state(3, 1)
    for _ in range(2):
        trotter_step(state, (0.4, 0.4), (0.3, -0.2, 0.1))
    assert np.max(np.abs(partial - state)) < 1e-15


def test_discrete_trajectory_is_norm_preserving():
    spec = TrotterCircuitSpec(
        n_qubits=8,
        n_steps=30,
        bond_angles=(np.pi / 4,) * 7,
        z_layer=ZLayerSpec(base_phi=np.pi / 2, disorder_radius=np.pi / 2),
    )
    phis = np.asarray([realize_z_layer(spec.z_layer, 8, 4)])
    for _, amps in iterate_stack(spec, phis):
        assert abs(np.sum(np.abs(amps[0]) ** 2) - 1.0) <= 1e-12


def test_step_matrix_equals_sequential_step():
    rng = np.random.default_rng(8)
    n = 6
    thetas = rng.uniform(-np.pi, np.pi, n - 1)
    phis = rng.uniform(-np.pi, np.pi, n)
    u = step_matrix(thetas, phis)
    for site in range(1, n + 1):
        state = basis_state(n, site)
        trotter_step(state, thetas, phis)
        assert np.max(np.abs(u[:, site - 1] - state)) < 1e-14


@pytest.mark.parametrize("m", [3, 5], ids=["square", "wide"])
def test_trotter_step_steps_each_column(m):
    # axis 0 is the site axis, so an (N, M) array steps as M states
    rng = np.random.default_rng(m)
    thetas, phis = rng.uniform(-np.pi, np.pi, 2), rng.uniform(-np.pi, np.pi, 3)
    columns = rng.normal(size=(3, m)) + 1j * rng.normal(size=(3, m))
    stepped = trotter_step(columns.copy(), thetas, phis)
    for column, state in zip(stepped.T, columns.T):
        assert np.max(np.abs(column - trotter_step(state.copy(), thetas, phis))) <= 1e-15


def test_continuous_evolve_matches_expm_oracle():
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = int(rng.integers(2, 9))
        couplings, potentials = rng.uniform(-2, 2, (1, n - 1)), rng.uniform(-5, 5, (1, n))
        hams = chain_hamiltonians(couplings, potentials)
        t = float(rng.uniform(0, 25))
        init = int(rng.integers(1, n + 1))
        got = evolve_chains(hams, t, basis_state(n, init))[0]
        e = np.zeros(n)
        e[init - 1] = 1.0
        expected = expm(-1j * hams[0] * t) @ e
        assert np.max(np.abs(got - expected)) < 1e-12


def test_continuous_evolve_two_level_formula():
    hams = chain_hamiltonians(np.array([[0.1]]), np.array([[0.7, 0.7]]))
    for t in (0.3, 5.0, 15.0):
        p2 = abs(evolve_chains(hams, t, basis_state(2))[0, 1]) ** 2
        assert abs(p2 - np.sin(0.1 * t) ** 2) < 1e-12


def test_continuous_evolve_t0_exact():
    hams = chain_hamiltonians(np.array([[1.0, 2.0, 0.5]]), np.array([[0.1, 0.2, 0.3, 0.4]]))
    state = evolve_chains(hams, 0.0, basis_state(4, 3))
    assert np.array_equal(state, [[0, 0, 1, 0]])


def test_continuous_evolve_time_reversal():
    couplings, potentials = np.array([[1.0, -0.4, 0.9]]), np.array([[2.0, -1.0, 0.0, 0.5]])
    hams = chain_hamiltonians(couplings, potentials)
    fwd = evolve_chains(hams, 13.0, basis_state(4))[0]
    evals, evecs = np.linalg.eigh(hams[0])
    back = evecs @ (np.exp(1j * evals * 13.0) * (evecs.T @ fwd))
    assert np.linalg.norm(back - basis_state(4)) < 1e-9


def test_continuous_evolve_norm_and_size_limits():
    hams = chain_hamiltonians(np.ones((1, 999)), np.zeros((1, 1000)))
    state = evolve_chains(hams, 1.0, basis_state(1000))
    assert state.shape == (1, 1000)
    assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-12
    with pytest.raises(ConfigurationError):
        chain_hamiltonians(np.ones((1, 1000)), np.zeros((1, 1001)))


def test_n4_resonance_peak_positions_near_dimer_levels():
    # P4(V1) sweep peaks near +-sqrt(J2^2 + V2^2) for the 4-site chain
    target = np.sqrt(20.0**2 + 10.0**2)
    v1s = np.linspace(-30, 30, 601)
    couplings = np.tile([1.0, 20.0, 1.0], (len(v1s), 1))
    potentials = np.stack((v1s, np.full_like(v1s, 10.0), np.full_like(v1s, -10.0), v1s), axis=1)
    amps = evolve_chains(chain_hamiltonians(couplings, potentials), 3.0, basis_state(4))
    probs = abs(amps[:, 3]) ** 2
    top = v1s[np.argsort(probs)[-2:]]
    assert {round(abs(x) / target, 1) for x in top} == {1.0}


def test_half_pi_hop_angle_is_deterministic_shuttle():
    # at hop angle pi/2 every bond gate is a perfect swap, so the circuit
    # permutes basis states: the excitation marches deterministically and
    # z-layer disorder cannot influence any probability
    spec = TrotterCircuitSpec(
        n_qubits=15,
        n_steps=80,
        bond_angles=(np.pi / 2,) * 14,
        z_layer=ZLayerSpec(base_phi=np.pi / 2, disorder_radius=np.pi / 2),
    )

    def positions(seed):
        phis = np.asarray([realize_z_layer(spec.z_layer, 15, seed)])
        out = []
        for _, amps in iterate_stack(spec, phis):
            probs = np.abs(amps[0]) ** 2
            assert abs(np.sum(probs**2) - 1.0) < 1e-12  # IPR stays exactly 1
            out.append(int(np.argmax(probs)) + 1)
        return out

    first = positions(123)
    assert first[:6] == [15, 14, 13, 12, 11, 10]
    assert positions(456) == first  # disorder realization is irrelevant here


def test_trotter_error_shrinks_with_step_count():
    couplings, potentials = np.full(4, 0.5), np.array([1.0, 0.5, 0.0, -0.5, 1.0])
    t = 3.0
    hams = chain_hamiltonians(couplings[None], potentials[None])
    exact = evolve_chains(hams, t, basis_state(5))[0]
    dists = []
    for n_t in (10, 20, 40, 80):
        tau = t / n_t
        state = basis_state(5)
        for _ in range(n_t):
            trotter_step(state, couplings * tau, potentials * tau)
        dists.append(np.linalg.norm(state - exact))
    ratios = [a / b for a, b in zip(dists, dists[1:])]
    assert all(1.5 <= r <= 2.5 for r in ratios)


def test_residual_bound_scales_with_hamiltonian_norm():
    # ||H|| ~ 1e6: the residual (3.5e-10) is rounding, not a wrong eigenpair
    couplings = np.array([[1.0, 1.0, 1.0, 1.0]])
    potentials = np.array([[1e6, -1e6, 0.0, 1e6, -1e6]])
    hams = chain_hamiltonians(couplings, potentials)
    state = evolve_chains(hams, 0.3, basis_state(5))[0]
    expected = expm(-1j * hams[0] * 0.3)[:, 0]
    # both routes round at about eps * ||H|| t = 7e-11
    assert np.max(np.abs(state - expected)) < 1e-9


def test_each_chain_of_a_stack_has_its_own_residual_check(monkeypatch):
    real_eigh = np.linalg.eigh

    def eigh_with_one_bad_pair(h):
        evals, evecs = real_eigh(h)
        evecs[1, 0, 0] += 1e-9
        return evals, evecs

    # chain 1 has ||H|| ~ 1, so 1e-9 is far above its bound; one bound for
    # the whole stack, set by chain 2's ||H|| ~ 1e6, would let it pass
    couplings = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 1.0]])
    potentials = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [1e6, -1e6, 1e6]])
    monkeypatch.setattr(np.linalg, "eigh", eigh_with_one_bad_pair)
    with pytest.raises(NumericalError, match="chain 1 of 3"):
        evolve_chains(chain_hamiltonians(couplings, potentials), 1.0, basis_state(3))


def test_continuous_evolve_from_amplitudes_runs_backwards():
    hams = chain_hamiltonians(np.array([[1.0, -0.4, 0.9]]), np.array([[2.0, -1.0, 0.0, 0.5]]))
    fwd = evolve_chains(hams, 13.0, basis_state(4, 2))
    back = evolve_chains(hams, -13.0, fwd)
    assert np.linalg.norm(back - basis_state(4, 2)) < 1e-9
    with pytest.raises(ConfigurationError, match=r"init has shape \(3,\), expected \(4,\)"):
        evolve_chains(hams, 1.0, np.ones(3))


@pytest.mark.parametrize("shape", [(3,), (5,), (2, 4), (1, 1, 4), (4, 1), ()])
def test_evolve_chains_rejects_a_misshapen_init(shape):
    # (N,) or (B, N) only: a bare broadcast raises ValueError, or spreads a
    # scalar over every site
    hams = chain_hamiltonians(np.zeros((1, 3)), np.zeros((1, 4)))
    for t in (0.0, 1.0):
        with pytest.raises(ConfigurationError, match=r"expected \(4,\) or \(1, 4\)"):
            evolve_chains(hams, t, np.ones(shape))


@st.composite
def chain_stacks(draw):
    b, n = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    couplings = rng.uniform(-2, 2, (b, n - 1))
    potentials = rng.uniform(-5, 5, (b, n))
    return couplings, potentials, draw(st.floats(0, 25)), draw(st.integers(1, n))


@given(chain_stacks())
def test_stacked_oracle_rows_match_single_chain_and_expm(case):
    couplings, potentials, t, init = case
    n = potentials.shape[1]
    amps = evolve_chains(
        chain_hamiltonians(couplings, potentials), t, basis_state(n, init)
    )
    for row, c, v in zip(amps, couplings, potentials):
        hams = chain_hamiltonians(c[None], v[None])
        assert np.array_equal(row, evolve_chains(hams, t, basis_state(n, init))[0])
        expected = expm(-1j * hams[0] * t)[:, init - 1]
        assert np.max(np.abs(row - expected)) <= 1e-11


@given(chain_stacks(), st.floats(-3, 6))
def test_stacked_oracle_runs_back_to_the_initial_state(case, log_scale):
    # exp(+iHt) exp(-iHt) = 1: each step rounds the phases exp(-i lambda t)
    # at about eps * ||H|| t and the eigenvectors at about eps * N, so the
    # tolerance scales with both (3000 random draws peaked at 2.2 of the
    # unscaled bound)
    couplings, potentials, t, init = case
    scale = 10.0**log_scale
    hams = chain_hamiltonians(couplings * scale, potentials * scale)
    n = hams.shape[1]
    start = basis_state(n, init)
    back = evolve_chains(hams, -t, evolve_chains(hams, t, start))
    norm = np.max(np.abs(np.linalg.eigvalsh(hams)), axis=1)
    tol = 16 * np.finfo(float).eps * n * (1 + norm * t)
    assert np.all(np.max(np.abs(back - start), axis=1) <= tol)


@st.composite
def circuit_stacks(draw, max_sites=20, max_rows=8, max_steps=30):
    n, b = draw(st.integers(2, max_sites)), draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = TrotterCircuitSpec(
        n_qubits=n,
        n_steps=draw(st.integers(1, max_steps)),
        bond_angles=tuple(rng.uniform(-np.pi, np.pi, n - 1)),
        initial_excitation_site=draw(st.integers(1, n)),
    )
    return spec, rng.uniform(-np.pi, np.pi, (b, n))


@given(circuit_stacks())
def test_stacked_walker_rows_match_per_bond_steps(case):
    spec, phis = case
    refs = [basis_state(spec.n_qubits, spec.initial_excitation_site) for _ in phis]
    for eta, amps in iterate_stack(spec, phis):
        for row, ref, z in zip(amps, refs, phis):
            trotter_step(ref, spec.bond_angles, z if eta < spec.n_steps else 0 * z)
            assert np.max(np.abs(row - ref)) <= 1e-12
    assert eta == spec.n_steps


@given(circuit_stacks(max_sites=10, max_rows=6, max_steps=20))
def test_dense_and_subspace_walkers_agree_after_every_step(case):
    # the dense walker's occupations of an XY stack equal |a|^2 of the
    # single-excitation walker's amplitudes, row by row, after every step
    spec, phis = case
    for (eta, dense_amps), (_, amps) in zip(dense_stack(spec, phis), iterate_stack(spec, phis)):
        assert np.max(np.abs(occupation_stack(dense_amps) - np.abs(amps) ** 2)) <= 1e-12
    assert eta == spec.n_steps


def test_iterate_stack_rejects_misshapen_z_angles():
    spec = TrotterCircuitSpec(n_qubits=3, n_steps=2, bond_angles=(0.1, 0.2))
    for phis in (np.zeros(3), np.zeros((2, 4))):
        with pytest.raises(ConfigurationError, match="z angles"):
            next(iterate_stack(spec, phis))


def test_run_discrete_checks_the_final_norm(monkeypatch):
    import trotterlab.subspace as subspace

    real = subspace.step_matrix
    monkeypatch.setattr(subspace, "step_matrix", lambda b, z: real(b, z) * (1 + 1e-11))
    spec = TrotterCircuitSpec(n_qubits=4, n_steps=3, bond_angles=(0.4, 0.9, -0.3))
    with pytest.raises(InvalidStateError, match="norm drifted"):
        final_stack(iterate_stack, spec, np.zeros((1, 4)))


def test_iterate_stack_caps_the_chain_size_before_allocating(monkeypatch):
    import trotterlab.subspace as subspace

    def no_matrix(bond_angles, z_angles):
        raise AssertionError("step_matrix called for an oversized chain")

    monkeypatch.setattr(subspace, "step_matrix", no_matrix)
    spec = TrotterCircuitSpec(n_qubits=1001, n_steps=1, bond_angles=(0.1,) * 1000)
    with pytest.raises(ConfigurationError, match="n_qubits 1001 exceeds 1000"):
        next(iterate_stack(spec, np.zeros((1, 1001))))
