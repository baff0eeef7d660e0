"""Self-check suites: closed-form identities, backend equivalence, oracles.

Shared between the ``verify`` CLI subcommand and the test suite so both run
the same checks.  Each suite returns a SuiteReport with per-case counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import p001_closed_form, p01_closed_form
from .dense import occupation_probs, run_circuit
from .model import ChainSpec, GateFamily, TrotterCircuitSpec, ZLayerSpec
from .subspace import basis_state, continuous_evolve, run_discrete
from .sweep import convergence_study

THETA_SECTIONS = (math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2, 5 * math.pi / 8)


@dataclass(frozen=True)
class SuiteReport:
    name: str
    passed: int
    failed: int
    worst: float
    detail: str

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _closed_form_grid():
    phis = np.linspace(-math.pi, math.pi, 21)
    diffs = np.linspace(-math.pi, math.pi, 21)
    for theta in THETA_SECTIONS:
        for phi in phis:
            for d in diffs:
                yield theta, phi, phi + d


def closed_form_n2_suite(tol: float = 1e-12) -> SuiteReport:
    """Dense N=2, N_T=2 versus the two-qubit closed form."""
    passed = failed = 0
    worst = 0.0
    for theta, phi, alpha in _closed_form_grid():
        spec = TrotterCircuitSpec(
            n_qubits=2,
            n_steps=2,
            bond_angles=(theta,),
            z_layer=ZLayerSpec(explicit_phis=(phi, alpha)),
        )
        got = occupation_probs(run_circuit(spec))[1]
        err = abs(got - p01_closed_form(theta, phi, alpha))
        worst = max(worst, err)
        if err <= tol:
            passed += 1
        else:
            failed += 1
    return SuiteReport("closed-form-n2", passed, failed, worst, f"max |err|={worst:.3e}")


def closed_form_n3_suite(tol: float = 1e-12) -> SuiteReport:
    """Dense N=3, N_T=2 versus the three-qubit closed form."""
    passed = failed = 0
    worst = 0.0
    for theta, phi, alpha in _closed_form_grid():
        spec = TrotterCircuitSpec(
            n_qubits=3,
            n_steps=2,
            bond_angles=(theta, theta),
            z_layer=ZLayerSpec(explicit_phis=(phi, alpha, phi)),
        )
        got = occupation_probs(run_circuit(spec))[2]
        err = abs(got - p001_closed_form(theta, phi, alpha))
        worst = max(worst, err)
        if err <= tol:
            passed += 1
        else:
            failed += 1
    return SuiteReport("closed-form-n3", passed, failed, worst, f"max |err|={worst:.3e}")


def random_circuit_spec(rng: np.random.Generator) -> tuple[TrotterCircuitSpec, int]:
    """A random XY circuit (N <= 10, N_T <= 20) and a z-layer seed."""
    n = int(rng.integers(2, 11))
    n_steps = int(rng.integers(1, 21))
    bond_angles = tuple(rng.uniform(-math.pi, math.pi, n - 1))
    if rng.random() < 0.5:
        z = ZLayerSpec(explicit_phis=tuple(rng.uniform(-math.pi, math.pi, n)))
    else:
        z = ZLayerSpec(
            base_phi=float(rng.uniform(-math.pi, math.pi)),
            disorder_radius=float(rng.uniform(0, math.pi)),
        )
    spec = TrotterCircuitSpec(
        n_qubits=n,
        n_steps=n_steps,
        gate_family=GateFamily.XY,
        bond_angles=bond_angles,
        z_layer=z,
        drop_final_z=bool(rng.random() < 0.5),
        initial_excitation_site=int(rng.integers(1, n + 1)),
    )
    return spec, int(rng.integers(0, 2**63))


def backend_equivalence_suite(
    n_circuits: int = 50, tol: float = 1e-10, norm_tol: float = 1e-12, seed: int = 2024
) -> SuiteReport:
    """Dense vs subspace occupation probabilities on random XY circuits."""
    rng = np.random.default_rng(seed)
    passed = failed = 0
    worst = 0.0
    for _ in range(n_circuits):
        spec, z_seed = random_circuit_spec(rng)
        dense_state = run_circuit(spec, z_seed)
        sub_state = run_discrete(spec, spec.n_steps, z_seed)
        gap = float(
            np.max(np.abs(occupation_probs(dense_state) - sub_state.probabilities()))
        )
        drift = max(dense_state.norm_error(), sub_state.norm_error())
        worst = max(worst, gap)
        if gap <= tol and drift <= norm_tol:
            passed += 1
        else:
            failed += 1
    return SuiteReport(
        "backend-equivalence", passed, failed, worst, f"max prob gap={worst:.3e}"
    )


def continuous_oracle_suite() -> SuiteReport:
    """Exact-propagator sanity: two-level formula, time reversal, t=0."""
    passed = failed = 0
    worst = 0.0
    rng = np.random.default_rng(7)
    # two-level: P2(t) = sin^2(Jt) when V1 = V2
    for _ in range(10):
        coupling = float(rng.uniform(0.05, 2.0))
        v = float(rng.uniform(-3, 3))
        t = float(rng.uniform(0, 20))
        chain = ChainSpec((coupling,), (v, v))
        p2 = continuous_evolve(chain, t).probabilities()[1]
        err = abs(p2 - math.sin(coupling * t) ** 2)
        worst = max(worst, err)
        passed, failed = (passed + 1, failed) if err <= 1e-12 else (passed, failed + 1)
    # forward by t then backward by t returns the initial basis state
    for _ in range(10):
        n = int(rng.integers(2, 8))
        chain = ChainSpec(
            tuple(rng.uniform(-2, 2, n - 1)), tuple(rng.uniform(-3, 3, n))
        )
        t = float(rng.uniform(0, 30))
        fwd = continuous_evolve(chain, t)
        roundtrip = continuous_evolve(chain, -t, init_amplitudes=fwd.amplitudes)
        err = float(np.linalg.norm(roundtrip.amplitudes - basis_state(n).amplitudes))
        worst = max(worst, err)
        passed, failed = (passed + 1, failed) if err <= 1e-9 else (passed, failed + 1)
    # t=0 identity
    chain = ChainSpec((1.0, 2.0), (0.5, -0.5, 1.5))
    err = float(
        np.linalg.norm(continuous_evolve(chain, 0.0).amplitudes - np.array([1, 0, 0]))
    )
    worst = max(worst, err)
    passed, failed = (passed + 1, failed) if err == 0.0 else (passed, failed + 1)
    return SuiteReport("continuous-oracle", passed, failed, worst, f"max err={worst:.3e}")


def trotter_convergence_suite() -> SuiteReport:
    """First-order error halving on a mild 5-site chain."""
    chain = ChainSpec((0.5, 0.5, 0.5, 0.5), (1.0, 0.5, 0.0, -0.5, 1.0))
    table = convergence_study(chain, 3.0, [10, 20, 40, 80])
    dists = [d for _, d in table]
    ratios = [a / b for a, b in zip(dists, dists[1:])]
    bad = [r for r in ratios if not 1.5 <= r <= 2.5]
    return SuiteReport(
        "trotter-convergence",
        len(ratios) - len(bad),
        len(bad),
        max(ratios) if ratios else 0.0,
        f"ratios={['%.3f' % r for r in ratios]}",
    )


def run_all_suites() -> list[SuiteReport]:
    return [
        closed_form_n2_suite(),
        closed_form_n3_suite(),
        backend_equivalence_suite(),
        continuous_oracle_suite(),
        trotter_convergence_suite(),
    ]
