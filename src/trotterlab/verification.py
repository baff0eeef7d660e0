"""Self-check suites: closed-form identities, backend equivalence, oracles.

Shared between the ``verify`` CLI subcommand and the test suite so both run
the same checks.  Each suite returns a SuiteReport with per-case counts.
Backend equivalence tallies the ``sweep.backend_gap`` of verification mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import p001_closed_form, p01_closed_form
from .dense import final_stack, iterate_stack, occupation_stack
from .model import GateFamily, TrotterCircuitSpec, ZLayerSpec, realize_z_layer
from .subspace import basis_state, chain_hamiltonians, evolve_chains
from .sweep import backend_gap, convergence_study

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


def _tally(name: str, errors, ok, detail: str) -> SuiteReport:
    """Count the passed and failed checks; ``worst`` is the largest error.

    ``errors`` and ``ok`` are sequences or arrays of one entry per check.
    ``detail`` is a format string that may show the worst error as
    ``{worst}``.
    """
    passed = int(np.count_nonzero(ok))
    worst = float(np.max(errors)) if len(errors) else 0.0
    return SuiteReport(name, passed, len(ok) - passed, worst, detail.format(worst=worst))


def _closed_form_suite(name: str, n: int, closed_form) -> SuiteReport:
    """Dense N=n, N_T=2 last-qubit occupation versus its closed form, to 1e-12.

    The z angles are (phi, alpha) or (phi, alpha, phi) over a 21 x 21 grid of
    phi and alpha - phi; each theta section walks the grid as one stack and
    compares it as one array.
    """
    axis = np.linspace(-math.pi, math.pi, 21)
    phi, alpha = np.repeat(axis, 21), np.repeat(axis, 21) + np.tile(axis, 21)
    z = np.stack((phi, alpha, phi)[:n], axis=1)
    errors = []
    for theta in THETA_SECTIONS:
        spec = TrotterCircuitSpec(n_qubits=n, n_steps=2, bond_angles=(theta,) * (n - 1))
        got = occupation_stack(final_stack(iterate_stack, spec, z))[:, n - 1]
        errors.append(np.abs(got - closed_form(theta, phi, alpha)))
    errors = np.concatenate(errors)
    return _tally(name, errors, errors <= 1e-12, "max |err|={worst:.3e}")


def closed_form_n2_suite() -> SuiteReport:
    """Dense N=2, N_T=2 versus the two-qubit closed form, to 1e-12."""
    return _closed_form_suite("closed-form-n2", 2, p01_closed_form)


def closed_form_n3_suite() -> SuiteReport:
    """Dense N=3, N_T=2 versus the three-qubit closed form, to 1e-12."""
    return _closed_form_suite("closed-form-n3", 3, p001_closed_form)


def random_circuit_spec(rng: np.random.Generator) -> tuple[TrotterCircuitSpec, np.ndarray]:
    """A random XY circuit (N <= 10, N_T <= 20) and its (1, N) z angles.

    Half the circuits draw each z angle uniformly from [-pi, pi], half
    realize a disordered layer from a drawn seed.
    """
    n = int(rng.integers(2, 11))
    n_steps = int(rng.integers(1, 21))
    bond_angles = tuple(rng.uniform(-math.pi, math.pi, n - 1))
    hand_set = rng.random() < 0.5
    if hand_set:
        phis = rng.uniform(-math.pi, math.pi, n)
    else:
        law = ZLayerSpec(
            base_phi=float(rng.uniform(-math.pi, math.pi)),
            disorder_radius=float(rng.uniform(0, math.pi)),
        )
    spec = TrotterCircuitSpec(
        n_qubits=n,
        n_steps=n_steps,
        gate_family=GateFamily.XY,
        bond_angles=bond_angles,
        initial_excitation_site=int(rng.integers(1, n + 1)),
    )
    seed = int(rng.integers(0, 2**63))  # drawn for every circuit, so the sequence is fixed
    if not hand_set:
        phis = realize_z_layer(law, n, seed)
    return spec, np.array([phis])


def backend_equivalence_suite() -> SuiteReport:
    """Dense vs subspace occupation probabilities on 50 random XY circuits.

    The circuits come from ``random_circuit_spec`` with generator seed 2024,
    each walked as a one-row stack.  A circuit passes when its
    ``backend_gap`` is at most 1e-10.
    """
    rng = np.random.default_rng(2024)
    gaps = [backend_gap(*random_circuit_spec(rng)) for _ in range(50)]
    ok = [gap <= 1e-10 for gap in gaps]
    return _tally("backend-equivalence", gaps, ok, "max prob gap={worst:.3e}")


def continuous_oracle_suite() -> SuiteReport:
    """Exact-propagator sanity: two-level formula, time reversal, t=0."""
    errors, ok = [], []
    rng = np.random.default_rng(7)
    # two-level: P2(t) = sin^2(Jt) when V1 = V2
    for _ in range(10):
        coupling = float(rng.uniform(0.05, 2.0))
        v = float(rng.uniform(-3, 3))
        t = float(rng.uniform(0, 20))
        hams = chain_hamiltonians(np.array([[coupling]]), np.array([[v, v]]))
        p2 = abs(evolve_chains(hams, t, basis_state(2))[0, 1]) ** 2
        errors.append(abs(p2 - math.sin(coupling * t) ** 2))
        ok.append(errors[-1] <= 1e-12)
    # forward by t then backward by t returns the initial basis state
    for _ in range(10):
        n = int(rng.integers(2, 8))
        hams = chain_hamiltonians(rng.uniform(-2, 2, (1, n - 1)), rng.uniform(-3, 3, (1, n)))
        t = float(rng.uniform(0, 30))
        fwd = evolve_chains(hams, t, basis_state(n))
        roundtrip = evolve_chains(hams, -t, fwd)[0]
        errors.append(float(np.linalg.norm(roundtrip - basis_state(n))))
        ok.append(errors[-1] <= 1e-9)
    # t=0 identity
    hams = chain_hamiltonians(np.array([[1.0, 2.0]]), np.array([[0.5, -0.5, 1.5]]))
    errors.append(
        float(np.linalg.norm(evolve_chains(hams, 0.0, basis_state(3))[0] - np.array([1, 0, 0])))
    )
    ok.append(errors[-1] == 0.0)
    return _tally("continuous-oracle", errors, ok, "max err={worst:.3e}")


def trotter_convergence_suite() -> SuiteReport:
    """First-order error halving on a mild 5-site chain."""
    couplings, potentials = np.full(4, 0.5), np.array([1.0, 0.5, 0.0, -0.5, 1.0])
    table = convergence_study(couplings, potentials, 3.0, [10, 20, 40, 80])
    dists = [d for _, d in table]
    ratios = [a / b for a, b in zip(dists, dists[1:])]
    return _tally(
        "trotter-convergence",
        ratios,
        [1.5 <= r <= 2.5 for r in ratios],
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
