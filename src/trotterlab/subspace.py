"""Single-excitation-subspace backend and the continuous-time chain oracle.

XY-family circuits conserve the excitation number, so a circuit started from
``|e_j>`` (qubit j excited, rest 0) stays in the N-dimensional span of the
``|e_j>``.  This backend tracks one amplitude ``a_j`` per site in the chain
convention: a z layer multiplies site j by ``exp(-i phi_j)``, matching a
chain with +V_j on-site potentials.  The gate-level Rz layer gives ``|e_j>``
the opposite relative phase, ``exp(+i phi_j)``, so the state's amplitude of
``|e_j>`` is ``c * (-1)^j * conj(a_j)`` with one global phase ``|c| = 1``
(conjugation also flips the sign of the bonds' ``-i sin`` terms, which the
``(-1)^j`` undoes), and the dense walker's frame amplitude, ``i^-j`` times
it, is ``c * i^j * conj(a_j)``.  None of these changes an occupation
``|a_j|^2``, so this backend gives the dense walker's occupations at N
instead of 2^N amplitudes a state, and every XY sweep walks here.  States
are plain complex arrays: (N,) for one, (B, N) for a stack.

``iterate_stack`` is the circuit walker: it steps a (B, N) stack of circuits
that differ only in their z angles, one matrix product per Trotter step, and
norm-checks the final stack; ``dense.final_stack`` runs it to the end.
``trotter_step`` applies one step bond by bond and then its z phases on
the site axis, axis 0, so an (N, M) array steps each column.  It is the
walker's reference and the only code that spells out the XY rotation:
``step_matrix`` is it on eye(N), and the walker's bond-layer product is
``step_matrix`` with zero z angles.

``evolve_chains`` is the exact oracle and its only entry point: it applies
``exp(-iHt)`` to a (B, N, N) stack of tight-binding chains, built from
plain coupling and potential arrays by ``chain_hamiltonians``, via one
eigendecomposition call instead of approximating continuous time with a
large step count.  One chain is a stack of one.
"""

from __future__ import annotations

import numpy as np

from .dense import check_norms, check_z_angles
from .errors import ConfigurationError, NumericalError
from .model import GateFamily, TrotterCircuitSpec

MAX_CHAIN_SITES = 1000  # also caps N of the walker: its bond-layer matrix is N x N
# Eigen-residual bound: max|H v - lambda v| <= EIGH_RESIDUAL_C * eps * N * max|lambda|.
# A backward-stable symmetric eigensolver meets it with a constant of order
# 1 (random chains of 2-50 sites at scales 1e-3..1e6 reach 1.4); 10 leaves
# room for that and still rejects any eigenpair wrong beyond rounding.
EIGH_RESIDUAL_C = 10.0


def basis_state(n_sites: int, site: int = 1) -> np.ndarray:
    """The (N,) amplitudes of ``|e_site>``."""
    if not 1 <= site <= n_sites:
        raise ConfigurationError(f"site {site} outside [1, {n_sites}]")
    amps = np.zeros(n_sites, dtype=np.complex128)
    amps[site - 1] = 1.0
    return amps


def trotter_step(
    amps: np.ndarray,
    bond_angles: "np.ndarray | tuple[float, ...]",
    z_angles: "np.ndarray | tuple[float, ...]",
) -> np.ndarray:
    """One Trotter step in place: ascending bond rotations, then z phases.

    The bond-by-bond reference for ``iterate_stack``.  Axis 0 of ``amps`` is
    the site axis: (N,) amplitudes are one state, and an (N, M) array steps
    each of its M columns.
    """
    n = len(amps)
    if len(bond_angles) != n - 1 or len(z_angles) != n:
        raise ConfigurationError(
            f"expected {n - 1} bond angles and {n} z angles, got "
            f"{len(bond_angles)} and {len(z_angles)}"
        )
    for j, th in enumerate(bond_angles):
        c, s = np.cos(th), np.sin(th)
        aj, aj1 = amps[[j, j + 1]]
        amps[j] = c * aj - 1j * s * aj1
        amps[j + 1] = -1j * s * aj + c * aj1
    amps *= np.exp(-1j * np.asarray(z_angles)).reshape((n,) + (1,) * (amps.ndim - 1))
    return amps


def iterate_stack(spec: TrotterCircuitSpec, phis: np.ndarray):
    """Yield (eta, amps) after each Trotter step of a stack of circuits, eta = 1..n_steps.

    Every row shares ``spec``'s size, step count, bond angles and initial
    site; row b has its own realized z angles ``phis[b]`` (``spec.z_layer``
    is not used).  ``amps`` is the live (B, N) amplitude stack.  Every step,
    the last included, is one product with the transposed bond-layer matrix
    and one multiply by the z phases, as in ``build_circuit``; the final
    stack is norm-checked before it is yielded.
    """
    if spec.gate_family is not GateFamily.XY:
        raise ConfigurationError("the subspace backend only supports XY-family circuits")
    n = spec.n_qubits
    if n > MAX_CHAIN_SITES:
        raise ConfigurationError(f"n_qubits {n} exceeds {MAX_CHAIN_SITES}")
    phis = check_z_angles(phis, n)
    bond_t = step_matrix(spec.bond_angles, np.zeros(n)).T
    z_phases = np.exp(-1j * phis)
    amps = np.zeros(phis.shape, dtype=np.complex128)
    amps[:, spec.initial_excitation_site - 1] = 1.0
    bonded = np.empty_like(amps)
    for eta in range(1, spec.n_steps + 1):
        np.matmul(amps, bond_t, out=bonded)
        np.multiply(bonded, z_phases, out=amps)
        if eta == spec.n_steps:
            check_norms(spec, amps)
        yield eta, amps


def step_matrix(
    bond_angles: "np.ndarray | tuple[float, ...]",
    z_angles: "np.ndarray | tuple[float, ...]",
) -> np.ndarray:
    """The N x N matrix of one Trotter step (bond layer then z layer): ``trotter_step`` on eye(N).

    Used where applying the step a huge number of times is needed (binary powering).
    """
    return trotter_step(np.eye(len(z_angles), dtype=np.complex128), bond_angles, z_angles)


def chain_hamiltonians(couplings: np.ndarray, potentials: np.ndarray) -> np.ndarray:
    """(B, N, N) stack of chain Hamiltonians from (B, N-1) couplings and (B, N) potentials."""
    b, n = potentials.shape
    if n > MAX_CHAIN_SITES:
        raise ConfigurationError(f"chain size {n} exceeds {MAX_CHAIN_SITES}")
    h = np.zeros((b, n, n))
    sites = np.arange(n)
    h[:, sites, sites] = potentials
    h[:, sites[:-1], sites[1:]] = h[:, sites[1:], sites[:-1]] = couplings
    return h


def evolve_chains(hams: np.ndarray, t: float, init: np.ndarray) -> np.ndarray:
    """Exact ``exp(-iHt) @ init`` for each H of a (B, N, N) stack; returns (B, N).

    ``init`` is one (N,) vector shared by every chain, or a (B, N) stack;
    any other shape raises ConfigurationError.  One ``eigh`` call
    diagonalizes the whole stack.  Raises NumericalError if the eigensolver
    fails or any chain's eigenpair residual ``max|Hv - lambda v|`` exceeds
    ``EIGH_RESIDUAL_C * eps * N * max|lambda|``.
    """
    b, n, _ = hams.shape
    if np.shape(init) not in ((n,), (b, n)):
        raise ConfigurationError(
            f"init has shape {np.shape(init)}, expected ({n},) or ({b}, {n})"
        )
    init = np.broadcast_to(np.asarray(init, dtype=np.complex128), (b, n))
    if t == 0:
        return init.copy()
    try:
        evals, evecs = np.linalg.eigh(hams)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed for {n}-site chains: {exc}") from exc
    residual = np.max(np.abs(hams @ evecs - evecs * evals[:, None, :]), axis=(1, 2))
    scale = np.max(np.abs(evals), axis=1)
    bound = EIGH_RESIDUAL_C * np.finfo(float).eps * n * scale
    bad = np.flatnonzero(~(residual <= bound))
    if bad.size:
        k = bad[np.argmax(residual[bad] - bound[bad])]
        raise NumericalError(
            f"eigenpair residual {residual[k]:.3e} exceeds {bound[k]:.3e} "
            f"(chain {k} of {b}, n={n}, ||H||~{scale[k]:.3g})"
        )
    coeffs = np.exp(-1j * evals * t)[:, :, None] * (
        np.swapaxes(evecs, 1, 2) @ init[:, :, None]
    )
    return (evecs @ coeffs)[:, :, 0]
