"""Dense 2^N state-vector backend.

This is the only backend valid for controlled-Rx circuits, which do not
conserve the excitation number.  Basis index convention: qubit 1 is the most
significant bit, so ``|b_1 b_2 ... b_N>`` lives at index ``int(b, 2)``.
Callers address qubits, never raw indices, so the convention stays internal.

``iterate_circuit`` walks a circuit spec step by step with fused layers;
``build_circuit`` + ``apply_gate`` is the inspectable gate-by-gate reference
it is tested against.  Both work in place on reshape views of the amplitude
array; no 2^N x 2^N matrix is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidStateError
from .model import GateFamily, GateKind, GateOp, TrotterCircuitSpec, realize_z_layer

MAX_QUBITS = 24  # desk-scale cap: 2^24 complex amplitudes = 256 MiB
# Norm-drift bound of run_circuit: max(1e-12, NORM_DRIFT_C * eps * gates).
# Each gate rounds every amplitude it touches about once, so the drift of a
# long circuit grows at most linearly in the gate count (in practice like
# its square root); the 1e-12 floor covers every circuit below ~4.5k gates.
NORM_DRIFT_C = 1.0


@dataclass
class StateVector:
    """2^N complex amplitudes, mutated in place by gate application."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm_error(self) -> float:
        # vdot allocates nothing, unlike a 2^N-sized |a|^2 temporary
        return abs(float(np.vdot(self.amplitudes, self.amplitudes).real) - 1.0)


def _check_n(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigurationError(
            f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}"
        )


def init_basis(n_qubits: int, bitstring: str) -> StateVector:
    """State with amplitude 1 on the given computational basis string."""
    _check_n(n_qubits)
    if len(bitstring) != n_qubits or set(bitstring) - {"0", "1"}:
        raise ConfigurationError(
            f"bitstring {bitstring!r} is not a {n_qubits}-bit 0/1 string"
        )
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[int(bitstring, 2)] = 1.0
    return StateVector(n_qubits, amps)


def _pair_view(amps: np.ndarray, n: int, j: int) -> np.ndarray:
    """View with qubits j, j+1 exposed as axes 1 and 2 (j is 1-based)."""
    return amps.reshape(2 ** (j - 1), 2, 2, -1)


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate in place and return the same state."""
    n = state.n_qubits
    if max(gate.sites) > n:
        raise ConfigurationError(f"gate sites {gate.sites} outside [1, {n}]")
    a = state.amplitudes
    if gate.kind is GateKind.X:
        v = a.reshape(2 ** (gate.sites[0] - 1), 2, -1)
        v[:, [0, 1], :] = v[:, [1, 0], :]
    elif gate.kind is GateKind.RZ:
        v = a.reshape(2 ** (gate.sites[0] - 1), 2, -1)
        v[:, 0, :] *= np.exp(-0.5j * gate.angle)
        v[:, 1, :] *= np.exp(+0.5j * gate.angle)
    elif gate.kind is GateKind.XY:
        v = _pair_view(a, n, gate.sites[0])
        c, s = np.cos(gate.angle), np.sin(gate.angle)
        a01 = v[:, 0, 1, :].copy()
        a10 = v[:, 1, 0, :]
        v[:, 0, 1, :] = c * a01 - 1j * s * a10
        v[:, 1, 0, :] = -1j * s * a01 + c * a10
    elif gate.kind is GateKind.CRX:
        v = _pair_view(a, n, gate.sites[0])
        c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        a10 = v[:, 1, 0, :].copy()
        a11 = v[:, 1, 1, :]
        v[:, 1, 0, :] = c * a10 - 1j * s * a11
        v[:, 1, 1, :] = -1j * s * a10 + c * a11
    else:  # pragma: no cover - enum is closed
        raise ConfigurationError(f"unknown gate kind {gate.kind}")
    return state


def _rz_table(phis) -> np.ndarray:
    """Diagonal of an Rz layer on consecutive qubits, the first one most significant."""
    table = np.ones(1, dtype=np.complex128)
    for e in np.exp(0.5j * np.asarray(phis, dtype=float)):
        table = np.multiply.outer(table, (e.conjugate(), e)).ravel()
    return table


def iterate_circuit(spec: TrotterCircuitSpec, seed: int | None = None):
    """Yield (eta, state) after each Trotter step of ``spec``, eta = 1..n_steps.

    Applies the gates ``build_circuit(spec, seed)`` lists, fused per layer:
    each bond's cos and sin are computed once per circuit, each bond gate
    mixes its two coupled blocks through one half-state scratch buffer, and
    each Rz layer is two in-place multiplies by the Kronecker factors of its
    diagonal (over the first floor(N/2) and the last ceil(N/2) qubits).  The
    yielded state is live (mutated by further iteration); copy it to keep a
    trajectory.
    """
    n = spec.n_qubits
    _check_n(n)
    phis = realize_z_layer(spec.z_layer, n, seed)
    hi = _rz_table(phis[: n // 2])[:, None]
    lo = _rz_table(phis[n // 2 :])
    state = StateVector(n, np.zeros(2**n, dtype=np.complex128))
    a = state.amplitudes
    a[1 << (n - spec.initial_excitation_site)] = 1.0  # the X gate on |0...0>
    z_view = a.reshape(hi.size, lo.size)

    # A bond gate mixes the |01>,|10> (XY) or |10>,|11> (CRx) blocks of its
    # pair as [[c, -is], [-is, c]]; ``pair[:, ::-1]`` holds the partners.
    xy = spec.gate_family is GateFamily.XY
    angles = np.asarray(spec.bond_angles, dtype=float) * (1.0 if xy else 0.5)
    scratch = np.empty(2 ** (n - 1), dtype=np.complex128)
    bonds = []
    for j, c, ms in zip(range(1, n), np.cos(angles), -1j * np.sin(angles)):
        quads = a.reshape(2 ** (j - 1), 4, -1)
        pair = quads[:, 1:3] if xy else quads[:, 2:4]
        bonds.append((pair, pair[:, ::-1], scratch.reshape(pair.shape), c, ms))

    for eta in range(1, spec.n_steps + 1):
        for pair, partners, mixed, c, ms in bonds:
            np.multiply(partners, ms, out=mixed)
            pair *= c
            pair += mixed
        if not (spec.drop_final_z and eta == spec.n_steps):
            z_view *= hi
            z_view *= lo
        yield eta, state


def run_circuit(spec: TrotterCircuitSpec, seed: int | None = None) -> StateVector:
    """The state after the whole circuit for ``spec``, started from ``|0...0>``.

    Raises InvalidStateError when the norm drifts by more than
    ``max(1e-12, NORM_DRIFT_C * eps * gates)``, ``gates`` counting every
    gate of ``build_circuit(spec)``.
    """
    for _, state in iterate_circuit(spec, seed):
        pass
    n, steps = spec.n_qubits, spec.n_steps
    z_layers = steps - 1 if spec.drop_final_z else steps
    gates = 1 + steps * (n - 1) + z_layers * n
    bound = max(1e-12, NORM_DRIFT_C * np.finfo(float).eps * gates)
    err = state.norm_error()
    if err > bound:
        raise InvalidStateError(
            f"norm drifted by {err:.3e} after {gates} gates (bound {bound:.1e})"
        )
    return state


def occupation_probs(state: StateVector) -> np.ndarray:
    """P(qubit i measures 1) for i = 1..N.

    Valid for any state, including CRx outputs with several excitations
    (the entries then need not sum to 1).  Reads one |a|^2 buffer: qubit i's
    probability is the sum of its upper half once qubits 1..i-1 have been
    summed out by folding the buffer in half, in place.
    """
    n = state.n_qubits
    p = np.abs(state.amplitudes)
    p *= p
    probs = np.empty(n)
    for i in range(n):
        half = p.size // 2
        probs[i] = p[half:].sum()
        np.add(p[:half], p[half:], out=p[:half])
        p = p[:half]
    return probs


def basis_prob(state: StateVector, bitstring: str) -> float:
    """|<bitstring|state>|^2."""
    if len(bitstring) != state.n_qubits:
        raise ConfigurationError("bitstring length must equal n_qubits")
    return float(abs(state.amplitudes[int(bitstring, 2)]) ** 2)
