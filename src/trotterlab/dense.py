"""Dense 2^N state-vector backend.

Sweeps walk controlled-Rx circuits here, since they do not conserve the
excitation number; an XY stack comes here only as verification mode's
cross-check of the single-excitation walker.  Basis index convention: qubit
1 is the most significant bit, so ``|b_1 b_2 ... b_N>`` lives at index
``int(b, 2)``.  Callers address qubits, never raw indices, so the convention
stays internal.

``iterate_stack`` is the circuit walker: it steps a (B, 2^N) stack of
circuits that differ only in their z angles, with fused layers;
``run_circuit`` walks it on one row and returns a ``StateVector``.  A
controlled-Rx walk steps only its reachable block: every CRx bond's control
is its lower qubit and Rz is diagonal, so from initial site s, qubits
1..s-1 stay |0> and qubit s stays |1>, and only indices
[2^(N-s), 2^(N-s+1)) can hold a non-zero amplitude.  The rest of the stack
stays zero without being touched, and each amplitude of the block meets the
same multiplies in the same order as in a walk of the whole state, so the
block, and every occupation read from the stack, is bit-identical to it.
``build_circuit`` + ``apply_gate`` on a ``StateVector`` is the inspectable
gate-by-gate reference the walker is tested against.  Both work in place on
reshape views of the amplitude array; no 2^N x 2^N matrix is ever
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidStateError
from .model import GateFamily, GateKind, GateOp, TrotterCircuitSpec, realize_z_layer

MAX_QUBITS = 24  # desk-scale cap: 2^24 complex amplitudes = 256 MiB
# Norm-drift bound of check_norms: max(1e-12, NORM_DRIFT_C * eps * gates).
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


def _pair_view(amps: np.ndarray, j: int) -> np.ndarray:
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
        v = _pair_view(a, gate.sites[0])
        c, s = np.cos(gate.angle), np.sin(gate.angle)
        a01 = v[:, 0, 1, :].copy()
        a10 = v[:, 1, 0, :]
        v[:, 0, 1, :] = c * a01 - 1j * s * a10
        v[:, 1, 0, :] = -1j * s * a01 + c * a10
    elif gate.kind is GateKind.CRX:
        v = _pair_view(a, gate.sites[0])
        c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        a10 = v[:, 1, 0, :].copy()
        a11 = v[:, 1, 1, :]
        v[:, 1, 0, :] = c * a10 - 1j * s * a11
        v[:, 1, 1, :] = -1j * s * a10 + c * a11
    else:  # pragma: no cover - enum is closed
        raise ConfigurationError(f"unknown gate kind {gate.kind}")
    return state


def _rz_tables(phis: np.ndarray) -> np.ndarray:
    """(B, 2^k) Rz-layer diagonals on k consecutive qubits, the first one most significant."""
    b = len(phis)
    table = np.ones((b, 1), dtype=np.complex128)
    for e in np.exp(0.5j * phis).T:
        factors = np.stack((e.conjugate(), e), axis=1)
        table = (table[:, :, None] * factors[:, None, :]).reshape(b, -1)
    return table


def iterate_stack(spec: TrotterCircuitSpec, phis: np.ndarray):
    """Yield (eta, amps) after each Trotter step of a stack of circuits, eta = 1..n_steps.

    Every row shares ``spec``'s size, step count, gate family, bond angles
    and initial site; row b has its own realized z angles
    ``phis[b]`` (``spec.z_layer`` is not used).  ``amps`` is the live
    (B, 2^N) amplitude stack, mutated by further iteration; copy it to keep
    a trajectory.

    Applies the gates ``build_circuit`` lists, fused per layer: each bond's
    cos and sin are computed once per walk, each bond gate mixes its two
    coupled blocks through one scratch buffer, and each Rz layer (every
    step's but the last) is two in-place multiplies by the Kronecker
    factors of its diagonals (over the first floor(N/2) and the last
    ceil(N/2) qubits), made for the whole stack at once.

    A CRx walk touches only the reachable block ``amps[:, 2^(N-s) :
    2^(N-s+1)]`` (see the module docstring; s is the initial site): bonds
    below s are skipped, bond s acts on the whole block as an Rx on qubit
    s+1, the other bonds and the Rz tables are sliced to the block, and the
    scratch buffer holds the largest sliced pair.  The yielded stack is
    still (B, 2^N), zero outside the block.
    """
    n = spec.n_qubits
    _check_n(n)
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 2 or phis.shape[1] != n:
        raise ConfigurationError(
            f"z angles have shape {phis.shape}, expected (B, {n})"
        )
    b = len(phis)
    xy = spec.gate_family is GateFamily.XY
    # [start, stop): the indices that can hold a non-zero amplitude, all of
    # them for XY, the reachable block for CRx
    site = spec.initial_excitation_site
    start, stop = (0, 2**n) if xy else (1 << (n - site), 2 << (n - site))
    amps = np.zeros((b, 2**n), dtype=np.complex128)
    amps[:, 1 << (n - site)] = 1.0  # the X gate on |0...0>

    hi = _rz_tables(phis[:, : n // 2])[:, :, None]
    lo = _rz_tables(phis[:, n // 2 :])[:, None, :]
    width = lo.shape[2]
    rows = slice(start // width, -(-stop // width))
    cols = slice(start % width, start % width + min(stop - start, width))
    z_view = amps.reshape(b, hi.shape[1], width)[:, rows, cols]
    hi, lo = hi[:, rows], lo[:, :, cols]

    # A bond gate mixes the |01>,|10> (XY) or |10>,|11> (CRx) blocks of its
    # pair as [[c, -is], [-is, c]]; ``pair[:, :, ::-1]`` holds the partners.
    # Bond j only touches the values of qubits 1..j-1 inside [start, stop):
    # a CRx bond below the initial site has none, since its control is 0.
    angles = np.asarray(spec.bond_angles, dtype=float) * (1.0 if xy else 0.5)
    pairs = []
    for j, c, ms in zip(range(1, n), np.cos(angles), -1j * np.sin(angles)):
        shift = n - j + 1  # each value of qubits 1..j-1 spans 2^shift indices
        if stop >> shift > start >> shift:
            quads = amps.reshape(b, 2 ** (j - 1), 4, -1)[:, start >> shift : stop >> shift]
            pairs.append((quads[:, :, 1:3] if xy else quads[:, :, 2:4], c, ms))
    scratch = np.empty(max((p.size for p, _, _ in pairs), default=0), dtype=np.complex128)
    bonds = [
        (pair, pair[:, :, ::-1], scratch[: pair.size].reshape(pair.shape), c, ms)
        for pair, c, ms in pairs
    ]

    for eta in range(1, spec.n_steps + 1):
        for pair, partners, mixed, c, ms in bonds:
            np.multiply(partners, ms, out=mixed)
            pair *= c
            pair += mixed
        if eta < spec.n_steps:
            z_view *= hi
            z_view *= lo
        yield eta, amps


def run_circuit(spec: TrotterCircuitSpec, seed: int | None = None) -> StateVector:
    """The state after the whole circuit for ``spec``, with its norm checked."""
    phis = np.asarray([realize_z_layer(spec.z_layer, spec.n_qubits, seed)])
    for _, amps in iterate_stack(spec, phis):
        pass
    check_norms(spec, amps)
    return StateVector(spec.n_qubits, amps[0])


def check_norms(spec: TrotterCircuitSpec, amps: np.ndarray) -> None:
    """Raise InvalidStateError if a row of a final stack of ``spec`` drifted.

    ``amps`` is either backend's final stack: (B, 2^N) dense or (B, N)
    single-excitation amplitudes.  The bound is NORM_DRIFT_C's, with
    ``gates`` counting every gate of ``build_circuit(spec)``; ``vdot``
    allocates no 2^N temporary.
    """
    n, steps = spec.n_qubits, spec.n_steps
    gates = 1 + steps * (n - 1) + (steps - 1) * n
    bound = max(1e-12, NORM_DRIFT_C * np.finfo(float).eps * gates)
    # np.max propagates a NaN row, and a NaN error fails ``err <= bound``
    err = float(np.max([abs(np.vdot(row, row).real - 1.0) for row in amps]))
    if not err <= bound:
        raise InvalidStateError(
            f"norm drifted by {err:.3e} after {gates} gates (bound {bound:.1e})"
        )


def occupation_probs(state: StateVector) -> np.ndarray:
    """P(qubit i measures 1) for i = 1..N: ``occupation_stack`` on a stack of one."""
    return occupation_stack(state.amplitudes[None])[0]


def occupation_stack(amps: np.ndarray) -> np.ndarray:
    """(B, N) occupations P(qubit i measures 1) of a (B, 2^N) amplitude stack.

    Valid for any state, including CRx outputs with several excitations
    (a row then need not sum to 1).  Reads one |a|^2 buffer: qubit i's
    probability is the sum of a row's upper half once qubits 1..i-1 have
    been summed out by folding the rows in half, in place.
    """
    p = np.abs(amps)
    p *= p
    b, size = p.shape
    probs = np.empty((b, size.bit_length() - 1))
    for i in range(probs.shape[1]):
        half = p.shape[1] // 2
        probs[:, i] = p[:, half:].sum(axis=1)
        np.add(p[:, :half], p[:, half:], out=p[:, :half])
        p = p[:, :half]
    return probs
