"""Dense 2^N state-vector backend.

Sweeps walk controlled-Rx circuits here, since they do not conserve the
excitation number; an XY stack comes here only as verification mode's
cross-check of the single-excitation walker.  Basis index convention: qubit
1 is the most significant bit, so ``|b_1 b_2 ... b_N>`` lives at index
``int(b, 2)``.  Callers address qubits, never raw indices.

``iterate_stack`` is the circuit walker: it steps a (B, 2^N) stack of
circuits that differ only in their z angles, and its final stack is checked
by ``check_norms``, which both backends' walkers call.  ``run_circuit``
walks one row.  All rows and steps share one bond layer, so the walker
fuses it, once per walk, into a few 2^k x 2^k unitaries on groups of k <=
FUSED_QUBITS qubits and applies each as one matrix product: the gate
clustering of large state-vector simulators (Haener and Steiger, SC17,
arXiv:1704.01127).  A CRx walk from site s walks the smaller circuit on
qubits s+1..N: a CRx bond's control is its lower qubit and Rz is diagonal,
so qubits 1..s-1 stay |0>, qubit s stays |1> (bond s fires with its control
fixed), the Rz phase of qubits 1..s is a constant per row, and only indices
[2^(N-s), 2^(N-s+1)) can be non-zero.  ``apply_gate`` on
``build_circuit``'s gate list is the gate-by-gate reference the walker is
tested against, and the only code that spells out a gate; the walker builds
its group unitaries with it.

The walker runs in the fixed phase frame D = diag(i^g(x)), g(x) the sum of
the positions of x's excited qubits for XY and the count of its excited
walked qubits for CRx.  Every bond mixes its pair of states, whose g differ
by one, as [[c, -is], [-is, c]]; in the frame that mixing is the real
[[c, s], [-s, c]] or its transpose, the identity Rx(t) = S Ry(-t) S^dagger.
So every fused group is a real orthogonal matrix, applied as a float64
product on the stack's real view at half the flops of a complex one.  D is
a product of one-qubit phases, so it commutes with every Rz layer.  The
walk's amplitudes are D^-1 psi: each differs from the state's by a power of
i, so |a|^2, occupations and norms are the state's exactly, and the last
step multiplies by D to yield the state itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, InvalidStateError
from .model import GateFamily, GateKind, GateOp, TrotterCircuitSpec, realize_z_layer

MAX_QUBITS = 24  # desk-scale cap: 2^24 complex amplitudes = 256 MiB
# Norm-drift bound of check_norms: max(1e-12, NORM_DRIFT_C * eps * gates).
# Each gate rounds every amplitude it touches about once, so the drift of a
# long circuit grows at most linearly in the gate count (in practice like
# its square root); the 1e-12 floor covers every circuit below ~4.5k gates.
NORM_DRIFT_C = 1.0
# Qubits per fused bond group of ``iterate_stack``; a group costs 2^k
# multiply-adds per amplitude, so wider, fewer groups trade passes for
# flops.  k = 3/4/5/6 with real frame products on a 2-core Xeon VM, BLAS at
# one thread, medians of 9 over 3 rounds in one session: a 2-row N = 15,
# 80-step CRx stack 46-48/44-46/52-54/67-70 ms, the 4-step N = 20 CRx
# circuit 62-70/57-59/66-68/78-82 ms.
FUSED_QUBITS = 4
_I_POWERS = np.array([1, 1j, -1, -1j])  # i^c at c mod 4, exact


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
        raise ConfigurationError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def init_basis(n_qubits: int, bitstring: str) -> StateVector:
    """State with amplitude 1 on the given computational basis string."""
    _check_n(n_qubits)
    if len(bitstring) != n_qubits or set(bitstring) - {"0", "1"}:
        raise ConfigurationError(f"bitstring {bitstring!r} is not a {n_qubits}-bit 0/1 string")
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[int(bitstring, 2)] = 1.0
    return StateVector(n_qubits, amps)


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
    elif gate.kind in (GateKind.XY, GateKind.CRX):
        # the pair's |01>,|10> (XY) or |10>,|11> (CRx) parts mix as [[c, -is], [-is, c]]
        v = a.reshape(2 ** (gate.sites[0] - 1), 4, -1)
        i, k, t = (1, 2, gate.angle) if gate.kind is GateKind.XY else (2, 3, gate.angle / 2)
        c, s = np.cos(t), np.sin(t)
        x, y = v[:, i, :].copy(), v[:, k, :]
        v[:, i, :] = c * x - 1j * s * y
        v[:, k, :] = -1j * s * x + c * y
    else:  # pragma: no cover - enum is closed
        raise ConfigurationError(f"unknown gate kind {gate.kind}")
    return state


def _kron_tables(factors: np.ndarray) -> np.ndarray:
    """(B, 2^k) Kronecker products of (B, k, 2) one-qubit diagonals, the first most significant."""
    b = len(factors)
    table = np.ones((b, 1), dtype=np.complex128)
    for f in factors.transpose(1, 0, 2):
        table = (table[:, :, None] * f[:, None, :]).reshape(b, -1)
    return table


def _rz_tables(phis: np.ndarray) -> np.ndarray:
    """(B, 2^k) Rz-layer diagonals on k consecutive qubits, the first one most significant."""
    e = np.exp(0.5j * phis)
    return _kron_tables(np.stack((e.conjugate(), e), axis=-1))


def _frame_factors(positions: np.ndarray, xy: bool) -> np.ndarray:
    """(1, k, 2) factors [1, i^c] of the walk frame D on qubits at ``positions``.

    c is a qubit's position for XY and 1 for CRx, so D = diag(i^g(x)) with
    g(x) the sum of the excited qubits' positions or their count; powers of
    i are exact, and so is every product of them.
    """
    powers = positions % 4 if xy else np.ones_like(positions)
    return np.stack((np.ones(len(powers)), _I_POWERS[powers]), axis=-1)[None]


@lru_cache
def _frame_phases(width: int, xy: bool) -> np.ndarray:
    """The exact 2^width x 2^width matrix i^(g(col) - g(row)) that turns a group into the frame."""
    d = _kron_tables(_frame_factors(np.arange(1, width + 1), xy))[0]
    return np.outer(d.conjugate(), d)


def _fused_groups(spec: TrotterCircuitSpec, first: int) -> list[tuple[int, int, np.ndarray]]:
    """The bond layer on qubits first..N as (a, width, frame matrix) groups, in gate order.

    A group is a run of bonds on at most FUSED_QUBITS walked qubits [a, a +
    width), walked qubit w being qubit first + w - 1; runs are cut from the
    right, so the last one ends on qubit N.  Bond first - 1 of a CRx walk
    joins the first run with its control held at |1>.  ``apply_gate`` builds
    each unitary on eye(2^q) as a 2q-qubit state, its rows the first q
    qubits, and multiplies it entrywise by the exact frame phases, which
    leave an orthogonal matrix with an imaginary part of exact zeros (module
    docstring).  XY conserves the excitation count, so a group's frame needs
    only its local positions 1..width.
    """
    xy = spec.gate_family is GateFamily.XY
    kind = GateKind.XY if xy else GateKind.CRX
    groups = []
    j1 = spec.n_qubits - 1  # the run's last bond
    while j1 >= max(first - 1, 1):
        j0 = j1 + 2 - FUSED_QUBITS
        if j0 <= first:
            j0 = max(first - 1, 1)
        q = j1 + 2 - j0
        state = StateVector(2 * q, np.eye(2**q, dtype=np.complex128).ravel())
        for j in range(j0, j1 + 1):
            apply_gate(state, GateOp(kind, (j - j0 + 1, j - j0 + 2), spec.bond_angles[j - 1]))
        width = j1 + 2 - max(j0, first)
        u = state.amplitudes.reshape(2**q, 2**q)[-(2**width) :, -(2**width) :]
        groups.append((max(j0, first) - first + 1, width, u * _frame_phases(width, xy)))
        j1 = j0 - 1
    return groups[::-1]


def iterate_stack(spec: TrotterCircuitSpec, phis: np.ndarray):
    """Yield (eta, amps) after each Trotter step of a stack of circuits, eta = 1..n_steps.

    Every row shares ``spec``'s size, step count, gate family, bond angles
    and initial site; row b has its own realized z angles
    ``phis[b]`` (``spec.z_layer`` is not used).  ``amps`` is the live
    (B, 2^N) amplitude stack, mutated by further iteration; copy it to keep
    a trajectory.

    The walk runs in the frame D = diag(i^g(x)) of the module docstring:
    every yield but the last holds the frame amplitudes D^-1 psi, which
    differ from the state's only by a phase per basis state, so their
    |a|^2, occupations and norms are the state's exactly.  The final yield
    is the state itself.

    Walks the block of m qubits that can change: all N for XY, qubits
    s+1..N for CRx from site s (module docstring).  Each step applies each
    of ``_fused_groups`` as one real ``np.matmul`` over the float64 view of
    the stack, from the block into one block-sized buffer or back, and then
    the Rz layer (every step's but the last) as two multiplies by Kronecker
    factors of its diagonals, over the block's first floor(m/2) and last
    ceil(m/2) qubits; the CRx constant phase is folded into the first.  The
    last step multiplies by D's factors the same way instead.  The stack
    stays zero outside the block.  The final stack is norm-checked before it
    is yielded.
    """
    n = spec.n_qubits
    _check_n(n)
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 2 or phis.shape[1] != n:
        raise ConfigurationError(f"z angles have shape {phis.shape}, expected (B, {n})")
    b, site = len(phis), spec.initial_excitation_site
    xy = spec.gate_family is GateFamily.XY
    first = 1 if xy else site + 1  # the block's first qubit
    m = n - first + 1
    amps = np.zeros((b, 2**n), dtype=np.complex128)
    # the X gate on |0...0>, in the frame: g = s for XY, 0 at the CRx block's start
    amps[:, 1 << (n - site)] = _I_POWERS[-site % 4] if xy else 1.0
    block = amps[:, : 2**m] if xy else amps[:, 2**m : 2 ** (m + 1)]

    hi = _rz_tables(phis[:, first - 1 : first - 1 + m // 2])[:, :, None]
    lo = _rz_tables(phis[:, first - 1 + m // 2 :])[:, None, :]
    if not xy:  # qubits 1..s-1 hold |0> and qubit s holds |1>
        hi *= np.exp(0.5j * (phis[:, site - 1] - phis[:, : site - 1].sum(axis=1)))[:, None, None]
    z_shape = (b, hi.shape[1], lo.shape[2])
    d = _frame_factors(np.arange(first, n + 1), xy)
    d_hi = _kron_tables(d[:, : m // 2])[:, :, None]
    d_lo = _kron_tables(d[:, m // 2 :])[:, None, :]

    # Groups alternate between the block and one buffer.  A group that ends
    # on the last qubit is a complex (rows, 2^width) @ U.T product; any other
    # multiplies the real and imaginary parts of its trailing qubits at once.
    buffers = (block, np.empty_like(block))
    products = []
    for i, (a, width, u) in enumerate(_fused_groups(spec, first)):
        src, dst = buffers[i % 2], buffers[1 - i % 2]
        if a + width - 1 == m:
            shape = (b, -1, 2**width)
            products.append((src.reshape(shape), u.T, dst.reshape(shape)))
        else:
            shape = (b, 2 ** (a - 1), 2**width, -1)
            src, dst = src.view(np.float64), dst.view(np.float64)
            products.append((np.ascontiguousarray(u.real), src.reshape(shape), dst.reshape(shape)))
    last = buffers[len(products) % 2]  # where a bond layer leaves the block
    z_view, z_last = block.reshape(z_shape), last.reshape(z_shape)

    for eta in range(1, spec.n_steps + 1):
        for x, y, out in products:
            np.matmul(x, y, out=out)
        if eta < spec.n_steps:
            np.multiply(z_last, hi, out=z_view)
            z_view *= lo
        else:  # leave the frame: exact, as every factor is a power of i
            np.multiply(z_last, d_hi, out=z_view)
            z_view *= d_lo
            check_norms(spec, amps)
        yield eta, amps


def final_stack(walk, spec: TrotterCircuitSpec, phis: np.ndarray) -> np.ndarray:
    """The final, norm-checked amplitude stack of either backend's ``walk(spec, phis)``."""
    for _, amps in walk(spec, phis):
        pass
    return amps


def run_circuit(spec: TrotterCircuitSpec, seed: int | None = None) -> StateVector:
    """The state after the whole circuit for ``spec``."""
    phis = np.asarray([realize_z_layer(spec.z_layer, spec.n_qubits, seed)])
    return StateVector(spec.n_qubits, final_stack(iterate_stack, spec, phis)[0])


def check_norms(spec: TrotterCircuitSpec, amps: np.ndarray) -> None:
    """Raise InvalidStateError if a row of a final stack of ``spec`` drifted.

    ``amps`` is either walker's final stack: (B, 2^N) dense or (B, N)
    single-excitation amplitudes.  The bound is NORM_DRIFT_C's, with
    ``gates`` counting every gate of ``build_circuit(spec)``.  One ``einsum``
    over the rows' real and imaginary parts reads every squared norm and
    allocates no 2^N temporary.
    """
    n, steps = spec.n_qubits, spec.n_steps
    gates = 1 + steps * (n - 1) + (steps - 1) * n
    bound = max(1e-12, NORM_DRIFT_C * np.finfo(float).eps * gates)
    # np.max propagates a NaN row, and a NaN error fails ``err <= bound``
    v = amps.view(np.float64)
    err = float(np.max(np.abs(np.einsum("bi,bi->b", v, v) - 1.0)))
    if not err <= bound:
        raise InvalidStateError(
            f"norm drifted by {err:.3e} after {gates} gates (bound {bound:.1e})"
        )


def occupation_probs(state: StateVector) -> np.ndarray:
    """P(qubit i measures 1) for i = 1..N: ``occupation_stack`` on a stack of one."""
    return occupation_stack(state.amplitudes[None])[0]


def occupation_stack(amps: np.ndarray, site: int | None = None) -> np.ndarray:
    """(B, N) occupations P(qubit i measures 1) of a (B, 2^N) amplitude stack.

    Valid for any state, including CRx outputs with several excitations.
    Reads one |a|^2 buffer: qubit i's probability is the sum of a row's
    upper half once qubits 1..i-1 are summed out by folding the rows in
    half, in place.  Given a CRx stack's initial ``site`` s, it reads only
    the block: qubits 1..s-1 read 0 and qubit s a row's norm.
    """
    b, size = amps.shape
    n = size.bit_length() - 1
    probs = np.zeros((b, n))
    if site is not None:
        amps = amps[:, size >> site : size >> (site - 1)]
    p = np.abs(amps)
    p *= p
    for i in range(n - p.shape[1].bit_length() + 1, n):
        half = p.shape[1] // 2
        probs[:, i] = p[:, half:].sum(axis=1)
        np.add(p[:, :half], p[:, half:], out=p[:, :half])
        p = p[:, :half]
    if site is not None:
        probs[:, site - 1] = p[:, 0]
    return probs
