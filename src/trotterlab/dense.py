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
arXiv:1704.01127).  Every CRx group after the first is block-diagonal on
its first qubit, which is only a control there, so it multiplies as its two
2^(k-1) x 2^(k-1) control blocks, and the zero blocks cost nothing.  Each
step updates the stack in place in two passes over memory, through
cache-sized chunks and two scratch buffers of at most _SCRATCH_AMPS
amplitudes: the cache blocking of the same simulators and of qHiPSTER
(Smelyanskiy et al., arXiv:1601.07195).  The high pass, which runs where a
row outgrows the scratch, copies a chunk of a row's columns into a scratch,
applies the groups on the leading qubits there, alternating between the
scratches, and writes it back.  The low pass applies the others, from the
first that lies wholly inside the last k walked qubits on, to slices of 2^k
contiguous amplitudes of a chunk of rows, alternating between the chunk and
a scratch.  So a walk allocates no second buffer of the stack's size, a
stack that fits one chunk is walked with the products of an unchunked walk,
and a step is one list of kernel calls, built once per walk.  A CRx walk
from site s walks the smaller circuit on qubits s+1..N: a CRx bond's
control is its lower qubit and Rz is diagonal, so qubits 1..s-1 stay |0>,
qubit s stays |1> (bond s fires with its control fixed), the Rz phase of
qubits 1..s is a constant per row, and only indices [2^(N-s), 2^(N-s+1))
can be non-zero.  ``apply_gate`` on ``build_circuit``'s gate list is the
gate-by-gate reference the walker is tested against, and the only code that
spells out a gate.  ``_mix_bond`` is the one spelling of a bond:
``apply_gate`` calls it for every XY or CRx gate, and the walker calls it
on the identity to build its group unitaries, with no gate objects.

The walker runs in the fixed phase frame D = diag(i^g(x)), g(x) the sum of
the positions of x's excited qubits for XY and the count of its excited
walked qubits for CRx.  Every bond mixes its pair of states, whose g differ
by one, as [[c, -is], [-is, c]]; in the frame that mixing is the real
[[c, s], [-s, c]] or its transpose, the identity Rx(t) = S Ry(-t) S^dagger.
So every fused group is a real orthogonal matrix, applied as a float64
product on the stack's real view at half the flops of a complex one.  D is
a product of one-qubit phases, so it commutes with every Rz layer, and the
walk never leaves the frame: every amplitude it yields, the last step's
included, is a = D^-1 psi, so psi = D a.  Each differs from the state's by
a power of i, so |a|^2, occupations and norms are the state's exactly, and
they are all that any caller reads.  The group that ends on the last
qubit, whose amplitudes sit next to each other as (re, im) pairs,
multiplies the rows' pairs on the right by real factors, and each step ends
with one multiply by a table of phases.  A group of width w with c control
blocks folds the Rz phases of its qubits into per-row factors, of
2^(2w+2)/c floats a row, only where they take fewer bytes than a row of the
m walked qubits, 2w + 1 - log2(c) < m; the table then holds the phases of
the qubits before it, 1/16 of the block.  Below that threshold, blocks of
at most 9 qubits, one shared factor serves every row and the table holds
the phases of all m qubits, the stack's size: the trade-off of the gate
clustering above, which folds a diagonal into a product only where that
pays.  The last step has no Rz layer: its table is all ones, and the
shared factor takes the place of the per-row ones.

``occupation_stack`` reads all N occupations of a stack and ``tail_stack``
the summed occupation of a window of trailing qubits, each from one or two
reductions over the squared float64 view and no 2^N temporary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigurationError, InvalidStateError
from .model import GateFamily, GateKind, GateOp, TrotterCircuitSpec, realize_z_layer

# Desk-scale cap: 2^24 complex amplitudes = 256 MiB a row.  A walk holds its
# (B, 2^N) stack of frame amplitudes, each the state's up to a power of i, at
# most 1 MiB of scratch, and per-row phase tables of 1/16 its size, or of its
# size where the block is below the fold threshold of ``iterate_stack``,
# which only blocks of at most 9 qubits are.
MAX_QUBITS = 24
# Norm-drift bound of check_norms: max(1e-12, NORM_DRIFT_C * eps * gates).
# Each gate rounds every amplitude it touches about once, so the drift of a
# long circuit grows at most linearly in the gate count (in practice like
# its square root); the 1e-12 floor covers every circuit below ~4.5k gates.
NORM_DRIFT_C = 1.0
# Qubits per fused bond group of ``iterate_stack``; a group costs 2^k
# multiply-adds per amplitude, 2^(k-1) as two control blocks, so wider,
# fewer groups trade passes for flops.  k = 3/4/5/6 with block products on
# a 2-core Xeon VM, BLAS at one thread, medians of 15 interleaved rounds
# in one process (quartiles spread 10-30 %): a 2-row N = 15, 80-step CRx walk
# with its per-step tail reads 30/20/22/30 ms, the 4-step N = 20 CRx
# circuit 54/37/37/42 ms, panel 3c 83/56/52/77 ms.  4 and 5 tie.
FUSED_QUBITS = 4
# Amplitudes per scratch buffer of ``iterate_stack``: its two buffers (1 MiB)
# and a chunk of the block fit the 2 MiB L2 of a core.  2^13/14/15/16/17 on a
# 2-core Xeon VM, BLAS at one thread, medians of 15 interleaved rounds in one
# process: the 4-step N = 20 CRx circuit reads 36/32/33/44/54 ms, a 4-step
# N = 20 XY walk 90/83/79/98/115 ms, panel 3c 70/59/58/58/58 ms.
_SCRATCH_AMPS = 2**15
_I_POWERS = np.array([1, 1j, -1, -1j])  # i^c at c mod 4, exact


@dataclass
class StateVector:
    """2^N complex amplitudes, mutated in place by gate application.

    ``run_circuit``'s are the walker's frame amplitudes a, psi = D a.
    """

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
        v = a.reshape(2 ** (gate.sites[0] - 1), 4, -1)
        _mix_bond(v, gate.kind is GateKind.XY, gate.angle)
    else:  # pragma: no cover - enum is closed
        raise ConfigurationError(f"unknown gate kind {gate.kind}")
    return state


def _mix_bond(v: np.ndarray, xy: bool, angle: float) -> None:
    """Mix one bond's pair of states as [[c, -is], [-is, c]], in place.

    ``v`` is a (before, 4, after) view whose axis 1 holds the bond's four
    states: XY mixes |01> and |10> by ``angle``, CRx |10> and |11> by half.
    """
    i, k, t = (1, 2, angle) if xy else (2, 3, angle / 2)
    c, s = np.cos(t), np.sin(t)
    x, y = v[:, i, :].copy(), v[:, k, :]
    v[:, i, :] = c * x - 1j * s * y
    v[:, k, :] = -1j * s * x + c * y


def _kron_tables(factors: np.ndarray) -> np.ndarray:
    """(B, 2^k) Kronecker products of (k, 2, B) one-qubit diagonals, the first most significant.

    Built with the rows last, so that every product runs along them; a
    level's entry 2x + bit is the last level's entry x times one factor.
    """
    b = factors.shape[2]
    cols = np.ones((1, b), dtype=np.complex128)
    for f in factors:
        cols = (cols[:, None] * f).reshape(-1, b)
    return np.ascontiguousarray(cols.T)


@lru_cache
def _frame_phases(width: int, xy: bool) -> np.ndarray:
    """The read-only exact matrix i^(g(col) - g(row)) that takes a width-qubit group to the frame.

    D's factor on local qubit j is [1, i^j] for XY and [1, i] for CRx;
    powers of i are exact, and so is every product of them.
    """
    powers = np.arange(1, width + 1) % 4 if xy else np.ones(width, dtype=int)
    d = _kron_tables(np.stack((np.ones(width), _I_POWERS[powers]), axis=-1)[:, :, None])[0]
    phases = np.outer(d.conjugate(), d)
    phases.flags.writeable = False
    return phases


def _fused_groups(spec: TrotterCircuitSpec, first: int) -> list[tuple[int, int, np.ndarray]]:
    """The bond layer on qubits first..N as (a, width, control blocks) groups, in gate order.

    A group is a run of bonds on at most FUSED_QUBITS walked qubits [a, a +
    width), walked qubit w being qubit first + w - 1; runs are cut from the
    right, so the last one ends on qubit N.  Bond first - 1 of a CRx walk
    joins the first run with its control held at |1>.  ``_mix_bond`` mixes
    each bond of a run into the row index of eye(2^q), the run's q qubits,
    and the unitary times the exact frame phases is orthogonal, with an
    imaginary part of exact zeros (module docstring).  A group keeps the
    real (c, 2^width/c, 2^width/c) diagonal blocks on its first qubit: c = 2
    where that qubit is only a control, in every CRx run but one that holds
    bond first - 1, and the off-diagonal blocks are exact zeros; else c = 1.
    XY conserves the excitation count, so a group's frame needs only its
    local positions 1..width.
    """
    xy = spec.gate_family is GateFamily.XY
    groups = []
    j1 = spec.n_qubits - 1  # the run's last bond
    while j1 >= max(first - 1, 1):
        j0 = j1 + 2 - FUSED_QUBITS
        if j0 <= first:
            j0 = max(first - 1, 1)
        q = j1 + 2 - j0
        u = np.eye(2**q, dtype=np.complex128)
        for j in range(j0, j1 + 1):
            _mix_bond(u.reshape(2 ** (j - j0), 4, -1), xy, spec.bond_angles[j - 1])
        width = j1 + 2 - max(j0, first)
        u = (u[-(2**width) :, -(2**width) :] * _frame_phases(width, xy)).real
        h = 2**width // (2 if not xy and j0 >= first else 1)
        blocks = np.array([u[i : i + h, i : i + h] for i in range(0, 2**width, h)])
        groups.append((max(j0, first) - first + 1, width, blocks))
        j1 = j0 - 1
    return groups[::-1]


def _right_factors(blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(B, c, 2h, 2h) real factors: each control block, then the row's diagonal ``table``.

    Multiplying a row's float64 pairs (re, im) on the right by a factor
    applies block k, U_k, and then the k-th part of the (B, c*h) diagonal
    to its complex amplitudes: the real part of pair j feeds pair i with
    U_k[i, j] t_i and the imaginary part with U_k[i, j] i t_i, each one
    complex number that is a (re, im) pair of the factor's row.
    """
    (c, h, _), b = blocks.shape, len(table)
    t = (table.reshape(b, c, 1, h) * np.array([[1], [1j]])).reshape(b, c, 1, 2 * h)
    bt = blocks.transpose(0, 2, 1).astype(np.complex128)  # complex: the multiply needs no casting
    # axes (B, k, j, (p, i)): U_k[i, j] t_i i^p
    factors = np.multiply(np.concatenate((bt, bt), axis=-1), t, order="C")
    return factors.view(np.float64).reshape(b, c, 2 * h, 2 * h)


def _left_products(groups: list, lead: tuple, skip: int, buffers: list, out=None) -> list:
    """``np.matmul`` calls that apply ``groups`` in order to float64 ``buffers``.

    Group (a, width, blocks) multiplies a (*lead, 2^(a-1-skip), c,
    2^width/c, -1) view by its c control blocks, ``skip`` walked qubits
    being outside the buffers.  Group i reads buffers[i % 2] and writes
    buffers[1 - i % 2], except that the last writes ``out`` where given.
    """
    calls = []
    for i, (a, width, blocks) in enumerate(groups):
        shape = (*lead, 2 ** (a - 1 - skip), len(blocks), 2**width // len(blocks), -1)
        dst = out if out is not None and i == len(groups) - 1 else buffers[1 - i % 2]
        src, dst = buffers[i % 2].reshape(shape), dst.reshape(shape)
        calls.append(partial(np.matmul, blocks, src, out=dst))
    return calls


def check_z_angles(phis: np.ndarray, n: int) -> np.ndarray:
    """``phis`` as a float (B, n) array, B >= 1: both walkers' z angle check."""
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 2 or phis.shape[1] != n or not len(phis):
        raise ConfigurationError(f"z angles have shape {phis.shape}, expected (B, {n}) with B >= 1")
    return phis


def iterate_stack(spec: TrotterCircuitSpec, phis: np.ndarray):
    """Yield (eta, amps) after each Trotter step of a stack of circuits, eta = 1..n_steps.

    Every row shares ``spec``'s size, step count, gate family, bond angles
    and initial site; row b has its own realized z angles ``phis[b]``
    (``spec.z_layer`` is not used).  ``amps`` is the live (B, 2^N) stack
    of frame amplitudes a = D^-1 psi, each the state's up to a power of i,
    mutated by further iteration; copy it to keep a trajectory.  The final
    stack is norm-checked before it is yielded.  The frame, the fused
    groups and the two passes of a step are the module docstring's.
    """
    n = spec.n_qubits
    _check_n(n)
    phis = check_z_angles(phis, n)
    b, site = len(phis), spec.initial_excitation_site
    xy = spec.gate_family is GateFamily.XY
    first = 1 if xy else site + 1  # the block's first qubit
    m = n - first + 1
    amps = np.zeros((b, 2**n), dtype=np.complex128)
    # the X gate on |0...0>, in the frame: g = s for XY, 0 at the CRx block's start
    amps[:, 1 << (n - site)] = _I_POWERS[-site % 4] if xy else 1.0
    block = amps[:, : 2**m] if xy else amps[:, 2**m : 2 ** (m + 1)]

    # m = 0 (CRx from site N): the block's one amplitude only gains phases
    groups = _fused_groups(spec, first) or [(1, 0, np.ones((1, 1, 1)))]
    a, width, blocks = groups[-1]
    lead, c = a - 1, len(blocks)  # qubits before the last group; its control blocks
    # Fold the last group's Rz phases into per-row factors only where a row's
    # factors, 2^(2 width + 2) / c floats, take fewer bytes than the row
    # itself; else one shared factor applies the group, and the closing
    # multiply the phases of all m qubits.  Each path forced, 4-step walks on
    # a 2-core Xeon VM, BLAS at one thread, medians of 30 interleaved rounds in
    # one process: at 128 rows the times cross at this cut (shared 10-13 %
    # faster at XY m = 9 and 5 % at CRx m = 8, folded 20-48 % faster at XY m =
    # 10 and 6 % at CRx m = 9), at 32 rows one qubit above it, and one row
    # runs 45-82 us faster shared up to m = 12.
    fold = 2 ** (2 * width + 1) < c << m
    cut = lead if fold else m  # the qubits whose phases the closing multiply applies
    diagonals = np.empty((m, 2, b), dtype=np.complex128)  # the Rz layer's
    np.exp(0.5j * phis[:, first - 1 :].T, out=diagonals[:, 1])
    np.conjugate(diagonals[:, 1], out=diagonals[:, 0])
    phases = _kron_tables(diagonals[:cut]).reshape(b, 2**lead, -1)
    shared = _right_factors(blocks, np.ones((1, 2**width)))  # (1, c, 2h, 2h): the blocks alone
    factors = _right_factors(blocks, _kron_tables(diagonals[lead:])) if fold else shared
    if not xy:  # qubits 1..s-1 hold |0> and qubit s holds |1>
        outside = phis[:, site - 1] - phis[:, : site - 1].sum(axis=1)
        phases *= np.exp(0.5j * outside)[:, None, None]

    # The plan: the low groups act inside slices of 2^k amplitudes, 2^k at
    # most _SCRATCH_AMPS unless two rows of the last group need more, in
    # chunks of rows, which have more than one row only when k = m.  A slice
    # holds two runs of the last group's product, a high chunk four columns,
    # and a chunk two rows where the stack has them if those rows are the
    # shared product's: a narrower product takes another BLAS kernel, which
    # rounds differently, and the walk's numbers must not depend on its chunks.
    k = min(m, max(_SCRATCH_AMPS.bit_length() - 1, width + 1))
    split = next(i for i, (a_i, _, _) in enumerate(groups) if a_i > m - k)
    runs = 2 ** (k - width)  # a slice's runs of the last group
    chunks = -(-b // max(1, _SCRATCH_AMPS >> k))
    if runs == 1:  # one group, shared: its product's rows are the stack's
        chunks = max(1, min(chunks, b // 2))
    bounds = [b * i // chunks for i in range(chunks + 1)]

    step = []  # every kernel call of a step, in order
    if split:  # k < m: a row outgrows the scratch
        a_h, w_h, _ = groups[split - 1]
        top = a_h + w_h - 1  # the high groups act on walked qubits 1..top
        cols = min(2 ** (m - top), max(4, _SCRATCH_AMPS >> top))
        pair = [np.empty(max(2**k, cols << top), np.complex128) for _ in range(min(split, 2))]
        scratch = pair[0][: 2**k].reshape(1, -1)  # the low pass's, one row a chunk
        pair = [x[: cols << top].view(np.float64) for x in pair]
        sub = block.reshape(b, 2**top, -1)
        for r in range(b):
            for c0 in range(0, 2 ** (m - top), cols):
                chunk = sub[r, :, c0 : c0 + cols].view(np.float64)
                step.append(partial(np.copyto, pair[0].reshape(chunk.shape), chunk))
                step += _left_products(groups[:split], (), 0, pair, out=chunk)
    else:
        scratch = np.empty((-(-b // chunks), 2**k), dtype=np.complex128)
    # the last group's (q, c, runs, 2h) floats times per-row (q, c, 2h, 2h)
    # factors or the shared (1, c, 2h, 2h) one; with one run a row, the
    # floats are (1, 1, q, 2h), so one product takes all the chunk's rows
    order = (1, 2, 0, 3) if runs == 1 else (0, 2, 1, 3)
    for r0, r1 in zip(bounds, bounds[1:]):
        q = r1 - r0
        for s in range(2 ** (m - k)):
            buffers = (block[r0:r1, s << k : (s + 1) << k], scratch[:q])
            floats = [x.view(np.float64) for x in buffers]
            low = _left_products(groups[split:-1], (q,), m - k, floats)
            j, shape = len(low) % 2, (q, runs, c, 2 ** (width + 1) // c)
            src, dst = (x.reshape(shape).transpose(order) for x in (floats[j], floats[1 - j]))
            low.append(partial(np.matmul, src, factors[r0:r1] if fold else factors, out=dst))
            last, back = (x.reshape(q, runs, 2**width) for x in (buffers[1 - j], buffers[0]))
            table = phases[r0:r1, s * runs : (s + 1) * runs]
            step += [*low, partial(np.multiply, last, table, out=back)]

    for eta in range(1, spec.n_steps + 1):
        if eta == spec.n_steps:  # the last step has no Rz layer
            phases[...] = 1.0
            factors[...] = shared
        for call in step:
            call()
        if eta == spec.n_steps:
            check_norms(spec, amps)
        yield eta, amps


def final_stack(walk, spec: TrotterCircuitSpec, phis: np.ndarray) -> np.ndarray:
    """The final, norm-checked amplitude stack of either backend's ``walk(spec, phis)``.

    The dense walker's holds frame amplitudes a, psi = D a (module docstring).
    """
    for _, amps in walk(spec, phis):
        pass
    return amps


def run_circuit(spec: TrotterCircuitSpec, seed: int | None = None) -> StateVector:
    """The frame amplitudes a after the whole circuit for ``spec``: the state is psi = D a.

    D = diag(i^g(x)) is the walker's frame (module docstring), so |a|^2,
    occupations and norms are the state's.
    """
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
    # the X gate, n - 1 bonds every step, and n Rz gates every step but the last
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
    Two reductions over the squared float64 view allocate no 2^N
    temporary: one sums |a|^2 onto the first half of the qubits, one onto
    the rest, and ``_bit_sums`` reads each qubit off those marginals.
    Given a CRx stack's initial ``site`` s, it reads only the block:
    qubits 1..s-1 read 0 and qubit s a row's norm.
    """
    b, size = amps.shape
    n = size.bit_length() - 1
    probs = np.zeros((b, n))
    if site is not None:
        amps = amps[:, size >> site : size >> (site - 1)]
    k = amps.shape[1].bit_length() - 1  # the last k qubits
    v = amps.view(np.float64).reshape(b, 2 ** (k // 2), -1)
    head, rest = np.einsum("bij,bij->bi", v, v), np.einsum("bij,bij->bj", v, v)
    probs[:, n - k : n - k + k // 2] = _bit_sums(head)
    probs[:, n - k + k // 2 :] = _bit_sums(rest[:, 0::2] + rest[:, 1::2])
    if site is not None:
        probs[:, site - 1] = head.sum(axis=1)
    return probs


def tail_stack(amps: np.ndarray, site: int, start: int) -> np.ndarray:
    """(B,) summed occupations of qubits start..N of a CRx stack walked from ``site``.

    ``tail_prob(occupation_stack(amps, site))`` to rounding, from one
    reduction over the block's squared float64 view: summed onto the t
    window qubits at the block's end, each of the 2^t indices weighs as
    many as it excites, plus one when qubit s, which every row holds at
    |1>, is in the window.
    """
    b, size = amps.shape
    t = size.bit_length() - max(start, site + 1)
    v = amps[:, size >> site : size >> (site - 1)].view(np.float64).reshape(b, -1, 2 ** (t + 1))
    return np.einsum("bij,bij->bj", v, v) @ _excitation_weights(t, int(site >= start))


@lru_cache
def _excitation_weights(t: int, extra: int) -> np.ndarray:
    """Read-only (2^(t+1),) weights of (re, im) pairs: a t-bit index's set bits plus ``extra``."""
    counts = np.zeros(1)
    for _ in range(t):
        counts = np.concatenate((counts, counts + 1))
    weights = np.repeat(counts + extra, 2)
    weights.flags.writeable = False
    return weights


def _bit_sums(p: np.ndarray) -> np.ndarray:
    """(B, k) sums of a (B, 2^k) array over the indices with each bit set, the first bit first."""
    b, size = p.shape
    k = size.bit_length() - 1
    sums = np.empty((b, k))
    for i in range(k):
        sums[:, i] = p.reshape(b, 2**i, 2, -1)[:, :, 1].sum(axis=(1, 2))
    return sums
