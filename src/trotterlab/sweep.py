"""Deterministic experiment harness: grids, disorder ensembles, aggregation.

Trials count disorder realizations, so only localization sweeps take more
than one.  Child seeding: localization trial ``k`` at grid point ``i``
realizes its z layer with ``child_seed(master_seed, i, k) =
sm64(sm64(sm64(master) ^ i) ^ k)`` where ``sm64`` is the splitmix64
finalizer.  Any subset of work items therefore reruns identically, and
results cannot depend on scheduling: work items are pure and rows are merged
in (point, trial) order regardless of the worker count.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from math import isqrt

import numpy as np

from . import __version__
from .analytics import LocalizationReport, ipr, ipr_ave, tail_prob
from .dense import MAX_QUBITS, final_stack, iterate_stack as dense_stack, occupation_stack
from .errors import ConfigurationError, NumericalError
from .model import (
    ChainSpec,
    GateFamily,
    TrotterCircuitSpec,
    ZLayerSpec,
    parse_angle,
    parse_int,
    realize_z_layer,
    require_type,
)
from .subspace import (
    MAX_CHAIN_SITES,
    basis_state,
    chain_hamiltonians,
    continuous_evolve,
    evolve_chains,
    iterate_stack as subspace_stack,
    step_matrix,
)

_MASK64 = (1 << 64) - 1
# Amplitudes per stack walk.  Stacking pays where items are small (an N = 4
# CRx scan walks its 315 circuits as one stack); N = 15 dense states (2^15
# amplitudes) walk two to a stack.  Panel 3c on a 2-core Xeon VM, BLAS at one
# thread, the median over 4-6 rounds of medians of 7 in one noisy session:
# 170 ms at one thread and 137 ms at two; one to a stack 179 and 201 ms, four
# 178 and 176 ms, five (one task) 173 and 169 ms.
MAX_STACK_AMPLITUDES = 2**16
# Work items per sweep (grid points x trials), checked when the spec is made
# and so before any per-item list or array exists.  Desk scale: the largest
# bundled panel, 2d4, has 4501 items.
MAX_SWEEP_ITEMS = 2**20
# Trotter steps summed over the work items of a walked sweep (n_steps x grid
# points x trials), checked before any z layer is realized.  For resonance
# and CRx scans it bounds the walk length.  For localization each step of
# each item is a per-step series value: a tail and an IPR, first in a walk's
# (steps, B) float64 arrays, then as Python floats in the trace tuples and
# the companion files.  Through a CLI run at the cap (N = 3), peak RSS grew
# by 230-280 MiB, 115-140 bytes a value.  Panel 4b holds 8000 values.
MAX_ITEM_STEPS = 2**21
# Entries sized by N per sweep, checked before any is allocated: work items x
# N z angles and template entries, or grid points x N^2 chain Hamiltonian
# entries (panel 2d4: 4501 x 5^2).  Through a CLI run at the cap, peak RSS was
# 241 MiB for an N = 1000 XY scan, 235 MiB for an N = 1000 localization and
# 96-115 MiB for chains of 20-1000 sites.
MAX_GRID_ENTRIES = 2**21


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def child_seed(master_seed: int, point_index: int, trial_index: int) -> int:
    """64-bit child seed for one (grid point, trial) work item."""
    h = _splitmix64(master_seed & _MASK64)
    h = _splitmix64(h ^ (point_index & _MASK64))
    return _splitmix64(h ^ (trial_index & _MASK64))


class ExperimentKind(enum.Enum):
    RESONANCE_DISCRETE = "resonance_discrete"
    RESONANCE_CONTINUOUS = "resonance_continuous"
    LOCALIZATION = "localization"
    CONVERGENCE = "convergence"
    CRX_RESONANCE = "crx_resonance"


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if not 2 <= self.count <= MAX_SWEEP_ITEMS:
            raise ConfigurationError(
                f"grid count must be in [2, {MAX_SWEEP_ITEMS}], got {self.count}"
            )
        if not np.isfinite(self.stop - self.start):  # linspace would give inf and nan
            raise ConfigurationError(f"grid span from {self.start} to {self.stop} overflows")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    def geometric_int_values(self) -> list[int]:
        """Integer geometric ladder from start to stop (convergence grids)."""
        if self.start <= 0 or self.stop <= self.start:
            raise ConfigurationError(
                "convergence grids need 0 < start < stop (geometric ladder)"
            )
        ratio = (self.stop / self.start) ** (1 / (self.count - 1))
        vals = [int(round(self.start * ratio**i)) for i in range(self.count)]
        if sorted(set(vals)) != vals:
            raise ConfigurationError(f"degenerate convergence ladder {vals}")
        return vals


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a kind, a swept grid, fixed parameters, an ensemble."""

    kind: ExperimentKind
    swept: str
    grid: GridSpec
    fixed: dict = field(default_factory=dict)
    # disorder realizations per grid point: localization only (default 20);
    # every other kind has one fixed z layer per point and takes 1
    trials: int | None = None
    master_seed: int = 0

    def __post_init__(self) -> None:
        localization = self.kind is ExperimentKind.LOCALIZATION
        if self.trials is None:
            object.__setattr__(self, "trials", 20 if localization else 1)
        if not localization and self.trials != 1:
            raise ConfigurationError(
                f"trials counts disorder realizations: a {self.kind.value} sweep"
                f" takes trials = 1, got {self.trials}"
            )
        top = MAX_SWEEP_ITEMS // self.grid.count
        if not 1 <= self.trials <= top:
            raise ConfigurationError(
                f"trials must be in [1, {top}] for {self.grid.count} grid points"
                f" (at most {MAX_SWEEP_ITEMS} work items), got {self.trials}"
            )


@dataclass(frozen=True)
class Row:
    swept_value: float
    trial: int
    observables: dict


@dataclass(frozen=True)
class AggregateRow:
    swept_value: float
    observable: str
    mean: float
    variance: float  # population variance over trials


@dataclass(frozen=True)
class Trace:
    """Per-trial series kept for localization runs (figure companions)."""

    swept_value: float
    trial: int
    report: LocalizationReport


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    provenance: dict
    rows: tuple[Row, ...]
    aggregates: tuple[AggregateRow, ...]
    traces: tuple[Trace, ...] = ()

    def mean_curve(self, observable: str) -> tuple[np.ndarray, np.ndarray]:
        """(grid values, per-point trial means) for one observable."""
        pts = [a for a in self.aggregates if a.observable == observable]
        return (
            np.array([a.swept_value for a in pts]),
            np.array([a.mean for a in pts]),
        )


def _require(fixed: dict, names: list[str], kind: ExperimentKind) -> None:
    missing = [n for n in names if n not in fixed]
    if missing:
        raise ConfigurationError(
            f"{kind.value} requires fixed parameter(s): {', '.join(missing)}"
        )


def _gate_family(name) -> GateFamily:
    try:
        return GateFamily(name)
    except ValueError:
        raise ConfigurationError(f"unknown gate family {name!r}") from None


def _index_field(fixed: dict, name: str, default: int | None, top: int) -> int:
    """An integer field in [1, top]: a size, or a 1-based qubit, site or step."""
    index = parse_int(fixed.get(name, default), name)
    if not 1 <= index <= top:
        raise ConfigurationError(f"{name} must be in [1, {top}], got {index}")
    return index


def _template_grid(fixed: dict, name: str, params: dict, count: int, length: int) -> np.ndarray:
    """(count, length) array: the template field ``name`` resolved at every grid value.

    Entries are numbers or '[-]name' strings.  A name bound in ``params``
    resolves to plus or minus its value (the swept name is bound to the
    whole grid, an array); any other string is parsed as an angle.
    """
    entries = require_type(fixed[name], "list", name)
    if len(entries) != length:
        raise ConfigurationError(f"{name} has length {len(entries)}, expected {length}")
    out = np.empty((count, length))
    for col, e in enumerate(entries):
        if not isinstance(e, str):
            out[:, col] = parse_angle(e)
            continue
        key, sign = e.strip(), 1.0
        if key.startswith("-"):
            sign, key = -1.0, key[1:]
        value = params.get(key, key)
        out[:, col] = sign * (value if isinstance(value, np.ndarray) else parse_angle(value))
    return out


def _chain_grid(spec: SweepSpec, params: dict, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(count, N - 1) couplings and (count, N) potentials of a chain kind, N = len(potentials).

    N is capped by MAX_GRID_ENTRIES before either template is resolved.
    """
    fixed = spec.fixed
    _require(fixed, ["couplings", "potentials", "t"], spec.kind)
    n = len(require_type(fixed["potentials"], "list", "potentials"))
    top = isqrt(MAX_GRID_ENTRIES // count)
    if not 2 <= n <= top:
        raise ConfigurationError(
            f"potentials must have [2, {top}] entries for {count} grid points"
            f" (at most {MAX_GRID_ENTRIES} Hamiltonian entries), got {n}"
        )
    couplings = _template_grid(fixed, "couplings", params, count, n - 1)
    return couplings, _template_grid(fixed, "potentials", params, count, n)


def _eval_resonance_continuous(spec: SweepSpec, values: list[float]) -> list[dict]:
    """Observables at every grid value, from one stacked oracle call."""
    fixed = spec.fixed
    params = {**fixed, spec.swept: np.asarray(values, dtype=float)}
    couplings, potentials = _chain_grid(spec, params, len(values))
    n = potentials.shape[1]
    target = _index_field(fixed, "target_site", n, n)
    init = basis_state(n, _index_field(fixed, "init_site", 1, n))
    amps = evolve_chains(chain_hamiltonians(couplings, potentials), parse_angle(fixed["t"]), init)
    return [{"probability": float(p)} for p in np.abs(amps[:, target - 1]) ** 2]


def _eval_convergence_ladder(spec: SweepSpec, values: list[float]) -> list[dict]:
    """Distance to the exact state at every step count, from one study.

    Each rung builds an N x N step matrix, so the ladder's length counts
    against MAX_GRID_ENTRIES as a grid's point count does.
    """
    couplings, potentials = _chain_grid(spec, {}, len(values))
    chain = ChainSpec(tuple(couplings[0].tolist()), tuple(potentials[0].tolist()))
    table = convergence_study(chain, parse_angle(spec.fixed["t"]), values)
    return [{"distance": distance} for _, distance in table]


def _items(spec: SweepSpec, values: list[float]) -> list[tuple[TrotterCircuitSpec, tuple]]:
    """Every (point, trial) work item: (circuit without a z layer, its z angles).

    ``n_steps`` is capped by MAX_ITEM_STEPS and ``n_qubits`` by
    MAX_GRID_ENTRIES, over all items, for every kind.  A resonance
    point resolves its ``bond_angles`` and ``z_template`` templates.  A
    localization point's disorder radius is its grid value and its
    ``n_qubits`` is at least 3 (the tail window is the last third); trial k
    at point i draws its z angles with ``child_seed(master, i, k)``.
    """
    fixed = spec.fixed
    localization = spec.kind is ExperimentKind.LOCALIZATION
    layers = ["bond_angle", "base_phi"] if localization else ["bond_angles", "z_template"]
    _require(fixed, ["n_qubits", "n_steps", *layers], spec.kind)
    family = (
        GateFamily.CRX
        if spec.kind is ExperimentKind.CRX_RESONANCE
        else _gate_family(fixed.get("gate_family", "xy"))
    )
    # capped before a per-qubit tuple is built: CRx runs only on the dense walker
    n_items = len(values) * spec.trials
    top = MAX_CHAIN_SITES if family is GateFamily.XY else MAX_QUBITS
    n = _index_field(fixed, "n_qubits", None, min(top, MAX_GRID_ENTRIES // n_items))
    n_steps = _index_field(fixed, "n_steps", None, MAX_ITEM_STEPS // n_items)
    if not localization:
        params = {**fixed, spec.swept: np.asarray(values, dtype=float)}
        bonds = _template_grid(fixed, "bond_angles", params, len(values), n - 1).tolist()
        phis = _template_grid(fixed, "z_template", params, len(values), n)
        circuits = [TrotterCircuitSpec(n, n_steps, family, tuple(b)) for b in bonds]
        return list(zip(circuits, map(tuple, phis.tolist())))
    if n < 3:
        raise ConfigurationError(f"n_qubits must be >= 3 for localization, got {n}")
    circuit = TrotterCircuitSpec(n, n_steps, family, (parse_angle(fixed["bond_angle"]),) * (n - 1))
    base_phi = parse_angle(fixed["base_phi"])
    z_layers = [ZLayerSpec(base_phi=base_phi, disorder_radius=r) for r in values]
    return [
        (circuit, realize_z_layer(z_layer, n, child_seed(spec.master_seed, i, k)))
        for i, z_layer in enumerate(z_layers)
        for k in range(spec.trials)
    ]


def _walker(circuit):
    """(walk, read): the gate family's stack walker and its (B, N) occupation readout.

    XY circuits conserve the excitation number, so they walk on the
    single-excitation walker; CRx circuits walk on the dense one.
    """
    if circuit.gate_family is GateFamily.XY:
        return subspace_stack, lambda amps: np.abs(amps) ** 2
    return dense_stack, partial(occupation_stack, site=circuit.initial_excitation_site)


def backend_gap(circuit, phis) -> float:
    """Largest final-occupation gap between the dense and single-excitation walks of XY rows."""
    dense = occupation_stack(final_stack(dense_stack, circuit, phis))
    return float(np.max(np.abs(np.abs(final_stack(subspace_stack, circuit, phis)) ** 2 - dense)))


def _resonance_rows(circuit, phis, target: int):
    """Resonance observables of one stack: the target qubit's final occupation."""
    walk, read = _walker(circuit)
    probs = read(final_stack(walk, circuit, phis))[:, target - 1]
    return [({"probability": float(p)}, None) for p in probs]


def _localization_rows(circuit, phis, profile_eta: int):
    """Localization observables and reports of one stack, reduced step by step."""
    xy = circuit.gate_family is GateFamily.XY
    tails = np.empty((circuit.n_steps, len(phis)))
    iprs = np.empty_like(tails)
    profile = np.empty((len(phis), circuit.n_qubits))
    walk, read = _walker(circuit)
    for eta, amps in walk(circuit, phis):
        probs = read(amps)
        tails[eta - 1] = tail_prob(probs)
        if xy:  # a CRx state holds several excitations and has no IPR
            iprs[eta - 1] = ipr(probs)
        if eta == profile_eta:
            profile[:] = probs
    outputs = []
    for tail, series, prof in zip(tails.T.tolist(), iprs.T.tolist(), profile.tolist()):
        series = tuple(series) if xy else None
        report = LocalizationReport(
            series, ipr_ave(series) if xy else None, tuple(tail), tuple(prof), profile_eta
        )
        obs = {"ipr_ave": report.ipr_ave} if xy else {}
        obs.update(mean_tail=float(np.mean(tail)), tail_at_profile_eta=tail[profile_eta - 1])
        outputs.append((obs, report))
    return outputs


def _stacks(items, width: int) -> list[tuple]:
    """Consecutive items that share a circuit, as (circuit, (B, N) z angles) stacks.

    A stack holds at most MAX_STACK_AMPLITUDES amplitudes at ``width`` a row
    (an item too large for that walks alone).
    """
    stacks = []
    for circuit, phis in items:
        last = stacks[-1] if stacks else None
        if last and last[0] == circuit and (len(last[1]) + 1) * width <= MAX_STACK_AMPLITUDES:
            last[1].append(phis)
        else:
            stacks.append((circuit, [phis]))
    return [(circuit, np.array(rows)) for circuit, rows in stacks]


def _evaluate_items(
    spec: SweepSpec, values: list[float], threads: int, verification_mode: bool
) -> list[tuple[dict, LocalizationReport | None]]:
    """Every (point, trial) item of a walked kind, walked as stacks.

    Consecutive items with equal circuits share a stack; the gate family
    sets its row width (N amplitudes for XY, 2^N for CRx).  Verification
    mode adds a second pass over the same XY items, grouped at 2^N a row,
    whose tasks return their ``backend_gap`` on the same pool; it only
    checks (NumericalError on the worst gap beyond 1e-10), so the outputs do
    not depend on it.  Outputs come back in (point, trial) order.
    """
    items = _items(spec, values)
    n, steps = items[0][0].n_qubits, items[0][0].n_steps
    if spec.kind is ExperimentKind.LOCALIZATION:
        rows = _localization_rows
        readout = _index_field(spec.fixed, "profile_eta", min(10, steps), steps)
    else:
        rows, readout = _resonance_rows, _index_field(spec.fixed, "target_qubit", n, n)
    xy = items[0][0].gate_family is GateFamily.XY
    tasks = [partial(rows, *stack, readout) for stack in _stacks(items, n if xy else 2**n)]
    n_walks = len(tasks)
    if verification_mode and xy:
        tasks += [partial(backend_gap, *stack) for stack in _stacks(items, 2**n)]
    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda task: task(), tasks))
    else:
        parts = [task() for task in tasks]
    gap = max(parts[n_walks:], default=0.0)
    if gap > 1e-10:
        raise NumericalError(f"verification mode: backends disagree by {gap:.3e}")
    return [out for part in parts[:n_walks] for out in part]


def _welford(values: list[float]) -> tuple[float, float]:
    """Numerically stable (mean, population variance)."""
    mean, m2 = 0.0, 0.0
    for i, x in enumerate(values, start=1):
        delta = x - mean
        mean += delta / i
        m2 += delta * (x - mean)
    return mean, m2 / len(values)


def run_sweep(
    spec: SweepSpec,
    threads: int = 1,
    verification_mode: bool = False,
    assumptions: dict | None = None,
) -> SweepResult:
    """Evaluate the experiment on every (grid point, trial) work item.

    Seeded kinds walk their items as stacks, on a pool of ``threads`` when
    there is more than one stack.  The result is independent of ``threads``:
    items are pure functions of (spec, point, trial) and rows are merged in
    (point, trial) order.  ``verification_mode`` re-walks every XY item on
    both walkers as a check (NumericalError beyond 1e-10); only the
    provenance records it.
    """
    if spec.kind is ExperimentKind.CONVERGENCE:
        values = [float(v) for v in spec.grid.geometric_int_values()]
    else:
        values = [float(v) for v in spec.grid.values()]
    if spec.kind in (ExperimentKind.RESONANCE_CONTINUOUS, ExperimentKind.CONVERGENCE):
        # seed-free: one call for the whole grid, one row per point
        continuous = spec.kind is ExperimentKind.RESONANCE_CONTINUOUS
        evaluate = _eval_resonance_continuous if continuous else _eval_convergence_ladder
        outputs = [(obs, None) for obs in evaluate(spec, values)]
    else:
        outputs = _evaluate_items(spec, values, threads, verification_mode)

    rows, traces = [], []
    labels = ((v, k) for v in values for k in range(spec.trials))
    for (v, k), (obs, report) in zip(labels, outputs):
        rows.append(Row(swept_value=v, trial=k, observables=obs))
        if report is not None:
            traces.append(Trace(swept_value=v, trial=k, report=report))

    aggregates = []
    names = sorted(rows[0].observables) if rows else []
    for i, v in enumerate(values):
        point = rows[i * spec.trials : (i + 1) * spec.trials]
        for name in names:
            mean, var = _welford([r.observables[name] for r in point])
            aggregates.append(AggregateRow(v, name, mean, var))

    provenance = {
        "tool": "trotterlab",
        "version": __version__,
        "kind": spec.kind.value,
        "swept": spec.swept,
        "grid": [spec.grid.start, spec.grid.stop, spec.grid.count],
        "fixed": spec.fixed,
        "trials": spec.trials,
        "master_seed": spec.master_seed,
        "generator": "numpy-pcg64",
        "child_seed_mixer": "splitmix64-chain",
        "verification_mode": verification_mode,
    }
    if assumptions:
        provenance["assumptions"] = assumptions
    return SweepResult(spec, provenance, tuple(rows), tuple(aggregates), tuple(traces))


def convergence_study(
    chain: ChainSpec, t: float, n_t_list
) -> list[tuple[int, float]]:
    """(N_T, ||psi_discrete - psi_continuous||_2) for each step count.

    The discrete state is the chain's circuit, ``theta_j = J_j tau`` and
    ``phi_j = V_j tau`` with ``tau = t / N_T``: its single Trotter-step
    matrix raised to the N_T-th power by binary powering, which is
    algebraically the same product as N_T sequential steps (all z layers
    included) but runs in O(log N_T) matrix multiplies, so step counts in
    the millions stay cheap.
    """
    n_t_list = [int(n) for n in n_t_list]
    if any(b <= a for a, b in zip(n_t_list, n_t_list[1:])):
        raise ConfigurationError(f"n_t_list must be increasing, got {n_t_list}")
    if any(n < 1 for n in n_t_list):
        raise ConfigurationError("step counts must be >= 1")
    exact = continuous_evolve(chain, t)
    init = basis_state(chain.n_sites)
    out = []
    for n_t in n_t_list:
        tau = t / n_t
        u = step_matrix(
            [j * tau for j in chain.couplings],
            [v * tau for v in chain.potentials],
        )
        disc = np.linalg.matrix_power(u, n_t) @ init
        out.append((n_t, float(np.linalg.norm(disc - exact))))
    return out
