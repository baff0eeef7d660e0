"""Deterministic experiment harness: grids, disorder ensembles, aggregation.

Trials count disorder realizations, so only localization sweeps take more
than one.  Child seeding: localization trial ``k`` at grid point ``i``
realizes its z layer with ``child_seed(master_seed, i, k) =
sm64(sm64(sm64(master) ^ i) ^ k)`` where ``sm64`` is the splitmix64
finalizer.  Any subset of work items therefore reruns identically.  A sweep
walks its items as stacks, one after another on the calling thread, in
(point, trial) order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from math import isqrt

import numpy as np

from . import __version__
from .analytics import ipr, tail_prob, tail_start
from .dense import (
    MAX_QUBITS,
    final_stack,
    iterate_stack as dense_stack,
    occupation_stack,
    tail_stack,
)
from .errors import ConfigurationError, InvalidStateError, NumericalError
from .model import (
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
    evolve_chains,
    iterate_stack as subspace_stack,
    step_matrix,
)

_MASK64 = (1 << 64) - 1
# Amplitudes per stack walk.  Stacking pays where items are small (an N = 4
# CRx scan walks its 315 circuits as one stack); N = 15 dense states walk two
# to a stack.  Panel 3c with block products, 2-core VM, BLAS at 1 thread,
# medians (quartiles) of 15 interleaved rounds in ms: 1 a stack 55 (50-73),
# 2 56 (50-66), 4 61 (58-79), 5 73 (70-88).
MAX_STACK_AMPLITUDES = 2**16
# Work items per sweep (grid points x trials), checked when the spec is made
# and so before any per-item list or array exists.  Desk scale: the largest
# bundled panel, 2d4, has 4501 items.
MAX_SWEEP_ITEMS = 2**20
# Trotter steps summed over the work items of a walked sweep (n_steps x grid
# points x trials), checked before any z layer is realized.  For resonance
# and CRx scans it bounds the walk length.  For localization each step of
# each item is a per-step series value: a tail and an IPR, in a stack's
# (B, steps) float64 arrays and then in the result's (items, steps) ones.
# Through a CLI run at the cap (N = 3, 2048 steps of 32 x 32 or 1024 x 1
# items), peak RSS grew by 71 MiB, 36 bytes a value.  Panel 4b holds 8000.
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
        try:  # a rung beyond the float range overflows the power or the rounding
            ratio = (self.stop / self.start) ** (1 / (self.count - 1))
            vals = [int(round(self.start * ratio**i)) for i in range(self.count)]
        except OverflowError:
            raise ConfigurationError(
                f"convergence ladder from {self.start} to {self.stop} overflows"
            ) from None
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
class LocalizationReport:
    """One localization item's per-step series (``ipr_*`` are None for CRx)."""

    ipr_series: tuple[float, ...] | None
    ipr_ave: float | None
    tail_series: tuple[float, ...]
    final_profile: tuple[float, ...]
    profile_eta: int


@dataclass(frozen=True)
class Trace:
    """Per-trial series kept for localization runs (figure companions)."""

    swept_value: float
    trial: int
    report: LocalizationReport


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's outputs as arrays, items in (point, trial) order.

    The (points,) grid ``values``, one (points, trials) array per observable
    and, for localization, (items, steps) tail and (XY only) IPR series and
    the (items, N) occupations at step ``profile_eta``.  ``rows`` and
    ``traces`` are per-item views, built from the arrays when first read.
    """

    spec: SweepSpec
    provenance: dict
    values: np.ndarray
    observables: dict
    tail_series: np.ndarray | None = None
    ipr_series: np.ndarray | None = None
    final_profile: np.ndarray | None = None
    profile_eta: int | None = None

    @cached_property
    def moments(self) -> dict:
        """Observable -> per-point (mean, population variance): Welford's update over trials."""
        samples = np.stack(list(self.observables.values()))  # (observables, points, trials)
        mean, m2 = np.zeros(samples.shape[:2]), np.zeros(samples.shape[:2])
        for i, x in enumerate(np.moveaxis(samples, 2, 0), start=1):
            delta = x - mean
            mean += delta / i
            m2 += delta * (x - mean)
        return dict(zip(self.observables, zip(mean, m2 / samples.shape[2])))

    def mean_curve(self, observable: str) -> tuple[np.ndarray, np.ndarray]:
        """(grid values, per-point trial means) for one observable."""
        return self.values.copy(), self.moments[observable][0].copy()

    def _labels(self):
        return ((v, k) for v in self.values.tolist() for k in range(self.spec.trials))

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        items = zip(self._labels(), zip(*(a.ravel().tolist() for a in self.observables.values())))
        return tuple(Row(v, k, dict(zip(self.observables, obs))) for (v, k), obs in items)

    @cached_property
    def traces(self) -> tuple[Trace, ...]:
        if self.tail_series is None:
            return ()
        xy = self.ipr_series is not None
        iprs = _tuples(self.ipr_series) if xy else repeat(None)
        aves = self.observables["ipr_ave"].ravel().tolist() if xy else repeat(None)
        series = zip(iprs, aves, _tuples(self.tail_series), _tuples(self.final_profile))
        return tuple(
            Trace(v, k, LocalizationReport(ipr, ave, tail, prof, self.profile_eta))
            for (v, k), (ipr, ave, tail, prof) in zip(self._labels(), series)
        )


def _tuples(a: np.ndarray):
    """The rows of a 2-D array as tuples of floats, one row at a time."""
    return map(tuple, map(np.ndarray.tolist, a))


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
            out[:, col] = parse_angle(e, name)
            continue
        key, sign = e.strip(), 1.0
        if key.startswith("-"):
            sign, key = -1.0, key[1:]
        value = params.get(key, key)
        out[:, col] = sign * (value if isinstance(value, np.ndarray) else parse_angle(value, name))
    return out


def _chain_grid(spec: SweepSpec, params: dict, count: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(count, N - 1) couplings, (count, N) potentials and the time t of a chain kind.

    N = len(potentials) is capped by MAX_GRID_ENTRIES before either template
    is resolved.  ``|t| * (max|V| + 2 max|J|)`` must be finite: it bounds
    every ``|lambda t|`` (Gershgorin) and every step angle ``J t / N_T`` and
    ``V t / N_T``, so no eigenphase or rung of a finite chain overflows.
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
    potentials = _template_grid(fixed, "potentials", params, count, n)
    t = parse_angle(fixed["t"], "t")
    scale = float(np.max(np.abs(potentials))) + 2 * float(np.max(np.abs(couplings)))
    if not np.isfinite(abs(t) * scale):  # Python floats overflow to inf without a warning
        raise ConfigurationError(
            f"t {t!r} overflows: |t| * (max|potential| + 2 max|coupling|) must be finite"
        )
    return couplings, potentials, t


def _eval_resonance_continuous(spec: SweepSpec, values: np.ndarray) -> dict:
    """Observables at every grid value, from one stacked oracle call."""
    fixed = spec.fixed
    couplings, potentials, t = _chain_grid(spec, {**fixed, spec.swept: values}, len(values))
    n = potentials.shape[1]
    target = _index_field(fixed, "target_site", n, n)
    init = basis_state(n, _index_field(fixed, "init_site", 1, n))
    amps = evolve_chains(chain_hamiltonians(couplings, potentials), t, init)
    return {"probability": np.abs(amps[:, target - 1]) ** 2}


def _eval_convergence_ladder(spec: SweepSpec, values: np.ndarray) -> dict:
    """Distance to the exact state at every step count, from one study.

    Each rung builds an N x N step matrix, so the ladder's length counts
    against MAX_GRID_ENTRIES as a grid's point count does.
    """
    couplings, potentials, t = _chain_grid(spec, {}, len(values))
    table = convergence_study(couplings[0], potentials[0], t, values)
    return {"distance": np.array([distance for _, distance in table])}


def _items(spec: SweepSpec, values: np.ndarray) -> tuple[list, np.ndarray, int]:
    """Every (point, trial) work item: its circuit without a z layer, and (items, N) z angles.

    Also the readout, a localization's ``profile_eta`` or a resonance's
    ``target_qubit``, parsed before any template is resolved or z layer
    drawn.  ``n_steps`` is capped by MAX_ITEM_STEPS and ``n_qubits`` by
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
        readout = _index_field(fixed, "target_qubit", n, n)
        params = {**fixed, spec.swept: values}
        bonds = _template_grid(fixed, "bond_angles", params, len(values), n - 1).tolist()
        phis = _template_grid(fixed, "z_template", params, len(values), n)
        return [TrotterCircuitSpec(n, n_steps, family, tuple(b)) for b in bonds], phis, readout
    if n < 3:
        raise ConfigurationError(f"n_qubits must be >= 3 for localization, got {n}")
    readout = _index_field(fixed, "profile_eta", min(10, n_steps), n_steps)
    bond = parse_angle(fixed["bond_angle"], "bond_angle")
    circuit = TrotterCircuitSpec(n, n_steps, family, (bond,) * (n - 1))
    base_phi = parse_angle(fixed["base_phi"], "base_phi")
    phis = np.empty((len(values), spec.trials, n))
    for i, r in enumerate(values.tolist()):
        z_layer = ZLayerSpec(base_phi=base_phi, disorder_radius=r)
        for k in range(spec.trials):
            phis[i, k] = realize_z_layer(z_layer, n, child_seed(spec.master_seed, i, k))
    return [circuit] * n_items, phis.reshape(n_items, n), readout


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


def _resonance_rows(circuit, phis, target: int) -> tuple[dict, dict]:
    """Resonance observables of one stack: the target qubit's final occupation."""
    walk, read = _walker(circuit)
    return {"probability": read(final_stack(walk, circuit, phis))[:, target - 1]}, {}


def _localization_rows(circuit, phis, profile_eta: int) -> tuple[dict, dict]:
    """Localization observables and per-step series of one stack, reduced step by step.

    An XY stack reads its N occupations at every step, for its tails and
    IPRs.  A CRx stack reads only its tails, each step's as one
    ``tail_stack`` reduction over the reachable block, and folds all N
    occupations once, at ``profile_eta``.
    """
    n, xy = circuit.n_qubits, circuit.gate_family is GateFamily.XY
    site, start = circuit.initial_excitation_site, tail_start(n)
    # (B, steps): each item's means sum its contiguous row, as np.mean of the row does
    tails = np.empty((len(phis), circuit.n_steps))
    iprs, profile = np.empty_like(tails), np.empty((len(phis), n))
    walk, read = _walker(circuit)
    for eta, amps in walk(circuit, phis):
        if xy:  # a CRx state holds several excitations and has no IPR
            probs = read(amps)
            tails[:, eta - 1], iprs[:, eta - 1] = tail_prob(probs), ipr(probs)
        else:
            tails[:, eta - 1] = tail_stack(amps, site, start)
        if eta == profile_eta:
            profile[:] = read(amps)
    obs = {"mean_tail": tails.mean(axis=1), "tail_at_profile_eta": tails[:, profile_eta - 1]}
    series = {"tail_series": tails, "final_profile": profile}
    if xy:
        # one range check for the whole stack; NaN fails it too
        if not np.all((iprs >= 1 / n - 1e-9) & (iprs <= 1 + 1e-9)):
            raise InvalidStateError(
                f"IPR values escape [1/{n}, 1]: ({np.min(iprs):.4f}, {np.max(iprs):.4f})"
            )
        obs["ipr_ave"], series["ipr_series"] = iprs.mean(axis=1), iprs
    return obs, series


def _stacks(circuits: list, phis: np.ndarray, width: int) -> list[tuple]:
    """Runs of consecutive items that share a circuit, as (circuit, (B, N) z angles) stacks.

    A stack holds at most MAX_STACK_AMPLITUDES amplitudes at ``width`` a row
    (an item too large for that walks alone).
    """
    cap, stacks, start = max(1, MAX_STACK_AMPLITUDES // width), [], 0
    for i in range(1, len(circuits) + 1):
        if i == len(circuits) or i - start == cap or circuits[i] != circuits[start]:
            stacks.append((circuits[start], phis[start:i]))
            start = i
    return stacks


def _concat(parts: list[dict]) -> dict:
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _evaluate_items(spec: SweepSpec, values: np.ndarray, verify: bool) -> tuple[dict, dict]:
    """Every (point, trial) item of a walked kind, walked as stacks in that order.

    Consecutive items with equal circuits share a stack of rows N (XY) or
    2^N (CRx) amplitudes wide.  ``verify`` then checks the worst
    ``backend_gap`` of the XY items at 2^N a row (NumericalError beyond
    1e-10).  Returns the (items,) observables and, for localization, the
    ``SweepResult`` series fields.
    """
    circuits, phis, readout = _items(spec, values)
    n = circuits[0].n_qubits
    rows = _localization_rows if spec.kind is ExperimentKind.LOCALIZATION else _resonance_rows
    xy = circuits[0].gate_family is GateFamily.XY
    parts = [rows(*stack, readout) for stack in _stacks(circuits, phis, n if xy else 2**n)]
    if verify and xy:
        gap = max(backend_gap(*stack) for stack in _stacks(circuits, phis, 2**n))
        if gap > 1e-10:
            raise NumericalError(f"verification mode: backends disagree by {gap:.3e}")
    series = _concat([part[1] for part in parts])
    if spec.kind is ExperimentKind.LOCALIZATION:
        series["profile_eta"] = readout
    return _concat([part[0] for part in parts]), series


def run_sweep(
    spec: SweepSpec, *, verification_mode: bool = False, assumptions: dict | None = None
) -> SweepResult:
    """Evaluate the experiment on every (grid point, trial) work item.

    Seeded kinds walk their items as stacks, in (point, trial) order; items
    are pure functions of (spec, point, trial).  ``verification_mode``
    re-walks every XY item on both walkers as a check (NumericalError beyond
    1e-10); only the provenance records it.
    """
    ladder = spec.kind is ExperimentKind.CONVERGENCE
    values = np.array(spec.grid.geometric_int_values() if ladder else spec.grid.values(), float)
    if ladder or spec.kind is ExperimentKind.RESONANCE_CONTINUOUS:
        # seed-free: one call for the whole grid, one item per point
        evaluate = _eval_convergence_ladder if ladder else _eval_resonance_continuous
        outputs, series = evaluate(spec, values), {}
    else:
        outputs, series = _evaluate_items(spec, values, verification_mode)
    observables = {name: a.reshape(len(values), spec.trials) for name, a in outputs.items()}

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
    return SweepResult(spec, provenance, values, observables, **series)


def convergence_study(
    couplings: np.ndarray, potentials: np.ndarray, t: float, n_t_list
) -> list[tuple[int, float]]:
    """(N_T, ||psi_discrete - psi_continuous||_2) for each step count.

    The chain has (N - 1,) ``couplings`` J and (N,) ``potentials`` V, and
    both states start at site 1.  The exact state is ``evolve_chains`` on a
    stack of one.  The discrete state is the chain's circuit, ``theta_j =
    J_j tau`` and ``phi_j = V_j tau`` with ``tau = t / N_T``: its single
    Trotter-step matrix raised to the N_T-th power by binary powering,
    which is algebraically the same product as N_T sequential steps (all z
    layers included) but runs in O(log N_T) matrix multiplies, so step
    counts in the millions stay cheap.
    """
    n_t_list = [int(n) for n in n_t_list]
    if any(b <= a for a, b in zip(n_t_list, n_t_list[1:])):
        raise ConfigurationError(f"n_t_list must be increasing, got {n_t_list}")
    if any(n < 1 for n in n_t_list):
        raise ConfigurationError("step counts must be >= 1")
    init = basis_state(len(potentials))
    exact = evolve_chains(chain_hamiltonians(couplings[None], potentials[None]), t, init)[0]
    out = []
    for n_t in n_t_list:
        tau = t / n_t
        u = step_matrix(couplings * tau, potentials * tau)
        disc = np.linalg.matrix_power(u, n_t) @ init
        out.append((n_t, float(np.linalg.norm(disc - exact))))
    return out
