"""Bundled recipes that regenerate the reference panel data.

Every panel is one row of the ``PANELS`` table, so tests and the CLI share
one source of truth: its sweep kind, swept name, grid and trials, one
``fixed`` dict per plotted series, and the assumptions its provenance
records.  A panel runs one sweep per series: resonance panels plot a curve
per series, and localization panels hold a single sweep over the disorder
radius, with per-step series kept as traces.

Note on angles: the reference curves for the disordered-XY panels (4a-4d)
and the small-step multi-qubit panels were computed with the quarter
normalized bond generator, i.e. a stated bond angle of pi/2 corresponds to a
direct hop angle of pi/4.  The recipes below store the direct hop angle and
record the correspondence under ``assumptions`` in the provenance block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .sweep import ExperimentKind, GridSpec, SweepResult, SweepSpec, run_sweep

# Direct hop angle equivalent to the quarter-normalized "pi/2" bond setting.
XY_LOCALIZATION_BOND = math.pi / 4
LOCALIZATION_N = 15
LOCALIZATION_STEPS = 80


def _series(fixed: dict, name: str, *labelled) -> tuple:
    """((label, ``fixed`` with ``name`` set to value), ...) for each (label, value)."""
    return tuple((label, {**fixed, name: value}) for label, value in labelled)


_CONTINUOUS, _CRX, _LOCALIZATION = (
    ExperimentKind.RESONANCE_CONTINUOUS,
    ExperimentKind.CRX_RESONANCE,
    ExperimentKind.LOCALIZATION,
)
_V2_ANGLES = (("V2=0", 0.0), ("V2=-pi/2", -math.pi / 2))
_V2_TENS = (("V2=10", 10.0), ("V2=20", 20.0))
# Localization panels sweep R over [0, pi/2] on one chain, as one series.
# The CRx panels do not state N; 15 is assumed.
_CHAIN = {
    "n_qubits": LOCALIZATION_N,
    "n_steps": LOCALIZATION_STEPS,
    "base_phi": math.pi / 2,
    "profile_eta": 10,
}
_CRX_CHAIN = (("R-grid", {**_CHAIN, "gate_family": "crx", "bond_angle": math.pi / 2}),)
_CRX_ASSUMED = {"n_qubits_assumed": LOCALIZATION_N, "theta": "pi/2", "phi": "pi/2"}
_XY_CHAIN = (("R-grid", {**_CHAIN, "bond_angle": XY_LOCALIZATION_BOND}),)
_XY_ASSUMED = {
    "bond_angle": "pi/4 (direct hop; quarter-normalized caption value pi/2)",
    "base_phi": "pi/2",
}
_R_GRID = GridSpec(0.0, math.pi / 2, 5)

# id -> (sweep kind, swept name, grid, trials, ((series label, fixed), ...),
# assumptions or None).  Continuous resonance panels plot P_N(V1) at time t
# for each V2 series.
PANELS = {
    "2a4": (
        _CONTINUOUS, "V1", GridSpec(-math.pi, math.pi, 321), 1,  # pitch 0.0196 <= 0.02
        _series({"couplings": (0.1,), "potentials": ("V1", "V2"), "t": 15.0}, "V2", *_V2_ANGLES),
        None,
    ),
    "2b4": (
        _CONTINUOUS, "V1", GridSpec(-math.pi, math.pi, 321), 1,
        _series(
            {"couplings": (0.1, 0.1), "potentials": ("V1", "V2", "V1"), "t": 22.0},
            "V2", *_V2_ANGLES,
        ),
        None,
    ),
    "2c4": (
        _CONTINUOUS, "V1", GridSpec(-40.0, 40.0, 2001), 1,
        _series(
            {"couplings": (1.0, 20.0, 1.0), "potentials": ("V1", "V2", "-V2", "V1"), "t": 3.0},
            "V2", *_V2_TENS,
        ),
        None,
    ),
    "2d4": (
        _CONTINUOUS, "V1", GridSpec(-45.0, 45.0, 4501), 1,
        _series(
            {
                "couplings": (0.1, 20.0, 20.0, 0.1),
                "potentials": ("V1", "V2", 0.0, "-V2", "V1"),
                "t": 40.0,
            },
            "V2", *_V2_TENS,
        ),
        None,
    ),
    # No parameter values are pinned for this panel; these defaults show the
    # expected two-peak structure with an alpha-dependent spacing.
    "3b": (
        _CRX, "phi", GridSpec(-math.pi, math.pi, 315), 1,
        _series(
            {
                "n_qubits": 4,
                "n_steps": 4,
                "bond_angles": (math.pi / 1.5,) * 3,
                "z_template": ("phi", "alpha", "-alpha", "phi"),
            },
            "alpha", ("alpha=pi/4", math.pi / 4), ("alpha=-pi/1.5", -math.pi / 1.5),
        ),
        {"n_qubits": 4, "n_steps": 4, "theta": "pi/1.5", "alpha_series": ("pi/4", "-pi/1.5")},
    ),
    "3c": (_LOCALIZATION, "R", _R_GRID, 1, _CRX_CHAIN, _CRX_ASSUMED),
    "3d": (_LOCALIZATION, "R", _R_GRID, 1, _CRX_CHAIN, _CRX_ASSUMED),
    "4a": (_LOCALIZATION, "R", GridSpec(0.0, math.pi / 2, 2), 1, _XY_CHAIN, _XY_ASSUMED),
    "4b": (_LOCALIZATION, "R", _R_GRID, 20, _XY_CHAIN, _XY_ASSUMED),
    "4c": (_LOCALIZATION, "R", _R_GRID, 1, _XY_CHAIN, _XY_ASSUMED),
    "4d": (_LOCALIZATION, "R", _R_GRID, 1, _XY_CHAIN, _XY_ASSUMED),
}

FIGURE_IDS = tuple(PANELS)


@dataclass(frozen=True)
class FigureData:
    figure_id: str
    series: tuple[tuple[str, SweepResult], ...]

    @property
    def kind(self) -> str:
        """The panel's sweep kind: "localization" or "resonance"."""
        sweep_kind = self.series[0][1].spec.kind
        return "localization" if sweep_kind is ExperimentKind.LOCALIZATION else "resonance"

    @property
    def provenance(self) -> dict:
        return self.series[0][1].provenance


def figure_recipe(figure_id: str, master_seed: int = 0, threads: int = 1) -> FigureData:
    """Run one panel's bundled recipe.  ``threads`` is ignored: sweeps walk on one thread."""
    fid = figure_id.lower()
    if fid not in PANELS:
        raise ConfigurationError(
            f"unknown figure id {figure_id!r}; expected one of {', '.join(FIGURE_IDS)}"
        )
    kind, swept, grid, trials, series, assumptions = PANELS[fid]
    sweeps = []
    for label, fixed in series:  # fresh dicts: the provenance holds them
        spec = SweepSpec(kind, swept, grid, dict(fixed), trials, master_seed)
        sweeps.append((label, run_sweep(spec, assumptions=dict(assumptions or {}))))
    return FigureData(fid, tuple(sweeps))
