"""Bundled recipes that regenerate the reference panel data.

The panels' parameters are the tables below, so tests and the CLI share one
source of truth.  Resonance panels hold one sweep per plotted series;
localization panels hold a single sweep over the disorder radius, with
per-step series kept as traces.

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

# Continuous resonance panels, P_N(V1) at time t for each V2 series:
# id -> (V1 grid, ((label, V2), ...), couplings, potentials, t).
RESONANCE_PANELS = {
    "2a4": (
        GridSpec(-math.pi, math.pi, 321),  # pitch 0.0196 <= 0.02
        (("V2=0", 0.0), ("V2=-pi/2", -math.pi / 2)),
        (0.1,),
        ("V1", "V2"),
        15.0,
    ),
    "2b4": (
        GridSpec(-math.pi, math.pi, 321),
        (("V2=0", 0.0), ("V2=-pi/2", -math.pi / 2)),
        (0.1, 0.1),
        ("V1", "V2", "V1"),
        22.0,
    ),
    "2c4": (
        GridSpec(-40.0, 40.0, 2001),
        (("V2=10", 10.0), ("V2=20", 20.0)),
        (1.0, 20.0, 1.0),
        ("V1", "V2", "-V2", "V1"),
        3.0,
    ),
    "2d4": (
        GridSpec(-45.0, 45.0, 4501),
        (("V2=10", 10.0), ("V2=20", 20.0)),
        (0.1, 20.0, 20.0, 0.1),
        ("V1", "V2", 0.0, "-V2", "V1"),
        40.0,
    ),
}

# Localization panels sweep R over [0, pi/2] from one shared ``fixed``
# dict plus their gate family's entries: id -> (family, R count, trials).
LOCALIZATION_PANELS = {
    "3c": ("crx", 5, 1),
    "3d": ("crx", 5, 1),
    "4a": ("xy", 2, 1),
    "4b": ("xy", 5, 20),
    "4c": ("xy", 5, 1),
    "4d": ("xy", 5, 1),
}
_LOCALIZATION_FIXED = {
    "n_qubits": LOCALIZATION_N,
    "n_steps": LOCALIZATION_STEPS,
    "base_phi": math.pi / 2,
    "profile_eta": 10,
}
# family -> (its ``fixed`` entries, its provenance assumptions).  The CRx
# panels do not state N; 15 is assumed.
_LOCALIZATION_FAMILIES = {
    "crx": (
        {"gate_family": "crx", "bond_angle": math.pi / 2},
        {"n_qubits_assumed": LOCALIZATION_N, "theta": "pi/2", "phi": "pi/2"},
    ),
    "xy": (
        {"bond_angle": XY_LOCALIZATION_BOND},
        {
            "bond_angle": "pi/4 (direct hop; quarter-normalized caption value pi/2)",
            "base_phi": "pi/2",
        },
    ),
}

FIGURE_IDS = (*RESONANCE_PANELS, "3b", *LOCALIZATION_PANELS)


@dataclass(frozen=True)
class FigureData:
    figure_id: str
    kind: str  # "resonance" | "localization"
    series: tuple[tuple[str, SweepResult], ...]

    @property
    def provenance(self) -> dict:
        return self.series[0][1].provenance


def figure_recipe(
    figure_id: str,
    master_seed: int = 0,
    threads: int = 1,
) -> FigureData:
    """Run the bundled recipe for one panel identifier."""
    fid = figure_id.lower()
    if fid not in FIGURE_IDS:
        raise ConfigurationError(
            f"unknown figure id {figure_id!r}; expected one of {', '.join(FIGURE_IDS)}"
        )

    if fid in RESONANCE_PANELS:
        grid, labelled_v2, couplings, potentials, t = RESONANCE_PANELS[fid]
        series = []
        for label, v2 in labelled_v2:
            spec = SweepSpec(
                kind=ExperimentKind.RESONANCE_CONTINUOUS,
                swept="V1",
                grid=grid,
                fixed={
                    "couplings": list(couplings),
                    "potentials": list(potentials),
                    "t": t,
                    "V2": v2,
                },
                master_seed=master_seed,
            )
            series.append((label, run_sweep(spec)))
        return FigureData(fid, "resonance", tuple(series))

    if fid == "3b":
        # No parameter values are pinned for this panel; these defaults show
        # the expected two-peak structure with an alpha-dependent spacing.
        assumptions = {
            "n_qubits": 4,
            "n_steps": 4,
            "theta": "pi/1.5",
            "alpha_series": ["pi/4", "-pi/1.5"],
        }
        series = []
        for label, alpha in (("alpha=pi/4", math.pi / 4), ("alpha=-pi/1.5", -math.pi / 1.5)):
            spec = SweepSpec(
                kind=ExperimentKind.CRX_RESONANCE,
                swept="phi",
                grid=GridSpec(-math.pi, math.pi, 315),
                fixed={
                    "n_qubits": 4,
                    "n_steps": 4,
                    "bond_angles": [math.pi / 1.5] * 3,
                    "z_template": ["phi", "alpha", "-alpha", "phi"],
                    "alpha": alpha,
                },
                master_seed=master_seed,
            )
            series.append((label, run_sweep(spec, threads=threads, assumptions=assumptions)))
        return FigureData(fid, "resonance", tuple(series))

    family, count, trials = LOCALIZATION_PANELS[fid]
    family_fixed, assumptions = _LOCALIZATION_FAMILIES[family]
    spec = SweepSpec(
        kind=ExperimentKind.LOCALIZATION,
        swept="R",
        grid=GridSpec(0.0, math.pi / 2, count),
        fixed={**_LOCALIZATION_FIXED, **family_fixed},
        trials=trials,
        master_seed=master_seed,
    )
    result = run_sweep(spec, threads=threads, assumptions=dict(assumptions))
    return FigureData(fid, "localization", (("R-grid", result),))
