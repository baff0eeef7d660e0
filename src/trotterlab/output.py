"""CSV and JSON writers with embedded provenance.

Every file starts with a provenance header sufficient to rerun it exactly.
CSV files carry it as ``# key: json`` comment lines before the column header;
JSON files carry it as a top-level ``provenance`` object.  All formatting is
deterministic (shortest round-trip float repr, sorted JSON keys), so a fixed
seed yields byte-identical files.

CSV schemas (the column names are part of the external contract):

* resonance sweeps: ``swept_value,series_id,probability``
* localization sweeps: main file ``R,trial,ipr_ave`` (XY) or
  ``R,trial,mean_tail`` (CRx), plus per-R companion files with columns
  ``eta,ipr`` / ``eta,tail_prob`` / ``qubit,probability``
* convergence: ``n_steps,distance``

JSON output is a faithful serialization of the full sweep result; CSV is the
documented lossy projection above.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigurationError
from .figures import FigureData
from .sweep import ExperimentKind, SweepResult


def _fmt(x: float) -> str:
    return repr(float(x))


def _provenance_lines(provenance: dict, extra: dict | None = None) -> list[str]:
    merged = dict(provenance)
    if extra:
        merged.update(extra)
    blob = json.dumps(merged, sort_keys=True, separators=(",", ":"))
    return [f"# provenance: {blob}"]


def result_to_jsonable(result: SweepResult) -> dict:
    rows = [
        {"swept_value": r.swept_value, "trial": r.trial, "observables": r.observables}
        for r in result.rows
    ]
    aggregates = [
        {
            "swept_value": a.swept_value,
            "observable": a.observable,
            "mean": a.mean,
            "variance": a.variance,
        }
        for a in result.aggregates
    ]
    traces = []
    for t in result.traces:
        rep = t.report
        traces.append(
            {
                "swept_value": t.swept_value,
                "trial": t.trial,
                "ipr_series": list(rep.ipr_series) if rep.ipr_series else None,
                "ipr_ave": rep.ipr_ave,
                "tail_series": list(rep.tail_series),
                "final_profile": list(rep.final_profile),
                "profile_eta": rep.profile_eta,
            }
        )
    return {
        "provenance": result.provenance,
        "rows": rows,
        "aggregates": aggregates,
        "traces": traces,
    }


def write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


def write_result_json(path: str, result: SweepResult) -> None:
    write_json(path, result_to_jsonable(result))


def write_figure_json(path: str, fig: FigureData) -> None:
    write_json(
        path,
        {
            "figure_id": fig.figure_id,
            "kind": fig.kind,
            "series": {label: result_to_jsonable(r) for label, r in fig.series},
        },
    )


def write_resonance_csv(path: str, series, provenance: dict) -> None:
    """``swept_value,series_id,probability`` for one or more curve series."""
    lines = _provenance_lines(provenance, {"series": [label for label, _ in series]})
    lines.append("swept_value,series_id,probability")
    for label, result in series:
        for row in result.rows:
            lines.append(f"{_fmt(row.swept_value)},{label},{_fmt(row.observables['probability'])}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_convergence_csv(path: str, result: SweepResult) -> None:
    lines = _provenance_lines(result.provenance)
    lines.append("n_steps,distance")
    for row in result.rows:
        lines.append(f"{int(row.swept_value)},{_fmt(row.observables['distance'])}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_localization_csv(
    path: str, result: SweepResult, extra: dict | None = None
) -> None:
    """Main per-trial summary plus per-R companion series files.

    For out path ``dir/name.csv`` the companions are ``dir/name_ipr_r{i}.csv``,
    ``dir/name_tail_r{i}.csv`` and ``dir/name_profile_r{i}.csv`` where ``i``
    is the grid index of the R value (mapping recorded in the header), so
    every grid point gets its own files, repeated or descending R included.
    Companion series come from trial 0, one realization, like the reference
    panels.
    """
    out = Path(path)
    stem, suffix = out.stem, out.suffix or ".csv"
    firsts = [t for t in result.traces if t.trial == 0]  # grid order
    has_ipr = any(t.report.ipr_series is not None for t in result.traces)
    main_col = "ipr_ave" if has_ipr else "mean_tail"

    header_extra = {"r_index": {str(i): t.swept_value for i, t in enumerate(firsts)}}
    if extra:
        header_extra.update(extra)
    lines = _provenance_lines(result.provenance, header_extra)
    lines.append(f"R,trial,{main_col}")
    for row in result.rows:
        lines.append(
            f"{_fmt(row.swept_value)},{row.trial},{_fmt(row.observables[main_col])}"
        )
    out.write_text("\n".join(lines) + "\n")

    for i, trace in enumerate(firsts):
        rep = trace.report
        companion_extra = {"R": trace.swept_value, "trial": 0}
        if extra:
            companion_extra.update(extra)
        header = _provenance_lines(result.provenance, companion_extra)
        if rep.ipr_series is not None:
            body = ["eta,ipr"] + [
                f"{eta},{_fmt(v)}" for eta, v in enumerate(rep.ipr_series, start=1)
            ]
            companion = out.with_name(f"{stem}_ipr_r{i}{suffix}")
            companion.write_text("\n".join(header + body) + "\n")
        body = ["eta,tail_prob"] + [
            f"{eta},{_fmt(v)}" for eta, v in enumerate(rep.tail_series, start=1)
        ]
        out.with_name(f"{stem}_tail_r{i}{suffix}").write_text(
            "\n".join(header + body) + "\n"
        )
        body = ["qubit,probability"] + [
            f"{q},{_fmt(v)}" for q, v in enumerate(rep.final_profile, start=1)
        ]
        out.with_name(f"{stem}_profile_r{i}{suffix}").write_text(
            "\n".join(header + body) + "\n"
        )


def write_sweep(path: str, fmt: str, result: SweepResult) -> None:
    """Dispatch on format and experiment kind."""
    if fmt == "json":
        write_result_json(path, result)
        return
    if fmt != "csv":
        raise ConfigurationError(f"unknown output format {fmt!r}")
    kind = result.spec.kind
    if kind is ExperimentKind.LOCALIZATION:
        write_localization_csv(path, result)
    elif kind is ExperimentKind.CONVERGENCE:
        write_convergence_csv(path, result)
    else:
        write_resonance_csv(path, [("series0", result)], result.provenance)


def write_figure(path: str, fmt: str, fig: FigureData) -> None:
    if fmt == "json":
        write_figure_json(path, fig)
        return
    if fmt != "csv":
        raise ConfigurationError(f"unknown output format {fmt!r}")
    if fig.kind == "resonance":
        provenance = dict(fig.provenance, figure_id=fig.figure_id)
        write_resonance_csv(path, fig.series, provenance)
    else:
        write_localization_csv(path, fig.series[0][1], {"figure_id": fig.figure_id})
