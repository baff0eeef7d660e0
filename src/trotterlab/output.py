"""CSV and JSON writers with embedded provenance.

Every file starts with a provenance header sufficient to rerun it exactly.
CSV files carry it as one ``# provenance: {json}`` comment line before the
column header; JSON files carry it as a top-level ``provenance`` object.  All
formatting is deterministic (shortest round-trip float repr, sorted JSON
keys), so a fixed seed yields byte-identical files.

CSV schemas (the column names are part of the external contract):

* resonance sweeps: ``swept_value,series_id,probability``
* localization sweeps: main file ``R,trial,ipr_ave`` (XY) or
  ``R,trial,mean_tail`` (CRx), plus per-R companion files with columns
  ``eta,ipr`` / ``eta,tail_prob`` / ``qubit,probability``
* convergence: ``n_steps,distance``

JSON output mirrors the result's row and trace views and its per-point
moments; CSV, written from the result's arrays, is the lossy projection above.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigurationError
from .figures import FigureData
from .sweep import ExperimentKind, SweepResult

# Localization companion files: (file name part, columns, result field).  A
# CRx result has no IPR series, so it gets no ``ipr`` file.
_COMPANIONS = (
    ("ipr", "eta,ipr", "ipr_series"),
    ("tail", "eta,tail_prob", "tail_series"),
    ("profile", "qubit,probability", "final_profile"),
)


def _fmt(x: float) -> str:
    return repr(float(x))


def _header(provenance: dict, extra: dict) -> str:
    blob = json.dumps({**provenance, **extra}, sort_keys=True, separators=(",", ":"))
    return f"# provenance: {blob}"


def _write_csv(path, header: str, columns: str, lines) -> None:
    with open(path, "w") as f:
        f.write(f"{header}\n{columns}\n")
        f.writelines(f"{line}\n" for line in lines)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:  # the encoder's chunks go to the file as they come
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def result_to_jsonable(result: SweepResult) -> dict:
    """The result's provenance, rows, per-point aggregates and traces."""
    moments = [(k, *(a.tolist() for a in result.moments[k])) for k in sorted(result.moments)]
    return {
        "provenance": result.provenance,
        "rows": [vars(row) for row in result.rows],
        "aggregates": [
            {"swept_value": v, "observable": name, "mean": mean[i], "variance": variance[i]}
            for i, v in enumerate(result.values.tolist())
            for name, mean, variance in moments
        ],
        "traces": [
            {"swept_value": t.swept_value, "trial": t.trial, **vars(t.report)}
            for t in result.traces
        ],
    }


def _write_resonance_csv(path: str, series, extra: dict) -> None:
    """``swept_value,series_id,probability`` for one or more curve series."""
    labels = [label for label, _ in series]
    lines = (
        f"{_fmt(v)},{label},{_fmt(p)}"
        for label, result in series
        for v, (p,) in zip(result.values, result.observables["probability"])
    )
    header = _header(series[0][1].provenance, {**extra, "series": labels})
    _write_csv(path, header, "swept_value,series_id,probability", lines)


def _write_localization_csv(path: str, result: SweepResult, extra: dict) -> None:
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
    main_col = "mean_tail" if result.ipr_series is None else "ipr_ave"
    r_values = result.values.tolist()
    r_index = {str(i): r for i, r in enumerate(r_values)}

    samples = zip(r_values, result.observables[main_col])
    lines = (f"{_fmt(v)},{k},{_fmt(x)}" for v, xs in samples for k, x in enumerate(xs))
    header = _header(result.provenance, {"r_index": r_index, **extra})
    _write_csv(out, header, f"R,trial,{main_col}", lines)

    for i, r in enumerate(r_values):
        header = _header(result.provenance, {"R": r, "trial": 0, **extra})
        for name, columns, field in _COMPANIONS:
            values = getattr(result, field)
            if values is not None:
                first = values[i * result.spec.trials].tolist()  # the point's trial 0
                lines = (f"{k},{_fmt(v)}" for k, v in enumerate(first, start=1))
                _write_csv(out.with_name(f"{stem}_{name}_r{i}{suffix}"), header, columns, lines)


def _write_csvs(path: str, fmt: str, series, extra: dict) -> None:
    """The CSV file(s) of ``(label, result)`` series, each header with ``extra``.

    The first result's kind picks the schema; a localization or convergence
    sweep is written as one series.
    """
    if fmt != "csv":
        raise ConfigurationError(f"unknown output format {fmt!r}")
    result = series[0][1]
    if result.spec.kind is ExperimentKind.LOCALIZATION:
        _write_localization_csv(path, result, extra)
    elif result.spec.kind is ExperimentKind.CONVERGENCE:
        samples = zip(result.values, result.observables["distance"])
        lines = (f"{int(v)},{_fmt(d)}" for v, (d,) in samples)
        _write_csv(path, _header(result.provenance, extra), "n_steps,distance", lines)
    else:
        _write_resonance_csv(path, series, extra)


def write_sweep(path: str, fmt: str, result: SweepResult) -> None:
    """Write one sweep result as JSON, or as the CSV file(s) of its kind."""
    if fmt == "json":
        _write_json(path, result_to_jsonable(result))
    else:
        _write_csvs(path, fmt, [("series0", result)], {})


def write_figure(path: str, fmt: str, fig: FigureData) -> None:
    """Write one panel: every series as JSON, or as CSV with the figure id in each header."""
    if fmt == "json":
        series = {label: result_to_jsonable(result) for label, result in fig.series}
        _write_json(path, {"figure_id": fig.figure_id, "kind": fig.kind, "series": series})
    else:
        _write_csvs(path, fmt, fig.series, {"figure_id": fig.figure_id})
