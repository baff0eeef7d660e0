"""Result files: the JSON mirrors the result, and the CSV schema per kind."""

import json
import math
import tracemalloc

import pytest

from trotterlab.errors import ConfigurationError
from trotterlab.output import write_sweep
from trotterlab.sweep import ExperimentKind, GridSpec, SweepSpec, run_sweep


def localization_spec(family):
    fixed = {
        "n_qubits": 5,
        "n_steps": 6,
        "bond_angle": math.pi / 4,
        "base_phi": math.pi / 2,
        "profile_eta": 3,
    }
    if family == "crx":
        fixed.update(gate_family="crx", bond_angle=math.pi / 2)
    return SweepSpec(
        kind=ExperimentKind.LOCALIZATION,
        swept="R",
        grid=GridSpec(0.0, math.pi / 2, 3),
        fixed=fixed,
        trials=2,
        master_seed=4,
    )


RESONANCE_SPEC = SweepSpec(
    kind=ExperimentKind.RESONANCE_DISCRETE,
    swept="phi",
    grid=GridSpec(-math.pi, math.pi, 5),
    fixed={
        "n_qubits": 3,
        "n_steps": 2,
        "bond_angles": [0.7, 0.7],
        "z_template": ["phi", "alpha", 0.2],
        "alpha": 0.3,
    },
    trials=1,
    master_seed=1,
)


@pytest.mark.parametrize(
    "spec",
    [localization_spec("xy"), localization_spec("crx"), RESONANCE_SPEC],
    ids=["xy-localization", "crx-localization", "resonance"],
)
def test_json_mirrors_the_result_field_by_field(tmp_path, spec):
    result = run_sweep(spec)
    path = tmp_path / "r.json"
    write_sweep(str(path), "json", result)
    data = json.loads(path.read_text())
    assert sorted(data) == ["aggregates", "provenance", "rows", "traces"]
    assert data["provenance"] == result.provenance
    assert data["rows"] == [
        {"swept_value": r.swept_value, "trial": r.trial, "observables": r.observables}
        for r in result.rows
    ]
    assert data["aggregates"] == [
        {"swept_value": v, "observable": name, "mean": result.moments[name][0][i],
         "variance": result.moments[name][1][i]}
        for i, v in enumerate(result.values)
        for name in sorted(result.observables)
    ]

    def listed(series):
        return None if series is None else list(series)

    assert data["traces"] == [
        {
            "swept_value": t.swept_value,
            "trial": t.trial,
            "ipr_series": listed(t.report.ipr_series),
            "ipr_ave": t.report.ipr_ave,
            "tail_series": list(t.report.tail_series),
            "final_profile": list(t.report.final_profile),
            "profile_eta": t.report.profile_eta,
        }
        for t in result.traces
    ]
    if spec.kind is ExperimentKind.LOCALIZATION:
        assert len(data["traces"]) == 6
        crx = spec.fixed.get("gate_family") == "crx"
        assert all((t["ipr_series"] is None) is crx for t in data["traces"])
        assert all((t["ipr_ave"] is None) is crx for t in data["traces"])


@pytest.mark.parametrize(
    "family, main_col, companions",
    [
        ("xy", "ipr_ave", {"ipr": "eta,ipr", "tail": "eta,tail_prob", "profile": "qubit,probability"}),
        ("crx", "mean_tail", {"tail": "eta,tail_prob", "profile": "qubit,probability"}),
    ],
    ids=["xy", "crx"],
)
def test_localization_csv_schema(tmp_path, family, main_col, companions):
    result = run_sweep(localization_spec(family))
    path = tmp_path / "loc.csv"
    write_sweep(str(path), "csv", result)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# provenance: {")
    assert lines[1] == f"R,trial,{main_col}"
    assert lines[2:] == [
        f"{r.swept_value!r},{r.trial},{r.observables[main_col]!r}" for r in result.rows
    ]
    want = {"loc.csv"} | {f"loc_{name}_r{i}.csv" for name in companions for i in range(3)}
    assert {p.name for p in tmp_path.iterdir()} == want

    firsts = [t for t in result.traces if t.trial == 0]
    series = {"ipr": "ipr_series", "tail": "tail_series", "profile": "final_profile"}
    for i, trace in enumerate(firsts):
        for name, columns in companions.items():
            lines = (tmp_path / f"loc_{name}_r{i}.csv").read_text().splitlines()
            header = json.loads(lines[0].removeprefix("# provenance: "))
            assert (header["R"], header["trial"]) == (trace.swept_value, 0)
            assert lines[1] == columns
            values = getattr(trace.report, series[name])
            assert lines[2:] == [f"{k},{v!r}" for k, v in enumerate(values, start=1)]


def test_write_sweep_rejects_an_unknown_format(tmp_path):
    path = tmp_path / "r.xml"
    with pytest.raises(ConfigurationError, match="unknown output format 'xml'"):
        write_sweep(str(path), "xml", run_sweep(RESONANCE_SPEC))
    assert not path.exists()


# 64 x 64 items, for the writers' memory bounds
MANY_ITEMS_SPEC = SweepSpec(
    kind=ExperimentKind.LOCALIZATION,
    swept="R",
    grid=GridSpec(0.0, 1.0, 64),
    fixed={"n_qubits": 3, "n_steps": 2, "bond_angle": 0.7, "base_phi": 0.3},
    trials=64,
    master_seed=1,
)


def test_csv_writer_streams_its_lines(tmp_path):
    # the main CSV is written as its lines are formatted, not built whole first
    result = run_sweep(MANY_ITEMS_SPEC)
    path = tmp_path / "loc.csv"
    tracemalloc.start()
    try:
        write_sweep(str(path), "csv", result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


def test_json_writer_streams_its_text(tmp_path):
    # the JSON text goes to the file as it is encoded, not built whole first
    result = run_sweep(MANY_ITEMS_SPEC)
    # the per-item views the document is built from belong to the result: build them first
    assert result.rows and result.traces
    path = tmp_path / "loc.json"
    tracemalloc.start()
    try:
        write_sweep(str(path), "json", result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size, (peak, path.stat().st_size)
