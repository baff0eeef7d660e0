"""Bundled panel recipes: structure and headline features."""

import numpy as np
import pytest

from trotterlab.analytics import Curve, find_peaks
from trotterlab.errors import ConfigurationError
from trotterlab.figures import FIGURE_IDS, figure_recipe


def test_unknown_id_rejected():
    with pytest.raises(ConfigurationError):
        figure_recipe("5x")


def test_2a4_single_resonance_peak_per_series():
    # prominence 0.2 keeps the main resonance and drops the sinc-like side
    # lobes (heights ~0.1) of the two-level transmission curve
    fig = figure_recipe("2a4")
    assert fig.kind == "resonance"
    targets = {"V2=0": 0.0, "V2=-pi/2": -np.pi / 2}
    for label, result in fig.series:
        xs, ys = result.mean_curve("probability")
        peaks = find_peaks(Curve(xs, ys), min_prominence=0.2)
        assert len(peaks) == 1
        assert abs(peaks[0][0] - targets[label]) < 0.05


def test_2b4_peak_at_v2():
    fig = figure_recipe("2b4")
    for label, result in fig.series:
        xs, ys = result.mean_curve("probability")
        target = 0.0 if label == "V2=0" else -np.pi / 2
        assert abs(xs[int(np.argmax(ys))] - target) < 0.05


def test_3b_two_peak_structure():
    fig = figure_recipe("3b")
    separations = []
    for _, result in fig.series:
        xs, ys = result.mean_curve("probability")
        peaks = find_peaks(Curve(xs, ys), min_prominence=0.02)
        assert len(peaks) >= 2
        positions = [p for p, _ in peaks]
        separations.append(max(positions) - min(positions))
    assert abs(separations[0] - separations[1]) > 0.1


def test_localization_figures_share_structure():
    fig = figure_recipe("4a")
    assert fig.kind == "localization"
    result = fig.series[0][1]
    radii = sorted({t.swept_value for t in result.traces})
    assert radii == pytest.approx([0.0, np.pi / 2])
    for trace in result.traces:
        assert len(trace.report.ipr_series) == 80
        assert len(trace.report.final_profile) == 15


def test_3c_crx_traces_have_no_ipr():
    fig = figure_recipe("3c")
    result = fig.series[0][1]
    assert all(t.report.ipr_series is None for t in result.traces)
    assert all(len(t.report.tail_series) == 80 for t in result.traces)
    assert result.provenance["assumptions"]["n_qubits_assumed"] == 15


def test_all_ids_run_and_produce_provenance():
    for fid in FIGURE_IDS:
        fig = figure_recipe(fid)
        assert fig.figure_id == fid
        assert fig.provenance["tool"] == "trotterlab"
        assert fig.series
