"""Closed forms, localization metrics, and peak detection."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks as scipy_find_peaks

from trotterlab import figures
from trotterlab.analytics import (
    DEFAULT_PEAK_PROMINENCE,
    Curve,
    _prominent_peaks,
    _refine_peak,
    find_peaks,
    ipr,
    p001_closed_form,
    p01_closed_form,
    tail_prob,
    tail_start,
)
from trotterlab.dense import iterate_stack, occupation_stack
from trotterlab.errors import ConfigurationError, InvalidStateError
from trotterlab.model import TrotterCircuitSpec
from trotterlab.subspace import basis_state


def test_p01_fixed_points():
    assert p01_closed_form(math.pi / 4, 0.3, 0.3) == pytest.approx(1.0, abs=1e-15)
    assert p01_closed_form(1.1, 0.0, math.pi) == pytest.approx(0.0, abs=1e-15)
    assert p01_closed_form(math.pi / 2, 0.1, 0.9) == pytest.approx(0.0, abs=1e-15)


def test_p001_fixed_points():
    expected = 0.125 * (4.5 + 2 * math.sqrt(2))
    assert p001_closed_form(math.pi / 4, 0.0, 0.0) == pytest.approx(expected, abs=1e-15)
    assert p001_closed_form(math.pi / 2, 0.4, -0.7) == pytest.approx(0.0, abs=1e-15)


def test_p001_argmax_at_phi_equals_alpha():
    alpha = -math.pi / 2
    phis = np.linspace(-math.pi, math.pi, 721)
    vals = [p001_closed_form(math.pi / 4, p, alpha) for p in phis]
    assert phis[int(np.argmax(vals))] == pytest.approx(alpha, abs=0.01)


@pytest.mark.parametrize("formula", [p01_closed_form, p001_closed_form])
def test_closed_forms_depend_only_on_angle_difference(formula):
    rng = np.random.default_rng(5)
    for _ in range(200):
        theta = rng.uniform(0, math.pi)
        phi, alpha = rng.uniform(-math.pi, math.pi, 2)
        shift = rng.uniform(-10, 10)
        base = formula(theta, phi, alpha)
        assert formula(theta, phi + shift, alpha + shift) == pytest.approx(base, abs=1e-12)
        assert formula(theta, phi, alpha + 2 * math.pi) == pytest.approx(base, abs=1e-11)


@pytest.mark.parametrize("formula", [p01_closed_form, p001_closed_form])
def test_closed_forms_take_angle_arrays(formula):
    # arrays of phi and alpha give an array of the scalar values; scalars a float
    rng = np.random.default_rng(6)
    phi, alpha = rng.uniform(-math.pi, math.pi, (2, 100))
    got = formula(0.7, phi, alpha)
    want = [formula(0.7, p, a) for p, a in zip(phi.tolist(), alpha.tolist())]
    assert all(type(w) is float for w in want)
    assert got.shape == (100,) and np.max(np.abs(got - want)) <= 1e-15


angles = st.floats(-3 * math.pi, 3 * math.pi)


@given(n=st.sampled_from([2, 3]), theta=angles, phi=angles, alpha=angles)
def test_closed_forms_match_the_dense_walker(n, theta, phi, alpha):
    # last-qubit occupation of the N=n, N_T=2 circuit with z angles
    # (phi, alpha) or (phi, alpha, phi)
    spec = TrotterCircuitSpec(n_qubits=n, n_steps=2, bond_angles=(theta,) * (n - 1))
    for _, amps in iterate_stack(spec, np.array([(phi, alpha, phi)[:n]])):
        pass
    closed_form = p01_closed_form if n == 2 else p001_closed_form
    assert abs(occupation_stack(amps)[0, n - 1] - closed_form(theta, phi, alpha)) <= 1e-12


def test_ipr_reference_values():
    assert ipr(np.abs(basis_state(8, 3)) ** 2) == pytest.approx(1.0, abs=1e-15)
    n = 10
    uniform = np.full(n, 1 / math.sqrt(n), dtype=complex)
    assert ipr(np.abs(uniform) ** 2) == pytest.approx(1 / n, abs=1e-15)
    two = np.zeros(6, dtype=complex)
    two[1] = two[4] = 1 / math.sqrt(2)
    assert ipr(np.abs(two) ** 2) == pytest.approx(0.5, abs=1e-15)


def test_ipr_bounds_and_phase_invariance():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 20))
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps /= np.linalg.norm(amps)
        value = ipr(np.abs(amps) ** 2)
        assert 1 / n - 1e-12 <= value <= 1 + 1e-12
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        assert ipr(np.abs(amps * phases) ** 2) == pytest.approx(value, abs=1e-13)


def test_ipr_rejects_unnormalized_state():
    with pytest.raises(InvalidStateError):
        ipr(np.array([1.0, 1.0, 0.0]))
    # any row of a stack
    with pytest.raises(InvalidStateError):
        ipr(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 1e-8]]))
    ipr(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 1e-10]]))


def test_ipr_rejects_nan():
    # a NaN sum fails the norm check instead of passing through as the IPR
    with pytest.raises(InvalidStateError, match="nan"):
        ipr(np.array([np.nan, 0.5, 0.5]))
    with pytest.raises(InvalidStateError, match="nan"):
        ipr(np.array([[1.0, 0.0, 0.0], [np.nan, 0.5, 0.5]]))


def test_ipr_series_and_average():
    # a trajectory's occupations as one stack: one IPR per row
    trajectory = np.array([np.abs(basis_state(4, 1)) ** 2, np.full(4, 0.25)])
    series = ipr(trajectory)
    assert series.shape == (2,)
    assert series.tolist() == [ipr(row) for row in trajectory]
    assert series == pytest.approx([1.0, 0.25])


def test_tail_window_definition():
    assert tail_start(15) == 11
    assert tail_start(3) == 3
    assert tail_start(9) == 7


def test_tail_prob_examples():
    probs = np.zeros(15)
    probs[0] = 1.0
    assert tail_prob(probs) == 0.0
    assert tail_prob(np.full(15, 1 / 15)) == pytest.approx(5 / 15, abs=1e-15)
    probs = np.zeros(15)
    probs[-1] = 1.0
    assert tail_prob(probs) == 1.0
    with pytest.raises(ConfigurationError):
        tail_prob([0.5, 0.5])


def test_tail_prob_of_a_stack_is_per_row():
    rng = np.random.default_rng(5)
    stack = rng.uniform(0, 1, (4, 7))
    assert np.array_equal(tail_prob(stack), [tail_prob(row) for row in stack])
    with pytest.raises(ConfigurationError):
        tail_prob(np.zeros((3, 2)))


def test_tail_plus_head_is_total():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        probs = rng.uniform(0, 1, n)
        probs /= probs.sum()
        head = float(np.sum(probs[: tail_start(n) - 1]))
        assert head + tail_prob(probs) == pytest.approx(1.0, abs=1e-12)


def test_curve_validation():
    Curve(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ConfigurationError):
        Curve(np.array([0.0, 1.0]), np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ConfigurationError):
        Curve(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ConfigurationError):
        Curve(np.array([0.0, 1.0]), np.array([0.0, 1.1]))
    with pytest.raises(ConfigurationError):
        Curve(np.array([0.0, 1.0]), np.array([-0.1, 0.5]))
    with pytest.raises(ConfigurationError):
        Curve(np.array([0.0, 1.0, 2.0]), np.array([0.5, np.nan, 0.5]))
    with pytest.raises(ConfigurationError):
        Curve(np.array([0.0, np.nan, 2.0]), np.array([0.5, 0.5, 0.5]))


def test_find_peaks_triangular_bump():
    xs = np.linspace(0, 10, 101)
    ys = np.clip(1 - np.abs(xs - 4.0) / 2, 0, None) * 0.8
    peaks = find_peaks(Curve(xs, ys))
    assert len(peaks) == 1
    pos, height = peaks[0]
    assert pos == pytest.approx(4.0, abs=1e-9)
    assert height == pytest.approx(0.8, abs=0.01)


def test_find_peaks_quadratic_refinement_recovers_offgrid_vertex():
    # sample a parabola whose vertex falls between grid points
    vertex_x, vertex_y = 3.317, 0.63
    xs = np.linspace(0, 10, 81)
    ys = np.clip(vertex_y - 0.02 * (xs - vertex_x) ** 2, 0, None)
    (pos, height), = find_peaks(Curve(xs, ys))
    assert pos == pytest.approx(vertex_x, abs=1e-12)
    assert height == pytest.approx(vertex_y, abs=1e-12)


@pytest.mark.parametrize(
    "ys",
    [
        [1.0, 0.0, 1.0],  # convex: no vertex above the sample
        [0.0, 1.5, 2.0],  # concave, but the vertex falls on the last neighbor
    ],
    ids=["convex", "vertex-outside"],
)
def test_refine_peak_keeps_the_sample_when_its_neighborhood_is_degenerate(ys):
    assert _refine_peak(np.array([0.0, 1.0, 2.0]), np.array(ys), 1) == (1.0, ys[1])


def test_find_peaks_prominence_filter():
    xs = np.linspace(0, 2 * math.pi, 301)
    ys = 0.4 + 0.3 * np.sin(xs) ** 2 + 0.005 * np.sin(40 * xs)
    strong = find_peaks(Curve(xs, ys), min_prominence=0.05)
    ripples = find_peaks(Curve(xs, ys), min_prominence=0.002)
    assert len(strong) == 2
    assert len(ripples) > len(strong)


def test_find_peaks_offset_invariance():
    xs = np.linspace(-3, 3, 121)
    ys = 0.3 * np.exp(-((xs + 1) ** 2) * 4) + 0.5 * np.exp(-((xs - 1.2) ** 2) * 6)
    base = find_peaks(Curve(xs, ys), min_prominence=0.05)
    shifted = find_peaks(Curve(xs, ys + 0.2), min_prominence=0.05)
    assert len(base) == len(shifted) == 2
    for (p0, h0), (p1, h1) in zip(base, shifted):
        assert p1 == pytest.approx(p0, abs=1e-12)
        assert h1 - h0 == pytest.approx(0.2, abs=1e-12)


def test_find_peaks_sorted_by_position():
    xs = np.linspace(0, 1, 61)
    ys = 0.5 * np.exp(-((xs - 0.8) ** 2) * 200) + 0.4 * np.exp(-((xs - 0.2) ** 2) * 200)
    positions = [p for p, _ in find_peaks(Curve(xs, ys), min_prominence=0.05)]
    assert positions == sorted(positions)


def test_find_peaks_input_validation():
    with pytest.raises(ConfigurationError):
        find_peaks(Curve(np.array([]), np.array([])))
    with pytest.raises(ConfigurationError):
        find_peaks(Curve(np.array([0.0, 1.0]), np.array([0.0, 1.0])))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_find_peaks_rejects_non_finite_prominence(bad):
    xs = np.linspace(0, 1, 5)
    ys = np.array([0.0, 0.5, 0.1, 0.6, 0.0])
    with pytest.raises(ConfigurationError, match="min_prominence"):
        find_peaks(Curve(xs, ys), min_prominence=bad)


# a small integer alphabet, so that plateaus, ties and edge plateaus are common
@settings(max_examples=500)
@given(
    ys=st.lists(st.integers(0, 3), min_size=3, max_size=40),
    prominence=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
)
@example(ys=[2, 2, 2], prominence=0.0)
@example(ys=[2, 2, 2, 2, 2, 2], prominence=0.0)
@example(ys=[0, 1, 0], prominence=0.0)
@example(ys=[0, 1, 0], prominence=1.0)
@example(ys=[1, 0, 1], prominence=0.0)
@example(ys=[0, 2, 2, 1, 2, 2, 0], prominence=0.0)
@example(ys=[3, 3, 1, 2, 2, 2, 1, 3, 3], prominence=1.0)
def test_peak_indices_match_scipy(ys, prominence):
    ys = np.array(ys, dtype=float)
    expected = scipy_find_peaks(ys, prominence=prominence)[0]
    np.testing.assert_array_equal(_prominent_peaks(ys, prominence), expected)


# uniform floats in [0, 1), so that ties are rare and peaks and gaps are many;
# drawn from a seed, since hypothesis's own lists stay much shorter than 2000
@settings(max_examples=200)
@given(
    size=st.integers(3, 2000),
    seed=st.integers(0, 2**32 - 1),
    prominence=st.floats(0.0, 0.5),
)
def test_peak_indices_match_scipy_on_continuous_curves(size, seed, prominence):
    ys = np.random.default_rng(seed).random(size)
    expected = scipy_find_peaks(ys, prominence=prominence)[0]
    np.testing.assert_array_equal(_prominent_peaks(ys, prominence), expected)


def test_peak_finder_memory_is_linear_in_the_samples():
    # the finder keeps one gap minimum per peak, not a table over the samples
    ys = np.random.default_rng(7).random(2**16)  # 512 KiB
    tracemalloc.start()
    try:
        _prominent_peaks(ys, DEFAULT_PEAK_PROMINENCE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("figure_id", ["2a4", "2b4", "2c4", "2d4"])
def test_resonance_panel_peak_indices_match_scipy(figure_id):
    for _, res in figures.figure_recipe(figure_id, master_seed=0).series:
        ys = Curve(*res.mean_curve("probability")).ys
        expected = scipy_find_peaks(ys, prominence=DEFAULT_PEAK_PROMINENCE)[0]
        assert expected.size
        np.testing.assert_array_equal(_prominent_peaks(ys, DEFAULT_PEAK_PROMINENCE), expected)
