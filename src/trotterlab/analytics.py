"""Closed-form probabilities, localization metrics, and peak detection.

The localization metrics read occupation probabilities: one (N,)
distribution or a stack of them along the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidStateError

DEFAULT_PEAK_PROMINENCE = 0.02  # absolute probability


def p01_closed_form(theta: float, phi: float, alpha: float) -> float:
    """Excitation probability on qubit 2 of the N=2, N_T=2 circuit.

    ``2 sin^2(t) cos^2(t) (1 + cos(a - p))`` with z angles (p, a).
    """
    return float(
        2 * np.sin(theta) ** 2 * np.cos(theta) ** 2 * (1 + np.cos(alpha - phi))
    )


def p001_closed_form(theta: float, phi: float, alpha: float) -> float:
    """Excitation probability on qubit 3 of the N=3, N_T=2 circuit.

    ``sin^4(t) cos^2(t) (4 + cos^2(t) + 4 cos(t) cos(a - p))`` with z angles
    (p, a, p).
    """
    st2, ct = np.sin(theta) ** 2, np.cos(theta)
    return float(
        st2**2 * ct**2 * (4 + ct**2 + 4 * ct * np.cos(alpha - phi))
    )


def ipr(probs) -> "float | np.ndarray":
    """Inverse participation ratio, sum_i p_i^2, of occupation probabilities.

    1/N for a uniform distribution, 1 for a basis state.  ``probs`` is one
    distribution (returns a float) or a stack of them along the last axis
    (returns an array), as in ``tail_prob``.  Each distribution must sum to
    1 (checked to 1e-9).
    """
    probs = np.asarray(probs, dtype=float)
    err = float(np.max(np.abs(np.sum(probs, axis=-1) - 1.0)))
    if err > 1e-9:
        raise InvalidStateError(f"state norm deviates by {err:.3e} (tol 1.0e-09)")
    out = np.sum(probs**2, axis=-1)
    return float(out) if probs.ndim == 1 else out


def ipr_ave(series) -> float:
    """Trajectory-averaged IPR, (1/N_T) sum_eta IPR_eta."""
    series = list(series)
    if not series:
        raise ConfigurationError("ipr_ave needs a nonempty series")
    return float(np.mean(series))


def tail_start(n: int) -> int:
    """First 1-based qubit index of the tail window (last third)."""
    return int(np.floor(2 * n / 3)) + 1


def tail_prob(probs) -> "float | np.ndarray":
    """Summed probability on the last third of the qubits.

    The window is qubit indices strictly greater than floor(2N/3); for N=15
    that is qubits 11..15.  ``probs`` is one distribution (returns a float)
    or a stack of them along the last axis (returns an array).
    """
    probs = np.asarray(probs, dtype=float)
    n = probs.shape[-1] if probs.ndim else 1
    if n < 3:
        raise ConfigurationError(f"tail_prob needs N >= 3, got {n}")
    tail = np.sum(probs[..., tail_start(n) - 1 :], axis=-1)
    return float(tail) if probs.ndim == 1 else tail


@dataclass(frozen=True)
class Curve:
    """A sampled probability curve: strictly increasing xs, ys in [0, 1] (no NaN)."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or xs.size != ys.size:
            raise ConfigurationError("xs and ys must be 1-d and equally long")
        if xs.size and not np.all(np.diff(xs) > 0):
            raise ConfigurationError("xs must be strictly increasing")
        if ys.size and not (ys.min() >= -1e-12 and ys.max() <= 1 + 1e-12):
            raise ConfigurationError(
                f"ys must be finite and in [0, 1]: range ({ys.min():.3e}, {ys.max():.3e})"
            )


@dataclass(frozen=True)
class LocalizationReport:
    """Per-run localization summary for a single z-layer realization."""

    ipr_series: tuple[float, ...] | None
    ipr_ave: float | None
    tail_series: tuple[float, ...]
    final_profile: tuple[float, ...]
    profile_eta: int

    def __post_init__(self) -> None:
        if self.ipr_series is not None:
            n = len(self.final_profile)
            lo, hi = 1 / n - 1e-9, 1 + 1e-9
            if any(not lo <= v <= hi for v in self.ipr_series):
                raise InvalidStateError(
                    f"IPR values escape [1/{n}, 1]: "
                    f"({min(self.ipr_series):.4f}, {max(self.ipr_series):.4f})"
                )


def _refine_peak(xs: np.ndarray, ys: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through the sample and its two neighbors."""
    x0, x1, x2 = xs[i - 1], xs[i], xs[i + 1]
    y0, y1, y2 = ys[i - 1], ys[i], ys[i + 1]
    # Lagrange form; denominator < 0 at a strict local maximum.
    d10, d20, d21 = x1 - x0, x2 - x0, x2 - x1
    a = (y0 / (d10 * d20)) - (y1 / (d10 * d21)) + (y2 / (d20 * d21))
    if a >= 0:
        return float(x1), float(y1)
    b = (y1 - y0) / d10 - a * (x0 + x1)
    xv = -b / (2 * a)
    if not x0 < xv < x2:  # numerically degenerate neighborhood
        return float(x1), float(y1)
    c = y1 - a * x1 * x1 - b * x1
    return float(xv), float(a * xv * xv + b * xv + c)


def find_peaks(
    curve: Curve, min_prominence: float = DEFAULT_PEAK_PROMINENCE
) -> list[tuple[float, float]]:
    """Local maxima with prominence >= ``min_prominence``.

    Candidates come from 3-point comparison, positions and heights are
    refined by quadratic interpolation on the neighboring samples, and the
    result is sorted by position.  Prominence is topographic (height above
    the highest saddle toward a higher peak), so adding a constant to ys
    changes nothing.
    """
    if curve.xs.size == 0:
        raise ConfigurationError("find_peaks needs a nonempty curve")
    if curve.xs.size < 3:
        raise ConfigurationError("find_peaks needs at least 3 samples")
    # imported here: scipy.signal takes over a second to import and no
    # command-line path finds peaks
    from scipy.signal import find_peaks as _scipy_find_peaks

    idx, _ = _scipy_find_peaks(curve.ys, prominence=min_prominence)
    return sorted(_refine_peak(curve.xs, curve.ys, i) for i in idx)
