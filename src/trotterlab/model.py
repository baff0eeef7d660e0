"""Domain types for Trotter circuits of the transverse-field XY chain.

Conventions, fixed here and relied on everywhere else:

* Qubits/sites are 1-based, ``1..N``.
* ``XY(theta)`` is the direct hop rotation: on the ``{|01>, |10>}`` pair of a
  bond it acts as ``[[cos t, -i sin t], [-i sin t, cos t]]`` and as identity
  on ``|00>``, ``|11>``.
* ``RZ(phi)`` multiplies the ``|0>``/``|1>`` components of its qubit by
  ``exp(-i phi/2)`` / ``exp(+i phi/2)``.
* ``CRX(theta)`` applies ``exp(-i theta sx/2)`` to the target (second site)
  when the control (first site) is 1.
* A Trotter step is one two-qubit layer over bonds (1,2),(2,3),...,(N-1,N)
  in that order, followed by one Rz layer on qubits 1..N.  Every step, the
  last included, is the same: a circuit is the first-order product formula
  (e^{-iH_z tau} e^{-iH_xy tau})^N_T.
* The z-layer angles are quenched: one realization is drawn per circuit and
  reused for every step.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


class GateKind(enum.Enum):
    XY = "xy"
    CRX = "crx"
    RZ = "rz"
    X = "x"


class GateFamily(enum.Enum):
    """Which two-qubit gate fills the bond layers of a circuit."""

    XY = "xy"
    CRX = "crx"


@dataclass(frozen=True)
class GateOp:
    """One primitive gate: kind, site index/indices, and angle.

    ``sites`` holds one index for RZ/X and an ordered nearest-neighbor pair
    (j, j+1) for XY/CRX.  ``angle`` is in radians and is None for X.
    """

    kind: GateKind
    sites: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind in (GateKind.XY, GateKind.CRX):
            if len(self.sites) != 2 or self.sites[1] != self.sites[0] + 1:
                raise ConfigurationError(
                    f"{self.kind.value} acts on an ordered nearest-neighbor "
                    f"pair (j, j+1), got sites {self.sites}"
                )
            if self.angle is None:
                raise ConfigurationError(f"{self.kind.value} requires an angle")
        else:
            if len(self.sites) != 1:
                raise ConfigurationError(
                    f"{self.kind.value} acts on one site, got {self.sites}"
                )
            if self.kind is GateKind.RZ and self.angle is None:
                raise ConfigurationError("rz requires an angle")
            if self.kind is GateKind.X and self.angle is not None:
                raise ConfigurationError("x takes no angle")
        if min(self.sites) < 1:
            raise ConfigurationError(f"site indices are 1-based, got {self.sites}")


@dataclass(frozen=True)
class ZLayerSpec:
    """One layer of Rz angles: a base value and disorder, with alternating signs.

    The realized angle at site j is ``s_j * (base_phi + r_j)``, with the
    alternating signs ``s = (+1, -1, +1, ...)`` and ``r_j`` drawn once,
    uniformly from ``[-disorder_radius, +disorder_radius]``.  Walkers take
    realized angles as a (B, N) array; this spec is only the disorder law
    that ``realize_z_layer`` draws one row from.
    """

    base_phi: float = 0.0
    disorder_radius: float = 0.0

    def __post_init__(self) -> None:
        if self.disorder_radius < 0:
            raise ConfigurationError(
                f"disorder_radius must be >= 0, got {self.disorder_radius}"
            )
        # the draw spans 2 * disorder_radius, and an angle reaches base_phi + r
        if not math.isfinite(abs(self.base_phi) + 2 * self.disorder_radius):
            raise ConfigurationError(
                f"base_phi {self.base_phi} and disorder_radius {self.disorder_radius}"
                " overflow: |base_phi| + 2 * disorder_radius must be finite"
            )


def realize_z_layer(
    spec: ZLayerSpec, n_qubits: int, seed: int | None = None
) -> tuple[float, ...]:
    """Draw the quenched z-layer angles for an ``n_qubits`` circuit.

    Deterministic: the same (spec, n_qubits, seed) always returns the same
    angles.  The generator is numpy's PCG64 seeded directly with ``seed``.
    When ``disorder_radius`` is 0 no randomness is consumed at all.
    """
    if spec.disorder_radius == 0.0:
        offsets = np.zeros(n_qubits)
    else:
        if seed is None:
            raise ConfigurationError(
                "a seed is required to realize a disordered z layer"
            )
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(-spec.disorder_radius, spec.disorder_radius, n_qubits)
    return tuple(
        float((1 if j % 2 == 0 else -1) * (spec.base_phi + r))
        for j, r in enumerate(offsets)
    )


@dataclass(frozen=True)
class TrotterCircuitSpec:
    """Full description of an N-qubit, N_T-step Trotter circuit."""

    n_qubits: int
    n_steps: int
    gate_family: GateFamily = GateFamily.XY
    bond_angles: tuple[float, ...] = ()
    z_layer: ZLayerSpec = field(default_factory=ZLayerSpec)
    initial_excitation_site: int = 1

    def __post_init__(self) -> None:
        if self.n_qubits < 2:
            raise ConfigurationError(f"n_qubits must be >= 2, got {self.n_qubits}")
        if self.n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {self.n_steps}")
        if len(self.bond_angles) != self.n_qubits - 1:
            raise ConfigurationError(
                f"bond_angles has length {len(self.bond_angles)}, "
                f"expected {self.n_qubits - 1}"
            )
        if not 1 <= self.initial_excitation_site <= self.n_qubits:
            raise ConfigurationError(
                f"initial_excitation_site {self.initial_excitation_site} "
                f"outside [1, {self.n_qubits}]"
            )


def build_circuit(spec: TrotterCircuitSpec, seed: int | None = None) -> list[GateOp]:
    """Emit the ordered gate list for ``spec``.

    Layout: an X gate on the initial excitation site, then per step the
    two-qubit layer over ascending bonds followed by the Rz layer.  Every Rz
    layer carries the same realized angles (quenched disorder).
    """
    phis = realize_z_layer(spec.z_layer, spec.n_qubits, seed)
    bond_kind = GateKind.XY if spec.gate_family is GateFamily.XY else GateKind.CRX
    bonds = [
        GateOp(bond_kind, (j, j + 1), float(theta))
        for j, theta in enumerate(spec.bond_angles, start=1)
    ]
    z_layer = [GateOp(GateKind.RZ, (j,), phi) for j, phi in enumerate(phis, start=1)]
    x = GateOp(GateKind.X, (spec.initial_excitation_site,))
    return [x] + (bonds + z_layer) * spec.n_steps


def parse_angle(value: float | int | str, name: str = "angle") -> float:
    """Parse the angle field ``name``, a number or a 'pi' literal like ``-pi/1.5``.

    Accepted string forms: ``pi``, ``pi/k``, ``a*pi``, ``a*pi/b``, ``api/b``
    (with a, b, k decimal numbers), an optional leading sign, or a plain
    decimal number.  Booleans, NaN and infinite values are rejected with an
    error that names ``name`` and echoes at most 40 characters of the value.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            angle = float(value)
        except OverflowError:  # an integer beyond the float range
            angle = math.inf
    else:
        angle = _parse_angle_text(value) if isinstance(value, str) else None
    if angle is None or not math.isfinite(angle):
        shown = repr(value)
        if len(shown) > 40:
            shown = shown[:37] + "..."
        if angle is None:
            raise ConfigurationError(f"{name}: cannot parse angle {shown}")
        raise ConfigurationError(f"{name}: angle {shown} is not finite")
    return angle


def _parse_angle_text(value: str) -> float | None:
    """The angle a string spells, or None if it spells none."""
    text = value.strip().lower().replace(" ", "")
    sign = 1.0
    if text.startswith(("+", "-")):
        sign = -1.0 if text[0] == "-" else 1.0
        text = text[1:]
    if "pi" not in text:
        try:
            return sign * float(text)
        except ValueError:
            return None
    head, _, denom = text.partition("pi")
    head = head.rstrip("*")
    try:
        coeff = float(head) if head else 1.0
        if denom:
            if not denom.startswith("/"):
                raise ValueError
            coeff /= float(denom[1:])
    except (ValueError, ZeroDivisionError):
        return None
    return sign * coeff * math.pi


def parse_int(value, name: str) -> int:
    """An integer config value ``name``: an int, an integral float or an integer string.

    Booleans, fractional and non-finite numbers, and other strings are rejected.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def parse_bool(value, name: str) -> bool:
    """A boolean config value ``name``: JSON ``true`` or ``false`` only."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be true or false, got {value!r}")
    return value


_JSON_TYPES = {"JSON object": dict, "list": (list, tuple), "string": str}


def require_type(value, kind: str, name: str):
    """``value`` if it is a ``kind``: "JSON object", "list" or "string".

    Otherwise a ConfigurationError names the field ``name``.
    """
    if not isinstance(value, _JSON_TYPES[kind]):
        raise ConfigurationError(f"{name} must be a {kind}, got {value!r}")
    return value
