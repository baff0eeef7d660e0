"""Circuit/chain domain types: construction rules, determinism, angle parsing."""

import math

import numpy as np
import pytest

from trotterlab.errors import ConfigurationError
from trotterlab.model import (
    GateKind,
    GateOp,
    TrotterCircuitSpec,
    ZLayerSpec,
    build_circuit,
    parse_angle,
    realize_z_layer,
)


def test_gateop_validation():
    GateOp(GateKind.XY, (3, 4), 0.2)
    with pytest.raises(ConfigurationError):
        GateOp(GateKind.XY, (3, 5), 0.2)  # not nearest neighbor
    with pytest.raises(ConfigurationError):
        GateOp(GateKind.XY, (4, 3), 0.2)  # wrong order
    with pytest.raises(ConfigurationError):
        GateOp(GateKind.RZ, (1, 2), 0.2)
    with pytest.raises(ConfigurationError):
        GateOp(GateKind.X, (1,), 0.3)  # X takes no angle
    with pytest.raises(ConfigurationError):
        GateOp(GateKind.XY, (0, 1), 0.2)  # sites are 1-based
    for kind, sites in ((GateKind.XY, (1, 2)), (GateKind.CRX, (1, 2)), (GateKind.RZ, (1,))):
        with pytest.raises(ConfigurationError, match="requires an angle"):
            GateOp(kind, sites)


def test_realize_zero_radius_alternating():
    layer = ZLayerSpec(base_phi=math.pi / 2)
    got = realize_z_layer(layer, 4)
    assert got == (math.pi / 2, -math.pi / 2, math.pi / 2, -math.pi / 2)


def test_realize_uniform_range_property():
    # 1e4 draws: every angle magnitude stays in base +- radius, signs alternate
    layer = ZLayerSpec(base_phi=math.pi / 2, disorder_radius=math.pi / 2)
    n = 15
    lo, hi = 0.0, math.pi
    for seed in range(10_000 // n + 1):
        angles = realize_z_layer(layer, n, seed=seed)
        for j, a in enumerate(angles):
            assert lo <= abs(a) <= hi
            assert math.copysign(1, a) == (1 if j % 2 == 0 else -1) or a == 0


def test_realize_determinism_and_seed_sensitivity():
    layer = ZLayerSpec(base_phi=0.4, disorder_radius=1.0)
    a = realize_z_layer(layer, 8, seed=123)
    b = realize_z_layer(layer, 8, seed=123)
    c = realize_z_layer(layer, 8, seed=124)
    assert a == b
    assert a != c


def test_realize_requires_seed_when_disordered():
    with pytest.raises(ConfigurationError):
        realize_z_layer(ZLayerSpec(base_phi=0.1, disorder_radius=0.5), 4)


def test_zlayer_rejects_negative_disorder_radius():
    with pytest.raises(ConfigurationError):
        ZLayerSpec(disorder_radius=-0.1)


def test_build_circuit_n2_layout():
    spec = TrotterCircuitSpec(
        n_qubits=2,
        n_steps=2,
        bond_angles=(0.7,),
        z_layer=ZLayerSpec(base_phi=0.2),
    )
    gates = build_circuit(spec)
    assert gates == [
        GateOp(GateKind.X, (1,)),
        GateOp(GateKind.XY, (1, 2), 0.7),
        GateOp(GateKind.RZ, (1,), 0.2),
        GateOp(GateKind.RZ, (2,), -0.2),
        GateOp(GateKind.XY, (1, 2), 0.7),
        GateOp(GateKind.RZ, (1,), 0.2),
        GateOp(GateKind.RZ, (2,), -0.2),
    ]


def test_build_circuit_single_step_ends_with_its_rz_layer():
    spec = TrotterCircuitSpec(
        n_qubits=3, n_steps=1, bond_angles=(0.3, 0.4), z_layer=ZLayerSpec(base_phi=1.0)
    )
    gates = build_circuit(spec)
    assert [g.kind for g in gates] == [GateKind.X] + [GateKind.XY] * 2 + [GateKind.RZ] * 3


def test_build_circuit_gate_count_n3():
    spec = TrotterCircuitSpec(
        n_qubits=3, n_steps=2, bond_angles=(0.3, 0.4), z_layer=ZLayerSpec(base_phi=1.0)
    )
    assert len(build_circuit(spec)) == 11  # 1 X + 2x2 XY + 2 Rz layers of 3


def test_build_circuit_quenched_disorder():
    spec = TrotterCircuitSpec(
        n_qubits=4,
        n_steps=6,
        bond_angles=(0.1, 0.2, 0.3),
        z_layer=ZLayerSpec(base_phi=0.5, disorder_radius=1.0),
    )
    gates = build_circuit(spec, seed=77)
    rz_layers = {}
    for g in gates:
        if g.kind is GateKind.RZ:
            rz_layers.setdefault(g.sites[0], set()).add(g.angle)
    assert all(len(v) == 1 for v in rz_layers.values())  # same angles every step


def test_build_circuit_byte_identical_for_same_seed():
    spec = TrotterCircuitSpec(
        n_qubits=5,
        n_steps=3,
        bond_angles=(0.1, 0.2, 0.3, 0.4),
        z_layer=ZLayerSpec(base_phi=0.5, disorder_radius=0.9),
    )
    assert build_circuit(spec, seed=5) == build_circuit(spec, seed=5)
    assert build_circuit(spec, seed=5) != build_circuit(spec, seed=6)


def test_build_circuit_ascending_bond_order():
    spec = TrotterCircuitSpec(
        n_qubits=5,
        n_steps=1,
        bond_angles=(0.1, 0.2, 0.3, 0.4),
        z_layer=ZLayerSpec(),
    )
    bonds = [g.sites for g in build_circuit(spec) if g.kind is GateKind.XY]
    assert bonds == [(1, 2), (2, 3), (3, 4), (4, 5)]


def test_circuit_spec_validation():
    with pytest.raises(ConfigurationError):
        TrotterCircuitSpec(n_qubits=1, n_steps=1, bond_angles=())
    with pytest.raises(ConfigurationError):
        TrotterCircuitSpec(n_qubits=3, n_steps=0, bond_angles=(0.1, 0.2))
    with pytest.raises(ConfigurationError):
        TrotterCircuitSpec(n_qubits=3, n_steps=1, bond_angles=(0.1,))
    with pytest.raises(ConfigurationError):
        TrotterCircuitSpec(
            n_qubits=3, n_steps=1, bond_angles=(0.1, 0.2), initial_excitation_site=4
        )


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi/2", math.pi / 2),
        ("-pi/1.5", -math.pi / 1.5),
        ("2*pi/3", 2 * math.pi / 3),
        ("2pi/3", 2 * math.pi / 3),
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("0.25", 0.25),
        ("3pi/8", 3 * math.pi / 8),
        (1.5, 1.5),
        (2, 2.0),
    ],
)
def test_parse_angle(text, expected):
    assert parse_angle(text) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "bad",
    ["pie", "pi/", "x*pi", "", "pi/0x2", "pi/0", "nan", "inf", "-inf", "1e400", None, [1.0], True, False],
)
def test_parse_angle_rejects_garbage(bad):
    with pytest.raises(ConfigurationError):
        parse_angle(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float32("nan")])
def test_parse_angle_rejects_non_finite_numbers(bad):
    with pytest.raises(ConfigurationError, match="not finite"):
        parse_angle(bad)
