"""Large-step Trotter circuits of the transverse-field XY chain.

Simulation backends (dense state vector and single-excitation subspace), a
continuous-time tight-binding oracle, resonance/localization analytics, and a
deterministic sweep harness with a CLI front end.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    ChainSpec,
    GateFamily,
    GateKind,
    GateOp,
    TrotterCircuitSpec,
    ZLayerSpec,
    build_circuit,
    realize_z_layer,
)
