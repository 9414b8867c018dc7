"""Fock-space simulation of polarizing-beam-splitter entanglement
purification for a two-pass down-conversion photon-pair source."""

from .analysis import schmidt
from .channel import depolarize_alice, depolarize_partial
from .fock import (
    MODES,
    DensityOperator,
    Mode,
    PureState,
    Side,
    SpatialMode,
    create,
    to_density,
    vacuum,
)
from .optics import apply_pbs
from .protocol import (
    BOTH_DOWN,
    BOTH_UP,
    FOUR_MODE,
    ProtocolKind,
    ProtocolResult,
    SweepSpec,
    bbpssw_fidelity,
    input_fidelity,
    linear_grid,
    run_four_photon,
    run_independent_pairs,
    run_two_photon,
    sweep,
)
from .source import SourceParams, independent_pairs_state, spatially_entangled_state

__version__ = "0.1.0"

__all__ = [
    "BOTH_DOWN",
    "BOTH_UP",
    "FOUR_MODE",
    "DensityOperator",
    "MODES",
    "Mode",
    "ProtocolKind",
    "ProtocolResult",
    "PureState",
    "Side",
    "SourceParams",
    "SpatialMode",
    "SweepSpec",
    "apply_pbs",
    "bbpssw_fidelity",
    "create",
    "depolarize_alice",
    "depolarize_partial",
    "independent_pairs_state",
    "input_fidelity",
    "linear_grid",
    "run_four_photon",
    "run_independent_pairs",
    "run_two_photon",
    "schmidt",
    "spatially_entangled_state",
    "sweep",
    "to_density",
    "vacuum",
]
