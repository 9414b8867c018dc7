"""Fock-space simulation of polarizing-beam-splitter entanglement
purification for a two-pass down-conversion photon-pair source."""

from .analysis import (
    BOTH_DOWN,
    BOTH_UP,
    FOUR_MODE,
    SelectionPattern,
    fidelity,
    pattern,
    polarization_qubit_matrix,
    postselect,
    reduce_to_pair,
    schmidt,
)
from .channel import ChannelParams, depolarize_full, depolarize_partial
from .fock import (
    MODES,
    DensityOperator,
    Mode,
    PureState,
    Side,
    SpatialMode,
    create,
    inner_product,
    partial_trace,
    to_density,
    vacuum,
)
from .optics import apply_pbs
from .protocol import (
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
    "ChannelParams",
    "DensityOperator",
    "MODES",
    "Mode",
    "ProtocolKind",
    "ProtocolResult",
    "PureState",
    "SelectionPattern",
    "Side",
    "SourceParams",
    "SpatialMode",
    "SweepSpec",
    "apply_pbs",
    "bbpssw_fidelity",
    "create",
    "depolarize_full",
    "depolarize_partial",
    "fidelity",
    "independent_pairs_state",
    "inner_product",
    "input_fidelity",
    "linear_grid",
    "partial_trace",
    "pattern",
    "polarization_qubit_matrix",
    "postselect",
    "reduce_to_pair",
    "run_four_photon",
    "run_independent_pairs",
    "run_two_photon",
    "schmidt",
    "spatially_entangled_state",
    "sweep",
    "to_density",
    "vacuum",
]
