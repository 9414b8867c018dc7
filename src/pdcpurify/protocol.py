"""End-to-end purification pipelines and parameter sweeps.

Three experiments share the same plumbing: source state -> depolarizing
channels on Alice's spatial modes -> polarizing beam splitters on both sides
-> post-selection on a detection pattern -> polarization fidelity of the
surviving pair(s).  Everything is deterministic; identical inputs give
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analysis import (
    BOTH_DOWN,
    BOTH_UP,
    FOUR_MODE,
    ZERO_PROBABILITY,
    fidelity,
    polarization_qubit_matrix,
    postselect,
    reduce_to_pair,
)
from .channel import DEFAULT_CHANNEL_TARGETS, ChannelParams
from .fock import DensityOperator, PureState, Side, SpatialMode, to_density
from .optics import apply_pbs
from .source import SourceParams, independent_pairs_state, spatially_entangled_state


class ProtocolKind(Enum):
    TWO_PHOTON = "two-photon"
    FOUR_PHOTON = "four-photon"
    INDEPENDENT_PAIRS = "independent-pairs"


@dataclass(frozen=True)
class ProtocolResult:
    """Success probability and fidelities of one protocol run.

    ``f_in`` is the polarization fidelity each pair would have before
    purification, (1 + 3s)/4.  Output fidelities are ``None`` when the
    selected detection pattern never occurs.
    """

    f_in: float
    p_success: float
    f_upper: float | None
    f_lower: float | None
    params: dict

    def as_dict(self) -> dict:
        return {
            "s": self.params.get("s"),
            "f_in": self.f_in,
            "p_success": self.p_success,
            "f_upper": self.f_upper,
            "f_lower": self.f_lower,
            "params": dict(self.params),
        }


def input_fidelity(s: float) -> float:
    """Polarization fidelity of one depolarized pair, (1 + 3s)/4."""
    return (1.0 + 3.0 * s) / 4.0


def _transmit(state: PureState, s: float) -> DensityOperator:
    """Depolarize Alice's spatial modes, then pass both beam splitters."""
    rho = to_density(state)
    rho = ChannelParams(s, DEFAULT_CHANNEL_TARGETS).apply(rho)
    rho = apply_pbs(rho, Side.ALICE)
    rho = apply_pbs(rho, Side.BOB)
    return rho


def run_four_photon(r: float, phi: float, s: float) -> ProtocolResult:
    """Four-photon purification: keep one photon per output spatial mode.

    Both the upper and the lower output pair are kept; their fidelities are
    reported separately.
    """
    params = {"protocol": ProtocolKind.FOUR_PHOTON.value, "r": r, "phi": phi, "s": s}
    source = SourceParams(r=r, phi=phi, pairs=2)
    rho = _transmit(spatially_entangled_state(source), s)
    p_success, conditional = postselect(rho, FOUR_MODE)
    f_upper = f_lower = None
    if conditional is not None:
        f_upper = fidelity(reduce_to_pair(conditional, 1, 1))
        f_lower = fidelity(reduce_to_pair(conditional, 2, 2))
    return ProtocolResult(input_fidelity(s), p_success, f_upper, f_lower, params)


def run_two_photon(r: float, phi: float, s: float) -> ProtocolResult:
    """Two-photon purification: keep events with both photons up or both down.

    The surviving pair sits in the upper or the lower modes depending on the
    branch; the reported fidelity mixes the two branches with their
    conditional weights and is carried in ``f_upper`` (``f_lower`` stays
    ``None``).
    """
    params = {"protocol": ProtocolKind.TWO_PHOTON.value, "r": r, "phi": phi, "s": s}
    state = spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=1))
    rho = _transmit(state, s)
    p_up, cond_up = postselect(rho, BOTH_UP)
    p_down, cond_down = postselect(rho, BOTH_DOWN)
    p_success = p_up + p_down
    f_out = None
    if p_success > ZERO_PROBABILITY:
        weighted = 0.0
        if cond_up is not None:
            weighted += p_up * fidelity(reduce_to_pair(cond_up, 1, 1))
        if cond_down is not None:
            weighted += p_down * fidelity(reduce_to_pair(cond_down, 2, 2))
        f_out = weighted / p_success
    return ProtocolResult(input_fidelity(s), p_success, f_out, None, params)


_PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
_MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)
_PHASE_FLIP = np.diag([1.0, -1.0])


def _measure_out_lower_pair(conditional: DensityOperator) -> np.ndarray:
    """Measure the (a2, b2) photons at 45 degrees and correct the kept pair.

    Both lower photons are projected onto the (H +/- V)/sqrt(2) basis; when
    the two outcomes disagree, a phase flip is applied to Alice's kept qubit.
    Returns the resulting (a1, b1) two-qubit state (all four outcome branches
    summed, trace 1).
    """
    order = (SpatialMode.A1, SpatialMode.B1, SpatialMode.A2, SpatialMode.B2)
    four_qubit = polarization_qubit_matrix(conditional, order).reshape((2,) * 8)
    correction = np.kron(_PHASE_FLIP, np.eye(2))
    kept = np.zeros((4, 4), dtype=complex)
    for alice_vec in (_PLUS, _MINUS):
        for bob_vec in (_PLUS, _MINUS):
            branch = np.einsum(
                "abcdefgh,c,d,g,h->abef",
                four_qubit,
                alice_vec.conj(),
                bob_vec.conj(),
                alice_vec,
                bob_vec,
            ).reshape(4, 4)
            if alice_vec is not bob_vec:
                branch = correction @ branch @ correction
            kept += branch
    return kept


def run_independent_pairs(s: float) -> ProtocolResult:
    """Purification with two independent pairs instead of the two-pass source.

    After selecting one photon per output mode, the lower pair is measured
    out and only the upper pair survives, so there is a single output
    fidelity (in ``f_upper``).
    """
    params = {
        "protocol": ProtocolKind.INDEPENDENT_PAIRS.value,
        "r": None,
        "phi": None,
        "s": s,
    }
    rho = _transmit(independent_pairs_state(), s)
    p_success, conditional = postselect(rho, FOUR_MODE)
    f_out = None
    if conditional is not None:
        f_out = fidelity(_measure_out_lower_pair(conditional))
    return ProtocolResult(input_fidelity(s), p_success, f_out, None, params)


def bbpssw_fidelity(f: float) -> float:
    """Werner-state fidelity map of the classic two-pair recurrence.

    Reference curve for the independent-pairs pipeline; fixed points at 1/4
    and 1.  Valid for f in [1/4, 1].
    """
    if not 0.25 <= f <= 1.0:
        raise ValueError(f"input fidelity must be in [0.25, 1], got {f}")
    rest = (1.0 - f) / 3.0
    numerator = f * f + rest * rest
    denominator = f * f + 2.0 * f * rest + 5.0 * rest * rest
    return numerator / denominator


@dataclass(frozen=True)
class SweepSpec:
    """Grid of survival probabilities plus fixed source parameters."""

    s_values: tuple[float, ...]
    r: float = 1.0
    phi: float = 0.0
    protocol: ProtocolKind = ProtocolKind.FOUR_PHOTON

    def __post_init__(self):
        if not self.s_values:
            raise ValueError("s grid must not be empty")
        if any(not 0.0 <= s <= 1.0 for s in self.s_values):
            raise ValueError(f"s values must lie in [0, 1]: {self.s_values}")
        if any(b <= a for a, b in zip(self.s_values, self.s_values[1:])):
            raise ValueError("s grid must be strictly increasing")


def sweep(spec: SweepSpec) -> list[ProtocolResult]:
    """Run the selected protocol at every grid point, ordered by s.

    This is the package's one dispatch on ``ProtocolKind``; a single run is a
    one-point sweep.
    """
    if spec.protocol is ProtocolKind.INDEPENDENT_PAIRS:
        return [run_independent_pairs(s) for s in spec.s_values]
    if spec.protocol is ProtocolKind.FOUR_PHOTON:
        run = run_four_photon
    else:
        run = run_two_photon
    return [run(spec.r, spec.phi, s) for s in spec.s_values]


def linear_grid(s_min: float, s_max: float, steps: int) -> tuple[float, ...]:
    """Evenly spaced s grid with both endpoints included."""
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    if not 0.0 <= s_min < s_max <= 1.0:
        raise ValueError(f"need 0 <= s_min < s_max <= 1, got [{s_min}, {s_max}]")
    step = (s_max - s_min) / (steps - 1)
    return tuple(s_min + i * step for i in range(steps))
