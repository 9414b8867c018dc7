"""End-to-end purification pipelines and parameter sweeps.

Three experiments share the same plumbing: source state -> depolarizing
channels on Alice's spatial modes -> polarizing beam splitters on both sides
-> post-selection on a detection pattern -> polarization fidelity of the
surviving pair(s).  Everything is deterministic; identical inputs give
bit-identical results.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum
from types import MappingProxyType

from .analysis import (
    BOTH_DOWN,
    BOTH_UP,
    FOUR_MODE,
    ZERO_PROBABILITY,
    pair_fidelity,
    polarization_bit,
    postselect,
)
from .channel import depolarize_alice
from .fock import DensityOperator, PureState, Side, SpatialMode, to_density
from .optics import apply_pbs
from .source import SourceParams, independent_pairs_state, spatially_entangled_state


class ProtocolKind(Enum):
    TWO_PHOTON = "two-photon"
    FOUR_PHOTON = "four-photon"
    INDEPENDENT_PAIRS = "independent-pairs"


class ProtocolResult(
    namedtuple("ProtocolResult", "protocol r phi s p_success f_upper f_lower")
):
    """Inputs, success probability and fidelities of one protocol run.

    An immutable named tuple.  Output fidelities are ``None`` when the
    selected detection pattern never occurs; r and phi are ``None`` for
    independent pairs.  ``f_in`` and ``params`` are derived from the fields.
    """

    __slots__ = ()

    #: the output columns, in order: CSV header and cells, leading JSON keys
    COLUMNS = ("s", "f_in", "p_success", "f_upper", "f_lower")

    @property
    def f_in(self) -> float:
        """Polarization fidelity of each pair before purification, (1 + 3s)/4."""
        return input_fidelity(self.s)

    @property
    def params(self) -> Mapping:
        """The run's protocol, r, phi and s, as a read-only mapping."""
        return MappingProxyType(
            {"protocol": self.protocol, "r": self.r, "phi": self.phi, "s": self.s}
        )

    def as_dict(self) -> dict:
        row = {name: getattr(self, name) for name in self.COLUMNS}
        row["params"] = dict(self.params)
        return row


def input_fidelity(s: float) -> float:
    """Polarization fidelity of one depolarized pair, (1 + 3s)/4."""
    return (1.0 + 3.0 * s) / 4.0


#: the (Alice, Bob) spatial modes of the upper and of the lower pair
_UPPER = (SpatialMode.A1, SpatialMode.B1)
_LOWER = (SpatialMode.A2, SpatialMode.B2)


def _transmit(state: PureState, s: float) -> DensityOperator:
    """Depolarize Alice's spatial modes, then pass both beam splitters."""
    rho = depolarize_alice(to_density(state), s)
    rho = apply_pbs(rho, Side.ALICE)
    rho = apply_pbs(rho, Side.BOB)
    return rho


def run_four_photon(r: float, phi: float, s: float) -> ProtocolResult:
    """Four-photon purification: keep one photon per output spatial mode.

    Both the upper and the lower output pair are kept; their fidelities are
    reported separately.
    """
    source = SourceParams(r=r, phi=phi, pairs=2)
    rho = _transmit(spatially_entangled_state(source), s)
    p_success, conditional = postselect(rho, FOUR_MODE)
    f_upper = f_lower = None
    if conditional is not None:
        f_upper = pair_fidelity(conditional, *_UPPER)
        f_lower = pair_fidelity(conditional, *_LOWER)
    return ProtocolResult(
        ProtocolKind.FOUR_PHOTON.value, r, phi, s, p_success, f_upper, f_lower
    )


def run_two_photon(r: float, phi: float, s: float) -> ProtocolResult:
    """Two-photon purification: keep events with both photons up or both down.

    The surviving pair sits in the upper or the lower modes depending on the
    branch; the reported fidelity mixes the two branches with their
    conditional weights and is carried in ``f_upper`` (``f_lower`` stays
    ``None``).
    """
    state = spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=1))
    rho = _transmit(state, s)
    p_up, cond_up = postselect(rho, BOTH_UP)
    p_down, cond_down = postselect(rho, BOTH_DOWN)
    p_success = p_up + p_down
    f_out = None
    if p_success > ZERO_PROBABILITY:
        weighted = 0.0
        if cond_up is not None:
            weighted += p_up * pair_fidelity(cond_up, *_UPPER)
        if cond_down is not None:
            weighted += p_down * pair_fidelity(cond_down, *_LOWER)
        f_out = weighted / p_success
    return ProtocolResult(
        ProtocolKind.TWO_PHOTON.value, r, phi, s, p_success, f_out, None
    )


def _measured_out_fidelity(conditional: DensityOperator) -> float:
    """Fidelity of the (a1, b1) pair after measuring out (a2, b2) at 45 degrees.

    Each lower photon is projected onto |+> or |->, (H +/- V)/sqrt(2), and
    when the outcomes x and y disagree Alice's kept qubit gets a phase flip Z.
    Summing the four branches, the fidelity with Phi+ = (|HH> + |VV>)/sqrt(2)
    is

        sum over x, y in {+, -} of <Phi_xy, x, y| rho |Phi_xy, x, y>,

    with Phi_xy = Phi+ if x = y and Phi- = (Z x 1) Phi+ otherwise, in the
    qubit order (a1, b1, a2, b2).  So it is Tr(W rho) for the fixed witness
    W = sum_xy |Phi_xy><Phi_xy| x |xy><xy|.  Write |Phi+-><Phi+-| as D +- O,
    D = (|HH><HH| + |VV><VV|)/2 and O = (|HH><VV| + |VV><HH|)/2, and use
    sum_xy |xy><xy| = 1 and sum_xy (+-1 for x = y or not) |xy><xy| = X x X:

        W = D x 1 + O x (X x X).

    An entry of ``conditional`` has weight 1/2 under W exactly when ket
    holds HH or VV on (a1, b1) and bra equals ket (D x 1) or ket with every
    polarization flipped (O x X x X); every other entry has weight 0.  Each
    entry must hold one photon per spatial mode (``ValueError`` otherwise).
    """
    order = _UPPER + _LOWER
    total = 0.0
    for (ket, bra), value in conditional.entries.items():
        ket_bits = [polarization_bit(ket, spatial) for spatial in order]
        bra_bits = [polarization_bit(bra, spatial) for spatial in order]
        flips = {k ^ b for k, b in zip(ket_bits, bra_bits)}
        if ket_bits[0] == ket_bits[1] and len(flips) == 1:
            total += value.real
    return 0.5 * total


def run_independent_pairs(s: float) -> ProtocolResult:
    """Purification with two independent pairs instead of the two-pass source.

    After selecting one photon per output mode, the lower pair is measured
    out and only the upper pair survives, so there is a single output
    fidelity (in ``f_upper``).
    """
    rho = _transmit(independent_pairs_state(), s)
    p_success, conditional = postselect(rho, FOUR_MODE)
    f_out = None
    if conditional is not None:
        f_out = _measured_out_fidelity(conditional)
    return ProtocolResult(
        ProtocolKind.INDEPENDENT_PAIRS.value, None, None, s, p_success, f_out, None
    )


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


class SweepSpec(namedtuple("SweepSpec", "s_values r phi protocol")):
    """Grid of survival probabilities plus fixed source parameters.

    An immutable named tuple.  ``s_values`` is copied into a tuple;
    ``protocol`` is a ``ProtocolKind`` or its value, anything else raises
    ``ValueError``.
    """

    __slots__ = ()

    #: ``_replace`` builds through ``_make``, so route both through the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, s_values: Iterable[float], r: float = 1.0, phi: float = 0.0,
                protocol: ProtocolKind | str = ProtocolKind.FOUR_PHOTON):
        s_values = tuple(s_values)
        if not s_values:
            raise ValueError("s grid must not be empty")
        if any(not 0.0 <= s <= 1.0 for s in s_values):
            raise ValueError(f"s values must lie in [0, 1]: {s_values}")
        if any(b <= a for a, b in zip(s_values, s_values[1:])):
            raise ValueError("s grid must be strictly increasing")
        return super().__new__(cls, s_values, r, phi, ProtocolKind(protocol))


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
    """Evenly spaced s grid from exactly s_min to exactly s_max, held in memory."""
    if not 2 <= steps <= 1_000_000:
        raise ValueError(f"steps must be in [2, 1000000], got {steps}")
    if not 0.0 <= s_min < s_max <= 1.0:
        raise ValueError(f"need 0 <= s_min < s_max <= 1, got [{s_min}, {s_max}]")
    step = (s_max - s_min) / (steps - 1)
    return tuple(s_min + i * step for i in range(steps - 1)) + (s_max,)
