"""End-to-end purification pipelines and parameter sweeps.

Three experiments share the same plumbing: source state -> depolarizing
channels on Alice's spatial modes -> polarizing beam splitters on both sides
-> post-selection on a detection pattern -> polarization fidelity of the
surviving pair(s).  A pattern's probability and a fidelity's witness sum are
each Tr(A rho) for a fixed map A behind the beam splitters; these permute
basis states, so A is moved in front of them once and a point reads two fixed
maps out after the channel.  The source depends on r and phi only, so each
protocol builds its source density once per curve and reads it out at every
s; a single run is the same path at one s.
Everything is deterministic; identical inputs give bit-identical results.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from enum import Enum
from types import MappingProxyType

from .analysis import (
    BOTH_UP,
    FOUR_MODE,
    ZERO_PROBABILITY,
    _BOTH_UP_WITNESS,
    _MEASURED_OUT_WITNESS,
    _UPPER_WITNESS,
    _projector,
)
from .channel import depolarize_alice
from .fock import DensityOperator, Side, _in_range, to_density
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


def _in_front(behind: DensityOperator) -> DensityOperator:
    """A projector or witness A behind both beam splitters, moved in front:
    they permute basis states by a P that is its own inverse, so
    Tr(A P rho P) = Tr(P A P rho), and P A P relabels A as a state would be."""
    return apply_pbs(apply_pbs(behind, Side.ALICE), Side.BOB)


#: each pattern's projector and each witness, relabeled in front of both beam
#: splitters once: a point reads them out after the channel, with no PBS
_P_FOUR_MODE = _in_front(_projector(FOUR_MODE))
_P_BOTH_UP = _in_front(_projector(BOTH_UP))
_W_UPPER = _in_front(_UPPER_WITNESS)
_W_BOTH_UP = _in_front(_BOTH_UP_WITNESS)
_W_MEASURED_OUT = _in_front(_MEASURED_OUT_WITNESS)


def _expect(rho: DensityOperator, a: DensityOperator) -> complex:
    """Tr(A rho), the sum of A[k, b] rho[b, k]: one lookup per entry of the
    fixed map A, however many entries ``rho`` has."""
    entries = rho.entries
    return sum(v * entries.get((b, k), 0j) for (k, b), v in a.entries.items())


def _ratio(weighted: float, p: float) -> float | None:
    """A fidelity conditional on a pattern of probability ``p``: the pattern's
    witness sum over ``p``, or ``None`` where the pattern never happens."""
    return weighted / p if p > ZERO_PROBABILITY else None


def _four_photon_curve(r: float, phi: float) -> Callable[[float], ProtocolResult]:
    """``run_four_photon`` at (r, phi) as a function of s; the source density
    is built here, once."""
    rho = to_density(spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=2)))

    def at(s: float) -> ProtocolResult:
        rho_s = depolarize_alice(rho, s)
        p = _expect(rho_s, _P_FOUR_MODE).real
        f = _ratio(_expect(rho_s, _W_UPPER).real, p)
        # f_lower = f_upper.  With F exchanging H and V in every spatial mode
        # and S the upper and lower spatial modes on both sides, the operator T
        # behind both beam splitters obeys F T F = S T S: each source pair is
        # HH + VV, the channel treats a1, a2 and H, V alike, and F PBS F =
        # S PBS.  F fixes every pattern (they count H + V) and the upper Bell
        # witness; S fixes FOUR_MODE, maps BOTH_UP to BOTH_DOWN and the upper
        # witness to the lower.  So each lower-pair or both-down probability
        # and witness sum equals its upper or both-up mirror.
        return ProtocolResult(ProtocolKind.FOUR_PHOTON.value, r, phi, s, p, f, f)

    return at


def run_four_photon(r: float, phi: float, s: float) -> ProtocolResult:
    """Four-photon purification: keep one photon per output spatial mode.

    Both output pairs are kept; they have equal fidelities (see the mirror
    note in ``_four_photon_curve``), so the upper pair's is reported in both
    columns.
    """
    return _four_photon_curve(r, phi)(s)


def _two_photon_curve(r: float, phi: float) -> Callable[[float], ProtocolResult]:
    """``run_two_photon`` at (r, phi) as a function of s; the source density
    is built here, once."""
    rho = to_density(spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=1)))

    def at(s: float) -> ProtocolResult:
        rho_s = depolarize_alice(rho, s)
        # the both-down branch mirrors both-up (see ``_four_photon_curve``)
        p = 2.0 * _expect(rho_s, _P_BOTH_UP).real
        f = _ratio(2.0 * _expect(rho_s, _W_BOTH_UP).real, p)
        return ProtocolResult(ProtocolKind.TWO_PHOTON.value, r, phi, s, p, f, None)

    return at


def run_two_photon(r: float, phi: float, s: float) -> ProtocolResult:
    """Two-photon purification: keep events with both photons up or both down.

    The surviving pair sits in the upper or the lower modes depending on the
    branch.  The down branch mirrors the up one (see the mirror note in
    ``_four_photon_curve``), so p and the witness sum are twice the up
    branch's; their ratio is carried in ``f_upper`` (``f_lower`` stays
    ``None``).
    """
    return _two_photon_curve(r, phi)(s)


def _independent_pairs_curve() -> Callable[[float], ProtocolResult]:
    """``run_independent_pairs`` as a function of s; the source density is
    built here, once."""
    rho = to_density(independent_pairs_state())

    def at(s: float) -> ProtocolResult:
        rho_s = depolarize_alice(rho, s)
        p = _expect(rho_s, _P_FOUR_MODE).real
        f_out = _ratio(_expect(rho_s, _W_MEASURED_OUT).real, p)
        return ProtocolResult(
            ProtocolKind.INDEPENDENT_PAIRS.value, None, None, s, p, f_out, None
        )

    return at


def run_independent_pairs(s: float) -> ProtocolResult:
    """Purification with two independent pairs instead of the two-pass source.

    After selecting one photon per output mode, the lower pair is measured
    out and only the upper pair survives, so there is a single output
    fidelity (in ``f_upper``).
    """
    return _independent_pairs_curve()(s)


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

    An immutable named tuple.  ``s_values`` is copied into a tuple and must
    be strictly increasing numbers (not bools) in [0, 1]; ``r`` and ``phi``
    must pass ``SourceParams``'s checks (for every protocol) and are stored as
    given; ``protocol`` is a ``ProtocolKind`` or its value.  Anything else
    raises ``ValueError``.
    """

    __slots__ = ()

    #: ``_replace`` builds through ``_make``, so route both through the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, s_values: Iterable[float], r: float = 1.0, phi: float = 0.0,
                protocol: ProtocolKind | str = ProtocolKind.FOUR_PHOTON):
        s_values = tuple(s_values)
        if not s_values:
            raise ValueError("s grid must not be empty")
        if not all(map(_in_range, s_values)):
            raise ValueError(f"s values must be numbers in [0, 1]: {s_values}")
        if any(b <= a for a, b in zip(s_values, s_values[1:])):
            raise ValueError("s grid must be strictly increasing")
        SourceParams(r, phi)  # r and phi follow the source's rule
        return super().__new__(cls, s_values, r, phi, ProtocolKind(protocol))


def sweep(spec: SweepSpec) -> list[ProtocolResult]:
    """Run the selected protocol at every grid point, ordered by s.

    The source density is built once and read out at each s.  This is the
    package's one dispatch on ``ProtocolKind``; a single run is a one-point
    sweep.
    """
    if spec.protocol is ProtocolKind.INDEPENDENT_PAIRS:
        at = _independent_pairs_curve()
    elif spec.protocol is ProtocolKind.FOUR_PHOTON:
        at = _four_photon_curve(spec.r, spec.phi)
    else:
        at = _two_photon_curve(spec.r, spec.phi)
    return [at(s) for s in spec.s_values]


def linear_grid(s_min: float, s_max: float, steps: int) -> tuple[float, ...]:
    """Evenly spaced s grid from exactly s_min to exactly s_max, held in memory."""
    if type(steps) is not int:
        raise ValueError(f"steps must be an int, got {steps!r}")
    if not 2 <= steps <= 1_000_000:
        raise ValueError(f"steps must be in [2, 1000000], got {steps}")
    if not (_in_range(s_min) and _in_range(s_max) and s_min < s_max):
        raise ValueError(f"need 0 <= s_min < s_max <= 1, got [{s_min}, {s_max}]")
    step = (s_max - s_min) / (steps - 1)
    return tuple(s_min + i * step for i in range(steps - 1)) + (s_max,)
