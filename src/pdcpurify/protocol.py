"""End-to-end purification pipelines and parameter sweeps.

Three experiments share the same plumbing: source state -> depolarizing
channels on Alice's spatial modes -> polarizing beam splitters on both sides
-> post-selection on a detection pattern -> polarization fidelity of the
surviving pair(s).  The beam splitters permute basis states, so the
post-selection is made in front of them, on the occupations they send into
the pattern, and only the kept entries are relabeled.  The source depends on
r and phi only, so each protocol builds its source density once per curve
and reads it out at every s; a single run is the same path at one s.
Everything is deterministic; identical inputs give bit-identical results.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from enum import Enum
from itertools import product
from types import MappingProxyType

from .analysis import (
    BOTH_UP,
    FOUR_MODE,
    ZERO_PROBABILITY,
    pair_fidelity,
    polarization_bit,
)
from .channel import depolarize_alice
from .fock import DensityOperator, Occupations, Side, SpatialMode, _in_range, to_density
from .optics import _PBS, apply_pbs
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


def _in_front(pattern: frozenset[tuple[int, int, int, int]]) -> frozenset[Occupations]:
    """The occupations that the two beam splitters send into ``pattern``.

    Those behind them are every H/V split of each (a1, a2, b1, b2) photon
    count in the pattern; each PBS is its own inverse and the two act on
    different modes, so applying both to these gives the ones in front.
    """
    alice, bob = _PBS[Side.ALICE], _PBS[Side.BOB]
    behind = (
        sum(splits, ())
        for counts in pattern
        for splits in product(*([(h, n - h) for h in range(n + 1)] for n in counts))
    )
    return frozenset(alice(bob(occ)) for occ in behind)


#: the occupations in front of both beam splitters that each pattern keeps
_FOUR_MODE_KEYS = _in_front(FOUR_MODE)
_BOTH_UP_KEYS = _in_front(BOTH_UP)


def _transmit(
    rho: DensityOperator, s: float, keys: frozenset[Occupations]
) -> DensityOperator:
    """Depolarize Alice's spatial modes of a source density, keep the entries
    whose ket and bra are both in ``keys``, then pass both beam splitters.

    With ``keys`` from ``_in_front(pattern)`` this is ``project(T, pattern)``
    for the transmitted operator T (channel, then both beam splitters), entry
    for entry and in the same order: a PBS is a permutation of basis states,
    so selecting in front of it and behind it keeps the same entries, and only
    those are relabeled.

    With F exchanging H and V in every spatial mode and S the upper and lower
    spatial modes on both sides, T obeys F T F = S T S: each source pair is
    HH + VV, the channel treats a1, a2 and H, V alike, and F PBS F = S PBS (F
    turns the swap of the H modes into that of the V modes).  The patterns
    count H + V, so F fixes each of them and the selection commutes with F;
    S fixes ``FOUR_MODE`` and maps ``BOTH_UP`` to ``BOTH_DOWN``.  So the
    ``FOUR_MODE`` result K obeys F K F = S K S, and the ``BOTH_UP`` and
    ``BOTH_DOWN`` results obey F K_up F = S K_down S.  F fixes the upper Bell
    witness and S maps it to the lower one, so each lower or both-down witness
    sum and probability equals its upper or both-up mirror.
    """
    rho = depolarize_alice(rho, s)
    rho = DensityOperator._trusted({
        (ket, bra): value
        for (ket, bra), value in rho.entries.items()
        if ket in keys and bra in keys
    })
    rho = apply_pbs(rho, Side.ALICE)
    rho = apply_pbs(rho, Side.BOB)
    return rho


def _ratio(weighted: float, p: float) -> float | None:
    """A fidelity conditional on a pattern of probability ``p``: the pattern's
    witness sum over ``p``, or ``None`` where the pattern never happens."""
    return weighted / p if p > ZERO_PROBABILITY else None


def _four_photon_curve(r: float, phi: float) -> Callable[[float], ProtocolResult]:
    """``run_four_photon`` at (r, phi) as a function of s; the source density
    is built here, once."""
    rho = to_density(spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=2)))

    def at(s: float) -> ProtocolResult:
        kept = _transmit(rho, s, _FOUR_MODE_KEYS)
        p = kept.trace()
        f = _ratio(pair_fidelity(kept, *_UPPER), p)
        return ProtocolResult(ProtocolKind.FOUR_PHOTON.value, r, phi, s, p, f, f)

    return at


def run_four_photon(r: float, phi: float, s: float) -> ProtocolResult:
    """Four-photon purification: keep one photon per output spatial mode.

    Both output pairs are kept; by the symmetry of ``_transmit`` they have equal
    fidelities, so the upper pair's is reported in both columns.
    """
    return _four_photon_curve(r, phi)(s)


def _two_photon_curve(r: float, phi: float) -> Callable[[float], ProtocolResult]:
    """``run_two_photon`` at (r, phi) as a function of s; the source density
    is built here, once."""
    rho = to_density(spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=1)))

    def at(s: float) -> ProtocolResult:
        up = _transmit(rho, s, _BOTH_UP_KEYS)
        p = 2.0 * up.trace()
        f = _ratio(2.0 * pair_fidelity(up, *_UPPER), p)
        return ProtocolResult(ProtocolKind.TWO_PHOTON.value, r, phi, s, p, f, None)

    return at


def run_two_photon(r: float, phi: float, s: float) -> ProtocolResult:
    """Two-photon purification: keep events with both photons up or both down.

    The surviving pair sits in the upper or the lower modes depending on the
    branch.  The down branch mirrors the up one (see ``_transmit``), so p and
    the witness sum are twice the up branch's; their ratio is carried in
    ``f_upper`` (``f_lower`` stays ``None``).
    """
    return _two_photon_curve(r, phi)(s)


def _measured_out_fidelity(kept: DensityOperator) -> float:
    """Witness sum of the (a1, b1) pair after measuring out (a2, b2) at 45 degrees.

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

    An entry of ``kept`` has weight 1/2 under W exactly when ket holds HH or
    VV on (a1, b1) and bra equals ket (D x 1) or ket with every polarization
    flipped (O x X x X); every other entry has weight 0.  Each entry must hold
    one photon per spatial mode (``ValueError`` otherwise).  The result scales
    with the trace of ``kept``.
    """
    order = _UPPER + _LOWER
    total = 0.0
    for (ket, bra), value in kept.entries.items():
        ket_bits = [polarization_bit(ket, spatial) for spatial in order]
        bra_bits = [polarization_bit(bra, spatial) for spatial in order]
        flips = {k ^ b for k, b in zip(ket_bits, bra_bits)}
        if ket_bits[0] == ket_bits[1] and len(flips) == 1:
            total += value.real
    return 0.5 * total


def _independent_pairs_curve() -> Callable[[float], ProtocolResult]:
    """``run_independent_pairs`` as a function of s; the source density is
    built here, once."""
    rho = to_density(independent_pairs_state())

    def at(s: float) -> ProtocolResult:
        kept = _transmit(rho, s, _FOUR_MODE_KEYS)
        p = kept.trace()
        f_out = _ratio(_measured_out_fidelity(kept), p)
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
