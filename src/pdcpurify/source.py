"""Initial states emitted by the photon-pair sources.

The main source is a crystal pumped twice by the same pulse: a pair can be
created into the upper spatial modes (a1, b1) or, with relative amplitude
``r`` and phase ``phi``, into the lower ones (a2, b2).  Both passes emit
polarization-entangled pairs, so the two- and four-photon components carry
spatial as well as polarization entanglement.  For comparison there is also
the product state of two independent polarization-entangled pairs.

This module is the one home of the sources' kets, which the protocols' rows
are built from too.  Each is a product of ``fock.expanded``'s integer
factors, every term of amplitude +-1.  At r = 1, phi = 0 the two-pass
source is an equal-weight superposition of its kets, one per multiset of its
pairs' channels (10 for two pairs, 4 for one); at (r, phi) a ket with j
lower pairs has lambda^j times that amplitude, lambda = r e^(i phi), so the
state's squared norm is N(r) = sum_j count_j r^(2j) for count_j its kets
with j lower pairs.  Independent pairs are upper Phi+ times lower Phi+.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from itertools import combinations_with_replacement

from .fock import MODES, Mode, Occupations, PureState, expanded, in_range, must_be, shown

#: the source's four pair channels, one photon into Alice's and one into
#: Bob's mode of one spatial mode and polarization: (a1H, b1H), (a1V, b1V),
#: (a2H, b2H), (a2V, b2V)
_CHANNELS = tuple(zip(MODES[:4], MODES[4:]))
#: |HH> + sign |VV> on (a1, b1), unnormalized: Phi+ for sign 1, Phi- for -1
_PHI = {sign: {_CHANNELS[0]: 1, _CHANNELS[1]: sign} for sign in (1, -1)}


class SourceParams(namedtuple("SourceParams", "r phi pairs")):
    """Source configuration, an immutable named tuple.

    ``r`` is the relative amplitude of emission into the lower spatial modes
    (r = 1 means both passes are balanced), ``phi`` the phase between the two
    emission possibilities, wrapped into [0, 2 pi).  ``pairs`` selects the
    post-selected photon-number component: the int 1 (two photons) or 2 (four).
    """

    __slots__ = ()

    #: ``_replace`` builds through ``_make``, so route both through the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, r: float = 1.0, phi: float = 0.0, pairs: int = 1):
        if not in_range(r):
            raise ValueError(f"r must be a number in [0, 1], got {shown(r)}")
        if not in_range(phi, math.isfinite):
            raise ValueError(f"phi must be a finite number, got {shown(phi)}")
        if type(pairs) is not int or pairs not in (1, 2):
            raise ValueError(f"pairs must be the int 1 or 2, got {shown(pairs)}")
        phi = phi % (2.0 * math.pi)
        # a negative phi within half a last-place unit of 2 pi from 0 wraps to
        # 2 pi - |phi|, which rounds to exactly 2 pi: that is the phase 0
        return super().__new__(cls, r, 0.0 if phi == 2.0 * math.pi else phi, pairs)


def _emitted(pairs: int) -> dict:
    """The two-pass source's ket of ``pairs`` pairs at r = 1, phi = 0, as one
    factor: every multiset of ``pairs`` channels, each of amplitude 1.  For
    one or two pairs the emitted amplitudes are equal: a channel taken twice
    gets sqrt(2) twice from ``create``, and two channels their two orders."""
    return {sum(c, ()): 1 for c in combinations_with_replacement(_CHANNELS, pairs)}


def _factors(pairs: int | None) -> tuple[dict, ...]:
    """The source's ket at r = 1, phi = 0 as ``expanded``'s factors: the
    two-pass source's of ``pairs`` pairs, or for ``None`` two independent
    pairs', upper Phi+ times lower Phi+."""
    return (_emitted(pairs),) if pairs else (_PHI[1], dict.fromkeys(_CHANNELS[2:], 1))


def _lower_pairs(occ: Occupations) -> int:
    """The pairs emitted into the lower modes: one photon in a2 per pair."""
    return occ[Mode.A2H] + occ[Mode.A2V]


def _counts(pairs: int) -> list[int]:
    """count_j, the terms of ``_emitted(pairs)`` with j lower pairs, for
    j = 0, ..., ``pairs``: N(r) = sum_j count_j r^(2j)."""
    counts = [0] * (pairs + 1)
    for occ in expanded(_factors(pairs)):
        counts[_lower_pairs(occ)] += 1
    return counts


def spatially_entangled_state(params: SourceParams) -> PureState:
    """Normalized n-pair state of the two-pass source: amplitude
    lambda^j / sqrt(N(r)) on each ket with j lower pairs, pruned once.

    For r = 1, phi = 0 the single-pair state is an equal superposition of
    four kets (two ebits: one polarization, one spatial), and the two-pair
    state has ten equal-weight Schmidt terms.  A ``params`` that is not a
    ``SourceParams`` (``None``, a plain tuple) raises ``ValueError``.
    """
    must_be("params", params, SourceParams)
    lam = params.r * cmath.exp(1j * params.phi)
    norm_sq = 0.0  # a fixed-order loop: the builtin sum compensates from 3.12 on
    for j, count in enumerate(_counts(params.pairs)):
        norm_sq += count * params.r ** (2 * j)
    norm = math.sqrt(norm_sq)
    amplitudes = {occ: lam ** _lower_pairs(occ) / norm for occ in expanded(_factors(params.pairs))}
    return PureState._trusted(amplitudes, 2 * params.pairs)


def independent_pairs_state() -> PureState:
    """Two independent polarization-entangled pairs, upper and lower.

    Four kets of amplitude 1/2: one photon in each spatial mode, with the
    upper and lower pair each in the (HH + VV)/sqrt(2) polarization state.
    """
    ket = expanded(_factors(None))
    return PureState._trusted({occ: complex(a / 2) for occ, a in ket.items()}, 4)
