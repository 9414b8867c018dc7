"""Initial states emitted by the photon-pair sources.

The main source is a crystal pumped twice by the same pulse: a pair can be
created into the upper spatial modes (a1, b1) or, with relative amplitude
``r`` and phase ``phi``, into the lower ones (a2, b2).  Both passes emit
polarization-entangled pairs, so the two- and four-photon components carry
spatial as well as polarization entanglement.  For comparison there is also
the product state of two independent polarization-entangled pairs.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .fock import Mode, PureState, create, vacuum


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
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {r}")
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {phi}")
        if type(pairs) is not int or pairs not in (1, 2):
            raise ValueError(f"pairs must be the int 1 or 2, got {pairs!r}")
        return super().__new__(cls, r, phi % (2.0 * math.pi), pairs)


def _emit_pair(state: PureState, upper: complex, lower: complex) -> PureState:
    """One application of the coherent pair-creation operator.

    Adds one photon pair, as a superposition of the four creation channels
    (upper/lower spatial mode, H/V polarization) with the given weights.
    """
    out = create(Mode.B1H, create(Mode.A1H, state)).scaled(upper)
    out = out + create(Mode.B1V, create(Mode.A1V, state)).scaled(upper)
    out = out + create(Mode.B2H, create(Mode.A2H, state)).scaled(lower)
    out = out + create(Mode.B2V, create(Mode.A2V, state)).scaled(lower)
    return out


def spatially_entangled_state(params: SourceParams) -> PureState:
    """Normalized n-pair state of the two-pass source.

    For r = 1, phi = 0 the single-pair state is an equal superposition of
    four kets (two ebits: one polarization, one spatial), and the two-pair
    state has ten equal-weight Schmidt terms.
    """
    lower = params.r * cmath.exp(1j * params.phi)
    state = vacuum()
    for _ in range(params.pairs):
        state = _emit_pair(state, 1.0, lower)
    return state.normalized()


def independent_pairs_state() -> PureState:
    """Two independent polarization-entangled pairs, upper and lower.

    Four kets of amplitude 1/2: one photon in each spatial mode, with the
    upper and lower pair each in the (HH + VV)/sqrt(2) polarization state.
    """
    state = _emit_pair(vacuum(), 1.0, 0.0)
    state = _emit_pair(state, 0.0, 1.0)
    return state.normalized()
