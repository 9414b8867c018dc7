"""Linear-optical elements: one polarizing beam splitter per side.

The polarizing beam splitter on one side combines the two spatial modes; it
transmits H and reflects V, which with our output labeling exchanges the H
occupations of spatial modes 1 and 2 while leaving V untouched.  It is a
lossless, phase-free permutation of basis states.
"""

from __future__ import annotations

from .fock import DensityOperator, Mode, Occupations, PureState, Side

#: the H modes of each side's upper and lower spatial mode, which its PBS swaps
_SWAPPED = {Side.ALICE: (Mode.A1H, Mode.A2H), Side.BOB: (Mode.B1H, Mode.B2H)}


def _pbs_relabel(side: Side):
    if not isinstance(side, Side):
        raise ValueError(f"side must be a Side, got {side!r}")
    h1, h2 = _SWAPPED[side]

    def swap(occ: Occupations) -> Occupations:
        out = list(occ)
        out[h1], out[h2] = out[h2], out[h1]
        return tuple(out)

    return swap


def apply_pbs(
    state: PureState | DensityOperator, side: Side
) -> PureState | DensityOperator:
    """Send one side's two spatial modes through its polarizing beam splitter.

    Works on pure states and on density operators (conjugation on both
    sides).  Unitary, involutive, photon-number preserving.  ``side`` must be
    a ``Side``: anything else, such as the string ``"alice"``, raises ``ValueError``.
    """
    swap = _pbs_relabel(side)
    # a permutation of valid keys: no term merges, no key needs checking
    if isinstance(state, PureState):
        amplitudes = {swap(occ): amp for occ, amp in state.amplitudes.items()}
        return PureState._trusted(amplitudes, state.sector)
    entries = {(swap(ket), swap(bra)): v for (ket, bra), v in state.entries.items()}
    return DensityOperator._trusted(entries)
