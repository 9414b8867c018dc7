"""Linear-optical elements: one polarizing beam splitter per side.

The polarizing beam splitter on one side combines the two spatial modes; it
transmits H and reflects V, which with our output labeling exchanges the H
occupations of spatial modes 1 and 2 while leaving V untouched.  It is a
lossless, phase-free permutation of basis states.
"""

from __future__ import annotations

from .fock import DensityOperator, Mode, Occupations, PureState, Side, SpatialMode


def _pbs_relabel(side: Side):
    h1 = (SpatialMode.A1 if side is Side.ALICE else SpatialMode.B1).horizontal
    h2 = (SpatialMode.A2 if side is Side.ALICE else SpatialMode.B2).horizontal

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
    sides).  Unitary, involutive, photon-number preserving.
    """
    if isinstance(state, DensityOperator) and set(state.modes) != set(Mode):
        raise ValueError("beam splitter needs the full eight-mode operator")
    return state.map_basis(_pbs_relabel(side))
