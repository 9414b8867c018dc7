"""Linear-optical elements: one polarizing beam splitter per side.

The polarizing beam splitter on one side combines the two spatial modes; it
transmits H and reflects V, which with our output labeling exchanges the H
occupations of spatial modes 1 and 2 while leaving V untouched.  It is a
lossless, phase-free permutation of basis states, applied to density
operators; the package's one use is ``protocol._in_front``, which moves a
protocol's fixed readout maps through both beam splitters when its row is
built, on the protocol's first use.
"""

from __future__ import annotations

from operator import itemgetter

from .fock import DensityOperator, Side, must_be

#: each side's PBS as a fixed permutation of the eight mode indices: the H
#: modes of its upper and lower spatial mode (a1H/a2H, b1H/b2H) trade places
_PBS = {
    Side.ALICE: itemgetter(2, 1, 0, 3, 4, 5, 6, 7),
    Side.BOB: itemgetter(0, 1, 2, 3, 6, 5, 4, 7),
}


def apply_pbs(rho: DensityOperator, side: Side) -> DensityOperator:
    """Send one side's two spatial modes through its polarizing beam splitter.

    Conjugates ``rho`` on both sides: every ket and bra is relabeled.  Unitary,
    involutive, photon-number preserving.  ``rho`` must be a
    ``DensityOperator`` and ``side`` a ``Side``: anything else, such as a
    ``PureState`` or the string ``"alice"``, raises ``ValueError``.
    """
    must_be("rho", rho, DensityOperator)
    must_be("side", side, Side)
    swap = _PBS[side]
    # a permutation of valid keys: no term merges, no key needs checking
    entries = {(swap(ket), swap(bra)): v for (ket, bra), v in rho.entries.items()}
    return DensityOperator._trusted(entries)
