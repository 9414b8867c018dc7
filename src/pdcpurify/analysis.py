"""Detection-pattern post-selection, pair fidelity and entanglement
diagnostics."""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable

from .fock import (
    MODES,
    DensityOperator,
    Mode,
    Occupations,
    PureState,
    SpatialMode,
    spatial_totals,
)

#: pattern probabilities at or below this count as "never happens"
ZERO_PROBABILITY = 1e-12

#: one photon in every spatial mode behind the beam splitters
FOUR_MODE = frozenset({(1, 1, 1, 1)})
#: both photons in the upper spatial modes
BOTH_UP = frozenset({(1, 0, 1, 0)})
#: both photons in the lower spatial modes
BOTH_DOWN = frozenset({(0, 1, 0, 1)})


def project(
    rho: DensityOperator, selection: frozenset[tuple[int, int, int, int]]
) -> DensityOperator:
    """Project onto a detection pattern, without renormalizing.

    ``selection`` is a set of photon-count tuples over (a1, a2, b1, b2); a
    basis state matches when its per-spatial-mode totals (H plus V) are a
    member.  The entries whose ket and bra both match are kept unchanged, so
    the map is linear and the result's trace is the pattern's probability.  A
    pattern that is not a tuple of four non-negative ints raises
    ``ValueError``.
    """
    for p in selection:
        if type(p) is not tuple or [type(n) for n in p] != [int] * 4 or min(p) < 0:
            raise ValueError(f"selection needs tuples of four ints >= 0, got {p!r}")
    return DensityOperator._trusted({
        (ket, bra): value
        for (ket, bra), value in rho.entries.items()
        if spatial_totals(ket) in selection and spatial_totals(bra) in selection
    })


def polarization_bit(occ: Occupations, spatial: SpatialMode) -> int:
    """Polarization qubit of a spatial mode holding one photon: H = 0, V = 1.

    Raises ``ValueError`` unless the mode holds exactly one photon.
    """
    h, v = spatial.value
    pair = (occ[h], occ[v])
    if pair == (1, 0):
        return 0
    if pair == (0, 1):
        return 1
    raise ValueError(
        f"support occupation {occ} does not carry one photon in spatial mode "
        f"{spatial.name.lower()}"
    )


def pair_fidelity(rho: DensityOperator, alice: SpatialMode, bob: SpatialMode) -> float:
    """Overlap of the (alice, bob) photon pair with (|HH> + |VV>)/sqrt(2).

    This is Tr(W rho) for the witness W = |Phi+><Phi+| on the pair times the
    identity on the other six modes.  An entry contributes half its real part
    when those six modes agree on ket and bra and ket and bra each hold HH or
    VV on the pair; every other entry has weight 0.  An entry whose other modes
    agree but whose ket or bra lacks one photon in each of the pair's spatial
    modes raises ``ValueError``.  The result scales with the trace of ``rho``.
    """
    if alice == bob:
        raise ValueError(f"a pair needs two spatial modes, got {alice} twice")
    kept = {*alice.value, *bob.value}
    others = itemgetter(*(m for m in MODES if m not in kept))
    total = 0.0
    for (ket, bra), value in rho.entries.items():
        if others(ket) != others(bra):
            continue
        ket_aligned = polarization_bit(ket, alice) == polarization_bit(ket, bob)
        bra_aligned = polarization_bit(bra, alice) == polarization_bit(bra, bob)
        if ket_aligned and bra_aligned:
            total += value.real
    return 0.5 * total


def schmidt(
    state: PureState,
    alice_modes: Iterable[Mode],
    bob_modes: Iterable[Mode],
) -> tuple[list[float], float]:
    """Schmidt coefficients and entanglement entropy across a mode bipartition.

    The coefficients are the singular values of the amplitude matrix over
    (Alice pattern, Bob pattern), sorted descending; the entropy is
    -sum(c^2 log2 c^2) in ebits.  The state must be normalized and the two
    mode sets must partition all eight modes.
    """
    import numpy as np  # imported here so that run and sweep never load numpy

    alice = sorted(set(alice_modes))
    bob = sorted(set(bob_modes))
    if sorted(alice + bob) != list(MODES) or set(alice) & set(bob):
        raise ValueError("mode sets must partition the eight modes")
    if abs(state.norm() - 1.0) > 1e-9:
        raise ValueError("schmidt decomposition expects a normalized state")

    a_patterns = sorted({tuple(occ[m] for m in alice) for occ in state.amplitudes})
    b_patterns = sorted({tuple(occ[m] for m in bob) for occ in state.amplitudes})
    a_index = {p: i for i, p in enumerate(a_patterns)}
    b_index = {p: i for i, p in enumerate(b_patterns)}
    matrix = np.zeros((len(a_patterns), len(b_patterns)), dtype=complex)
    for occ, amp in state.amplitudes.items():
        matrix[
            a_index[tuple(occ[m] for m in alice)],
            b_index[tuple(occ[m] for m in bob)],
        ] += amp

    singular = np.linalg.svd(matrix, compute_uv=False)
    coefficients = [float(c) for c in singular if c > 1e-12]
    entropy = -sum(c * c * math.log2(c * c) for c in coefficients if c > 0.0)
    return coefficients, entropy
