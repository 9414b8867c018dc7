"""Detection-pattern post-selection, polarization-qubit reduction, fidelity
and entanglement diagnostics."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .fock import (
    MODES,
    PRUNE_TOL,
    DensityOperator,
    Mode,
    Occupations,
    PureState,
    SpatialMode,
    spatial_totals,
)

#: conditional probabilities at or below this count as "never happens"
ZERO_PROBABILITY = 1e-12

#: one photon in every spatial mode behind the beam splitters
FOUR_MODE = frozenset({(1, 1, 1, 1)})
#: both photons in the upper spatial modes
BOTH_UP = frozenset({(1, 0, 1, 0)})
#: both photons in the lower spatial modes
BOTH_DOWN = frozenset({(0, 1, 0, 1)})


def postselect(
    rho: DensityOperator, selection: frozenset[tuple[int, int, int, int]]
) -> tuple[float, DensityOperator | None]:
    """Condition on a detection pattern.

    ``selection`` is a set of photon-count tuples over (a1, a2, b1, b2); a
    basis state matches when its per-spatial-mode totals (H plus V) are a
    member.  Returns the success probability and the renormalized conditional
    state, or ``None`` when the pattern (almost) never occurs.  Projection
    keeps the entries whose bra and ket sides both match.
    """
    trace = rho.trace()
    if abs(trace - 1.0) > 1e-9:
        raise ValueError(f"expected a normalized state, trace is {trace}")
    kept: dict[tuple[Occupations, Occupations], complex] = {}
    probability = 0.0
    for (ket, bra), value in rho.items():
        if not (spatial_totals(ket) in selection and spatial_totals(bra) in selection):
            continue
        kept[(ket, bra)] = value
        if ket == bra:
            probability += value.real
    if probability <= ZERO_PROBABILITY:
        return probability, None
    factor = 1.0 / probability
    conditional = {key: factor * value for key, value in kept.items()}
    return probability, DensityOperator._trusted(conditional)


def polarization_qubit_matrix(
    rho: DensityOperator, spatial_modes: Sequence[SpatialMode]
) -> np.ndarray:
    """Dense qubit matrix for spatial modes carrying exactly one photon each.

    All other modes are traced out; each listed spatial mode's single photon
    becomes a qubit (H = 0, V = 1).  The matrix is indexed with the first
    listed mode as the most significant qubit.
    """
    if len(set(spatial_modes)) != len(spatial_modes):
        raise ValueError(f"duplicate spatial modes in {spatial_modes}")
    pairs = [sm.value for sm in spatial_modes]
    kept = {m for pair in pairs for m in pair}
    traced = [m for m in MODES if m not in kept]

    def qubit_index(occ: Occupations) -> int:
        index = 0
        for h, v in pairs:
            pair = (occ[h], occ[v])
            if pair == (1, 0):
                bit = 0
            elif pair == (0, 1):
                bit = 1
            else:
                raise ValueError(
                    f"support occupation {occ} does not carry one photon "
                    "in every designated spatial mode"
                )
            index = 2 * index + bit
        return index

    dim = 2 ** len(spatial_modes)
    matrix = np.zeros((dim, dim), dtype=complex)
    for (ket, bra), value in rho.entries.items():
        if all(ket[m] == bra[m] for m in traced):
            matrix[qubit_index(ket), qubit_index(bra)] += value
    # like a stored operator entry, a cell below PRUNE_TOL is dropped
    matrix[abs(matrix) < PRUNE_TOL] = 0.0
    return matrix


def reduce_to_pair(
    rho: DensityOperator, alice_spatial: int, bob_spatial: int
) -> np.ndarray:
    """Two-qubit polarization state of one (Alice mode, Bob mode) photon pair.

    Basis order (HH, HV, VH, VV); trace equals the trace of ``rho``.
    """
    alice = SpatialMode.A1 if alice_spatial == 1 else SpatialMode.A2
    bob = SpatialMode.B1 if bob_spatial == 1 else SpatialMode.B2
    return polarization_qubit_matrix(rho, (alice, bob))


#: target Bell state (|HH> + |VV>)/sqrt(2) in the (HH, HV, VH, VV) basis
TARGET_BELL = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def fidelity(two_qubit: np.ndarray) -> float:
    """Overlap of a two-qubit polarization state with (|HH> + |VV>)/sqrt(2)."""
    if two_qubit.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {two_qubit.shape}")
    return float(np.real(TARGET_BELL.conj() @ two_qubit @ TARGET_BELL))


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
