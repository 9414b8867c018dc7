"""Detection-pattern post-selection, pair fidelity and entanglement
diagnostics."""

from __future__ import annotations

import math
import sys
from itertools import combinations
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

#: Jacobi sweeps allowed before ``_singular_values`` gives up
_MAX_SWEEPS = 30

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
    modes raises ``ValueError``, and so does an ``alice`` or ``bob`` that is
    not a ``SpatialMode``.  The result scales with the trace of ``rho``.
    """
    for name, spatial in (("alice", alice), ("bob", bob)):
        if not isinstance(spatial, SpatialMode):
            raise ValueError(f"{name} must be a SpatialMode, got {spatial!r}")
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


def _norm(vector: list[complex]) -> float:
    """Euclidean length of a complex vector: ``hypot`` of the entries' moduli,
    so a vector with one nonzero entry gets exactly that entry's ``abs``."""
    return math.hypot(*map(abs, vector))


def _singular_values(rows: list[list[complex]]) -> list[float]:
    """Singular values of a complex matrix, descending, by one-sided Jacobi.

    Hestenes' method: rotate pairs of vectors (the columns, or the rows if
    there are fewer of them) until each pair is orthogonal to working
    precision; the singular values are then their lengths.  Unlike the
    eigenvalues of M M^dagger, small singular values come out accurate to
    about machine precision times the largest.  Raises ``ArithmeticError``
    if ``_MAX_SWEEPS`` sweeps do not converge.
    """
    if len(rows[0]) <= len(rows):
        vectors = [list(column) for column in zip(*rows)]
    else:
        vectors = [list(row) for row in rows]
    tol = len(vectors[0]) * sys.float_info.epsilon
    norms = [_norm(v) for v in vectors]
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for i, j in combinations(range(len(vectors)), 2):
            a, b = vectors[i], vectors[j]
            g = sum(x.conjugate() * y for x, y in zip(a, b))
            magnitude = abs(g)
            if magnitude <= tol * norms[i] * norms[j]:
                continue
            rotated = True
            # the rotation that zeroes a^dagger b, with g's phase moved onto b
            zeta = (norms[j] - norms[i]) * (norms[j] + norms[i]) / (2.0 * magnitude)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1.0 / math.hypot(1.0, t)
            phase = g / magnitude
            sa, sb = c * t * phase.conjugate(), c * t * phase
            vectors[i] = [c * x - sa * y for x, y in zip(a, b)]
            vectors[j] = [sb * x + c * y for x, y in zip(a, b)]
            norms[i], norms[j] = _norm(vectors[i]), _norm(vectors[j])
        if not rotated:
            return sorted(norms, reverse=True)
    raise ArithmeticError(f"Jacobi SVD did not converge in {_MAX_SWEEPS} sweeps")


def schmidt(
    state: PureState,
    alice_modes: Iterable[Mode],
    bob_modes: Iterable[Mode],
) -> tuple[list[float], float]:
    """Schmidt coefficients and entanglement entropy across a mode bipartition.

    The coefficients are the singular values above 1e-12 of the amplitude
    matrix over (Alice pattern, Bob pattern), sorted descending; the entropy
    is -sum(c^2 log2 c^2) in ebits.  The state must be normalized and the two
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
    matrix = [[0j] * len(b_patterns) for _ in a_patterns]
    for occ, amp in state.amplitudes.items():
        row = matrix[a_index[tuple(occ[m] for m in alice)]]
        row[b_index[tuple(occ[m] for m in bob)]] += amp

    coefficients = [c for c in _singular_values(matrix) if c > 1e-12]
    entropy = -sum(c * c * math.log2(c * c) for c in coefficients if c > 0.0)
    return coefficients, entropy
