"""Detection-pattern post-selection, pair fidelity and entanglement
diagnostics, and the fixed projectors and witnesses that the protocols read
out."""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from itertools import combinations, combinations_with_replacement, product
from operator import itemgetter

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
    rho: DensityOperator, selection: Iterable[tuple[int, int, int, int]]
) -> DensityOperator:
    """Project onto a detection pattern, without renormalizing.

    ``selection`` holds photon-count tuples over (a1, a2, b1, b2), such as a
    frozenset, and is read once, so an iterator works too; a basis state
    matches when its per-spatial-mode totals (H plus V) are a member.  The
    entries whose ket and bra both match are kept unchanged, so the map is
    linear and the result's trace is the pattern's probability.  A pattern
    that is not a tuple of four non-negative ints raises ``ValueError``, which
    names it and the selection as read.
    """
    patterns = tuple(selection)
    for p in patterns:
        if type(p) is not tuple or [type(n) for n in p] != [int] * 4 or min(p) < 0:
            raise ValueError(
                f"selection needs tuples of four ints >= 0, got {p!r} in "
                f"{patterns!r} (a single pattern must be wrapped in a set)"
            )
    selection = frozenset(patterns)
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


def _onto(kets: Iterable[Iterable[dict[tuple[Mode, ...], int]]]) -> DensityOperator:
    """The sum of |k><k| / <k|k> over ``kets``, each a product of factors
    {the modes of its photons: +-1} on disjoint modes.  Every term is +-1 over
    a power of two, so the sums are exact and a cancelled entry is left out."""
    total: dict = {}
    for factors in kets:
        ket = {(): 1}
        for factor in factors:
            ket = {m + n: a * b for m, a in ket.items() for n, b in factor.items()}
        ket = {tuple(map(photons.count, MODES)): a for photons, a in ket.items()}
        for (k, a), (b, c) in product(ket.items(), repeat=2):
            total[k, b] = total.get((k, b), 0) + a * c / len(ket)
    return DensityOperator._trusted({key: complex(v) for key, v in total.items() if v})


def _projector(pattern: frozenset[tuple[int, int, int, int]]) -> DensityOperator:
    """The diagonal projector onto a detection pattern, so that Tr(P rho) is
    ``project(rho, pattern).trace()``: onto each way of placing each spatial
    mode's count of photons on its H and V modes."""
    modes = [spatial.value for spatial in SpatialMode]
    return _onto(
        [{photons: 1} for photons in split]
        for counts in pattern
        for split in product(*map(combinations_with_replacement, modes, counts))
    )


#: |HH> + sign |VV> on (a1, b1), unnormalized: Phi+ for sign 1, Phi- for -1
_PHI = {sign: {(Mode.A1H, Mode.B1H): 1, (Mode.A1V, Mode.B1V): sign} for sign in (1, -1)}
#: |Phi+><Phi+| on (a1, b1) times the identity on one photon in each of a2
#: and b2: the upper pair's Bell witness on the four-mode pattern (16 entries)
_UPPER_WITNESS = _onto(
    (_PHI[1], {(a,): 1}, {(b,): 1})
    for a in SpatialMode.A2.value
    for b in SpatialMode.B2.value
)
#: |Phi+><Phi+| on (a1, b1) times the vacuum of a2 and b2: the upper pair's
#: Bell witness on the both-up pattern (4 entries)
_BOTH_UP_WITNESS = _onto([(_PHI[1],)])
#: The lower photons measured at 45 degrees, onto |H> + x|V> (a2) and
#: |H> + y|V> (b2) for x, y = +-1, with a phase flip Z on a1 when x != y.  Z
#: turns Phi+ into Phi-, so a branch's overlap with Phi+ is
#: <Phi_xy, x, y| rho |Phi_xy, x, y> with Phi_xy = Phi+ if x = y, else Phi-;
#: the witness sums the four branches (16 entries).
_MEASURED_OUT_WITNESS = _onto(
    (_PHI[x * y], {(Mode.A2H,): 1, (Mode.A2V,): x}, {(Mode.B2H,): 1, (Mode.B2V,): y})
    for x in (1, -1)
    for y in (1, -1)
)


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
