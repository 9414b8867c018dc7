"""Entanglement diagnostics: the Schmidt decomposition of a pure state
across a mode bipartition, by a pure-Python one-sided Jacobi SVD."""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from itertools import combinations

from .fock import MODES, Mode, PureState, must_be, shown

#: Jacobi sweeps allowed before ``_singular_values`` gives up
_MAX_SWEEPS = 30


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
        # a vector this short is rounding noise of a zero singular value: its
        # inner products scale with its own length and never fall below tol
        negligible = tol * max(norms)
        for i, j in combinations(range(len(vectors)), 2):
            if norms[i] <= negligible or norms[j] <= negligible:
                continue
            a, b = vectors[i], vectors[j]
            g = 0j  # a fixed-order loop: the builtin sum compensates from 3.12 on
            for x, y in zip(a, b):
                g += x.conjugate() * y
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


def _modes(name: str, modes: Iterable[Mode]) -> list[Mode]:
    """The distinct items of ``modes``, sorted; a ``modes`` that is not
    iterable (``None``, ``0.5``) or holds an item that is not a ``Mode``
    raises ``ValueError`` naming ``name``."""
    try:
        items = list(modes)
    except TypeError:
        raise ValueError(
            f"{name} must be an iterable of Modes, got {shown(modes)}"
        ) from None
    return sorted({must_be(f"each of {name}", m, Mode) for m in items})


def schmidt(
    state: PureState,
    alice_modes: Iterable[Mode],
    bob_modes: Iterable[Mode],
) -> tuple[list[float], float]:
    """Schmidt coefficients and entanglement entropy across a mode bipartition.

    The coefficients are the singular values above 1e-12 of the amplitude
    matrix over (Alice pattern, Bob pattern), sorted descending; the entropy
    is -sum(c^2 log2 c^2) in ebits.  The state must be a normalized
    ``PureState`` and the two mode sets, of ``Mode`` items, must partition
    all eight modes; anything else raises ``ValueError``.
    """
    must_be("state", state, PureState)
    alice, bob = (
        _modes(name, modes)
        for name, modes in (("alice_modes", alice_modes), ("bob_modes", bob_modes))
    )
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
    # a fixed-order loop, as in ``_singular_values``, subtracting from +0.0
    # so that a product state's entropy is 0.0, not -0.0
    entropy = 0.0
    for c in coefficients:
        entropy -= c * c * math.log2(c * c)
    return coefficients, entropy
