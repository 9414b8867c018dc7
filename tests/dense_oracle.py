"""Dense-matrix reference pipeline used as an independent oracle in tests.

Everything works on explicit matrices over full fixed-photon-number
occupation bases and deliberately shares no code with the package under
test: creation operators are rectangular sector-raising matrices, the
depolarizing channel is applied in Kraus form (each Kraus operator a scaled
partial permutation, applied by re-indexing), the beam splitters are basis
permutations, post-selection uses diagonal projectors and fidelities come
from witness operators.

Mode order: a1H a1V a2H a2V b1H b1V b2H b2V.
"""

import functools
import itertools
import math

import numpy as np

N_MODES = 8
A1, A2, B1, B2 = (0, 1), (2, 3), (4, 5), (6, 7)
SPATIAL = (A1, A2, B1, B2)
FOUR_MODE = {(1, 1, 1, 1)}
BOTH_UP = {(1, 0, 1, 0)}
BOTH_DOWN = {(0, 1, 0, 1)}


@functools.lru_cache(maxsize=None)
def basis(n):
    """All occupation tuples with total photon number n, sorted: one per
    multiset of n modes."""
    states = [
        tuple(modes.count(mode) for mode in range(N_MODES))
        for modes in itertools.combinations_with_replacement(range(N_MODES), n)
    ]
    return tuple(sorted(states))


@functools.lru_cache(maxsize=None)
def basis_index(n):
    return {occ: i for i, occ in enumerate(basis(n))}


def _cached_matrix(build):
    """Memoize a matrix builder on its (hashable) arguments.

    The matrix is shared by every caller, so it is made read-only.
    """

    @functools.lru_cache(maxsize=None)
    @functools.wraps(build)
    def cached(*args):
        matrix = build(*args)
        matrix.flags.writeable = False
        return matrix

    return cached


@_cached_matrix
def creation(mode, n):
    """Dense creation operator from the n-photon to the (n+1)-photon basis."""
    rows = basis_index(n + 1)
    matrix = np.zeros((len(basis(n + 1)), len(basis(n))))
    for col, occ in enumerate(basis(n)):
        target = list(occ)
        target[mode] += 1
        matrix[rows[tuple(target)], col] = math.sqrt(occ[mode] + 1)
    return matrix


def pair_creation(r, phi, n):
    """One application of the two-pass pair-creation operator."""
    upper = creation(B1[0], n + 1) @ creation(A1[0], n) + creation(B1[1], n + 1) @ creation(A1[1], n)
    lower = creation(B2[0], n + 1) @ creation(A2[0], n) + creation(B2[1], n + 1) @ creation(A2[1], n)
    return upper + r * np.exp(1j * phi) * lower


def two_pass_vector(r, phi, pairs, normalize=True):
    vec = np.array([1.0 + 0.0j])
    for k in range(pairs):
        vec = pair_creation(r, phi, 2 * k) @ vec
    return vec / np.linalg.norm(vec) if normalize else vec


def independent_pairs_vector():
    vec = np.array([1.0 + 0.0j])
    vec = (creation(B1[0], 1) @ creation(A1[0], 0) + creation(B1[1], 1) @ creation(A1[1], 0)) @ vec
    vec = (creation(B2[0], 3) @ creation(A2[0], 2) + creation(B2[1], 3) @ creation(A2[1], 2)) @ vec
    return vec / np.linalg.norm(vec)


@functools.lru_cache(maxsize=None)
def kraus_family(spatial, n):
    """Kraus operators of the fully depolarizing channel on one spatial mode.

    Each operator moves the photons of one (H, V) split to another: it is
    1/sqrt(ntot + 1) times a partial permutation with distinct rows, held as
    the read-only index arrays (rows, cols) of its nonzeros and ntot + 1.
    """
    h, v = spatial
    states = basis(n)
    index = basis_index(n)
    ops = []
    for ntot in range(n + 1):
        for k in range(ntot + 1):
            for kp in range(ntot + 1):
                rows, cols = [], []
                for col, occ in enumerate(states):
                    if occ[h] == kp and occ[v] == ntot - kp:
                        target = list(occ)
                        target[h] = k
                        target[v] = ntot - k
                        rows.append(index[tuple(target)])
                        cols.append(col)
                if rows:
                    rows, cols = np.array(rows), np.array(cols)
                    rows.flags.writeable = cols.flags.writeable = False
                    ops.append((rows, cols, ntot + 1))
    return tuple(ops)


def depolarize(rho, spatial, s, n):
    # K rho K^T for each K = P / sqrt(ntot + 1), P a partial permutation
    # taking column cols[i] to the distinct row rows[i]
    mixed = np.zeros_like(rho)
    for rows, cols, ntot_plus_one in kraus_family(spatial, n):
        mixed[np.ix_(rows, rows)] += rho[np.ix_(cols, cols)] / ntot_plus_one
    return s * rho + (1.0 - s) * mixed


@_cached_matrix
def pbs_permutation(side, n):
    """Basis index of the state each basis state comes from when the H
    occupations of the two spatial modes are exchanged (an involution)."""
    i0, i1 = (A1[0], A2[0]) if side == "alice" else (B1[0], B2[0])
    index = basis_index(n)
    perm = np.zeros(len(basis(n)), dtype=int)
    for row, occ in enumerate(basis(n)):
        source = list(occ)
        source[i0], source[i1] = source[i1], source[i0]
        perm[row] = index[tuple(source)]
    return perm


def both_pbs(rho, n):
    """P rho P^T for each side's permutation P, taken as a re-indexing."""
    for side in ("alice", "bob"):
        perm = pbs_permutation(side, n)
        rho = rho[np.ix_(perm, perm)]
    return rho


def trace_of_product(w, x):
    """Tr(w @ x), summed elementwise without forming the product."""
    return np.einsum("ij,ji->", w, x)


@_cached_matrix
def pattern_projector(patterns, n):
    diag = [
        1.0 if tuple(occ[a] + occ[b] for a, b in SPATIAL) in patterns else 0.0
        for occ in basis(n)
    ]
    return np.diag(diag)


def _pair_overlap(occ, alice, bob):
    """Amplitude of occ against (HH + VV)/sqrt(2) on the given pair, with the
    leftover modes as a matching key; None when the pair modes do not hold
    exactly one suitably placed photon each."""
    sub = (occ[alice[0]], occ[alice[1]], occ[bob[0]], occ[bob[1]])
    if sub not in ((1, 0, 1, 0), (0, 1, 0, 1)):
        return None
    strip = set(alice) | set(bob)
    rest = tuple(x for i, x in enumerate(occ) if i not in strip)
    return rest


@_cached_matrix
def bell_witness(alice, bob, n):
    """Projector on the target Bell state of one pair, identity elsewhere."""
    states = basis(n)
    witness = np.zeros((len(states), len(states)))
    rests = [_pair_overlap(occ, alice, bob) for occ in states]
    for i, rest_i in enumerate(rests):
        if rest_i is None:
            continue
        for j, rest_j in enumerate(rests):
            if rest_j == rest_i:
                witness[i, j] = 0.5
    return witness


@_cached_matrix
def diagonal_basis_projector(spatial, sign, n):
    """|+/-><+/-| on the one-photon polarization of one spatial mode.

    Entry (i, j) is the product of the two states' amplitudes, 1/sqrt(2) for
    H and sign/sqrt(2) for V, where both hold one photon in the mode and agree
    on the other six modes; every other entry is zero.
    """
    h, v = spatial
    occ = np.array(basis(n))
    one_photon = occ[:, h] + occ[:, v] == 1
    amp = np.where(occ[:, h] == 1, 1.0, sign) / math.sqrt(2.0)
    rest = np.delete(occ, [h, v], axis=1)
    same_rest = (rest[:, None, :] == rest[None, :, :]).all(axis=2)
    support = one_photon[:, None] & one_photon[None, :] & same_rest
    return np.where(support, np.outer(amp, amp), 0.0)


@_cached_matrix
def phase_flip_matrix(spatial, n):
    return np.diag([(-1.0) ** occ[spatial[1]] for occ in basis(n)])


def four_photon_reference(r, phi, s):
    """Success probability and both output fidelities, all dense."""
    vec = two_pass_vector(r, phi, 2)
    rho = np.outer(vec, vec.conj())
    rho = depolarize(rho, A1, s, 4)
    rho = depolarize(rho, A2, s, 4)
    rho = both_pbs(rho, 4)
    proj = pattern_projector(frozenset(FOUR_MODE), 4)
    p = float(np.real(trace_of_product(proj, rho)))
    cond = proj @ rho @ proj / p
    f_upper = float(np.real(trace_of_product(bell_witness(A1, B1, 4), cond)))
    f_lower = float(np.real(trace_of_product(bell_witness(A2, B2, 4), cond)))
    return p, f_upper, f_lower


def two_photon_reference(r, phi, s):
    vec = two_pass_vector(r, phi, 1)
    rho = np.outer(vec, vec.conj())
    rho = depolarize(rho, A1, s, 2)
    rho = depolarize(rho, A2, s, 2)
    rho = both_pbs(rho, 2)
    proj_up = pattern_projector(frozenset(BOTH_UP), 2)
    proj_down = pattern_projector(frozenset(BOTH_DOWN), 2)
    p_up = float(np.real(trace_of_product(proj_up, rho)))
    p_down = float(np.real(trace_of_product(proj_down, rho)))
    weighted = trace_of_product(bell_witness(A1, B1, 2), proj_up @ rho @ proj_up)
    weighted += trace_of_product(bell_witness(A2, B2, 2), proj_down @ rho @ proj_down)
    return p_up + p_down, float(np.real(weighted)) / (p_up + p_down)


def independent_pairs_reference(s):
    vec = independent_pairs_vector()
    rho = np.outer(vec, vec.conj())
    rho = depolarize(rho, A1, s, 4)
    rho = depolarize(rho, A2, s, 4)
    rho = both_pbs(rho, 4)
    proj = pattern_projector(frozenset(FOUR_MODE), 4)
    p = float(np.real(trace_of_product(proj, rho)))
    cond = proj @ rho @ proj / p
    flip = phase_flip_matrix(A1, 4)
    kept = np.zeros_like(cond)
    for sign_a in (1.0, -1.0):
        for sign_b in (1.0, -1.0):
            meas = diagonal_basis_projector(A2, sign_a, 4) @ diagonal_basis_projector(B2, sign_b, 4)
            branch = meas @ cond @ meas.conj().T
            if sign_a != sign_b:
                branch = flip @ branch @ flip
            kept += branch
    return p, float(np.real(trace_of_product(bell_witness(A1, B1, 4), kept)))
