"""Dense-matrix reference pipeline used as an independent oracle in tests.

Everything works on explicit matrices over full fixed-photon-number
occupation bases and deliberately shares no code with the package under
test: creation operators are rectangular sector-raising matrices, the
depolarizing channel is applied in Kraus form (each Kraus operator a scaled
partial permutation between the blocks of two H/V splits, applied by
re-indexing those blocks), the beam splitters are basis
permutations, post-selection uses diagonal projectors and fidelities come
from witness operators, each seen through its pattern's projector.

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
def split_blocks(spatial, n):
    """The basis states grouped for the fully depolarizing channel on one
    spatial mode.

    For each photon count ntot in the mode, one read-only index array per
    (H, V) split (k, ntot - k), listing the states with that split in the
    order of the other six modes' occupations, which is the same for every
    split.  The channel's Kraus operator that moves split kp to split k is
    1/sqrt(ntot + 1) times the partial permutation taking array kp onto
    array k.
    """
    h, v = spatial
    groups = {}
    for i, occ in enumerate(basis(n)):
        ntot = occ[h] + occ[v]
        groups.setdefault(ntot, [[] for _ in range(ntot + 1)])[occ[h]].append(i)
    blocks = []
    for ntot in sorted(groups):
        splits = tuple(np.array(indices) for indices in groups[ntot])
        for indices in splits:
            indices.flags.writeable = False
        blocks.append(splits)
    return tuple(blocks)


def depolarize(rho, spatial, s, n):
    """s rho + (1 - s) sum_K K rho K^T over the channel's Kraus operators K.

    Every K of one photon count, moving split kp to split k, adds rho's
    (kp, kp) block / (ntot + 1) to the (k, k) block, so each (k, k) block
    gets the same sum over kp: it is read once per kp and added once per k.
    """
    out = s * rho
    for splits in split_blocks(spatial, n):
        mixed = 0
        for indices in splits:
            mixed = mixed + rho[np.ix_(indices, indices)] / len(splits)
        mixed = (1.0 - s) * mixed
        for indices in splits:
            out[np.ix_(indices, indices)] += mixed
    return out


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


@_cached_matrix
def both_pbs_permutation(n):
    """Alice's permutation, then Bob's, as one index array: re-indexing by
    it is re-indexing by each in turn."""
    return pbs_permutation("alice", n)[pbs_permutation("bob", n)]


def both_pbs(rho, n):
    """P rho P^T for both sides' permutations P, taken as one re-indexing."""
    perm = both_pbs_permutation(n)
    return rho[np.ix_(perm, perm)]


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
def selected_bell_witness(patterns, alice, bob, n):
    """One pair's Bell witness seen through a pattern's selection, P W P.

    Its trace against the transmitted state is the witness sum of the
    selected state, Tr(W P rho P) = Tr(P W P rho), so a call forms no
    product of the state.  It depends on no run parameter, so it is built
    once.
    """
    proj = pattern_projector(patterns, n)
    return proj @ bell_witness(alice, bob, n) @ proj


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
    pattern = frozenset(FOUR_MODE)
    p = float(np.real(trace_of_product(pattern_projector(pattern, 4), rho)))
    f_upper = trace_of_product(selected_bell_witness(pattern, A1, B1, 4), rho)
    f_lower = trace_of_product(selected_bell_witness(pattern, A2, B2, 4), rho)
    return p, float(np.real(f_upper)) / p, float(np.real(f_lower)) / p


def two_photon_reference(r, phi, s):
    vec = two_pass_vector(r, phi, 1)
    rho = np.outer(vec, vec.conj())
    rho = depolarize(rho, A1, s, 2)
    rho = depolarize(rho, A2, s, 2)
    rho = both_pbs(rho, 2)
    up, down = frozenset(BOTH_UP), frozenset(BOTH_DOWN)
    p_up = float(np.real(trace_of_product(pattern_projector(up, 2), rho)))
    p_down = float(np.real(trace_of_product(pattern_projector(down, 2), rho)))
    weighted = trace_of_product(selected_bell_witness(up, A1, B1, 2), rho)
    weighted += trace_of_product(selected_bell_witness(down, A2, B2, 2), rho)
    return p_up + p_down, float(np.real(weighted)) / (p_up + p_down)


@_cached_matrix
def measured_out_witness(n):
    """The (a1, b1) Bell witness seen through the four-mode selection and the
    45-degree measure-out, as one map on the transmitted state.

    Each outcome branch measures (a2, b2) with G = M, or G = F M where the
    outcomes differ (F the phase flip on a1), so its witness sum is
    Tr(W G P rho P G^dagger) = Tr(P G^dagger W G P rho); the map is the sum
    of P G^dagger W G P over the four branches.  It depends on no parameter,
    so it is built once.
    """
    proj = pattern_projector(frozenset(FOUR_MODE), n)
    flip = phase_flip_matrix(A1, n)
    witness = bell_witness(A1, B1, n)
    pulled_back = np.zeros_like(witness)
    for sign_a in (1.0, -1.0):
        for sign_b in (1.0, -1.0):
            meas = diagonal_basis_projector(A2, sign_a, n)
            meas = meas @ diagonal_basis_projector(B2, sign_b, n)
            if sign_a != sign_b:
                meas = flip @ meas
            pulled_back += meas.conj().T @ witness @ meas
    return proj @ pulled_back @ proj


def independent_pairs_reference(s):
    vec = independent_pairs_vector()
    rho = np.outer(vec, vec.conj())
    rho = depolarize(rho, A1, s, 4)
    rho = depolarize(rho, A2, s, 4)
    rho = both_pbs(rho, 4)
    proj = pattern_projector(frozenset(FOUR_MODE), 4)
    p = float(np.real(trace_of_product(proj, rho)))
    weighted = float(np.real(trace_of_product(measured_out_witness(4), rho)))
    return p, weighted / p
