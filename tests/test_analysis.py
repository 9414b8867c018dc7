import itertools
import math

import numpy as np
import pytest

from pdcpurify import (
    BOTH_DOWN,
    BOTH_UP,
    FOUR_MODE,
    MODES,
    Mode,
    SourceParams,
    Side,
    SpatialMode,
    apply_pbs,
    create,
    depolarize_full,
    depolarize_partial,
    fidelity,
    independent_pairs_state,
    partial_trace,
    pattern,
    postselect,
    reduce_to_pair,
    schmidt,
    spatially_entangled_state,
    to_density,
    vacuum,
)
from helpers import ghz_state

ALICE_MODES = [m for m in MODES if m < Mode.B1H]
BOB_MODES = [m for m in MODES if m >= Mode.B1H]


def ket(*modes):
    state = vacuum()
    for mode in modes:
        state = create(mode, state)
    return state


def transmitted(state, s=1.0):
    rho = to_density(state)
    if s < 1.0:
        rho = depolarize_partial(rho, SpatialMode.A1, s)
        rho = depolarize_partial(rho, SpatialMode.A2, s)
    return apply_pbs(apply_pbs(rho, Side.ALICE), Side.BOB)


def all_patterns(sector):
    """Every spatial photon distribution of a fixed-photon-number sector."""
    return [
        pattern(combo)
        for combo in itertools.product(range(sector + 1), repeat=4)
        if sum(combo) == sector
    ]


def test_four_mode_probability_ideal_four_photons():
    rho = transmitted(spatially_entangled_state(SourceParams(r=1, phi=0, pairs=2)))
    probability, conditional = postselect(rho, FOUR_MODE)
    assert probability == pytest.approx(0.4, abs=1e-12)
    assert conditional is not None
    conditional.validate()
    assert conditional.trace() == pytest.approx(1.0, abs=1e-12)


def test_four_mode_probability_independent_pairs():
    probability, _ = postselect(transmitted(independent_pairs_state()), FOUR_MODE)
    assert probability == pytest.approx(0.5, abs=1e-12)


def test_two_photon_union_probability_ideal():
    rho = transmitted(spatially_entangled_state(SourceParams(r=1, phi=0, pairs=1)))
    probability, _ = postselect(rho, BOTH_UP | BOTH_DOWN)
    assert probability == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_returns_none():
    rho = to_density(spatially_entangled_state(SourceParams(r=1, phi=0, pairs=1)))
    probability, conditional = postselect(rho, FOUR_MODE)
    assert probability == 0.0
    assert conditional is None


def test_postselect_requires_normalized_input():
    rho = to_density(vacuum()).scaled(0.5)
    with pytest.raises(ValueError):
        postselect(rho, FOUR_MODE)


@pytest.mark.parametrize("s", [1.0, 0.4])
@pytest.mark.parametrize("pairs", [1, 2])
def test_exhaustive_patterns_sum_to_one(pairs, s):
    rho = transmitted(
        spatially_entangled_state(SourceParams(r=0.9, phi=0.3, pairs=pairs)), s
    )
    total = sum(postselect(rho, pat)[0] for pat in all_patterns(2 * pairs))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_reduce_ideal_conditional_gives_target_bell_pairs():
    rho = transmitted(spatially_entangled_state(SourceParams(r=1, phi=0, pairs=2)))
    _, conditional = postselect(rho, FOUR_MODE)
    target = np.zeros((4, 4), dtype=complex)
    target[0, 0] = target[0, 3] = target[3, 0] = target[3, 3] = 0.5
    np.testing.assert_allclose(reduce_to_pair(conditional, 1, 1), target, atol=1e-12)
    np.testing.assert_allclose(reduce_to_pair(conditional, 2, 2), target, atol=1e-12)


def test_reduce_fully_depolarized_pair():
    bell = (ket(Mode.A1H, Mode.B1H) + ket(Mode.A1V, Mode.B1V)).normalized()
    rho = depolarize_full(to_density(bell), SpatialMode.A1)
    np.testing.assert_allclose(reduce_to_pair(rho, 1, 1), np.eye(4) / 4, atol=1e-12)


def test_reduce_rejects_wrong_support():
    rho = to_density(ket(Mode.A1H, Mode.A1V))  # two photons in a1, none at Bob
    with pytest.raises(ValueError):
        reduce_to_pair(rho, 1, 1)


def test_fidelity_examples():
    psi_plus = np.zeros((4, 4), dtype=complex)
    psi_plus[0, 0] = psi_plus[0, 3] = psi_plus[3, 0] = psi_plus[3, 3] = 0.5
    assert fidelity(psi_plus) == pytest.approx(1.0)
    assert fidelity(np.eye(4) / 4) == pytest.approx(0.25)
    werner = 0.8 * psi_plus + 0.2 * np.eye(4) / 4
    assert fidelity(werner) == pytest.approx(0.85, abs=1e-12)


def test_fidelity_is_linear():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = a @ a.conj().T
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = b @ b.conj().T
    assert fidelity(0.3 * a + 0.7 * b) == pytest.approx(
        0.3 * fidelity(a) + 0.7 * fidelity(b), abs=1e-12
    )


def test_fidelity_invariant_under_global_hv_swap():
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho)
    swap = np.zeros((4, 4))
    swap[0, 3] = swap[3, 0] = swap[1, 2] = swap[2, 1] = 1.0  # HH<->VV, HV<->VH
    assert fidelity(swap @ rho @ swap) == pytest.approx(fidelity(rho), abs=1e-12)


@pytest.mark.parametrize(
    "pairs,count,entropy",
    [(1, 4, 2.0), (2, 10, math.log2(10))],
)
def test_schmidt_of_source_states(pairs, count, entropy):
    state = spatially_entangled_state(SourceParams(r=1, phi=0, pairs=pairs))
    coefficients, ebits = schmidt(state, ALICE_MODES, BOB_MODES)
    assert len(coefficients) == count
    np.testing.assert_allclose(coefficients, [1 / math.sqrt(count)] * count, atol=1e-10)
    assert ebits == pytest.approx(entropy, abs=1e-10)


def test_schmidt_of_ghz_like_state():
    coefficients, ebits = schmidt(ghz_state(), ALICE_MODES, BOB_MODES)
    assert len(coefficients) == 2
    assert ebits == pytest.approx(1.0, abs=1e-10)


def test_schmidt_product_state_has_zero_entropy():
    product = ket(Mode.A1H, Mode.B2V)
    _, ebits = schmidt(product, ALICE_MODES, BOB_MODES)
    assert ebits == pytest.approx(0.0, abs=1e-10)


def test_schmidt_invariant_under_local_beam_splitters():
    state = spatially_entangled_state(SourceParams(r=0.85, phi=0.6, pairs=2))
    _, before = schmidt(state, ALICE_MODES, BOB_MODES)
    _, after = schmidt(apply_pbs(state, Side.ALICE), ALICE_MODES, BOB_MODES)
    assert after == pytest.approx(before, abs=1e-10)


def test_schmidt_matches_reduced_eigenvalues():
    state = spatially_entangled_state(SourceParams(r=0.7, phi=1.2, pairs=2))
    coefficients, _ = schmidt(state, ALICE_MODES, BOB_MODES)
    reduced = partial_trace(to_density(state), ALICE_MODES)
    eigenvalues = sorted(reduced.eigenvalues(), reverse=True)[: len(coefficients)]
    np.testing.assert_allclose(
        [c * c for c in coefficients], eigenvalues, atol=1e-10
    )


def test_schmidt_requires_normalization_and_partition():
    state = spatially_entangled_state(SourceParams(pairs=1)).scaled(2.0)
    with pytest.raises(ValueError):
        schmidt(state, ALICE_MODES, BOB_MODES)
    good = spatially_entangled_state(SourceParams(pairs=1))
    with pytest.raises(ValueError):
        schmidt(good, ALICE_MODES[:-1], BOB_MODES)
    with pytest.raises(ValueError):
        schmidt(good, ALICE_MODES + [Mode.B1H], BOB_MODES)
