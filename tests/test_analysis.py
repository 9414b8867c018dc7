import itertools
import math
from decimal import Decimal

import numpy as np
import pytest

from pdcpurify import (
    BOTH_DOWN,
    BOTH_UP,
    FOUR_MODE,
    DensityOperator,
    MODES,
    Mode,
    SourceParams,
    Side,
    SpatialMode,
    apply_pbs,
    depolarize_partial,
    independent_pairs_state,
    schmidt,
    spatially_entangled_state,
    to_density,
)
from pdcpurify import analysis
from pdcpurify.optics import _PBS
from helpers import (
    depolarize_full,
    fidelity,
    ghz_state,
    ket,
    map_basis,
    numpy_schmidt,
    pair_fidelity,
    postselect,
    project,
    reduce_to_pair,
    reduced_density_matrix,
    scaled,
    superposed,
    validate,
)

ALICE_MODES = [m for m in MODES if m < Mode.B1H]
BOB_MODES = [m for m in MODES if m >= Mode.B1H]


def transmitted(state, s=1.0):
    rho = to_density(state)
    if s < 1.0:
        rho = depolarize_partial(rho, SpatialMode.A1, s)
        rho = depolarize_partial(rho, SpatialMode.A2, s)
    return apply_pbs(apply_pbs(rho, Side.ALICE), Side.BOB)


def all_patterns(sector):
    """Every spatial photon distribution of a fixed-photon-number sector."""
    return [
        frozenset({combo})
        for combo in itertools.product(range(sector + 1), repeat=4)
        if sum(combo) == sector
    ]


def test_four_mode_probability_ideal_four_photons():
    rho = transmitted(spatially_entangled_state(SourceParams(r=1, phi=0, pairs=2)))
    probability, conditional = postselect(rho, FOUR_MODE)
    assert probability == pytest.approx(0.4, abs=1e-12)
    assert conditional is not None
    validate(conditional)
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


@pytest.mark.parametrize("factor", [0.5, 0.3])
def test_project_is_linear_and_accepts_subnormalized_input(factor):
    rho = transmitted(
        spatially_entangled_state(SourceParams(r=0.9, phi=0.3, pairs=2)), 0.4
    )
    kept = project(scaled(rho, factor), FOUR_MODE)  # input trace: factor < 1
    full = project(rho, FOUR_MODE)
    assert kept.entries == scaled(full, factor).entries
    assert kept.trace() == pytest.approx(factor * full.trace(), abs=1e-15)


@pytest.mark.parametrize(
    "selection",
    [{(1, 1, 1)}, {(1, 1, 1, 1, 0)}, {(1, 1, 1, -1)}, {(1.0, 1, 1, 1)},
     {(True, 1, 1, 1)}, [[1, 1, 1, 1]], (1, 1, 1, 1), FOUR_MODE | {(1, 1, 1)},
     iter([(1, 1, 1, 1), [1, 1, 1, 1]])],
    ids=["three", "five", "negative", "float", "bool", "list", "bare-tuple", "mixed",
         "one-shot"],
)
def test_postselect_rejects_malformed_patterns(selection):
    """A pattern that cannot be a photon count per spatial mode is refused,
    not silently left unmatched."""
    rho = transmitted(spatially_entangled_state(SourceParams(r=1, phi=0, pairs=2)))
    with pytest.raises(ValueError, match="selection") as raised:
        project(rho, selection)
    if selection == (1, 1, 1, 1):  # one pattern, read as four: name it as read
        assert "got 1 in (1, 1, 1, 1) (a single pattern must be wrapped in a set)" in str(
            raised.value
        )


@pytest.mark.parametrize(
    "selection",
    [lambda: (p for p in [(1, 1, 1, 1)]), lambda: iter([(1, 1, 1, 1)])],
    ids=["generator", "iterator"],
)
def test_project_reads_the_selection_once(selection):
    """A one-shot iterable selects what the frozenset does; validating it used
    to use it up, so every entry was dropped."""
    rho = transmitted(
        spatially_entangled_state(SourceParams(r=0.9, phi=0.3, pairs=2)), 0.4
    )
    kept = project(rho, selection())
    assert kept.entries == project(rho, FOUR_MODE).entries
    assert kept.trace() > 0.1


@pytest.mark.parametrize("s", [1.0, 0.4])
@pytest.mark.parametrize("pairs", [1, 2])
def test_exhaustive_patterns_sum_to_one(pairs, s):
    rho = transmitted(
        spatially_entangled_state(SourceParams(r=0.9, phi=0.3, pairs=pairs)), s
    )
    total = sum(project(rho, pat).trace() for pat in all_patterns(2 * pairs))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_reduce_ideal_conditional_gives_target_bell_pairs():
    rho = transmitted(spatially_entangled_state(SourceParams(r=1, phi=0, pairs=2)))
    _, conditional = postselect(rho, FOUR_MODE)
    target = np.zeros((4, 4), dtype=complex)
    target[0, 0] = target[0, 3] = target[3, 0] = target[3, 3] = 0.5
    np.testing.assert_allclose(reduce_to_pair(conditional, 1, 1), target, atol=1e-12)
    np.testing.assert_allclose(reduce_to_pair(conditional, 2, 2), target, atol=1e-12)


def test_reduce_fully_depolarized_pair():
    bell = superposed(ket(Mode.A1H, Mode.B1H), ket(Mode.A1V, Mode.B1V)).normalized()
    rho = depolarize_full(to_density(bell), SpatialMode.A1)
    np.testing.assert_allclose(reduce_to_pair(rho, 1, 1), np.eye(4) / 4, atol=1e-12)


def test_reduce_rejects_wrong_support():
    rho = to_density(ket(Mode.A1H, Mode.A1V))  # two photons in a1, none at Bob
    with pytest.raises(ValueError):
        reduce_to_pair(rho, 1, 1)
    with pytest.raises(ValueError, match="one photon"):
        pair_fidelity(rho, SpatialMode.A1, SpatialMode.B1)
    with pytest.raises(ValueError, match="two spatial modes"):
        pair_fidelity(rho, SpatialMode.A1, SpatialMode.A1)
    # the pair must be named by two SpatialModes
    for bad in ("a1", Side.ALICE, Mode.A1H):
        with pytest.raises(ValueError, match="alice"):
            pair_fidelity(rho, bad, SpatialMode.B1)
        with pytest.raises(ValueError, match="bob"):
            pair_fidelity(rho, SpatialMode.A1, bad)
    # the bra is checked too, whatever the ket holds (HH or HV here)
    bad = (1, 1, 0, 0, 0, 0, 0, 0)
    for good in ((1, 0, 0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 1, 0, 0)):
        op = DensityOperator({(good, bad): 0.5})
        with pytest.raises(ValueError, match="one photon"):
            pair_fidelity(op, SpatialMode.A1, SpatialMode.B1)


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
    assert math.copysign(1.0, ebits) == 1.0  # +0.0, not -0.0


def test_schmidt_invariant_under_local_beam_splitters():
    state = spatially_entangled_state(SourceParams(r=0.85, phi=0.6, pairs=2))
    # the PBS relabels basis states: the ket it sends ``state`` to is ``state``
    # relabeled by the permutation that ``apply_pbs`` applies to its density
    sent = map_basis(state, _PBS[Side.ALICE])
    assert to_density(sent).entries == apply_pbs(to_density(state), Side.ALICE).entries
    _, before = schmidt(state, ALICE_MODES, BOB_MODES)
    _, after = schmidt(sent, ALICE_MODES, BOB_MODES)
    assert after == pytest.approx(before, abs=1e-10)


def test_schmidt_matches_reduced_eigenvalues():
    state = spatially_entangled_state(SourceParams(r=0.7, phi=1.2, pairs=2))
    coefficients, _ = schmidt(state, ALICE_MODES, BOB_MODES)
    reduced = reduced_density_matrix(state, ALICE_MODES)
    eigenvalues = sorted(np.linalg.eigvalsh(reduced), reverse=True)[: len(coefficients)]
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


@pytest.mark.parametrize(
    "modes", [None, 0.5, True, Decimal("0.5")], ids=["none", "float", "bool", "decimal"]
)
def test_schmidt_refuses_a_mode_set_that_is_not_iterable(modes):
    """Each used to escape as ``TypeError: ... object is not iterable``."""
    good = spatially_entangled_state(SourceParams(pairs=1))
    for name, call in (
        ("alice_modes", lambda: schmidt(good, modes, BOB_MODES)),
        ("bob_modes", lambda: schmidt(good, ALICE_MODES, modes)),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an iterable of Modes, got"):
            call()


def random_matrices(count, seed):
    """Seeded complex matrices of 1-10 rows and 1-10 columns; every third one
    is a product through a narrower inner dimension, so rank deficient."""
    rng = np.random.default_rng(seed)

    def gaussian(rows, cols):
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))

    for k in range(count):
        rows, cols = (int(n) for n in rng.integers(1, 11, size=2))
        if k % 3 == 0:
            rank = int(rng.integers(0, min(rows, cols)))
            yield gaussian(rows, rank) @ gaussian(rank, cols)
        else:
            yield gaussian(rows, cols)


def test_singular_values_match_numpy_on_random_matrices():
    for matrix in random_matrices(300, seed=12):
        got = analysis._singular_values(matrix.tolist())
        expected = np.linalg.svd(matrix, compute_uv=False)
        assert len(got) == len(expected) == min(matrix.shape)
        assert got == sorted(got, reverse=True)
        scale = max(expected[0], np.finfo(float).tiny)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * scale)


def test_singular_values_raise_when_the_sweeps_run_out(monkeypatch):
    """One sweep rotates the two columns; only a second could confirm that
    they are orthogonal, so with one allowed nothing is returned."""
    monkeypatch.setattr(analysis, "_MAX_SWEEPS", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        analysis._singular_values([[1 + 0j, 1 + 0j], [0j, 1 + 0j]])


SCHMIDT_R = [0.0, 1e-9, 1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.999, 1.0]
SCHMIDT_PHI = [0.0, 0.4, 1.0, math.acos(0.95), 2.0, math.pi - 1e-9, math.pi, 4.0, 6.2]


#: Alice|Bob, H|V and upper|lower: the last two give amplitude matrices with
#: parallel columns (zero singular values), on which the Jacobi sweeps used
#: not to converge
SCHMIDT_CUTS = [
    (ALICE_MODES, BOB_MODES),
    ([Mode.A1H, Mode.A2H, Mode.B1H, Mode.B2H], [Mode.A1V, Mode.A2V, Mode.B1V, Mode.B2V]),
    ([Mode.A1H, Mode.A1V, Mode.B1H, Mode.B1V], [Mode.A2H, Mode.A2V, Mode.B2H, Mode.B2V]),
]


@pytest.mark.parametrize("pairs", [1, 2])
def test_schmidt_matches_numpy_svd_on_the_source_grid(pairs):
    grid = itertools.product(SCHMIDT_CUTS, SCHMIDT_R, SCHMIDT_PHI)
    for (alice, bob), r, phi in grid:
        state = spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=pairs))
        coefficients, ebits = schmidt(state, alice, bob)
        expected, expected_ebits = numpy_schmidt(state, alice, bob)
        assert len(coefficients) == len(expected), (alice, r, phi)
        np.testing.assert_allclose(coefficients, expected, rtol=0, atol=1e-14)
        assert ebits == pytest.approx(expected_ebits, rel=0, abs=1e-14)
