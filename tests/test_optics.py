import itertools
import math

import pytest

from pdcpurify import (
    Mode,
    PureState,
    SourceParams,
    Side,
    SpatialMode,
    apply_pbs,
    create,
    spatially_entangled_state,
    to_density,
)
from helpers import (
    FLIP,
    SPATIAL_SWAP,
    allclose,
    inner_product,
    ket,
    spatial_totals,
    superposed,
)


def both_pbs(rho):
    return apply_pbs(apply_pbs(rho, Side.ALICE), Side.BOB)


def overlap(x, y):
    """Tr(x y) of two density operators: |<psi|phi>|^2 for pure states."""
    return sum(v * y.entries.get((b, k), 0.0) for (k, b), v in x.entries.items())


def pbs_image(occ, side):
    """The basis state that one side's PBS sends ``occ`` to."""
    ((image, _),) = apply_pbs(to_density(PureState({occ: 1.0})), side).entries
    return image


def rotate_polarization(state, target):
    """Rotate the polarization basis of one spatial mode by 45 degrees.

    Maps H -> (H + V)/sqrt(2), V -> (H - V)/sqrt(2) on the creation operators
    of the target mode: self-inverse (Hadamard-type) and turns phase flips
    into bit flips.
    """
    h, v = target.value
    result = None
    for occ, amp in state.amplitudes.items():
        nh, nv = occ[h], occ[v]
        stripped = list(occ)
        stripped[h] = 0
        stripped[v] = 0
        seed = PureState(
            {tuple(stripped): amp / math.sqrt(math.factorial(nh) * math.factorial(nv))},
            sector=state.sector - nh - nv,
        )
        # rebuild the target-mode photons with rotated creation operators
        for _ in range(nh):
            seed = superposed(create(h, seed), create(v, seed)).scaled(1 / math.sqrt(2))
        for _ in range(nv):
            minus_v = create(v, seed).scaled(-1.0)
            seed = superposed(create(h, seed), minus_v).scaled(1 / math.sqrt(2))
        result = seed if result is None else superposed(result, seed)
    return state if result is None else result


def test_single_photon_mapping():
    def sent(mode, side):
        return apply_pbs(to_density(ket(mode)), side).entries

    assert sent(Mode.A1H, Side.ALICE) == to_density(ket(Mode.A2H)).entries
    assert sent(Mode.A1V, Side.ALICE) == to_density(ket(Mode.A1V)).entries
    assert sent(Mode.B2H, Side.BOB) == to_density(ket(Mode.B1H)).entries


@pytest.mark.parametrize("pairs", [1, 2])
def test_ideal_source_state_is_invariant(pairs):
    rho = to_density(spatially_entangled_state(SourceParams(r=1, phi=0, pairs=pairs)))
    assert overlap(both_pbs(rho), rho) == pytest.approx(1.0, abs=1e-12)


def test_pbs_is_involutive():
    rho = to_density(spatially_entangled_state(SourceParams(r=0.8, phi=1.1, pairs=2)))
    again = apply_pbs(apply_pbs(rho, Side.ALICE), Side.ALICE)
    assert again.entries == rho.entries


def test_pbs_preserves_inner_products():
    x = to_density(spatially_entangled_state(SourceParams(r=0.7, phi=0.3, pairs=2)))
    y = to_density(spatially_entangled_state(SourceParams(r=0.9, phi=2.0, pairs=2)))
    before = overlap(x, y)
    after = overlap(apply_pbs(x, Side.ALICE), apply_pbs(y, Side.ALICE))
    assert after == pytest.approx(before, abs=1e-12)


def test_pbs_sides_commute():
    rho = to_density(spatially_entangled_state(SourceParams(r=0.6, phi=0.9, pairs=2)))
    ab = apply_pbs(apply_pbs(rho, Side.ALICE), Side.BOB)
    ba = apply_pbs(apply_pbs(rho, Side.BOB), Side.ALICE)
    assert ab.entries == ba.entries


def test_pbs_acts_on_density_operators_too():
    state = spatially_entangled_state(SourceParams(r=1, phi=0, pairs=1))
    rho = apply_pbs(apply_pbs(to_density(state), Side.ALICE), Side.BOB)
    assert allclose(rho, to_density(state), tol=1e-12)


def test_pbs_permutes_sector_basis_bijectively():
    # photon-number preserving permutation; pattern multiplicities survive
    sector = [occ for occ in itertools.product(range(3), repeat=8) if sum(occ) == 2]
    images = []
    counts_before: dict = {}
    counts_after: dict = {}
    for occ in sector:
        image = pbs_image(occ, Side.ALICE)
        images.append(image)
        counts_before[spatial_totals(occ)] = counts_before.get(spatial_totals(occ), 0) + 1
        counts_after[spatial_totals(image)] = counts_after.get(spatial_totals(image), 0) + 1
    assert len(set(images)) == len(sector)
    assert counts_before == counts_after


def test_rotation_of_single_photon():
    out = rotate_polarization(ket(Mode.A1H), SpatialMode.A1)
    expected = superposed(ket(Mode.A1H), ket(Mode.A1V)).scaled(1 / math.sqrt(2))
    assert inner_product(out, expected) == pytest.approx(1.0, abs=1e-12)


def test_rotation_is_self_inverse():
    state = spatially_entangled_state(SourceParams(r=0.9, phi=0.7, pairs=2))
    twice = rotate_polarization(
        rotate_polarization(state, SpatialMode.B1), SpatialMode.B1
    )
    assert inner_product(twice, state) == pytest.approx(1.0, abs=1e-12)


def test_rotation_is_unitary():
    state = spatially_entangled_state(SourceParams(r=0.85, phi=1.9, pairs=2))
    assert rotate_polarization(state, SpatialMode.A2).norm() == pytest.approx(
        1.0, abs=1e-12
    )


def test_rotation_preserves_target_photon_count():
    state = spatially_entangled_state(SourceParams(r=1, phi=0, pairs=2))
    rotated = rotate_polarization(state, SpatialMode.A1)
    totals_before = {spatial_totals(occ)[0] for occ in state.amplitudes}
    totals_after = {spatial_totals(occ)[0] for occ in rotated.amplitudes}
    assert totals_after == totals_before


def test_rotation_turns_phase_flip_into_bit_flip():
    phase_flipped = superposed(
        ket(Mode.A1H, Mode.B1H), ket(Mode.A1V, Mode.B1V).scaled(-1.0)
    ).normalized()
    rotated = rotate_polarization(
        rotate_polarization(phase_flipped, SpatialMode.A1), SpatialMode.B1
    )
    bit_flipped = superposed(ket(Mode.A1H, Mode.B1V), ket(Mode.A1V, Mode.B1H)).normalized()
    assert abs(inner_product(rotated, bit_flipped)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("side", list(Side))
def test_flipped_pbs_is_the_spatial_swap_after_it(side):
    """F PBS F = S PBS as maps of mode indices: sent through the PBS, the
    occupation tuple (0, 1, ..., 7) reads off the permutation it applies."""

    labels = tuple(range(8))
    image = pbs_image(labels, side)
    assert image != labels
    assert FLIP(pbs_image(FLIP(labels), side)) == SPATIAL_SWAP[side](image)


@pytest.mark.parametrize("side", ["alice", "bob", None, 0, SpatialMode.A1])
def test_pbs_rejects_anything_but_a_side(side):
    rho = to_density(PureState({(1, 0, 0, 0, 0, 0, 0, 0): 1.0}))
    with pytest.raises(ValueError, match="side"):
        apply_pbs(rho, side)
