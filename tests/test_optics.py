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
    inner_product,
    spatially_entangled_state,
    to_density,
    vacuum,
)
from pdcpurify.fock import spatial_totals


def ket(*modes):
    state = vacuum()
    for mode in modes:
        state = create(mode, state)
    return state


def both_pbs(state):
    return apply_pbs(apply_pbs(state, Side.ALICE), Side.BOB)


def rotate_polarization(state, target):
    """Rotate the polarization basis of one spatial mode by 45 degrees.

    Maps H -> (H + V)/sqrt(2), V -> (H - V)/sqrt(2) on the creation operators
    of the target mode: self-inverse (Hadamard-type) and turns phase flips
    into bit flips.
    """
    h, v = target.horizontal, target.vertical
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
            seed = (create(h, seed) + create(v, seed)).scaled(1 / math.sqrt(2))
        for _ in range(nv):
            seed = (create(h, seed) - create(v, seed)).scaled(1 / math.sqrt(2))
        result = seed if result is None else result + seed
    return state if result is None else result


def test_single_photon_mapping():
    assert apply_pbs(ket(Mode.A1H), Side.ALICE).amplitudes == ket(Mode.A2H).amplitudes
    assert apply_pbs(ket(Mode.A1V), Side.ALICE).amplitudes == ket(Mode.A1V).amplitudes
    assert apply_pbs(ket(Mode.B2H), Side.BOB).amplitudes == ket(Mode.B1H).amplitudes


@pytest.mark.parametrize("pairs", [1, 2])
def test_ideal_source_state_is_invariant(pairs):
    state = spatially_entangled_state(SourceParams(r=1, phi=0, pairs=pairs))
    overlap = inner_product(both_pbs(state), state)
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_pbs_is_involutive():
    state = spatially_entangled_state(SourceParams(r=0.8, phi=1.1, pairs=2))
    again = apply_pbs(apply_pbs(state, Side.ALICE), Side.ALICE)
    assert again.amplitudes == state.amplitudes


def test_pbs_preserves_inner_products():
    x = spatially_entangled_state(SourceParams(r=0.7, phi=0.3, pairs=2))
    y = spatially_entangled_state(SourceParams(r=0.9, phi=2.0, pairs=2))
    before = inner_product(x, y)
    after = inner_product(apply_pbs(x, Side.ALICE), apply_pbs(y, Side.ALICE))
    assert after == pytest.approx(before, abs=1e-12)


def test_pbs_sides_commute():
    state = spatially_entangled_state(SourceParams(r=0.6, phi=0.9, pairs=2))
    ab = apply_pbs(apply_pbs(state, Side.ALICE), Side.BOB)
    ba = apply_pbs(apply_pbs(state, Side.BOB), Side.ALICE)
    assert ab.amplitudes == ba.amplitudes


def test_pbs_acts_on_density_operators_too():
    state = spatially_entangled_state(SourceParams(r=1, phi=0, pairs=1))
    rho = apply_pbs(apply_pbs(to_density(state), Side.ALICE), Side.BOB)
    assert rho.allclose(to_density(state), tol=1e-12)


def test_pbs_permutes_sector_basis_bijectively():
    # photon-number preserving permutation; pattern multiplicities survive
    sector = [occ for occ in itertools.product(range(3), repeat=8) if sum(occ) == 2]
    images = []
    counts_before: dict = {}
    counts_after: dict = {}
    for occ in sector:
        (image,) = apply_pbs(PureState({occ: 1.0}), Side.ALICE).amplitudes
        images.append(image)
        counts_before[spatial_totals(occ)] = counts_before.get(spatial_totals(occ), 0) + 1
        counts_after[spatial_totals(image)] = counts_after.get(spatial_totals(image), 0) + 1
    assert len(set(images)) == len(sector)
    assert counts_before == counts_after


def test_rotation_of_single_photon():
    out = rotate_polarization(ket(Mode.A1H), SpatialMode.A1)
    expected = (ket(Mode.A1H) + ket(Mode.A1V)).scaled(1 / math.sqrt(2))
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
    phase_flipped = (ket(Mode.A1H, Mode.B1H) - ket(Mode.A1V, Mode.B1V)).normalized()
    rotated = rotate_polarization(
        rotate_polarization(phase_flipped, SpatialMode.A1), SpatialMode.B1
    )
    bit_flipped = (ket(Mode.A1H, Mode.B1V) + ket(Mode.A1V, Mode.B1H)).normalized()
    assert abs(inner_product(rotated, bit_flipped)) == pytest.approx(1.0, abs=1e-12)
