import numpy as np
import pytest

from pdcpurify import (
    BOTH_DOWN,
    BOTH_UP,
    ChannelParams,
    DensityOperator,
    Mode,
    Side,
    SourceParams,
    SpatialMode,
    apply_pbs,
    create,
    depolarize_full,
    depolarize_partial,
    fidelity,
    postselect,
    reduce_to_pair,
    spatially_entangled_state,
    to_density,
    vacuum,
)
from helpers import inject_bitflip


def ket(*modes):
    state = vacuum()
    for mode in modes:
        state = create(mode, state)
    return state


def projector(*modes):
    return to_density(ket(*modes))


def source_density(r=1.0, phi=0.0, pairs=1):
    return to_density(spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=pairs)))


def test_vacuum_component_unchanged():
    rho = to_density(vacuum())
    assert depolarize_full(rho, SpatialMode.A1).allclose(rho, tol=1e-14)


def test_one_photon_component_rule():
    out = depolarize_full(projector(Mode.A1H), SpatialMode.A1)
    expected = projector(Mode.A1H).scaled(0.5) + projector(Mode.A1V).scaled(0.5)
    assert out.allclose(expected, tol=1e-14)


def test_two_photon_component_rule():
    out = depolarize_full(projector(Mode.A1H, Mode.A1H), SpatialMode.A1)
    expected = (
        projector(Mode.A1H, Mode.A1H).scaled(1 / 3)
        + projector(Mode.A1H, Mode.A1V).scaled(1 / 3)
        + projector(Mode.A1V, Mode.A1V).scaled(1 / 3)
    )
    assert out.allclose(expected, tol=1e-14)


def test_off_diagonal_elements_erased():
    plus = (ket(Mode.A1H) + ket(Mode.A1V)).normalized()
    out = depolarize_full(to_density(plus), SpatialMode.A1)
    assert all(k == b for (k, b) in out.entries)
    # coherence between one photon in a1 and one in a2 dies as well
    spatial = (ket(Mode.A1H) + ket(Mode.A2H)).normalized()
    out = depolarize_full(to_density(spatial), SpatialMode.A1)
    assert ((1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0)) not in out.entries


def test_full_depolarization_is_idempotent():
    rho = source_density(pairs=2)
    once = depolarize_full(rho, SpatialMode.A1)
    twice = depolarize_full(once, SpatialMode.A1)
    assert twice.allclose(once, tol=1e-12)


@pytest.mark.parametrize("s", [0.0, 0.3, 0.7, 1.0])
def test_channel_preserves_trace_and_positivity(s):
    rho = source_density(pairs=2)
    out = depolarize_partial(rho, SpatialMode.A1, s)
    assert out.trace() == pytest.approx(rho.trace(), abs=1e-12)
    out.validate()


def test_partial_endpoints():
    rho = source_density()
    assert depolarize_partial(rho, SpatialMode.A2, 1.0).allclose(rho, tol=1e-14)
    assert depolarize_partial(rho, SpatialMode.A2, 0.0).allclose(
        depolarize_full(rho, SpatialMode.A2), tol=1e-14
    )


def test_partial_is_affine_in_s():
    rho = source_density()
    s = 0.35
    lo = depolarize_partial(rho, SpatialMode.A1, 0.0)
    hi = depolarize_partial(rho, SpatialMode.A1, 1.0)
    expected = hi.scaled(s) + lo.scaled(1.0 - s)
    assert depolarize_partial(rho, SpatialMode.A1, s).allclose(expected, tol=1e-13)


def test_out_of_range_s_rejected():
    rho = source_density()
    with pytest.raises(ValueError):
        depolarize_partial(rho, SpatialMode.A1, 1.5)
    with pytest.raises(ValueError):
        depolarize_partial(rho, SpatialMode.A1, -0.1)


def test_channels_on_distinct_modes_commute():
    rho = source_density(r=0.9, phi=0.4)
    a_then_b = depolarize_partial(
        depolarize_partial(rho, SpatialMode.A1, 0.6), SpatialMode.A2, 0.6
    )
    b_then_a = depolarize_partial(
        depolarize_partial(rho, SpatialMode.A2, 0.6), SpatialMode.A1, 0.6
    )
    assert a_then_b.allclose(b_then_a, tol=1e-12)


def _dephase_photon_number(rho, target):
    """Kill coherence between different photon totals of one spatial mode."""
    h, v = target.horizontal, target.vertical
    kept = {
        (k, b): val
        for (k, b), val in rho.entries.items()
        if k[h] + k[v] == b[h] + b[v]
    }
    return DensityOperator(kept, rho.modes)


def test_channel_commutes_with_photon_number_measurement():
    rho = source_density(r=0.8, phi=0.2)  # has cross-number coherences on a1
    s = 0.4
    left = _dephase_photon_number(
        depolarize_partial(rho, SpatialMode.A1, s), SpatialMode.A1
    )
    right = depolarize_partial(
        _dephase_photon_number(rho, SpatialMode.A1), SpatialMode.A1, s
    )
    assert left.allclose(right, tol=1e-13)
    full = depolarize_full(rho, SpatialMode.A1)
    assert full.allclose(_dephase_photon_number(full, SpatialMode.A1), tol=1e-14)


@pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.8, 1.0])
def test_single_pair_werner_fidelity(s):
    # Bell pair between a1 and b1, noise on Alice's side only
    bell = (ket(Mode.A1H, Mode.B1H) + ket(Mode.A1V, Mode.B1V)).normalized()
    rho = depolarize_partial(to_density(bell), SpatialMode.A1, s)
    assert fidelity(reduce_to_pair(rho, 1, 1)) == pytest.approx(
        (1.0 + 3.0 * s) / 4.0, abs=1e-12
    )


def test_fully_depolarized_pair_is_maximally_mixed():
    bell = (ket(Mode.A1H, Mode.B1H) + ket(Mode.A1V, Mode.B1V)).normalized()
    rho = depolarize_full(to_density(bell), SpatialMode.A1)
    np.testing.assert_allclose(reduce_to_pair(rho, 1, 1), np.eye(4) / 4.0, atol=1e-12)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(1.2, (SpatialMode.A1,))
    with pytest.raises(ValueError):
        ChannelParams(0.5, ())
    with pytest.raises(ValueError):
        ChannelParams(0.5, (SpatialMode.A1, SpatialMode.A1))


def test_channel_params_apply_matches_sequential():
    rho = source_density(pairs=2)
    params = ChannelParams(0.7, (SpatialMode.A1, SpatialMode.A2))
    expected = depolarize_partial(
        depolarize_partial(rho, SpatialMode.A1, 0.7), SpatialMode.A2, 0.7
    )
    assert params.apply(rho).allclose(expected, tol=1e-13)


def test_bitflip_single_photon():
    assert inject_bitflip(ket(Mode.A1H), SpatialMode.A1).amplitudes == ket(
        Mode.A1V
    ).amplitudes


def test_bitflip_is_involutive_and_unitary():
    state = spatially_entangled_state(SourceParams(r=0.9, phi=0.5, pairs=2))
    flipped = inject_bitflip(state, SpatialMode.B2)
    assert flipped.norm() == pytest.approx(1.0, abs=1e-12)
    back = inject_bitflip(flipped, SpatialMode.B2)
    assert back.amplitudes == state.amplitudes


def test_flipped_upper_component_never_passes_selection():
    # a flipped photon always exits on the opposite level from its partner
    upper_only = spatially_entangled_state(SourceParams(r=0, phi=0, pairs=1))
    flipped = inject_bitflip(upper_only, SpatialMode.A1)
    rho = to_density(apply_pbs(apply_pbs(flipped, Side.ALICE), Side.BOB))
    probability, conditional = postselect(rho, BOTH_UP | BOTH_DOWN)
    assert probability <= 1e-12
    assert conditional is None
