from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdcpurify import (
    BOTH_DOWN,
    BOTH_UP,
    DensityOperator,
    Mode,
    ProtocolKind,
    PureState,
    Side,
    SourceParams,
    SpatialMode,
    apply_pbs,
    depolarize_alice,
    depolarize_partial,
    spatially_entangled_state,
    to_density,
    vacuum,
)
from pdcpurify.fock import pruned, shown
from pdcpurify.protocol import _row
from helpers import (
    added,
    allclose,
    depolarize_full,
    fidelity,
    inject_bitflip,
    ket,
    postselect,
    reduce_to_pair,
    reference_depolarized,
    scaled,
    spatial_totals,
    superposed,
    validate,
    zero_block,
)


def projector(*modes):
    return to_density(ket(*modes))


def source_density(r=1.0, phi=0.0, pairs=1):
    return to_density(spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=pairs)))


def test_vacuum_component_unchanged():
    rho = to_density(vacuum())
    assert allclose(depolarize_full(rho, SpatialMode.A1), rho, tol=1e-14)


def test_one_photon_component_rule():
    out = depolarize_full(projector(Mode.A1H), SpatialMode.A1)
    expected = added(scaled(projector(Mode.A1H), 0.5), scaled(projector(Mode.A1V), 0.5))
    assert allclose(out, expected, tol=1e-14)


def test_two_photon_component_rule():
    out = depolarize_full(projector(Mode.A1H, Mode.A1H), SpatialMode.A1)
    expected = added(
        scaled(projector(Mode.A1H, Mode.A1H), 1 / 3),
        scaled(projector(Mode.A1H, Mode.A1V), 1 / 3),
        scaled(projector(Mode.A1V, Mode.A1V), 1 / 3),
    )
    assert allclose(out, expected, tol=1e-14)


def test_off_diagonal_elements_erased():
    plus = superposed(ket(Mode.A1H), ket(Mode.A1V)).normalized()
    out = depolarize_full(to_density(plus), SpatialMode.A1)
    assert all(k == b for (k, b) in out.entries)
    # coherence between one photon in a1 and one in a2 dies as well
    spatial = superposed(ket(Mode.A1H), ket(Mode.A2H)).normalized()
    out = depolarize_full(to_density(spatial), SpatialMode.A1)
    assert ((1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0)) not in out.entries


def test_full_depolarization_is_idempotent():
    rho = source_density(pairs=2)
    once = depolarize_full(rho, SpatialMode.A1)
    twice = depolarize_full(once, SpatialMode.A1)
    assert allclose(twice, once, tol=1e-12)


@pytest.mark.parametrize("s", [0.0, 0.3, 0.7, 1.0])
def test_channel_preserves_trace_and_positivity(s):
    rho = source_density(pairs=2)
    out = depolarize_partial(rho, SpatialMode.A1, s)
    assert out.trace() == pytest.approx(rho.trace(), abs=1e-12)
    validate(out)


def test_partial_endpoints():
    rho = source_density()
    assert allclose(depolarize_partial(rho, SpatialMode.A2, 1.0), rho, tol=1e-14)
    assert allclose(
        depolarize_partial(rho, SpatialMode.A2, 0.0),
        depolarize_full(rho, SpatialMode.A2),
        tol=1e-14,
    )


def test_partial_is_affine_in_s():
    rho = source_density()
    s = 0.35
    lo = depolarize_partial(rho, SpatialMode.A1, 0.0)
    hi = depolarize_partial(rho, SpatialMode.A1, 1.0)
    expected = added(scaled(hi, s), scaled(lo, 1.0 - s))
    assert allclose(depolarize_partial(rho, SpatialMode.A1, s), expected, tol=1e-13)


def test_out_of_range_s_rejected():
    rho = source_density()
    with pytest.raises(ValueError):
        depolarize_partial(rho, SpatialMode.A1, 1.5)
    with pytest.raises(ValueError):
        depolarize_partial(rho, SpatialMode.A1, -0.1)


@pytest.mark.parametrize("s", [None, "0.5", 0.5j, True, False, Decimal("0.5")])
def test_non_number_s_rejected_naming_it(s):
    with pytest.raises(ValueError, match="survival probability s"):
        depolarize_partial(source_density(), SpatialMode.A1, s)


@pytest.mark.parametrize(
    "target",
    [
        "a1", Side.ALICE, Mode.A1H, None, (0, 1), "A1", (Mode.A1H,), (),
        [SpatialMode.A1, SpatialMode.A2], (SpatialMode.A1, "A2"),
    ],
)
def test_non_spatial_mode_target_rejected_naming_it(target):
    """Neither a ``SpatialMode`` nor a non-empty tuple of them; a string is
    named whole, not iterated character by character."""
    with pytest.raises(ValueError, match="target") as caught:
        depolarize_partial(source_density(), target, 0.5)
    assert shown(target) in str(caught.value)


def test_channels_on_distinct_modes_commute():
    rho = source_density(r=0.9, phi=0.4)
    a_then_b = depolarize_partial(
        depolarize_partial(rho, SpatialMode.A1, 0.6), SpatialMode.A2, 0.6
    )
    b_then_a = depolarize_partial(
        depolarize_partial(rho, SpatialMode.A2, 0.6), SpatialMode.A1, 0.6
    )
    assert allclose(a_then_b, b_then_a, tol=1e-12)


@pytest.mark.parametrize("target", list(SpatialMode))
def test_channel_keeps_every_spatial_mode_count(target):
    """Each output entry's ket and bra hold the photon counts per spatial mode
    of an input entry's: the protocols' lambda-weights, set by the lower
    pairs of ket and bra, rest on this.  The target's H and V modes are
    adjacent, which the channel's split keys rely on."""
    h, v = target.value
    assert v == h + 1
    rho = source_density(r=0.9, phi=0.4, pairs=2)
    counts = {(spatial_totals(k), spatial_totals(b)) for k, b in rho.entries}
    for s in (0.0, 0.3):
        out = depolarize_partial(rho, target, s)
        assert {(spatial_totals(k), spatial_totals(b)) for k, b in out.entries} <= counts


def _dephase_photon_number(rho, target):
    """Kill coherence between different photon totals of one spatial mode."""
    h, v = target.value
    kept = {
        (k, b): val
        for (k, b), val in rho.entries.items()
        if k[h] + k[v] == b[h] + b[v]
    }
    return DensityOperator(kept)


def test_channel_commutes_with_photon_number_measurement():
    rho = source_density(r=0.8, phi=0.2)  # has cross-number coherences on a1
    s = 0.4
    left = _dephase_photon_number(
        depolarize_partial(rho, SpatialMode.A1, s), SpatialMode.A1
    )
    right = depolarize_partial(
        _dephase_photon_number(rho, SpatialMode.A1), SpatialMode.A1, s
    )
    assert allclose(left, right, tol=1e-13)
    full = depolarize_full(rho, SpatialMode.A1)
    assert allclose(full, _dephase_photon_number(full, SpatialMode.A1), tol=1e-14)


@pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.8, 1.0])
def test_single_pair_werner_fidelity(s):
    # Bell pair between a1 and b1, noise on Alice's side only
    bell = superposed(ket(Mode.A1H, Mode.B1H), ket(Mode.A1V, Mode.B1V)).normalized()
    rho = depolarize_partial(to_density(bell), SpatialMode.A1, s)
    assert fidelity(reduce_to_pair(rho, 1, 1)) == pytest.approx(
        (1.0 + 3.0 * s) / 4.0, abs=1e-12
    )


def test_fully_depolarized_pair_is_maximally_mixed():
    bell = superposed(ket(Mode.A1H, Mode.B1H), ket(Mode.A1V, Mode.B1V)).normalized()
    rho = depolarize_full(to_density(bell), SpatialMode.A1)
    np.testing.assert_allclose(reduce_to_pair(rho, 1, 1), np.eye(4) / 4.0, atol=1e-12)


def _bits(rho):
    """The entries in order, each value by its repr (which tells -0.0 apart)."""
    return repr(list(rho.entries.items()))


#: every protocol row's fixed density, the channel's input per point and
#: when the row is built, and its (0, 0) block, all that the maps weighted at
#: lambda = 0 read off the channel's output
ROW_DENSITIES = {
    f"{kind.value}-{part}": (kind, part)
    for kind in ProtocolKind
    for part in ("density", "zero_block")
}
#: the grid ends, the points just inside them and a midpoint
EDGE_S = [0.0, 1e-15, 1e-13, 0.5, 1 - 1e-15, 1.0]


@pytest.mark.parametrize("target", list(SpatialMode))
@pytest.mark.parametrize("s", EDGE_S)
def test_one_mode_tuple_is_the_mode_bit_for_bit(target, s):
    rho = source_density(r=0.9, phi=0.4, pairs=2)
    assert _bits(depolarize_partial(rho, (target,), s)) == _bits(
        depolarize_partial(rho, target, s)
    )


@pytest.mark.parametrize("row", ROW_DENSITIES.values(), ids=ROW_DENSITIES.keys())
@pytest.mark.parametrize("s", EDGE_S)
def test_two_mode_map_is_two_single_mode_calls(row, s):
    """One map, its zeros dropped once, equals a1 then a2 each with its zeros
    dropped, value for value: a zero adds exactly nothing to the sums after
    it.  Neither stores a zero."""
    kind, part = row
    rho = zero_block(_row(kind)) if part == "zero_block" else _row(kind).density
    one = depolarize_partial(rho, (SpatialMode.A1, SpatialMode.A2), s).entries
    two = depolarize_partial(
        depolarize_partial(rho, SpatialMode.A1, s), SpatialMode.A2, s
    ).entries
    assert one == two
    assert all(one.values())


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=[k.value for k in ProtocolKind])
@pytest.mark.parametrize("s", [0.0, 1e-15, 1e-13, 0.3, 1 - 1e-15, 1.0])
def test_two_mode_map_is_its_three_branches(kind, s):
    """C_s on a1 and a2 is s^2 rho + s(1 - s)(D_a1 rho + D_a2 rho) +
    (1 - s)^2 D_a1 D_a2 rho, the branches built by the channel at s = 0, on
    each row's fixed density: the quadratics at lambda = 0 rest on it.  Each
    key the channel keeps agrees to 1e-15; each it drops, a zero, sums to
    exactly 0."""
    rho = _row(kind).density
    t = 1.0 - s
    branches = (
        (s * s, rho),
        (s * t, depolarize_partial(rho, SpatialMode.A1, 0.0)),
        (s * t, depolarize_partial(rho, SpatialMode.A2, 0.0)),
        (t * t, depolarize_alice(rho, 0.0)),
    )
    expected = {}
    for weight, branch in branches:
        for key, v in branch.entries.items():
            expected[key] = expected.get(key, 0.0) + weight * v
    kept = depolarize_alice(rho, s).entries
    assert kept.keys() <= expected.keys()
    assert all(abs(v - expected[key]) <= 1e-15 for key, v in kept.items())
    assert all(v == 0 for key, v in expected.items() if key not in kept)


#: the most photons a drawn ket puts in one spatial mode
MAX_IN_MODE = 6


@st.composite
def superposed_densities(draw):
    """|psi><psi| for psi a superposition of one to five kets of one photon
    total, each with 0-6 photons in every spatial mode: its entries are
    off-diagonal in a mode, diagonal with the mode empty, or diagonal with up
    to six photons there."""
    total = draw(st.integers(0, 10))

    def one_ket():
        occupations, left = [], total
        for after in (3, 2, 1, 0):  # spatial modes still to fill after this one
            low = max(0, left - MAX_IN_MODE * after)
            n = draw(st.integers(low, min(MAX_IN_MODE, left)))
            nh = draw(st.integers(0, n))
            occupations += (nh, n - nh)
            left -= n
        return tuple(occupations)

    kets = {one_ket() for _ in range(draw(st.integers(1, 5)))}
    amplitude = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0)
    return to_density(PureState({occ: draw(amplitude) for occ in sorted(kets)}))


CHANNEL_TARGETS = [*SpatialMode, (SpatialMode.A1, SpatialMode.A2)]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(rho=superposed_densities(), s=st.floats(min_value=0.0, max_value=1.0))
@example(
    # six or five photons in a1, split three ways, and a2 empty on every entry
    rho=to_density(PureState({
        (6, 0, 0, 0, 0, 0, 0, 0): 0.6,
        (2, 3, 0, 0, 1, 0, 0, 0): 0.8j,
        (0, 5, 0, 0, 0, 0, 0, 1): -0.4,
    })),
    s=0.3,
)
def test_channel_is_its_reference_bit_for_bit(rho, s):
    """Every target, at the grid's edges and at a drawn s, gives the same
    keys in the same order with the same ``repr`` of each value as the
    one-mode step that splits every diagonal entry, pruned once."""
    for target in CHANNEL_TARGETS:
        modes = (target,) if isinstance(target, SpatialMode) else target
        for each_s in (*EDGE_S, s):
            expected = rho.entries
            for mode in modes:
                expected = reference_depolarized(expected, mode.value[0], each_s)
            out = depolarize_partial(rho, target, each_s)
            assert _bits(out) == repr(list(pruned(expected).items()))


#: each channel and beam-splitter call, with its other arguments valid
ON_RHO = {
    "depolarize_partial": lambda rho: depolarize_partial(rho, SpatialMode.A1, 0.5),
    "depolarize_alice": lambda rho: depolarize_alice(rho, 0.5),
    "apply_pbs": lambda rho: apply_pbs(rho, Side.ALICE),
}


@pytest.mark.parametrize("call", ON_RHO.values(), ids=ON_RHO.keys())
@pytest.mark.parametrize(
    "rho", [PureState({(1, 0, 0, 0, 0, 0, 0, 0): 1.0}), None, "rho"],
    ids=["pure-state", "none", "string"],
)
def test_non_operator_rho_rejected_naming_it(call, rho):
    with pytest.raises(ValueError, match="rho must be a DensityOperator") as caught:
        call(rho)
    assert shown(rho) in str(caught.value)


def test_depolarize_alice_matches_sequential():
    rho = source_density(pairs=2)
    expected = depolarize_partial(
        depolarize_partial(rho, SpatialMode.A1, 0.7), SpatialMode.A2, 0.7
    )
    assert allclose(depolarize_alice(rho, 0.7), expected, tol=1e-13)


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
    rho = apply_pbs(apply_pbs(to_density(flipped), Side.ALICE), Side.BOB)
    probability, conditional = postselect(rho, BOTH_UP | BOTH_DOWN)
    assert probability <= 1e-12
    assert conditional is None
