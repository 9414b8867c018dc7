import cmath
import math

import pytest

from pdcpurify import (
    MODES,
    Mode,
    SourceParams,
    independent_pairs_state,
    schmidt,
    spatially_entangled_state,
)
from helpers import inner_product, map_basis
from pdcpurify.fock import spatial_totals

ALICE_MODES = [m for m in MODES if m < Mode.B1H]
BOB_MODES = [m for m in MODES if m >= Mode.B1H]


def test_single_pair_ideal_amplitudes():
    state = spatially_entangled_state(SourceParams(r=1, phi=0, pairs=1))
    assert len(state.amplitudes) == 4
    assert all(amp == pytest.approx(0.5) for amp in state.amplitudes.values())


def test_single_pair_upper_only_at_r_zero():
    state = spatially_entangled_state(SourceParams(r=0, phi=0, pairs=1))
    expected = 1.0 / math.sqrt(2.0)
    assert state.amplitudes == {
        (1, 0, 0, 0, 1, 0, 0, 0): pytest.approx(expected),
        (0, 1, 0, 0, 0, 1, 0, 0): pytest.approx(expected),
    }


def test_two_pairs_ten_equal_terms():
    state = spatially_entangled_state(SourceParams(r=1, phi=0, pairs=2))
    assert len(state.amplitudes) == 10
    assert all(
        abs(amp) == pytest.approx(1.0 / math.sqrt(10.0))
        for amp in state.amplitudes.values()
    )
    # 4 double-pair terms (an occupation of 2 somewhere) and 6 cross terms
    doubled = [occ for occ in state.amplitudes if max(occ) == 2]
    assert len(doubled) == 4


@pytest.mark.parametrize("pairs", [1, 2])
@pytest.mark.parametrize("r,phi", [(1.0, 0.0), (0.95, 0.3), (0.5, 2.0), (0.0, 0.0)])
def test_norm_and_sector(r, phi, pairs):
    state = spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=pairs))
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert state.sector == 2 * pairs


def test_phase_convention_multiplies_lower_term():
    phi = 0.7
    state = spatially_entangled_state(SourceParams(r=0.8, phi=phi, pairs=1))
    upper = state.amplitudes[(1, 0, 0, 0, 1, 0, 0, 0)]
    lower = state.amplitudes[(0, 0, 1, 0, 0, 0, 1, 0)]
    assert lower / upper == pytest.approx(0.8 * cmath.exp(1j * phi))


def _exchange_spatial(occ):
    """Swap spatial modes 1 and 2 on both sides (all four mode pairs)."""
    return (occ[2], occ[3], occ[0], occ[1], occ[6], occ[7], occ[4], occ[5])


@pytest.mark.parametrize("pairs", [1, 2])
@pytest.mark.parametrize("phi", [0.0, 0.4, 1.3])
def test_upper_lower_exchange_symmetry_at_r_one(phi, pairs):
    # at r = 1 exchanging the spatial modes maps (1, phi) to (1, -phi)
    # up to a global phase
    state = spatially_entangled_state(SourceParams(r=1, phi=phi, pairs=pairs))
    partner = spatially_entangled_state(SourceParams(r=1, phi=-phi, pairs=pairs))
    overlap = inner_product(map_basis(state, _exchange_spatial), partner)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SourceParams(r=1.2)
    with pytest.raises(ValueError):
        SourceParams(pairs=3)


@pytest.mark.parametrize("pairs", [0, 2.0, 1.0, True, "2", None])
def test_pairs_must_be_the_int_one_or_two(pairs):
    with pytest.raises(ValueError, match="pairs"):
        SourceParams(pairs=pairs)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_phi_rejected(phi):
    with pytest.raises(ValueError, match="phi"):
        SourceParams(r=1, phi=phi)


def test_phi_wraps_into_principal_range():
    params = SourceParams(r=1, phi=2.0 * math.pi + 0.25)
    assert params.phi == pytest.approx(0.25)


def test_independent_pairs_four_kets():
    state = independent_pairs_state()
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert len(state.amplitudes) == 4
    assert all(amp == pytest.approx(0.5) for amp in state.amplitudes.values())
    assert all(spatial_totals(occ) == (1, 1, 1, 1) for occ in state.amplitudes)


def test_independent_pairs_two_ebits():
    _, entropy = schmidt(independent_pairs_state(), ALICE_MODES, BOB_MODES)
    assert entropy == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize(
    "pairs,expected",
    [(1, 2.0), (2, math.log2(10.0))],
)
def test_source_entropies(pairs, expected):
    state = spatially_entangled_state(SourceParams(r=1, phi=0, pairs=pairs))
    _, entropy = schmidt(state, ALICE_MODES, BOB_MODES)
    assert entropy == pytest.approx(expected, abs=1e-10)
