"""Property checks over random (r, phi, s), alongside the fixed-grid tests.

Examples are derandomized, so every run draws the same inputs.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as oracle
from helpers import (
    depolarize_full,
    fidelity,
    measure_out_lower_pair,
    reduce_to_pair,
    run_direct,
)
from pdcpurify import (
    BOTH_DOWN,
    BOTH_UP,
    FOUR_MODE,
    DensityOperator,
    ProtocolKind,
    PureState,
    Side,
    SourceParams,
    SpatialMode,
    apply_pbs,
    depolarize_alice,
    depolarize_partial,
    independent_pairs_state,
    pair_fidelity,
    postselect,
    run_four_photon,
    spatially_entangled_state,
    to_density,
)
from pdcpurify.protocol import _measured_out_fidelity

PROPERTY_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None)

unit = st.floats(min_value=0.0, max_value=1.0)
phase = st.floats(min_value=-math.pi, max_value=math.pi)


@PROPERTY_SETTINGS
@given(
    r=unit,
    phi=phase,
    pairs=st.sampled_from([1, 2]),
    target=st.sampled_from(list(SpatialMode)),
    s=unit,
)
def test_partial_channel_is_the_mixture(r, phi, pairs, target, s):
    rho = to_density(spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=pairs)))
    out = depolarize_partial(rho, target, s)
    expected = rho.scaled(s) + depolarize_full(rho, target).scaled(1.0 - s)
    assert out.allclose(expected, tol=1e-13)
    assert abs(out.trace() - rho.trace()) <= 1e-12


@PROPERTY_SETTINGS
@given(r=unit, phi=phase, pairs=st.sampled_from([1, 2]), s=unit)
def test_pattern_probabilities_sum_to_one(r, phi, pairs, s):
    """Every spatial count pattern of the sector, each as its own selection."""
    state = spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=pairs))
    rho = depolarize_alice(to_density(state), s)
    rho = apply_pbs(apply_pbs(rho, Side.ALICE), Side.BOB)
    patterns = [
        frozenset({counts})
        for counts in itertools.product(range(2 * pairs + 1), repeat=4)
        if sum(counts) == 2 * pairs
    ]
    total = sum(postselect(rho, selection)[0] for selection in patterns)
    assert abs(total - 1.0) <= 1e-10


def _fidelities(kind, result):
    if kind is ProtocolKind.FOUR_PHOTON:
        return (result.f_upper, result.f_lower)
    assert result.f_lower is None
    return (result.f_upper,)


@pytest.mark.parametrize("kind", list(ProtocolKind))
@PROPERTY_SETTINGS
@given(r=unit, phi=phase, s=unit)
def test_pipeline_outputs_are_probabilities(kind, r, phi, s):
    result = run_direct(kind, r, phi, s)
    assert 0.0 <= result.p_success <= 1.0 + 1e-12
    for f in _fidelities(kind, result):
        if result.p_success <= 1e-12:
            assert f is None
        else:
            assert f is not None and -1e-12 <= f <= 1.0 + 1e-12


def _source(kind, r, phi):
    if kind is ProtocolKind.INDEPENDENT_PAIRS:
        return independent_pairs_state()
    pairs = 2 if kind is ProtocolKind.FOUR_PHOTON else 1
    return spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=pairs))


#: each protocol's detection patterns, with the indices i of the (ai, bi)
#: pairs that hold one photon per spatial mode once the pattern is selected
SELECTIONS = {
    ProtocolKind.FOUR_PHOTON: ((FOUR_MODE, (1, 2)),),
    ProtocolKind.TWO_PHOTON: ((BOTH_UP, (1,)), (BOTH_DOWN, (2,))),
    ProtocolKind.INDEPENDENT_PAIRS: ((FOUR_MODE, (1, 2)),),
}


def _pipeline_stages(kind, r, phi, s):
    """The source state and every operator the pipeline of ``kind`` builds."""
    state = _source(kind, r, phi)
    rho = to_density(state)
    stages = [rho]
    for target in (SpatialMode.A1, SpatialMode.A2):
        rho = depolarize_partial(rho, target, s)
        stages.append(rho)
    for side in (Side.ALICE, Side.BOB):
        rho = apply_pbs(rho, side)
        stages.append(rho)
    for selection, _ in SELECTIONS[kind]:
        _, conditional = postselect(rho, selection)
        if conditional is not None:
            stages.append(conditional)
    return state, stages


@pytest.mark.parametrize("kind", list(ProtocolKind))
@PROPERTY_SETTINGS
@given(r=unit, phi=phase, s=unit)
def test_internal_builds_pass_the_public_checks(kind, r, phi, s):
    """Stage outputs skip key validation; the public constructors accept them."""
    state, stages = _pipeline_stages(kind, r, phi, s)
    assert PureState(state.amplitudes, sector=state.sector).amplitudes == state.amplitudes
    for op in stages:
        assert DensityOperator(op.entries).allclose(op, tol=0.0)


def _conditionals(kind, r, phi, s):
    """Each conditional state of ``kind``'s pipeline, with its pair indices."""
    rho = depolarize_alice(to_density(_source(kind, r, phi)), s)
    rho = apply_pbs(apply_pbs(rho, Side.ALICE), Side.BOB)
    for selection, pairs in SELECTIONS[kind]:
        _, conditional = postselect(rho, selection)
        if conditional is not None:
            yield conditional, pairs


PAIR_MODES = {1: (SpatialMode.A1, SpatialMode.B1), 2: (SpatialMode.A2, SpatialMode.B2)}


@pytest.mark.parametrize("kind", list(ProtocolKind))
@PROPERTY_SETTINGS
@given(r=unit, phi=phase, s=unit)
def test_witness_sums_match_the_dense_reduction(kind, r, phi, s):
    for conditional, pairs in _conditionals(kind, r, phi, s):
        for i in pairs:
            dense = fidelity(reduce_to_pair(conditional, i, i))
            assert abs(pair_fidelity(conditional, *PAIR_MODES[i]) - dense) <= 1e-14
        if kind is not ProtocolKind.TWO_PHOTON:
            dense = fidelity(measure_out_lower_pair(conditional))
            assert abs(_measured_out_fidelity(conditional) - dense) <= 1e-14


def _oracle(kind, r, phi, s):
    """The dense oracle's (p_success, f_upper[, f_lower]) for one run."""
    if kind is ProtocolKind.FOUR_PHOTON:
        return oracle.four_photon_reference(r, phi, s)
    if kind is ProtocolKind.TWO_PHOTON:
        return oracle.two_photon_reference(r, phi, s)
    return oracle.independent_pairs_reference(s)


@pytest.mark.parametrize("kind", list(ProtocolKind))
@settings(PROPERTY_SETTINGS, max_examples=3)
@given(r=unit, phi=phase, s=unit)
def test_runs_match_the_dense_oracle(kind, r, phi, s):
    result = run_direct(kind, r, phi, s)
    p_ref, *f_refs = _oracle(kind, r, phi, s)
    assert abs(result.p_success - p_ref) <= 1e-12
    for f, f_ref in zip(_fidelities(kind, result), f_refs):
        if f is None:
            assert p_ref <= 1e-12
        else:
            assert abs(f - f_ref) <= 1e-12


@PROPERTY_SETTINGS
@given(phi=phase, s=unit)
def test_upper_and_lower_pairs_agree_at_r_one(phi, s):
    result = run_four_photon(1.0, phi, s)
    assert abs(result.f_upper - result.f_lower) <= 1e-12


def four_photon_closed_form(r, phi, s):
    """Four-photon (P, N_upper) = (p, p * f_upper), two quadratics in s.

    With D = 4(3r^4 + 4r^2 + 3):
        D P(s) = (4/3)(r^4 + 3r^2 + 1) + (8/3)(r^4 + 1) s + 4 r^2 s^2,
        D N_upper(s) = (2r^4/3 + r^2 + 2/3) + (4r^4/3 + 2r^2 + 4/3) s
                       + (4 r^3 cos phi + r^2 + 4 r cos phi) s^2.
    """
    r2, r4, c = r * r, r**4, math.cos(phi)
    d = 4.0 * (3.0 * r4 + 4.0 * r2 + 3.0)
    p = (4.0 / 3.0) * (r4 + 3.0 * r2 + 1.0) + (8.0 / 3.0) * (r4 + 1.0) * s + 4.0 * r2 * s * s
    n = (
        (2.0 * r4 / 3.0 + r2 + 2.0 / 3.0)
        + (4.0 * r4 / 3.0 + 2.0 * r2 + 4.0 / 3.0) * s
        + (4.0 * r**3 * c + r2 + 4.0 * r * c) * s * s
    )
    return p / d, n / d


@PROPERTY_SETTINGS
@given(r=unit, phi=phase, s=unit)
def test_four_photon_matches_its_closed_form(r, phi, s):
    result = run_four_photon(r, phi, s)
    p, n = four_photon_closed_form(r, phi, s)
    assert abs(result.p_success - p) <= 1e-12
    assert abs(result.p_success * result.f_upper - n) <= 1e-12
    assert abs(result.f_upper - n / p) <= 1e-12


@pytest.mark.parametrize("s, p", [(0.0, 1.0 / 6.0), (1.0, 0.4)])
def test_four_photon_closed_form_at_r_one(s, p):
    assert abs(four_photon_closed_form(1.0, 0.0, s)[0] - p) <= 1e-15
    assert abs(run_four_photon(1.0, 0.0, s).p_success - p) <= 1e-12
