"""Property checks over random (r, phi, s), alongside the fixed-grid tests.

Examples are derandomized, so every run draws the same inputs.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_direct
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
    depolarize_full,
    depolarize_partial,
    independent_pairs_state,
    postselect,
    spatially_entangled_state,
    to_density,
)

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


def _pipeline_stages(kind, r, phi, s):
    """The source state and every operator the pipeline of ``kind`` builds."""
    if kind is ProtocolKind.INDEPENDENT_PAIRS:
        state, selections = independent_pairs_state(), (FOUR_MODE,)
    elif kind is ProtocolKind.FOUR_PHOTON:
        state = spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=2))
        selections = (FOUR_MODE,)
    else:
        state = spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=1))
        selections = (BOTH_UP, BOTH_DOWN)
    rho = to_density(state)
    stages = [rho]
    for target in (SpatialMode.A1, SpatialMode.A2):
        rho = depolarize_partial(rho, target, s)
        stages.append(rho)
    for side in (Side.ALICE, Side.BOB):
        rho = apply_pbs(rho, side)
        stages.append(rho)
    for selection in selections:
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
