"""Property checks over random (r, phi, s), alongside the fixed-grid tests.

Examples are derandomized, so every run draws the same inputs.
"""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle as oracle
from helpers import (
    FLIP,
    MIRROR,
    added,
    allclose,
    depolarize_full,
    expect,
    fidelity,
    measure_out_lower_pair,
    pair_fidelity,
    postselect,
    project,
    reduce_to_pair,
    run_direct,
    scaled,
    spatial_totals,
    unfolded,
)
from pdcpurify import (
    BOTH_DOWN,
    BOTH_UP,
    FOUR_MODE,
    MODES,
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
    independent_pairs_state,
    run_four_photon,
    run_independent_pairs,
    run_two_photon,
    schmidt,
    spatially_entangled_state,
    to_density,
)
from pdcpurify.optics import _PBS
from pdcpurify.protocol import (
    _BOTH_UP_WITNESS,
    _MEASURED_OUT_WITNESS,
    _in_front,
    _projector,
    _row,
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
    expected = added(scaled(rho, s), scaled(depolarize_full(rho, target), 1.0 - s))
    assert allclose(out, expected, tol=1e-13)
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
        stages.append(project(rho, selection))
    return state, stages


@pytest.mark.parametrize("kind", list(ProtocolKind))
@PROPERTY_SETTINGS
@given(r=unit, phi=phase, s=unit)
def test_internal_builds_pass_the_public_checks(kind, r, phi, s):
    """Stage outputs skip key validation; the public constructors accept them."""
    state, stages = _pipeline_stages(kind, r, phi, s)
    assert PureState(state.amplitudes, sector=state.sector).amplitudes == state.amplitudes
    for op in stages:
        assert allclose(DensityOperator(op.entries), op, tol=0.0)


#: the edges of r and s at which a stage stores its smallest nonzero values
EDGE_R = (0.0, 1e-9)
EDGE_S = (0.0, 1e-15, 1.0 - 1e-15, 1.0)


def _at_the_edges(test):
    """``test`` with an explicit example at every (edge r, edge s) pair."""
    for r, s in itertools.product(EDGE_R, EDGE_S):
        test = example(r=r, phi=2.0, s=s)(test)
    return test


@pytest.mark.parametrize("kind", list(ProtocolKind))
@PROPERTY_SETTINGS
@_at_the_edges
@given(
    r=st.one_of(st.sampled_from(EDGE_R), unit),
    phi=phase,
    s=st.one_of(st.sampled_from(EDGE_S), unit),
)
def test_stage_maps_hold_only_complex_nonzero_values(kind, r, phi, s):
    """Every stage stores complex values and no zero; the PBS relabels its
    input's values and ``project`` keeps a sub-map of its input."""
    state, stages = _pipeline_stages(kind, r, phi, s)
    for values in [state.amplitudes] + [op.entries for op in stages]:
        assert all(type(v) is complex and v for v in values.values())
    _, _, depolarized, alice, bob, *projected = stages
    for before, after, side in ((depolarized, alice, Side.ALICE), (alice, bob, Side.BOB)):
        swap = _PBS[side]
        relabeled = {(swap(k), swap(b)): v for (k, b), v in before.entries.items()}
        assert after.entries == relabeled
    for kept in projected:
        assert kept.entries.items() <= bob.entries.items()


def _transmitted(kind, r, phi, s):
    """The transmitted operator T of ``kind``'s source, unselected, from the
    public stages: the channel, then each side's beam splitter."""
    rho = depolarize_alice(to_density(_source(kind, r, phi)), s)
    return apply_pbs(apply_pbs(rho, Side.ALICE), Side.BOB)


def _relabeled(rho, relabel):
    """The entries of ``relabel rho relabel`` for an involutive mode map."""
    return {(relabel(ket), relabel(bra)): v for (ket, bra), v in rho.entries.items()}


#: the mirror image of the both-up witness: the lower pair's Bell witness on
#: the both-down pattern, which the run path never reads
_BOTH_DOWN_WITNESS = DensityOperator._trusted(_relabeled(_BOTH_UP_WITNESS, MIRROR))

def _maps(kind):
    """The projector and witness in front of both beam splitters that
    ``kind``'s row holds, unfolded from its lambda blocks."""
    row = _row(kind)
    return tuple(unfolded(blocks) for blocks in (row.projector, row.witness))


def _readouts_in_front(kind):
    """``kind``'s readouts in front of both beam splitters: the pattern, its
    projector and witness there, and the witness sum of the projected operator
    behind them (``pair_fidelity`` where the witness is a pair's Bell witness)."""
    projector, witness = _maps(kind)
    if kind is ProtocolKind.FOUR_PHOTON:
        return ((FOUR_MODE, projector, witness,
                 lambda kept: pair_fidelity(kept, SpatialMode.A1, SpatialMode.B1)),)
    if kind is ProtocolKind.TWO_PHOTON:
        return (
            (BOTH_UP, projector, witness,
             lambda kept: pair_fidelity(kept, SpatialMode.A1, SpatialMode.B1)),
            (BOTH_DOWN, _in_front(_projector(BOTH_DOWN)), _in_front(_BOTH_DOWN_WITNESS),
             lambda kept: pair_fidelity(kept, SpatialMode.A2, SpatialMode.B2)),
        )
    return ((FOUR_MODE, projector, witness,
             lambda kept: expect(kept, _MEASURED_OUT_WITNESS).real),)


@pytest.mark.parametrize("kind", list(ProtocolKind))
@PROPERTY_SETTINGS
@_at_the_edges
@given(
    r=st.one_of(st.sampled_from(EDGE_R), unit),
    phi=phase,
    s=st.one_of(st.sampled_from(EDGE_S), unit),
)
def test_selecting_in_front_of_the_beam_splitters_is_projecting_behind(kind, r, phi, s):
    """A PBS permutes basis states, so a projector or witness moved in front
    of both reads out of the channel's output what ``project`` and the
    witness sum read behind them: Tr(P rho_s) and Tr(W rho_s) equal the
    projected operator's trace and witness sum."""
    rho_s = depolarize_alice(to_density(_source(kind, r, phi)), s)
    behind = _transmitted(kind, r, phi, s)
    for pattern, projector, witness, witness_sum in _readouts_in_front(kind):
        kept = project(behind, pattern)
        assert abs(expect(rho_s, projector).real - kept.trace()) <= 1e-15
        assert abs(expect(rho_s, witness).real - witness_sum(kept)) <= 1e-15


def _sent_into(pattern):
    """The basis states that both beam splitters send into ``pattern``, found
    by passing each basis state of the pattern's photon number through them."""
    (n,) = {sum(counts) for counts in pattern}
    kept = set()
    for occ in oracle.basis(n):
        rho = to_density(PureState({occ: 1.0}))
        ((image, _),) = apply_pbs(apply_pbs(rho, Side.ALICE), Side.BOB).entries
        if spatial_totals(image) in pattern:
            kept.add(occ)
    return kept


def _diagonal(projector):
    """The keys of a diagonal map whose every value is 1."""
    assert all(k == b and v == 1 for (k, b), v in projector.entries.items())
    return {k for k, _ in projector.entries}


def test_key_sets_in_front_of_the_beam_splitters():
    """One H or V photon in each of the four spatial modes behind the beam
    splitters (16 keys), or in a1 and b1 (4 keys)."""
    four_mode, _ = _maps(ProtocolKind.FOUR_PHOTON)
    both_up, _ = _maps(ProtocolKind.TWO_PHOTON)
    assert len(four_mode.entries) == 16
    assert len(both_up.entries) == 4
    assert _diagonal(four_mode) == _sent_into(FOUR_MODE)
    assert _diagonal(both_up) == _sent_into(BOTH_UP)
    assert _maps(ProtocolKind.INDEPENDENT_PAIRS)[0].entries == four_mode.entries
    assert _diagonal(_in_front(_projector(BOTH_DOWN))) == _sent_into(BOTH_DOWN)


def _dense(a, n):
    """The map ``a`` as a dense matrix over the oracle's n-photon basis."""
    index = oracle.basis_index(n)
    matrix = np.zeros((len(index), len(index)), dtype=complex)
    for (k, b), v in a.entries.items():
        matrix[index[k], index[b]] = v
    return matrix


def _oracle_maps():
    """Each compiled map, as the kind whose row holds it and which of the
    row's two maps it is (0: projector, 1: witness), with its photon number
    and the oracle's map behind the beam splitters: a pattern projector, or a
    witness on its pattern."""
    four = oracle.pattern_projector(frozenset(oracle.FOUR_MODE), 4)
    up = oracle.pattern_projector(frozenset(oracle.BOTH_UP), 2)
    return {
        "four-mode projector": (ProtocolKind.FOUR_PHOTON, 0, 4, four),
        "both-up projector": (ProtocolKind.TWO_PHOTON, 0, 2, up),
        "upper witness": (
            ProtocolKind.FOUR_PHOTON, 1, 4,
            four @ oracle.bell_witness(oracle.A1, oracle.B1, 4) @ four,
        ),
        "both-up witness": (
            ProtocolKind.TWO_PHOTON, 1, 2,
            up @ oracle.bell_witness(oracle.A1, oracle.B1, 2) @ up,
        ),
        "measure-out witness": (
            ProtocolKind.INDEPENDENT_PAIRS, 1, 4, oracle.measured_out_witness(4)
        ),
    }


@pytest.mark.parametrize("name", list(_oracle_maps()))
def test_compiled_maps_are_the_dense_oracle_maps_in_front_of_the_beam_splitters(name):
    """Each map the run path reads equals the oracle's map behind the beam
    splitters moved through them, entry for entry, on the same support.  The
    oracle's 45-degree projectors are products of 1/sqrt(2), so its measure-out
    witness is 1/2 only to rounding (about 4e-16 off); the others agree
    exactly.  Each map is real and equals its transpose entry for entry, which
    lets a read take every entry at its own key."""
    kind, index, n, behind = _oracle_maps()[name]
    compiled = _maps(kind)[index]
    entries = compiled.entries
    assert all(v.imag == 0 and entries.get((b, k)) == v for (k, b), v in entries.items())
    expected = oracle.both_pbs(behind, n)
    assert np.abs(_dense(compiled, n) - expected).max() <= 1e-15
    support = zip(*np.nonzero(np.abs(expected) > 1e-15))
    basis = oracle.basis(n)
    assert set(compiled.entries) == {(basis[i], basis[j]) for i, j in support}


@pytest.mark.parametrize(
    "kind, entries",
    [(ProtocolKind.FOUR_PHOTON, 16), (ProtocolKind.TWO_PHOTON, 4),
     (ProtocolKind.INDEPENDENT_PAIRS, 16)],
    ids=["upper witness", "both-up witness", "measure-out witness"],
)
def test_compiled_witnesses_are_hermitian_with_every_value_one_half(kind, entries):
    """Built from kets with +-1 amplitudes, every value is exactly 0.5."""
    _, witness = _maps(kind)
    assert len(witness.entries) == entries
    assert all(v == 0.5 for v in witness.entries.values())
    assert all(
        witness.entries.get((b, k)) == v.conjugate() for (k, b), v in witness.entries.items()
    )


def _conditionals(kind, r, phi, s):
    """Each conditional state of ``kind``'s pipeline, with its pair indices."""
    rho = _transmitted(kind, r, phi, s)
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
            in_front = _in_front(conditional)
            _, witness = _maps(ProtocolKind.INDEPENDENT_PAIRS)
            assert abs(expect(in_front, witness).real - dense) <= 1e-14


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


EDGE_S = (1e-15, 1e-13, 1 - 1e-15)


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_runs_match_the_dense_oracle_at_the_edges(kind):
    """At s next to 0 or 1 one branch of the channel is tiny: the channel sums
    both branches into one map and drops only its zeros, so no term is
    dropped and every number stays at rounding distance from the oracle."""
    if kind is ProtocolKind.INDEPENDENT_PAIRS:
        points = [(None, None, s) for s in EDGE_S]
    else:
        points = itertools.product((0.9, 0.95, 1.0), (0.0, math.acos(0.95)), EDGE_S)
    for r, phi, s in points:
        result = run_direct(kind, r, phi, s)
        p_ref, *f_refs = _oracle(kind, r, phi, s)
        assert abs(result.p_success - p_ref) <= 2e-15, (r, phi, s)
        for f, f_ref in zip(_fidelities(kind, result), f_refs):
            assert abs(f - f_ref) <= 2e-15, (r, phi, s)


@pytest.mark.parametrize("kind", list(ProtocolKind))
@PROPERTY_SETTINGS
@given(r=unit, phi=phase, s=unit)
def test_flipped_transmission_is_its_mirror(kind, r, phi, s):
    """F T F = S T S for the transmitted operator T of each source, the
    identity behind reporting f_lower = f_upper and doubling the both-up
    branch."""
    rho = _transmitted(kind, r, phi, s)
    flipped, mirrored = _relabeled(rho, FLIP), _relabeled(rho, MIRROR)
    assert rho.entries
    assert max(
        abs(flipped.get(key, 0.0) - mirrored.get(key, 0.0))
        for key in flipped.keys() | mirrored.keys()
    ) <= 1e-15


def _oracle_branches(r, phi, pairs, s, branches):
    """Probability and witness sum of each (pattern, Alice mode, Bob mode)
    branch of the transmitted n-pair state, from the dense oracle alone."""
    n = 2 * pairs
    vec = oracle.two_pass_vector(r, phi, pairs)
    rho = np.outer(vec, vec.conj())
    for spatial in (oracle.A1, oracle.A2):
        rho = oracle.depolarize(rho, spatial, s, n)
    rho = oracle.both_pbs(rho, n)
    for pattern, alice, bob in branches:
        proj = oracle.pattern_projector(frozenset(pattern), n)
        kept = proj @ rho @ proj
        witness = oracle.bell_witness(alice, bob, n)
        yield np.trace(kept).real, oracle.trace_of_product(witness, kept).real


@settings(PROPERTY_SETTINGS, max_examples=5)
@given(r=unit, phi=phase, s=unit)
def test_dense_oracle_mirrors_upper_and_lower(r, phi, s):
    """The same identity with no package code: the oracle's four-photon upper
    and lower fidelities agree, and its two-photon up and down branches have
    equal probabilities and witness sums."""
    (p, upper), (_, lower) = _oracle_branches(r, phi, 2, s, [
        (oracle.FOUR_MODE, oracle.A1, oracle.B1),
        (oracle.FOUR_MODE, oracle.A2, oracle.B2),
    ])
    assert abs(upper / p - lower / p) <= 1e-12
    up, down = _oracle_branches(r, phi, 1, s, [
        (oracle.BOTH_UP, oracle.A1, oracle.B1),
        (oracle.BOTH_DOWN, oracle.A2, oracle.B2),
    ])
    assert np.allclose(up, down, rtol=0.0, atol=1e-12)


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


def _at_r_zero_and_the_s_ends(test):
    """``test`` with explicit examples at r = 0, where the weighted readout
    maps keep only the (0, 0) block, and at s = 0 and s = 1."""
    for r, s in ((0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.9, 0.0), (0.9, 1.0)):
        test = example(r=r, phi=2.0, s=s)(test)
    return test


@PROPERTY_SETTINGS
@_at_r_zero_and_the_s_ends
@given(r=unit, phi=phase, s=unit)
def test_four_photon_matches_its_closed_form(r, phi, s):
    result = run_four_photon(r, phi, s)
    p, n = four_photon_closed_form(r, phi, s)
    assert abs(result.p_success - p) <= 1e-12
    assert abs(result.p_success * result.f_upper - n) <= 1e-12
    assert abs(result.f_upper - n / p) <= 1e-12


def two_photon_closed_form(r, phi, s):
    """Two-photon (P, M) = (p, ((1 + x)/2) p f_upper), two quadratics in s.

    With x = r^2 and c = r cos phi: P = (1 + s)/2 at every (r, phi), and
        M = 2[s^2((1 + x)/8 + c/4) + s(1 - s) 3(1 + x)/16
              + (1 - s)^2 (1 + x)/16].
    """
    x, c = r * r, r * math.cos(phi)
    m = 2.0 * (
        s * s * ((1.0 + x) / 8.0 + c / 4.0)
        + s * (1.0 - s) * 3.0 * (1.0 + x) / 16.0
        + (1.0 - s) ** 2 * (1.0 + x) / 16.0
    )
    return (1.0 + s) / 2.0, m


@PROPERTY_SETTINGS
@_at_r_zero_and_the_s_ends
@given(r=unit, phi=phase, s=unit)
def test_two_photon_matches_its_closed_form(r, phi, s):
    result = run_two_photon(r, phi, s)
    p, m = two_photon_closed_form(r, phi, s)
    assert abs(result.p_success - p) <= 1e-12
    assert abs((1.0 + r * r) / 2.0 * result.p_success * result.f_upper - m) <= 1e-12


@pytest.mark.parametrize("kind", [ProtocolKind.FOUR_PHOTON, ProtocolKind.TWO_PHOTON])
def test_runs_just_above_r_zero_weight_the_lower_pairs(kind):
    """At 0 < r <= 1e-12 a run still weights the blocks with lower pairs:
    its f_upper is the closed form's to 1e-15, while the lambda = 0 reads,
    which drop the O(r cos phi) term, are at least 3.3e-14 off there."""
    for r, phi, s in itertools.product((1e-13, 3e-13), (0.0, math.pi), (0.5, 1.0)):
        if kind is ProtocolKind.FOUR_PHOTON:
            p, n = four_photon_closed_form(r, phi, s)
        else:
            p, m = two_photon_closed_form(r, phi, s)
            n = m / ((1.0 + r * r) / 2.0)
        assert abs(run_direct(kind, r, phi, s).f_upper - n / p) <= 1e-15, (r, phi, s)


@PROPERTY_SETTINGS
@example(s=0.0)
@example(s=1.0)
@given(s=unit)
def test_independent_pairs_match_their_closed_form(s):
    """p = (1 + s^2)/4 and p f = s^2/2 + s(1 - s)/4 + (1 - s)^2/16."""
    result = run_independent_pairs(s)
    n = s * s / 2.0 + s * (1.0 - s) / 4.0 + (1.0 - s) ** 2 / 16.0
    assert abs(result.p_success - (1.0 + s * s) / 4.0) <= 1e-12
    assert abs(result.p_success * result.f_upper - n) <= 1e-12


def _p_and_witness_sum(kind, r, phi, s):
    """A run's p_success and its witness sum, p_success * f_upper."""
    result = run_direct(kind, r, phi, s)
    return result.p_success, result.p_success * result.f_upper


@pytest.mark.parametrize(
    "kind", [ProtocolKind.TWO_PHOTON, ProtocolKind.INDEPENDENT_PAIRS]
)
@PROPERTY_SETTINGS
@given(r=unit, phi=phase, s=unit)
def test_p_and_witness_sum_are_quadratic_in_s(kind, r, phi, s):
    """Each equals the Lagrange quadratic through s = 0, 1/2, 1 (four-photon is
    pinned by its closed form)."""
    nodes = zip(*(_p_and_witness_sum(kind, r, phi, x) for x in (0.0, 0.5, 1.0)))
    weights = (2.0 * (s - 0.5) * (s - 1.0), -4.0 * s * (s - 1.0), 2.0 * s * (s - 0.5))
    for value, at_nodes in zip(_p_and_witness_sum(kind, r, phi, s), nodes):
        fit = sum(w * y for w, y in zip(weights, at_nodes))
        assert abs(value - fit) <= 1e-12


@pytest.mark.parametrize("s, p", [(0.0, 1.0 / 6.0), (1.0, 0.4)])
def test_four_photon_closed_form_at_r_one(s, p):
    assert abs(four_photon_closed_form(1.0, 0.0, s)[0] - p) <= 1e-15
    assert abs(run_four_photon(1.0, 0.0, s).p_success - p) <= 1e-12


#: the closed forms' norm N and the coefficients of N p on s^2, s(1 - s) and
#: (1 - s)^2, each a polynomial in x = r^2, its coefficients from x^0 up
N_TIMES_P = {
    ProtocolKind.FOUR_PHOTON: (
        (F(3, 10), F(2, 5), F(3, 10)),
        ((F(1, 10), F(1, 5), F(1, 10)), (F(2, 15), F(1, 5), F(2, 15)),
         (F(1, 30), F(1, 10), F(1, 30))),
    ),
    ProtocolKind.TWO_PHOTON: (
        (F(1, 2), F(1, 2)),
        ((F(1, 2), F(1, 2)), (F(3, 4), F(3, 4)), (F(1, 4), F(1, 4))),
    ),
    ProtocolKind.INDEPENDENT_PAIRS: ((F(1),), ((F(1, 2),), (F(1, 2),), (F(1, 4),))),
}


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_p_is_at_least_one_ninth(kind):
    """Each coefficient of N p is a polynomial in x with non-negative
    coefficients and a positive constant term, so p > 0 for every x and s in
    [0, 1], and a fidelity is always defined.  Written with N = N s^2 +
    2 N s(1 - s) + N (1 - s)^2, the coefficients of N p - N/9 are such
    polynomials too, but for a constant term that may be 0, so p >= 1/9
    (four-photon at r = 0, s = 0 reaches it).  Runs check the closed forms at
    a few points; the property tests above check them everywhere."""
    norm, coefficients = N_TIMES_P[kind]
    for poly, share in zip(coefficients, (1, 2, 1)):
        assert min(poly) >= 0 and poly[0] > 0
        rest = [a - share * b / 9 for a, b in itertools.zip_longest(poly, norm, fillvalue=0)]
        assert min(rest) >= 0
    for r, s in itertools.product((0.0, 0.5, 1.0), repeat=2):
        at_x = [sum(float(c) * r ** (2 * k) for k, c in enumerate(poly))
                for poly in (norm, *coefficients)]
        n_p = s * s * at_x[1] + s * (1 - s) * at_x[2] + (1 - s) ** 2 * at_x[3]
        assert abs(run_direct(kind, r, 0.0, s).p_success - n_p / at_x[0]) <= 1e-12


@PROPERTY_SETTINGS
@given(r=unit, phi=phase, pairs=st.sampled_from([1, 2]))
def test_schmidt_coefficients_are_a_sorted_unit_spectrum(r, phi, pairs):
    """The squared coefficients sum to 1, they come sorted descending, and the
    entropy lies between 0 and log2 of the amplitude matrix's smaller side (to
    rounding: at r = 1 the bound is met, and the sum can exceed it by 1e-15)."""
    state = spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=pairs))
    alice = [m for m in MODES if m < Mode.B1H]
    bob = [m for m in MODES if m >= Mode.B1H]
    coefficients, ebits = schmidt(state, alice, bob)
    assert abs(math.fsum(c * c for c in coefficients) - 1.0) <= 1e-14
    assert coefficients == sorted(coefficients, reverse=True)
    side = min(
        len({tuple(occ[m] for m in modes) for occ in state.amplitudes})
        for modes in (alice, bob)
    )
    assert -1e-14 <= ebits <= math.log2(side) + 1e-14
