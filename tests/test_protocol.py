import functools
import itertools
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as oracle
from helpers import (
    STAGES,
    ZERO_PROBABILITY,
    allclose,
    block_density,
    called_names,
    compensated_sum,
    expect,
    fidelity,
    fixed_readouts,
    ghz_state,
    inject_bitflip,
    lower_pairs,
    postselect,
    record_stages,
    reduce_to_pair,
    run_direct,
    stage_calls,
    unfolded,
    weighted_readouts,
    zero_block,
)
from pdcpurify import (
    BOTH_DOWN,
    BOTH_UP,
    FOUR_MODE,
    MODES,
    DensityOperator,
    Mode,
    ProtocolKind,
    ProtocolResult,
    PureState,
    Side,
    SourceParams,
    SpatialMode,
    SweepSpec,
    apply_pbs,
    bbpssw_fidelity,
    create,
    depolarize_alice,
    depolarize_partial,
    independent_pairs_state,
    input_fidelity,
    run_four_photon,
    run_independent_pairs,
    run_two_photon,
    schmidt,
    spatially_entangled_state,
    sweep,
    to_density,
)
import pdcpurify.channel as channel_module
import pdcpurify.protocol as protocol_module
import pdcpurify.source as source_module
from pdcpurify.protocol import linear_grid

ORACLE_POINTS = [
    (1.0, 0.0, 0.0),
    (1.0, 0.0, 0.5),
    (1.0, 0.0, 1.0),
    (0.95, math.acos(0.95), 0.7),
    (0.9, math.acos(0.9), 1.0),
    (0.6, 2.0, 0.3),
]


def test_four_photon_ideal_endpoint():
    result = run_four_photon(1.0, 0.0, 1.0)
    assert result.p_success == pytest.approx(0.4, abs=1e-12)
    assert result.f_upper == pytest.approx(1.0, abs=1e-12)
    assert result.f_lower == pytest.approx(1.0, abs=1e-12)
    assert result.f_in == pytest.approx(1.0)


def test_four_photon_conditional_is_two_bell_pairs():
    # the selected ideal state equals the two-independent-pairs projector
    rho = to_density(spatially_entangled_state(SourceParams(r=1, phi=0, pairs=2)))
    rho = apply_pbs(apply_pbs(rho, Side.ALICE), Side.BOB)
    _, conditional = postselect(rho, FOUR_MODE)
    assert allclose(conditional, to_density(independent_pairs_state()), tol=1e-12)


def test_four_photon_purifies_even_fully_depolarized_input():
    result = run_four_photon(1.0, 0.0, 0.0)
    assert result.f_in == pytest.approx(0.25)
    assert result.f_upper > 0.25


@pytest.mark.parametrize("r,phi,s", ORACLE_POINTS)
def test_four_photon_matches_dense_oracle(r, phi, s):
    p_ref, fu_ref, fl_ref = oracle.four_photon_reference(r, phi, s)
    result = run_four_photon(r, phi, s)
    assert result.p_success == pytest.approx(p_ref, abs=1e-12)
    assert result.f_upper == pytest.approx(fu_ref, abs=1e-12)
    assert result.f_lower == pytest.approx(fl_ref, abs=1e-12)


@pytest.mark.parametrize("phi", [0.0, 0.4])
@pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_four_photon_upper_lower_symmetry_at_r_one(phi, s):
    result = run_four_photon(1.0, phi, s)
    assert abs(result.f_upper - result.f_lower) <= 1e-10


def test_two_photon_ideal_endpoint():
    result = run_two_photon(1.0, 0.0, 1.0)
    assert result.p_success == pytest.approx(1.0, abs=1e-12)
    assert result.f_upper == pytest.approx(1.0, abs=1e-12)
    assert result.f_lower is None


@pytest.mark.parametrize("s", [0.0, 0.2, 0.5, 0.8, 1.0])
def test_two_photon_closed_form_at_r_one(s):
    # by-hand result for the balanced source: both-up/both-down weight
    # (1+s)/2 and mixed fidelity 1/2 + s^2/(1+s)
    result = run_two_photon(1.0, 0.0, s)
    assert result.p_success == pytest.approx((1.0 + s) / 2.0, abs=1e-12)
    assert result.f_upper == pytest.approx(0.5 + s * s / (1.0 + s), abs=1e-12)


@pytest.mark.parametrize("r,phi,s", ORACLE_POINTS)
def test_two_photon_matches_dense_oracle(r, phi, s):
    p_ref, f_ref = oracle.two_photon_reference(r, phi, s)
    result = run_two_photon(r, phi, s)
    assert result.p_success == pytest.approx(p_ref, abs=1e-12)
    assert result.f_upper == pytest.approx(f_ref, abs=1e-12)


def test_two_photon_purifies_at_moderate_noise():
    result = run_two_photon(1.0, 0.0, 0.8)
    assert result.f_in == pytest.approx(0.85)
    assert result.f_upper >= result.f_in


def test_two_photon_flip_hook_keeps_only_lower_branch():
    # flipping a1 diverts the upper-mode component entirely; what survives
    # is the lower emission, giving one pure |HH> or |VV> pair per branch
    state = spatially_entangled_state(SourceParams(r=1, phi=0, pairs=1))
    rho = to_density(inject_bitflip(state, SpatialMode.A1))
    rho = apply_pbs(apply_pbs(rho, Side.ALICE), Side.BOB)
    p_up, cond_up = postselect(rho, BOTH_UP)
    p_down, cond_down = postselect(rho, BOTH_DOWN)
    p_success = p_up + p_down
    f_out = (
        p_up * fidelity(reduce_to_pair(cond_up, 1, 1))
        + p_down * fidelity(reduce_to_pair(cond_down, 2, 2))
    ) / p_success
    assert p_success == pytest.approx(0.5, abs=1e-12)
    assert f_out == pytest.approx(0.5, abs=1e-12)


def test_independent_pairs_ideal_endpoint():
    result = run_independent_pairs(1.0)
    assert result.p_success == pytest.approx(0.5, abs=1e-12)
    assert result.f_upper == pytest.approx(1.0, abs=1e-12)
    assert result.f_lower is None


def test_independent_pairs_conditional_is_ghz():
    rho = to_density(independent_pairs_state())
    rho = apply_pbs(apply_pbs(rho, Side.ALICE), Side.BOB)
    _, conditional = postselect(rho, FOUR_MODE)
    assert allclose(conditional, to_density(ghz_state()), tol=1e-12)


def test_ghz_state_carries_one_ebit():
    alice = [m for m in MODES if m < Mode.B1H]
    bob = [m for m in MODES if m >= Mode.B1H]
    coefficients, ebits = schmidt(ghz_state(), alice, bob)
    assert len(coefficients) == 2
    assert ebits == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("s", [0.0, 0.3, 0.8, 1.0])
def test_independent_pairs_matches_dense_oracle(s):
    p_ref, f_ref = oracle.independent_pairs_reference(s)
    result = run_independent_pairs(s)
    assert result.p_success == pytest.approx(p_ref, abs=1e-12)
    assert result.f_upper == pytest.approx(f_ref, abs=1e-12)


def test_independent_pairs_success_probability_closed_form():
    for s in (0.0, 0.4, 1.0):
        assert run_independent_pairs(s).p_success == pytest.approx(
            (1.0 + s * s) / 4.0, abs=1e-12
        )


def test_independent_pairs_below_half_degrades():
    s = (4.0 * 0.45 - 1.0) / 3.0  # f_in = 0.45
    result = run_independent_pairs(s)
    assert result.f_in == pytest.approx(0.45, abs=1e-12)
    assert result.f_upper < result.f_in


def test_bbpssw_fixed_points():
    assert bbpssw_fidelity(1.0) == pytest.approx(1.0, abs=1e-14)
    assert bbpssw_fidelity(0.25) == pytest.approx(0.25, abs=1e-14)


def test_bbpssw_domain():
    """Out of range or no number (a bool or a ``Decimal`` is none here): all
    raise ``ValueError``; ``True`` used to return 1.0 and the rest ``TypeError``."""
    for f in (0.2, 1.01, math.nan, True, "0.5", Decimal("0.5"), None):
        with pytest.raises(ValueError, match=r"must be in \[0.25, 1\], got"):
            bbpssw_fidelity(f)
    # the rejected value is shown as its repr, so a string or a Decimal does
    # not read like an accepted float
    for f, shown in (("0.5", "got '0.5'"), (Decimal("0.5"), "got Decimal('0.5')")):
        with pytest.raises(ValueError) as raised:
            bbpssw_fidelity(f)
        assert str(raised.value).endswith(shown)


def test_independent_pairs_follows_bbpssw_curve():
    for s in linear_grid(0.0, 1.0, 21):
        result = run_independent_pairs(s)
        assert result.f_upper == pytest.approx(
            bbpssw_fidelity(result.f_in), abs=1e-9
        )


def test_input_fidelity_law():
    for s in (0.0, 0.1, 0.5, 1.0):
        assert input_fidelity(s) == pytest.approx((1 + 3 * s) / 4, abs=1e-15)


@pytest.mark.parametrize("s", [2.0, -1.0, math.nan, True, "0.5", None])
def test_input_fidelity_rejects_what_is_no_survival_probability(s):
    """2.0 gave 1.75, NaN gave NaN and True gave 1.0; each now raises,
    naming the value as given."""
    with pytest.raises(ValueError, match=r"survival probability s .* got " + re.escape(repr(s))):
        input_fidelity(s)


def test_sweep_ordering_and_determinism():
    spec = SweepSpec(linear_grid(0.0, 1.0, 5), r=0.95, phi=math.acos(0.95))
    first = sweep(spec)
    second = sweep(spec)
    assert [r.params["s"] for r in first] == list(spec.s_values)
    assert first == second  # bit-identical records


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_result_params_are_a_read_only_mapping(kind):
    result = run_direct(kind, 0.9, 0.45, 0.6)
    r, phi = (None, None) if kind is ProtocolKind.INDEPENDENT_PAIRS else (0.9, 0.45)
    assert list(result.params) == ["protocol", "r", "phi", "s"]
    assert dict(result.params) == {"protocol": kind.value, "r": r, "phi": phi, "s": 0.6}
    with pytest.raises(KeyError):
        result.params["f_in"]
    with pytest.raises(TypeError):
        result.params["s"] = 0.1


def test_sweep_four_photon_monotone_in_s():
    results = sweep(SweepSpec((0.0, 0.5, 1.0)))
    assert results[0].f_upper < results[1].f_upper < results[2].f_upper


def test_sweep_upper_threshold_below_one():
    spec = SweepSpec((1.0,), r=0.95, phi=math.acos(0.95))
    (result,) = sweep(spec)
    # closed form for the noiseless endpoint: |1 + r e^{i phi}|^2 / (2 (1 + r^2))
    expected = (1 + 2 * 0.95 * 0.95 + 0.95**2) / (2 * (1 + 0.95**2))
    assert result.f_upper == pytest.approx(expected, abs=1e-12)
    assert result.f_upper < 1.0


def test_sweep_independent_pairs_single_point():
    (result,) = sweep(SweepSpec((1.0,), protocol=ProtocolKind.INDEPENDENT_PAIRS))
    assert result.f_in == pytest.approx(1.0)
    assert result.f_upper == pytest.approx(1.0, abs=1e-12)


def _bits(result):
    """Every field of a result, each number as its ``float.hex``."""
    return tuple(
        v if v is None or isinstance(v, str) else float(v).hex() for v in result
    )


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_sweep_equals_per_point_runs(kind):
    grid = (0.0, 1e-15, 0.5, 1.0 - 1e-15, 1.0)
    for r, phi in ((0, 0), (0.9, 0.45), (1, math.pi)):
        expected = [run_direct(kind, r, phi, s) for s in grid]
        for protocol in (kind, kind.value):  # the enum's value selects the same runs
            spec = SweepSpec(grid, r=r, phi=phi, protocol=protocol)
            assert sweep(spec) == expected
            assert [_bits(res) for res in sweep(spec)] == [_bits(res) for res in expected]


@pytest.mark.parametrize("r", [0.9, 1e-9, 0, 0.0])
@pytest.mark.parametrize("points", [None, 1, 3, 51], ids=["build", "run", "sweep3", "sweep51"])
@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_the_run_path_makes_the_calls_of_the_stage_table(kind, points, r, monkeypatch):
    """A fresh row build, and a run or a sweep of n points (one curve and n
    points) over a built row, make each stage's calls in the stage table, with
    its entry counts."""
    protocol_module._row(kind)  # the kind's first use builds its row
    calls = record_stages(monkeypatch)
    # a 51-point sweep at one phi: its points repeat those of the 3-point one
    for phi in (0.45,) if points == 51 else (0.0, 0.45, 2.0):
        if points is None:
            protocol_module._row.__wrapped__(kind)  # outside the cache
        elif points == 1:
            run_direct(kind, r, phi, 0.5)
        else:
            sweep(SweepSpec(linear_grid(0.0, 1.0, points), r, phi, kind))
        phases = {"build": 1} if points is None else {"curve": 1, "point": points}
        assert calls == stage_calls(kind, r, phases)
        calls.update(STAGES)


@pytest.mark.parametrize("kind", [ProtocolKind.FOUR_PHOTON, ProtocolKind.TWO_PHOTON])
def test_a_curve_builds_no_operator(kind, monkeypatch):
    """Where lambda != 0 a curve weights its row's blocks and builds no
    ``DensityOperator``, checked or trusted; a point builds one, the
    channel's output."""
    protocol_module._row(kind)  # the kind's first use builds its row
    built = []
    trusted, init = DensityOperator._trusted.__func__, DensityOperator.__init__

    def counted_trusted(cls, entries):
        built.append("trusted")
        return trusted(cls, entries)

    def counted_init(self, entries):
        built.append("init")
        init(self, entries)

    monkeypatch.setattr(DensityOperator, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(DensityOperator, "__init__", counted_init)
    at = protocol_module._curve(kind, 0.9, 0.45)
    assert built == []
    at(0.5)
    assert built == ["trusted"]


#: the (r, phi) grid on which the block read must match the Fock build
BLOCK_GRID_R = (0, 1e-9, 0.3, 0.7, 0.9, 0.95, 1)
BLOCK_GRID_PHI = (0, 0.45, math.acos(0.95), 2, math.pi - 1e-9, math.pi)


#: the kind whose row holds each source: ``None`` is two independent pairs
SOURCE_KINDS = {
    1: ProtocolKind.TWO_PHOTON,
    2: ProtocolKind.FOUR_PHOTON,
    None: ProtocolKind.INDEPENDENT_PAIRS,
}


def _row(pairs):
    """The row whose source is ``pairs`` (``None``: two independent pairs)."""
    row = protocol_module._row(SOURCE_KINDS[pairs])
    assert row.pairs == pairs
    return row


def _weighted(row, r, phi):
    """The row's projector and witness blocks weighted at (r, phi), as a
    curve weights them."""
    return protocol_module._weighted(row.norm, (row.projector, row.witness), r, phi)


def _assert_block_read_matches_the_fock_build(r, phi, pairs):
    """The density the lambda-weights stand for, read off the row's fixed
    density, is the Fock build at (r, phi)."""
    source = SourceParams(r, phi, pairs)
    read = block_density(_row(pairs).density, source.r, source.phi).entries
    built = to_density(spatially_entangled_state(source)).entries
    assert read.keys() == built.keys()
    assert max(abs(read[key] - built[key]) for key in built) <= 1e-15


@pytest.mark.parametrize(
    "pairs, rows, exact",
    [
        (1, 16, (Fraction(1, 4), Fraction(1, 4))),
        (2, 100, (Fraction(3, 10), Fraction(2, 5), Fraction(3, 10))),
        (None, 16, (Fraction(1),)),
    ],
)
def test_source_block_traces_are_exact(pairs, rows, exact):
    """The fixed density is uniform over its kets, each entry the nearest
    float of 1 over their number, and the row's norm polynomial holds the
    nearest floats of the traces of its (k, k) blocks, k lower pairs on ket
    and bra, over the recipe's factor: (2, 2)/4 over two-photon's mirror 2
    for one pair, (12, 16, 12)/40 over 1 for two, and the whole trace for
    independent pairs."""
    row = _row(pairs)
    assert len(row.density.entries) == rows  # one per pair of kets
    assert set(row.density.entries.values()) == {complex(Fraction(1, math.isqrt(rows)))}
    assert row.norm == tuple(map(float, exact))


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_the_fold_of_block_k_j_onto_j_k_is_an_identity(kind):
    """A row keeps only the blocks j <= k, because block (k, j) reads the
    conjugate of block (j, k): the fixed density is Hermitian exactly, each
    map's (k, j) entries are its (j, k) entries with ket and bra swapped and
    equal values, and the channel's output of the density is Hermitian to
    1e-16.  The row's blocks are the j <= k entries of the maps, tagged with
    their own lower pairs, the value doubled off the diagonal, and unfold to
    the whole maps exactly."""
    row = protocol_module._row(kind)
    entries = row.density.entries
    for (ket, bra), v in entries.items():
        assert entries[(bra, ket)] == v.conjugate()
    tag = (lambda occ: 0) if row.pairs is None else lower_pairs
    for a, blocks in zip(fixed_readouts(kind), (row.projector, row.witness)):
        tagged = {key: (v, tag(key[0]), tag(key[1])) for key, v in a.entries.items()}
        for (ket, bra), (v, j, k) in tagged.items():
            assert tagged[(bra, ket)] == (v, k, j)
        for j, k, v, keys in blocks:
            assert j <= k
            assert all(tagged[key] == (v if j == k else v / 2, j, k) for key in keys)
        assert unfolded(blocks).entries == a.entries
    for s in (0.0, 0.5, 1.0):
        out = depolarize_alice(row.density, s).entries
        for (ket, bra), v in out.items():
            assert abs(v - out[(bra, ket)].conjugate()) <= 1e-16


@pytest.mark.parametrize("pairs", [1, 2])
def test_block_read_matches_the_fock_build_on_the_grid(pairs):
    for r in BLOCK_GRID_R:
        for phi in BLOCK_GRID_PHI:
            _assert_block_read_matches_the_fock_build(r, phi, pairs)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=1.0),
    phi=st.floats(min_value=-10.0, max_value=10.0),
    pairs=st.sampled_from([1, 2]),
)
def test_block_read_matches_the_fock_build_at_random_points(r, phi, pairs):
    _assert_block_read_matches_the_fock_build(r, phi, pairs)


#: r where the weights of the blocks with lower pairs are tiny: r^3 is 1e-15
#: to 3e-14 and r^4 1e-20 to 1e-18
SMALL_R = (1e-5, 10**-4.75, 10**-4.5)


@pytest.mark.parametrize("kind", [ProtocolKind.FOUR_PHOTON, ProtocolKind.TWO_PHOTON])
def test_runs_at_small_r_match_the_dense_oracle_to_rounding(kind):
    """A block's weight of 1e-20 still counts: no weighted term is dropped
    before it is summed, so at small r every number is at rounding distance,
    1e-15, from the dense oracle."""
    if kind is ProtocolKind.FOUR_PHOTON:
        reference = oracle.four_photon_reference
    else:
        reference = oracle.two_photon_reference
    for r, phi, s in itertools.product(SMALL_R, (0.0, 0.45, 2.0), (0.5, 1.0)):
        result = run_direct(kind, r, phi, s)
        p_ref, *f_refs = reference(r, phi, s)
        assert abs(result.p_success - p_ref) <= 1e-15, (r, phi, s)
        for f, f_ref in zip((result.f_upper, result.f_lower), f_refs):
            assert abs(f - f_ref) <= 1e-15, (r, phi, s)


@pytest.mark.parametrize("n", [2, 4])
def test_pattern_projectors_partition_the_n_photon_occupations(n):
    """The projectors of all n-photon patterns, many with 2 or more photons in
    one spatial mode, are 1 on disjoint diagonals that cover every n-photon
    occupation, so their sum is 1 on the whole sector."""
    covered = []
    patterns = [c for c in itertools.product(range(n + 1), repeat=4) if sum(c) == n]
    for counts in patterns:
        entries = protocol_module._projector(frozenset({counts})).entries
        assert all(ket == bra and v == 1 for (ket, bra), v in entries.items())
        covered.extend(ket for ket, _ in entries)
    assert sorted(covered) == list(oracle.basis(n))


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_block_reads_of_the_fixed_density_read_the_fock_build(kind):
    """Tr(A_lambda C_s(rho_1)) = factor Tr(A C_s(rho)) for the projector and
    the witness on the grid: the channel keeps each entry's lower pairs, so
    the lambda-weights can sit on the readout maps in place of the density,
    and the weights also carry the recipe's factor (two-photon's 2), divided
    into the row's norm polynomial.  This holds for the maps weighted entry
    by entry (``weighted_readouts``), and for the row's blocks weighted once
    per curve and read with the fold."""
    row = protocol_module._row(kind)
    factor = protocol_module._RECIPES[kind][3]
    fixed = fixed_readouts(kind)
    for r in BLOCK_GRID_R:
        for phi in BLOCK_GRID_PHI:
            if row.pairs is None:
                state, weights = independent_pairs_state(), (1.0, 0.0)
            else:
                source = SourceParams(r, phi, row.pairs)
                state, weights = spatially_entangled_state(source), (source.r, source.phi)
            maps = weighted_readouts(kind, *weights)
            blocks = _weighted(row, *weights)
            for s in (0.0, 0.5, 1.0):
                fixed_s = depolarize_alice(row.density, s)
                built_s = depolarize_alice(to_density(state), s)
                for a_lambda, weighted, a in zip(maps, blocks, fixed):
                    expected = factor * expect(built_s, a)
                    assert abs(expect(fixed_s, a_lambda) - expected) <= 1e-15
                    read = protocol_module._read(weighted, fixed_s.entries)
                    assert abs(read - expected.real) <= 1e-15


def _branch_sums(block, reads):
    """Each of ``reads``, one per map, summed over the three branches of C_s
    on ``block`` that the channel builds at s = 0: the block, D_a1 + D_a2 of
    it and D_a1 D_a2 of it, with D the full depolarization of one of Alice's
    spatial modes."""
    branches = (
        (block,),
        (depolarize_partial(block, SpatialMode.A1, 0.0),
         depolarize_partial(block, SpatialMode.A2, 0.0)),
        (depolarize_alice(block, 0.0),),
    )
    return tuple(
        tuple(sum(read(rho) for rho in branch) for branch in branches) for read in reads
    )


def _block_reads(weighted):
    """The row's read of each map's weighted blocks off a density."""
    return tuple(
        lambda rho, blocks=blocks: protocol_module._read(blocks, rho.entries)
        for blocks in weighted
    )


def _reference_reads(maps):
    """``expect``'s real part for each of ``maps`` off a density."""
    return tuple(lambda rho, a=a: expect(rho, a).real for a in maps)


def test_independent_pairs_density_is_the_fock_build_exactly():
    """Independent pairs take no lambda: the row's density is the Fock build,
    its blocks weighted at any lambda carry their own values (weight 1), its
    maps weighted entry by entry are the fixed maps, and its quadratics are
    the fixed maps read off the Fock build's three channel branches, bit for
    bit."""
    kind = ProtocolKind.INDEPENDENT_PAIRS
    row = _row(None)
    built = to_density(independent_pairs_state())
    assert row.norm == (1.0,)
    assert row.density.entries == built.entries
    fixed = fixed_readouts(kind)
    own_values = tuple(
        tuple((v, keys) for _, _, v, keys in blocks) for blocks in (row.projector, row.witness)
    )
    for weights in ((1.0, 0.0), (0.0, 0.0)):
        assert _weighted(row, *weights) == own_values
        weighted = weighted_readouts(kind, *weights)
        assert [a.entries for a in weighted] == [a.entries for a in fixed]
    assert row.zero_quadratics == _branch_sums(built, _reference_reads(fixed))
    assert row.zero_quadratics == _branch_sums(built, _block_reads(own_values))


@pytest.mark.parametrize(
    "kind, block",
    [(ProtocolKind.FOUR_PHOTON, 9), (ProtocolKind.TWO_PHOTON, 4)],
)
def test_maps_weighted_at_r_zero_read_only_the_zero_block(kind, block):
    """At r = 0 only the (0, 0) blocks of the maps carry a weight, so they
    read only the fixed density's (0, 0) block of ``block`` entries, no lower
    pair on ket or bra, and the weights do not depend on phi.  So a float
    read off the channel's three branches of the whole density is that of
    the block alone, bit for bit.  The row's quadratics, read exactly off
    those branches, are the nearest floats of their rationals; they are what
    the maps weighted entry by entry read to 1e-15, and give what the full
    density gives under the channel to 1e-15."""
    row = protocol_module._row(kind)
    assert len(zero_block(row).entries) == block
    zero = _weighted(row, 0.0, 0.0)
    for phi in BLOCK_GRID_PHI:
        assert _weighted(row, 0.0, phi) == zero
    for blocks, weighted in zip((row.projector, row.witness), zero):
        assert len(blocks) == len(weighted)
        for (j, k, _, _), (w, _) in zip(blocks, weighted):
            assert (w != 0) == (j == k == 0)
    assert _branch_sums(zero_block(row), _block_reads(zero)) == _branch_sums(
        row.density, _block_reads(zero)
    )
    assert row.zero_quadratics == _nearest_floats(ZERO_QUADRATICS[kind])
    reference = _branch_sums(row.density, _reference_reads(weighted_readouts(kind, 0.0, 0.0)))
    for quadratic, expected in zip(row.zero_quadratics, reference):
        assert max(abs(a - b) for a, b in zip(quadratic, expected)) <= 1e-15
    for s in (0.0, 1e-15, 0.3, 1.0 - 1e-15, 1.0):
        rho_s = depolarize_alice(row.density, s).entries
        for (a, b, c), weighted in zip(row.zero_quadratics, zero):
            read = protocol_module._read(weighted, rho_s)
            assert abs(s * s * a + s * (1 - s) * b + (1 - s) ** 2 * c - read) <= 1e-15


#: p and the witness sum at lambda = 0 (independent pairs, and r = 0), each
#: as its exact coefficients on s^2, s(1 - s) and (1 - s)^2
ZERO_QUADRATICS = {
    ProtocolKind.INDEPENDENT_PAIRS: (
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 16)),
    ),
    ProtocolKind.FOUR_PHOTON: (
        (Fraction(1, 3), Fraction(4, 9), Fraction(1, 9)),
        (Fraction(1, 6), Fraction(2, 9), Fraction(1, 18)),
    ),
    ProtocolKind.TWO_PHOTON: (
        (Fraction(1), Fraction(3, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(3, 4), Fraction(1, 4)),
    ),
}


def _nearest_floats(quadratics):
    """Each coefficient of ``quadratics`` as its nearest float."""
    return tuple(tuple(map(float, quadratic)) for quadratic in quadratics)


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_zero_quadratics_are_exact(kind):
    """The row's float coefficients at lambda = 0 are the nearest floats of
    the exact rationals (two-photon's carry its mirror factor 2)."""
    quadratics = protocol_module._row(kind).zero_quadratics
    assert quadratics == _nearest_floats(ZERO_QUADRATICS[kind])


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_the_scaled_channel_branches_hold_integers(kind):
    """The row build runs the channel's three branches at s = 0 on its
    density's integer numerators scaled by ``_BRANCH_SCALE``: every split
    divides evenly, so every entry of every branch is an integer, and the
    quadratics read off them are exact."""
    pairs = protocol_module._RECIPES[kind][0]
    numerators, _ = protocol_module._onto([source_module._factors(pairs)])
    branches = protocol_module._branches(numerators)
    assert [len(branch) for branch in branches] == [1, 2, 1]
    for rho in itertools.chain(*branches):
        assert rho and all(float(v).is_integer() for v in rho.values())


def test_onto_refuses_kets_of_different_lengths():
    """``_onto`` sums integer numerators over one term count, so a ket with
    a different number of terms from the first is refused."""
    one_term, two_terms = ({(Mode.A1H, Mode.B1H): 1},), (source_module._PHI[1],)
    assert protocol_module._onto([one_term, one_term]) == ({((1, 0, 0, 0, 1, 0, 0, 0),) * 2: 2}, 1)
    with pytest.raises(ValueError, match="equal lengths, got 1 and 2 terms"):
        protocol_module._onto([one_term, two_terms])


#: the grid on which no output bit may move: r and phi for every kind (the
#: independent pairs ignore them), s on the 21-point grid and near its ends
SUM_GRID_R = (0, 1e-9, 1e-4, 0.3, 0.7, 0.9, 0.95, 1)
SUM_GRID_S = sorted(linear_grid(0.0, 1.0, 21) + (1e-15, 1e-13, 1.0 - 1e-15))


def _sum_grid_results():
    """``repr`` of every result on the grid, one sweep per (kind, r, phi)."""
    return [
        repr(result)
        for kind, r, phi in itertools.product(ProtocolKind, SUM_GRID_R, BLOCK_GRID_PHI)
        for result in sweep(SweepSpec(SUM_GRID_S, r, phi, kind))
    ]


def test_no_result_depends_on_how_sum_rounds(monkeypatch):
    """With a compensated ``sum`` in ``protocol``, ``channel`` and ``source``
    (which the rows read their kets from) and every row built again, each
    of the 3456 results on the grid is the same, bit for bit: the run path
    reduces its floats in fixed-order loops."""
    expected = _sum_grid_results()
    assert len(expected) == 3456
    for module in (protocol_module, channel_module, source_module):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    monkeypatch.setattr(protocol_module, "_row", functools.cache(protocol_module._row.__wrapped__))
    assert _sum_grid_results() == expected


def test_the_run_path_calls_no_builtin_sum():
    """``_weighted``, ``_read`` and ``_curve`` call no builtin ``sum``, which
    compensates from Python 3.12 on and so could move an output bit."""
    for name in ("_weighted", "_read", "_curve"):
        assert "sum" not in called_names(protocol_module, name), name


def test_independent_pairs_fidelity_is_bbpssw_exactly():
    """The independent-pairs f, the exact witness quadratic over the exact p
    quadratic, is ``bbpssw_fidelity((1 + 3s)/4)`` in ``Fraction``s.  Both are
    ratios of quadratics in s, so their cross difference is a quartic, and
    its vanishing at 5 or more points proves the identity for every s."""
    (p0, p1, p2), (w0, w1, w2) = ZERO_QUADRATICS[ProtocolKind.INDEPENDENT_PAIRS]
    points = [Fraction(k, 7) for k in range(8)] + [Fraction(1, 3), Fraction(9, 10)]
    for s in points:
        t = 1 - s
        f = (w0 * s * s + w1 * s * t + w2 * t * t) / (p0 * s * s + p1 * s * t + p2 * t * t)
        assert f == bbpssw_fidelity((1 + 3 * s) / 4)
    assert len(set(points)) >= 5


def _weighted_per_call(kind, r, phi, s):
    """The run with its maps weighted entry by entry at this call
    (``weighted_readouts``, the recipe's factor included) and read with
    ``expect`` off the channel run at this call on the row's fixed density:
    independent pairs at lambda = 1, the two-pass source at its own (r, phi).
    The reference that the reads at lambda = 0 must match."""
    row = protocol_module._row(kind)
    if row.pairs is None:
        r = phi = None
        maps = weighted_readouts(kind, 1.0, 0.0)
    else:
        source = SourceParams(r, phi, row.pairs)
        maps = weighted_readouts(kind, source.r, source.phi)
    rho_s = depolarize_alice(row.density, s)
    p, weighted = (expect(rho_s, a).real for a in maps)
    f = weighted / p if p > ZERO_PROBABILITY else None
    return ProtocolResult(kind.value, r, phi, s, p, f, f if row.mirrored else None)


#: s at the edges and inside, for the reads at lambda = 0
FIXED_WEIGHT_S = (0.0, 1e-15, 0.3, 1.0 - 1e-15, 1.0)


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_fixed_weight_reads_are_the_per_call_weighting_bit_for_bit(kind):
    """Independent pairs, and r = 0 at any phi, give from the row's quadratics
    what maps weighted at each call read off the channel's output, to 1e-15
    (the sums round in another order), and a run gives the sweep's ``repr``
    bit for bit."""
    if kind is ProtocolKind.INDEPENDENT_PAIRS:
        points = [(1.0, 0.0)]  # ignored: independent pairs take no r or phi
    else:
        points = [(r, phi) for r in (0, 0.0) for phi in BLOCK_GRID_PHI + (-1.0, 7.0)]
    for r, phi in points:
        runs = [run_direct(kind, r, phi, s) for s in FIXED_WEIGHT_S]
        for run, s in zip(runs, FIXED_WEIGHT_S):
            expected = _weighted_per_call(kind, r, phi, s)
            assert run[:4] == expected[:4]
            for got, want in zip(run[4:], expected[4:]):
                assert (got is None) == (want is None)
                assert got is None or abs(got - want) <= 1e-15
        spec = SweepSpec(FIXED_WEIGHT_S, r, phi, kind)
        assert [repr(res) for res in sweep(spec)] == [repr(res) for res in runs]


#: imports the package, runs ``state`` and one two-photon run in a fresh
#: interpreter, and prints after each step how many rows exist and how many
#: were built (``_row``'s cache size and misses); a last two-photon lookup
#: builds nothing, so the one row is two-photon's
LAZY_ROWS_PROBE = """
import contextlib, io
import pdcpurify
import pdcpurify.cli
from pdcpurify import protocol

def built():
    info = protocol._row.cache_info()
    return info.currsize, info.misses

print(built())
with contextlib.redirect_stdout(io.StringIO()):
    assert pdcpurify.cli.main(["state", "--pairs", "2"]) == 0
print(built())
pdcpurify.run_two_photon(0.9, 0.45, 0.5)
print(built())
pdcpurify.run_two_photon(0.0, 0.45, 0.5)
pdcpurify.sweep(pdcpurify.SweepSpec((0.0, 1.0), 0.3, 2.0, "two-photon"))
print(built())
protocol._row(protocol.ProtocolKind.TWO_PHOTON)
print(built())
"""


def test_rows_are_built_on_their_kinds_first_use(tmp_path):
    """``import pdcpurify`` and ``state`` build no row; a two-photon run builds
    two-photon's row alone, and later two-photon calls build none."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", LAZY_ROWS_PROBE],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["(0, 0)", "(0, 0)"] + ["(1, 1)"] * 3


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(())
    with pytest.raises(ValueError):
        SweepSpec((0.0, 1.2))
    with pytest.raises(ValueError):
        SweepSpec((0.5, 0.5))
    with pytest.raises(ValueError):
        SweepSpec((0.8, 0.2))
    for protocol in ("bogus", None):
        with pytest.raises(ValueError):
            SweepSpec((0.5,), protocol=protocol)
    for s_values in (0.5, None):  # not iterable: a ValueError, not a TypeError
        with pytest.raises(ValueError, match="s_values"):
            SweepSpec(s_values)
    # characters, byte values and hash order are no grid, even when in range
    for s_values in ("0.5", b"ab", {0.2, 0.5, 0.1}, frozenset({0.1, 0.2})):
        with pytest.raises(ValueError, match="s_values"):
            SweepSpec(s_values)


def test_sweep_spec_messages_name_the_first_offence():
    """A bad value or pair in a 10^5-point grid is named with its index; the
    message no longer prints the whole grid."""
    grid = list(linear_grid(0.0, 1.0, 100_000))
    out_of_range = grid[:70_000] + [1.5] + grid[70_001:]
    with pytest.raises(ValueError, match="s values must be numbers") as caught:
        SweepSpec(out_of_range)
    assert "1.5 at index 70000" in str(caught.value)
    assert len(str(caught.value)) <= 120
    repeated = grid[:40_000] + [grid[39_999]] + grid[40_001:]
    with pytest.raises(ValueError, match="strictly increasing") as caught:
        SweepSpec(repeated)
    assert f"{grid[39_999]!r} then {grid[39_999]!r} at index 40000" in str(caught.value)
    assert len(str(caught.value)) <= 120


@pytest.mark.parametrize("s", [None, "0.5", 0.5j, Decimal("0.5")])
def test_sweep_spec_rejects_a_non_number_s(s):
    with pytest.raises(ValueError, match="s values must be numbers"):
        SweepSpec((0.25, s))


@pytest.mark.parametrize("s", [None, "0.5", Decimal("0.5")])
def test_runs_reject_a_non_number_s(s):
    """One check names s before either branch, the channel's (r != 0) and
    the quadratics' (r = 0 and independent pairs), where a comparison used
    to raise ``TypeError``; every run gives the same message."""
    messages = set()
    for run in (
        lambda: run_four_photon(1.0, 0.0, s),
        lambda: run_two_photon(1.0, 0.0, s),
        lambda: run_four_photon(0.0, 0.0, s),
        lambda: run_two_photon(0.0, 0.0, s),
        lambda: run_independent_pairs(s),
    ):
        with pytest.raises(ValueError, match="survival probability s") as caught:
            run()
        messages.add(str(caught.value))
    assert len(messages) == 1


@pytest.mark.parametrize("value", [True, False])
def test_bools_are_no_numbers(value):
    """A bool r, phi or s used to pass every check and reach the output, such
    as ``"s": true`` in a sweep's JSON; each raises ``ValueError`` naming it."""
    for build, message in [
        (lambda: SweepSpec((value,), protocol="two-photon"), "s values must"),
        (lambda: SweepSpec((0.5,), r=value), "r must"),
        (lambda: SweepSpec((0.5,), phi=value), "phi must"),
        (lambda: run_four_photon(value, 0, 0.5), "r must"),
        (lambda: run_four_photon(1, value, 0.5), "phi must"),
        (lambda: run_four_photon(1, 0, value), "survival probability s"),
        (lambda: run_two_photon(1, 0, value), "survival probability s"),
        (lambda: run_independent_pairs(value), "survival probability s"),
        (lambda: linear_grid(value, 1.0, 3), "s_min"),
        (lambda: linear_grid(0.0, value, 3), "s_max"),
    ]:
        with pytest.raises(ValueError, match=message):
            build()
    with pytest.raises(ValueError, match="r must"):
        run_four_photon(True, 0, False)
    with pytest.raises(ValueError, match="s_min"):
        linear_grid(False, True, 3)


#: an int past Python's 4300-digit limit for printing ints
HUGE = 10**5000
#: each call that rejects a value whose repr fails or runs long, or a value
#: of the wrong type, with the parameter its message names
UNPRINTABLE = {
    "SweepSpec s": (lambda: SweepSpec((HUGE,)), "s values must"),
    "SweepSpec r": (lambda: SweepSpec((0.5,), r=HUGE), "r must"),
    "SweepSpec long r": (lambda: SweepSpec((0.5,), r="0" * 10**6), "r must"),
    "SourceParams pairs": (lambda: SourceParams(pairs=HUGE), "pairs must"),
    "run_four_photon r": (lambda: run_four_photon(HUGE, 0, 0.5), "r must"),
    "run_four_photon phi": (lambda: run_four_photon(0.9, HUGE, 0.5), "phi must"),
    "run_two_photon s": (
        lambda: run_two_photon(0.9, 0.4, HUGE), "survival probability s"
    ),
    "input_fidelity": (lambda: input_fidelity(HUGE), "survival probability s"),
    "bbpssw_fidelity": (lambda: bbpssw_fidelity(HUGE), "input fidelity must"),
    "depolarize_partial s": (
        lambda: depolarize_partial(DensityOperator({}), SpatialMode.A1, HUGE),
        "survival probability s",
    ),
    "depolarize_partial target": (
        lambda: depolarize_partial(DensityOperator({}), HUGE, 0.5),
        "target must",
    ),
    "depolarize_partial rho": (
        lambda: depolarize_partial(HUGE, SpatialMode.A1, 0.5), "rho must"
    ),
    "apply_pbs side": (lambda: apply_pbs(DensityOperator({}), HUGE), "side must"),
    "apply_pbs rho": (lambda: apply_pbs(HUGE, Side.ALICE), "rho must"),
    "linear_grid steps": (lambda: linear_grid(0, 1, HUGE), "steps must"),
    "linear_grid s_min": (lambda: linear_grid(-HUGE, 1, 3), "s_min"),
    "DensityOperator key": (
        lambda: DensityOperator({((-HUGE,) + (0,) * 7, (0,) * 8): 1.0}),
        "negative occupation",
    ),
    "to_density None": (lambda: to_density(None), "state must be a PureState"),
    "to_density str": (lambda: to_density("x"), "state must be a PureState"),
    "create state": (lambda: create(Mode.A1H, None), "state must be a PureState"),
    "schmidt state": (
        lambda: schmidt(None, MODES[:4], MODES[4:]), "state must be a PureState"
    ),
    "schmidt modes": (
        lambda: schmidt(spatially_entangled_state(SourceParams()), "ab", MODES[4:]),
        "each of alice_modes must be a Mode, got 'a'",
    ),
    "spatially_entangled_state None": (
        lambda: spatially_entangled_state(None), "params must be a SourceParams"
    ),
    "spatially_entangled_state tuple": (
        lambda: spatially_entangled_state((1.0, 0.0, 2)), "params must be a SourceParams"
    ),
    "sweep None": (lambda: sweep(None), "spec must be a SweepSpec"),
    "sweep tuple": (lambda: sweep((0.5,)), "spec must be a SweepSpec"),
    "PureState None": (lambda: PureState(None), "amplitudes must be a Mapping"),
    "DensityOperator None": (lambda: DensityOperator(None), "entries must be a Mapping"),
    "DensityOperator int key": (
        lambda: DensityOperator({1: 1}), r"entry key 1 is not a \(ket, bra\) pair"
    ),
    "PureState int key": (
        lambda: PureState({1: 1}), "occupation tuple must have 8 entries, got 1"
    ),
    "DensityOperator bytes value": (
        lambda: DensityOperator({((0,) * 8, (0,) * 8): b"1"}), "value b'1' at .* number"
    ),
}


@pytest.mark.parametrize("name", list(UNPRINTABLE))
def test_rejection_messages_are_bounded(name):
    """A rejected value is shown by a bounded repr.  Formatted with ``!r``, an
    int too long to print makes the message itself raise ``ValueError: Exceeds
    the limit (4300 digits) for integer string conversion``, which names no
    parameter."""
    call, parameter = UNPRINTABLE[name]
    with pytest.raises(ValueError, match=parameter) as caught:
        call()
    assert len(str(caught.value)) < 200


def test_int_r_phi_and_s_accepted():
    assert SweepSpec((0, 1), r=1, phi=0)[:3] == ((0, 1), 1, 0)
    assert linear_grid(0, 1, 3) == (0.0, 0.5, 1)
    assert run_four_photon(1, 0, 1) == run_four_photon(1.0, 0.0, 1.0)


@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_sweep_spec_checks_r_and_phi_for_every_protocol(protocol):
    """r and phi follow ``SourceParams``'s rule when the spec is built, also
    for independent pairs, which do not use them; phi is stored unwrapped."""
    for r, phi, message in [(5.0, math.nan, "r must"), (-0.1, 0.0, "r must"),
                            (math.nan, 0.0, "r must"), (1.0, math.nan, "phi must"),
                            (1.0, math.inf, "phi must")]:
        with pytest.raises(ValueError, match=message):
            SweepSpec((0.5,), r=r, phi=phi, protocol=protocol)
    assert SweepSpec((0.5,), r=0.5, phi=7.0, protocol=protocol)[1:3] == (0.5, 7.0)


def test_sweep_spec_keeps_its_own_grid():
    grid = [0.2, 0.5]
    spec = SweepSpec(grid)
    grid.append(0.1)
    assert spec.s_values == (0.2, 0.5)
    assert [result.s for result in sweep(spec)] == [0.2, 0.5]


def test_replaced_records_pass_the_checks_again():
    assert SweepSpec((0.5,))._replace(s_values=[0.1, 0.2]).s_values == (0.1, 0.2)
    with pytest.raises(ValueError, match="increasing"):
        SweepSpec((0.5,))._replace(s_values=(0.2, 0.1))
    assert SourceParams()._replace(phi=7.0).phi == pytest.approx(7.0 - 2.0 * math.pi)
    with pytest.raises(ValueError, match="pairs"):
        SourceParams()._replace(pairs=2.0)


#: each record type with its field names, in order
RECORD_FIELDS = {
    SweepSpec: ("s_values", "r", "phi", "protocol"),
    SourceParams: ("r", "phi", "pairs"),
    ProtocolResult: ("protocol", "r", "phi", "s", "p_success", "f_upper", "f_lower"),
}


def test_records_build_compare_and_stay_frozen():
    """The three records take their fields by position or keyword, with
    defaults, compare and hash by value, and reject every assignment."""
    spec = SweepSpec((0.5,))
    assert tuple(getattr(spec, name) for name in RECORD_FIELDS[SweepSpec]) == (
        (0.5,), 1.0, 0.0, ProtocolKind.FOUR_PHOTON
    )
    assert SweepSpec((0.5,), protocol="two-photon").protocol is ProtocolKind.TWO_PHOTON
    source = SourceParams()
    assert (source.r, source.phi, source.pairs) == (1.0, 0.0, 1)
    result = ProtocolResult("four-photon", 1.0, 0.0, 1.0, 0.4, 1.0, None)
    twins = [
        (spec, SweepSpec(s_values=(0.5,), r=1.0, phi=0.0, protocol="four-photon")),
        (source, SourceParams(1.0, 0.0, 1)),
        (result, ProtocolResult(protocol="four-photon", r=1.0, phi=0.0, s=1.0,
                                p_success=0.4, f_upper=1.0, f_lower=None)),
    ]
    for record, twin in twins:
        assert record == twin and hash(record) == hash(twin)
        for name in RECORD_FIELDS[type(record)]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0.5)
    assert SweepSpec((0.5,), 0.9) != spec and SourceParams(pairs=2) != source
    assert repr(result) == (
        "ProtocolResult(protocol='four-photon', r=1.0, phi=0.0, s=1.0, "
        "p_success=0.4, f_upper=1.0, f_lower=None)"
    )
    assert repr(source) == "SourceParams(r=1.0, phi=0.0, pairs=1)"
    assert repr(spec) == (
        "SweepSpec(s_values=(0.5,), r=1.0, phi=0.0, "
        "protocol=<ProtocolKind.FOUR_PHOTON: 'four-photon'>)"
    )


def test_records_take_no_new_attributes():
    for record in (SweepSpec((0.5,)), SourceParams(), run_four_photon(1.0, 0.0, 1.0)):
        with pytest.raises(AttributeError):
            record.extra = 0.5


def test_grid_helper():
    grid = linear_grid(0.0, 1.0, 21)
    assert len(grid) == 21
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    with pytest.raises(ValueError):
        linear_grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        linear_grid(0.5, 0.5, 3)
    for steps in (3.0, 2.5):  # an integral float is no int either
        with pytest.raises(ValueError, match="steps"):
            linear_grid(0.0, 1.0, steps)
    # two floats apart: three evenly spaced values would repeat one of them
    with pytest.raises(ValueError, match="steps = 3 .*s_min = 0.5 .*s_max = 0.5000000000000001"):
        linear_grid(0.5, 0.5000000000000001, 3)
    assert linear_grid(0.5, 0.5000000000000001, 2) == (0.5, 0.5000000000000001)


def test_grid_ends_exactly_at_its_endpoints():
    assert linear_grid(0.1, 1.0, 8)[-1] == 1.0
    for hundredths in range(100):
        s_min = hundredths / 100
        for steps in range(2, 60):
            grid = linear_grid(s_min, 1.0, steps)
            assert grid[0] == s_min and grid[-1] == 1.0
            SweepSpec(grid)  # in [0, 1] and strictly increasing
    assert linear_grid(0.0, 0.9, 10)[-1] == 0.9


def test_grid_size_is_capped():
    with pytest.raises(ValueError, match="steps"):
        linear_grid(0.0, 1.0, 1_000_001)
