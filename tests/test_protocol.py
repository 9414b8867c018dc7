import math

import pytest

import dense_oracle as oracle
from helpers import fidelity, ghz_state, inject_bitflip, reduce_to_pair, run_direct
from pdcpurify import (
    BOTH_DOWN,
    BOTH_UP,
    FOUR_MODE,
    MODES,
    Mode,
    ProtocolKind,
    ProtocolResult,
    Side,
    SourceParams,
    SpatialMode,
    SweepSpec,
    apply_pbs,
    bbpssw_fidelity,
    independent_pairs_state,
    input_fidelity,
    postselect,
    run_four_photon,
    run_independent_pairs,
    run_two_photon,
    schmidt,
    spatially_entangled_state,
    sweep,
    to_density,
)
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
    assert conditional.allclose(to_density(independent_pairs_state()), tol=1e-12)


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
    assert conditional.allclose(to_density(ghz_state()), tol=1e-12)


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
    with pytest.raises(ValueError):
        bbpssw_fidelity(0.2)
    with pytest.raises(ValueError):
        bbpssw_fidelity(1.01)


def test_independent_pairs_follows_bbpssw_curve():
    for s in linear_grid(0.0, 1.0, 21):
        result = run_independent_pairs(s)
        assert result.f_upper == pytest.approx(
            bbpssw_fidelity(result.f_in), abs=1e-9
        )


def test_input_fidelity_law():
    for s in (0.0, 0.1, 0.5, 1.0):
        assert input_fidelity(s) == pytest.approx((1 + 3 * s) / 4, abs=1e-15)


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


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_sweep_equals_per_point_runs(kind):
    expected = [run_direct(kind, 0.9, 0.45, s) for s in (0.0, 0.5, 1.0)]
    for protocol in (kind, kind.value):  # the enum's value selects the same runs
        spec = SweepSpec((0.0, 0.5, 1.0), r=0.9, phi=0.45, protocol=protocol)
        assert sweep(spec) == expected


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
