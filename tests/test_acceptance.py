"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math

from pdcpurify import (
    BOTH_DOWN,
    BOTH_UP,
    FOUR_MODE,
    MODES,
    Mode,
    Side,
    SourceParams,
    SpatialMode,
    apply_pbs,
    bbpssw_fidelity,
    depolarize_alice,
    depolarize_partial,
    independent_pairs_state,
    run_four_photon,
    run_independent_pairs,
    schmidt,
    spatially_entangled_state,
    to_density,
    vacuum,
)
from pdcpurify.cli import main as cli_main
from pdcpurify.protocol import linear_grid
from helpers import (
    added,
    allclose,
    depolarize_full,
    eigenvalues,
    fidelity,
    ghz_state,
    inject_bitflip,
    ket,
    postselect,
    reduce_to_pair,
    scaled,
    superposed,
)

ALICE_MODES = [m for m in MODES if m < Mode.B1H]
BOB_MODES = [m for m in MODES if m >= Mode.B1H]
S_GRID_21 = linear_grid(0.0, 1.0, 21)


def check(number, label, ok):
    print(f"criterion {number:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


def transmitted_density(state):
    rho = to_density(state)
    return apply_pbs(apply_pbs(rho, Side.ALICE), Side.BOB)


def test_criterion_01_exact_selection_probabilities():
    four = run_four_photon(1.0, 0.0, 1.0).p_success
    independent = run_independent_pairs(1.0).p_success
    check(
        1,
        "exact selection probabilities 0.4 and 0.5",
        abs(four - 0.4) <= 1e-12 and abs(independent - 0.5) <= 1e-12,
    )


def test_criterion_02_entanglement_entropies():
    _, one_pair = schmidt(
        spatially_entangled_state(SourceParams(pairs=1)), ALICE_MODES, BOB_MODES
    )
    coeffs, two_pairs = schmidt(
        spatially_entangled_state(SourceParams(pairs=2)), ALICE_MODES, BOB_MODES
    )
    _, ghz = schmidt(ghz_state(), ALICE_MODES, BOB_MODES)
    equal_coeffs = len(coeffs) == 10 and all(
        abs(c - 1.0 / math.sqrt(10.0)) <= 1e-10 for c in coeffs
    )
    ok = (
        abs(one_pair - 2.0) <= 1e-9
        and abs(two_pairs - math.log2(10.0)) <= 1e-9
        and equal_coeffs
        and abs(ghz - 1.0) <= 1e-9
    )
    check(2, "entropies 2.0 / log2(10) / 1.0 ebits", ok)


def test_criterion_03_input_fidelity_law():
    bell = superposed(ket(Mode.A1H, Mode.B1H), ket(Mode.A1V, Mode.B1V)).normalized()
    worst = 0.0
    for i in range(11):
        s = i / 10.0
        rho = depolarize_alice(to_density(bell), s)
        measured = fidelity(reduce_to_pair(rho, 1, 1))
        worst = max(worst, abs(measured - (1.0 + 3.0 * s) / 4.0))
    check(3, "single-pair fidelity equals (1+3s)/4", worst <= 1e-12)


def test_criterion_04_ideal_purification_endpoint():
    result = run_four_photon(1.0, 0.0, 1.0)
    rho = transmitted_density(spatially_entangled_state(SourceParams(pairs=2)))
    _, conditional = postselect(rho, FOUR_MODE)
    product_ok = allclose(conditional, to_density(independent_pairs_state()), tol=1e-12)
    pair_ok = (
        abs(fidelity(reduce_to_pair(conditional, 1, 1)) - 1.0) <= 1e-12
        and abs(fidelity(reduce_to_pair(conditional, 2, 2)) - 1.0) <= 1e-12
    )
    ok = (
        abs(result.f_upper - 1.0) <= 1e-12
        and abs(result.f_lower - 1.0) <= 1e-12
        and product_ok
        and pair_ok
    )
    check(4, "ideal endpoint gives two unit-fidelity pairs", ok)


def test_criterion_05_no_lower_threshold():
    results = [run_four_photon(1.0, 0.0, s) for s in S_GRID_21]
    above_diagonal = all(r.f_upper >= r.f_in - 1e-10 for r in results)
    monotone = all(
        b.f_upper >= a.f_upper - 1e-10 for a, b in zip(results, results[1:])
    )
    endpoint = abs(results[-1].f_upper - 1.0) <= 1e-12
    includes_bottom = abs(results[0].f_in - 0.25) <= 1e-12
    check(
        5,
        "ideal curve above the diagonal on the whole grid",
        above_diagonal and monotone and endpoint and includes_bottom,
    )


def test_criterion_06_upper_threshold_from_spatial_quality():
    ok = True
    for r in (0.95, 0.9):
        phi = math.acos(r)
        results = [run_four_photon(r, phi, s) for s in S_GRID_21]
        below_at_top = results[-1].f_upper < 1.0 - 1e-9
        crosses = any(x.f_upper < x.f_in - 1e-12 for x in results) and any(
            x.f_upper > x.f_in + 1e-12 for x in results
        )
        ok = ok and below_at_top and crosses
    check(6, "imperfect spatial entanglement caps the output", ok)


def test_criterion_07_upper_lower_symmetry():
    worst = max(
        abs(run_four_photon(1.0, 0.0, s).f_upper - run_four_photon(1.0, 0.0, s).f_lower)
        for s in (0.0, 0.25, 0.5, 0.75, 1.0)
    )
    check(7, "upper and lower pair fidelities agree at r=1", worst <= 1e-10)


def test_criterion_08_bitflip_rejection():
    upper_component = spatially_entangled_state(SourceParams(r=0, phi=0, pairs=1))
    flipped = inject_bitflip(upper_component, SpatialMode.A1)
    p_two, _ = postselect(transmitted_density(flipped), BOTH_UP | BOTH_DOWN)

    four_mode_component = independent_pairs_state()
    flipped4 = inject_bitflip(four_mode_component, SpatialMode.A1)
    p_four, _ = postselect(transmitted_density(flipped4), FOUR_MODE)
    check(8, "flipped components never pass selection", p_two <= 1e-12 and p_four <= 1e-12)


def test_criterion_09_channel_algebra():
    rho = to_density(spatially_entangled_state(SourceParams(r=0.9, phi=0.4, pairs=2)))
    once = depolarize_full(rho, SpatialMode.A1)
    idempotent = allclose(depolarize_full(once, SpatialMode.A1), once, tol=1e-12)

    traces_ok = True
    psd_ok = True
    for s in (0.0, 0.5, 1.0):
        out = depolarize_partial(rho, SpatialMode.A1, s)
        traces_ok = traces_ok and abs(out.trace() - rho.trace()) <= 1e-12
        eigs = eigenvalues(out)
        psd_ok = psd_ok and (eigs.size == 0 or eigs[0] >= -1e-10)

    vac_ok = allclose(
        depolarize_full(to_density(vacuum()), SpatialMode.A1),
        to_density(vacuum()),
        tol=1e-12,
    )
    one = depolarize_full(to_density(ket(Mode.A1H)), SpatialMode.A1)
    one_ok = allclose(
        one,
        added(
            scaled(to_density(ket(Mode.A1H)), 0.5),
            scaled(to_density(ket(Mode.A1V)), 0.5),
        ),
        tol=1e-12,
    )
    two = depolarize_full(to_density(ket(Mode.A1H, Mode.A1H)), SpatialMode.A1)
    two_ok = allclose(
        two,
        added(
            scaled(to_density(ket(Mode.A1H, Mode.A1H)), 1 / 3),
            scaled(to_density(ket(Mode.A1H, Mode.A1V)), 1 / 3),
            scaled(to_density(ket(Mode.A1V, Mode.A1V)), 1 / 3),
        ),
        tol=1e-12,
    )
    check(
        9,
        "channel idempotence, trace, positivity, component rules",
        idempotent and traces_ok and psd_ok and vac_ok and one_ok and two_ok,
    )


def test_criterion_10_oracle_cross_validation():
    mismatches = []
    for s in S_GRID_21:
        result = run_independent_pairs(s)
        reference = bbpssw_fidelity(result.f_in)
        if abs(result.f_upper - reference) > 1e-9:
            mismatches.append((s, result.f_upper, reference))
    if mismatches:
        # simulated curve is authoritative; the closed form failed validation
        print("analytic reference UNVALIDATED at:", mismatches)
    check(10, "independent-pairs curve matches the recurrence formula", not mismatches)


def test_criterion_11_deterministic_sweep_output(tmp_path):
    args = [
        "sweep", "--protocol", "four-photon", "--r", "0.95", "--cos-phi", "0.95",
        "--s-min", "0", "--s-max", "1", "--steps", "21",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    check(11, "repeated sweeps are byte-identical", first.read_bytes() == second.read_bytes())
