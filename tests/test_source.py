import ast
import cmath
import math
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdcpurify import (
    MODES,
    Mode,
    create,
    SourceParams,
    independent_pairs_state,
    schmidt,
    spatially_entangled_state,
    vacuum,
)
from helpers import inner_product, map_basis, spatial_totals, superposed

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
    for field, value in (
        ("r", None), ("r", "0.5"), ("phi", None), ("r", Decimal("0.5")), ("phi", Decimal("0.5"))
    ):
        with pytest.raises(ValueError, match=field):
            SourceParams(**{field: value})


@pytest.mark.parametrize("pairs", [0, 2.0, 1.0, True, "2", None])
def test_pairs_must_be_the_int_one_or_two(pairs):
    with pytest.raises(ValueError, match="pairs"):
        SourceParams(pairs=pairs)


@pytest.mark.parametrize("field", ["r", "phi"])
@pytest.mark.parametrize("value", [True, False])
def test_bools_are_no_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        SourceParams(**{field: value})


def test_int_r_and_phi_accepted():
    assert SourceParams(r=1, phi=0, pairs=2) == (1, 0.0, 2)


def test_phi_beyond_float_range_rejected():
    """An int phi too large for a float used to escape as ``OverflowError``."""
    with pytest.raises(ValueError, match="phi"):
        SourceParams(phi=10**400)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_phi_rejected(phi):
    with pytest.raises(ValueError, match="phi"):
        SourceParams(r=1, phi=phi)


def test_phi_wraps_into_principal_range():
    params = SourceParams(r=1, phi=2.0 * math.pi + 0.25)
    assert params.phi == pytest.approx(0.25)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(phi=st.floats(allow_nan=False, allow_infinity=False))
@example(phi=-1e-300)
@example(phi=-5e-324)
@example(phi=-0.0)
@example(phi=2.0 * math.pi)
@example(phi=-2.0 * math.pi)
def test_phi_lands_in_zero_to_two_pi(phi):
    assert 0.0 <= SourceParams(r=1, phi=phi).phi < 2.0 * math.pi


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


def _pairs_built_stepwise(weights):
    """The unnormalized state after one pair emission per (upper, lower)
    weight pair, built channel by channel with ``scaled`` and a pruned sum."""
    state = vacuum()
    for upper, lower in weights:
        out = create(Mode.B1H, create(Mode.A1H, state)).scaled(upper)
        out = superposed(out, create(Mode.B1V, create(Mode.A1V, state)).scaled(upper))
        out = superposed(out, create(Mode.B2H, create(Mode.A2H, state)).scaled(lower))
        out = superposed(out, create(Mode.B2V, create(Mode.A2V, state)).scaled(lower))
        state = out
    return state


def _agree(x, y):
    """Equal sectors and key sets, and each amplitude within 4.5e-16."""
    return (
        x.sector == y.sector
        and x.amplitudes.keys() == y.amplitudes.keys()
        and all(abs(v - y.amplitudes[occ]) <= 4.5e-16 for occ, v in x.amplitudes.items())
    )


@pytest.mark.parametrize("pairs", [1, 2])
@pytest.mark.parametrize("r", [0.0, 1e-9, 0.9, 1.0])
@pytest.mark.parametrize("phi", [0.0, 0.45, 2.0, math.pi])
def test_state_agrees_with_the_stepwise_build(r, phi, pairs):
    """The state built from the source's integer kets, lambda^j / sqrt(N(r))
    on a ket with j lower pairs, keeps every term of the normalized
    create-operator build and no other, each amplitude to 4.5e-16."""
    params = SourceParams(r=r, phi=phi, pairs=pairs)
    weights = [(1.0, r * cmath.exp(1j * params.phi))] * pairs
    expected = _pairs_built_stepwise(weights).normalized()
    assert _agree(spatially_entangled_state(params), expected)


def test_independent_pairs_agree_with_the_stepwise_build():
    expected = _pairs_built_stepwise([(1.0, 0.0), (0.0, 1.0)]).normalized()
    assert _agree(independent_pairs_state(), expected)


def test_the_source_kets_have_one_home():
    """The pair channels, Phi+-, the emitted multisets and the lower-pair
    count are defined in ``source`` alone, which the protocols' rows read
    them from; ``source`` builds its states from them, not through
    ``create`` and ``vacuum``, and no module defines ``_emit_pair``."""
    package = Path(__file__).resolve().parent.parent / "src" / "pdcpurify"
    homes = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                defined = []
            for name in defined:
                homes.setdefault(name, []).append(path.name)
    for name in ("_CHANNELS", "_PHI", "_emitted", "_lower_pairs"):
        assert homes.get(name) == ["source.py"], name
    assert "_emit_pair" not in homes
    # every name, attribute and imported name that source.py mentions
    source = ast.parse((package / "source.py").read_text(encoding="utf-8"))
    named = {getattr(node, field, None) for node in ast.walk(source) for field in ("id", "attr", "name")}
    assert not {"create", "vacuum"} & named
