import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from pdcpurify import (
    BOTH_UP,
    MODES,
    DensityOperator,
    Mode,
    PureState,
    SourceParams,
    SpatialMode,
    create,
    spatially_entangled_state,
    to_density,
    vacuum,
)
from helpers import (
    allclose,
    inner_product,
    project,
    reduced_density_matrix,
    superposed,
    validate,
)

ALICE_MODES = [m for m in MODES if m < Mode.B1H]
BOB_MODES = [m for m in MODES if m >= Mode.B1H]


def pair_operator(state, lower=1.0):
    """Apply the coherent pair-creation sum once (unnormalized)."""
    return superposed(
        create(Mode.B1H, create(Mode.A1H, state)),
        create(Mode.B1V, create(Mode.A1V, state)),
        create(Mode.B2H, create(Mode.A2H, state)).scaled(lower),
        create(Mode.B2V, create(Mode.A2V, state)).scaled(lower),
    )


def random_state(rng, sector, terms=6):
    """Random fixed-sector state built by scattering photons over modes."""
    state = None
    for _ in range(terms):
        ket = vacuum()
        for mode in rng.integers(0, 8, size=sector):
            ket = create(Mode(int(mode)), ket)
        amp = complex(rng.normal(), rng.normal())
        ket = ket.scaled(amp / ket.norm())
        state = ket if state is None else superposed(state, ket)
    return state


def test_create_on_vacuum():
    state = create(Mode.A1H, vacuum())
    assert state.sector == 1
    assert state.amplitudes == {(1, 0, 0, 0, 0, 0, 0, 0): 1.0 + 0.0j}


def test_create_bosonic_factor():
    two = create(Mode.A1H, create(Mode.A1H, vacuum()))
    assert two.amplitudes[(2, 0, 0, 0, 0, 0, 0, 0)] == pytest.approx(math.sqrt(2))


def test_create_is_linear():
    state = create(Mode.A1H, vacuum().scaled(0.5))
    assert state.amplitudes[(1, 0, 0, 0, 0, 0, 0, 0)] == pytest.approx(0.5)


def test_create_raises_sector_on_every_term():
    rng = np.random.default_rng(11)
    state = random_state(rng, sector=2)
    lifted = create(Mode.B2V, state)
    assert lifted.sector == 3
    assert all(sum(occ) == 3 for occ in lifted.amplitudes)


@pytest.mark.parametrize("mode", [-1, True, 8, 0, "a1H", None, SpatialMode.A1])
def test_create_rejects_anything_but_a_mode(mode):
    """An int would index past, or wrap around, the eight-entry occupation
    tuple (``-1`` made a 16-entry key, ``True`` filled a1V, ``8`` raised
    ``IndexError``)."""
    with pytest.raises(ValueError, match="mode must be a Mode"):
        create(mode, vacuum())


def test_inner_product_vacuum():
    assert inner_product(vacuum(), vacuum()) == 1.0


def test_inner_product_sector_mismatch():
    with pytest.raises(ValueError):
        inner_product(vacuum(), create(Mode.A1H, vacuum()))


def test_pair_operator_norms():
    # hand expansion: 4 orthonormal kets of amplitude 1, then 10 kets of
    # amplitude 2 (4 double-pair terms and 6 cross terms), 10 * 4 = 40
    one = pair_operator(vacuum())
    assert inner_product(one, one) == pytest.approx(4.0, abs=1e-12)
    two = pair_operator(one)
    assert inner_product(two, two) == pytest.approx(40.0, abs=1e-12)
    assert len(two.amplitudes) == 10
    assert all(abs(a) == pytest.approx(2.0) for a in two.amplitudes.values())


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(5)
    x = random_state(rng, sector=2)
    y = random_state(rng, sector=2)
    assert inner_product(x, y) == pytest.approx(inner_product(y, x).conjugate())


def test_norm_is_real_inner_product():
    rng = np.random.default_rng(7)
    x = random_state(rng, sector=3)
    ip = inner_product(x, x)
    assert ip.imag == pytest.approx(0.0, abs=1e-14)
    assert ip.real == pytest.approx(x.norm() ** 2)


def test_to_density_vacuum():
    rho = to_density(vacuum())
    assert rho.entries == {((0,) * 8, (0,) * 8): 1.0 + 0.0j}


def test_to_density_absorbs_normalization():
    rho = to_density(create(Mode.A1H, vacuum()).scaled(2.0))
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    assert len(rho.entries) == 1


def test_trace_is_a_float_without_diagonal_entries():
    """An operator with no diagonal entry has trace 0.0, not the int 0."""
    source = SourceParams(r=0.9, phi=0.45, pairs=2)
    four = to_density(spatially_entangled_state(source))
    ket, bra = (1, 0, 0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 1, 0, 0)
    for rho in (project(four, BOTH_UP), DensityOperator({}), DensityOperator({(ket, bra): 0.5})):
        assert not any(k == b for k, b in rho.entries)
        trace = rho.trace()
        assert type(trace) is float and trace == 0.0


def test_to_density_pair_state_entries():
    rho = to_density(pair_operator(vacuum()))
    assert len(rho.entries) == 16
    assert all(abs(v) == pytest.approx(0.25) for v in rho.entries.values())
    validate(rho)


def test_to_density_zero_state_raises():
    zero = PureState({}, sector=2)
    with pytest.raises(ValueError):
        to_density(zero)


def test_to_density_idempotent_normalization():
    state = pair_operator(vacuum())
    assert allclose(to_density(state), to_density(state.normalized()), tol=1e-12)


def test_partial_trace_single_pair_is_maximally_mixed():
    reduced = reduced_density_matrix(pair_operator(vacuum()).normalized(), ALICE_MODES)
    assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(reduced), [0.25] * 4, atol=1e-12)


def test_partial_trace_two_pairs_rank_ten():
    state = pair_operator(pair_operator(vacuum())).normalized()
    reduced = reduced_density_matrix(state, ALICE_MODES)
    np.testing.assert_allclose(np.linalg.eigvalsh(reduced), [0.1] * 10, atol=1e-12)


def test_density_operator_rejects_photon_number_mixing():
    """However small the value: a 1e-20 entry is stored, so it is checked."""
    for value in (1.0, 1e-20):
        with pytest.raises(ValueError, match="mixes different photon totals"):
            DensityOperator({((1, 0, 0, 0, 0, 0, 0, 0), (0,) * 8): value})


BAD_KEYS = {
    "wrong-width": (0,) * 7,
    "negative-count": (2, -1, 0, 0, 0, 0, 0, 0),
    "non-integral-count": (1.5, 0.5, 0, 0, 0, 0, 0, 0),
    "count-below-one": (0.9, 0, 0, 0, 0, 0, 0, 0),
    # counts that ``int()`` cannot convert
    "none-count": (None, 0, 0, 0, 0, 0, 0, 0),
    "str-count": ("x", 0, 0, 0, 0, 0, 0, 0),
    "inf-count": (math.inf, 0, 0, 0, 0, 0, 0, 0),
    # a str, bytes or bytearray is refused whole, not read as its characters
    # or byte values: eight bytes would otherwise be eight counts
    "str": "x",
    "eight-char-str": "00000000",
    "eight-bytes": b"\x00\x00\x01\x00\x00\x00\x00\x00",
}


@pytest.mark.parametrize("key", BAD_KEYS.values(), ids=BAD_KEYS.keys())
def test_public_constructors_reject_bad_keys(key):
    """Users' keys are checked, and a refusal names the key as written;
    ``int(n)`` must not truncate 1.5 or 0.9."""
    shown_key = f"occupation.*{re.escape(repr(key))}"
    with pytest.raises(ValueError, match=shown_key):
        PureState({key: 1.0})
    with pytest.raises(ValueError, match=shown_key):
        DensityOperator({(key, key): 1.0})


VACUUM = (0,) * 8
NEGATIVE = (-1, 0, 0, 0, 0, 0, 0, 0)
HALF = (0.5, 0, 0, 0, 0, 0, 0, 0)

#: a constructor call for a value, with a malformed key, and what the refusal
#: shows of that key
MALFORMED_KEYS = {
    "str-pair": (lambda v: DensityOperator({"bad": v}), "entry key 'bad'"),
    "negative-ket": (lambda v: DensityOperator({(NEGATIVE, VACUUM): v}), repr(NEGATIVE)),
    "str-term": (lambda v: PureState({VACUUM: 1, "x": v}), "got 'x'"),
    "non-integral-term": (lambda v: PureState({VACUUM: 1, HALF: v}), repr(HALF)),
    "non-integral-bra": (lambda v: DensityOperator({(VACUUM, HALF): v}), repr(HALF)),
    "three-tuple-entry": (
        lambda v: DensityOperator({(VACUUM,) * 3: v}), f"entry key {(VACUUM,) * 3!r}"
    ),
    "three-tuple-term": (lambda v: PureState({VACUUM: 1, (0, 0, 0): v}), "(0, 0, 0)"),
}


@pytest.mark.parametrize("value", [0.0, 1e-20])
@pytest.mark.parametrize("build, shown_key", MALFORMED_KEYS.values(), ids=MALFORMED_KEYS.keys())
def test_public_constructors_check_every_key_whatever_its_value(build, shown_key, value):
    """A key is checked before a zero value is dropped, so a malformed key is
    refused whatever its value, 0 included."""
    with pytest.raises(ValueError, match=re.escape(shown_key)):
        build(value)


ONE = (1, 0, 0, 0, 0, 0, 0, 0)
TWO = (1, 0, 0, 0, 1, 0, 0, 0)
TWO_VV = (0, 1, 0, 0, 0, 1, 0, 0)


@pytest.mark.parametrize(
    "amplitudes, sector",
    [({TWO: 1.0, ONE: 1.0}, None), ({ONE: 1.0}, 2), ({TWO: 1.0, ONE: 1e-20}, None)],
    ids=["derived", "given", "tiny"],
)
def test_pure_state_rejects_a_term_outside_its_sector(amplitudes, sector):
    """Every nonzero term is stored, so a 1e-20 one is checked too."""
    with pytest.raises(ValueError, match=r"has 1 photons, expected sector 2"):
        PureState(amplitudes, sector=sector)


def test_pure_state_without_terms_needs_a_sector():
    with pytest.raises(ValueError, match="sector is required"):
        PureState({})
    assert PureState({}, sector=2).amplitudes == {}


def test_normalizing_a_zero_state_raises():
    with pytest.raises(ValueError, match="zero state"):
        PureState({}, sector=2).normalized()


def test_reprs_show_sector_terms_entries_and_trace():
    state = PureState({TWO: 1.0, ONE: 0.0}, sector=2)
    assert repr(state) == "PureState(sector=2, {(1, 0, 0, 0, 1, 0, 0, 0): 1+0j})"
    rho = DensityOperator({(TWO, TWO): 0.5, (ONE, ONE): 0.25})
    assert repr(rho) == "DensityOperator(2 entries, trace=0.75)"


def test_integral_float_counts_become_ints():
    key = (1.0, 0, 0, 0, 0, 0, 0, 0)
    (occ,) = PureState({key: 1.0}).amplitudes
    assert occ == (1, 0, 0, 0, 0, 0, 0, 0)
    assert all(type(n) is int for n in occ)
    ((ket, bra),) = DensityOperator({(key, key): 1.0}).entries
    assert ket == bra == occ


def test_density_validate_catches_non_hermitian():
    ket = (1, 0, 0, 0, 0, 0, 0, 0)
    bra = (0, 1, 0, 0, 0, 0, 0, 0)
    rho = DensityOperator({(ket, ket): 0.5, (bra, bra): 0.5, (ket, bra): 0.3})
    with pytest.raises(ValueError):
        validate(rho)


def test_density_validate_catches_negative_eigenvalue():
    ket = (1, 0, 0, 0, 0, 0, 0, 0)
    bra = (0, 1, 0, 0, 0, 0, 0, 0)
    rho = DensityOperator(
        {(ket, ket): 0.5, (bra, bra): 0.5, (ket, bra): 0.7, (bra, ket): 0.7}
    )
    with pytest.raises(ValueError):
        validate(rho)


#: five two-photon kets
TWO_PHOTON_KETS = (
    TWO,
    TWO_VV,
    (2, 0, 0, 0, 0, 0, 0, 0),
    (0, 2, 0, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 0, 0, 0, 0),
)


def test_prune_keeps_maps_canonical():
    """The storage rule is exact: both constructors and both ``_trusted`` keep
    every nonzero value, the smallest float included, and drop exactly the
    zeros, ``0``, ``-0.0`` and ``0j``."""
    values = dict(zip(TWO_PHOTON_KETS, (5e-324, 1e-300j, 0, -0.0, 0j)))
    kept = dict(zip(TWO_PHOTON_KETS, (5e-324, 1e-300j)))
    assert PureState(values).amplitudes == kept
    assert PureState._trusted(values, 2).amplitudes == kept
    entries = {(TWO, ket): v for ket, v in values.items()}
    kept_entries = {(TWO, ket): v for ket, v in kept.items()}
    assert DensityOperator(entries).entries == kept_entries
    assert DensityOperator._trusted(entries).entries == kept_entries
    state = PureState({(1, 0, 0, 0, 0, 0, 0, 0): 1e-15}, sector=1)
    assert state.amplitudes == {(1, 0, 0, 0, 0, 0, 0, 0): 1e-15}
    assert create(Mode.A1H, vacuum()).scaled(1e-15).amplitudes == state.amplitudes


def test_a_state_of_the_smallest_float_normalizes():
    """Its norm, 5e-324, has no finite reciprocal, so the amplitudes are
    divided by it."""
    assert PureState({TWO: 5e-324}).normalized().amplitudes == {TWO: 1.0}


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pdcpurify"


def _callers_of(tree, name):
    """The functions of a module's syntax tree, as ``Class.method`` or
    ``function``, that refer to ``name`` (call it or pass it on); a
    reference outside every function, an import included, shows as ``""``."""
    callers = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
            elif isinstance(child, ast.Name) and child.id == name:
                callers.add(where)
            elif isinstance(child, ast.alias) and name in (child.name, child.asname):
                callers.add(where)
            else:
                visit(child, where)

    visit(tree, "")
    return callers


def test_only_fock_reads_the_pruning_rule():
    """``pruned``, which drops exactly the zeros, has one home: no module names
    a storage tolerance (the retired ``PRUNE_TOL``), no module but ``fock``
    calls ``pruned``, and in ``fock`` only the constructors' shared
    ``_checked`` and the two ``_trusted`` do, so no builder keeps a pruning
    rule of its own."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    assert [path.name for path in modules if "PRUNE_TOL" in path.read_text()] == []
    pruners = {path.name: _callers_of(ast.parse(path.read_text()), "pruned") for path in modules}
    assert {name: where for name, where in pruners.items() if where} == {
        "fock.py": {"_checked", "PureState._trusted", "DensityOperator._trusted"}
    }


NON_FINITE = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "nan-imag": complex(0.5, math.nan),
    "inf-imag": complex(0.5, math.inf),
}


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_public_constructors_reject_non_finite_values(value):
    """A NaN used to vanish in pruning (an empty state, a trace-0 operator),
    and an infinite amplitude made ``to_density`` return an empty operator."""
    key = (1, 1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match=r"\(1, 1, 0, 0, 0, 0, 0, 0\)"):
        PureState({key: value}, sector=2)
    with pytest.raises(ValueError, match=r"\(1, 1, 0, 0, 0, 0, 0, 0\)"):
        DensityOperator({(key, key): value})


#: values that are no float-sized number, with the reason each message gives
UNREADABLE = {
    "huge-int": (10**400, "too large for a float"),
    "malformed-str": ("abc", "not a number"),
    "numeric-str": ("1", "not a number"),
}


@pytest.mark.parametrize("value, reason", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_public_constructors_name_the_key_of_an_unreadable_value(value, reason):
    """A huge int used to escape as ``OverflowError`` and a string went to
    ``complex()``, which parsed ``"1"`` and refused ``"abc"`` naming no key."""
    key = (1, 1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match=rf"at \(1, 1, 0, 0, 0, 0, 0, 0\) is {reason}"):
        PureState({key: value}, sector=2)
    with pytest.raises(ValueError, match=rf"at \(\(1, 1, 0, .* is {reason}"):
        DensityOperator({(key, key): value})


def test_density_operator_names_a_key_that_is_no_pair():
    key = ((0,) * 8,) * 3
    with pytest.raises(ValueError, match=r"^entry key \(\(0, .* is not a \(ket, bra\) pair"):
        DensityOperator({key: 1.0})


@pytest.mark.parametrize("sector", [1.5, True, 2.0, -1, "2"])
def test_pure_state_refuses_a_sector_that_is_no_count(sector):
    """``int(sector)`` used to store 1.5 and True as sector 1."""
    for amplitudes in ({}, {TWO: 1.0}):
        with pytest.raises(ValueError, match="^sector must be a non-negative int, got"):
            PureState(amplitudes, sector=sector)


def test_to_density_rejects_an_overflowing_norm():
    state = PureState({(1, 0, 0, 0, 0, 0, 0, 0): 1e200})
    with pytest.raises(ValueError, match="squared norm"):
        to_density(state)


#: factors that are no finite number, each as its refusal shows it
NOT_FINITE_FACTORS = {
    "none": (None, "None"),
    "str": ("x", "'x'"),
    "bool": (True, "True"),
    "nan": (math.nan, "nan"),
    "inf": (math.inf, "inf"),
    "inf-imag": (complex(1.0, math.inf), "(1+infj)"),
}


@pytest.mark.parametrize("factor, shown_factor", NOT_FINITE_FACTORS.values(), ids=NOT_FINITE_FACTORS.keys())
def test_scaled_refuses_a_factor_that_is_no_finite_number(factor, shown_factor):
    """``None`` and ``"x"`` used to raise ``TypeError``, and NaN left an empty
    state where the storage tolerance dropped its ``nan+nanj`` amplitudes."""
    message = f"factor must be a finite number, got {re.escape(shown_factor)}$"
    for state in (PureState({TWO: 1.0}), PureState({}, sector=2)):
        with pytest.raises(ValueError, match=message):
            state.scaled(factor)


def test_scaled_and_create_refuse_an_amplitude_past_a_float():
    """``scaled(1e200)`` on a 1e200 amplitude used to store ``inf+0j``, and
    ``create`` stored sqrt(2) * 1.5e308 as ``inf+0j``."""
    with pytest.raises(ValueError, match=r"^factor 1e\+200 takes an amplitude past a float's range$"):
        PureState({TWO: 1e200}).scaled(1e200)
    with pytest.raises(ValueError, match=r"^factor 1e\+200j takes an amplitude"):
        PureState({TWO: complex(1e200, 1e200)}).scaled(1e200j)
    with pytest.raises(ValueError, match=r"^raising mode a1H takes an amplitude past a float's range$"):
        create(Mode.A1H, PureState({ONE: 1.5e308}))
    raised = create(Mode.A1V, PureState({ONE: 1.5e308}))
    assert raised.amplitudes == {(1, 1, 0, 0, 0, 0, 0, 0): 1.5e308}


def test_norms_of_huge_amplitudes_are_right_or_refused():
    """``abs(a) ** 2`` used to escape as ``OverflowError`` past about 1.3e154,
    and a squared norm summed to inf scaled every amplitude to 0: an empty
    state for a nonzero one."""
    huge = PureState({TWO: 1e160})
    assert huge.norm() == 1e160
    assert huge.normalized().amplitudes == {TWO: 1.0}
    with pytest.raises(ValueError, match="squared norm"):
        to_density(huge)
    pair = PureState({TWO: 1e154, TWO_VV: 1e154})
    assert pair.norm() == math.hypot(1e154, 1e154)
    normalized = pair.normalized()
    assert normalized.amplitudes.keys() == {TWO, TWO_VV}
    assert normalized.norm() == pytest.approx(1.0, rel=1e-15)
    past_a_float = PureState({TWO: 1.5e308, TWO_VV: 1.5e308})
    assert past_a_float.norm() == math.inf
    with pytest.raises(ValueError, match="too large for a float"):
        past_a_float.normalized()
