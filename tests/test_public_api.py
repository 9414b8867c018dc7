"""Every public callable that takes arguments, called with bad values.

Each of ``BAD`` goes in turn to every positional parameter of each callable,
the others keeping a good value.  A call either raises ``ValueError`` or, for
the values listed in ``ACCEPTED`` with their reasons, returns a valid result;
no other exception escapes.  The enums (``Mode``, ``SpatialMode``, ``Side``,
``ProtocolKind``) are member lookups, not probed here.
"""

import itertools
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from pdcpurify import (
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
    input_fidelity,
    linear_grid,
    run_four_photon,
    run_independent_pairs,
    run_two_photon,
    schmidt,
    spatially_entangled_state,
    sweep,
    to_density,
    vacuum,
)

BAD = {
    "str": "0.5",
    "bytes": b"0.5",
    "set": {0.5},
    "True": True,
    "Decimal": Decimal("0.5"),
    "Fraction": Fraction(1, 2),
    "10**400": 10**400,
    "nan": math.nan,
    "inf": math.inf,
    "-0.0": -0.0,
    "1+0j": 1 + 0j,
    "None": None,
    "tuple": (0.5,),
    "list": [0.5],
    "-1": -1,
    "1.5": 1.5,
    "object": object(),
}

#: one photon in a1 (H) and one in b1 (H)
PAIR = (1, 0, 0, 0, 1, 0, 0, 0)
RHO = to_density(PureState({PAIR: 1.0}))
SOURCE = spatially_entangled_state(SourceParams())


def _result(result):
    return isinstance(result, ProtocolResult) and 0 < result.p_success <= 1 and (
        0 <= result.f_upper <= 1
    )


def _density(rho):
    return isinstance(rho, DensityOperator) and abs(rho.trace() - 1) <= 1e-12


def _fidelity(f):
    return 0.25 <= f <= 1


#: each callable with good arguments for every positional parameter and what
#: a valid result is
PROBE = {
    "DensityOperator": (DensityOperator, ({(PAIR, PAIR): 1.0},), _density),
    "PureState": (PureState, ({PAIR: 1.0}, 2), lambda state: isinstance(state, PureState)),
    "SourceParams": (
        SourceParams,
        (0.9, 0.45, 2),
        lambda p: isinstance(p, SourceParams)
        and 0 <= p.r <= 1 and 0 <= p.phi < 2 * math.pi and p.pairs in (1, 2),
    ),
    "SweepSpec": (
        SweepSpec,
        ((0.0, 0.5), 0.9, 0.45, "four-photon"),
        lambda spec: isinstance(spec, SweepSpec)
        and isinstance(spec.protocol, ProtocolKind)
        and all(0 <= s <= 1 for s in spec.s_values),
    ),
    "ProtocolResult": (
        ProtocolResult,
        ("four-photon", 0.9, 0.45, 0.5, 0.25, 0.9, 0.9),
        lambda result: isinstance(result, ProtocolResult),
    ),
    "run_four_photon": (run_four_photon, (0.9, 0.45, 0.5), _result),
    "run_two_photon": (run_two_photon, (0.9, 0.45, 0.5), _result),
    "run_independent_pairs": (run_independent_pairs, (0.5,), _result),
    "sweep": (
        sweep, (SweepSpec((0.0, 0.5), 0.9, 0.45),), lambda results: all(map(_result, results))
    ),
    "linear_grid": (
        linear_grid,
        (0.0, 1.0, 3),
        lambda grid: all(0 <= a < b <= 1 for a, b in zip(grid, grid[1:])),
    ),
    "depolarize_partial": (depolarize_partial, (RHO, SpatialMode.A1, 0.5), _density),
    "depolarize_alice": (depolarize_alice, (RHO, 0.5), _density),
    "apply_pbs": (apply_pbs, (RHO, Side.ALICE), _density),
    "schmidt": (
        schmidt,
        (SOURCE, MODES[:4], MODES[4:]),
        lambda found: all(0 < c <= 1 for c in found[0]) and found[1] >= 0,
    ),
    "create": (create, (Mode.A1H, vacuum()), lambda state: isinstance(state, PureState)),
    "to_density": (to_density, (SOURCE,), _density),
    "spatially_entangled_state": (
        spatially_entangled_state, (SourceParams(),), lambda state: isinstance(state, PureState)
    ),
    "input_fidelity": (input_fidelity, (0.5,), _fidelity),
    "bbpssw_fidelity": (bbpssw_fidelity, (0.5,), _fidelity),
}

#: the bad values a number in [0, 1] accepts
UNIT = {"Fraction": "a Fraction is a number", "-0.0": "the float zero"}
#: the bad values phi accepts: any finite number, wrapped into [0, 2 pi)
PHASE = {**UNIT, "-1": "a finite phase", "1.5": "a finite phase"}

#: for each callable that accepts a bad value, the bad values each positional
#: parameter accepts, with why; every other value is refused
ACCEPTED = {
    "PureState": ({}, {"None": "the default: the sector is read off the terms"}),
    "SourceParams": (UNIT, PHASE, {}),
    "SweepSpec": (
        {"tuple": "a one-point grid", "list": "a one-point grid, copied into a tuple"},
        UNIT,
        PHASE,
        {},
    ),
    "ProtocolResult": (
        dict.fromkeys(BAD, "a record of outputs stores its fields as given"),
    ) * 7,
    "run_four_photon": (UNIT, PHASE, UNIT),
    "run_two_photon": (UNIT, PHASE, UNIT),
    "run_independent_pairs": (UNIT,),
    # s_max = -0.0 is refused: it is not above s_min = 0
    "linear_grid": (UNIT, {"Fraction": UNIT["Fraction"]}, {}),
    "depolarize_partial": ({}, {}, UNIT),
    "depolarize_alice": ({}, UNIT),
    "input_fidelity": (UNIT,),
    "bbpssw_fidelity": ({"Fraction": "a Fraction f gives the exact Fraction"},),
}


@pytest.mark.parametrize("name", list(PROBE))
def test_a_bad_argument_is_refused_or_gives_a_valid_result(name):
    call, good, valid = PROBE[name]
    accepted = ACCEPTED.get(name, ({},) * len(good))
    assert len(accepted) == len(good)
    assert valid(call(*good))
    for index, (label, value) in itertools.product(range(len(good)), BAD.items()):
        args = list(good)
        args[index] = value
        try:
            result = call(*args)
        except ValueError:
            assert label not in accepted[index], f"parameter {index} refused {label}"
        else:
            assert label in accepted[index], f"parameter {index} accepted {label}"
            assert valid(result), f"parameter {index} took {label} to {result!r}"
