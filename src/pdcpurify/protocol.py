"""End-to-end purification pipelines and parameter sweeps.

Three experiments share the same plumbing: source state -> depolarizing
channels on Alice's spatial modes -> polarizing beam splitters on both sides
-> post-selection on a detection pattern -> polarization fidelity of the
surviving pair(s).  A pattern's probability and a fidelity's witness sum are
each Tr(A rho) for a fixed map A behind the beam splitters: the pattern's
diagonal projector, or a Bell witness on it.  This module holds the patterns
and builds each A; the beam splitters permute basis states, so A is moved in
front of them once and a point reads two maps out after the channel.

The run path.  Every A here is real and equal to its transpose, so Tr(A rho)
is the sum of A[key] rho[key]: a readout entry reads the density entry with
the same key.  The two-pass source's amplitude on a ket with j lower pairs
(photons in a2) is lambda^j times its amplitude at r = 1, phi = 0, for
lambda = r e^(i phi).  So its density at (r, phi) is the fixed r = 1,
phi = 0 density rho_1 with each entry times lambda^j conj(lambda)^k / N(r),
for j and k the lower pairs of its ket and bra and N(r) = sum_k tr(rho_1's
(k, k) block) r^(2k).  A row holds the norm polynomial
sum_k norm_k r^(2k) = N(r) / factor, with two-photon's mirror factor 2
(1 for the others) divided into each norm_k.  The channel moves photons
only between the H and V modes of one spatial mode, so each entry of its
output keeps its (j, k).  So a row holds each map by its (j, k) blocks, and
a map's read is the sum over its blocks of the block's weight
lambda^j conj(lambda)^k over the norm polynomial times what the block reads
off the channel's output of rho_1.  That output is Hermitian and each map
symmetric, so block (k, j) reads the conjugate of block (j, k): a row keeps
the blocks with j <= k, the others folded in as twice the real part
(four-photon's 16 + 16 map entries are 16 + 12 keys in 3 + 5 blocks).  A
curve computes the blocks' weights and builds no operator; a point runs the
channel on rho_1 and reads each map's blocks once.  Where lambda = 0 (independent pairs,
which take no lambda, and r = 0 at any phi) a point runs no channel at all.
On Alice's two modes the channel is C_s = s^2 id + s(1 - s)(D_a1 + D_a2) +
(1 - s)^2 D_a1 D_a2, with D the full depolarization of one mode; D_a1 and
D_a2 act on disjoint modes, so they commute.  So a row reads its maps at
lambda = 0 once off three branches of its fixed density, each built by the
channel at s = 0: the density, D_a1 + D_a2 of it and D_a1 D_a2 of it.
These are the row's quadratics: such a point is two quadratics in s and one
division.  At lambda = 0 only the (0, 0) block, no lower pair on ket or bra,
has a nonzero weight (for independent pairs it is the whole density), and
the channel fills each of its keys from the block's entries alone, as it
keeps every entry's (j, k); so the quadratics read the maps' (0, 0) blocks
off the branches.  A point checks its s before either branch.

The row build.  The three pipelines differ only in data: each is one row,
built by ``_row`` from ``_RECIPES`` on its kind's first use and kept, so
importing the package builds none, and ``_curve`` reads every row, for a
run as for a sweep.  A row is built from kets, in exact integer
arithmetic; the source's kets at r = 1, phi = 0 and their term counts come
from ``source``, which builds its states from the same kets.  Each ket
passed to one ``_onto`` call has the same number n of terms, each +-1, so
``_onto`` sums |k><k| / <k|k> as integer numerators over n, for the fixed
density as for every readout map.  The norm polynomial is integer counts
over n times the factor.  The channel's one-mode step builds the three
branches at s = 0 on the numerators scaled by 36: each of Alice's two
modes holds at most two photons, so every split divides evenly and every
branch value is an integer.  Each number a row stores (the density, the
maps, the norm polynomial and the quadratics) is then one division, rounded
to its nearest float once.  So no run builds a source state or calls
``to_density``.

Everything is deterministic: under one Python version, identical inputs give
bit-identical results.  The run path reduces its floats in fixed-order loops,
not with the builtin ``sum``, whose rounding changes in Python 3.12 (it
compensates).
"""

from __future__ import annotations

import cmath
import functools
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from enum import Enum
from itertools import combinations_with_replacement, product
from types import MappingProxyType

from .channel import _ALICE, _depolarized, depolarize_alice, survival_refusal
from .fock import (
    DensityOperator,
    Mode,
    Occupations,
    Side,
    SpatialMode,
    expanded,
    in_range,
    must_be,
    shown,
)
from .optics import apply_pbs
from .source import _PHI, SourceParams, _counts, _factors, _lower_pairs

#: the fewest and the most points ``linear_grid`` makes
STEP_BOUNDS = (2, 1_000_000)

#: one photon in every spatial mode behind the beam splitters
FOUR_MODE = frozenset({(1, 1, 1, 1)})
#: both photons in the upper spatial modes
BOTH_UP = frozenset({(1, 0, 1, 0)})
#: both photons in the lower spatial modes (no run reads it: see the mirror
#: note at ``_RECIPES``); ``BOTH_UP | BOTH_DOWN`` is two-photon's selection
BOTH_DOWN = frozenset({(0, 1, 0, 1)})


class ProtocolKind(Enum):
    TWO_PHOTON = "two-photon"
    FOUR_PHOTON = "four-photon"
    INDEPENDENT_PAIRS = "independent-pairs"


class ProtocolResult(
    namedtuple("ProtocolResult", "protocol r phi s p_success f_upper f_lower")
):
    """Inputs, success probability and fidelities of one protocol run.

    An immutable named tuple.  ``f_upper`` is always a number: every
    protocol's selected pattern has p >= 1/9 at every valid input.
    ``f_lower`` is ``None`` for the protocols that report one output pair (two
    photons and independent pairs), and r and phi are ``None`` for
    independent pairs.  ``f_in`` and ``params`` are derived from the fields.
    """

    __slots__ = ()

    #: the output columns, in order: CSV header and cells, leading JSON keys
    COLUMNS = ("s", "f_in", "p_success", "f_upper", "f_lower")

    @property
    def f_in(self) -> float:
        """Polarization fidelity of each pair before purification, (1 + 3s)/4."""
        return input_fidelity(self.s)

    @property
    def params(self) -> Mapping:
        """The run's protocol, r, phi and s, as a read-only mapping."""
        return MappingProxyType(
            {"protocol": self.protocol, "r": self.r, "phi": self.phi, "s": self.s}
        )

    def as_dict(self) -> dict:
        row = {name: getattr(self, name) for name in self.COLUMNS}
        row["params"] = dict(self.params)
        return row


def input_fidelity(s: float) -> float:
    """Polarization fidelity of one depolarized pair, (1 + 3s)/4.

    An ``s`` that is not a number in [0, 1] (``2.0``, NaN, ``True``, ``"0.5"``)
    raises ``ValueError``.
    """
    if not in_range(s):
        raise survival_refusal(s)
    return (1.0 + 3.0 * s) / 4.0


def _onto(kets: Iterable[Iterable[dict[tuple[Mode, ...], int]]]) -> tuple[dict, int]:
    """The sum of |k><k| / <k|k> over ``kets``, each a product of factors
    {the modes of its photons: +-1} on disjoint modes, summed exactly: as
    integer numerators over the kets' common number of terms n, which is
    <k|k> for each, a cancelled entry left out.  Kets of different lengths
    raise ``ValueError``.  ``_rounded`` makes the operator."""
    total: dict = {}
    terms = None
    for factors in kets:
        ket = expanded(factors)
        terms = terms or len(ket)
        if len(ket) != terms:
            raise ValueError(f"kets must have equal lengths, got {terms} and {len(ket)} terms")
        for (k, a), (b, c) in product(ket.items(), repeat=2):
            total[k, b] = total.get((k, b), 0) + a * c
    return {key: v for key, v in total.items() if v}, terms


def _rounded(exact: tuple[dict, int]) -> DensityOperator:
    """The operator of ``_onto``'s numerators over n, each divided by n once:
    int / int is the quotient's nearest float."""
    numerators, n = exact
    return DensityOperator._trusted({key: complex(v / n) for key, v in numerators.items()})


def _projector(pattern: frozenset[tuple[int, int, int, int]]) -> DensityOperator:
    """The diagonal projector onto a detection pattern, so that Tr(P rho) is
    the pattern's probability: onto each basis ket that puts each spatial
    mode's n photons on its H and V modes, H first (k on H, for k = n, ..., 0)."""
    return _rounded(_onto(
        [{photons: 1} for photons in split]
        for counts in pattern
        for split in product(
            *map(combinations_with_replacement, (m.value for m in SpatialMode), counts)
        )
    ))


#: |Phi+><Phi+| on (a1, b1) times the identity on one photon in each of a2
#: and b2: the upper pair's Bell witness on the four-mode pattern (16 entries)
_UPPER_WITNESS = _rounded(_onto(
    (_PHI[1], {(a,): 1}, {(b,): 1})
    for a in SpatialMode.A2.value
    for b in SpatialMode.B2.value
))
#: |Phi+><Phi+| on (a1, b1) times the vacuum of a2 and b2: the upper pair's
#: Bell witness on the both-up pattern (4 entries)
_BOTH_UP_WITNESS = _rounded(_onto([(_PHI[1],)]))
#: The lower photons measured at 45 degrees, onto |H> + x|V> (a2) and
#: |H> + y|V> (b2) for x, y = +-1, with a phase flip Z on a1 when x != y.  Z
#: turns Phi+ into Phi-, so a branch's overlap with Phi+ is
#: <Phi_xy, x, y| rho |Phi_xy, x, y> with Phi_xy = Phi+ if x = y, else Phi-;
#: the witness sums the four branches (16 entries).
_MEASURED_OUT_WITNESS = _rounded(_onto(
    (_PHI[x * y], {(Mode.A2H,): 1, (Mode.A2V,): x}, {(Mode.B2H,): 1, (Mode.B2V,): y})
    for x in (1, -1)
    for y in (1, -1)
))


def _in_front(behind: DensityOperator) -> DensityOperator:
    """A projector or witness A behind both beam splitters, moved in front:
    they permute basis states by a P that is its own inverse, so
    Tr(A P rho P) = Tr(P A P rho), and P A P relabels A as a state would be."""
    return apply_pbs(apply_pbs(behind, Side.ALICE), Side.BOB)


# The mirror.  With F exchanging H and V in every spatial mode and S the upper
# and lower spatial modes on both sides, the operator T behind both beam
# splitters obeys F T F = S T S: each source pair is HH + VV, the channel
# treats a1, a2 and H, V alike, and F PBS F = S PBS.  F fixes every pattern
# (they count H + V) and the upper Bell witness; S fixes FOUR_MODE, maps
# BOTH_UP to BOTH_DOWN and the upper witness to the lower.  So each lower-pair
# or both-down probability and witness sum equals its upper or both-up mirror:
# two-photon's both-down branch doubles p and the witness sum (factor 2), and
# four-photon's f_lower equals its f_upper.

#: what each protocol's row is built from: its source's pairs (``None`` for
#: two independent pairs, which take no r or phi), its pattern, its witness
#: behind the beam splitters, the factor its row's norm polynomial is divided
#: by, and whether ``f_lower`` mirrors ``f_upper``
_RECIPES = {
    ProtocolKind.FOUR_PHOTON: (2, FOUR_MODE, _UPPER_WITNESS, 1, True),
    ProtocolKind.TWO_PHOTON: (1, BOTH_UP, _BOTH_UP_WITNESS, 2, False),
    ProtocolKind.INDEPENDENT_PAIRS: (None, FOUR_MODE, _MEASURED_OUT_WITNESS, 1, False),
}

#: a protocol's row: ``pairs`` as in its recipe; the source's fixed density
#: (at r = 1, phi = 0), each entry the nearest float of 1/10 or 1/4;
#: ``norm``, the norm polynomial's coefficients by k, tr of the density's
#: (k, k) block over the recipe's factor, so that sum_k norm[k] r^(2k) =
#: N(r) / factor; the pattern's projector and the witness in front of the
#: beam splitters, each by lower-pair block as ``_blocks`` groups it;
#: ``zero_quadratics``, all that independent pairs and r = 0 read: p and the
#: witness sum at lambda = 0, each as its coefficients on s^2, s(1 - s) and
#: (1 - s)^2, the maps' (0, 0) blocks read off the density's three channel
#: branches; and the recipe's mirror.  ``norm`` and ``zero_quadratics`` are
#: exact rationals, each rounded by its one division
_Row = namedtuple("_Row", "pairs density norm projector witness zero_quadratics mirrored")


def _blocks(a: DensityOperator, power: Callable[[Occupations], int]) -> tuple:
    """The map ``a`` as blocks (j, k, v, keys): the keys of its entries whose
    kets hold j and bras k lower pairs, for j <= k only, with their common
    value v, doubled where j < k.  ``a`` is real and equal to its transpose and
    the channel's output is Hermitian, so block (k, j) reads the conjugate of
    block (j, k), and the two add up to twice the real part of its weighted
    sum.  Every readout map here has one value per (j, k); a map with more
    would give one block per value."""
    blocks: dict = {}
    for key, v in a.entries.items():
        j, k = power(key[0]), power(key[1])
        if j <= k:
            blocks.setdefault((j, k, v.real if j == k else 2 * v.real), []).append(key)
    return tuple((*jkv, tuple(keys)) for jkv, keys in sorted(blocks.items()))


def _weighted(norm: Sequence[float], maps: tuple, r: float, phi: float) -> tuple[tuple, tuple]:
    """Each of ``maps``, a row's projector and witness, as blocks (w v, keys)
    for its value v and its weight w = lambda^j conj(lambda)^k over the norm
    polynomial sum_k norm[k] r^(2k) = N(r) / factor, lambda = r e^(i phi),
    with ``norm`` and the factor as ``_Row`` holds them: the weight of the
    density entries whose ket and bra hold j and k lower pairs, as the module
    docstring describes."""
    lam = r * cmath.exp(1j * phi)
    powers = [lam**k for k in range(len(norm))]
    total = 0.0  # a fixed-order loop: the builtin sum compensates from 3.12 on
    for k, n in enumerate(norm):
        total += n * r ** (2 * k)
    return tuple(
        tuple((powers[j] * powers[k].conjugate() / total * v, keys) for j, k, v, keys in blocks)
        for blocks in maps
    )


def _read(weighted: tuple, entries: dict) -> float:
    """Tr(A rho) for the map A of the ``weighted`` blocks and the channel's
    output ``entries`` of the fixed density: each block's sum of rho[key],
    times its weight, real part, summed over the blocks.  Plain loops: the
    blocks hold one to eight keys, too few for ``sum`` and ``map`` to pay."""
    get = entries.get
    total = 0.0
    for w, keys in weighted:
        block = 0j
        for key in keys:
            block += get(key, 0j)
        total += (w * block).real
    return total


#: what a row's density numerators are scaled by for the channel's branches:
#: each of Alice's two modes holds at most two photons, so a one-mode step
#: divides an entry by 1, 2 or 3, and two steps by a divisor of (2 * 3)^2
_BRANCH_SCALE = 36


def _branches(numerators: dict) -> tuple:
    """C_s's three branches at s = 0 on the density of ``numerators`` scaled
    by ``_BRANCH_SCALE``: id, D_a1 + D_a2 and D_a1 D_a2, each a tuple of maps.
    Every split divides evenly, so every value is an integer, exact."""
    scaled = {key: _BRANCH_SCALE * v for key, v in numerators.items()}
    a1, a2 = (mode.value[0] for mode in _ALICE)
    d_a1 = _depolarized(scaled, a1, 0)
    return (scaled,), (d_a1, _depolarized(scaled, a2, 0)), (_depolarized(d_a1, a2, 0),)


@functools.cache
def _row(kind: ProtocolKind) -> _Row:
    """``kind``'s row, built from its recipe on the kind's first use and kept
    for the process.  A row depends on its kind alone and is never changed,
    so every caller shares it; two threads that race may both build it, and
    build equal rows.  The build runs on the density's integer numerators
    over n and divides each number it stores once."""
    pairs, pattern, witness, factor, mirrored = _RECIPES[kind]
    exact = _onto([_factors(pairs)])
    numerators, n = exact
    # independent pairs take no lambda: one (0, 0) block holds all n terms
    power, counts = (_lower_pairs, _counts(pairs)) if pairs else ((lambda occ: 0), [n])
    maps = tuple(_blocks(_in_front(a), power) for a in (_projector(pattern), witness))
    # at lambda = 0 only the maps' (0, 0) blocks have a weight, 1 / norm[0];
    # their values, 1/2 or 1, are exact as floats, so each block's read off a
    # branch is exact.  The branches hold _BRANCH_SCALE n times the density's
    # values and norm[0] is counts[0] / (n factor), so n cancels and each
    # quadratic is one division
    branches = _branches(numerators)
    zero_quadratics = tuple(
        tuple(sum(v * sum(rho.get(key, 0) for rho in branch for key in keys)
                  for j, k, v, keys in blocks if j == k == 0) * factor
              / (_BRANCH_SCALE * counts[0])
              for branch in branches)
        for blocks in maps
    )
    norm = tuple(c / (n * factor) for c in counts)
    return _Row(pairs, _rounded(exact), norm, *maps, zero_quadratics, mirrored)


def _curve(
    kind: ProtocolKind, r: float | None, phi: float | None
) -> Callable[[float], ProtocolResult]:
    """The ``kind`` run at (r, phi) as a function of s, read off the kind's
    row as the module docstring describes.  Independent pairs ignore r and
    phi and report ``None``."""
    row = _row(kind)
    blocks = None
    if row.pairs is None:
        r = phi = None
    else:
        source = SourceParams(r=r, phi=phi, pairs=row.pairs)
        if source.r != 0:
            blocks = _weighted(row.norm, (row.projector, row.witness), source.r, source.phi)

    def at(s: float) -> ProtocolResult:
        # checked once here, so both branches refuse a bad s alike
        if not in_range(s):
            raise survival_refusal(s)
        if blocks is None:
            t = 1.0 - s
            p, weighted = (s * s * a + s * t * b + t * t * c
                           for a, b, c in row.zero_quadratics)
        else:
            entries = depolarize_alice(row.density, s).entries
            p, weighted = (_read(a, entries) for a in blocks)
        # the witness sum over p; p >= 1/9 for every valid input
        f = weighted / p
        return ProtocolResult(kind.value, r, phi, s, p, f, f if row.mirrored else None)

    return at


def run_four_photon(r: float, phi: float, s: float) -> ProtocolResult:
    """Four-photon purification: keep one photon per output spatial mode.

    Both output pairs are kept; they have equal fidelities (see the mirror
    note at ``_RECIPES``), so the upper pair's is reported in both columns.
    """
    return _curve(ProtocolKind.FOUR_PHOTON, r, phi)(s)


def run_two_photon(r: float, phi: float, s: float) -> ProtocolResult:
    """Two-photon purification: keep events with both photons up or both down.

    The surviving pair sits in the upper or the lower modes depending on the
    branch.  The down branch mirrors the up one (see the mirror note at
    ``_RECIPES``), so p and the witness sum are twice the up branch's;
    their ratio is carried in ``f_upper`` (``f_lower`` stays ``None``).
    """
    return _curve(ProtocolKind.TWO_PHOTON, r, phi)(s)


def run_independent_pairs(s: float) -> ProtocolResult:
    """Purification with two independent pairs instead of the two-pass source.

    After selecting one photon per output mode, the lower pair is measured
    out and only the upper pair survives, so there is a single output
    fidelity (in ``f_upper``).
    """
    return _curve(ProtocolKind.INDEPENDENT_PAIRS, None, None)(s)


def bbpssw_fidelity(f: float) -> float:
    """Werner-state fidelity map of the classic two-pair recurrence.

    Reference curve for the independent-pairs pipeline; fixed points at 1/4
    and 1.  Valid for f in [1/4, 1]; anything else, a bool or a ``Decimal``
    included, raises ``ValueError``.  A ``Fraction`` f gives the exact
    ``Fraction``.
    """
    if not in_range(f, lambda x: 0.25 <= x <= 1.0):
        raise ValueError(f"input fidelity must be in [0.25, 1], got {shown(f)}")
    rest = (1 - f) / 3
    numerator = f * f + rest * rest
    denominator = f * f + 2 * f * rest + 5 * rest * rest
    return numerator / denominator


class SweepSpec(namedtuple("SweepSpec", "s_values r phi protocol")):
    """Grid of survival probabilities plus fixed source parameters.

    An immutable named tuple.  ``s_values`` is copied into a tuple and must
    be strictly increasing numbers (not bools) in [0, 1], else the message
    names the first offending value or pair and its index; a ``str``,
    ``bytes``, ``bytearray``, ``set`` or ``frozenset`` is refused whole, as
    its items are characters, byte values or in hash order; ``r`` and ``phi``
    must pass ``SourceParams``'s checks (for every protocol) and are stored as
    given; ``protocol`` is a ``ProtocolKind`` or its value.  Anything else
    raises ``ValueError``.
    """

    __slots__ = ()

    #: ``_replace`` builds through ``_make``, so route both through the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, s_values: Iterable[float], r: float = 1.0, phi: float = 0.0,
                protocol: ProtocolKind | str = ProtocolKind.FOUR_PHOTON):
        if isinstance(s_values, (str, bytes, bytearray, set, frozenset)):
            raise ValueError(
                f"s_values must be an ordered collection of numbers, got {shown(s_values)}"
            )
        try:
            s_values = tuple(s_values)
        except TypeError:
            raise ValueError(f"s_values must be iterable, got {shown(s_values)}") from None
        if not s_values:
            raise ValueError("s grid must not be empty")
        for i, s in enumerate(s_values):
            if not in_range(s):
                raise ValueError(
                    f"s values must be numbers in [0, 1], got {shown(s)} at index {i}"
                )
        for i in range(1, len(s_values)):
            if s_values[i] <= s_values[i - 1]:
                raise ValueError(
                    f"s grid must be strictly increasing, got {shown(s_values[i - 1])} "
                    f"then {shown(s_values[i])} at index {i}"
                )
        SourceParams(r, phi)  # r and phi follow the source's rule
        return super().__new__(cls, s_values, r, phi, ProtocolKind(protocol))


def sweep(spec: SweepSpec) -> list[ProtocolResult]:
    """Run the selected protocol at every grid point, ordered by s.

    The work that depends on r and phi only is done once per sweep; a single
    run is a one-point sweep.  A ``spec`` that is not a ``SweepSpec`` (``None``,
    a tuple) raises ``ValueError``.
    """
    must_be("spec", spec, SweepSpec)
    at = _curve(spec.protocol, spec.r, spec.phi)
    return [at(s) for s in spec.s_values]


def linear_grid(s_min: float, s_max: float, steps: int) -> tuple[float, ...]:
    """Evenly spaced s grid from exactly s_min to exactly s_max, held in memory;
    a range with too few floats for ``steps`` distinct values raises ValueError."""
    if type(steps) is not int:
        raise ValueError(f"steps must be an int, got {shown(steps)}")
    low, high = STEP_BOUNDS
    if not low <= steps <= high:
        raise ValueError(f"steps must be in [{low}, {high}], got {shown(steps)}")
    if not (in_range(s_min) and in_range(s_max) and s_min < s_max):
        raise ValueError(
            f"need 0 <= s_min < s_max <= 1, got [{shown(s_min)}, {shown(s_max)}]"
        )
    step = (s_max - s_min) / (steps - 1)
    grid = tuple(s_min + i * step for i in range(steps - 1)) + (s_max,)
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError(f"steps = {steps} repeats a float between s_min = "
                         f"{shown(s_min)} and s_max = {shown(s_max)}; use fewer steps")
    return grid
