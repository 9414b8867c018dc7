"""Exact second-quantized state algebra over the eight optical modes.

All states live in a sector of fixed total photon number (0, 2 or 4 in
practice).  The canonical representation is a sparse map from occupation
tuples to complex amplitudes; dense matrices only appear inside eigenvalue
routines.  Values are immutable after construction and every operation is a
pure function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from enum import Enum, IntEnum
from typing import Callable, Iterable

import numpy as np

# Amplitudes below this are dropped after every linear operation so that
# sparse maps stay canonical for equality-based tests.
PRUNE_TOL = 1e-14

N_MODES = 8


class Side(Enum):
    """Receiving station of the two-party setup."""

    ALICE = "alice"
    BOB = "bob"


class Mode(IntEnum):
    """The eight optical modes in canonical encoding order.

    Naming: side (a = Alice, b = Bob), spatial mode (1 = upper, 2 = lower),
    polarization (H or V).
    """

    A1H = 0
    A1V = 1
    A2H = 2
    A2V = 3
    B1H = 4
    B1V = 5
    B2H = 6
    B2V = 7

    @property
    def side(self) -> Side:
        return Side.ALICE if self < 4 else Side.BOB

    @property
    def spatial(self) -> int:
        return 1 if self % 4 < 2 else 2

    @property
    def polarization(self) -> str:
        return "H" if self % 2 == 0 else "V"

    @property
    def label(self) -> str:
        side = "a" if self.side is Side.ALICE else "b"
        return f"{side}{self.spatial}{self.polarization}"


MODES: tuple[Mode, ...] = tuple(Mode)


class SpatialMode(Enum):
    """A spatial mode, i.e. a (horizontal, vertical) pair of Fock modes."""

    A1 = (Side.ALICE, 1)
    A2 = (Side.ALICE, 2)
    B1 = (Side.BOB, 1)
    B2 = (Side.BOB, 2)

    @property
    def side(self) -> Side:
        return self.value[0]

    @property
    def index(self) -> int:
        return self.value[1]

    @property
    def horizontal(self) -> Mode:
        base = 0 if self.side is Side.ALICE else 4
        return Mode(base + 2 * (self.index - 1))

    @property
    def vertical(self) -> Mode:
        return Mode(self.horizontal + 1)

    @property
    def modes(self) -> tuple[Mode, Mode]:
        return (self.horizontal, self.vertical)

    @property
    def label(self) -> str:
        side = "a" if self.side is Side.ALICE else "b"
        return f"{side}{self.index}"


Occupations = tuple[int, ...]


def total_photons(occ: Occupations) -> int:
    return sum(occ)


def spatial_totals(occ: Occupations) -> tuple[int, int, int, int]:
    """Photon count per spatial mode, ordered (a1, a2, b1, b2)."""
    return (occ[0] + occ[1], occ[2] + occ[3], occ[4] + occ[5], occ[6] + occ[7])


def _clean_key(occ: Iterable[int], width: int) -> Occupations:
    key = tuple(int(n) for n in occ)
    if len(key) != width:
        raise ValueError(f"occupation tuple must have {width} entries, got {key}")
    if any(n < 0 for n in key):
        raise ValueError(f"negative occupation in {key}")
    return key


class PureState:
    """Sparse ket over occupation tuples with a fixed total photon number."""

    __slots__ = ("amplitudes", "sector")

    def __init__(
        self,
        amplitudes: dict[Occupations, complex],
        sector: int | None = None,
    ):
        pruned: dict[Occupations, complex] = {}
        for occ, amp in amplitudes.items():
            value = complex(amp)
            if abs(value) < PRUNE_TOL:
                continue
            key = _clean_key(occ, N_MODES)
            total = total_photons(key)
            if sector is None:
                sector = total
            elif total != sector:
                raise ValueError(
                    f"term {key} has {total} photons, expected sector {sector}"
                )
            pruned[key] = value
        if sector is None:
            raise ValueError("sector is required for a state without terms")
        self.amplitudes = pruned
        self.sector = int(sector)

    def terms(self) -> list[tuple[Occupations, complex]]:
        """Terms in canonical (lexicographic) order."""
        return sorted(self.amplitudes.items())

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for _, a in self.terms()))

    def normalized(self) -> "PureState":
        n = self.norm()
        if n <= 0.0:
            raise ValueError("cannot normalize a zero state")
        return self.scaled(1.0 / n)

    def scaled(self, factor: complex) -> "PureState":
        return PureState(
            {occ: factor * amp for occ, amp in self.amplitudes.items()},
            sector=self.sector,
        )

    def __add__(self, other: "PureState") -> "PureState":
        if self.sector != other.sector:
            raise ValueError(
                f"sector mismatch: {self.sector} vs {other.sector}"
            )
        out = dict(self.amplitudes)
        for occ, amp in other.amplitudes.items():
            out[occ] = out.get(occ, 0.0) + amp
        return PureState(out, sector=self.sector)

    def __sub__(self, other: "PureState") -> "PureState":
        return self + other.scaled(-1.0)

    def map_basis(self, relabel: Callable[[Occupations], Occupations]) -> "PureState":
        """Apply an occupation-tuple permutation to every term."""
        out: dict[Occupations, complex] = {}
        for occ, amp in self.amplitudes.items():
            key = relabel(occ)
            out[key] = out.get(key, 0.0) + amp
        return PureState(out, sector=self.sector)

    def __repr__(self) -> str:
        inside = ", ".join(f"{occ}: {amp:.6g}" for occ, amp in self.terms())
        return f"PureState(sector={self.sector}, {{{inside}}})"


def vacuum() -> PureState:
    return PureState({(0,) * N_MODES: 1.0})


def create(mode: Mode, state: PureState) -> PureState:
    """Apply the bosonic creation operator of one mode.

    Each term picks up the usual sqrt(n+1) factor; the sector rises by one.
    """
    out: dict[Occupations, complex] = {}
    for occ, amp in state.amplitudes.items():
        n = occ[mode]
        raised = occ[:mode] + (n + 1,) + occ[mode + 1 :]
        out[raised] = out.get(raised, 0.0) + amp * math.sqrt(n + 1)
    return PureState(out, sector=state.sector + 1)


def inner_product(x: PureState, y: PureState) -> complex:
    """Hermitian inner product <x|y> of two same-sector states."""
    if x.sector != y.sector:
        raise ValueError(f"sector mismatch: {x.sector} vs {y.sector}")
    total = 0.0 + 0.0j
    for occ, amp in x.terms():
        other = y.amplitudes.get(occ)
        if other is not None:
            total += amp.conjugate() * other
    return total


class DensityOperator:
    """Sparse Hermitian operator over occupation tuples.

    May be subnormalized (trace < 1) when it represents an unnormalized
    conditional state.  ``modes`` labels the tuple positions; full states use
    all eight modes while partial traces return operators over fewer.  Every
    stored entry connects bra and ket occupations with equal photon totals
    (photon-number superselection).
    """

    __slots__ = ("entries", "modes")

    def __init__(
        self,
        entries: dict[tuple[Occupations, Occupations], complex],
        modes: tuple[Mode, ...] = MODES,
    ):
        width = len(modes)
        pruned: dict[tuple[Occupations, Occupations], complex] = {}
        for (ket, bra), value in entries.items():
            v = complex(value)
            if abs(v) < PRUNE_TOL:
                continue
            k = _clean_key(ket, width)
            b = _clean_key(bra, width)
            if total_photons(k) != total_photons(b):
                raise ValueError(
                    f"entry ({k}, {b}) mixes different photon totals"
                )
            pruned[(k, b)] = v
        self.entries = pruned
        self.modes = tuple(modes)

    def items(self) -> list[tuple[tuple[Occupations, Occupations], complex]]:
        return sorted(self.entries.items())

    def trace(self) -> float:
        return sum(v.real for (k, b), v in self.items() if k == b)

    def scaled(self, factor: complex) -> "DensityOperator":
        return DensityOperator(
            {key: factor * v for key, v in self.entries.items()}, self.modes
        )

    def __add__(self, other: "DensityOperator") -> "DensityOperator":
        if self.modes != other.modes:
            raise ValueError("cannot add operators over different mode sets")
        out = dict(self.entries)
        for key, v in other.entries.items():
            out[key] = out.get(key, 0.0) + v
        return DensityOperator(out, self.modes)

    def map_basis(
        self, relabel: Callable[[Occupations], Occupations]
    ) -> "DensityOperator":
        """Apply an occupation permutation to bra and ket sides."""
        out: dict[tuple[Occupations, Occupations], complex] = {}
        for (ket, bra), v in self.entries.items():
            key = (relabel(ket), relabel(bra))
            out[key] = out.get(key, 0.0) + v
        return DensityOperator(out, self.modes)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues over the stored support, ascending."""
        if not self.entries:
            return np.zeros(0)
        basis = sorted({occ for key in self.entries for occ in key})
        index = {occ: i for i, occ in enumerate(basis)}
        matrix = np.zeros((len(basis), len(basis)), dtype=complex)
        for (ket, bra), v in self.entries.items():
            matrix[index[ket], index[bra]] = v
        return np.linalg.eigvalsh(matrix)

    def allclose(self, other: "DensityOperator", tol: float = 1e-12) -> bool:
        if self.modes != other.modes:
            return False
        keys = set(self.entries) | set(other.entries)
        return all(
            abs(self.entries.get(key, 0.0) - other.entries.get(key, 0.0)) <= tol
            for key in keys
        )

    def validate(
        self,
        hermitian_tol: float = 1e-12,
        trace_tol: float = 1e-12,
        psd_tol: float = 1e-10,
    ) -> None:
        """Raise ValueError unless Hermitian, trace in [0, 1] and PSD."""
        for (ket, bra), v in self.entries.items():
            mirror = self.entries.get((bra, ket), 0.0)
            if abs(v - mirror.conjugate()) > hermitian_tol:
                raise ValueError(f"entry ({ket}, {bra}) breaks Hermiticity")
        tr = self.trace()
        if tr < -trace_tol or tr > 1.0 + trace_tol:
            raise ValueError(f"trace {tr} outside [0, 1]")
        eigs = self.eigenvalues()
        if eigs.size and eigs[0] < -psd_tol * max(tr, 1.0):
            raise ValueError(f"minimum eigenvalue {eigs[0]} below tolerance")

    def __repr__(self) -> str:
        return (
            f"DensityOperator({len(self.entries)} entries, "
            f"trace={self.trace():.6g})"
        )


def to_density(state: PureState) -> DensityOperator:
    """Normalized projector |psi><psi| / <psi|psi>."""
    norm_sq = sum(abs(a) ** 2 for a in state.amplitudes.values())
    if norm_sq <= 0.0:
        raise ValueError("cannot build a density operator from a zero state")
    entries = {
        (ki, kj): ai * aj.conjugate() / norm_sq
        for ki, ai in state.amplitudes.items()
        for kj, aj in state.amplitudes.items()
    }
    return DensityOperator(entries)


def partial_trace(rho: DensityOperator, keep: Iterable[Mode]) -> DensityOperator:
    """Trace out every mode not in ``keep``.

    The result is an operator over the kept modes, ordered as they appear in
    ``rho.modes``.  Tracing everything out leaves a single scalar entry equal
    to the trace.
    """
    keep_set = set(keep)
    unknown = keep_set - set(rho.modes)
    if unknown:
        raise ValueError(f"modes {sorted(unknown)} not present in operator")
    kept_pos = [i for i, m in enumerate(rho.modes) if m in keep_set]
    rest_pos = [i for i, m in enumerate(rho.modes) if m not in keep_set]
    out: dict[tuple[Occupations, Occupations], complex] = {}
    for (ket, bra), v in rho.entries.items():
        if any(ket[p] != bra[p] for p in rest_pos):
            continue
        key = (
            tuple(ket[p] for p in kept_pos),
            tuple(bra[p] for p in kept_pos),
        )
        out[key] = out.get(key, 0.0) + v
    return DensityOperator(out, tuple(rho.modes[p] for p in kept_pos))
