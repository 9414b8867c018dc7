"""Exact second-quantized state algebra over the eight optical modes.

All states live in a sector of fixed total photon number (0, 2 or 4 in
practice).  The canonical representation is a sparse map from occupation
tuples to complex amplitudes; nothing here builds a dense matrix.  Values
are immutable after construction and every operation is a pure function, so
everything here is safe to share across threads.

Every stored value is complex, finite and of modulus at least ``PRUNE_TOL``.
The public constructors convert, check and prune what they are given.  A map
the package builds itself from valid keys is wrapped by ``_trusted`` as it
is; only a builder that can make a value below ``PRUNE_TOL`` (a product, a
quotient or a sum) prunes its result, once: ``to_density``,
``PureState.scaled``, the channel and the source's pair emission.  A
relabeling (the PBS), a subset (``project``, or the protocols' selection of a
detection pattern, made in front of the beam splitters so that they relabel
only the kept entries) and ``create`` (it scales values of modulus >=
``PRUNE_TOL`` by sqrt(n+1) >= 1, on distinct keys) cannot, so they do not
prune.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from enum import Enum, IntEnum

# Values below this modulus are not stored: the builders that can make such a
# value (products, quotients, sums) drop it once, where they make it, so the
# sparse maps hold no numerical dust and stay small.
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
    def label(self) -> str:
        return self.name[0].lower() + self.name[1:]


MODES: tuple[Mode, ...] = tuple(Mode)


class SpatialMode(Enum):
    """A spatial mode; its value is its (horizontal, vertical) pair of modes."""

    A1 = (Mode.A1H, Mode.A1V)
    A2 = (Mode.A2H, Mode.A2V)
    B1 = (Mode.B1H, Mode.B1V)
    B2 = (Mode.B2H, Mode.B2V)


Occupations = tuple[int, ...]


def spatial_totals(occ: Occupations) -> tuple[int, int, int, int]:
    """Photon count per spatial mode, ordered (a1, a2, b1, b2)."""
    return (occ[0] + occ[1], occ[2] + occ[3], occ[4] + occ[5], occ[6] + occ[7])


def _in_range(value, test=lambda x: 0.0 <= x <= 1.0) -> bool:
    """``test(value)``, by default 0 <= value <= 1; False for a bool or where the
    test raises ``TypeError`` or ``OverflowError`` (no float-sized number)."""
    if isinstance(value, bool):
        return False
    try:
        return test(value)
    except (TypeError, OverflowError):
        return False


def _clean_key(occ: Iterable[int]) -> Occupations:
    key = tuple(occ)
    if len(key) != N_MODES:
        raise ValueError(f"occupation tuple must have {N_MODES} entries, got {key}")
    try:
        counts = tuple(int(n) for n in key)
    except (TypeError, ValueError, OverflowError):
        counts = None
    if counts is None or counts != key:
        raise ValueError(f"non-integral occupation in {key}")
    if any(n < 0 for n in counts):
        raise ValueError(f"negative occupation in {key}")
    return counts


def _finite(values: dict) -> dict:
    """``values`` as complex, in order; a NaN or infinite real or imaginary part
    raises ``ValueError`` naming its key."""
    out = {}
    for key, value in values.items():
        v = complex(value)
        if not cmath.isfinite(v):
            raise ValueError(f"value {value!r} at {key} is not finite")
        out[key] = v
    return out


def _pruned(values: dict) -> dict:
    """The entries of ``values`` (complex) at or above ``PRUNE_TOL``, in order."""
    return {key: v for key, v in values.items() if abs(v) >= PRUNE_TOL}


class PureState:
    """Sparse ket over occupation tuples with a fixed total photon number."""

    __slots__ = ("amplitudes", "sector")

    def __init__(
        self,
        amplitudes: dict[Occupations, complex],
        sector: int | None = None,
    ):
        pruned: dict[Occupations, complex] = {}
        for occ, value in _pruned(_finite(amplitudes)).items():
            key = _clean_key(occ)
            total = sum(key)
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

    @classmethod
    def _trusted(cls, amplitudes: dict[Occupations, complex], sector: int) -> "PureState":
        """Wrap a map the package built from valid keys, as it is: no key
        checks and no pruning (the builder prunes where it must)."""
        state = cls.__new__(cls)
        state.amplitudes = amplitudes
        state.sector = sector
        return state

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
        return PureState._trusted(
            _pruned({occ: factor * amp for occ, amp in self.amplitudes.items()}),
            self.sector,
        )

    def __repr__(self) -> str:
        inside = ", ".join(f"{occ}: {amp:.6g}" for occ, amp in self.terms())
        return f"PureState(sector={self.sector}, {{{inside}}})"


def vacuum() -> PureState:
    return PureState._trusted({(0,) * N_MODES: 1 + 0j}, 0)


def create(mode: Mode, state: PureState) -> PureState:
    """Apply the bosonic creation operator of one mode.

    Each term picks up the usual sqrt(n+1) factor; the sector rises by one.
    Distinct terms stay distinct and no value shrinks, so nothing is pruned.
    """
    out: dict[Occupations, complex] = {}
    for occ, amp in state.amplitudes.items():
        n = occ[mode]
        raised = occ[:mode] + (n + 1,) + occ[mode + 1 :]
        out[raised] = out.get(raised, 0.0) + amp * math.sqrt(n + 1)
    return PureState._trusted(out, state.sector + 1)


class DensityOperator:
    """Sparse Hermitian operator over occupation tuples.

    May be subnormalized (trace < 1), as a projection onto a detection
    pattern is.  Keys are (ket, bra) occupation tuples over all eight
    modes, and every stored entry connects bra and ket occupations with equal
    photon totals (photon-number superselection).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict[tuple[Occupations, Occupations], complex]):
        pruned: dict[tuple[Occupations, Occupations], complex] = {}
        for (ket, bra), v in _pruned(_finite(entries)).items():
            k = _clean_key(ket)
            b = _clean_key(bra)
            if sum(k) != sum(b):
                raise ValueError(
                    f"entry ({k}, {b}) mixes different photon totals"
                )
            pruned[(k, b)] = v
        self.entries = pruned

    @classmethod
    def _trusted(
        cls, entries: dict[tuple[Occupations, Occupations], complex]
    ) -> "DensityOperator":
        """Wrap a map the package built from valid keys, as it is: no key
        checks and no pruning (the builder prunes where it must)."""
        rho = cls.__new__(cls)
        rho.entries = entries
        return rho

    def trace(self) -> float:
        return sum((v.real for (k, b), v in self.entries.items() if k == b), 0.0)

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
    if not math.isfinite(norm_sq):
        raise ValueError(f"cannot normalize a state of squared norm {norm_sq}")
    entries = {
        (ki, kj): ai * aj.conjugate() / norm_sq
        for ki, ai in state.amplitudes.items()
        for kj, aj in state.amplitudes.items()
    }
    return DensityOperator._trusted(_pruned(entries))
