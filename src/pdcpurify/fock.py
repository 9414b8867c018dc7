"""Exact second-quantized state algebra over the eight optical modes.

All states live in a sector of fixed total photon number (0, 2 or 4 in
practice).  The canonical representation is a sparse map from occupation
tuples to complex amplitudes; nothing here builds a dense matrix.  Values
are immutable after construction and every operation is a pure function, so
everything here is safe to share across threads.

Every stored value is complex, finite and nonzero.  The rule is exact: only
a value of exactly zero (``0``, ``-0.0``, ``0j``) is left out, so no true
term is hidden however small (``5e-324`` is kept).  That rule has two homes.
The public constructors share ``_checked``: it converts and checks every
value and every key, then drops the zeros, so a malformed key is refused
whatever its value; each constructor then adds its own rule (one sector for
a state, equal photon totals in each operator entry), which holds for every
nonzero value, a 1e-20 one included.  A map the package builds itself from
valid keys is wrapped by ``_trusted``, which drops its zeros once, after the
whole map is built, so no builder decides for itself what to keep.  No other
module of the package calls ``pruned``.  ``PureState.scaled`` and
``create``, which take a caller's state, refuse a value they would make
too large for a float.

Exact values live only inside the builds of the source state and of a
protocol row: the integer kets of ``expanded``, maps of integer numerators
from ``protocol._onto`` and, scaled, the channel's one-mode step, which no
public function returns.  Every operator a public function returns, and
every operator a row keeps, holds complex values.

``in_range``, ``must_be``, ``shown`` and ``expanded`` are the package's
shared number check, type check, message formatter and ket expansion; the
other modules import them, and ``pdcpurify`` does not export them.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping
from enum import Enum, IntEnum

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


def expanded(factors: Iterable[Mapping[tuple[Mode, ...], int]]) -> dict[Occupations, int]:
    """The ket of a product of ``factors``, each {the modes of its photons:
    amplitude} on modes no other factor uses, as {occupation tuple:
    amplitude}: the integer kets from which the source state and the
    protocols' fixed densities and readout maps are built."""
    ket = {(): 1}
    for factor in factors:
        ket = {m + n: a * b for m, a in ket.items() for n, b in factor.items()}
    return {tuple(map(photons.count, MODES)): a for photons, a in ket.items()}


class SpatialMode(Enum):
    """A spatial mode; its value is its (horizontal, vertical) pair of modes."""

    A1 = (Mode.A1H, Mode.A1V)
    A2 = (Mode.A2H, Mode.A2V)
    B1 = (Mode.B1H, Mode.B1V)
    B2 = (Mode.B2H, Mode.B2V)


Occupations = tuple[int, ...]


def in_range(value, test=lambda x: 0.0 <= x <= 1.0) -> bool:
    """``test(value)``, by default 0 <= value <= 1; False for a bool, for a value
    that does not multiply with a complex number (a ``Decimal``), or where the
    test raises ``TypeError`` or ``OverflowError`` (no float-sized number)."""
    if isinstance(value, bool):
        return False
    try:
        value * 1j  # r, phi and s each meet complex numbers in the pipelines
        return test(value)
    except (TypeError, OverflowError):
        return False


#: the longest repr ``shown`` puts into a message
_SHOWN_LIMIT = 80


def shown(value) -> str:
    """``repr(value)`` for a rejection message, cut to ``_SHOWN_LIMIT``
    characters; where the repr fails (an int past Python's 4300-digit limit)
    the value is named by its type, so the message still says what it rejects."""
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
    if len(text) > _SHOWN_LIMIT:
        return text[: _SHOWN_LIMIT - 3] + "..."
    return text


def must_be(name: str, value, kind: type):
    """``value`` if it is a ``kind``; otherwise ``ValueError`` naming ``name``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {shown(value)}")
    return value


def _clean_key(occ: Iterable[int]) -> Occupations:
    """``occ`` as a tuple of ``N_MODES`` non-negative ints; a refusal names
    ``occ`` as the caller wrote it.  A str, bytes or bytearray is refused
    whole: its items are characters or byte values, not counts."""
    if isinstance(occ, (str, bytes, bytearray)):
        raise ValueError(f"occupation tuple must hold counts, got {shown(occ)}")
    try:
        key = tuple(occ)
    except TypeError:  # not iterable (an int)
        key = None
    if key is None or len(key) != N_MODES:
        raise ValueError(
            f"occupation tuple must have {N_MODES} entries, got {shown(occ)}"
        )
    try:
        counts = tuple(int(n) for n in key)
    except (TypeError, ValueError, OverflowError):
        counts = None
    if counts is None or counts != key:
        raise ValueError(f"non-integral occupation in {shown(occ)}")
    if any(n < 0 for n in counts):
        raise ValueError(f"negative occupation in {shown(occ)}")
    return counts


def _clean_pair(key) -> tuple[Occupations, Occupations]:
    try:
        ket, bra = key
    except (TypeError, ValueError):  # not iterable (an int), or no pair
        raise ValueError(f"entry key {shown(key)} is not a (ket, bra) pair") from None
    return _clean_key(ket), _clean_key(bra)


def _finite(name: str, values: Mapping) -> dict:
    """``values`` as complex, in order; a ``values`` that is no mapping
    (``None``) raises ``ValueError`` naming ``name``, and a value that is no
    number (``b"1"``, ``"1"``), is too large for a float (``10**400``) or
    has a NaN or infinite real or imaginary part raises one naming its key."""
    out = {}
    for key, value in must_be(name, values, Mapping).items():
        try:
            # a str is no number, though complex() parses "1" and refuses "abc"
            v = None if isinstance(value, str) else complex(value)
        except TypeError:
            v = None
        except OverflowError:
            raise ValueError(
                f"value {shown(value)} at {shown(key)} is too large for a float"
            ) from None
        if v is None:
            raise ValueError(f"value {shown(value)} at {shown(key)} is not a number")
        if not cmath.isfinite(v):
            raise ValueError(f"value {shown(value)} at {shown(key)} is not finite")
        out[key] = v
    return out


def pruned(values: dict) -> dict:
    """The entries of ``values`` that are not zero, in order: ``0``, ``-0.0``
    and ``0j`` are dropped, ``5e-324`` is kept."""
    return {key: v for key, v in values.items() if v}


def _checked(name: str, values: Mapping, clean) -> dict:
    """The storage rule of both public constructors: ``values`` as complex
    (``_finite``), every key cleaned by ``clean`` whatever its value, so a
    malformed key is refused even where its value is zero, then the zeros
    dropped (``pruned``)."""
    return pruned({clean(key): v for key, v in _finite(name, values).items()})


class PureState:
    """Sparse ket over occupation tuples with a fixed total photon number.

    ``sector``, that number, is taken from the terms when not given; a given
    one must be a non-negative int (not a bool or a float), else
    ``ValueError`` names it.
    """

    __slots__ = ("amplitudes", "sector")

    def __init__(
        self,
        amplitudes: dict[Occupations, complex],
        sector: int | None = None,
    ):
        if sector is not None and (type(sector) is not int or sector < 0):
            raise ValueError(f"sector must be a non-negative int, got {shown(sector)}")
        checked = _checked("amplitudes", amplitudes, _clean_key)
        for key in checked:
            total = sum(key)
            if sector is None:
                sector = total
            elif total != sector:
                raise ValueError(
                    f"term {shown(key)} has {shown(total)} photons, "
                    f"expected sector {shown(sector)}"
                )
        if sector is None:
            raise ValueError("sector is required for a state without terms")
        self.amplitudes = checked
        self.sector = sector

    @classmethod
    def _trusted(cls, amplitudes: dict[Occupations, complex], sector: int) -> "PureState":
        """Wrap a map the package built whole from valid keys and finite
        values, its zeros dropped once here (``pruned``): no key checks."""
        state = cls.__new__(cls)
        state.amplitudes = pruned(amplitudes)
        state.sector = sector
        return state

    def terms(self) -> list[tuple[Occupations, complex]]:
        """Terms in canonical (lexicographic) order."""
        return sorted(self.amplitudes.items())

    def norm(self) -> float:
        """``math.hypot`` of the moduli: no square overflows, so the norm is
        inf only where it is too large for a float itself."""
        return math.hypot(*map(abs, self.amplitudes.values()))

    def normalized(self) -> "PureState":
        """Every amplitude divided by ``norm()``: a division, not a product
        with the reciprocal, which is inf for a subnormal norm (one 5e-324
        term)."""
        n = self.norm()
        if n <= 0.0:
            raise ValueError("cannot normalize a zero state")
        if n == math.inf:
            raise ValueError("cannot normalize a state whose norm is too large for a float")
        quotients = {occ: amp / n for occ, amp in self.amplitudes.items()}
        return PureState._trusted(quotients, self.sector)

    def scaled(self, factor: complex) -> "PureState":
        """Every amplitude times ``factor``.  A factor that is no finite number
        (``None``, ``"x"``, ``True``, NaN, inf) or that takes an amplitude past
        a float's range raises ``ValueError`` naming it."""
        if not in_range(factor, cmath.isfinite):
            raise ValueError(f"factor must be a finite number, got {shown(factor)}")
        products = {occ: factor * amp for occ, amp in self.amplitudes.items()}
        return _finite_state(products, self.sector, f"factor {shown(factor)}")

    def __repr__(self) -> str:
        inside = ", ".join(f"{occ}: {amp:.6g}" for occ, amp in self.terms())
        return f"PureState(sector={self.sector}, {{{inside}}})"


def vacuum() -> PureState:
    return PureState._trusted({(0,) * N_MODES: 1 + 0j}, 0)


def create(mode: Mode, state: PureState) -> PureState:
    """Apply the bosonic creation operator of one mode.

    Each term picks up the usual sqrt(n+1) factor; the sector rises by one.
    A ``mode`` that is not a ``Mode`` (an int, ``True``), a ``state`` that is
    not a ``PureState`` and an amplitude that the factor takes past a float's
    range (1.5e308 on a mode that holds a photon) raise ``ValueError``.
    """
    must_be("mode", mode, Mode)
    must_be("state", state, PureState)
    out: dict[Occupations, complex] = {}
    for occ, amp in state.amplitudes.items():
        n = occ[mode]
        raised = occ[:mode] + (n + 1,) + occ[mode + 1 :]
        out[raised] = out.get(raised, 0.0) + amp * math.sqrt(n + 1)
    return _finite_state(out, state.sector + 1, f"raising mode {mode.label}")


def _finite_state(amplitudes: dict, sector: int, cause: str) -> PureState:
    """``PureState._trusted(amplitudes, sector)`` for ``scaled`` and ``create``,
    which multiply a caller's finite amplitudes: a product past a float's
    range (``inf``, or ``nan`` from ``inf - inf``) raises ``ValueError``
    naming ``cause``."""
    if not all(map(cmath.isfinite, amplitudes.values())):
        raise ValueError(f"{cause} takes an amplitude past a float's range")
    return PureState._trusted(amplitudes, sector)


class DensityOperator:
    """Sparse Hermitian operator over occupation tuples.

    May be subnormalized (trace < 1), as a projection onto a detection
    pattern is; the protocols' fixed projectors and witnesses are held in the
    same form.  Keys are (ket, bra) occupation tuples over all eight
    modes, and every stored entry connects bra and ket occupations with equal
    photon totals (photon-number superselection).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict[tuple[Occupations, Occupations], complex]):
        checked = _checked("entries", entries, _clean_pair)
        for k, b in checked:
            if sum(k) != sum(b):
                raise ValueError(
                    f"entry ({shown(k)}, {shown(b)}) mixes different photon totals"
                )
        self.entries = checked

    @classmethod
    def _trusted(
        cls, entries: dict[tuple[Occupations, Occupations], complex]
    ) -> "DensityOperator":
        """Wrap a map the package built whole from valid keys and finite
        values, its zeros dropped once here (``pruned``): no key checks."""
        rho = cls.__new__(cls)
        rho.entries = pruned(entries)
        return rho

    def trace(self) -> float:
        return sum((v.real for (k, b), v in self.entries.items() if k == b), 0.0)

    def __repr__(self) -> str:
        return (
            f"DensityOperator({len(self.entries)} entries, "
            f"trace={self.trace():.6g})"
        )


def to_density(state: PureState) -> DensityOperator:
    """Normalized projector |psi><psi| / <psi|psi>; a ``state`` that is not a
    ``PureState`` raises ``ValueError``."""
    must_be("state", state, PureState)
    try:
        norm_sq = sum(abs(a) ** 2 for a in state.amplitudes.values())
    except OverflowError:  # abs(a) ** 2 raises past about 1.3e154
        norm_sq = math.inf
    if norm_sq <= 0.0:
        raise ValueError("cannot build a density operator from a zero state")
    if not math.isfinite(norm_sq):
        raise ValueError(f"cannot normalize a state of squared norm {norm_sq}")
    entries = {
        (ki, kj): ai * aj.conjugate() / norm_sq
        for ki, ai in state.amplitudes.items()
        for kj, aj in state.amplitudes.items()
    }
    return DensityOperator._trusted(entries)
