"""Polarization noise on single spatial modes.

The depolarizing channel acts on the (H, V) occupation pair of one spatial
mode and preserves photon number: every density-matrix entry whose bra and
ket occupations differ on that mode is erased, and every diagonal entry with
n photons in the mode is replaced by the uniform mixture over the n+1 ways of
distributing those photons between H and V.  Note that this also erases
coherence between different photon numbers of the target mode, so it degrades
spatial superpositions as well as polarization; that is intentional.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fock import DensityOperator, Occupations, SpatialMode

#: spatial modes the noise channels act on by default (Alice's long arm)
DEFAULT_CHANNEL_TARGETS = (SpatialMode.A1, SpatialMode.A2)


def _target_positions(rho: DensityOperator, target: SpatialMode) -> tuple[int, int]:
    try:
        h = rho.modes.index(target.horizontal)
        v = rho.modes.index(target.vertical)
    except ValueError:
        raise ValueError(f"operator does not contain both modes of {target}")
    return h, v


def _with_pair(occ: Occupations, h: int, v: int, nh: int, nv: int) -> Occupations:
    out = list(occ)
    out[h] = nh
    out[v] = nv
    return tuple(out)


def depolarize_full(rho: DensityOperator, target: SpatialMode) -> DensityOperator:
    """Fully depolarize the polarization of one spatial mode.

    Trace preserving, completely positive and idempotent.
    """
    h, v = _target_positions(rho, target)
    out: dict[tuple[Occupations, Occupations], complex] = {}
    for (ket, bra), value in rho.entries.items():
        pair = (ket[h], ket[v])
        if pair != (bra[h], bra[v]):
            continue
        n = pair[0] + pair[1]
        share = value / (n + 1)
        for k in range(n + 1):
            key = (
                _with_pair(ket, h, v, k, n - k),
                _with_pair(bra, h, v, k, n - k),
            )
            out[key] = out.get(key, 0.0) + share
    return DensityOperator(out, rho.modes)


def depolarize_partial(
    rho: DensityOperator, target: SpatialMode, s: float
) -> DensityOperator:
    """Leave the state untouched with probability s, depolarize otherwise."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"survival probability must be in [0, 1], got {s}")
    return rho.scaled(s) + depolarize_full(rho, target).scaled(1.0 - s)


@dataclass(frozen=True)
class ChannelParams:
    """Survival probability plus the spatial modes it applies to."""

    s: float
    targets: tuple[SpatialMode, ...]

    def __post_init__(self):
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s must be in [0, 1], got {self.s}")
        if not self.targets:
            raise ValueError("at least one target spatial mode is required")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets in {self.targets}")

    def apply(self, rho: DensityOperator) -> DensityOperator:
        for target in self.targets:
            rho = depolarize_partial(rho, target, self.s)
        return rho
