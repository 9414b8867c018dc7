"""Polarization noise on single spatial modes.

The channel ``C_s`` leaves one spatial mode alone with probability s and
fully depolarizes it otherwise.  Full depolarization preserves photon number:
every density-matrix entry whose bra and ket occupations differ on that mode
is erased, and every diagonal entry with n photons in the mode is replaced by
the uniform mixture over the n+1 ways of distributing those photons between
H and V.  This also erases coherence between different photon numbers of the
target mode, so it degrades spatial superpositions as well as polarization;
that is intentional.
"""

from __future__ import annotations

from .fock import DensityOperator, Occupations, SpatialMode, in_range, pruned, shown


def _with_pair(occ: Occupations, h: int, v: int, nh: int, nv: int) -> Occupations:
    out = list(occ)
    out[h] = nh
    out[v] = nv
    return tuple(out)


def depolarize_partial(
    rho: DensityOperator, target: SpatialMode, s: float
) -> DensityOperator:
    """Leave the state untouched with probability s, depolarize otherwise.

    Each entry becomes ``s * v + (1 - s) * m`` for input entry ``v`` and fully
    depolarized entry ``m``.  One map starts at ``s * v``; each entry
    diagonal in the target's (H, V) occupations adds ``(1 - s) * v / (n + 1)``
    to each of its n+1 H/V splits; the sum is pruned once, so no term is
    dropped before it is summed.  Trace preserving and completely positive.
    An ``s`` that is not a number in [0, 1] (``None``, ``"0.5"``, ``True``)
    and a ``target`` that is not a ``SpatialMode`` raise ``ValueError``.
    """
    if not in_range(s):
        raise ValueError(
            f"survival probability s must be a number in [0, 1], got {shown(s)}"
        )
    if not isinstance(target, SpatialMode):
        raise ValueError(f"target must be a SpatialMode, got {shown(target)}")
    h, v = target.value
    out = {key: s * value for key, value in rho.entries.items()}
    for (ket, bra), value in rho.entries.items():
        pair = (ket[h], ket[v])
        if pair != (bra[h], bra[v]):
            continue
        n = pair[0] + pair[1]
        share = (1.0 - s) * (value / (n + 1))
        for k in range(n + 1):
            key = (_with_pair(ket, h, v, k, n - k), _with_pair(bra, h, v, k, n - k))
            out[key] = out.get(key, 0.0) + share
    return DensityOperator._trusted(pruned(out))


def depolarize_alice(rho: DensityOperator, s: float) -> DensityOperator:
    """Apply ``C_s`` to Alice's two spatial modes, a1 and then a2."""
    for target in (SpatialMode.A1, SpatialMode.A2):
        rho = depolarize_partial(rho, target, s)
    return rho
