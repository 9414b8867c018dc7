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

from .fock import DensityOperator, SpatialMode, in_range, pruned, shown


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
    # a spatial mode's (H, V) modes are adjacent, h and h + 1, so a split's
    # key is the occupations around them with the split in between
    h = target.value[0]
    end = h + 2
    out = {key: s * value for key, value in rho.entries.items()}
    for (ket, bra), value in rho.entries.items():
        nh, nv = ket[h:end]
        if bra[h] != nh or bra[h + 1] != nv:
            continue
        n = nh + nv
        share = (1.0 - s) * (value / (n + 1))
        ket_head, ket_tail, bra_head, bra_tail = ket[:h], ket[end:], bra[:h], bra[end:]
        for k in range(n + 1):
            split = (k, n - k)
            key = (ket_head + split + ket_tail, bra_head + split + bra_tail)
            out[key] = out.get(key, 0.0) + share
    return DensityOperator._trusted(pruned(out))


def depolarize_alice(rho: DensityOperator, s: float) -> DensityOperator:
    """Apply ``C_s`` to Alice's two spatial modes, a1 and then a2."""
    for target in (SpatialMode.A1, SpatialMode.A2):
        rho = depolarize_partial(rho, target, s)
    return rho
