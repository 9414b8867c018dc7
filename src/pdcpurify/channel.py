"""Polarization noise on spatial modes.

The channel ``C_s`` leaves one spatial mode alone with probability s and
fully depolarizes it otherwise.  Full depolarization preserves photon number:
every density-matrix entry whose bra and ket occupations differ on that mode
is erased, and every diagonal entry with n photons in the mode is replaced by
the uniform mixture over the n+1 ways of distributing those photons between
H and V; with the mode empty (n = 0) that one way is the entry itself, so
the entry keeps its key.  This also erases coherence between different
photon numbers of the target mode, so it degrades spatial superpositions as
well as polarization; that is intentional.  ``depolarize_partial`` applies
``C_s`` to one spatial mode or to several in turn, as one map pruned once;
the paper's noise model, ``C_s`` on Alice's a1 and a2, is
``depolarize_alice``.
"""

from __future__ import annotations

from .fock import DensityOperator, SpatialMode, in_range, must_be, shown

_ALICE = (SpatialMode.A1, SpatialMode.A2)


def survival_refusal(s) -> ValueError:
    """The refusal of an ``s`` that fails ``in_range``, not a number in [0, 1]:
    ``depolarize_partial`` and ``protocol.input_fidelity`` raise it."""
    return ValueError(f"survival probability s must be a number in [0, 1], got {shown(s)}")


def _depolarized(entries: dict, h: int, s: float) -> dict:
    """``s * v + (1 - s) * m`` on the spatial mode whose (H, V) modes are h and
    h + 1, as a new map, unpruned.  At the int s = 0 it is exact on integer
    entries that each split divides evenly: every share is an integer-valued
    float, as a protocol row's build runs it on its scaled numerators.

    The map starts at ``s * v``; then each entry, in order, is one of three
    cases.  Off-diagonal in the mode (its ket's and bra's (H, V) counts there
    differ), it adds nothing and is skipped on four int comparisons.  Diagonal
    with the mode empty, its one split is its own key, so its share is added
    there in place.  Diagonal with n >= 1 photons, its share goes to each of
    its n+1 splits."""
    # a spatial mode's (H, V) modes are adjacent, h and h + 1, so a split's
    # key is the occupations around them with the split in between
    v_mode = h + 1
    end = h + 2
    t = 1 - s
    out = {key: s * value for key, value in entries.items()}
    for key, value in entries.items():
        ket, bra = key
        if ket[h] != bra[h] or ket[v_mode] != bra[v_mode]:
            continue
        n = ket[h] + ket[v_mode]
        share = t * (value / (n + 1))
        if not n:
            out[key] += share
            continue
        ket_head, ket_tail, bra_head, bra_tail = ket[:h], ket[end:], bra[:h], bra[end:]
        for k in range(n + 1):
            split = (k, n - k)
            split_key = (ket_head + split + ket_tail, bra_head + split + bra_tail)
            out[split_key] = out.get(split_key, 0) + share
    return out


def depolarize_partial(
    rho: DensityOperator, target: SpatialMode | tuple[SpatialMode, ...], s: float
) -> DensityOperator:
    """Leave each target mode untouched with probability s, depolarize it
    otherwise.

    ``target`` is one ``SpatialMode`` or a non-empty tuple of them, taken in
    order.  On each, every entry becomes ``s * v + (1 - s) * m`` for input
    entry ``v`` and fully depolarized entry ``m``: a map starts at ``s * v``
    and each entry diagonal in the mode's (H, V) occupations adds
    ``(1 - s) * v / (n + 1)`` to each of its n+1 H/V splits.  The map is pruned
    once, after the last mode, so no term is dropped before it is summed.
    Trace preserving and completely positive.  A ``rho`` that is not a
    ``DensityOperator``, any other ``target`` (``"A1"``, a list, ``()``) and an
    ``s`` that is not a number in [0, 1] (``None``, ``"0.5"``, ``True``) raise
    ``ValueError``.
    """
    must_be("rho", rho, DensityOperator)
    targets = (target,) if isinstance(target, SpatialMode) else target
    # a str is no tuple, so "A1" is refused whole, not read as "A" and "1"
    if not (
        isinstance(targets, tuple)
        and targets
        and all(isinstance(mode, SpatialMode) for mode in targets)
    ):
        raise ValueError(
            "target must be a SpatialMode or a non-empty tuple of them, "
            f"got {shown(target)}"
        )
    if not in_range(s):
        raise survival_refusal(s)
    entries = rho.entries
    for mode in targets:
        entries = _depolarized(entries, mode.value[0], s)
    return DensityOperator._trusted(entries)


def depolarize_alice(rho: DensityOperator, s: float) -> DensityOperator:
    """Apply ``C_s`` to Alice's two spatial modes, a1 and then a2, as one map."""
    return depolarize_partial(rho, _ALICE, s)
