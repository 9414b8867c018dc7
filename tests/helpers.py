"""State builders and error injections that only the tests use."""

from pdcpurify import (
    Mode,
    ProtocolKind,
    create,
    run_four_photon,
    run_independent_pairs,
    run_two_photon,
    vacuum,
)


def ghz_state():
    """Four photons sharing one polarization: (|HHHH> + |VVVV>)/sqrt(2).

    This is the state left in the four output modes when two
    identically-polarized pairs pass the beam splitters; it carries one ebit
    between the two stations.
    """
    all_h = vacuum()
    for mode in (Mode.A1H, Mode.A2H, Mode.B1H, Mode.B2H):
        all_h = create(mode, all_h)
    all_v = vacuum()
    for mode in (Mode.A1V, Mode.A2V, Mode.B1V, Mode.B2V):
        all_v = create(mode, all_v)
    return (all_h + all_v).normalized()


def inject_bitflip(state, target):
    """Exchange the H and V occupations of one spatial mode (involution)."""
    h, v = target.horizontal, target.vertical

    def flip(occ):
        out = list(occ)
        out[h], out[v] = occ[v], occ[h]
        return tuple(out)

    return state.map_basis(flip)


def run_direct(kind, r, phi, s):
    """The ``run_*`` call for one protocol kind, bypassing ``sweep``."""
    if kind is ProtocolKind.FOUR_PHOTON:
        return run_four_photon(r, phi, s)
    if kind is ProtocolKind.TWO_PHOTON:
        return run_two_photon(r, phi, s)
    return run_independent_pairs(s)
