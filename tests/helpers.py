"""State builders, error injections, the forward readout and dense
references that only the tests use."""

import ast
import builtins
import cmath
import math
from operator import itemgetter
from pathlib import Path

import numpy as np

import pdcpurify.protocol as protocol
from pdcpurify import (
    MODES,
    DensityOperator,
    Mode,
    ProtocolKind,
    PureState,
    Side,
    SpatialMode,
    create,
    depolarize_partial,
    run_four_photon,
    run_independent_pairs,
    run_two_photon,
    vacuum,
)


def compensated_sum(iterable, start=0):
    """``sum`` as it rounds from Python 3.12 on: a Neumaier sum when every
    term is an int or a float, else the builtin's."""
    terms = list(iterable)
    if not all(type(x) in (int, float) for x in (start, *terms)):
        return builtins.sum(terms, start)
    total, compensation = float(start), 0.0
    for x in terms:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def called_names(module, name):
    """The plain names that the top-level function ``name`` of ``module``
    calls, read from its source: a builtin ``sum`` shows as ``"sum"``."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    (function,) = (node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == name)
    return {
        node.func.id
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


#: F, exchanging H and V in every spatial mode, as a map of mode indices
FLIP = itemgetter(1, 0, 3, 2, 5, 4, 7, 6)
#: S on one side, exchanging its upper and lower spatial modes
SPATIAL_SWAP = {
    Side.ALICE: itemgetter(2, 3, 0, 1, 4, 5, 6, 7),
    Side.BOB: itemgetter(0, 1, 2, 3, 6, 7, 4, 5),
}
#: S on both sides: the mirror image of the upper and lower pairs
MIRROR = itemgetter(2, 3, 0, 1, 6, 7, 4, 5)


def scaled(rho, factor):
    """``rho`` with every entry multiplied by ``factor``."""
    return DensityOperator._trusted({key: factor * v for key, v in rho.entries.items()})


def added(*operators):
    """Entry-wise sum of density operators."""
    out = {}
    for rho in operators:
        for key, v in rho.entries.items():
            out[key] = out.get(key, 0.0) + v
    return DensityOperator._trusted(out)


def superposed(first, *others):
    """Amplitude-wise sum of same-sector pure states, pruned once."""
    out = dict(first.amplitudes)
    for state in others:
        if state.sector != first.sector:
            raise ValueError(f"sector mismatch: {first.sector} vs {state.sector}")
        for occ, amp in state.amplitudes.items():
            out[occ] = out.get(occ, 0.0) + amp
    return PureState._trusted(out, first.sector)


def lower_pairs(occ):
    """The lower pairs of a ket or bra: its photons in a2."""
    return occ[Mode.A2H] + occ[Mode.A2V]


def block_density(rho_1, r, phi):
    """The two-pass source's density at lambda = r e^(i phi), read off its
    density ``rho_1`` at r = 1, phi = 0 and pruned once.

    An entry whose ket and bra hold j and k lower pairs (one photon in a2
    per pair) is lambda^j conj(lambda)^k times its ``rho_1`` entry, over the
    norm N(r), the sum of the diagonal entries times r^(2j).  The reference
    for the package's lambda-weights on the readout maps, which rest on this
    polynomial.
    """
    lam = r * cmath.exp(1j * phi)
    tagged = [(key, v, *map(lower_pairs, key)) for key, v in rho_1.entries.items()]
    norm = sum(v.real * r ** (2 * j) for (ket, bra), v, j, _ in tagged if ket == bra)
    return DensityOperator._trusted({
        key: v * lam**j * lam.conjugate() ** k / norm for key, v, j, k in tagged
    })


def zero_block(row):
    """The (0, 0) block of a protocol row's fixed density, the only block with
    a weight at lambda = 0: the entries with no lower pair (no photon in a2)
    on ket or bra, or the whole density for independent pairs, which take no
    lambda."""
    if row.pairs is None:
        return row.density
    return DensityOperator._trusted({
        (ket, bra): v for (ket, bra), v in row.density.entries.items()
        if lower_pairs(ket) == lower_pairs(bra) == 0
    })


def expect(rho, a):
    """Tr(A rho) for a map A that is real and equal to its transpose: the sum
    of A[key] rho[key], one lookup per entry of A."""
    entries = rho.entries
    return sum(v * entries.get(key, 0j) for key, v in a.entries.items())


def fixed_readouts(kind):
    """``kind``'s fixed projector and witness, which read the Fock build,
    moved in front of both beam splitters from the kind's recipe."""
    _, pattern, witness, _, _ = protocol._RECIPES[kind]
    return (
        protocol._in_front(protocol._projector(pattern)),
        protocol._in_front(witness),
    )


def weighted_readouts(kind, r, phi):
    """``kind``'s fixed projector and witness with every entry times
    lambda^j conj(lambda)^k over the row's norm polynomial N(r) / factor, for
    lambda = r e^(i phi) and j and k the lower pairs of its ket and bra,
    the recipe's factor being two-photon's mirror 2 (independent pairs tag
    every entry j = k = 0, so their weight is 1 at any lambda).
    Read with ``expect`` off the channel's output of the row's fixed
    density, they are the reference for the row's block read, which weights
    whole blocks and folds (k, j) onto (j, k)."""
    row = protocol._row(kind)
    tag = (lambda occ: 0) if row.pairs is None else lower_pairs
    lam = r * cmath.exp(1j * phi)
    norm = sum(n * r ** (2 * k) for k, n in enumerate(row.norm))
    return tuple(
        DensityOperator._trusted({
            (ket, bra): v * lam ** tag(ket) * lam.conjugate() ** tag(bra) / norm
            for (ket, bra), v in a.entries.items()
        })
        for a in fixed_readouts(kind)
    )


def unfolded(blocks):
    """The whole map that a row's blocks (j, k, v, keys) hold: v at each key
    of a diagonal block, and v / 2 at each key of an off-diagonal block and
    at its transpose, the (k, j) key the fold left out."""
    entries = {}
    for j, k, v, keys in blocks:
        for ket, bra in keys:
            if j == k:
                entries[ket, bra] = complex(v)
            else:
                entries[ket, bra] = entries[bra, ket] = complex(v / 2)
    return DensityOperator._trusted(entries)


def allclose(x, y, tol=1e-12):
    """Whether every entry of ``x`` and ``y`` agrees to ``tol`` (missing = 0)."""
    return all(
        abs(x.entries.get(key, 0.0) - y.entries.get(key, 0.0)) <= tol
        for key in set(x.entries) | set(y.entries)
    )


def spatial_totals(occ):
    """Photon count per spatial mode, ordered (a1, a2, b1, b2)."""
    return (occ[0] + occ[1], occ[2] + occ[3], occ[4] + occ[5], occ[6] + occ[7])


def project(rho, selection):
    """Project onto a detection pattern, without renormalizing.

    The forward reference for the compiled pattern projectors.  ``selection``
    holds photon-count tuples over (a1, a2, b1, b2), such as a frozenset, and
    is read once, so an iterator works too; a basis state matches when its
    per-spatial-mode totals (H plus V) are a member.  The entries whose ket
    and bra both match are kept unchanged, so the map is linear and the
    result's trace is the pattern's probability.  A pattern that is not a
    tuple of four non-negative ints raises ``ValueError``, which names it and
    the selection as read.
    """
    patterns = tuple(selection)
    for p in patterns:
        if type(p) is not tuple or [type(n) for n in p] != [int] * 4 or min(p) < 0:
            raise ValueError(
                f"selection needs tuples of four ints >= 0, got {p!r} in "
                f"{patterns!r} (a single pattern must be wrapped in a set)"
            )
    selection = frozenset(patterns)
    return DensityOperator._trusted({
        (ket, bra): value
        for (ket, bra), value in rho.entries.items()
        if spatial_totals(ket) in selection and spatial_totals(bra) in selection
    })


def polarization_bit(occ, spatial):
    """Polarization qubit of a spatial mode holding one photon: H = 0, V = 1.

    Raises ``ValueError`` unless the mode holds exactly one photon.
    """
    h, v = spatial.value
    pair = (occ[h], occ[v])
    if pair == (1, 0):
        return 0
    if pair == (0, 1):
        return 1
    raise ValueError(
        f"support occupation {occ} does not carry one photon in spatial mode "
        f"{spatial.name.lower()}"
    )


def pair_fidelity(rho, alice, bob):
    """Overlap of the (alice, bob) photon pair with (|HH> + |VV>)/sqrt(2).

    The forward reference for the compiled Bell witnesses: Tr(W rho) for the
    witness W = |Phi+><Phi+| on the pair times the identity on the other six
    modes.  An entry contributes half its real part when those six modes
    agree on ket and bra and ket and bra each hold HH or VV on the pair;
    every other entry has weight 0.  An entry whose other modes agree but
    whose ket or bra lacks one photon in each of the pair's spatial modes
    raises ``ValueError``, and so does an ``alice`` or ``bob`` that is not a
    ``SpatialMode``.  The result scales with the trace of ``rho``.
    """
    for name, spatial in (("alice", alice), ("bob", bob)):
        if not isinstance(spatial, SpatialMode):
            raise ValueError(f"{name} must be a SpatialMode, got {spatial!r}")
    if alice == bob:
        raise ValueError(f"a pair needs two spatial modes, got {alice} twice")
    kept = {*alice.value, *bob.value}
    others = itemgetter(*(m for m in MODES if m not in kept))
    total = 0.0
    for (ket, bra), value in rho.entries.items():
        if others(ket) != others(bra):
            continue
        ket_aligned = polarization_bit(ket, alice) == polarization_bit(ket, bob)
        bra_aligned = polarization_bit(bra, alice) == polarization_bit(bra, bob)
        if ket_aligned and bra_aligned:
            total += value.real
    return 0.5 * total


#: pattern probabilities at or below this count as "never happens"
ZERO_PROBABILITY = 1e-12


def postselect(rho, selection):
    """Condition ``rho`` on a detection pattern.

    Returns the pattern's probability and the renormalized conditional state,
    or ``None`` in its place where the pattern (almost) never occurs: an
    arbitrary pattern may select nothing.
    """
    kept = project(rho, selection)
    probability = kept.trace()
    if probability <= ZERO_PROBABILITY:
        return probability, None
    return probability, scaled(kept, 1.0 / probability)


def ket(*modes):
    """The basis state with one photon created in each listed mode, in order."""
    state = vacuum()
    for mode in modes:
        state = create(mode, state)
    return state


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
    return superposed(all_h, all_v).normalized()


def inject_bitflip(state, target):
    """Exchange the H and V occupations of one spatial mode (involution)."""
    h, v = target.value

    def flip(occ):
        out = list(occ)
        out[h], out[v] = occ[v], occ[h]
        return tuple(out)

    return map_basis(state, flip)


def map_basis(state, relabel):
    """Apply an occupation-tuple relabeling to every term of a pure state.

    The result goes through the public ``PureState`` constructor, so a
    relabeling that produces an invalid key is rejected.
    """
    out = {}
    for occ, amp in state.amplitudes.items():
        key = relabel(occ)
        out[key] = out.get(key, 0.0) + amp
    return PureState(out, sector=state.sector)


def inner_product(x, y):
    """Hermitian inner product <x|y> of two same-sector states."""
    if x.sector != y.sector:
        raise ValueError(f"sector mismatch: {x.sector} vs {y.sector}")
    total = 0.0 + 0.0j
    for occ, amp in x.terms():
        other = y.amplitudes.get(occ)
        if other is not None:
            total += amp.conjugate() * other
    return total


def depolarize_full(rho, target):
    """Fully depolarize one spatial mode: the channel at s = 0 (idempotent)."""
    return depolarize_partial(rho, target, 0.0)


def reference_depolarized(entries: dict, h: int, s: float) -> dict:
    """The channel's one-mode step with no case skipped: every entry is
    sliced, and every diagonal entry, an empty mode's too, is split onto its
    keys.  ``channel._depolarized`` matches it bit for bit, in dict order."""
    # a spatial mode's (H, V) modes are adjacent, h and h + 1, so a split's
    # key is the occupations around them with the split in between
    end = h + 2
    out = {key: s * value for key, value in entries.items()}
    for (ket, bra), value in entries.items():
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
    return out


def eigenvalues(rho):
    """Eigenvalues of a ``DensityOperator`` over its stored support, ascending."""
    if not rho.entries:
        return np.zeros(0)
    basis = sorted({occ for key in rho.entries for occ in key})
    index = {occ: i for i, occ in enumerate(basis)}
    matrix = np.zeros((len(basis), len(basis)), dtype=complex)
    for (ket, bra), v in rho.entries.items():
        matrix[index[ket], index[bra]] = v
    return np.linalg.eigvalsh(matrix)


def validate(rho, hermitian_tol=1e-12, trace_tol=1e-12, psd_tol=1e-10):
    """Raise ValueError unless ``rho`` is Hermitian, has trace in [0, 1] and is PSD."""
    for (ket, bra), v in rho.entries.items():
        mirror = rho.entries.get((bra, ket), 0.0)
        if abs(v - mirror.conjugate()) > hermitian_tol:
            raise ValueError(f"entry ({ket}, {bra}) breaks Hermiticity")
    tr = rho.trace()
    if tr < -trace_tol or tr > 1.0 + trace_tol:
        raise ValueError(f"trace {tr} outside [0, 1]")
    eigs = eigenvalues(rho)
    if eigs.size and eigs[0] < -psd_tol * max(tr, 1.0):
        raise ValueError(f"minimum eigenvalue {eigs[0]} below tolerance")


def polarization_qubit_matrix(rho, spatial_modes):
    """Dense qubit matrix for spatial modes carrying exactly one photon each.

    All other modes are traced out; each listed spatial mode's single photon
    becomes a qubit (H = 0, V = 1).  The matrix is indexed with the first
    listed mode as the most significant qubit.  This is the dense reference
    for the package's sparse fidelity sums.
    """
    if len(set(spatial_modes)) != len(spatial_modes):
        raise ValueError(f"duplicate spatial modes in {spatial_modes}")
    pairs = [sm.value for sm in spatial_modes]
    kept = {m for pair in pairs for m in pair}
    traced = [m for m in MODES if m not in kept]

    def qubit_index(occ):
        index = 0
        for h, v in pairs:
            pair = (occ[h], occ[v])
            if pair == (1, 0):
                bit = 0
            elif pair == (0, 1):
                bit = 1
            else:
                raise ValueError(
                    f"support occupation {occ} does not carry one photon "
                    "in every designated spatial mode"
                )
            index = 2 * index + bit
        return index

    dim = 2 ** len(spatial_modes)
    matrix = np.zeros((dim, dim), dtype=complex)
    for (ket, bra), value in rho.entries.items():
        if all(ket[m] == bra[m] for m in traced):
            matrix[qubit_index(ket), qubit_index(bra)] += value
    return matrix


def reduce_to_pair(rho, alice_spatial, bob_spatial):
    """Two-qubit polarization state of one (Alice mode, Bob mode) photon pair.

    Spatial modes are given as 1 (upper) or 2 (lower).  Basis order (HH, HV,
    VH, VV); trace equals the trace of ``rho``.
    """
    alice = SpatialMode.A1 if alice_spatial == 1 else SpatialMode.A2
    bob = SpatialMode.B1 if bob_spatial == 1 else SpatialMode.B2
    return polarization_qubit_matrix(rho, (alice, bob))


#: target Bell state (|HH> + |VV>)/sqrt(2) in the (HH, HV, VH, VV) basis
TARGET_BELL = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def fidelity(two_qubit):
    """Overlap of a dense two-qubit polarization state with (|HH> + |VV>)/sqrt(2)."""
    if two_qubit.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {two_qubit.shape}")
    return float(np.real(TARGET_BELL.conj() @ two_qubit @ TARGET_BELL))


_PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
_MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)
_PHASE_FLIP = np.diag([1.0, -1.0])


def measure_out_lower_pair(conditional):
    """Measure the (a2, b2) photons at 45 degrees and correct the kept pair.

    Both lower photons are projected onto the (H +/- V)/sqrt(2) basis; when
    the two outcomes disagree, a phase flip is applied to Alice's kept qubit.
    Returns the resulting dense (a1, b1) two-qubit state (all four outcome
    branches summed, trace 1).
    """
    order = (SpatialMode.A1, SpatialMode.B1, SpatialMode.A2, SpatialMode.B2)
    four_qubit = polarization_qubit_matrix(conditional, order).reshape((2,) * 8)
    correction = np.kron(_PHASE_FLIP, np.eye(2))
    kept = np.zeros((4, 4), dtype=complex)
    for alice_vec in (_PLUS, _MINUS):
        for bob_vec in (_PLUS, _MINUS):
            branch = np.einsum(
                "abcdefgh,c,d,g,h->abef",
                four_qubit,
                alice_vec.conj(),
                bob_vec.conj(),
                alice_vec,
                bob_vec,
            ).reshape(4, 4)
            if alice_vec is not bob_vec:
                branch = correction @ branch @ correction
            kept += branch
    return kept


def reduced_density_matrix(state, keep):
    """Dense reduced state of the modes in ``keep``, from the ket's amplitudes.

    Entry (i, j) sums psi(i, rest) psi*(j, rest) over the occupations of the
    other modes, divided by the squared norm; rows and columns are the kept
    occupations that occur, sorted.
    """
    keep = sorted(keep)
    split = [
        (
            tuple(occ[m] for m in keep),
            tuple(n for m, n in enumerate(occ) if m not in keep),
            amp,
        )
        for occ, amp in state.amplitudes.items()
    ]
    index = {k: i for i, k in enumerate(sorted({k for k, _, _ in split}))}
    matrix = np.zeros((len(index), len(index)), dtype=complex)
    for ket, ket_rest, ket_amp in split:
        for bra, bra_rest, bra_amp in split:
            if ket_rest == bra_rest:
                matrix[index[ket], index[bra]] += ket_amp * np.conj(bra_amp)
    return matrix / sum(abs(a) ** 2 for a in state.amplitudes.values())


def numpy_schmidt(state, alice_modes, bob_modes):
    """``schmidt`` with numpy's SVD in place of the package's Jacobi one.

    Builds the same amplitude matrix over (Alice pattern, Bob pattern) and
    applies the same 1e-12 cut-off and entropy formula; skips the checks.
    """
    alice, bob = sorted(alice_modes), sorted(bob_modes)

    def index(modes):
        patterns = sorted({tuple(occ[m] for m in modes) for occ in state.amplitudes})
        return {p: i for i, p in enumerate(patterns)}

    a_index, b_index = index(alice), index(bob)
    matrix = np.zeros((len(a_index), len(b_index)), dtype=complex)
    for occ, amp in state.amplitudes.items():
        matrix[a_index[tuple(occ[m] for m in alice)], b_index[tuple(occ[m] for m in bob)]] += amp
    coefficients = [float(c) for c in np.linalg.svd(matrix, compute_uv=False) if c > 1e-12]
    entropy = -sum(c * c * math.log2(c * c) for c in coefficients if c > 0.0)
    return coefficients, entropy


def run_direct(kind, r, phi, s):
    """The ``run_*`` call for one protocol kind, bypassing ``sweep``."""
    if kind is ProtocolKind.FOUR_PHOTON:
        return run_four_photon(r, phi, s)
    if kind is ProtocolKind.TWO_PHOTON:
        return run_two_photon(r, phi, s)
    return run_independent_pairs(s)


#: The run path's stages, by their names on the ``protocol`` module, each with
#: its empty cell in the stage table: for the channel, its one-mode step and
#: the PBS, a tuple of the entry counts of the operators or exact maps their
#: calls receive, in call order; for the others a count of calls (``_onto``,
#: the exact sum over kets, receives kets, ``_weighted``, the per-curve
#: weighting of the row's blocks, no operator, and ``_read`` the entries of
#: the channel's output).
STAGES = {"_onto": 0, "_depolarized": (), "depolarize_alice": (), "apply_pbs": (),
          "_weighted": 0, "_read": 0}

#: The mechanism of the run path: what each stage does per row build, and per
#: curve and per point where lambda = r e^(i phi) is not 0 and where it is
#: (independent pairs, and r = 0).  A row build sums the source's ket and the
#: pattern's projector exactly, moves the projector and the witness in front
#: of the beam splitters and runs the channel's one-mode step three times on
#: the exact density at s = 0 (D_a1, D_a2, then D_a2 of D_a1; a step keeps
#: the zeros it makes, so D_a1 D_a2 receives more entries than the density
#: has); it builds no source state and reads no block through ``_read``.
#: Where lambda != 0 a curve weights its blocks once and builds no operator
#: (``_weighted`` returns numbers and key tuples;
#: ``test_a_curve_builds_no_operator`` counts), and a point runs the channel
#: on the fixed density and reads each map's blocks; where lambda = 0 a point
#: reads the row's quadratics and calls no stage.
STAGE_TABLE = {
    ProtocolKind.FOUR_PHOTON: {
        "build": {"_onto": 2, "apply_pbs": (16,) * 4, "_depolarized": (100, 100, 114)},
        "curve": {"_weighted": 1},
        "point": {"depolarize_alice": (100,), "_read": 2},
        "zero curve": {}, "zero point": {},
    },
    ProtocolKind.TWO_PHOTON: {
        "build": {"_onto": 2, "apply_pbs": (4,) * 4, "_depolarized": (16, 16, 18)},
        "curve": {"_weighted": 1},
        "point": {"depolarize_alice": (16,), "_read": 2},
        "zero curve": {}, "zero point": {},
    },
    ProtocolKind.INDEPENDENT_PAIRS: {
        "build": {"_onto": 2, "apply_pbs": (16,) * 4, "_depolarized": (16, 16, 24)},
        "zero curve": {}, "zero point": {},
    },
}


def stage_calls(kind, r, phases):
    """The table's calls for ``phases``, each of "build", "curve" and "point"
    with how often it runs, at r (the lambda = 0 rows where r is 0 or the kind
    takes no r)."""
    zero = "zero " if kind is ProtocolKind.INDEPENDENT_PAIRS or r == 0 else ""
    rows = [(STAGE_TABLE[kind][phase if phase == "build" else zero + phase], n)
            for phase, n in phases.items()]
    return {stage: sum((row.get(stage, empty) * n for row, n in rows), empty)
            for stage, empty in STAGES.items()}


def record_stages(monkeypatch):
    """Every stage's calls on the ``protocol`` module from now on, written as
    the table writes them; ``calls.update(STAGES)`` starts afresh."""
    calls = dict(STAGES)
    for stage in STAGES:

        def recorded(*args, _stage=stage, _original=getattr(protocol, stage)):
            received = getattr(args[0], "entries", args[0])
            calls[_stage] += (len(received),) if STAGES[_stage] == () else 1
            return _original(*args)

        monkeypatch.setattr(protocol, stage, recorded)
    return calls
