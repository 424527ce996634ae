"""Quantitative protection checks for the toric code.

Three layers: exact symplectic verdicts for Pauli errors (the projected
error-correction condition, and the error orbits of the code vectors,
counted from the GF(2) rank of the errors' syndromes), spectral analysis of
the check Hamiltonian under local perturbations, and the size-scaling study
of the quasi-degenerate ground-multiplet splitting.

The CLI's one spectral engine, `flux_free_spectrum`, solves fields of one
Pauli type in the four flux-free symmetry sectors; the full-space
`spectrum`, for any Pauli perturbation, is its oracle and has no CLI
caller.  Both build the Hamiltonian with one kernel, `pauli._coset_sum`
(the full space is its unit frame, `_full_sum`; a flux-free sector is a
coset of the star span) and read the multiplet with `_multiplet`.
`spectrum` solves its space with `_lowest` (dense eigh up to
_DENSE_SPECTRUM_CAP states, seeded ARPACK above); `flux_free_spectrum`
splits each sector into real translation-momentum blocks
(`_MomentumBlocks`), solved in one stacked eigvalsh while every sector has
at most _DENSE_SPECTRUM_CAP orbits, each by `_lowest` above.  scipy is
imported only in the ARPACK paths (`_lowest`, `_sparse_operator`,
`_MomentumBlocks.sparse`), so every path that stays dense loads none of it.
`ErrorSet` and `AnyonState` are named only in string annotations, so
neither `algebra` nor `anyon` is loaded with this module.
Every tolerance is a fixed module constant, not a config field.

This module is also the one home of the dense bridge for small lattices,
the 2^n-dimensional oracles that the exact layers are checked against:
`code_projector`, `code_basis`, `dense_state` (an AnyonState as a vector),
`sector_of` (a vector's Z-loop label), `kl_check_dense` and
`kl_check_ground_basis`.  `lattice` and `anyon` build no vector.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import gf2
from .config import (DEFAULT_CONFIG, ConvergenceError, EngineConfig,
                     ResourceLimitError, spawn_rng)
from .lattice import (SectorLabel, TorusLattice, build_torus, code_dimension,
                      homology_basis, syndrome)
from .pauli import (PauliOp, _coset_dense, _coset_states, _coset_sum, _full_sum,
                    _signs, apply_to_vector, format_pauli)


# a code projector must be Hermitian and idempotent to within this (Frobenius)
_PROJECTOR_TOL = 1e-8
# a dense state is a loop eigenvector when ||L v - j v|| is within this
# fraction of ||v||
_LOOP_EIGEN_TOL = 1e-8
# up to this dimension a dense solve beats ARPACK, so `_lowest` takes one
# dense eigh, and `flux_free_spectrum` stacks its momentum blocks when no
# sector has more orbits: 3x4's 180 orbits a sector solve dense, 2x7's 600
# on ARPACK in a quarter of the dense time
_DENSE_SPECTRUM_CAP = 256
# every ARPACK Ritz pair must meet this relative residual, within this many
# iterations
_EIG_RESIDUAL_TOL = 1e-9
_EIG_MAX_ITER = 20000
# relative (to the gap) width of one quasi-degenerate multiplet
_DEGENERACY_CLUSTER_REL = 1e-6
# what `_lowest` and `flux_free_spectrum` raise on a non-finite operator
_OVERFLOW = "the Hamiltonian has a non-finite entry: the field overflows"
# `local_error_generators` refuses to enumerate more Paulis than this
_MAX_ERROR_GENERATORS = 1 << 20


class InsufficientDataError(ValueError):
    """Too few usable points for the requested analysis."""


class SectorCertificateError(ValueError):
    """The flux-free sectors are not shown to hold the requested levels."""


class NotAnEigenstateError(Exception):
    """State is not a joint eigenvector of the two Z loops."""


@dataclass(frozen=True)
class KLReport:
    c_values: tuple          # complex scalar per error, in input order
    deviations: tuple        # deviation per error, in input order
    max_deviation: float


@dataclass(frozen=True)
class SpectralReport:
    energies: tuple          # lowest computed eigenvalues, ascending
    ground_degeneracy: int
    gap_delta: float
    splitting: float
    coupling_k: float


@dataclass(frozen=True)
class ScalingRow:
    L1: int
    L2: int
    h: float
    splitting: float
    gap: float
    coupling_k: float
    deviation_max: float


@dataclass(frozen=True)
class ScalingResult:
    points: tuple            # (|lattice| = n_qubits, splitting)
    rows: tuple              # ScalingRow per size
    fits: dict               # n -> (alpha, offset, residual)
    fit_alpha: float         # None when every splitting is zero (no fit)
    fit_n: int
    fit_residual: float
    degenerate: bool
    notes: tuple


def _report(cs, devs) -> KLReport:
    devs = tuple(float(d) for d in devs)
    return KLReport(tuple(cs), devs, max(devs, default=0.0))


def kl_check_stabilizer(lat: TorusLattice, errors) -> KLReport:
    """Exact error-correction verdict for Pauli errors, in input order.

    For each error: c = the exact eigenvalue if the error is a product of
    checks (deviation 0), c = 0 if some check detects it (deviation 0), and
    deviation 1 if it commutes with every check without being a product of
    them (an undetectable logical action on the code space): it
    anticommutes with some frame loop.
    """
    cs, devs = [], []
    for err in errors:
        checks, loops = syndrome(lat, err)
        cs.append(0j if checks or loops else 1j ** err.phase)
        devs.append(1.0 if loops and not checks else 0.0)
    return _report(cs, devs)


def kl_check_dense(code_projector: np.ndarray, errs: "ErrorSet") -> KLReport:
    """Numerical condition on a projector, per generator of `errs` in order:
    c(X) = tr(PXP)/tr(P), deviation = operator norm of PXP - c(X) P."""
    P = np.asarray(code_projector, dtype=complex)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("projector must be square")
    if np.linalg.norm(P - P.conj().T) > _PROJECTOR_TOL:
        raise ValueError("projector is not Hermitian within tolerance")
    if np.linalg.norm(P @ P - P) > _PROJECTOR_TOL:
        raise ValueError("projector is not idempotent within tolerance")
    if errs.dim != P.shape[0]:
        raise ValueError("error dimension does not match projector")
    r = float(np.trace(P).real)
    cs, devs = [], []
    for g in errs.generators:
        pxp = P @ g @ P
        c = complex(np.trace(pxp) / r)
        devs.append(float(np.linalg.norm(pxp - c * P, 2)))
        cs.append(c)
    return _report(cs, devs)


def kl_check_ground_basis(basis_cols: np.ndarray, errors) -> KLReport:
    """Same condition, matrix-free, in input order: deviation of G^dag X G
    from c*1.

    `basis_cols` holds orthonormal columns spanning the (possibly perturbed)
    code space; since PXP - cP is supported on that span, its operator norm
    equals the norm of the compressed matrix.
    """
    G = np.asarray(basis_cols)
    m = G.shape[1]
    cs, devs = [], []
    for err in errors:
        comp = G.conj().T @ apply_to_vector(err, G)
        c = complex(np.trace(comp) / m)
        cs.append(c)
        devs.append(float(np.linalg.norm(comp - c * np.eye(m), 2)))
    return _report(cs, devs)


# ----------------------------------------------------------- dense bridge

def code_projector(lat: TorusLattice, config: EngineConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Dense real projector onto the joint +1 check eigenspace:
    2^-(L1*L2 - 1) on each pair of states in one flux-free coset
    (`_loop_frames`)."""
    if 1 << lat.n_qubits > config.dense_cap:
        raise ResourceLimitError("code projector needs the dense bridge")
    _, frames, basis = _loop_frames(lat)
    P = np.zeros((1 << lat.n_qubits,) * 2)
    for z0 in frames:
        states = _coset_states(z0, basis)
        P[np.ix_(states, states)] = 2.0 ** -len(basis)
    return P


SECTOR_ORDER = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def code_basis(lat: TorusLattice, config: EngineConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Orthonormal columns |J> for J in SECTOR_ORDER (Z-loop labels): the
    uniform superposition over the flux-free coset of J (`_loop_frames`)."""
    if 1 << lat.n_qubits > config.dense_cap:
        raise ResourceLimitError("code basis needs the dense bridge")
    _, frames, basis = _loop_frames(lat)
    cols = []
    for z0 in frames:
        v = np.zeros(1 << lat.n_qubits, dtype=complex)
        v[_coset_states(z0, basis)] = 2.0 ** -len(basis)
        cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


def dense_state(state: "AnyonState", config: EngineConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Exact state vector accumulated_phase * applied |J0> (small lattices)."""
    basis = code_basis(state.lat, config)
    vec = basis[:, SECTOR_ORDER.index(tuple(state.sector0.j))]
    return state.accumulated_phase * apply_to_vector(state.applied, vec)


def sector_of(lat: TorusLattice, state) -> SectorLabel:
    """Joint eigenvalues (j1, j2) of the Z loops g1_Z, g2_Z on a dense state
    vector: the label of `code_basis`, SECTOR_ORDER and
    `AnyonState.frame_signs`."""
    vec = np.asarray(state, dtype=complex)
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        raise NotAnEigenstateError("zero vector")
    vals = []
    for lo in homology_basis(lat)[:2]:
        image = apply_to_vector(lo.op, vec)
        ev = float(np.real(np.vdot(vec, image)) / nrm**2)
        j = 1 if ev >= 0 else -1
        if np.linalg.norm(image - j * vec) > _LOOP_EIGEN_TOL * nrm:
            raise NotAnEigenstateError(
                f"state is not an eigenvector of {lo.homology_class} "
                f"(expectation {ev:.3g})")
        vals.append(j)
    return SectorLabel(tuple(vals))


# ----------------------------------------------------------- sector orbits

@dataclass(frozen=True)
class OrbitReport:
    orbit_dims: tuple
    max_overlap: float
    total_dim: int
    fills_space: bool


def local_error_generators(lat: TorusLattice, max_weight: int = 2,
                           loop_commuting: bool = True):
    """Paulis of 1 <= weight <= max_weight, optionally restricted to the
    commutant of all four loop operators.

    Restricting to the loop commutant keeps the generated motion inside one
    sector; products of these operators reach every check and every defect
    pattern but never a bare logical.  More than _MAX_ERROR_GENERATORS
    Paulis, counted in closed form before any is built, are refused.
    """
    n = lat.n_qubits
    count = sum(math.comb(n, w) * 3**w for w in range(1, max_weight + 1))
    if count > _MAX_ERROR_GENERATORS:
        raise ResourceLimitError(f"{count} Paulis of weight <= {max_weight} on "
                                 f"{n} qubits exceed {_MAX_ERROR_GENERATORS}")
    # per qubit, the (x, z) bits of X, Z and Y = XZ up to phase, in that order
    letters = [((1 << q, 0), (0, 1 << q), (1 << q, 1 << q)) for q in range(n)]
    gens = []
    for w in range(1, max_weight + 1):
        for sites in itertools.combinations(letters, w):
            for word in itertools.product(*sites):
                x = z = 0
                for xb, zb in word:
                    x |= xb
                    z |= zb
                op = PauliOp(n, x, z)
                if not loop_commuting or not syndrome(lat, op)[1]:
                    gens.append(op)
    return gens


def sector_orbits(lat: TorusLattice, errors=None,
                  config: EngineConfig = DEFAULT_CONFIG) -> OrbitReport:
    """Orbit of each code vector |J> under iterated local errors, exactly.

    |J> is the stabilizer state of n independent generators: all stars but
    one, all plaquettes but one, and the signed Z loops g1_Z, g2_Z.  A Pauli
    word moves it to the joint eigenvector of its `lattice.syndrome` against
    them (the bits of the last star and plaquette, XORs of the others, add
    no rank), so the orbit of |J> has one dimension per syndrome in the
    GF(2) span of the errors' syndromes: 2^rank.  |J'> is the eigenvector of
    the Z-loop flip taking J to J', so two orbits are the same space when
    that flip lies in the span (overlap 1) and otherwise share no
    eigenvector (overlap 0).  No vector is built, so `config` sets no cap.
    """
    gens = local_error_generators(lat) if errors is None else list(errors)
    loop_bit = 2 * lat.L1 * lat.L2
    syndromes = [checks | (loops & 3) << loop_bit
                 for checks, loops in (syndrome(lat, g) for g in gens)]
    dims = (2 ** gf2.rank(syndromes),) * len(SECTOR_ORDER)
    # the loop flips between two labels of SECTOR_ORDER: g1_Z, g2_Z or both
    coincide = any(mask is not None for mask in
                   gf2.solve(syndromes, [flip << loop_bit for flip in (1, 2, 3)]))
    return OrbitReport(dims, 1.0 if coincide else 0.0, sum(dims),
                       sum(dims) == 1 << lat.n_qubits)


# ---------------------------------------------------------------- spectra

def toric_check_terms(lat: TorusLattice):
    """The unperturbed Hamiltonian terms: -1 per star and per plaquette."""
    return [(ch, -1.0) for ch in lat.vertex_stars] + \
           [(ch, -1.0) for ch in lat.plaquette_checks]


PERTURBATION_KINDS = ("z_field", "z_field_right", "z_field_down", "x_field")


def perturbation_terms(lat: TorusLattice, kind: str):
    """Single-edge field terms of the requested kind, unit coefficients.

    z_field acts on every edge; z_field_right / z_field_down restrict to the
    row-direction / column-direction edges, which keeps only the matching
    wrap direction active in perturbation theory.
    """
    if kind not in PERTURBATION_KINDS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    n = lat.n_qubits
    terms = []
    for e in range(n):
        _, _, d = lat.edge_coords(e)
        if kind == "z_field_right" and d != 0:
            continue
        if kind == "z_field_down" and d != 1:
            continue
        if kind == "x_field":
            terms.append((PauliOp(n, 1 << e, 0), 1.0))
        else:
            terms.append((PauliOp(n, 0, 1 << e), 1.0))
    return terms


def _assemble_terms(lat, perturbation, h):
    terms = list(toric_check_terms(lat))
    if h and perturbation:
        terms += [(op, h * coeff) for op, coeff in perturbation]
    for op, _ in terms:
        if op.adjoint() != op:
            raise ValueError(f"non-Hermitian Hamiltonian term {format_pauli(op)}")
    return terms


def _dense_hamiltonian(n, terms):
    return _coset_dense(_full_sum(terms, n), 1 << n)


def _matfree_operator(n, terms):
    return _sparse_operator(_full_sum(terms, n), 1 << n)


def _sparse_operator(groups, dim):
    """A `_coset_sum` as ARPACK's operator: CSR, row r holding values[r ^ a]
    at column r ^ a for each group a, in column order."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    nnz = dim * len(groups)
    rows = np.arange(dim, dtype=np.int32 if nnz < 2**31 else np.int64)
    cols = np.stack([rows ^ a for a in groups], axis=1)
    data = np.stack([np.broadcast_to(v, (dim,))[rows ^ a] for a, v in groups.items()], 1)
    mat = sp.csr_matrix((data.ravel(), cols.ravel(), np.arange(0, nnz + 1, len(groups))),
                        shape=(dim, dim))
    mat.sort_indices()
    return spla.aslinearoperator(mat)


def _lowest(dim, k, dense, operator, stream, config):
    """Lowest k eigenpairs, ascending: one dense eigh of dense() up to
    _DENSE_SPECTRUM_CAP, else ARPACK on operator() from a start drawn from
    spawn_rng(config.seed, *stream) (deterministic, yet it still resolves
    exact multiplicities), each Ritz pair checked against _EIG_RESIDUAL_TOL.
    An operator with a non-finite entry (a field so strong that h times the
    number of terms overflows) raises ValueError: its levels would be NaN,
    which every later guard lets through, and ARPACK fails on it.  The dense
    matrix is checked whole, the sparse operator by one product with the
    start vector, which has no zero entry."""
    if dim <= _DENSE_SPECTRUM_CAP:
        H = dense()
        if not np.isfinite(H).all():
            raise ValueError(_OVERFLOW)
        w, V = np.linalg.eigh(H)
        return w[:k], V[:, :k]
    import scipy.sparse.linalg as spla

    A = operator()
    v0 = spawn_rng(config.seed, *stream).standard_normal(dim)
    if not np.isfinite(A @ v0).all():
        raise ValueError(_OVERFLOW)
    try:
        w, V = spla.eigsh(A, k=k, which="SA", v0=v0,
                          tol=_EIG_RESIDUAL_TOL * 1e-2, maxiter=_EIG_MAX_ITER)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(w)
    w, V = w[order], V[:, order]
    for i in range(len(w)):
        resid = np.linalg.norm(A @ V[:, i] - w[i] * V[:, i])
        if resid > _EIG_RESIDUAL_TOL * max(1.0, abs(w[i])):
            raise ConvergenceError(f"Ritz residual {resid:.2e} above tolerance")
    return w, V


def _multiplet(lat, h, w, q):
    """(ground_degeneracy, gap, splitting) of the lowest q ascending levels w,
    refused when level q + 1 lies within _DEGENERACY_CLUSTER_REL * max(gap, 1)
    of level q: that would leave the multiplet to the solver's ranking."""
    gap = float(w[q] - w[0])
    tol = _DEGENERACY_CLUSTER_REL * max(abs(gap), 1.0)
    if w[q] - w[q - 1] <= tol:
        raise ValueError(f"tied multiplet on {lat.L1}x{lat.L2} at h={h!r}: "
                         f"levels {q} and {q + 1} coincide")
    return int(sum(x - w[0] <= tol for x in w)), gap, float(w[q - 1] - w[0])


# Levels `spectrum` asks for: three times the four-fold ground multiplet,
# enough for ARPACK to resolve the exactly degenerate multiplet at h = 0.
_SPECTRUM_LEVELS = 12


def spectrum(lat: TorusLattice, perturbation=None, h: float = 0.0,
             config: EngineConfig = DEFAULT_CONFIG, return_vectors: bool = False):
    """The 12 lowest levels of -sum(stars) - sum(plaquettes) + h*V on the
    full 2^n-dimensional space: the oracle for any Pauli perturbation, with
    no CLI caller (the CLI solves its fields with `flux_free_spectrum`).

    Dense eigh up to _DENSE_SPECTRUM_CAP states, ARPACK above, refused
    above sparse_max_qubits qubits; the multiplet is read by `_multiplet`.
    coupling_k is ||(1 - P0) V P0|| for the bare perturbation V and the
    multiplet projector P0, which does not depend on the solver's basis.
    """
    if lat.n_qubits > config.sparse_max_qubits:
        raise ResourceLimitError(
            f"spectrum capped at {config.sparse_max_qubits} qubits, got {lat.n_qubits}")
    terms = _assemble_terms(lat, perturbation, h)
    q = code_dimension(lat)
    n = lat.n_qubits
    w, V = _lowest(1 << n, _SPECTRUM_LEVELS,
                   lambda: _dense_hamiltonian(n, terms),
                   lambda: _matfree_operator(n, terms), (4, n), config)
    degeneracy, gap, splitting = _multiplet(lat, h, w, q)
    coupling = 0.0
    if perturbation:
        G = V[:, :q]
        pv = sum(coeff * apply_to_vector(op, G) for op, coeff in perturbation)
        coupling = float(np.linalg.norm(pv - G @ (G.conj().T @ pv), 2))
    report = SpectralReport(tuple(float(x) for x in w), degeneracy, gap,
                            splitting, coupling)
    return (report, V) if return_vectors else report


# ------------------------------------------------------- flux-free sectors

# Energy of the cheapest flux: one pair of violated checks, +2 each.
_FLUX_PAIR_COST = 4.0


def _loop_frames(lat: TorusLattice, swap: bool = False):
    """(check terms, z0 per SECTOR_ORDER, basis) of the flux-free loop
    sectors.  With every plaquette at +1 and the Z loops at (j1, j2), the
    states are z0 + span(star X-parts), z0 the support of the X loop paired
    with each loop labelled -1.  The stars multiply to 1, so all but the
    last are a basis.  swap=True swaps X and Z in every term (no Y occurs).
    """
    def typed(op):
        return PauliOp(op.n, op.z_bits, op.x_bits) if swap else op

    checks = [(typed(op), coeff) for op, coeff in toric_check_terms(lat)]
    loops = {lo.homology_class: typed(lo.op) for lo in homology_basis(lat)}
    pair = (loops["g2_Z"], loops["g1_Z"]) if swap else (loops["g2_X"], loops["g1_X"])
    frames = [(j1 == -1) * pair[0].x_bits ^ (j2 == -1) * pair[1].x_bits
              for j1, j2 in SECTOR_ORDER]
    return checks, frames, [op.x_bits for op, _ in checks if op.x_bits][:-1]


def _check_sector_cap(L1, L2, config):
    """sparse_max_qubits caps L1*L2 - 1, the log2 of a flux-free sector."""
    if L1 * L2 - 1 > config.sparse_max_qubits:
        raise ResourceLimitError(f"size {L1}x{L2} exceeds the sparse cap")


def _symmetry_maps(lat: TorusLattice, frames, basis):
    """The torus translations and the inversion as affine maps
    c -> P c ^ a of the coset coordinates of `_coset_states`:
    (lin, shifts), lin[g, c] = P_g c for every coordinate c (the same in
    every frame, since the basis is) and shifts[J, g] = a_g of frames[J].

    Map g < N = L1 * L2 is the translation g = g1 * L2 + g2, which moves
    every edge g1 rows down and g2 columns right; map N is the inversion
    (r, c) -> (-r, -c) of the vertices.  Each maps the basis vectors (the
    stars, or the plaquettes when swapped, but the last) into their span,
    which gives P, and a frame's coset onto itself when z0 ^ image(z0), the
    frame's a, lies in that span.  One `gf2.solve` reduces every image; one
    outside the span raises ValueError.
    """
    N = lat.L1 * lat.L2
    moved = [[1 << lat.edge_index(r + g1, c + g2, d)
              for g1 in range(lat.L1) for g2 in range(lat.L2)]
             + [1 << lat.edge_index(-r - d, d - c - 1, d)]
             for r, c, d in map(lat.edge_coords, range(lat.n_qubits))]

    def images(mask):
        out = [0] * (N + 1)
        for e in range(mask.bit_length()):
            if mask >> e & 1:
                out = [o | bit for o, bit in zip(out, moved[e])]
        return out

    targets = [images(b) for b in basis] + \
              [[t ^ z0 for t in images(z0)] for z0 in frames]
    coords = gf2.solve(basis, [t for row in targets for t in row])
    if None in coords:
        raise ValueError("a lattice symmetry leaves the flux-free coset")
    dim = 1 << len(basis)
    dtype = np.int32 if dim <= 1 << 31 else np.int64
    coords = np.array(coords, dtype).reshape(-1, N + 1)
    lin = np.zeros((N + 1, 1), coords.dtype)
    for col in coords[:len(basis)]:
        lin = np.concatenate([lin, lin ^ col[:, None]], axis=1)
    return lin, coords[len(basis):]


class _MomentumBlocks:
    """The flux-free sectors of an L1 x L2 torus in translation-momentum
    blocks, each real, indexed (J, b): sector J, momentum ks[b].

    Map g of sector J takes coordinate c to lin[g, c] ^ shifts[J, g]
    (`_symmetry_maps`: the translations, then the inversion).  Sector J's
    Hamiltonian is the shift groups of `checks` (a `_coset_sum` of the check
    terms) on the diagonal diags[J].  Momentum k = k1 * L2 + k2 has the
    character e^{ik.g} = exp(2 pi i (k1 g1 / L1 + k2 g2 / L2)); ks holds one
    momentum of each pair +-k, negs the other, and phase[b, g] = e^{-ik.g},
    exact where it is +-1.

    A state's orbit representative is its least image under the
    translations, which translation gstar reaches.  An orbit r holds a
    state of momentum k, |r, k> = the normalised sum over g of
    e^{-ik.g} |g r>, when e^{ik.g} = 1 on r's stabiliser (`allowed[b,
    orbit]`).  H|r, k> is the sum over shifts a of
    v_a[r] e^{-ik.gstar(r ^ a)} sqrt(|orbit r| / |orbit r'|) |r', k>, r'
    the orbit of r ^ a.  That block is real when every e^{ik.g} is +-1
    (`real[b]`).  Otherwise the inversion followed by complex conjugation
    maps |r, k> to t_r |partner of r, k> and commutes with H, so the block
    is real in the basis U of its invariant vectors: t_r^(1/2) |r, k> for an
    orbit that is its own partner, and for partners r < p,
    (|r, k> + t_r |p, k>) / sqrt(2) and i (|r, k> - t_r |p, k>) / sqrt(2).
    Row r of U holds diag[b, r] at r and off[b, r] at the partner.

    All of this needs each sector to commute with every map, which is
    certified exactly, else ValueError: the diagonal equals its value at
    each state's representative and inversion image, and the shifts carry
    one constant and are permuted among themselves by every P.  Orbits are
    numbered by sector (start and count per sector), then by
    representative; `local` is an orbit's number within its sector.
    """

    def __init__(self, L1, L2, lin, shifts, checks, diags):
        N, dim = lin.shape[0] - 1, lin.shape[1]
        S = len(shifts)
        k1, k2 = np.divmod(np.arange(N), L2)
        neg = -k1 % L1 * L2 + -k2 % L2
        self.ks = np.flatnonzero(np.arange(N) <= neg)
        self.negs = neg[self.ks]
        turns = (np.outer(k1[self.ks], k1) * L2 + np.outer(k2[self.ks], k2) * L1) % N
        roots = np.exp(-2j * np.pi * np.arange(N) / N)
        if N % 2 == 0:
            roots[N // 2] = -1.0      # exactly, so that real blocks stay real
        self.phase = roots[turns]
        self.real = (self.phase.imag == 0).all(1)

        rep = lin[0] ^ shifts[:, :1]
        gstar = np.zeros((S, dim), np.min_scalar_type(N))
        for g in range(1, N):
            image = lin[g] ^ shifts[:, g, None]
            less = image < rep
            rep = np.where(less, image, rep)
            gstar[less] = g
        mirror = lin[N] ^ shifts[:, N, None]
        keys = np.array([a for a in checks if a], dtype=lin.dtype)
        values = np.array([checks[a] for a in keys.tolist()])
        if (values.ndim != 1 or (values != values[0]).any()
                or (np.sort(lin[:, keys]) != np.sort(keys)).any()
                or (np.take_along_axis(diags, rep, 1) != diags).any()
                or (np.take_along_axis(diags, mirror, 1) != diags).any()):
            raise ValueError("a flux-free sector is not translation and inversion invariant")

        J, c = np.nonzero(rep == np.arange(dim))
        self.count = np.bincount(J, minlength=S)
        self.start = np.cumsum(self.count) - self.count
        self.orbit = np.searchsorted(J * dim + c, np.arange(S)[:, None] * dim + rep)
        self.orbit = self.orbit.astype(lin.dtype)
        self.gstar, self.J = gstar, J
        self.local = np.arange(len(c)) - self.start[J]
        self.size = np.bincount(self.orbit.ravel())
        self.allowed = ~((turns != 0) @ (lin[:N, c] ^ shifts[J, :N].T == c))
        self.bound = float(np.abs(diags).max() + np.abs(values).sum())
        shifted = c ^ np.append(0, keys)[:, None]
        self.target = self.orbit[J, shifted]
        self.via = gstar[J, shifted]
        self.value = np.vstack([diags[J, c], np.repeat(values[:, None], len(c), 1)]) \
            * np.sqrt(self.size / self.size[self.target])

        self.partner = self.orbit[J, mirror[J, c]]
        t = self.phase[:, gstar[J, mirror[J, c]]]
        low, high = self.partner > np.arange(len(c)), self.partner < np.arange(len(c))
        plain = self.real[:, None] | ~self.allowed
        self.diag = np.where(plain, 1.0, np.where(
            low, 0.5 ** 0.5, np.where(high, -1j * 0.5 ** 0.5 * t, np.sqrt(t))))
        self.off = np.where(plain | ~(low | high), 0.0, np.where(low, 1j, t) * 0.5 ** 0.5)

    def orbits(self, J):
        """Sector J's orbits, a slice of the global numbers."""
        return slice(self.start[J], self.start[J] + self.count[J])

    def _entries(self, b, part):
        """(row, col, block, value) of the real blocks U^H H_k U for the
        array of blocks b, over the orbits `part` (a slice), by global orbit
        number, broadcast to one shape: each entry of H_k is split four ways
        by the two entries of a row of U."""
        b = np.asarray(b)[:, None, None]
        target = self.target[:, part]
        col = np.arange(len(self.J))[part]
        entry = self.value[:, part] * self.phase[b, self.via[:, part]] \
            * (self.allowed[b, target] & self.allowed[b, col])
        left = np.stack([self.diag[b, target], self.off[b, target]]).conj() * entry
        right = np.stack([self.diag[b, col], self.off[b, col]])
        rows = np.stack([target, self.partner[target]])[:, None, None]
        cols = np.stack([col, self.partner[col]])[None, :, None, None]
        return np.broadcast_arrays(rows, cols, b, (left[:, None] * right).real)

    def dense(self):
        """Every block as one real (sectors, momenta, n, n) stack, n the most
        orbits of a sector.  A row of an orbit the block lacks, or past the
        sector's orbits, holds only a diagonal above every level."""
        S, K = len(self.count), len(self.ks)
        n = int(self.count.max())
        row, col, b, value = self._entries(np.arange(K), slice(None))
        flat = ((self.J[col] * K + b) * n + self.local[row]) * n + self.local[col]
        H = np.bincount(flat.ravel(), value.ravel(), S * K * n * n).reshape(S, K, n, n)
        keep = np.zeros((K, S, n), bool)
        keep[:, self.J, self.local] = self.allowed
        pad = np.where(keep.transpose(1, 0, 2), 0.0, 1.0 + self.bound)
        H[..., range(n), range(n)] += pad
        return H

    def sparse(self, J, b):
        """Block (J, b) on its own orbits, as real CSR."""
        import scipy.sparse as sp

        allowed = self.allowed[b, self.orbits(J)]
        pos = np.cumsum(allowed) - 1
        row, col, _, value = self._entries([b], self.orbits(J))
        keep = value != 0
        n = int(allowed.sum())
        return sp.csr_matrix((value[keep], (pos[self.local[row[keep]]],
                                            pos[self.local[col[keep]]])), shape=(n, n))

    def vectors(self, J, b, y):
        """Coset vectors, one per row: sector J[p] with coordinates y[p], in
        block b[p]'s basis U, on the sector's orbits by local number (zero
        past them and off the block's).  x = U y is the vector in the
        |r, k> basis, and |r, k> holds e^{ik.g} / sqrt(|orbit r|) on the
        state g r; real when every block is."""
        at = self.start[J][:, None] + np.arange(y.shape[1])
        inside = np.arange(y.shape[1]) < self.count[J][:, None]
        at = np.where(inside, at, 0)
        b = b[:, None]
        x = self.diag[b, at] * y + self.off[b, at] * np.take_along_axis(
            y, np.where(inside, self.local[self.partner[at]], 0), 1)
        x *= self.allowed[b, at] & inside
        phase = self.phase[b[:, 0]].conj()
        if self.real[b].all():
            x, phase = x.real, phase.real
        phase = np.take_along_axis(phase, self.gstar[J], 1)
        orbit = self.orbit[J]
        return np.take_along_axis(x, orbit - self.start[J][:, None], 1) * phase \
            / np.sqrt(self.size[orbit])


def flux_free_spectrum(lat: TorusLattice, kind: str, h: float,
                       config: EngineConfig = DEFAULT_CONFIG):
    """(SpectralReport of the q + 1 lowest levels, deviation_max) for the
    field V = `perturbation_terms(lat, kind)`, checked before the sector
    cap, from the four flux-free sectors.  coupling_k is ||(1 - P0) V P0||
    for the multiplet projector P0, and deviation_max the largest
    projected-condition deviation of one term of V on the multiplet.

    A Z field commutes with every plaquette and both Z loops, so each sector
    is a coset of `_loop_frames`, of dimension 2^(L1*L2 - 1): stars shift
    the index, plaquettes are the constant -L1*L2, the field is diagonal.
    An X field is the same with X and Z swapped.  No sector with flux lies
    below w0 + 4: its violated checks cost at least 4, and where the stars
    are diagonal the field is the off-diagonal part, so by Perron-Frobenius
    no choice of its signs lies below the all-equal one, which is flux-free.
    The merged flux-free levels are therefore the full-space levels when the
    (q+1)-th lies at or below w0 + 4 (to within _EIG_RESIDUAL_TOL); else the
    run refuses, as it does on a tie of levels q and q + 1.

    Each sector commutes with the torus translations and the inversion, so
    it is solved in real `_MomentumBlocks`, one per momentum k, of about
    2^(L1*L2 - 1) / (L1*L2) orbits.  H_{-k} is conj(H_k), so each pair +-k
    is solved once and its levels counted twice.  Every block yields its
    lowest min(q + 1, size) levels.  When no sector has more than
    _DENSE_SPECTRUM_CAP orbits, one stacked eigvalsh solves every block and
    one eigh the multiplet's; otherwise each block is a CSR matrix for
    `_lowest`, its ARPACK start drawn from stream (5, L1, L2, J, k) for
    sector J.  The multiplet's vectors are expanded to coset states, complex
    when they come from a complex block (the -k copy conjugated).

    The field's terms are distinct single edges with unit coefficients, so
    on state s it is the number of terms minus 2|s & mask|, mask the OR of
    their bits: one popcount per state.  The multiplet's vectors are the
    rows psi, from sectors J; for a diagonal W, G^H W G is the q x q matrix
    same * ((psi^* W[J]) psi^T), same zero between sectors.  A translation
    maps Z_e to Z_g(e) and each row, of one momentum, to a phase times
    itself, so the terms on edges 0 and 1 (right and down of vertex (0, 0))
    give deviation_max: the largest |eigenvalue| of such a matrix less its
    mean times 1.  coupling_k is the root of the largest eigenvalue of the
    same-masked Gram matrix of the rows of (1 - G G^H) V G.
    """
    swap = kind == "x_field"
    field_bits = np.array([op.x_bits if swap else op.z_bits
                           for op, _ in perturbation_terms(lat, kind)])
    _check_sector_cap(lat.L1, lat.L2, config)
    checks, frames, basis = _loop_frames(lat, swap)
    q = code_dimension(lat)
    states = _coset_states(0, basis) ^ np.array(frames)[:, None]
    mask = np.bitwise_or.reduce(field_bits)
    fields = len(field_bits) - 2.0 * np.bitwise_count(states & mask)
    # the same in every sector: the X loops of z0 commute with every
    # plaquette, and the stars carry no Z
    check_groups = _coset_sum(checks, frames[0], basis)
    diags = h * fields + check_groups[0]
    if not np.isfinite(diags).all():
        raise ValueError(_OVERFLOW)
    blocks = _MomentumBlocks(lat.L1, lat.L2, *_symmetry_maps(lat, frames, basis),
                             check_groups, diags)

    S, K, m = len(frames), len(blocks.ks), q + 1
    levels = np.full((S, K, m), np.inf)
    # every level, those of a pair +-k twice (the second the -k copy); ties
    # are ranked by sector, block copy and index
    copy = np.repeat(np.arange(K), np.where(blocks.negs != blocks.ks, 2, 1))
    dense = blocks.count.max() <= _DENSE_SPECTRUM_CAP
    if dense:
        H = blocks.dense()
        # no pad is merged: each sector has 2^(L1*L2 - 1) >= 8 > q + 1 levels below
        w = np.linalg.eigvalsh(H)[..., :m]
        levels[..., :w.shape[-1]] = w
    else:
        found = {}     # (J, b) -> the block's vectors on the sector's orbits
        for J in range(S):
            for b, k in enumerate(blocks.ks):
                A = blocks.sparse(J, b)
                if A.shape[0]:
                    w, V = _lowest(A.shape[0], min(m, A.shape[0]), A.toarray, lambda: A,
                                   (5, lat.L1, lat.L2, J, int(k)), config)
                    levels[J, b, :len(w)] = w
                    found[J, b] = np.zeros((blocks.count[J], len(w)))
                    found[J, b][blocks.allowed[b, blocks.orbits(J)]] = V
                # drop the blocks whose lowest level lies above the q-th so far
                top = np.sort(levels[:, copy], axis=None)[q - 1]
                found = {key: V for key, V in found.items() if levels[key][0] <= top}

    second = np.r_[False, copy[1:] == copy[:-1]]
    flat = levels[:, copy].ravel()
    order = np.argsort(flat, kind="stable")[:m]
    w = flat[order].tolist()
    if w[q] - w[0] > _FLUX_PAIR_COST + _EIG_RESIDUAL_TOL * max(1.0, abs(w[0])):
        raise SectorCertificateError(
            f"flux-free certificate failed on {lat.L1}x{lat.L2} at h={h!r}: "
            f"flux-free level {q + 1} lies {w[q] - w[0]:.6g} above the ground, "
            f"but sectors with flux are only bounded below by "
            f"{_FLUX_PAIR_COST:g} above it, so these levels need not be the "
            f"full spectrum")
    degeneracy, gap, splitting = _multiplet(lat, h, w, q)

    # the lowest q levels' coset vectors: the rows of psi, from sectors J
    J, c, i = np.unravel_index(order[:q], (S, len(copy), m))
    b = copy[c]
    if dense:
        y = np.linalg.eigh(H[J, b])[1][np.arange(q), :, i]
    else:
        width = blocks.count.max()
        y = np.stack([np.pad(found[Jp, bp][:, ip], (0, width - blocks.count[Jp]))
                      for Jp, bp, ip in zip(J, b, i)])
    psi = blocks.vectors(J, b, y)
    psi[second[c]] = psi[second[c]].conj()
    same = J[:, None] == J

    def block(diagonal):
        """G^H W G for W given by its diagonal on every sector's states."""
        return same * ((psi.conj() * diagonal[J]) @ psi.T)

    # the terms on edges 0 and 1 give every deviation (see above)
    terms = np.stack([block(_signs(states, z)) for z in field_bits[field_bits < 4]])
    terms -= np.trace(terms, axis1=1, axis2=2).real[:, None, None] / q * np.eye(q)
    deviation = float(np.abs(np.linalg.eigvalsh(terms)).max())
    residual = fields[J] * psi - block(fields).T @ psi
    gram = same * (residual.conj() @ residual.T)
    coupling = float(np.sqrt(max(np.linalg.eigvalsh(gram).max(), 0.0)))
    report = SpectralReport(tuple(w[:q + 1]), degeneracy, gap, splitting, coupling)
    return report, deviation


# ------------------------------------------------------------ scaling fit

def _fit_exponential(sizes, values):
    """Least-squares log(value) = offset - alpha * size^(1/n) for n in {1,2}."""
    fits = {}
    x_raw = np.array(sizes, dtype=float)
    y = np.log(np.maximum(np.array(values, dtype=float), 1e-300))
    for n_exp in (1, 2):
        x = x_raw ** (1.0 / n_exp)
        A = np.stack([-x, np.ones_like(x)], axis=1)
        sol, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = float(np.sqrt(np.mean((A @ sol - y) ** 2)))
        fits[n_exp] = (float(sol[0]), float(sol[1]), resid)
    best = min(fits, key=lambda n_exp: fits[n_exp][2])
    return fits, best


def scaling_study(sizes, h: float, kind: str = "z_field",
                  config: EngineConfig = DEFAULT_CONFIG) -> ScalingResult:
    """Ground-multiplet splitting across lattice sizes, with an exponential
    fit of splitting against |lattice|^(1/n).

    Sizes are deduplicated (order kept, with a note).  Each size is solved
    by `flux_free_spectrum` for the field `kind`, which defines a row's
    fields and refuses an unknown kind or an uncertified or tied multiplet.
    Every size must fit the sector cap and make a torus, or the run is
    refused before any is solved.  For one level per sector J,
    deviation_max is max_J |<Z_e>_J - mean_J <Z_e>_J|.
    """
    notes, uniq = [], []
    for s in ((int(a), int(b)) for a, b in sizes):
        if s in uniq:
            notes.append(f"duplicate size {s[0]}x{s[1]} dropped")
            warnings.warn(notes[-1])
        else:
            uniq.append(s)
    if len(uniq) < 3:
        raise InsufficientDataError("need at least 3 distinct sizes")
    for L1, L2 in uniq:
        _check_sector_cap(L1, L2, config)
    lattices = [build_torus(L1, L2) for L1, L2 in uniq]

    rows = []
    for (L1, L2), lat in zip(uniq, lattices):
        rep, dev = flux_free_spectrum(lat, kind, h, config)
        rows.append(ScalingRow(L1, L2, h, rep.splitting, rep.gap_delta, rep.coupling_k, dev))

    points = tuple((2 * r.L1 * r.L2, r.splitting) for r in rows)
    if all(r.splitting < 1e-10 for r in rows):
        return ScalingResult(points, tuple(rows), {}, None, 0, 0.0,
                             True, tuple(notes) + ("exact degeneracy at every size",))
    fits, best = _fit_exponential([p[0] for p in points], [p[1] for p in points])
    alpha, _, resid = fits[best]
    return ScalingResult(points, tuple(rows), fits, alpha, best, resid,
                         False, tuple(notes))


CSV_HEADER = "L1,L2,h,splitting,gap,coupling_k,deviation_max"


def scaling_to_csv(result: ScalingResult) -> str:
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(",".join([str(r.L1), str(r.L2)] +
                              ["%.17g" % v for v in
                               (r.h, r.splitting, r.gap, r.coupling_k, r.deviation_max)]))
    return "\n".join(lines) + "\n"
