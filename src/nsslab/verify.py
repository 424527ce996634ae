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
coset of the star span), solve it with `_lowest` (dense eigh up to
_DENSE_SPECTRUM_CAP states, seeded ARPACK above) and read the multiplet
with `_multiplet`.  scipy is imported only in the ARPACK paths (`_lowest`,
`_sparse_operator`), so every path that stays dense loads none of it.
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
# up to this Hilbert dimension `_lowest` takes one dense eigh, not ARPACK:
# a path choice made from the observed size
_DENSE_SPECTRUM_CAP = 1024
# every ARPACK Ritz pair must meet this relative residual, within this many
# iterations
_EIG_RESIDUAL_TOL = 1e-9
_EIG_MAX_ITER = 20000
# relative (to the gap) width of one quasi-degenerate multiplet
_DEGENERACY_CLUSTER_REL = 1e-6
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
    """Dense projector onto the joint +1 check eigenspace: 2^-(L1*L2 - 1) on
    each pair of states in one flux-free coset (`_loop_frames`)."""
    if 1 << lat.n_qubits > config.dense_cap:
        raise ResourceLimitError("code projector needs the dense bridge")
    _, frames, basis = _loop_frames(lat)
    P = np.zeros((1 << lat.n_qubits,) * 2, dtype=complex)
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
    gens = []
    for w in range(1, max_weight + 1):
        for qs in itertools.combinations(range(n), w):
            for kinds in itertools.product("XZY", repeat=w):
                x = z = 0
                for q, kind in zip(qs, kinds):
                    if kind in "XY":
                        x |= 1 << q
                    if kind in "ZY":
                        z |= 1 << q
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
    coincide = any(gf2.solve(syndromes, flip << loop_bit) is not None
                   for flip in (1, 2, 3))
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
    overflow = ValueError("the Hamiltonian has a non-finite entry: the field overflows")
    if dim <= _DENSE_SPECTRUM_CAP:
        H = dense()
        if not np.isfinite(H).all():
            raise overflow
        w, V = np.linalg.eigh(H)
        return w[:k], V[:, :k]
    import scipy.sparse.linalg as spla

    A = operator()
    v0 = spawn_rng(config.seed, *stream).standard_normal(dim)
    if not np.isfinite(A @ v0).all():
        raise overflow
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
# `flux_free_spectrum` builds each multiplet sector's sign rows in chunks of at
# most this many entries (1 MB as float64): at 4x4 one chunk of all 32 rows and
# its int64 temporary would raise the run's peak memory by a seventh
_SIGN_ROW_ENTRIES = 1 << 17


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

    Each sector is read from its own coset states.  The field's terms are
    distinct single edges with unit coefficients, so on state s it is the
    number of terms minus 2|s & mask|, mask the OR of their bits: one
    popcount per state.  Each multiplet sector's blocks G^T Z_t G are one
    batched product over its sign rows, built in chunks of terms of at most
    _SIGN_ROW_ENTRIES entries.
    """
    swap = kind == "x_field"
    field_bits = np.array([op.x_bits if swap else op.z_bits
                           for op, _ in perturbation_terms(lat, kind)])
    _check_sector_cap(lat.L1, lat.L2, config)
    checks, frames, basis = _loop_frames(lat, swap)
    q = code_dimension(lat)
    dim = 1 << len(basis)
    states = [_coset_states(z0, basis) for z0 in frames]
    mask = np.bitwise_or.reduce(field_bits)
    fields = [len(field_bits) - 2.0 * np.bitwise_count(s & mask) for s in states]
    # the same in every sector: the X loops of z0 commute with every
    # plaquette, and the stars carry no Z
    check_groups = _coset_sum(checks, frames[0], basis)
    solved = []
    for J in range(len(frames)):
        groups = dict(check_groups)
        groups[0] = h * fields[J] + groups[0]
        solved.append(_lowest(dim, q + 1, lambda: _coset_dense(groups, dim),
                              lambda: _sparse_operator(groups, dim),
                              (5, lat.L1, lat.L2, J), config))

    levels = sorted((float(x), J) for J, (w, _) in enumerate(solved) for x in w)
    w = [x for x, _ in levels]
    if w[q] - w[0] > _FLUX_PAIR_COST + _EIG_RESIDUAL_TOL * max(1.0, abs(w[0])):
        raise SectorCertificateError(
            f"flux-free certificate failed on {lat.L1}x{lat.L2} at h={h!r}: "
            f"flux-free level {q + 1} lies {w[q] - w[0]:.6g} above the ground, "
            f"but sectors with flux are only bounded below by "
            f"{_FLUX_PAIR_COST:g} above it, so these levels need not be the "
            f"full spectrum")
    degeneracy, gap, splitting = _multiplet(lat, h, w, q)

    # the multiplet: the lowest q levels, with each sector's share of vectors
    share = [sum(1 for _, J in levels[:q] if J == K) for K in range(len(solved))]
    multiplet = [(J, solved[J][1][:, :m]) for J, m in enumerate(share) if m]
    deviation = 0.0
    step = max(1, _SIGN_ROW_ENTRIES // dim)
    for start in range(0, len(field_bits), step):
        z = field_bits[start:start + step, None]
        # blocks[i][t] = G^T Z_t G in the i-th multiplet sector
        blocks = [np.matmul(G.T, _signs(states[J], z)[:, :, None] * G)
                  for J, G in multiplet]
        c = sum(np.trace(b, axis1=1, axis2=2) for b in blocks) / q
        for b in blocks:
            dev = np.linalg.norm(b - c[:, None, None] * np.eye(b.shape[1]), 2, axis=(1, 2))
            deviation = max(deviation, float(dev.max()))
    coupling = 0.0
    for J, G in multiplet:
        vg = fields[J][:, None] * G
        coupling = max(coupling, float(np.linalg.norm(vg - G @ (G.T @ vg), 2)))
    return SpectralReport(tuple(w[:q + 1]), degeneracy, gap, splitting, coupling), deviation


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
