"""Associative *-algebra engine on dense matrices.

Given a set of error generators, build the generated *-algebra as a
Hilbert-Schmidt orthonormal basis, compute its commutant, and split the
carrier space into sectors C^n (x) C^d with explicit isometries.  The
decomposition is randomized (eigenvalue clustering of seeded random algebra
elements) but deterministic for a fixed seed.
"""

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .config import (DEFAULT_CONFIG, ConvergenceError, DegenerateSpectrumError,
                     EngineConfig, ResourceLimitError, spawn_rng)

# Gram-Schmidt drops a residual row below this norm (basis hygiene and the
# closure's "already in the span" test alike)
_HS_DROP_TOL = 1e-10
_STACK_ENTRIES = 2**16  # least complex entries per stack of certificate products (1 MB)
# span residuals (closure certificates), relative singular values (null
# spaces, intertwiners) and relative block couplings (decompose) at or below
# this count as zero
_SPAN_MEMBERSHIP_TOL = 1e-8
# eigenvalue clusters closer than this (relative) are merged; gaps below
# _GAP_RATIO_GUARD times it are ambiguous and abort the decomposition
_CLUSTER_MERGE_TOL = 1e-8
_GAP_RATIO_GUARD = 10.0


@dataclass(frozen=True)
class ErrorSet:
    generators: tuple
    labels: tuple

    def __post_init__(self):
        if not self.generators:
            raise ValueError("need at least one generator")
        d = self.generators[0].shape[0]
        for g in self.generators:
            if g.shape != (d, d):
                raise ValueError("generators must be square with a common dimension")
            if not np.isfinite(g).all():
                raise ValueError("generator entries must be finite")
        if len(self.labels) != len(self.generators):
            raise ValueError("one label per generator required")

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]


def error_set(mats, labels=None) -> ErrorSet:
    mats = tuple(np.asarray(m, dtype=complex) for m in mats)
    if labels is None:
        labels = tuple(f"E{i}" for i in range(len(mats)))
    return ErrorSet(mats, tuple(labels))


@dataclass(frozen=True)
class MatrixAlgebra:
    dim: int
    basis: np.ndarray     # (m, d, d) HS-orthonormal matrices; a tuple works too
    closed: bool = False
    closure_residual: float = float("nan")

    @property
    def algebra_dim(self) -> int:
        return len(self.basis)

    def stacked(self) -> np.ndarray:
        """Basis as an (m, d*d) row-orthonormal array: a view of an array
        basis, one copy of a tuple."""
        return np.reshape(self.basis, (len(self.basis), -1))


@dataclass(frozen=True)
class Sector:
    label: int
    central_projector: np.ndarray
    n_J: int
    d_J: int
    isometry: np.ndarray  # d x (n_J * d_J), column (i*d_J + t) = |i> (x) |t>


@dataclass(frozen=True)
class SectorDecomposition:
    dim: int
    sectors: tuple

    @property
    def total_dim(self) -> int:
        return sum(s.n_J * s.d_J for s in self.sectors)

    @property
    def algebra_dim(self) -> int:
        return sum(s.d_J**2 for s in self.sectors)

    @property
    def commutant_dim(self) -> int:
        return sum(s.n_J**2 for s in self.sectors)

    @property
    def sector_shapes(self):
        return sorted((s.n_J, s.d_J) for s in self.sectors)


def _project_out(rows: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Remove the span of orthonormal `rows` from the rows of `cand`; the
    product cand rows^dag = conj(conj(cand) rows^T) conjugates cand only."""
    for _ in range(2):  # reorthogonalization pass
        cand = cand - (cand.conj() @ rows.T).conj() @ rows
    return cand


def _orthonormal_rows(cand: np.ndarray, tol: float) -> np.ndarray:
    """Sequential MGS over candidate rows; drops residuals below tol.

    `cand` may also be any iterable of rows, fed one at a time, as long as
    one of them survives (the empty result takes its width from an array).
    """
    kept = []
    for v in cand:
        for _ in range(2):
            for k in kept:
                v = v - np.vdot(k, v) * k
        nrm = np.linalg.norm(v)
        if nrm > tol:
            kept.append(v / nrm)
    if not kept:
        return np.empty((0, cand.shape[1]), dtype=complex)
    return np.stack(kept)


def close_algebra(errs: ErrorSet, config: EngineConfig = DEFAULT_CONFIG) -> MatrixAlgebra:
    """Generator-driven closure of {1, E_a, E_a^dag} under products.

    Starts from an HS-orthonormal basis (1, G) of span{1, E_a, E_a^dag}.
    Each round right-multiplies only the elements the previous round added
    by every g in G (never by 1), projects out the current span and
    orthonormalizes what is left (modified Gram-Schmidt); products of older
    elements already lie in the span.  Rounds go on until one adds no row,
    as many as the longest word needs (d - 1 for a Krylov chain); each that
    goes on adds a row, so they end.  The basis is one (m, d*d) array; the
    result holds an (m, d, d) view of it.  It is certified exactly by
    `verify_closure` with `generators=G`: a span holding 1 and closed under
    right multiplication by G holds every word in 1 and G, which span the
    generators and their adjoints, so `closed=True` never rests on a sample.
    An empty G (generators all multiples of 1) closes at dimension 1.
    Each generator is first scaled by the power of two that puts its largest
    real or imaginary part in [1/2, 1): exact and commuting with
    Gram-Schmidt, so a power of two on any generator keeps the basis's bits,
    and the algebra depends only on the line each spans ({1e11 Z, X}: 4).
    """
    d = errs.dim
    if d > config.dense_cap:
        raise ResourceLimitError(f"dense algebra capped at dimension {config.dense_cap}")
    # the seed rows 1, E_a, E_a^dag, one at a time rather than a stack of
    # 2k + 1 copies; the identity always survives, a zero generator is skipped
    # before any copy, and the rest are scaled to a largest part in [1/2, 1)
    parts = (np.ascontiguousarray(g, dtype=complex).view(float) for g in errs.generators)
    live = [np.ldexp(f, -np.frexp(top)[1]).view(complex)
            for f in parts if (top := np.abs(f).max())]
    seed = itertools.chain([np.eye(d, dtype=complex)], live,
                           (g.conj().T for g in live))
    rows = _orthonormal_rows((m.reshape(-1) for m in seed), _HS_DROP_TOL)
    new = gens = rows[1:].reshape(-1, d, d)
    while True:
        new_rows = np.empty((0, d * d), dtype=complex)
        for b in new:
            prods = _project_out(rows, np.matmul(b, gens).reshape(-1, d * d))
            if new_rows.size:
                prods = _project_out(new_rows, prods)
            big = prods[np.linalg.norm(prods, axis=1) > _HS_DROP_TOL]
            if big.size:
                extracted = _orthonormal_rows(big, _HS_DROP_TOL)
                new_rows = np.vstack([new_rows, extracted]) if new_rows.size else extracted
        if not new_rows.size:
            break
        rows = np.vstack([rows, new_rows])
        new = new_rows.reshape(-1, d, d)
        if rows.shape[0] > d * d:
            raise ConvergenceError("basis grew beyond d^2; numerical breakdown")
        if rows.nbytes > 2e9:
            raise ResourceLimitError(
                f"closure basis reached {rows.shape[0]} elements at dimension {d}; "
                "the generated algebra is too large for the dense engine")
    basis = rows.reshape(-1, d, d)
    resid = verify_closure(MatrixAlgebra(d, basis), generators=gens)
    return MatrixAlgebra(d, basis, closed=resid <= _SPAN_MEMBERSHIP_TOL,
                         closure_residual=resid)


def verify_closure(alg: MatrixAlgebra, generators) -> float:
    """Max span residual over the identity, the adjoints, and products.

    `generators` with 1 span a set G and its adjoints; the products are
    B_i g for every basis element B_i and every g: m * k of them, an exact
    certificate that the span is the *-algebra generated by G, because a
    span holding 1 and closed under right multiplication by G and G^dag
    holds every word.  Each stack of products holds at most an eighth of the
    basis's entries, or _STACK_ENTRIES if that is more: each stack streams
    the whole basis through `_project_out`, so few stacks save time, and the
    peak stays near half a large basis.  Each stack checks its adjoints B_i^dag
    beside its products.  An array basis is read through views, never
    copied; only the stacks are allocated.
    """
    d = alg.dim
    rows = alg.stacked()
    mats = rows.reshape(-1, d, d)
    gens = np.asarray(generators, dtype=complex).reshape(-1, d, d)

    def span_residual(batch):
        resid = _project_out(rows, batch.reshape(-1, d * d))
        return float(np.linalg.norm(resid, axis=1).max(initial=0.0))

    worst = span_residual(np.eye(d, dtype=complex) / np.sqrt(d))
    step = max(1, max(_STACK_ENTRIES, rows.size // 8) // max(1, gens.size))
    for i in range(0, len(mats), step):
        block = mats[i:i + step]
        worst = max(worst, span_residual(block.conj().transpose(0, 2, 1)),
                    span_residual(np.matmul(block[:, None], gens)))
    return worst


def commutant(alg: MatrixAlgebra, config: EngineConfig = DEFAULT_CONFIG) -> MatrixAlgebra:
    """All X with [X, B_i] = 0: null space N of the stacked commutator map
    L_i = 1 (x) B_i^T - B_i (x) 1 (row-major vec convention).

    N is read from the eigenvectors of M = sum_i L_i^dag L_i, whose
    eigenvalues are the squared singular values of the stacked map.  M is
    d^2 x d^2 whatever the algebra's dimension, so memory stays bounded.

    Closure is certified from the same decomposition, with no sampling.  Let
    r = ||[N, B]||_F over every null basis element and every B_i, and s+ the
    smallest singular value of L left out of N.  For unit X, Y in span N,
    ||L(XY)|| <= ||LX|| + ||LY|| <= 2r, and ||L X^dag|| = ||LX|| because the
    algebra is *-closed; a vector v lies within ||Lv|| / s+ of span N,
    because the singular subspaces are orthogonal.  So closure_residual =
    2r / s+ bounds the span residual of every product and adjoint.
    """
    if not alg.closed:
        raise ValueError("commutant needs a verified-closed algebra")
    d = alg.dim
    if d * d > config.dense_cap:
        raise ResourceLimitError(
            f"commutant superoperator of dimension {d * d} exceeds {config.dense_cap}")
    eye = np.eye(d)
    M = np.zeros((d * d, d * d), dtype=complex)
    for b in alg.basis:
        L = np.kron(eye, b.T) - np.kron(b, eye)
        M += L.conj().T @ L
    w, V = np.linalg.eigh(M)
    null_tol = _SPAN_MEMBERSHIP_TOL * max(1.0, float(w[-1]) if len(w) else 1.0)
    cols = V[:, w < null_tol]
    s_plus = float(np.sqrt(w[w >= null_tol].min(initial=np.inf)))
    basis = cols.T.reshape(-1, d, d)
    mats = np.asarray(alg.basis)
    r = np.sqrt(sum(np.linalg.norm(np.matmul(x, mats) - np.matmul(mats, x)) ** 2
                    for x in basis))
    resid = float(2 * r / s_plus)
    return MatrixAlgebra(d, basis, closed=resid <= _SPAN_MEMBERSHIP_TOL,
                         closure_residual=resid)


def _cluster_sorted(w: np.ndarray):
    """Split sorted eigenvalues into clusters; guard ambiguous gaps.

    Gaps below _CLUSTER_MERGE_TOL * max(1, max |w|) merge; gaps between
    that and _GAP_RATIO_GUARD times it are ambiguous and raise
    DegenerateSpectrumError.
    """
    merge = _CLUSTER_MERGE_TOL * max(1.0, float(np.max(np.abs(w))))
    clusters = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > merge:
            clusters.append((start, i))
            start = i
    for (a0, a1), (b0, _) in zip(clusters, clusters[1:]):
        gap = w[b0] - w[a1 - 1]
        if gap < _GAP_RATIO_GUARD * merge:
            raise DegenerateSpectrumError(
                f"cluster gap {gap:.3e} within the guard band "
                f"({_GAP_RATIO_GUARD} x {merge:.1e}); rerun with a different seed")
    return clusters


def decompose(alg: MatrixAlgebra, config: EngineConfig = DEFAULT_CONFIG) -> SectorDecomposition:
    """Central decomposition A = (+)_J 1_{n_J} (x) M(d_J).

    The eigenspaces of a random Hermitian element K of A are the blocks
    Q_t, one per pair (J, t < d_J), each of size n_J.  Two blocks lie in
    one sector exactly when Q_t^dag B Q_s != 0 for a second random element
    B; a sector is the run of blocks coupled to its first block Q_0, and
    the polar factors of Q_t^dag B Q_0 (t >= 1; Q_0^dag B Q_0 = c 1, so
    Q_0 enters as it is) align them into the isometry
    C^{n_J} (x) C^{d_J} -> H.  Sum n_J d_J = d and sum d_J^2 = dim A
    certify the grouping: a false join raises the second sum, a missed
    one lowers it.
    """
    if not alg.closed:
        raise ValueError("decompose needs a verified-closed algebra")
    d = alg.dim
    rows = alg.stacked()

    def draw(stream):
        # a seeded d x d Gaussian projected onto the algebra: Gaussian
        # coefficients whatever the basis
        rng = spawn_rng(config.seed, stream)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (np.conj(rows @ g.reshape(-1).conj()) @ rows).reshape(d, d)

    K = draw(2)
    kw, kV = np.linalg.eigh((K + K.conj().T) / 2)
    C = kV.conj().T @ draw(3) @ kV
    tol = _SPAN_MEMBERSHIP_TOL * max(1.0, float(np.linalg.norm(C)))
    groups = []  # the blocks of each sector as index ranges, its first leading
    for t in (range(a, b) for a, b in _cluster_sorted(kw)):
        g = next((g for g in groups if np.linalg.norm(C[t][:, g[0]]) > tol), None)
        if g is None:
            groups.append([t])
        elif len(g[0]) != len(t):
            raise DegenerateSpectrumError(
                f"unequal eigenspace sizes {len(g[0])} and {len(t)} in one "
                "sector; rerun with a different seed")
        else:
            g.append(t)

    shapes = [(len(g[0]), len(g)) for g in groups]
    m = alg.algebra_dim
    if sum(n * dj for n, dj in shapes) != d or sum(dj * dj for _, dj in shapes) != m:
        raise DegenerateSpectrumError(
            f"sectors {shapes} (n, d) do not account for dimension {d} and "
            f"algebra dimension {m}; rerun with a different seed")

    sectors = []
    for label, (g, (n_J, d_J)) in enumerate(zip(groups, shapes)):
        iso = np.zeros((d, n_J * d_J), dtype=complex)
        iso[:, 0::d_J] = kV[:, g[0]]
        for t, blk in enumerate(g[1:], 1):
            U, sv, Vh = np.linalg.svd(C[blk][:, g[0]])
            if sv[-1] < _SPAN_MEMBERSHIP_TOL * max(1.0, sv[0]):
                raise DegenerateSpectrumError(
                    "singular intertwiner draw; rerun with a different seed")
            iso[:, t::d_J] = kV[:, blk] @ (U @ Vh)
        sectors.append(Sector(label, iso @ iso.conj().T, n_J, d_J, iso))
    return SectorDecomposition(d, tuple(sectors))


def block_structure_residual(sector: Sector, mat: np.ndarray):
    """Distance of iso^dag mat iso from the nearest 1_{n} (x) M form.

    Returns (residual, M) with M obtained by partial trace over the
    noiseless index.
    """
    V = sector.isometry
    n, dj = sector.n_J, sector.d_J
    T = (V.conj().T @ mat @ V).reshape(n, dj, n, dj)
    M = np.einsum("itiu->tu", T) / n
    resid = T - np.einsum("ij,tu->itju", np.eye(n), M)
    return float(np.linalg.norm(resid)), M


def span_projector_distance(a: MatrixAlgebra, b: MatrixAlgebra) -> float:
    """Frobenius distance between the HS-space span projectors of a and b.

    ||Pa - Pb||^2 = ||Pa (1 - Pb)||^2 + ||(1 - Pa) Pb||^2, each term read
    from the residual of one basis projected onto the other span.  The
    expanded form len_a + len_b - 2 ||Qa Qb^dag||^2 cancels to a noise
    floor near 1e-7 for equal spans.
    """
    if a.dim != b.dim:
        raise ValueError("algebras live on different spaces")
    Qa, Qb = a.stacked(), b.stacked()
    cross = Qa @ Qb.conj().T
    return float(np.hypot(np.linalg.norm(Qa - cross @ Qb),
                          np.linalg.norm(Qb - cross.conj().T @ Qa)))


# ---------------------------------------------------------------- JSON I/O

def _matrix_to_pairs(mat: np.ndarray):
    m = np.asarray(mat, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


def _matrix_from_pairs(rows, d):
    try:  # numpy reads a JSON true as 1, so bools are sought among the objects
        pairs, entries = np.array(rows), np.array(rows, dtype=object).flat
    except ValueError:  # ragged nesting
        pairs, entries = np.array(()), ()
    if (pairs.dtype.kind not in "iuf" or pairs.shape != (d, d, 2)
            or any(type(v) is bool for v in entries)):
        raise ValueError(f"each matrix must be {d}x{d} [re, im] number pairs")
    return pairs.astype(float).view(complex)[..., 0]


def error_set_to_json(errs: ErrorSet) -> str:
    doc = {
        "dimension": errs.dim,
        "labels": list(errs.labels),
        "matrices": [_matrix_to_pairs(g) for g in errs.generators],
    }
    return json.dumps(doc, indent=2)


def error_set_from_json(text: str) -> ErrorSet:
    doc = json.loads(text)
    if not (isinstance(doc, dict) and type(doc.get("dimension")) is int
            and isinstance(doc.get("matrices"), list)
            and isinstance(doc.get("labels") or [], list)):
        raise ValueError("error set needs an integer dimension and lists of "
                         "matrices and labels")
    mats = [_matrix_from_pairs(m, doc["dimension"]) for m in doc["matrices"]]
    labels = doc.get("labels") or [f"E{i}" for i in range(len(mats))]
    return ErrorSet(tuple(mats), tuple(labels))


def decomposition_to_json(dec: SectorDecomposition, include_matrices: bool = True) -> str:
    sectors = []
    for s in dec.sectors:
        rec = {"label": s.label, "n": s.n_J, "d": s.d_J}
        if include_matrices:
            rec["central_projector"] = _matrix_to_pairs(s.central_projector)
            rec["isometry"] = _matrix_to_pairs(s.isometry)
        sectors.append(rec)
    doc = {
        "dimension": dec.dim,
        "sectors": sectors,
        "sector_shapes": [list(p) for p in dec.sector_shapes],
        "algebra_dim": dec.algebra_dim,
        "commutant_dim": dec.commutant_dim,
    }
    return json.dumps(doc, indent=2)
