"""Associative *-algebra engine on dense matrices.

Given a set of error generators, build the generated *-algebra as a
Hilbert-Schmidt orthonormal basis, compute its commutant, and split the
carrier space into sectors C^n (x) C^d with explicit isometries.  The
decomposition is randomized (eigenvalue clustering of seeded random elements
of the algebra, or, from an error set, of its commutant, found by conjugate
gradients with no basis of the algebra) but deterministic for a fixed seed.
"""

import itertools
import json
import re
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
# the commutant solve of `decompose` on an ErrorSet: its residual tolerance
# relative to ||X0|| times a bound on ||L||, its step budget per dimension,
# the most steps it takes with no tenfold fall of its residual, and its two
# draws' streams (`decompose` of a MatrixAlgebra takes 2 and 3)
_CG_TOL = 1e-14
_CG_STEPS_PER_DIM = 8
_CG_STALL_STEPS = 32
_COMMUTANT_STREAMS = (6, 7)
# `decompose` of an ErrorSet closes an algebra of at most this dimension
# itself: a closure row costs one product per generator, a solver step at
# least four (two draws, two products each), so this costs about two steps
_SMALL_ALGEBRA_DIM = 8


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
    """Float64 and complex128 arrays are kept as they are, with no copy (the
    engines cast each generator to complex as they read it); anything else
    is cast to complex."""
    mats = tuple(m if type(m) is np.ndarray and m.dtype in (np.float64, np.complex128)
                 else np.asarray(m, dtype=complex) for m in mats)
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

    `cand` may also be any iterable of rows, fed one at a time.  Its first
    row lies above tol (the identity, or a row filtered by norm), so the
    result is never empty."""
    kept = []
    for v in cand:
        for _ in range(2):
            for k in kept:
                v = v - np.vdot(k, v) * k
        nrm = np.linalg.norm(v)
        if nrm > tol:
            kept.append(v / nrm)
    return np.stack(kept)


def _scaled(generators) -> list:
    """The nonzero generators, each times the power of two that puts its
    largest real or imaginary part in [1/2, 1); exact zeros are skipped
    before any complex copy is made.  Exact, and a power of two on any
    generator gives the same list."""
    parts = (np.ascontiguousarray(g, dtype=complex).view(float)
             for g in generators if g.any())
    return [np.ldexp(f, -np.frexp(np.abs(f).max())[1]).view(complex) for f in parts]


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
    Each generator is first scaled by `_scaled`: exact and commuting with
    Gram-Schmidt, so a power of two on any generator keeps the basis's bits,
    and the algebra depends only on the line each spans ({1e11 Z, X}: 4).
    """
    d = errs.dim
    if d > config.dense_cap:
        raise ResourceLimitError(f"dense algebra capped at dimension {config.dense_cap}")
    return _close(_scaled(errs.generators), d)


def _close(live, d: int, cap: float = np.inf) -> MatrixAlgebra | None:
    """`close_algebra` of the scaled nonzero generators `live` on C^d, or
    None as soon as the basis holds more than `cap` elements."""
    # the seed rows 1, E_a, E_a^dag, one at a time rather than a stack of
    # 2k + 1 copies; the identity always survives
    seed = itertools.chain([np.eye(d, dtype=complex)], live,
                           (g.conj().T for g in live))
    rows = _orthonormal_rows((m.reshape(-1) for m in seed), _HS_DROP_TOL)
    if len(rows) > cap:
        return None
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
            if len(rows) + len(new_rows) > cap:
                return None
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


def _group(w, C):
    """Split the eigenspaces of a random Hermitian element (ascending
    eigenvalues w) into sectors: index ranges, clustered by `_cluster_sorted`,
    each joined to the first sector whose first range it couples to through
    C, a second random element in the same eigenbasis."""
    tol = _SPAN_MEMBERSHIP_TOL * max(1.0, float(np.linalg.norm(C)))
    groups = []  # the blocks of each sector as index ranges, its first leading
    for t in (range(a, b) for a, b in _cluster_sorted(w)):
        g = next((g for g in groups if np.linalg.norm(C[t][:, g[0]]) > tol), None)
        if g is None:
            groups.append([t])
        elif len(g[0]) != len(t):
            raise DegenerateSpectrumError(
                f"unequal eigenspace sizes {len(g[0])} and {len(t)} in one "
                "sector; rerun with a different seed")
        else:
            g.append(t)
    return groups


def _align(V, C, g):
    """The columns V[:, blk] of each block of sector g, the first as it is and
    each other one times the polar factor of C[blk][:, first]."""
    blocks = [V[:, g[0]]]
    for blk in g[1:]:
        U, sv, Vh = np.linalg.svd(C[blk][:, g[0]])
        if sv[-1] < _SPAN_MEMBERSHIP_TOL * max(1.0, sv[0]):
            raise DegenerateSpectrumError(
                "singular intertwiner draw; rerun with a different seed")
        blocks.append(V[:, blk] @ (U @ Vh))
    return blocks


def decompose(alg: MatrixAlgebra | ErrorSet,
              config: EngineConfig = DEFAULT_CONFIG) -> SectorDecomposition:
    """Central decomposition A = (+)_J 1_{n_J} (x) M(d_J) of a closed
    MatrixAlgebra, or of the algebra an ErrorSet generates (`_decompose_errors`,
    which builds no basis of A).

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
    if isinstance(alg, ErrorSet):
        return _decompose_errors(alg, config)
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
    groups = _group(kw, C)
    shapes = [(len(g[0]), len(g)) for g in groups]
    m = alg.algebra_dim
    if sum(n * dj for n, dj in shapes) != d or sum(dj * dj for _, dj in shapes) != m:
        raise DegenerateSpectrumError(
            f"sectors {shapes} (n, d) do not account for dimension {d} and "
            f"algebra dimension {m}; rerun with a different seed")

    sectors = []
    for label, (g, (n_J, d_J)) in enumerate(zip(groups, shapes)):
        # column i of block t is column i*d_J + t of the isometry
        iso = np.stack(_align(kV, C, g), axis=-1).reshape(d, n_J * d_J)
        sectors.append(Sector(label, iso @ iso.conj().T, n_J, d_J, iso))
    return SectorDecomposition(d, tuple(sectors))


def _decompose_errors(errs: ErrorSet, config: EngineConfig) -> SectorDecomposition:
    """`decompose` read off the commutant A' of the algebra A that `errs`
    generates, with no basis of A unless A is small.

    An algebra that closes at dimension _SMALL_ALGEBRA_DIM or below is
    decomposed through that closure, which is `decompose(close_algebra(errs))`
    bit for bit and cheaper there than the solve.  Otherwise a random
    Hermitian element C1 of A' is (+)_J c_J (x) 1_{d_J}, so its
    eigenspaces are copies of sector J's irreducible space, each of size
    d_J.  A second element C2 joins the copies of one sector (as `_group`
    joins blocks) and aligns each to the first by the polar factor of
    Q_b^dag C2 Q_0, so copy i fills columns i*d_J .. i*d_J + d_J - 1 of the
    isometry.  Both are drawn by `_commutant_draws`, and the sectors are
    kept only if `_certified`.  Sector order, labels and isometry gauge
    differ from those of `decompose(close_algebra(errs))`; the shapes do
    not.  When the solve runs out of its budget or a check fails, the result
    is `decompose(close_algebra(errs))`, bit for bit: the draws here take
    their own streams.
    """
    d = errs.dim
    if d > config.dense_cap:
        raise ResourceLimitError(f"dense algebra capped at dimension {config.dense_cap}")
    gens = _scaled(errs.generators)
    small = _close(gens, d, cap=_SMALL_ALGEBRA_DIM)
    if small is not None:
        return decompose(small, config)
    try:
        C1, C2 = _commutant_draws(gens, d, config.seed)
        w, V = np.linalg.eigh(C1)
        C = V.conj().T @ C2 @ V
        sectors = []
        for label, g in enumerate(_group(w, C)):
            iso = np.concatenate(_align(V, C, g), axis=1)
            sectors.append(Sector(label, iso @ iso.conj().T, len(g), len(g[0]), iso))
        if _certified(gens, sectors):
            return SectorDecomposition(d, tuple(sectors))
    except (ConvergenceError, DegenerateSpectrumError):
        pass
    return decompose(close_algebra(errs, config), config)


def _commutant_draws(gens, d: int, seed: int):
    """Two seeded Gaussian Hermitian matrices X0 (streams _COMMUTANT_STREAMS)
    projected onto A' = ker L, L(X) = sum_g [g^dag, [g, X]] + [g, [g^dag, X]].

    L is Hermitian, positive semidefinite and keeps X Hermitian, and
    <X, L X> = sum_g ||[g, X]||^2 + ||[g^dag, X]||^2, so its kernel is A'.
    X0 - Y is the projection when Y solves L Y = L X0 by conjugate gradients
    from Y = 0, which stay in the range of L.  For Hermitian g and X the
    term is 2 [g, [g, X]], two products: [g, X] = gX - (gX)^dag, and for
    anti-Hermitian K, [g, K] = gK + (gK)^dag.  Otherwise it is M + M^dag,
    M = [g^dag, [g, X]].  Each g enters L with unit Frobenius norm, which
    leaves the kernel as it is: collective noise's three generators then
    weigh alike, L is a multiple of the Casimir, and CG ends in n steps on n
    qubits.  A solve stops once ||L X0 - L Y|| <= _CG_TOL * ||X0|| * 8k,
    a bound on ||L|| times ||X0|| (k generators, ||[g^dag, [g, X]]|| <= 4
    ||X||), never relative to ||L X0||, which is rounding noise when A'
    holds X0 already.  It raises ConvergenceError after _CG_STEPS_PER_DIM * d
    steps, or after _CG_STALL_STEPS steps in which the residual has not
    fallen tenfold: the solve then costs more than the closure that
    replaces it.  Without such a fall, planted sectors (n, d_J <= 3, up to
    four) go at most 18 steps, collective noise at most 4, the cyclic shift
    on 128 dimensions 32, and diag(cos(pi (k + 1/2) / d)) hundreds.
    """
    gens = [g / np.linalg.norm(g) for g in gens]
    herm = [np.array_equal(g, g.conj().T) for g in gens]

    def apply(X):
        out = np.zeros_like(X)
        for g, h in zip(gens, herm):
            if h:
                K = g @ X
                K = g @ (K - K.conj().T)
                out += 2 * (K + K.conj().T)
            else:
                K = g @ X - X @ g
                M = g.conj().T @ K - K @ g.conj().T
                out += M + M.conj().T
        return out

    bound = 8 * len(gens)
    draws = []
    for stream in _COMMUTANT_STREAMS:
        rng = spawn_rng(seed, stream)
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        X0 = (G + G.conj().T) / 2
        stop = (_CG_TOL * bound * np.linalg.norm(X0)) ** 2
        Y, r = np.zeros_like(X0), apply(X0)
        p, rr, steps = r, np.vdot(r, r).real, 0
        mark, since = rr, 0  # the residual at its last tenfold fall, and steps since
        while not rr <= stop:  # a NaN residual stalls
            if steps == _CG_STEPS_PER_DIM * d or since == _CG_STALL_STEPS:
                raise ConvergenceError(
                    f"commutant solve left residual {np.sqrt(rr):.2e} above "
                    f"{np.sqrt(stop):.2e} after {steps} steps")
            Lp = apply(p)
            alpha = rr / np.vdot(p, Lp).real
            Y += alpha * p
            r = r - alpha * Lp
            rr, last = np.vdot(r, r).real, rr
            p = r + (rr / last) * p
            steps, since = steps + 1, since + 1
            if rr < mark / 100:  # squared norms
                mark, since = rr, 0
        draws.append(X0 - Y)
    return draws


def _certified(gens, sectors) -> bool:
    """Whether `sectors` decompose the algebra the scaled generators `gens`
    generate.

    - The generators lie near the algebra B = (+)_J 1_{n_J} (x) M(d_J)
      the isometries V define: the sum over g of dist(g, B) / ||g||_F is at
      most _HS_DROP_TOL.  dist(g, B)^2 is the sum over sectors of
      ||g V - V (1_{n_J} (x) M)||^2, M the compression
      `block_structure_residual` reads: each term is that residual's square
      plus that of the part of g V outside the sector.  The closure keeps
      any part of a generator, scaled as here, above _HS_DROP_TOL outside
      the span of the others, and two generators tilted off B in opposite
      ways show it the sum of their tilts: a coupling the closure would see
      fails this test, and the closure answers instead.
    - The compressions of the k sectors with one d_J, as one direct sum,
      close at dimension k d_J^2.  Each class of irreducible constituents
      adds its dimension squared, so this holds only when every sector's
      compressions generate M(d_J) and no two sectors are equivalent.
    By Wedderburn's theorem these fix the shapes, and sum n_J d_J = d holds
    by construction.
    """
    by_size, outside = {}, np.zeros(len(gens))
    for s in sectors:
        V, comps = s.isometry, []
        for i, g in enumerate(gens):
            _, M = block_structure_residual(s, g)
            image = (V.reshape(-1, s.n_J, s.d_J) @ M).reshape(V.shape)
            outside[i] += np.linalg.norm(g @ V - image) ** 2
            comps.append(M)
        by_size.setdefault(s.d_J, []).append(comps)
    if sum(np.sqrt(o) / np.linalg.norm(g) for o, g in zip(outside, gens)) > _HS_DROP_TOL:
        return False
    for d_J, members in by_size.items():
        k = len(members)
        sums = np.zeros((len(gens), k * d_J, k * d_J), dtype=complex)
        for j, comps in enumerate(members):
            blk = slice(j * d_J, (j + 1) * d_J)
            sums[:, blk, blk] = np.reshape(comps, (len(gens), d_J, d_J))
        alg = _close(_scaled(sums), k * d_J)
        if not (alg.closed and alg.algebra_dim == k * d_J * d_J):
            return False
    return True


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
    """json.dumps(indent=2) of the dimension, the labels and the matrices,
    each matrix written by `_pairs_json`."""
    head = json.dumps({"dimension": errs.dim, "labels": list(errs.labels)}, indent=2)
    mats = ",\n    ".join(_pairs_json(np.asarray(g, dtype=complex), "\n    ")
                          for g in errs.generators)
    return f'{head[:-2]},\n  "matrices": [\n    {mats}\n  ]\n}}'


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


def _pairs_json(mat: np.ndarray, pad: str) -> str:
    """json.dumps(indent=2) of a complex matrix of finite entries as rows of
    [re, im] pairs, each line after the first starting with `pad` (a
    newline and the indent of the line the matrix starts on).  Each
    entry is one format string: json's indented encoder visits every number
    in Python and takes about twice as long on a `--matrices` report."""
    row, entry, pair = pad + "  ", pad + "    ", pad + "      "
    fmt = f"[{pair}%r,{pair}%r{entry}]"
    rows = (f"[{entry}" + f",{entry}".join([fmt % (z.real, z.imag) for z in r]) + f"{row}]"
            for r in mat.tolist())
    return f"[{row}" + f",{row}".join(rows) + f"{pad}]"


def decomposition_to_json(dec: SectorDecomposition, include_matrices: bool = True) -> str:
    sectors, mats = [], []
    for s in dec.sectors:
        rec = {"label": s.label, "n": s.n_J, "d": s.d_J}
        if include_matrices:  # a placeholder string, "\u0000<index>" in the text
            for key in ("central_projector", "isometry"):
                rec[key] = f"\0{len(mats)}"
                mats.append(np.asarray(getattr(s, key), dtype=complex))
        sectors.append(rec)
    doc = {
        "dimension": dec.dim,
        "sectors": sectors,
        "sector_shapes": [list(p) for p in dec.sector_shapes],
        "algebra_dim": dec.algebra_dim,
        "commutant_dim": dec.commutant_dim,
    }
    text = json.dumps(doc, indent=2)
    return re.sub(r'^( *)(.*)"\\u0000(\d+)"', lambda m: m[1] + m[2] + _pairs_json(
        mats[int(m[3])], "\n" + m[1]), text, flags=re.M)
