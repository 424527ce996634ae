"""Reference answers computed without nsslab.

Each oracle rebuilds its quantity from first principles with numpy/scipy
and bit operations, so a defect in the package cannot hide in its own
cross-check.  Where an answer is basis-dependent (isometries, projectors),
the oracle uses the edge layout the package documents in `nsslab.lattice`:
vertex (r, c) owns edge 2*(r*L2 + c) + d, d = 0 right, d = 1 down.
"""

from math import comb

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SPECTRAL_TOL = 1e-9      # splitting and gap must agree to this (absolute)
MATRIX_TOL = 1e-7        # isometry, projector and block-structure residuals


class CheckFailed(Exception):
    """An answer disagrees with its oracle."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------ toric spectra

def toric_hamiltonian(L1, L2, h, kind):
    """CSR matrix of -sum(stars) - sum(plaquettes) + h * sum(Z_e).

    Uses its own edge numbering (all row-direction edges, then all
    column-direction ones) so that it shares no indexing with the package;
    the spectrum does not depend on the numbering.  `kind` is z_field (every
    edge) or z_field_right (row-direction edges only).
    """
    if kind not in ("z_field", "z_field_right"):
        raise ValueError(f"oracle has no field kind {kind!r}")
    nv = L1 * L2

    def right(r, c):
        return (r % L1) * L2 + (c % L2)

    def down(r, c):
        return nv + (r % L1) * L2 + (c % L2)

    def mask(edges):
        return sum(1 << e for e in set(edges))

    stars = [mask([right(r, c), right(r, c - 1), down(r, c), down(r - 1, c)])
             for r in range(L1) for c in range(L2)]
    plaqs = [mask([right(r, c), right(r + 1, c), down(r, c), down(r, c + 1)])
             for r in range(L1) for c in range(L2)]
    field = range(nv) if kind == "z_field_right" else range(2 * nv)

    dim = 1 << (2 * nv)
    states = np.arange(dim, dtype=np.int64)
    diag = np.zeros(dim)
    for m in plaqs:
        diag -= 1.0 - 2.0 * (np.bitwise_count(states & m) & 1)
    for e in field:
        diag += h * (1.0 - 2.0 * ((states >> e) & 1))
    rows = np.concatenate([states ^ m for m in stars] + [states])
    cols = np.tile(states, len(stars) + 1)
    data = np.concatenate([-np.ones(dim * len(stars)), diag])
    return sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))


def lowest_levels(H, k=8):
    """The k lowest eigenvalues, ascending, to machine precision."""
    if H.shape[0] <= 1024:
        return np.linalg.eigvalsh(H.toarray())[:k]
    v0 = np.random.default_rng(0).standard_normal(H.shape[0])
    w = spla.eigsh(H, k=k, which="SA", v0=v0, ncv=48, tol=0,
                   return_eigenvectors=False)
    return np.sort(w)


def toric_levels(L1, L2, h, kind, code_dim=4):
    """(splitting, gap) of the lowest code_dim-fold multiplet."""
    w = lowest_levels(toric_hamiltonian(L1, L2, h, kind))
    return float(w[code_dim - 1] - w[0]), float(w[code_dim] - w[0])


def check_scaling_rows(rows, expected):
    """rows: [(L1, L2, splitting, gap)]; expected: {(L1, L2): (split, gap)}."""
    require(sorted((r[0], r[1]) for r in rows) == sorted(expected),
            f"sizes {[(r[0], r[1]) for r in rows]} != {sorted(expected)}")
    for L1, L2, split, gap in rows:
        want_split, want_gap = expected[(L1, L2)]
        require(abs(split - want_split) <= SPECTRAL_TOL,
                f"{L1}x{L2} splitting {split!r} != oracle {want_split!r}")
        require(abs(gap - want_gap) <= SPECTRAL_TOL,
                f"{L1}x{L2} gap {gap!r} != oracle {want_gap!r}")


# --------------------------------------------------------- sector structure

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def collective_generators(n):
    """Total spin components J_a = sum_i sigma_a^(i) / 2 on n qubits."""
    out = []
    for s in "XYZ":
        total = np.zeros((1 << n, 1 << n), dtype=complex)
        for i in range(n):
            term = np.eye(1, dtype=complex)
            for k in range(n):
                term = np.kron(term, PAULI[s] if k == i else np.eye(2))
            total += term
        out.append(total / 2)
    return out


def haar_unitary(rng, d):
    """Haar-random d x d unitary: QR of a complex Gaussian, phases fixed."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def clebsch_gordan_shapes(n):
    """Sorted (multiplicity, dimension) of the spin-j irreps in (C^2)^n.

    Spin j = n/2 - k has dimension n - 2k + 1 and multiplicity
    C(n, k) - C(n, k - 1), for k = 0 .. floor(n/2).
    """
    shapes = []
    for k in range(n // 2 + 1):
        mult = comb(n, k) - (comb(n, k - 1) if k else 0)
        shapes.append((mult, n - 2 * k + 1))
    return sorted(shapes)


def check_shapes(shapes, dim, algebra_dim, commutant_dim, expected):
    """Sector shapes and the three counting identities of a decomposition."""
    shapes = sorted(tuple(s) for s in shapes)
    require(shapes == sorted(expected), f"sector shapes {shapes} != {sorted(expected)}")
    require(sum(n * d for n, d in shapes) == dim, f"sum n*d != dim {dim}")
    require(sum(d * d for _, d in shapes) == algebra_dim,
            f"sum d^2 != dim A = {algebra_dim}")
    require(sum(n * n for n, _ in shapes) == commutant_dim,
            f"sum n^2 != dim A' = {commutant_dim}")


def check_isometries(isometries, generators):
    """isometries: [(n, d, V)].  Columns orthonormal, ranges fill the space,
    and every generator acts as 1_n (x) M inside each sector."""
    dim = generators[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for n, d, V in isometries:
        require(V.shape == (dim, n * d), f"isometry shape {V.shape}")
        err = np.linalg.norm(V.conj().T @ V - np.eye(n * d))
        require(err < MATRIX_TOL, f"isometry columns not orthonormal ({err:.1e})")
        total += V @ V.conj().T
        for g in generators:
            T = (V.conj().T @ g @ V).reshape(n, d, n, d)
            M = np.einsum("itiu->tu", T) / n
            resid = np.linalg.norm(T - np.einsum("ij,tu->itju", np.eye(n), M))
            require(resid < MATRIX_TOL, f"block structure residual {resid:.1e}")
    err = np.linalg.norm(total - np.eye(dim))
    require(err < MATRIX_TOL, f"sector ranges do not fill the space ({err:.1e})")


def toric_code_projector(L1, L2):
    """Dense projector onto the joint +1 space of every star and plaquette,
    in the package's documented edge layout."""
    n = 2 * L1 * L2
    dim = 1 << n

    def edge(r, c, d):
        return 2 * ((r % L1) * L2 + (c % L2)) + d

    states = np.arange(dim)
    P = np.eye(dim)
    for r in range(L1):
        for c in range(L2):
            star = sum(1 << e for e in (edge(r, c, 0), edge(r, c, 1),
                                        edge(r, c - 1, 0), edge(r - 1, c, 1)))
            P = (P + P[states ^ star]) / 2
            plaq = sum(1 << e for e in (edge(r, c, 0), edge(r, c, 1),
                                        edge(r + 1, c, 0), edge(r, c + 1, 1)))
            sign = 1.0 - 2.0 * (np.bitwise_count(states & plaq) & 1)
            P = (P + sign[:, None] * P) / 2
    return P


# -------------------------------------------------------------------- anyons

def edge_index(L1, L2, r, c, d):
    """Documented edge layout: vertex (r, c) owns edges 2*(r*L2+c) + d."""
    return 2 * ((r % L1) * L2 + (c % L2)) + d


def z_frame_loops(L1, L2):
    """Edge sets of the two Z-type frame loops: row 0's row-direction edges
    (g1) and column 0's column-direction edges (g2)."""
    return ({edge_index(L1, L2, 0, c, 0) for c in range(L2)},
            {edge_index(L1, L2, r, 0, 1) for r in range(L1)})


def crossing_sign(x_edges, z_edges):
    """(-1)^|X support & Z support|: the commutation sign of two strings."""
    return -1 if len(set(x_edges) & set(z_edges)) % 2 else 1


def frame_after(L1, L2, sector, x_edges):
    """Z-frame signs after X strings with net support x_edges act."""
    g1, g2 = z_frame_loops(L1, L2)
    return [sector[0] * crossing_sign(x_edges, g1),
            sector[1] * crossing_sign(x_edges, g2)]


def braid_phase(opposite_windings):
    """Exchange statistics of the toric code: e around m gives -1."""
    return (-1) ** opposite_windings


def kl_error_count(n, max_weight):
    """Number of n-qubit Paulis of weight 1..max_weight: sum C(n,w) 3^w."""
    return sum(comb(n, w) * 3 ** w for w in range(1, max_weight + 1))
