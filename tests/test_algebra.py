"""Algebra closure, sector decomposition, and commutant structure.

Oracle side: collective spin operators on three qubits, whose sector
structure (one spin-3/2 block, a doubled spin-1/2 block) follows from the
total-spin operator built here independently with explicit Kronecker
products.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsslab import (
    DEFAULT_CONFIG,
    ConvergenceError,
    DegenerateSpectrumError,
    ResourceLimitError,
    block_structure_residual,
    build_torus,
    close_algebra,
    commutant,
    decompose,
    decomposition_to_json,
    error_set,
    error_set_from_json,
    error_set_to_json,
)
from nsslab.algebra import span_projector_distance
from nsslab.gf2 import nullspace
from nsslab.pauli import PauliOp, to_dense

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _embed(site_op, i, n=3):
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(out, site_op if k == i else np.eye(2))
    return out


def _collective(n=3):
    """J_x, J_y, J_z on n qubits."""
    return [sum(_embed(s, i, n) for i in range(n)) / 2 for s in (_SX, _SY, _SZ)]


def _clebsch_gordan_dims(n):
    """Block sizes 2j+1 of n spin-1/2 sites, j = n/2, n/2 - 1, ... >= 0."""
    return [n + 1 - 2 * k for k in range(n // 2 + 1)]


def _matrix_to_pairs(mat):
    """The [re, im] nesting of a matrix, the oracle of the JSON writers."""
    m = np.asarray(mat, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


def _span_residual(alg, mat):
    rows = alg.stacked()
    v = mat.reshape(-1)
    return float(np.linalg.norm(v - rows.T @ (rows.conj() @ v)))


def _eig_clusters(w, rel=1e-6):
    scale = max(1.0, float(np.max(np.abs(w))))
    sizes = [1]
    for a, b in zip(w, w[1:]):
        if b - a > rel * scale:
            sizes.append(0)
        sizes[-1] += 1
    return sizes


def test_error_set_validation_and_default_labels():
    es = error_set([np.eye(2), _SX])
    assert es.labels == ("E0", "E1") and es.dim == 2
    with pytest.raises(ValueError):
        error_set([])
    with pytest.raises(ValueError):
        error_set([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        error_set([np.eye(2)], labels=("a", "b"))
    # a NaN norm compares false with the drop tolerance, so the closure
    # would drop a non-finite generator unseen
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            error_set([_SX, np.diag([1.0, bad])])


def test_error_set_json_round_trip_and_shape_check():
    es = error_set(_collective(), labels=("Jx", "Jy", "Jz"))
    back = error_set_from_json(error_set_to_json(es))
    assert back.labels == es.labels
    for a, b in zip(back.generators, es.generators):
        assert np.allclose(a, b, atol=0)
    doc = json.loads(error_set_to_json(es))
    doc["dimension"] = 5
    with pytest.raises(ValueError):
        error_set_from_json(json.dumps(doc))


def test_error_set_report_has_the_bytes_of_json_dumps():
    """`error_set_to_json` writes each matrix itself; its bytes are those of
    json.dumps(indent=2) over the `_matrix_to_pairs` nesting, for complex,
    real and integer dtypes, signed zeros, extreme exponents and labels that
    look like the decomposition writer's placeholders."""
    rng = np.random.default_rng(11)
    sets = [(_collective(3), ("Jx", "Jy", "Jz")),
            ([np.diag([1.0, -0.0, 2.5e-300, 1e300]),
              rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))], None),
            ([np.array([[complex(-0.0, -0.0)]])], ["\u00000"]),
            ([np.eye(3, dtype=int), rng.standard_normal((3, 3)).astype(np.float32)], [1, "b"])]
    for gens, labels in sets:
        es = error_set(gens, labels=labels)
        doc = {"dimension": es.dim, "labels": list(es.labels),
               "matrices": [_matrix_to_pairs(g) for g in es.generators]}
        assert error_set_to_json(es) == json.dumps(doc, indent=2)


def test_matrix_pairs_equal_the_per_element_floats():
    """The JSON [re, im] pairs equal float() of each entry, for complex and
    real dtypes alike, so the reports print the same bytes."""
    rng = np.random.default_rng(5)
    mats = [_collective()[1], rng.standard_normal((4, 4)),
            np.array([[-0.0, 1e-300], [0.1, 2.0]], dtype=np.float32),
            np.eye(3, dtype=int), np.array([[complex(-0.0, -0.0)]])]
    for mat in mats:
        want = [[[float(v.real), float(v.imag)] for v in row] for row in mat]
        got = _matrix_to_pairs(mat)
        assert got == want and json.dumps(got) == json.dumps(want)


def test_collective_spin_closure_dimension():
    """Collective spin on 3, 4 and 5 qubits generates sum d^2 over the
    Clebsch-Gordan block sizes d: 20, 35 and 56."""
    for n, want in ((3, 20), (4, 35), (5, 56)):
        alg = close_algebra(error_set(_collective(n)))
        assert alg.algebra_dim == sum(d * d for d in _clebsch_gordan_dims(n)) == want
        assert alg.closed and alg.closure_residual < 1e-12
        gram = alg.stacked() @ alg.stacked().conj().T
        assert np.linalg.norm(gram - np.eye(want)) < 1e-10


def test_closure_contains_identity_and_adjoints():
    alg = close_algebra(error_set(_collective()))
    assert _span_residual(alg, np.eye(8, dtype=complex)) < 1e-10
    for b in alg.basis:
        assert _span_residual(alg, b.conj().T) < 1e-10


def test_sector_shapes_match_total_spin_oracle():
    jx, jy, jz = _collective()
    alg = close_algebra(error_set([jx, jy, jz]))
    dec = decompose(alg)
    assert dec.sector_shapes == [(1, 4), (2, 2)]
    assert dec.total_dim == 8
    assert dec.algebra_dim == 20 and dec.commutant_dim == 5

    # oracle: eigenspaces of J^2 at j(j+1) for j = 3/2 and 1/2
    j2 = jx @ jx + jy @ jy + jz @ jz
    w, V = np.linalg.eigh(j2)
    proj = {}
    for val, shape in ((3.75, (1, 4)), (0.75, (2, 2))):
        cols = V[:, np.abs(w - val) < 1e-9]
        assert cols.shape[1] == shape[0] * shape[1]
        proj[shape] = cols @ cols.conj().T
    for s in dec.sectors:
        assert np.linalg.norm(s.central_projector - proj[(s.n_J, s.d_J)]) < 1e-8

    total = np.zeros((8, 8), dtype=complex)
    for s in dec.sectors:
        V_J = s.isometry
        assert np.linalg.norm(V_J.conj().T @ V_J - np.eye(s.n_J * s.d_J)) < 1e-8
        total += V_J @ V_J.conj().T
    assert np.linalg.norm(total - np.eye(8)) < 1e-8


def test_noiseless_subsystem_listing():
    dec = decompose(close_algebra(error_set(_collective())))
    protected = [(s.label, s.n_J) for s in dec.sectors if s.n_J >= 2]
    assert len(protected) == 1 and protected[0][1] == 2


def test_generators_act_block_diagonally_with_spin_spectra():
    jx, jy, jz = _collective()
    dec = decompose(close_algebra(error_set([jx, jy, jz])))
    spectra = {(1, 4): [-1.5, -0.5, 0.5, 1.5], (2, 2): [-0.5, 0.5]}
    for s in dec.sectors:
        for g in (jx, jy, jz):
            resid, M = block_structure_residual(s, g)
            assert resid < 1e-7
        _, Mz = block_structure_residual(s, jz)
        got = sorted(np.linalg.eigvalsh(Mz))
        assert np.allclose(got, spectra[(s.n_J, s.d_J)], atol=1e-8)


def test_rescaled_generators_span_the_same_algebra():
    jx, jy, jz = _collective()
    alg = close_algebra(error_set([jx, jy, jz]))
    scaled = close_algebra(error_set([2.7 * jx, -1.3j * jy, 0.4 * jz]))
    assert span_projector_distance(alg, scaled) < 1e-6
    with pytest.raises(ValueError):
        span_projector_distance(alg, close_algebra(error_set([_SX])))


def _all_pairs_closure(mats, tol=1e-9):
    """Oracle: multiply every basis pair until the span stops growing."""
    from nsslab.algebra import MatrixAlgebra

    d = mats[0].shape[0]

    def orth(ms):
        _, s, vh = np.linalg.svd(np.stack([m.reshape(-1) for m in ms]),
                                 full_matrices=False)
        return list(vh[s > tol * s[0]].reshape(-1, d, d))

    basis = orth([np.eye(d, dtype=complex)] + list(mats) + [m.conj().T for m in mats])
    while True:
        grown = orth(basis + [a @ b for a in basis for b in basis])
        if len(grown) == len(basis):
            return MatrixAlgebra(d, tuple(grown))
        basis = grown


@pytest.mark.parametrize("blocks, k, dim", [
    (((2, 2), (1, 2)), 2, 8),          # d = 6: 1_2 (x) M_2 (+) M_2
    (((2, 3), (1, 2)), 3, 13),         # d = 8: 1_2 (x) M_3 (+) M_2
])
def test_closure_matches_an_all_pairs_oracle(blocks, k, dim):
    """Seeded random generators with a hidden block structure, against a
    closure that multiplies all pairs and uses no generator-driven step."""
    rng = np.random.default_rng(2024 + dim)
    d = sum(n * m for n, m in blocks)
    U, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    gens = []
    for _ in range(k):
        g = np.zeros((d, d), dtype=complex)
        at = 0
        for n, m in blocks:
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            g[at:at + n * m, at:at + n * m] = np.kron(np.eye(n), a)
            at += n * m
        gens.append(U @ g @ U.conj().T)
    alg = close_algebra(error_set(gens))
    oracle = _all_pairs_closure(gens)
    assert alg.closed and alg.algebra_dim == oracle.algebra_dim == dim
    assert span_projector_distance(alg, oracle) < 1e-10


def test_generator_certificate_rejects_a_basis_missing_one_element():
    """Mutation check: every proper subspace of the algebra fails the
    generator certificate, whichever direction is dropped."""
    from nsslab.algebra import (_HS_DROP_TOL, _SPAN_MEMBERSHIP_TOL, MatrixAlgebra,
                                _orthonormal_rows, verify_closure)

    gens = _collective()
    alg = close_algebra(error_set(gens))
    seed = [np.eye(8, dtype=complex)] + gens
    tol = _SPAN_MEMBERSHIP_TOL
    assert verify_closure(alg, generators=seed) < tol
    rng = np.random.default_rng(7)
    m = alg.algebra_dim
    U, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    for rows in (alg.stacked(), U @ alg.stacked()):
        for drop in range(m):
            kept = _orthonormal_rows(np.delete(rows, drop, axis=0), _HS_DROP_TOL)
            cut = MatrixAlgebra(8, tuple(kept.reshape(-1, 8, 8)))
            assert verify_closure(cut, generators=seed) > tol


def test_closure_is_certified_exactly_beyond_the_pair_sample_limit(monkeypatch):
    """Two generic generators at d = 18 generate all of M_18: 324 basis
    elements, above the 300 where the pair check would sample.  The
    generator certificate checks every product instead."""
    from nsslab import algebra

    calls = []
    real = algebra.verify_closure

    def spy(alg, generators):
        calls.append(alg.algebra_dim)
        return real(alg, generators)

    monkeypatch.setattr(algebra, "verify_closure", spy)
    rng = np.random.default_rng(18)
    gens = [rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18))
            for _ in range(2)]
    alg = close_algebra(error_set(gens))
    assert alg.algebra_dim == 324 > 300
    assert alg.closed and alg.closure_residual < algebra._SPAN_MEMBERSHIP_TOL
    assert calls == [324]


def test_commutant_elements_commute_with_every_generator():
    gens = _collective()
    alg = close_algebra(error_set(gens))
    com = commutant(alg)
    assert com.algebra_dim == 5  # 1^2 + 2^2 from the sector multiplicities
    assert com.closed
    for c in com.basis:
        for g in gens:
            assert np.linalg.norm(c @ g - g @ c) < 1e-8


def test_double_commutant_recovers_the_algebra():
    alg = close_algebra(error_set(_collective()))
    back = commutant(commutant(alg))
    assert span_projector_distance(alg, back) < 1e-7


def test_commutant_certificate_bounds_products_and_adjoints():
    """A rank-8 projector at d = 24 has the commutant M_8 (+) M_16: 320
    elements, more than a pair check covers exhaustively.  The certificate,
    read off the sectors' isometries, bounds the span residual of products
    and adjoints of unit span elements."""
    from nsslab import algebra

    rng = np.random.default_rng(24)
    U, _ = np.linalg.qr(rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)))
    alg = close_algebra(error_set([U[:, :8] @ U[:, :8].conj().T]))
    com = commutant(alg)
    assert com.algebra_dim == 64 + 256
    assert com.closed and com.closure_residual < algebra._SPAN_MEMBERSHIP_TOL

    def unit_element():
        c = rng.standard_normal(com.algebra_dim) + 1j * rng.standard_normal(com.algebra_dim)
        return np.tensordot(c / np.linalg.norm(c), np.stack(com.basis), axes=1)

    for _ in range(4):
        x, y = unit_element(), unit_element()
        assert _span_residual(com, x @ y) <= com.closure_residual
        assert _span_residual(com, x.conj().T) <= com.closure_residual


@pytest.mark.parametrize("case", ["other-algebra", "skewed-isometries"])
def test_commutant_leaves_wrong_sectors_unclosed(case, monkeypatch):
    """Sectors of another algebra (J_z alone, whose sectors do not block
    J_x), or isometries scaled off orthonormal, leave the commutant
    unclosed."""
    import dataclasses

    from nsslab import algebra

    alg = close_algebra(error_set(_collective()))
    if case == "other-algebra":
        wrong = decompose(close_algebra(error_set(_collective()[2:])))
    else:
        good = decompose(alg)
        wrong = dataclasses.replace(good, sectors=tuple(
            dataclasses.replace(s, isometry=s.isometry * (1 + 1e-6)) for s in good.sectors))
    monkeypatch.setattr(algebra, "decompose", lambda *args: wrong)
    com = commutant(alg)
    assert not com.closed and com.closure_residual > 1e-6


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_commutant_certifies_collective_noise(n):
    """The commutant of collective noise has sum n_J^2 elements, the Catalan
    numbers, certified closed."""
    com = commutant(close_algebra(error_set(_collective(n))))
    assert com.algebra_dim == {2: 2, 3: 5, 4: 14, 5: 42, 6: 132}[n]
    assert com.closed and com.closure_residual < 1e-12


def _stacked_svd_commutant(alg):
    """Oracle: the null space of the stacked commutator map itself, from its
    SVD at full precision, with no squared map."""
    from nsslab.algebra import MatrixAlgebra

    d = alg.dim
    eye = np.eye(d)
    stack = np.vstack([np.kron(eye, b.T) - np.kron(b, eye) for b in alg.basis])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    null = vh[s < 1e-8 * max(1.0, s[0])]
    return MatrixAlgebra(d, tuple(null.conj().reshape(-1, d, d)))


def _projector_at_24():
    rng = np.random.default_rng(24)
    U, _ = np.linalg.qr(rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)))
    return [U[:, :8] @ U[:, :8].conj().T]


@pytest.mark.parametrize("gens", [_collective(2), _collective(3), _collective(4),
                                  _projector_at_24()],
                         ids=["collective2", "collective3", "collective4", "projector24"])
def test_commutant_matches_a_stacked_svd_oracle(gens):
    alg = close_algebra(error_set(gens))
    com = commutant(alg)
    assert span_projector_distance(com, _stacked_svd_commutant(alg)) < 1e-10


@st.composite
def _repeated_hermitian_sets(draw):
    """Hermitian generators sum over blocks of 1_n (x) A, A a random m x m
    Hermitian, on at most 12 dimensions, in a random frame."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 3)),
                           min_size=1, max_size=4)
                  .filter(lambda bl: sum(n * m for n, m in bl) <= 12))
    d = sum(n * m for n, m in blocks)
    U, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        g = np.zeros((d, d), dtype=complex)
        at = 0
        for n, m in blocks:
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            g[at:at + n * m, at:at + n * m] = np.kron(np.eye(n), a + a.conj().T)
            at += n * m
        gens.append(U @ g @ U.conj().T)
    return gens


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(_repeated_hermitian_sets())
def test_commutant_matches_the_oracle_on_random_hermitian_sets(gens):
    alg = close_algebra(error_set(gens))
    com = commutant(alg)
    assert com.closed
    assert span_projector_distance(com, _stacked_svd_commutant(alg)) < 1e-10


def test_span_distance_reads_zero_for_a_rotated_basis():
    """Two orthonormal bases of one span, related by a random unitary, sit
    at distance zero; the expanded trace formula bottoms out near 1e-7."""
    from nsslab.algebra import MatrixAlgebra

    alg = close_algebra(error_set(_collective()))
    m, d = alg.algebra_dim, alg.dim
    rng = np.random.default_rng(0)
    for _ in range(4):
        U, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        rotated = MatrixAlgebra(d, tuple((U @ alg.stacked()).reshape(m, d, d)))
        assert span_projector_distance(alg, rotated) < 1e-12
    # away from zero it is the Frobenius distance of the two projectors
    com = commutant(alg)
    Pa = alg.stacked().T @ alg.stacked().conj()
    Pc = com.stacked().T @ com.stacked().conj()
    assert abs(span_projector_distance(alg, com) - np.linalg.norm(Pa - Pc)) < 1e-10


def test_commutant_and_decompose_require_verified_closure():
    from nsslab.algebra import MatrixAlgebra

    stub = MatrixAlgebra(2, (np.eye(2, dtype=complex) / np.sqrt(2),))
    with pytest.raises(ValueError):
        commutant(stub)
    with pytest.raises(ValueError):
        decompose(stub)


def test_ambiguous_cluster_gaps_raise_instead_of_guessing(monkeypatch):
    from nsslab import algebra

    alg = close_algebra(error_set(_collective()))
    monkeypatch.setattr(algebra, "_GAP_RATIO_GUARD", 1e9)
    with pytest.raises(DegenerateSpectrumError):
        decompose(alg)


@pytest.mark.parametrize("tol, gens", [
    # no block joins: collective3's six eigenblocks become six d = 1 sectors,
    # sum d^2 = 6 < 20
    (1e6, _collective()),
    # every block joins: the two rank-2 halves of span{1, P} become one
    # (2, 2) sector, sum d^2 = 4 > 2, although sum n d = 4 still holds
    (-1.0, [np.diag([1.0, 1.0, 0.0, 0.0])]),
], ids=["missed-joins", "false-joins"])
def test_decompose_refuses_sectors_that_miss_the_algebra_dimension(monkeypatch, tol, gens):
    from nsslab import algebra

    alg = close_algebra(error_set(gens))
    monkeypatch.setattr(algebra, "_SPAN_MEMBERSHIP_TOL", tol)
    with pytest.raises(DegenerateSpectrumError, match="algebra dimension"):
        decompose(alg)


def test_resource_caps_reject_oversized_dense_problems():
    """`dense_cap` bounds d for the closure; the commutant, read off the
    decomposition, reads no cap of its own: at d = 65 the clock algebra's
    commutant is the algebra itself."""
    es = error_set(_collective())
    with pytest.raises(ResourceLimitError):
        close_algebra(es, DEFAULT_CONFIG.override(dense_cap=4))
    clock = np.diag(np.exp(2j * np.pi * np.arange(65) / 65))
    big = close_algebra(error_set([clock]))
    assert big.closed and big.algebra_dim == 65
    com = commutant(big)
    assert com.closed and com.algebra_dim == 65
    # span{1, P} at d = 256 closes at dimension 2, but its commutant
    # M_4 (+) M_252 would hold 63 520 matrices of 256 x 256 (66 GB)
    small = close_algebra(error_set([np.diag([1.0] * 4 + [0.0] * 252)]))
    with pytest.raises(ResourceLimitError, match="commutant basis"):
        commutant(small)


def _span(vecs):
    """Every XOR of a subset of `vecs`, each distinct element once."""
    members = {0}
    for v in vecs:
        members |= {m ^ v for m in members}
    return sorted(members)


def _group_span(group):
    """Exact span of a Pauli group: its elements scaled by 1/sqrt(d) are
    HS-orthonormal, and a group is closed under products and adjoints."""
    from nsslab.algebra import MatrixAlgebra

    d = 1 << group[0].n
    return MatrixAlgebra(d, tuple(to_dense(p) / np.sqrt(d) for p in group),
                         closed=True, closure_residual=0.0)


def test_star_group_span_agrees_with_numerical_closure():
    lat = build_torus(2, 2)
    patterns = _span([s.x_bits for s in lat.vertex_stars])
    assert len(patterns) == 8  # the four stars multiply to the identity
    group = [PauliOp(lat.n_qubits, x, 0) for x in patterns]
    exact = _group_span(group)
    numeric = close_algebra(error_set([to_dense(s) for s in lat.vertex_stars]))
    assert exact.algebra_dim == numeric.algebra_dim == 8
    assert span_projector_distance(exact, numeric) < 1e-10


def test_star_group_sectors_are_syndrome_projectors():
    lat = build_torus(2, 2)
    group = [PauliOp(lat.n_qubits, x, 0) for x in _span([s.x_bits for s in lat.vertex_stars])]
    dec = decompose(_group_span(group))
    assert dec.sector_shapes == [(32, 1)] * 8
    eye = np.eye(1 << lat.n_qubits, dtype=complex)
    P0 = eye
    for s in lat.vertex_stars:
        P0 = P0 @ (eye + to_dense(s)) / 2
    best = min(np.linalg.norm(s.central_projector - P0) for s in dec.sectors)
    assert best < 1e-10


def test_loop_commutant_has_four_fold_eigenvalue_multiplicities():
    """Generic Hermitian elements of the span of all Pauli operators
    commuting with the four homology loops carry 64 eigenvalues, each four
    times: the n=4, d=64 sector pattern."""
    from nsslab.lattice import homology_basis

    lat = build_torus(2, 2)
    n = lat.n_qubits
    rows = [(lo.op.z_bits << n) | lo.op.x_bits for lo in homology_basis(lat)]
    basis = nullspace(rows, 2 * n)
    assert len(basis) == 2 * n - 4
    members = _span(basis)
    assert len(members) == 1 << 12

    rng = np.random.default_rng(12345)
    mask = (1 << n) - 1
    M = np.zeros((1 << n, 1 << n), dtype=complex)
    for v, c in zip(members, rng.standard_normal(len(members))):
        M += c * to_dense(PauliOp(n, v >> n, v & mask))
    M = (M + M.conj().T) / 2
    w = np.linalg.eigvalsh(M)
    sizes = _eig_clusters(w)
    assert len(sizes) == 64 and set(sizes) == {4}


def test_decomposition_json_structure():
    dec = decompose(close_algebra(error_set(_collective())))
    doc = json.loads(decomposition_to_json(dec, include_matrices=False))
    assert doc["dimension"] == 8
    assert doc["sector_shapes"] == [[1, 4], [2, 2]]
    assert doc["algebra_dim"] == 20 and doc["commutant_dim"] == 5
    for rec in doc["sectors"]:
        assert set(rec) == {"label", "n", "d"}
    full = json.loads(decomposition_to_json(dec))
    assert "isometry" in full["sectors"][0] and "central_projector" in full["sectors"][0]


def test_decomposition_report_has_the_bytes_of_json_dumps():
    """The report writer formats each matrix itself; its bytes are those of
    json.dumps(indent=2) over the `_matrix_to_pairs` nesting, on both
    decomposition paths, with and without matrices, signed zeros and
    extreme exponents included."""
    sets = [_collective(3), _collective(4), [np.diag([1.0, -0.0, 2.5e-300, 1e300])],
            [np.zeros((2, 2))]]
    for gens in sets:
        for dec in (decompose(close_algebra(error_set(gens))), decompose(error_set(gens))):
            for matrices in (True, False):
                doc = {"dimension": dec.dim, "sectors": [], "sector_shapes":
                       [list(p) for p in dec.sector_shapes],
                       "algebra_dim": dec.algebra_dim, "commutant_dim": dec.commutant_dim}
                for s in dec.sectors:
                    rec = {"label": s.label, "n": s.n_J, "d": s.d_J}
                    if matrices:
                        rec["central_projector"] = _matrix_to_pairs(s.central_projector)
                        rec["isometry"] = _matrix_to_pairs(s.isometry)
                    doc["sectors"].append(rec)
                assert decomposition_to_json(dec, matrices) == json.dumps(doc, indent=2)


def test_decompose_is_deterministic_for_a_fixed_seed():
    alg = close_algebra(error_set(_collective()))
    a, b = decompose(alg), decompose(alg)
    assert a.sector_shapes == b.sector_shapes
    for sa, sb in zip(a.sectors, b.sectors):
        assert np.array_equal(sa.isometry, sb.isometry)


def test_decompose_does_not_depend_on_the_basis_gauge():
    """The central draw is a projection of a seeded matrix, so rewriting the
    algebra in a rotated HS-orthonormal basis keeps the sector order and
    the central projectors."""
    from nsslab.algebra import MatrixAlgebra

    alg = close_algebra(error_set(_collective(5)))
    m, d = alg.algebra_dim, alg.dim
    rng = np.random.default_rng(5)
    U, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    rotated = MatrixAlgebra(d, tuple((U @ alg.stacked()).reshape(m, d, d)),
                            closed=True, closure_residual=alg.closure_residual)
    a, b = decompose(alg), decompose(rotated)
    assert [(s.n_J, s.d_J) for s in a.sectors] == [(s.n_J, s.d_J) for s in b.sectors]
    for sa, sb in zip(a.sectors, b.sectors):
        assert np.abs(sa.central_projector - sb.central_projector).max() < 1e-12


@st.composite
def _small_error_sets(draw):
    """Generators with a planted block structure, sum over blocks of
    1_n (x) A (A random m x m), on at most 8 dimensions, in a random frame;
    or a few Pauli strings on 2 or 3 qubits."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        nq = draw(st.integers(2, 3))
        ops = draw(st.lists(st.tuples(st.integers(0, (1 << nq) - 1),
                                      st.integers(0, (1 << nq) - 1)),
                            min_size=1, max_size=3))
        return [to_dense(PauliOp(nq, x, z)) for x, z in ops], None
    blocks = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 3)),
                           min_size=1, max_size=3)
                  .filter(lambda bl: sum(n * m for n, m in bl) <= 8))
    d = sum(n * m for n, m in blocks)
    U, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        g = np.zeros((d, d), dtype=complex)
        at = 0
        for n, m in blocks:
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            g[at:at + n * m, at:at + n * m] = np.kron(np.eye(n), a)
            at += n * m
        gens.append(U @ g @ U.conj().T)
    return gens, sorted(blocks)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_small_error_sets())
def test_decomposition_invariants_hold_on_random_error_sets(case):
    """sum n*d = dim, sum d^2 = dim A and sum n^2 = dim A', with dim A from
    the closure and dim A' from the stacked-SVD oracle, both computed apart
    from the decomposition (`commutant` is read off it)."""
    gens, planted = case
    alg = close_algebra(error_set(gens))
    dec = decompose(alg)
    shapes = [(s.n_J, s.d_J) for s in dec.sectors]
    assert sum(n * d for n, d in shapes) == alg.dim
    assert sum(d * d for _, d in shapes) == alg.algebra_dim
    assert sum(n * n for n, _ in shapes) == _stacked_svd_commutant(alg).algebra_dim
    if planted is not None:
        assert dec.sector_shapes == planted


def _compressed_weight1():
    """The weight-1 Paulis of the 2x2 torus compressed to the code space, and
    the code projector P: every weight-1 error is detected, so P E P = 0."""
    from nsslab.verify import code_projector, local_error_generators

    lat = build_torus(2, 2)
    P = code_projector(lat)
    weight1 = local_error_generators(lat, 1, loop_commuting=False)
    return [P @ to_dense(E) @ P for E in weight1], P


def test_error_set_keeps_real_and_complex_arrays_without_a_copy():
    real, cplx, ints = np.eye(4), np.eye(4, dtype=complex), np.eye(4, dtype=int)
    es = error_set([real, cplx, ints])
    assert es.generators[0] is real and es.generators[1] is cplx
    assert es.generators[2].dtype == np.complex128
    assert np.array_equal(es.generators[2], ints)


def test_real_generators_close_and_decompose_to_the_bytes_of_complex_copies():
    """The compressed weight-1 set holds float64 (no Y) and complex128 (a Y)
    matrices; the closure casts each to complex as it reads it."""
    mats, P = _compressed_weight1()
    mats = mats + [P]
    assert {m.dtype for m in mats} == {np.dtype(np.float64), np.dtype(np.complex128)}
    runs = []
    for gens in (mats, [m.astype(complex) for m in mats]):
        alg = close_algebra(error_set(gens))
        dec = decompose(alg)
        runs.append((alg.stacked().tobytes(),
                     [(s.central_projector.tobytes(), s.isometry.tobytes())
                      for s in dec.sectors]))
    assert runs[0] == runs[1]


def test_zero_generators_leave_the_closure_basis_bit_identical():
    """An exactly zero generator is skipped with its adjoint; Gram-Schmidt
    would drop both, so the basis does not move."""
    zeros = [np.zeros((8, 8), dtype=complex)] * 3
    padded = close_algebra(error_set(_collective() + zeros))
    assert np.array_equal(padded.stacked(), close_algebra(error_set(_collective())).stacked())
    mats, P = _compressed_weight1()
    assert sum(np.linalg.norm(m) == 0 for m in mats) == len(mats)
    alg = close_algebra(error_set(mats + [P]))
    assert alg.algebra_dim == 2 and alg.closed
    assert np.array_equal(alg.stacked(), close_algebra(error_set([P])).stacked())


def test_a_scale_on_each_generator_leaves_the_closure_basis_bit_identical():
    """The closure first scales each generator by a power of two, so powers
    of two far beyond the drop tolerance and past the range where squared
    entries underflow or overflow, common to the set or one per generator,
    give the unscaled basis, byte for byte."""
    basis = close_algebra(error_set(_collective())).stacked()
    for es in ((-40,) * 3, (40,) * 3, (-600,) * 3, (-600, 1000, 0)):
        alg = close_algebra(error_set([g * 2.0**e for g, e in zip(_collective(), es)]))
        assert alg.closed and alg.stacked().tobytes() == basis.tobytes()


@pytest.mark.parametrize("gens, shapes", [
    # once read as one noiseless sector: the generators fell under the floor
    ([1e-11 * _SZ], [(1, 1), (1, 1)]),
    ([1e-11 * _SZ, 1e-11 * _SX], [(1, 2)]),
    # once refused (1e150) or lost to overflow (1e300)
    ([1e150 * _SZ], [(1, 1), (1, 1)]),
    ([1e300 * _SZ], [(1, 1), (1, 1)]),
    # subnormal largest entries: 2^-e itself would overflow
    ([1e-310 * _SZ], [(1, 1), (1, 1)]),
    ([5e-324 * _SZ], [(1, 1), (1, 1)]),
    # both parts near the top of the range: the modulus would overflow
    ([(1.3e308 + 1.3e308j) * _SZ], [(1, 1), (1, 1)]),
    # generators of very different sizes still generate M(2)
    ([_SZ, 1e-11 * _SX], [(1, 2)]),
    ([1e11 * _SZ, _SX], [(1, 2)]),
    # all generators skipped: the algebra is C 1
    ([np.zeros((3, 3))], [(3, 1)]),
    # a coupling ten times the drop tolerance: the closure keeps it, and
    # the commutant path, which cannot resolve it, must not split sigma_z
    ([_SZ, _SZ + 1e-9 * _SX], [(1, 2)]),
])
def test_decompose_does_not_depend_on_the_scale_of_the_set(gens, shapes, monkeypatch):
    """Both paths, the closed algebra's and the error set's, which scales
    its generators as the closure does: through the closure of a small
    algebra, and down the commutant path."""
    from nsslab import algebra

    with np.errstate(all="raise"):
        dec = decompose(close_algebra(error_set(gens)))
        direct = decompose(error_set(gens))
        monkeypatch.setattr(algebra, "_SMALL_ALGEBRA_DIM", 0)
        solved = decompose(error_set(gens))
    assert dec.sector_shapes == direct.sector_shapes == solved.sector_shapes == shapes


@pytest.mark.parametrize("frame", [0, 1, 2])
def test_a_weak_coupling_gives_the_shapes_of_the_closure(frame, monkeypatch):
    """Pairs of 2 x 2 generators whose second term couples the two
    eigenvectors of sigma_z by c, the two tilted the same way, by different
    sizes, or in opposite ways, in the computational frame or a Haar frame.
    Away from the knife edge near the drop tolerance (c from about 3e-11 to
    1e-10, where the closure keeps or drops the coupling on its own
    rounding), the commutant path gives the closure's shapes: two sectors
    (1, 1) for a coupling below it, M(2) above."""
    from nsslab import algebra

    U = _haar(np.random.default_rng(frame), 2) if frame else np.eye(2)
    monkeypatch.setattr(algebra, "_SMALL_ALGEBRA_DIM", 0)
    for c in (1e-12, 3e-12, 1e-11, 3e-10, 1e-9, 1e-8, 1e-7):
        for pair in ([_SZ, _SZ + c * _SX], [3 * _SZ, _SZ + c * _SY],
                     [_SZ + c * _SX, _SZ - c * _SX]):
            gens = [U @ g @ U.conj().T for g in pair]
            want = decompose(close_algebra(error_set(gens))).sector_shapes
            assert want == ([(1, 2)] if c > 1e-10 else [(1, 1), (1, 1)])
            assert decompose(error_set(gens)).sector_shapes == want, (c, pair)


def test_a_small_algebra_is_decomposed_through_its_closure(monkeypatch):
    """The compressed weight-1 set with the code projector generates a
    2-dimensional algebra on 256 dimensions: decompose of the error set
    closes it, runs no solve, and returns decompose of its closure, byte
    for byte."""
    from nsslab import algebra

    mats, P = _compressed_weight1()
    es = error_set(mats + [P])
    want = decompose(close_algebra(es))

    def refuse(*args, **kwargs):
        raise AssertionError("the commutant solve ran")
    monkeypatch.setattr(algebra, "_commutant_draws", refuse)
    got = decompose(es)
    assert got.sector_shapes == [(4, 1), (252, 1)]
    for a, b in zip(got.sectors, want.sectors, strict=True):
        assert (a.label, a.n_J, a.d_J) == (b.label, b.n_J, b.d_J)
        assert a.isometry.tobytes() == b.isometry.tobytes()


def test_multiples_of_the_identity_close_at_dimension_one():
    eye = np.eye(4, dtype=complex)
    for gens in ([2.5 * eye, -1j * eye], [eye, np.zeros((4, 4))]):
        alg = close_algebra(error_set(gens))
        assert alg.algebra_dim == 1 and alg.closed
        assert np.allclose(alg.basis[0], eye / 2, atol=1e-15)


@pytest.mark.parametrize("d", [52, 64])
def test_long_krylov_chain_closes_without_a_round_cap(d):
    """One diagonal generator with d distinct eigenvalues generates the
    diagonal algebra one power per round, d - 1 rounds in all; the closure
    runs them all and the space splits into d sectors of shape (1, 1).  The
    commutant solve stalls on it and gives up within 64 steps, not 8 d,
    and decompose of the error set is then that of the closure."""
    import re

    from nsslab import algebra

    gen = np.diag(np.cos(np.pi * (np.arange(d) + 0.5) / d))
    alg = close_algebra(error_set([gen]))
    assert alg.algebra_dim == d and alg.closed
    dec = decompose(alg)
    assert dec.sector_shapes == [(1, 1)] * d
    with pytest.raises(ConvergenceError) as info:
        algebra._commutant_draws(algebra._scaled([gen]), d, DEFAULT_CONFIG.seed)
    assert int(re.search(r"after (\d+) steps", str(info.value))[1]) < 64
    assert decomposition_to_json(decompose(error_set([gen]))) == decomposition_to_json(dec)


def test_closure_and_commutant_hold_one_basis_array():
    alg = close_algebra(error_set(_collective()))
    com = commutant(alg)
    for a in (alg, com):
        assert isinstance(a.basis, np.ndarray)
        assert a.basis.shape == (a.algebra_dim, 8, 8)
        assert np.shares_memory(a.stacked(), a.basis)


def _per_element_certificate(alg, generators):
    """Oracle: every candidate of the closure certificate (1, the adjoints,
    each product B_i g) projected on its own, one matrix-vector pass at a
    time."""
    rows = alg.stacked()
    d = alg.dim

    def residual(mat):
        v = mat.reshape(-1)
        for _ in range(2):
            v = v - rows.T @ (rows.conj() @ v)
        return float(np.linalg.norm(v))

    cands = [np.eye(d) / np.sqrt(d)] + [b.conj().T for b in alg.basis]
    cands += [b @ g for b in alg.basis for g in generators]
    return max(residual(m) for m in cands)


def _generic_pair_at_18():
    rng = np.random.default_rng(18)
    return [rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18))
            for _ in range(2)]


@pytest.mark.parametrize("gens", [_collective(3), _collective(5), _generic_pair_at_18()],
                         ids=["collective3", "collective5", "generic18"])
def test_stacked_certificate_matches_a_per_element_loop(gens):
    """The certificate's stacked products give the residual a per-element
    loop gives, on the closed basis (near zero) and on a basis missing its
    last element (order one)."""
    from nsslab.algebra import MatrixAlgebra, verify_closure

    alg = close_algebra(error_set(gens))
    generators = gens + [g.conj().T for g in gens]
    cut = MatrixAlgebra(alg.dim, alg.basis[:-1])
    for a in (alg, cut):
        got = verify_closure(a, generators=generators)
        assert abs(got - _per_element_certificate(a, generators)) < 1e-14
    assert verify_closure(alg, generators=generators) < 1e-12
    assert verify_closure(cut, generators=generators) > 1e-3


def test_closure_certificate_peak_memory_stays_below_four_bases(monkeypatch):
    """The certificate checks the adjoints stack by stack, beside the
    products, so on the matrix-unit basis of M_24 (576 elements) its traced
    peak stays below four copies of a tuple basis, which it stacks once,
    and below one copy of an (m, d, d) array basis, as `close_algebra`
    passes it, which it neither copies nor conjugates.  Its stacks grow with
    the basis: on the 96 diagonal units (a 14 MB basis) with one diagonal
    generator, eight stacks of 12 products make 17 `_project_out` calls
    (1 MB stacks would make 29), and the peak stays below one basis."""
    import tracemalloc

    from nsslab import algebra
    from nsslab.algebra import MatrixAlgebra, verify_closure

    d = 24
    units = np.eye(d * d, dtype=complex).reshape(-1, d, d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    diagonal = np.zeros((96, 96, 96), dtype=complex)
    diagonal[np.arange(96), np.arange(96), np.arange(96)] = 1.0
    calls = []
    project_out = algebra._project_out
    monkeypatch.setattr(algebra, "_project_out",
                        lambda *args: calls.append(1) or project_out(*args))
    for basis, gens, copies in ((tuple(units), [shift, clock], 4),
                                (units, [shift, clock], 1),
                                (diagonal, [np.diag(np.arange(96.0))], 1)):
        calls.clear()
        tracemalloc.start()
        try:
            resid = verify_closure(MatrixAlgebra(len(gens[0]), basis), generators=gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert resid < 1e-12
        assert peak < copies * sum(b.nbytes for b in basis), copies
    assert len(calls) <= 17  # the last case's, the diagonal units


def test_decompose_takes_no_svd_for_a_sector_leading_block(monkeypatch):
    """Block 0 of a sector is its own reference, so decompose takes one SVD
    per other block: sum (d_J - 1) in all."""
    real = np.linalg.svd
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    mats, P = _compressed_weight1()
    cases = ((close_algebra(error_set(mats + [P])), 0),
             (close_algebra(error_set(_collective(5))), 5 + 3 + 1))
    monkeypatch.setattr(np.linalg, "svd", spy)
    for alg, want in cases:
        calls.clear()
        dec = decompose(alg)
        assert len(calls) == sum(s.d_J - 1 for s in dec.sectors) == want


@pytest.mark.parametrize("seed", [1, 7, 12345])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_generator_is_block_diagonal_in_the_isometries(n, seed):
    gens = _collective(n)
    cfg = DEFAULT_CONFIG.override(seed=seed)
    dec = decompose(close_algebra(error_set(gens), cfg), cfg)
    for s in dec.sectors:
        for g in gens:
            assert block_structure_residual(s, g)[0] < 1e-8


# ------------------------------------------- decompose read off the commutant

def _haar(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _commutant_path_only(monkeypatch):
    """Send every error set down the commutant path, small algebras too, and
    fail the test if decompose closes the whole algebra: the commutant path
    must answer on its own."""
    from nsslab import algebra

    def refuse(*args, **kwargs):
        raise AssertionError("decompose fell back to the closure")
    monkeypatch.setattr(algebra, "_SMALL_ALGEBRA_DIM", 0)
    monkeypatch.setattr(algebra, "close_algebra", refuse)


def _assert_sectors_hold_the_generators(dec, gens):
    """Orthonormal isometries that fill the space, and every generator of
    the form 1_n (x) M on each, with nothing outside the sectors."""
    W = np.concatenate([s.isometry for s in dec.sectors], axis=1)
    assert np.linalg.norm(W.conj().T @ W - np.eye(dec.dim)) < 1e-10
    for g in gens:
        blocks = sum(s.isometry @ np.kron(np.eye(s.n_J), block_structure_residual(s, g)[1])
                     @ s.isometry.conj().T for s in dec.sectors)
        assert np.linalg.norm(g - blocks) < 1e-8 * max(1.0, np.linalg.norm(g))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_error_set_decompose_gives_the_schur_weyl_shapes(n, monkeypatch):
    """Collective noise on n qubits, in a Haar frame, is read off the
    commutant with no closure of the whole algebra: spin J = n/2 - k has
    d_J = 2J + 1 = n - 2k + 1 and n_J = C(n, k) - C(n, k - 1)."""
    from math import comb

    U = _haar(np.random.default_rng(n), 2**n)
    gens = [U @ g @ U.conj().T for g in _collective(n)]
    _commutant_path_only(monkeypatch)
    dec = decompose(error_set(gens))
    want = sorted((comb(n, k) - (comb(n, k - 1) if k else 0), n - 2 * k + 1)
                  for k in range(n // 2 + 1))
    assert dec.sector_shapes == want
    assert dec.total_dim == 2**n
    _assert_sectors_hold_the_generators(dec, gens)


def _planted(rng, blocks, hermitian, count=2):
    """`count` generators sum over blocks (n, m) of 1_n (x) A, A a random
    m x m matrix (Hermitian if asked), in a Haar frame."""
    d = sum(n * m for n, m in blocks)
    U = _haar(rng, d)
    gens = []
    for _ in range(count):
        g, at = np.zeros((d, d), dtype=complex), 0
        for n, m in blocks:
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            g[at:at + n * m, at:at + n * m] = np.kron(np.eye(n), a + a.conj().T if hermitian else a)
            at += n * m
        gens.append(U @ g @ U.conj().T)
    return gens


@pytest.mark.parametrize("blocks, hermitian", [
    # scalars (x) 1: A = C 1 and A' = M(4), where L X0 is rounding noise
    ([(4, 1)], False),
    ([(4, 1)], True),
    # a scalar sector beside M(2) and M(3)
    ([(3, 1), (1, 2), (2, 3)], True),
    # two scalar sectors and two M(2) sectors: inequivalent, of equal d_J
    ([(2, 1), (3, 1), (1, 2), (2, 2)], False),
    ([(1, 3), (2, 3)], False),
    ([(1, 1), (1, 1), (2, 2), (1, 3)], True),
    # a small generic pair: irreducible, A' = C 1
    ([(1, 6)], False),
])
def test_error_set_decompose_finds_planted_blocks(blocks, hermitian, monkeypatch):
    rng = np.random.default_rng(len(blocks) * 10 + hermitian)
    gens = _planted(rng, blocks, hermitian)
    _commutant_path_only(monkeypatch)
    dec = decompose(error_set(gens))
    assert dec.sector_shapes == sorted(blocks)
    _assert_sectors_hold_the_generators(dec, gens)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_small_error_sets())
def test_error_set_decompose_matches_the_closure_on_random_error_sets(case):
    """The commutant path, small algebras included, and the closed-algebra
    path agree on the shapes, and on the planted ones where there are some."""
    from nsslab import algebra

    gens, planted = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_SMALL_ALGEBRA_DIM", 0)
        dec = decompose(error_set(gens))
    assert dec.sector_shapes == decompose(close_algebra(error_set(gens))).sector_shapes
    if planted is not None:
        assert dec.sector_shapes == planted
    _assert_sectors_hold_the_generators(dec, gens)


@pytest.mark.parametrize("failure", ["budget", "certificate"])
def test_error_set_decompose_falls_back_to_the_closure_bit_for_bit(failure, monkeypatch):
    """With no solver steps, or with a certificate that fails, decompose of
    an error set is decompose of its closure, byte for byte: the commutant
    draws take streams of their own, so the closure path draws as before."""
    from nsslab import algebra

    es = error_set(_collective(4))
    want = decompose(close_algebra(es))
    closures = []
    close = algebra._close

    def spy(live, d, cap=np.inf):
        if d == es.dim and cap == np.inf:  # a closure of the whole algebra
            closures.append(1)
        return close(live, d, cap)

    monkeypatch.setattr(algebra, "_close", spy)
    assert decompose(es).sector_shapes == want.sector_shapes and not closures
    if failure == "budget":
        monkeypatch.setattr(algebra, "_CG_STEPS_PER_DIM", 0)
    else:
        monkeypatch.setattr(algebra, "_certified", lambda *args: False)
    got = decompose(es)
    assert closures == [1]
    assert len(got.sectors) == len(want.sectors)
    for a, b in zip(got.sectors, want.sectors):
        assert (a.label, a.n_J, a.d_J) == (b.label, b.n_J, b.d_J)
        assert a.isometry.tobytes() == b.isometry.tobytes()
        assert a.central_projector.tobytes() == b.central_projector.tobytes()


def test_error_set_decompose_is_byte_identical_for_a_seed():
    """One seed gives the same bytes on a rerun; another seed moves the gauge
    of the isometries, not the shapes."""
    gens = [g * (1 + 1j) for g in _collective(5)]
    reports = {}
    for seed in (1, 7):
        cfg = DEFAULT_CONFIG.override(seed=seed)
        reports[seed] = [decomposition_to_json(decompose(error_set(gens), cfg))
                         for _ in range(2)]
        assert reports[seed][0] == reports[seed][1]
    shapes = [json.loads(r[0])["sector_shapes"] for r in reports.values()]
    assert shapes == [[[1, 6], [4, 4], [5, 2]]] * 2
    assert reports[1][0] != reports[7][0]


def test_the_commutant_certificate_refuses_wrong_sectors():
    """`_certified` accepts the sectors of collective noise on 3 qubits and
    refuses the same space cut wrongly: the two copies of the spin-1/2
    sector as two sectors (equivalent, so their sum closes at 4, not 8), or
    an isometry turned off the sector by 1e-6.  sigma_z +- c sigma_x each
    lie c (relative) off the diagonal sectors, but the closure sees their
    difference, so the certificate holds the sum, 2c, to 1e-10."""
    from nsslab import algebra
    from nsslab.algebra import Sector

    gens = algebra._scaled(_collective())
    dec = decompose(error_set(_collective()))
    assert algebra._certified(gens, dec.sectors)
    big, half = sorted(dec.sectors, key=lambda s: -s.d_J)
    assert (half.n_J, half.d_J) == (2, 2)
    copies = [Sector(k, None, 1, 2, half.isometry[:, 2 * k:2 * k + 2]) for k in range(2)]
    assert not algebra._certified(gens, [big] + copies)
    turn = np.eye(8) + 1e-6 * np.roll(np.eye(8), 1, axis=0)
    tilted = Sector(0, None, 2, 2, np.linalg.qr(turn @ half.isometry)[0])
    assert not algebra._certified(gens, [big, tilted])
    units = [Sector(k, None, 1, 1, np.eye(2)[:, k:k + 1]) for k in range(2)]
    for c, certified in ((4e-11, True), (6e-11, False)):
        pair = algebra._scaled([_SZ + c * _SX, _SZ - c * _SX])
        assert algebra._certified(pair, units) is certified

