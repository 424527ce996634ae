"""Symplectic Pauli arithmetic against an independent dense-matrix oracle."""

import numpy as np
import pytest

from nsslab import gf2
from nsslab.config import ResourceLimitError
from nsslab.pauli import (
    _coset_dense,
    _coset_states,
    _coset_sum,
    PauliOp,
    apply_to_vector,
    commutes,
    format_pauli,
    identity,
    multiply,
    parse_pauli,
    single,
    to_dense,
    weight,
)

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _dense_oracle(op: PauliOp) -> np.ndarray:
    """i^phase * prod_q X^{x_q} Z^{z_q} built by an explicit kron chain.

    Qubit 0 is the least-significant index bit, so the chain runs from the
    highest qubit down.
    """
    out = np.array([[1.0 + 0j]])
    for q in range(op.n - 1, -1, -1):
        site = _I2
        if op.z_bits >> q & 1:
            site = _Z @ site
        if op.x_bits >> q & 1:
            site = _X @ site
        out = np.kron(out, site)
    return 1j**op.phase * out


def _random_op(rng, n: int) -> PauliOp:
    return PauliOp(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                   int(rng.integers(0, 4)))


def test_single_site_matrices_match_their_definitions():
    assert np.array_equal(to_dense(single(1, 0, "X")), _X)
    assert np.array_equal(to_dense(single(1, 0, "Y")), _Y)
    assert np.array_equal(to_dense(single(1, 0, "Z")), _Z)
    assert np.array_equal(to_dense(identity(2)), np.eye(4))


def test_single_rejects_bad_arguments():
    with pytest.raises(ValueError):
        single(2, 0, "W")
    with pytest.raises(ValueError):
        single(2, 5, "X")


def test_constructor_validates_fields():
    with pytest.raises(ValueError):
        PauliOp(0, 0, 0)
    with pytest.raises(ValueError):
        PauliOp(2, 1 << 2, 0)
    with pytest.raises(ValueError):
        PauliOp(2, 0, -1)
    assert PauliOp(2, 0, 0, 4).phase == 0
    assert PauliOp(2, 1, 0, -1).phase == 3


def test_multiply_matches_dense_oracle_randomized():
    rng = np.random.default_rng(20240817)
    for n in (1, 2, 3, 4):
        for _ in range(40):
            a, b = _random_op(rng, n), _random_op(rng, n)
            got = to_dense(multiply(a, b))
            want = _dense_oracle(a) @ _dense_oracle(b)
            assert np.allclose(got, want), (a, b)


def test_multiply_is_associative_and_unital():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, c = (_random_op(rng, 3) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, identity(3)) == a
        assert multiply(identity(3), a) == a


def test_adjoint_matches_dense_and_squares_to_identity():
    rng = np.random.default_rng(99)
    for _ in range(50):
        a = _random_op(rng, 3)
        assert np.allclose(to_dense(a.adjoint()), _dense_oracle(a).conj().T)
        assert multiply(a.adjoint(), a) == identity(3)


def test_commutes_matches_dense_commutator():
    rng = np.random.default_rng(5)
    for _ in range(60):
        a, b = _random_op(rng, 3), _random_op(rng, 3)
        da, db = _dense_oracle(a), _dense_oracle(b)
        dense_commute = np.allclose(da @ db, db @ da)
        assert commutes(a, b) == dense_commute


def test_weight_counts_non_identity_sites():
    assert weight(identity(5)) == 0
    assert weight(single(5, 2, "Y")) == 1
    op = PauliOp(4, 0b0110, 0b0011)  # sites: 0 Z, 1 Y, 2 X
    assert weight(op) == 3


def test_to_dense_matches_oracle_and_respects_cap():
    """Every Pauli on up to three qubits is the oracle's matrix, float64 for
    each X/Z string with an even phase and complex128 with a Y or an odd
    phase."""
    for n in (1, 2, 3):
        for x in range(1 << n):
            for z in range(1 << n):
                for phase in range(4):
                    a = PauliOp(n, x, z, phase)
                    dense = to_dense(a)
                    real = not x & z and phase % 2 == 0
                    assert dense.dtype == (np.float64 if real else np.complex128), a
                    assert np.array_equal(dense, _dense_oracle(a)), a
    with pytest.raises(ResourceLimitError):
        to_dense(identity(13))


def test_format_parse_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = _random_op(rng, 4)
        assert parse_pauli(format_pauli(a)) == a


def test_format_uses_y_for_overlapping_bits():
    op = multiply(single(2, 0, "X"), single(2, 0, "Z"))  # X Z = -i Y
    assert format_pauli(op) == "-iYI"
    assert format_pauli(single(3, 1, "Z")) == "+IZI"


def test_parse_rejects_malformed_strings():
    for bad in ("", "+", "XQ", "+iW", "*XX", "+X I"):
        with pytest.raises(ValueError):
            parse_pauli(bad)
    with pytest.raises(ValueError, match="bad phase prefix"):
        parse_pauli("+-X")


def test_apply_to_vector_matches_dense_matmul():
    rng = np.random.default_rng(42)
    for _ in range(30):
        a = _random_op(rng, 3)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.allclose(apply_to_vector(a, v), _dense_oracle(a) @ v)
    # column stacks
    a = _random_op(rng, 3)
    V = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    assert np.allclose(apply_to_vector(a, V), _dense_oracle(a) @ V)


def test_apply_to_vector_rejects_wrong_length():
    with pytest.raises(ValueError):
        apply_to_vector(identity(3), np.ones(7))


def test_square_has_zero_bit_parts():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = _random_op(rng, 4)
        sq = multiply(a, a)
        assert sq.x_bits == 0 and sq.z_bits == 0


def test_crossing_parities_add_under_multiplication():
    rng = np.random.default_rng(23)
    for _ in range(60):
        a, b, c = (_random_op(rng, 4) for _ in range(3))
        lhs = commutes(multiply(a, b), c)
        rhs = not (commutes(a, c) ^ commutes(b, c))
        assert lhs == rhs


def _hermitian_sum(rng, n, with_y):
    """Random Hermitian Pauli sum; without Y every term is a real matrix."""
    terms = []
    for k in range(12):
        x, z = int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))
        if not with_y:
            z &= ~x
        elif k == 0:
            x |= 1
            z |= 1   # at least one Y
        # i^p X Z is Hermitian iff p = |x & z| mod 2
        phase = (x & z).bit_count() + 2 * int(rng.integers(0, 2))
        terms.append((PauliOp(n, x, z, phase), float(rng.standard_normal())))
    return terms


def test_pauli_sum_kernels_match_the_kronecker_oracle():
    from nsslab.verify import _dense_hamiltonian, _matfree_operator

    rng = np.random.default_rng(7)
    for n in (4, 7, 10):
        for with_y in (False, True):
            terms = _hermitian_sum(rng, n, with_y)
            want = sum(c * _dense_oracle(op) for op, c in terms)
            H = _dense_hamiltonian(n, terms)
            assert H.dtype == (complex if with_y else np.float64)
            assert np.abs(H - want).max() < 1e-12
            A = _matfree_operator(n, terms)
            assert A.dtype == H.dtype
            v = rng.standard_normal(1 << n)
            if with_y:
                v = v + 1j * rng.standard_normal(1 << n)
            got = A.matvec(v)
            assert got.dtype == H.dtype
            assert np.abs(got - want @ v).max() < 1e-11


def _planted_sum(rng, n, with_y):
    """Random Hermitian Pauli sum whose X parts lie in the span of r < n
    random vectors, so every Z string orthogonal to them is a symmetry.
    Each X pattern is used twice.  Returns the terms and an independent
    basis of the span."""
    r, basis = int(rng.integers(1, n)), []
    while len(basis) < r:
        b = int(rng.integers(1, 1 << n))
        if gf2.rank(basis + [b]) > len(basis):
            basis.append(b)
    terms = []
    for k in range(8):
        x = 0
        for b in basis:
            x ^= b * int(rng.integers(0, 2))
        for _ in range(2):
            z = int(rng.integers(0, 1 << n))
            if not with_y:
                z &= ~x
            elif k == 0:
                x = x or basis[0]
                z |= x & -x   # at least one Y
            phase = (x & z).bit_count() + 2 * int(rng.integers(0, 2))
            terms.append((PauliOp(n, x, z, phase), float(rng.standard_normal())))
    return terms, basis


def test_coset_kernel_matches_the_restricted_kronecker_oracle():
    from nsslab.verify import _sparse_operator

    rng = np.random.default_rng(11)
    for n in (4, 7, 10):
        for with_y in (False, True):
            terms, basis = _planted_sum(rng, n, with_y)
            z0 = int(rng.integers(0, 1 << n))
            states = _coset_states(z0, basis)
            dim = 1 << len(basis)
            assert len(set(states.tolist())) == dim
            full = sum(c * _dense_oracle(op) for op, c in terms)
            outside = np.setdiff1d(np.arange(1 << n), states)
            assert np.abs(full[np.ix_(outside, states)]).max(initial=0.0) == 0.0
            want = full[np.ix_(states, states)]
            groups = _coset_sum(terms, z0, basis)
            assert len(groups) == len({op.x_bits for op, _ in terms})
            block = _coset_dense(groups, dim)
            assert block.dtype == (complex if with_y else np.float64)
            assert np.abs(block - want).max() < 1e-12
            v = rng.standard_normal(dim)
            if with_y:
                v = v + 1j * rng.standard_normal(dim)
            got = _sparse_operator(groups, dim).matvec(v)
            assert np.abs(got - want @ v).max() < 1e-12


def test_coset_kernel_refuses_terms_that_leave_the_coset():
    with pytest.raises(ValueError, match="leaves the coset"):
        _coset_sum([(PauliOp(3, 0b100, 0), 1.0)], 0, [0b001, 0b010])
    with pytest.raises(ValueError, match="not independent"):
        _coset_sum([(PauliOp(3, 0b011, 0), 1.0)], 0, [0b001, 0b010, 0b011])
