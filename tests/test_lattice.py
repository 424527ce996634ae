"""Torus lattice geometry, check structure, homology, and the dense sector
label (`verify.sector_of`) of the code basis."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsslab import gf2
from nsslab.lattice import (
    SectorLabel,
    TorusLattice,
    build_torus,
    check_rank,
    code_dimension,
    homology_basis,
    stabilizer_expansion,
    syndrome,
)
from nsslab.pauli import PauliOp, commutes, multiply, weight
from nsslab.verify import SECTOR_ORDER, NotAnEigenstateError, code_basis, sector_of


def _rank_oracle(rows, width) -> int:
    """Independent mod-2 elimination on an explicit 0/1 matrix."""
    M = np.array([[r >> j & 1 for j in range(width)] for r in rows], dtype=np.uint8)
    rank = 0
    for col in range(width):
        piv = next((r for r in range(rank, M.shape[0]) if M[r, col]), None)
        if piv is None:
            continue
        M[[rank, piv]] = M[[piv, rank]]
        for r in range(M.shape[0]):
            if r != rank and M[r, col]:
                M[r] ^= M[rank]
        rank += 1
    return rank


def test_build_torus_rejects_thin_lattices():
    for bad in ((1, 2), (2, 1), (0, 5)):
        with pytest.raises(ValueError):
            build_torus(*bad)


def test_edge_index_is_a_bijection_with_coords():
    lat = build_torus(3, 4)
    seen = set()
    for r in range(3):
        for c in range(4):
            for d in (0, 1):
                e = lat.edge_index(r, c, d)
                assert lat.edge_coords(e) == (r, c, d)
                seen.add(e)
    assert seen == set(range(lat.n_qubits))


def test_every_edge_touches_two_stars_and_two_plaquettes():
    lat = build_torus(3, 3)
    for e in range(lat.n_qubits):
        in_stars = sum(1 for s in lat.vertex_stars if s.x_bits >> e & 1)
        in_plaqs = sum(1 for p in lat.plaquette_checks if p.z_bits >> e & 1)
        assert in_stars == 2 and in_plaqs == 2
        a, b = lat.edge_vertices(e)
        assert lat.vertex_stars[a].x_bits >> e & 1
        assert lat.vertex_stars[b].x_bits >> e & 1
        fa, fb = lat.edge_faces(e)
        assert lat.plaquette_checks[fa].z_bits >> e & 1
        assert lat.plaquette_checks[fb].z_bits >> e & 1


def test_checks_have_weight_four_and_commute_pairwise():
    lat = build_torus(2, 3)
    checks = list(lat.vertex_stars) + list(lat.plaquette_checks)
    for ch in checks:
        assert weight(ch) == 4
    for a, b in itertools.combinations(checks, 2):
        assert commutes(a, b)


def test_check_rank_matches_independent_oracle_and_code_dimension():
    for L1, L2 in ((2, 2), (2, 3), (3, 3), (3, 4)):
        lat = build_torus(L1, L2)
        rows = lat.check_symplectic_rows()
        oracle = _rank_oracle(rows, 2 * lat.n_qubits)
        assert check_rank(lat) == oracle == 2 * L1 * L2 - 2
        assert code_dimension(lat) == 4


def test_homology_loops_commute_with_checks_but_are_not_products_of_them():
    lat = build_torus(3, 3)
    checks = list(lat.vertex_stars) + list(lat.plaquette_checks)
    for lo in homology_basis(lat):
        for ch in checks:
            assert commutes(lo.op, ch)
        # a Z loop expands only with a loop factor, an X loop not at all
        expansion = stabilizer_expansion(lat, lo.op)
        assert expansion is None or any(expansion[1])


def test_homology_pairing_is_the_cross_pattern():
    lat = build_torus(2, 2)
    loops = homology_basis(lat)
    by_name = {lo.homology_class: lo.op for lo in loops}
    anti = {("g1_Z", "g2_X"), ("g2_Z", "g1_X")}
    for a, b in itertools.combinations(by_name, 2):
        expect_commute = (a, b) not in anti and (b, a) not in anti
        assert commutes(by_name[a], by_name[b]) == expect_commute, (a, b)


def test_loop_weights_are_minimal_straight_lines():
    lat = build_torus(2, 4)
    by_name = {lo.homology_class: lo.op for lo in homology_basis(lat)}
    assert weight(by_name["g1_Z"]) == 4  # along row 0: L2 edges
    assert weight(by_name["g2_Z"]) == 2  # along column 0: L1 edges
    assert weight(by_name["g1_X"]) == 4
    assert weight(by_name["g2_X"]) == 2


def test_no_shorter_noncontractible_z_cycle_exists_at_l2():
    """Exhaustive over all Z-type bit patterns on the 2x2 torus: every
    cycle (commutes with all stars) of weight below L is contractible."""
    lat = build_torus(2, 2)
    n = lat.n_qubits
    shortest = None
    for bits in range(1, 1 << n):
        op = PauliOp(n, 0, bits)
        if any(not commutes(op, s) for s in lat.vertex_stars):
            continue
        # a Z cycle expands in checks and Z loops; it wraps when a loop is used
        if any(stabilizer_expansion(lat, op)[1]):
            w = weight(op)
            shortest = w if shortest is None else min(shortest, w)
    assert shortest == 2  # = min(L1, L2)


def test_normalizer_quotient_has_order_sixteen():
    """checks plus the four loops are GF(2)-independent: the loop group
    contributes 2^4 = 16 logical cosets."""
    lat = build_torus(3, 2)
    n = lat.n_qubits
    rows = lat.check_symplectic_rows()
    loop_rows = [(lo.op.x_bits << n) | lo.op.z_bits for lo in homology_basis(lat)]
    assert _rank_oracle(rows + loop_rows, 2 * n) == check_rank(lat) + 4


def _expansion_oracle(lat, op):
    """The elimination the commutation test replaced: solve op's symplectic
    vector over the checks and the two Z loops, and read the loop flags off
    the last two bits of the combination."""
    n = lat.n_qubits
    gens = list(lat.vertex_stars) + list(lat.plaquette_checks) + \
        [lo.op for lo in homology_basis(lat)[:2]]
    (combo,) = gf2.solve([(g.x_bits << n) | g.z_bits for g in gens],
                         [(op.x_bits << n) | op.z_bits])
    if combo is None:
        return None
    loop_bits = combo >> (len(gens) - 2)
    return op.phase, (bool(loop_bits & 1), bool(loop_bits & 2))


def test_stabilizer_expansion_recovers_planted_products():
    rng = np.random.default_rng(11)
    for L1, L2 in ((2, 2), (2, 3), (3, 3)):
        lat = build_torus(L1, L2)
        n = lat.n_qubits
        loops = [lo.op for lo in homology_basis(lat)]
        checks = list(lat.vertex_stars) + list(lat.plaquette_checks)
        for _ in range(20):
            flags = tuple(bool(b) for b in rng.integers(0, 2, 2))
            phase = int(rng.integers(0, 4))
            factors = [ch for ch in checks if rng.integers(0, 2)]
            factors += [lo for lo, f in zip(loops[:2], flags) if f]
            op = PauliOp(n, 0, 0, phase)
            for k in rng.permutation(len(factors)):
                op = multiply(op, factors[k])
            assert stabilizer_expansion(lat, op) == (phase, flags)
            # an X loop or an open string takes op out of the group
            for off in (loops[2], loops[3], PauliOp(n, 0, 1 << int(rng.integers(0, n))),
                        PauliOp(n, 1 << int(rng.integers(0, n)), 0)):
                assert stabilizer_expansion(lat, multiply(op, off)) is None
    # arbitrary Paulis against the elimination oracle; every third one is a
    # random group element, so that every outcome occurs
    for L1, L2 in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4)):
        lat = build_torus(L1, L2)
        n = lat.n_qubits
        gens = list(lat.vertex_stars) + list(lat.plaquette_checks) + \
            [lo.op for lo in homology_basis(lat)[:2]]
        outcomes = set()
        for k in range(300):
            if k % 3:
                op = PauliOp(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                             int(rng.integers(0, 4)))
            else:
                op = PauliOp(n, 0, 0, int(rng.integers(0, 4)))
                for g in gens:
                    if rng.integers(0, 2):
                        op = multiply(op, g)
            expect = _expansion_oracle(lat, op)
            assert stabilizer_expansion(lat, op) == expect
            outcomes.add(None if expect is None else expect[1])
        assert outcomes == {None, (False, False), (True, False), (False, True), (True, True)}
    with pytest.raises(ValueError):
        stabilizer_expansion(build_torus(2, 2), PauliOp(4, 0, 0))


def _syndrome_oracle(lat, op):
    """One `commutes` per frame generator: the checks (stars, then
    plaquettes) and the loops in homology_basis order."""
    checks = lat.vertex_stars + lat.plaquette_checks
    return (sum(1 << k for k, ch in enumerate(checks) if not commutes(op, ch)),
            sum(1 << i for i, lo in enumerate(homology_basis(lat)) if not commutes(op, lo.op)))


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 5)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_syndrome_matches_one_commutation_per_generator(shape, data):
    """Random Paulis of every weight 0..n, with random phases, against the
    per-generator oracle: weight w takes the first w qubits of one random
    order, each with a random letter."""
    lat = build_torus(*shape)
    n = lat.n_qubits
    order = data.draw(st.permutations(range(n)))
    letters = data.draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))
    phases = data.draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))
    for w in range(n + 1):
        x = sum(1 << q for q, kind in zip(order[:w], letters) if kind in "XY")
        z = sum(1 << q for q, kind in zip(order[:w], letters) if kind in "YZ")
        op = PauliOp(n, x, z, phases[w])
        assert weight(op) == w
        assert syndrome(lat, op) == _syndrome_oracle(lat, op)


def test_syndrome_refuses_a_qubit_count_mismatch_and_reads_stored_loops():
    lat = build_torus(2, 2)
    for n in (4, 9):
        with pytest.raises(ValueError, match="qubit count mismatch"):
            syndrome(lat, PauliOp(n, 0, 1))
    # the loops are built once, with the lattice; homology_basis only names them
    assert all(a is b for a, b in zip(homology_basis(lat), homology_basis(lat)))
    assert [lo.homology_class for lo in homology_basis(lat)] == \
        ["g1_Z", "g2_Z", "g1_X", "g2_X"]


def test_sector_label_validation():
    SectorLabel((1, -1))
    with pytest.raises(ValueError):
        SectorLabel((1, 0))
    with pytest.raises(ValueError):
        SectorLabel((1, 1, 1))


def test_sector_of_labels_the_code_basis_columns():
    lat = build_torus(2, 2)
    basis = code_basis(lat)
    for k, expect in enumerate(SECTOR_ORDER):
        assert sector_of(lat, basis[:, k]).j == expect


def test_sector_of_rejects_non_eigenstates_and_zero():
    lat = build_torus(2, 2)
    basis = code_basis(lat)
    mixed = (basis[:, 0] + basis[:, 1]) / np.sqrt(2)
    with pytest.raises(NotAnEigenstateError):
        sector_of(lat, mixed)
    with pytest.raises(NotAnEigenstateError):
        sector_of(lat, np.zeros(256))


def test_lattice_equality_is_structural():
    assert build_torus(2, 3) == build_torus(2, 3)
    assert build_torus(2, 3) != build_torus(3, 2)
    assert isinstance(build_torus(2, 2), TorusLattice)
