"""Anyon creation, transport, braiding, and fusion.

Independent oracles: on the 2x2 torus every state is cross-checked against
the dense vector obtained by replaying the raw edge operators on the
reference code vector, and every check sign and frame sign against a dense
expectation value.  Braiding phases come out of exact symplectic arithmetic
and must match dense overlaps.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsslab import (
    DEFAULT_CONFIG,
    InvalidFusionError,
    InvalidMoveError,
    PathNotFoundError,
    braid,
    build_torus,
    create_pair,
    dense_state,
    format_pauli,
    fuse,
    ground_state,
    move_anyon,
    relative_phase,
    run_trajectory,
    sector_of,
)
from nsslab import anyon, gf2
from nsslab.anyon import _rectangle_cycle, _rectangle_steps, _rectangle_tables
from nsslab.lattice import homology_basis, syndrome
from nsslab.pauli import PauliOp, apply_to_vector, commutes
from nsslab.verify import SECTOR_ORDER, code_basis


def _check_signs(state):
    """Signs of all stars then all plaquettes, from the syndrome of the
    applied word: one per edge on a torus."""
    checks, _ = syndrome(state.lat, state.applied)
    return tuple(-1 if checks >> k & 1 else 1 for k in range(state.lat.n_qubits))


def _signed_generators(state):
    """(op, sign) for every star, every plaquette and the two Z loops, read
    from _check_signs and frame_signs."""
    lat = state.lat
    checks = list(lat.vertex_stars) + list(lat.plaquette_checks)
    loops = homology_basis(lat)[:2]
    return (list(zip(checks, _check_signs(state))) +
            [(lo.op, state.frame_signs[lo.homology_class]) for lo in loops])


def _assert_valid_signs(state):
    """The signs describe a stabilizer state: each is +-1, the stars and the
    plaquettes each multiply to +1, and the signed operators commute and
    generate a group of rank n."""
    lat = state.lat
    n = lat.n_qubits
    rows = _signed_generators(state)
    assert all(sign in (-1, 1) for _, sign in rows)
    cells = lat.L1 * lat.L2
    signs = _check_signs(state)
    assert np.prod(signs[:cells]) == np.prod(signs[cells:]) == 1
    ops = [op for op, _ in rows]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert commutes(ops[i], ops[j])
    assert gf2.rank([(op.x_bits << n) | op.z_bits for op in ops]) == n


def _assert_dense_consistent(state):
    """Every check sign and both frame signs are exact dense expectation
    values."""
    v = dense_state(state)
    assert abs(np.linalg.norm(v) - 1) < 1e-10
    for op, sign in _signed_generators(state):
        val = np.vdot(v, apply_to_vector(op, v))
        assert abs(val - sign) < 1e-10, format_pauli(op)


def _assert_sector(state, sector):
    """The frame signs are the sector label, and match the loop eigenvalues
    of the dense state vector (2x2 only)."""
    assert state.frame_signs == {"g1_Z": sector[0], "g2_Z": sector[1]}
    assert tuple(sector_of(state.lat, dense_state(state)).j) == tuple(sector)


def _replay_dense(lat, sector, raw_ops):
    """Oracle state vector: raw edge operators applied in order, no
    absorption bookkeeping."""
    basis = code_basis(lat)
    v = basis[:, SECTOR_ORDER.index(sector)]
    for op in raw_ops:
        v = apply_to_vector(op, v)
    return v


def test_ground_state_is_clean():
    lat = build_torus(2, 2)
    s = ground_state(lat)
    assert s.energy == 0 and s.anyons == ()
    assert s.accumulated_phase == 1
    _assert_sector(s, (1, 1))
    _assert_valid_signs(s)
    _assert_dense_consistent(s)


def test_creation_places_a_defect_pair():
    lat = build_torus(2, 2)
    s = create_pair(ground_state(lat), "e", 0)
    assert s.energy == 2
    assert len(s.anyons) == 2
    a, b = s.anyons
    assert a.kind == b.kind == "e" and a.pair_id == b.pair_id
    assert {a.position, b.position} == set(lat.edge_vertices(0))
    _assert_valid_signs(s)
    _assert_dense_consistent(s)

    m = create_pair(ground_state(lat), "m", 3)
    assert m.energy == 2
    assert {an.position for an in m.anyons} == set(lat.edge_faces(3))
    _assert_dense_consistent(m)


def test_creation_validation():
    lat = build_torus(2, 2)
    s = ground_state(lat)
    with pytest.raises(ValueError):
        create_pair(s, "q", 0)
    with pytest.raises(ValueError):
        create_pair(s, "e", lat.n_qubits)
    s = create_pair(s, "e", 0)
    with pytest.raises(InvalidMoveError):
        create_pair(s, "e", 1)  # shares the vertex at (0, 0)


def test_energy_through_a_full_trajectory():
    lat = build_torus(2, 2)
    s = ground_state(lat)
    energies = [s.energy]
    s = create_pair(s, "e", 0)
    energies.append(s.energy)
    s = create_pair(s, "m", 3)
    energies.append(s.energy)
    s = move_anyon(s, 0, [1])  # vertex (0,0) -> (1,0)
    energies.append(s.energy)
    s = move_anyon(s, 0, [1])  # and back
    energies.append(s.energy)
    s = fuse(s, 0, 1)
    energies.append(s.energy)
    s = fuse(s, 0, 1, via=3)  # the m pair, on its creation edge
    energies.append(s.energy)
    assert energies == [0, 2, 4, 4, 4, 2, 0]
    assert s.anyons == ()
    _assert_sector(s, (1, 1))
    _assert_dense_consistent(s)


def test_move_validation():
    lat = build_torus(2, 2)
    s = create_pair(ground_state(lat), "e", 0)
    with pytest.raises(ValueError):
        move_anyon(s, 5, [1])
    with pytest.raises(InvalidMoveError):
        move_anyon(s, 0, [])
    with pytest.raises(InvalidMoveError):
        move_anyon(s, 0, [6])  # edge (1,1,0) is not incident to vertex (0,0)
    for bad in (-1, lat.n_qubits, 15):  # edge 15 would join vertices 7 and 1
        with pytest.raises(ValueError, match="edge index out of range"):
            move_anyon(s, 1, [bad])
    moved = move_anyon(s, 0, [1])
    assert moved.anyons[0].position == 2  # vertex (1,0)


def test_operations_do_not_mutate_their_input():
    lat = build_torus(2, 2)
    s = create_pair(ground_state(lat), "e", 0)
    before = (s.applied, s.anyons, s.accumulated_phase)
    move_anyon(s, 0, [1])
    fuse(s, 0, 1)
    assert (s.applied, s.anyons, s.accumulated_phase) == before


def test_contractible_transport_is_homotopy_trivial():
    """Walking an anyon around any contractible cycle leaves the state
    exactly unchanged: same word, same signs, relative phase +1."""
    lat = build_torus(3, 3)
    base = create_pair(ground_state(lat), "e", 0)

    def face_cycle(r, c):
        # boundary of face (r,c) starting at vertex (r,c): right, down, right, down
        return [lat.edge_index(r, c, 0), lat.edge_index(r, c + 1, 1),
                lat.edge_index(r + 1, c, 0), lat.edge_index(r, c, 1)]

    around_one = move_anyon(base, 0, face_cycle(0, 0))
    # 1x2 rectangle: right, right, down, left, left, up
    bigger = move_anyon(base, 0, [
        lat.edge_index(0, 0, 0), lat.edge_index(0, 1, 0), lat.edge_index(0, 2, 1),
        lat.edge_index(1, 1, 0), lat.edge_index(1, 0, 0), lat.edge_index(0, 0, 1)])
    for looped in (around_one, bigger):
        assert looped.applied == base.applied
        assert looped.anyons == base.anyons
        assert looped.accumulated_phase == base.accumulated_phase
        assert relative_phase(looped, base) == 1
        assert _check_signs(looped) == _check_signs(base)
        assert looped.frame_signs == base.frame_signs


def test_braid_opposite_types_gives_minus_one():
    lat = build_torus(2, 2)
    s = create_pair(ground_state(lat), "e", 0)
    s = create_pair(s, "m", 3)
    plain = s
    braided = braid(s, 0, 2)  # e around the m at face (0,1)
    assert [a.position for a in braided.anyons] == [a.position for a in plain.anyons]
    assert relative_phase(braided, plain) == -1
    # dense overlap is the same exact -1
    overlap = np.vdot(dense_state(plain), dense_state(braided))
    assert abs(overlap + 1) < 1e-10
    _assert_valid_signs(braided)
    _assert_dense_consistent(braided)

    double = braid(braided, 0, 2)
    assert relative_phase(double, plain) == 1

    reverse = braid(plain, 2, 0)  # m around the e instead
    assert relative_phase(reverse, plain) == -1


def test_braid_same_type_is_trivial():
    lat = build_torus(3, 3)
    s = create_pair(ground_state(lat), "e", 0)       # vertices (0,0), (0,1)
    s = create_pair(s, "e", lat.edge_index(1, 1, 0))  # vertices (1,1), (1,2)
    looped = braid(s, 0, 2)
    assert relative_phase(looped, s) == 1
    assert looped.applied == s.applied


def test_braid_validation_and_geometry_limits():
    lat = build_torus(2, 2)
    s = create_pair(ground_state(lat), "e", 0)
    s = create_pair(s, "e", 4)
    with pytest.raises(ValueError):
        braid(s, 0, 0)
    # a 2x2 torus has no rectangle with an interior vertex
    with pytest.raises(PathNotFoundError):
        braid(s, 0, 2)


def test_braid_and_fuse_refuse_bad_anyon_indices():
    """Negative or out-of-range indices are refused before any search, as
    in move_anyon: a negative index must not wrap to the last anyon."""
    lat = build_torus(4, 4)
    s = create_pair(ground_state(lat), "e", 0)
    s = create_pair(s, "m", lat.edge_index(2, 2, 1))
    for mover, around in ((0, -1), (-1, 2), (0, 4), (7, 0)):
        with pytest.raises(ValueError, match="no such anyon"):
            braid(s, mover, around)
    for a, b in ((0, -1), (-2, 3), (0, 4)):
        with pytest.raises(ValueError, match="no such anyon"):
            fuse(s, a, b)
    # valid indices still braid: e around the m, phase -1
    assert relative_phase(braid(s, 0, 2), s) == -1


# The full-scan braid as it stood before enclosure became offset arithmetic:
# nested-closure rectangle builder, per-candidate enclosed-cell lists.

def _old_rectangle_cycle(lat, kind, corner, dr, dc):
    r0, c0 = corner

    def node(r, c):
        return (r % lat.L1) * lat.L2 + (c % lat.L2)

    def step_edge(r, c, direction):
        if kind == "e":
            return lat.edge_index(r, c, 0 if direction == "right" else 1)
        if direction == "right":
            return lat.edge_index(r, c + 1, 1)
        return lat.edge_index(r + 1, c, 0)

    steps, nodes = [], []
    r, c = r0, c0
    for _ in range(dc):
        nodes.append(node(r, c))
        steps.append(step_edge(r, c, "right"))
        c += 1
    for _ in range(dr):
        nodes.append(node(r, c))
        steps.append(step_edge(r, c, "down"))
        r += 1
    for _ in range(dc):
        c -= 1
        nodes.append(node(r, c + 1))
        steps.append(step_edge(r, c, "right"))
    for _ in range(dr):
        r -= 1
        nodes.append(node(r + 1, c))
        steps.append(step_edge(r, c, "down"))
    return steps, nodes


def _old_enclosed_cells(lat, kind, corner, dr, dc):
    r0, c0 = corner
    shift = 1 if kind == "m" else 0
    dual = [((r0 + i + shift) % lat.L1) * lat.L2 + (c0 + j + shift) % lat.L2
            for i in range(dr) for j in range(dc)]
    interior = [((r0 + i) % lat.L1) * lat.L2 + (c0 + j) % lat.L2
                for i in range(1, dr) for j in range(1, dc)]
    return dual, interior


def _old_candidates(state, mover, around):
    """Every valid rectangle of the old scan, in its (dr, dc, r0, c0) order:
    (key, steps, nodes, corner)."""
    mv, tg = state.anyons[mover], state.anyons[around]
    lat = state.lat
    same_type = mv.kind == tg.kind
    same_positions = {an.position for k, an in enumerate(state.anyons)
                      if an.kind == mv.kind and k != mover}
    dual_anyons = {an.position for k, an in enumerate(state.anyons)
                   if an.kind != mv.kind and k != around}
    found = []
    for dr in range(1, lat.L1):
        for dc in range(1, lat.L2):
            for r0 in range(lat.L1):
                for c0 in range(lat.L2):
                    steps, nodes = _old_rectangle_cycle(lat, mv.kind, (r0, c0), dr, dc)
                    if mv.position not in nodes:
                        continue
                    dual, interior = _old_enclosed_cells(lat, mv.kind, (r0, c0), dr, dc)
                    target_cells = interior if same_type else dual
                    if tg.position not in target_cells:
                        continue
                    if dual_anyons & set(dual):
                        continue
                    crossed = len(same_positions & set(nodes))
                    key = (crossed, len(steps), tuple(sorted(steps)))
                    found.append((key, steps, nodes, (r0, c0)))
    return found


def _old_braid(state, mover, around, found):
    """The old scan's braid, given its `_old_candidates`."""
    if not all(0 <= k < len(state.anyons) for k in (mover, around)):
        raise ValueError("no such anyon")
    if mover == around:
        raise ValueError("mover and target must differ")
    if not found:
        raise PathNotFoundError("no valid enclosing rectangle")
    return move_anyon(state, mover, _old_path(state, mover, found))


def _old_path(state, mover, found):
    """The winning candidate's steps, rotated to start at the mover."""
    _, steps, nodes, _ = min(found, key=lambda cand: cand[0])
    k = nodes.index(state.anyons[mover].position)
    return steps[k:] + steps[:k]


def test_rectangle_cycle_matches_the_closure_builder():
    """The nodes and the steps, read apart, against the old builder's pair:
    every corner and size up to a whole period, so the slices reach the last
    rows and columns of the doubled tables; the long thin shapes make the
    two periods differ most."""
    for shape in ((2, 2), (2, 3), (3, 4), (4, 5), (5, 3), (6, 6), (2, 7), (7, 3)):
        lat = build_torus(*shape)
        for kind in "em":
            tables = _rectangle_tables(lat, kind)
            for dr in range(1, lat.L1 + 1):
                for dc in range(1, lat.L2 + 1):
                    for r0 in range(lat.L1):
                        for c0 in range(lat.L2):
                            args = ((r0, c0), dr, dc)
                            steps, nodes = _old_rectangle_cycle(lat, kind, *args)
                            assert _rectangle_cycle(tables, *args) == nodes, (shape, kind, args)
                            assert _rectangle_steps(tables, *args) == steps, (shape, kind, args)


def test_braid_builds_one_rectangle_per_candidate(monkeypatch):
    """The search builds every corner of every size below a full period:
    (L1 - 1)(L2 - 1) L1 L2 rectangles, found or not, in the order
    (dr, dc, r0, c0)."""
    built = []

    def counted(*args):
        built.append(args[1:])
        return _rectangle_cycle(*args)

    def scan(L1, L2):
        return [((r0, c0), dr, dc) for dr in range(1, L1) for dc in range(1, L2)
                for r0 in range(L1) for c0 in range(L2)]
    monkeypatch.setattr(anyon, "_rectangle_cycle", counted)
    s = create_pair(create_pair(ground_state(build_torus(4, 4)), "e", 0), "m", 11)
    assert relative_phase(braid(s, 0, 2), s) == -1
    assert len(built) == 3 * 3 * 16 and built == scan(4, 4)
    del built[:]
    s = create_pair(create_pair(ground_state(build_torus(3, 5)), "m", 0), "e", 7)
    braid(s, 0, 2)
    assert len(built) == (3 - 1) * (5 - 1) * 3 * 5 and built == scan(3, 5)


def _outcome(fn, state, mover, around, *args):
    try:
        return fn(state, mover, around, *args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_braid_matches_the_full_scan_with_enclosed_cell_lists(monkeypatch):
    """Same state or same refusal, and the same path, as the old scan on
    1130 seeded scripts: two or three pairs of mixed kinds, one anyon walked
    a few steps, then one braid of a random ordered pair, so every kind pair
    (e/m around e/m), same-type interiors, dual-type blockers and crossings
    all occur.  Every enclosing rectangle banks the same phase, so only the
    path shows which one won.  On the 6x6 and 5x7 tori the old scan's
    winner must at times follow an earlier candidate of equal crossings and
    perimeter (a tie broken on the edge set), and at times have its corner
    past the mover's row or column (offsets that wrap around the torus)."""
    walked = []

    def recording(state, index, path):
        walked.append(list(path))
        return move_anyon(state, index, path)
    monkeypatch.setattr(anyon, "move_anyon", recording)
    outcomes, ties, wraps = [], 0, 0
    for shape, scripts in (((2, 3), 150), ((3, 3), 150), ((3, 4), 150), ((4, 5), 150),
                           ((5, 5), 150), ((4, 3), 150), ((6, 4), 150),
                           ((6, 6), 40), ((5, 7), 40)):
        lat = build_torus(*shape)
        rng = random.Random(f"braid-scan {shape}")
        for _ in range(scripts):
            state = ground_state(lat, rng.choice(SECTOR_ORDER))
            pairs = rng.choice((2, 3))
            while len(state.anyons) < 2 * pairs:
                try:
                    state = create_pair(state, rng.choice("em"),
                                        rng.randrange(lat.n_qubits))
                except InvalidMoveError:
                    pass
            k = rng.randrange(len(state.anyons))
            an = state.anyons[k]
            edges_at = lat.star_edges if an.kind == "e" else lat.plaquette_edges
            ends = lat.edge_vertices if an.kind == "e" else lat.edge_faces
            pos, path = an.position, []
            for _ in range(rng.randint(1, 4)):
                path.append(rng.choice(edges_at(*divmod(pos, lat.L2))))
                a, b = ends(path[-1])
                pos = b if pos == a else a
            state = move_anyon(state, k, path)
            mover, around = rng.sample(range(len(state.anyons)), 2)
            found = _old_candidates(state, mover, around)
            del walked[:]
            new = _outcome(braid, state, mover, around)
            assert new == _outcome(_old_braid, state, mover, around, found), \
                (shape, mover, around, state.anyons)
            assert walked == ([_old_path(state, mover, found)] if found else []), \
                (shape, mover, around, state.anyons)
            outcomes.append((state.anyons[mover].kind, state.anyons[around].kind,
                             isinstance(new, tuple)))
            if found and shape in ((6, 6), (5, 7)):
                win = min(found, key=lambda cand: cand[0])
                first = next(c for c in found if c[0][:2] == win[0][:2])
                ties += first is not win
                mr, mc = divmod(state.anyons[mover].position, lat.L2)
                wraps += win[3][0] > mr or win[3][1] > mc
    assert {(m, a) for m, a, _ in outcomes} == {("e", "e"), ("e", "m"), ("m", "e"), ("m", "m")}
    refused = sum(r for _, _, r in outcomes)
    assert len(outcomes) == 1130 and 0 < refused < len(outcomes)
    assert ties >= 3 and wraps >= 3, (ties, wraps)


def test_dense_replay_oracle_for_a_mixed_trajectory():
    """The package state (with its scalar-absorption bookkeeping) must equal
    the raw dense replay of every elementary edge operator."""
    from nsslab.pauli import PauliOp

    lat = build_torus(2, 2)
    n = lat.n_qubits

    def z_op(e):
        return PauliOp(n, 0, 1 << e)

    def x_op(e):
        return PauliOp(n, 1 << e, 0)

    s = ground_state(lat, (1, -1))
    raw = []
    s = create_pair(s, "e", 0)
    raw.append(z_op(0))
    s = create_pair(s, "m", 3)
    raw.append(x_op(3))
    s = move_anyon(s, 0, [1])
    raw.append(z_op(1))
    # close the e cycle the long way round (vertical frame direction)
    s = move_anyon(s, 0, [lat.edge_index(1, 0, 1)])
    raw.append(z_op(lat.edge_index(1, 0, 1)))
    got = dense_state(s)
    want = _replay_dense(lat, (1, -1), raw)
    assert np.linalg.norm(got - want) < 1e-10
    _assert_valid_signs(s)
    _assert_dense_consistent(s)


def test_fusing_around_a_frame_loop_reads_the_sector_sign():
    """An e pair carried around the vertical cycle and annihilated closes a
    Z-type frame loop: the banked phase is the sector's own eigenvalue."""
    for sector, expect in (((1, 1), 1), ((1, -1), -1)):
        lat = build_torus(2, 2)
        s = create_pair(ground_state(lat, sector), "e", 1)  # vertices (0,0), (1,0)
        s = move_anyon(s, 0, [lat.edge_index(1, 0, 1)])     # meet the partner at (1,0)
        s = fuse(s, 0, 1)
        assert s.anyons == ()
        assert s.accumulated_phase == expect
        _assert_sector(s, sector)
        assert s.applied.x_bits == 0 and s.applied.z_bits == 0


def test_fusing_around_a_dual_loop_flips_the_sector():
    lat = build_torus(2, 2)
    s = create_pair(ground_state(lat), "m", 4)  # faces (1,0), (0,0)
    s = move_anyon(s, 0, [0])                   # face (1,0) -> (0,0): closes the loop
    s = fuse(s, 0, 1)
    assert s.anyons == () and s.energy == 0
    assert format_pauli(s.applied) == "+XIIIXIII"
    _assert_sector(s, (-1, 1))


def test_fuse_after_braid_differs_only_by_the_phase():
    lat = build_torus(2, 2)
    s = create_pair(ground_state(lat), "e", 0)
    s = create_pair(s, "m", 3)
    plain = fuse(s, 0, 1)
    braided = fuse(braid(s, 0, 2), 0, 1)
    assert braided.applied == plain.applied
    assert [a.position for a in braided.anyons] == [a.position for a in plain.anyons]
    assert relative_phase(braided, plain) == -1
    assert braided.frame_signs == plain.frame_signs
    _assert_sector(braided, (1, 1))


def _pair(kind, edge):
    return {"op": "create_pair", "type": kind, "edge": edge}


def _fuse(a, b, via=None):
    step = {"op": "fuse", "a": a, "b": b}
    return step if via is None else dict(step, via=via)


# Fusing anyons of two pairs, then their partners, closes the same loop as
# carrying one anyon of a single pair round it; each route is given as
# (shape, sector, two-pair script, one-pair script).
_TWO_PAIR_ROUTES = (
    # two e strings close round an open m: phase -1
    ((4, 4), (1, 1),
     [_pair("m", 13), _pair("e", 10), _pair("e", 18), _fuse(3, 5, 13), _fuse(2, 3, 11)],
     [_pair("m", 13), _pair("e", 10), {"op": "move", "anyon": 3, "path": [13, 18, 11]},
      _fuse(2, 3)]),
    # two e strings close the row-0 frame loop, whose sign is -1 in this sector
    ((2, 4), (-1, 1),
     [_pair("e", 0), _pair("e", 4), _fuse(1, 2, 2), _fuse(0, 1, 6)],
     [_pair("e", 0), {"op": "move", "anyon": 1, "path": [2, 4, 6]}, _fuse(0, 1)]),
)


def test_fusing_across_two_pairs_banks_the_loop_it_closes():
    for shape, sector, two_pairs, one_pair in _TWO_PAIR_ROUTES:
        lat = build_torus(*shape)
        rep = run_trajectory(lat, two_pairs, sector)
        assert rep == run_trajectory(lat, one_pair, sector), shape
        assert rep["phase"] == [-1.0, 0.0], shape


def test_trajectory_phases_print_no_negative_zero():
    """Banking a loop divides by its sign, -1+0j, which turns a zero
    imaginary part into -0.0; equal phases still print equal bytes."""
    for shape, sector, two_pairs, one_pair in _TWO_PAIR_ROUTES:
        for script in (two_pairs, one_pair):
            rep = run_trajectory(build_torus(*shape), script, sector)
            assert json.dumps(rep["phase"]) == "[-1.0, 0.0]", (shape, script)


def test_fusing_across_two_pairs_matches_the_dense_state():
    """The anyon-free state after two cross-pair fusions is the banked phase
    times the code vector of its frame signs."""
    lat = build_torus(2, 4)
    cfg = DEFAULT_CONFIG.override(dense_cap=1 << 16)
    s = create_pair(create_pair(ground_state(lat, (-1, 1)), "e", 0), "e", 4)
    s = fuse(fuse(s, 1, 2, via=2), 0, 1, via=6)
    assert s.anyons == () and s.accumulated_phase == -1
    frame = (s.frame_signs["g1_Z"], s.frame_signs["g2_Z"])
    want = s.accumulated_phase * code_basis(lat, cfg)[:, SECTOR_ORDER.index(frame)]
    assert np.linalg.norm(dense_state(s, cfg) - want) < 1e-10


def test_fuse_validation():
    lat = build_torus(2, 2)
    s = create_pair(ground_state(lat), "e", 0)
    s = create_pair(s, "m", 3)
    with pytest.raises(InvalidFusionError):
        fuse(s, 0, 0)
    with pytest.raises(InvalidFusionError):
        fuse(s, 0, 2)  # e with m
    with pytest.raises(InvalidFusionError):
        fuse(s, 0, 1, via=5)  # edge (1,0,1) does not join vertices (0,0),(0,1)
    moved = move_anyon(s, 0, [1])  # vertices now (1,0) and (0,1): diagonal
    with pytest.raises(InvalidFusionError):
        fuse(moved, 0, 1)


def test_run_trajectory_reports_the_interference_experiment():
    lat = build_torus(2, 2)
    script = [
        {"op": "create_pair", "type": "e", "edge": 0},
        {"op": "create_pair", "type": "m", "edge": 3},
        {"op": "braid", "mover": 0, "around": 2},
        {"op": "fuse", "a": 0, "b": 1, "via": 0},
    ]
    rep = run_trajectory(lat, script)
    assert rep == {"phase": [-1.0, 0.0], "sector": [1, 1],
                   "energy": 2, "open_anyons": 2}


def test_run_trajectory_rejects_bad_scripts():
    lat = build_torus(2, 2)
    with pytest.raises(ValueError, match="unknown op"):
        run_trajectory(lat, [{"op": "teleport"}])
    with pytest.raises(ValueError, match="missing argument"):
        run_trajectory(lat, [{"op": "create_pair", "type": "e"}])


def test_relative_phase_demands_proportional_states():
    lat = build_torus(2, 2)
    a = create_pair(ground_state(lat), "e", 0)
    b = create_pair(ground_state(lat), "m", 3)
    with pytest.raises(ValueError):
        relative_phase(a, b)
    with pytest.raises(ValueError):
        relative_phase(a, ground_state(lat, (1, -1)))
    with pytest.raises(ValueError):
        relative_phase(a, ground_state(build_torus(2, 3)))


_STEPS = st.one_of(
    st.tuples(st.just("create"), st.sampled_from("em"), st.integers(0, 11)),
    st.tuples(st.just("move"), st.integers(0, 5),
              st.lists(st.integers(0, 3), min_size=1, max_size=5)),
    st.tuples(st.just("braid"), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.just("fuse"), st.integers(0, 5), st.integers(0, 5), st.integers(0, 3)),
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(shape=st.sampled_from([(2, 2), (2, 3)]), sector=st.sampled_from(SECTOR_ORDER),
       steps=st.lists(_STEPS, min_size=4, max_size=10))
def test_random_trajectories_match_the_dense_replay(shape, sector, steps):
    """Every accepted step acts on the dense vector as the physics says:
    create, move and fuse apply their edge operators, and a braid
    multiplies by -1 around the dual type and by +1 around the same type.
    Refused steps (ValueError) leave the state alone."""
    lat = build_torus(*shape)
    n = lat.n_qubits

    def edge_op(kind, e):
        return PauliOp(n, 0, 1 << e) if kind == "e" else PauliOp(n, 1 << e, 0)

    def edges_at(kind, node):
        r, c = divmod(node, lat.L2)
        return lat.star_edges(r, c) if kind == "e" else lat.plaquette_edges(r, c)

    state = ground_state(lat, sector)
    psi = dense_state(state)
    for step in steps:
        name, *args = step
        ops, sign = [], 1
        try:
            if name == "create":
                kind, e = args[0], args[1] % n
                new = create_pair(state, kind, e)
                ops = [edge_op(kind, e)]
            elif not state.anyons:
                continue
            elif name == "move":
                k = args[0] % len(state.anyons)
                an = state.anyons[k]
                pos, path = an.position, []
                for choice in args[1]:   # the choice-th edge at the current node
                    path.append(edges_at(an.kind, pos)[choice])
                    a, b = (lat.edge_vertices if an.kind == "e" else lat.edge_faces)(path[-1])
                    pos = b if pos == a else a
                new = move_anyon(state, k, path)
                ops = [edge_op(an.kind, e) for e in path]
            elif name == "braid":
                mover = args[0] % len(state.anyons)
                # on these tori only a dual-type target can be enclosed
                duals = [k for k, an in enumerate(state.anyons)
                         if an.kind != state.anyons[mover].kind] or [mover]
                around = duals[args[1] % len(duals)]
                new = braid(state, mover, around)
                same = state.anyons[mover].kind == state.anyons[around].kind
                sign = 1 if same else -1
            else:
                a, b = (i % len(state.anyons) for i in args[:2])
                via = edges_at(state.anyons[a].kind, state.anyons[a].position)[args[2]]
                new = fuse(state, a, b, via)
                if state.anyons[a].position != state.anyons[b].position:
                    ops = [edge_op(state.anyons[a].kind, via)]
        except ValueError:
            continue
        for op in ops:
            psi = apply_to_vector(op, psi)
        psi = sign * psi
        state = new
        assert np.abs(dense_state(state) - psi).max() < 1e-10, step
        _assert_dense_consistent(state)
