"""Abelian anyon dynamics on the toric code in the stabilizer picture.

An AnyonState is the exact Pauli word `applied` acting on a fixed reference
code vector |J0>, plus bookkeeping: anyon records, the accumulated scalar
phase, and derived views (frame signs, energy).  The frame
signs are the state's Z-loop sector label, read symplectically from the
crossings of `applied` with the two Z loops.  Strings are applied
dynamically (exact Pauli products), never adiabatically; a transport path
is a sequence of edge indices in the mover's own graph.

The two members of a pair carry between them one open string that ends on
both: creation gives the edge operator to one member and the identity to
the other, and a move extends the mover's string.  Fusing the two members
of one pair closes their string; fusing anyons of two pairs joins the two
strings into one that ends on the two partners, which become a pair.

Whenever a closed string turns out to act as a scalar on the reference
vector (a product of checks and frame loops), that scalar is moved out of
`applied` into accumulated_phase, so the state vector is always exactly
accumulated_phase * applied |J0>.  Braiding phases are therefore exact
integers of the symplectic arithmetic.  This module builds no vector: the
dense bridge that cross-checks it on small lattices (`verify.dense_state`,
`verify.sector_of`) lives in `verify`.
"""

from dataclasses import dataclass, replace

import numpy as np

from .lattice import SectorLabel, TorusLattice, stabilizer_expansion, syndrome
from .pauli import PauliOp, identity, multiply


class InvalidMoveError(ValueError):
    pass


class InvalidFusionError(ValueError):
    pass


class PathNotFoundError(ValueError):
    pass


@dataclass(frozen=True)
class Anyon:
    kind: str        # "e" (vertex defect) or "m" (plaquette defect)
    position: int    # vertex index for e, face index for m
    string: PauliOp  # this member's part of its pair's open string
    pair_id: int     # shared by the two members of a pair


@dataclass(frozen=True)
class AnyonState:
    lat: TorusLattice
    sector0: SectorLabel
    applied: PauliOp
    anyons: tuple
    accumulated_phase: complex
    next_pair: int

    # -- derived views -----------------------------------------------------

    @property
    def frame_signs(self) -> dict:
        """Current signs of the two Z-type frame loops: the state's sector
        label, each reference sign times the crossing sign of `applied`."""
        _, loops = syndrome(self.lat, self.applied)
        return {lo.homology_class: j * (-1 if loops >> i & 1 else 1)
                for i, (lo, j) in enumerate(zip(self.lat.loops, self.sector0.j))}

    @property
    def energy(self) -> int:
        """Number of violated (-1) checks."""
        return syndrome(self.lat, self.applied)[0].bit_count()


# -------------------------------------------------- scalar-action solver

def _scalar_on_reference(lat: TorusLattice, sector0: SectorLabel, op: PauliOp):
    """Eigenvalue of op on the reference code vector, or None.

    The reference |J0> is stabilized by every check and by the two signed
    Z-type frame loops; op acts as a scalar exactly when it expands in
    those generators, and the scalar is the expansion's phase times the
    signs of the loops it uses.
    """
    expansion = stabilizer_expansion(lat, op)
    if expansion is None:
        return None
    phase, used = expansion
    val = 1.0 + 0j
    for j, u in zip(sector0.j, used):
        if u:
            val *= j
    return val * 1j ** phase


def _absorb_if_scalar(state: AnyonState, cycle: PauliOp) -> AnyonState:
    """If `cycle` (already folded into applied) is a scalar on |J0>, strip
    its bits from `applied` and bank the scalar into accumulated_phase.

    The stripped word is re-gauged to the Hermitian representative of its
    bit pattern, so every scalar factor (loop eigenvalues and string
    crossing signs alike) ends up in accumulated_phase.
    """
    w0 = _scalar_on_reference(state.lat, state.sector0, cycle)
    if w0 is None:
        return state
    reduced = multiply(state.applied, cycle)
    herm_phase = (reduced.x_bits & reduced.z_bits).bit_count() % 4
    gauge = 1j ** ((reduced.phase - herm_phase) % 4)
    reduced = replace(reduced, phase=herm_phase)
    phase = state.accumulated_phase * gauge / w0
    return replace(state, applied=reduced, accumulated_phase=complex(phase))


# ------------------------------------------------------------ operations

def ground_state(lat: TorusLattice, sector=(1, 1)) -> AnyonState:
    """Anyon-free code state in the given Z-loop sector, phase +1."""
    if not isinstance(sector, SectorLabel):
        sector = SectorLabel(tuple(sector))
    return AnyonState(lat, sector, identity(lat.n_qubits), (), 1.0 + 0j, 0)


def _endpoints(lat: TorusLattice, kind: str, edge: int) -> tuple:
    return lat.edge_vertices(edge) if kind == "e" else lat.edge_faces(edge)


def _edge_operator(lat: TorusLattice, kind: str, edges: int) -> PauliOp:
    """The string of one Pauli type on the edge mask `edges`: Z for e (its
    endpoints excite stars), X for m (plaquettes).  Such strings multiply
    with phase 0, so a path's string is the XOR of its edges' bits."""
    if kind == "e":
        return PauliOp(lat.n_qubits, 0, edges)
    return PauliOp(lat.n_qubits, edges, 0)


def create_pair(state: AnyonState, kind: str, edge: int) -> AnyonState:
    """Apply one edge Pauli, placing a defect pair at its two endpoints."""
    if kind not in ("e", "m"):
        raise ValueError("anyon type must be e or m")
    if not 0 <= edge < state.lat.n_qubits:
        raise ValueError("edge index out of range")
    a, b = _endpoints(state.lat, kind, edge)
    occupied = {an.position for an in state.anyons if an.kind == kind}
    if a in occupied or b in occupied:
        raise InvalidMoveError(f"endpoint already hosts an {kind} anyon")
    op = _edge_operator(state.lat, kind, 1 << edge)
    pid = state.next_pair
    new = (Anyon(kind, a, op, pid), Anyon(kind, b, identity(state.lat.n_qubits), pid))
    return replace(state, applied=multiply(op, state.applied),
                   anyons=state.anyons + new, next_pair=pid + 1)


def _walk(lat: TorusLattice, kind: str, start: int, steps) -> int:
    """Follow edge steps from a node in the mover's graph; returns the end node."""
    pos = start
    for e in steps:
        a, b = _endpoints(lat, kind, e)
        if pos == a:
            pos = b
        elif pos == b:
            pos = a
        else:
            raise InvalidMoveError(f"edge {e} is not incident to node {pos}")
    return pos


def _require_anyons(state: AnyonState, *indices: int) -> None:
    """Refuse negative or out-of-range anyon indices before any work."""
    if not all(0 <= k < len(state.anyons) for k in indices):
        raise ValueError("no such anyon")


def move_anyon(state: AnyonState, index: int, path) -> AnyonState:
    """Extend one anyon's string along `path`, a sequence of edge indices,
    each incident to the node the previous one reached.

    The edges are read in the mover's own graph: vertices for e, faces for
    m.  A path returning to its start is a closed cycle; if that cycle acts
    as a scalar on the reference vector (contractible, or a frame loop), the
    scalar is banked into accumulated_phase.  Terminating on a same-type
    anyon is allowed as preparation for fuse.
    """
    _require_anyons(state, index)
    mover = state.anyons[index]
    steps = tuple(path)
    if not steps:
        raise InvalidMoveError("empty path")
    if not all(0 <= e < state.lat.n_qubits for e in steps):
        raise ValueError("edge index out of range")
    end = _walk(state.lat, mover.kind, mover.position, steps)
    mask = 0
    for e in steps:
        mask ^= 1 << e
    op = _edge_operator(state.lat, mover.kind, mask)
    out = replace(state, applied=multiply(op, state.applied))
    if end == mover.position:
        absorbed = _absorb_if_scalar(out, op)
        if absorbed is not out:
            # the loop acted as a scalar: the anyon record is unchanged,
            # so its string keeps only non-absorbed transport
            return absorbed
    new_anyons = list(state.anyons)
    new_anyons[index] = replace(mover, position=end,
                                string=multiply(op, mover.string))
    return replace(out, anyons=tuple(new_anyons))


# ------------------------------------------------------------------ braid

def _rectangle_tables(lat: TorusLattice, kind: str) -> tuple:
    """Index tables of the mover's graph (vertices for e, faces for m) over
    twice the torus's period in each direction.

    Returns (by_row, by_col).  by_row[r], r < 2 L1, holds three lists over
    the columns c < 2 L2: node (r, c), and the edge a step right and a step
    left from it crosses; by_col[c], c < 2 L2, holds the node and the down-
    and up-step edges over the rows r < 2 L1.  Node (r, c) is
    (r mod L1) L2 + c mod L2, the common row-major layout of vertices and
    faces; node v owns edges 2v (right of vertex v, top of face v) and
    2v + 1 (down from vertex v, left of face v).  A rectangle cornered in
    the first period ends within the second, so each of its sides is one
    slice of one list.
    """
    L1, L2 = lat.L1, lat.L2
    ahead = 1 if kind == "m" else 0
    rows = [[(r % L1) * L2 + c % L2 for c in range(2 * L2)] for r in range(2 * L1)]
    cols = [list(col) for col in zip(*rows)]

    def layout(lines, bit):
        # a forward step crosses an edge of the node `ahead` steps on (0 for
        # a vertex, 1 for a face), a backward step one of the node
        # `ahead - 1` on; a rotated line keeps its period
        return [(line,
                 [2 * v + bit for v in line[ahead:] + line[:ahead]],
                 [2 * v + bit for v in line[ahead - 1:] + line[:ahead - 1]])
                for line in lines]
    return layout(rows, ahead), layout(cols, 1 - ahead)


def _rectangle_cycle(tables: tuple, corner: tuple, dr: int, dc: int) -> list:
    """Boundary nodes of a dr x dc cell rectangle, clockwise from corner.

    `tables` are `_rectangle_tables` of the mover's graph (vertices for e,
    faces for m); corner (r0, c0) has r0 < L1 and c0 < L2, and dr <= L1,
    dc <= L2.  `braid` builds these nodes for every candidate; the edge
    steps, `_rectangle_steps`, only for the candidates that pass every
    filter.
    """
    by_row, by_col = tables
    r0, c0 = corner
    r1, c1 = r0 + dr, c0 + dc
    return (by_row[r0][0][c0:c1] + by_col[c1][0][r0:r1] +
            by_row[r1][0][c1:c0:-1] + by_col[c0][0][r1:r0:-1])


def _rectangle_steps(tables: tuple, corner: tuple, dr: int, dc: int) -> list:
    """Ordered edge steps of the `_rectangle_cycle` with the same arguments:
    step k joins its nodes[k] to nodes[k + 1], so each side's steps are the
    same slice as its nodes, read from the table of the side's direction."""
    by_row, by_col = tables
    r0, c0 = corner
    r1, c1 = r0 + dr, c0 + dc
    return (by_row[r0][1][c0:c1] + by_col[c1][1][r0:r1] +
            by_row[r1][2][c1:c0:-1] + by_col[c0][2][r1:r0:-1])


def braid(state: AnyonState, mover: int, around: int) -> AnyonState:
    """Carry one anyon around another along the smallest valid rectangle.

    The loop must strictly enclose the target and no other anyon of the
    phase-relevant type.  Rectangles whose boundary avoids all other
    same-type anyons are preferred (their strings commute with the loop,
    so crossing one is harmless but inelegant); remaining ties break on
    fewest edges, then the lexicographically smallest edge set.
    Encircling the dual type multiplies the phase by -1, the same type
    by +1.

    Every candidate rectangle's boundary nodes are built, in the order
    (dr, dc, r0, c0), each side as one slice of the mover's graph's index
    tables; the tables are built once per call, in O(L1 L2), and dropped
    on return.  A candidate must enclose the target (tested first), hold
    the mover among its nodes and enclose no dual-type anyon; only then
    are its edge steps read from the same tables, for its key.
    Enclosure is offset arithmetic.  A rectangle from corner (r0, c0)
    encloses the same-type node (r, c) when 0 < (r - r0) mod L1 < dr and
    0 < (c - c0) mod L2 < dc, and the dual-type cell (r, c) when
    (r - r0 - shift) mod L1 < dr and (c - c0 - shift) mod L2 < dc, with
    shift 1 for a face-graph rectangle (the vertex inside face (r, c) is
    (r + 1, c + 1)) and 0 otherwise.
    """
    _require_anyons(state, mover, around)
    if mover == around:
        raise ValueError("mover and target must differ")
    mv, tg = state.anyons[mover], state.anyons[around]
    lat = state.lat
    L1, L2 = lat.L1, lat.L2
    same_type = mv.kind == tg.kind
    same_positions = {an.position for k, an in enumerate(state.anyons)
                      if an.kind == mv.kind and k != mover}
    # dual-type positions, shifted so that enclosure reads like a node's
    shift = 1 if mv.kind == "m" else 0
    dual_cells = [(an.position // L2 - shift, an.position % L2 - shift)
                  for k, an in enumerate(state.anyons)
                  if an.kind != mv.kind and k != around]
    # a same-type target must be an interior node, a dual-type one a cell
    tr, tc = divmod(tg.position, L2)
    lo = 1 if same_type else 0
    if not same_type:
        tr, tc = tr - shift, tc - shift
    tables = _rectangle_tables(lat, mv.kind)
    best = None
    for dr in range(1, L1):
        for dc in range(1, L2):
            for r0 in range(L1):
                for c0 in range(L2):
                    nodes = _rectangle_cycle(tables, (r0, c0), dr, dc)
                    if not (lo <= (tr - r0) % L1 < dr and lo <= (tc - c0) % L2 < dc):
                        continue
                    if mv.position not in nodes:
                        continue
                    if any((r - r0) % L1 < dr and (c - c0) % L2 < dc
                           for r, c in dual_cells):
                        continue
                    crossed = len(same_positions & set(nodes))
                    steps = _rectangle_steps(tables, (r0, c0), dr, dc)
                    key = (crossed, len(steps), tuple(sorted(steps)))
                    if best is None or key < best[0]:
                        best = (key, steps, nodes)
    if best is None:
        raise PathNotFoundError("no valid enclosing rectangle")
    _, steps, nodes = best
    # rotate the cycle to start at the mover's position
    k = nodes.index(mv.position)
    steps = steps[k:] + steps[:k]
    return move_anyon(state, mover, steps)


# ------------------------------------------------------------------- fuse

def fuse(state: AnyonState, a: int, b: int, via: int | None = None) -> AnyonState:
    """Annihilate two same-type anyons, joining their strings.

    The anyons must be co-located or adjacent; `via` picks the connecting
    edge when several exist (default: smallest edge index).  Two members of
    one pair close their string: a contractible closed string leaves only a
    banked scalar; a non-contractible one keeps a frame-loop factor in
    `applied`, flipping the matching sector sign.  Anyons of two pairs leave
    one string from a's partner to b's partner, which become one pair; its
    phase is banked when a later fuse closes it.
    """
    _require_anyons(state, a, b)
    if a == b:
        raise InvalidFusionError("need two distinct anyons")
    an_a, an_b = state.anyons[a], state.anyons[b]
    if an_a.kind != an_b.kind:
        raise InvalidFusionError("cannot fuse different anyon types")
    lat = state.lat
    connector = identity(lat.n_qubits)
    out = state
    if an_a.position != an_b.position:
        if via is None:
            shared = [e for e in range(lat.n_qubits)
                      if set(_endpoints(lat, an_a.kind, e)) ==
                      {an_a.position, an_b.position}]
            if not shared:
                raise InvalidFusionError("anyons are neither adjacent nor co-located")
            via = min(shared)
        else:
            if set(_endpoints(lat, an_a.kind, via)) != {an_a.position, an_b.position}:
                raise InvalidFusionError("via edge does not connect the pair")
        connector = _edge_operator(lat, an_a.kind, 1 << via)
        out = replace(out, applied=multiply(connector, out.applied))
    joined = multiply(connector, multiply(an_a.string, an_b.string))
    remaining = [an for k, an in enumerate(out.anyons) if k not in (a, b)]
    if an_a.pair_id == an_b.pair_id:
        return _absorb_if_scalar(replace(out, anyons=tuple(remaining)), joined)
    k = next(k for k, an in enumerate(remaining) if an.pair_id == an_b.pair_id)
    remaining[k] = replace(remaining[k], string=multiply(joined, remaining[k].string),
                           pair_id=an_a.pair_id)
    return replace(out, anyons=tuple(remaining))


def relative_phase(state_a: AnyonState, state_b: AnyonState) -> complex:
    """Exact interference phase <psi_b|psi_a> for states on the same ray.

    Demands identical lattice and reference sector; raises if the two
    states are not scalar multiples of each other.
    """
    if state_a.lat != state_b.lat or state_a.sector0 != state_b.sector0:
        raise ValueError("states share neither lattice nor reference sector")
    diff = multiply(state_b.applied.adjoint(), state_a.applied)
    w0 = _scalar_on_reference(state_a.lat, state_a.sector0, diff)
    if w0 is None:
        raise ValueError("states are not proportional")
    return complex(state_a.accumulated_phase * np.conj(state_b.accumulated_phase) * w0)


# ------------------------------------------------------- trajectory replay

def _json_int(value) -> int:
    """A script index: a JSON integer, not a float, bool or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer index, got {value!r}")
    return value


def run_trajectory(lat: TorusLattice, script, sector=(1, 1)) -> dict:
    """Replay a JSON-style operation list; returns the final report.

    Each entry is {"op": name, ...args}: create_pair(type, edge),
    move(anyon, path), braid(mover, around), fuse(a, b[, via]).  Every
    index is a JSON integer and a path is a list of them.
    """
    state = ground_state(lat, sector)
    for k, entry in enumerate(script):
        if not isinstance(entry, dict):
            raise ValueError(f"step {k}: expected an object, got {type(entry).__name__}")
        op = entry.get("op")
        try:
            if op == "create_pair":
                state = create_pair(state, entry["type"], _json_int(entry["edge"]))
            elif op == "move":
                if not isinstance(entry["path"], list):
                    raise TypeError("path must be a list of edge indices")
                state = move_anyon(state, _json_int(entry["anyon"]),
                                   [_json_int(e) for e in entry["path"]])
            elif op == "braid":
                state = braid(state, _json_int(entry["mover"]), _json_int(entry["around"]))
            elif op == "fuse":
                via = entry.get("via")
                state = fuse(state, _json_int(entry["a"]), _json_int(entry["b"]),
                             None if via is None else _json_int(via))
            else:
                raise ValueError(f"unknown op {op!r}")
        except KeyError as exc:
            raise ValueError(f"step {k}: missing argument {exc}") from exc
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"step {k}: bad argument: {exc}") from exc
    frame = state.frame_signs
    # + 0.0 turns a negative zero (left by dividing by -1+0j) into 0.0, so
    # equal phases print equal bytes
    return {
        "phase": [float(np.real(state.accumulated_phase)) + 0.0,
                  float(np.imag(state.accumulated_phase)) + 0.0],
        "sector": [frame["g1_Z"], frame["g2_Z"]],
        "energy": state.energy,
        "open_anyons": len(state.anyons),
    }
