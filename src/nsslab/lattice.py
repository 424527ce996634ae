"""Periodic L1 x L2 square lattice (genus 1) with one qubit per edge.

Edge layout: vertex (r, c) owns edge 2*(r*L2 + c) + d, where d = 0 is the
edge going right and d = 1 the edge going down.  Stars are all-X on the four
edges meeting a vertex; plaquettes are all-Z on the four edges bounding a
face (named by its top-left vertex).  Minimal homology representatives run
straight through row 0 / column 0.  Checks and loops, built once, are the
one stabilizer frame, read by `syndrome`; GF(2) only ranks the checks.
"""

import json
from dataclasses import dataclass

from . import gf2
from .pauli import PauliOp, commutes

_DIRECTIONS = ("right", "down")


@dataclass(frozen=True)
class SectorLabel:
    j: tuple  # 2g eigenvalues, each -1 or +1

    def __post_init__(self):
        if len(self.j) != 2 or any(v not in (-1, 1) for v in self.j):
            raise ValueError("sector label needs 2g = 2 eigenvalues in {-1,+1}")


@dataclass(frozen=True)
class LoopOperator:
    homology_class: str  # one of g1_Z, g2_Z, g1_X, g2_X
    op: PauliOp


@dataclass(frozen=True)
class TorusLattice:
    L1: int
    L2: int
    n_qubits: int
    vertex_stars: tuple
    plaquette_checks: tuple
    loops: tuple = ()       # LoopOperators g1_Z, g2_Z, g1_X, g2_X
    edge_flips: tuple = ()  # per edge: (checks a Z on it flips, checks an X flips)

    def edge_index(self, r: int, c: int, d: int) -> int:
        return 2 * ((r % self.L1) * self.L2 + (c % self.L2)) + d

    def edge_coords(self, e: int) -> tuple:
        v, d = divmod(e, 2)
        r, c = divmod(v, self.L2)
        return r, c, d

    def star_edges(self, r: int, c: int) -> list:
        return [self.edge_index(r, c, 0), self.edge_index(r, c, 1),
                self.edge_index(r, c - 1, 0), self.edge_index(r - 1, c, 1)]

    def plaquette_edges(self, r: int, c: int) -> list:
        return [self.edge_index(r, c, 0), self.edge_index(r, c, 1),
                self.edge_index(r + 1, c, 0), self.edge_index(r, c + 1, 1)]

    def edge_vertices(self, e: int) -> tuple:
        r, c, d = self.edge_coords(e)
        if d == 0:
            other = r * self.L2 + (c + 1) % self.L2
        else:
            other = ((r + 1) % self.L1) * self.L2 + c
        return r * self.L2 + c, other

    def edge_faces(self, e: int) -> tuple:
        """The two plaquettes (face = top-left vertex index) sharing edge e."""
        r, c, d = self.edge_coords(e)
        if d == 0:
            # top edge of face (r,c), bottom edge of face (r-1,c)
            return r * self.L2 + c, ((r - 1) % self.L1) * self.L2 + c
        # left edge of face (r,c), right edge of face (r,c-1)
        return r * self.L2 + c, r * self.L2 + (c - 1) % self.L2

    def check_symplectic_rows(self) -> list:
        """Checks as (x << n) | z packed GF(2) vectors."""
        n = self.n_qubits
        return [(p.x_bits << n) | p.z_bits
                for p in list(self.vertex_stars) + list(self.plaquette_checks)]


def _mask(edges) -> int:
    m = 0
    for e in edges:
        m |= 1 << e
    return m


def build_torus(L1: int, L2: int) -> TorusLattice:
    """Construct the toric lattice with its star and plaquette checks."""
    if L1 < 2 or L2 < 2:
        raise ValueError("torus needs L1, L2 >= 2")
    n = 2 * L1 * L2
    stars = []
    plaqs = []
    # build via a throwaway instance for the index helpers
    proto = TorusLattice(L1, L2, n, (), ())
    for r in range(L1):
        for c in range(L2):
            stars.append(PauliOp(n, _mask(proto.star_edges(r, c)), 0))
            plaqs.append(PauliOp(n, 0, _mask(proto.plaquette_edges(r, c))))
    # g1 on row 0, g2 on column 0: Z loops on the edges along it, X across it
    z1, x1 = (_mask(proto.edge_index(0, c, d) for c in range(L2)) for d in (0, 1))
    x2, z2 = (_mask(proto.edge_index(r, 0, d) for r in range(L1)) for d in (0, 1))
    loops = (LoopOperator("g1_Z", PauliOp(n, 0, z1)), LoopOperator("g2_Z", PauliOp(n, 0, z2)),
             LoopOperator("g1_X", PauliOp(n, x1, 0)), LoopOperator("g2_X", PauliOp(n, x2, 0)))
    flips = tuple((_mask(proto.edge_vertices(e)), _mask(proto.edge_faces(e)) << L1 * L2)
                  for e in range(n))
    return TorusLattice(L1, L2, n, tuple(stars), tuple(plaqs), loops, flips)


def check_rank(lat: TorusLattice) -> int:
    return gf2.rank(lat.check_symplectic_rows())


def code_dimension(lat: TorusLattice) -> int:
    """2^(n - rank): dimension of the joint +1 eigenspace of all checks."""
    return 2 ** (lat.n_qubits - check_rank(lat))


def homology_basis(lat: TorusLattice) -> list:
    """The four minimal loop operators [g1_Z, g2_Z, g1_X, g2_X].

    g1 runs along row 0 (primal for Z, dual for X), g2 along column 0.
    Pairing: g1_Z anticommutes with g2_X, g2_Z with g1_X, all other pairs
    commute.
    """
    return list(lat.loops)


def syndrome(lat: TorusLattice, op: PauliOp) -> tuple:
    """(checks, loops): bit k of checks is set when op anticommutes with
    check k (stars, then plaquettes), bit i of loops when it anticommutes
    with homology_basis(lat)[i]; a qubit-count mismatch raises ValueError.
    Check bits are read by incidence in O(weight of op): a Z on an edge
    flips the stars at its ends, an X the plaquettes on its sides."""
    loops = sum(1 << i for i, lo in enumerate(lat.loops) if not commutes(op, lo.op))
    checks = 0
    for bits, k in ((op.z_bits, 0), (op.x_bits, 1)):
        while bits:
            e = bits.bit_length() - 1
            checks ^= lat.edge_flips[e][k]
            bits ^= 1 << e
    return checks, loops


def stabilizer_expansion(lat: TorusLattice, op: PauliOp):
    """op as i^phase times a product of checks and the Z-frame loops g1_Z,
    g2_Z: (phase, (g1_Z used, g2_Z used)), or None if there is none.

    These n independent commuting generators on n qubits are a maximal
    commuting set, so op is in their group iff its syndrome against them is
    zero.  They are pure X or pure Z with phase 0, so the phase is op's own;
    op uses g1_Z iff it anticommutes with g2_X, and g2_Z iff with g1_X.
    """
    checks, loops = syndrome(lat, op)
    if checks or loops & 3:
        return None
    return op.phase, (bool(loops & 8), bool(loops & 4))


def lattice_to_json(lat: TorusLattice) -> str:
    doc = {
        "L1": lat.L1,
        "L2": lat.L2,
        "genus": 1,
        "n_qubits": lat.n_qubits,
        "edges": [
            {"index": e, "row": r, "col": c, "direction": _DIRECTIONS[d]}
            for e in range(lat.n_qubits)
            for r, c, d in [lat.edge_coords(e)]
        ],
        "stars": [sorted(lat.star_edges(r, c))
                  for r in range(lat.L1) for c in range(lat.L2)],
        "plaquettes": [sorted(lat.plaquette_edges(r, c))
                       for r in range(lat.L1) for c in range(lat.L2)],
    }
    return json.dumps(doc, indent=2, sort_keys=True)

