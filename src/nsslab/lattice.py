"""Periodic L1 x L2 square lattice (genus 1) with one qubit per edge.

Edge layout: vertex (r, c) owns edge 2*(r*L2 + c) + d, where d = 0 is the
edge going right and d = 1 the edge going down.  Stars are all-X on the four
edges meeting a vertex; plaquettes are all-Z on the four edges bounding a
face (named by its top-left vertex).  Minimal homology representatives run
straight through row 0 / column 0.  Stabilizer membership is a commutation
test; GF(2) elimination only ranks the checks.
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
    genus: int = 1

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
    return TorusLattice(L1, L2, n, tuple(stars), tuple(plaqs))


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
    n = lat.n_qubits
    z1 = _mask(lat.edge_index(0, c, 0) for c in range(lat.L2))
    z2 = _mask(lat.edge_index(r, 0, 1) for r in range(lat.L1))
    x1 = _mask(lat.edge_index(0, c, 1) for c in range(lat.L2))
    x2 = _mask(lat.edge_index(r, 0, 0) for r in range(lat.L1))
    return [
        LoopOperator("g1_Z", PauliOp(n, 0, z1)),
        LoopOperator("g2_Z", PauliOp(n, 0, z2)),
        LoopOperator("g1_X", PauliOp(n, x1, 0)),
        LoopOperator("g2_X", PauliOp(n, x2, 0)),
    ]


def stabilizer_expansion(lat: TorusLattice, op: PauliOp):
    """op as i^phase times a product of checks and the Z-frame loops g1_Z,
    g2_Z: (phase, (g1_Z used, g2_Z used)), or None if there is none.

    These n independent commuting generators on n qubits are a maximal
    commuting set, so op is in their group iff it commutes with all of them.
    They are pure X or pure Z with phase 0, so the phase is op's own; only
    g1_Z anticommutes with g2_X, and only g2_Z with g1_X.
    """
    g1_z, g2_z, g1_x, g2_x = (lo.op for lo in homology_basis(lat))
    generators = lat.vertex_stars + lat.plaquette_checks + (g1_z, g2_z)
    if not all(commutes(op, g) for g in generators):
        return None
    return op.phase, (not commutes(op, g2_x), not commutes(op, g1_x))


def lattice_to_json(lat: TorusLattice) -> str:
    doc = {
        "L1": lat.L1,
        "L2": lat.L2,
        "genus": lat.genus,
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

