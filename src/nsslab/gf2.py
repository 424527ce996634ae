"""GF(2) linear algebra on int-packed bit vectors.

Vectors are Python ints (bit i = coordinate i).  Everything here is exact,
and every routine starts from the one row reduction `_eliminate`.  `rank`
backs the check count of the toric code and its error-orbit sizes, `solve`
(a list of targets against one elimination) the coset coordinates of the
spectral kernel (every term and every symmetry image of a frame) and the
orbit overlaps.  Toric stabilizer membership needs neither: it is a zero
`lattice.syndrome`.
"""


def _eliminate(rows):
    """Row reduce, tracking which input rows combine into each pivot row.

    Returns a list of (pivot_bit, vector, combo) with distinct pivot bits,
    where combo is a bitmask over the input row indices.
    """
    basis = []  # (pivot, vector, combo)
    for i, row in enumerate(rows):
        v, c = row, 1 << i
        for p, bv, bc in basis:
            if v >> p & 1:
                v ^= bv
                c ^= bc
        if v:
            basis.append((v.bit_length() - 1, v, c))
            basis.sort(reverse=True)
    return basis


def rank(rows) -> int:
    return len(_eliminate(rows))


def solve(rows, targets):
    """Express each of a list of targets in the span of rows.

    Returns the list of their masks: for each target, a bitmask over row
    indices whose XOR equals it, or None if it is outside the span.  All
    targets are reduced against one elimination of rows, and each mask is
    the canonical one produced by elimination order, so identical inputs
    give identical certificates.
    """
    basis = _eliminate(rows)

    def reduce(v):
        c = 0
        for p, bv, bc in basis:
            if v >> p & 1:
                v ^= bv
                c ^= bc
        return c if v == 0 else None
    return [reduce(t) for t in targets]


def nullspace(rows, width):
    """Basis of {x : parity(row & x) == 0 for every row}.

    rows are constraint vectors over `width` coordinates; returns int-packed
    basis vectors of the solution space (dimension width - rank).
    """
    pivots = [(p, v) for p, v, _ in _eliminate(rows)]
    # full reduction so every pivot column appears in exactly one row
    for i, (p, bv) in enumerate(pivots):
        for q, bw in pivots:
            if q != p and bv >> q & 1:
                bv ^= bw
        pivots[i] = (p, bv)
    pivot_cols = {p for p, _ in pivots}
    out = []
    for free in range(width):
        if free in pivot_cols:
            continue
        x = 1 << free
        for p, bv in pivots:
            if (bv & x).bit_count() % 2:
                x |= 1 << p
        out.append(x)
    return out

