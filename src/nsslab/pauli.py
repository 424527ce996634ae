"""Symplectic GF(2) representation of the n-qubit Pauli group.

An operator is stored as i^phase * X(x_bits) * Z(z_bits) with the X part to
the left of the Z part.  Bit i of x_bits / z_bits refers to qubit i; bit
vectors are plain Python integers, so multiply and commute cost one popcount
each regardless of n.  With this normal form the product rule is

    (i^p X(x1)Z(z1)) (i^q X(x2)Z(z2))
        = i^(p + q + 2*|z1 & x2|) X(x1^x2) Z(z1^z2)

because each Z crossing an X to its right contributes ZX = -XZ.
"""

from dataclasses import dataclass

import numpy as np

from . import gf2
from .config import DEFAULT_CONFIG, ResourceLimitError

_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PREFIX_VALUE = {"+": 0, "+i": 1, "-": 2, "-i": 3, "": 0, "i": 1, "-i": 3}


@dataclass(frozen=True)
class PauliOp:
    """Immutable n-qubit Pauli: i^phase * X(x_bits) * Z(z_bits)."""

    n: int
    x_bits: int
    z_bits: int
    phase: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        limit = 1 << self.n
        if not (0 <= self.x_bits < limit and 0 <= self.z_bits < limit):
            raise ValueError("bit vector exceeds qubit count")
        object.__setattr__(self, "phase", self.phase % 4)

    def adjoint(self) -> "PauliOp":
        # (i^p XZ)^dag = (-i)^p Z X = i^(-p) (-1)^|x&z| XZ
        ph = (-self.phase + 2 * (self.x_bits & self.z_bits).bit_count()) % 4
        return PauliOp(self.n, self.x_bits, self.z_bits, ph)


def identity(n: int) -> PauliOp:
    return PauliOp(n, 0, 0, 0)


def single(n: int, qubit: int, kind: str) -> PauliOp:
    """One-site X, Y, or Z embedded in n qubits."""
    if not 0 <= qubit < n:
        raise ValueError("qubit index out of range")
    if kind == "X":
        return PauliOp(n, 1 << qubit, 0)
    if kind == "Z":
        return PauliOp(n, 0, 1 << qubit)
    if kind == "Y":
        # Y = i XZ
        return PauliOp(n, 1 << qubit, 1 << qubit, 1)
    raise ValueError(f"unknown Pauli letter: {kind}")


def _check_same_n(a: PauliOp, b: PauliOp):
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} vs {b.n}")


def multiply(a: PauliOp, b: PauliOp) -> PauliOp:
    """Exact group product with phase tracking."""
    _check_same_n(a, b)
    ph = (a.phase + b.phase + 2 * (a.z_bits & b.x_bits).bit_count()) % 4
    return PauliOp(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits, ph)


def commutes(a: PauliOp, b: PauliOp) -> bool:
    """True iff ab == ba (symplectic pairing is even)."""
    _check_same_n(a, b)
    return ((a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()) % 2 == 0


def weight(a: PauliOp) -> int:
    """Number of qubits acted on non-trivially."""
    return (a.x_bits | a.z_bits).bit_count()


def _signs(states, z_bits):
    """(-1)^|z & s| for every basis state s in `states`."""
    return 1.0 - 2.0 * (np.bitwise_count(states & z_bits) & 1)


def _coset_states(z0, basis):
    """Index c of the coset frame (z0, basis) is the state z0 ^ (XOR of
    basis[i] over the set bits i of c); z0 = 0 and unit vectors: full space."""
    states = np.array([z0], dtype=np.int64)
    for b in basis:
        states = np.concatenate([states, states ^ b])
    return states


def _coset_sum(terms, z0, basis):
    """sum(coeff * op) on the coset frame (z0, basis) as {a: values}: column
    c holds values[c] at row c ^ a.  Term i^p X(x) Z(z) shifts c by a, the
    coordinates of x in the basis, with the value coeff * i^p *
    (-1)^|z & state(c)|: a scalar when z commutes with the basis, and real
    unless some term carries a Y or an odd phase.  Terms that share a add,
    in term order (a lone term's value kept as it is, signed zeros too), so
    the sum is one diagonal plus one shift per distinct a.  One `gf2.solve`
    reduces the basis itself (independent exactly when basis[i] has the
    coordinates 1 << i) and every term's x."""
    basis = list(basis)
    coords = gf2.solve(basis, basis + [op.x_bits for op, _ in terms])
    if coords[:len(basis)] != [1 << i for i in range(len(basis))]:
        raise ValueError("coset basis vectors are not independent")
    real = not any(op.x_bits & op.z_bits or op.phase & 1 for op, _ in terms)
    states = _coset_states(z0, basis)
    groups = {}
    for (op, coeff), a in zip(terms, coords[len(basis):]):
        if a is None:
            raise ValueError(f"term {format_pauli(op)} leaves the coset")
        value = coeff * (1j ** op.phase).real if real else coeff * 1j ** op.phase
        constant = not any((op.z_bits & b).bit_count() & 1 for b in basis)
        value = value * _signs(states[0] if constant else states, op.z_bits)
        groups[a] = groups[a] + value if a in groups else value
    return groups


def _full_sum(terms, n):
    """`_coset_sum` on the full space: the frame of the n unit vectors."""
    return _coset_sum(terms, 0, [1 << i for i in range(n)])


def _coset_dense(groups, dim):
    """The dim x dim matrix of a `_coset_sum`."""
    mat = np.zeros((dim, dim), dtype=np.result_type(np.float64, *groups.values()))
    cols = np.arange(dim)
    for a, values in groups.items():
        mat[cols ^ a, cols] = values
    return mat


def to_dense(a: PauliOp) -> np.ndarray:
    """Dense 2^n x 2^n unitary, the one-term `_full_sum`: float64 for a
    Pauli with no Y and an even phase, complex128 otherwise.  Refused above
    the default `dense_cap` (this takes no config)."""
    dim, cap = 1 << a.n, DEFAULT_CONFIG.dense_cap
    if dim > cap:
        raise ResourceLimitError(f"dense bridge capped at dimension {cap}, got 2^{a.n}")
    return _coset_dense(_full_sum([(a, 1.0)], a.n), dim)


def format_pauli(a: PauliOp) -> str:
    """Render as sign prefix + one letter per site, e.g. "-iXZII"."""
    letters = []
    n_y = 0
    for q in range(a.n):
        x = a.x_bits >> q & 1
        z = a.z_bits >> q & 1
        if x and z:
            letters.append("Y")
            n_y += 1
        elif x:
            letters.append("X")
        elif z:
            letters.append("Z")
        else:
            letters.append("I")
    # each Y printed absorbs one factor of i out of the X·Z normal form
    return _PREFIX[(a.phase - n_y) % 4] + "".join(letters)


def parse_pauli(text: str) -> PauliOp:
    """Inverse of `format_pauli`; accepts +, -, +i, -i, i or no prefix."""
    body = text.lstrip("+-i")
    prefix = text[: len(text) - len(body)]
    if prefix not in _PREFIX_VALUE:
        raise ValueError(f"bad phase prefix in {text!r}")
    if not body:
        raise ValueError("empty Pauli string")
    x = z = 0
    n_y = 0
    for q, ch in enumerate(body):
        if ch in ("X", "Y"):
            x |= 1 << q
        if ch in ("Z", "Y"):
            z |= 1 << q
        if ch == "Y":
            n_y += 1
        if ch not in "IXYZ":
            raise ValueError(f"bad Pauli letter {ch!r} in {text!r}")
    return PauliOp(len(body), x, z, (_PREFIX_VALUE[prefix] + n_y) % 4)


def apply_to_vector(a: PauliOp, vec: np.ndarray) -> np.ndarray:
    """Matrix-free action on state vectors (length-2^n array or stack of
    columns): the one group (x, values) of the one-term `_full_sum`."""
    if vec.shape[0] != 1 << a.n:
        raise ValueError("vector length does not match qubit count")
    ((shift, values),) = _full_sum([(a, 1 + 0j)], a.n).items()
    out = np.empty_like(vec, dtype=complex)
    out[np.arange(len(vec)) ^ shift] = (values * vec.T).T  # values scale the rows
    return out
