"""Bit-packed GF(2) linear algebra against a numpy mod-2 elimination oracle."""

import numpy as np

from nsslab import gf2


def _to_matrix(rows, width):
    return np.array([[r >> j & 1 for j in range(width)] for r in rows], dtype=np.uint8)


def _rank_oracle(rows, width) -> int:
    """Plain Gaussian elimination over GF(2) on an explicit 0/1 matrix."""
    M = _to_matrix(rows, width)
    rank = 0
    for col in range(width):
        piv = None
        for r in range(rank, M.shape[0]):
            if M[r, col]:
                piv = r
                break
        if piv is None:
            continue
        M[[rank, piv]] = M[[piv, rank]]
        for r in range(M.shape[0]):
            if r != rank and M[r, col]:
                M[r] ^= M[rank]
        rank += 1
    return rank


def _random_rows(rng, count, width):
    return [int(rng.integers(0, 1 << width)) for _ in range(count)]


def test_rank_matches_elimination_oracle():
    rng = np.random.default_rng(100)
    for _ in range(40):
        width = int(rng.integers(1, 24))
        rows = _random_rows(rng, int(rng.integers(1, 12)), width)
        assert gf2.rank(rows) == _rank_oracle(rows, width)


def test_solve_returns_exact_combination():
    rng = np.random.default_rng(101)
    for _ in range(60):
        width = int(rng.integers(2, 20))
        rows = _random_rows(rng, int(rng.integers(1, 10)), width)
        mask = int(rng.integers(0, 1 << len(rows)))
        target = 0
        for k, r in enumerate(rows):
            if mask >> k & 1:
                target ^= r
        (combo,) = gf2.solve(rows, [target])
        assert combo is not None
        rebuilt = 0
        for k, r in enumerate(rows):
            if combo >> k & 1:
                rebuilt ^= r
        assert rebuilt == target


def test_solve_rejects_targets_outside_span():
    rows = [0b0011, 0b0110]
    # span = {0, 0011, 0110, 0101}; 1000 has a bit no row can reach
    assert gf2.solve(rows, [0b1000]) == [None]
    assert gf2.solve(rows, [0b0101]) != [None]
    assert gf2.solve(rows, [0b0111]) == [None]


def test_a_list_of_targets_is_solved_against_one_elimination(monkeypatch):
    """Each mask is the one `solve` gives that target alone, None outside
    the span included, and the rows are eliminated once."""
    rng = np.random.default_rng(103)
    eliminate, calls, outside = gf2._eliminate, [], 0
    for _ in range(30):
        width = int(rng.integers(2, 16))
        rows = _random_rows(rng, int(rng.integers(1, 8)), width)
        targets = [int(t) for t in rng.integers(0, 1 << width, 12)] + rows
        alone = [gf2.solve(rows, [t])[0] for t in targets]
        monkeypatch.setattr(gf2, "_eliminate", lambda r: calls.append(r) or eliminate(r))
        assert gf2.solve(rows, targets) == alone
        monkeypatch.undo()
        assert len(calls) == 1
        calls.clear()
        outside += alone.count(None)
    assert outside > 0
    assert gf2.solve([0b11], []) == []


def test_solve_handles_dependent_rows():
    rows = [0b101, 0b011, 0b110]  # third = first ^ second
    (combo,) = gf2.solve(rows, [0b110])
    rebuilt = 0
    for k, r in enumerate(rows):
        if combo >> k & 1:
            rebuilt ^= r
    assert rebuilt == 0b110


def test_nullspace_dimension_and_orthogonality():
    rng = np.random.default_rng(102)
    for _ in range(40):
        width = int(rng.integers(1, 18))
        rows = _random_rows(rng, int(rng.integers(0, 8)), width)
        null = gf2.nullspace(rows, width)
        assert len(null) == width - gf2.rank(rows)
        for v in null:
            for r in rows:
                assert (v & r).bit_count() % 2 == 0
        assert gf2.rank(null) == len(null)


def test_nullspace_of_empty_constraints_is_everything():
    null = gf2.nullspace([], 5)
    assert len(null) == 5
    assert gf2.rank(null) == 5
