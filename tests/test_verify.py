"""Error-correction checks, spectra, and the size-scaling study.

Spectral oracle: the check Hamiltonian rebuilt from scratch with explicit
Kronecker products and a deliberately different edge ordering; eigenvalues
must agree regardless of qubit labeling.
"""

import ast
import dataclasses
import itertools
import pathlib
import time

import numpy as np
import pytest

from nsslab import (
    DEFAULT_CONFIG,
    InsufficientDataError,
    ResourceLimitError,
    SectorCertificateError,
    SpectralReport,
    build_torus,
    code_basis,
    code_projector,
    error_set,
    kl_check_dense,
    kl_check_ground_basis,
    kl_check_stabilizer,
    local_error_generators,
    scaling_study,
    scaling_to_csv,
    sector_orbits,
    spectrum,
)
import nsslab
from nsslab import anyon, gf2, lattice, verify
from nsslab.cli import EXIT_RESOURCE, EXIT_VALIDATION, main
from nsslab.lattice import code_dimension, homology_basis
from nsslab.pauli import (PauliOp, apply_to_vector, commutes, multiply, parse_pauli,
                          to_dense, weight)
from nsslab.verify import (
    CSV_HEADER,
    PERTURBATION_KINDS,
    SECTOR_ORDER,
    perturbation_terms,
    toric_check_terms,
)

_I2 = np.eye(2)
_X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z2 = np.array([[1.0, 0.0], [0.0, -1.0]])


def _kron_term(n, ops):
    out = np.eye(1)
    for q in range(n):
        out = np.kron(out, ops.get(q, _I2))
    return out


def _oracle_hamiltonian(L1, L2, h=0.0, field=None):
    """Same model, rebuilt independently: edges grouped by direction
    (all row-direction edges first), explicit Kronecker products."""
    n = 2 * L1 * L2

    def right(r, c):
        return (r % L1) * L2 + (c % L2)

    def down(r, c):
        return L1 * L2 + (r % L1) * L2 + (c % L2)

    H = np.zeros((1 << n, 1 << n))
    for r in range(L1):
        for c in range(L2):
            star = [right(r, c), down(r, c), right(r, c - 1), down(r - 1, c)]
            plaq = [right(r, c), down(r, c), right(r + 1, c), down(r, c + 1)]
            H -= _kron_term(n, {e: _X2 for e in star})
            H -= _kron_term(n, {e: _Z2 for e in plaq})
    if field == "z_field":
        for e in range(n):
            H += h * _kron_term(n, {e: _Z2})
    return H


def _logical_z(lat):
    return next(lo.op for lo in homology_basis(lat) if lo.homology_class == "g1_Z")


def test_three_kl_implementations_agree():
    lat = build_torus(2, 2)
    n = lat.n_qubits
    star = lat.vertex_stars[0]
    errors = [
        PauliOp(n, 0, 1),                                    # single Z: detected
        PauliOp(n, 1, 0),                                    # single X: detected
        PauliOp(n, 1, 1),                                    # single Y: detected
        star,                                                # check itself
        PauliOp(n, star.x_bits, 0, 2),                       # minus a check
        multiply(lat.plaquette_checks[0], lat.plaquette_checks[1]),
        PauliOp(n, 0, 0, 1),                                 # i * identity
        _logical_z(lat),                                     # undetectable logical
    ]
    expect_c = [0, 0, 0, 1, -1, 1, 1j, 0]
    expect_dev = [0, 0, 0, 0, 0, 0, 0, 1]

    stab = kl_check_stabilizer(lat, errors)
    dense = kl_check_dense(code_projector(lat), error_set([to_dense(e) for e in errors]))
    ground = kl_check_ground_basis(code_basis(lat), errors)

    for rep in (stab, dense, ground):
        for k, (got_c, dev, c, d) in enumerate(
                zip(rep.c_values, rep.deviations, expect_c, expect_dev, strict=True)):
            assert abs(got_c - c) < 1e-8, k
            assert abs(dev - d) < 1e-7, k
    assert abs(stab.max_deviation - 1.0) < 1e-12
    assert abs(dense.max_deviation - 1.0) < 1e-7


def test_stabilizer_check_rejects_wrong_qubit_count():
    lat = build_torus(2, 2)
    with pytest.raises(ValueError):
        kl_check_stabilizer(lat, [PauliOp(4, 1, 0)])


def test_dense_check_validates_the_projector():
    lat = build_torus(2, 2)
    errs = error_set([np.eye(256)])
    with pytest.raises(ValueError):
        kl_check_dense(np.ones((2, 3)), error_set([np.eye(2)]))
    with pytest.raises(ValueError):
        kl_check_dense(np.diag([1.0, 2.0]), error_set([np.eye(2)]))  # not idempotent
    with pytest.raises(ValueError):
        kl_check_dense(np.array([[0, 1], [0, 0]], dtype=float), error_set([np.eye(2)]))
    with pytest.raises(ValueError):
        kl_check_dense(np.eye(4), errs)  # dimension mismatch
    rep = kl_check_dense(code_projector(lat), errs)
    assert abs(rep.c_values[0] - 1) < 1e-12 and rep.max_deviation < 1e-12
    # reported by position: two errors under one label keep two c values
    rep = kl_check_dense(np.diag([1.0, 0.0]),
                         error_set([np.eye(2), np.diag([-1.0, 1.0])], labels=("E", "E")))
    assert rep.c_values == (1, -1) and rep.deviations == (0.0, 0.0)


def test_local_error_generator_counts_and_loop_filter():
    lat = build_torus(2, 2)
    n = lat.n_qubits
    all_w1 = local_error_generators(lat, 1, loop_commuting=False)
    assert len(all_w1) == 3 * n
    all_w2 = local_error_generators(lat, 2, loop_commuting=False)
    assert len(all_w2) == 3 * n + 9 * n * (n - 1) // 2
    assert all(1 <= weight(g) <= 2 for g in all_w2)
    loops = [lo.op for lo in homology_basis(lat)]
    filtered = local_error_generators(lat, 2)
    assert len(filtered) < len(all_w2)
    for g in filtered:
        assert all(commutes(g, lo) for lo in loops)


def test_local_error_generators_follow_the_letter_enumeration():
    """Same Paulis in the same order as an enumeration of letter strings:
    weight, then sites in lexicographic order, then one of X, Z, Y per site
    with the last site fastest, each string read by `parse_pauli`.  The
    generators carry phase 0, Y as the bits of XZ.  `kl-check`'s
    `first_error` and `logical_examples` depend on this order."""
    for shape in ((2, 2), (2, 3)):
        lat = build_torus(*shape)
        n = lat.n_qubits
        loops = [lo.op for lo in homology_basis(lat)]
        for max_weight in (1, 2, 3):
            want = []
            for w in range(1, max_weight + 1):
                for sites in itertools.combinations(range(n), w):
                    for word in itertools.product("XZY", repeat=w):
                        letters = ["I"] * n
                        for q, letter in zip(sites, word):
                            letters[q] = letter
                        want.append(parse_pauli("".join(letters)))
            for loop_commuting in (False, True):
                got = local_error_generators(lat, max_weight, loop_commuting)
                kept = [op for op in want if not loop_commuting
                        or all(commutes(op, lo) for lo in loops)]
                assert all(op.phase == 0 for op in got)
                assert [(op.n, op.x_bits, op.z_bits) for op in got] == \
                    [(op.n, op.x_bits, op.z_bits) for op in kept], (shape, max_weight)


def test_error_enumeration_is_refused_before_it_starts(monkeypatch, capsys):
    """The count sum_{1<=w<=W} C(n, w) 3^w is checked in closed form, before
    any Pauli is built, by the library call and by `kl-check` (exit 4)."""
    lat = build_torus(2, 2)
    monkeypatch.setattr(verify, "_MAX_ERROR_GENERATORS", 276)
    assert len(local_error_generators(lat, 2, loop_commuting=False)) == 276
    monkeypatch.setattr(verify, "_MAX_ERROR_GENERATORS", 275)
    with pytest.raises(ResourceLimitError, match="276 Paulis"):
        local_error_generators(lat, 2)
    assert main(["kl-check", "--l1", "2", "--l2", "2"]) == EXIT_RESOURCE
    out = capsys.readouterr()
    assert out.out == "" and "276 Paulis" in out.err
    assert main(["kl-check", "--l1", "2", "--l2", "2", "--max-weight", "1"]) == 0
    monkeypatch.undo()
    # 7.7e10 Paulis on 4x4 at weight 8: refused at once at the default cap
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        local_error_generators(build_torus(4, 4), 8, loop_commuting=False)
    assert main(["kl-check", "--l1", "4", "--l2", "4", "--max-weight", "8"]) == EXIT_RESOURCE
    assert time.perf_counter() - t0 < 1.0


def test_sector_orbits_fill_the_space_without_mixing():
    """GF(2) oracle: a loop-commuting Pauli word moves |J> to the vector of
    its syndrome, so each orbit has one dimension per reachable syndrome,
    2^(rank of the generators' syndrome vectors)."""
    lat = build_torus(2, 2)
    checks = list(lat.vertex_stars) + list(lat.plaquette_checks)
    for gens in (local_error_generators(lat), local_error_generators(lat, 1)):
        syndromes = [sum(1 << k for k, ch in enumerate(checks) if not commutes(g, ch))
                     for g in gens]
        reachable = 2 ** gf2.rank(syndromes)
        assert reachable == 64
        rep = sector_orbits(lat, errors=gens)
        assert rep.orbit_dims == (reachable,) * 4
        assert rep.max_overlap < 1e-10
        assert rep.total_dim == 256 and rep.fills_space


def test_sector_orbits_with_identity_only_stay_put():
    lat = build_torus(2, 2)
    rep = sector_orbits(lat, errors=[PauliOp(lat.n_qubits, 0, 0)])
    assert rep.orbit_dims == (1, 1, 1, 1)
    assert not rep.fills_space


def _dense_orbits(lat, gens):
    """Oracle: the orbit of each code_basis column, grown frontier by frontier
    as dense vectors until no new image appears, then spanned numerically.

    Up to its phase, which changes no span, a Pauli is the real signed
    permutation X^x Z^z, so every image is exact and a frontier is the set
    of images (up to sign) not met before.  Vectors live on the states
    their support can reach by the generators' X flips.  The overlap of two
    orbits is the largest singular value of A^T B for orthonormal bases A,
    B, which does not depend on the bases chosen.
    """
    basis = code_basis(lat).real
    orbits = []
    for j in range(basis.shape[1]):
        states = set(np.flatnonzero(basis[:, j]).tolist())
        edge = set(states)
        while edge:
            edge = {s ^ g.x_bits for s in edge for g in gens} - states
            states |= edge
        states = np.array(sorted(states))
        where = np.zeros(basis.shape[0], dtype=int)
        where[states] = np.arange(len(states))
        actions = [(where[states ^ g.x_bits],
                    np.where(np.bitwise_count((states ^ g.x_bits) & g.z_bits) & 1, -1.0, 1.0))
                   for g in gens]
        frontier = basis[states, j][None, :]
        seen = {frontier[0].tobytes()}
        found = [frontier]
        while len(frontier):
            new = []
            for perm, sign in actions:
                images = frontier[:, perm] * sign
                first = images[np.arange(len(images)), (images != 0).argmax(1)]
                for row in images * np.sign(first)[:, None] + 0.0:   # + 0.0: no -0.0
                    if row.tobytes() not in seen:
                        seen.add(row.tobytes())
                        new.append(row)
            frontier = np.array(new).reshape(len(new), len(states))
            found.append(frontier)
        vecs = np.vstack(found)
        lam, u = np.linalg.eigh(vecs @ vecs.T)
        keep = lam > 1e-9 * lam[-1]
        orbits.append((states, vecs.T @ (u[:, keep] / np.sqrt(lam[keep]))))
    overlap = 0.0
    for (sa, qa), (sb, qb) in itertools.combinations(orbits, 2):
        _, ia, ib = np.intersect1d(sa, sb, return_indices=True)
        if ia.size:
            overlap = max(overlap, np.linalg.norm(qa[ia].T @ qb[ib], 2))
    dims = tuple(q.shape[1] for _, q in orbits)
    return dims, overlap, sum(dims) == basis.shape[0]


@pytest.mark.parametrize("size, case", [
    ("2x2", "weight-2 loop-commuting"), ("2x2", "weight-1"), ("2x2", "weight-2"),
    ("2x2", "identity"), ("2x2", "none"), ("2x3", "weight-1")])
def test_sector_orbits_match_the_dense_frontier_oracle(size, case):
    lat = build_torus(*map(int, size.split("x")))
    gens = {"weight-2 loop-commuting": local_error_generators(lat),
            "weight-1": local_error_generators(lat, 1),
            "weight-2": local_error_generators(lat, 2, loop_commuting=False),
            "identity": [PauliOp(lat.n_qubits, 0, 0)],
            "none": []}[case]
    rep = sector_orbits(lat, errors=gens)
    dims, overlap, fills = _dense_orbits(lat, gens)
    assert rep.orbit_dims == dims
    assert rep.max_overlap in (0.0, 1.0) and abs(rep.max_overlap - overlap) < 1e-9
    assert rep.total_dim == sum(dims) and rep.fills_space == fills
    if case == "weight-2":   # on 2x2 an X loop has weight 2 and flips a Z label
        assert rep.max_overlap == 1.0 and dims == (256,) * 4


def _reduced_frame_orbits(lat, gens):
    """Orbits from an independent frame of n generators, all stars but the
    last, all plaquettes but the last, then g1_Z and g2_Z, with one
    `commutes` per generator; returns (orbit dims, overlap)."""
    g1_z, g2_z = (lo.op for lo in homology_basis(lat)[:2])
    frame = lat.vertex_stars[:-1] + lat.plaquette_checks[:-1] + (g1_z, g2_z)
    rows = [sum(1 << k for k, f in enumerate(frame) if not commutes(g, f)) for g in gens]
    loop_bit = len(frame) - 2
    coincide = any(mask is not None
                   for mask in gf2.solve(rows, [flip << loop_bit for flip in (1, 2, 3)]))
    return (2 ** gf2.rank(rows),) * 4, 1.0 if coincide else 0.0


@pytest.mark.parametrize("size", ["2x2", "2x3"])
def test_sector_orbits_match_the_reduced_frame(size):
    """Rows of `lattice.syndrome` keep the last star's and plaquette's bits;
    they are XORs of the others, so ranks and solutions are unchanged.  The
    full weight-1 and weight-2 sets, and seeded subsets of one to six of
    their members, whose ranks and overlaps vary."""
    lat = build_torus(*map(int, size.split("x")))
    rng = np.random.default_rng(5)
    outcomes = set()
    for w in (1, 2):
        for loop_commuting in (True, False):
            full = local_error_generators(lat, w, loop_commuting)
            subsets = [[full[k] for k in rng.choice(len(full), rng.integers(1, 7))]
                       for _ in range(40)]
            for gens in [full] + subsets:
                rep = sector_orbits(lat, errors=gens)
                expect = _reduced_frame_orbits(lat, gens)
                assert (rep.orbit_dims, rep.max_overlap) == expect
                outcomes.add(expect[1])
    assert outcomes == {0.0, 1.0}


def test_sector_orbits_of_3x3_are_counted_not_built():
    """Four orbits of 2^16 states fill the 2^18-dimensional space of 3x3,
    far past the dense bridge, from GF(2) ranks alone."""
    t0 = time.perf_counter()
    rep = sector_orbits(build_torus(3, 3))
    assert time.perf_counter() - t0 < 1.0
    assert rep.orbit_dims == (2**16,) * 4 and rep.max_overlap == 0.0
    assert rep.total_dim == 2**18 and rep.fills_space


def test_code_basis_is_orthonormal_and_stabilized():
    lat = build_torus(2, 2)
    G = code_basis(lat)
    assert np.linalg.norm(G.conj().T @ G - np.eye(4)) < 1e-10
    from nsslab.pauli import apply_to_vector

    for ch in list(lat.vertex_stars) + list(lat.plaquette_checks):
        assert np.linalg.norm(apply_to_vector(ch, G) - G) < 1e-10
    z_loops = {lo.homology_class: lo.op for lo in homology_basis(lat)}
    for k, (j1, j2) in enumerate(SECTOR_ORDER):
        v = G[:, k]
        assert np.allclose(apply_to_vector(z_loops["g1_Z"], v), j1 * v, atol=1e-10)
        assert np.allclose(apply_to_vector(z_loops["g2_Z"], v), j2 * v, atol=1e-10)


def test_dense_bridge_caps():
    """`dense_cap` (default 4096) bounds the 2^n of the dense bridge: 2x3
    (12 qubits) builds, 2x4 (16) and 3x3 (18) are refused, and
    `pauli.to_dense`, which takes no config, reads the default."""
    assert code_basis(build_torus(2, 3)).shape == (4096, 4)
    for lat in (build_torus(2, 4), build_torus(3, 3)):
        for fn in (code_projector, code_basis):
            with pytest.raises(ResourceLimitError):
                fn(lat)
    with pytest.raises(ResourceLimitError):
        to_dense(PauliOp(13, 0, 0))
    with pytest.raises(ResourceLimitError):
        spectrum(build_torus(3, 4))  # 24 qubits over the sparse cap


def _imported_modules(module):
    """Every module a source file imports, relative ones as ".name"."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            if not node.module:  # from . import x
                names.update(base + alias.name for alias in node.names)
    return names


def test_the_dense_bridge_has_one_home():
    """`anyon` and `lattice` build no 2^n-dimensional vector: anyon imports
    nothing from verify or config, lattice no numpy, and the dense bridge's
    functions are defined once, in verify, with no alias elsewhere."""
    anyon_imports = _imported_modules(anyon)
    assert not anyon_imports & {".verify", ".config", "nsslab.verify", "nsslab.config"}
    assert not any(name.split(".")[0] == "numpy" for name in _imported_modules(lattice))
    for name in ("dense_state", "sector_of", "NotAnEigenstateError"):
        obj = getattr(verify, name)
        assert obj.__module__ == "nsslab.verify"
        assert getattr(nsslab, name) is obj
        assert not hasattr(anyon, name) and not hasattr(lattice, name)


def test_verify_loads_neither_the_algebra_nor_the_anyon_engine():
    """`ErrorSet` and `AnyonState` are string annotations in verify, so a
    `scaling` or `toric` run loads neither `algebra` nor `anyon`."""
    imports = _imported_modules(verify)
    assert not imports & {".algebra", ".anyon", "nsslab.algebra", "nsslab.anyon"}


def test_every_config_field_has_a_reader():
    """Each `EngineConfig` field is read as an attribute somewhere in
    `src/nsslab` outside `config.py`: no setting is a knob that does nothing."""
    src = pathlib.Path(nsslab.__file__).parent
    read = {node.attr for path in src.glob("*.py") if path.name != "config.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    fields = [f.name for f in dataclasses.fields(nsslab.EngineConfig)]
    assert fields == ["seed", "sparse_max_qubits", "dense_cap"]
    assert set(fields) <= read, set(fields) - read


def test_the_dense_bridge_keeps_its_exact_zeros():
    """On 2x2 the code projector holds only 0 and 2^-3, so each of the 24
    weight-1 Paulis compresses to P E P = 0 exactly.  The closure scales any
    nonzero generator to unit size, rounding noise included, so criterion 4
    needs these zeros exact: a projector G G^H from the code basis, off by
    rounding, leaves residues near 1e-32 that close to a different algebra."""
    lat = build_torus(2, 2)
    P = code_projector(lat)
    assert set(np.unique(P).tolist()) == {0.0, 0.125}
    weight1 = local_error_generators(lat, 1, loop_commuting=False)
    assert len(weight1) == 24
    for E in weight1:
        assert not (P @ to_dense(E) @ P).any(), E


def test_every_module_constant_has_a_reader():
    """Each module-level constant (an upper-case name assigned at the top of
    a module in `src/nsslab`) is read as a name somewhere in `src/nsslab`:
    a deleted mechanism leaves no constant behind."""
    src = pathlib.Path(nsslab.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")]
    constants = {target.id for tree in trees for node in tree.body
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name) and target.id.lstrip("_").isupper()}
    read = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert {"SECTOR_ORDER", "_DENSE_SPECTRUM_CAP"} <= constants
    assert constants <= read, constants - read


def test_every_definition_has_a_reader():
    """Each function, class and method defined in `src/nsslab` (dunders
    aside) is loaded as a name or an attribute somewhere in `src/nsslab` or
    `bench/`, unless it is one of the declared test-only definitions: a
    deleted caller leaves no definition behind."""
    # the dense cross-check oracles, `single`, and `nullspace` and
    # `parse_pauli`, kept for planned callers
    test_only = {"dense_state", "sector_of", "kl_check_dense", "kl_check_ground_basis",
                 "span_projector_distance", "single", "nullspace", "parse_pauli"}

    def parse(folder):
        return [ast.parse(path.read_text(encoding="utf-8")) for path in folder.glob("*.py")]

    src = pathlib.Path(nsslab.__file__).parent
    bench = src.parents[1] / "bench"
    assert bench.is_dir()
    own = parse(src)
    defined = {node.name for tree in own for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in own + parse(bench) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    assert {"PauliOp", "flux_free_spectrum", "frame_signs"} <= defined
    assert defined - read == test_only, (defined - read) ^ test_only


def test_the_stabilizer_frame_has_one_reader():
    """Anticommutation with the checks and loops is read only by
    `lattice.syndrome`: neither anyon nor verify imports `commutes`."""
    for module in (anyon, verify):
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert "commutes" not in imported, module.__name__
        assert not hasattr(module, "commutes"), module.__name__


def test_unperturbed_spectrum_dense_path():
    rep = spectrum(build_torus(2, 2))
    assert len(rep.energies) == 12
    assert list(rep.energies) == sorted(rep.energies)
    assert abs(rep.energies[0] + 8) < 1e-9
    assert rep.ground_degeneracy == 4
    assert abs(rep.gap_delta - 4) < 1e-9
    assert rep.splitting < 1e-10


def test_an_overflowing_field_is_refused_on_both_solver_paths():
    """At h = 1e308 the field's diagonal overflows to inf.  The dense path
    (2x2) once failed with a LinAlgError and the ARPACK path (2x3, 4096
    states) with an ArpackError; both refuse the Hamiltonian instead."""
    for L1, L2 in ((2, 2), (2, 3)):
        lat = build_torus(L1, L2)
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(ValueError, match="non-finite entry"):
            spectrum(lat, perturbation_terms(lat, "z_field"), 1e308)


def test_unperturbed_spectrum_sparse_path():
    # ARPACK must resolve the exactly four-fold multiplet: asked for 6 or 8
    # levels instead of 12, it reported degeneracy 3 and splitting 4.0 on 2x3
    for L1, L2 in ((2, 3), (3, 2), (2, 4)):
        rep = spectrum(build_torus(L1, L2))
        assert abs(rep.energies[0] + 2 * L1 * L2) < 1e-8
        assert rep.ground_degeneracy == 4
        assert abs(rep.gap_delta - 4) < 1e-8
        assert rep.splitting < 1e-12


def test_spectrum_matches_independent_kron_oracle():
    lat = build_torus(2, 2)
    for h in (0.0, 0.3):
        pert = perturbation_terms(lat, "z_field")
        rep = spectrum(lat, pert, h)
        w = np.linalg.eigvalsh(_oracle_hamiltonian(2, 2, h, "z_field"))
        assert np.allclose(rep.energies, w[: len(rep.energies)], atol=1e-9)


def test_field_sign_symmetry_of_the_spectrum():
    lat = build_torus(2, 2)
    pert = perturbation_terms(lat, "z_field")
    up = spectrum(lat, pert, 0.2)
    down = spectrum(lat, pert, -0.2)
    assert np.allclose(up.energies, down.energies, atol=1e-9)


def test_perturbation_term_inventory():
    lat = build_torus(2, 3)
    n = lat.n_qubits
    counts = {"z_field": n, "z_field_right": n // 2, "z_field_down": n // 2, "x_field": n}
    for kind in PERTURBATION_KINDS:
        terms = perturbation_terms(lat, kind)
        assert len(terms) == counts[kind]
        for op, coeff in terms:
            assert coeff == 1.0 and weight(op) == 1
            if kind == "x_field":
                assert op.z_bits == 0
            else:
                assert op.x_bits == 0
    with pytest.raises(ValueError):
        perturbation_terms(lat, "y_field")
    assert len(toric_check_terms(lat)) == 12


def test_non_hermitian_terms_are_rejected():
    lat = build_torus(2, 2)
    bad = [(PauliOp(lat.n_qubits, 1, 1), 1.0)]  # phase-0 XZ pattern: anti-Hermitian
    with pytest.raises(ValueError):
        spectrum(lat, bad, 0.5)


def test_small_perturbation_keeps_splitting_far_below_gap():
    lat = build_torus(2, 2)
    rep = spectrum(lat, perturbation_terms(lat, "z_field_right"), 0.05)
    assert rep.splitting < rep.gap_delta / 100
    # the four quasi-degenerate levels sit far below the first excited state
    w = rep.energies
    assert w[3] - w[0] == pytest.approx(rep.splitting)
    assert w[4] - w[3] > 100 * rep.splitting


def test_scaling_needs_three_distinct_sizes_within_the_cap():
    with pytest.raises(InsufficientDataError):
        scaling_study([(2, 2), (2, 3)], 0.1)
    with pytest.raises(InsufficientDataError), pytest.warns(UserWarning):
        scaling_study([(2, 2), (2, 2), (2, 3)], 0.1)
    with pytest.raises(ResourceLimitError):
        scaling_study([(2, 2), (2, 3), (5, 5)], 0.1)  # 2^24 states per sector


def test_scaling_checks_every_size_before_solving_any(monkeypatch):
    """A size that makes no torus is refused before the sizes ahead of it
    are solved."""
    solve, solved = verify.flux_free_spectrum, []

    def counted(lat, *args):
        solved.append((lat.L1, lat.L2))
        return solve(lat, *args)

    monkeypatch.setattr(verify, "flux_free_spectrum", counted)
    with pytest.raises(ValueError, match="torus needs"):
        scaling_study([(3, 4), (3, 3), (1, 2)], 0.1)
    assert solved == []


def test_scaling_handles_exact_degeneracy_and_duplicates():
    with pytest.warns(UserWarning, match="duplicate"):
        res = scaling_study([(2, 2), (2, 2), (2, 3), (3, 2)], 0.0)
    assert len(res.rows) == 3
    assert res.degenerate and res.fits == {}
    assert any("duplicate" in note for note in res.notes)
    assert all(s < 1e-10 for _, s in res.points)


def test_sector_rows_match_the_full_space_solver():
    """The flux-free sector path against the full-space oracle `spectrum`:
    the multiplet and the next level, the degeneracy, gap, splitting and
    coupling_k, and the deviation built from the full-space ground vectors."""
    sizes = [(2, 2), (2, 3), (3, 2)]
    cases = [(kind, h, sizes, sizes) for kind in PERTURBATION_KINDS
             for h in (0.0, 0.1, 0.3, -0.2)]
    # at h = 1.2 the row-direction field puts two levels of one sector into
    # the multiplet; 3x2 is left out, because its fourth and fifth levels
    # tie and the run refuses (see the tied-multiplet test), and 2x4 only
    # makes up the three sizes
    cases.append(("z_field_right", 1.2, [(2, 2), (2, 3), (2, 4)], sizes[:2]))
    for kind, h, solved, compared in cases:
        rows = scaling_study(solved, h, kind=kind).rows
        for row, (L1, L2) in zip(rows, solved):
            if (L1, L2) not in compared:
                continue
            lat = build_torus(L1, L2)
            pert = perturbation_terms(lat, kind)
            rep, V = spectrum(lat, pert, h, return_vectors=True)
            q = code_dimension(lat)
            kl = kl_check_ground_basis(V[:, :q], [op for op, _ in pert])
            sector, _ = verify.flux_free_spectrum(lat, kind, h)
            where = (kind, h, L1, L2)
            assert (row.L1, row.L2, row.h) == (L1, L2, h)
            assert len(sector.energies) == q + 1, where
            assert np.abs(np.subtract(sector.energies, rep.energies[:q + 1])).max() < 1e-12, where
            assert sector.ground_degeneracy == rep.ground_degeneracy, where
            assert abs(row.splitting - rep.splitting) < 1e-10, where
            assert abs(row.gap - rep.gap_delta) < 1e-10, where
            assert abs(row.deviation_max - kl.max_deviation) < 1e-9, where
            assert abs(row.coupling_k - rep.coupling_k) < 1e-9, where


def _assert_rows_agree(rows_a, rows_b, where):
    for a, b in zip(rows_a, rows_b, strict=True):
        for field in ("splitting", "gap", "coupling_k", "deviation_max"):
            assert abs(getattr(a, field) - getattr(b, field)) < 1e-12, (where, a, b, field)


_DENSE_SIZES = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4), (4, 3)]


@pytest.mark.parametrize("h", [0.1, 0.3])
def test_sector_rows_respect_e_m_duality(h):
    """An X field and a Z field are exchanged by the lattice duality that
    swaps stars and plaquettes, so their rows agree."""
    _assert_rows_agree(scaling_study(_DENSE_SIZES, h, kind="x_field").rows,
                       scaling_study(_DENSE_SIZES, h, kind="z_field").rows, h)


@pytest.mark.parametrize("kind", PERTURBATION_KINDS)
def test_sector_rows_are_even_in_h(kind):
    """X on every edge commutes with every check and flips every Z (and Z
    on every edge every X), so h and -h give the same rows."""
    _assert_rows_agree(scaling_study(_DENSE_SIZES, 0.2, kind=kind).rows,
                       scaling_study(_DENSE_SIZES, -0.2, kind=kind).rows, kind)


def test_sector_rows_of_transposed_tori_agree():
    """Transposing L1 x L2 to L2 x L1 turns the row-direction field into the
    column-direction one."""
    transposed = [(L2, L1) for L1, L2 in _DENSE_SIZES]
    for h in (0.1, -0.3):
        _assert_rows_agree(scaling_study(_DENSE_SIZES, h, kind="z_field_right").rows,
                           scaling_study(transposed, h, kind="z_field_down").rows, h)


def _coset_solve(lat, perturbation, h, config):
    """The coset solve, one term at a time: per sector, one sign vector per
    field term, summed for the field, and the whole 2^(L1*L2 - 1)-state
    sector solved by `verify._lowest` (dense eigh up to the cap, ARPACK
    above).  (levels, multiplet, states, fields, field_bits): the q + 1
    lowest levels, ascending, and the lowest q's vectors as (J, G), sector J
    with its vectors in the columns of G (ties ranked by sector)."""
    ops = [op for op, _ in perturbation]
    swap = all(op.z_bits == 0 for op in ops)
    field_bits = [op.x_bits if swap else op.z_bits for op in ops]
    checks, frames, basis = verify._loop_frames(lat, swap)
    q = code_dimension(lat)
    dim = 1 << len(basis)
    check_groups = verify._coset_sum(checks, frames[0], basis)
    solved, states, fields = [], [], []
    for J, z0 in enumerate(frames):
        states.append(verify._coset_states(z0, basis))
        fields.append(sum(coeff * verify._signs(states[J], z)
                          for (_, coeff), z in zip(perturbation, field_bits)))
        groups = dict(check_groups)
        groups[0] = h * fields[J] + groups[0]
        solved.append(verify._lowest(dim, q + 1,
                                     lambda: verify._coset_dense(groups, dim),
                                     lambda: verify._sparse_operator(groups, dim),
                                     (5, lat.L1, lat.L2, J), config))
    levels = sorted((float(x), J) for J, (w, _) in enumerate(solved) for x in w)
    share = [sum(1 for _, J in levels[:q] if J == K) for K in range(len(solved))]
    multiplet = [(J, solved[J][1][:, :m]) for J, m in enumerate(share) if m]
    return [x for x, _ in levels[:q + 1]], multiplet, states, fields, field_bits


def _term_deviations(multiplet, states, field_bits, q):
    """The projected-condition deviation of each field term, in term order:
    the largest over sectors of ||G^T Z G - c 1||, c the multiplet mean."""
    deviations = []
    for z in field_bits:
        blocks = [G.T @ (verify._signs(states[J], z)[:, None] * G) for J, G in multiplet]
        c = sum(np.trace(b) for b in blocks) / q
        deviations.append(max(float(np.linalg.norm(b - c * np.eye(len(b)), 2))
                              for b in blocks))
    return deviations


def _per_term_row(lat, perturbation, h, config):
    """The coset solve's row: levels, certificate and multiplet as
    `flux_free_spectrum` reads them, deviation_max over every term."""
    w, multiplet, states, fields, field_bits = _coset_solve(lat, perturbation, h, config)
    q = code_dimension(lat)
    if w[q] - w[0] > verify._FLUX_PAIR_COST + verify._EIG_RESIDUAL_TOL * max(1.0, abs(w[0])):
        raise SectorCertificateError("flux-free certificate failed")
    degeneracy, gap, splitting = verify._multiplet(lat, h, w, q)
    deviation = max(_term_deviations(multiplet, states, field_bits, q))
    coupling = 0.0
    for J, G in multiplet:
        vg = fields[J][:, None] * G
        coupling = max(coupling, float(np.linalg.norm(vg - G @ (G.T @ vg), 2)))
    return SpectralReport(tuple(w), degeneracy, gap, splitting, coupling), deviation


def _assert_blocks_match_the_coset_solve(lat, kind, h):
    """Levels, gap and splitting to 1e-12, coupling_k and deviation_max to
    1e-10: the blocks and the coset solve round differently, and the two
    ARPACK paths start from different vectors."""
    got, dev = verify.flux_free_spectrum(lat, kind, h, DEFAULT_CONFIG)
    want, want_dev = _per_term_row(lat, perturbation_terms(lat, kind), h, DEFAULT_CONFIG)
    where = (kind, h, lat.L1, lat.L2)
    assert len(got.energies) == len(want.energies), where
    assert got.ground_degeneracy == want.ground_degeneracy, where
    assert np.abs(np.subtract(got.energies, want.energies)).max() < 1e-12, where
    assert abs(got.gap_delta - want.gap_delta) < 1e-12, where
    assert abs(got.splitting - want.splitting) < 1e-12, where
    assert abs(got.coupling_k - want.coupling_k) < 1e-10, where
    assert abs(dev - want_dev) < 1e-10, where


def test_momentum_blocks_match_the_coset_solve(monkeypatch):
    """`flux_free_spectrum` solves each sector in translation-momentum
    blocks; the coset solve is its oracle.  Covers every kind, a sector
    holding two multiplet levels (z_field_right at h = 1.2, both from real
    blocks), and 2x4 z_field at h = 0.7, pinned by a sweep of h: there the
    third sector's multiplet levels are the pair +-k of a complex block, so
    its vectors are complex and one is the other's conjugate."""
    cases = [(kind, h, size) for kind in PERTURBATION_KINDS for h in (0.0, 0.1, -0.2)
             for size in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3))]
    cases += [("z_field_right", 1.2, size) for size in ((2, 2), (2, 3))]
    for kind, h, size in cases:
        _assert_blocks_match_the_coset_solve(build_torus(*size), kind, h)

    expand, expanded = verify._MomentumBlocks.vectors, []

    def recorded(blocks, J, b, y):
        expanded.extend(zip(J.tolist(), blocks.ks[b].tolist(), blocks.real[b].tolist()))
        return expand(blocks, J, b, y)

    monkeypatch.setattr(verify._MomentumBlocks, "vectors", recorded)
    _assert_blocks_match_the_coset_solve(build_torus(2, 4), "z_field", 0.7)
    assert sorted(expanded) == [(0, 0, True), (2, 0, True), (2, 1, False), (2, 1, False)]


def _deviation_spread(L1, L2, kind, h):
    """The largest gap, over the field's terms, between a term's deviation
    on the coset solve's multiplet and that of the vertex-(0, 0) edge in its
    direction (edge 0 right, edge 1 down)."""
    lat = build_torus(L1, L2)
    terms = perturbation_terms(lat, kind)
    _, multiplet, states, _, field_bits = _coset_solve(lat, terms, h, DEFAULT_CONFIG)
    deviations = _term_deviations(multiplet, states, field_bits, code_dimension(lat))
    edges = [int(z).bit_length() - 1 for z in field_bits]
    at_origin = dict(zip(edges, deviations))
    return max(abs(d - at_origin[e % 2]) for e, d in zip(edges, deviations))


def test_one_edge_per_translation_orbit_gives_every_deviation():
    """`flux_free_spectrum` reads deviation_max from the terms on edges 0
    and 1 alone: a translation maps each edge to one of them and keeps the
    multiplet.  The coset solve's vectors, found without the translations,
    give every edge the deviation of its direction's vertex-(0, 0) edge;
    2x4 z_field at h = 0.7 holds a complex block's pair.  The control is
    the tied 3x2 z_field_right multiplet at h = 1.2, which `_multiplet`
    refuses: its q-th vector is one of a tied pair, the multiplet is not
    translation invariant, and the deviations differ by edge."""
    spread = max(_deviation_spread(L1, L2, kind, h) for kind in PERTURBATION_KINDS
                 for h in (0.1, 0.7) for L1, L2 in ((2, 3), (3, 3), (2, 4)))
    assert spread < 1e-12
    assert _deviation_spread(3, 2, "z_field_right", 1.2) > 1e-3
    with pytest.raises(ValueError, match="tied multiplet"):
        verify.flux_free_spectrum(build_torus(3, 2), "z_field_right", 1.2)


def test_arpack_blocks_match_the_coset_solve(monkeypatch):
    """A 4x4 sector has 2068 to 2108 orbits, above _DENSE_SPECTRUM_CAP, so
    every block is a CSR matrix for ARPACK; the oracle solves 2^15 coset
    states with ARPACK.  A 3x3 sector has 32 orbits and blocks of 28 and 32:
    with the cap lowered to 24 they take the same branch."""
    lowest, streams = verify._lowest, []

    def recorded(dim, k, dense, operator, stream, config):
        streams.append((dim, stream))
        return lowest(dim, k, dense, operator, stream, config)

    monkeypatch.setattr(verify, "_lowest", recorded)
    _assert_blocks_match_the_coset_solve(build_torus(4, 4), "z_field", 0.1)
    blocks = [dim for dim, stream in streams if len(stream) == 5]
    assert len(blocks) == 4 * 10 and min(blocks) > verify._DENSE_SPECTRUM_CAP
    monkeypatch.setattr(verify, "_DENSE_SPECTRUM_CAP", 24)
    streams.clear()
    for kind in ("z_field", "x_field"):
        _assert_blocks_match_the_coset_solve(build_torus(3, 3), kind, 0.1)
    blocks = [dim for dim, stream in streams if len(stream) == 5]
    assert len(blocks) == 2 * 4 * 5 and min(blocks) > 24


def test_a_field_that_breaks_translations_is_refused(monkeypatch):
    """The blocks need every sector to commute with the translations; a
    field missing one edge does not, and the solve refuses it."""
    terms = verify.perturbation_terms
    monkeypatch.setattr(verify, "perturbation_terms", lambda lat, kind: terms(lat, kind)[1:])
    with pytest.raises(ValueError, match="not translation and inversion invariant"):
        verify.flux_free_spectrum(build_torus(2, 3), "z_field", 0.1)
    assert verify.flux_free_spectrum(build_torus(2, 3), "z_field", 0.0)[0].splitting < 1e-12


def test_one_elimination_per_frame(monkeypatch):
    """`_coset_sum` reduces its basis and every term against one GF(2)
    elimination, and the translation images of every frame share another:
    a flux-free solve runs three (one more ranks the checks), whatever the
    size."""
    eliminate, rows = gf2._eliminate, []
    monkeypatch.setattr(gf2, "_eliminate", lambda r: rows.append(len(r)) or eliminate(r))
    lat = build_torus(3, 3)
    verify._coset_sum(perturbation_terms(lat, "x_field"), 0, [1 << i for i in range(18)])
    assert rows == [18]
    for size in ((2, 2), (3, 4)):
        rows.clear()
        verify.flux_free_spectrum(build_torus(*size), "z_field", 0.1)
        assert len(rows) == 3, (size, rows)


def test_scaling_refuses_when_the_flux_free_certificate_fails(capsys):
    # at h = 2 the fifth flux-free level lies more than 4 above the ground,
    # where a sector with flux could undercut it
    sizes = [(2, 2), (2, 3), (3, 2)]
    for first in range(3):
        order = sizes[first:] + sizes[:first]
        L1, L2 = order[0]
        with pytest.raises(SectorCertificateError, match=f"certificate failed on {L1}x{L2}"):
            scaling_study(order, 2.0, kind="z_field")
    rc = main(["scaling", "--sizes", "2x2,2x3,3x2", "--h", "2.0"])
    out, err = capsys.readouterr()
    assert rc == EXIT_VALIDATION
    assert "flux-free certificate failed" in err
    assert out == ""


@pytest.mark.parametrize("kind, tied, sizes", [
    ("z_field_right", (3, 2), "2x2,2x3,3x2"),
    ("z_field_down", (2, 3), "2x2,3x2,2x3"),
])
def test_tied_multiplet_is_refused(kind, tied, sizes, capsys):
    # at h = 1.2 the fourth and fifth levels coincide (splitting = gap =
    # 1.44819974...), so which of them joins the multiplet, and with it
    # deviation_max (0.1066 from the sectors, 0.1580 from the full space),
    # would be up to the solver
    lat = build_torus(*tied)
    match = f"tied multiplet on {tied[0]}x{tied[1]} at h=1.2"
    with pytest.raises(ValueError, match=match):
        spectrum(lat, perturbation_terms(lat, kind), 1.2)
    with pytest.raises(ValueError, match=match):
        scaling_study([tuple(map(int, s.split("x"))) for s in sizes.split(",")],
                      1.2, kind=kind)
    rc = main(["scaling", "--sizes", sizes, "--h", "1.2", "--perturbation", kind])
    out, err = capsys.readouterr()
    assert rc == EXIT_VALIDATION
    assert match in err
    assert out == ""


def test_uniform_field_splitting_plateaus_on_thin_tori():
    # on 2 x L2 the L2 length-2 wrap strings of the short side set the
    # splitting at order h^2, whatever the long side: no decay
    res = scaling_study([(2, 2), (2, 3), (2, 4)], 0.1, kind="z_field")
    frozen = [0.040593699203860467, 0.032033070287042165, 0.040745453816139587]
    got = [r.splitting for r in res.rows]
    assert np.allclose(got, frozen, rtol=1e-6)
    assert all(b / a >= 0.5 for a, b in zip(got, got[1:]))


def test_single_direction_field_splitting_decays_with_size():
    res = scaling_study([(2, 2), (2, 3), (2, 4)], 0.1, kind="z_field_right")
    frozen = [0.019950248448358465, 0.001495304526809349, 0.0001245616766922808]
    got = [r.splitting for r in res.rows]
    assert np.allclose(got, frozen, rtol=1e-6)
    for a, b in zip(got, got[1:]):
        assert b / a < 0.15  # one extra order of the field per added column
    assert not res.degenerate
    assert res.fit_alpha > 0
    assert all(r.gap > 3.5 for r in res.rows)

    text = scaling_to_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    for line, row in zip(lines[1:], res.rows):
        parts = line.split(",")
        assert (int(parts[0]), int(parts[1])) == (row.L1, row.L2)
        # 17 significant digits survive the round trip exactly
        assert [float(p) for p in parts[2:]] == \
               [row.h, row.splitting, row.gap, row.coupling_k, row.deviation_max]
