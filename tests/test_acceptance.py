"""Acceptance gate: nine numbered criteria, one test each.

Every test prints a single `criterion N: PASS/FAIL — detail` line with
capture suspended, so every verdict reaches the live log, and then asserts
the same verdict, so a red criterion still reports its measured numbers.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from nsslab import (
    braid,
    build_torus,
    close_algebra,
    code_dimension,
    code_projector,
    commutant,
    create_pair,
    decompose,
    dense_state,
    error_set,
    error_set_to_json,
    fuse,
    ground_state,
    homology_basis,
    kl_check_stabilizer,
    local_error_generators,
    move_anyon,
    scaling_study,
    sector_of,
    sector_orbits,
    spectrum,
    to_dense,
)
from nsslab.algebra import block_structure_residual, span_projector_distance

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _verdict(cap, num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    with cap.disabled():
        print(line, file=sys.stderr, flush=True)
    return detail


def _collective_generators():
    def embed(s, i):
        out = np.eye(1, dtype=complex)
        for k in range(3):
            out = np.kron(out, s if k == i else np.eye(2))
        return out

    return [sum(embed(s, i) for i in range(3)) / 2 for s in (_SX, _SY, _SZ)]


def test_criterion_1_topological_ground_degeneracy(capfd):
    t0 = time.time()
    dims = {}
    for L1 in range(2, 7):
        for L2 in range(2, 7):
            dims[(L1, L2)] = code_dimension(build_torus(L1, L2))
    elapsed = time.time() - t0
    ok = all(v == 4 for v in dims.values()) and elapsed < 1.0
    detail = _verdict(capfd, 1, ok,
                      f"code dimension 4 on all {len(dims)} lattices "
                      f"2..6 x 2..6 via GF(2) rank, {elapsed:.2f}s")
    assert ok, detail


def test_criterion_2_low_weight_errors_exactly_correctable(capfd):
    t0 = time.time()
    lat33 = build_torus(3, 3)
    errors = local_error_generators(lat33, 2, loop_commuting=False)
    sweep = kl_check_stabilizer(lat33, errors)

    lat22 = build_torus(2, 2)
    loops = homology_basis(lat22)
    loop_rep = kl_check_stabilizer(lat22, [lo.op for lo in loops])
    elapsed = time.time() - t0
    ok = (sweep.max_deviation == 0.0 and len(errors) == 1431
          and all(dev == 1.0 for dev in loop_rep.deviations)
          and len(loop_rep.deviations) == 4
          and elapsed < 10.0)
    detail = _verdict(
        capfd, 2, ok,
        f"all {len(errors)} Paulis of weight <= 2 on 3x3 have deviation "
        f"{sweep.max_deviation}; the 4 minimal loops on 2x2 each deviate "
        f"{ {lo.homology_class: dev for lo, dev in zip(loops, loop_rep.deviations)} }; "
        f"{elapsed:.2f}s")
    assert ok, detail


def test_criterion_3_collective_noise_sector_decomposition(capfd):
    t0 = time.time()
    gens = _collective_generators()
    alg = close_algebra(error_set(gens))
    dec = decompose(alg)
    com = commutant(alg)
    double = span_projector_distance(alg, commutant(com))
    block = max(block_structure_residual(s, g)[0]
                for s in dec.sectors for g in gens)
    elapsed = time.time() - t0
    ok = (dec.sector_shapes == [(1, 4), (2, 2)]
          and dec.total_dim == 8
          and dec.algebra_dim == alg.algebra_dim
          and dec.commutant_dim == com.algebra_dim
          and block < 1e-7 and double < 1e-7
          and elapsed < 5.0)
    detail = _verdict(
        capfd, 3, ok,
        f"sectors {dec.sector_shapes}, sum(n*d)={dec.total_dim}, "
        f"sum(d^2)={dec.algebra_dim}=dim A, sum(n^2)={dec.commutant_dim}"
        f"=dim A', block residual {block:.1e}, double-commutant distance "
        f"{double:.1e}; {elapsed:.2f}s")
    assert ok, detail


def test_criterion_4_code_space_is_the_noiseless_factor(capfd):
    t0 = time.time()
    lat = build_torus(2, 2)
    P = code_projector(lat)
    weight1 = local_error_generators(lat, 1, loop_commuting=False)
    # errors enter as their action on the protected subspace: compressed by
    # the code projector, with the projector itself closing the set
    mats = [P @ to_dense(E) @ P for E in weight1] + [P]
    dec = decompose(close_algebra(error_set(mats)))
    sec = next((s for s in dec.sectors if s.n_J == 4), None)
    dist = float("inf")
    if sec is not None:
        V = sec.isometry
        dist = float(np.linalg.norm(V @ V.conj().T - P, 2))
    elapsed = time.time() - t0
    ok = sec is not None and dist < 1e-7 and elapsed < 60.0
    detail = _verdict(
        capfd, 4, ok,
        f"sectors {dec.sector_shapes} from {len(weight1)} compressed "
        f"weight-1 errors; n_J=4 isometry image vs stabilizer code "
        f"projector: distance {dist:.1e}; {elapsed:.2f}s")
    assert ok, detail


def test_criterion_5_error_orbits_partition_the_space(capfd):
    rep = sector_orbits(build_torus(2, 2))
    ok = (rep.orbit_dims == (64, 64, 64, 64)
          and rep.max_overlap < 1e-10
          and rep.total_dim == 256 and rep.fills_space)
    detail = _verdict(
        capfd, 5, ok,
        f"orbit dimensions {rep.orbit_dims} sum to {rep.total_dim}, "
        f"max overlap {rep.max_overlap:.1e}")
    assert ok, detail


def test_criterion_6_gap_with_dense_oracle(capfd):
    lat = build_torus(2, 2)
    rep = spectrum(lat)

    # independent rebuild: explicit Kronecker products, different edge order
    def right(r, c):
        return (r % 2) * 2 + (c % 2)

    def down(r, c):
        return 4 + (r % 2) * 2 + (c % 2)

    def term(which, edges):
        out = np.eye(1)
        for q in range(8):
            out = np.kron(out, which if q in edges else np.eye(2))
        return out

    H = np.zeros((256, 256))
    for r in range(2):
        for c in range(2):
            H -= term(_SX.real, {right(r, c), down(r, c), right(r, c - 1), down(r - 1, c)})
            H -= term(_SZ.real, {right(r, c), down(r, c), right(r + 1, c), down(r, c + 1)})
    w = np.linalg.eigvalsh(H)
    oracle_agrees = bool(np.allclose(rep.energies, w[: len(rep.energies)], atol=1e-9))

    ok = (abs(rep.energies[0] + 8) < 1e-9
          and rep.ground_degeneracy == 4
          and abs(rep.gap_delta - 4) < 1e-9
          and oracle_agrees)
    detail = _verdict(
        capfd, 6, ok,
        f"ground energy {rep.energies[0]:.12f}, degeneracy "
        f"{rep.ground_degeneracy}, gap {rep.gap_delta:.12f}, dense oracle "
        f"agreement {oracle_agrees}")
    assert ok, detail


def test_criterion_7_splitting_decay_under_uniform_field(capfd):
    t0 = time.time()
    # square tori, so the code distance min(L1, L2) grows along the sweep;
    # 4x4 solves sectors of 2^15 states, within the default cap
    res = scaling_study([(2, 2), (3, 3), (4, 4)], 0.1, kind="z_field")
    elapsed = time.time() - t0
    s = [r.splitting for r in res.rows]
    ratios = [b / a for a, b in zip(s, s[1:])]
    monotone = all(b < a for a, b in zip(s, s[1:]))
    ok = monotone and all(r < 0.5 for r in ratios) and elapsed < 600.0
    detail = _verdict(
        capfd, 7, ok,
        f"uniform field h=0.1 splittings {['%.6e' % v for v in s]} "
        f"(want monotone decay with per-step ratio < 0.5; ratios "
        f"{['%.3f' % r for r in ratios]}); fit alpha {res.fit_alpha:.4f} "
        f"(n={res.fit_n}, residual {res.fit_residual:.3f}); {elapsed:.1f}s")
    assert ok, detail


def test_criterion_8_braiding_phases_and_sector_flip(capfd):
    lat = build_torus(2, 2)
    s = create_pair(ground_state(lat), "e", 0)
    s = create_pair(s, "m", 3)
    once = braid(s, 0, 2)
    phase1 = complex(np.vdot(dense_state(s), dense_state(once)))
    twice = braid(once, 0, 2)
    phase2 = complex(np.vdot(dense_state(s), dense_state(twice)))

    t = create_pair(ground_state(lat), "m", 4)
    t = move_anyon(t, 0, [0])  # around the vertical cycle of the face graph
    t = fuse(t, 0, 1)
    flipped = tuple(sector_of(lat, dense_state(t)).j)

    ok = (abs(phase1 + 1) < 1e-9 and abs(phase2 - 1) < 1e-9
          and flipped == (-1, 1) and t.anyons == ())
    detail = _verdict(
        capfd, 8, ok,
        f"e-around-m interference phase {phase1.real:+.12f}, double "
        f"encirclement {phase2.real:+.12f}, non-contractible transport + "
        f"fusion moved sector (1, 1) -> {flipped}")
    assert ok, detail


def test_criterion_9_byte_identical_reruns(tmp_path, capfd):
    src = tmp_path / "collective.json"
    src.write_text(error_set_to_json(error_set(_collective_generators(),
                                               labels=("Jx", "Jy", "Jz"))))

    import nsslab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nsslab.__file__)))

    def run(argv, out_name):
        out = tmp_path / out_name
        cmd = [sys.executable, "-m", "nsslab.cli"] + argv + \
            ["--seed", "7", "--output", str(out)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    dec_args = ["decompose", "--input", str(src), "--matrices"]
    scal_args = ["scaling", "--sizes", "2x2,2x3,3x2",
                 "--h", "0.05", "--perturbation", "z_field_right"]
    dec_same = run(dec_args, "d1.json") == run(dec_args, "d2.json")
    scal_same = run(scal_args, "s1.csv") == run(scal_args, "s2.csv")

    ok = dec_same and scal_same
    detail = _verdict(
        capfd, 9, ok,
        f"decompose reruns byte-identical: {dec_same}; scaling reruns "
        f"byte-identical: {scal_same} (fixed seed 7)")
    assert ok, detail
