"""Tests of the benchmark itself: oracles, tracer, seeding and failure
accounting.  Run with `python3 -m pytest bench -q` from the repository root.
"""

import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import tracer
import workloads
from nsslab import algebra, anyon, lattice, verify
from oracles import CheckFailed

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------------ oracles

def test_spectral_oracle_matches_package_and_rejects_small_errors():
    expected = {}
    for L1, L2 in ((2, 2), (2, 3)):
        lat = lattice.build_torus(L1, L2)
        rep = verify.spectrum(lat, verify.perturbation_terms(lat, "z_field_right"), 0.1)
        expected[(L1, L2)] = oracles.toric_levels(L1, L2, 0.1, "z_field_right")
        assert abs(rep.splitting - expected[(L1, L2)][0]) < oracles.SPECTRAL_TOL
        assert abs(rep.gap_delta - expected[(L1, L2)][1]) < oracles.SPECTRAL_TOL
    rows = [(a, b, s, g) for (a, b), (s, g) in expected.items()]
    oracles.check_scaling_rows(rows, expected)
    off = [(2, 2, rows[0][2] + 1e-6, rows[0][3])] + rows[1:]
    with pytest.raises(CheckFailed, match="splitting"):
        oracles.check_scaling_rows(off, expected)


def test_sector_oracle_rejects_wrong_shape():
    shapes = oracles.clebsch_gordan_shapes(5)
    assert shapes == [(1, 6), (4, 4), (5, 2)]
    oracles.check_shapes(shapes, 32, 56, 42, shapes)
    with pytest.raises(CheckFailed, match="shapes"):
        oracles.check_shapes([(1, 6), (4, 4), (4, 2)], 32, 56, 42, shapes)


def test_sector_oracle_checks_isometries_of_a_real_decomposition():
    gens = oracles.collective_generators(3)
    dec = algebra.decompose(algebra.close_algebra(algebra.error_set(gens)))
    isos = [(s.n_J, s.d_J, s.isometry) for s in dec.sectors]
    oracles.check_isometries(isos, gens)
    n, d, V = isos[0]
    with pytest.raises(CheckFailed):
        oracles.check_isometries([(n, d, V[:, ::-1] * 1.01)] + isos[1:], gens)


def test_code_projector_oracle_matches_package():
    P = oracles.toric_code_projector(2, 2)
    assert np.allclose(P, verify.code_projector(lattice.build_torus(2, 2)))


def test_anyon_oracle_rejects_flipped_phase(tmp_path):
    wl = workloads.build("sectors", 3, tmp_path)
    op = next(op for op in wl.ops if op.name == "braid 12x12")
    text = op.run()
    op.check(text, None)
    doc = json.loads(text)
    doc["phase"] = [-doc["phase"][0], 0.0]
    with pytest.raises(CheckFailed, match="phase"):
        op.check(json.dumps(doc), None)


def test_kl_count_formula():
    n = 50
    assert oracles.kl_error_count(n, 2) == n * 3 + n * (n - 1) // 2 * 9 == 11175


# ------------------------------------------------------------------- tracer

def _small_calls():
    """A few cheap calls that cross every traced layer but cli."""
    lat = lattice.build_torus(2, 3)
    rep = verify.spectrum(lat, verify.perturbation_terms(lat, "z_field"), 0.1)
    dec = algebra.decompose(algebra.close_algebra(
        algebra.error_set(oracles.collective_generators(3))))
    lat4 = lattice.build_torus(4, 4)
    s = anyon.create_pair(anyon.ground_state(lat4), "e", 0)
    s = anyon.create_pair(s, "m", 11)
    t = anyon.braid(s, 0, 2)
    kl = verify.kl_check_stabilizer(lat, verify.local_error_generators(lat, 1, False))
    return rep, dec, anyon.relative_phase(t, s), kl


def test_tracer_wraps_every_binding_and_restores_them():
    originals = tracer.public_functions()
    modules = tracer.layer_modules()
    tr = tracer.Tracer()
    with tr:
        for mod in modules:
            for attr, value in vars(mod).items():
                assert not any(value is fn for fn in originals.values()), \
                    f"{mod.__name__}.{attr} escaped the tracer"
    assert tracer.public_functions() == originals
    for mod in modules:
        for attr, value in vars(mod).items():
            if callable(value):
                assert not hasattr(value, "__wrapped__"), f"{mod.__name__}.{attr}"


def test_tracer_passes_results_through_unchanged():
    plain = workloads.fingerprint(_small_calls())
    tr = tracer.Tracer()
    with tr:
        traced = workloads.fingerprint(_small_calls())
    assert traced == plain
    summary = tr.summary()
    for name in ("verify.spectrum", "verify.matvec", "verify.eigsh",
                 "algebra.close_algebra", "algebra.eigh", "anyon.braid",
                 "pauli.apply_to_vector", "lattice.build_torus"):
        assert summary[name]["calls"] > 0, name
    assert tr.counts["pauli.commutes"] > 0 and tr.counts["gf2.solve"] > 0
    assert tr.counts["anyon.rectangles"] == 3 * 3 * 16
    for rec in summary.values():
        assert rec["self_s"] <= rec["total_s"] + 1e-9


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.spans[:] = [("a", 0.0, 10.0, -1, None), ("b", 1.0, 4.0, 0, None),
                   ("c", 5.0, 6.0, 0, None), ("d", 2.0, 3.0, 1, None)]
    s = tr.summary()
    assert s["a"]["self_s"] == 6.0 and s["b"]["self_s"] == 2.0
    assert s["d"]["self_s"] == 1.0


# ---------------------------------------------------------------- seeding

def _inputs(workdir):
    return sorted(p.read_text() for p in Path(workdir).glob("*.json"))


def test_new_seed_changes_inputs_not_verdicts(tmp_path):
    a = workloads.build("sectors", 1, tmp_path / "sectors1")
    b = workloads.build("sectors", 2, tmp_path / "sectors2")
    workloads.build("sectors", 1, tmp_path / "sectors1b")
    assert _inputs(tmp_path / "sectors1") != _inputs(tmp_path / "sectors2")
    assert _inputs(tmp_path / "sectors1") == _inputs(tmp_path / "sectors1b")
    for wl in (a, b):
        wl.prepare_oracle()
        for op in wl.ops:
            if op.name in ("braid 16x16", "sector_orbits 2x2"):
                continue        # the slowest operations; same code as the rest
            op.check(op.run(), wl.oracle)
    s1 = workloads.build("spectral", 1, tmp_path / "s1")
    s2 = workloads.build("spectral", 2, tmp_path / "s2")
    assert [op.name for op in s1.ops] != [op.name for op in s2.ops]


# ------------------------------------------------------- failure accounting

def test_wrong_or_raising_answers_count_as_failures(tmp_path):
    wl = workloads.build("sectors", 5, tmp_path)
    wl.prepare_oracle()
    phase_op = next(op for op in wl.ops if op.name.startswith("relative_phase"))
    right = phase_op.run()
    ledger = run.Ledger(wl)
    ledger.record(phase_op, right, None)
    ledger.record(phase_op, right, None)
    ledger.judge()
    assert ledger.attempted == 2 and ledger.errors == []

    ledger = run.Ledger(wl)
    ledger.record(phase_op, -right, None)       # wrong, but reproducible
    ledger.record(phase_op, -right, None)
    ledger.record(phase_op, None, "Traceback: boom")
    ledger.judge()
    assert ledger.attempted == 3 and len(ledger.errors) == 3

    ledger = run.Ledger(wl)
    ledger.record(phase_op, right, None)
    ledger.record(phase_op, right * 1j, None)   # differs from the first pass
    ledger.judge()
    assert len(ledger.errors) == 1


def test_command_output_is_checked_and_must_repeat(tmp_path, monkeypatch):
    wl = workloads.build("sectors", 5, tmp_path)
    wl.cli_check = lambda text, oracle: oracles.require(text == "ok\n", "not ok")
    printed = iter(["ok\n", "ok\n", "ok \n", "bad\n", "bad\n"])
    monkeypatch.setattr(run, "run_child", lambda argv: (
        1.0, subprocess.CompletedProcess(argv, 0, next(printed), "")))
    ledger = run.Ledger(wl)
    assert [run.time_cli(wl, ledger) for _ in range(3)] == [1.0] * 3
    ledger.judge()
    assert ledger.attempted == 3
    assert [why for _, why in ledger.errors] == ["answer differs from the first pass"]
    ledger = run.Ledger(wl)
    run.time_cli(wl, ledger)
    run.time_cli(wl, ledger)
    ledger.judge()
    assert [why for _, why in ledger.errors] == ["CheckFailed: not ok"] * 2

    monkeypatch.undo()
    wl.cli_argv = ["no-such-command"]
    ledger = run.Ledger(wl)
    run.time_cli(wl, ledger)
    ledger.judge()
    assert ledger.attempted == 1 and "exit code 2" in ledger.errors[0][1]


def test_fingerprint_sees_one_bit():
    x = np.linspace(0, 1, 7)
    y = x.copy()
    y[3] = np.nextafter(y[3], 2)
    assert workloads.fingerprint((x, "a")) == workloads.fingerprint((x.copy(), "a"))
    assert workloads.fingerprint(x) != workloads.fingerprint(y)


# ------------------------------------------------------------ BENCHMARK.json

def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
