"""Command-line interface: reports, config merging, exit codes, determinism."""

import argparse
import ast
import json
import os
import pathlib

import numpy as np
import pytest

from nsslab import (DEFAULT_CONFIG, build_torus, cli, error_set, error_set_to_json,
                    lattice_to_json, spectrum)
from nsslab.cli import EXIT_RESOURCE, EXIT_VALIDATION, build_parser, main
from nsslab.verify import perturbation_terms

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _collective_file(tmp_path):
    def embed(s, i):
        out = np.eye(1, dtype=complex)
        for k in range(3):
            out = np.kron(out, s if k == i else np.eye(2))
        return out

    gens = [sum(embed(s, i) for i in range(3)) / 2 for s in (_SX, _SY, _SZ)]
    path = tmp_path / "collective.json"
    path.write_text(error_set_to_json(error_set(gens, labels=("Jx", "Jy", "Jz"))))
    return str(path)


def _braid_script(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps([
        {"op": "create_pair", "type": "e", "edge": 0},
        {"op": "create_pair", "type": "m", "edge": 3},
        {"op": "braid", "mover": 0, "around": 2},
        {"op": "fuse", "a": 0, "b": 1, "via": 0},
    ]))
    return str(path)


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_toric_emits_a_loadable_lattice(capsys):
    rc, out, _ = _run(capsys, ["toric", "--l1", "2", "--l2", "3"])
    assert rc == 0
    assert out == lattice_to_json(build_torus(2, 3))


def test_toric_report_fields(capsys):
    rc, out, _ = _run(capsys, ["toric", "--l1", "2", "--l2", "2", "--report"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["n_qubits"] == 8 and doc["check_rank"] == 6
    assert doc["code_dimension"] == 4 and doc["ground_degeneracy"] == 4
    assert doc["perturbation"] is None and doc["h"] == 0.0
    assert abs(doc["ground_energy"] + 8) < 1e-9
    assert abs(doc["gap"] - 4) < 1e-9 and doc["splitting"] < 1e-10
    assert doc["energies"] == sorted(doc["energies"])
    # the multiplet and the first level above it, no higher Ritz values
    assert len(doc["energies"]) == doc["code_dimension"] + 1
    _assert_matches_the_full_space_oracle(doc, None)

    rc, out, _ = _run(capsys, ["toric", "--l1", "2", "--l2", "2", "--report",
                               "--h", "0.1", "--perturbation", "z_field_right"])
    doc = json.loads(out)
    assert doc["perturbation"] == "z_field_right"
    assert abs(doc["splitting"] - 0.019950248448358465) < 1e-8
    _assert_matches_the_full_space_oracle(doc, "z_field_right")


def _assert_matches_the_full_space_oracle(doc, kind):
    """A `toric --report` from the flux-free sectors against the full-space
    `spectrum`: its levels to 1e-12, and the same degeneracy."""
    lat = build_torus(doc["l1"], doc["l2"])
    rep = spectrum(lat, perturbation_terms(lat, kind) if kind else None, doc["h"])
    q = doc["code_dimension"]
    assert np.abs(np.subtract(doc["energies"], rep.energies[:q + 1])).max() < 1e-12
    assert doc["ground_degeneracy"] == rep.ground_degeneracy
    for key, value in (("ground_energy", rep.energies[0]), ("gap", rep.gap_delta),
                       ("splitting", rep.splitting)):
        assert abs(doc[key] - value) < 1e-12, key


def test_toric_report_is_solved_in_the_flux_free_sectors(capsys):
    """`toric --report` reads its levels from the four flux-free sectors, as
    `scaling` does: sizes beyond the full-space solver report, a strong field
    whose sector levels cannot be certified exits 2, and the sector cap
    (L1*L2 - 1 <= sparse_max_qubits) refuses 5x5 with exit 4."""
    rc, out, _ = _run(capsys, ["toric", "--l1", "3", "--l2", "4", "--report"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["n_qubits"] == 24 and doc["ground_degeneracy"] == 4
    assert abs(doc["gap"] - 4) < 1e-9 and doc["splitting"] < 1e-10

    rc, out, err = _run(capsys, ["toric", "--l1", "2", "--l2", "2", "--report",
                                 "--h", "0.9"])
    assert rc == EXIT_VALIDATION and out == ""
    assert "flux-free certificate failed on 2x2 at h=0.9" in err

    rc, out, err = _run(capsys, ["toric", "--l1", "5", "--l2", "5", "--report"])
    assert rc == EXIT_RESOURCE and out == ""
    assert "size 5x5 exceeds the sparse cap" in err


def test_the_cli_has_one_spectral_engine():
    """No CLI path reaches the full-space solver: cli.py names none of
    `spectrum`, `_dense_hamiltonian` or `_matfree_operator`, whether
    imported or read as an attribute."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Name):
            named.add(node.id)
    full_space = {"spectrum", "_dense_hamiltonian", "_matfree_operator"}
    assert not named & full_space
    assert not any(hasattr(cli, name) for name in full_space)


def test_decompose_report_and_determinism(tmp_path, capsys):
    src = _collective_file(tmp_path)
    out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["decompose", "--input", src, "--output", out_a]) == 0
    assert main(["decompose", "--input", src, "--output", out_b]) == 0
    capsys.readouterr()
    a = open(out_a, "rb").read()
    assert a == open(out_b, "rb").read()
    doc = json.loads(a)
    assert doc["dimension"] == 8
    assert doc["sector_shapes"] == [[1, 4], [2, 2]]
    assert doc["algebra_dim"] == 20 and doc["commutant_dim"] == 5
    assert all("isometry" not in rec for rec in doc["sectors"])

    rc, out, _ = _run(capsys, ["decompose", "--input", src, "--matrices",
                               "--seed", "123"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["sector_shapes"] == [[1, 4], [2, 2]]
    assert "isometry" in doc["sectors"][0]


def test_output_flag_silences_stdout(tmp_path, capsys):
    path = str(tmp_path / "lat.json")
    rc, out, _ = _run(capsys, ["toric", "--l1", "2", "--l2", "2",
                               "--output", path])
    assert rc == 0 and out == ""
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == lattice_to_json(build_torus(2, 2))


def test_kl_check_report(capsys):
    rc, out, _ = _run(capsys, ["kl-check", "--l1", "2", "--l2", "2",
                               "--max-weight", "1"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["errors_checked"] == 24 and doc["weights"] == [1]
    assert doc["max_deviation"] == 0.0 and doc["logical_count"] == 0
    assert doc["first_error"] == "+XIIIIIII"
    assert doc["loop_deviations"] == {"g1_X": 1.0, "g1_Z": 1.0,
                                      "g2_X": 1.0, "g2_Z": 1.0}

    rc, out, _ = _run(capsys, ["kl-check", "--l1", "2", "--l2", "2"])
    doc = json.loads(out)
    assert doc["max_weight"] == 2 and doc["errors_checked"] == 276
    # the eight weight-2 wrap operators are the only undetected errors
    assert doc["max_deviation"] == 1.0 and doc["logical_count"] == 8
    assert len(doc["logical_examples"]) == 8

    rc, out, _ = _run(capsys, ["kl-check", "--l1", "2", "--l2", "2",
                               "--max-weight", "0"])
    doc = json.loads(out)
    assert rc == 0 and doc["max_weight"] == 0 and doc["errors_checked"] == 0


def test_scaling_csv_and_json(capsys):
    argv = ["scaling", "--sizes", "2x2,2x3,3x2", "--h", "0"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "L1,L2,h,splitting,gap,coupling_k,deviation_max"
    assert len(lines) == 4
    assert lines[1].startswith("2,2,0,")

    rc, again, _ = _run(capsys, argv)
    assert again == out  # byte-identical rerun

    rc, out, _ = _run(capsys, argv + ["--format", "json"])
    doc = json.loads(out)
    assert doc["degenerate"] is True and doc["fits"] == {}
    assert len(doc["rows"]) == 3
    assert doc["notes"] == ["exact degeneracy at every size"]


def test_braid_trajectory_report(tmp_path, capsys):
    script = _braid_script(tmp_path)
    rc, out, _ = _run(capsys, ["braid", "--l1", "2", "--l2", "2",
                               "--script", script])
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"energy": 2, "open_anyons": 2,
                   "phase": [-1.0, 0.0], "sector": [1, 1]}

    rc, out, _ = _run(capsys, ["braid", "--l1", "2", "--l2", "2",
                               "--script", script, "--sector", "1,-1"])
    assert json.loads(out)["sector"] == [1, -1]


def test_config_file_supplies_values_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "l1": 3, "l2": 2, "report": True,
        "tolerances": {"sparse_max_qubits": 4},
    }))
    rc, out, _ = _run(capsys, ["toric", "--config", str(cfg), "--l1", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["l1"] == 2 and doc["l2"] == 2  # flag beat the config file
    # 3x2's flux-free sectors hold 2^5 states (2x2's 2^3): 5 is within the
    # default cap of 20, above the override
    rc, out, _ = _run(capsys, ["toric", "--config", str(cfg)])
    assert rc == EXIT_RESOURCE and out == ""  # tolerance override honoured


def test_config_naming_a_deleted_knob_exits_2(tmp_path, capsys):
    for knob in ("eig_num_values", "block_structure_tol", "hs_orthonormal_tol",
                 "closure_residual_tol", "closure_max_iter", "span_membership_tol",
                 "projector_tol", "cluster_merge_tol", "gap_ratio_guard",
                 "orbit_overlap_tol", "eig_residual_tol", "eig_max_iter",
                 "degeneracy_cluster_rel", "dense_spectrum_cap"):
        cfg = tmp_path / f"{knob}.json"
        cfg.write_text(json.dumps({"tolerances": {knob: 8}}))
        rc, out, err = _run(capsys, ["toric", "--l1", "2", "--l2", "3",
                                     "--report", "--config", str(cfg)])
        assert rc == EXIT_VALIDATION and out == ""
        assert f"unknown config field: {knob}" in err


def test_validation_exit_codes(tmp_path, capsys):
    cases = [
        ["toric", "--l1", "1", "--l2", "2"],
        ["toric", "--l1", "2"],
        ["decompose"],
        ["decompose", "--input", str(tmp_path / "missing.json")],
        ["kl-check", "--l1", "2", "--l2", "2", "--max-weight", "-1"],
        ["scaling", "--sizes", "2x2,nope"],
        ["scaling", "--sizes", "2x2,2x3"],
        ["scaling", "--sizes", "2x2,2x3,3x2", "--perturbation", ""],
        ["scaling", "--sizes", "2x2,2x3,3x2", "--seed", "-1"],
        ["toric", "--l1", "2", "--l2", "2", "--report", "--perturbation", ""],
        ["toric", "--l1", "2", "--l2", "2", "--report", "--h", "0",
         "--perturbation", "bogus"],
        ["braid", "--l1", "2", "--l2", "2", "--script", _braid_script(tmp_path),
         "--sector", ""],
        ["braid", "--l1", "2", "--l2", "2", "--script",
         str(tmp_path / "missing.json")],
        [],
    ]
    pair = {"op": "create_pair", "type": "e", "edge": 0}
    scripts = ([1], [{"op": "move", "anyon": 0, "path": 5}],
               [{"op": "braid", "mover": float("inf"), "around": 0}],
               [{"op": "create_pair", "type": "e", "edge": 0.9}],
               [{"op": "create_pair", "type": "e", "edge": True}],
               [pair, {"op": "move", "anyon": 0, "path": "1"}],
               [pair, {"op": "move", "anyon": 0, "path": ["1"]}],
               [pair, {"op": "move", "anyon": "0", "path": [1]}])
    error_sets = ({"dimension": 2, "matrices": [1]},
                  {"dimension": 2, "matrices": [[[1, 0], [0, 1]]]}, [1],
                  {"dimension": 1, "matrices": [[[[1, 0]]]], "labels": 5})
    for k, doc in enumerate(scripts + error_sets):
        path = tmp_path / f"malformed{k}.json"
        path.write_text(json.dumps(doc))
        cases.append(["braid", "--l1", "2", "--l2", "2", "--script", str(path)]
                     if k < len(scripts) else ["decompose", "--input", str(path)])
    for argv in cases:
        rc, out, err = _run(capsys, argv)
        assert rc == EXIT_VALIDATION, argv
        assert err and out == "", argv

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"tolerances": {"not_a_knob": 1}}))
    rc, _, err = _run(capsys, ["toric", "--l1", "2", "--l2", "2",
                               "--config", str(bad_cfg)])
    assert rc == EXIT_VALIDATION and "not_a_knob" in err

    for k, (field, doc) in enumerate((
            ("sparse_max_qubits", {"tolerances": {"sparse_max_qubits": "32"}}),
            ("seed", {"tolerances": {"seed": "7"}}),
            ("seed", {"tolerances": {"seed": -1}}),
            ("dense_bridge_max_qubits", {"tolerances": {"dense_bridge_max_qubits": True}}),
            ("seed", {"seed": "7"}))):
        cfg = tmp_path / f"badfield{k}.json"
        cfg.write_text(json.dumps(doc))
        for argv in (["scaling", "--sizes", "2x2,2x3,3x2"],
                     ["toric", "--l1", "2", "--l2", "3", "--report", "--h", "0.1"]):
            rc, out, err = _run(capsys, argv + ["--config", str(cfg)])
            assert rc == EXIT_VALIDATION and out == "", (doc, argv)
            assert f"config field {field}" in err
    with pytest.raises(ValueError, match="config field seed"):
        DEFAULT_CONFIG.override(seed=-1)

    # a non-finite h is refused before it reaches a solver, from a flag or a
    # config file (json writes NaN, Infinity and -Infinity); so is an
    # integer no float can hold
    scaling = ["scaling", "--sizes", "2x2,2x3,3x2"]
    report = ["toric", "--l1", "2", "--l2", "2", "--report"]
    for flag in ("nan", "inf", "-inf"):
        for argv in (scaling, report):
            rc, out, err = _run(capsys, argv + [f"--h={flag}"])
            assert rc == EXIT_VALIDATION and out == "", (flag, argv)
            assert "h must be a finite number" in err
    for k, value in enumerate((float("nan"), float("inf"), float("-inf"), 10**400)):
        cfg = tmp_path / f"nonfinite{k}.json"
        cfg.write_text(json.dumps({"h": value}))
        for argv in (scaling, report):
            rc, out, err = _run(capsys, argv + ["--config", str(cfg)])
            assert rc == EXIT_VALIDATION and out == "", (value, argv)
            assert "h must be a finite number" in err

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    rc, _, err = _run(capsys, ["toric", "--l1", "2", "--l2", "2",
                               "--config", str(notjson)])
    assert rc == EXIT_VALIDATION


def test_config_file_values_are_refused_not_coerced(tmp_path, capsys):
    """int() and float() would turn 2.9 into 2, true into 1 and "0.1" into
    0.1; a config file's value is used as given or refused with exit 2."""
    script = _braid_script(tmp_path)
    cases = [
        ("kl-check", {"l1": 2.9, "l2": 2, "max_weight": True}, "l1"),
        ("kl-check", {"l1": 2, "l2": 2, "max_weight": True}, "max_weight"),
        ("kl-check", {"l1": 2, "l2": 2, "max_weight": 1.0}, "max_weight"),
        ("kl-check", {"l1": "3", "l2": 2}, "l1"),
        ("toric", {"l1": 2, "l2": True}, "l2"),
        ("toric", {"l1": 2, "l2": 2, "report": True, "h": "0.1"}, "h"),
        ("toric", {"l1": 2, "l2": 2, "report": True, "h": False}, "h"),
        ("braid", {"l1": 2.0, "l2": 2, "script": script}, "l1"),
        ("braid", {"l1": 2, "l2": 2, "script": script, "sector": [1.0, 1]}, "sector"),
        ("braid", {"l1": 2, "l2": 2, "script": script, "sector": [True, 1]}, "sector"),
        ("braid", {"l1": 2, "l2": 2, "script": script, "sector": 1}, "sector"),
        ("scaling", {"sizes": [[2, 2], [2, 3.5], [3, 2]]}, "size"),
        ("scaling", {"sizes": [[2, 2], [2, True], [3, 2]]}, "size"),
        ("scaling", {"sizes": [[2, 2], [2, 3, 4], [3, 2]]}, "size"),
        ("scaling", {"sizes": 5}, "sizes"),
        ("scaling", {"sizes": "2x2,2x3,3x2", "h": True}, "h"),
        ("scaling", {"sizes": "2x2,2x3,3x2", "h": "0.1"}, "h"),
        # open() would take these as file descriptors (0 is stdin)
        ("braid", {"l1": 2, "l2": 2, "script": 0}, "script must be a path string"),
        ("decompose", {"input": True}, "input must be a path string"),
    ]
    for k, (command, doc, name) in enumerate(cases):
        cfg = tmp_path / f"coerce{k}.json"
        cfg.write_text(json.dumps(doc))
        rc, out, err = _run(capsys, [command, "--config", str(cfg)])
        assert rc == EXIT_VALIDATION and out == "", doc
        assert name in err, (doc, err)

    # integers, JSON lists and an integral h still run, as the flags would
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"l1": 2, "l2": 2, "max_weight": 1, "report": True,
                               "h": 0, "script": script, "sector": [1, -1],
                               "sizes": [[2, 2], "2x3", [3, 2]]}))
    for command, key, value in (("kl-check", "errors_checked", 24), ("toric", "h", 0.0),
                                ("braid", "sector", [1, -1])):
        rc, out, _ = _run(capsys, [command, "--config", str(cfg)])
        assert rc == 0 and json.loads(out)[key] == value, command
    rc, out, _ = _run(capsys, ["scaling", "--config", str(cfg), "--h", "0.1"])
    assert rc == 0 and [row.split(",")[:2] for row in out.splitlines()[1:]] == \
        [["2", "2"], ["2", "3"], ["3", "2"]]


def _subcommand_options():
    """{command: [(dest, flag, takes a value)]} for every option but --config,
    read from the parser."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [(a.dest, a.option_strings[0], a.nargs != 0) for a in sp._actions
                   if a.dest not in ("help", "config")]
            for name, sp in sub.choices.items()}


def test_every_option_reads_the_same_from_a_flag_or_a_config_file(tmp_path, capsys):
    """Each option of each subcommand in turn moves from the flags into a
    config file, under its dest; the exit code, stdout and written report
    stay those of the all-flags run."""
    target = tmp_path / "report.txt"
    values = {
        "decompose": {"input": _collective_file(tmp_path), "matrices": True},
        "toric": {"l1": 2, "l2": 2, "report": True, "h": 0.1,
                  "perturbation": "z_field_right"},
        "kl-check": {"l1": 2, "l2": 3, "max_weight": 1},
        "scaling": {"sizes": "2x2,2x3,3x2", "h": 0.05,
                    "perturbation": "z_field_down", "format": "json"},
        "braid": {"l1": 2, "l2": 2, "script": _braid_script(tmp_path),
                  "sector": "1,-1"},
    }

    def run(argv):
        rc, out, _ = _run(capsys, argv)
        written = target.read_text() if target.exists() else None
        target.unlink(missing_ok=True)
        return rc, out, written

    for command, options in _subcommand_options().items():
        given = dict(values[command], seed=7, output=str(target))
        assert sorted(given) == sorted(dest for dest, _, _ in options), command

        def flags(skip):
            argv = [command]
            for dest, flag, takes_value in options:
                if dest != skip:
                    argv += [flag, str(given[dest])] if takes_value else [flag]
            return argv

        want = run(flags(None))
        assert want[0] == 0 and want[2], command
        for dest, _, _ in options:
            cfg = tmp_path / f"{command}-{dest}.json"
            cfg.write_text(json.dumps({dest: given[dest]}))
            assert run(flags(dest) + ["--config", str(cfg)]) == want, (command, dest)


def test_config_keys_are_option_names_and_unknown_keys_exit_2(tmp_path, capsys):
    cfg = tmp_path / "format.json"
    cfg.write_text(json.dumps({"sizes": "2x2,2x3,3x2", "format": "json"}))
    rc, out, _ = _run(capsys, ["scaling", "--config", str(cfg)])
    assert rc == 0 and len(json.loads(out)["rows"]) == 3
    for command, doc, key in (
            ("scaling", {"sizes": "2x2,2x3,3x2", "fmt": "json"}, "fmt"),
            ("kl-check", {"l1": 2, "l2": 2, "max_wieght": 1}, "max_wieght"),
            ("toric", {"l1": 2, "l2": 2, "config": "other.json"}, "config")):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps(doc))
        rc, out, err = _run(capsys, [command, "--config", str(cfg)])
        assert rc == EXIT_VALIDATION and out == "", doc
        assert f"unknown config key: {key}" in err


def test_output_path_from_a_config_file_must_be_a_string(tmp_path):
    """open() takes an int as a file descriptor: {"output": 2} would write
    the report to stderr and then close descriptor 2, so the case runs in a
    child process."""
    import subprocess
    import sys

    import nsslab

    cfg = tmp_path / "output.json"
    cfg.write_text(json.dumps({"output": 2}))
    src = os.path.dirname(os.path.dirname(nsslab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "nsslab.cli", "toric", "--l1", "2", "--l2", "2",
         "--config", str(cfg)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == EXIT_VALIDATION and proc.stdout == ""
    assert "output must be a path string" in proc.stderr, proc.stderr


def test_resource_refusal_leaves_no_partial_output(tmp_path, capsys):
    target = tmp_path / "out.csv"
    rc, out, err = _run(capsys, ["scaling", "--sizes", "2x2,2x3,5x5",
                                 "--output", str(target)])
    assert rc == EXIT_RESOURCE
    assert "resource limit" in err and out == ""
    assert not target.exists()


def test_decompose_runs_without_loading_scipy(tmp_path):
    """scipy is loaded only by the sparse spectral paths: in a fresh
    process, neither `import nsslab` nor a decompose run loads it."""
    import subprocess
    import sys

    import nsslab

    src = os.path.dirname(os.path.dirname(nsslab.__file__))
    code = (
        "import sys\n"
        "def scipy_loaded():\n"
        "    return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "import nsslab\n"
        "assert not scipy_loaded(), 'import nsslab loaded scipy'\n"
        "from nsslab.cli import main\n"
        f"rc = main(['decompose', '--input', {_collective_file(tmp_path)!r}, "
        f"'--output', {str(tmp_path / 'out.json')!r}])\n"
        "assert rc == 0, rc\n"
        "assert not scipy_loaded(), 'decompose loaded scipy'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "out.json").read_text())["sector_shapes"] == \
        [[1, 4], [2, 2]]


def test_dense_scaling_runs_without_loading_scipy(tmp_path):
    """Sectors of at most _DENSE_SPECTRUM_CAP states are assembled and solved
    with numpy alone: a fresh-process scaling run over 2x2, 2x3 and 2x4
    (8 to 128 states per sector) loads no scipy module.  Nor does it, or
    `import nsslab` before it, load `numpy.random` (about 17 ms): only the
    seeded routines need it, and this run draws nothing."""
    import subprocess
    import sys

    import nsslab

    src = os.path.dirname(os.path.dirname(nsslab.__file__))
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "                  or m.startswith('numpy.random'))\n"
        "import nsslab\n"
        "assert not loaded(), loaded()[:5]\n"
        "from nsslab.cli import main\n"
        "rc = main(['scaling', '--sizes', '2x2,2x3,2x4', '--h', '0.1', "
        f"'--output', {str(tmp_path / 'out.csv')!r}])\n"
        "assert rc == 0, rc\n"
        "assert not loaded(), loaded()[:5]\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").read_text().count("\n") == 4


def test_braid_script_with_a_bad_anyon_index_exits_2(tmp_path, capsys):
    script = tmp_path / "bad.json"
    for bad in (-1, 4):
        script.write_text(json.dumps([
            {"op": "create_pair", "type": "e", "edge": 0},
            {"op": "create_pair", "type": "m", "edge": 3},
            {"op": "braid", "mover": 0, "around": bad},
        ]))
        rc, out, err = _run(capsys, ["braid", "--l1", "2", "--l2", "2",
                                     "--script", str(script)])
        assert rc == EXIT_VALIDATION
        assert "no such anyon" in err and out == ""


def test_braid_without_an_enclosing_rectangle_exits_2(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([
        {"op": "create_pair", "type": "e", "edge": 0},
        {"op": "create_pair", "type": "e", "edge": 4},
        {"op": "braid", "mover": 0, "around": 2},
    ]))
    rc, out, err = _run(capsys, ["braid", "--l1", "2", "--l2", "2",
                                 "--script", str(script)])
    assert rc == EXIT_VALIDATION and out == ""
    assert "nsslab: no valid enclosing rectangle" in err
