"""The two benchmark workloads: seeded inputs, one pass of operations,
and the checks that hold each answer against an oracle.

A workload is built in two steps.  `build` makes the inputs from the seed
(argument lists, error sets, trajectory scripts, lattices) and is what
`setup_s` times.  `Workload.prepare_oracle` then computes the reference
answers, outside every timed region.

Operations reach nsslab through module attributes so that the tracer's
wrappers see every call.  Where a subcommand covers the work, the operation
runs `nsslab.cli.main` in-process, putting argument parsing, config merge
and JSON output on the measured path.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from nsslab import algebra, anyon, cli, config, lattice, pauli, verify  # noqa: E402

import oracles  # noqa: E402
from oracles import require  # noqa: E402

NAMES = ("spectral", "sectors")


class CliError(Exception):
    """nsslab.cli.main returned a non-zero exit code."""


def run_cli(argv):
    """nsslab.cli.main in this process; returns what it wrote to stdout."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:     # argparse rejects the arguments
        code = exc.code
    if code != 0:
        raise CliError(f"nsslab {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([seed % 2**64, stream]))


@dataclasses.dataclass
class Op:
    name: str
    run: Callable[[], object]               # performs the operation
    check: Callable[[object, object], None]  # (answer, oracle); raises CheckFailed


@dataclasses.dataclass
class Workload:
    name: str
    seed: int
    ops: list                 # one pass, in order
    cli_argv: list            # the representative command, as a user types it
    cli_check: Callable[[str, object], None]
    make_oracle: Callable[[], object]
    oracle: object = None
    warm_up: list = None      # run once before timing; defaults to one pass

    def __post_init__(self):
        if self.warm_up is None:
            self.warm_up = self.ops

    def prepare_oracle(self):
        """Compute the reference answers once; excluded from all timing."""
        self.oracle = self.make_oracle()


def build(name, seed, workdir):
    """Seeded inputs and the operation list of one pass."""
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir)


# ----------------------------------------------------------------- spectral
#
# The criterion-7 sweep: ground-multiplet splitting of 2x2, 2x3 and 2x4 under
# a uniform Z field and under a row-direction field.  Nearly all time is the
# matrix-free matvec and ARPACK at 4096 and 65536 dimensions, plus one dense
# eigh at 2x2; algebra and anyon code never run.  The uniform-field sweep is
# fixed at h = 0.1: its ARPACK matvec count at 2x4 moves between 336 and 665
# with h and with the start vector, so a seeded h there would make the pass
# time a property of the seed.  The row-field sweep takes the seeded h
# (204-251 matvecs at 2x4 over the whole range).  The warm-up runs both
# sweeps at 2x2, 2x3 and 3x2 (`scaling` needs three sizes): that takes every
# code path of a pass (the dense path at 2x2, ARPACK at 4096 dimensions) in
# about a second instead of a whole pass.

SPECTRAL_SIZES = ((2, 2), (2, 3), (2, 4))
WARM_UP_SIZES = ((2, 2), (2, 3), (3, 2))
CLI_H = 0.1


def _check_rows(rows, kind, h, oracle, sizes=SPECTRAL_SIZES):
    """rows: [(L1, L2, h, splitting, gap)] from the report."""
    require(all(r[2] == h for r in rows), f"report carries another h than {h!r}")
    oracles.check_scaling_rows(
        [(r[0], r[1], r[3], r[4]) for r in rows],
        {(a, b): oracle[(kind, h, a, b)] for a, b in sizes})


def _spectral(seed, workdir):
    runs = (("z_field", CLI_H),
            ("z_field_right", round(0.05 + 0.1 * float(_rng(seed, 0).random()), 6)))

    def size_list(sizes):
        return ",".join(f"{a}x{b}" for a, b in sizes)

    def scaling_op(kind, h, sizes=SPECTRAL_SIZES):
        argv = ["scaling", "--sizes", size_list(sizes), "--h", repr(h),
                "--perturbation", kind, "--format", "json"]

        def check(text, oracle):
            doc = json.loads(text)
            _check_rows([tuple(r[:5]) for r in doc["rows"]], kind, h, oracle, sizes)
            require(doc["degenerate"] is False, "h > 0 must lift the degeneracy")
        return Op(f"scaling {size_list(sizes)} {kind} h={h!r}",
                  lambda: run_cli(argv), check)

    def cli_check(text, oracle):
        lines = text.strip().splitlines()
        require(lines[0] == "L1,L2,h,splitting,gap,coupling_k,deviation_max",
                f"unexpected CSV header {lines[0]!r}")
        rows = [(int(f[0]), int(f[1]), *(float(v) for v in f[2:5]))
                for f in (line.split(",") for line in lines[1:])]
        _check_rows(rows, "z_field", CLI_H, oracle)

    def make_oracle():
        return {(kind, h, a, b): oracles.toric_levels(a, b, h, kind)
                for kind, h in runs
                for a, b in sorted(set(SPECTRAL_SIZES + WARM_UP_SIZES))}

    cli_argv = ["scaling", "--sizes", size_list(SPECTRAL_SIZES), "--h", repr(CLI_H)]
    return Workload("spectral", seed, [scaling_op(k, h) for k, h in runs],
                    cli_argv, cli_check, make_oracle,
                    warm_up=[scaling_op(k, h, WARM_UP_SIZES) for k, h in runs])


# ------------------------------------------------------------------ sectors
#
# Error sectors two ways.  The algebra layer: many basis elements at small
# dimension (collective noise, algebra dimension 56 at d = 32) and few at
# large dimension (compressed weight-1 errors on 2x2, d = 256), so a closure
# change that helps one and costs the other shows.  The commutant stays at 3
# qubits: at 4 qubits its full SVD alone takes about 45 s.  Then the toric
# code's stabilizer and anyon layers (see the anyon operations below), whose
# pure-Python arithmetic never touches the dense engines.

def _check_decompose_json(text, generators):
    doc = json.loads(text)
    oracles.check_shapes(doc["sector_shapes"], doc["dimension"], doc["algebra_dim"],
                         doc["commutant_dim"], oracles.clebsch_gordan_shapes(5))
    require(doc["dimension"] == 32, f"dimension {doc['dimension']} != 32")
    isos = []
    for s in doc["sectors"]:
        pairs = np.array(s["isometry"])
        isos.append((s["n"], s["d"], pairs[..., 0] + 1j * pairs[..., 1]))
    oracles.check_isometries(isos, generators)


def _sectors(seed, workdir):
    engine_seed = int(_rng(seed, 0).integers(1, 2**63))
    frame = oracles.haar_unitary(_rng(seed, 1), 32)
    gens5 = [frame @ g @ frame.conj().T for g in oracles.collective_generators(5)]
    gens3 = oracles.collective_generators(3)
    path5 = workdir / f"collective5-seed{seed}.json"
    path5.write_text(algebra.error_set_to_json(
        algebra.error_set(gens5, labels=("Jx", "Jy", "Jz"))))
    cfg = config.DEFAULT_CONFIG.override(seed=engine_seed)
    lat = lattice.build_torus(2, 2)
    argv5 = ["decompose", "--input", str(path5), "--matrices",
             "--seed", str(engine_seed)]

    def collective3():
        alg = algebra.close_algebra(algebra.error_set(gens3), cfg)
        dec = algebra.decompose(alg, cfg)
        com = algebra.commutant(alg, cfg)
        return alg.algebra_dim, dec, com.algebra_dim, com.closed

    def check_collective3(answer, oracle):
        alg_dim, dec, com_dim, com_closed = answer
        oracles.check_shapes(dec.sector_shapes, 8, alg_dim, com_dim,
                             oracles.clebsch_gordan_shapes(3))
        require(com_closed, "commutant failed its closure check")
        oracles.check_isometries(
            [(s.n_J, s.d_J, s.isometry) for s in dec.sectors], gens3)

    def compressed_weight1():
        P = verify.code_projector(lat, cfg)
        weight1 = verify.local_error_generators(lat, 1, loop_commuting=False)
        mats = [P @ pauli.to_dense(E) @ P for E in weight1] + [P]
        return algebra.decompose(
            algebra.close_algebra(algebra.error_set(mats), cfg), cfg)

    def check_compressed(dec, oracle):
        # weight-1 errors are all detected, so P E P = 0 and the algebra is
        # span{1, P}: the code space and its complement, each with d = 1
        P = oracle
        code_dim = round(float(np.trace(P)))
        rest = 256 - code_dim
        oracles.check_shapes(dec.sector_shapes, 256, 2, code_dim**2 + rest**2,
                             [(code_dim, 1), (rest, 1)])
        sec = next(s for s in dec.sectors if s.n_J == code_dim)
        dist = np.linalg.norm(sec.isometry @ sec.isometry.conj().T - P, 2)
        require(dist < oracles.MATRIX_TOL,
                f"code-space sector differs from the code projector by {dist:.1e}")

    def check_orbits(rep, oracle):
        require(rep.orbit_dims == (64, 64, 64, 64),
                f"orbit dimensions {rep.orbit_dims} != 4 x 2^6")
        require(rep.max_overlap < 1e-10, f"orbits overlap by {rep.max_overlap:.1e}")
        require(rep.total_dim == 256 and rep.fills_space,
                "orbits do not fill the space")

    ops = [
        Op("decompose collective5 (cli)", lambda: run_cli(argv5),
           lambda text, oracle: _check_decompose_json(text, gens5)),
        Op("collective3 close/decompose/commutant", collective3, check_collective3),
        Op("compressed weight-1 2x2 close/decompose", compressed_weight1,
           check_compressed),
        Op("sector_orbits 2x2", lambda: verify.sector_orbits(lat, config=cfg),
           check_orbits),
    ] + _anyon_ops(seed, workdir)
    return Workload("sectors", seed, ops,
                    ["decompose", "--input", str(path5), "--matrices"],
                    lambda text, oracle: _check_decompose_json(text, gens5),
                    lambda: oracles.toric_code_projector(2, 2))


# ---------------------------------------------------- anyon operations
#
# Pure-Python integer symplectic arithmetic (pauli, gf2, lattice, anyon) with
# no BLAS: the stabilizer-frame and braid rectangle search show here, and
# spectral changes leave them alone.  Every braid scans all rectangles of the
# torus, so the pass does the same work whichever offsets the seed picks.
# They run inside the sectors pass: as a workload of their own, their short
# pure-Python pass spreads past the benchmark's bounds from run to run on a
# shared 2-vCPU host.

KL_SIZE = 5
BRAID_LATTICES = ((12, 3), (16, 2))       # (L, braids per script)
PHASE_LATTICE = 16
SECTORS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _offset_edges(L, rng):
    """Edge index on the L x L torus relative to a seeded origin (R, C)."""
    R, C = (int(v) for v in rng.integers(0, L, 2))
    return lambda r, c, d: oracles.edge_index(L, L, R + r, C + c, d)


def _braid_script(L, rng, n_braids):
    """Two e pairs and one m pair at a seeded offset, then braids of the
    first e around the m (opposite type) or around the other e (same type).
    Every script has at least one braid of each kind."""
    edge = _offset_edges(L, rng)
    kinds = ["m", "e"] + [str(k) for k in rng.choice(["m", "e"], n_braids - 2)]
    rng.shuffle(kinds)
    script = [{"op": "create_pair", "type": "e", "edge": edge(0, 3, 0)},
              {"op": "create_pair", "type": "m", "edge": edge(3, 3, 1)},
              {"op": "create_pair", "type": "e", "edge": edge(2, 7, 0)}]
    script += [{"op": "braid", "mover": 0, "around": 2 if k == "m" else 4}
               for k in kinds]
    return script, {"x_edges": {edge(3, 3, 1)}, "opposite": kinds.count("m"),
                    "open": 6}


def _transport_script(L, rng):
    """An m pair; one m circles the torus, then the pair fuses."""
    edge = _offset_edges(L, rng)
    vertical = bool(rng.integers(0, 2))
    if vertical:   # face (R, C) steps down through row-direction edges
        create = edge(0, 0, 1)
        path = [edge(1 + k, 0, 0) for k in range(L)]
    else:          # face (R, C) steps right through column-direction edges
        create = edge(0, 0, 0)
        path = [edge(0, 1 + k, 1) for k in range(L)]
    script = [{"op": "create_pair", "type": "m", "edge": create},
              {"op": "move", "anyon": 0, "path": path},
              {"op": "fuse", "a": 0, "b": 1, "via": create}]
    return script, {"x_edges": set(path), "opposite": 0, "open": 0}


def _phase_loop(L, rng):
    """An e pair and an m pair; the second e walks a seeded rectangle that
    encloses one m face (phase -1) or both (phase +1)."""
    edge = _offset_edges(L, rng)
    dr, dc = (int(v) for v in rng.integers(1, 4, 2))
    path = ([edge(0, j, 0) for j in range(dc)] +
            [edge(i, dc, 1) for i in range(dr)] +
            [edge(dr, dc - 1 - j, 0) for j in range(dc)] +
            [edge(dr - 1 - i, 0, 1) for i in range(dr)])
    return {"e_edge": edge(0, -1, 0), "m_edge": edge(0, 1, 1), "path": path}


def _trajectory_check(L, sector, want):
    def check(text, oracle):
        doc = json.loads(text)
        phase = oracles.braid_phase(want["opposite"])
        require(doc["phase"] == [float(phase), 0.0],
                f"phase {doc['phase']} != (-1)^{want['opposite']}")
        frame = oracles.frame_after(L, L, sector, want["x_edges"])
        require(doc["sector"] == frame, f"sector {doc['sector']} != {frame}")
        require(doc["open_anyons"] == want["open"] and doc["energy"] == want["open"],
                f"{doc['open_anyons']} open anyons, energy {doc['energy']}; "
                f"want {want['open']}")
        if want["opposite"] == 0:
            flipped = sum(a != b for a, b in zip(doc["sector"], sector))
            require(flipped == 1, f"transport flipped {flipped} sector labels")
    return check


def _check_kl(text, oracle):
    doc = json.loads(text)
    want = oracles.kl_error_count(2 * KL_SIZE * KL_SIZE, 2)
    require(doc["errors_checked"] == want,
            f"{doc['errors_checked']} errors checked != C(n,1)*3 + C(n,2)*9 = {want}")
    require(doc["logical_count"] == 0 and doc["max_deviation"] == 0.0,
            f"{doc['logical_count']} low-weight logicals, max deviation "
            f"{doc['max_deviation']}")
    require(sorted(doc["loop_deviations"].values()) == [1.0] * 4,
            "every homology loop must act as a logical")


def _anyon_ops(seed, workdir):
    rng = _rng(seed, 2)
    sector = list(SECTORS[int(rng.integers(0, 4))])
    sector_arg = f"{sector[0]},{sector[1]}"
    kl_argv = ["kl-check", "--l1", str(KL_SIZE), "--l2", str(KL_SIZE),
               "--max-weight", "2"]
    ops = [Op(f"kl-check {KL_SIZE}x{KL_SIZE}", lambda: run_cli(kl_argv), _check_kl)]

    plans = [(f"braid {L}x{L}", L, _braid_script(L, rng, n))
             for L, n in BRAID_LATTICES]
    plans.append((f"transport {PHASE_LATTICE}x{PHASE_LATTICE}", PHASE_LATTICE,
                  _transport_script(PHASE_LATTICE, rng)))
    for name, L, (script, want) in plans:
        path = workdir / f"{name.replace(' ', '-')}-seed{seed}.json"
        path.write_text(json.dumps(script))
        argv = ["braid", "--l1", str(L), "--l2", str(L), "--script", str(path),
                f"--sector={sector_arg}"]
        check = _trajectory_check(L, sector, want)
        ops.append(Op(name, lambda argv=argv: run_cli(argv), check))

    loop = _phase_loop(PHASE_LATTICE, rng)
    lat = lattice.build_torus(PHASE_LATTICE, PHASE_LATTICE)

    def phase_op():
        s = anyon.ground_state(lat, sector)
        s = anyon.create_pair(s, "e", loop["e_edge"])
        s = anyon.create_pair(s, "m", loop["m_edge"])
        t = anyon.move_anyon(s, 1, loop["path"])
        return anyon.relative_phase(t, s)

    def check_phase(value, oracle):
        want = oracles.crossing_sign({loop["m_edge"]}, loop["path"])
        require(value == complex(want), f"relative phase {value} != {want}")

    ops.append(Op(f"relative_phase {PHASE_LATTICE}x{PHASE_LATTICE}", phase_op,
                  check_phase))
    return ops


BUILDERS = {"spectral": _spectral, "sectors": _sectors}


def fingerprint(answer):
    """Digest of an answer's exact value: arrays bit for bit, dataclasses
    field by field, text byte for byte."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(f"array{obj.shape}{obj.dtype.str}".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            h.update(type(obj).__name__.encode())
            for f in dataclasses.fields(obj):
                feed(getattr(obj, f.name))
        elif isinstance(obj, (list, tuple)):
            h.update(b"(")
            for item in obj:
                feed(item)
            h.update(b")")
        else:
            h.update(repr(obj).encode())
    feed(answer)
    return h.hexdigest()
