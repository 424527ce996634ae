#!/usr/bin/env python3
"""nsslab benchmark: one closed-loop client, one process, two workloads.

    python3 bench/run.py --workload spectral --seed 1 --seconds 45 --trace 0

Each operation is issued after the previous one returns.  A run times the
set-up of fresh processes and runs one warm-up pass.  Then, for `--seconds`,
it repeats a cycle: one pass over the workload's fixed operation list and
one run of the workload's representative command in a fresh
`python -m nsslab.cli` process.  It starts another cycle only while one as
long as the last still fits in `--seconds`, and always runs at least one.
Every answer is held against an oracle that does not use nsslab.  With
`--trace 1` the cycle is an untraced pass and a traced one instead, and the
per-layer metrics come from the traced passes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it and a
file under `.bench_work/` hold the full record (quartiles, sample counts,
environment, failures).  See bench/README.md for the metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

# One BLAS thread: the dense kernels gain little from the second core here,
# and a single thread keeps runs steady and results bit-identical.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "pass_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}

# name -> (unit, source, span or counter name).  Values are per traced pass.
PER_LAYER = {
    "verify.matvec.count": ("count", "calls", "verify.matvec"),
    "verify.matvec.mean_s": ("s", "mean", "verify.matvec"),
    "verify.matvec.bytes_computed": ("B", "counter", "verify.matvec.bytes_computed"),
    "verify.eigsh.overhead_s": ("s", "self", "verify.eigsh"),
    "verify.eigh.self_s": ("s", "self", "verify.eigh"),
    "verify.spectrum.self_s": ("s", "self", "verify.spectrum"),
    "verify.kl_check_ground_basis.self_s": ("s", "self", "verify.kl_check_ground_basis"),
    "pauli.apply_to_vector.calls": ("count", "calls", "pauli.apply_to_vector"),
    "pauli.apply_to_vector.self_s": ("s", "self", "pauli.apply_to_vector"),
    "algebra.close_algebra.calls": ("count", "calls", "algebra.close_algebra"),
    "algebra.close_algebra.self_s": ("s", "self", "algebra.close_algebra"),
    "algebra.verify_closure.self_s": ("s", "self", "algebra.verify_closure"),
    "algebra.verify_closure.sampled": ("count", "counter", "algebra.verify_closure.sampled"),
    "algebra.commutant.self_s": ("s", "self", "algebra.commutant"),
    "algebra.decompose.self_s": ("s", "self", "algebra.decompose"),
    "verify.sector_orbits.self_s": ("s", "self", "verify.sector_orbits"),
    "verify.code_basis.self_s": ("s", "self", "verify.code_basis"),
    "pauli.to_dense.calls": ("count", "calls", "pauli.to_dense"),
    "pauli.to_dense.self_s": ("s", "self", "pauli.to_dense"),
    "gf2.solve.calls": ("count", "counter", "gf2.solve"),
    "gf2.rows_eliminated": ("count", "counter", "gf2.rows_eliminated"),
    "lattice.homology_basis.calls": ("count", "calls", "lattice.homology_basis"),
    "pauli.multiply.calls": ("count", "counter", "pauli.multiply"),
    "pauli.commutes.calls": ("count", "counter", "pauli.commutes"),
    "verify.kl_check_stabilizer.self_s": ("s", "self", "verify.kl_check_stabilizer"),
    "verify.local_error_generators.self_s": ("s", "self", "verify.local_error_generators"),
    "anyon.braid.calls": ("count", "calls", "anyon.braid"),
    "anyon.braid.self_s": ("s", "self", "anyon.braid"),
    "anyon.braid.rect_per_braid": ("count", "per_braid", "anyon.rectangles"),
    "anyon.move_anyon.self_s": ("s", "self", "anyon.move_anyon"),
    "anyon.fuse.self_s": ("s", "self", "anyon.fuse"),
    "anyon.relative_phase.self_s": ("s", "self", "anyon.relative_phase"),
    "lattice.build_torus.self_s": ("s", "self", "lattice.build_torus"),
    "cli.main.self_s": ("s", "self", "cli.main"),
    "cli.output_bytes": ("B", "output_bytes", None),
    "trace.untraced_pass_s": ("s", "untraced_pass", None),
    "trace.traced_pass_s": ("s", "traced_pass", None),
    "trace.overhead_ratio": ("1", "overhead", None),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure passes for this long (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: time import + input building, then exit")
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv):
    """Run a fresh Python process to completion; (wall seconds, process)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


def probe_setup(workload, seed):
    """Child mode: import nsslab, build the inputs, report the time taken."""
    start = time.perf_counter()
    import workloads
    workloads.build(workload, seed, WORKDIR)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def measure_setup(workload, seed):
    _, proc = run_child([__file__, "--probe-setup", "--workload", workload,
                         "--seed", str(seed), "--seconds", "0"])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ------------------------------------------------------------------ passes

class Ledger:
    """Every operation attempted, with its verdict.

    Answers are compared by fingerprint: an answer that differs from the
    operation's first answer fails (reports must be reproducible, traced or
    not), and each distinct answer goes through the oracle once.
    """

    def __init__(self, workload):
        from workloads import fingerprint
        self.workload = workload
        self._fingerprint = fingerprint
        self.first = {}         # op name -> fingerprint of its first answer
        self.pending = {}       # (op name, fingerprint) -> (op, answer)
        self.errors = []        # (op name, message) per failed attempt
        self.attempted = 0
        self._attempts = []     # (op name, fingerprint or None)

    def record(self, op, answer, error):
        self.attempted += 1
        if error is not None:
            self.errors.append((op.name, error))
            self._attempts.append((op.name, None))
            return
        fp = self._fingerprint(answer)
        self.first.setdefault(op.name, fp)
        self.pending.setdefault((op.name, fp), (op, answer))
        self._attempts.append((op.name, fp))

    def judge(self):
        """Check each distinct answer against the oracle; count failures."""
        verdict = {}
        for key, (op, answer) in self.pending.items():
            verdict[key] = check_verdict(op.check, answer, self.workload.oracle)
        for name, fp in self._attempts:
            if fp is None:
                continue
            if fp != self.first[name]:
                self.errors.append((name, "answer differs from the first pass"))
            elif verdict[(name, fp)] is not None:
                self.errors.append((name, verdict[(name, fp)]))
        self.pending.clear()
        self._attempts.clear()


def check_verdict(check, answer, oracle):
    """None if the oracle accepts the answer, else why it does not."""
    try:
        check(answer, oracle)
    except Exception as exc:   # a malformed answer can break a check anywhere
        return f"{type(exc).__name__}: {exc}"
    return None


def run_pass(workload, ledger, tracer=None, label="pass", ops=None):
    """One pass over the operation list; returns (seconds, CLI output bytes).

    Answers are recorded after the clock stops, so fingerprinting them is
    not timed.
    """
    results = []
    start = time.perf_counter()
    for op in workload.ops if ops is None else ops:
        if tracer is not None:
            tracer.op_id = f"{label}/{op.name}"
        answer, error = None, None
        try:
            answer = op.run()
        except Exception:   # an operation that raises is a counted failure
            error = traceback.format_exc(limit=3)
        results.append((op, answer, error))
    seconds = time.perf_counter() - start
    for result in results:
        ledger.record(*result)
    # CLI operations return the text main wrote
    out_bytes = sum(len(a.encode()) for _, a, _ in results if isinstance(a, str))
    return seconds, out_bytes


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], statistics.median(values), q[2]]


def layer_metrics(tracer, n_traced, untraced, traced, out_bytes):
    spans, counts = tracer.summary(), tracer.counts
    braids = spans.get("anyon.braid", {}).get("calls", 0)
    derived = {
        "output_bytes": out_bytes / n_traced,
        "untraced_pass": statistics.median(untraced),
        "traced_pass": statistics.median(traced),
        "overhead": statistics.median(traced) / statistics.median(untraced),
    }
    out = {}
    for name, (unit, source, key) in PER_LAYER.items():
        rec = spans.get(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        if source == "calls":
            value = rec["calls"] / n_traced
        elif source == "self":
            value = rec["self_s"] / n_traced
        elif source == "mean":
            value = rec["total_s"] / rec["calls"] if rec["calls"] else 0.0
        elif source == "counter":
            value = counts[key] / n_traced
        elif source == "per_braid":
            value = counts[key] / braids if braids else 0.0
        else:
            value = derived[source]
        out[name] = {"value": value, "unit": unit}
    return out


# ------------------------------------------------------------- environment

def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, passes, processes):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "processes": processes,
        "client": "closed loop, 1 client, 1 process",
    }


# -------------------------------------------------------------------- main

def run(args):
    import workloads
    from tracer import Tracer

    trace = bool(args.trace)
    setup = [] if trace else [measure_setup(args.workload, args.seed)
                              for _ in range(SETUP_SAMPLES)]
    wl = workloads.build(args.workload, args.seed, WORKDIR)
    ledger = Ledger(wl)
    tracer = Tracer() if trace else None

    run_pass(wl, ledger, ops=wl.warm_up)      # warm-up, checked but not timed
    untraced, traced, cli, out_bytes = [], [], [], 0
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        untraced.append(run_pass(wl, ledger)[0])
        if trace:
            with tracer:
                seconds, nbytes = run_pass(wl, ledger, tracer, f"traced{len(traced)}")
            traced.append(seconds)
            out_bytes += nbytes
        else:
            cli.append(time_cli(wl, ledger))
        now = time.perf_counter()
        # start another cycle only if one as long as the last still fits
        if now - start + (now - cycle_start) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wl.prepare_oracle()
    ledger.judge()

    failed = len(ledger.errors)
    if trace:
        metrics = layer_metrics(tracer, len(traced), untraced, traced, out_bytes)
        write_spans(tracer, args)
    else:
        values = {"setup_s": statistics.median(setup),
                  "pass_s": statistics.median(untraced),
                  "cli_s": statistics.median(cli),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    record = {
        "metrics": metrics,
        "fail_ratio": failed / ledger.attempted,
        "samples": {
            "setup_s": setup, "pass_s": untraced, "traced_pass_s": traced,
            "cli_s": cli,
            "pass_s_quartiles": quartiles(untraced),
            "cli_s_quartiles": quartiles(cli) if cli else None,
        },
        "failures": ledger.errors[:20],
        "environment": environment(
            args, {"warm_up": 1, "untraced": len(untraced), "traced": len(traced),
                   "cli": len(cli)},
            len(setup) + len(cli)),
    }
    if trace:
        record["layers"] = tracer.summary()
        record["counters"] = dict(tracer.counts)
    summary = {"correct": failed == 0, "attempted": ledger.attempted,
               "failed": failed, "metrics": metrics}
    return record, summary


def time_cli(wl, ledger):
    """The workload's command in a fresh process; returns its wall time.

    Its output goes to the ledger like any answer, so it is checked against
    the oracle after the passes and must read the same every time.
    """
    from workloads import Op
    seconds, proc = run_child(["-m", "nsslab.cli", *wl.cli_argv])
    op = Op("nsslab " + " ".join(wl.cli_argv), None, wl.cli_check)
    if proc.returncode != 0:
        ledger.record(op, None, f"exit code {proc.returncode}: {proc.stderr.strip()}")
    else:
        ledger.record(op, proc.stdout, None)
    return seconds


def write_spans(tracer, args):
    path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans, "counters": dict(tracer.counts)}, fh)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nsslab" / "__init__.py").is_file():
        print(f"bench: no nsslab package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    WORKDIR.mkdir(exist_ok=True)
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)
    record, summary = run(args)
    path = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, default=str))
    for name, message in record["failures"]:
        print(f"bench: FAILED {name}: {message}", file=sys.stderr)
    print(json.dumps(record, default=str))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
