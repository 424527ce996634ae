"""Command-line front end.

One process, one run: every subcommand computes its full report in memory
first and only then writes, so a refusal (size cap, bad input) never leaves
a partial output file.  All randomness flows from a single seed through
counter-based splittable streams, making reports byte-identical across
reruns at a fixed BLAS thread count.

The parser is the one list of what each subcommand takes: each subparser
names its handler, and its options are the keys a config file may give.
Each handler imports the engine it runs, so a process loads only the
modules its subcommand needs (`decompose`: `config` and `algebra`).

Exit codes: 0 success, 2 validation failure (an unwritable --output too),
3 convergence failure, 4 resource-limit refusal.
"""

import argparse
import json
import sys

from .config import DEFAULT_CONFIG, ConvergenceError, DegenerateSpectrumError, \
    ResourceLimitError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_RESOURCE = 4


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nsslab",
        description="Sector decomposition, toric codes, error-correction "
                    "checks, and anyon trajectories.")
    sub = p.add_subparsers(dest="command", metavar="command")

    def subcommand(name, run, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(run=run)
        sp.add_argument("--config", metavar="PATH",
                        help="JSON file supplying any flag value and, under "
                             "'tolerances', the seed and size caps; explicit "
                             "flags win")
        sp.add_argument("--seed", type=int, default=None,
                        help="64-bit seed for every random draw "
                             "(default 0x5EEDC0DE)")
        sp.add_argument("--output", metavar="PATH", default=None,
                        help="write the report here instead of stdout")
        return sp

    sp = subcommand("decompose", _cmd_decompose,
                    help="irreducible sector structure of an error algebra")
    sp.add_argument("--input", metavar="PATH", default=None,
                    help="error-set JSON (matrices as [re, im] pair arrays)")
    sp.add_argument("--matrices", action="store_true",
                    help="embed projectors and isometries in the report")

    sp = subcommand("toric", _cmd_toric,
                    help="build a torus lattice; emit its serialization or a "
                         "spectral report")
    sp.add_argument("--l1", type=int, default=None)
    sp.add_argument("--l2", type=int, default=None)
    sp.add_argument("--report", action="store_true",
                    help="emit code dimension and low spectrum instead of "
                         "the lattice serialization")
    sp.add_argument("--h", type=float, default=None,
                    help="perturbation strength for --report (default 0)")
    sp.add_argument("--perturbation", default=None,
                    help="perturbation kind for --report (default z_field)")

    sp = subcommand("kl-check", _cmd_kl_check,
                    help="exact correctability verdicts for local Paulis")
    sp.add_argument("--l1", type=int, default=None)
    sp.add_argument("--l2", type=int, default=None)
    sp.add_argument("--max-weight", type=int, default=None,
                    help="check all Paulis up to this weight (default 2)")

    sp = subcommand("scaling", _cmd_scaling, help="splitting vs lattice size as CSV")
    sp.add_argument("--sizes", default=None,
                    help="comma list like 2x2,2x3,2x4")
    sp.add_argument("--h", type=float, default=None,
                    help="perturbation strength (default 0.1)")
    sp.add_argument("--perturbation", default=None,
                    help="one of the perturbation kinds (default z_field)")
    sp.add_argument("--format", choices=("csv", "json"),
                    default=None, help="csv (default) or full json report")

    sp = subcommand("braid", _cmd_braid, help="replay an anyon trajectory script")
    sp.add_argument("--l1", type=int, default=None)
    sp.add_argument("--l2", type=int, default=None)
    sp.add_argument("--script", metavar="PATH", default=None,
                    help="JSON list of operations {op, ...args}")
    sp.add_argument("--sector", default=None,
                    help="initial Z-loop sector, e.g. 1,1 (default 1,1)")

    # a config key is an option of any subcommand, so one file may serve several
    options = (vars(sp.parse_args([])) for sp in sub.choices.values())
    p.config_keys = {"tolerances"}.union(*options) - {"config", "run"}
    return p


def _read_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc


def _merge(args, config_keys):
    """The chosen subcommand's options: explicit flag > config file > None."""
    doc = _read_json(args.config, "config file") if args.config else {}
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(doc) - config_keys)
    if unknown:
        raise ValueError(f"unknown config key: {', '.join(unknown)}")
    out = {}
    for key, flag in vars(args).items():
        if key in ("command", "config", "run"):
            continue
        # store_true flags read False when absent; let the config file speak.
        # Identity checks, not equality: 0 and 0.0 are real values, not "unset"
        unset = flag is None or flag is False
        out[key] = doc.get(key) if unset else flag
    out["tolerances"] = doc.get("tolerances", {})
    if not isinstance(out["tolerances"], dict):
        raise ValueError("config 'tolerances' must be an object")
    # open() takes an int as a file descriptor: {"output": 2} would write to
    # stderr and then close it
    for key in ("input", "output", "script"):
        if out.get(key) is not None and not isinstance(out[key], str):
            raise ValueError(f"{key} must be a path string, got {out[key]!r}")
    return out


def _engine_config(opts):
    overrides = dict(opts["tolerances"])
    if opts.get("seed") is not None:
        overrides["seed"] = opts["seed"]
    return DEFAULT_CONFIG.override(**overrides)


def _json_report(doc) -> str:
    # a NaN or infinity is not JSON (RFC 8259): refuse it rather than print it
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _get(opts, key, default):
    """An option's value; only a missing one (None) takes the default, so an
    explicit 0 or empty string is checked as given."""
    value = opts.get(key)
    return default if value is None else value


def _number(value, name, integral=True):
    """An option value as given: an int, or for a real option a finite int
    or float.  A bool or a string from a config file is refused, not coerced
    by int() or float() (2.9 would build a torus of size 2, true one of 1),
    and so is a NaN or infinity, which the solvers cannot take."""
    kinds = int if integral else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integral else "a number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    # NaN compares false; an int too large for a float fails too
    if not integral and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _ints(value, sep, name):
    """A tuple of integers, from a flag string such as "1,-1" or "2x3"
    (split at `sep`) or from a config-file list, whose entries are checked
    as _number checks them."""
    if isinstance(value, str):
        try:
            value = [int(part) for part in value.lower().split(sep)]
        except ValueError as exc:
            raise ValueError(f"{name} must be integers joined by {sep!r}, "
                             f"got {value!r}") from exc
    elif not isinstance(value, list):
        raise ValueError(f"{name} must be a string or a list, got {value!r}")
    return tuple(_number(v, f"a {name} entry") for v in value)


def _require(opts, *keys):
    for k in keys:
        if opts.get(k) is None:
            raise ValueError(f"missing required option --{k.replace('_', '-')}")


def _torus(opts):
    from .lattice import build_torus

    _require(opts, "l1", "l2")
    return build_torus(_number(opts["l1"], "l1"), _number(opts["l2"], "l2"))


# ------------------------------------------------------------- subcommands

def _cmd_decompose(opts, cfg) -> str:
    from .algebra import decompose, decomposition_to_json, error_set_from_json

    _require(opts, "input")
    try:
        with open(opts["input"], "r", encoding="utf-8") as fh:
            errs = error_set_from_json(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read input: {exc}") from exc
    dec = decompose(errs, cfg)
    return decomposition_to_json(dec, include_matrices=bool(opts["matrices"]))


def _cmd_toric(opts, cfg) -> str:
    from .lattice import check_rank, code_dimension, lattice_to_json
    from .verify import flux_free_spectrum

    lat = _torus(opts)
    if not opts["report"]:
        return lattice_to_json(lat)
    h = float(_number(_get(opts, "h", 0.0), "h", integral=False))
    kind = _get(opts, "perturbation", "z_field")
    # flux_free_spectrum validates the kind before its size cap and solves
    # it at every h; at h = 0 its field is zero
    rep, _ = flux_free_spectrum(lat, kind, h, cfg)
    return _json_report({
        "l1": lat.L1,
        "l2": lat.L2,
        "n_qubits": lat.n_qubits,
        "check_rank": check_rank(lat),
        "code_dimension": code_dimension(lat),
        "h": h,
        "perturbation": kind if h else None,
        # the multiplet and the next level: the levels gap and splitting read
        "energies": list(rep.energies),
        "ground_energy": rep.energies[0],
        "ground_degeneracy": rep.ground_degeneracy,
        "gap": rep.gap_delta,
        "splitting": rep.splitting,
    })


def _cmd_kl_check(opts, cfg) -> str:
    from .lattice import homology_basis
    from .pauli import format_pauli, weight
    from .verify import kl_check_stabilizer, local_error_generators

    lat = _torus(opts)
    max_w = _number(_get(opts, "max_weight", 2), "max_weight")
    if max_w < 0:
        raise ValueError("--max-weight must be >= 0")
    errors = local_error_generators(lat, max_w, loop_commuting=False)
    rep = kl_check_stabilizer(lat, errors)
    logicals = [format_pauli(e) for e, dev in zip(errors, rep.deviations) if dev > 0.5]
    loops = homology_basis(lat)
    loop_rep = kl_check_stabilizer(lat, [lo.op for lo in loops])
    return _json_report({
        "l1": lat.L1,
        "l2": lat.L2,
        "max_weight": max_w,
        "errors_checked": len(errors),
        "max_deviation": rep.max_deviation,
        "logical_count": len(logicals),
        "logical_examples": logicals[:8],
        "weights": sorted({weight(e) for e in errors}),
        "loop_deviations": {lo.homology_class: dev
                            for lo, dev in zip(loops, loop_rep.deviations)},
        "first_error": format_pauli(errors[0]) if errors else None,
    })


def _cmd_scaling(opts, cfg) -> str:
    from .verify import scaling_study, scaling_to_csv

    _require(opts, "sizes")
    raw = opts["sizes"]
    if not isinstance(raw, (str, list)):
        raise ValueError(f"sizes must be a string or a list, got {raw!r}")
    sizes = [_ints(part, "x", "size")
             for part in (raw.split(",") if isinstance(raw, str) else raw)]
    if any(len(size) != 2 for size in sizes):
        raise ValueError(f"bad sizes {raw!r}; want L1xL2 entries")
    h = float(_number(_get(opts, "h", 0.1), "h", integral=False))
    kind = _get(opts, "perturbation", "z_field")
    fmt = _get(opts, "format", "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; want csv or json")
    result = scaling_study(sizes, h, kind, cfg)
    if fmt == "csv":
        return scaling_to_csv(result)
    return _json_report({
        "points": [list(p) for p in result.points],
        "rows": [[r.L1, r.L2, r.h, r.splitting, r.gap, r.coupling_k,
                  r.deviation_max] for r in result.rows],
        "fit_alpha": result.fit_alpha,
        "fit_n": result.fit_n,
        "fit_residual": result.fit_residual,
        "fits": {str(n): list(v) for n, v in result.fits.items()},
        "degenerate": result.degenerate,
        "notes": list(result.notes),
    })


def _cmd_braid(opts, cfg) -> str:
    from .anyon import run_trajectory

    lat = _torus(opts)
    _require(opts, "script")
    script = _read_json(opts["script"], "script")
    if not isinstance(script, list):
        raise ValueError("script must be a JSON list of operations")
    sector = _ints(_get(opts, "sector", "1,1"), ",", "sector")
    return _json_report(run_trajectory(lat, script, sector))


_parser = None  # built by the first main() call; parsing never changes it


def main(argv=None) -> int:
    global _parser
    parser = _parser = _parser or build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_VALIDATION
    try:
        opts = _merge(args, parser.config_keys)
        text = args.run(opts, _engine_config(opts))
    except ResourceLimitError as exc:
        print(f"nsslab: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ConvergenceError, DegenerateSpectrumError) as exc:
        print(f"nsslab: convergence: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, KeyError) as exc:
        print(f"nsslab: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if not opts["output"]:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(opts["output"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"nsslab: cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
