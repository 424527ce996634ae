"""In-memory tracer that wraps nsslab's public functions from outside.

Every public function of the layer modules is replaced, at every module
binding that holds it, by a wrapper that records a span (name, start, end,
parent span, operation id).  `verify` imports `apply_to_vector` by name, for
example, so patching `nsslab.pauli` alone would miss its calls.  Functions
too hot for a span each (Pauli products, GF(2) elimination) only count
their calls.  Four probes reach below the public surface: the matrix-free
Hamiltonian's matvec, ARPACK's `eigsh`, LAPACK's `eigh` and the braid's
rectangle builder.  The package source is never edited, and `uninstall`
puts every original back.

Callers must reach nsslab through module attributes (`anyon.braid(...)`),
not through names they imported before `install`, or their calls bypass
the wrappers.
"""

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("pauli", "gf2", "lattice", "algebra", "verify", "anyon", "cli")

# Called up to millions of times per pass: count them, open no span.
COUNT_ONLY = frozenset({
    "pauli.multiply", "pauli.commutes", "pauli.weight", "pauli.identity",
    "pauli.single", "pauli.format_pauli", "pauli.parse_pauli",
    "gf2.rank", "gf2.solve", "gf2.in_span", "gf2.nullspace",
    "gf2.span_members",
})

# `verify_closure` samples pairs instead of checking all of them once the
# basis exceeds this many elements (nsslab.algebra._FULL_VERIFY_LIMIT).
VERIFY_FULL_LIMIT = 300


def layer_modules():
    """The package and its modules: every place a public function is bound."""
    names = ["nsslab"] + [f"nsslab.{m}" for m in LAYERS + ("config",)]
    return [importlib.import_module(n) for n in names]


def public_functions():
    """{"layer.name": function} for every public function a layer defines."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"nsslab.{layer}")
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if not name.startswith("_") and fn.__module__ == mod.__name__:
                out[f"{layer}.{name}"] = fn
    return out


class Tracer:
    """Spans and counters of one traced run; use as a context manager."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op id)
        self.counts = Counter()
        self.op_id = None
        self._stack = []         # (span index, name) of the open spans
        self._patches = []       # (owner, attribute, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()      # put back what was patched before the error
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn, before=None):
        """`name` is a string, or a function of the enclosing span's name."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent, parent_name = stack[-1] if stack else (-1, "bench")
            label = name if isinstance(name, str) else name(parent_name)
            idx = len(spans)
            spans.append(None)
            stack.append((idx, label))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.op_id)
        return wrapper

    def _count_wrapper(self, name, fn, before=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def _count_rows(self, args, kwargs):
        # the package passes lists; an iterator is left alone, uncounted
        rows = args[0] if args else kwargs["rows"]
        if hasattr(rows, "__len__"):
            self.counts["gf2.rows_eliminated"] += len(rows)

    def _count_sampled(self, args, kwargs):
        alg = args[0] if args else kwargs["alg"]
        if len(alg.basis) > VERIFY_FULL_LIMIT:
            self.counts["algebra.verify_closure.sampled"] += 1

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function at every binding, plus the probes."""
        hooks = {
            "gf2.solve": self._count_rows,
            "gf2.rank": self._count_rows,
            "algebra.verify_closure": self._count_sampled,
        }
        modules = layer_modules()
        for name, fn in public_functions().items():
            make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
            wrapped = make(name, fn, hooks.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)
        self._install_probes()

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install_probes(self):
        import numpy as np
        import scipy.sparse.linalg as spla
        from nsslab import anyon, verify

        # one rectangle per candidate the braid search builds
        self._patch(anyon, "_rectangle_cycle", self._count_wrapper(
            "anyon.rectangles", anyon._rectangle_cycle))
        # verify is the only nsslab caller of ARPACK
        self._patch(spla, "eigsh", self._span_wrapper("verify.eigsh", spla.eigsh))
        # dense eigh runs in verify (small spectra) and algebra (decompose)
        self._patch(np.linalg, "eigh", self._span_wrapper(
            lambda parent: parent.split(".")[0] + ".eigh", np.linalg.eigh))
        self._patch(verify, "_matfree_operator",
                    self._matvec_probe(verify._matfree_operator, spla))

    def _matvec_probe(self, build, spla):
        """Operator factory whose matvec opens a span and counts bytes.

        Computed bytes per matvec are terms x dimension x bytes per element,
        from array sizes, not from a memory counter.
        """
        counts = self.counts

        def probe(n, terms):
            op = build(n, terms)
            per_call = len(terms) * (1 << n) * op.dtype.itemsize
            inner = self._span_wrapper("verify.matvec", op.matvec)

            def matvec(v):
                counts["verify.matvec.bytes_computed"] += per_call
                return inner(v)
            return spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
        return probe

    # -- summaries ---------------------------------------------------------

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}} over all closed spans.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[idx]
        return out
