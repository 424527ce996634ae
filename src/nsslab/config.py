"""Central configuration: tolerances, size caps, and the default seed.

Every numerical tolerance used anywhere in the package lives here so that a
single record can be overridden from the CLI.  All randomness flows from one
64-bit seed through counter-based splittable streams (see `spawn_rng`), which
keeps results independent of scheduling order.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

# Documented default seed for every seeded routine (CLI flag --seed overrides).
DEFAULT_SEED = 0x5EEDC0DE


@dataclass(frozen=True)
class EngineConfig:
    seed: int = DEFAULT_SEED

    # Hilbert-Schmidt basis hygiene
    hs_orthonormal_tol: float = 1e-10
    # residual threshold below which a product is considered inside the span
    closure_residual_tol: float = 1e-10
    closure_max_iter: int = 50
    # membership / closure verification tolerance
    span_membership_tol: float = 1e-8

    # projector validity (hermiticity, idempotency)
    projector_tol: float = 1e-8
    # eigenvalue clusters closer than this (relative) are merged
    cluster_merge_tol: float = 1e-8
    # clusters separated by less than guard * merge tol abort the decomposition
    gap_ratio_guard: float = 10.0

    orbit_overlap_tol: float = 1e-10

    # iterative eigensolver
    eig_residual_tol: float = 1e-9
    eig_max_iter: int = 20000
    # relative (to the gap) width of one quasi-degenerate multiplet
    degeneracy_cluster_rel: float = 1e-6

    # size caps
    dense_bridge_max_qubits: int = 12
    sparse_max_qubits: int = 20
    # dense-matrix ceiling for the algebra engine
    algebra_dense_cap: int = 4096
    # dim cap for the d^2 x d^2 commutant eigenproblem
    commutant_dense_cap: int = 64
    # below this Hilbert dimension `spectrum` switches to one dense eigh call
    dense_spectrum_cap: int = 1024

    def override(self, **kwargs) -> "EngineConfig":
        """Copy with selected fields replaced; unknown names raise KeyError."""
        valid = {f.name for f in fields(self)}
        for k in kwargs:
            if k not in valid:
                raise KeyError(f"unknown config field: {k}")
        return replace(self, **kwargs)


DEFAULT_CONFIG = EngineConfig()


def spawn_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic per-stream generator.

    Each distinct `stream` key tuple yields an independent Philox stream, so
    concurrent workers can draw without any shared state or ordering effects.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


class ResourceLimitError(Exception):
    """A size cap would be exceeded; refuse instead of thrashing."""


class ConvergenceError(Exception):
    """Iteration cap hit before the requested residual was reached."""


class DegenerateSpectrumError(Exception):
    """Random-element eigenvalue clusters too close to separate; reseed."""
