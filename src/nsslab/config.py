"""Central configuration: the seed and the resource caps.

`EngineConfig` holds only what a user sets: the seed, and the caps that
bound memory on the user's machine, each a non-negative integer.  Every
numerical tolerance is a fixed constant beside the one module that reads
it, so no reported number moves with a knob.  All randomness flows from one
64-bit seed through counter-based splittable streams (see `spawn_rng`),
which keeps results independent of scheduling order.
"""

import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

# Documented default seed for every seeded routine (CLI flag --seed overrides).
DEFAULT_SEED = 0x5EEDC0DE


@dataclass(frozen=True)
class EngineConfig:
    seed: int = DEFAULT_SEED
    # size caps
    dense_bridge_max_qubits: int = 12
    # log2 of the largest solved dimension: for `toric --report` and `scaling`
    # it caps L1*L2 - 1, the flux-free sectors' exponent; only the library's
    # `spectrum` reads it as a qubit count
    sparse_max_qubits: int = 20
    # dense-matrix ceiling for the algebra engine
    algebra_dense_cap: int = 4096
    # dim cap for the d^2 x d^2 commutant eigenproblem
    commutant_dense_cap: int = 64

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < 0):
                raise ValueError(
                    f"config field {f.name} must be a non-negative integer, "
                    f"got {value!r}")

    def override(self, **kwargs) -> "EngineConfig":
        """Copy with selected fields replaced; unknown names raise KeyError."""
        valid = {f.name for f in fields(self)}
        for k in kwargs:
            if k not in valid:
                raise KeyError(f"unknown config field: {k}")
        return replace(self, **kwargs)


DEFAULT_CONFIG = EngineConfig()


def spawn_rng(seed: int, *stream: int) -> "np.random.Generator":
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
