"""Noiseless-subsystem laboratory: operator-algebra sector decomposition,
toric codes on the torus, exact and numerical error-correction checks, and
abelian anyon dynamics as logical operations.

Importing the package loads none of its modules: each public name is read
from its module on first access (`__getattr__`), and never stored here, so
every access sees the module's current binding.  `dir(nsslab)` lists the
public names and the modules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": (
        "ErrorSet", "MatrixAlgebra", "Sector", "SectorDecomposition",
        "block_structure_residual", "close_algebra", "commutant", "decompose",
        "decomposition_to_json", "error_set", "error_set_from_json",
        "error_set_to_json"),
    "anyon": (
        "AnyonState", "InvalidFusionError", "InvalidMoveError",
        "PathNotFoundError", "braid", "create_pair", "fuse", "ground_state",
        "move_anyon", "relative_phase", "run_trajectory"),
    "config": (
        "DEFAULT_CONFIG", "DEFAULT_SEED", "ConvergenceError",
        "DegenerateSpectrumError", "EngineConfig", "ResourceLimitError",
        "spawn_rng"),
    "lattice": (
        "LoopOperator", "SectorLabel", "TorusLattice", "build_torus",
        "check_rank", "code_dimension", "homology_basis", "lattice_to_json",
        "stabilizer_expansion", "syndrome"),
    "pauli": (
        "PauliOp", "apply_to_vector", "commutes", "format_pauli", "identity",
        "multiply", "parse_pauli", "single", "to_dense", "weight"),
    "verify": (
        "CSV_HEADER", "InsufficientDataError", "KLReport",
        "NotAnEigenstateError", "OrbitReport", "ScalingResult",
        "SectorCertificateError", "SpectralReport", "code_basis",
        "code_projector", "dense_state", "kl_check_dense",
        "kl_check_ground_basis", "kl_check_stabilizer",
        "local_error_generators", "scaling_study", "scaling_to_csv",
        "sector_of", "sector_orbits", "spectrum"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = (*_EXPORTS, "cli", "gf2")
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _MODULES:  # `nsslab.gf2` after a bare `import nsslab`
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
