"""Noiseless-subsystem laboratory: operator-algebra sector decomposition,
toric codes on the torus, exact and numerical error-correction checks, and
abelian anyon dynamics as logical operations."""

from .algebra import (
    ErrorSet,
    MatrixAlgebra,
    Sector,
    SectorDecomposition,
    block_structure_residual,
    close_algebra,
    commutant,
    decompose,
    decomposition_to_json,
    error_set,
    error_set_from_json,
    error_set_to_json,
)
from .anyon import (
    AnyonState,
    InvalidFusionError,
    InvalidMoveError,
    PathNotFoundError,
    braid,
    create_pair,
    fuse,
    ground_state,
    move_anyon,
    relative_phase,
    run_trajectory,
)
from .config import (
    DEFAULT_CONFIG,
    DEFAULT_SEED,
    ConvergenceError,
    DegenerateSpectrumError,
    EngineConfig,
    ResourceLimitError,
    spawn_rng,
)
from .lattice import (
    LoopOperator,
    SectorLabel,
    TorusLattice,
    build_torus,
    check_rank,
    code_dimension,
    homology_basis,
    lattice_to_json,
    stabilizer_expansion,
    syndrome,
)
from .pauli import (
    PauliOp,
    apply_to_vector,
    commutes,
    format_pauli,
    identity,
    multiply,
    parse_pauli,
    single,
    to_dense,
    weight,
)
from .verify import (
    CSV_HEADER,
    InsufficientDataError,
    KLReport,
    NotAnEigenstateError,
    OrbitReport,
    ScalingResult,
    SectorCertificateError,
    SpectralReport,
    code_basis,
    code_projector,
    dense_state,
    kl_check_dense,
    kl_check_ground_basis,
    kl_check_stabilizer,
    local_error_generators,
    scaling_study,
    scaling_to_csv,
    sector_of,
    sector_orbits,
    spectrum,
)

__version__ = "0.1.0"
