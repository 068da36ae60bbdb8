"""Conservative implicit solver for one-dimensional polytropic gas flows in
mass-Lagrangian coordinates (plane, cylindrical and spherical symmetry), with
per-step audits of the discrete conservation laws."""

from .mesh import MassMesh, MeshError
from .state import (
    GridLayer,
    LayerError,
    TwoLayerView,
    cell_average,
    interp_nodal_pressure,
)
from .scheme import (
    BoundaryCondition,
    ConfigError,
    PressureTrace,
    SchemeParams,
    StepRejected,
    StepReport,
    r_factor,
    step,
    step_residuals,
)
from .conservation import (
    ALL_LAWS,
    ConservationBudget,
    LawId,
    audit_all,
    write_ledger,
)
from .problems import (
    EulerProfile,
    ProblemError,
    invert_mass_coordinate,
    make_initial_layer,
    mass_coordinate,
    problem_library,
)
from .snapshots import SnapshotError, read_snapshot, read_snapshot_meta, write_snapshot
from .cli import (
    RunConfig,
    SimulationResult,
    audit_snapshots,
    convergence_study,
    iter_steps,
    load_config,
    resolve_config,
    run_simulation,
    with_resolution,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_LAWS",
    "BoundaryCondition",
    "ConfigError",
    "ConservationBudget",
    "EulerProfile",
    "GridLayer",
    "LawId",
    "LayerError",
    "MassMesh",
    "MeshError",
    "PressureTrace",
    "ProblemError",
    "RunConfig",
    "SchemeParams",
    "SimulationResult",
    "SnapshotError",
    "StepRejected",
    "StepReport",
    "TwoLayerView",
    "audit_all",
    "audit_snapshots",
    "cell_average",
    "convergence_study",
    "interp_nodal_pressure",
    "invert_mass_coordinate",
    "iter_steps",
    "load_config",
    "make_initial_layer",
    "mass_coordinate",
    "problem_library",
    "r_factor",
    "read_snapshot",
    "read_snapshot_meta",
    "resolve_config",
    "run_simulation",
    "step",
    "step_residuals",
    "with_resolution",
    "write_ledger",
    "write_snapshot",
]
