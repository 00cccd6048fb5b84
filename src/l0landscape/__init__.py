"""Exhaustive landscape analysis for sparsity-constrained least squares.

Enumerates all M-stationary points of ``min 0.5 ||A x - b||^2`` subject to
``||x||_0 <= s``, certifies nondegeneracy, classifies minimizers and saddle
points, counts connected components of lower level sets exactly, verifies the
Morse relation between saddle and minimizer counts, and probes strong
stability under data perturbations.
"""

from .errors import (
    DimensionMismatchError,
    InstanceFormatError,
    L0LandscapeError,
    MeasurementBoundError,
    NonFiniteDataError,
    SparsityRangeError,
    ToleranceError,
    ValidationError,
)
from .linalg import (
    default_rank_tol,
    largest_eigenvalue_gram,
    numerical_rank,
    solve_normal_equations,
)
from .model import (
    Instance,
    Support,
    ToleranceConfig,
    complement_of,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    objective,
    support_of,
    validate_instance,
)
from .stationarity import (
    CellAttachment,
    PointKind,
    cell_attachment,
    classify,
    gradient,
)
from .enumeration import (
    GenericityReport,
    LandscapeReport,
    SupportSubspace,
    check_s_regularity,
    enumerate_stationary,
    enumerate_supports,
    run_genericity_experiment,
    support_min_table,
)
from .levelsets import SweepResult, component_count, sweep_levels
from .stability import (
    StabilityReport,
    StabilityVerdict,
    default_probe_epsilon,
    perturb_instance,
    probe_strong_stability,
)
from .iht import IhtResult, hard_threshold, iht_solve

__version__ = "0.1.0"

__all__ = [
    "CellAttachment",
    "DimensionMismatchError",
    "GenericityReport",
    "IhtResult",
    "Instance",
    "InstanceFormatError",
    "L0LandscapeError",
    "LandscapeReport",
    "MeasurementBoundError",
    "NonFiniteDataError",
    "PointKind",
    "SparsityRangeError",
    "StabilityReport",
    "StabilityVerdict",
    "Support",
    "SupportSubspace",
    "SweepResult",
    "ToleranceConfig",
    "ToleranceError",
    "ValidationError",
    "cell_attachment",
    "check_s_regularity",
    "classify",
    "complement_of",
    "component_count",
    "default_probe_epsilon",
    "default_rank_tol",
    "enumerate_stationary",
    "enumerate_supports",
    "gradient",
    "hard_threshold",
    "iht_solve",
    "instance_from_dict",
    "instance_to_dict",
    "largest_eigenvalue_gram",
    "load_instance",
    "numerical_rank",
    "objective",
    "perturb_instance",
    "probe_strong_stability",
    "run_genericity_experiment",
    "solve_normal_equations",
    "support_min_table",
    "support_of",
    "sweep_levels",
    "validate_instance",
]
