"""Uncertainty propagation and Bayesian fusion on matrix Lie groups."""

from .distribution import (
    ConcentratedGaussian,
    MeanResult,
    empirical_covariance,
    empirical_group_mean,
    fit_mean_covariance,
    frechet_mean,
    sample,
)
from .errors import (
    CholeskyFailureError,
    DomainExitError,
    ExclusionOverflowError,
    InnovationSingularError,
    LieDomainError,
    LieFilterError,
    NoConvergenceError,
    NonConcentratedWarning,
    RejectionOverflowError,
    SingularJacobianError,
    StepRejectedError,
)
from .fusion import (
    ObservationModelEuclidean,
    ObservationModelGroup,
    PosteriorCoordinates,
    cost_c1,
    cost_c2,
    fuse_euclidean,
    fuse_group,
    gaussian_update_general,
)
from .groups import (
    DiagonalGroup,
    MatrixLieGroup,
    SO3,
    bch_truncated,
    expand_log_perturbation,
    lie_derivative_right,
    lie_derivative_right_second,
)
from .propagation import (
    PropagationConfig,
    PropagationState,
    export_trajectory_csv,
    moment_velocities,
    propagate,
)
from .sde import (
    ITO,
    STRATONOVICH,
    ParametricSdeModel,
    PathConfig,
    SdeModel,
    ito_injection_to_parametric,
    parametric_stratonovich_to_ito,
    sample_nonparametric_path,
    sample_parametric_path,
    stratonovich_injection_to_parametric,
    stratonovich_to_ito,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
