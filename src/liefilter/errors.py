"""Exception and warning types shared across the package."""

from __future__ import annotations


class LieFilterError(Exception):
    """Base class for all errors raised by this package."""


class LieDomainError(LieFilterError):
    """A group logarithm (or related map) was requested outside its domain."""


class SingularJacobianError(LieFilterError):
    """A coordinate Jacobian is numerically singular (|det| < 1e-12)."""


class DomainExitError(LieFilterError):
    """A coordinate SDE path left the chart domain.

    Attributes:
        step: index of the offending integration step.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class CholeskyFailureError(LieFilterError):
    """A matrix that must be positive semidefinite is not, beyond tolerance."""


class RejectionOverflowError(LieFilterError):
    """Too many sampling draws fell outside the chart domain (> 1% and > 10)."""


class NoConvergenceError(LieFilterError):
    """An iterative mean computation did not reach its tolerance."""


class InnovationSingularError(LieFilterError):
    """The innovation covariance in a fusion update is not invertible."""


class StepRejectedError(LieFilterError):
    """A propagation step produced a covariance that lost PSD beyond slack."""


class ExclusionOverflowError(LieFilterError):
    """More than 0.1% of experiment samples were excluded by domain errors.

    Attributes:
        records: trial records accumulated before the failure was detected.
    """

    def __init__(self, message: str, records=None):
        super().__init__(message)
        self.records = records if records is not None else []


class NonConcentratedWarning(UserWarning):
    """The supplied moments violate the concentrated-distribution premise."""
