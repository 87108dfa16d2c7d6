"""Concentrated Gaussians on a group and their moment machinery.

A concentrated Gaussian is the pushforward of x ~ N(0, cov) through
g = mean @ exp(x).  Expectations over chart coordinates are evaluated with
the 2N-point spherical cubature rule (deterministic, exact to degree 3).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CholeskyFailureError,
    NoConvergenceError,
    NonConcentratedWarning,
    RejectionOverflowError,
)
from .groups import MatrixLieGroup

CONCENTRATION_LIMIT = 0.5


@dataclass
class ConcentratedGaussian:
    """Pair (mean on the group, covariance on chart coordinates)."""

    mean: np.ndarray
    cov: np.ndarray


def symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def project_psd(mat: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues of a symmetric matrix, or a stack of them, at zero."""
    sym = symmetrize(np.asarray(mat, float))
    vals, vecs = np.linalg.eigh(sym)
    return (vecs * np.maximum(vals, 0.0)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def sqrt_psd(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root of a matrix, or a stack of them, each checked
    PSD against its own largest eigenvalue; eigenvalues below 1e-12 are
    clamped to zero."""
    cov = symmetrize(np.asarray(cov, float))
    vals, vecs = np.linalg.eigh(cov)
    scale = np.maximum(1.0, np.abs(vals).max(axis=-1, initial=0.0))
    if np.any(vals.min(axis=-1, initial=0.0) < -1e-8 * scale):
        raise CholeskyFailureError(
            f"matrix is not PSD within tolerance (min eigenvalue {vals.min():.3e})")
    vals = np.where(vals < 1e-12, 0.0, vals)
    return (vecs * np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def expectation_nodes(cov: np.ndarray) -> np.ndarray:
    """The 2N equal-weight spherical-cubature nodes of N(0, cov), 0 + o and
    0 - o for the columns o of sqrt(N) sqrt_psd(cov): no node is -0.0."""
    offsets = np.sqrt(len(cov)) * sqrt_psd(cov).T
    return np.concatenate([0.0 + offsets, 0.0 - offsets], axis=0)


def _check_rejections(rejected: int, kept: int) -> None:
    """Raise :class:`RejectionOverflowError` once more than 1% of all draws,
    and more than 10, fell outside the chart domain: the floor keeps Poisson
    noise at small counts from tripping the bound."""
    if rejected > max(10, 0.01 * (rejected + kept)):
        raise RejectionOverflowError(f"{rejected}/{rejected + kept} draws outside the "
                                     "chart domain; distribution is not concentrated")


def sample(group: MatrixLieGroup, dist: ConcentratedGaussian, count: int,
           seed) -> np.ndarray:
    """Draw group elements mean @ exp(x), x ~ N(0, cov), resampling outside
    the chart domain.

    Raises :class:`RejectionOverflowError` once more than 1% and more than 10
    of the draws fell outside the domain: the covariance is not concentrated.
    """
    rng = np.random.default_rng(seed)
    root = sqrt_psd(dist.cov)
    dim = group.dim
    xs = rng.standard_normal((count, dim)) @ root.T
    rejected = 0
    bad = ~group.in_domain(xs)
    while np.any(bad):
        nbad = int(bad.sum())
        rejected += nbad
        _check_rejections(rejected, count)
        xs[bad] = rng.standard_normal((nbad, dim)) @ root.T
        bad = ~group.in_domain(xs)
    return dist.mean @ group.exp(xs)


@dataclass
class MeanResult:
    """A computed mean plus its convergence certificate."""

    mean: np.ndarray
    residual: float
    iterations: int


def _corrected_mean(ad_basis: np.ndarray, m: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """The fitting formula m' = <J_l^-1>^-1 m to first order in the covariance,
    (I - (1/12) cov_ij ad_i ad_j) m with ad_i = ``ad_basis[i]``, for chart means
    ``(..., N)`` sharing one ``(N, N)`` cov, or ``(T, S, N)`` with one per leading index."""
    quad = np.einsum("...ij,iab,jbc->...ac", cov, ad_basis, ad_basis)
    return m @ np.swapaxes(np.eye(len(ad_basis)) - quad / 12.0, -1, -2)


def _nonempty(samples) -> np.ndarray:
    samples = np.asarray(samples, float)
    if len(samples) == 0:
        raise ValueError("at least one sample is required")
    return samples


def empirical_group_mean(group: MatrixLieGroup, samples: np.ndarray,
                         tol: float = 1e-12, max_iter: int = 100) -> MeanResult:
    """Newton iteration mu <- mu exp((I - Q/12) r), r and C the weighted mean and
    second moment of the logs log(mu^-1 g_i), Q = C_ij ad_i ad_j: the fitting
    formula's step <J_l^-1>^-1 r to first order in C (:func:`_corrected_mean`).

    The returned residual is |r| at the last iterate visited, the defining balance
    condition of the group mean on the empirical measure; once it is below ``tol``
    the returned mean is that iterate moved by the sub-tolerance step.  The logs L
    are summed component-major, (N, S): r = L w and C = (L w) L^T."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    samples = _nonempty(samples)
    mu = samples[0].copy()
    weights, ad_basis = np.full(len(samples), 1.0 / len(samples)), group.ad(np.eye(group.dim))
    for it in range(1, max_iter + 1):
        logs = group.log_about(mu, samples).T
        r = logs @ weights
        residual = float(np.linalg.norm(r))
        mu = mu @ group.exp(_corrected_mean(ad_basis, r, (logs * weights) @ logs.T))
        if residual < tol:
            return MeanResult(mu, residual, it)
    raise NoConvergenceError(
        f"group mean did not reach tol={tol} in {max_iter} iterations "
        f"(residual {residual:.3e})")


def frechet_mean(group: MatrixLieGroup, samples: np.ndarray,
                 tol: float = 1e-10, max_iter: int = 200) -> MeanResult:
    """Minimize the mean squared chart distance by gradient descent.

    The cost is F(mu) = mean_i |log(mu^-1 g_i)|^2 over the exponential chart
    at the iterate; its gradient with respect to a right perturbation
    mu exp(eps) is -2 mean_i J_l^-T(y_i) y_i with y_i = log(mu^-1 g_i).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    samples = _nonempty(samples)
    mu = samples[0].copy()

    def cost_and_grad(m):
        ys = group.log_about(m, samples)
        jlt = np.swapaxes(group.left_jacobian_inv(ys), -1, -2)
        grad = -2.0 * np.einsum("kij,kj->i", jlt, ys) / len(ys)
        return float((ys * ys).sum(axis=-1).mean()), grad

    cost, grad = cost_and_grad(mu)
    for it in range(1, max_iter + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < tol:
            return MeanResult(mu, gnorm, it)
        step = 0.5
        for _ in range(40):
            trial = mu @ group.exp(-step * grad)
            tcost, tgrad = cost_and_grad(trial)
            if tcost <= cost + 1e-15:
                mu, cost, grad = trial, tcost, tgrad
                break
            step *= 0.5
        else:
            raise NoConvergenceError("line search failed in frechet_mean")
    raise NoConvergenceError(
        f"frechet mean did not reach tol={tol} in {max_iter} iterations "
        f"(gradient norm {gnorm:.3e})")


def empirical_covariance(group: MatrixLieGroup, samples: np.ndarray,
                         mu: np.ndarray) -> np.ndarray:
    """Plain average of outer products of the (N, S) chart logs L about mu, L L^T / S."""
    logs = group.log_about(mu, _nonempty(samples)).T
    return logs @ logs.T / logs.shape[1]


def _fitting_terms(jli: np.ndarray, nodes: np.ndarray, m: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The fitting formula's ``(m', <J_l^-1 m' x^T>)`` with m' = <J_l^-1>^-1 m,
    given J_l^-1 at the equal-weight nodes x of N(0, cov)."""
    m_prime = np.linalg.solve(jli.mean(axis=0), m)
    lead = np.einsum("...ij,j->...i", jli, m_prime)
    return m_prime, (lead[..., :, None] * nodes[..., None, :]).mean(axis=0)


def fit_mean_covariance(group: MatrixLieGroup, m: np.ndarray, cov: np.ndarray,
                        mu: np.ndarray) -> ConcentratedGaussian:
    """Move first/second moments on the chart to group mean and covariance.

    Given x with mean m and covariance cov, the group mean of mu @ exp(x) is
    not mu @ exp(m); the corrected chart offset is m' = <J_l^-1>^-1 m and the
    covariance loses sym(<J_l^-1 m' x^T>).  Expectations are taken under
    N(0, cov), which costs only a second-order error in |m'|.
    """
    m = np.asarray(m, float)
    cov = symmetrize(np.asarray(cov, float))
    if np.linalg.norm(m) > CONCENTRATION_LIMIT or \
            np.linalg.norm(cov, ord=2) > CONCENTRATION_LIMIT:
        warnings.warn(
            "chart moments exceed the concentrated-distribution threshold 0.5; "
            "the fitted mean/covariance may be inaccurate",
            NonConcentratedWarning, stacklevel=2)
    nodes = expectation_nodes(cov)
    m_prime, cross = _fitting_terms(group.left_jacobian_inv(nodes), nodes, m)
    cov_m = cov - (cross + cross.T)
    return ConcentratedGaussian(mu @ group.exp(m_prime), project_psd(cov_m))
