"""Concentrated Gaussians on a group and their moment machinery.

A concentrated Gaussian is the pushforward of x ~ N(0, cov) through
g = mean @ exp(x).  Expectations over chart coordinates are evaluated either
with the 2N-point spherical cubature rule (deterministic, exact to degree 3)
or with seeded Monte Carlo, selected by :class:`ExpectationConfig`.
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


@dataclass(frozen=True)
class ExpectationConfig:
    method: str = "cubature"          # "cubature" | "monte-carlo"
    sample_count: int = 100_000       # Monte Carlo only
    seed: int = 0


def symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def project_psd(mat: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Clamp eigenvalues of a symmetric matrix, or a stack of them, at ``floor``."""
    sym = symmetrize(np.asarray(mat, float))
    vals, vecs = np.linalg.eigh(sym)
    return (vecs * np.maximum(vals, floor)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def sqrt_psd(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root; eigenvalues below 1e-12 are clamped to zero."""
    cov = symmetrize(np.asarray(cov, float))
    vals, vecs = np.linalg.eigh(cov)
    scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    if np.min(vals, initial=0.0) < -1e-8 * scale:
        raise CholeskyFailureError(
            f"matrix is not PSD within tolerance (min eigenvalue {vals.min():.3e})")
    vals = np.where(vals < 1e-12, 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.T


def cubature_points(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """The 2N spherical-cubature nodes of N(mean, cov), uniform weights."""
    mean = np.asarray(mean, float)
    n = mean.shape[-1]
    root = sqrt_psd(cov)
    offsets = np.sqrt(n) * root.T
    return np.concatenate([mean + offsets, mean - offsets], axis=0)


def expectation_nodes(mean: np.ndarray, cov: np.ndarray,
                      cfg: ExpectationConfig | None = None) -> np.ndarray:
    """Equal-weight evaluation nodes of N(mean, cov) for the configured method."""
    cfg = cfg or ExpectationConfig()
    mean = np.asarray(mean, float)
    if cfg.method == "cubature":
        return cubature_points(mean, cov)
    if cfg.method == "monte-carlo":
        rng = np.random.default_rng(cfg.seed)
        z = rng.standard_normal((cfg.sample_count, mean.shape[-1]))
        return mean + z @ sqrt_psd(cov).T
    raise ValueError(f"unknown expectation method {cfg.method!r}")


def expect(f, mean: np.ndarray, cov: np.ndarray, cfg: ExpectationConfig | None = None):
    """Expectation of f(x) under N(mean, cov); f must broadcast over rows."""
    return np.asarray(f(expectation_nodes(mean, cov, cfg))).mean(axis=0)


def sample(group: MatrixLieGroup, dist: ConcentratedGaussian, count: int,
           seed) -> np.ndarray:
    """Draw group elements mean @ exp(x), x ~ N(0, cov), resampling outside
    the chart domain.

    Raises :class:`RejectionOverflowError` once more than 1% of the draws have
    fallen outside the domain, which signals a non-concentrated covariance.
    """
    rng = np.random.default_rng(seed)
    root = sqrt_psd(dist.cov)
    dim = group.dim
    xs = rng.standard_normal((count, dim)) @ root.T
    rejected = 0
    drawn = count
    bad = ~group.in_domain(xs)
    while np.any(bad):
        nbad = int(bad.sum())
        rejected += nbad
        drawn += nbad
        if rejected > 0.01 * drawn:
            raise RejectionOverflowError(
                f"{rejected}/{drawn} draws outside the chart domain; "
                "distribution is not concentrated")
        xs[bad] = rng.standard_normal((nbad, dim)) @ root.T
        bad = ~group.in_domain(xs)
    return dist.mean @ group.exp(xs)


@dataclass
class MeanResult:
    """A computed mean plus its convergence certificate."""

    mean: np.ndarray
    residual: float
    iterations: int


def empirical_group_mean(group: MatrixLieGroup, samples: np.ndarray,
                         tol: float = 1e-12, max_iter: int = 100) -> MeanResult:
    """Fixed-point iteration mu <- mu exp(mean_i log(mu^-1 g_i)).

    The returned residual is the norm of the mean chart-log r at the last
    iterate visited, i.e. the defining balance condition of the group mean
    evaluated on the empirical measure; once it is below ``tol`` the returned
    mean is that iterate moved by the sub-tolerance step, mu exp(r).
    """
    samples = np.asarray(samples, float)
    mu = samples[0].copy()
    # Rows of the stacked g_i^T, so that each (mu^-1 g_i)^T = g_i^T mu^-T of an
    # iteration is one matrix product rather than one per sample.
    cols = np.ascontiguousarray(samples.swapaxes(-1, -2)).reshape(-1, samples.shape[-1])
    for it in range(1, max_iter + 1):
        rel = (cols @ np.linalg.inv(mu).T).reshape(samples.shape).swapaxes(-1, -2)
        logs = group.log(rel)
        r = logs.mean(axis=0)
        residual = float(np.linalg.norm(r))
        mu = mu @ group.exp(r)
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
    samples = np.asarray(samples, float)
    mu = samples[0].copy()

    def cost_and_grad(m):
        ys = group.log(np.linalg.inv(m) @ samples)
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
    """Plain average of outer products of chart logs about mu."""
    logs = group.log(np.linalg.inv(mu) @ np.asarray(samples, float))
    return np.einsum("ki,kj->ij", logs, logs) / len(logs)


def _fitting_terms(jli: np.ndarray, nodes: np.ndarray, m: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The fitting formula's ``(m', <J_l^-1 m' x^T>)`` with m' = <J_l^-1>^-1 m,
    given J_l^-1 at the equal-weight nodes x of N(0, cov)."""
    m_prime = np.linalg.solve(jli.mean(axis=0), m)
    lead = np.einsum("...ij,j->...i", jli, m_prime)
    return m_prime, (lead[..., :, None] * nodes[..., None, :]).mean(axis=0)


def fit_mean_covariance(group: MatrixLieGroup, m: np.ndarray, cov: np.ndarray,
                        mu: np.ndarray, cfg: ExpectationConfig | None = None
                        ) -> ConcentratedGaussian:
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
    nodes = expectation_nodes(np.zeros(group.dim), cov, cfg)
    m_prime, cross = _fitting_terms(group.left_jacobian_inv(nodes), nodes, m)
    cov_m = cov - (cross + cross.T)
    return ConcentratedGaussian(mu @ group.exp(m_prime), project_psd(cov_m))
