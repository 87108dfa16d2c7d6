"""Bayesian fusion of a concentrated Gaussian prior with one observation.

Three routes are provided:

* :func:`gaussian_update_general` evaluates the full Gaussian-filter update on
  chart coordinates by joint cubature over state and observation noise, for
  observations living either in Euclidean space or in a second group;
* :func:`fuse_euclidean` is the closed-form specialization for vector
  observations, built from numerical right Lie derivatives of the observation
  map and carrying a second-order innovation correction;
* :func:`fuse_group` is the same Kalman update with H = I, for full-state
  group observations.

All three end in one chart Kalman update, which raises ``InnovationSingularError``
on an ill-conditioned innovation covariance.  The closed forms then apply an
optional mean/covariance correction that moves the chart posterior to the
group-theoretic posterior; disabling it (``modified=False``) reproduces the
plain Kalman projection, the baseline the experiment harness compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distribution import (
    ConcentratedGaussian,
    _corrected_mean,
    expectation_nodes,
    project_psd,
    symmetrize,
)
from .errors import InnovationSingularError
from .groups import MatrixLieGroup, lie_derivative_right, lie_derivative_right_second

_COND_LIMIT = 1e12


@dataclass
class ObservationModelEuclidean:
    """Vector observation z = k(g) + r with r ~ N(0, noise_cov)."""

    func: Callable[[np.ndarray], np.ndarray]
    noise_cov: np.ndarray


@dataclass
class ObservationModelGroup:
    """Group observation g_z = k(g) exp(r) with r ~ N(0, noise_cov) on the
    target algebra; ``func=None`` means the identity map (full-state
    observation on the same group)."""

    group: MatrixLieGroup
    noise_cov: np.ndarray
    func: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class PosteriorCoordinates:
    """Chart-coordinate posterior together with the update intermediates."""

    m: np.ndarray                 # posterior chart mean
    cov: np.ndarray               # posterior chart covariance
    predicted: np.ndarray         # predicted observation coordinates
    innovation_cov: np.ndarray    # S
    cross_cov: np.ndarray         # C
    gain: np.ndarray              # K = C S^-1


def _gain_update(P: np.ndarray, S: np.ndarray, C: np.ndarray, innovation: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chart means ``innovation @ K^T``, covariance project_psd(P - K S K^T) and
    the gain K = C S^-1, solved on symmetrized S (S itself, or each of a stack
    (..., M, M), enters the covariance as given); cond = |lambda|max / |lambda|min."""
    sym = symmetrize(S)
    eig = np.abs(np.linalg.eigvalsh(sym))
    bad = (eig.max(axis=-1) > _COND_LIMIT * eig.min(axis=-1)) | (eig.min(axis=-1) == 0)
    if np.any(bad):
        first = np.argwhere(bad)[0]                            # empty for one S
        where = f" at stack index {tuple(int(k) for k in first)}" if len(first) else ""
        raise InnovationSingularError(
            f"innovation covariance condition number exceeds {_COND_LIMIT:.0e}{where}")
    K_t = np.linalg.solve(sym, np.swapaxes(C, -1, -2))
    K = np.swapaxes(K_t, -1, -2)
    return innovation @ K_t, project_psd(P - K @ S @ K_t), K


def gaussian_update_general(group: MatrixLieGroup,
                            prior: ConcentratedGaussian,
                            obs: ObservationModelEuclidean | ObservationModelGroup,
                            observation) -> PosteriorCoordinates:
    """Gaussian-filter update on chart coordinates by joint cubature.

    Expectations run over the product Gaussian N(x|0, P) N(r|0, R) in
    dimension N+M, and the cubature S and C enter the Kalman update of the
    closed forms; the observation map must broadcast over stacked group
    elements.  ``fit_mean_covariance(group, post.m, post.cov, prior.mean)``
    maps the result to the group.
    """
    P = symmetrize(np.asarray(prior.cov, float))
    R = symmetrize(np.asarray(obs.noise_cov, float))
    n, m_dim = P.shape[0], R.shape[0]
    joint = np.zeros((n + m_dim, n + m_dim))
    joint[:n, :n] = P
    joint[n:, n:] = R
    nodes = expectation_nodes(joint)
    xs, rs = nodes[:, :n], nodes[:, n:]
    mu = np.asarray(prior.mean, float)

    if isinstance(obs, ObservationModelGroup):
        target = obs.group
        k = obs.func if obs.func is not None else (lambda g: g)
        k_mu = np.asarray(k(mu), float)
        k_mu_inv = np.linalg.inv(k_mu)
        zs = target.log(k_mu_inv @ np.asarray(k(mu @ group.exp(xs)), float)
                        @ target.exp(rs))
        innovation = target.log(k_mu_inv @ np.asarray(observation, float))
    else:
        k_mu = np.asarray(obs.func(mu), float)
        zs = np.asarray(obs.func(mu @ group.exp(xs)), float) - k_mu + rs
        innovation = np.asarray(observation, float) - k_mu

    predicted = zs.mean(axis=0)
    centered = zs - predicted
    S = np.einsum("ki,kj->ij", centered, centered) / len(zs)
    C = np.einsum("ki,kj->ij", xs, centered) / len(zs)
    m, cov, K = _gain_update(P, S, C, innovation - predicted)
    return PosteriorCoordinates(m, cov, predicted, S, C, K)


def _posterior_means(group: MatrixLieGroup, mu: np.ndarray, m: np.ndarray,
                     cov: np.ndarray) -> np.ndarray:
    """The means of :func:`_posterior` alone, without covariances: the plain
    and the corrected, ``(2, ..., n, n)`` in that order, from one ``exp``."""
    return mu @ group.exp(np.stack([m, _corrected_mean(group.ad(np.eye(group.dim)), m, cov)]))


def _posterior(group: MatrixLieGroup, mu: np.ndarray, m: np.ndarray,
               cov: np.ndarray, modified: bool) -> ConcentratedGaussian:
    """Map chart means ``(..., N)`` and the shared, already projected chart
    covariance (or ``(T, N, N)`` for means ``(T, S, N)``) to the group
    posterior, with or without the correction: the mean m' of
    :func:`_corrected_mean` and the projected covariance C - (1/2)(ad(m') C + C ad(m')^T)."""
    per_sample = cov if cov.ndim == 2 else cov[..., None, :, :]   # against (T, S, N)
    if modified:
        m = _corrected_mean(group.ad(np.eye(group.dim)), m, cov)
        bump = -0.5 * group.ad(m) @ per_sample                  # ad_i m' = -ad(m') e_i
        cov = project_psd(per_sample + bump + np.swapaxes(bump, -1, -2))
    else:
        cov = np.broadcast_to(per_sample, m.shape[:-1] + cov.shape[-2:]).copy()
    return ConcentratedGaussian(mu @ group.exp(m), cov)


def _linearize(group: MatrixLieGroup, func: Callable[[np.ndarray], np.ndarray],
               mu: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linearization of ``func`` at the prior mean: k(mu), the (M, N) right
    Lie derivative slopes and the curvature P_ij (E_i^r E_j^r k).  The N
    slopes come from one stencil call, which calls ``func`` on (N, n, n)
    stacks, and the N^2 second derivatives from one on flat (N^2, n, n)
    stacks, summed in (i, j) order.  It depends only on the prior, so
    observations sharing a prior can share it."""
    dim, axis = group.dim, np.arange(group.dim)
    k_mu = np.asarray(func(mu), float)
    slopes = lie_derivative_right(group, func, mu, axis).T      # (M, N)
    second = lie_derivative_right_second(group, func, mu, np.repeat(axis, dim),
                                         np.tile(axis, dim))
    if second.shape != (dim * dim,) + k_mu.shape:
        raise ValueError(f"the observation map gave shape {second.shape} for "
                         f"{dim * dim} stacked group elements, not "
                         f"{(dim * dim,) + k_mu.shape}: it must broadcast over "
                         "stacked elements")
    bend = sum(P.reshape(dim * dim, 1) * second)
    return k_mu, slopes, bend


def _kalman_step(linearization: tuple[np.ndarray, np.ndarray, np.ndarray],
                 P: np.ndarray, R: np.ndarray, z: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_gain_update` with S = H P H^T + R, C = P H^T: chart means ``(..., N)``
    and the shared covariance for observations ``z`` ``(..., M)``, given the
    linearization ``(k(mu), H, bend)`` (``(0, I, 0)`` for a full-state innovation),
    the symmetrized prior covariance ``P`` and noise covariance ``R``.  A stack
    ``R`` of shape ``(T, M, M)`` meets observations ``(T, S, M)`` and gives
    means ``(T, S, N)`` and one covariance per leading index, ``(T, N, N)``."""
    k_mu, slopes, bend = linearization
    return _gain_update(P, slopes @ P @ slopes.T + R, P @ slopes.T, z - k_mu - 0.5 * bend)[:2]


def fuse_euclidean(group: MatrixLieGroup, prior: ConcentratedGaussian,
                   obs: ObservationModelEuclidean, z: np.ndarray,
                   modified: bool = True) -> ConcentratedGaussian:
    """Closed-form update for a vector observation.

    The observation map is linearized through right Lie derivatives at the
    prior mean; the innovation carries the second-order curvature term
    (1/2) P_ij (E_i^r E_j^r k), which is kept in both the modified and the
    plain variant.  Terms quadratic in the prior covariance are dropped.
    A batch ``z`` of shape ``(..., M)`` shares the prior, the gain and the
    curvature term, and gives a mean ``(..., n, n)`` and covariance
    ``(..., N, N)``.  A stack ``obs.noise_cov`` of shape ``(T, M, M)`` meets
    observations ``(T, S, M)``: each leading index gets its own gain and chart
    covariance, and the posterior has mean ``(T, S, n, n)`` and covariance
    ``(T, S, N, N)``.  ``obs.func`` must broadcast over stacked group
    elements, ``(..., n, n)`` to ``(..., M)``: the curvature stencil calls it
    on (N^2, n, n) stacks, and a map that does not gives a ``ValueError``.
    """
    mu = np.asarray(prior.mean, float)
    P = symmetrize(np.asarray(prior.cov, float))
    R = symmetrize(np.asarray(obs.noise_cov, float))
    m, cov = _kalman_step(_linearize(group, obs.func, mu, P), P, R,
                          np.asarray(z, float))
    return _posterior(group, mu, m, cov, modified)


def fuse_group(group: MatrixLieGroup, prior: ConcentratedGaussian,
               obs: ObservationModelGroup, g_z: np.ndarray,
               modified: bool = True) -> ConcentratedGaussian:
    """Closed-form update for a full-state observation on the same group: the
    Kalman step with H = I on log(mu^-1 g_z), raising ``InnovationSingularError``
    as :func:`fuse_euclidean` does.  A batch ``g_z`` of shape ``(..., n, n)``
    shares the prior and the gain.  A stack ``obs.noise_cov`` of shape
    ``(T, N, N)`` meets observations ``(T, S, n, n)``: each leading index gets
    its own gain, and the posterior has mean ``(T, S, n, n)`` and covariance
    ``(T, S, N, N)``.  An observation map ``obs.func``, or an ``obs.group``
    with another basis than ``group``, raises ``ValueError``."""
    if obs.func is not None:
        raise ValueError("fuse_group takes no obs.func; use gaussian_update_general")
    if obs.group is not group and not np.array_equal(obs.group.basis, group.basis):
        raise ValueError(f"fuse_group observes the state's own group, not {obs.group.name}; "
                         "use gaussian_update_general")
    mu = np.asarray(prior.mean, float)
    P = symmetrize(np.asarray(prior.cov, float))
    R = symmetrize(np.asarray(obs.noise_cov, float))
    y = group.log(np.linalg.inv(mu) @ np.asarray(g_z, float))
    return _posterior(group, mu, *_kalman_step((0.0, np.eye(group.dim), 0.0), P, R, y), modified)


def _costs(errors: np.ndarray, ok: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """c1 (squared norm of the mean) and c2 (mean squared norm) over the samples S
    of chart errors ``(..., T, S, N)``, shape ``(..., T)``, each row summed as a
    reduction over it alone and c1 by one norm (a BLAS dot) per row, which no
    vectorized form matches.  Under a mask ``ok`` ``(T, S)`` a row that lost samples
    is scored again over its kept ones, copied contiguous first; none kept is NaN."""
    means, c2 = errors.mean(axis=-2), (errors * errors).sum(axis=-1).mean(axis=-1)
    c1 = np.reshape([np.linalg.norm(v) ** 2 for v in means.reshape(-1, means.shape[-1])], c2.shape)
    for j in (np.flatnonzero(~ok.all(axis=-1)) if ok is not None else ()):
        kept = np.ascontiguousarray(errors[..., j, ok[j], :])
        c1[..., j], c2[..., j] = _costs(kept) if kept.size else (np.nan, np.nan)
    return c1, c2


def _chart_errors(group: MatrixLieGroup, truths: np.ndarray,
                  estimates: np.ndarray) -> np.ndarray:
    """log(truth^-1 estimate) over (truth, estimate) pairs."""
    return group.log(np.linalg.inv(np.asarray(truths, float))
                     @ np.asarray(estimates, float))


def cost_c1(group: MatrixLieGroup, truths: np.ndarray,
            estimates: np.ndarray) -> float:
    """Squared norm of the mean chart error over (truth, estimate) pairs: c1 of :func:`_costs`."""
    return float(_costs(_chart_errors(group, truths, estimates))[0])


def cost_c2(group: MatrixLieGroup, truths: np.ndarray,
            estimates: np.ndarray) -> float:
    """Mean squared chart error over (truth, estimate) pairs: c2 of :func:`_costs`."""
    return float(_costs(_chart_errors(group, truths, estimates))[1])
