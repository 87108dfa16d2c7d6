"""Continuous-time propagation of group mean and chart covariance.

The coupled ODE system drives the group mean by a body-frame velocity and the
covariance by a matrix-valued velocity; both right-hand sides are chart
expectations evaluated by cubature under N(0, cov).  With zero diffusion the
mean equation coincides with the deterministic flow, so the integrator error
is the only error source in that regime.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .distribution import (
    ExpectationConfig,
    _fitting_terms,
    expectation_nodes,
    project_psd,
    symmetrize,
)
from .errors import StepRejectedError
from .groups import MatrixLieGroup
from .sde import SdeModel, _ito_curvature

_PSD_SLACK = 1e-8


@dataclass
class PropagationState:
    mean: np.ndarray          # group element (n, n)
    cov: np.ndarray           # chart covariance (N, N)
    t: float


@dataclass(frozen=True)
class PropagationConfig:
    dt: float = 1e-2
    integrator: str = "rk4"          # "rk4" | "euler"
    expectation: ExpectationConfig = field(default_factory=ExpectationConfig)

    def __post_init__(self):
        if not self.dt > 0 or not np.isfinite(self.dt):
            raise ValueError("dt must be positive and finite")
        if self.integrator not in ("rk4", "euler"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


def moment_velocities(group: MatrixLieGroup, state: PropagationState, model: SdeModel,
                      cfg: PropagationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance velocities ``(v, dcov)``: the fitting formula applied
    to the chart drift f = curvature + J_r^-1 h of the coordinate process.

    With m = <f>, v = <J_l^-1>^-1 m and dcov = sym(M + M^T + <J_r^-1 H H^T J_r^-T>)
    for M = <f x^T> - <J_l^-1 v x^T>, all under N(0, cov).  The diffusion
    matrix is evaluated once at the current mean and held fixed across the
    step; the propagation law assumes a constant H, so any time dependence
    enters only through this per-step evaluation.
    """
    pts = expectation_nodes(np.zeros(group.dim), state.cov, cfg.expectation)
    big_h = np.asarray(model.diffusion(state.mean, state.t), float)
    hht = big_h @ big_h.T
    jri, rparts = group.right_jacobian_inv_partials(pts)
    jli = jri - group.ad(pts)       # J_l^-1(x) = J_r^-1(x) - ad(x): no second series
    h_chart = np.asarray(model.drift(state.mean @ group.exp(pts), state.t), float)
    h_chart = np.broadcast_to(h_chart, pts.shape)
    drift = _ito_curvature(jri, rparts, hht) + np.einsum("...ij,...j->...i", jri, h_chart)
    v, cross = _fitting_terms(jli, pts, drift.mean(axis=0))
    lead = (drift[..., :, None] * pts[..., None, :]).mean(axis=0) - cross
    spread = (jri @ hht @ np.swapaxes(jri, -1, -2)).mean(axis=0)
    return v, symmetrize(lead + lead.T + spread)


def propagate(group: MatrixLieGroup, state0: PropagationState, model: SdeModel,
              total_time: float, cfg: PropagationConfig | None = None
              ) -> list[PropagationState]:
    """Integrate mean and covariance jointly over ``total_time``.

    Each step is integrated in the exponential chart anchored at the current
    mean: stage body velocities are mapped to chart velocities through the
    inverse right Jacobian, classical RK4 runs on the exact chart ODE, and
    the resulting chart increment is composed through exp, so iterates stay
    exactly on the group.  The covariance is advanced in matrix space and
    re-projected to PSD after each step.  Raises StepRejectedError if a step
    drives the covariance indefinite beyond the 1e-8 slack before clamping.
    """
    if not total_time > 0 or not np.isfinite(total_time):
        raise ValueError("total_time must be positive and finite")
    cfg = cfg or PropagationConfig()
    steps = max(1, round(total_time / cfg.dt))
    dt = total_time / steps
    mu = np.asarray(state0.mean, float).copy()
    cov = symmetrize(np.asarray(state0.cov, float))
    t = state0.t
    traj = [PropagationState(mu.copy(), cov.copy(), t)]

    def velocities(mean, cov, t):
        return moment_velocities(group, PropagationState(mean, cov, t), model, cfg)

    def chart_vel(q, body_v):
        return np.linalg.solve(group.right_jacobian(q), body_v)

    for _ in range(steps):
        v1, s1 = velocities(mu, cov, t)
        if cfg.integrator == "euler":
            dmu, dcov = v1 * dt, s1 * dt
        else:
            q2 = v1 * dt / 2
            v2, s2 = velocities(mu @ group.exp(q2), cov + s1 * dt / 2, t + dt / 2)
            l2 = chart_vel(q2, v2)
            q3 = l2 * dt / 2
            v3, s3 = velocities(mu @ group.exp(q3), cov + s2 * dt / 2, t + dt / 2)
            l3 = chart_vel(q3, v3)
            q4 = l3 * dt
            v4, s4 = velocities(mu @ group.exp(q4), cov + s3 * dt, t + dt)
            l4 = chart_vel(q4, v4)
            dmu = (v1 + 2 * l2 + 2 * l3 + l4) * dt / 6
            dcov = (s1 + 2 * s2 + 2 * s3 + s4) * dt / 6
        mu = mu @ group.exp(dmu)
        cov = symmetrize(cov + dcov)
        eigmin = float(np.linalg.eigvalsh(cov).min())
        if eigmin < -_PSD_SLACK:
            raise StepRejectedError(
                f"covariance lost PSD at t={t + dt:.6g} (min eig {eigmin:.3e})")
        if eigmin < 0:
            cov = project_psd(cov)
        t += dt
        traj.append(PropagationState(mu.copy(), cov.copy(), t))
    return traj


def export_trajectory_csv(trajectory: list[PropagationState], path) -> None:
    """Write t, row-major mean entries and the covariance upper triangle."""
    if not trajectory:
        raise ValueError("cannot export an empty trajectory")
    n = trajectory[0].mean.shape[0]
    dim = trajectory[0].cov.shape[0]
    header = (["t"]
              + [f"mu{i}{j}" for i in range(n) for j in range(n)]
              + [f"sigma{i}{j}" for i in range(dim) for j in range(i, dim)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for state in trajectory:
            row = [repr(float(state.t))]
            row += [repr(float(v)) for v in state.mean.ravel()]
            row += [repr(float(state.cov[i, j]))
                    for i in range(dim) for j in range(i, dim)]
            writer.writerow(row)
