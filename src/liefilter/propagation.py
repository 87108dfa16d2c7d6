"""Continuous-time propagation of group mean and chart covariance.

The coupled ODE system drives the group mean by a body-frame velocity and the
covariance by a matrix-valued velocity; both right-hand sides are chart
expectations evaluated by cubature under N(0, cov).  With zero diffusion the
mean equation coincides with the deterministic flow, so the integrator error
is the only error source in that regime.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .distribution import (
    _fitting_terms,
    expectation_nodes,
    project_psd,
    symmetrize,
)
from .errors import CholeskyFailureError, StepRejectedError
from .groups import MatrixLieGroup
from .sde import STRATONOVICH, SdeModel, _chart_coefficients, stratonovich_to_ito

_PSD_SLACK = 1e-8

# (c, w) per stage after stage 1: a step c dt along the last chart velocity, weight w.
_STAGES = {"rk4": ((0.5, 2), (0.5, 2), (1.0, 1)), "euler": ()}


@dataclass
class PropagationState:
    mean: np.ndarray          # group element (n, n)
    cov: np.ndarray           # chart covariance (N, N)
    t: float


@dataclass(frozen=True)
class PropagationConfig:
    dt: float = 1e-2
    integrator: str = "rk4"          # "rk4" | "euler"

    def __post_init__(self):
        if not self.dt > 0 or not np.isfinite(self.dt):
            raise ValueError("dt must be positive and finite")
        if self.integrator not in _STAGES:
            raise ValueError(f"unknown integrator {self.integrator!r}")


def moment_velocities(group: MatrixLieGroup, state: PropagationState, model: SdeModel
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance velocities ``(v, dcov)``: the fitting formula applied
    to the chart SDE dx = a dt + B dW of the coordinate process around the mean.

    The coefficients (a, B) come from the chart transform of :mod:`.sde` on the
    cubature nodes, drift and diffusion both evaluated at each node; a
    Stratonovich model is converted to its Ito form first.  With m = <a>,
    v = <J_l^-1>^-1 m and dcov = sym(M + M^T + <B B^T>) for
    M = <a x^T> - <J_l^-1 v x^T>, all under N(0, cov).
    """
    if model.interpretation == STRATONOVICH:
        model = stratonovich_to_ito(group, model)
    pts = expectation_nodes(state.cov)
    drift, big, jri = _chart_coefficients(group, model, state.mean, pts, state.t)
    jli = jri - group.ad(pts)       # J_l^-1(x) = J_r^-1(x) - ad(x): no second series
    v, cross = _fitting_terms(jli, pts, drift.mean(axis=0))
    lead = (drift[..., :, None] * pts[..., None, :]).mean(axis=0) - cross
    spread = (big @ np.swapaxes(big, -1, -2)).mean(axis=0)
    return v, symmetrize(lead + lead.T + spread)


def propagate(group: MatrixLieGroup, state0: PropagationState, model: SdeModel,
              total_time: float, cfg: PropagationConfig | None = None
              ) -> list[PropagationState]:
    """Integrate mean and covariance jointly over ``total_time``.

    Each step is integrated in the exponential chart anchored at the current
    mean: one loop runs the stages of classical RK4 (or Euler) on the exact
    chart ODE, stage body velocities are mapped to chart velocities through
    the inverse right Jacobian, and the weighted chart increment is composed
    through exp, so iterates stay exactly on the group.  The covariance is
    advanced in matrix space and re-projected to PSD after each step.  Raises
    StepRejectedError if a step drives the covariance indefinite beyond the
    1e-8 slack before clamping, or an RK4 stage drives it indefinite beyond
    the tolerance of ``sqrt_psd``; an indefinite ``state0.cov`` raises
    CholeskyFailureError.
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

    stages = _STAGES[cfg.integrator]
    weight = 1 + sum(w for _, w in stages)
    for _ in range(steps):
        v, s = moment_velocities(group, PropagationState(mu, cov, t), model)
        dmu, dcov, vel = v, s, v        # stage 1: J_r(0) = I, so its chart velocity is v
        for c, w in stages:
            q = vel * dt * c
            stage = PropagationState(mu @ group.exp(q), cov + s * dt * c, t + dt * c)
            try:
                v, s = moment_velocities(group, stage, model)
            except CholeskyFailureError as exc:     # from the stage nodes' sqrt_psd
                raise StepRejectedError(f"stage covariance lost PSD at t={stage.t:.6g}: "
                                        f"{exc}") from exc
            vel = np.linalg.solve(group.right_jacobian(q), v)
            dmu, dcov = dmu + w * vel, dcov + w * s
        dmu, dcov = dmu * dt / weight, dcov * dt / weight
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
