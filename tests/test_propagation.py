import numpy as np
import pytest

from liefilter.distribution import cubature_points
from liefilter.errors import StepRejectedError
from liefilter.propagation import (
    PropagationConfig,
    PropagationState,
    export_trajectory_csv,
    moment_velocities,
    propagate,
)
from liefilter.sde import SdeModel

from test_sde import const, rk4_flow


def nonlinear_so3_drift(g, t):
    v = np.array([0.4, -0.1, 0.3])
    w = np.einsum("...ji,j->...i", g, v)
    return 0.5 * np.stack([np.sin(w[..., 0]), w[..., 1], np.cos(w[..., 2]) - 1],
                          axis=-1)


def linear_abelian_drift(group, A, b):
    def drift(g, t):
        q = group.log(g)
        return q @ A.T + b
    return drift


# -- velocities -------------------------------------------------------------------

def test_velocities_vanish_without_drift_or_noise(so3):
    model = SdeModel(const(np.zeros(3)), const(np.zeros((3, 3))))
    state = PropagationState(so3.exp(np.array([0.2, 0.1, 0.4])),
                             0.05 * np.eye(3), 0.0)
    v, dcov = moment_velocities(so3, state, model, PropagationConfig())
    assert np.abs(v).max() < 1e-15
    assert np.abs(dcov).max() < 1e-15


def test_mean_velocity_at_zero_cov_is_plain_drift(so3):
    model = SdeModel(nonlinear_so3_drift, const(np.zeros((3, 3))))
    mu = so3.exp(np.array([0.3, -0.2, 0.1]))
    state = PropagationState(mu, np.zeros((3, 3)), 0.0)
    v, _ = moment_velocities(so3, state, model, PropagationConfig())
    assert np.abs(v - nonlinear_so3_drift(mu, 0.0)).max() < 1e-14


def test_covariance_velocity_at_zero_cov_is_diffusion_square(so3):
    big_h = np.array([[0.2, 0.05, 0.0], [0.0, 0.1, 0.02], [0.01, 0.0, 0.15]])
    model = SdeModel(const(np.zeros(3)), const(big_h))
    state = PropagationState(np.eye(3), np.zeros((3, 3)), 0.0)
    _, dcov = moment_velocities(so3, state, model, PropagationConfig())
    assert np.abs(dcov - big_h @ big_h.T).max() < 1e-14


def test_abelian_velocities_match_linear_moment_equations(diag3):
    A = np.array([[-0.5, 0.2, 0.0], [0.0, -0.8, 0.1], [0.0, 0.0, -0.3]])
    b = np.array([0.1, -0.2, 0.05])
    big_h = np.diag([0.2, 0.3, 0.1])
    model = SdeModel(linear_abelian_drift(diag3, A, b), const(big_h))
    q = np.array([0.4, -0.1, 0.6])
    cov = np.array([[0.05, 0.01, 0.0], [0.01, 0.04, 0.005], [0.0, 0.005, 0.06]])
    state = PropagationState(diag3.exp(q), cov, 0.0)
    v, dcov = moment_velocities(diag3, state, model, PropagationConfig())
    assert np.abs(v - (A @ q + b)).max() < 1e-13
    assert np.abs(dcov - (A @ cov + cov @ A.T + big_h @ big_h.T)).max() < 1e-13


def se3_drift(g, t):
    angular = nonlinear_so3_drift(g[..., :3, :3], t)
    return np.concatenate([angular, np.broadcast_to([1.0, 0.0, 0.1], angular.shape)],
                          axis=-1)


@pytest.mark.parametrize("case", ["so3", "se3"])
def test_moment_velocities_match_per_node_transcription(request, case):
    group = request.getfixturevalue(case)
    dim = group.dim
    rng = np.random.default_rng(31)
    drift = nonlinear_so3_drift if case == "so3" else se3_drift
    big_h = 0.1 * np.eye(dim) + 0.02 * rng.standard_normal((dim, dim))
    model = SdeModel(drift, const(big_h))
    root = 0.2 * rng.standard_normal((dim, dim))
    state = PropagationState(group.exp(0.3 * rng.standard_normal(dim)),
                             root @ root.T + 0.01 * np.eye(dim), 0.4)
    hht = big_h @ big_h.T
    nodes = cubature_points(np.zeros(dim), state.cov)
    jlis, fs, spreads = [], [], []
    for x in nodes:
        jri = group.right_jacobian_inv(x)
        _, parts = group.right_jacobian_inv_partials(x)
        curvature = sum(0.5 * parts[k] @ hht @ jri.T[:, k] for k in range(dim))
        fs.append(curvature + jri @ drift(state.mean @ group.exp(x), state.t))
        jlis.append(group.left_jacobian_inv(x))
        spreads.append(jri @ hht @ jri.T)
    v_ref = np.linalg.solve(np.mean(jlis, axis=0), np.mean(fs, axis=0))
    lead = np.mean([np.outer(f - jli @ v_ref, x) for f, jli, x in zip(fs, jlis, nodes)],
                   axis=0)
    dcov_ref = lead + lead.T + np.mean(spreads, axis=0)
    v, dcov = moment_velocities(group, state, model, PropagationConfig())
    assert np.abs(v - v_ref).max() < 1e-13
    assert np.abs(dcov - dcov_ref).max() < 1e-13


# -- trajectories ------------------------------------------------------------------

def test_deterministic_flow_matches_chart_rk4_oracle(so3):
    model = SdeModel(nonlinear_so3_drift, const(np.zeros((3, 3))))
    mu0 = so3.exp(np.array([0.2, 0.4, -0.3]))
    cfg = PropagationConfig(dt=1e-3)
    traj = propagate(so3, PropagationState(mu0, np.zeros((3, 3)), 0.0), model,
                     1.0, cfg)
    final = traj[-1]

    def field(q, t):
        return so3.right_jacobian_inv(q) @ nonlinear_so3_drift(
            mu0 @ so3.exp(q), t)

    q_end = rk4_flow(field, np.zeros(3), 1.0, 10_000)
    oracle = mu0 @ so3.exp(q_end)
    assert np.linalg.norm(so3.log(np.linalg.inv(oracle) @ final.mean)) < 1e-8
    assert np.abs(final.cov).max() < 1e-14


def test_zero_noise_mean_independent_of_step_with_nonzero_cov(so3):
    model = SdeModel(nonlinear_so3_drift, const(np.zeros((3, 3))))
    state0 = PropagationState(so3.exp(np.array([0.1, -0.2, 0.3])),
                              0.1 * np.eye(3), 0.0)
    coarse = propagate(so3, state0, model, 1.0, PropagationConfig(dt=2e-3))[-1]
    fine = propagate(so3, state0, model, 1.0, PropagationConfig(dt=2e-4))[-1]
    assert np.linalg.norm(so3.log(np.linalg.inv(fine.mean) @ coarse.mean)) < 1e-8


def test_small_noise_covariance_growth(so3):
    sigma, total = 0.2, 0.5
    model = SdeModel(const(np.zeros(3)), const(sigma * np.eye(3)))
    traj = propagate(so3, PropagationState(np.eye(3), np.zeros((3, 3)), 0.0),
                     model, total, PropagationConfig(dt=1e-2))
    target = sigma**2 * total
    assert np.abs(np.diag(traj[-1].cov) - target).max() / target < 0.02


def test_abelian_matches_closed_form_linear_gaussian(diag3):
    a = np.array([-0.6, -0.4, -0.9])
    b = np.array([0.2, -0.1, 0.3])
    hdiag = np.array([0.25, 0.15, 0.3])
    model = SdeModel(linear_abelian_drift(diag3, np.diag(a), b),
                     const(np.diag(hdiag)))
    q0 = np.array([0.5, -0.3, 0.2])
    cov0 = np.diag([0.04, 0.06, 0.02])
    total = 1.0
    traj = propagate(diag3, PropagationState(diag3.exp(q0), cov0, 0.0), model,
                     total, PropagationConfig(dt=1e-3))
    final = traj[-1]
    q_exact = np.exp(a * total) * (q0 + b / a) - b / a
    var_exact = np.exp(2 * a * total) * (np.diag(cov0) + hdiag**2 / (2 * a)) \
        - hdiag**2 / (2 * a)
    assert np.abs(diag3.log(final.mean) - q_exact).max() < 1e-8
    assert np.abs(np.diag(final.cov) - var_exact).max() < 1e-8
    off = final.cov - np.diag(np.diag(final.cov))
    assert np.abs(off).max() < 1e-12


def test_covariance_stays_symmetric_and_psd(so3):
    model = SdeModel(nonlinear_so3_drift, const(0.15 * np.eye(3)))
    traj = propagate(so3, PropagationState(np.eye(3), 0.01 * np.eye(3), 0.0),
                     model, 0.5, PropagationConfig(dt=5e-3))
    for state in traj:
        assert np.abs(state.cov - state.cov.T).max() < 1e-14
        assert np.linalg.eigvalsh(state.cov).min() >= -1e-15


def test_step_halving_error_ratio(so3):
    model = SdeModel(nonlinear_so3_drift, const(0.1 * np.eye(3)))
    state0 = PropagationState(so3.exp(np.array([0.3, 0.1, -0.2])),
                              0.02 * np.eye(3), 0.0)

    def endpoint(dt):
        s = propagate(so3, state0, model, 1.0, PropagationConfig(dt=dt))[-1]
        return s

    e1, e2, e3 = endpoint(0.04), endpoint(0.02), endpoint(0.01)

    def gap(a, b):
        return np.linalg.norm(so3.log(np.linalg.inv(a.mean) @ b.mean)) \
            + np.linalg.norm(a.cov - b.cov)

    ratio = gap(e1, e2) / gap(e2, e3)
    assert 8 <= ratio <= 32


def test_euler_integrator_available(diag3):
    model = SdeModel(linear_abelian_drift(diag3, -0.5 * np.eye(3), np.zeros(3)),
                     const(np.zeros((3, 3))))
    traj = propagate(diag3, PropagationState(diag3.exp(np.ones(3)),
                                             0.01 * np.eye(3), 0.0),
                     model, 0.1, PropagationConfig(dt=1e-3, integrator="euler"))
    q = diag3.log(traj[-1].mean)
    assert np.abs(q - np.exp(-0.05) * np.ones(3)).max() < 1e-3


def test_propagate_rejects_non_positive_total_time(so3):
    model = SdeModel(const(np.zeros(3)), const(np.zeros((3, 3))))
    state = PropagationState(np.eye(3), 0.01 * np.eye(3), 0.0)
    for total in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="total_time must be positive"):
            propagate(so3, state, model, total)


def test_propagation_config_rejects_bad_dt():
    for dt in (-1e-2, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt must be positive"):
            PropagationConfig(dt=dt)


def test_step_rejected_when_covariance_turns_indefinite(diag3):
    model = SdeModel(linear_abelian_drift(diag3, -100.0 * np.eye(3), np.zeros(3)),
                     const(np.zeros((3, 3))))
    with pytest.raises(StepRejectedError):
        propagate(diag3, PropagationState(np.eye(3), 0.1 * np.eye(3), 0.0),
                  model, 0.1, PropagationConfig(dt=0.01, integrator="euler"))


# -- CSV export ---------------------------------------------------------------------

def test_trajectory_csv_layout(tmp_path, so3):
    model = SdeModel(const(np.array([0.1, 0.0, 0.0])), const(np.zeros((3, 3))))
    traj = propagate(so3, PropagationState(np.eye(3), 0.01 * np.eye(3), 0.0),
                     model, 0.1, PropagationConfig(dt=0.05))
    out = tmp_path / "traj.csv"
    export_trajectory_csv(traj, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("t," + ",".join(f"mu{i}{j}" for i in range(3) for j in range(3))
                        + "," + ",".join(f"sigma{i}{j}" for i in range(3)
                                         for j in range(i, 3)))
    assert len(lines) == len(traj) + 1
    export_trajectory_csv(traj, tmp_path / "traj2.csv")
    assert (tmp_path / "traj2.csv").read_bytes() == out.read_bytes()
