import numpy as np
import pytest

from liefilter.distribution import (
    ConcentratedGaussian,
    empirical_covariance,
    empirical_group_mean,
    expectation_nodes,
    project_psd,
    sample,
    symmetrize,
)
from liefilter.errors import StepRejectedError
from liefilter.groups import MatrixLieGroup
from liefilter.propagation import (
    PropagationConfig,
    PropagationState,
    export_trajectory_csv,
    moment_velocities,
    propagate,
)
from liefilter.sde import (
    ITO,
    STRATONOVICH,
    PathConfig,
    SdeModel,
    sample_nonparametric_path,
    stratonovich_to_ito,
)

from conftest import assert_bitwise
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
    v, dcov = moment_velocities(so3, state, model)
    assert np.abs(v).max() < 1e-15
    assert np.abs(dcov).max() < 1e-15


def test_mean_velocity_at_zero_cov_is_plain_drift(so3):
    model = SdeModel(nonlinear_so3_drift, const(np.zeros((3, 3))))
    mu = so3.exp(np.array([0.3, -0.2, 0.1]))
    state = PropagationState(mu, np.zeros((3, 3)), 0.0)
    v, _ = moment_velocities(so3, state, model)
    assert np.abs(v - nonlinear_so3_drift(mu, 0.0)).max() < 1e-14


def test_covariance_velocity_at_zero_cov_is_diffusion_square(so3):
    big_h = np.array([[0.2, 0.05, 0.0], [0.0, 0.1, 0.02], [0.01, 0.0, 0.15]])
    model = SdeModel(const(np.zeros(3)), const(big_h))
    state = PropagationState(np.eye(3), np.zeros((3, 3)), 0.0)
    _, dcov = moment_velocities(so3, state, model)
    assert np.abs(dcov - big_h @ big_h.T).max() < 1e-14


def test_abelian_velocities_match_linear_moment_equations(diag3):
    A = np.array([[-0.5, 0.2, 0.0], [0.0, -0.8, 0.1], [0.0, 0.0, -0.3]])
    b = np.array([0.1, -0.2, 0.05])
    big_h = np.diag([0.2, 0.3, 0.1])
    model = SdeModel(linear_abelian_drift(diag3, A, b), const(big_h))
    q = np.array([0.4, -0.1, 0.6])
    cov = np.array([[0.05, 0.01, 0.0], [0.01, 0.04, 0.005], [0.0, 0.005, 0.06]])
    state = PropagationState(diag3.exp(q), cov, 0.0)
    v, dcov = moment_velocities(diag3, state, model)
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
    nodes = expectation_nodes(state.cov)
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
    v, dcov = moment_velocities(group, state, model)
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


# -- exact moment oracles ---------------------------------------------------------

def test_heisenberg_covariance_matches_levy_area_law():
    # H3 with [e1, e2] = e3 on the generic path: g exp(sigma dW) from I has
    # log-coordinate covariance diag(s, s, s + s^2 / 4), s = sigma^2 t; the
    # last term is the variance of the Levy area.
    basis = np.zeros((3, 3, 3))
    basis[0, 0, 1] = basis[1, 1, 2] = basis[2, 0, 2] = 1.0
    h3 = MatrixLieGroup(basis, name="H3")
    for sigma, total in ((0.5, 0.5), (1.0, 2.0)):        # sigma^2 t = 0.125, 2
        s = sigma**2 * total
        model = SdeModel(const(np.zeros(3)), const(sigma * np.eye(3)))
        final = propagate(h3, PropagationState(np.eye(3), np.zeros((3, 3)), 0.0),
                          model, total, PropagationConfig(dt=1e-2))[-1]
        want = np.diag([s, s, s + s**2 / 4])
        assert np.linalg.norm(final.cov - want) / np.linalg.norm(want) <= 1e-12
        assert np.abs(final.mean - np.eye(3)).max() <= 1e-15


def taylor_expm(mat):
    """Matrix exponential by scaling to norm 0.25, 20 Taylor terms and squaring."""
    squarings = max(0, int(np.ceil(np.log2(max(np.abs(mat).sum(axis=1).max(), 1e-300) / 0.25))))
    scaled = mat / 2.0**squarings
    out = term = np.eye(len(mat))
    for k in range(1, 20):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def linear_covariance(A, Q, total):
    """The integral of e^(A u) Q e^(A^T u) over [0, total] from one block
    exponential (Van Loan, IEEE TAC 23, 1978)."""
    n = len(A)
    block = taylor_expm(np.block([[-A, Q], [np.zeros((n, n)), A.T]]) * total)
    return block[n:, n:].T @ block[:n, n:]


@pytest.mark.parametrize("case, twist, shape, mean_tol", [
    ("se3", [0.3, -0.2, 0.5, 1.0, 0.2, -0.4], [1, 1, 1, 2, 2, 2], lambda sigma: 1e-14),
    ("generic_so3", [0.3, -0.2, 0.5], [1, 2, 1.5], lambda sigma: 0.05 * sigma**4)])
def test_constant_twist_covariance_matches_linear_law(request, case, twist, shape, mean_tol):
    # g exp(h dt + H dW) with constant h and H: to first order in the noise the
    # chart process is dx = -ad(h) x dt + H dW, so the covariance is the linear
    # law and propagate's relative error is O(sigma^2), falling 4x per halving.
    # The mean is mu0 exp(hT) up to the closure's O(sigma^4) term, which
    # vanishes on SE(3).  Six runs, about 1.3 s.
    group = request.getfixturevalue(case)
    h = np.array(twist)
    mu0 = group.exp(np.linspace(0.1, 0.6, group.dim))
    want_cov = linear_covariance(-group.ad(h), np.diag(np.square(shape)), 1.0)
    errors = []
    for sigma in (0.1, 0.05, 0.025):
        big_h = sigma * np.diag(shape)
        final = propagate(group, PropagationState(mu0, np.zeros((group.dim, group.dim)), 0.0),
                          SdeModel(const(h), const(big_h)), 1.0, PropagationConfig(dt=0.01))[-1]
        want = sigma**2 * want_cov
        errors.append(np.linalg.norm(final.cov - want) / np.linalg.norm(want))
        assert np.abs(final.mean - mu0 @ group.exp(h)).max() <= mean_tol(sigma)
    assert errors[0] < 5e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.6 < coarse / fine < 4.4


def so3_heat_kernel_angle_variance(s, terms=300, nodes=400):
    """E[theta^2] / 3, the chart variance per axis, of the SO(3) heat kernel
    at s = sigma^2 t: the angle density (1 - cos theta) / pi *
    sum_l (2l + 1) exp(-l(l + 1) s / 2) sin((l + 1/2) theta) / sin(theta / 2)
    integrated by Gauss-Legendre on [0, pi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta, w = np.pi / 2 * (x + 1), np.pi / 2 * w
    ell = np.arange(terms)[:, None]
    series = ((2 * ell + 1) * np.exp(-ell * (ell + 1) * s / 2)
              * np.sin((ell + 0.5) * theta) / np.sin(theta / 2)).sum(axis=0)
    density = (1 - np.cos(theta)) / np.pi * series
    assert abs(w @ density - 1) < 1e-12
    return w @ (density * theta**2) / 3


def test_so3_covariance_matches_heat_kernel(so3):
    # The isotropic Ito injection g exp(sigma dW) from I.  The error left, of
    # order (sigma^2 t)^2, is mostly the degree-3 cubature rule's, not the
    # Gaussian closure's: a degree-5 rule cuts it 21-500x for sigma^2 t below
    # 0.4.  Without the Ito curvature the propagated covariance is the linear
    # law sigma^2 t, far outside the bound.
    for s in (0.0225, 0.09, 0.36):
        model = SdeModel(const(np.zeros(3)), const(np.sqrt(s) * np.eye(3)))
        final = propagate(so3, PropagationState(np.eye(3), np.zeros((3, 3)), 0.0),
                          model, 1.0, PropagationConfig(dt=1e-2))[-1]
        want = so3_heat_kernel_angle_variance(s) * np.eye(3)
        rel = np.linalg.norm(final.cov - want) / np.linalg.norm(want)
        assert rel <= 2.5e-3 * s**2, (s, rel)


# -- state-dependent Stratonovich diffusion ------------------------------------------

def rotating_diffusion(g, t):
    """H(g) = 0.4 diag(w_2, w_3, w_1) with w = R^T v: a diffusion that turns
    with the state, so its Stratonovich and Ito readings differ."""
    w = np.einsum("...ji,j->...i", g, np.array([0.3, -0.5, 0.8]))
    return 0.4 * w[..., [1, 2, 0], None] * np.eye(3)


def test_state_dependent_stratonovich_matches_sampler(so3):
    # 1e4 paths x 100 steps, about 1 s.  The covariance's relative standard
    # error is about 1.4%, and propagation is 1.9% and 1.5e-3 rad off; read
    # as Ito with H frozen at the mean it is 14.6% and 2.8e-2 rad off.
    model = SdeModel(const(np.zeros(3)), rotating_diffusion, STRATONOVICH)
    mu0, cov0 = so3.exp(np.array([0.4, -0.2, 0.3])), 0.01 * np.eye(3)
    state0 = PropagationState(mu0, cov0, 0.0)
    pred = propagate(so3, state0, model, 1.0, PropagationConfig(dt=1e-2))[-1]
    count = 10_000
    starts = sample(so3, ConcentratedGaussian(mu0, cov0), count, seed=1000)
    finals = sample_nonparametric_path(
        so3, model, starts, PathConfig(1.0, 100, seed=2000, path_count=count),
        store_path=False)
    mc_mean = empirical_group_mean(so3, finals, tol=1e-12).mean
    mc_cov = empirical_covariance(so3, finals, mc_mean)
    assert np.linalg.norm(so3.log(mc_mean.T @ pred.mean)) < 0.015
    assert np.linalg.norm(pred.cov - mc_cov) / np.linalg.norm(mc_cov) < 0.06
    converted = propagate(so3, state0, stratonovich_to_ito(so3, model), 1.0,
                          PropagationConfig(dt=1e-2))[-1]
    assert np.abs(converted.mean - pred.mean).max() <= 1e-12
    assert np.abs(converted.cov - pred.cov).max() <= 1e-12


def four_stage_propagate(group, state, model, total_time, cfg):
    """Classical RK4 (or Euler) in the chart at the mean, stage by stage."""
    def velocities(mean, cov, t):
        return moment_velocities(group, PropagationState(mean, cov, t), model)

    def chart_vel(q, body_v):
        return np.linalg.solve(group.right_jacobian(q), body_v)

    steps = max(1, round(total_time / cfg.dt))
    dt = total_time / steps
    mu, cov, t = state.mean.copy(), symmetrize(state.cov), state.t
    traj = [PropagationState(mu.copy(), cov.copy(), t)]
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
        if np.linalg.eigvalsh(cov).min() < 0:
            cov = project_psd(cov)
        t += dt
        traj.append(PropagationState(mu.copy(), cov.copy(), t))
    return traj


@pytest.mark.parametrize("integrator", ["rk4", "euler"])
@pytest.mark.parametrize("case, interpretation", [
    ("so3", ITO), ("so3", STRATONOVICH), ("se3", ITO)])
def test_propagate_matches_four_stage_transcription_bitwise(request, case, interpretation,
                                                            integrator):
    # The stage loop keeps the stage order and the scalings of the written-out
    # scheme, so every iterate matches it bit for bit.
    group = request.getfixturevalue(case)
    dim = group.dim
    rng = np.random.default_rng(71)
    if case == "so3":
        model = SdeModel(nonlinear_so3_drift, rotating_diffusion, interpretation)
    else:
        mix = 0.1 * rng.standard_normal((dim, dim))
        model = SdeModel(se3_drift, lambda g, t: 0.1 * np.eye(dim) + g[..., :1, 3:] * mix)
    root = 0.1 * rng.standard_normal((dim, dim))
    state = PropagationState(group.exp(0.3 * rng.standard_normal(dim)),
                             root @ root.T + 0.01 * np.eye(dim), 0.2)
    cfg = PropagationConfig(dt=0.01, integrator=integrator)
    got = propagate(group, state, model, 0.03, cfg)
    want = four_stage_propagate(group, state, model, 0.03, cfg)
    assert len(got) == len(want) == 4
    for a, b in zip(got, want):
        assert_bitwise(a.mean, b.mean)
        assert_bitwise(a.cov, b.cov)
        assert a.t == b.t


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


def test_step_rejected_when_an_rk4_stage_covariance_turns_indefinite(diag3):
    """A fast rotation of the chart covariance leaves PSD first in a stage,
    cov + c dt s, whose nodes need its square root: that too is a rejected
    step, not the CholeskyFailureError of an indefinite starting covariance."""
    A = 150.0 * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    model = SdeModel(linear_abelian_drift(diag3, A, np.zeros(3)), const(np.zeros((3, 3))))
    with pytest.raises(StepRejectedError, match="stage"):
        propagate(diag3, PropagationState(np.eye(3), np.diag([0.1, 0.01, 0.1]), 0.0),
                  model, 0.1, PropagationConfig(dt=0.01))


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
