import warnings

import numpy as np
import pytest

from liefilter.distribution import (
    ConcentratedGaussian,
    fit_mean_covariance,
    project_psd,
    symmetrize,
)
from liefilter.fusion import (
    ObservationModelEuclidean,
    ObservationModelGroup,
    _corrected_mean,
    _costs,
    _kalman_step,
    _linearize,
    _posterior,
    cost_c1,
    cost_c2,
    fuse_euclidean,
    fuse_group,
    gaussian_update_general,
)
from liefilter.experiments import measure_euclidean
from liefilter.groups import DiagonalGroup, lie_derivative_right, lie_derivative_right_second

from conftest import assert_bitwise


def so3_ad_matrices():
    """Hand-built bracket matrices, independent of the library."""
    e = np.zeros((3, 3, 3))
    e[0] = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
    e[1] = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
    e[2] = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    return e


def reference_group_update(P, R, y, modified):
    """Direct transcription of the closed-form full-state update."""
    ad = so3_ad_matrices()
    gain = P @ np.linalg.inv(P + R)
    m = gain @ y
    cov = P - gain @ P
    if not modified:
        return m, cov
    quad = sum(cov[i, j] * ad[i] @ ad[j] for i in range(3) for j in range(3))
    m_prime = (np.eye(3) - quad / 12.0) @ m
    bump = sum(0.5 * cov[i, j] * np.outer(ad[i] @ m_prime, np.eye(3)[j])
               for i in range(3) for j in range(3))
    return m_prime, cov + bump + bump.T


# -- general cubature update -----------------------------------------------------

def test_general_update_uninformative_observation(so3):
    # the R -> infinity limit needs an unbounded observation space; on the
    # compact group itself the observation saturates instead of diverging
    prior = ConcentratedGaussian(so3.exp(np.array([0.2, -0.1, 0.3])),
                                 0.04 * np.eye(3))
    obs = ObservationModelEuclidean(measure_euclidean, 1e6 * np.eye(6))
    z = measure_euclidean(prior.mean @ so3.exp(np.array([0.3, 0.2, -0.1])))
    post = gaussian_update_general(so3, prior, obs, z)
    assert np.abs(post.gain).max() < 1e-6
    assert np.abs(post.m).max() < 1e-5
    assert np.abs(post.cov - prior.cov).max() < 1e-5


def test_general_update_matches_closed_form_for_identity_map(so3):
    P = 0.01 * np.eye(3)
    R = 0.005 * np.eye(3)
    prior = ConcentratedGaussian(so3.exp(np.array([0.4, 0.1, -0.2])), P)
    obs = ObservationModelGroup(so3, R)
    y = np.array([0.08, -0.05, 0.03])
    g_z = prior.mean @ so3.exp(y)
    post = gaussian_update_general(so3, prior, obs, g_z)
    m_ref, _ = reference_group_update(P, R, y, modified=False)
    # agreement up to the dropped higher-order bracket terms
    assert np.abs(post.m - m_ref).max() < 5e-4
    assert np.abs(post.cov - (P - P @ np.linalg.inv(P + R) @ P)).max() < 5e-4


def test_general_update_abelian_linear_is_textbook_kalman(diag3):
    A = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -0.3]])
    P = np.array([[0.05, 0.01, 0.0], [0.01, 0.04, 0.005], [0.0, 0.005, 0.06]])
    R = np.diag([0.02, 0.03])
    q_mu = np.array([0.3, -0.2, 0.5])
    prior = ConcentratedGaussian(diag3.exp(q_mu), P)
    obs = ObservationModelEuclidean(lambda g: diag3.log(g) @ A.T, R)
    z = np.array([0.5, -0.1])
    post = gaussian_update_general(diag3, prior, obs, z)
    S = A @ P @ A.T + R
    K = P @ A.T @ np.linalg.inv(S)
    m_ref = K @ (z - A @ q_mu)
    cov_ref = P - K @ S @ K.T
    assert np.abs(post.m - m_ref).max() < 1e-12
    assert np.abs(post.cov - cov_ref).max() < 1e-12
    assert np.abs(post.gain - K).max() < 1e-12


def test_general_update_rotation_map_leaves_translation_alone(so3, se3):
    """k(g) = R observes only SE(3)'s rotation: under a block-diagonal prior the
    posterior's translation mean and the cross covariance stay 0, the
    translation covariance keeps its prior value and the rotation block is the
    SO(3) update of the rotation prior."""
    P = np.zeros((6, 6))
    P[:3, :3] = [[0.04, 0.01, 0.0], [0.01, 0.05, -0.005], [0.0, -0.005, 0.03]]
    P[3:, 3:] = np.diag([0.2, 0.3, 0.4])
    R = 0.01 * np.eye(3)
    prior = ConcentratedGaussian(se3.exp(np.array([0.2, -0.1, 0.3, 1.0, 2.0, -0.5])), P)
    g_z = prior.mean[:3, :3] @ so3.exp(np.array([0.05, -0.02, 0.04]))
    obs = ObservationModelGroup(so3, R, func=lambda g: g[..., :3, :3])
    post = gaussian_update_general(se3, prior, obs, g_z)
    assert np.all(post.m[3:] == 0)
    assert np.all(post.cov[:3, 3:] == 0) and np.all(post.cov[3:, :3] == 0)
    assert np.abs(post.cov[3:, 3:] - P[3:, 3:]).max() <= 1e-12
    rotation = gaussian_update_general(
        so3, ConcentratedGaussian(prior.mean[:3, :3], P[:3, :3]), ObservationModelGroup(so3, R), g_z)
    assert np.abs(post.m[:3]).max() > 1e-2
    assert np.abs(post.m[:3] - rotation.m).max() <= 1e-12
    assert np.abs(post.cov[:3, :3] - rotation.cov).max() <= 1e-12


def test_general_update_identity_map_is_no_map_bitwise(so3):
    R = 0.005 * np.eye(3)
    prior = ConcentratedGaussian(so3.exp(np.array([0.4, 0.1, -0.2])), 0.01 * np.eye(3))
    g_z = prior.mean @ so3.exp(np.array([0.08, -0.05, 0.03]))
    got = gaussian_update_general(so3, prior, ObservationModelGroup(so3, R, func=lambda g: g), g_z)
    want = gaussian_update_general(so3, prior, ObservationModelGroup(so3, R), g_z)
    for name, value in vars(want).items():
        assert_bitwise(getattr(got, name), value)


# -- the shared Kalman update -------------------------------------------------------

def transcribed_gain(S, C):
    """K = C S^-1, one per leading index, solved on the symmetrized S."""
    return np.swapaxes(np.linalg.solve(symmetrize(S), np.swapaxes(C, -1, -2)), -1, -2)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("model", ["euclidean", "group"])
def test_kalman_step_equals_the_transcribed_update_bitwise(so3, model, stacked):
    """Means (z - k(mu) - bend/2) K^T and covariance project_psd(P - K S K^T),
    K from the symmetrized S and the covariance from S as given, with one R
    or a stack (T, M, M) against observations (T, S, M)."""
    rng = np.random.default_rng(71)
    mu = so3.exp(np.array([0.4, -0.3, 0.2]))
    A = rng.standard_normal((3, 3))
    P = symmetrize(0.02 * A @ A.T + 0.01 * np.eye(3))
    if model == "euclidean":
        linearization, size = _linearize(so3, measure_euclidean, mu, P), 6
    else:
        linearization, size = (0.0, np.eye(3), 0.0), 3
    B = rng.standard_normal((4, size, size))
    R = symmetrize(0.01 * B @ np.swapaxes(B, -1, -2) + 1e-3 * np.eye(size))
    if not stacked:
        R = R[0]
    z = rng.standard_normal(R.shape[:-2] + (5, size))
    k_mu, H, bend = linearization
    S = H @ P @ H.T + R
    K = transcribed_gain(S, P @ H.T)
    K_t = np.swapaxes(K, -1, -2)
    m, cov = _kalman_step(linearization, P, R, z)
    assert_bitwise(m, (z - k_mu - 0.5 * bend) @ K_t)
    assert_bitwise(cov, project_psd(P - K @ S @ K_t))


@pytest.mark.parametrize("model", ["euclidean", "group"])
def test_general_update_equals_the_transcribed_update_bitwise(so3, model):
    """Gain, mean K (innovation - predicted) and covariance project_psd(P - K S K^T)
    from the cubature S and C, K solved on the symmetrized S."""
    mu = so3.exp(np.array([0.4, 0.1, -0.2]))
    P = np.diag([0.03, 0.05, 0.02])
    prior = ConcentratedGaussian(mu, P)
    truth = mu @ so3.exp(np.array([0.1, -0.15, 0.05]))
    if model == "euclidean":
        obs = ObservationModelEuclidean(measure_euclidean, 0.01 * np.eye(6))
        observation = measure_euclidean(truth)
        innovation = observation - measure_euclidean(mu)
    else:
        obs = ObservationModelGroup(so3, 0.02 * np.eye(3))
        observation = truth @ so3.exp(np.array([0.02, 0.01, -0.03]))
        innovation = so3.log(np.linalg.inv(mu) @ observation)
    post = gaussian_update_general(so3, prior, obs, observation)
    K = transcribed_gain(post.innovation_cov, post.cross_cov)
    assert_bitwise(post.gain, K)
    assert_bitwise(post.m, K @ (innovation - post.predicted))
    assert_bitwise(post.cov, project_psd(P - K @ post.innovation_cov @ K.T))


def bracket_matrix(group, x):
    """ad(x) from matrix commutators of the basis: column j is vee([x^, E_j])."""
    X = group.wedge(x)
    return np.stack([group.vee(X @ E - E @ X) for E in group.basis], axis=-1)


@pytest.mark.parametrize("name", ["so3", "se3"])
def test_posterior_covariance_is_the_closed_form_correction(request, name):
    """The corrected covariance is project_psd(C - (ad(m')C + C ad(m')^T)/2),
    for means sharing one C and for a (T, S) stack with one C per index."""
    group = request.getfixturevalue(name)
    dim = group.dim
    rng = np.random.default_rng(83)
    mu = group.exp(0.5 * rng.standard_normal(dim))
    A = rng.standard_normal((3, dim, dim))
    covs = 0.02 * A @ np.swapaxes(A, -1, -2) / dim
    ad_basis = group.ad(np.eye(dim))
    for m, cov in ((0.4 * rng.standard_normal((5, dim)), covs[0]),
                   (0.4 * rng.standard_normal((3, 4, dim)), covs)):
        got = _posterior(group, mu, m, cov, modified=True).cov
        m_prime = _corrected_mean(ad_basis, m, cov)
        assert got.shape == m.shape + (dim,)
        for idx in np.ndindex(*m.shape[:-1]):
            C = cov if cov.ndim == 2 else cov[idx[0]]
            ad_m = bracket_matrix(group, m_prime[idx])
            want = project_psd(C - 0.5 * (ad_m @ C + C @ ad_m.T))
            assert np.abs(got[idx] - want).max() <= 1e-15


# -- chart-to-group correction ----------------------------------------------------

def test_correct_to_group_zero_mean_is_identity(so3):
    mu = so3.exp(np.array([0.3, 0.3, -0.3]))
    cov = 0.02 * np.eye(3)
    prior = ConcentratedGaussian(mu, 0.04 * np.eye(3))
    obs = ObservationModelGroup(so3, 0.04 * np.eye(3))
    post = gaussian_update_general(so3, prior, obs, mu)
    out = fit_mean_covariance(so3, post.m, post.cov, mu)
    assert np.linalg.norm(so3.log(np.linalg.inv(mu) @ out.mean)) < 1e-9
    assert np.abs(out.cov - post.cov).max() < 1e-9


def test_correct_to_group_abelian(diag3):
    from liefilter.fusion import PosteriorCoordinates
    m = np.array([0.2, -0.1, 0.05])
    cov = np.diag([0.03, 0.02, 0.04])
    post = PosteriorCoordinates(m, cov, np.zeros(3), np.eye(3), np.eye(3), np.eye(3))
    mu = diag3.exp(np.array([0.5, 0.5, 0.5]))
    out = fit_mean_covariance(diag3, post.m, post.cov, mu)
    assert np.abs(out.mean - mu @ diag3.exp(m)).max() < 1e-14
    assert np.abs(out.cov - cov).max() < 1e-15


def test_correct_to_group_matches_bracket_closed_form(so3):
    from liefilter.fusion import PosteriorCoordinates
    m = np.array([0.1, -0.05, 0.02])
    cov = 0.02 * np.eye(3)
    post = PosteriorCoordinates(m, cov, np.zeros(3), np.eye(3), np.eye(3), np.eye(3))
    mu = np.eye(3)
    out = fit_mean_covariance(so3, post.m, post.cov, mu)
    ad = so3_ad_matrices()
    quad = sum(cov[i, j] * ad[i] @ ad[j] for i in range(3) for j in range(3))
    m_prime_ref = (np.eye(3) - quad / 12.0) @ m
    got = so3.log(out.mean)
    # the bracket form truncates the averaged inverse Jacobian at second
    # order; the residual sigma^4 (1/36 + 1/120) |m| is 1.45e-6 here
    assert np.abs(got - m_prime_ref).max() < 2e-6
    # the correction moves the mean by a measurable amount
    assert np.linalg.norm(got - m) > 1e-4


# -- closed-form vector-observation fusion ------------------------------------------

def test_fuse_euclidean_zero_innovation_tiny_prior(so3):
    mu = so3.exp(np.array([0.5, -0.2, 0.1]))
    prior = ConcentratedGaussian(mu, 1e-12 * np.eye(3))
    obs = ObservationModelEuclidean(measure_euclidean, 0.01 * np.eye(6))
    out = fuse_euclidean(so3, prior, obs, measure_euclidean(mu))
    assert np.linalg.norm(so3.log(np.linalg.inv(mu) @ out.mean)) < 1e-9


def test_fuse_euclidean_abelian_linear_is_kalman(diag3):
    A = np.array([[1.0, -0.4, 0.2], [0.3, 1.0, 0.0]])
    P = np.diag([0.05, 0.04, 0.06])
    R = np.diag([0.02, 0.01])
    q_mu = np.array([0.1, 0.2, -0.1])
    prior = ConcentratedGaussian(diag3.exp(q_mu), P)
    obs = ObservationModelEuclidean(lambda g: diag3.log(g) @ A.T, R)
    z = np.array([0.4, 0.0])
    out = fuse_euclidean(diag3, prior, obs, z, modified=True)
    S = A @ P @ A.T + R
    K = P @ A.T @ np.linalg.inv(S)
    m_ref = K @ (z - A @ q_mu)
    cov_ref = P - K @ S @ K.T
    assert np.abs(diag3.log(out.mean) - (q_mu + m_ref)).max() < 1e-6
    assert np.abs(out.cov - cov_ref).max() < 1e-6


def test_fuse_euclidean_consistent_with_general_path(so3):
    mu = so3.exp(np.array([np.pi / 3, np.pi / 4, np.pi / 6]))
    R = 0.01 * np.diag([0.3, 0.3, 0.3, 0.1, 0.1, 0.1])
    obs = ObservationModelEuclidean(measure_euclidean, R)
    truth = mu @ so3.exp(np.array([0.15, -0.1, 0.05]))
    z = measure_euclidean(truth)

    def gap(scale):
        prior = ConcentratedGaussian(mu, scale * np.eye(3))
        closed = fuse_euclidean(so3, prior, obs, z, modified=True)
        post = gaussian_update_general(so3, prior, obs, z)
        general = fit_mean_covariance(so3, post.m, post.cov, mu)
        return (np.linalg.norm(so3.log(np.linalg.inv(general.mean) @ closed.mean))
                + np.linalg.norm(general.cov - closed.cov))

    g4, g2 = gap(0.04), gap(0.02)
    assert g4 < 5e-3
    assert 2.0 < g4 / g2 < 8.0


# -- closed-form full-state fusion ----------------------------------------------------

def test_fuse_group_zero_innovation(so3):
    P = np.diag([0.05, 0.03, 0.04])
    R = 0.02 * np.eye(3)
    mu = so3.exp(np.array([0.2, 0.6, -0.1]))
    prior = ConcentratedGaussian(mu, P)
    out = fuse_group(so3, prior, ObservationModelGroup(so3, R), mu)
    assert np.linalg.norm(so3.log(np.linalg.inv(mu) @ out.mean)) < 1e-12
    cov_ref = P - P @ np.linalg.inv(P + R) @ P
    assert np.abs(out.cov - cov_ref).max() < 1e-12


def test_fuse_group_perfect_observation_limit(so3):
    P = 0.04 * np.eye(3)
    mu = so3.exp(np.array([0.1, -0.4, 0.2]))
    prior = ConcentratedGaussian(mu, P)
    y = np.array([0.2, 0.1, -0.3])
    g_z = mu @ so3.exp(y)
    out = fuse_group(so3, prior, ObservationModelGroup(so3, np.zeros((3, 3))), g_z)
    assert np.linalg.norm(so3.log(np.linalg.inv(g_z) @ out.mean)) < 1e-12
    assert np.abs(out.cov).max() < 1e-12


def test_fuse_group_matches_reference_transcription(so3):
    P = 0.09 * np.eye(3)
    R = 0.09 * np.eye(3)
    mu = so3.exp(np.array([0.3, 0.2, 0.1]))
    prior = ConcentratedGaussian(mu, P)
    y = np.array([0.3, 0.0, 0.0])
    g_z = mu @ so3.exp(y)
    plain = fuse_group(so3, prior, ObservationModelGroup(so3, R), g_z,
                       modified=False)
    assert np.abs(so3.log(np.linalg.inv(mu) @ plain.mean)
                  - np.array([0.15, 0.0, 0.0])).max() < 1e-12
    m_ref, cov_ref = reference_group_update(P, R, y, modified=True)
    modified = fuse_group(so3, prior, ObservationModelGroup(so3, R), g_z)
    assert np.abs(so3.log(np.linalg.inv(mu) @ modified.mean) - m_ref).max() < 1e-10
    assert np.abs(modified.cov - cov_ref).max() < 1e-12


def test_fuse_group_left_equivariance(so3):
    P = np.diag([0.06, 0.02, 0.05])
    R = np.diag([0.01, 0.04, 0.02])
    mu = so3.exp(np.array([0.4, -0.1, 0.3]))
    g_z = mu @ so3.exp(np.array([0.25, 0.1, -0.2]))
    h = so3.exp(np.array([-0.7, 0.9, 0.2]))
    obs = ObservationModelGroup(so3, R)
    base = fuse_group(so3, ConcentratedGaussian(mu, P), obs, g_z)
    moved = fuse_group(so3, ConcentratedGaussian(h @ mu, P), obs, h @ g_z)
    assert np.abs(moved.cov - base.cov).max() < 1e-13
    assert np.linalg.norm(so3.log(np.linalg.inv(h @ base.mean) @ moved.mean)) < 1e-12


def test_fuse_group_covariance_monotone(so3):
    # eigenvalue monotonicity holds in the concentrated regime the update
    # assumes; the correction bump is trace-free, so total uncertainty can
    # never inflate even for much larger innovations
    rng = np.random.default_rng(21)
    for _ in range(200):
        P = np.diag(rng.uniform(0.02, 0.1, 3))
        w = rng.standard_normal((3, 3))
        R = 0.02 * (w @ w.T) + 0.02 * np.eye(3)
        mu = so3.exp(0.3 * rng.standard_normal(3))
        obs = ObservationModelGroup(so3, R)
        y = rng.uniform(-0.3, 0.3, 3)
        out = fuse_group(so3, ConcentratedGaussian(mu, P), obs, mu @ so3.exp(y))
        slack = P + 1e-10 * np.eye(3) - out.cov
        assert np.linalg.eigvalsh(slack).min() >= -1e-10
        y_big = rng.uniform(-1.5, 1.5, 3)
        big = fuse_group(so3, ConcentratedGaussian(mu, P), obs, mu @ so3.exp(y_big))
        assert np.trace(big.cov) <= np.trace(P) + 1e-10


def test_fuse_group_rejects_an_observation_map(so3):
    """fuse_group observes the state itself: a map such as the transpose
    would otherwise be read as the identity."""
    prior = ConcentratedGaussian(np.eye(3), 0.1 * np.eye(3))
    obs = ObservationModelGroup(so3, 0.01 * np.eye(3), func=lambda g: np.swapaxes(g, -1, -2))
    with pytest.raises(ValueError, match="gaussian_update_general"):
        fuse_group(so3, prior, obs, so3.exp(np.array([0.1, 0.0, 0.0])))


def test_fuse_group_rejects_an_observation_on_another_group(so3, diag3, generic_so3):
    """fuse_group observes the state's own group: an observation model on
    another basis would otherwise be read as one on the state's group."""
    prior = ConcentratedGaussian(np.eye(3), 0.1 * np.eye(3))
    g_z = so3.exp(np.array([0.1, 0.0, 0.0]))
    for other in (diag3, DiagonalGroup(2)):
        obs = ObservationModelGroup(other, 0.01 * np.eye(other.dim))
        with pytest.raises(ValueError, match="gaussian_update_general"):
            fuse_group(so3, prior, obs, g_z)
    same = fuse_group(so3, prior, ObservationModelGroup(generic_so3, 0.01 * np.eye(3)), g_z)
    own = fuse_group(so3, prior, ObservationModelGroup(so3, 0.01 * np.eye(3)), g_z)
    assert_bitwise(same.mean, own.mean)
    assert_bitwise(same.cov, own.cov)


def test_fuse_group_consistent_with_general_path(so3):
    # R comparable to the prior keeps the posterior covariance tracking the
    # prior scale, so the dropped-term gap shows its quadratic order
    mu = so3.exp(np.array([0.2, -0.3, 0.5]))
    R = 0.04 * np.eye(3)
    obs = ObservationModelGroup(so3, R)
    y = np.array([0.1, 0.05, -0.08])

    def gap(scale):
        prior = ConcentratedGaussian(mu, scale * np.eye(3))
        g_z = mu @ so3.exp(y)
        closed = fuse_group(so3, prior, obs, g_z)
        post = gaussian_update_general(so3, prior, obs, g_z)
        general = fit_mean_covariance(so3, post.m, post.cov, mu)
        return (np.linalg.norm(so3.log(np.linalg.inv(general.mean) @ closed.mean))
                + np.linalg.norm(general.cov - closed.cov))

    g4, g2 = gap(0.04), gap(0.02)
    assert 2.5 < g4 / g2 < 6.0


# -- evaluation costs ------------------------------------------------------------------

def test_costs_zero_for_perfect_estimates(so3):
    rng = np.random.default_rng(33)
    truths = so3.exp(0.5 * rng.standard_normal((5, 3)))
    assert cost_c1(so3, truths, truths) < 1e-28
    assert cost_c2(so3, truths, truths) < 1e-28


def test_costs_distinguish_cancellation(so3):
    mu = so3.exp(np.array([0.2, 0.1, 0.3]))
    x = np.array([0.2, -0.1, 0.15])
    truths = np.stack([mu, mu])
    estimates = np.stack([mu @ so3.exp(x), mu @ so3.exp(-x)])
    assert cost_c1(so3, truths, estimates) < 1e-28
    assert abs(cost_c2(so3, truths, estimates) - x @ x) < 1e-15


def test_costs_match_brute_force(so3):
    rng = np.random.default_rng(35)
    truths = so3.exp(0.4 * rng.standard_normal((3, 3)))
    estimates = so3.exp(0.4 * rng.standard_normal((3, 3)))
    logs = [so3.log(np.linalg.inv(truths[i]) @ estimates[i]) for i in range(3)]
    c1_ref = float(np.linalg.norm(sum(logs) / 3.0) ** 2)
    c2_ref = float(sum(np.dot(l, l) for l in logs) / 3.0)
    assert abs(cost_c1(so3, truths, estimates) - c1_ref) < 1e-15
    assert abs(cost_c2(so3, truths, estimates) - c2_ref) < 1e-15


def test_costs_equal_the_per_pair_formulas_bitwise(so3):
    """cost_c1 and cost_c2 score through _costs, bit for bit as the two
    formulas written out on the chart errors."""
    rng = np.random.default_rng(36)
    for count in (1, 2, 7, 1000):
        truths = so3.exp(0.5 * rng.standard_normal((count, 3)))
        estimates = so3.exp(0.5 * rng.standard_normal((count, 3)))
        logs = so3.log(np.linalg.inv(truths) @ estimates)
        assert cost_c1(so3, truths, estimates) == float(np.linalg.norm(logs.mean(axis=0)) ** 2)
        assert cost_c2(so3, truths, estimates) == float((logs * logs).sum(axis=-1).mean())


def test_masked_costs_equal_unmasked_calls_on_kept_samples_bitwise():
    """A (2, T, S, 3) stack under a (T, S) mask: every row scores as an
    unmasked call on its kept samples alone, and a row that kept none is
    NaN without a RuntimeWarning from a mean over no samples."""
    rng = np.random.default_rng(37)
    errors = rng.standard_normal((2, 4, 200, 3))
    ok = rng.random((4, 200)) > 0.1
    ok[1], ok[3] = True, False                        # row 1 loses none, row 3 all
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        c1, c2 = _costs(errors, ok)
    assert c1.shape == c2.shape == (2, 4)
    for k in range(2):
        for j in range(3):
            one = _costs(errors[k, j, ok[j]])
            assert (c1[k, j], c2[k, j]) == (one[0], one[1])
    assert np.isnan(c1[:, 3]).all() and np.isnan(c2[:, 3]).all()


def test_singular_innovation_raises(so3):
    from liefilter.errors import InnovationSingularError
    # duplicated observation rows with zero noise make S rank deficient
    v = np.array([0.0, 0.0, -9.82])

    def doubled(g):                     # broadcasts over stacked elements, as required
        w = np.einsum("...ji,j->...i", g, v)
        return np.concatenate([w, w], axis=-1)

    obs = ObservationModelEuclidean(doubled, np.zeros((6, 6)))
    prior = ConcentratedGaussian(np.eye(3), 0.05 * np.eye(3))
    with np.testing.assert_raises(InnovationSingularError):
        fuse_euclidean(so3, prior, obs, np.zeros(6))
    # the joint-cubature update ends in the same Kalman update and guard
    with np.testing.assert_raises(InnovationSingularError):
        gaussian_update_general(so3, prior, obs, np.zeros(6))
    # the full-state update is the same Kalman step with H = I, so S = P + R
    # meets the same guard: singular, and ill-conditioned but invertible
    g_z = so3.exp(np.array([0.1, -0.2, 0.05]))
    for prior_cov in (np.zeros((3, 3)), np.diag([1e-14, 1.0, 1.0])):
        with np.testing.assert_raises(InnovationSingularError):
            fuse_group(so3, ConcentratedGaussian(np.eye(3), prior_cov),
                       ObservationModelGroup(so3, np.zeros((3, 3))), g_z)


def test_costs_increase_when_estimates_perturbed(so3):
    rng = np.random.default_rng(37)
    mu = so3.exp(np.array([0.3, 0.2, -0.4]))
    prior = ConcentratedGaussian(mu, np.diag([0.3, 0.5, 0.4]))
    obs = ObservationModelGroup(so3, 0.05 * np.eye(3))
    truths, estimates = [], []
    for _ in range(200):
        v = 0.6 * rng.standard_normal(3)
        truth = mu @ so3.exp(v)
        g_z = truth @ so3.exp(0.2 * rng.standard_normal(3))
        truths.append(truth)
        estimates.append(fuse_group(so3, prior, obs, g_z).mean)
    truths, estimates = np.stack(truths), np.stack(estimates)
    bump = so3.exp(np.array([0.0, 0.3, 0.0]))
    assert cost_c2(so3, truths, estimates) < cost_c2(so3, truths, estimates @ bump)
    assert cost_c1(so3, truths, estimates) < cost_c1(so3, truths, estimates @ bump)


# -- batched observations ------------------------------------------------------------

@pytest.mark.parametrize("batch", [(12,), (2, 5)])
@pytest.mark.parametrize("modified", [True, False])
@pytest.mark.parametrize("model", ["euclidean", "group"])
def test_fuse_batch_matches_per_observation_calls(so3, model, modified, batch):
    rng = np.random.default_rng(5)
    mu = so3.exp(np.array([0.4, -0.3, 0.2]))
    prior = ConcentratedGaussian(mu, np.diag([0.05, 0.08, 0.03]))
    truths = mu @ so3.exp(0.3 * rng.standard_normal(batch + (3,)))
    if model == "euclidean":
        obs = ObservationModelEuclidean(measure_euclidean, 0.01 * np.eye(6))
        z = measure_euclidean(truths) + 0.1 * rng.standard_normal(batch + (6,))
        fuse = fuse_euclidean
    else:
        obs = ObservationModelGroup(so3, 0.02 * np.eye(3))
        z = truths @ so3.exp(0.1 * rng.standard_normal(batch + (3,)))
        fuse = fuse_group
    post = fuse(so3, prior, obs, z, modified=modified)
    assert post.mean.shape == batch + (3, 3)
    assert post.cov.shape == batch + (3, 3)
    for idx in np.ndindex(*batch):
        single = fuse(so3, prior, obs, z[idx], modified=modified)
        assert np.abs(post.mean[idx] - single.mean).max() <= 1e-14
        assert np.abs(post.cov[idx] - single.cov).max() <= 1e-14


@pytest.mark.parametrize("modified", [True, False])
@pytest.mark.parametrize("model", ["euclidean", "group"])
def test_fuse_stacked_noise_matches_per_index_calls_bitwise(so3, model, modified):
    """A noise covariance stack (T, M, M) against observations (T, S, ...)
    gives, bit for bit, one call per leading index with its own noise."""
    rng = np.random.default_rng(61)
    mu = so3.exp(np.array([0.4, -0.3, 0.2]))
    prior = ConcentratedGaussian(mu, np.diag([0.05, 0.08, 0.03]))
    scales = np.array([1e-3, 1e-2, 1e-1, 1.0])[:, None, None]
    truths = mu @ so3.exp(0.3 * rng.standard_normal((4, 5, 3)))
    if model == "euclidean":
        make = lambda noise: ObservationModelEuclidean(measure_euclidean, noise)
        noise = scales * np.eye(6)
        z = measure_euclidean(truths) + 0.1 * rng.standard_normal((4, 5, 6))
        fuse = fuse_euclidean
    else:
        make = lambda noise: ObservationModelGroup(so3, noise)
        noise = scales * np.eye(3)
        z = truths @ so3.exp(0.1 * rng.standard_normal((4, 5, 3)))
        fuse = fuse_group
    post = fuse(so3, prior, make(noise), z, modified=modified)
    assert post.mean.shape == (4, 5, 3, 3) and post.cov.shape == (4, 5, 3, 3)
    for t in range(len(scales)):
        per_index = fuse(so3, prior, make(noise[t]), z[t], modified=modified)
        assert_bitwise(post.mean[t], per_index.mean)
        assert_bitwise(post.cov[t], per_index.cov)
        single = fuse(so3, prior, make(noise[t]), z[t, 0], modified=modified)
        assert single.mean.shape == (3, 3) and single.cov.shape == (3, 3)


def test_singular_innovation_in_a_stack_names_its_index(so3):
    from liefilter.errors import InnovationSingularError
    v = np.array([0.0, 0.0, -9.82])

    def doubled(g):
        w = np.einsum("...ji,j->...i", g, v)
        return np.concatenate([w, w], axis=-1)

    noise = np.stack([np.eye(6), np.eye(6), np.zeros((6, 6))])
    obs = ObservationModelEuclidean(doubled, noise)
    prior = ConcentratedGaussian(np.eye(3), 0.05 * np.eye(3))
    with pytest.raises(InnovationSingularError, match=r"at stack index \(2,\)"):
        fuse_euclidean(so3, prior, obs, np.zeros((3, 1, 6)))
    with pytest.raises(InnovationSingularError) as single:
        fuse_euclidean(so3, prior, ObservationModelEuclidean(doubled, noise[2]), np.zeros(6))
    assert "stack index" not in str(single.value)
    fuse_euclidean(so3, prior, ObservationModelEuclidean(doubled, noise[:2]),
                   np.zeros((2, 1, 6)))


# -- linearization -------------------------------------------------------------------

def per_pair_linearization(group, func, mu, P):
    """The linearization with one slope stencil call per direction i and one
    curvature stencil call per (i, j), summed in (i, j) order."""
    dim = group.dim
    slopes = np.stack([lie_derivative_right(group, func, mu, i)
                       for i in range(dim)], axis=1)
    bend = sum(P[i, j] * lie_derivative_right_second(group, func, mu, i, j)
               for i in range(dim) for j in range(dim))
    return np.asarray(func(mu), float), slopes, bend


def measure_se3(pose):
    """Body-frame gravity direction and world position of SE(3) poses."""
    down = np.einsum("...ji,j->...i", pose[..., :3, :3], np.array([0.0, 0.0, -1.0]))
    return np.concatenate([down, pose[..., :3, 3]], axis=-1)


@pytest.mark.parametrize("name", ["so3", "se3"])
def test_linearize_matches_per_pair_stencils_bitwise(request, name):
    group = request.getfixturevalue(name)
    func = measure_euclidean if name == "so3" else measure_se3
    rng = np.random.default_rng(53)
    mu = group.exp(0.8 * rng.standard_normal(group.dim))
    A = rng.standard_normal((group.dim, group.dim))
    P = A @ A.T / group.dim
    calls = []

    def counted(g):
        calls.append(np.shape(g))
        return func(g)

    got = _linearize(group, counted, mu, P)
    dim, size = group.dim, group.mat_size
    assert calls == ([(size, size)] + [(dim, size, size)] * 2
                     + [(dim * dim, size, size)] * 4)
    for a, b in zip(got, per_pair_linearization(group, func, mu, P)):
        assert_bitwise(a, b)


def test_observation_map_that_does_not_broadcast_raises(so3):
    # Maps written for one element at a time: g.T reverses every axis of a
    # stack, and g[0] picks its first element instead of the first row.
    v = np.array([0.0, 0.0, -9.82])
    prior = ConcentratedGaussian(so3.exp(np.array([0.1, -0.2, 0.3])), 0.05 * np.eye(3))
    transposed = ObservationModelEuclidean(lambda g: g.T @ v, 0.1 * np.eye(3))
    with pytest.raises(ValueError):
        fuse_euclidean(so3, prior, transposed, np.zeros(3))
    first_row = ObservationModelEuclidean(lambda g: g[0], 0.1 * np.eye(3))
    with pytest.raises(ValueError, match="must broadcast over stacked elements"):
        fuse_euclidean(so3, prior, first_row, np.zeros(3))
