import math

import numpy as np
import pytest

from liefilter.distribution import (
    ConcentratedGaussian,
    _check_rejections,
    _corrected_mean,
    empirical_covariance,
    empirical_group_mean,
    expectation_nodes,
    fit_mean_covariance,
    frechet_mean,
    project_psd,
    sample,
    sqrt_psd,
)
from liefilter.errors import (
    CholeskyFailureError,
    NonConcentratedWarning,
    RejectionOverflowError,
)
from liefilter.groups import SO3, _log_coef

from conftest import assert_bitwise


def mc_group_mean(group, samples, start, iters=60, tol=1e-14):
    """Plain fixed-point iteration mu <- mu exp(mean_i log(mu^-1 g_i)),
    written independently of the library."""
    mu = start.copy()
    for _ in range(iters):
        logs = group.log(np.linalg.inv(mu) @ samples)
        r = logs.mean(axis=0)
        mu = mu @ group.exp(r)
        if np.linalg.norm(r) < tol:
            break
    return mu


# -- expectations ---------------------------------------------------------------

def test_expect_identity_recovers_mean():
    m = np.array([0.2, -0.1, 0.05])
    cov = np.diag([0.04, 0.02, 0.03])
    got = expectation_nodes(m, cov).mean(axis=0)
    assert np.abs(got - m).max() < 1e-15


def test_expect_outer_product_recovers_cov():
    cov = np.array([[0.04, 0.01, 0.0], [0.01, 0.05, -0.005], [0.0, -0.005, 0.02]])
    x = expectation_nodes(np.zeros(3), cov)
    got = (x[:, :, None] * x[:, None, :]).mean(axis=0)
    assert np.abs(got - cov).max() < 1e-15


def test_expect_cubature_close_to_monte_carlo(so3):
    cov = 0.01 * np.eye(3)
    cub = so3.left_jacobian_inv(expectation_nodes(np.zeros(3), cov)).mean(axis=0)
    draws = np.random.default_rng(0).standard_normal((10**6, 3)) @ sqrt_psd(cov).T
    mc = so3.left_jacobian_inv(draws).mean(axis=0)
    assert np.abs(cub - mc).max() < 1e-3


def test_project_psd_stack_equals_per_matrix_loop():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((2, 5, 4, 4))
    mats = w + np.swapaxes(w, -1, -2)                   # symmetric, indefinite
    stacked = project_psd(mats)
    assert stacked.shape == mats.shape
    for idx in np.ndindex(2, 5):
        single = project_psd(mats[idx])
        assert np.abs(stacked[idx] - single).max() <= 1e-14
        assert np.linalg.eigvalsh(single).min() >= -1e-12


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(CholeskyFailureError):
        sqrt_psd(np.array([[1.0, 0.0], [0.0, -0.5]]))


def test_sqrt_psd_stack_equals_per_matrix_calls():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((2, 3, 5, 4))
    mats = w @ np.swapaxes(w, -1, -2)                   # PSD, rank 4 of 5
    mats[1, 2] += 1e3 * np.eye(5)
    stacked = sqrt_psd(mats)
    for idx in np.ndindex(2, 3):
        assert_bitwise(stacked[idx], sqrt_psd(mats[idx]))
    assert np.abs(stacked @ stacked - mats).max() < 1e-9
    # each member is checked against its own scale: -1e-2 is far below
    # -1e-8 of the second one, though not of the first member's 1e9
    bad = np.stack([1e9 * np.eye(2), np.diag([1.0, -1e-2])])
    with pytest.raises(CholeskyFailureError):
        sqrt_psd(bad)


# -- sampling -------------------------------------------------------------------

def test_sample_zero_cov_returns_mean(so3):
    mu = so3.exp(np.array([0.4, -0.2, 0.7]))
    draws = sample(so3, ConcentratedGaussian(mu, np.zeros((3, 3))), 10, seed=1)
    assert np.abs(draws - mu).max() < 1e-15


def test_sample_covariance_self_consistency(so3):
    mu = so3.exp(np.array([0.3, 0.2, -0.1]))
    cov = 0.01 * np.eye(3)
    draws = sample(so3, ConcentratedGaussian(mu, cov), 100_000, seed=2)
    logs = so3.log(np.linalg.inv(mu) @ draws)
    emp = np.einsum("ki,kj->ij", logs, logs) / len(logs)
    assert np.abs(emp - cov).max() / np.abs(cov).max() < 0.02


def test_sample_rejection_overflow(so3):
    mu = np.eye(3)
    with pytest.raises(RejectionOverflowError):
        sample(so3, ConcentratedGaussian(mu, 9.0 * np.eye(3)), 2000, seed=3)


def test_rejection_rule_needs_more_than_one_percent_and_more_than_ten():
    _check_rejections(10, 990)                 # 10 of 1,000 draws
    _check_rejections(10, 5)                   # two thirds, but only 10
    with pytest.raises(RejectionOverflowError, match="11/1000 draws"):
        _check_rejections(11, 989)


def test_sample_passes_the_sweep_prior_at_a_small_count(so3):
    """The sweep's prior covariance redraws about 0.65% of its draws; one
    rejection among 51 draws is Poisson noise, not a wide covariance."""
    prior = ConcentratedGaussian(np.eye(3), np.diag([0.5, 1.0, 0.8]))
    draws = sample(so3, prior, 50, seed=198)
    assert draws.shape == (50, 3, 3)
    xs = np.random.default_rng(198).standard_normal((50, 3)) @ sqrt_psd(prior.cov).T
    assert not so3.in_domain(xs).all()                 # one draw was redrawn


def test_sample_deterministic(so3):
    dist = ConcentratedGaussian(np.eye(3), 0.02 * np.eye(3))
    a = sample(so3, dist, 50, seed=9)
    b = sample(so3, dist, 50, seed=9)
    assert np.array_equal(a, b)


# -- empirical means ------------------------------------------------------------

def test_group_mean_of_identical_samples(so3):
    g = so3.exp(np.array([0.5, -0.3, 0.2]))
    res = empirical_group_mean(so3, np.stack([g, g, g]))
    assert res.iterations == 1
    assert np.abs(res.mean - g).max() < 1e-14


def test_group_mean_symmetric_pairs(so3):
    mu = so3.exp(np.array([0.2, 0.7, -0.4]))
    x = np.array([0.3, -0.1, 0.2])
    samples = np.stack([mu @ so3.exp(x), mu @ so3.exp(-x)])
    res = empirical_group_mean(so3, samples)
    assert np.linalg.norm(so3.log(np.linalg.inv(mu) @ res.mean)) < 1e-12


def test_group_mean_recovers_distribution_mean(so3):
    mu = so3.exp(np.array([-0.2, 0.5, 0.3]))
    draws = sample(so3, ConcentratedGaussian(mu, 0.05 * np.eye(3)), 10_000, seed=4)
    res = empirical_group_mean(so3, draws)
    assert res.residual < 1e-12
    assert np.linalg.norm(so3.log(np.linalg.inv(mu) @ res.mean)) < 0.02


def test_group_mean_residual_certificate(so3):
    draws = sample(so3, ConcentratedGaussian(np.eye(3), 0.02 * np.eye(3)), 500, seed=5)
    res = empirical_group_mean(so3, draws, tol=1e-12)
    logs = so3.log(np.linalg.inv(res.mean) @ draws)
    assert np.linalg.norm(logs.mean(axis=0)) < 1e-12


def _so3_logs_about(mu, samples):
    """log(mu^-1 g_i) transcribed from the definitions: tr(mu^-1 g) and
    vee(mu^-1 g - (mu^-1 g)^T) are linear in g's entries, with the weights of
    entry (b, c) read off mu^-1 E_bc; one GEMM, then log_masked's tail."""
    units = np.linalg.inv(mu) @ np.eye(9).reshape(9, 3, 3)          # mu^-1 E_bc
    skew = units - np.swapaxes(units, -1, -2)
    weights = np.stack([np.trace(units, axis1=-2, axis2=-1),
                        skew[:, 2, 1], skew[:, 0, 2], skew[:, 1, 0]])
    parts = weights @ np.ascontiguousarray(samples).reshape(-1, 9).T
    coef, ok = _log_coef(parts[0])
    assert ok.all()
    return (parts[1:] * coef).T


def _group_mean_stacked(group, samples, logs_about, tol=1e-12, max_iter=100):
    """The fitting-formula iteration on the logs ``logs_about(mu, samples)``."""
    mu = samples[0].copy()
    weights = np.full(len(samples), 1.0 / len(samples))
    ad_basis = group.ad(np.eye(group.dim))
    for it in range(1, max_iter + 1):
        logs = logs_about(mu, samples)
        r = weights @ logs
        residual = float(np.linalg.norm(r))
        mu = mu @ group.exp(_corrected_mean(ad_basis, r, (logs.T * weights) @ logs))
        if residual < tol:
            return mu, residual, it
    raise AssertionError("reference did not converge")


def test_group_mean_matches_stacked_products_bitwise(so3, diag3):
    rng = np.random.default_rng(47)
    rot = sample(so3, ConcentratedGaussian(so3.exp(np.array([0.4, -0.2, 0.9])),
                                           0.05 * np.eye(3)), 2_000, seed=8)
    strided = np.swapaxes(np.ascontiguousarray(np.swapaxes(rot, -1, -2)), -1, -2)[::3]
    stacked_log = lambda mu, g: diag3.log(np.linalg.inv(mu) @ g)
    cases = [(so3, rot, _so3_logs_about), (so3, strided, _so3_logs_about),
             (diag3, diag3.exp(rng.standard_normal((500, 3)) * 0.3), stacked_log)]
    for group, samples, logs_about in cases:
        res = empirical_group_mean(group, samples)
        mu, residual, it = _group_mean_stacked(group, samples, logs_about)
        assert_bitwise(res.mean, mu)
        assert res.residual == residual and res.iterations == it


def test_group_mean_fitting_step_reaches_the_plain_fixed_point(so3):
    # The plain step mu <- mu exp(r) needs 7 passes here; the fitting
    # formula's first-order step reaches the same point in 4.
    draws = sample(so3, ConcentratedGaussian(so3.exp(np.array([0.4, -0.2, 0.9])),
                                             0.05 * np.eye(3)), 10_000, seed=3)
    res = empirical_group_mean(so3, draws, tol=1e-12)
    assert res.iterations <= 4 and res.residual < 1e-12
    fixed = mc_group_mean(so3, draws, draws[0], tol=1e-15)
    assert np.linalg.norm(so3.log(np.linalg.inv(fixed) @ res.mean)) <= 1e-15
    logs = so3.log(np.linalg.inv(res.mean) @ draws)
    assert np.linalg.norm(logs.mean(axis=0)) < 1e-12


@pytest.mark.parametrize("mean_fn", [empirical_group_mean, frechet_mean])
def test_iterative_means_reject_degenerate_input(so3, mean_fn):
    draws = sample(so3, ConcentratedGaussian(np.eye(3), 0.02 * np.eye(3)), 20, seed=2)
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        mean_fn(so3, draws, max_iter=0)
    with pytest.raises(ValueError, match="at least one sample"):
        mean_fn(so3, np.empty((0, 3, 3)))


def test_frechet_single_sample(so3):
    g = so3.exp(np.array([0.1, 0.9, -0.5]))
    res = frechet_mean(so3, g[None])
    assert np.abs(res.mean - g).max() < 1e-12


def test_frechet_symmetric_pair_gives_identity(so3):
    x = np.array([0.6, -0.2, 0.3])
    res = frechet_mean(so3, np.stack([so3.exp(x), so3.exp(-x)]))
    assert np.linalg.norm(so3.log(res.mean)) < 1e-9


def test_frechet_equals_group_mean(so3):
    rng = np.random.default_rng(6)
    draws = sample(so3, ConcentratedGaussian(so3.exp(np.array([0.4, 0.1, 0.2])),
                                             0.09 * np.eye(3)), 1000, seed=6)
    gm = empirical_group_mean(so3, draws).mean
    fm = frechet_mean(so3, draws).mean
    assert np.linalg.norm(so3.log(np.linalg.inv(gm) @ fm)) < 1e-6


def test_means_left_invariance(so3):
    draws = sample(so3, ConcentratedGaussian(np.eye(3), 0.04 * np.eye(3)), 200, seed=8)
    h = so3.exp(np.array([1.0, -0.5, 0.4]))
    base = empirical_group_mean(so3, draws)
    shifted = empirical_group_mean(so3, h @ draws)
    assert np.linalg.norm(so3.log(np.linalg.inv(h @ base.mean) @ shifted.mean)) < 1e-11
    cov_base = empirical_covariance(so3, draws, base.mean)
    cov_shift = empirical_covariance(so3, h @ draws, shifted.mean)
    assert np.abs(cov_base - cov_shift).max() < 1e-11


# -- empirical covariance --------------------------------------------------------

def test_covariance_of_constant_samples(so3):
    mu = so3.exp(np.array([0.3, 0.3, 0.3]))
    assert np.abs(empirical_covariance(so3, np.stack([mu] * 4), mu)).max() < 1e-20


def test_covariance_symmetric_pair_exact(so3):
    mu = so3.exp(np.array([-0.1, 0.2, 0.5]))
    x = np.array([0.2, 0.1, -0.3])
    samples = np.stack([mu @ so3.exp(x), mu @ so3.exp(-x)])
    assert np.abs(empirical_covariance(so3, samples, mu) - np.outer(x, x)).max() < 1e-14


def test_covariance_matches_outer_product_einsum(so3):
    # One matrix product over the 1e4 samples is within 1e-15 of the exactly
    # rounded sums; the einsum form it replaces is off by up to 5e-15 itself.
    mu = so3.exp(np.array([0.25, -0.15, 0.1]))
    draws = sample(so3, ConcentratedGaussian(mu, 0.05 * np.eye(3)), 10_000, seed=12)
    logs = so3.log(np.linalg.inv(mu) @ draws)
    exact = np.array([[math.fsum(logs[:, i] * logs[:, j]) for j in range(3)]
                      for i in range(3)]) / len(logs)
    got = empirical_covariance(so3, draws, mu)
    scale = np.abs(exact).max()
    assert np.abs(got - exact).max() <= 1e-15 * scale
    einsum = np.einsum("ki,kj->ij", logs, logs) / len(logs)
    assert np.abs(got - einsum).max() <= 1e-14 * scale


def test_covariance_rejects_empty_stack(so3):
    with pytest.raises(ValueError, match="at least one sample"):
        empirical_covariance(so3, np.empty((0, 3, 3)), np.eye(3))


def test_covariance_consistent_with_fit(so3):
    cov = np.diag([0.02, 0.05, 0.03])
    mu = so3.exp(np.array([0.25, -0.15, 0.1]))
    draws = sample(so3, ConcentratedGaussian(mu, cov), 100_000, seed=10)
    res = empirical_group_mean(so3, draws)
    emp = empirical_covariance(so3, draws, res.mean)
    fitted = fit_mean_covariance(so3, np.zeros(3), cov, mu).cov
    assert np.linalg.norm(emp - fitted) / np.linalg.norm(fitted) < 0.03


# -- mean/covariance fitting -----------------------------------------------------

def test_fit_zero_mean_is_identity_operation(so3):
    cov = 0.01 * np.eye(3)
    mu = so3.exp(np.array([0.2, 0.2, -0.2]))
    out = fit_mean_covariance(so3, np.zeros(3), cov, mu)
    assert np.abs(out.mean - mu).max() < 1e-15
    assert np.abs(out.cov - cov).max() < 1e-15


def test_fit_abelian_exact(diag3):
    m = np.array([0.2, -0.1, 0.3])
    cov = np.diag([0.02, 0.03, 0.01])
    mu = diag3.exp(np.array([1.0, 0.5, -0.3]))
    out = fit_mean_covariance(diag3, m, cov, mu)
    assert np.abs(out.mean - mu @ diag3.exp(m)).max() < 1e-14
    assert np.abs(out.cov - cov).max() < 1e-15


def test_fit_beats_naive_against_mc_ground_truth(so3):
    m = np.array([0.05, 0.0, 0.0])
    cov = 0.01 * np.eye(3)
    mu = so3.exp(np.array([0.3, -0.2, 0.4]))
    rng = np.random.default_rng(42)
    half = rng.standard_normal((500_000, 3))
    xs = m + np.concatenate([half, -half]) @ sqrt_psd(cov).T
    truth = mc_group_mean(so3, mu @ so3.exp(xs), start=mu @ so3.exp(m))
    fitted = fit_mean_covariance(so3, m, cov, mu).mean
    naive = mu @ so3.exp(m)
    err_fit = np.linalg.norm(so3.log(np.linalg.inv(fitted) @ truth))
    err_naive = np.linalg.norm(so3.log(np.linalg.inv(naive) @ truth))
    assert err_fit < 1e-3
    assert err_fit < err_naive


def test_fit_evaluates_the_inverse_jacobian_once():
    group = SO3()
    calls = []

    def counting(x):
        calls.append(np.shape(x))
        return SO3.left_jacobian_inv(group, x)

    group.left_jacobian_inv = counting
    cov = np.diag([0.02, 0.03, 0.01])
    fit_mean_covariance(group, np.array([0.05, -0.02, 0.01]), cov, np.eye(3))
    assert len(calls) == 1


def test_fit_warns_outside_concentrated_regime(so3):
    with pytest.warns(NonConcentratedWarning):
        fit_mean_covariance(so3, np.zeros(3), np.eye(3), np.eye(3))


def test_group_mean_no_convergence(so3):
    draws = sample(so3, ConcentratedGaussian(np.eye(3), 0.05 * np.eye(3)), 64, seed=11)
    from liefilter.errors import NoConvergenceError
    with pytest.raises(NoConvergenceError):
        empirical_group_mean(so3, draws, tol=1e-14, max_iter=1)


def test_frechet_no_convergence(so3):
    draws = sample(so3, ConcentratedGaussian(np.eye(3), 0.05 * np.eye(3)), 64, seed=12)
    from liefilter.errors import NoConvergenceError
    with pytest.raises(NoConvergenceError):
        frechet_mean(so3, draws, tol=1e-16, max_iter=2)
