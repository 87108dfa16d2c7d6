"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS line (visible under ``pytest -s``) including its
runtime, and enforces the stated runtime budget.
"""

import time
import warnings

import numpy as np
import pytest

from liefilter.distribution import (
    ConcentratedGaussian,
    empirical_covariance,
    empirical_group_mean,
    fit_mean_covariance,
    frechet_mean,
    sample,
    sqrt_psd,
)
from liefilter.errors import NonConcentratedWarning
from liefilter.experiments import (
    EUCLIDEAN_NOISE_SHAPE,
    ExperimentConfig,
    default_tau_grid,
    emit_csv,
    measure_euclidean,
    run_sweep,
)
from liefilter.fusion import (
    ObservationModelEuclidean,
    ObservationModelGroup,
    fuse_euclidean,
    fuse_group,
    gaussian_update_general,
)
from liefilter.groups import SO3
from liefilter.propagation import PropagationConfig, PropagationState, propagate
from liefilter.sde import (
    STRATONOVICH,
    PathConfig,
    SdeModel,
    ito_injection_to_parametric,
    sample_nonparametric_path,
    sample_parametric_path,
    stratonovich_injection_to_parametric,
    stratonovich_to_ito,
)

from conftest import random_ball
from test_groups import fd_jacobian
from test_sde import const

SO3_GROUP = SO3()


class budget:
    """Context manager asserting a runtime budget and printing a PASS line."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.label}: PASS ({elapsed:.1f}s, "
                  f"budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, \
                f"{self.label} exceeded runtime budget: {elapsed:.1f}s"
        else:
            print(f"\nACCEPTANCE {self.label}: FAIL ({elapsed:.1f}s)")
        return False


def test_acceptance_1_jacobian_correctness():
    so3 = SO3_GROUP
    rng = np.random.default_rng(100)
    with budget("1 jacobian-correctness", 5.0):
        xs = random_ball(rng, np.pi - 0.2, count=100)
        for x in xs:
            fd_l = fd_jacobian(so3, x, "left")
            fd_r = fd_jacobian(so3, x, "right")
            scale = np.abs(fd_l).max()
            assert np.abs(so3.left_jacobian(x) - fd_l).max() / scale < 1e-6
            assert np.abs(so3.right_jacobian(x) - fd_r).max() / scale < 1e-6
            assert np.abs(so3.left_jacobian_inv(x)
                          - np.linalg.inv(fd_l)).max() < 1e-6
            assert np.abs(so3.right_jacobian_inv(x)
                          - np.linalg.inv(fd_r)).max() < 1e-6
        for x in xs[:25]:
            for k in range(3):
                e = np.zeros(3)
                e[k] = 1e-6
                fd = (so3.right_jacobian_inv(x + e)
                      - so3.right_jacobian_inv(x - e)) / 2e-6
                an = so3.right_jacobian_inv_partials(x)[1][k]
                assert np.abs(an - fd).max() / max(np.abs(an).max(), 1.0) < 1e-6


def test_acceptance_2_mean_coincidence():
    so3 = SO3_GROUP
    rng = np.random.default_rng(200)
    with budget("2 frechet-vs-group-mean", 10.0):
        for trial in range(20):
            count = int(rng.integers(50, 501))
            scale = rng.uniform(0.05, 0.3)
            mu = so3.exp(random_ball(rng, 2.0)[0])
            dist = ConcentratedGaussian(mu, scale * np.eye(3))
            draws = sample(so3, dist, count, seed=2000 + trial)
            gm = empirical_group_mean(so3, draws).mean
            fm = frechet_mean(so3, draws).mean
            gap = np.linalg.norm(so3.log(np.linalg.inv(gm) @ fm))
            assert gap < 1e-6


def test_acceptance_3_sampler_equivalence():
    so3 = SO3_GROUP
    h = np.array([0.3, -0.2, 0.1])
    big_h = np.array([[0.2, 0.05, 0.0], [0.0, 0.18, 0.04], [0.02, 0.0, 0.15]])
    mu = so3.exp(np.array([0.4, 0.2, -0.3]))
    cfg = PathConfig(total_time=0.5, steps=500, seed=300, path_count=10_000)

    def stats(logs):
        return logs.mean(axis=0), np.cov(logs.T)

    def check(logs_a, logs_b):
        mean_a, cov_a = stats(logs_a)
        mean_b, cov_b = stats(logs_b)
        se = logs_a.std(axis=0) / np.sqrt(cfg.path_count)
        assert np.all(np.abs(mean_a - mean_b) < 3 * se)
        assert np.linalg.norm(cov_a - cov_b) / np.linalg.norm(cov_a) < 0.05

    with budget("3 sampler-equivalence", 60.0):
        ito_model = SdeModel(const(h), const(big_h))
        finals = sample_nonparametric_path(so3, ito_model, mu, cfg,
                                           store_path=False)
        logs_nonpar = so3.log(np.linalg.inv(mu) @ finals)
        par = ito_injection_to_parametric(so3, ito_model, mu)
        logs_par = sample_parametric_path(so3, par, np.zeros(3), cfg,
                                          store_path=False)
        check(logs_nonpar, logs_par)

        strat_model = SdeModel(const(h), const(big_h), STRATONOVICH)
        finals_s = sample_nonparametric_path(so3, strat_model, mu, cfg,
                                             store_path=False)
        logs_strat = so3.log(np.linalg.inv(mu) @ finals_s)
        conv = stratonovich_to_ito(so3, strat_model)
        finals_c = sample_nonparametric_path(so3, conv, mu, cfg,
                                             store_path=False)
        logs_conv = so3.log(np.linalg.inv(mu) @ finals_c)
        check(logs_strat, logs_conv)

        par_s = stratonovich_injection_to_parametric(so3, strat_model, mu)
        logs_par_s = sample_parametric_path(so3, par_s, np.zeros(3), cfg,
                                            store_path=False)
        check(logs_strat, logs_par_s)


def mc_group_mean_antithetic(so3, m, cov, mu, count, seed):
    """Ground-truth group mean from antithetic chart draws."""
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((count // 2, 3))
    xs = m + np.concatenate([half, -half]) @ sqrt_psd(cov).T
    samples = mu @ so3.exp(xs)
    return empirical_group_mean(so3, samples, tol=1e-13).mean


def test_acceptance_4_fitting_formula():
    so3 = SO3_GROUP
    cov = 0.01 * np.eye(3)
    mu = so3.exp(np.array([0.3, -0.2, 0.4]))
    with budget("4 mean-covariance-fitting", 120.0):
        errors = {}
        for idx, m_len in enumerate((0.1, 0.05)):
            m = np.array([m_len, 0.0, 0.0])
            truth = mc_group_mean_antithetic(so3, m, cov, mu, 10**6,
                                             seed=np.random.SeedSequence(42, spawn_key=(idx,)))
            fitted = fit_mean_covariance(so3, m, cov, mu).mean
            naive = mu @ so3.exp(m)
            err_fit = np.linalg.norm(so3.log(np.linalg.inv(fitted) @ truth))
            err_naive = np.linalg.norm(so3.log(np.linalg.inv(naive) @ truth))
            assert err_fit < err_naive, \
                f"fit ({err_fit:.2e}) must beat naive ({err_naive:.2e}) at |m|={m_len}"
            errors[m_len] = err_fit
        ratio = errors[0.1] / errors[0.05]
        assert 2.5 <= ratio <= 6.0, f"fit-error halving ratio {ratio:.2f}"


def test_acceptance_5_propagation():
    so3 = SO3_GROUP

    def nonlinear_drift(g, t):
        v = np.array([0.4, -0.1, 0.3])
        w = np.einsum("...ji,j->...i", g, v)
        return 0.5 * np.stack([np.sin(w[..., 0]), w[..., 1],
                               np.cos(w[..., 2]) - 1], axis=-1)

    with budget("5 propagation", 180.0):
        # (a) zero-noise exactness at nonzero initial covariance
        state0 = PropagationState(so3.exp(np.array([0.2, 0.4, -0.3])),
                                  0.1 * np.eye(3), 0.0)
        model = SdeModel(nonlinear_drift, const(np.zeros((3, 3))))
        coarse = propagate(so3, state0, model, 1.0, PropagationConfig(dt=2e-3))[-1]
        fine = propagate(so3, state0, model, 1.0, PropagationConfig(dt=2e-4))[-1]
        assert np.linalg.norm(
            so3.log(np.linalg.inv(fine.mean) @ coarse.mean)) < 1e-8

        # (b) noisy consistency against 1e5-path Monte Carlo statistics
        h = np.array([0.2, -0.1, 0.15])
        big_h = 0.1 * np.eye(3)
        mu0 = so3.exp(np.array([0.3, 0.1, -0.2]))
        cov0 = 0.01 * np.eye(3)
        noisy = SdeModel(const(h), const(big_h))
        pred = propagate(so3, PropagationState(mu0, cov0, 0.0), noisy, 1.0,
                         PropagationConfig(dt=5e-3))[-1]
        starts = sample(so3, ConcentratedGaussian(mu0, cov0), 100_000, seed=501)
        cfg = PathConfig(total_time=1.0, steps=1000, seed=502,
                         path_count=100_000)
        finals = sample_nonparametric_path(so3, noisy, starts, cfg,
                                           store_path=False)
        mc_mean = empirical_group_mean(so3, finals, tol=1e-12).mean
        mc_cov = empirical_covariance(so3, finals, mc_mean)
        assert np.linalg.norm(
            so3.log(np.linalg.inv(mc_mean) @ pred.mean)) < 0.02
        assert np.linalg.norm(pred.cov - mc_cov) / np.linalg.norm(mc_cov) < 0.05

        # (c) flat-group reduction to the linear-Gaussian closed form
        from liefilter.groups import DiagonalGroup
        diag3 = DiagonalGroup(3)
        a = np.array([-0.6, -0.4, -0.9])
        b = np.array([0.2, -0.1, 0.3])
        hdiag = np.array([0.25, 0.15, 0.3])

        def lin_drift(g, t):
            return diag3.log(g) @ np.diag(a).T + b

        lin_model = SdeModel(lin_drift, const(np.diag(hdiag)))
        q0 = np.array([0.5, -0.3, 0.2])
        cov_q0 = np.diag([0.04, 0.06, 0.02])
        final = propagate(diag3, PropagationState(diag3.exp(q0), cov_q0, 0.0),
                          lin_model, 1.0, PropagationConfig(dt=1e-3))[-1]
        q_exact = np.exp(a) * (q0 + b / a) - b / a
        var_exact = np.exp(2 * a) * (np.diag(cov_q0) + hdiag**2 / (2 * a)) \
            - hdiag**2 / (2 * a)
        assert np.abs(diag3.log(final.mean) - q_exact).max() < 1e-8
        assert np.abs(np.diag(final.cov) - var_exact).max() < 1e-8


@pytest.fixture(scope="module")
def dominance_sweeps():
    """Full benchmark sweeps for both observation models at the frozen seed."""
    out = {}
    start = time.perf_counter()
    for model in ("group", "euclidean"):
        cfg = ExperimentConfig(model=model, sample_count=10_000, seed=42)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConcentratedWarning)
            out[model] = run_sweep(cfg)
    out["elapsed"] = time.perf_counter() - start
    return out


def _read_archived(path):
    rows = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            rows.append([float(v) for v in line.strip().split(",")])
    return rows


def test_acceptance_6_mse_dominance_and_archive(dominance_sweeps, tmp_path):
    """Reproducible half of the fusion-dominance criterion.

    The mean-squared-error cost (c2) of the corrected update dominates the
    plain update at every sweep point where the correction is above the
    pairing noise floor (tau >= 5e-3 covers it with two orders of margin at
    the frozen seed), and the freshly computed sweeps agree with the archived
    regression CSVs.
    """
    import pathlib
    with budget("6a mse-dominance-and-archive", 600.0):
        for model in ("group", "euclidean"):
            recs = dominance_sweeps[model]
            for r in recs:
                if r.tau >= 5e-3:
                    assert r.c2_modified <= r.c2_plain, \
                        f"{model}: c2 ordering violated at tau={r.tau:.3e}"
            emit_csv(recs, tmp_path / f"sweep_{model}.csv")
            archived = pathlib.Path(__file__).resolve().parent.parent \
                / "artifacts" / f"sweep_{model}.csv"
            if not archived.exists():
                continue
            for row, rec in zip(_read_archived(archived), recs):
                fresh = [rec.tau, rec.c1_plain, rec.c1_modified,
                         rec.c2_plain, rec.c2_modified]
                for a, b in zip(row[:5], fresh):
                    assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-12), \
                        f"{model}: regression against archived CSV at tau={rec.tau:.3e}"


def test_acceptance_6_fusion_dominance_every_point(dominance_sweeps):
    """Strict per-point dominance in BOTH costs, as stated.

    Known to fail, reproducibly, and left failing on purpose: at the frozen
    protocol (N = 1e4 per sweep point, wide prior with unit spectral norm)
    the mean-error cost c1 behaves as follows.  For the rotation-observation
    model both estimators are unbiased to well below the Monte Carlo noise
    floor (the measured c1 is pure noise: |mean error| ~ 1e-3 against a
    noise scale of ~ 1.5e-2 at tau = 1), so the per-point ordering is a coin
    flip no seed choice can stabilize; a 2e5-sample diagnostic shows the
    correction does improve the underlying bias, but by ~4x less than this
    sample size resolves.  For the vector-observation model the ordering is
    violated systematically (confirmed at 1e5 samples, ~10 sigma, growing
    with tau): the correction improves every posterior individually (c2
    drops at all tau) yet slightly worsens the norm of the *joint* mean
    error, which rewards cross-sample bias cancellation rather than
    per-sample accuracy.  The mean-squared-error ordering is enforced in
    the companion test above.
    """
    with budget("6 fusion-dominance-every-point", 600.0):
        assert dominance_sweeps["elapsed"] < 600.0
        failures = []
        for model in ("group", "euclidean"):
            for r in dominance_sweeps[model]:
                if r.c1_modified > r.c1_plain:
                    failures.append(
                        f"{model} tau={r.tau:.3e}: c1 {r.c1_modified:.6e} > "
                        f"{r.c1_plain:.6e}")
                if r.c2_modified > r.c2_plain:
                    failures.append(
                        f"{model} tau={r.tau:.3e}: c2 {r.c2_modified:.6e} > "
                        f"{r.c2_plain:.6e}")
        assert not failures, "ordering violations:\n" + "\n".join(failures)


def test_acceptance_7_closed_form_consistency():
    so3 = SO3_GROUP
    mu = so3.exp(np.array([0.2, -0.3, 0.5]))

    def euclidean_gap(scale):
        obs = ObservationModelEuclidean(measure_euclidean,
                                        0.01 * EUCLIDEAN_NOISE_SHAPE)
        truth = mu @ so3.exp(np.array([0.15, -0.1, 0.05]))
        z = measure_euclidean(truth)
        prior = ConcentratedGaussian(mu, scale * np.eye(3))
        closed = fuse_euclidean(so3, prior, obs, z)
        post = gaussian_update_general(so3, prior, obs, z)
        general = fit_mean_covariance(so3, post.m, post.cov, mu)
        return (np.linalg.norm(so3.log(np.linalg.inv(general.mean) @ closed.mean))
                + np.linalg.norm(general.cov - closed.cov))

    def group_gap(scale):
        obs = ObservationModelGroup(so3, 0.04 * np.eye(3))
        g_z = mu @ so3.exp(np.array([0.1, 0.05, -0.08]))
        prior = ConcentratedGaussian(mu, scale * np.eye(3))
        closed = fuse_group(so3, prior, obs, g_z)
        post = gaussian_update_general(so3, prior, obs, g_z)
        general = fit_mean_covariance(so3, post.m, post.cov, mu)
        return (np.linalg.norm(so3.log(np.linalg.inv(general.mean) @ closed.mean))
                + np.linalg.norm(general.cov - closed.cov))

    with budget("7 closed-form-consistency", 30.0):
        for gap in (euclidean_gap, group_gap):
            g4, g2, g1 = gap(0.04), gap(0.02), gap(0.01)
            assert 2.5 <= g4 / g2 <= 6.0, f"{gap.__name__}: {g4 / g2:.2f}"
            assert 2.5 <= g2 / g1 <= 6.0, f"{gap.__name__}: {g2 / g1:.2f}"


def test_acceptance_8_determinism(tmp_path):
    with budget("8 byte-determinism", 120.0):
        cfg = ExperimentConfig(model="group", sample_count=300,
                               tau_grid=default_tau_grid(1e-3, 1.0, 5),
                               seed=123)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConcentratedWarning)
            first = run_sweep(cfg)
            second = run_sweep(cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(first, a)
        emit_csv(second, b)
        assert a.read_bytes() == b.read_bytes()
