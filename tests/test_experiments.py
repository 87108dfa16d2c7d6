import logging

import numpy as np
import pytest

from liefilter import experiments
from liefilter.cli import main
from liefilter.distribution import sqrt_psd
from liefilter.errors import NonConcentratedWarning, RejectionOverflowError
from liefilter.experiments import (
    EUCLIDEAN_NOISE_SHAPE,
    GROUP_NOISE_SHAPE,
    ExperimentConfig,
    build_prior,
    default_tau_grid,
    emit_csv,
    emit_gnuplot,
    measure_euclidean,
    observe_euclidean,
    observe_group,
    run_sweep,
    TrialRecord,
)
from liefilter.fusion import (
    ObservationModelEuclidean,
    ObservationModelGroup,
    fuse_euclidean,
    fuse_group,
)


# -- prior ------------------------------------------------------------------------

def test_prior_moments(so3):
    with pytest.warns(NonConcentratedWarning):
        prior = build_prior()
    assert np.abs(so3.log(prior.mean)
                  - np.array([np.pi / 3, np.pi / 4, np.pi / 6])).max() < 1e-12
    assert np.allclose(np.linalg.eigvalsh(prior.cov), [0.5, 0.8, 1.0])


# -- vector observation model -------------------------------------------------------

def test_measure_euclidean_identity():
    got = measure_euclidean(np.eye(3))
    assert np.allclose(got, [0.0, 0.0, -9.82, 0.33, 0.0, -0.95])


def test_measure_euclidean_half_turn_about_e3(so3):
    R = so3.exp(np.array([0.0, 0.0, np.pi - 1e-13]))
    got = measure_euclidean(R)
    assert np.abs(got - [0.0, 0.0, -9.82, -0.33, 0.0, -0.95]).max() < 1e-10


def test_observe_euclidean_vanishing_noise(so3):
    R = so3.exp(np.array([0.5, -0.2, 0.3]))
    got = observe_euclidean(R, 1e-30, seed=0)
    assert np.abs(got - measure_euclidean(R)).max() < 1e-12


def test_observe_euclidean_noise_covariance(so3):
    tau = 0.05
    R = so3.exp(np.array([0.1, 0.7, -0.3]))
    rng = np.random.default_rng(1)
    draws = np.stack([observe_euclidean(R, tau, rng) for _ in range(100_000)])
    emp = np.cov((draws - measure_euclidean(R)).T)
    target = tau * np.diag([0.3, 0.3, 0.3, 0.1, 0.1, 0.1])
    assert np.abs(np.diag(emp) - np.diag(target)).max() / (tau * 0.1) < 0.03 * 3


# -- group observation model ---------------------------------------------------------

def test_observe_group_vanishing_noise(so3):
    R = so3.exp(np.array([0.4, 0.4, -0.1]))
    assert np.abs(observe_group(R, 1e-30, seed=3) - R).max() < 1e-14


def test_observe_group_noise_covariance(so3):
    tau = 0.01
    R = so3.exp(np.array([-0.2, 0.5, 0.1]))
    rng = np.random.default_rng(4)
    draws = np.stack([observe_group(R, tau, rng) for _ in range(100_000)])
    logs = so3.log(R.T @ draws)
    emp = np.einsum("ki,kj->ij", logs, logs) / len(logs)
    assert np.abs(np.diag(emp) - 0.3 * tau).max() / (0.3 * tau) < 0.03


def test_observe_group_seed_reproducible(so3):
    R = so3.exp(np.array([0.3, 0.1, 0.2]))
    assert np.array_equal(observe_group(R, 0.1, seed=9),
                          observe_group(R, 0.1, seed=9))


# -- sweep ----------------------------------------------------------------------------

def test_single_sample_perfect_observation_costs_vanish():
    cfg = ExperimentConfig(model="group", sample_count=1,
                           tau_grid=np.array([1e-30]), seed=5)
    rec = run_sweep(cfg)[0]
    assert rec.c1_plain < 1e-25 and rec.c1_modified < 1e-25
    assert rec.c2_plain < 1e-25 and rec.c2_modified < 1e-25


@pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan"), float("inf")])
def test_experiment_config_rejects_bad_tau(bad):
    with pytest.raises(ValueError, match="all tau values must be positive"):
        ExperimentConfig(tau_grid=np.array([1e-3, bad]))


@pytest.mark.parametrize("count", [0, -3, 2.5, float("nan"), np.float64(8.0)])
def test_experiment_config_rejects_a_non_integral_sample_count(count):
    with pytest.raises(ValueError, match="sample_count must be an integer >= 1"):
        ExperimentConfig(sample_count=count)
    assert ExperimentConfig(sample_count=np.int64(8)).sample_count == 8


@pytest.mark.parametrize("model", ["euclidean", "group"])
def test_sweep_smoke_and_determinism(model):
    cfg = ExperimentConfig(model=model, sample_count=40,
                           tau_grid=default_tau_grid(1e-2, 1.0, 3), seed=7)
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    assert [r.tau for r in first] == list(cfg.tau_grid)
    for a, b in zip(first, second):
        assert (a.c1_plain, a.c1_modified, a.c2_plain, a.c2_modified) == \
            (b.c1_plain, b.c1_modified, b.c2_plain, b.c2_modified)
        assert min(a.c1_plain, a.c1_modified, a.c2_plain, a.c2_modified) >= 0
        assert a.wall_time >= 0


def _per_sample_group_sweep(so3, seed, taus, count):
    """Reference for run_sweep: per-sample streams and single-observation
    public calls.  Returns the truths and the plain and corrected chart
    errors, each of shape (len(taus), count, ...)."""
    with pytest.warns(NonConcentratedWarning):
        prior = build_prior()
    root = sqrt_psd(prior.cov)
    truths, errors = [], []
    for j, tau in enumerate(taus):
        obs = ObservationModelGroup(so3, tau * GROUP_NOISE_SHAPE)
        for i in range(count):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j, i)))
            v = root @ rng.standard_normal(3)
            while not so3.in_domain(v):
                v = root @ rng.standard_normal(3)
            truth = prior.mean @ so3.exp(v)
            g_z = observe_group(truth, tau, rng)
            truths.append(truth)
            errors.append([so3.log(truth.T @ fuse_group(so3, prior, obs, g_z, modified=flag).mean)
                           for flag in (False, True)])
    shape = (len(taus), count)
    errors = np.asarray(errors).reshape(shape + (2, 3))
    return np.asarray(truths).reshape(shape + (3, 3)), errors[..., 0, :], errors[..., 1, :]


def test_sweep_excludes_a_failed_scoring_pairwise(so3, monkeypatch, caplog):
    """One posterior per tau lands at angle pi from its truth, the plain one
    at the first tau and the corrected one at the second: that sample leaves
    both costs of its tau and is counted, the rest is kept."""
    seed, count = 13, 1200
    taus = np.array([1e-2, 1e-1])
    truths, e_plain, e_mod = _per_sample_group_sweep(so3, seed, taus, count)
    half_turn = np.diag([1.0, -1.0, -1.0])
    posterior = experiments._posterior

    def first_sample_flipped(group, mu, m, cov, modified):
        post = posterior(group, mu, m, cov, modified)
        j = int(modified)                   # plain at tau 0, corrected at tau 1
        post.mean[j, 0] = truths[j, 0] @ half_turn
        return post

    monkeypatch.setattr(experiments, "_posterior", first_sample_flipped)
    cfg = ExperimentConfig(model="group", sample_count=count, tau_grid=taus, seed=seed)
    with caplog.at_level(logging.WARNING, logger=experiments.__name__), \
            pytest.warns(NonConcentratedWarning):
        records = run_sweep(cfg)
    assert "2/2400 samples excluded by chart-domain errors" in caplog.text
    for j, rec in enumerate(records):
        plain, mod = e_plain[j, 1:], e_mod[j, 1:]
        want = (np.linalg.norm(plain.mean(axis=0)) ** 2, np.linalg.norm(mod.mean(axis=0)) ** 2,
                (plain * plain).sum(axis=-1).mean(), (mod * mod).sum(axis=-1).mean())
        got = (rec.c1_plain, rec.c1_modified, rec.c2_plain, rec.c2_modified)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def _per_sample_streams(so3, seed, tau_idx, count, root, noise_dim):
    """Reference for _draw_streams: one stream per sample, candidates drawn
    until one lies in the chart domain, then the noise."""
    draws, noise, rejected = [], [], 0
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tau_idx, i)))
        v = root @ rng.standard_normal(3)
        while not so3.in_domain(v):
            rejected += 1
            v = root @ rng.standard_normal(3)
        draws.append(v)
        noise.append(rng.standard_normal(noise_dim))
    return np.array(draws), np.array(noise), rejected


def test_draw_streams_batched_screen_matches_per_sample_loop(so3):
    root = 2.0 * np.eye(3)                 # ~1 in 3 first candidates leaves the domain
    draws, noise, rejected = experiments._draw_streams(3, 1, 300, root, 6)
    want_draws, want_noise, want_rejected = _per_sample_streams(so3, 3, 1, 300, root, 6)
    assert rejected == want_rejected > 50
    assert np.array_equal(draws, want_draws) and np.array_equal(noise, want_noise)
    with pytest.raises(RejectionOverflowError):
        experiments._draw_streams(3, 1, 1, 1e6 * np.eye(3), 6)


def test_euclidean_sweep_matches_per_tau_public_fusion(so3):
    """One linearization and one stacked chart update per sweep give, bit for
    bit, the costs of a public fuse_euclidean call per tau and estimator."""
    seed, count = 17, 50
    taus = default_tau_grid(1e-2, 1.0, 3)
    cfg = ExperimentConfig(model="euclidean", sample_count=count, tau_grid=taus, seed=seed)
    with pytest.warns(NonConcentratedWarning):
        records = run_sweep(cfg)
        prior = build_prior()
    root = sqrt_psd(prior.cov)
    for j, (tau, rec) in enumerate(zip(taus, records)):
        draws, noise, _ = _per_sample_streams(so3, seed, j, count, root, 6)
        truth = prior.mean @ so3.exp(draws)
        z = measure_euclidean(truth) + noise * np.sqrt(tau * np.diag(EUCLIDEAN_NOISE_SHAPE))
        obs = ObservationModelEuclidean(measure_euclidean, tau * EUCLIDEAN_NOISE_SHAPE)
        e_plain, e_mod = [
            so3.log(np.swapaxes(truth, -1, -2) @ fuse_euclidean(so3, prior, obs, z,
                                                                modified=flag).mean)
            for flag in (False, True)]
        want = (float(np.linalg.norm(e_plain.mean(axis=0)) ** 2),
                float(np.linalg.norm(e_mod.mean(axis=0)) ** 2),
                float((e_plain * e_plain).sum(axis=-1).mean()),
                float((e_mod * e_mod).sum(axis=-1).mean()))
        assert (rec.c1_plain, rec.c1_modified, rec.c2_plain, rec.c2_modified) == want


def test_group_sweep_matches_per_tau_public_fusion(so3):
    """One innovation logarithm and one stacked chart update per sweep give,
    bit for bit, the costs of a public fuse_group call per tau and estimator."""
    seed, count = 17, 50
    taus = default_tau_grid(1e-2, 1.0, 3)
    cfg = ExperimentConfig(model="group", sample_count=count, tau_grid=taus, seed=seed)
    with pytest.warns(NonConcentratedWarning):
        records = run_sweep(cfg)
        prior = build_prior()
    root = sqrt_psd(prior.cov)
    for j, (tau, rec) in enumerate(zip(taus, records)):
        draws, noise, _ = _per_sample_streams(so3, seed, j, count, root, 3)
        truth = prior.mean @ so3.exp(draws)
        g_z = truth @ so3.exp(noise * np.sqrt(tau * np.diag(GROUP_NOISE_SHAPE)))
        obs = ObservationModelGroup(so3, tau * GROUP_NOISE_SHAPE)
        e_plain, e_mod = [
            so3.log(np.swapaxes(truth, -1, -2) @ fuse_group(so3, prior, obs, g_z,
                                                            modified=flag).mean)
            for flag in (False, True)]
        want = (float(np.linalg.norm(e_plain.mean(axis=0)) ** 2),
                float(np.linalg.norm(e_mod.mean(axis=0)) ** 2),
                float((e_plain * e_plain).sum(axis=-1).mean()),
                float((e_mod * e_mod).sum(axis=-1).mean()))
        assert (rec.c1_plain, rec.c1_modified, rec.c2_plain, rec.c2_modified) == want


def test_euclidean_sweep_linearizes_once(monkeypatch):
    """k(mu), two evaluations per slope and four for all N^2 curvature
    stencils once per sweep, plus one reading of the stacked truths."""
    calls = []

    def counted(rotation):
        calls.append(1)
        return measure_euclidean(rotation)

    monkeypatch.setattr(experiments, "measure_euclidean", counted)
    taus = default_tau_grid(1e-2, 1.0, 3)
    cfg = ExperimentConfig(model="euclidean", sample_count=5, tau_grid=taus, seed=3)
    with pytest.warns(NonConcentratedWarning):
        run_sweep(cfg)
    dim = 3
    assert len(calls) == 1 + 2 * dim + 4 + 1


# -- CSV / gnuplot emission ------------------------------------------------------------

def test_emit_csv_header_only_for_empty_records(tmp_path):
    out = tmp_path / "empty.csv"
    emit_csv([], out)
    assert out.read_text() == "tau,c1_plain,c1_mod,c2_plain,c2_mod,wall_ms\n"


def test_emit_csv_layout_and_determinism(tmp_path):
    records = [TrialRecord(tau, 1e-3, 9e-4, 2e-3, 1.5e-3, wall_time=0.123 + tau)
               for tau in default_tau_grid()]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(records, a)
    emit_csv(list(reversed(records)), b)
    lines = a.read_text().strip().split("\n")
    assert len(lines) == 14
    assert lines[0] == "tau,c1_plain,c1_mod,c2_plain,c2_mod,wall_ms"
    assert a.read_bytes() == b.read_bytes()          # sorted by tau, timing zeroed
    assert all(line.endswith("0.00000000000000000e+00") for line in lines[1:])
    timed = tmp_path / "timed.csv"
    emit_csv(records, timed, include_timing=True)
    assert timed.read_bytes() != a.read_bytes()


def test_emit_csv_roundtrip_precision(tmp_path):
    rec = TrialRecord(0.123456789123456789, 1 / 3, 2 / 7, 1 / 9, 3 / 11, 0.0)
    out = tmp_path / "prec.csv"
    emit_csv([rec], out)
    row = out.read_text().strip().split("\n")[1].split(",")
    assert float(row[1]) == rec.c1_plain
    assert float(row[4]) == rec.c2_modified


def test_emit_gnuplot_references_csv(tmp_path):
    script = tmp_path / "plot.gp"
    emit_gnuplot("results.csv", script)
    text = script.read_text()
    assert "results.csv" in text and "logscale" in text


# -- CLI --------------------------------------------------------------------------------

def test_cli_end_to_end_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = ["--model", "group", "--n", "30", "--tau-points", "3",
            "--seed", "11"]
    assert main(args + ["--out", str(out1), "--emit-gnuplot"]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "r1.csv.gp").exists()


def test_cli_reports_io_error(tmp_path):
    code = main(["--model", "group", "--n", "2", "--tau-points", "2",
                 "--out", str(tmp_path / "nope" / "x.csv")])
    assert code == 1


def test_cli_exit_code_on_exclusion_overflow(tmp_path, monkeypatch):
    """A chart-domain error in the stacked fusion excludes every tau, which
    overflows the exclusion limit: exit code 2."""
    from liefilter import experiments
    from liefilter.errors import LieDomainError

    def always_singular(*args, **kwargs):
        raise LieDomainError("synthetic chart-domain failure")

    monkeypatch.setattr(experiments, "_posterior", always_singular)
    code = main(["--model", "group", "--n", "20", "--tau-points", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_c2_standard_error_scales_with_sample_count():
    # std of the c2 estimate should shrink like 1/sqrt(n); the point estimate
    # of the std ratio over 12 replicates carries ~30% chi-noise, hence the
    # wide window around sqrt(2)
    def c2_std(n):
        vals = []
        for s in range(300, 312):
            cfg = ExperimentConfig(model="group", sample_count=n,
                                   tau_grid=np.array([0.1]), seed=s)
            vals.append(run_sweep(cfg)[0].c2_modified)
        return np.std(vals, ddof=1)

    ratio = c2_std(400) / c2_std(800)
    assert 1.0 < ratio < 2.6
