import logging
import warnings

import numpy as np
import pytest

from liefilter import experiments
from liefilter.cli import main
from liefilter.distribution import sqrt_psd
from liefilter.errors import (
    ExclusionOverflowError,
    NonConcentratedWarning,
    RejectionOverflowError,
)
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
from liefilter.groups import SO3

from conftest import assert_bitwise


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
    draws = observe_euclidean(np.broadcast_to(R, (100_000, 3, 3)), tau, rng)
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
    draws = observe_group(np.broadcast_to(R, (100_000, 3, 3)), tau, rng)
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


@pytest.mark.parametrize("grid", [[[0.1, 0.2]], np.ones((2, 3)), 0.1])
def test_experiment_config_rejects_a_tau_grid_that_is_not_1d(grid):
    with pytest.raises(ValueError, match="tau_grid must be one-dimensional"):
        ExperimentConfig(tau_grid=grid)


def test_default_tau_grid_is_a_fresh_copy_per_config():
    first = ExperimentConfig()
    assert_bitwise(first.tau_grid, np.geomspace(1e-3, 1.0, 13))
    first.tau_grid[0] = 7.0
    assert_bitwise(ExperimentConfig().tau_grid, np.geomspace(1e-3, 1.0, 13))


def test_experiment_config_rejects_an_empty_tau_grid():
    with pytest.raises(ValueError, match="tau_grid must hold at least one value"):
        ExperimentConfig(tau_grid=np.array([]))


@pytest.mark.parametrize("count", [0, -3, 2.5, float("nan"), np.float64(8.0)])
def test_experiment_config_rejects_a_non_integral_sample_count(count):
    with pytest.raises(ValueError, match="sample_count must be an integer >= 1"):
        ExperimentConfig(sample_count=count)
    assert ExperimentConfig(sample_count=np.int64(8)).sample_count == 8


@pytest.mark.parametrize("seed", [-1, 2.5, float("nan"), "42"])
def test_experiment_config_rejects_a_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        ExperimentConfig(seed=seed)
    assert ExperimentConfig(seed=np.uint64(2**63)).seed == 2**63


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
    posterior_means = experiments._posterior_means

    def first_sample_flipped(group, mu, m, cov):
        means = posterior_means(group, mu, m, cov)      # [estimator, tau, sample]
        for j in (0, 1):                    # plain at tau 0, corrected at tau 1
            means[j, j, 0] = truths[j, 0] @ half_turn
        return means

    monkeypatch.setattr(experiments, "_posterior_means", first_sample_flipped)
    cfg = ExperimentConfig(model="group", sample_count=count, tau_grid=taus, seed=seed)
    with caplog.at_level(logging.WARNING, logger=experiments.__name__), \
            pytest.warns(NonConcentratedWarning):
        records = run_sweep(cfg)
    assert "2/2400 samples excluded by chart-domain errors" in caplog.text
    assert [rec.excluded for rec in records] == [1, 1]
    root = sqrt_psd(experiments.PRIOR_COV)
    assert [rec.rejected for rec in records] == \
        [_per_sample_streams(so3, seed, j, count, root, 3)[2] for j in range(len(taus))]
    for j, rec in enumerate(records):
        plain, mod = e_plain[j, 1:], e_mod[j, 1:]
        want = (np.linalg.norm(plain.mean(axis=0)) ** 2, np.linalg.norm(mod.mean(axis=0)) ** 2,
                (plain * plain).sum(axis=-1).mean(), (mod * mod).sum(axis=-1).mean())
        got = (rec.c1_plain, rec.c1_modified, rec.c2_plain, rec.c2_modified)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


class _MaskedInnovations(SO3):
    """SO(3) whose first ``log_masked`` call, the group sweep's innovation,
    marks the samples ``hit`` outside the chart domain with rows ``fill``."""

    def __init__(self, hit, fill):
        super().__init__()
        self.hit, self.fill, self.calls = hit, fill, 0

    def log_masked(self, g):
        x, ok = super().log_masked(g)
        if self.calls == 0:
            x[self.hit], ok[self.hit] = self.fill, False
        self.calls += 1
        return x, ok


def test_sweep_drops_only_the_samples_of_nan_innovations(so3, monkeypatch):
    """A NaN innovation row stays in its own sample, which leaves both costs of
    its tau, with no RuntimeWarning: the records equal those of the same
    failures with zeroed rows, and the public per-sample fusion of the kept
    samples."""
    seed, count = 13, 1200
    taus = np.array([1e-2, 1e-1])
    hit = (np.array([0, 1]), np.array([0, 7]))               # (tau, sample)
    cfg = ExperimentConfig(model="group", sample_count=count, tau_grid=taus, seed=seed)

    def sweep(fill):
        monkeypatch.setattr(experiments, "_SO3", _MaskedInnovations(hit, fill))
        with pytest.warns(NonConcentratedWarning), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return run_sweep(cfg)

    records = sweep(np.nan)
    assert records == sweep(0.0)
    assert [rec.excluded for rec in records] == [1, 1]
    _, e_plain, e_mod = _per_sample_group_sweep(so3, seed, taus, count)
    for j, rec in enumerate(records):
        keep = np.arange(count) != hit[1][j]
        plain, mod = e_plain[j, keep], e_mod[j, keep]
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
    draws, noise, rejected = experiments._draw_streams(3, 3, 300, root, 6)
    assert draws.shape == (3, 300, 3) and noise.shape == (3, 300, 6)
    for j in range(3):
        want_draws, want_noise, want_rejected = _per_sample_streams(so3, 3, j, 300, root, 6)
        assert rejected[j] == want_rejected > 50
        assert np.array_equal(draws[j], want_draws) and np.array_equal(noise[j], want_noise)
    with pytest.raises(RejectionOverflowError):
        experiments._draw_streams(3, 2, 1, 1e6 * np.eye(3), 6)


@pytest.mark.parametrize("seed", [0, 3, 42, 2**32 + 1, 2**160 + 7])
def test_stream_words_are_numpys_seed_sequence_words(seed):
    """The grid hash gives every stream the PCG64 seed words, and so the
    draws, of its own SeedSequence(seed, spawn_key=(j, i))."""
    words = experiments._stream_words(seed, 13, 300)
    seed_words = experiments._seed_words_type()
    assert words.shape == (13, 300, 4) and words.dtype == np.uint64
    for j in range(13):
        for i in range(300):
            seq = np.random.SeedSequence(seed, spawn_key=(j, i))
            assert np.array_equal(words[j, i], seq.generate_state(4, np.uint64))
            got = np.random.Generator(np.random.PCG64(seed_words(words[j, i])))
            assert np.array_equal(got.standard_normal(9),
                                  np.random.default_rng(seq).standard_normal(9))


def test_stream_words_refuse_a_negative_seed_and_a_two_word_index():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        experiments._stream_words(-1, 2, 2)
    for taus, count in [(2**32 + 1, 1), (1, 2**32 + 1)]:
        with pytest.raises(ValueError, match="one 32-bit word"):
            experiments._stream_words(0, taus, count)


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


def test_sweep_rescores_taus_that_lost_samples_bit_for_bit(so3, monkeypatch):
    """The posterior means of sample 0 at tau 0 and of every sample at tau 2
    are flipped to minus their truths, whose relative trace -3 clips to angle
    pi on every row (a half turn reads pi - 1e-8 on some rows, from the
    rounding of R^T R).  Tau 0 is scored over samples 1-49, bit for bit as
    public fusion scores them; tau 2 keeps no sample and gets NaN costs; tau
    1 keeps the row of the sweep without failures."""
    seed, count = 17, 50
    taus = default_tau_grid(1e-2, 1.0, 3)
    cfg = ExperimentConfig(model="group", sample_count=count, tau_grid=taus, seed=seed)
    with pytest.warns(NonConcentratedWarning):
        clean = run_sweep(cfg)
        prior = build_prior()
    root = sqrt_psd(prior.cov)
    streams = [_per_sample_streams(so3, seed, j, count, root, 3) for j in range(len(taus))]
    truths = np.stack([prior.mean @ so3.exp(draws) for draws, _, _ in streams])
    noise = streams[0][1] * np.sqrt(taus[0] * np.diag(GROUP_NOISE_SHAPE))
    g_z = truths[0] @ so3.exp(noise)
    obs = ObservationModelGroup(so3, taus[0] * GROUP_NOISE_SHAPE)
    e_plain, e_mod = [
        so3.log(np.swapaxes(truths[0], -1, -2) @ fuse_group(so3, prior, obs, g_z,
                                                                modified=flag).mean)[1:]
        for flag in (False, True)]
    want = (float(np.linalg.norm(e_plain.mean(axis=0)) ** 2),
            float(np.linalg.norm(e_mod.mean(axis=0)) ** 2),
            float((e_plain * e_plain).sum(axis=-1).mean()),
            float((e_mod * e_mod).sum(axis=-1).mean()))
    posterior_means = experiments._posterior_means

    def flipped(group, mu, m, cov):
        means = posterior_means(group, mu, m, cov)      # [estimator, tau, sample]
        means[:, 0, 0], means[:, 2] = -truths[0, 0], -truths[2]
        return means

    monkeypatch.setattr(experiments, "_posterior_means", flipped)
    with pytest.warns(NonConcentratedWarning), pytest.raises(ExclusionOverflowError) as err:
        run_sweep(cfg)
    records = err.value.records

    def row(rec):
        return rec.c1_plain, rec.c1_modified, rec.c2_plain, rec.c2_modified

    assert [rec.excluded for rec in records] == [1, 0, count]
    assert row(records[0]) == want
    assert (row(records[1]), records[1].rejected) == (row(clean[1]), clean[1].rejected)
    assert np.isnan(row(records[2])).all()


def test_euclidean_sweep_linearizes_once(monkeypatch):
    """k(mu), two evaluations for all N slopes and four for all N^2
    curvature stencils once per sweep, plus one reading of the stacked
    truths."""
    calls = []

    def counted(rotation):
        calls.append(1)
        return measure_euclidean(rotation)

    monkeypatch.setattr(experiments, "measure_euclidean", counted)
    taus = default_tau_grid(1e-2, 1.0, 3)
    cfg = ExperimentConfig(model="euclidean", sample_count=5, tau_grid=taus, seed=3)
    with pytest.warns(NonConcentratedWarning):
        run_sweep(cfg)
    assert len(calls) == 1 + 2 + 4 + 1


# -- CSV / gnuplot emission ------------------------------------------------------------

def test_emit_csv_header_only_for_empty_records(tmp_path):
    out = tmp_path / "empty.csv"
    emit_csv([], out)
    assert out.read_text() == "tau,c1_plain,c1_mod,c2_plain,c2_mod\n"


def test_emit_csv_layout_and_determinism(tmp_path):
    records = [TrialRecord(tau, 1e-3, 9e-4, 2e-3, 1.5e-3) for tau in default_tau_grid()]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(records, a)
    emit_csv(list(reversed(records)), b)
    lines = a.read_text().strip().split("\n")
    assert len(lines) == 14
    assert lines[0] == "tau,c1_plain,c1_mod,c2_plain,c2_mod"
    assert all(len(line.split(",")) == 5 for line in lines[1:])
    assert a.read_bytes() == b.read_bytes()          # sorted by tau


def test_emit_csv_roundtrip_precision(tmp_path):
    rec = TrialRecord(0.123456789123456789, 1 / 3, 2 / 7, 1 / 9, 3 / 11)
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
    """Every innovation and scoring logarithm leaving the chart domain
    excludes every sample, which overflows the exclusion limit: exit code 2."""
    from liefilter import experiments

    real = experiments._SO3.log_masked

    def nothing_in_domain(g):
        values, ok = real(g)
        return values, np.zeros_like(ok)

    monkeypatch.setattr(experiments._SO3, "log_masked", nothing_in_domain)
    code = main(["--model", "group", "--n", "20", "--tau-points", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_cli_exit_code_on_rejection_overflow(tmp_path, monkeypatch, capsys):
    """Every first prior candidate leaving the chart domain overflows the
    rejection rule: exit code 2 and a one-line error, no traceback."""
    from liefilter import experiments

    def first_candidates_out(x):
        x = np.asarray(x)
        return np.zeros(x.shape[:-1], bool) if x.ndim > 1 else True

    monkeypatch.setattr(experiments._SO3, "in_domain", first_candidates_out)
    code = main(["--model", "group", "--n", "20", "--tau-points", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 40/80 draws outside the chart domain") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flags", [["--n", "0"], ["--tau-min", "0"],
                                   ["--tau-points", "0"], ["--seed", "-1"]])
def test_cli_rejects_a_bad_configuration_with_usage_status(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as err:
        main(["--model", "group", "--out", str(tmp_path / "x.csv")] + flags)
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


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
