"""Attitude-fusion experiment harness.

Draws ground-truth rotations from a wide prior, observes each through one of
two measurement models (a gravity/magnetometer vector pair, or a direct noisy
rotation), fuses prior and observation with and without the group-mean
correction, and scores both estimators with the two chart-error costs over a
sweep of the noise scale tau.

Every random quantity of sample ``i`` at sweep point ``j`` derives from
``SeedSequence(seed, spawn_key=(j, i))``, so results are reproducible and
independent of evaluation order.
"""

from __future__ import annotations

import logging
import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distribution import ConcentratedGaussian, sqrt_psd, symmetrize
from .errors import (
    ExclusionOverflowError,
    LieDomainError,
    NonConcentratedWarning,
    RejectionOverflowError,
)
# fuse_group stays importable here: bench/test_gates.py checks that the tracer
# wraps a name imported into two modules through it.
from .fusion import _group_step, _kalman_step, _linearize, _posterior, fuse_group  # noqa: F401
from .groups import SO3

log = logging.getLogger(__name__)

GRAVITY = np.array([0.0, 0.0, -9.82])
MAGNETIC = np.array([0.33, 0.0, -0.95])
PRIOR_OFFSET = np.array([np.pi / 3, np.pi / 4, np.pi / 6])
PRIOR_COV = np.diag([0.5, 1.0, 0.8])
EUCLIDEAN_NOISE_SHAPE = np.diag([0.3, 0.3, 0.3, 0.1, 0.1, 0.1])
GROUP_NOISE_SHAPE = np.diag([0.3, 0.3, 0.3])

EXCLUSION_LIMIT = 1e-3

# SO3 holds no per-call state, so one shared descriptor serves every sample.
_SO3 = SO3()


def default_tau_grid(tau_min: float = 1e-3, tau_max: float = 1.0,
                     points: int = 13) -> np.ndarray:
    return np.geomspace(tau_min, tau_max, points)


@dataclass
class ExperimentConfig:
    model: str = "group"                       # "euclidean" | "group"
    sample_count: int = 10_000
    tau_grid: np.ndarray = field(default_factory=default_tau_grid)
    seed: int = 42
    output: str = "results.csv"

    def __post_init__(self):
        if self.model not in ("euclidean", "group"):
            raise ValueError(f"unknown observation model {self.model!r}")
        if not isinstance(self.sample_count, numbers.Integral) or self.sample_count < 1:
            raise ValueError("sample_count must be an integer >= 1")
        taus = np.asarray(self.tau_grid, float)
        if not np.all(taus > 0) or not np.all(np.isfinite(taus)):
            raise ValueError("all tau values must be positive and finite")


@dataclass
class TrialRecord:
    tau: float
    c1_plain: float
    c1_modified: float
    c2_plain: float
    c2_modified: float
    wall_time: float


def build_prior() -> ConcentratedGaussian:
    """Wide attitude prior: mean exp(pi/3, pi/4, pi/6), cov diag(0.5, 1, 0.8).

    The spectral norm of the covariance is 1, which stresses the concentrated
    assumption; a warning flags this deliberately marginal setting.
    """
    warnings.warn(
        "prior covariance has spectral norm 1.0; the concentrated-distribution "
        "assumption is marginal for this stress-test prior",
        NonConcentratedWarning, stacklevel=2)
    return ConcentratedGaussian(_SO3.exp(PRIOR_OFFSET), PRIOR_COV.copy())


def measure_euclidean(rotation: np.ndarray) -> np.ndarray:
    """Noise-free gravity/magnetometer reading (R^T g ; R^T b), shape (..., 6)."""
    rotation = np.asarray(rotation, float)
    grav = np.einsum("...ji,j->...i", rotation, GRAVITY)
    mag = np.einsum("...ji,j->...i", rotation, MAGNETIC)
    return np.concatenate([grav, mag], axis=-1)


def observe_euclidean(rotation: np.ndarray, tau: float, seed) -> np.ndarray:
    """Gravity/magnetometer observation with N(0, tau * shape) noise."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(6) * np.sqrt(tau * np.diag(EUCLIDEAN_NOISE_SHAPE))
    return measure_euclidean(rotation) + noise


def observe_group(rotation: np.ndarray, tau: float, seed) -> np.ndarray:
    """Full-state observation R exp(r) with r ~ N(0, tau * shape)."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(3) * np.sqrt(tau * np.diag(GROUP_NOISE_SHAPE))
    return np.asarray(rotation, float) @ _SO3.exp(r)


def _draw_streams(seed: int, tau_idx: int, count: int, root: np.ndarray,
                  noise_dim: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Prior chart draws (resampled outside the chart domain) and unit
    observation noise, each sample from its own stream, plus the rejections.

    Every stream draws its candidates and then its noise.  One read per
    stream gives the first candidate and the noise that follows it when that
    candidate lies in the chart domain; the domain is screened once for all
    first candidates, and only a rejected sample's stream is replayed past
    its first candidate to redraw."""
    def stream(i):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tau_idx, i)))

    first = np.stack([stream(i).standard_normal(3 + noise_dim) for i in range(count)])
    draws = first[:, :3] @ root.T
    noise = first[:, 3:].copy()
    rejected = 0
    for i in np.flatnonzero(~_SO3.in_domain(draws)):
        rng = stream(i)
        rng.standard_normal(3)                 # the rejected first candidate
        for attempt in range(1, 1000):
            draws[i] = root @ rng.standard_normal(3)
            if _SO3.in_domain(draws[i]):
                break
        else:
            raise RejectionOverflowError("prior draw kept leaving the chart domain")
        rejected += attempt
        noise[i] = rng.standard_normal(noise_dim)
    return draws, noise, rejected


def run_sweep(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Evaluate plain vs modified fusion over the tau grid.

    Both estimators consume the identical observation for each sample, so the
    cost differences isolate the group-mean correction.  The samples of every
    tau are drawn from their own streams and then fused as one stacked batch
    of shape (taus, samples): one linearization (vector model) and one chart
    update per sweep, with one gain and one chart covariance per tau, which
    both estimators map to the group.  A sample whose innovation or
    either scoring logarithm leaves the chart domain is excluded pairwise and
    counted, and a chart-domain error raised by the stacked fusion excludes
    every tau.  The run fails with ExclusionOverflowError if more than 0.1%
    of all samples are excluded.  Each record's ``wall_time`` is an equal
    share of the sweep's elapsed time.
    """
    start = time.perf_counter()
    prior = build_prior()
    mu = prior.mean
    root = sqrt_psd(prior.cov)
    P = symmetrize(prior.cov)
    euclidean = cfg.model == "euclidean"
    shape = EUCLIDEAN_NOISE_SHAPE if euclidean else GROUP_NOISE_SHAPE
    taus = np.asarray(cfg.tau_grid, float)
    total = cfg.sample_count * len(taus)

    draws, noise, rejected = zip(*(_draw_streams(cfg.seed, tau_idx, cfg.sample_count,
                                                 root, len(shape))
                                   for tau_idx in range(len(taus))))
    rejected_draws = sum(rejected)
    # Poisson noise at small sample counts must not trip the 1% bound
    if rejected_draws > max(10.0, 0.01 * (total + rejected_draws)):
        raise RejectionOverflowError(
            f"{rejected_draws} prior draws rejected out of "
            f"{total + rejected_draws}")
    truth = mu @ _SO3.exp(np.stack(draws))                  # (taus, samples, 3, 3)
    noise = np.stack(noise) * np.sqrt(taus[:, None, None] * np.diag(shape))
    R = symmetrize(taus[:, None, None] * shape)
    try:
        if euclidean:
            valid = True
            m, cov = _kalman_step(_linearize(_SO3, measure_euclidean, mu, P), P, R,
                                  measure_euclidean(truth) + noise)
        else:
            # the innovation's mask is the screen: its rows leave through ok,
            # zeroed so that no NaN reaches the corrected covariance's eigh
            y, valid = _SO3.log_masked(np.linalg.inv(mu) @ (truth @ _SO3.exp(noise)))
            y[~valid] = 0.0
            m, cov = _group_step(P, R, y)
        truth_inv = np.swapaxes(truth, -1, -2)
        (e_plain, ok_plain), (e_mod, ok_mod) = [
            _SO3.log_masked(truth_inv @ _posterior(_SO3, mu, m, cov, flag).mean)
            for flag in (False, True)]
        ok = valid & ok_plain & ok_mod
    except LieDomainError:
        ok = np.zeros(truth.shape[:2], dtype=bool)
    excluded = total - int(ok.sum())

    costs = []
    for j, keep in enumerate(ok):
        if not keep.any():
            costs.append((float("nan"),) * 4)        # every sample excluded
            continue
        plain, mod = e_plain[j, keep], e_mod[j, keep]
        costs.append((float(np.linalg.norm(plain.mean(axis=0)) ** 2),
                      float(np.linalg.norm(mod.mean(axis=0)) ** 2),
                      float((plain * plain).sum(axis=-1).mean()),
                      float((mod * mod).sum(axis=-1).mean())))
    elapsed = time.perf_counter() - start
    records = [TrialRecord(float(tau), *cost, wall_time=elapsed / len(taus))
               for tau, cost in zip(taus, costs)]
    log.info("%d taus done in %.1fs", len(taus), elapsed)

    if excluded > EXCLUSION_LIMIT * total:
        raise ExclusionOverflowError(
            f"{excluded}/{total} samples excluded by chart-domain errors "
            f"(limit {EXCLUSION_LIMIT:.1%})", records=records)
    if excluded:
        log.warning("%d/%d samples excluded by chart-domain errors",
                    excluded, total)
    return records


def emit_csv(records: list[TrialRecord], path, include_timing: bool = False) -> None:
    """Write one row per tau, ascending, in full-precision scientific notation.

    The wall_ms column is written as 0 unless ``include_timing`` is set:
    archived result files must be byte-reproducible from (config, seed), and
    clock readings are not.
    """
    header = "tau,c1_plain,c1_mod,c2_plain,c2_mod,wall_ms"
    lines = [header]
    for rec in sorted(records, key=lambda r: r.tau):
        wall_ms = rec.wall_time * 1e3 if include_timing else 0.0
        lines.append(",".join(
            f"{v:.17e}" for v in (rec.tau, rec.c1_plain, rec.c1_modified,
                                  rec.c2_plain, rec.c2_modified, wall_ms)))
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write results to {path}: {exc}") from exc


def emit_gnuplot(csv_path, script_path) -> None:
    """Companion gnuplot script plotting both costs against tau."""
    content = "\n".join([
        "set datafile separator ','",
        "set logscale xy",
        "set key top left",
        "set xlabel 'tau'",
        "set ylabel 'cost'",
        f"plot '{csv_path}' using 1:2 with linespoints title 'c1 plain', \\",
        f"     '{csv_path}' using 1:3 with linespoints title 'c1 modified', \\",
        f"     '{csv_path}' using 1:4 with linespoints title 'c2 plain', \\",
        f"     '{csv_path}' using 1:5 with linespoints title 'c2 modified'",
        "pause -1",
    ]) + "\n"
    try:
        with open(script_path, "w", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        raise OSError(f"failed to write gnuplot script to {script_path}: {exc}") from exc
