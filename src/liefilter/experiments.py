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
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distribution import ConcentratedGaussian, sqrt_psd
from .errors import (
    ExclusionOverflowError,
    LieDomainError,
    NonConcentratedWarning,
    RejectionOverflowError,
)
from .fusion import (
    ObservationModelEuclidean,
    ObservationModelGroup,
    fuse_euclidean,
    fuse_group,
)
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
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if np.any(np.asarray(self.tau_grid) <= 0):
            raise ValueError("all tau values must be positive")


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


def _draw_truth(rng: np.random.Generator, mu: np.ndarray, root: np.ndarray,
                group: SO3, max_tries: int = 1000) -> tuple[np.ndarray, int]:
    """One prior draw, resampling outside the chart domain."""
    for attempt in range(max_tries):
        v = root @ rng.standard_normal(3)
        if group.in_domain(v):
            return mu @ group.exp(v), attempt
    raise RejectionOverflowError("prior draw kept leaving the chart domain")


def run_sweep(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Evaluate plain vs modified fusion over the tau grid.

    Both estimators consume the identical observation for each sample, so the
    cost differences isolate the group-mean correction.  Samples whose fusion
    or scoring hits a chart-domain singularity are excluded pairwise and
    counted; the run fails with ExclusionOverflowError if more than 0.1% of
    all samples are excluded.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConcentratedWarning)
        prior = build_prior()
    log.warning("prior covariance spectral norm is 1.0; running the marginal "
                "stress-test setting anyway")
    root = sqrt_psd(prior.cov)
    records: list[TrialRecord] = []
    excluded = 0
    rejected_draws = 0
    total = cfg.sample_count * len(cfg.tau_grid)

    for tau_idx, tau in enumerate(np.asarray(cfg.tau_grid, float)):
        start = time.perf_counter()
        if cfg.model == "euclidean":
            obs_model = ObservationModelEuclidean(
                measure_euclidean, tau * EUCLIDEAN_NOISE_SHAPE)
        else:
            obs_model = ObservationModelGroup(_SO3, tau * GROUP_NOISE_SHAPE)
        err_plain: list[np.ndarray] = []
        err_mod: list[np.ndarray] = []
        for i in range(cfg.sample_count):
            rng = np.random.default_rng(
                np.random.SeedSequence(cfg.seed, spawn_key=(tau_idx, i)))
            truth, tries = _draw_truth(rng, prior.mean, root, _SO3)
            rejected_draws += tries
            try:
                if cfg.model == "euclidean":
                    z = observe_euclidean(truth, tau, rng)
                    post_mod = fuse_euclidean(_SO3, prior, obs_model, z,
                                              modified=True)
                    post_plain = fuse_euclidean(_SO3, prior, obs_model, z,
                                                modified=False)
                else:
                    g_z = observe_group(truth, tau, rng)
                    post_mod = fuse_group(_SO3, prior, obs_model, g_z,
                                          modified=True)
                    post_plain = fuse_group(_SO3, prior, obs_model, g_z,
                                            modified=False)
                truth_inv = truth.T
                err_mod.append(_SO3.log(truth_inv @ post_mod.mean))
                err_plain.append(_SO3.log(truth_inv @ post_plain.mean))
            except LieDomainError:
                excluded += 1
        e_mod = np.asarray(err_mod).reshape(-1, 3)
        e_plain = np.asarray(err_plain).reshape(-1, 3)
        if len(e_mod) == 0:
            costs = (float("nan"),) * 4      # every sample excluded
        else:
            costs = (float(np.linalg.norm(e_plain.mean(axis=0)) ** 2),
                     float(np.linalg.norm(e_mod.mean(axis=0)) ** 2),
                     float((e_plain * e_plain).sum(axis=-1).mean()),
                     float((e_mod * e_mod).sum(axis=-1).mean()))
        records.append(TrialRecord(
            tau=float(tau),
            c1_plain=costs[0],
            c1_modified=costs[1],
            c2_plain=costs[2],
            c2_modified=costs[3],
            wall_time=time.perf_counter() - start,
        ))
        log.info("tau=%.3e done in %.1fs", tau, records[-1].wall_time)

    # Poisson noise at small sample counts must not trip the 1% bound
    if rejected_draws > max(10.0, 0.01 * (total + rejected_draws)):
        raise RejectionOverflowError(
            f"{rejected_draws} prior draws rejected out of "
            f"{total + rejected_draws}")
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
