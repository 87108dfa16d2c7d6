"""Attitude-fusion experiment harness.

Draws ground-truth rotations from a wide prior, observes each through one of
two measurement models (a gravity/magnetometer vector pair, or a direct noisy
rotation), fuses prior and observation with and without the group-mean
correction, and scores both estimators with the two chart-error costs over a
sweep of the noise scale tau.

Every random quantity of sample ``i`` at sweep point ``j`` derives from its
own stream ``SeedSequence(seed, spawn_key=(j, i))``, so results are
reproducible and independent of evaluation order.  The streams' PCG64 seed
words are hashed for the whole (tau, sample) grid at once, the four words of
the entropy pool as four lanes of one array, bit for bit as numpy's
``SeedSequence`` computes them, rather than one ``SeedSequence`` per sample.
The costs of all taus are scored together, one reduction per cost column.
"""

from __future__ import annotations

import functools
import logging
import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distribution import ConcentratedGaussian, _check_rejections, sqrt_psd, symmetrize
from .errors import (
    ExclusionOverflowError,
    NonConcentratedWarning,
    RejectionOverflowError,
)
# fuse_group stays importable here: bench/test_gates.py checks that the tracer
# wraps a name imported into two modules through it.
from .fusion import _costs, _kalman_step, _linearize, _posterior_means, fuse_group  # noqa: F401
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


_DEFAULT_TAUS = default_tau_grid()    # built once: geomspace is most of a config's cost


@dataclass
class ExperimentConfig:
    model: str = "group"                       # "euclidean" | "group"
    sample_count: int = 10_000
    tau_grid: np.ndarray = field(default_factory=_DEFAULT_TAUS.copy)
    seed: int = 42

    def __post_init__(self):
        if self.model not in ("euclidean", "group"):
            raise ValueError(f"unknown observation model {self.model!r}")
        if not isinstance(self.sample_count, numbers.Integral) or self.sample_count < 1:
            raise ValueError("sample_count must be an integer >= 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be an integer >= 0")
        taus = np.asarray(self.tau_grid, float)
        if taus.ndim != 1:
            raise ValueError("tau_grid must be one-dimensional")
        if taus.size == 0:
            raise ValueError("tau_grid must hold at least one value")
        if not np.all(taus > 0) or not np.all(np.isfinite(taus)):
            raise ValueError("all tau values must be positive and finite")


@dataclass
class TrialRecord:
    tau: float
    c1_plain: float
    c1_modified: float
    c2_plain: float
    c2_modified: float
    rejected: int = 0                           # prior draws redrawn at this tau
    excluded: int = 0                           # samples excluded at this tau


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
    """Gravity/magnetometer observations (..., 6) with N(0, tau * shape) noise."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(np.shape(rotation)[:-2] + (6,))
    return measure_euclidean(rotation) + noise * np.sqrt(tau * np.diag(EUCLIDEAN_NOISE_SHAPE))


def observe_group(rotation: np.ndarray, tau: float, seed) -> np.ndarray:
    """Full-state observations R exp(r) (..., 3, 3) with r ~ N(0, tau * shape)."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(np.shape(rotation)[:-2] + (3,))
    return np.asarray(rotation, float) @ _SO3.exp(r * np.sqrt(tau * np.diag(GROUP_NOISE_SHAPE)))


# O'Neill's seed_seq_fe hash constants, as numpy's SeedSequence uses them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_lanes(value: np.ndarray, lanes: int, const: int, mult: int):
    """numpy's SeedSequence ``hashmix`` of ``lanes`` values in turn, lane
    first, value broadcasting to (lanes, taus, count); the hash constant is a
    Python int advanced by ``mult`` per lane.  Returns the hashed lanes and
    the next constant."""
    consts = [const]
    for _ in range(lanes):
        consts.append(consts[-1] * mult & _MASK32)
    table = np.array(consts, dtype=np.uint32).reshape(-1, 1, 1)
    value = (value ^ table[:-1]) * table[1:]
    return value ^ value >> 16, consts[-1]


def _stream_words(seed: int, taus: int, count: int) -> np.ndarray:
    """PCG64 seed words ``SeedSequence(seed, spawn_key=(j, i))
    .generate_state(4, np.uint64)`` of every stream j < taus, i < count,
    shape (taus, count, 4).

    numpy's own ``SeedSequence(seed).pool`` is the entropy pool after the run
    entropy (building it validates the seed).  The hash runs in uint32
    arithmetic over the whole grid at once, its four pool words as four
    lanes of one array: each spawn word, j then i, is hashed into all four
    lanes in one step, and the eight output halves are hashed as one
    (8, taus, count) array, with the hash constants advanced as numpy
    advances them."""
    if max(taus, count) > 2**32:
        raise ValueError("a spawn index must fit in one 32-bit word")
    pool = np.random.SeedSequence(seed).pool
    run_words = max(1, -(-int(seed).bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, run_words - 4), 2**32) & _MASK32
    mixed = pool.reshape(4, 1, 1)
    for word in (np.arange(taus, dtype=np.uint32)[:, None], np.arange(count, dtype=np.uint32)):
        value, const = _hash_lanes(word, 4, const, _MULT_A)
        mixed = mixed * np.uint32(_MIX_L) - value * np.uint32(_MIX_R)
        mixed ^= mixed >> 16
    # generate_state(4, np.uint64): eight uint32 halves, the low half first
    halves = _hash_lanes(np.concatenate((mixed, mixed)), 8, _INIT_B, _MULT_B)[0]
    halves = halves.astype(np.uint64)
    return np.ascontiguousarray(np.moveaxis(halves[0::2] | halves[1::2] << np.uint64(32), 0, -1))


@functools.cache
def _seed_words_type() -> type:
    """An ISeedSequence that hands PCG64 one stream's precomputed seed words,
    built at the first call, and kept, so that importing liefilter does not
    import numpy.random."""
    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint64):
            return self.words
    return SeedWords


def _draw_streams(seed: int, taus: int, count: int, root: np.ndarray,
                  noise_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prior chart draws (resampled outside the chart domain) and unit
    observation noise of every (tau index j, sample i), shapes
    (taus, count, 3) and (taus, count, noise_dim), plus the rejections per
    tau.

    Each sample draws from its own stream ``SeedSequence(seed,
    spawn_key=(j, i))``, whose PCG64 seed words ``_stream_words`` hashes for
    the whole grid at once.  Every stream draws its candidates and then its
    noise.  One read per stream gives the first candidate and the noise that
    follows it when that candidate lies in the chart domain; the domain is
    screened once for all first candidates, and only a rejected sample's
    stream is replayed from the same words past its first candidate to
    redraw."""
    words = _stream_words(seed, taus, count)
    seed_words = _seed_words_type()
    first = np.empty((taus, count, 3 + noise_dim))
    for row, out in zip(words.reshape(-1, 4), first.reshape(-1, 3 + noise_dim)):
        np.random.Generator(np.random.PCG64(seed_words(row))).standard_normal(out=out)
    draws = first[..., :3] @ root.T
    noise = first[..., 3:].copy()
    rejected = np.zeros(taus, dtype=int)
    for j, i in zip(*np.nonzero(~_SO3.in_domain(draws))):
        rng = np.random.Generator(np.random.PCG64(seed_words(words[j, i])))
        rng.standard_normal(3)                 # the rejected first candidate
        for attempt in range(1, 1000):
            draws[j, i] = root @ rng.standard_normal(3)
            if _SO3.in_domain(draws[j, i]):
                break
        else:
            raise RejectionOverflowError("prior draw kept leaving the chart domain")
        rejected[j] += attempt
        noise[j, i] = rng.standard_normal(noise_dim)
    return draws, noise, rejected


def run_sweep(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Evaluate plain vs modified fusion over the tau grid.

    Both estimators consume the identical observation for each sample, so the
    cost differences isolate the group-mean correction.  The samples of every
    tau are drawn from their own streams and then fused as one stacked batch
    of shape (taus, samples): one linearization (vector model) and one chart
    update per sweep, with one gain and one chart covariance per tau; the
    costs read only the means that both estimators map to the group through
    one exp and score through one chart logarithm.  A sample whose innovation
    or either scoring logarithm leaves the chart domain is excluded pairwise and
    counted, and ``fusion._costs`` scores every tau over its kept samples
    (NaN if none).  The run fails with RejectionOverflowError under the
    rule of ``distribution.sample`` (more than 1% and more than 10 prior
    draws redrawn), and with ExclusionOverflowError if more than 0.1% of
    all samples are excluded.
    Each record's ``rejected`` and ``excluded`` count its own tau's redrawn
    prior draws and excluded samples.
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

    draws, noise, rejected = _draw_streams(cfg.seed, len(taus), cfg.sample_count,
                                           root, len(shape))
    _check_rejections(int(rejected.sum()), total)
    truth = mu @ _SO3.exp(draws)                            # (taus, samples, 3, 3)
    noise *= np.sqrt(taus[:, None, None] * np.diag(shape))
    R = symmetrize(taus[:, None, None] * shape)
    if euclidean:
        linearization = _linearize(_SO3, measure_euclidean, mu, P)
        z, valid = measure_euclidean(truth) + noise, True
    else:
        # H = I; the innovation's mask is the screen: its NaN rows leave through ok
        linearization = (0.0, np.eye(3), 0.0)
        z, valid = _SO3.log_masked(np.linalg.inv(mu) @ (truth @ _SO3.exp(noise)))
    m, cov = _kalman_step(linearization, P, R, z)
    estimates = _posterior_means(_SO3, mu, m, cov)          # (2, taus, samples, 3, 3)
    errors, scored = _SO3.log_masked(np.swapaxes(truth, -1, -2) @ estimates)
    ok = valid & scored.all(axis=0)                        # (taus, samples)
    excluded_per_tau = cfg.sample_count - ok.sum(axis=1)
    excluded = int(excluded_per_tau.sum())
    c1, c2 = _costs(errors, ok)                            # (2, taus) each, plain first
    costs = zip(*c1.tolist(), *c2.tolist())
    elapsed = time.perf_counter() - start
    records = [TrialRecord(float(tau), *cost, rejected=int(rej), excluded=int(exc))
               for tau, cost, rej, exc in zip(taus, costs, rejected, excluded_per_tau)]
    log.info("%d taus done in %.3f s", len(taus), elapsed)

    if excluded > EXCLUSION_LIMIT * total:
        raise ExclusionOverflowError(
            f"{excluded}/{total} samples excluded by chart-domain errors "
            f"(limit {EXCLUSION_LIMIT:.1%})", records=records)
    if excluded:
        log.warning("%d/%d samples excluded by chart-domain errors",
                    excluded, total)
    return records


def emit_csv(records: list[TrialRecord], path) -> None:
    """Write one row per tau, ascending, in full-precision scientific notation.

    The file holds results only, so it is byte-reproducible from
    (config, seed); the sweep's elapsed time goes to the log.
    """
    lines = ["tau,c1_plain,c1_mod,c2_plain,c2_mod"]
    for rec in sorted(records, key=lambda r: r.tau):
        lines.append(",".join(
            f"{v:.17e}" for v in (rec.tau, rec.c1_plain, rec.c1_modified,
                                  rec.c2_plain, rec.c2_modified)))
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
