"""The benchmark workloads.

Each workload is a single closed-loop caller: it issues one library call,
waits for the result and only then issues the next.  Library functions are
always looked up through their module (``experiments.run_sweep``, not a
name imported here), so the traced run sees every call once it has patched
the modules.

* ``sweep``  -- the paper's headline experiment: ``run_sweep`` for both
  observation models on the default 13-point tau grid.  Per-sample call
  overhead at batch 1; never touches ``sde`` or ``propagation``.
* ``pose``   -- an online SE(3) pose filter, SE(3) built from its basis: one
  RK4 ``propagate`` step and one ``fuse_euclidean`` per cycle.  The only
  workload on the generic power-series fallback of ``MatrixLieGroup``.
* ``paths``  -- the acceptance-3 sampler set on 1e4 paths followed by group
  means and covariances.  Large-batch ``groups`` kernels and the ``sde``
  noise stream; bypasses ``fusion``, ``propagation`` and ``experiments``.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from liefilter import distribution, experiments, fusion, groups, propagation, sde
from liefilter.errors import (
    DomainExitError,
    ExclusionOverflowError,
    InnovationSingularError,
    NonConcentratedWarning,
    StepRejectedError,
)

DEFAULT_SEED = 42

# Sizes of one pass.  Latency is timed per unit of the same kind: a sweep
# pass (both models), a pose cycle or a paths pass (all five samplers).  A
# percentile over a mix of unlike calls would land inside one kind's spread
# and follow the machine's speed.  A sweep or paths pass takes 0.2-0.4 s at
# the seed commit, so a 30 s run times about a hundred of them, and still
# lasts milliseconds after the 50-100x gains the roadmap predicts.
SWEEP_SAMPLES_PER_TAU = 8
POSE_CYCLES = 16
PATH_COUNT = 10_000
PATH_STEPS = 2

SO3_GROUP = groups.SO3()


def const(value):
    arr = np.asarray(value, float)
    return lambda state, t: arr


@dataclass
class Pass:
    """What one pass of a workload did and how long it took."""

    units: int                   # work items completed (samples, cycles, path-steps)
    seconds: float
    latencies_ms: list[float]    # one per caller-visible unit of waiting
    attempted: int
    failed: int
    output: object
    counters: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def begin_unit(self) -> None:
        """Hook called before each unit of work; the traced run numbers spans by it."""

    def setup(self) -> None:
        """Generate the inputs and finish one warm-up unit."""
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError


# -- sweep -------------------------------------------------------------------

class _ExclusionRecords(logging.Handler):
    """Collects the excluded-sample count from run_sweep's warning record."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.excluded = 0

    def emit(self, record):
        if "excluded" in str(record.msg) and len(record.args) == 2:
            self.excluded += int(record.args[0])


def sweep_rows(records) -> list[list[float]]:
    return [[r.tau, r.c1_plain, r.c1_modified, r.c2_plain, r.c2_modified]
            for r in records]


class Sweep(Workload):
    name = "sweep"
    models = ("group", "euclidean")

    def _sweep(self, model: str, samples_per_tau: int):
        """One run_sweep call; returns (rows or None, attempted, excluded)."""
        cfg = experiments.ExperimentConfig(model=model, sample_count=samples_per_tau,
                                           seed=self.seed)
        attempted = samples_per_tau * len(cfg.tau_grid)
        log = logging.getLogger(experiments.__name__)
        handler = _ExclusionRecords()
        log.addHandler(handler)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonConcentratedWarning)
                rows = sweep_rows(experiments.run_sweep(cfg))
        except ExclusionOverflowError:
            return None, attempted, attempted
        finally:
            log.removeHandler(handler)
        return rows, attempted, handler.excluded

    def setup(self) -> None:
        for model in self.models:
            self._sweep(model, 1)

    def run_pass(self) -> Pass:
        output, attempted, failed, seconds = {}, 0, 0, 0.0
        counters = {}
        for model in self.models:
            self.begin_unit()
            start = time.perf_counter()
            rows, n, excluded = self._sweep(model, SWEEP_SAMPLES_PER_TAU)
            elapsed = time.perf_counter() - start
            seconds += elapsed
            output[model] = rows
            attempted += n
            failed += excluded
            counters[f"samples_{model}"] = n
            counters[f"seconds_{model}"] = elapsed
        counters["excluded"] = failed
        return Pass(attempted, seconds, [seconds * 1e3], attempted, failed,
                    output, counters)


# -- filter and pose -----------------------------------------------------------

def gyro_drift(rotation: np.ndarray) -> np.ndarray:
    """Nonlinear body-rate drift of acceptance test 5, for (..., 3, 3) input."""
    w = np.einsum("...ji,j->...i", rotation, np.array([0.4, -0.1, 0.3]))
    return 0.5 * np.stack([np.sin(w[..., 0]), w[..., 1], np.cos(w[..., 2]) - 1],
                          axis=-1)


def se3_group() -> groups.MatrixLieGroup:
    """SE(3) as 4x4 homogeneous matrices; coordinates are (rotation, translation)."""
    basis = np.zeros((6, 4, 4))
    basis[:3, :3, :3] = SO3_GROUP.basis
    for i in range(3):
        basis[3 + i, i, 3] = 1.0
    return groups.MatrixLieGroup(basis, name="SE(3)")


def pose_drift(pose, t):
    angular = gyro_drift(pose[..., :3, :3])
    linear = np.broadcast_to([1.0, 0.0, 0.1], angular.shape)
    return np.concatenate([angular, linear], axis=-1)


DOWN = np.array([0.0, 0.0, -1.0])


def measure_pose(pose: np.ndarray) -> np.ndarray:
    """Gravity direction in the body frame and position in the world frame."""
    pose = np.asarray(pose, float)
    down = np.einsum("...ji,j->...i", pose[..., :3, :3], DOWN)
    return np.concatenate([down, pose[..., :3, 3]], axis=-1)


def se3_log(pose: np.ndarray) -> np.ndarray:
    """Exponential coordinates of SE(3) elements, via the SO(3) closed forms."""
    phi = SO3_GROUP.log(pose[..., :3, :3])
    rho = np.einsum("...ij,...j->...i", SO3_GROUP.left_jacobian_inv(phi),
                    pose[..., :3, 3])
    return np.concatenate([phi, rho], axis=-1)


@dataclass
class FilterSpec:
    """A closed-loop filter problem: truth model, observation model, sizes."""

    group: groups.MatrixLieGroup
    model: sde.SdeModel
    start: np.ndarray                 # truth at t = 0
    prior_cov: np.ndarray
    noise_cov: np.ndarray             # observation noise
    measure: Callable[[np.ndarray], np.ndarray]
    log: Callable[[np.ndarray], np.ndarray]   # chart coordinates, for the tracking gate
    cycles: int
    dt: float = 0.05


def pose_spec() -> FilterSpec:
    se3 = se3_group()
    return FilterSpec(
        group=se3,
        model=sde.SdeModel(pose_drift, const(np.diag([0.1] * 3 + [0.2] * 3))),
        start=se3.exp(np.array([0.2, 0.4, -0.3, 1.0, -2.0, 0.5])),
        prior_cov=np.diag([0.01] * 3 + [0.04] * 3),
        noise_cov=np.diag([1e-3] * 3 + [1e-2] * 3),
        measure=measure_pose,
        log=se3_log,
        cycles=POSE_CYCLES)


class Filter(Workload):
    """Predict (one RK4 step) then update (fuse_euclidean), once per cycle."""

    def __init__(self, seed: int, spec: FilterSpec):
        super().__init__(seed)
        self.spec = spec

    def setup(self) -> None:
        spec = self.spec
        path_cfg = sde.PathConfig(total_time=spec.cycles * spec.dt, steps=spec.cycles,
                                  seed=self.seed, path_count=1)
        self.truth = sde.sample_nonparametric_path(spec.group, spec.model, spec.start,
                                                   path_cfg)[0]
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(1,)))
        dim = spec.group.dim
        offset = np.linalg.cholesky(spec.prior_cov) @ rng.standard_normal(dim)
        self.prior_mean = spec.start @ spec.group.exp(offset)
        noise_root = np.linalg.cholesky(spec.noise_cov)
        clean = spec.measure(self.truth)
        self.observations = clean + rng.standard_normal(clean.shape) @ noise_root.T
        self.obs = fusion.ObservationModelEuclidean(spec.measure, spec.noise_cov)
        self._cycle(self.prior_mean, spec.prior_cov, 0)

    def _cycle(self, mean, cov, k):
        """Cycle k+1: propagate from t_k to t_{k+1}, then fuse observation k+1."""
        spec = self.spec
        state = propagation.PropagationState(mean, cov, k * spec.dt)
        state = propagation.propagate(spec.group, state, spec.model, spec.dt,
                                      propagation.PropagationConfig(dt=spec.dt))[-1]
        prior = distribution.ConcentratedGaussian(state.mean, state.cov)
        post = fusion.fuse_euclidean(spec.group, prior, self.obs, self.observations[k + 1])
        return post.mean, post.cov

    def run_pass(self) -> Pass:
        spec = self.spec
        mean, cov = self.prior_mean, spec.prior_cov
        latencies, means, covs, failed = [], [], [], 0
        for k in range(spec.cycles):
            self.begin_unit()
            start = time.perf_counter()
            try:
                mean, cov = self._cycle(mean, cov, k)
            except (StepRejectedError, InnovationSingularError):
                failed += 1
            latencies.append((time.perf_counter() - start) * 1e3)
            means.append(mean)
            covs.append(cov)
        output = {"means": np.asarray(means), "covs": np.asarray(covs)}
        return Pass(spec.cycles, sum(latencies) / 1e3, latencies, spec.cycles, failed,
                    output)


class Pose(Filter):
    name = "pose"

    def __init__(self, seed: int):
        super().__init__(seed, pose_spec())


# -- paths ---------------------------------------------------------------------

PATH_DRIFT = np.array([0.3, -0.2, 0.1])
PATH_DIFFUSION = np.array([[0.2, 0.05, 0.0], [0.0, 0.18, 0.04], [0.02, 0.0, 0.15]])
PATH_START = SO3_GROUP.exp(np.array([0.4, 0.2, -0.3]))
PATH_TIME = 0.5

# Pairs the acceptance-3 equivalence test compares: (reference, candidate).
PATH_PAIRS = (("ito", "ito_parametric"),
              ("stratonovich", "stratonovich_to_ito"),
              ("stratonovich", "stratonovich_parametric"))


class Paths(Workload):
    name = "paths"

    def _samplers(self, cfg):
        so3, mu = SO3_GROUP, PATH_START
        ito = sde.SdeModel(const(PATH_DRIFT), const(PATH_DIFFUSION))
        strat = sde.SdeModel(const(PATH_DRIFT), const(PATH_DIFFUSION), sde.STRATONOVICH)
        ito_par = sde.ito_injection_to_parametric(so3, ito, mu)
        strat_ito = sde.stratonovich_to_ito(so3, strat)
        strat_par = sde.stratonovich_injection_to_parametric(so3, strat, mu)

        def nonparametric(model):
            return lambda: sde.sample_nonparametric_path(so3, model, mu, cfg,
                                                         store_path=False)

        def parametric(model):
            return lambda: mu @ so3.exp(sde.sample_parametric_path(
                so3, model, np.zeros(3), cfg, store_path=False))

        return {"ito": nonparametric(ito),
                "stratonovich": nonparametric(strat),
                "ito_parametric": parametric(ito_par),
                "stratonovich_to_ito": nonparametric(strat_ito),
                "stratonovich_parametric": parametric(strat_par)}

    def _config(self, steps):
        return sde.PathConfig(total_time=PATH_TIME, steps=steps, seed=self.seed,
                              path_count=PATH_COUNT)

    def setup(self) -> None:
        self.samplers = self._samplers(self._config(PATH_STEPS))
        for draw in self._samplers(self._config(1)).values():
            self._moments(draw)

    @staticmethod
    def _moments(draw):
        finals = draw()
        mean = distribution.empirical_group_mean(SO3_GROUP, finals)
        cov = distribution.empirical_covariance(SO3_GROUP, finals, mean.mean)
        return finals, mean, cov

    def run_pass(self) -> Pass:
        output, failed, iterations = {}, 0, 0
        self.begin_unit()
        start = time.perf_counter()
        for label, draw in self.samplers.items():
            try:
                finals, mean, cov = self._moments(draw)
            except DomainExitError:
                failed += 1
                output[label] = None
                continue
            iterations += mean.iterations
            output[label] = {"finals": finals, "mean": mean.mean, "cov": cov}
        seconds = time.perf_counter() - start
        units = len(self.samplers) * PATH_COUNT * PATH_STEPS
        counters = {"domain_exits": failed, "mean_calls": len(self.samplers) - failed,
                    "mean_iterations": iterations}
        return Pass(units, seconds, [seconds * 1e3], len(self.samplers), failed,
                    output, counters)


WORKLOADS = {"sweep": Sweep, "pose": Pose, "paths": Paths}
