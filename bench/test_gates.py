"""Self-tests of the benchmark: each gate passes the real output and fails a
deliberately broken one, and the tracer sees names where they are looked up.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gates  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from liefilter import distribution, experiments, fusion, groups, propagation  # noqa: E402

OTHER_SEED = 7          # a seed with no stored reference


@pytest.fixture(scope="module")
def reference():
    return gates.load_reference()


def swap_columns(rows):
    return [[tau, c1m, c1p, c2m, c2p] for tau, c1p, c1m, c2p, c2m in rows]


def test_sweep_gate_stored_reference(reference):
    w = workloads.Sweep(workloads.DEFAULT_SEED)
    out = w.run_pass().output
    assert gates.check(w, out, reference) == []
    swapped = {model: swap_columns(rows) for model, rows in out.items()}
    assert gates.check(w, swapped, reference)
    smallest_tau = {model: [[v * (1 + 1e-6) for v in rows[0]]] + rows[1:]
                    for model, rows in out.items()}
    assert gates.check(w, smallest_tau, reference)


def test_sweep_gate_recomputed_reference(reference):
    w = workloads.Sweep(OTHER_SEED)
    out = w.run_pass().output
    assert gates.check(w, out, reference) == []
    assert gates.check(w, {m: swap_columns(rows) for m, rows in out.items()}, reference)
    assert gates.check(w, {"group": None, "euclidean": out["euclidean"]}, reference)


def run_pose(seed):
    w = workloads.Pose(seed)
    w.setup()
    return w, w.run_pass().output


def rotate_means(w, out, angle):
    """The output with every estimate turned by ``angle`` about the first axis."""
    step = np.zeros(w.spec.group.dim)
    step[0] = angle
    return {"means": out["means"] @ w.spec.group.exp(step), "covs": out["covs"]}


def test_pose_gate_rejects_perturbed_posterior(reference):
    w, out = run_pose(workloads.DEFAULT_SEED)
    assert gates.check(w, out, reference) == []
    assert gates.check(w, rotate_means(w, out, 1e-6), reference)
    assert gates.check(w, {"means": out["means"], "covs": out["covs"] * (1 + 1e-6)},
                       reference)


def test_pose_tracking_gate_rejects_biased_estimate(reference):
    w, out = run_pose(OTHER_SEED)
    assert gates.check(w, out, reference) == []
    assert gates.check(w, rotate_means(w, out, 0.2), reference)
    stale = {"means": np.broadcast_to(w.prior_mean, out["means"].shape),
             "covs": out["covs"]}
    assert gates.check(w, stale, reference)


@pytest.fixture(scope="module")
def small_paths():
    w = workloads.Paths(OTHER_SEED)
    w.setup()
    return w, w.run_pass().output


def test_paths_gate_passes(small_paths):
    w, out = small_paths
    assert gates.check(w, out) == []


def test_paths_gate_rejects_shifted_mean(small_paths):
    w, out = small_paths
    ref, cand = workloads.PATH_PAIRS[0]
    logs = workloads.SO3_GROUP.log(np.linalg.inv(out[ref]["mean"]) @ out[ref]["finals"])
    shift = 5 * logs.std(axis=0) / np.sqrt(len(logs))
    broken = dict(out)
    broken[cand] = dict(out[cand], mean=out[cand]["mean"] @ workloads.SO3_GROUP.exp(shift))
    assert gates.check(w, broken)


def test_paths_gate_rejects_inflated_covariance_and_failed_sampler(small_paths):
    w, out = small_paths
    cand = workloads.PATH_PAIRS[2][1]
    assert gates.check(w, dict(out, **{cand: dict(out[cand], cov=out[cand]["cov"] * 1.1)}))
    assert gates.check(w, dict(out, **{cand: None}))


def test_same_output_detects_a_changed_value():
    a = {"x": np.arange(3.0), "rows": [[1.0, 2.0]]}
    assert gates.same_output(a, {"x": np.arange(3.0), "rows": [[1.0, 2.0]]})
    assert not gates.same_output(a, {"x": np.arange(3.0) + 1e-16 * 8, "rows": [[1.0, 2.0]]})
    assert not gates.same_output(a, {"x": np.arange(3.0), "rows": [[1.0, 2.5]]})


def test_tracer_wraps_imported_names_and_restores_them():
    originals = (distribution.project_psd, fusion.project_psd, experiments.fuse_group,
                 groups.SO3.exp, groups.MatrixLieGroup.exp)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fusion.project_psd is distribution.project_psd
        assert propagation.project_psd is distribution.project_psd
        assert propagation.expectation_nodes is distribution.expectation_nodes
        assert propagation.symmetrize is distribution.symmetrize
        assert fusion.fuse_group is experiments.fuse_group
        assert fusion.lie_derivative_right is groups.lie_derivative_right
        assert fusion.project_psd.__wrapped__ is originals[0]
        so3 = workloads.SO3_GROUP
        prior = distribution.ConcentratedGaussian(so3.exp(np.array([0.1, 0.2, 0.3])),
                                                  0.01 * np.eye(3))
        obs = fusion.ObservationModelEuclidean(experiments.measure_euclidean,
                                               0.1 * experiments.EUCLIDEAN_NOISE_SHAPE)
        fusion.fuse_euclidean(so3, prior, obs, experiments.measure_euclidean(prior.mean))
        so3.exp(np.zeros((5, 3)))
    finally:
        tracer.uninstall()
    assert (distribution.project_psd, fusion.project_psd, experiments.fuse_group,
            groups.SO3.exp, groups.MatrixLieGroup.exp) == originals
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    fuse = names.index("fusion.fuse_euclidean")
    children = {names[i] for i in np.flatnonzero(spans["parent"] == fuse)}
    assert {"distribution.project_psd", "groups.lie_derivative_right",
            "groups.lie_derivative_right_second", "groups.SO3.exp"} <= children
    # measure_euclidean reached fusion as a callable and is still traced: one
    # call here, then in fuse_euclidean one at the mean, two per first and
    # four per second derivative
    assert names.count("experiments.measure_euclidean") == 1 + 1 + 3 * 2 + 9 * 4
    assert spans["elems"][len(names) - 1 - names[::-1].index("groups.SO3.exp")] == 5
    child_time = spans["duration"][spans["parent"] == fuse].sum()
    assert spans["self"][fuse] == spans["duration"][fuse] - child_time


def test_every_listed_per_layer_metric_is_computed():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    values = tracing.layer_metrics(tracing.Tracer(), {}, {}, 1.0)
    assert sorted(listed) == sorted(values)
