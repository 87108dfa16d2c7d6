"""Benchmark of liefilter: closed-loop workloads and a per-layer traced run.

Usage, from the repository root:

    python3 bench/run.py --workload {sweep,pose,paths} --seed N \
        --seconds S --trace {0,1}

The library is imported from ``src/`` next to this directory.  One process
is the single caller; BLAS runs on one thread.  Inputs derive from
``--seed`` only.

``--trace 0`` sets the workload up, then runs passes for ``--seconds``,
setting it up again after each pass, and reports the end-to-end metrics:
``setup_s`` (the median import time of the library plus the median set-up),
``latency_ms_p90`` (per pose cycle, per sweep or paths pass; see
``workloads.py`` for why) and ``peak_rss_mb``.
The median latency and the throughput go to the record only: on a shared box
they follow bursts of a faster CPU, while the 90th percentile stays at the
contended speed.  ``--trace 1`` runs untraced passes for half the time and
traced passes for the other half, and reports the per-layer metrics together
with the tracing overhead (untraced over traced throughput).

The first pass's output must pass the workload's correctness gate, and every
later pass must repeat it bit for bit (see ``gates.py``); otherwise the result
is printed with ``"correct": false`` and the exit code is 1.  The last line of
standard output is the result as JSON; the full record, including the machine
and the figures BENCHMARK.json does not list, goes to ``bench/out/``.
"""

from __future__ import annotations

import os
import time

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

IMPORT_REPEATS = 5
SETUP_REPEATS = 10      # set-ups per untraced run, the first one included


def import_seconds() -> float:
    """Median time to import every liefilter module the workloads use.

    Set-up time counts importing the library, not numpy under it.  The
    library is imported afresh ``IMPORT_REPEATS`` times, so a single slow
    read from disk does not set the figure; the last import is the one used.
    """
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] == "liefilter"]:
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module("liefilter")
        importlib.import_module("liefilter.experiments")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


IMPORT_SECONDS = import_seconds()

import gates  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = HERE / "out"
with open(HERE.parent / "BENCHMARK.json") as _fh:
    BENCHMARK = json.load(_fh)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS,
            "cpu": cpu,
            "load_1min": os.getloadavg()[0]}


def timed_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def run_passes(workload, seconds: float, outputs: dict,
               setups: list | None = None) -> list[workloads.Pass]:
    """Passes until ``seconds`` have elapsed (at least one).

    ``outputs["first"]`` keeps the first pass's output; later outputs are
    compared with it as they arrive, then dropped, and any difference sets
    ``outputs["differs"]``.  With ``setups`` given, the workload is set up
    again after a pass each time another 1/SETUP_REPEATS of the run has
    passed, and the time appended: repeats spread over the run see the
    machine in more than one state.
    """
    passes = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        p = workload.run_pass()
        if "first" not in outputs:
            outputs["first"] = p.output
        elif not gates.same_output(outputs["first"], p.output):
            outputs["differs"] = True
        p.output = None
        passes.append(p)
        if (setups is not None and time.perf_counter()
                >= start + seconds * len(setups) / SETUP_REPEATS):
            setups.append(timed_setup(workload))
        if time.perf_counter() >= deadline:
            return passes


def throughput(passes) -> float:
    """Work items per second over the passes."""
    return sum(p.units for p in passes) / sum(p.seconds for p in passes)


def summed_counters(passes) -> dict:
    out = {}
    for p in passes:
        for key, value in p.counters.items():
            out[key] = out.get(key, 0) + value
    return out


def end_to_end(passes, setup_s: float) -> dict:
    """The end-to-end figures of an untraced run.

    BENCHMARK.json lists only those that are steady on a shared box; the
    median latency and the throughput are kept in the record for reading.
    """
    latencies = np.concatenate([p.latencies_ms for p in passes])
    p50, p90 = np.percentile(latencies, [50, 90])
    return {"setup_s": setup_s,
            "latency_count": len(latencies),
            "latency_ms_p50": float(p50),
            "latency_ms_p90": float(p90),
            "throughput_per_s": throughput(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def listed(specs, values: dict) -> dict:
    """The metrics BENCHMARK.json lists, in its order and with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    print(json.dumps({"machine": record["machine"]}))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    outputs: dict = {}

    if args.trace:
        workload.setup()
        plain = run_passes(workload, args.seconds / 2, outputs)
        tracer = tracing.Tracer()
        workload.begin_unit = tracer.new_op
        tracer.install()
        try:
            traced = run_passes(workload, args.seconds / 2, outputs)
        finally:
            tracer.uninstall()
        overhead = throughput(plain) / throughput(traced)
        values = tracing.layer_metrics(tracer, summed_counters(traced),
                                       summed_counters(plain), overhead)
        metrics = listed(BENCHMARK["per_layer"], values)
        passes = plain + traced
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        setups = [timed_setup(workload)]
        passes = run_passes(workload, args.seconds, outputs, setups)
        record["setup_repeats_s"] = setups
        record["import_s"] = IMPORT_SECONDS
        record["end_to_end"] = end_to_end(passes, IMPORT_SECONDS + statistics.median(setups))
        metrics = listed(BENCHMARK["end_to_end"], record["end_to_end"])

    failures = ["pass outputs differ between passes"] if "differs" in outputs else []
    failures += gates.check(workload, outputs["first"], gates.load_reference())
    for message in failures:
        print(f"gate: {message}", file=sys.stderr)
    result = {"correct": not failures,
              "attempted": sum(p.attempted for p in passes),
              "failed": sum(p.failed for p in passes),
              "metrics": metrics}
    record.update(result, gate_failures=failures,
                  passes=[{"units": p.units, "seconds": p.seconds,
                           "latencies_ms": p.latencies_ms} for p in passes])
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
