"""Write ``reference.json``: the default-seed outputs the gates compare against.

Run from the repository root as ``python3 bench/make_reference.py``.  Only
regenerate it when a change is meant to move the results, and say in the
change by how much each stored value moved.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gates  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    seed = workloads.DEFAULT_SEED
    sweep = workloads.Sweep(seed)
    reference = {"seed": seed,
                 "sweep": {"samples_per_tau": workloads.SWEEP_SAMPLES_PER_TAU,
                           **sweep.run_pass().output}}
    pose = workloads.Pose(seed)
    pose.setup()
    out = pose.run_pass().output
    reference["pose"] = {"cycles": pose.spec.cycles, "mean": out["means"][-1].tolist(),
                         "cov": out["covs"][-1].tolist()}
    with open(gates.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
