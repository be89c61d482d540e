"""Record the reference objectives the output check compares against.

    python3 benchmarks/references.py [--workload NAME ...]

Solves every recorded variant of each workload once with the package in
``src/`` and writes the final objectives to ``benchmarks/references.json``.
Re-record only when a change is meant to alter the answers (and say so);
a speed-up must reproduce the recorded values within ``rel_tol``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets up the package import)

# The answer may move by inner-solver tolerance (KM stops at 1e-10 on the
# weights) and roundoff, nothing more.
REL_TOL = 1e-7


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    run.single_thread_blas()
    pvs = run.import_package(run.ROOT / "src")
    import workloads

    table = {"rel_tol": REL_TOL, "workloads": {}}
    if workloads.REFERENCES.exists():
        table = json.loads(workloads.REFERENCES.read_text())
    for name in args.workload or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        objectives = []
        for variant in range(workloads.VARIANTS):
            instance = workloads.make_instance(workload, variant, run.no_span)
            trace = pvs.run_pvs(instance.problem, workloads.solver_config(workload),
                                instance.x1)
            value = workloads.final_objective(workload, instance, trace.final_x)
            oracle = workloads.oracle_value(workload, instance, variant)
            print("%s variant %2d: objective %.12g%s" % (
                name, variant, value,
                "" if oracle is None else ", oracle margin %.4g" % (oracle - value)),
                flush=True)
            objectives.append(value)
        table["workloads"][name] = {"max_iter": workload.max_iter,
                                    "objectives": objectives}
    table["rel_tol"] = REL_TOL
    workloads.REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
