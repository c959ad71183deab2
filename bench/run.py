"""kdspin benchmark entry point.

Run from the repository root:

    python3 bench/run.py --workload tile-q2q3 --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics; ``--trace 1`` reruns it under the per-layer tracer (one worker)
and prints the per-layer metrics.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a human-readable report with the environment.
``--small`` shrinks every workload to a few seconds, for the self-tests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kdspin" / "__init__.py").is_file():
        print(f"error: kdspin sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    settings = workloads.Settings(seed=args.seed, seconds=args.seconds, small=args.small)
    workload = workloads.WORKLOADS[args.workload](settings)
    try:
        if args.trace:
            metrics, details = workload.traced(), {}
        else:
            metrics, details = workload.end_to_end()
    finally:
        shutil.rmtree(workloads.WORK / workload.run_id, ignore_errors=True)

    tally = workload.tally
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": workloads.environment(args.seed),
        "details": details,
        "problems": tally.problems,
        "fail_frac": f"{tally.fail_count}/{tally.attempted}",
        "wrong_frac": f"{tally.wrong}/{tally.attempted}",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(json.dumps(record, default=float))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
