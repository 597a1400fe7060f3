"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload nest-analysis --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
workload once untraced and once traced and prints the per-layer
metrics.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it holds the environment, error and wrong-answer
counts, route checks and (traced) the self-time table.  See
``perfbench/README.md``.
"""

import argparse
import json
import os
import subprocess
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402

WORKLOADS = ("nest-analysis", "serve-cold", "serve-warm")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if name == "nest-analysis":
        from perfbench import nest_workload

        return nest_workload.run(seed, seconds, trace, smoke)
    from perfbench import serve_workload

    return serve_workload.run(name, seed, seconds, trace, smoke)


def result_line(result: dict, trace: bool) -> dict:
    units = dict(PER_LAYER) if trace else common.END_TO_END
    metrics = result["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise common.BenchError("metrics not measured: %s" % ", ".join(missing))
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        line = result_line(result, bool(args.trace))
    except (common.BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        traceback.print_exc()
        print("perfbench: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    print(json.dumps(result["details"], sort_keys=True, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
