"""Run one benchmark workload once and print its result as JSON.

Usage, from the repository root::

    python3 perf/run.py --workload point-unique --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
The exit code is 0 only when every answer passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="micro sizes, for self-tests")
    args = parser.parse_args(argv)

    # The program is imported from this checkout's sources, never from an
    # installed copy; without them the run exits nonzero before printing
    # a result. The script's own directory leaves sys.path, or
    # perf/trace.py would shadow the standard library's trace module.
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"{ROOT} holds no src/repro: nothing to benchmark")
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [ROOT, os.path.join(ROOT, "src")] + [
        p for p in sys.path if os.path.abspath(p or ".") != here
    ]
    from perf import workloads

    result = workloads.run(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=workloads.SMOKE if args.smoke else workloads.FULL,
        work_dir=os.path.join(ROOT, "perf", "results"),
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
