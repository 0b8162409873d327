"""Run every benchmark workload, repeat it, and compare two results.

Usage, from the repository root::

    python -m perf run [--seed N] [--trace] [--repeat N] [--seconds S] [--out FILE]
    python -m perf compare BASE.json CHANGE.json

``run`` starts each workload in its own fresh process (``perf/run.py``),
one after another, and alternates the workload order between
repetitions; repetition ``r`` uses seed ``N + r``. It prints the median
and quartiles of every metric per workload and writes all runs to
``--out``. With ``--trace`` every untraced run is followed by a traced
one, whose per-layer metrics are reported separately.

``compare`` pairs the runs of two result files by repetition and applies
the bounds in ``BENCHMARK.json``: a metric *improved* when there are at
least 10 pairs, the change wins at least 9 in 10 of them and the medians
differ by more than the base's quartile spread; it *regressed* when its
median is worse by more than the bound; it is *unresolved* when the
base's own spread exceeds the bound and the change does not beat every
base run. Both files must come from runs of the same length.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from perf.catalog import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perf", "run.py")


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One ``perf/run.py`` process; its parsed result plus exit code."""
    command = [
        sys.executable, RUN, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ] + (["--smoke"] if smoke else [])
    began = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    result.update(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        exit_code=proc.returncode, wall_s=time.perf_counter() - began,
    )
    return result


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def cmd_run(args) -> int:
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    runs = []
    for rep in range(args.repeat):
        order = WORKLOADS if rep % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            for trace in (False, True) if args.trace else (False,):
                result = run_once(workload, args.seed + rep, args.seconds, trace, args.smoke)
                runs.append(result)
                status = "ok" if result["exit_code"] == 0 else f"FAILED ({result['exit_code']})"
                print(
                    f"{workload:18s} seed={args.seed + rep} trace={int(trace)} "
                    f"{status} attempted={result['attempted']} failed={result['failed']} "
                    f"wall={result['wall_s']:.1f}s",
                    flush=True,
                )
    print()
    for trace in (False, True) if args.trace else (False,):
        print("per-layer (traced runs)" if trace else "end to end (untraced runs)")
        for workload in WORKLOADS:
            chosen = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            if not chosen or not chosen[0]["metrics"]:
                continue
            print(f"  {workload}")
            for name, entry in chosen[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in chosen if name in r["metrics"]]
                q1, median, q3 = summary(values)
                print(f"    {name:34s} {median:14.6g} {entry['unit']:9s} [{q1:.6g}, {q3:.6g}]")
    out = args.out or os.path.join(ROOT, "perf", "results", f"run-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump({"runs": runs}, handle, indent=1)
    print(f"\nwrote {out}")
    return 0 if all(r["exit_code"] == 0 for r in runs) else 1


def _values(results: dict, workload: str, name: str) -> list[float]:
    return [
        r["metrics"][name]["value"]
        for r in results["runs"]
        if r["workload"] == workload and not r["trace"] and name in r["metrics"]
    ]


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """The comparison rule of the module docstring, for one metric."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - old) > 0 is worse
    q1, med_a, q3 = summary(base)
    med_b = summary(change)[1]
    if q3 - q1 > bound * abs(med_a) and not all(
        sign * (b - a) < 0 for a in base for b in change
    ):
        return "unresolved"
    pairs = min(len(base), len(change))
    wins = sum(sign * (b - a) < 0 for a, b in zip(base, change))
    if pairs >= 10 and wins >= 0.9 * pairs and sign * (med_b - med_a) < -(q3 - q1):
        return "improved"
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "regressed"
    return "unchanged"


def cmd_compare(args) -> int:
    spec = benchmark_spec()
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.change) as handle:
        change = json.load(handle)
    lengths = {r["seconds"] for r in base["runs"] + change["runs"]}
    if len(lengths) != 1:
        print(f"runs of different lengths cannot be compared: {sorted(lengths)} s")
        return 2
    regressed = False
    print(f"{'workload':18s} {'metric':16s} {'base':>12s} {'change':>12s} {'bound':>6s}  verdict")
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            a = _values(base, workload, metric["name"])
            b = _values(change, workload, metric["name"])
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            print(
                f"{workload:18s} {metric['name']:16s} {summary(a)[1]:12.6g} "
                f"{summary(b)[1]:12.6g} {metric['bound']:6.3f}  {result}"
            )
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run all four workloads")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    run.add_argument("--repeat", type=int, default=1)
    run.add_argument("--trace", action="store_true", help="add a traced run per workload")
    run.add_argument("--smoke", action="store_true", help="micro sizes, for self-tests")
    run.add_argument("--out", help="result file (default perf/results/run-seed<N>.json)")
    compare = sub.add_parser("compare", help="compare two result files")
    compare.add_argument("base")
    compare.add_argument("change")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
