"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro.bench list
    python -m repro.bench table3
    python -m repro.bench fig4 --dataset wisdm
    REPRO_BENCH_SCALE=full python -m repro.bench table5

Each command prints the paper-style table (and records it under
``benchmarks/results/``, like the pytest benchmarks do).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench import bench_scale, experiments, record_table, runtime_provenance


def _single_dataset(args) -> str:
    return args.dataset or "twi"


def _write_summary(args, default_name: str, summary: dict) -> None:
    """Stamp provenance into ``summary`` and write the BENCH_*.json report.

    Every gate report records the numpy/BLAS stack it ran on — latency
    ratios (and, for the float32 tier, low-order bits) are only
    comparable between runs of the same numeric stack.
    """
    summary["provenance"] = runtime_provenance()
    out = args.output or default_name
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")


def cmd_table1(args) -> None:
    headers, rows = experiments.dataset_statistics()
    record_table("table1_datasets", headers, rows, title="Table 1: datasets")


def cmd_accuracy(args, dataset: str, name: str) -> None:
    headers, rows, _ = experiments.accuracy_table(dataset)
    record_table(name, headers, rows, title=f"Estimation errors on {dataset.upper()}")


def cmd_fig4(args) -> None:
    dataset = _single_dataset(args)
    headers, rows = experiments.inference_times(dataset)
    record_table(f"fig4_inference_{dataset}", headers, rows,
                 title=f"Figure 4: inference time on {dataset.upper()} (ms)")


def cmd_table5(args) -> None:
    headers, rows = experiments.join_accuracy_table()
    record_table("table5_imdb", headers, rows, title="Table 5: IMDB join errors")


def cmd_table6(args) -> None:
    headers, rows = experiments.model_sizes()
    record_table("table6_model_size", headers, rows, title="Table 6: model sizes (MB)")


def cmd_table7(args) -> None:
    headers, rows = experiments.batch_inference_table()
    record_table("table7_batch_inference", headers, rows,
                 title="Table 7: batch inference (ms/query)")


def cmd_fig5(args) -> None:
    headers, rows = experiments.end_to_end_table()
    record_table("fig5_end_to_end", headers, rows, title="Figure 5: end-to-end time")


def cmd_fig6(args) -> None:
    dataset = _single_dataset(args)
    curve, seconds = experiments.training_curve(dataset)
    rows = [[epoch + 1, round(err, 2)] for epoch, err in curve]
    record_table("fig6_training_curve", ["Epoch", "Max q-error"], rows,
                 title=f"Figure 6: training on {dataset.upper()} ({seconds:.1f}s total)")


def cmd_table8(args) -> None:
    dataset = _single_dataset(args)
    headers, rows = experiments.training_times(dataset)
    record_table("table8_training_time", headers, rows, title="Table 8: training time (s)")


def cmd_reducers(args) -> None:
    dataset = _single_dataset(args)
    headers, rows = experiments.reducer_comparison(dataset)
    record_table(f"reducers_{dataset}", headers, rows,
                 title=f"Domain reducers on {dataset.upper()}")


def cmd_serve(args) -> None:
    dataset = _single_dataset(args)
    headers, rows, _ = experiments.serve_throughput(dataset)
    record_table(f"serve_throughput_{dataset}", headers, rows,
                 title=f"Serving throughput on {dataset.upper()} "
                       "(micro-batching + cache vs sequential)")


def cmd_fig7(args) -> None:
    dataset = _single_dataset(args)
    headers, rows = experiments.component_sweep(dataset)
    record_table("fig7_table12_components", headers, rows,
                 title=f"Figure 7 / Table 12: components on {dataset.upper()}")


def cmd_inference(args) -> int:
    """Compiled-runtime latency gate: plan vs Module path, bitwise-checked.

    Writes ``BENCH_inference.json`` (p50 latencies, speedup ratio, and
    the bitwise-equality flag) and exits nonzero if the plan path ever
    disagrees with the Module path — CI runs this with ``--smoke``.
    """
    if args.smoke:
        # Must happen before any driver reads bench_scale() (it is lazy).
        os.environ["REPRO_BENCH_SCALE"] = "micro"
    dataset = _single_dataset(args)
    headers, rows, summary = experiments.inference_runtime(dataset, n_queries=args.queries)
    record_table(
        f"inference_runtime_{dataset}", headers, rows,
        title=f"Compiled runtime vs Module path on {dataset.upper()} "
              f"(speedup p50 {summary['speedup_p50']:.1f}x, "
              f"bitwise_equal={summary['bitwise_equal']})",
    )
    _write_summary(args, "BENCH_inference.json", summary)
    if not summary["bitwise_equal"]:
        print(
            "ERROR: compiled-plan selectivities diverge from the Module path",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_inference_batch(args) -> int:
    """Cross-query batching gate: grouped estimate_batch vs per-query loop.

    Writes ``BENCH_inference_batch.json`` (per-batch-size latencies,
    signature-group shapes, prefix-cache stats, and the bitwise flags)
    and exits nonzero if the grouped driver ever disagrees bitwise with
    the per-query loop / sequential serving, or if the batch-32 speedup
    falls under 3x — CI runs this with ``--smoke``.
    """
    if args.smoke:
        # Must happen before any driver reads bench_scale() (it is lazy).
        os.environ["REPRO_BENCH_SCALE"] = "micro"
    dataset = _single_dataset(args)
    headers, rows, summary = experiments.inference_batch(dataset)
    record_table(
        f"inference_batch_{dataset}", headers, rows,
        title=f"Signature-grouped batch inference on {dataset.upper()} "
              f"(speedup at 32 {summary['speedup_at_32']:.1f}x, "
              f"bitwise_equal={summary['bitwise_equal']})",
    )
    _write_summary(args, "BENCH_inference_batch.json", summary)
    failed = False
    if not summary["bitwise_equal"]:
        print(
            "ERROR: grouped estimate_batch diverges from the per-query loop",
            file=sys.stderr,
        )
        failed = True
    if not summary["threaded"]["bitwise_equal"]:
        print(
            "ERROR: threaded served batches diverge from sequential estimates",
            file=sys.stderr,
        )
        failed = True
    if summary["speedup_at_32"] < 3.0:
        print(
            f"ERROR: batch-32 grouped speedup {summary['speedup_at_32']:.2f}x "
            "is under the 3x gate",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def cmd_inference_precision(args) -> int:
    """Precision-tier gate: float32 compiled plan vs the float64 oracle.

    Writes ``BENCH_inference_precision.json`` (per-tier latencies, the
    f64/f32 speedup ratio, the worst q-error ratio between tiers, plan
    and segment sizes, and the shared-memory round-trip flags) and exits
    nonzero if the float64 plan no longer matches the Module path
    bitwise, the float32 tier's worst q-error ratio exceeds 1.01, the
    tier speedup falls under 1.4x, the published float32 segment is not
    clearly smaller than the float64 one, the attach round-trip is not
    bitwise-faithful, or a segment leaked — CI runs this with
    ``--smoke``.
    """
    if args.smoke:
        # Must happen before any driver reads bench_scale() (it is lazy).
        os.environ["REPRO_BENCH_SCALE"] = "micro"
    dataset = _single_dataset(args)
    headers, rows, summary = experiments.inference_precision(
        dataset, n_queries=args.queries
    )
    record_table(
        f"inference_precision_{dataset}", headers, rows,
        title=f"Precision tiers on {dataset.upper()} "
              f"(f64/f32 speedup p50 {summary['speedup_p50']:.2f}x, "
              f"max q-error ratio {summary['max_qerror_ratio']:.6f})",
    )
    _write_summary(args, "BENCH_inference_precision.json", summary)
    failed = False
    if not summary["bitwise_f64"]:
        print(
            "ERROR: the float64 plan no longer matches the Module path bitwise",
            file=sys.stderr,
        )
        failed = True
    worst_qerror = max(
        summary["max_qerror_ratio"], summary["probe"]["max_qerror_ratio"]
    )
    if worst_qerror > 1.01:
        print(
            f"ERROR: float32 worst q-error ratio {worst_qerror:.6f} "
            "exceeds the 1.01 tolerance contract",
            file=sys.stderr,
        )
        failed = True
    if summary["speedup_p50"] < 1.4:
        print(
            f"ERROR: float32 tier speedup {summary['speedup_p50']:.2f}x "
            "is under the 1.4x gate",
            file=sys.stderr,
        )
        failed = True
    if summary["segment_ratio"] > 0.6:
        print(
            f"ERROR: float32 segment is {summary['segment_ratio']:.2f}x the "
            "float64 bytes — expected roughly half (<= 0.6x)",
            file=sys.stderr,
        )
        failed = True
    if not summary["shm_roundtrip_equal"]:
        print(
            "ERROR: attached float32 plan diverges from the in-process tier",
            file=sys.stderr,
        )
        failed = True
    if summary["leaked_segments"]:
        print(
            f"ERROR: leaked shared-memory segments: {summary['leaked_segments']}",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def cmd_training(args) -> int:
    """Compiled-training gate: cached-tape executor vs eager, bitwise-checked.

    Writes ``BENCH_training.json`` (steps/sec, p50 step latency, speedup,
    arena stats, and the equivalence flag) and exits nonzero if the
    compiled run does not reproduce eager per-epoch losses and final
    parameters bitwise, or if the steady-state speedup falls under 1.5x —
    CI runs this with ``--smoke``.
    """
    if args.smoke:
        # Must happen before any driver reads bench_scale() (it is lazy).
        os.environ["REPRO_BENCH_SCALE"] = "micro"
    dataset = _single_dataset(args)
    headers, rows, summary = experiments.training_runtime(dataset)
    record_table(
        f"training_runtime_{dataset}", headers, rows,
        title=f"Compiled training vs eager autodiff on {dataset.upper()} "
              f"(speedup {summary['speedup_steps_per_sec']:.1f}x, "
              f"bitwise_equal={summary['bitwise_equal']})",
    )
    _write_summary(args, "BENCH_training.json", summary)
    failed = False
    if not summary["bitwise_equal"]:
        print(
            "ERROR: compiled training diverges from the eager oracle "
            f"(losses_equal={summary['losses_equal']}, "
            f"params_equal={summary['params_equal']})",
            file=sys.stderr,
        )
        failed = True
    if summary["speedup_steps_per_sec"] < 1.5:
        print(
            "ERROR: compiled training speedup "
            f"{summary['speedup_steps_per_sec']:.2f}x is under the 1.5x gate",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def cmd_serve_scale(args) -> int:
    """Cluster-serving gate: sharded workers vs single-process, bitwise-checked.

    Closed-loop load generation against ``repro.serve.cluster`` across
    1/2/4/8 workers.  Writes ``BENCH_serve_scale.json`` (sustained QPS,
    p50/p99 latency, 1→4-worker scaling ratio, shed count, leak check)
    and exits nonzero if the cluster ever disagrees bitwise with a
    single-process ``estimate()``, if the load-shedding path went
    unexercised, or if a shared-memory segment leaked — CI runs this
    with ``--smoke``.
    """
    if args.smoke:
        # Must happen before any driver reads bench_scale() (it is lazy).
        os.environ["REPRO_BENCH_SCALE"] = "micro"
    dataset = _single_dataset(args)
    headers, rows, summary = experiments.serve_scale(dataset)
    scaling = summary["scaling_1_to_4"]
    record_table(
        f"serve_scale_{dataset}", headers, rows,
        title=f"Sharded serving scale-out on {dataset.upper()} "
              f"(QPS x{scaling} from 1 to 4 workers, "
              f"bitwise_equal={summary['bitwise_equal']})",
    )
    _write_summary(args, "BENCH_serve_scale.json", summary)
    failed = False
    if not summary["bitwise_equal"]:
        print(
            "ERROR: cluster selectivities diverge from single-process estimate()",
            file=sys.stderr,
        )
        failed = True
    if summary["shed_requests"] <= 0:
        print(
            "ERROR: overload probe never exercised the load-shedding path",
            file=sys.stderr,
        )
        failed = True
    if summary["leaked_segments"]:
        print(
            f"ERROR: leaked shared-memory segments: {summary['leaked_segments']}",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


COMMANDS = {
    "table1": cmd_table1,
    "table2": lambda a: cmd_accuracy(a, "wisdm", "table2_wisdm"),
    "table3": lambda a: cmd_accuracy(a, "twi", "table3_twi"),
    "table4": lambda a: cmd_accuracy(a, "higgs", "table4_higgs"),
    "table5": cmd_table5,
    "table6": cmd_table6,
    "table7": cmd_table7,
    "table8": cmd_table8,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "reducers": cmd_reducers,
    "serve": cmd_serve,
    "inference": cmd_inference,
    "inference_batch": cmd_inference_batch,
    "inference_precision": cmd_inference_precision,
    "training": cmd_training,
    "serve_scale": cmd_serve_scale,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate a paper table/figure of the IAM reproduction.",
    )
    parser.add_argument("experiment", choices=["list", *COMMANDS],
                        help="experiment id (or 'list')")
    parser.add_argument("--dataset", choices=["wisdm", "twi", "higgs"],
                        help="dataset for per-dataset experiments")
    parser.add_argument("--smoke", action="store_true",
                        help="force the 'micro' scale "
                             "(CI gate for 'inference' / 'training')")
    parser.add_argument("--queries", type=int, default=None,
                        help="query-count override for 'inference'")
    parser.add_argument("--output", default=None,
                        help="JSON output path for 'inference' / 'training' "
                             "(default BENCH_<name>.json)")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print("available experiments:", ", ".join(sorted(COMMANDS)))
        print(f"active scale: {bench_scale().name} (set REPRO_BENCH_SCALE)")
        return 0
    return int(COMMANDS[args.experiment](args) or 0)


if __name__ == "__main__":
    sys.exit(main())
