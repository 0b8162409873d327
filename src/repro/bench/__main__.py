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
import sys

from repro.bench import bench_scale, experiments, record_table


def _single_dataset(args) -> str:
    return args.dataset or "twi"


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
    record_table(f"{experiments.TABLE_IDS[dataset]}_reducers_{dataset}", headers, rows,
                 title=f"Impact of domain reducing methods on {dataset.upper()} (reproduced)")


def cmd_fig7(args) -> None:
    dataset = _single_dataset(args)
    headers, rows = experiments.component_sweep(dataset)
    record_table("fig7_table12_components", headers, rows,
                 title=f"Figure 7 / Table 12: components on {dataset.upper()}")


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
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print("available experiments:", ", ".join(sorted(COMMANDS)))
        print(f"active scale: {bench_scale().name} (set REPRO_BENCH_SCALE)")
        return 0
    COMMANDS[args.experiment](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
