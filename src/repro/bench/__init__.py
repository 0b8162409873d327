"""Benchmark harness: drivers that regenerate every paper table/figure."""

from repro.bench.report import (
    format_table,
    print_table,
    record_table,
)
from repro.bench.config import BenchScale, bench_scale
from repro.bench import experiments

__all__ = [
    "format_table",
    "print_table",
    "record_table",
    "BenchScale",
    "bench_scale",
    "experiments",
]
