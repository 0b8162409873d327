"""Self-tests of the benchmark itself: ``python -m pytest perf/tests``."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perf import catalog, trace, workloads
from perf.trace import Span

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_workload(workload: str, seed: int, traced: bool = False) -> dict:
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1" if traced else "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``python -m perf run --smoke``: every workload once, at micro size."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "perf", "run", "--smoke", "--seconds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - began
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return elapsed, {r["workload"]: r for r in json.loads(out.read_text())["runs"]}


def test_smoke_runs_every_workload_in_under_a_minute(smoke):
    elapsed, runs = smoke
    assert elapsed < 60
    assert sorted(runs) == sorted(catalog.WORKLOADS)
    for result in runs.values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_printed_metrics_match_benchmark_json(smoke):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == catalog.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    for result in smoke[1].values():
        assert {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end


def test_qerror_repeats_exactly_across_runs_and_seeds(smoke):
    # The accuracy set is fixed, so q-error depends on the code only.
    first = smoke[1]["optimizer-batch"]["metrics"]
    again = run_workload("optimizer-batch", seed=2)["metrics"]
    for name in ("qerror_p50", "qerror_p95", "qerror_p99"):
        assert again[name]["value"] == first[name]["value"]


@pytest.mark.parametrize("workload", ["point-zipf-reload", "optimizer-batch"])
def test_seed_changes_the_request_stream_but_not_the_accuracy_set(workload):
    a = workloads.build_inputs(workload, 1, 1, workloads.SMOKE)
    b = workloads.build_inputs(workload, 1, 1, workloads.SMOKE)
    c = workloads.build_inputs(workload, 2, 1, workloads.SMOKE)

    def keys(queries):
        return [q.cache_key() for q in queries]

    def stream(inputs):
        return [keys(r) if isinstance(r, list) else keys([r]) for r in inputs.queries]

    assert stream(a) == stream(b)
    assert stream(a) != stream(c)
    assert keys(a.accuracy) == keys(c.accuracy)


def test_self_time_is_never_negative_and_covers_the_round_trip():
    spans = [
        Span(1, "client.request", 0, 100, None, 7),  # client thread
        Span(2, "http.handle", 10, 90, None, 7),  # server thread
        Span(3, "batcher.submit", 20, 80, 2, 7),
        # The batcher thread's execute span outlives the submit it carried.
        Span(4, "batcher.execute", 25, 85, None, None, links=(3,)),
        Span(5, "inference.estimate_batch", 30, 60, 4, None),
    ]
    selfs = trace.self_times(spans)
    assert selfs == {1: 20, 2: 20, 3: 5, 4: 30, 5: 30}
    assert trace.coverage(spans, "client.request") == pytest.approx(1.05)


@pytest.mark.parametrize("workload", ["point-unique", "optimizer-batch"])
def test_traced_run_reports_every_layer_and_accounts_for_the_latency(workload):
    result = run_workload(workload, seed=1, traced=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == catalog.PER_LAYER
    assert metrics["plan.forward_calls_per_query"] > 0
    assert metrics["train.fit_s"] > 0 and metrics["persist.load_ms"] > 0
    if workload == "point-unique":
        assert metrics["http.overhead_ms_p50"] > 0 and metrics["cache.hit_rate"] == 0
    else:
        assert metrics["http.overhead_ms_p50"] == 0 and metrics["gmm.mass_hit_rate"] > 0.5
    with open(os.path.join(ROOT, "perf", "results", f"trace-{workload}.json")) as handle:
        recorded = json.load(handle)
    spans = [Span(**{**s, "links": tuple(s["links"])}) for s in recorded["spans"]]
    assert spans and all(v >= 0 for v in trace.self_times(spans).values())
    # The run itself fails when this is off; recomputed from the file here.
    load = [s for s in spans if s.sid >= recorded["load_start"]]
    root = "client.round" if workload == "optimizer-batch" else "client.request"
    assert 0.9 <= trace.coverage(load, root) <= 1.1


def test_tracer_patches_only_while_installed():
    from repro.serve.service import EstimationService

    original = EstimationService.__dict__["estimate"]
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert EstimationService.__dict__["estimate"] is not original
    finally:
        tracer.uninstall()
    assert EstimationService.__dict__["estimate"] is original


def test_a_stream_that_runs_out_fails_the_run(tmp_path):
    # Four pre-built rounds last a micro model well under two seconds.
    scale = dataclasses.replace(workloads.SMOKE, rounds_per_s=1)
    result = workloads.run(
        "optimizer-batch", seed=1, seconds=2, trace=False, scale=scale, work_dir=str(tmp_path),
    )
    assert not result["correct"] and result["failed"] >= 1


def test_without_the_program_sources_the_run_fails_before_printing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perf"), tmp_path / "perf",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "point-unique", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_untraced_run_builds_no_tracer(monkeypatch, tmp_path):
    def refuse():
        raise AssertionError("an untraced run must not patch anything")

    monkeypatch.setattr(workloads, "Tracer", refuse)
    result = workloads.run(
        "optimizer-batch", seed=1, seconds=0.5, trace=False,
        scale=workloads.SMOKE, work_dir=str(tmp_path),
    )
    assert result["correct"]
