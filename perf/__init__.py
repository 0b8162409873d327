"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

See ``perf/README.md``. ``python3 perf/run.py`` runs one workload once;
``python -m perf`` runs them all, repeats them and compares two results.
"""
