"""Query parser, sampler confidence intervals, and utils coverage."""

import time

import numpy as np
import pytest

from repro.errors import ConfigError, QueryError
from repro.query import Query, parse_query
from repro.query.predicate import Op
from repro.utils import Timer, check_fitted, check_in_range, check_positive, \
    check_probability_vector, ensure_rng, spawn_rngs


class TestParser:
    def test_simple_conjunction(self):
        q = parse_query("x >= 1 AND y <= 2.5")
        assert len(q) == 2
        assert q.predicates[0].column == "x"
        assert q.predicates[0].op is Op.GE
        assert q.predicates[1].value == 2.5

    def test_all_operators(self):
        cases = {
            "x = 1": Op.EQ, "x == 1": Op.EQ, "x != 1": Op.NEQ, "x <> 1": Op.NEQ,
            "x < 1": Op.LT, "x <= 1": Op.LE, "x > 1": Op.GT, "x >= 1": Op.GE,
        }
        for text, op in cases.items():
            assert parse_query(text).predicates[0].op is op, text

    def test_between_expands(self):
        q = parse_query("y BETWEEN 2 AND 3")
        assert len(q) == 2
        assert q.predicates[0].op is Op.GE and q.predicates[0].value == 2.0
        assert q.predicates[1].op is Op.LE and q.predicates[1].value == 3.0

    def test_between_inverted_rejected(self):
        with pytest.raises(QueryError):
            parse_query("y BETWEEN 3 AND 2")

    def test_case_insensitive_keywords(self):
        q = parse_query("x >= 1 and y between 0 and 5")
        assert len(q) == 3

    def test_scientific_notation_and_negatives(self):
        q = parse_query("x >= -1.5e-3")
        assert q.predicates[0].value == pytest.approx(-0.0015)

    def test_dotted_column_names(self):
        q = parse_query("title.production_year >= 2000")
        assert q.predicates[0].column == "title.production_year"

    def test_garbage_rejected(self):
        with pytest.raises(QueryError):
            parse_query("x >= 1 %% y")

    def test_dangling_and_rejected(self):
        with pytest.raises(QueryError):
            parse_query("x >= 1 AND")

    def test_missing_value_rejected(self):
        with pytest.raises(QueryError):
            parse_query("x >=")

    def test_matches_manual_construction(self, twi_small):
        from repro.query.executor import true_selectivity

        parsed = parse_query("latitude >= 30 AND latitude <= 40")
        manual = Query.from_pairs([("latitude", ">=", 30.0), ("latitude", "<=", 40.0)])
        assert true_selectivity(twi_small, parsed) == true_selectivity(twi_small, manual)


class TestEstimateWithError:
    def test_ci_covers_estimate_spread(self, fitted_iam, twi_workload):
        query = twi_workload.queries[0]
        estimate, stderr = fitted_iam.estimate_with_error(query)
        assert estimate > 0
        assert stderr >= 0
        # The reported stderr should roughly match the spread across
        # independent re-estimates.
        repeats = [fitted_iam.estimate(query) for _ in range(5)]
        assert np.std(repeats) < max(10 * stderr, 0.02)

    def test_full_domain_query_small_error(self, fitted_iam, twi_small):
        # A full-domain query: near 1 (Monte-Carlo interval masses leak a
        # little Gaussian tail outside the data range — documented) with
        # tiny sampling error.
        lat = twi_small["latitude"]
        lon = twi_small["longitude"]
        q = Query.from_pairs([
            ("latitude", ">=", lat.min), ("latitude", "<=", lat.max),
            ("longitude", ">=", lon.min), ("longitude", "<=", lon.max),
        ])
        estimate, stderr = fitted_iam.estimate_with_error(q)
        assert estimate > 0.9
        assert stderr < 0.01

    def test_empty_query_zero_error(self, fitted_iam):
        q = Query.from_pairs([("latitude", ">=", 1e9)])
        estimate, stderr = fitted_iam.estimate_with_error(q)
        assert stderr == 0.0


class TestAdaptiveEstimation:
    def test_stops_when_precise(self, fitted_iam, twi_small):
        # A wide single-column query: zero sampling variance, so the
        # pilot asks for the minimum answer stage of one sample.
        q = Query.from_pairs([("latitude", "<=", 40.0)])
        estimate, stderr, used = fitted_iam.estimate_adaptive(q)
        assert used == fitted_iam.config.n_progressive_samples + 1
        assert stderr <= 0.1 * estimate + 1e-12

    def test_spends_more_on_noisy_queries(self, fitted_iam, twi_small):
        lat = twi_small["latitude"].values
        lon = twi_small["longitude"].values
        q = Query.from_pairs([
            ("latitude", ">=", float(np.quantile(lat, 0.90))),
            ("longitude", "<=", float(np.quantile(lon, 0.15))),
        ])
        estimate, stderr, used = fitted_iam.estimate_adaptive(
            q, target_relative_error=0.01, max_samples=1600
        )
        assert used > fitted_iam.config.n_progressive_samples
        assert used <= 1600

    def test_respects_max_samples(self, fitted_iam, twi_small):
        lat = twi_small["latitude"].values
        q = Query.from_pairs([
            ("latitude", ">=", float(np.quantile(lat, 0.99))),
            ("longitude", "<=", -110.0),
        ])
        _, _, used = fitted_iam.estimate_adaptive(
            q, target_relative_error=1e-6, max_samples=800
        )
        assert used <= 800

    def test_pilot_shrinks_to_half_a_small_budget(self, fitted_iam):
        q = Query.from_pairs([("latitude", "<=", 40.0)])
        _, _, used = fitted_iam.estimate_adaptive(q, max_samples=20)
        assert used == 11  # a 10-sample pilot, then one sample (zero variance)
        with pytest.raises(ConfigError):
            fitted_iam.estimate_adaptive(q, max_samples=1)

    def test_estimate_consistent_with_plain(self, fitted_iam, twi_workload):
        q = twi_workload.queries[0]
        adaptive, _, _ = fitted_iam.estimate_adaptive(q)
        plain = fitted_iam.estimate(q)
        assert adaptive == pytest.approx(plain, rel=0.5)


class TestUtils:
    def test_ensure_rng_int_and_passthrough(self):
        rng = ensure_rng(3)
        assert isinstance(rng, np.random.Generator)
        assert ensure_rng(rng) is rng

    def test_ensure_rng_deterministic(self):
        assert ensure_rng(5).integers(100) == ensure_rng(5).integers(100)

    def test_spawn_rngs_independent_and_reproducible(self):
        a = spawn_rngs(7, 3)
        b = spawn_rngs(7, 3)
        for x, y in zip(a, b):
            assert x.integers(1000) == y.integers(1000)

    def test_timer_measures(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009
        assert t.elapsed_ms >= 9.0

    def test_check_positive(self):
        check_positive("x", 1.0)
        with pytest.raises(ConfigError):
            check_positive("x", 0.0)
        check_positive("x", 0.0, strict=False)
        with pytest.raises(ConfigError):
            check_positive("x", -1.0, strict=False)

    def test_check_in_range(self):
        check_in_range("x", 0.5, 0.0, 1.0)
        with pytest.raises(ConfigError):
            check_in_range("x", 1.5, 0.0, 1.0)

    def test_check_fitted(self):
        class Thing:
            model = None

        from repro.errors import NotFittedError

        with pytest.raises(NotFittedError):
            check_fitted(Thing(), "model")

    def test_check_probability_vector(self):
        check_probability_vector("p", np.array([0.5, 0.5]))
        with pytest.raises(ConfigError):
            check_probability_vector("p", np.array([0.5, 0.6]))
        with pytest.raises(ConfigError):
            check_probability_vector("p", np.array([-0.1, 1.1]))


class TestCLI:
    def test_list_command(self, capsys):
        from repro.bench.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig5" in out

    def test_invalid_experiment(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["table99"])

    def test_reducers_records_paper_table_name(self, monkeypatch, tmp_path):
        """``reducers`` regenerates the file the paper-table record names."""
        from repro.bench import experiments
        from repro.bench.__main__ import main

        monkeypatch.setattr(
            experiments, "reducer_comparison",
            lambda dataset: (["Method", "Median"], [["GMM (30)", 1.0]]),
        )
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["reducers", "--dataset", "wisdm"]) == 0
        assert (tmp_path / "table9_reducers_wisdm.txt").exists()
