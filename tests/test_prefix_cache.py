"""PrefixCache: the shared constrained-prefix conditional cache behind
cross-query batch sampling (docs/runtime.md).

Covers the bounded-FIFO contract, one entry per context with hit/miss/
eviction accounting across workspaces (i.e. across queries and
threads), read-only freezing of stored entries, a cold cache after the
plan export path (to_buffers / from_buffers and the shared-memory
publish/attach used by cluster workers), and invalidation on hot
reload — the "one cache per plan" rule that keeps stale entries from
outliving a weight snapshot.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.core.persistence import save_iam
from repro.ar.progressive import ProgressiveSampler
from repro.runtime import MADEPlan, Workspace, compile_made
from repro.runtime.plan import PrefixCache, softmax_inplace
from repro.serve import EstimationService, ServeConfig
from repro.utils.rng import ensure_rng

from tests.test_runtime import VOCABS, make_model, toy_constraints


@pytest.fixture()
def plan() -> MADEPlan:
    return compile_made(make_model("resmade"))


# ----------------------------------------------------------------------
# Unit contract
# ----------------------------------------------------------------------
class TestPrefixCacheUnit:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PrefixCache(max_entries=0)

    def test_hit_miss_accounting(self):
        cache = PrefixCache(max_entries=4)
        assert cache.lookup((0, (), 8)) is None
        cache.store((0, (), 8), np.ones(3))
        assert cache.lookup((0, (), 8)).tolist() == [1.0, 1.0, 1.0]
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
        assert stats["evictions"] == 0

    def test_bounded_fifo_eviction(self):
        cache = PrefixCache(max_entries=2)
        for column in range(3):
            cache.store((column, (), 8), np.full(2, float(column)))
        # Oldest entry (column 0) was evicted; the two newest remain.
        assert len(cache) == 2
        assert cache.lookup((0, (), 8)) is None
        assert cache.lookup((1, (), 8)) is not None
        assert cache.lookup((2, (), 8)) is not None
        assert cache.stats()["evictions"] == 1

    def test_re_store_is_a_noop(self):
        # A concurrent loser must not clobber the winner's entry (other
        # threads may already hold views of it) nor trigger eviction.
        cache = PrefixCache(max_entries=2)
        first = np.zeros(2)
        cache.store((0, (), 8), first)
        kept = cache.lookup((0, (), 8))
        cache.store((0, (), 8), np.ones(2))
        assert cache.lookup((0, (), 8)) is kept
        assert cache.stats()["evictions"] == 0

    def test_entries_are_frozen_read_only(self):
        cache = PrefixCache()
        cache.store((1, ((0, 3),), 16), np.arange(4.0))
        entry = cache.lookup((1, ((0, 3),), 16))
        assert not entry.flags.writeable
        with pytest.raises(ValueError):
            entry[0] = 99.0

    def test_pickle_travels_empty_but_usable(self):
        # The lock is process-local and entries are derived data, so a
        # pickled cache (reachable from any pickled estimator) must come
        # back empty, bounded as before, and fully functional.
        import pickle

        cache = PrefixCache(max_entries=7)
        cache.store((0, (), 8), np.zeros(3))
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.max_entries == 7
        assert len(clone) == 0
        clone.store((0, (), 8), np.ones(3))
        assert clone.lookup((0, (), 8))[0] == 1.0


# ----------------------------------------------------------------------
# Plan integration: forward_prefix_probs correctness + cross-workspace reuse
# ----------------------------------------------------------------------
class TestForwardPrefix:
    def _reference(self, plan, column, prefix, n_rows, workspace):
        tokens = np.empty((n_rows, plan.n_columns), dtype=np.int64)
        tokens[:] = plan.wildcard_ids
        for col, token in prefix:
            tokens[:, col] = token
        return softmax_inplace(
            plan.forward_slice(column, tokens, workspace=workspace).copy()
        )

    @pytest.mark.parametrize("prefix", [(), ((0, 3),), ((0, 2), (1, 4))])
    def test_miss_then_hit_bitwise(self, plan, prefix):
        column = len(prefix)
        expected = self._reference(plan, column, prefix, 16, Workspace())
        miss = plan.forward_prefix_probs(column, prefix, 16, Workspace()).copy()
        hit = plan.forward_prefix_probs(column, prefix, 16, Workspace()).copy()
        assert np.array_equal(miss, expected)
        assert np.array_equal(hit, expected)
        stats = plan.prefix_cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["entries"] == 1  # one entry per context

    def test_cross_workspace_reuse_counts_hits(self, plan):
        # One miss fills the cache; every later query/thread/workspace
        # replays it as a hit — this is the cross-query sharing the
        # grouped driver banks on.
        workspaces = [Workspace() for _ in range(4)]
        results = [
            plan.forward_prefix_probs(0, (), 32, ws).copy() for ws in workspaces
        ]
        for got in results[1:]:
            assert np.array_equal(got, results[0])
        stats = plan.prefix_cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == len(workspaces) - 1
        assert stats["entries"] == 1

    def test_distinct_row_counts_are_distinct_entries(self, plan):
        plan.forward_prefix_probs(0, (), 8, Workspace())
        plan.forward_prefix_probs(0, (), 16, Workspace())
        assert len(plan.prefix_cache) == 2
        assert plan.prefix_cache.stats()["misses"] == 2

    def test_miss_runs_the_trunk_on_two_rows(self, plan, monkeypatch):
        # Every row of a prefix context is the same: the trunk runs on
        # two of them (one would take gemv) and the projection on the
        # activations expanded to the requested rows.
        seen = []
        hidden = MADEPlan._hidden

        def spy(self, tokens, *args, **kwargs):
            seen.append(len(tokens))
            return hidden(self, tokens, *args, **kwargs)

        monkeypatch.setattr(MADEPlan, "_hidden", spy)
        first, column = plan.ar_order()[:2]
        out = plan.forward_prefix_probs(column, ((first, 3),), 512, Workspace())
        assert seen == [2]
        assert out.shape == (512, plan.vocab_sizes[column])

    def test_returned_buffer_is_writable_and_cache_is_not_aliased(self, plan):
        column = plan.ar_order()[1]  # runs the trunk
        out = plan.forward_prefix_probs(column, (), 8, Workspace())  # miss
        baseline = out.copy()
        out[:] = -1.0  # the miss hands back workspace scratch
        replay = plan.forward_prefix_probs(column, (), 8, Workspace())
        assert not replay.flags.writeable
        assert np.array_equal(replay, baseline)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_row_entries_replay_full_block_bitwise(self, dtype):
        plan = compile_made(make_model("resmade"), dtype=dtype)
        n_rows = 512
        for column, prefix in ((0, ()), (1, ((0, 3),)), (2, ((0, 2), (1, 4)))):
            vocab = plan.vocab_sizes[column]
            tokens = np.empty((n_rows, plan.n_columns), dtype=np.int64)
            tokens[:] = plan.wildcard_ids
            for col, token in prefix:
                tokens[:, col] = token
            probs = softmax_inplace(
                plan.forward_slice(column, tokens, workspace=Workspace()).copy()
            )

            miss = plan.forward_prefix_probs(column, prefix, n_rows, Workspace())
            assert miss.dtype == dtype and np.array_equal(miss, probs)
            probs_hit = plan.forward_prefix_probs(column, prefix, n_rows, Workspace())

            assert probs_hit.shape == (n_rows, vocab)
            assert not probs_hit.flags.writeable
            assert probs_hit.dtype == dtype and np.array_equal(probs_hit, probs)
        for entry in plan.prefix_cache._entries.values():
            assert entry.shape[0] == 1


# ----------------------------------------------------------------------
# Exporting a warm plan: to_buffers / from_buffers and shm publish → attach
# ----------------------------------------------------------------------
class TestWarmExport:
    """Entries are derived data outside the fingerprint, so no export
    carries them: a rebuilt or attached plan starts cold and rebuilds
    the same entries on first use."""

    def _warm(self, plan) -> None:
        ws = Workspace()
        plan.forward_prefix_probs(0, (), 16, ws)
        plan.forward_prefix_probs(1, ((0, 3),), 16, ws)
        assert len(plan.prefix_cache) == 2

    def test_buffers_roundtrip_starts_cold(self, plan):
        queries = [toy_constraints(1), toy_constraints(None)]

        def answers(p):
            sampler = ProgressiveSampler(p, n_samples=64, seed=4)
            return sampler.sample_weights(queries, rngs=[ensure_rng(3), ensure_rng(5)])

        expected = answers(plan)  # warms the plan on these very contexts
        assert len(plan.prefix_cache) > 0
        meta, arrays = plan.to_buffers()
        assert "prefix" not in meta
        assert not any(name.startswith("prefix.") for name in arrays)
        clone = MADEPlan.from_buffers(
            meta, {k: v.copy() for k, v in arrays.items()}
        )
        assert len(clone.prefix_cache) == 0
        assert np.array_equal(answers(clone), expected)  # rebuilt entries
        assert np.array_equal(answers(plan), expected)  # warm entries

    def test_cold_plan_roundtrip_has_no_prefix_meta(self, plan):
        meta, arrays = plan.to_buffers()
        assert "prefix" not in meta
        assert not any(name.startswith("prefix.") for name in arrays)

    def test_shm_publish_attach_is_cold(self, plan):
        shm = pytest.importorskip("repro.serve.cluster.shm")
        self._warm(plan)
        warm = plan.forward_prefix_probs(1, ((0, 3),), 16, Workspace())  # a hit
        segment = shm.publish_plan(plan)
        try:
            attachment = shm.attach_plan(segment.name)
            try:
                attached = attachment.plan
                assert attached.fingerprint == plan.fingerprint
                assert len(attached.prefix_cache) == 0
                # Workers rebuild the entry on first use, same bits.
                got = attached.forward_prefix_probs(1, ((0, 3),), 16, Workspace())
                assert np.array_equal(got, warm)
                assert attached.prefix_cache.stats()["misses"] == 1
            finally:
                del attached, got
                attachment.close()
        finally:
            segment.release()


# ----------------------------------------------------------------------
# Invalidation: one cache per plan generation
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_recompile_installs_fresh_cache(self):
        made = make_model("made")
        first = compile_made(made)
        first.forward_prefix_probs(0, (), 8, Workspace())
        second = compile_made(made)
        assert second.prefix_cache is not first.prefix_cache
        assert len(second.prefix_cache) == 0

    def test_hot_reload_swaps_cache_and_keeps_answers(
        self, fitted_iam, twi_small, twi_workload, tmp_path
    ):
        path = os.fspath(tmp_path / "iam.npz")
        save_iam(fitted_iam, path)
        svc = EstimationService(
            ServeConfig(max_batch_size=8, max_wait_ms=0.0, fallback_estimator=None)
        )
        try:
            svc.load_model("twi", path, twi_small)
            model = svc._require_model("twi")
            query = twi_workload.queries[0]
            before = svc.estimate("twi", query).selectivity
            with model.lock:  # ServedModel.plan is guarded by its lock
                old_plan = model.plan
            assert old_plan is not None
            assert len(old_plan.prefix_cache) > 0

            os.utime(path, (time.time() + 5, time.time() + 5))
            assert svc.reload("twi") is True
            with model.lock:
                new_plan = model.plan
            # Fresh plan, fresh empty cache: no entry outlives a swap.
            assert new_plan is not old_plan
            assert new_plan.prefix_cache is not old_plan.prefix_cache
            assert len(new_plan.prefix_cache) == 0

            # Same archive bits => same served answer, warming the new cache.
            svc.cache.clear()
            after = svc.estimate("twi", query).selectivity
            assert after == before
            assert len(new_plan.prefix_cache) > 0
        finally:
            svc.close()
