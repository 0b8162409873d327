"""repro.runtime: bitwise equivalence of compiled plans vs the Module path.

The runtime's whole contract is "same floats, fewer allocations": every
test here that compares the plan path against the ``nn``/``autodiff``
path asserts *bitwise* equality (``np.array_equal``), not closeness —
from raw logits through progressive-sampling weights to end-to-end
``estimate()`` across IAM, Naru-style, and factorized estimators, and
across a serve hot reload. Plus the RangeMassCache memoization contract.
"""

from __future__ import annotations

import copy
import os
import threading
import time

import numpy as np
import pytest

from repro.ar.made import build_made
from repro.ar.progressive import ProgressiveSampler, SlotConstraint
from repro.core.inference import IAMInference, build_constraints
from repro.core.persistence import save_iam
from repro.errors import CompileError, ConfigError, ShapeError
from repro.estimators.naru import NaruEstimator
from repro.query.query import Query
from repro.reducers.base import DomainReducer
from repro.reducers.identity import IdentityReducer
from repro.reducers.nullable import NullableReducer
from repro.runtime import (
    MADEPlan,
    RangeMassCache,
    Workspace,
    compile_made,
    softmax_inplace,
)
from repro.serve import EstimationService, ServeConfig
from repro.utils.rng import ensure_rng

VOCABS = [8, 5, 12, 3]


def make_model(arch: str, seed=7):
    return build_made(VOCABS, arch=arch, hidden_sizes=(32, 32, 32), seed=seed)


def random_inputs(n_rows: int, seed: int, wildcard_p: float = 0.3):
    rng = np.random.default_rng(seed)
    tokens = np.column_stack([rng.integers(0, v, size=n_rows) for v in VOCABS])
    wildcard = rng.random((n_rows, len(VOCABS))) < wildcard_p
    return tokens, wildcard


def encode(plan, tokens, wildcard):
    """Wildcards encoded in the ids, as the plan (and sampler) take them."""
    return np.where(wildcard, plan.wildcard_ids, tokens)


def module_slice(made, col, tokens, wildcard):
    from repro.autodiff.tensor import no_grad

    with no_grad():
        return made.column_logits(col, tokens, wildcard_mask=wildcard).numpy()


# ---------------------------------------------------------------------------
# Plan compilation + raw forward equivalence
# ---------------------------------------------------------------------------


class TestMADEPlan:
    @pytest.mark.parametrize("arch", ["made", "resmade"])
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_forward_logits_bitwise(self, arch, batch):
        """Every column's logits, with and without wildcards."""
        made = make_model(arch)
        plan = compile_made(made)
        tokens, wildcard = random_inputs(batch, seed=batch)
        for col in range(len(VOCABS)):
            assert np.array_equal(
                module_slice(made, col, tokens, wildcard),
                plan.forward_slice(col, encode(plan, tokens, wildcard)),
            )
            # no wildcard at all
            assert np.array_equal(
                module_slice(made, col, tokens, None),
                plan.forward_slice(col, tokens),
            )

    @pytest.mark.parametrize("arch", ["made", "resmade"])
    def test_forward_slice_bitwise_per_column(self, arch):
        made = make_model(arch)
        plan = compile_made(made)
        tokens, wildcard = random_inputs(32, seed=1)
        for col in range(len(VOCABS)):
            got = plan.forward_slice(col, encode(plan, tokens, wildcard))
            assert got.shape == (32, VOCABS[col])
            assert np.array_equal(module_slice(made, col, tokens, wildcard), got)

    def test_metadata_mirrors_module(self):
        made = make_model("resmade")
        plan = compile_made(made)
        assert plan.n_columns == made.n_columns
        assert plan.vocab_sizes == made.vocab_sizes
        assert plan.ar_order() == made.ar_order()
        assert np.array_equal(plan.wildcard_ids, made.wildcard_ids)
        assert plan.dtype == np.float64
        assert isinstance(plan.fingerprint, str) and len(plan.fingerprint) == 16
        assert plan.nbytes() > 0

    def test_plan_is_a_frozen_snapshot(self):
        made = make_model("resmade")
        plan = compile_made(made)
        before = plan.out_weight.copy()
        # Train-like mutation of the module must not leak into the plan...
        made.output_layer.weight.data += 1.0
        assert np.array_equal(plan.out_weight, before)
        # ...and the plan's arrays reject writes outright.
        with pytest.raises(ValueError):
            plan.out_weight[0, 0] = 0.0
        with pytest.raises(ValueError):
            plan.embeddings[0][0, 0] = 0.0

    def test_recompile_after_training_changes_fingerprint(self):
        made = make_model("made")
        first = compile_made(made).fingerprint
        made.output_layer.weight.data += 0.25
        assert compile_made(made).fingerprint != first
        # Identical weights -> identical fingerprint (content-addressed).
        made.output_layer.weight.data -= 0.25
        assert compile_made(made).fingerprint == first

    def test_buffer_export_roundtrip_is_bitwise_and_zero_copy(self):
        made = make_model("resmade")
        plan = compile_made(made)
        meta, arrays = plan.to_buffers()
        assert meta["fingerprint"] == plan.fingerprint
        # export is by reference, import adopts the arrays: no copies
        rebuilt = MADEPlan.from_buffers(meta, arrays)
        assert rebuilt.fingerprint == plan.fingerprint
        assert rebuilt.out_weight is arrays["out_weight"]
        tokens, wildcard = random_inputs(16, seed=9)
        tokens = encode(plan, tokens, wildcard)
        for col in range(len(VOCABS)):
            assert np.array_equal(
                plan.forward_slice(col, tokens), rebuilt.forward_slice(col, tokens)
            )

    def test_from_buffers_verifies_fingerprint(self):
        made = make_model("made")
        plan = compile_made(made)
        meta, arrays = plan.to_buffers()
        tampered = dict(arrays)
        tampered["out_weight"] = arrays["out_weight"] + 1.0
        with pytest.raises(ConfigError, match="fingerprint"):
            MADEPlan.from_buffers(meta, tampered)
        # verify=False skips the hash (trusted same-process handoff)
        assert MADEPlan.from_buffers(meta, tampered, verify=False)

    def test_from_buffers_rejects_missing_arrays(self):
        made = make_model("made")
        plan = compile_made(made)
        meta, arrays = plan.to_buffers()
        incomplete = {k: v for k, v in arrays.items() if k != "positions"}
        with pytest.raises(ConfigError, match="missing"):
            MADEPlan.from_buffers(meta, incomplete)

    def test_workspace_buffers_are_reused(self):
        made = make_model("resmade")
        plan = compile_made(made)
        ws = Workspace()
        tokens, wildcard = random_inputs(16, seed=2)
        tokens = encode(plan, tokens, wildcard)
        first = plan.forward_slice(1, tokens, workspace=ws)
        buffers = len(ws)
        second = plan.forward_slice(1, tokens, workspace=ws)
        assert np.shares_memory(second, first)  # same buffer, no growth
        assert len(ws) == buffers
        assert ws.nbytes > 0
        ws.clear()
        assert len(ws) == 0

    def test_trunk_programs_are_bounded(self):
        plan = compile_made(make_model("resmade"))
        tokens, _ = random_inputs(Workspace.MAX_PROGRAMS + 20, seed=5)
        ws = Workspace()
        plan.forward_slice(1, tokens, workspace=ws)  # buffers at their largest
        for batch in range(2, len(tokens) + 1):
            plan.forward_slice(1, tokens[:batch], workspace=ws)
        assert len(ws._programs) == Workspace.MAX_PROGRAMS
        # An evicted program is rebuilt on the same buffers, same bits.
        again = plan.forward_slice(1, tokens[:2], workspace=ws)
        assert np.array_equal(again, plan.forward_slice(1, tokens[:2]))

    def test_token_shape_validation(self):
        plan = compile_made(make_model("made"))
        with pytest.raises(ConfigError):
            plan.forward_slice(0, np.zeros((8, 2), dtype=np.int64))

    def test_compile_rejects_non_made(self):
        with pytest.raises(ConfigError):
            compile_made(object())

    def test_float32_plan_dtype_threads_through(self):
        made = make_model("resmade")
        plan = compile_made(made, dtype=np.float32)
        assert plan.dtype == np.float32
        tokens, wildcard = random_inputs(16, seed=4)
        for col in range(len(VOCABS)):
            logits = plan.forward_slice(col, encode(plan, tokens, wildcard))
            assert logits.dtype == np.float32
            np.testing.assert_allclose(
                logits, module_slice(made, col, tokens, wildcard), rtol=1e-4, atol=1e-4
            )

    def test_plan_is_shareable_across_threads(self):
        plan = compile_made(make_model("resmade"))
        tokens, wildcard = random_inputs(32, seed=5)
        tokens = encode(plan, tokens, wildcard)
        columns = range(len(VOCABS))
        reference = [plan.forward_slice(col, tokens).copy() for col in columns]
        results = {}

        def worker(i):
            ws = Workspace()  # one workspace per thread, per the contract
            for _ in range(5):
                out = [
                    plan.forward_slice(col, tokens, workspace=ws).copy()
                    for col in columns
                ]
            results[i] = out

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for out in results.values():
            for got, want in zip(out, reference):
                assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Module.export_arrays / state_arrays (weight-export API)
# ---------------------------------------------------------------------------


class TestRowIndependence:
    """The contract the distinct-context forward rests on.

    A trunk row's bits do not depend on how many rows share its block or
    where it sits in the block, for blocks of 2 or more rows: running
    the trunk on any subset reproduces those rows of the full-block
    trunk.  A 1-row block is the exception (NumPy sends a ``(1, k)``
    matmul to gemv, not gemm), so ``expand`` refuses one.  The narrow
    per-column output projection is *not* held to this: BLAS small-
    matrix kernels (OpenBLAS on AVX-512, e.g. a 12-wide float64 or a
    7-wide float32 projection) round differently below a size threshold,
    which is why ``forward_slice(..., expand=...)`` projects the
    gathered full block.  A failure here names a BLAS build that breaks
    the contract; CI prints ``numpy.show_config()`` before the tests.
    """

    N_ROWS = 2048

    def _tokens(self, seed: int = 4) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.column_stack(
            [rng.integers(0, v + 1, size=self.N_ROWS) for v in VOCABS]
        )  # ids == vocab are the wildcard token

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("arch", ["made", "resmade"])
    def test_trunk_rows_do_not_depend_on_block(self, arch, dtype):
        plan = compile_made(make_model(arch), dtype=dtype)
        tokens = self._tokens()
        ws = Workspace()
        full = plan._hidden(tokens, ws).copy()
        rng = np.random.default_rng(9)
        for size in (2, 3, 5, 17, 64, 200, 897, 1024, 2047):
            rows = rng.choice(self.N_ROWS, size=size, replace=False)
            part = plan._hidden(tokens[rows], ws)  # leading views, full-size buffers
            assert np.array_equal(part, full[rows]), size

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("arch", ["made", "resmade"])
    def test_expand_equals_full_block_forward(self, arch, dtype):
        plan = compile_made(make_model(arch), dtype=dtype)
        rng = np.random.default_rng(11)
        for n_contexts in (2, 3, 21, 200):
            contexts = self._tokens(n_contexts)[:n_contexts]
            ctx = rng.integers(0, n_contexts, size=self.N_ROWS)
            ctx[:n_contexts] = np.arange(n_contexts)  # every context used
            for column in plan.ar_order():
                full = plan.forward_slice(column, contexts[ctx]).copy()
                got = plan.forward_slice(
                    column, contexts, workspace=Workspace(), expand=ctx
                )
                assert got.shape == full.shape
                assert np.array_equal(got, full), (n_contexts, column)

    def test_expand_refuses_a_one_row_trunk_block(self):
        plan = compile_made(make_model("resmade"))
        tokens = self._tokens()[:1]
        column = plan.ar_order()[1]  # not the bias-only first column
        with pytest.raises(ShapeError):
            plan.forward_slice(column, tokens, expand=np.zeros(8, dtype=np.intp))


class TestModuleArrayExport:
    def test_state_arrays_are_live_views(self):
        made = make_model("made")
        arrays = made.state_arrays()
        assert set(arrays) == {name for name, _ in made.named_parameters()}
        arrays["output_layer.weight"][0, 0] = 123.0
        assert made.output_layer.weight.data[0, 0] == 123.0

    def test_export_arrays_are_read_only_views(self):
        made = make_model("made")
        arrays = made.export_arrays()
        with pytest.raises(ValueError):
            arrays["output_layer.weight"][0, 0] = 1.0
        # Still a view of the live weights, not a copy.
        made.output_layer.weight.data[0, 1] = 7.5
        assert arrays["output_layer.weight"][0, 1] == 7.5

    def test_state_dict_still_copies(self):
        made = make_model("made")
        state = made.state_dict()
        state["output_layer.weight"][0, 0] = -99.0
        assert made.output_layer.weight.data[0, 0] != -99.0


# ---------------------------------------------------------------------------
# Sampler equivalence: plan backend vs Module backend
# ---------------------------------------------------------------------------


def toy_constraints(wildcard_col: int | None = 1):
    slots = []
    for i, v in enumerate(VOCABS):
        if i == wildcard_col:
            slots.append(None)
        else:
            slots.append(SlotConstraint(mass=(np.arange(v) % 2).astype(np.float64)))
    return slots


class TestSamplerEquivalence:
    @pytest.mark.parametrize("arch", ["made", "resmade"])
    @pytest.mark.parametrize("seed", [0, 13])
    @pytest.mark.parametrize("n_samples", [32, 200])
    def test_plan_vs_module_bitwise(self, arch, seed, n_samples):
        made = make_model(arch)
        queries = [toy_constraints(1), toy_constraints(None), toy_constraints(3)]
        plan_weights = ProgressiveSampler(
            made, n_samples=n_samples, seed=seed
        ).sample_weights(queries)
        module_weights = ProgressiveSampler(
            made, n_samples=n_samples, seed=seed, use_plan=False
        ).sample_weights(queries)
        assert np.array_equal(plan_weights, module_weights)

    def test_precompiled_plan_accepted_directly(self):
        made = make_model("resmade")
        plan = compile_made(made)
        sampler = ProgressiveSampler(plan, n_samples=64, seed=5)
        assert sampler.plan is plan and sampler.model is None
        reference = ProgressiveSampler(made, n_samples=64, seed=5, use_plan=False)
        assert np.array_equal(
            sampler.sample_weights([toy_constraints()]),
            reference.sample_weights([toy_constraints()]),
        )

    def test_stratified_and_per_query_rngs_bitwise(self):
        made = make_model("resmade")
        queries = [toy_constraints(0), toy_constraints(2)]
        for kwargs in ({"stratify_first": True}, {}):
            rngs_a = [ensure_rng(101), ensure_rng(202)]
            rngs_b = [ensure_rng(101), ensure_rng(202)]
            a = ProgressiveSampler(made, n_samples=64, seed=1, **kwargs).sample_weights(
                queries, rngs=rngs_a
            )
            b = ProgressiveSampler(
                made, n_samples=64, seed=1, use_plan=False, **kwargs
            ).sample_weights(queries, rngs=rngs_b)
            assert np.array_equal(a, b)

    def test_all_wildcard_query(self):
        made = make_model("made")
        all_wild = [None] * len(VOCABS)
        a = ProgressiveSampler(made, n_samples=16, seed=0).sample_weights([all_wild])
        b = ProgressiveSampler(made, n_samples=16, seed=0, use_plan=False).sample_weights(
            [all_wild]
        )
        assert np.array_equal(a, b)
        assert np.array_equal(a, np.ones_like(a))

    def test_trunk_sees_one_row_per_distinct_context(self, monkeypatch):
        """Off the prefix path each forward gets exactly one row per
        distinct sampled context (and never a 1-row block), and the
        answers stay bitwise-equal to the Module path."""
        made = make_model("resmade")
        # Range masses on three columns: the first draw already splits
        # the rows, so the next two steps forward distinct contexts.
        query = toy_constraints(wildcard_col=1)
        sampler = ProgressiveSampler(made, n_samples=64, seed=2)
        sampler.sample_weights([query], rngs=[ensure_rng(8)])  # warm the prefix cache

        calls = []
        forward_slice = MADEPlan.forward_slice

        def spy(plan, column, tokens, *args, expand=None, **kwargs):
            calls.append((np.array(tokens), None if expand is None else np.array(expand)))
            return forward_slice(plan, column, tokens, *args, expand=expand, **kwargs)

        monkeypatch.setattr(MADEPlan, "forward_slice", spy)
        got = sampler.sample_weights([query], rngs=[ensure_rng(8)])
        assert len(calls) == 2  # the two steps after the first constrained column
        for tokens, expand in calls:
            assert len(tokens) >= 2
            assert len(np.unique(tokens, axis=0)) == len(tokens)  # one row per context
            assert len(expand) == 64
            assert np.array_equal(np.unique(expand), np.arange(len(tokens)))
        module = ProgressiveSampler(made, n_samples=64, seed=2, use_plan=False)
        assert np.array_equal(got, module.sample_weights([query], rngs=[ensure_rng(8)]))

    def test_workspace_sized_to_largest_group(self):
        """60 queries in 15 signature groups of 4: scratch is sized to
        one group's rows, not to the whole call's."""
        import itertools

        made = make_model("resmade")
        sampler = ProgressiveSampler(made, n_samples=128, seed=0)
        subsets = [
            s for r in range(1, 5) for s in itertools.combinations(range(4), r)
        ]
        queries = []
        for binding in range(4):
            for subset in subsets:
                queries.append(
                    [
                        SlotConstraint(mass=((np.arange(v) + binding) % 2).astype(float))
                        if c in subset
                        else None
                        for c, v in enumerate(VOCABS)
                    ]
                )
        sampler.sample_weights(queries, rngs=[ensure_rng(i) for i in range(60)])
        assert sampler.batch_stats() == {"groups": 15, "queries": 60, "largest_group": 4}
        plan = sampler.plan
        # Every buffer holds at most `rows` rows of one of these widths.
        row_bytes = 8 * (
            2 * plan.n_columns  # tokens, uniforms
            + plan.input_width  # embed
            + 4 * plan.hidden_width  # h, t, a, expand
            + sum(VOCABS)  # one slice buffer per vocab width
        )
        rows = 4 * sampler.n_samples
        assert 0 < sampler._workspace.nbytes <= rows * row_bytes

    def test_resolve_mass_dtype_regression(self):
        """resolve_mass used to hardwire float64; the dtype now threads."""
        constraint = SlotConstraint(
            mass=np.array([0.5, 0.25, 1.0], dtype=np.float32),
            per_sample=lambda tokens: np.ones((len(tokens), 3)),
        )
        sampled = np.zeros((4, 2), dtype=np.int64)
        resolved32 = constraint.resolve_mass(sampled, 3, dtype=np.float32)
        assert resolved32.dtype == np.float32
        resolved64 = constraint.resolve_mass(sampled, 3)  # default stays float64
        assert resolved64.dtype == np.float64
        np.testing.assert_array_equal(resolved32, resolved64.astype(np.float32))

    @pytest.mark.parametrize(
        "per_sample",
        [None, lambda tokens: np.ones((len(tokens), 3))],
        ids=["static", "per_sample"],
    )
    def test_resolve_mass_rejects_wrong_size(self, per_sample):
        constraint = SlotConstraint(mass=np.ones(4), per_sample=per_sample)
        with pytest.raises(ConfigError):
            constraint.resolve_mass(np.zeros((4, 2), dtype=np.int64), 3)

    def test_float32_sampler_runs_in_float32(self):
        made = make_model("resmade")
        plan = compile_made(made, dtype=np.float32)
        sampler = ProgressiveSampler(plan, n_samples=32, seed=3)
        assert sampler.dtype == np.float32
        weights = sampler.sample_weights([toy_constraints()])
        assert weights.dtype == np.float32


class TestWorkspaceGrowth:
    """One buffer per (tag, trailing shape, dtype), grown to the largest
    block: a sampler's scratch depends on its largest call, not on how
    many differently sized calls came before it."""

    N_SAMPLES = 512

    @pytest.fixture(scope="class")
    def made(self):
        return build_made(
            [30] * 6, arch="resmade", hidden_sizes=(128, 128, 128), seed=3
        )

    @staticmethod
    def _queries(n_queries: int) -> list:
        # One signature (columns 0, 2, 3, 5), so k queries form one group
        # of k * N_SAMPLES rows.
        rng = np.random.default_rng(21)
        queries = []
        for _ in range(n_queries):
            constraints: list = [None] * 6
            for column in (0, 2, 3, 5):
                lo = int(rng.integers(0, 20))
                mass = np.zeros(30)
                mass[lo : lo + int(rng.integers(3, 10))] = 1.0
                constraints[column] = SlotConstraint(mass=mass)
            queries.append(constraints)
        return queries

    def _run(self, sampler, n_queries: int) -> np.ndarray:
        return sampler.sample_weights(
            self._queries(n_queries),
            rngs=[ensure_rng(100 + i) for i in range(n_queries)],
        )

    def test_groups_of_one_to_eight_hold_one_buffer_set(self, made):
        grown = ProgressiveSampler(made, n_samples=self.N_SAMPLES, seed=0)
        for n_queries in range(1, 9):
            self._run(grown, n_queries)
        fresh = ProgressiveSampler(made, n_samples=self.N_SAMPLES, seed=0)
        self._run(fresh, 8)
        assert grown._workspace.nbytes == fresh._workspace.nbytes
        assert len(grown._workspace) == len(fresh._workspace)

    def test_smaller_call_reuses_grown_buffers_bitwise(self, made):
        sampler = ProgressiveSampler(made, n_samples=self.N_SAMPLES, seed=0)
        self._run(sampler, 8)
        buffers = dict(sampler._workspace._buffers)
        small = self._run(sampler, 3)
        assert sampler._workspace._buffers.keys() == buffers.keys()
        for key, buffer in buffers.items():
            assert sampler._workspace._buffers[key] is buffer, key
        fresh = ProgressiveSampler(made, n_samples=self.N_SAMPLES, seed=0)
        assert np.array_equal(small, self._run(fresh, 3))


# ---------------------------------------------------------------------------
# End-to-end: IAM estimate() on the plan path
# ---------------------------------------------------------------------------


class TestIAMEndToEnd:
    def test_fitted_iam_exposes_plan(self, fitted_iam):
        plan = fitted_iam.runtime_plan()
        assert isinstance(plan, MADEPlan)
        assert plan.vocab_sizes == list(fitted_iam.model.vocab_sizes)

    def test_estimates_bitwise_equal_to_module_path(self, fitted_iam, twi_workload):
        queries = twi_workload.queries[:12]
        cfg = fitted_iam.config
        kwargs = dict(
            n_samples=cfg.n_progressive_samples,
            stratify_first=cfg.stratified_sampling,
        )
        plan_inf = IAMInference(
            fitted_iam.table,
            fitted_iam.reducers,
            ProgressiveSampler(fitted_iam.model, seed=ensure_rng(cfg.seed), **kwargs),
            bias_correction=cfg.bias_correction,
        )
        module_inf = IAMInference(
            fitted_iam.table,
            fitted_iam.reducers,
            ProgressiveSampler(
                fitted_iam.model, seed=ensure_rng(cfg.seed), use_plan=False, **kwargs
            ),
            bias_correction=cfg.bias_correction,
        )
        assert plan_inf.sampler.plan is not None
        assert module_inf.sampler.plan is None
        assert np.array_equal(
            plan_inf.estimate_batch(queries), module_inf.estimate_batch(queries)
        )

    def test_mass_cache_hits_across_repeated_queries(self, fitted_iam, twi_workload):
        inference = fitted_iam._require_inference()
        cache = inference.mass_cache
        query = twi_workload.queries[0]
        rngs = lambda: [ensure_rng(99)]  # noqa: E731 - tiny local factory
        first = inference.estimate_batch([query], rngs=rngs())
        after_first = cache.stats()
        second = inference.estimate_batch([query], rngs=rngs())
        assert np.array_equal(first, second)
        assert cache.stats()["misses"] == after_first["misses"]
        # Rebuilding the constraints for the same bounds (what a fresh
        # query reusing a predicate does) hits the mass cache instead of
        # recomputing the GMM range masses.
        build_constraints(
            fitted_iam.table, fitted_iam.reducers, query, mass_cache=cache
        )
        assert cache.stats()["hits"] > after_first["hits"]

    def test_grouped_batch_bitwise_equal_to_per_query_loop(
        self, fitted_iam, twi_workload
    ):
        """One grouped ``estimate_many`` call answers exactly what the
        per-query loop answers when both get the serving layer's
        per-query generators."""
        from repro.utils.rng import query_seed

        by_signature: dict[tuple, list] = {}
        for query in twi_workload.queries:
            signature = tuple(sorted({column for column, _, _ in query.cache_key()}))
            by_signature.setdefault(signature, []).append(query)
        ranked = sorted(by_signature.values(), key=len, reverse=True)
        pool = [query for bucket in ranked[:2] for query in bucket]
        batch = [pool[i % len(pool)] for i in range(32)]

        def rngs():
            return [ensure_rng(query_seed("iam", q.cache_key())) for q in batch]

        grouped = fitted_iam.estimate_many(batch, batch_size=32, rngs=rngs())
        assert max(fitted_iam.batch_group_sizes()) > 1
        looped = np.array(
            [
                fitted_iam.estimate_many([query], rngs=[rng])[0]
                for query, rng in zip(batch, rngs())
            ]
        )
        assert np.array_equal(grouped, looped)

    def test_warm_deepcopy_answers_like_the_original(self, fitted_iam, twi_workload):
        """A deep copy made after the model has estimated (its sampler
        workspace holds bound trunk programs) answers bitwise like the
        original on the same per-query generators."""
        from repro.utils.rng import query_seed

        queries = twi_workload.queries

        def rngs():
            return [ensure_rng(query_seed("iam", q.cache_key())) for q in queries]

        expected = fitted_iam.estimate_many(queries, rngs=rngs())
        clone = copy.deepcopy(fitted_iam)
        assert np.array_equal(clone.estimate_many(queries, rngs=rngs()), expected)

    def test_adaptive_estimate_reuses_plan(self, fitted_iam, twi_workload):
        sel, stderr, used = fitted_iam.estimate_adaptive(
            twi_workload.queries[0], max_samples=fitted_iam.config.n_progressive_samples
        )
        assert 0.0 <= sel <= 1.0 and stderr >= 0.0 and used > 0


# ---------------------------------------------------------------------------
# Naru-style + factorized columns
# ---------------------------------------------------------------------------


class TestWildcardContextMemo:
    @pytest.mark.parametrize("arch", ["made", "resmade"])
    def test_matches_plain_forward_and_memoizes(self, arch):
        plan = compile_made(make_model(arch))
        workspace = Workspace()
        n_rows = 16
        tokens = np.empty((n_rows, plan.n_columns), dtype=np.int64)
        tokens[:] = plan.wildcard_ids
        for column in plan.ar_order():
            direct = softmax_inplace(
                plan.forward_slice(column, tokens, workspace=Workspace()).copy()
            )
            first = plan.forward_prefix_probs(column, (), n_rows, workspace).copy()
            assert np.array_equal(first, direct)
            # Second call replays the cache — corrupt the scratch buffers
            # first to prove the trunk is not rerun.
            for buffer in workspace._buffers.values():
                if buffer.dtype == plan.dtype:
                    buffer.fill(np.nan)
            again = plan.forward_prefix_probs(column, (), n_rows, workspace)
            assert np.array_equal(again, direct)
        # One all-wildcard entry per column, in the plan-owned shared
        # PrefixCache.
        assert len(plan.prefix_cache) == plan.n_columns
        stats = plan.prefix_cache.stats()
        assert stats["misses"] == plan.n_columns
        assert stats["hits"] == plan.n_columns  # the replay round

    def test_sampler_first_column_uses_prefix_cache(self):
        made = make_model("resmade")
        sampler = ProgressiveSampler(made, n_samples=32, seed=3)
        constraints = toy_constraints(wildcard_col=None)
        sampler.estimate_batch([constraints], rngs=[ensure_rng(5)])
        wildcard_keys = [k for k in sampler.plan.prefix_cache._entries if k[1] == ()]
        # The first sampled column's all-wildcard context is cached, once.
        assert len(wildcard_keys) == 1
        # And the cached path stays bitwise-equal to the Module backend.
        module = ProgressiveSampler(made, n_samples=32, seed=3, use_plan=False)
        a = sampler.estimate_batch([constraints], rngs=[ensure_rng(5)])
        b = module.estimate_batch([constraints], rngs=[ensure_rng(5)])
        assert np.array_equal(a, b)


class TestNaruFactorizedEquivalence:
    @pytest.fixture(scope="class")
    def naru(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 8, 3000)
        x = np.round(rng.normal(a.astype(float), 0.3), 3)
        from repro.data.table import Table

        table = Table.from_mapping("corr", {"a": a, "b": a.copy(), "x": x})
        est = NaruEstimator(
            epochs=2,
            hidden_sizes=(24, 24, 24),
            n_progressive_samples=128,
            learning_rate=1e-2,
            factorize_threshold=500,
            seed=0,
        ).fit(table)
        # x (~3000 distinct) factorizes -> per_sample digit constraints.
        assert len(est._plan.vocab_sizes) == 4
        return est

    def test_runtime_plan_exposed(self, naru):
        assert isinstance(naru.runtime_plan(), MADEPlan)

    def test_factorized_estimates_bitwise(self, naru):
        queries = [
            Query.from_pairs([("a", "=", 3)]),
            Query.from_pairs([("x", "<=", float(np.median(naru.table["x"].values)))]),
            Query.from_pairs([("a", ">=", 2), ("x", ">", 1.0)]),
        ]
        constraints = [naru._constraints(q) for q in queries]
        plan_sampler = ProgressiveSampler(
            naru.model, n_samples=naru.n_progressive_samples, seed=ensure_rng(naru.seed)
        )
        module_sampler = ProgressiveSampler(
            naru.model,
            n_samples=naru.n_progressive_samples,
            seed=ensure_rng(naru.seed),
            use_plan=False,
        )
        assert np.array_equal(
            plan_sampler.estimate_batch(constraints),
            module_sampler.estimate_batch(constraints),
        )


# ---------------------------------------------------------------------------
# RangeMassCache
# ---------------------------------------------------------------------------


class TestRangeMassCache:
    @pytest.fixture()
    def reducer(self):
        reducer = IdentityReducer()
        reducer.fit(np.arange(10, dtype=np.int64))
        return reducer

    def test_bitwise_equal_and_memoized(self, reducer):
        cache = RangeMassCache({"c": reducer})
        intervals = [(2.0, 5.0), (8.0, 9.0)]
        direct = reducer.range_mass(intervals)
        first = cache.range_mass("c", intervals)
        assert np.array_equal(first, direct)
        assert cache.hits == 0 and cache.misses == 1
        second = cache.range_mass("c", intervals)
        assert second is first  # memoized object, not recomputed
        assert cache.hits == 1
        assert not second.flags.writeable

    def test_single_interval_memo_shared_across_unions(self, reducer):
        cache = RangeMassCache({"c": reducer})
        cache.range_mass("c", [(2.0, 5.0)])
        singles = cache._single["c"]
        assert set(singles) == {(2.0, 5.0)}
        # A different union reusing the same bound hits the level-1 memo.
        cache.range_mass("c", [(2.0, 5.0), (7.0, 9.0)])
        assert set(singles) == {(2.0, 5.0), (7.0, 9.0)}

    def test_custom_range_mass_reducers_memoized_whole(self, reducer):
        nullable = NullableReducer(reducer)
        cache = RangeMassCache({"c": nullable})
        intervals = [(2.0, 5.0)]
        got = cache.range_mass("c", intervals)
        assert np.array_equal(got, nullable.range_mass(intervals))
        assert got[-1] == 0.0  # NULL token mass preserved by the fallback
        assert cache._single.get("c") is None  # decomposition not used
        assert cache.range_mass("c", intervals) is got

    def test_invalidate_and_replace_column(self, reducer):
        cache = RangeMassCache({"c": reducer})
        cache.range_mass("c", [(0.0, 3.0)])
        assert cache.stats()["entries"] > 0
        cache.invalidate()
        assert cache.stats()["entries"] == 0
        assert cache.version == 1
        cache.range_mass("c", [(0.0, 3.0)])
        # Swapping the reducer for a column drops that column's entries.
        other = IdentityReducer()
        other.fit(np.arange(4, dtype=np.int64))
        cache.add_column("c", other)
        assert cache.stats()["entries"] == 0
        assert len(cache.range_mass("c", [(0.0, 3.0)])) == other.n_tokens

    def test_eviction_bounds_memory(self, reducer):
        cache = RangeMassCache({"c": reducer}, max_entries_per_column=4)
        for i in range(10):
            cache.range_mass("c", [(float(i), float(i + 1))])
        assert cache.evictions > 0
        assert cache.stats()["entries"] <= 8  # 4 per level

    def test_unknown_column_raises(self, reducer):
        cache = RangeMassCache({"c": reducer})
        with pytest.raises(KeyError):
            cache.range_mass("nope", [(0.0, 1.0)])

    def test_build_constraints_with_cache_matches_direct(self, fitted_iam, twi_workload):
        table, reducers = fitted_iam.table, fitted_iam.reducers
        cache = RangeMassCache({c.name: r for c, r in zip(table.columns, reducers)})
        for query in twi_workload.queries[:8]:
            direct = build_constraints(table, reducers, query)
            cached = build_constraints(table, reducers, query, mass_cache=cache)
            for a, b in zip(direct, cached):
                assert (a is None) == (b is None)
                if a is not None:
                    np.testing.assert_array_equal(np.asarray(a.mass), np.asarray(b.mass))


# ---------------------------------------------------------------------------
# Serving: plans at registration, invalidation on hot reload
# ---------------------------------------------------------------------------


class TestServeRuntimeIntegration:
    def test_register_captures_plan_and_reload_swaps_it(
        self, fitted_iam, twi_small, twi_workload, tmp_path
    ):
        path = os.fspath(tmp_path / "iam.npz")
        save_iam(fitted_iam, path)
        svc = EstimationService(ServeConfig(fallback_estimator=None))
        try:
            svc.load_model("twi", path, twi_small)
            served = svc._require_model("twi")
            assert isinstance(served.plan, MADEPlan)
            info = served.describe()
            assert info["compiled"] is True
            assert info["plan_fingerprint"] == served.plan.fingerprint

            query = twi_workload.queries[0]
            before_plan = served.plan
            before = svc.estimate("twi", query).selectivity

            os.utime(path, (time.time() + 5, time.time() + 5))
            assert svc.reload("twi") is True
            assert served.plan is not before_plan  # old plan invalidated
            # Same archive bits -> same compiled weights -> same fingerprint
            assert served.plan.fingerprint == before_plan.fingerprint
            after = svc.estimate("twi", query).selectivity
            assert after == before  # deterministic serving, bitwise
            assert svc.estimate_sequential("twi", query) == after
        finally:
            svc.close()

    def test_non_neural_estimators_serve_without_plan(self, twi_small, twi_workload):
        from repro.estimators.registry import build_estimator

        svc = EstimationService(ServeConfig(fallback_estimator=None))
        try:
            est = build_estimator("sampling", fraction=0.05, seed=0).fit(twi_small)
            served = svc.register("s", est)
            assert served.plan is None
            info = served.describe()
            assert info["compiled"] is False and info["plan_fingerprint"] is None
            svc.estimate("s", twi_workload.queries[0])
        finally:
            svc.close()


# ---------------------------------------------------------------------------
# Precision tiers: float32 plans, dtype pinning, tolerance harness
# ---------------------------------------------------------------------------


class TestPrecisionTiers:
    def test_workspace_rejects_cross_dtype_program(self):
        """Binding a float32 program onto float64 scratch is a CompileError."""
        made = make_model("resmade")
        plan64 = compile_made(made)
        plan32 = compile_made(made, dtype=np.float32)
        ws = Workspace()
        tokens, wildcard = random_inputs(8, seed=6)
        tokens = encode(plan64, tokens, wildcard)
        col = plan64.ar_order()[-1]  # runs the trunk (not the bias-only column)
        plan64.forward_slice(col, tokens, workspace=ws)
        with pytest.raises(CompileError):
            plan32.forward_slice(col, tokens, workspace=ws)
        ws.clear()  # clearing unpins the workspace for the other tier
        out = plan32.forward_slice(col, tokens, workspace=ws)
        assert out.dtype == np.float32
        with pytest.raises(CompileError):
            plan64.forward_slice(col, tokens, workspace=ws)

    def test_prefix_cache_pinned_to_plan_dtype(self):
        from repro.runtime.plan import PrefixCache

        made = make_model("resmade")
        plan32 = compile_made(made, dtype=np.float32)
        assert plan32.prefix_cache.dtype == np.float32
        with pytest.raises(ConfigError):
            plan32.prefix_cache.store(("k",), np.zeros(4))  # float64 entry
        unpinned = PrefixCache()
        unpinned.store(("k",), np.zeros(4))  # no dtype pin -> anything goes

    def test_per_dtype_prefix_caches_do_not_cross_contaminate(self):
        """f32 replay after f64 warmup (and vice versa) changes nothing."""
        made = make_model("resmade")
        queries = [toy_constraints(1), toy_constraints(3)]

        def run_pair(first: str):
            plans = {
                "f64": compile_made(made),
                "f32": compile_made(made, dtype=np.float32),
            }
            order = ("f64", "f32") if first == "f64" else ("f32", "f64")
            answers = {}
            for label in order:  # second run replays after the other's warmup
                sampler = ProgressiveSampler(plans[label], n_samples=32, seed=3)
                sampler.sample_weights(queries)
                answers[label] = ProgressiveSampler(
                    plans[label], n_samples=32, seed=3
                ).sample_weights(queries)
            for label, want in (("f64", np.float64), ("f32", np.float32)):
                for array in plans[label].prefix_cache._entries.values():
                    assert array.dtype == want
            return answers

        forward, backward = run_pair("f64"), run_pair("f32")
        assert np.array_equal(forward["f64"], backward["f64"])
        assert np.array_equal(forward["f32"], backward["f32"])

    def test_qerror_harness_flags_perturbed_plan(self):
        """The tolerance harness itself must catch a tampered plan."""
        from repro.metrics import q_errors

        reference = np.array([0.1, 0.02, 0.5])
        assert q_errors(reference, reference, n_rows=10**12).max() == 1.0
        assert q_errors(reference, reference * 1.02, n_rows=10**12).max() > 1.01
        assert q_errors(reference * 1.02, reference, n_rows=10**12).max() > 1.01  # symmetric
        assert q_errors([0.0], [0.0], n_rows=10**12).max() == 1.0  # shared zeros score 1.0

        made = make_model("resmade")
        plan = compile_made(made)
        meta, arrays = plan.to_buffers()
        tampered_arrays = {
            name: (array * 1.5 if name == "out_weight" else array)
            for name, array in arrays.items()
        }
        tampered = MADEPlan.from_buffers(meta, tampered_arrays, verify=False)
        queries = [toy_constraints(1), toy_constraints(3)]
        good = ProgressiveSampler(plan, n_samples=64, seed=2).estimate_batch(queries)
        bad = ProgressiveSampler(tampered, n_samples=64, seed=2).estimate_batch(queries)
        assert q_errors(good, bad, n_rows=10**12).max() > 1.01

    def test_float32_fitted_iam_within_qerror_tolerance(self, twi_small, twi_workload):
        """The float32 tier's tolerance contract on a fitted IAM: every
        estimate within a 1.01 q-error ratio of the float64 oracle."""
        from repro.core.config import IAMConfig
        from repro.core.model import IAM
        from repro.metrics import q_errors
        from repro.utils.rng import query_seed
        from tests.conftest import FAST_IAM

        # A model of its own: the shared ``fitted_iam`` stays float64.
        model = IAM(IAMConfig(**FAST_IAM)).fit(twi_small)
        queries = twi_workload.queries

        def rngs():
            return [ensure_rng(query_seed("iam", q.cache_key())) for q in queries]

        f64 = model.estimate_many(queries, rngs=rngs())
        model.set_precision("float32")
        assert model.runtime_plan().dtype == np.float32
        f32 = model.estimate_many(queries, rngs=rngs())
        assert q_errors(f64, f32, n_rows=10**12).max() <= 1.01

    def test_float32_serving_probe_within_qerror_tolerance(self):
        """The same contract at serving shape: a 128-wide ResMADE trunk,
        2,048 progressive samples, range constraints whose edge tokens
        carry fractional mass (what GMM-reduced ranges produce)."""
        from repro.metrics import q_errors

        vocab, n_columns = 48, 6
        made = build_made(
            [vocab] * n_columns, arch="resmade",
            hidden_sizes=(128, 128, 128), embed_dim=16, seed=11,
        )
        rng = np.random.default_rng(55)
        queries = []
        for _ in range(16):
            constraints: list = [None] * n_columns
            for column in rng.choice(n_columns, size=3, replace=False):
                lo = int(rng.integers(0, vocab - 1))
                hi = int(rng.integers(lo + 1, vocab + 1))
                mass = np.zeros(vocab)
                mass[lo:hi] = 1.0
                mass[lo] = rng.uniform(0.2, 1.0)
                mass[hi - 1] *= rng.uniform(0.2, 1.0)
                constraints[int(column)] = SlotConstraint(mass=mass)
            queries.append(constraints)

        def estimates(dtype):
            sampler = ProgressiveSampler(made, n_samples=2048, seed=9, dtype=dtype)
            return sampler.estimate_batch(
                queries, rngs=[ensure_rng(1000 + i) for i in range(len(queries))]
            )

        f64, f32 = estimates(None), estimates(np.float32)
        assert q_errors(f64, f32, n_rows=10**12).max() <= 1.01

    def test_config_validates_inference_precision(self):
        from repro.core.config import IAMConfig

        with pytest.raises(ConfigError):
            IAMConfig(inference_precision="float16")
        assert IAMConfig(inference_precision="float32").inference_precision == "float32"

    def test_set_precision_switch_is_deterministic(self, twi_small):
        """Tier switches are pure: no re-finalise, bitwise-reversible."""
        from repro.core.config import IAMConfig
        from repro.core.model import IAM
        from repro.query.workload import Workload

        config = dict(
            n_components=6,
            gmm_domain_threshold=100,
            epochs=1,
            hidden_sizes=(16, 16),
            n_progressive_samples=64,
            samples_per_component=500,
            seed=0,
        )
        queries = Workload.generate(twi_small, 6, seed=9).queries

        model = IAM(IAMConfig(**config)).fit(twi_small)
        baseline64 = model.estimate_many(queries)
        fresh32 = IAM(
            IAMConfig(**config, inference_precision="float32")
        ).fit(twi_small).estimate_many(queries)

        model.set_precision("float32")
        assert model.runtime_plan().dtype == np.float32
        switched = model.estimate_many(queries)
        assert np.array_equal(switched, fresh32)  # switch == fresh f32 fit

        model.set_precision("float64")
        assert model.runtime_plan().dtype == np.float64
        assert np.array_equal(model.estimate_many(queries), baseline64)

        with pytest.raises(ConfigError):
            model.set_precision("bfloat16")
