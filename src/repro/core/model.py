"""The IAM model (paper Section 4): GMMs + a deep AR model, end to end.

Usage::

    from repro import IAM, IAMConfig
    from repro.datasets import make_twi

    table = make_twi(50_000)
    model = IAM(IAMConfig(epochs=8)).fit(table)
    sel = model.estimate(query)          # one query
    sels = model.estimate_many(queries)  # batch inference

Column handling (paper Section 4.2, "When to Use GMMs"):

- a continuous column whose domain size exceeds
  ``config.gmm_domain_threshold`` is reduced by a GMM (or a Section-6.6
  alternative reducer when configured);
- every other column keeps its exact, order-preserving ordinal encoding.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.ar.made import MADE, build_made
from repro.ar.order import heuristic_order, identity_order, random_order
from repro.ar.progressive import ProgressiveSampler
from repro.core.config import IAMConfig, validate_precision
from repro.core.inference import IAMInference
from repro.core.training import JointTrainer
from repro.data.table import Table
from repro.errors import ConfigError, NotFittedError
from repro.metrics import clamp_selectivity
from repro.query.query import Query
from repro.reducers import (
    DomainReducer,
    EquiDepthReducer,
    GMMReducer,
    IdentityReducer,
    SplineReducer,
    UniformMixtureReducer,
)
from repro.utils.rng import ensure_rng, spawn_rngs


class IAM:
    """Integrated GMM + autoregressive selectivity estimator."""

    def __init__(self, config: IAMConfig | None = None):
        self.config = config or IAMConfig()
        self._table: Table | None = None
        self.reducers: list[DomainReducer] = []
        self.model: MADE | None = None
        self._inference: IAMInference | None = None
        self.epoch_losses: list[float] = []
        self.trainer: JointTrainer | None = None

    # ------------------------------------------------------------------
    # Column planning
    # ------------------------------------------------------------------
    def _wants_reduction(self, column) -> bool:
        return column.is_continuous() and column.domain_size > self.config.gmm_domain_threshold

    def _make_lossy_reducer(self, seed) -> DomainReducer:
        cfg = self.config
        k = cfg.n_components if cfg.n_components is not None else 30
        if cfg.reducer_kind == "gmm":
            return GMMReducer(
                n_components=cfg.n_components,
                interval_kind=cfg.interval_kind,
                samples_per_component=cfg.samples_per_component,
                seed=seed,
            )
        if cfg.reducer_kind == "loggmm":
            from repro.reducers.loggmm import LogGMMReducer

            # Log-space mixtures are fitted statically (before the AR
            # loop): the log transform decouples them from the joint
            # batch loop, like the Section 6.6 alternatives.
            return LogGMMReducer(
                n_components=cfg.n_components,
                interval_kind=cfg.interval_kind,
                samples_per_component=cfg.samples_per_component,
                seed=seed,
            )
        if cfg.reducer_kind == "hist":
            return EquiDepthReducer(n_bins=k)
        if cfg.reducer_kind == "spline":
            return SplineReducer(n_knots=k)
        return UniformMixtureReducer(n_components=k, seed=seed)

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        table: Table,
        on_epoch_end: Callable[[int, "IAM"], None] | None = None,
    ) -> "IAM":
        """Train the full model on a relation.

        ``on_epoch_end(epoch, model)`` is invoked with a *usable* model
        after each epoch (inference state refreshed), enabling the
        error-vs-epoch experiment (Figure 6).
        """
        cfg = self.config
        self._table = table
        rng_streams = spawn_rngs(cfg.seed, table.num_columns + 1)

        self.reducers = []
        gmm_modules: dict[int, object] = {}
        static_tokens = np.zeros((table.num_rows, table.num_columns), dtype=np.int64)

        for k, column in enumerate(table.columns):
            if self._wants_reduction(column):
                reducer = self._make_lossy_reducer(rng_streams[k])
                if isinstance(reducer, GMMReducer):
                    values = column.values.astype(np.float64)
                    module = reducer.initialise(values)
                    gmm_modules[k] = module
                    # Initial assignments; re-derived per batch in training.
                    static_tokens[:, k] = module.assign_numpy(values)
                else:
                    static_tokens[:, k] = reducer.fit_transform(
                        column.values.astype(np.float64)
                    )
            else:
                reducer = IdentityReducer()
                static_tokens[:, k] = reducer.fit_transform(column.values)
            self.reducers.append(reducer)

        vocab_sizes = [reducer.n_tokens for reducer in self.reducers]
        self.model = self._build_made(vocab_sizes, seed=rng_streams[-1])

        raw_columns = {k: self.reducers[k].fit_values for k in gmm_modules}
        trainer = JointTrainer(self.model, gmm_modules, raw_columns, static_tokens, cfg)
        # Kept so the fit can be inspected: TestJointTrainerBitwise
        # (tests/test_train_runtime.py) reads its GMMs and executor.
        self.trainer = trainer

        callback = None
        if on_epoch_end is not None:

            def callback(epoch: int, _loss: float) -> None:
                self._refresh_inference()
                on_epoch_end(epoch, self)

        self.epoch_losses = trainer.train(on_epoch_end=callback)
        self._refresh_inference()
        return self

    def _build_order(self, vocab_sizes: list[int]) -> np.ndarray:
        if self.config.order == "natural":
            return identity_order(len(vocab_sizes))
        if self.config.order == "random":
            return random_order(len(vocab_sizes), seed=self.config.seed)
        return heuristic_order(vocab_sizes)

    def _build_made(self, vocab_sizes: list[int], seed) -> MADE:
        """The configured AR network over ``vocab_sizes`` (fit and load)."""
        cfg = self.config
        return build_made(
            vocab_sizes,
            arch=cfg.arch,
            hidden_sizes=cfg.hidden_sizes,
            embed_dim=cfg.embed_dim,
            order=self._build_order(vocab_sizes),
            seed=seed,
        )

    def _refresh_inference(self) -> None:
        """(Re)build frozen mixtures, interval estimators, and the sampler.

        Runs after fit, after each ``on_epoch_end`` epoch, on a precision
        switch and at load. ``GMMReducer.finalise`` replays its first
        interval draw, so over unchanged mixture parameters every call
        rebuilds bitwise the same masses.
        """
        assert self.model is not None and self._table is not None
        for reducer in self.reducers:
            if isinstance(reducer, GMMReducer):
                reducer.finalise()
        sampler = ProgressiveSampler(
            self.model,
            n_samples=self.config.n_progressive_samples,
            seed=ensure_rng(self.config.seed),
            stratify_first=self.config.stratified_sampling,
            # None: the module's native float64, the bitwise-exact tier.
            dtype=np.float32 if self.config.inference_precision == "float32" else None,
        )
        self._inference = IAMInference(
            self._table, self.reducers, sampler, bias_correction=self.config.bias_correction
        )

    def set_precision(self, precision: str) -> "IAM":
        """Switch the inference precision tier in place.

        Recompiles the plan (and rebuilds the sampler, mass cache, and
        prefix cache — all dtype-pinned) when the model is fitted;
        otherwise just records the knob for the eventual ``fit``.  The
        serving layer calls this on register and on every hot reload so
        a model keeps its tier across weight swaps.
        """
        validate_precision(precision)
        changed = precision != self.config.inference_precision
        self.config.inference_precision = precision
        if changed and self._inference is not None:
            self._refresh_inference()
        return self

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    @property
    def table(self) -> Table:
        if self._table is None:
            raise NotFittedError("IAM used before fit()")
        return self._table

    def _require_inference(self) -> IAMInference:
        if self._inference is None:
            raise NotFittedError("IAM used before fit()")
        return self._inference

    def runtime_plan(self):
        """The compiled :class:`~repro.runtime.plan.MADEPlan` answering
        queries (None before fit). Rebuilt by ``_refresh_inference`` on
        every (re)fit, so it always snapshots the current weights."""
        if self._inference is None:
            return None
        return self._inference.sampler.plan

    def batch_group_sizes(self) -> list[int] | None:
        """Signature-group sizes of the sampler's last batch (see
        :meth:`~repro.ar.progressive.ProgressiveSampler.sample_weights`);
        None before fit."""
        if self._inference is None:
            return None
        return list(self._inference.sampler.last_groups)

    def estimate(self, query: Query) -> float:
        """Estimated selectivity of one conjunctive query."""
        raw = float(self._require_inference().estimate_batch([query])[0])
        return clamp_selectivity(raw, self.table.num_rows)

    def estimate_many(
        self,
        queries: Sequence[Query],
        batch_size: int = 16,
        rngs: Sequence[np.random.Generator] | None = None,
    ) -> np.ndarray:
        """Batch inference (Section 5.3): queries share forward passes.

        ``rngs`` (one generator per query) makes each estimate a pure
        function of (model, query, generator) regardless of batching —
        the serving layer's determinism contract.
        """
        inference = self._require_inference()
        out = np.empty(len(queries))
        for start in range(0, len(queries), batch_size):
            chunk = list(queries[start : start + batch_size])
            chunk_rngs = None if rngs is None else list(rngs[start : start + len(chunk)])
            out[start : start + len(chunk)] = inference.estimate_batch(chunk, rngs=chunk_rngs)
        n = self.table.num_rows
        return np.clip(out, 1.0 / n, 1.0)

    def cardinality(self, query: Query) -> float:
        """Estimated result rows."""
        return self.estimate(query) * self.table.num_rows

    def estimate_with_error(self, query: Query) -> tuple[float, float]:
        """(selectivity, sampling standard error) for one query.

        The error reflects progressive-sampling variance only (not model
        bias); useful for deciding whether more samples would help.
        """
        inference = self._require_inference()
        (constraints,) = inference.constraints([query])
        estimate, stderr = inference.sampler.estimate_with_error(constraints)
        return clamp_selectivity(estimate, self.table.num_rows), stderr

    def estimate_adaptive(
        self,
        query: Query,
        target_relative_error: float = 0.1,
        max_samples: int = 8192,
    ) -> tuple[float, float, int]:
        """Estimate with a sampling budget sized to the query (two stages).

        A pilot of ``S0 = n_progressive_samples`` samples measures the
        relative standard error ``rse``; the answer and its stderr then
        come from ``S = ceil(S0 * (rse / target_relative_error)**2)``
        (at least 1) *fresh* samples drawn on a generator independent of
        the pilot's. Only the pilot's draws choose S, so the answer stays
        unbiased (Theorem 5.1), which stopping on the answer's own
        samples would not. Returns ``(selectivity, stderr,
        samples_used)``; ``samples_used`` counts both stages and never
        exceeds ``max_samples`` (at least 2): the pilot shrinks to
        ``max_samples // 2`` when S0 is larger, and S is capped at what
        the pilot leaves.
        """
        if max_samples < 2 or target_relative_error <= 0:
            raise ConfigError(
                "estimate_adaptive needs max_samples >= 2 and target_relative_error > 0"
            )
        inference = self._require_inference()
        (constraints,) = inference.constraints([query])
        pilot_rng, answer_rng = inference.sampler.child_rngs(2)

        def draw(n_samples: int, rng) -> tuple[float, float]:
            # A sampler per budget over the same compiled plan.
            return ProgressiveSampler(
                inference.sampler.plan,
                n_samples=n_samples,
                seed=rng,
                stratify_first=self.config.stratified_sampling,
            ).estimate_with_error(constraints)

        pilot_samples = min(self.config.n_progressive_samples, max_samples // 2)
        pilot, pilot_stderr = draw(pilot_samples, pilot_rng)
        rse = pilot_stderr / pilot if pilot > 0 else 0.0
        wanted = math.ceil(pilot_samples * (rse / target_relative_error) ** 2)
        samples = min(max(wanted, 1), max_samples - pilot_samples)
        estimate, stderr = draw(samples, answer_rng)
        return (
            clamp_selectivity(estimate, self.table.num_rows),
            stderr,
            pilot_samples + samples,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """AR parameters + reducer parameters (float32 accounting).

        Monte-Carlo interval samples are *derived* state (regenerable
        from the GMM parameters) and therefore not counted, matching the
        paper's model-size tables where IAM is smaller than Neurocard.
        """
        if self.model is None:
            raise NotFittedError("IAM used before fit()")
        total = self.model.size_bytes()
        for reducer in self.reducers:
            if not isinstance(reducer, IdentityReducer):
                total += reducer.size_bytes()
        return total

    def reduced_domain_sizes(self) -> list[int]:
        """Per-column token-domain sizes after reduction."""
        if self.model is None:
            raise NotFittedError("IAM used before fit()")
        return list(self.model.vocab_sizes)

    def constraints_for(self, query: Query):
        """Expose the Section 5.1 constructed query (for tests/debugging)."""
        return self._require_inference().constraints([query])[0]

    def explain(self, query: Query) -> list[dict]:
        """Human-readable per-column account of how a query is handled.

        One dict per column: reducer type, token-domain size, whether the
        column is queried, and — for queried columns — the summed range
        mass (the fraction of the token domain the query can reach,
        weighted by the bias correction). Intended for debugging why an
        estimate looks off.
        """
        constraints = self.constraints_for(query)
        report = []
        for column, reducer, constraint in zip(
            self.table.columns, self.reducers, constraints
        ):
            entry = {
                "column": column.name,
                "reducer": type(reducer).__name__,
                "tokens": reducer.n_tokens,
                "exact": reducer.is_exact,
                "queried": constraint is not None,
            }
            if constraint is not None and constraint.mass is not None:
                mass = np.asarray(constraint.mass)
                entry["mass_total"] = float(mass.sum())
                entry["tokens_touched"] = int((mass > 0).sum())
            report.append(entry)
        return report
