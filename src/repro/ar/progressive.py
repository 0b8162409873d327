"""Progressive sampling over a MADE model.

One sampler serves every AR-based estimator in this repository; the
behaviour differences are carried entirely by per-column
:class:`SlotConstraint` objects:

- Naru / Neurocard on a plain column: ``mass`` is the 0/1 indicator of
  tokens inside the query range (vanilla progressive sampling, proven
  unbiased in Naru);
- IAM on a GMM-reduced column: ``mass`` is the per-component range
  probability vector ``P_GMM(R_i)`` — the paper's Section 5.2 bias
  correction (the product ``P_AR(k | prefix) * P_GMM^k(R_i)`` is formed
  inside the sampler);
- Neurocard on a factorized column: the high subcolumn uses an indicator
  over digit values and the low subcolumn's valid set depends on the
  sampled high digit, supplied through ``per_sample``;
- join support: ``scale`` applies NeuroCard's fanout down-scaling
  ``1/f`` to each sample after the token is drawn;
- unqueried columns: constraint ``None`` → wildcard skipping (the input
  keeps the wildcard token and no factor is accumulated).

For each sample the accumulated product ``prod_i P(A_i in R_i | s_<i)``
is the selectivity estimate; the batch mean is returned.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import no_grad
from repro.ar.made import MADE
from repro.errors import ConfigError
from repro.runtime.plan import MADEPlan, Workspace, compile_made, softmax_inplace
from repro.utils.rng import ensure_rng


@dataclass
class SlotConstraint:
    """Constraint applied to one column during progressive sampling.

    Attributes
    ----------
    mass:
        (vocab,) or (batch, vocab) array in [0, 1]: the probability that a
        tuple carrying each token satisfies the range (1/0 for exact
        codecs, fractional for reduced domains).
    per_sample:
        Optional ``fn(sampled_tokens) -> (batch, vocab)`` producing masks
        that depend on already-sampled columns (factorized low digits).
        Multiplied with ``mass`` when both are present.
    scale:
        Optional ``fn(token_ids) -> (batch,)`` multiplicative per-sample
        weight applied after this column is sampled (fanout scaling).
    """

    mass: np.ndarray | None = None
    per_sample: Callable[[np.ndarray], np.ndarray] | None = None
    scale: Callable[[np.ndarray], np.ndarray] | None = None

    def resolve_mass(
        self, sampled_tokens: np.ndarray, vocab: int, dtype=np.float64
    ) -> np.ndarray | None:
        """Combine static and per-sample mass into (batch, vocab) or None.

        ``dtype`` is the sampler's working precision: float64 for the
        exact path, the plan dtype for reduced-precision plans. (It used
        to be hardwired to float64, silently upcasting float32 models.)
        A static 1-D ``mass`` resolves to a broadcast view over it, not
        a copy.
        """
        combined = None
        if self.mass is not None:
            mass = np.asarray(self.mass, dtype=dtype)
            if mass.ndim == 1:
                if mass.shape[0] != vocab:
                    raise ConfigError(
                        f"constraint mass has size {mass.shape[0]}, expected {vocab}"
                    )
                combined = np.broadcast_to(mass, (len(sampled_tokens), vocab))
            else:
                combined = mass
        if self.per_sample is None:
            return combined
        dynamic = np.asarray(self.per_sample(sampled_tokens), dtype=dtype)
        return dynamic if combined is None else combined * dynamic


class ProgressiveSampler:
    """Draws progressive samples from a MADE and aggregates selectivity.

    ``stratify_first=True`` replaces the i.i.d. categorical draws of each
    query's *first constrained column* with systematic (low-discrepancy)
    draws: all samples share one conditional distribution there, so a
    single uniform offset plus an even grid covers it proportionally.
    This is a classic variance-reduction device; the estimator stays
    unbiased because the marginal law of each draw is unchanged.

    Backends
    --------
    ``model`` may be a trained :class:`~repro.ar.made.MADE` or an already
    compiled :class:`~repro.runtime.plan.MADEPlan`. A MADE is compiled
    into a plan at construction (``use_plan=False`` opts out and runs the
    Module/autodiff path — kept for verification; both backends produce
    bitwise-identical weights). The plan is a snapshot of the weights:
    if the module trains further, build a new sampler.

    ``dtype`` selects the compiled plan's precision tier (forwarded to
    :func:`~repro.runtime.plan.compile_made`); the whole grouped
    sampling loop — masses, weights, conditionals — then runs in that
    dtype.  Per-query *uniform draws* stay float64 regardless: they come
    from the unchanged seeded generators, so the f32 tier consumes the
    exact doubles the f64 tier would, in the same order.
    """

    def __init__(
        self,
        model: MADE | MADEPlan,
        n_samples: int = 512,
        seed=None,
        stratify_first: bool = False,
        use_plan: bool = True,
        dtype=None,
    ):
        if n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if isinstance(model, MADEPlan):
            if dtype is not None and np.dtype(dtype) != model.dtype:
                raise ConfigError(
                    f"sampler dtype {np.dtype(dtype)} conflicts with the "
                    f"precompiled plan's dtype {model.dtype}; recompile with "
                    "compile_made(made, dtype=...) instead"
                )
            self.model = None
            self.plan = model
        else:
            self.model = model
            self.plan = compile_made(model, dtype=dtype) if use_plan else None
            if self.plan is None and dtype is not None and (
                np.dtype(dtype) != np.dtype(np.float64)
            ):
                raise ConfigError(
                    "precision tiers require the compiled plan backend; "
                    "the Module path runs float64 only (use_plan=True)"
                )
        # The metadata surface (n_columns/vocab_sizes/ar_order/...) both
        # backends share; also what sample_weights dispatches on.
        self.spec = self.plan if self.plan is not None else self.model
        self.dtype = np.dtype(np.float64) if self.plan is None else self.plan.dtype
        self._workspace = Workspace()
        self._ar_order = list(self.spec.ar_order())  # fixed per model
        self.n_samples = n_samples
        self.stratify_first = stratify_first
        self._rng = ensure_rng(seed)
        # Grouping stats for the most recent sample_weights call: one
        # entry per signature group, holding the number of queries it
        # coalesced. Read by the serving layer (under the model lock,
        # like every other sampler access) to feed batch telemetry.
        self.last_groups: list[int] = []

    def batch_stats(self) -> dict:
        """Signature-grouping stats for the last :meth:`sample_weights`."""
        groups = self.last_groups
        return {
            "groups": len(groups),
            "queries": sum(groups),
            "largest_group": max(groups) if groups else 0,
        }

    # ------------------------------------------------------------------
    def estimate(self, constraints: Sequence[SlotConstraint | None]) -> float:
        """Selectivity estimate for one query (mean over samples)."""
        return float(self.estimate_batch([constraints])[0])

    def estimate_batch(
        self,
        queries: Sequence[Sequence[SlotConstraint | None]],
        clip_negative: bool = True,
        rngs: Sequence[np.random.Generator] | None = None,
    ) -> np.ndarray:
        """Vectorised estimation of several queries at once.

        Queries that constrain the same columns share the forward
        passes (see :meth:`sample_weights`), constraints resolved per
        query.
        Returns (n_queries,) estimated selectivities. ``clip_negative``
        should stay on for selectivities; aggregate extensions (SUM over
        signed values via ``scale`` hooks) turn it off. ``rngs`` supplies
        one generator per query (see :meth:`sample_weights`).
        """
        per_query = self.sample_weights(queries, rngs=rngs)
        means = per_query.mean(axis=1)
        # maximum(x, 0.0) is value-identical to clip(x, 0.0, None)
        # (NaNs propagate through both) and much cheaper to dispatch.
        # In place into the fresh mean array: keeps the result at the
        # sampler dtype without a promotion-prone temporary.
        return np.maximum(means, 0.0, out=means) if clip_negative else means

    def estimate_with_error(
        self, constraints: Sequence[SlotConstraint | None]
    ) -> tuple[float, float]:
        """(estimate, standard error) for one query.

        The standard error of the per-sample weights quantifies the
        progressive-sampling Monte-Carlo uncertainty (it does NOT include
        model error); a 95% CI is roughly estimate ± 2·stderr.
        """
        weights = self.sample_weights([constraints])[0]
        estimate = float(np.clip(weights.mean(), 0.0, None))
        stderr = float(weights.std(ddof=1) / np.sqrt(len(weights))) if len(weights) > 1 else 0.0
        return estimate, stderr

    def sample_weights(
        self,
        queries: Sequence[Sequence[SlotConstraint | None]],
        rngs: Sequence[np.random.Generator] | None = None,
    ) -> np.ndarray:
        """(n_queries, n_samples) raw per-sample selectivity weights.

        ``rngs`` optionally supplies one independent generator per query.
        Each query's categorical draws then come from its own stream, so
        its weights depend only on (model, query, its generator) — NOT on
        the other queries sharing the forward passes. The serving layer
        relies on this to make batched results bitwise-equal to
        single-query runs (the AR forward pass is row-wise deterministic,
        and wildcard skipping keeps each query's rows independent).
        Without ``rngs`` the sampler's own stateful stream is used.

        Batches execute column-by-column across queries, not
        query-by-query: queries are grouped by *constrained-column
        signature* (the tuple of columns they constrain, in AR order)
        and each group runs one stacked trunk program per AR step, on
        one row per distinct sampled context (see :meth:`_sample_group`).
        Within a group every constrained column is active for every
        row, so the sampler works on pure views — no per-query forward
        passes.  Grouping
        does not change any query's draws: the forward pass is row-wise
        deterministic and each query consumes its own generator exactly
        as it would alone.
        """
        model = self.spec
        n_queries = len(queries)
        ns = self.n_samples
        if rngs is not None and len(rngs) != n_queries:
            raise ConfigError(
                f"expected {n_queries} per-query generators, got {len(rngs)}"
            )
        for constraints in queries:
            if len(constraints) != model.n_columns:
                raise ConfigError(
                    f"expected {model.n_columns} constraints per query, "
                    f"got {len(constraints)}"
                )

        # Group query indices by signature, preserving first-seen order
        # (deterministic for telemetry and for the shared-stream path).
        groups: dict[tuple[int, ...], list[int]] = {}
        ar_order = self._ar_order
        for qi, constraints in enumerate(queries):
            signature = tuple(
                [c for c in ar_order if constraints[c] is not None]
            )
            groups.setdefault(signature, []).append(qi)
        self.last_groups = [len(indices) for indices in groups.values()]

        out = np.empty((n_queries, ns), dtype=self.dtype)
        # The autodiff guard only matters on the Module backend; the plan
        # path is pure numpy and skips the (measurable) enter/exit cost.
        with no_grad() if self.plan is None else nullcontext():
            for signature, indices in groups.items():
                group_rngs = None if rngs is None else [rngs[qi] for qi in indices]
                out[indices] = self._sample_group(
                    signature,
                    [queries[qi] for qi in indices],
                    group_rngs,
                )
        return out

    def _sample_group(
        self,
        columns: tuple[int, ...],
        queries: Sequence[Sequence[SlotConstraint | None]],
        rngs: Sequence[np.random.Generator] | None,
    ) -> np.ndarray:
        """Sample one signature group: every query constrains ``columns``.

        Returns ``(len(queries), n_samples)`` raw weights. All rows are
        active at every step (that is what the signature guarantees), so
        the whole group is one stacked forward pass per AR column.  While
        every draw so far has been deterministic (equality-style
        constraints resolve a one-hot mass), the context is a pure
        function of (weights, prefix) and the logits come from the
        plan's shared :class:`~repro.runtime.plan.PrefixCache` instead
        of the trunk.

        After that, rows share far fewer contexts than there are rows
        (a GMM column has K component tokens), so each row carries a
        compact context id and the plan runs the trunk once per
        distinct context (``forward_slice(..., expand=ctx)``); the
        output projection, softmax, masses and draws still run on the
        full block.
        """
        model = self.spec
        g = len(queries)
        ns = self.n_samples
        n_rows = g * ns
        # `tokens` is internal scratch (never escapes this call) so it
        # lives in the workspace — a leading view of a buffer shared
        # across groups; the result is a fresh array.
        tokens = self._workspace.get("tokens", (n_rows, model.n_columns), np.int64)
        tokens[:] = model.wildcard_ids
        weights = np.ones(n_rows, dtype=self.dtype)
        first_column = True  # stratification applies to the first step only
        # Constrained-prefix tracking: while every draw so far has been
        # the same token for every row, the context is describable as a
        # (column, token) prefix and cacheable across queries.
        prefix: tuple = ()
        prefix_usable = self.plan is not None
        # Context ids: rows with equal `ctx` hold equal tokens, and
        # `first[j]` is a row holding context j. Tracked on the plan
        # path once the shared prefix ends.
        ctx = first = None
        # Per-query streams only: all of a query's categorical uniforms
        # are drawn in ONE generator call at its first uniform step (the
        # generator fills a block with exactly the doubles the
        # per-column calls would consume, in the same order), so the
        # column loop does no per-query generator work. The shared
        # stream (rngs is None) cannot hoist: its consumption order
        # interleaves queries within each column.
        uniforms: np.ndarray | None = None
        u_index = 0

        for column in columns:
            vocab = model.vocab_sizes[column]

            # No wildcard mask: unsampled columns hold their wildcard
            # id in `tokens`, which is exactly what the mask would
            # substitute — both backends skip that work bitwise-free.
            # Both feed one in-place softmax, so the plan path is
            # bitwise-equal to the Module path by shared code.
            if self.plan is not None:
                if prefix_usable:
                    # Cached post-softmax conditional: read-only on a
                    # hit (only ever read below — every branch derives
                    # fresh arrays from `probs`).
                    probs = self.plan.forward_prefix_probs(
                        column, prefix, n_rows, workspace=self._workspace
                    )
                else:
                    # Off the prefix path rows hold >= 2 contexts, so the
                    # trunk block never drops to a 1-row (gemv) matmul;
                    # forward_slice raises if it ever did.
                    probs = softmax_inplace(
                        self.plan.forward_slice(
                            column,
                            tokens[first],
                            workspace=self._workspace,
                            expand=ctx,
                        )
                    )
            else:
                probs = softmax_inplace(
                    self.model.column_logits(column, tokens).numpy()
                )

            # `mass` stays unmaterialised while no constraint resolves
            # one (all-ones mass would multiply away anyway), and a
            # single covering mass is used as-is — no template.
            resolved_at = []  # (row offset in the group block, mass)
            position = 0
            for constraints in queries:
                sub = tokens[position : position + ns]
                resolved = constraints[column].resolve_mass(
                    sub, vocab, dtype=self.dtype
                )
                if resolved is not None:
                    resolved_at.append((position, resolved))
                position += ns

            # Per Section 5.2: the range probability is the factor.
            # Rows whose constraint has no mass (e.g. fanout slots)
            # sample from the full conditional with factor 1.
            if not resolved_at:
                weighted = probs
                valid = probs.sum(axis=1)
            elif len(resolved_at) * ns == n_rows:  # every row carries mass
                if len(resolved_at) == 1:
                    weighted = probs * resolved_at[0][1]
                else:
                    # Per-query multiplies straight into the output:
                    # elementwise, so bitwise-equal to assembling the
                    # (n_rows, vocab) mass block and multiplying once,
                    # minus that block's allocation and fill pass.
                    weighted = np.empty((n_rows, vocab), dtype=self.dtype)
                    for offset, resolved in resolved_at:
                        rows = slice(offset, offset + ns)
                        np.multiply(probs[rows], resolved, out=weighted[rows])
                valid = weighted.sum(axis=1)
                weights *= valid
            else:
                # Mass-free rows keep their conditional untouched
                # (multiplying by an all-ones mass is exact), so start
                # from a copy and overwrite only the rows with mass.
                weighted = probs.copy()
                has_mass = np.zeros(n_rows, dtype=bool)
                for offset, resolved in resolved_at:
                    rows = slice(offset, offset + ns)
                    np.multiply(probs[rows], resolved, out=weighted[rows])
                    has_mass[rows] = True
                valid = weighted.sum(axis=1)
                weights[:] = np.where(has_mass, weights * valid, weights)

            # One min-reduce guards the (rare) dead-row path; the fast
            # path skips materialising the boolean mask entirely.
            if np.amin(valid) <= 0.0:
                dead = valid <= 0.0
                safe = np.where(dead, 1.0, valid)
                distribution = weighted / safe[:, None]
                distribution[dead] = probs[dead]  # arbitrary; weight is 0
            elif weighted is probs:
                distribution = weighted / valid[:, None]
            else:
                distribution = np.divide(weighted, valid[:, None], out=weighted)

            if self.stratify_first and first_column:
                draws = np.empty(n_rows, dtype=np.int64)
                position = 0
                for qi in range(g):
                    rng = self._rng if rngs is None else rngs[qi]
                    rows = slice(position, position + ns)
                    draws[rows] = _systematic_rows(distribution[rows], rng)
                    position += ns
            elif self.stratify_first or rngs is not None:
                # Per-query streams, group-level arithmetic: the cdf and
                # the comparison are row-wise ops, so computing them on
                # the stacked block is bitwise-identical to per-query
                # `_sample_rows` slices; only the uniforms must come
                # from each query's own generator, in query order.
                cdf = np.cumsum(distribution, axis=1)
                cdf[:, -1] = 1.0  # guard floating-point undershoot
                if rngs is not None:
                    if uniforms is None:
                        # Remaining uniform steps, this one included —
                        # the stratified first column (if any) consumed
                        # its systematic draws already, so each query's
                        # block starts exactly where its per-column
                        # stream would.
                        # Rows-first, so the buffer grows along axis 0
                        # like every other: column j of a row block is
                        # the query's j-th remaining uniform step.
                        remaining = len(columns) - columns.index(column)
                        uniforms = self._workspace.get(
                            "uniforms", (n_rows, model.n_columns), np.float64
                        )[:, :remaining]
                        position = 0
                        for qi in range(g):
                            uniforms[position : position + ns] = rngs[
                                qi
                            ].uniform(size=(remaining, ns)).T
                            position += ns
                    u = uniforms[:, u_index, None]
                    u_index += 1
                else:
                    u = self._workspace.get(
                        "uniforms", (n_rows, model.n_columns), np.float64
                    )[:, :1]
                    position = 0
                    for qi in range(g):
                        u[position : position + ns] = self._rng.uniform(
                            size=(ns, 1)
                        )
                        position += ns
                draws = (u > cdf).sum(axis=1, dtype=np.int64)
            else:
                draws = _sample_rows(distribution, self._rng)

            tokens[:, column] = draws
            first_column = False

            if prefix_usable and column != columns[-1]:
                # Extend the cacheable prefix only when the draw was the
                # same token on every row (verified on the actual draws,
                # so cached contexts are exact by construction). The
                # group's last column skips the check: the extended
                # prefix has no next step to consume it.
                token = int(draws[0])
                if (draws == token).all():
                    prefix = prefix + ((column, token),)
                else:
                    prefix_usable = False
            if not prefix_usable and self.plan is not None and column != columns[-1]:
                # Refine the context ids by this column's draw. Within
                # the prefix every row shares context 0, so the draw
                # alone keys the first split.
                keys = draws if ctx is None else ctx * vocab + draws
                _, first, ctx = np.unique(
                    keys, return_index=True, return_inverse=True
                )

            position = 0
            for constraints in queries:
                constraint = constraints[column]
                if constraint.scale is not None:
                    rows = slice(position, position + ns)
                    weights[rows] *= constraint.scale(draws[rows])
                position += ns

        return weights.reshape(g, ns)


def _sample_rows(distribution: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorised categorical sampling: one draw per row."""
    cdf = np.cumsum(distribution, axis=1)
    cdf[:, -1] = 1.0  # guard floating-point undershoot
    u = rng.uniform(size=(len(distribution), 1))
    return (u > cdf).sum(axis=1, dtype=np.int64)


def _systematic_rows(distribution: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic (stratified) draws: all rows share one distribution.

    One uniform offset + an even grid over [0, 1): each draw is still
    marginally distributed per the (shared) row distribution, but the
    batch covers it with minimal discrepancy. Rows are shuffled so
    downstream pairing carries no ordering artefacts.
    """
    n = len(distribution)
    cdf = np.cumsum(distribution[0])
    cdf[-1] = 1.0
    grid = (rng.uniform() + np.arange(n)) / n
    draws = np.searchsorted(cdf, grid, side="right").astype(np.int64)
    draws = np.minimum(draws, len(cdf) - 1)
    rng.shuffle(draws)
    return draws


def differentiable_estimate(
    model: MADE,
    constraints: Sequence[SlotConstraint | None],
    n_samples: int,
    rng: np.random.Generator,
):
    """Progressive-sampling selectivity as a differentiable Tensor.

    The estimator UAE (Wu & Cong, SIGMOD'21) trains the AR model *through*
    the sampler. Here the sampled token paths are treated as constants
    (drawn from the detached conditionals — the "frozen path" variant of
    UAE's Gumbel-softmax trick) while gradients flow through the range
    probability factors ``P(A_i in R_i | s_<i)``, which is where the
    query signal lives.

    Returns a scalar :class:`~repro.autodiff.tensor.Tensor` (requires
    grad when the model does).
    """
    from repro.autodiff.tensor import Tensor

    if len(constraints) != model.n_columns:
        raise ConfigError(
            f"expected {model.n_columns} constraints, got {len(constraints)}"
        )
    tokens = np.tile(model.wildcard_ids, (n_samples, 1))
    wildcard = np.ones((n_samples, model.n_columns), dtype=bool)
    factor_product: Tensor | None = None

    for column in model.ar_order():
        constraint = constraints[column]
        if constraint is None:
            continue
        vocab = model.vocab_sizes[column]
        logits = model.column_logits(column, tokens, wildcard_mask=wildcard)
        probs = ops.softmax(logits, axis=-1)  # graph retained
        mass = constraint.resolve_mass(tokens, vocab)
        if mass is None:
            mass = np.ones((n_samples, vocab))
        valid = (probs * Tensor(mass)).sum(axis=1)  # (n_samples,) Tensor
        factor_product = valid if factor_product is None else factor_product * valid

        weighted = probs.numpy() * mass
        row_sums = weighted.sum(axis=1)
        dead = row_sums <= 0
        safe = np.where(dead, 1.0, row_sums)
        distribution = weighted / safe[:, None]
        distribution[dead] = 1.0 / vocab
        draws = _sample_rows(distribution, rng)
        tokens[:, column] = draws
        wildcard[:, column] = False

    if factor_product is None:  # unconstrained query
        return Tensor(np.ones(1)).mean()
    return factor_product.mean()
