"""Compiled MADE inference plans.

Training and inference have opposite needs: the training path wants the
closure-based :class:`~repro.autodiff.tensor.Tensor` graph (gradients,
mask re-application every step so masked weights never learn), while the
query path (paper Section 5.2 progressive sampling) is pure inference —
the same ~D forward passes per query, weights frozen.  This module
compiles a trained :class:`~repro.ar.made.MADE` into a
:class:`MADEPlan`: contiguous read-only numpy arrays with the binary
connectivity masks folded into the weights once (``W * mask`` at compile
time), per-column output projections pre-sliced, and all scratch memory
coming from a caller-owned :class:`Workspace` of preallocated buffers.

Numerics contract
-----------------
Every plan operation replays the Module path's float operations in the
same order on the same dtype, so logits — and therefore progressive-
sampling selectivities — are **bitwise identical** to the
``nn``/``autodiff`` path (asserted by ``tests/test_runtime.py``, end to
end by ``TestIAMEndToEnd::test_estimates_bitwise_equal_to_module_path``).
Forwards that skip rows rest on *row independence*: a trunk row's bits
do not depend on the block's row count or the row's position, for
blocks of 2 or more rows (1-row blocks take gemv), while a narrow
per-column output projection may round differently below a BLAS
small-matrix threshold — so :meth:`MADEPlan.forward_slice` runs the
trunk on distinct contexts but projects the full block
(``tests/test_runtime.py::TestRowIndependence``; docs/runtime.md "Row
independence").
Compiling with a narrower ``dtype`` (e.g. ``np.float32``) produces the
*serving tier*: an approximation, not a bitwise replay, held instead to
a q-error tolerance contract (max q-error ratio vs the float64 path
<= 1.01, asserted by the ``test_float32_*_within_qerror_tolerance``
tests in ``tests/test_runtime.py``; see docs/runtime.md "Precision
tiers").  Everything downstream of the plan — prebound programs,
PrefixCache entries, range-mass tables — carries the plan dtype, and a
:class:`Workspace` is pinned to the first plan dtype that binds a
program on it so the two tiers can never silently share scratch.

Thread-safety contract
----------------------
A :class:`MADEPlan` is immutable after compilation (every array is
marked read-only) and may be shared freely across threads — the serving
layer compiles one plan per registered model and lets every worker use
it.  The one mutable structure a plan owns, its :class:`PrefixCache` of
constrained-prefix logits, is internally locked and only ever hands out
frozen arrays, so sharing the plan shares the cache safely too.  A
:class:`Workspace` is mutable scratch state and must NOT be shared
between concurrent callers; give each thread (or each sampler) its own,
or pass ``workspace=None`` to fall back to per-call allocations.
"""

from __future__ import annotations

import hashlib
import threading
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import CompileError, ConfigError, ShapeError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.ar.made import MADE

__all__ = [
    "MADEPlan",
    "PrefixCache",
    "Workspace",
    "compile_made",
    "plan_fingerprint",
    "softmax_inplace",
]


class Workspace:
    """Preallocated scratch buffers keyed on ``(tag, shape, dtype)``.

    Buffers are created lazily on first request and reused verbatim for
    every later request with the same key, so a sampler issuing the same
    batch shape D times per query allocates nothing after warm-up.  Not
    thread-safe: one workspace per concurrent caller.

    A workspace is additionally pinned to one *plan* dtype: the first
    compiled program bound onto it fixes the precision tier, and binding
    a program of a different plan dtype raises :class:`CompileError`
    (see :meth:`bind_program_dtype`).  Non-program buffers requested via
    :meth:`get` are exempt — the sampler deliberately keeps its uniform
    draws in float64 next to a float32 plan's scratch.
    """

    __slots__ = ("_buffers", "_programs", "_program_dtype")

    # Bound on memoised trunk programs (~8 KB each at hidden 128): the
    # distinct-context forward binds one per trunk row count, so FIFO
    # eviction keeps a long-lived sampler's set from growing with every
    # count it has seen.  A rebuilt program costs ~55 us.
    MAX_PROGRAMS = 256

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        # Compiled step lists (see MADEPlan._trunk_program), keyed by
        # (plan fingerprint, capacity, batch). Closures bind the buffers
        # above, so clearing one without the other would leave dangling
        # aliases.  (Memoised forward results used to live here too; they
        # moved to the plan-owned PrefixCache so every workspace — and
        # every cluster worker — shares one copy.)
        self._programs: dict[tuple, tuple] = {}
        # Plan dtype of the first program bound here; None until then.
        self._program_dtype: np.dtype | None = None

    def bind_program_dtype(self, dtype: np.dtype) -> None:
        """Pin this workspace to plans of ``dtype`` (first bind wins).

        Trunk-program buffers are keyed by dtype, so reusing one
        workspace across a float64 and a float32 plan would not corrupt
        results — it would silently double the scratch footprint and
        defeat the bandwidth win the narrow tier exists for.  The plan
        calls this before binding a program; a cross-tier reuse raises
        :class:`CompileError` so the caller allocates one workspace per
        precision tier instead.
        """
        if self._program_dtype is None:
            self._program_dtype = np.dtype(dtype)
        elif self._program_dtype != np.dtype(dtype):
            raise CompileError(
                f"workspace already holds {self._program_dtype} program "
                f"scratch; binding a {np.dtype(dtype)} plan program onto it "
                "would silently mix precision tiers — use one Workspace per "
                "plan dtype (or clear() this one first)"
            )

    def get(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Return the reusable buffer for ``(tag, shape, dtype)``.

        Contents are unspecified on entry; callers overwrite fully.
        """
        key = (tag, shape, np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[key] = buffer
        return buffer

    def clear(self) -> None:
        self._buffers.clear()
        self._programs.clear()
        self._program_dtype = None

    def __deepcopy__(self, memo) -> "Workspace":
        # A copy starts empty, as a pickled workspace does (PlanPickler):
        # copied program closures would write into copies of the views
        # they bind, not into the copied buffers, and so read stale input.
        return Workspace()

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)


def softmax_inplace(logits: np.ndarray) -> np.ndarray:
    """Row softmax, in place, mirroring ``ops.softmax`` numerics exactly.

    Same max-subtraction (with the non-finite guard) and the same
    ``exp / sum`` division, so the result is bitwise equal to
    ``ops.softmax(Tensor(logits), axis=-1).numpy()`` — the sampler uses
    this one implementation for both the plan and the Module backends.
    """
    m = logits.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():  # rare: all-masked rows produce -inf maxima
        m = np.where(np.isfinite(m), m, 0.0)
    np.subtract(logits, m, out=logits)
    np.exp(logits, out=logits)
    total = logits.sum(axis=-1, keepdims=True)
    np.divide(logits, total, out=logits)
    return logits


def _frozen(array: np.ndarray, dtype) -> np.ndarray:
    """A contiguous read-only copy decoupled from the training weights."""
    out = np.array(array, dtype=dtype, copy=True, order="C")
    out.setflags(write=False)
    return out


def _frozen_view(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only in place and return it (no copy).

    The zero-copy counterpart of :func:`_frozen` for arrays that already
    live in their final storage (e.g. views into a shared-memory
    segment): freezing the view enforces the plan's immutability
    contract without duplicating the bytes the segment exists to share.
    """
    out = array
    out.setflags(write=False)
    return out


def _uniform_rows(block: np.ndarray) -> np.ndarray:
    """``block[:1]`` when every row has row 0's bits, else ``block``.

    A prefix context feeds every row the same input, and the forward
    gives every row the same bits, so a cache entry needs one row and
    hits replay it by broadcast.  The check is on the bits (not ``==``,
    which equates ``-0.0`` with ``0.0``): should a BLAS ever give rows
    different bits, the whole block is kept and replays stay exact.
    """
    bits = block.view(f"u{block.itemsize}")
    return block[:1] if (bits == bits[:1]).all() else block


class PrefixCache:
    """Bounded cache of per-column logits for constrained-column prefixes.

    Progressive sampling repeatedly evaluates the MADE on contexts that
    are pure functions of the compiled weights: before any column is
    sampled every input token is the wildcard id, and after an
    equality-constrained column every sample carries the same token.
    Those contexts — a *prefix* of ``(column, token)`` assignments over
    an otherwise all-wildcard input — produce identical logits for every
    query that reaches them, so the plan caches the forward result once
    and replays the bytes for every later query, thread, and (via the
    shared-memory export, see :meth:`MADEPlan.to_buffers`) cluster
    worker.

    Entries are keyed ``(column, prefix, n_rows)`` where ``prefix`` is a
    tuple of ``(column, token)`` pairs in sampling order.  Every row of
    such a context is the same, so the plan stores one ``(1, vocab)``
    row per entry (see :func:`_uniform_rows`) and replays it broadcast
    to ``n_rows``; the cache itself stores whatever array it is given.
    The owning plan's fingerprint is implicit (one cache per plan, so a
    hot reload or cluster segment swap installs a fresh, empty cache and
    old entries can never leak across weight snapshots).  Stored arrays
    are frozen read-only copies, making the cache safe to share across
    threads: all bookkeeping happens under ``_lock`` and readers only
    ever see immutable arrays.

    The cache is bounded (FIFO eviction at ``max_entries``) so
    adversarial workloads — many distinct equality prefixes — cannot
    grow it without limit.

    When constructed with a ``dtype`` (every plan-owned cache is), the
    cache is pinned to that precision tier: storing an entry of any
    other dtype raises :class:`ConfigError`.  Plans of different dtypes
    already own distinct caches (their fingerprints differ), so the pin
    is a tripwire, making f32/f64 cross-contamination structurally
    impossible rather than merely unlikely.
    """

    def __init__(self, max_entries: int = 256, dtype=None) -> None:
        if max_entries < 1:
            raise ConfigError("PrefixCache max_entries must be >= 1")
        self._lock = threading.Lock()
        self.max_entries = int(max_entries)
        self.dtype = None if dtype is None else np.dtype(dtype)
        self._entries: dict[tuple, np.ndarray] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def lookup(self, key: tuple) -> np.ndarray | None:
        """The frozen logits for ``key``, or None (counted as hit/miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
            else:
                self._hits += 1
            return entry

    def store(self, key: tuple, array: np.ndarray) -> None:
        """Insert ``array`` (frozen in place) unless ``key`` is present."""
        if self.dtype is not None and array.dtype != self.dtype:
            raise ConfigError(
                f"PrefixCache is pinned to {self.dtype}; refusing to store a "
                f"{array.dtype} entry for key {key!r} — per-dtype caches must "
                "not cross-contaminate precision tiers"
            )
        with self._lock:
            if key in self._entries:
                return  # a concurrent caller won the race; keep its entry
            while len(self._entries) >= self.max_entries:
                self._entries.pop(next(iter(self._entries)))
                self._evictions += 1
            self._entries[key] = _frozen_view(array)

    def stats(self) -> dict:
        """Monotone counters + current size, for telemetry deltas."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def export(self) -> list[tuple[tuple, np.ndarray]]:
        """Snapshot of ``(key, frozen array)`` pairs, insertion-ordered."""
        with self._lock:
            return list(self._entries.items())

    def __reduce__(self):
        # The lock is process-local and the entries are derived data
        # (rebuilt on first miss, or shipped explicitly by the plan's
        # shared-memory export) — a pickled cache travels empty, like a
        # freshly compiled plan's. Pinned to the base class: dynamic
        # instrumentation subclasses (the race sanitizer's) are
        # process-local and not picklable by name.
        dtype = None if self.dtype is None else self.dtype.str
        return (PrefixCache, (self.max_entries, dtype))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def plan_fingerprint(
    positions: np.ndarray,
    out_weight: np.ndarray,
    embeddings: Sequence[np.ndarray],
    trunk_weights: Sequence[np.ndarray],
) -> str:
    """The content hash identifying a compiled plan's weight snapshot.

    Shared by :func:`compile_made` (stamping fresh plans) and
    :meth:`MADEPlan.from_buffers` (verifying imported array sets), so a
    fingerprint match means the arrays are bitwise the ones the plan was
    compiled with.
    """
    digest = hashlib.sha256()
    digest.update(np.asarray(positions, dtype=np.int64).tobytes())
    for array in (out_weight, *embeddings, *trunk_weights):
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


class MADEPlan:
    """A trained MADE exported to pure-numpy execution form.

    Built by :func:`compile_made`, never mutated afterwards.  Exposes the
    sampler-facing surface of :class:`~repro.ar.made.MADE`
    (``n_columns`` / ``vocab_sizes`` / ``wildcard_ids`` / ``ar_order``)
    plus two execution entry points:

    - :meth:`forward_logits` — logits for every column at once;
    - :meth:`forward_slice` — logits for one column only, the shape the
      progressive sampler needs at step *i* (only that column's slice of
      the output projection is multiplied).
    """

    def __init__(
        self,
        *,
        vocab_sizes: list[int],
        positions: np.ndarray,
        embed_widths: list[int],
        embeddings: list[np.ndarray],
        residual: bool,
        trunk: list[tuple[np.ndarray, np.ndarray | None]],
        out_weight: np.ndarray,
        out_bias: np.ndarray | None,
        dtype: np.dtype,
        fingerprint: str,
    ) -> None:
        self.vocab_sizes = list(vocab_sizes)
        self.n_columns = len(self.vocab_sizes)
        self.positions = positions
        self.embed_widths = list(embed_widths)
        self.embeddings = embeddings
        self.residual = residual
        self.trunk = trunk
        self.out_weight = out_weight
        self.out_bias = out_bias
        self.dtype = np.dtype(dtype)
        self.fingerprint = fingerprint

        self.input_width = sum(self.embed_widths)
        self.hidden_width = out_weight.shape[0]
        self.wildcard_ids = np.asarray(self.vocab_sizes, dtype=np.int64)
        self.wildcard_ids.setflags(write=False)

        self._embed_slices: list[slice] = []
        start = 0
        for width in self.embed_widths:
            self._embed_slices.append(slice(start, start + width))
            start += width
        self.output_slices: list[slice] = []
        start = 0
        for vocab in self.vocab_sizes:
            self.output_slices.append(slice(start, start + vocab))
            start += vocab
        self.total_vocab = start
        # Per-column contiguous output projections: matches the Module
        # path, which materialises `(weight * mask)[:, s]` as a fresh
        # contiguous array on every column_logits call.
        self._out_weight_cols = []
        self._out_bias_cols = []
        for s in self.output_slices:
            w = np.ascontiguousarray(self.out_weight[:, s])
            w.setflags(write=False)
            self._out_weight_cols.append(w)
            if self.out_bias is None:
                self._out_bias_cols.append(None)
            else:
                b = np.ascontiguousarray(self.out_bias[s])
                b.setflags(write=False)
                self._out_bias_cols.append(b)
        # The column at AR position 0 conditions on nothing: its output
        # mask zeroes every hidden connection, so its folded projection is
        # all zeros and its logits are the bias row, independent of the
        # input. Detected per column at compile time so forward_slice can
        # skip the whole trunk (h @ 0 + b == b for any finite h).
        self._const_cols = [not w.any() for w in self._out_weight_cols]
        # Precomputed here, not lazily: plans are shared across serving
        # threads without a lock, so no attribute may be written after
        # __init__ (enforced by the plan-immutability analysis pass).
        self._ar_order = [int(c) for c in np.argsort(self.positions, kind="stable")]
        # Shared logits cache for constrained-column prefixes.  The cache
        # object itself is internally locked; the *reference* never
        # changes after __init__, preserving the immutability contract.
        # Pinned to the plan dtype so precision tiers cannot mix entries.
        self.prefix_cache = PrefixCache(dtype=self.dtype)

    # ------------------------------------------------------------------
    def ar_order(self) -> list[int]:
        """Column indices in sampling order (position 0 first)."""
        return list(self._ar_order)

    def nbytes(self) -> int:
        """Read-only compiled-weight footprint (excludes workspaces)."""
        arrays = [self.out_weight, *self.embeddings]
        if self.out_bias is not None:
            arrays.append(self.out_bias)
        for weight, bias in self.trunk:
            arrays.append(weight)
            if bias is not None:
                arrays.append(bias)
        return sum(a.nbytes for a in arrays)

    # ------------------------------------------------------------------
    # Export / import (shared-memory publication, on-disk caching)
    # ------------------------------------------------------------------
    def to_buffers(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Export the plan as ``(meta, arrays)`` — its complete state.

        ``meta`` is a JSON-safe description (shapes/dtypes live on the
        arrays themselves); ``arrays`` maps stable names to the plan's
        read-only ndarrays, *by reference* (no copies).  Feeding both to
        :meth:`from_buffers` reconstructs an equivalent plan; serializers
        (``repro.serve.cluster.shm``, future on-disk caches) consume this
        instead of reaching into plan attributes.
        """
        meta = {
            "version": 1,
            "fingerprint": self.fingerprint,
            "vocab_sizes": list(self.vocab_sizes),
            "embed_widths": list(self.embed_widths),
            "residual": bool(self.residual),
            "dtype": self.dtype.str,
            "trunk_bias": [bias is not None for _, bias in self.trunk],
            "out_bias": self.out_bias is not None,
        }
        arrays: dict[str, np.ndarray] = {
            "positions": self.positions,
            "out_weight": self.out_weight,
        }
        if self.out_bias is not None:
            arrays["out_bias"] = self.out_bias
        for k, embedding in enumerate(self.embeddings):
            arrays[f"embed.{k}"] = embedding
        for i, (weight, bias) in enumerate(self.trunk):
            arrays[f"trunk.{i}.weight"] = weight
            if bias is not None:
                arrays[f"trunk.{i}.bias"] = bias
        # Warm prefix-cache entries ride along so cluster workers attach
        # with the publisher's cache already hot.  They are *excluded*
        # from the fingerprint (they are derived data, reproducible from
        # the weights) and tolerated as absent on import.
        prefix_meta = []
        for j, (key, array) in enumerate(self.prefix_cache.export()):
            if len(key) != 3:
                # Derived entries (post-softmax "probs") are rebuilt on
                # demand from the logits; only logits are exported.
                continue
            column, prefix, n_rows = key
            arrays[f"prefix.{j}"] = array
            prefix_meta.append(
                {
                    "column": int(column),
                    "prefix": [[int(c), int(t)] for c, t in prefix],
                    "n_rows": int(n_rows),
                    "array": f"prefix.{j}",
                }
            )
        if prefix_meta:
            meta["prefix"] = prefix_meta
        return meta, arrays

    @classmethod
    def from_buffers(
        cls, meta: dict, arrays: dict[str, np.ndarray], verify: bool = True
    ) -> "MADEPlan":
        """Rebuild a plan from a :meth:`to_buffers` export.

        The big arrays are adopted as given (frozen in place, not
        copied), so callers handing in views over a shared-memory
        segment get a zero-copy plan.  With ``verify=True`` the content
        fingerprint is recomputed from the array bytes and checked
        against ``meta['fingerprint']`` — a mismatch (truncated segment,
        torn write, wrong archive) raises :class:`ConfigError` rather
        than silently serving wrong selectivities.
        """
        if meta.get("version") != 1:
            raise ConfigError(f"unsupported plan buffer version {meta.get('version')!r}")
        try:
            positions = _frozen_view(arrays["positions"])
            out_weight = _frozen_view(arrays["out_weight"])
            embeddings = [
                _frozen_view(arrays[f"embed.{k}"])
                for k in range(len(meta["vocab_sizes"]))
            ]
            trunk: list[tuple[np.ndarray, np.ndarray | None]] = []
            for i, has_bias in enumerate(meta["trunk_bias"]):
                weight = _frozen_view(arrays[f"trunk.{i}.weight"])
                bias = _frozen_view(arrays[f"trunk.{i}.bias"]) if has_bias else None
                trunk.append((weight, bias))
            out_bias = _frozen_view(arrays["out_bias"]) if meta["out_bias"] else None
        except KeyError as exc:
            raise ConfigError(f"plan buffer set is missing array {exc}") from exc
        if verify:
            actual = plan_fingerprint(
                positions, out_weight, embeddings, [w for w, _ in trunk]
            )
            if actual != meta["fingerprint"]:
                raise ConfigError(
                    f"plan buffers hash to {actual}, expected fingerprint "
                    f"{meta['fingerprint']} — the array set does not match the "
                    "plan it claims to be"
                )
        plan = cls(
            vocab_sizes=list(meta["vocab_sizes"]),
            positions=positions,
            embed_widths=list(meta["embed_widths"]),
            embeddings=embeddings,
            residual=bool(meta["residual"]),
            trunk=trunk,
            out_weight=out_weight,
            out_bias=out_bias,
            dtype=np.dtype(meta["dtype"]),
            fingerprint=meta["fingerprint"],
        )
        # Seed the fresh prefix cache from any exported warm entries.
        for entry in meta.get("prefix", ()):
            array = arrays.get(entry["array"])
            if array is None:
                continue  # partial exports are fine; entries are derived data
            key = (
                int(entry["column"]),
                tuple((int(c), int(t)) for c, t in entry["prefix"]),
                int(entry["n_rows"]),
            )
            plan.prefix_cache.store(key, _frozen_view(array))
        return plan

    # ------------------------------------------------------------------
    def _check_tokens(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2 or tokens.shape[1] != self.n_columns:
            raise ConfigError(
                f"tokens must be (batch, {self.n_columns}), got {tokens.shape}"
            )
        return tokens

    def _embed(
        self,
        tokens: np.ndarray,
        wildcard_mask: np.ndarray | None,
        workspace: Workspace,
    ) -> np.ndarray:
        batch = len(tokens)
        x = workspace.get("embed", (batch, self.input_width), self.dtype)
        for k in range(self.n_columns):
            ids = tokens[:, k]
            if wildcard_mask is not None:
                ids = np.where(wildcard_mask[:, k], self.vocab_sizes[k], ids)
            x[:, self._embed_slices[k]] = self.embeddings[k][ids]
        return x

    def _trunk_program(
        self, workspace: Workspace, batch: int, capacity: int | None = None
    ) -> tuple[list, list, np.ndarray]:
        """Prebound execution steps for a fixed batch size.

        Returns ``(embeds, steps, h)``: per-column ``(embedding, view)``
        gather targets, ufunc calls already bound to their workspace
        buffers (no per-call buffer resolution or branch checks), and the
        buffer holding the final activations. The steps are exactly the
        ops :meth:`_hidden` issues, in the same order on the same
        buffers, so executing them is bitwise-identical — just without
        re-dispatching the generic interpreter every forward. Cached per
        ``(fingerprint, capacity, batch)`` in the workspace alongside the
        buffers the closures alias.

        ``capacity`` makes the program batch-shape-aware: buffers are
        allocated at ``(capacity, width)`` and every step binds the
        leading view ``buf[:batch]``, so grouped batch drivers whose
        group sizes vary from call to call share one buffer set instead
        of allocating per distinct group size.  Leading views of
        C-contiguous buffers are themselves C-contiguous, so the BLAS
        calls see the same memory layout as exact-size buffers and the
        results stay bitwise-identical.
        """
        if capacity is None or capacity < batch:
            capacity = batch
        key = (self.fingerprint, capacity, batch)
        program = workspace._programs.get(key)
        if program is not None:
            return program

        x = workspace.get("embed", (capacity, self.input_width), self.dtype)[:batch]
        embeds = [
            (self.embeddings[k], x[:, self._embed_slices[k]])
            for k in range(self.n_columns)
        ]
        steps: list = []
        if not self.residual:
            h = x
            for i, (weight, bias) in enumerate(self.trunk):
                nxt = workspace.get(
                    f"h{i}", (capacity, weight.shape[1]), self.dtype
                )[:batch]
                steps.append(partial(np.matmul, h, weight, out=nxt))
                if bias is not None:
                    steps.append(partial(np.add, nxt, bias, out=nxt))
                steps.append(partial(np.maximum, nxt, 0.0, out=nxt))
                h = nxt
        else:
            (w_in, b_in), *blocks = self.trunk
            h = workspace.get("h", (capacity, self.hidden_width), self.dtype)[:batch]
            t = workspace.get("t", (capacity, self.hidden_width), self.dtype)[:batch]
            a = workspace.get("a", (capacity, self.hidden_width), self.dtype)[:batch]
            steps.append(partial(np.matmul, x, w_in, out=h))
            if b_in is not None:
                steps.append(partial(np.add, h, b_in, out=h))
            for i in range(0, len(blocks), 2):
                w1, b1 = blocks[i]
                w2, b2 = blocks[i + 1]
                steps.append(partial(np.maximum, h, 0.0, out=t))
                steps.append(partial(np.matmul, t, w1, out=a))
                if b1 is not None:
                    steps.append(partial(np.add, a, b1, out=a))
                steps.append(partial(np.maximum, a, 0.0, out=a))
                steps.append(partial(np.matmul, a, w2, out=t))
                if b2 is not None:
                    steps.append(partial(np.add, t, b2, out=t))
                steps.append(partial(np.add, h, t, out=h))
            steps.append(partial(np.maximum, h, 0.0, out=h))
        program = (embeds, steps, h)
        programs = workspace._programs
        if len(programs) >= Workspace.MAX_PROGRAMS:
            del programs[next(iter(programs))]
        programs[key] = program
        return program

    def _hidden(
        self,
        tokens: np.ndarray,
        wildcard_mask: np.ndarray | None,
        workspace: Workspace,
        capacity: int | None = None,
    ) -> np.ndarray:
        """Trunk activations up to (excluding) the output projection."""
        # Every forward funnels through here, so the whole-workspace
        # dtype pin lives here: it covers the prebound-program hot path
        # AND the interpreter path in one check.
        workspace.bind_program_dtype(self.dtype)
        if wildcard_mask is None:
            # Hot path (the sampler encodes wildcards in the ids): replay
            # the identical op sequence from the compiled program.
            embeds, steps, h = self._trunk_program(workspace, len(tokens), capacity)
            for k, (embedding, view) in enumerate(embeds):
                view[:] = embedding[tokens[:, k]]
            for step in steps:
                step()
            return h
        x = self._embed(tokens, wildcard_mask, workspace)
        batch = len(x)
        if not self.residual:
            h = x
            for i, (weight, bias) in enumerate(self.trunk):
                nxt = workspace.get(f"h{i}", (batch, weight.shape[1]), self.dtype)
                np.matmul(h, weight, out=nxt)
                if bias is not None:
                    nxt += bias
                np.maximum(nxt, 0.0, out=nxt)
                h = nxt
            return h

        # ResMADE: input layer, then pre-activation residual blocks
        # (x + W2·relu(W1·relu(x))), then a final relu.
        (w_in, b_in), *blocks = self.trunk
        h = workspace.get("h", (batch, self.hidden_width), self.dtype)
        np.matmul(x, w_in, out=h)
        if b_in is not None:
            h += b_in
        t = workspace.get("t", (batch, self.hidden_width), self.dtype)
        a = workspace.get("a", (batch, self.hidden_width), self.dtype)
        for i in range(0, len(blocks), 2):
            w1, b1 = blocks[i]
            w2, b2 = blocks[i + 1]
            np.maximum(h, 0.0, out=t)
            np.matmul(t, w1, out=a)
            if b1 is not None:
                a += b1
            np.maximum(a, 0.0, out=a)
            np.matmul(a, w2, out=t)
            if b2 is not None:
                t += b2
            h += t
        np.maximum(h, 0.0, out=h)
        return h

    # ------------------------------------------------------------------
    def forward_logits(
        self,
        tokens: np.ndarray,
        wildcard_mask: np.ndarray | None = None,
        out: np.ndarray | None = None,
        workspace: Workspace | None = None,
    ) -> np.ndarray:
        """Logits for every column: ``(batch, sum(vocab_sizes))``.

        Column *k*'s block is ``result[:, plan.output_slices[k]]``.  The
        returned array is the ``out`` argument when given, otherwise a
        workspace buffer (valid until the next call on that workspace).
        """
        tokens = self._check_tokens(tokens)
        workspace = workspace if workspace is not None else Workspace()
        h = self._hidden(tokens, wildcard_mask, workspace)
        if out is None:
            out = workspace.get("logits", (len(h), self.total_vocab), self.dtype)
        elif out.shape != (len(h), self.total_vocab):
            raise ShapeError(
                f"out has shape {out.shape}, expected {(len(h), self.total_vocab)}"
            )
        np.matmul(h, self.out_weight, out=out)
        if self.out_bias is not None:
            out += self.out_bias
        return out

    def forward_slice(
        self,
        column: int,
        tokens: np.ndarray,
        wildcard_mask: np.ndarray | None = None,
        out: np.ndarray | None = None,
        workspace: Workspace | None = None,
        capacity: int | None = None,
        expand: np.ndarray | None = None,
    ) -> np.ndarray:
        """Logits for ``column`` only: ``(batch, vocab_sizes[column])``.

        Multiplies just that column's pre-sliced output projection — the
        per-step cost the progressive sampler pays at sampling step *i*.
        ``capacity`` (>= batch) sizes the workspace buffers so callers
        issuing varying batch shapes share one allocation (see
        :meth:`_trunk_program`).

        ``expand`` maps each output row to a row of ``tokens``: the trunk
        runs once per row of ``tokens`` (one row per distinct context),
        its activations are gathered to ``h[expand]``, and the output
        projection runs on that full block — so the result is
        ``(len(expand), vocab)`` and bitwise-equal to forwarding
        ``tokens[expand]`` (see docs/runtime.md "Row independence").
        ``tokens`` must then hold at least 2 rows: NumPy sends a 1-row
        matmul to gemv, which rounds differently from gemm.
        """
        tokens = self._check_tokens(tokens)
        workspace = workspace if workspace is not None else Workspace()
        weight = self._out_weight_cols[column]
        n_out = len(tokens) if expand is None else len(expand)
        expected = (n_out, weight.shape[1])
        if out is None:
            if capacity is not None and capacity > n_out:
                out = workspace.get(
                    "slice", (capacity, weight.shape[1]), self.dtype
                )[:n_out]
            else:
                out = workspace.get("slice", expected, self.dtype)
        elif out.shape != expected:
            raise ShapeError(f"out has shape {out.shape}, expected {expected}")
        bias = self._out_bias_cols[column]
        if self._const_cols[column]:
            # Bias-only column (AR position 0): no trunk pass needed.
            out[:] = 0.0 if bias is None else bias
            return out
        if expand is not None and len(tokens) < 2:
            raise ShapeError(
                "expand needs a trunk block of at least 2 rows; a 1-row "
                "matmul takes gemv and rounds differently from gemm"
            )
        h = self._hidden(tokens, wildcard_mask, workspace, capacity)
        if expand is not None:
            rows = max(n_out, capacity or 0)
            h = np.take(
                h,
                expand,
                axis=0,
                out=workspace.get(
                    "expand", (rows, self.hidden_width), self.dtype
                )[:n_out],
                mode="clip",  # indices are in range; "raise" would buffer
            )
        np.matmul(h, weight, out=out)
        if bias is not None:
            out += bias
        return out

    def forward_prefix(
        self,
        column: int,
        prefix: tuple,
        n_rows: int,
        workspace: Workspace,
        capacity: int | None = None,
    ) -> np.ndarray:
        """:meth:`forward_slice` for a constrained-column prefix, cached.

        ``prefix`` is a tuple of ``(column, token)`` pairs describing an
        input whose listed columns all carry one fixed token and whose
        remaining columns are wildcards — the context every query whose
        equality-constrained prefix resolved to those tokens shares.
        The empty prefix is the all-wildcard context the sampler hits on
        each query's first constrained column.

        The first call per ``(column, prefix, n_rows)`` runs the trunk
        on a 2-row block of that context and the output projection on
        its activations expanded to ``n_rows`` rows (``expand``, see
        :meth:`forward_slice`): trunk rows do not depend on the block's
        row count, but a narrow projection does on some BLAS builds, so
        the entry stays keyed on ``n_rows``.  It parks a frozen copy of
        the block's one distinct row in the plan's shared
        :class:`PrefixCache`; later calls — from any workspace, thread,
        or attached cluster worker — broadcast that row into the slice
        buffer, skipping the trunk entirely.  Values are bitwise-
        identical by construction: the cache holds the same forward's
        own output for the same key.

        Returns a writable buffer (callers run ``softmax_inplace`` on
        it), like :meth:`forward_slice`.
        """
        key = (column, prefix, n_rows)
        cached = self.prefix_cache.lookup(key)
        if cached is None:
            # A 1-row request keeps its 1-row (gemv) trunk, as the
            # Module path runs it.
            tokens = np.empty((min(n_rows, 2), self.n_columns), dtype=np.int64)
            tokens[:] = self.wildcard_ids
            for col, token in prefix:
                tokens[:, col] = token
            out = self.forward_slice(
                column,
                tokens,
                workspace=workspace,
                capacity=capacity,
                expand=np.zeros(n_rows, dtype=np.intp) if n_rows > 1 else None,
            )
            self.prefix_cache.store(key, _frozen(_uniform_rows(out), self.dtype))
            return out
        vocab = self.vocab_sizes[column]
        if capacity is not None and capacity > n_rows:
            out = workspace.get("slice", (capacity, vocab), self.dtype)[:n_rows]
        else:
            out = workspace.get("slice", (n_rows, vocab), self.dtype)
        out[:] = cached
        return out

    def forward_prefix_probs(
        self,
        column: int,
        prefix: tuple,
        n_rows: int,
        workspace: Workspace,
        capacity: int | None = None,
    ) -> np.ndarray:
        """The *softmaxed* :meth:`forward_prefix` conditional, cached.

        The sampler consumes ``softmax_inplace(logits)``, and softmax is
        a row-wise op — so caching the post-softmax distribution under a
        ``"probs"``-marked key replays bitwise-identical values while
        skipping the replay copy *and* the block softmax. Hits return
        the frozen cached row broadcast to ``(n_rows, vocab)`` (a read-
        only view, zero copy); callers must treat it as read-only, which
        the sampler does — it only ever derives fresh arrays from the
        distribution. Misses route through
        :meth:`forward_prefix`, so the logits entry is populated too
        (it is the exportable artifact, see :meth:`to_buffers`).
        """
        key = (column, prefix, n_rows, "probs")
        cached = self.prefix_cache.lookup(key)
        if cached is not None:
            return np.broadcast_to(cached, (n_rows, self.vocab_sizes[column]))
        logits = self.forward_prefix(
            column, prefix, n_rows, workspace=workspace, capacity=capacity
        )
        probs = softmax_inplace(logits)
        self.prefix_cache.store(key, _frozen(_uniform_rows(probs), self.dtype))
        return probs

    def forward_slice_wildcard(
        self, column: int, n_rows: int, workspace: Workspace
    ) -> np.ndarray:
        """:meth:`forward_prefix` with the empty prefix (all wildcards).

        Kept as the spelled-out special case; the general machinery —
        including cross-workspace sharing of the cached logits — lives
        in :meth:`forward_prefix` / :class:`PrefixCache`.
        """
        return self.forward_prefix(column, (), n_rows, workspace)


def _layer_arrays(
    arrays: dict[str, np.ndarray],
    prefix: str,
    mask: np.ndarray,
    dtype,
) -> tuple[np.ndarray, np.ndarray | None]:
    """(folded weight, bias) for one MaskedLinear exported under ``prefix``."""
    weight = arrays[f"{prefix}.weight"]
    if weight.shape != mask.shape:
        raise ShapeError(
            f"{prefix}: weight shape {weight.shape} != mask shape {mask.shape}"
        )
    folded = _frozen(weight * mask, dtype)
    bias = arrays.get(f"{prefix}.bias")
    return folded, None if bias is None else _frozen(bias, dtype)


def compile_made(made: "MADE", dtype=None) -> MADEPlan:
    """Export a trained :class:`~repro.ar.made.MADE` into a :class:`MADEPlan`.

    Masks are folded into the weights once (``W * mask``), embeddings and
    projections are copied into contiguous read-only arrays, and the
    per-column output slices are pre-materialised.  The plan is a
    snapshot: training the module further does not change it — recompile
    after weight updates (the IAM model does so on every inference
    refresh, the serving layer on every hot reload).

    ``dtype=None`` keeps the module's native dtype (float64), which is
    the bitwise-exact mode; ``dtype=np.float32`` compiles the serving
    tier — half the weight/scratch bytes and roughly double the
    effective memory bandwidth, held to the q-error tolerance contract
    (docs/runtime.md "Precision tiers") instead of bitwise equality.
    """
    for attribute in ("vocab_sizes", "positions", "embed_widths", "residual"):
        if not hasattr(made, attribute):
            raise ConfigError(
                f"compile_made expects a MADE-like module, missing {attribute!r}"
            )
    arrays = made.export_arrays()
    dtype = np.dtype(dtype) if dtype is not None else arrays["output_layer.weight"].dtype

    embeddings = [
        _frozen(arrays[f"embeddings.item{k}.weight"], dtype)
        for k in range(made.n_columns)
    ]

    trunk: list[tuple[np.ndarray, np.ndarray | None]] = []
    if made.residual:
        trunk.append(
            _layer_arrays(arrays, "input_layer", made.input_layer.mask, dtype)
        )
        for i, block in enumerate(made.blocks):
            trunk.append(
                _layer_arrays(arrays, f"blocks.item{i}.linear1", block.linear1.mask, dtype)
            )
            trunk.append(
                _layer_arrays(arrays, f"blocks.item{i}.linear2", block.linear2.mask, dtype)
            )
    else:
        for i, layer in enumerate(made.hidden_layers):
            trunk.append(
                _layer_arrays(arrays, f"hidden_layers.item{i}", layer.mask, dtype)
            )
    out_weight, out_bias = _layer_arrays(
        arrays, "output_layer", made.output_layer.mask, dtype
    )

    positions = np.asarray(made.positions, dtype=np.int64).copy()
    positions.setflags(write=False)
    fingerprint = plan_fingerprint(
        positions, out_weight, embeddings, [w for w, _ in trunk]
    )
    return MADEPlan(
        vocab_sizes=list(made.vocab_sizes),
        positions=positions,
        embed_widths=list(made.embed_widths),
        embeddings=embeddings,
        residual=bool(made.residual),
        trunk=trunk,
        out_weight=out_weight,
        out_bias=out_bias,
        dtype=dtype,
        fingerprint=fingerprint,
    )
