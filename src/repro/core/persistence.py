"""Save / load a fitted IAM model.

The archive (``.npz`` + embedded JSON) stores the config, the AR state
dict and each reducer's parameters; a GMM column adds the stream state
its interval draws start from and a sha256 of its training values; a
``loggmm`` column stores its shift and that GMM payload for its
log-space values. The table is not stored: ``load_iam`` takes it,
restores the above, and rebuilds inference through the fit's own
``IAM._refresh_inference``, so the loaded model answers bitwise like
the fitted one. Empirical masses
are recounted from the table's columns and need the training values
themselves (another column raises ``ConfigError``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

from repro.core.config import IAMConfig
from repro.core.model import IAM
from repro.data.table import Column, Table
from repro.errors import ConfigError, NotFittedError
from repro.mixtures.base import GaussianMixture1D
from repro.reducers import (
    EquiDepthReducer,
    GMMReducer,
    IdentityReducer,
    LogGMMReducer,
    SplineReducer,
    UniformMixtureReducer,
)

# Config keys that older archives store but IAMConfig no longer has.
# ``n_workers`` selected the removed data-parallel trainer; it never
# affected a fitted model, so loading drops it.
_RETIRED_CONFIG_KEYS = frozenset({"n_workers"})


# Section 6.6 reducers round-trip their parameter arrays and token count.
_ARRAY_REDUCERS = {
    "hist": (EquiDepthReducer, ("edges",)),
    "spline": (SplineReducer, ("knots",)),
    "umm": (UniformMixtureReducer, ("lows", "highs", "weights")),
}


def _values_sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def _reducer_payload(reducer) -> dict:
    if isinstance(reducer, LogGMMReducer):
        return {"kind": "loggmm", "shift": reducer.shift, "inner": _reducer_payload(reducer.inner)}
    if isinstance(reducer, GMMReducer):
        if reducer.mixture is None:
            raise NotFittedError("cannot save an unfinalised GMMReducer")
        return {
            "kind": "gmm",
            "mixture": reducer.mixture.to_dict(),
            "draw_state": reducer.draw_state,
            "values_sha256": _values_sha256(reducer.fit_values),
        }
    if isinstance(reducer, IdentityReducer):
        return {"kind": "identity", "distinct": reducer.codec.distinct_values.tolist()}
    for kind, (cls, fields) in _ARRAY_REDUCERS.items():
        if isinstance(reducer, cls):
            arrays = {field: getattr(reducer, field).tolist() for field in fields}
            return {"kind": kind, "n_tokens": reducer.n_tokens, **arrays}
    raise ConfigError(f"unsupported reducer type {type(reducer).__name__}")


def _gmm_from_payload(payload: dict, config: IAMConfig, name: str, values: np.ndarray):
    """An unfinalised GMM reducer over ``values`` (the column's, or their
    log-space image for ``loggmm``)."""
    if config.interval_kind == "empirical" and _values_sha256(values) != payload["values_sha256"]:
        raise ConfigError(
            f"column {name!r} differs from the one the model was "
            "fitted on; empirical interval masses need the training values"
        )
    reducer = GMMReducer(
        interval_kind=config.interval_kind,
        samples_per_component=config.samples_per_component,
    )
    reducer.mixture = GaussianMixture1D.from_dict(payload["mixture"])
    reducer.draw_state = payload["draw_state"]
    reducer.fit_values = values
    return reducer


def _reducer_from_payload(payload: dict, config: IAMConfig, column: Column):
    """A restored reducer. GMM reducers come back unfinalised, and
    ``IAM._refresh_inference`` finalises them; a ``loggmm`` reducer is
    fitted once, before training, so the refresh leaves it alone and
    its inner GMM is finalised here, through the same replayable
    ``GMMReducer.finalise``."""
    kind = payload["kind"]
    if kind == "identity":
        reducer = IdentityReducer()
        reducer.fit(np.asarray(payload["distinct"]))
        return reducer
    try:
        if kind == "gmm":
            values = column.values.astype(np.float64)
            return _gmm_from_payload(payload, config, column.name, values)
        if kind == "loggmm":
            reducer = LogGMMReducer()
            reducer.shift = payload["shift"]
            reducer.inner = _gmm_from_payload(
                payload["inner"], config, column.name, reducer._to_log(column.values)
            ).finalise()
            reducer.n_tokens = reducer.inner.n_tokens
            return reducer
        if kind in _ARRAY_REDUCERS:
            cls, fields = _ARRAY_REDUCERS[kind]
            reducer = cls()
            for field in fields:
                setattr(reducer, field, np.asarray(payload[field]))
            reducer.n_tokens = payload["n_tokens"]
            return reducer
    except KeyError as exc:
        raise ConfigError(
            f"archive's {kind} payload for column {column.name!r} lacks {exc}; "
            "refit and save the model again"
        ) from exc
    raise ConfigError(f"unknown reducer payload kind {kind!r}")


def save_iam(model: IAM, path: str | os.PathLike) -> None:
    """Persist a fitted IAM to ``path`` (npz archive)."""
    if model.model is None:
        raise NotFittedError("cannot save an unfitted IAM")
    meta = {
        "config": model.config.__dict__.copy(),
        "reducers": [_reducer_payload(r) for r in model.reducers],
        "vocab_sizes": model.model.vocab_sizes,
    }
    meta["config"]["hidden_sizes"] = list(meta["config"]["hidden_sizes"])
    # state_arrays(): live views, copied by np.savez while writing.
    arrays = {f"ar.{k}": v for k, v in model.model.state_arrays().items()}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def _config_from_archive(cfg_dict: dict) -> IAMConfig:
    """Rebuild the saved :class:`IAMConfig`, rejecting unknown keys."""
    fields = {f.name for f in dataclasses.fields(IAMConfig)}
    kwargs = {}
    for key, value in cfg_dict.items():
        if key in fields:
            kwargs[key] = value
        elif key not in _RETIRED_CONFIG_KEYS:
            raise ConfigError(f"archive config has unknown key {key!r}")
    return IAMConfig(**kwargs)


def load_iam(path: str | os.PathLike, table: Table) -> IAM:
    """Restore a saved IAM, rebinding inference to ``table``."""
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["__meta__"].tobytes()).decode())
        ar_state = {
            name[len("ar.") :]: archive[name]
            for name in archive.files
            if name.startswith("ar.")
        }
    config = _config_from_archive(meta["config"])
    if len(meta["reducers"]) != table.num_columns:
        raise ConfigError(f"archive has {len(meta['reducers'])} columns, table {table.num_columns}")

    model = IAM(config)
    model._table = table
    model.reducers = [
        _reducer_from_payload(payload, config, column)
        for payload, column in zip(meta["reducers"], table.columns)
    ]
    model.model = model._build_made(meta["vocab_sizes"], seed=0)
    model.model.load_state_dict(ar_state)
    model._refresh_inference()
    return model
