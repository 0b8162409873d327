"""Persistence across reducer kinds, and schema-rebind edge cases."""

import json

import numpy as np
import pytest

from repro.core import IAM, IAMConfig, load_iam, save_iam
from repro.datasets import make_twi
from repro.errors import ConfigError
from repro.query import Query
from repro.query.workload import Workload
from tests.conftest import FAST_IAM


def _roundtrip(model, table, tmp_path):
    path = tmp_path / "model.npz"
    save_iam(model, path)
    return load_iam(path, table)


def _seeded(model, queries):
    """Answers with one fixed generator per query: independent of how
    many estimates the model has already drawn."""
    rngs = [np.random.default_rng(i) for i in range(len(queries))]
    return model.estimate_many(queries, rngs=rngs)


@pytest.mark.parametrize("kind", ["hist", "spline", "umm"])
def test_alternative_reducers_roundtrip(kind, twi_small, tmp_path):
    config = IAMConfig(**{**FAST_IAM, "reducer_kind": kind, "epochs": 1})
    model = IAM(config).fit(twi_small)
    restored = _roundtrip(model, twi_small, tmp_path)
    q = Query.from_pairs([("latitude", "<=", 40.0)])
    assert restored.estimate(q) == model.estimate(q)


# Every interval kind (on GMM columns) and every alternative reducer.
_MASSES = [
    ("gmm", "montecarlo"),
    ("gmm", "exact"),
    ("gmm", "empirical"),
    ("hist", "montecarlo"),
    ("spline", "montecarlo"),
    ("umm", "montecarlo"),
    ("loggmm", "montecarlo"),
    ("loggmm", "empirical"),
]


@pytest.mark.parametrize("stratified", [False, True])
@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("reducer_kind,interval_kind", _MASSES)
def test_loaded_model_answers_bitwise_like_fitted(
    reducer_kind, interval_kind, precision, stratified, twi_small, tmp_path
):
    """load_iam rebuilds inference through the fit's own wiring: the
    same interval draws, empirical masses, plan tier and sampler."""
    config = IAMConfig(
        n_components=6,
        gmm_domain_threshold=100,
        epochs=1,
        hidden_sizes=(16, 16),
        n_progressive_samples=64,
        samples_per_component=500,
        reducer_kind=reducer_kind,
        interval_kind=interval_kind,
        inference_precision=precision,
        stratified_sampling=stratified,
        seed=0,
    )
    queries = Workload.generate(twi_small, 12, seed=4).queries
    model = IAM(config).fit(twi_small)
    restored = _roundtrip(model, twi_small, tmp_path)
    assert restored.runtime_plan().dtype == np.dtype(precision)
    assert np.array_equal(restored.estimate_many(queries), model.estimate_many(queries))
    assert np.array_equal(_seeded(restored, queries), _seeded(model, queries))


def test_empirical_model_rejects_a_different_column(twi_small, tmp_path):
    config = IAMConfig(**{**FAST_IAM, "interval_kind": "empirical", "epochs": 1})
    model = IAM(config).fit(twi_small)
    path = tmp_path / "emp.npz"
    save_iam(model, path)
    with pytest.raises(ConfigError, match="fitted on"):
        load_iam(path, make_twi(4000, seed=4))


def test_montecarlo_model_loads_against_another_table(fitted_iam, twi_small, tmp_path):
    """Only empirical masses count the training values."""
    other = make_twi(4000, seed=4)
    restored = _roundtrip(fitted_iam, other, tmp_path)
    queries = Workload.generate(twi_small, 4, seed=4).queries
    assert np.isfinite(restored.estimate_many(queries)).all()


def test_gmm_payload_without_draw_state_raises(fitted_iam, twi_small, tmp_path):
    path = tmp_path / "model.npz"
    save_iam(fitted_iam, path)
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(arrays["__meta__"].tobytes().decode())
    for payload in meta["reducers"]:
        payload.pop("draw_state", None)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    old_path = tmp_path / "old.npz"
    np.savez(old_path, **arrays)
    with pytest.raises(ConfigError, match="draw_state"):
        load_iam(old_path, twi_small)


def test_vbgmm_component_counts_survive(twi_small, tmp_path):
    config = IAMConfig(**{**FAST_IAM, "n_components": None, "epochs": 1})
    model = IAM(config).fit(twi_small)
    path = tmp_path / "vb.npz"
    save_iam(model, path)
    restored = load_iam(path, twi_small)
    assert restored.reduced_domain_sizes() == model.reduced_domain_sizes()


def test_config_roundtrips_through_archive(fitted_iam, twi_small, tmp_path):
    path = tmp_path / "cfg.npz"
    save_iam(fitted_iam, path)
    restored = load_iam(path, twi_small)
    assert restored.config.hidden_sizes == fitted_iam.config.hidden_sizes
    assert restored.config.reducer_kind == fitted_iam.config.reducer_kind
    assert isinstance(restored.config.hidden_sizes, tuple)


def test_archive_is_self_contained(fitted_iam, twi_small, tmp_path):
    """Loading must not depend on the saving model object staying alive."""
    path = tmp_path / "solo.npz"
    save_iam(fitted_iam, path)
    queries = [Query.from_pairs([("longitude", ">=", -100.0)])]
    expected = _seeded(fitted_iam, queries)
    restored = load_iam(path, twi_small)
    del fitted_iam
    assert np.array_equal(_seeded(restored, queries), expected)


def _rewrite_config(src, dst, **extra):
    """Copy an archive, merging ``extra`` into its stored config."""
    with np.load(src) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(arrays["__meta__"].tobytes().decode())
    meta["config"].update(extra)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(dst, **arrays)


def test_retired_n_workers_key_is_dropped_on_load(fitted_iam, twi_small, tmp_path):
    """Archives saved while IAMConfig had ``n_workers`` still load."""
    path = tmp_path / "plain.npz"
    save_iam(fitted_iam, path)
    old_path = tmp_path / "old.npz"
    _rewrite_config(path, old_path, n_workers=0)
    plain = load_iam(path, twi_small)
    old = load_iam(old_path, twi_small)
    assert old.config == plain.config
    queries = [
        Query.from_pairs([("latitude", "<=", 40.0)]),
        Query.from_pairs([("longitude", ">=", -100.0), ("latitude", ">=", 30.0)]),
    ]
    for q in queries:
        assert old.estimate(q) == plain.estimate(q)


def test_unknown_config_key_raises_config_error(fitted_iam, twi_small, tmp_path):
    path = tmp_path / "cfg.npz"
    save_iam(fitted_iam, path)
    bad_path = tmp_path / "bogus.npz"
    _rewrite_config(path, bad_path, bogus=1)
    with pytest.raises(ConfigError, match="bogus"):
        load_iam(bad_path, twi_small)
