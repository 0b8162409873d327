"""Persistence across reducer kinds, and schema-rebind edge cases."""

import json

import numpy as np
import pytest

from repro.core import IAM, IAMConfig, load_iam, save_iam
from repro.errors import ConfigError
from repro.metrics import q_error
from repro.query import Query
from tests.conftest import FAST_IAM


@pytest.mark.parametrize("kind", ["hist", "spline", "umm"])
def test_alternative_reducers_roundtrip(kind, twi_small, tmp_path):
    config = IAMConfig(**{**FAST_IAM, "reducer_kind": kind, "epochs": 1})
    model = IAM(config).fit(twi_small)
    path = tmp_path / f"{kind}.npz"
    save_iam(model, path)
    restored = load_iam(path, twi_small)
    q = Query.from_pairs([("latitude", "<=", 40.0)])
    assert q_error(
        max(model.estimate(q), 1e-9), max(restored.estimate(q), 1e-9)
    ) < 1.3


def test_empirical_interval_falls_back_to_exact_on_load(twi_small, tmp_path):
    """The archive carries no training values; 'empirical' degrades to
    the exact CDF at load (documented in persistence.py)."""
    config = IAMConfig(**{**FAST_IAM, "interval_kind": "empirical", "epochs": 1})
    model = IAM(config).fit(twi_small)
    path = tmp_path / "emp.npz"
    save_iam(model, path)
    restored = load_iam(path, twi_small)
    from repro.mixtures.interval import ExactIntervalMass

    assert isinstance(restored.reducers[0]._interval, ExactIntervalMass)


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
    q = Query.from_pairs([("longitude", ">=", -100.0)])
    expected = fitted_iam.estimate(q)
    restored = load_iam(path, twi_small)
    del fitted_iam
    assert q_error(max(expected, 1e-9), max(restored.estimate(q), 1e-9)) < 1.3


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
