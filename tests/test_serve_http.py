"""HTTP front end round-trips against an ephemeral server + CLI selftest."""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.estimators.iam import IAMEstimator
from repro.serve import EstimationService, ServeConfig, make_server, start_in_background
from repro.serve.http import _MAX_BODY_BYTES, parse_estimate_request
from repro.errors import QueryError


@pytest.fixture(scope="module")
def http_env(fitted_iam, twi_small):
    estimator = IAMEstimator(config=fitted_iam.config)
    estimator.model = fitted_iam
    estimator._table = twi_small
    service = EstimationService(
        ServeConfig(max_batch_size=8, max_wait_ms=2.0, fallback_estimator=None)
    )
    service.register("twi", estimator)
    server = make_server(service, port=0)
    start_in_background(server)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield service, base
    server.shutdown()
    server.server_close()
    service.close()


def _request(url: str, payload: dict | None = None) -> tuple[int, dict]:
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestHTTPEndpoints:
    def test_healthz(self, http_env):
        _, base = http_env
        status, body = _request(f"{base}/healthz")
        assert status == 200
        assert body == {"status": "ok", "models": 1}

    def test_estimate_round_trip_matches_sequential(self, http_env, twi_workload):
        service, base = http_env
        query = twi_workload.queries[0]
        payload = {
            "model": "twi",
            "predicates": [[p.column, p.op.value, float(p.value)] for p in query],
        }
        status, body = _request(f"{base}/estimate", payload)
        assert status == 200
        assert body["model"] == "twi"
        assert body["selectivity"] == service.estimate_sequential("twi", query)
        assert body["cardinality"] == pytest.approx(
            body["selectivity"] * service._require_model("twi").num_rows
        )
        assert body["source"] in ("batch", "cache")
        assert body["degraded"] is False

    def test_models_and_metrics(self, http_env, twi_workload):
        service, base = http_env
        query = twi_workload.queries[1]
        payload = {
            "model": "twi",
            "predicates": [[p.column, p.op.value, float(p.value)] for p in query],
        }
        _request(f"{base}/estimate", payload)
        _request(f"{base}/estimate", payload)  # cache hit

        status, body = _request(f"{base}/models")
        assert status == 200
        assert body["models"][0]["name"] == "twi"

        status, metrics = _request(f"{base}/metrics")
        assert status == 200
        assert metrics["cache"]["hits"] >= 1
        assert metrics["telemetry"]["counters"]["requests"] >= 2
        assert "estimate" in metrics["telemetry"]["latency"]

    def test_unknown_model_404(self, http_env):
        _, base = http_env
        status, body = _request(
            f"{base}/estimate", {"model": "nope", "predicates": [["x", "<=", 1.0]]}
        )
        assert status == 404
        assert "nope" in body["error"]

    def test_malformed_bodies_400(self, http_env):
        _, base = http_env
        for payload in (
            {"predicates": [["x", "<=", 1.0]]},  # missing model
            {"model": "twi"},  # missing predicates
            {"model": "twi", "predicates": []},  # empty
            {"model": "twi", "predicates": [["x", "<=="]]},  # malformed triple
            {"model": "twi", "predicates": [["x", "<==", 1.0]]},  # bad operator
            {"model": "twi", "predicates": [["x", "<=", "one"]]},  # non-numeric
        ):
            status, body = _request(f"{base}/estimate", payload)
            assert status == 400, payload
            assert "error" in body

    def test_unknown_paths_404(self, http_env):
        _, base = http_env
        status, _ = _request(f"{base}/nope")
        assert status == 404
        status, _ = _request(f"{base}/nope", {"x": 1})
        assert status == 404


def _connection(base: str) -> http.client.HTTPConnection:
    host, port = base.removeprefix("http://").split(":")
    return http.client.HTTPConnection(host, int(port), timeout=30)


def _reply(conn: http.client.HTTPConnection) -> tuple[int, dict]:
    response = conn.getresponse()
    return response.status, json.loads(response.read().decode())


_UNKNOWN_MODEL = json.dumps({"model": "nope", "predicates": [["x", "<=", 1.0]]})


class TestKeepAlive:
    """Several requests on one ``http.client`` connection."""

    def test_estimate_after_post_to_unknown_path(self, http_env):
        _, base = http_env
        conn = _connection(base)
        try:
            conn.request("POST", "/wrong", body=json.dumps({"x": 1}))
            status, _ = _reply(conn)
            assert status == 404
            # The unread body must not be parsed as the next request.
            conn.request("POST", "/estimate", body=_UNKNOWN_MODEL)
            status, body = _reply(conn)
            assert status == 404
            assert "nope" in body["error"]
        finally:
            conn.close()

    def test_estimate_after_oversized_body(self, http_env):
        _, base = http_env
        conn = _connection(base)
        try:
            conn.putrequest("POST", "/estimate")
            conn.putheader("Content-Length", str(_MAX_BODY_BYTES + 1))
            conn.endheaders(b"x" * 256)  # rejected before the body is read
            status, body = _reply(conn)
            assert status == 400
            assert "oversized" in body["error"]
            conn.request("POST", "/estimate", body=_UNKNOWN_MODEL)
            status, body = _reply(conn)
            assert status == 404
            assert "nope" in body["error"]
        finally:
            conn.close()


class TestParseEstimateRequest:
    def test_valid(self):
        model, query = parse_estimate_request(
            {"model": "m", "predicates": [["x", "<=", 3], ["y", ">=", 1.5]]}
        )
        assert model == "m"
        assert len(query) == 2

    def test_rejects_non_object(self):
        with pytest.raises(QueryError):
            parse_estimate_request([1, 2, 3])

    def test_rejects_bool_value(self):
        with pytest.raises(QueryError):
            parse_estimate_request({"model": "m", "predicates": [["x", "<=", True]]})


def test_cli_selftest_passes(capsys):
    """The CI smoke entry point: fit, serve, verify, exit 0."""
    from repro.serve.__main__ import main

    assert main(["--selftest", "--rows", "1200"]) == 0
    out = capsys.readouterr().out
    assert "selftest ok" in out
