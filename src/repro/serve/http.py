"""JSON-over-HTTP front end for :class:`EstimationService`.

Endpoints (see docs/serving.md for the full protocol):

- ``POST /estimate`` — body ``{"model": name, "predicates": [[col, op,
  value], ...]}`` → the :class:`EstimateResult` as JSON.
- ``GET /healthz`` — liveness + registered model count.
- ``GET /models`` — per-model metadata (rows, version, batcher stats).
- ``GET /metrics`` — cache/telemetry snapshot (latency percentiles).

Built on the stdlib ``ThreadingHTTPServer``: one thread per connection,
which is exactly what feeds the micro-batcher concurrent requests to
coalesce.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import OverloadError, QueryError, ServeError, UnknownModelError
from repro.query.query import Query
from repro.serve.service import EstimationService

_MAX_BODY_BYTES = 1 << 20  # estimates are tiny; anything bigger is abuse


def parse_estimate_request(payload: dict) -> tuple[str, Query]:
    """Validate a /estimate body into (model name, Query)."""
    if not isinstance(payload, dict):
        raise QueryError("request body must be a JSON object")
    model = payload.get("model")
    if not isinstance(model, str) or not model:
        raise QueryError("'model' must be a non-empty string")
    predicates = payload.get("predicates")
    if not isinstance(predicates, list) or not predicates:
        raise QueryError("'predicates' must be a non-empty list of [column, op, value]")
    pairs = []
    for item in predicates:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise QueryError(f"malformed predicate {item!r}; expected [column, op, value]")
        column, op, value = item
        if not isinstance(column, str):
            raise QueryError(f"predicate column must be a string, got {column!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise QueryError(f"predicate value must be a number, got {value!r}")
        pairs.append((column, op, float(value)))
    try:
        return model, Query.from_pairs(pairs)
    except ValueError as exc:  # unknown operator string
        raise QueryError(str(exc)) from exc


class ServeHandler(BaseHTTPRequestHandler):
    """Request handler bound to one service via :func:`make_server`."""

    service: EstimationService  # injected by make_server
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            self._send(200, {"status": "ok", "models": len(self.service.model_names())})
        elif self.path == "/models":
            self._send(200, {"models": self.service.models()})
        elif self.path == "/metrics":
            self._send(200, self.service.metrics())
        else:
            self._send(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/estimate":
            self._send(404, {"error": f"unknown path {self.path!r}"}, close=True)
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length <= 0 or length > _MAX_BODY_BYTES:
            self._send(400, {"error": "missing or oversized request body"}, close=True)
            return
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
            model, query = parse_estimate_request(payload)
        except (QueryError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send(400, {"error": str(exc)})
            return
        try:
            result = self.service.estimate(model, query)
        except UnknownModelError as exc:
            self._send(404, {"error": str(exc)})
            return
        except (QueryError, KeyError) as exc:
            # e.g. predicates referencing columns the table lacks
            self._send(400, {"error": str(exc)})
            return
        except OverloadError as exc:
            # admission control shed the request (no fallback registered)
            self._send(429, {"error": str(exc)})
            return
        except ServeError as exc:
            self._send(503, {"error": str(exc)})
            return
        self._send(200, result.as_dict())

    # ------------------------------------------------------------------
    def _send(self, status: int, payload: dict, close: bool = False) -> None:
        """Reply with JSON; ``close`` when the request body was left unread,
        since its bytes would otherwise be parsed as the next request."""
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:  # send_header also sets self.close_connection
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Route access logs into telemetry instead of stderr noise."""
        self.service.telemetry.increment("http.requests")


def make_server(
    service: EstimationService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server to ``service`` (port 0 = ephemeral)."""
    handler = type("BoundServeHandler", (ServeHandler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def start_in_background(server: ThreadingHTTPServer) -> threading.Thread:
    """Run ``serve_forever`` on a daemon thread (tests, selftest)."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    thread.start()
    return thread
