"""Read-only HTTP status endpoint.

GET /healthz answers 200 while a poll was decided within two poll
intervals (counted from start-up until the first record). GET /status
returns the latest ReconcileRecord as one JSON object. The report never
contains credential material -- it is built from an atomically swapped
record, not from the live config.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .clock import Clock
from .config import parse_listen_address
from .reconciler import ReconcileRecord

logger = logging.getLogger(__name__)


# The /status body before the first poll finishes.
BEFORE_FIRST_POLL = {
    "last_poll_time": None,
    "last_decision": None,
    "observed_replicas": None,
    "consecutive_github_errors": 0,
    "consecutive_kube_errors": 0,
    "keepalive_next_due": None,
    "github_rate_limit_remaining": None,
}


class StatusServer:
    """Background HTTP server publishing the swapped record."""

    def __init__(self, addr: str, clock: Clock, poll_interval: float):
        host, port = parse_listen_address(addr)
        self._clock = clock
        self._stale_after = 2 * poll_interval
        self._started_at = clock.now()
        self._record: ReconcileRecord | None = None
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):  # noqa: N802 (http.server API)
                if self.path == "/healthz":
                    body = server._health()
                    self._reply(200 if body == b"ok" else 503, body, "text/plain")
                elif self.path == "/status":
                    record = server._record
                    body = json.dumps(record.as_status_dict() if record else BEFORE_FIRST_POLL).encode()
                    self._reply(200, body, "application/json")
                else:
                    self._reply(404, b"not found", "text/plain")

            def _reply(self, code: int, body: bytes, content_type: str):
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args):
                logger.debug("status server: " + fmt, *args)

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        # shutdown() waits up to one poll of serve_forever, so close() takes at most 10 ms.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(0.01,), daemon=True, name="status-server"
        )

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    def _health(self) -> bytes:
        record = self._record
        last = record.decided_at if record is not None else self._started_at
        return b"ok" if self._clock.now() - last <= self._stale_after else b"stalled"

    def start(self) -> None:
        self._thread.start()

    def publish(self, record: ReconcileRecord | None) -> None:
        self._record = record  # attribute swap is atomic; readers never block the loop

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
