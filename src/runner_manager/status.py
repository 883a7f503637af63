"""Read-only HTTP status endpoint, on the one HTTP server.

:class:`HttpServer` serves a handler, ``handle(Request) -> Response``, with
the standard library's threading HTTP server: HTTP/1.1, strict request
framing (Content-Length only) and one complete write per response. It
serves the status endpoint here, and a fake API in tests of the wire.
Importing this module loads the HTTP server stack, so the manager imports
it only when a status address is set, and a fake when a test serves it.

GET /healthz answers 200 while a poll was decided within two poll
intervals (counted from start-up until the first record). GET /status
returns the latest ReconcileRecord as one JSON object. Any other GET,
HEAD, OPTIONS, POST, PUT, PATCH or DELETE is answered 404 (a HEAD answer
without its body), and a request body over ``MAX_BODY`` bytes 413. The
report never contains credential material -- it is built from an
atomically swapped record, not from the live config.
"""

from __future__ import annotations

import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .clock import Clock
from .config import parse_listen_address
from .reconciler import ReconcileRecord
from .transport import Handler, Request, Response, answer

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

_TEXT = {"content-type": "text/plain"}

# The largest request body read. Every request the status endpoint and the
# fakes answer is far smaller; a larger declared length is refused before
# any of it is buffered.
MAX_BODY = 1 << 20

logger = logging.getLogger(__name__)


class _Exchange(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # the connection stays open between requests
    disable_nagle_algorithm = True

    def _refuse(self, status: int, message: str) -> None:
        self.wfile.write(Response.json(status, {"message": message}).render())
        self.close_connection = True

    def _serve(self) -> None:
        # Exactly Content-Length body bytes. A length that is not digits, or
        # one above MAX_BODY, is answered and ends the connection unread.
        declared = self.headers.get("Content-Length", "0")
        if not (declared.isascii() and declared.isdigit()):
            return self._refuse(400, f"malformed Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY:
            return self._refuse(413, f"body over {MAX_BODY} bytes")
        body = self.rfile.read(length)
        if len(body) < length:  # the client hung up mid-body
            self.close_connection = True
            return
        headers = {name.lower(): value for name, value in self.headers.items()}
        request = Request(self.command, self.path, headers, body)
        response = answer(self.server.handler, request)
        rendered = response.render()
        if self.command == "HEAD":  # the headers alone (RFC 9110 section 9.3.2)
            rendered = rendered[: len(rendered) - len(response.body)]
        self.wfile.write(rendered)

    do_GET = do_HEAD = do_OPTIONS = do_POST = do_PUT = do_PATCH = do_DELETE = _serve

    def log_message(self, format, *args) -> None:  # noqa: A002 (http.server API)
        logger.debug("%s " + format, self.address_string(), *args)


class HttpServer(ThreadingHTTPServer):
    """Serves `handle(request) -> Response` over persistent connections,
    one thread each."""

    # Connection threads neither keep the process alive nor hold up
    # close(): a client's open connection ends when the client closes it.
    daemon_threads = True
    block_on_close = False

    def __init__(self, handle: Handler, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Exchange)
        self.handler = handle

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        # shutdown() waits up to one poll, so close() takes at most 10 ms.
        threading.Thread(target=self.serve_forever, args=(0.01,), daemon=True).start()

    def close(self) -> None:
        self.shutdown()
        self.server_close()


class StatusServer(HttpServer):
    """Background HTTP server publishing the swapped record."""

    def __init__(self, addr: str, clock: Clock, poll_interval: float):
        self._clock = clock
        self._stale_after = 2 * poll_interval
        self._started_at = clock.now()
        self._record: ReconcileRecord | None = None
        super().__init__(self._answer, *parse_listen_address(addr))

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def _answer(self, request: Request) -> Response:
        record = self._record
        if request.method == "GET" and request.path == "/healthz":
            last = record.decided_at if record is not None else self._started_at
            if self._clock.now() - last <= self._stale_after:
                return Response(200, b"ok", _TEXT)
            return Response(503, b"stalled", _TEXT)
        if request.method == "GET" and request.path == "/status":
            return Response.json(200, record.as_status_dict() if record else BEFORE_FIRST_POLL)
        return Response(404, b"not found", _TEXT)

    def publish(self, record: ReconcileRecord | None) -> None:
        self._record = record  # attribute swap is atomic; readers never block the loop
