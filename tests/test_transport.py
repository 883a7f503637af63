import http.client
import socket
import threading
from contextlib import closing

import pytest

from runner_manager.errors import TransientError
from runner_manager.transport import HttpTransport


def _answer_once_then_hang_up(listener: socket.socket, targets: list[str], connections: int) -> None:
    """Accept ``connections`` connections; on each, answer one request with
    a keep-alive ``200`` and close the socket, as a server whose idle
    timeout fired would."""
    for _ in range(connections):
        conn, _ = listener.accept()
        with conn:
            received = b""
            while b"\r\n\r\n" not in received:
                received += conn.recv(4096)
            targets.append(received.split(b"\r\n", 1)[0].decode())
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok")


def test_dropped_keep_alive_socket_is_replaced_silently():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        targets: list[str] = []
        server = threading.Thread(target=_answer_once_then_hang_up, args=(listener, targets, 2), daemon=True)
        server.start()
        base = f"http://127.0.0.1:{listener.getsockname()[1]}/api/v3"
        with closing(HttpTransport(base)) as transport:
            first = transport.request("GET", "/first", {})
            second = transport.request("GET", "/second", {})
        server.join(timeout=10)
        assert not server.is_alive()
    assert (first.status, first.body, second.status, second.body) == (200, b"ok", 200, b"ok")
    # One request a connection: the second went out again on a fresh one,
    # below the base URL's path.
    assert targets == ["GET /api/v3/first HTTP/1.1", "GET /api/v3/second HTTP/1.1"]


def test_unreachable_origin_is_transient_after_exactly_two_attempts(monkeypatch):
    connects = []
    connect = http.client.HTTPConnection.connect

    def counted_connect(conn):
        connects.append(conn.port)
        return connect(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counted_connect)
    # Bound but never listening: a connection to it is refused.
    with socket.socket() as bound:
        bound.bind(("127.0.0.1", 0))
        port = bound.getsockname()[1]
        with closing(HttpTransport(f"http://127.0.0.1:{port}")) as transport:
            with pytest.raises(TransientError, match=rf"^PATCH http://127\.0\.0\.1:{port}/x: transport failure"):
                transport.request("PATCH", "/x", {}, b"{}")
    assert connects == [port, port]
