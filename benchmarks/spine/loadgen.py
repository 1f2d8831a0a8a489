"""HTTP load for the ``http_*`` workloads: one process, two connections.

The clients speak HTTP/1.1 over plain blocking sockets with their own
few lines of framing, so the bytes the gateway parses and emits are
checked by code that shares nothing with :mod:`repro.gateway.wire`.

* :func:`closed_loop` — every connection sends its next request when the
  previous one is answered (callers that wait: a slow system receives
  less load).  Measures throughput.
* :func:`open_loop` — requests fall due on a seeded Poisson schedule
  whatever the system does (independent users: a stall delays everything
  behind it).  Latency is timed from each request's **due** time, so the
  wait a stall imposes on later requests is counted, and how late the
  generator itself ran is reported beside it.

The connection count is a constant of the workload (2, this sandbox's
``nproc``), never read from the machine.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from oracle import Answer
from repro.gateway import Gateway, GatewayConfig

#: Connections (= client threads) of every HTTP phase.
CONNECTIONS = 2
_TIMEOUT_S = 30.0

#: Called around each request when the traced run records spans:
#: ``(request_index, start, end)``.
SpanHook = Optional[Callable[[int, float, float], None]]


class HttpClient:
    """One keep-alive connection issuing ``POST /v1/recommend``."""

    def __init__(self, port: int):
        self._port = port
        self._sock: Optional[socket.socket] = None
        self._buffer = b""
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            ("127.0.0.1", self._port), timeout=_TIMEOUT_S
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def recommend(self, user: int, k: int) -> Optional[List[int]]:
        """Items served for *user*; ``None`` for anything but a good 200."""
        body = json.dumps({"user": int(user), "k": k}).encode()
        try:
            if self._sock is None:
                self._connect()
            self._sock.sendall(
                b"POST /v1/recommend HTTP/1.1\r\nHost: bench\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            status, payload = self._read_response()
            if status != 200 or payload["user"] != int(user):
                return None
            return payload["items"]
        except (OSError, ValueError, KeyError, IndexError):
            # The exchange left the stream unusable: drop it (the next
            # request reconnects) and do not spin against a dead gateway.
            self.close()
            time.sleep(0.01)
            return None

    def _read_response(self):
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, rest = self._buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self._buffer = rest
        while len(self._buffer) < length:
            self._fill()
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, json.loads(body)

    def _fill(self) -> None:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("gateway closed the connection")
        self._buffer += chunk

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


@dataclass
class LoadResult:
    """What one HTTP phase measured (answers are checked off the clock)."""

    answers: List[Answer] = field(default_factory=list)
    #: Seconds per request; from its due time in an open loop.
    latencies: List[float] = field(default_factory=list)
    #: Open loop only: send time minus due time.
    lateness: List[float] = field(default_factory=list)
    #: When each request completed, in seconds since the phase began.
    finished: List[float] = field(default_factory=list)
    wall: float = 0.0


def _run_clients(
    port: int, connections: int,
    body: Callable[[int, HttpClient, LoadResult, float], None],
) -> LoadResult:
    """Run ``body(index, client, result, start)`` on one thread per connection.

    Connections are opened first; every thread then starts at the same
    pre-agreed instant *start*.
    """
    clients = [HttpClient(port) for _ in range(connections)]
    results = [LoadResult() for _ in range(connections)]
    start = time.perf_counter() + 0.02

    def run(index: int) -> None:
        time.sleep(max(0.0, start - time.perf_counter()))
        body(index, clients[index], results[index], start)
        results[index].wall = time.perf_counter() - start

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(connections)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for client in clients:
            client.close()
    merged = LoadResult(wall=max(r.wall for r in results))
    for result in results:
        merged.answers += result.answers
        merged.latencies += result.latencies
        merged.lateness += result.lateness
        merged.finished += result.finished
    return merged


def closed_loop(
    port: int, users: Sequence[int], k: int, seconds: float,
    connections: int = CONNECTIONS, span: SpanHook = None,
) -> LoadResult:
    """Drive *connections* waiting clients over *users* for *seconds*."""

    def body(index, client, mine, start) -> None:
        end = start + seconds
        position = index
        while True:
            sent = time.perf_counter()
            if sent >= end:
                return
            user = int(users[position % len(users)])
            items = client.recommend(user, k)
            done = time.perf_counter()
            mine.answers.append((user, items))
            mine.latencies.append(done - sent)
            mine.finished.append(done - start)
            if span is not None:
                span(position, sent, done)
            position += connections

    return _run_clients(port, connections, body)


def open_loop(
    port: int, users: Sequence[int], due: np.ndarray, k: int,
    connections: int = CONNECTIONS, span: SpanHook = None,
) -> LoadResult:
    """Send request *i* for ``users[i]`` at offset ``due[i]``.

    Each connection takes the next unsent request, sleeps until it is
    due and sends it; when every connection is busy the request waits,
    and that wait is part of its latency.
    """
    cursor = iter(range(len(due)))
    cursor_lock = threading.Lock()

    def body(_index, client, mine, start) -> None:
        while True:
            with cursor_lock:
                i = next(cursor, None)
            if i is None:
                return
            due_at = start + float(due[i])
            wait = due_at - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            user = int(users[i % len(users)])
            sent = time.perf_counter()
            items = client.recommend(user, k)
            done = time.perf_counter()
            mine.answers.append((user, items))
            mine.latencies.append(done - due_at)
            mine.lateness.append(sent - due_at)
            mine.finished.append(done - start)
            if span is not None:
                span(i, sent, done)

    return _run_clients(port, connections, body)


class GatewayHost:
    """A :class:`Gateway` serving on its own event-loop thread.

    The load threads and the gateway share one process (and one GIL), as
    the workloads state; the backend's workers are separate processes.
    Start it only after the router has forked its workers.
    """

    def __init__(self, backend, registry=None):
        self.gateway = Gateway(backend, GatewayConfig(), registry=registry)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._done: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def port(self) -> int:
        return self.gateway.port

    def _serve(self) -> None:
        async def run() -> None:
            self._loop = asyncio.get_running_loop()
            self._done = asyncio.Event()
            async with self.gateway:
                self._ready.set()
                await self._done.wait()

        asyncio.run(run())

    def __enter__(self) -> "GatewayHost":
        self._thread.start()
        if not self._ready.wait(timeout=_TIMEOUT_S):
            raise RuntimeError("gateway failed to start")
        return self

    def __exit__(self, *_exc) -> None:
        self._loop.call_soon_threadsafe(self._done.set)
        self._thread.join(timeout=_TIMEOUT_S)
