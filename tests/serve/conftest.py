"""Shared helpers for the serving-daemon tests.

Tests drive the real asyncio server over real sockets; the helpers here
are a tiny HTTP/1.1 client (stdlib streams, mirroring what curl sends)
and factories for requests and stub batch runners. Each test owns its
event loop via ``asyncio.run`` — no asyncio pytest plugin is assumed.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.explain import ExplainTarget
from repro.serve import ExplainRequest


async def http_request(port: int, path: str, method: str = "GET",
                       body: dict | None = None, host: str = "127.0.0.1",
                       keep_open: bool = False):
    """One HTTP exchange; returns ``(status, payload, headers)``.

    With ``keep_open`` the connection stays alive and
    ``(status, payload, headers, reader, writer)`` is returned so a test
    can issue follow-up requests on the same socket.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        status, payload, headers = await send_request(
            reader, writer, path, method=method, body=body,
            close=not keep_open)
    except BaseException:
        writer.close()
        raise
    if keep_open:
        return status, payload, headers, reader, writer
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return status, payload, headers


async def send_request(reader, writer, path: str, method: str = "GET",
                       body: dict | None = None, close: bool = True):
    """Write one request on an open connection and parse the response."""
    connection = "close" if close else "keep-alive"
    if body is not None:
        raw = json.dumps(body).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(raw)}\r\n"
                f"Connection: {connection}\r\n\r\n")
        writer.write(head.encode() + raw)
    else:
        writer.write((f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                      f"Connection: {connection}\r\n\r\n").encode())
    await writer.drain()

    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = None
    if "content-length" in headers:
        raw = await reader.readexactly(int(headers["content-length"]))
        payload = json.loads(raw)
    return status, payload, headers


def make_request(node=0, explainer="flowx", dataset="ba_shapes",
                 conv="gcn", mode="factual", timeout=None, **params):
    """An :class:`ExplainRequest` for node ``node``, for coalescer-level tests."""
    from repro.execution import ExecutionConfig

    return ExplainRequest(
        dataset=dataset, conv=conv, explainer=explainer,
        target=ExplainTarget.node(node),
        mode=mode, params=tuple(sorted(params.items())),
        execution=ExecutionConfig(timeout=timeout))


def echo_runner(requests):
    """Instant stub runner: answers with the request coordinates."""
    from repro.explain import as_node_id

    return [{"explanation": {"explainer": r.explainer,
                             "target": as_node_id(r.target)},
             "perf": {"explain_seconds": 0.0}, "trace_id": None}
            for r in requests]


async def poll(predicate, timeout: float = 5.0, interval: float = 0.005):
    """Await until ``predicate()`` is true (tests' cross-thread sync)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(interval)


@pytest.fixture
def explain_body():
    """A minimal valid ``POST /explain`` JSON body."""
    return {"dataset": "ba_shapes", "model": "gcn", "explainer": "flowx",
            "target": {"node": 3}}
