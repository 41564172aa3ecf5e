"""Graceful-shutdown contract of the daemon.

The acceptance bar: inflight requests drain to completion (200), queued
requests fail cleanly (503), the listening socket closes (connection
refused), and the loop is left with zero pending tasks.
"""

import asyncio
import threading

import pytest

from repro.serve import ServeApp, ServeConfig

from .conftest import echo_runner, http_request


BODY = {"dataset": "ba_shapes", "model": "gcn", "explainer": "flowx"}


class TestGracefulShutdown:
    def test_inflight_200_queued_503_sockets_closed_no_orphans(self):
        started = threading.Event()
        release = threading.Event()

        def gated(requests):
            started.set()
            assert release.wait(timeout=10.0)
            return echo_runner(requests)

        async def main():
            app = ServeApp(ServeConfig(port=0, max_batch=1, max_linger_ms=0.0),
                           batch_runner=gated)
            await app.start()
            port = app.port

            inflight = asyncio.ensure_future(http_request(
                port, "/explain", "POST", body={**BODY, "target": {"node": 0}}))
            while not started.is_set():
                await asyncio.sleep(0.005)
            queued = asyncio.ensure_future(http_request(
                port, "/explain", "POST", body={**BODY, "target": {"node": 1}}))
            while app.coalescer.queue_depth() < 1:
                await asyncio.sleep(0.005)

            shutdown = asyncio.ensure_future(app.shutdown())
            await asyncio.sleep(0.02)
            assert app.draining
            release.set()
            await shutdown

            inflight_result = await inflight
            queued_result = await queued

            with pytest.raises(ConnectionError):
                await asyncio.open_connection("127.0.0.1", port)

            pending = [t for t in asyncio.all_tasks()
                       if t is not asyncio.current_task()]
            return inflight_result, queued_result, pending

        inflight_result, queued_result, pending = asyncio.run(main())
        status, payload, _ = inflight_result
        assert status == 200
        assert payload["explanation"]["target"] == 0
        assert queued_result[0] == 503
        assert "shut down" in queued_result[1]["error"]["message"]
        assert pending == []

    def test_idle_keepalive_connection_closed(self):
        async def main():
            app = ServeApp(ServeConfig(port=0, max_linger_ms=0.0),
                           batch_runner=echo_runner)
            await app.start()
            # A request that keeps its connection open, then goes idle.
            status, _, _, reader, writer = await http_request(
                app.port, "/explain", "POST", body={**BODY, "target": {"node": 2}},
                keep_open=True)
            assert status == 200
            await app.shutdown()
            # The daemon closed the idle socket: reads hit EOF.
            assert await reader.read() == b""
            writer.close()
            pending = [t for t in asyncio.all_tasks()
                       if t is not asyncio.current_task()]
            assert pending == []

        asyncio.run(main())

    def test_responses_during_drain_close_connection(self):
        started = threading.Event()
        release = threading.Event()

        def gated(requests):
            started.set()
            assert release.wait(timeout=10.0)
            return echo_runner(requests)

        async def main():
            app = ServeApp(ServeConfig(port=0, max_batch=1, max_linger_ms=0.0),
                           batch_runner=gated)
            await app.start()
            inflight = asyncio.ensure_future(http_request(
                app.port, "/explain", "POST", body={**BODY, "target": {"node": 0}},
                keep_open=True))
            while not started.is_set():
                await asyncio.sleep(0.005)
            shutdown = asyncio.ensure_future(app.shutdown())
            await asyncio.sleep(0.02)
            release.set()
            await shutdown
            status, _, headers, reader, writer = await inflight
            assert status == 200
            # Drain responses advertise Connection: close and the socket
            # really is closed afterwards.
            assert headers["connection"] == "close"
            assert await reader.read() == b""
            writer.close()

        asyncio.run(main())

    def test_shutdown_idempotent(self):
        async def main():
            app = ServeApp(ServeConfig(port=0), batch_runner=echo_runner)
            await app.start()
            await app.shutdown()
            await app.shutdown()
            with pytest.raises(ConnectionError):
                await asyncio.open_connection("127.0.0.1", app.port)

        asyncio.run(main())

    def test_shutdown_before_any_request(self):
        async def main():
            app = ServeApp(ServeConfig(port=0), batch_runner=echo_runner)
            await app.start()
            await app.shutdown()
            pending = [t for t in asyncio.all_tasks()
                       if t is not asyncio.current_task()]
            assert pending == []

        asyncio.run(main())
