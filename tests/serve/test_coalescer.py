"""Coalescer mechanics: batching, dedup, backpressure, graceful drain.

All tests inject a controllable ``batch_runner`` so behaviour is
deterministic — no numerics, no HTTP.
"""

import asyncio
import threading

import pytest

from repro.errors import ServeError
from repro.serve import BackpressureError, Coalescer, DrainingError

from .conftest import echo_runner, make_request, poll


def run(coro):
    return asyncio.run(coro)


class RecordingRunner:
    """Echo runner that remembers every batch it executed."""

    def __init__(self):
        self.batches = []

    def __call__(self, requests):
        self.batches.append([r.target.node_id for r in requests])
        return echo_runner(requests)


class GatedRunner(RecordingRunner):
    """Runner that blocks until the test releases it."""

    def __init__(self):
        super().__init__()
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, requests):
        self.started.set()
        assert self.release.wait(timeout=10.0)
        return super().__call__(requests)


class TestBatching:
    def test_concurrent_requests_share_one_batch(self):
        async def main():
            runner = RecordingRunner()
            coalescer = Coalescer(runner, max_batch=8, max_linger_ms=50.0)
            futures = [coalescer.submit(make_request(node=t))[0]
                       for t in range(4)]
            results = await asyncio.gather(*futures)
            await coalescer.shutdown()
            return runner, results

        runner, results = run(main())
        assert runner.batches == [[0, 1, 2, 3]]
        assert all(r["batch_size"] == 4 for r in results)

    def test_max_batch_splits(self):
        async def main():
            runner = RecordingRunner()
            coalescer = Coalescer(runner, max_batch=2, max_linger_ms=50.0)
            futures = [coalescer.submit(make_request(node=t))[0]
                       for t in range(5)]
            await asyncio.gather(*futures)
            await coalescer.shutdown()
            return runner

        runner = run(main())
        assert [len(b) for b in runner.batches] == [2, 2, 1]

    def test_distinct_batch_keys_do_not_mix(self):
        async def main():
            runner = RecordingRunner()
            coalescer = Coalescer(runner, max_batch=8, max_linger_ms=50.0)
            fa = coalescer.submit(make_request(node=0, explainer="flowx"))[0]
            fb = coalescer.submit(make_request(node=0, explainer="gradcam"))[0]
            ra, rb = await asyncio.gather(fa, fb)
            await coalescer.shutdown()
            return ra, rb

        ra, rb = run(main())
        assert ra["batch_size"] == 1 and rb["batch_size"] == 1
        assert ra["explanation"]["explainer"] == "flowx"
        assert rb["explanation"]["explainer"] == "gradcam"

    def test_on_batch_hook_fires(self):
        seen = []

        async def main():
            coalescer = Coalescer(
                echo_runner, max_batch=8, max_linger_ms=20.0,
                on_batch=lambda key, size, seconds: seen.append(size))
            futures = [coalescer.submit(make_request(node=t))[0]
                       for t in range(3)]
            await asyncio.gather(*futures)
            await coalescer.shutdown()

        run(main())
        assert seen == [3]


class TestDedup:
    def test_identical_requests_join_inflight(self):
        async def main():
            runner = GatedRunner()
            coalescer = Coalescer(runner, max_batch=4, max_linger_ms=0.0)
            f1, joined1 = coalescer.submit(make_request(node=5))
            await poll(runner.started.is_set)
            f2, joined2 = coalescer.submit(make_request(node=5))
            runner.release.set()
            r1, r2 = await asyncio.gather(f1, f2)
            await coalescer.shutdown()
            return runner, joined1, joined2, r1, r2

        runner, joined1, joined2, r1, r2 = run(main())
        assert (joined1, joined2) == (False, True)
        assert r1 is r2  # one computation, shared result
        assert runner.batches == [[5]]

    def test_coalesce_off_disables_dedup_and_batching(self):
        async def main():
            runner = RecordingRunner()
            coalescer = Coalescer(runner, max_batch=8, max_linger_ms=50.0,
                                  coalesce=False)
            futures = [coalescer.submit(make_request(node=5))
                       for _ in range(3)]
            assert not any(joined for _, joined in futures)
            await asyncio.gather(*[f for f, _ in futures])
            await coalescer.shutdown()
            return runner

        runner = run(main())
        assert runner.batches == [[5], [5], [5]]


class TestBackpressure:
    def test_full_queue_raises(self):
        async def main():
            runner = GatedRunner()
            coalescer = Coalescer(runner, max_batch=1, max_linger_ms=0.0,
                                  queue_limit=2, retry_after_s=2.0)
            first = coalescer.submit(make_request(node=0))[0]
            await poll(runner.started.is_set)  # target 0 now executing
            queued = [coalescer.submit(make_request(node=t))[0]
                      for t in (1, 2)]
            with pytest.raises(BackpressureError) as excinfo:
                coalescer.submit(make_request(node=3))
            assert excinfo.value.retry_after_s == 2.0
            runner.release.set()
            await asyncio.gather(first, *queued)
            await coalescer.shutdown()

        run(main())

    def test_duplicate_joins_even_when_queue_full(self):
        async def main():
            runner = GatedRunner()
            coalescer = Coalescer(runner, max_batch=1, max_linger_ms=0.0,
                                  queue_limit=1)
            first = coalescer.submit(make_request(node=0))[0]
            await poll(runner.started.is_set)
            queued = coalescer.submit(make_request(node=1))[0]
            joined, was_joined = coalescer.submit(make_request(node=1))
            assert was_joined and joined is queued
            runner.release.set()
            await asyncio.gather(first, queued)
            await coalescer.shutdown()

        run(main())


class TestFailures:
    def test_per_request_exception_fails_only_its_future(self):
        def runner(requests):
            return [ValueError("bad instance") if r.target.node_id == 1
                    else echo_runner([r])[0] for r in requests]

        async def main():
            coalescer = Coalescer(runner, max_batch=4, max_linger_ms=20.0)
            ok = coalescer.submit(make_request(node=0))[0]
            bad = coalescer.submit(make_request(node=1))[0]
            result = await ok
            with pytest.raises(ValueError, match="bad instance"):
                await bad
            await coalescer.shutdown()
            return result

        assert run(main())["batch_size"] == 2

    def test_runner_crash_fails_whole_batch(self):
        def runner(requests):
            raise RuntimeError("model load failed")

        async def main():
            coalescer = Coalescer(runner, max_batch=4, max_linger_ms=10.0)
            futures = [coalescer.submit(make_request(node=t))[0]
                       for t in range(2)]
            for future in futures:
                with pytest.raises(RuntimeError, match="model load failed"):
                    await future
            await coalescer.shutdown()

        run(main())

    def test_result_length_mismatch_fails_batch(self):
        async def main():
            coalescer = Coalescer(lambda requests: [], max_batch=2,
                                  max_linger_ms=0.0)
            future = coalescer.submit(make_request(node=0))[0]
            with pytest.raises(ServeError, match="0 results for 1 requests"):
                await future
            await coalescer.shutdown()

        run(main())

    def test_bad_config_rejected(self):
        with pytest.raises(ServeError, match="max_batch"):
            Coalescer(echo_runner, max_batch=0)
        with pytest.raises(ServeError, match="queue_limit"):
            Coalescer(echo_runner, queue_limit=0)


class TestShutdown:
    def test_inflight_completes_queued_fails(self):
        async def main():
            runner = GatedRunner()
            coalescer = Coalescer(runner, max_batch=1, max_linger_ms=0.0)
            inflight = coalescer.submit(make_request(node=0))[0]
            await poll(runner.started.is_set)
            queued = coalescer.submit(make_request(node=1))[0]
            shutdown = asyncio.ensure_future(coalescer.shutdown())
            await asyncio.sleep(0.01)
            runner.release.set()
            await shutdown
            result = await inflight
            with pytest.raises(DrainingError):
                await queued
            with pytest.raises(DrainingError):
                coalescer.submit(make_request(node=2))
            return result, runner

        result, runner = run(main())
        assert result["explanation"]["target"] == 0
        assert runner.batches == [[0]]  # target 1 never executed

    def test_shutdown_idempotent_and_task_clean(self):
        async def main():
            coalescer = Coalescer(echo_runner, max_batch=2, max_linger_ms=5.0)
            future = coalescer.submit(make_request(node=0))[0]
            await future
            await coalescer.shutdown()
            await coalescer.shutdown()
            pending = [t for t in asyncio.all_tasks()
                       if t is not asyncio.current_task()]
            assert pending == []

        run(main())
