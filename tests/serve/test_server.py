"""End-to-end daemon tests over real sockets.

Routing, error contract and coalescing metrics run against a stub
runner; the parity test runs the real numerics and asserts the serving
path answers byte-identically to the serial library path.
"""

import asyncio
import threading

import pytest

from repro.eval.fidelity import Instance
from repro.explain import explain_instances, make_explainer
from repro.serve import (
    Coalescer,
    ExplainRuntime,
    ModelPool,
    ServeApp,
    ServeConfig,
    canonical_bytes,
    wire_explanation,
)

from .conftest import echo_runner, http_request, send_request


def run(coro):
    return asyncio.run(coro)


async def started_app(batch_runner=echo_runner, **config):
    config.setdefault("max_linger_ms", 10.0)
    app = ServeApp(ServeConfig(port=0, **config), batch_runner=batch_runner)
    await app.start()
    return app


class TestRoutes:
    def test_healthz(self):
        async def main():
            app = await started_app()
            status, payload, _ = await http_request(app.port, "/healthz")
            await app.shutdown()
            return status, payload

        status, payload = run(main())
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["pending"] == 0

    def test_unknown_route_404(self):
        async def main():
            app = await started_app()
            status, payload, _ = await http_request(app.port, "/nope")
            await app.shutdown()
            return status, payload

        status, payload = run(main())
        assert status == 404
        assert "/healthz" in payload["error"]["message"]

    def test_wrong_method_405(self):
        async def main():
            app = await started_app()
            get_explain = await http_request(app.port, "/explain")
            post_health = await http_request(app.port, "/healthz", "POST",
                                             body={})
            await app.shutdown()
            return get_explain, post_health

        get_explain, post_health = run(main())
        assert get_explain[0] == 405
        assert get_explain[2]["allow"] == "POST"
        assert post_health[0] == 405

    def test_malformed_body_400(self, explain_body):
        async def main():
            app = await started_app()
            empty = await http_request(app.port, "/explain", "POST", body={})
            bad_key = await http_request(
                app.port, "/explain", "POST",
                body={**explain_body, "explianer": "x"})
            await app.shutdown()
            return empty, bad_key

        empty, bad_key = run(main())
        assert empty[0] == 400
        assert "missing" in empty[1]["error"]["message"]
        assert bad_key[0] == 400
        assert "did you mean" in bad_key[1]["error"]["message"]

    def test_oversized_body_413(self, explain_body):
        async def main():
            app = await started_app(max_body_bytes=64)
            status, payload, _ = await http_request(
                app.port, "/explain", "POST",
                body={**explain_body, "params": {"pad": "x" * 256}})
            await app.shutdown()
            return status, payload

        status, payload = run(main())
        assert status == 413
        assert "exceeds" in payload["error"]["message"]

    def test_keep_alive_serves_multiple_requests(self, explain_body):
        async def main():
            app = await started_app()
            status1, payload1, _, reader, writer = await http_request(
                app.port, "/explain", "POST", body=explain_body,
                keep_open=True)
            status2, payload2, _ = await send_request(
                reader, writer, "/healthz", close=True)
            writer.close()
            await app.shutdown()
            return status1, payload1, status2, payload2

        status1, payload1, status2, _ = run(main())
        assert status1 == 200
        assert payload1["explanation"]["target"] == 3
        assert status2 == 200

    def test_metrics_and_caches(self, explain_body):
        async def main():
            app = await started_app()
            for _ in range(2):
                await http_request(app.port, "/explain", "POST",
                                   body=explain_body)
            status, payload, _ = await http_request(app.port, "/metrics")
            cstatus, cpayload, _ = await http_request(app.port, "/caches")
            await app.shutdown()
            return status, payload, cstatus, cpayload

        status, payload, cstatus, cpayload = run(main())
        assert status == 200
        assert payload["serve"]["explain_requests"] == 2
        assert payload["serve"]["responses_by_status"]["200"] >= 2
        assert payload["serve"]["latency_p50_ms"] is not None
        assert "single_forwards" in payload["perf"]
        assert "flow_cache" in payload["caches"]
        assert cstatus == 200 and "explanation_cache" in cpayload["caches"]


class TestBackpressureAndTimeouts:
    def test_429_with_retry_after(self, explain_body):
        started = threading.Event()
        release = threading.Event()

        def gated(requests):
            started.set()
            assert release.wait(timeout=10.0)
            return echo_runner(requests)

        async def main():
            app = await started_app(batch_runner=gated, max_batch=1,
                                    max_linger_ms=0.0, queue_limit=1,
                                    retry_after_s=3.0)
            first = asyncio.ensure_future(http_request(
                app.port, "/explain", "POST", body=explain_body))
            while not started.is_set():
                await asyncio.sleep(0.005)
            second = asyncio.ensure_future(http_request(
                app.port, "/explain", "POST",
                body={**explain_body, "target": 4}))
            # Wait for the second request to occupy the queue slot.
            while app.coalescer.queue_depth() < 1:
                await asyncio.sleep(0.005)
            rejected = await http_request(
                app.port, "/explain", "POST",
                body={**explain_body, "target": 5})
            release.set()
            ok = await asyncio.gather(first, second)
            metrics = (await http_request(app.port, "/metrics"))[1]["serve"]
            await app.shutdown()
            return rejected, ok, metrics

        rejected, ok, metrics = run(main())
        assert rejected[0] == 429
        assert rejected[2]["retry-after"] == "3"
        assert [r[0] for r in ok] == [200, 200]
        assert metrics["rejected_backpressure"] == 1

    def test_504_on_budget_exceeded(self, explain_body):
        release = threading.Event()

        def slow(requests):
            assert release.wait(timeout=10.0)
            return echo_runner(requests)

        async def main():
            app = await started_app(batch_runner=slow, max_linger_ms=0.0)
            status, payload, _ = await http_request(
                app.port, "/explain", "POST",
                body={**explain_body, "timeout": 0.05})
            release.set()
            metrics = (await http_request(app.port, "/metrics"))[1]["serve"]
            await app.shutdown()
            return status, payload, metrics

        status, payload, metrics = run(main())
        assert status == 504
        assert "budget" in payload["error"]["message"]
        assert metrics["timeouts"] == 1

    def test_runtime_error_maps_to_400(self, explain_body):
        def failing(requests):
            from repro.errors import ServeError
            return [ServeError("target 999 out of range") for _ in requests]

        async def main():
            app = await started_app(batch_runner=failing, max_linger_ms=0.0)
            status, payload, _ = await http_request(
                app.port, "/explain", "POST",
                body={**explain_body, "target": 999})
            await app.shutdown()
            return status, payload

        status, payload = run(main())
        assert status == 400
        assert "out of range" in payload["error"]["message"]

    def test_invalid_loop_settings_map_to_400(self, node_model, mini_ba_shapes):
        """``epochs: 0`` is rejected per request, not a 500 from the loop."""
        pool = ModelPool()
        pool.put(("ba_shapes", "gcn", None, 0), node_model, mini_ba_shapes)

        async def main():
            app = await started_app(batch_runner=ExplainRuntime(pool),
                                    max_linger_ms=0.0)
            status, payload, _ = await http_request(
                app.port, "/explain", "POST",
                body={"dataset": "ba_shapes", "model": "gcn",
                      "explainer": "revelio", "target": 3,
                      "params": {"epochs": 0}})
            await app.shutdown()
            return status, payload

        status, payload = run(main())
        assert status == 400
        assert "epochs" in payload["error"]["message"]

    @pytest.mark.parametrize("extra, named", [
        # the removed serial switch, as an explainer param and as an
        # execution field: both are unknown keys listing the valid ones
        ({"explainer": "flowx", "params": {"batched": False}}, ("batched", "samples")),
        ({"execution": {"batched": False}}, ("batched", "timeout")),
        # a perturbation budget that cannot run
        ({"explainer": "subgraphx", "params": {"shapley_samples": 0}},
         ("shapley_samples",)),
    ], ids=["params_batched", "execution_batched", "subgraphx_no_samples"])
    def test_removed_or_invalid_settings_map_to_400(self, node_model, mini_ba_shapes,
                                                    extra, named):
        pool = ModelPool()
        pool.put(("ba_shapes", "gcn", None, 0), node_model, mini_ba_shapes)

        async def main():
            app = await started_app(batch_runner=ExplainRuntime(pool),
                                    max_linger_ms=0.0)
            status, payload, _ = await http_request(
                app.port, "/explain", "POST",
                body={"dataset": "ba_shapes", "model": "gcn",
                      "explainer": "revelio", "target": 3, **extra})
            await app.shutdown()
            return status, payload

        status, payload = run(main())
        assert status == 400
        for word in named:
            assert word in payload["error"]["message"]


class TestServingParity:
    """Coalesced responses must be byte-identical to the serial path."""

    PARAMS = {"samples": 2, "finetune_epochs": 0}

    def _serial_bytes(self, model, dataset, target):
        explainer = make_explainer("flowx", model, **self.PARAMS)
        batch = explain_instances(explainer, [Instance(dataset.graph, target)],
                                  mode="factual", raise_on_error=True)
        payload, _, _ = wire_explanation(batch.explanations[0])
        return canonical_bytes(payload)

    def test_coalesced_explanations_match_serial(
            self, node_model, mini_ba_shapes, good_motif_node):
        pool = ModelPool()
        pool.put(("ba_shapes", "gcn", None, 0), node_model, mini_ba_shapes)
        runtime = ExplainRuntime(pool)
        targets = [good_motif_node, 0]

        async def main():
            app = await started_app(batch_runner=runtime, max_batch=8,
                                    max_linger_ms=25.0)
            bodies = [{"dataset": "ba_shapes", "model": "gcn",
                       "explainer": "flowx", "target": targets[i % 2],
                       "params": self.PARAMS} for i in range(8)]
            responses = await asyncio.gather(*[
                http_request(app.port, "/explain", "POST", body=b)
                for b in bodies])
            metrics = (await http_request(app.port, "/metrics"))[1]["serve"]
            await app.shutdown()
            return responses, metrics

        responses, metrics = run(main())
        assert all(status == 200 for status, _, _ in responses)
        serial = {t: self._serial_bytes(node_model, mini_ba_shapes, t)
                  for t in targets}
        for i, (_, payload, _) in enumerate(responses):
            assert canonical_bytes(payload["explanation"]) == \
                serial[targets[i % 2]]
        # 8 requests over 2 unique dedup keys: at least 6 joined inflight
        # computations, and everything ran in coalesced batches.
        assert metrics["deduped_requests"] >= 4
        assert metrics["batches_total"] >= 1
        assert metrics["batched_requests"] <= 4


def test_embedded_coalescer_parity_without_http(node_model, mini_ba_shapes,
                                                good_motif_node):
    """The coalescer + runtime stack alone preserves serial semantics."""
    pool = ModelPool()
    pool.put(("ba_shapes", "gcn", None, 0), node_model, mini_ba_shapes)
    runtime = ExplainRuntime(pool)
    params = {"samples": 2, "finetune_epochs": 0}

    from .conftest import make_request

    async def main():
        coalescer = Coalescer(runtime, max_batch=4, max_linger_ms=25.0)
        futures = [coalescer.submit(
            make_request(target=good_motif_node, **params))[0]
            for _ in range(3)]
        results = await asyncio.gather(*futures)
        await coalescer.shutdown()
        return results

    results = asyncio.run(main())
    explainer = make_explainer("flowx", node_model, **params)
    batch = explain_instances(
        explainer, [Instance(mini_ba_shapes.graph, good_motif_node)],
        mode="factual", raise_on_error=True)
    expected, _, _ = wire_explanation(batch.explanations[0])
    for result in results:
        assert canonical_bytes(result["explanation"]) == \
            canonical_bytes(expected)
