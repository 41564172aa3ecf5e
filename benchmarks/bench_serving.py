"""Serving load generator: coalesced daemon vs. the serial request path.

Boots the ``repro.serve`` daemon in-process on a real socket, drives it
with :data:`CONCURRENCY` keep-alive HTTP clients issuing explain
requests round-robin over :data:`UNIQUE_TARGETS` targets, and times the
same load twice — once with coalescing on (micro-batching + singleflight
dedup) and once through the serial baseline
(``coalesce=False, max_batch=1, max_linger_ms=0``), which executes every
request independently exactly like the library's ``explain_instances``
path. Every response from both runs must be byte-identical to the
library path for its target; the coalesced run must clear
:data:`SPEEDUP_FLOOR` over the serial wall-clock.

The payload (p50/p99 latency, throughput, dedup and batch counters) is
printed as JSON; nothing is written to disk.

Run as a pytest marker (seconds-scale budget)::

    PYTHONPATH=src python -m pytest -m serve_slow benchmarks/bench_serving.py -q

as a script::

    PYTHONPATH=src python benchmarks/bench_serving.py

or as the CI smoke (reduced load)::

    PYTHONPATH=src REPRO_SCALE=0.12 python benchmarks/bench_serving.py --smoke
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time

import pytest

SPEEDUP_FLOOR = 2.0
CONCURRENCY = 16
REQUESTS_PER_CLIENT = 4
UNIQUE_TARGETS = 4

DATASET = "ba_shapes"
CONV = "gcn"
EXPLAINER = "flowx"


def _scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.15"))


def _params() -> dict:
    # FlowX with no finetuning: deterministic, cache-free per request, so
    # the serial baseline really recomputes (Revelio's explanation cache
    # would make repeats free on both paths and void the comparison).
    return {"samples": int(os.environ.get("REPRO_SERVE_SAMPLES", "2")),
            "finetune_epochs": 0}


async def _send(reader, writer, path, method="GET", body=None):
    """One HTTP/1.1 request over an existing keep-alive connection."""
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n")
    writer.write(head.encode("ascii") + payload)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("ascii").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    data = await reader.readexactly(length) if length else b""
    return status, json.loads(data) if data else None


async def _client(port, bodies, latencies_ms):
    """One keep-alive client issuing its request sequence in order."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        responses = []
        for body in bodies:
            t0 = time.perf_counter()
            status, payload = await _send(reader, writer, "/explain",
                                          "POST", body)
            latencies_ms.append((time.perf_counter() - t0) * 1e3)
            responses.append((status, payload))
        return responses
    finally:
        writer.close()


def _percentile(values, q):
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _request_bodies(targets, concurrency, per_client):
    params = _params()
    return [[{"dataset": DATASET, "model": CONV, "explainer": EXPLAINER,
              "target": targets[(i + j) % len(targets)], "params": params,
              "scale": _scale()}
             for j in range(per_client)]
            for i in range(concurrency)]


def _run_load(runtime, *, coalesce, concurrency, per_client, targets):
    """Drive one daemon configuration; returns (responses, wall_s, stats)."""
    from repro.serve import ServeApp, ServeConfig

    config = ServeConfig(
        port=0,
        coalesce=coalesce,
        max_batch=16 if coalesce else 1,
        max_linger_ms=5.0 if coalesce else 0.0,
        queue_limit=4 * concurrency * per_client,
    )
    bodies = _request_bodies(targets, concurrency, per_client)
    latencies_ms: list[float] = []

    async def main():
        app = ServeApp(config, batch_runner=runtime)
        await app.start()
        status, health = await _healthz(app.port)
        assert status == 200 and health["status"] == "ok", health
        t0 = time.perf_counter()
        per_client_responses = await asyncio.gather(*[
            _client(app.port, client_bodies, latencies_ms)
            for client_bodies in bodies])
        wall_s = time.perf_counter() - t0
        stats = app.metrics.snapshot()
        await app.shutdown()
        return per_client_responses, wall_s, stats

    per_client_responses, wall_s, stats = asyncio.run(main())
    flat = [r for responses in per_client_responses for r in responses]
    assert all(status == 200 for status, _ in flat), \
        [status for status, _ in flat if status != 200]
    return flat, wall_s, stats, latencies_ms


async def _healthz(port):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await _send(reader, writer, "/healthz")
    finally:
        writer.close()


def _library_bytes(pool, model_key, targets):
    """The serial ``explain_instances`` answer, canonicalised per target."""
    from repro.eval.fidelity import Instance
    from repro.explain import explain_instances, make_explainer
    from repro.serve import canonical_bytes, wire_explanation

    model, dataset = pool.get(model_key)
    expected = {}
    for target in targets:
        explainer = make_explainer(EXPLAINER, model, **_params())
        batch = explain_instances(explainer, [Instance(dataset.graph, target)],
                                  mode="factual", raise_on_error=True)
        payload, _, _ = wire_explanation(batch.explanations[0])
        expected[target] = canonical_bytes(payload)
    return expected


def _assert_parity(responses, bodies_targets, expected):
    from repro.serve import canonical_bytes

    for (status, payload), target in zip(responses, bodies_targets):
        assert status == 200
        got = canonical_bytes(payload["explanation"])
        assert got == expected[target], \
            f"served explanation for target {target} diverged from the " \
            f"serial explain_instances path"


def _flat_targets(targets, concurrency, per_client):
    return [targets[(i + j) % len(targets)]
            for i in range(concurrency) for j in range(per_client)]


def run_benchmark(*, smoke: bool = False) -> dict:
    from repro.serve import ExplainRuntime, ModelPool

    concurrency = 4 if smoke else CONCURRENCY
    per_client = 1 if smoke else REQUESTS_PER_CLIENT
    targets = list(range(2 if smoke else UNIQUE_TARGETS))

    pool = ModelPool()
    model_key = (DATASET, CONV, _scale(), 0)
    pool.preload(model_key)  # warm before timing: the pool is the point
    runtime = ExplainRuntime(pool)
    expected = _library_bytes(pool, model_key, targets)
    flat_targets = _flat_targets(targets, concurrency, per_client)

    coalesced, coalesced_s, stats, latencies_ms = _run_load(
        runtime, coalesce=True, concurrency=concurrency,
        per_client=per_client, targets=targets)
    _assert_parity(coalesced, flat_targets, expected)
    assert stats["batches_total"] >= 1, stats

    if smoke:
        assert stats["deduped_requests"] + stats["batched_requests"] > 0, \
            f"no request was coalesced under concurrent load: {stats}"
        return {"mode": "smoke", "requests": len(coalesced),
                "serve": stats}

    serial, serial_s, serial_stats, _ = _run_load(
        runtime, coalesce=False, concurrency=concurrency,
        per_client=per_client, targets=targets)
    _assert_parity(serial, flat_targets, expected)
    assert serial_stats["deduped_requests"] == 0, serial_stats

    requests = concurrency * per_client
    payload = {
        "dataset": DATASET,
        "explainer": EXPLAINER,
        "params": _params(),
        "concurrency": concurrency,
        "unique_targets": len(targets),
        "requests": requests,
        "speedup_floor": SPEEDUP_FLOOR,
        "serial_seconds": round(serial_s, 3),
        "coalesced_seconds": round(coalesced_s, 3),
        "speedup": round(serial_s / max(coalesced_s, 1e-9), 2),
        "throughput_rps": round(requests / max(coalesced_s, 1e-9), 1),
        "latency_p50_ms": round(_percentile(latencies_ms, 0.50), 1),
        "latency_p99_ms": round(_percentile(latencies_ms, 0.99), 1),
        "batches": stats["batches_total"],
        "batched_requests": stats["batched_requests"],
        "deduped_requests": stats["deduped_requests"],
        "parity": "byte-identical",
    }
    assert payload["speedup"] >= SPEEDUP_FLOOR, \
        f"coalesced serving only {payload['speedup']}x over serial: {payload}"
    return payload


@pytest.mark.serve_slow
def test_serving_load():
    payload = run_benchmark()
    print(json.dumps(payload, indent=2))


def main() -> int:
    smoke = "--smoke" in sys.argv[1:]
    payload = run_benchmark(smoke=smoke)
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
