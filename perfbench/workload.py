"""One benchmark run, in a fresh process: set up, drive, check, measure.

Started by ``perfbench/run.py`` with a private empty ``REPRO_CACHE`` and
single-threaded BLAS/OpenMP. Prints a human-readable report and writes
the result object (``correct`` / ``attempted`` / ``failed`` /
``metrics``) as JSON to ``--result``. Drives the library only through
its public entry points; see ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402  (benchmark-local module)

from repro.core.revelio import (  # noqa: E402
    clear_explanation_cache, explanation_cache_disabled)
from repro.datasets import load_dataset  # noqa: E402
from repro.eval.fidelity import Instance  # noqa: E402
from repro.explain import ExplainTarget, explain_instances, make_explainer  # noqa: E402
from repro.explain.base import (  # noqa: E402
    CONTEXT_CACHE, clear_context_cache, context_cache_disabled)
from repro.explain.io import explanation_from_jsonable  # noqa: E402
from repro.flows import (  # noqa: E402
    FLOW_CACHE, flow_cache_disabled, graph_fingerprint, invalidate)
from repro.nn.zoo import get_model  # noqa: E402
from repro.obs import perf_snapshot  # noqa: E402
from repro.serve import ServeApp, ServeConfig, canonical_bytes, wire_explanation  # noqa: E402

#: Revelio at the repository's default effort (0.2 × the paper's T=500).
REVELIO_PARAMS = {"epochs": 100, "lr": 0.01, "alpha": 0.05}
#: FlowX with no fine-tuning: its cost is the Shapley stage's batched
#: masked forwards. ``edges_per_sample`` bounds the toggled edges per
#: coalition so a hub target costs at most ~4x the median target.
FLOWX_PARAMS = {"samples": 2, "finetune_epochs": 0, "edges_per_sample": 128}
#: Cheap variants used only to warm code paths before the timed phase.
WARMUP_PARAMS = {"revelio": {"epochs": 5}, "flowx": {"samples": 1, "finetune_epochs": 0,
                                                     "edges_per_sample": 4}}


@dataclass(frozen=True)
class Workload:
    kind: str            # "explain" or "serve"
    dataset: str
    scale: float
    pass_seconds: float  # nominal length of one pass on the reference host
    setup_repeats: int
    pass_size: int = 0   # explain: targets per pass (one per cost stratum)
    warmups: int = 1     # explain: warm-up requests per set-up
    rechecks: int = 2    # explain: timed targets recomputed with caches off


WORKLOADS = {
    "explain_cora_x1": Workload("explain", "cora", 1.0, pass_seconds=5.0,
                                setup_repeats=3, pass_size=16, warmups=2,
                                rechecks=3),
    "explain_cora_x10": Workload("explain", "cora", 10.0, pass_seconds=7.5,
                                 setup_repeats=1, pass_size=4, warmups=1,
                                 rechecks=2),
    "serve_ba_shapes": Workload("serve", "ba_shapes", 0.25, pass_seconds=15.0,
                                setup_repeats=3),
}

#: Spans every workload must record at least once in a traced run, and
#: spans that must stay at zero calls, so a renamed entry point fails
#: loudly instead of reporting 0 s.
REQUIRED_SPANS = {
    "explain": ("explain.explain", "explain.node_context", "explain.predicted_class",
                "core.explain_node", "flows.enumerate", "flows.aggregate",
                "nn.forward_graph", "autograd.backward", "autograd.adam_step",
                "sparse.scatter_add", "sparse.spmm"),
    "serve": ("explain.explain", "explain.node_context", "explain.predicted_class",
              "core.explain_node", "flows.enumerate", "flows.aggregate",
              "nn.forward_graph", "nn.forward_masked_batch", "autograd.backward",
              "autograd.adam_step", "serve.batch", "sparse.scatter_add",
              "sparse.spmm", "sparse.gather_scatter"),
}
ZERO_SPANS = {"explain": ("nn.forward_masked_batch", "serve.batch"), "serve": ()}
#: Requests per connection between two host calibrations on the served sweep.
SERVE_CHUNK = 12

#: Span names reported as ``<name>_s`` / ``<name>_self_s`` / ``<name>_calls``.
SPAN_METRICS = (
    "explain.explain", "explain.node_context", "explain.predicted_class",
    "core.explain_node", "flows.enumerate", "flows.aggregate", "nn.forward_graph",
    "nn.forward_masked_batch", "autograd.backward", "autograd.adam_step",
    "serve.batch", "sparse.scatter_add", "sparse.segment_max", "sparse.spmm",
    "sparse.gather_scatter",
)


class CheckFailed(Exception):
    """An output or work-counter check failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def flow_counts(graph, num_layers: int) -> np.ndarray:
    """Message flows ending at each node: column sums of ``(A + I)^L``."""
    import scipy.sparse as sp

    src, dst = graph.edge_index
    n = graph.num_nodes
    walk = sp.csr_matrix((np.ones(src.shape[0]), (dst, src)), shape=(n, n)) \
        + sp.identity(n, format="csr")
    counts = np.ones(n)
    for _ in range(num_layers):
        counts = walk @ counts
    return counts


def stratified_plan(graph, num_layers: int, strata: int, passes: int,
                    warmups: int, rng: np.random.Generator):
    """Timed targets in passes of one target per flow-count stratum.

    Every pass draws the same cost mix, so the work of a run barely
    depends on the seed. Warm-up targets come from the tail of the
    strata, never reached by a timed pass.
    """
    order = np.argsort(flow_counts(graph, num_layers), kind="stable")
    bins = [rng.permutation(b) for b in np.array_split(order, strata)]
    check(passes + warmups <= min(len(b) for b in bins), "too few nodes per stratum")
    timed = []
    for p in range(passes):
        timed.extend(int(v) for v in rng.permutation([b[p] for b in bins]))
    warm = [int(bins[i % strata][-1 - i // strata]) for i in range(warmups)]
    return timed, warm


def serve_plan(graph, model, rng: np.random.Generator):
    """Per-connection request lists for the served sweep.

    Every node gets one FlowX request. Nodes whose explanation contexts
    share a flow-cache key are kept adjacent on one connection, so their
    cache hits do not depend on how the two connections interleave. A
    stratified quarter of the nodes also gets a Revelio request right
    after its FlowX request (a flow- and context-cache hit) and a repeat
    later on the same connection (an explanation-memo hit).
    """
    probe = make_explainer("flowx", model)
    groups: dict[tuple, list[int]] = {}
    for v in range(graph.num_nodes):
        context = probe.node_context(graph, v)
        key = (graph_fingerprint(context.subgraph), context.local_target)
        groups.setdefault(key, []).append(v)
    clear_caches()
    order = np.argsort(flow_counts(graph, model.num_layers), kind="stable")
    revelio = {int(rng.choice(chunk)) for chunk in np.array_split(order, -(-len(order) // 4))}
    lists: list[list[tuple[str, int]]] = [[], []]
    members = list(groups.values())
    for i, g in enumerate(rng.permutation(len(members))):
        for v in rng.permutation(members[g]):
            lists[i % 2].append(("flowx", int(v)))
            if v in revelio:
                lists[i % 2].append(("revelio", int(v)))
    for requests in lists:
        for v in [v for name, v in list(requests) if name == "revelio"]:
            first = requests.index(("revelio", v))
            requests.insert(int(rng.integers(first + 1, len(requests) + 1)), ("revelio", v))
    distinct_keys = len(groups)
    return lists, len(revelio), distinct_keys


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def clear_caches() -> None:
    clear_explanation_cache()
    clear_context_cache()
    invalidate()


def calibration_s() -> float:
    """A fixed numpy + Python loop; moves with the host, not the code.

    The collector is off while it runs, so the library's live objects do
    not add collection time to it.
    """
    a = np.random.default_rng(0).random((160, 160))
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0.0
        for _ in range(100):
            total += float((a @ a).sum())
            table = {j: j * j for j in range(4000)}
            total += sum(table.values()) * 1e-12
        return time.perf_counter() - t0
    finally:
        gc.enable()


class HostClock:
    """Timed-phase clock that scales measured time to the reference host.

    A shared VM's speed can switch between a fast and a slow state (on
    the reference host the calibration loop reads about 1.45x slower) in
    phases of a few seconds to minutes, so a run's raw throughput depends
    on how much of it fell into slow phases. The clock runs the calibration loop before the timed
    phase and then between requests, at least every ``SEGMENT_S`` seconds,
    and scales every request and every stretch of timed wall time between
    two calibrations by ``REFERENCE_CALIBRATION_S`` over the mean of those
    two calibrations. Calibration time itself is not timed.
    """

    #: About the loop's time on the reference host (2-core x86 VM) in its
    #: fast state; reported times are in units of that host.
    REFERENCE_CALIBRATION_S = 0.045
    SEGMENT_S = 1.0

    def __init__(self):
        self.calibrations = [calibration_s()]
        self.raw_latencies: list[float] = []
        self.latencies: list[float] = []
        self.wall = 0.0
        self.scaled_wall = 0.0
        self._pending: list[float] = []
        self._opened = time.perf_counter()

    def record(self, latency: float) -> None:
        self._pending.append(latency)

    def due(self) -> bool:
        return time.perf_counter() - self._opened >= self.SEGMENT_S

    def close_segment(self) -> None:
        """Calibrate, and scale what was measured since the last calibration."""
        elapsed = time.perf_counter() - self._opened
        self.calibrations.append(calibration_s())
        scale = 2 * self.REFERENCE_CALIBRATION_S / sum(self.calibrations[-2:])
        self.wall += elapsed
        self.scaled_wall += elapsed * scale
        self.raw_latencies += self._pending
        self.latencies += [t * scale for t in self._pending]
        self._pending = []
        self._opened = time.perf_counter()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


def counters() -> dict:
    snap = perf_snapshot()
    snap.pop("stage_seconds")
    snap["context_cache_misses"] = CONTEXT_CACHE.misses
    snap["flow_cache_misses"] = FLOW_CACHE.cache_info()["misses"]
    return snap


def delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def summarize(expl) -> tuple:
    """The parts of an explanation the checks read (no flow index kept)."""
    return (expl.method, expl.target, expl.predicted_class,
            np.asarray(expl.edge_scores), np.asarray(expl.context_edge_positions))


def check_explanation(summary: tuple, method: str, node: int, num_edges: int,
                      predicted: np.ndarray) -> None:
    got_method, target, cls, scores, context = summary
    where = f"{method}@{node}"
    check(got_method == method and target == node,
          f"explanation for {where} came back as {got_method}@{target}")
    check(cls == int(predicted[node]),
          f"{where}: predicted_class {cls} != full-graph argmax {int(predicted[node])}")
    check(scores.shape == (num_edges,), f"{where}: scores shape {scores.shape}")
    check(bool(np.isfinite(scores).all()), f"{where}: non-finite scores")
    outside = np.ones(num_edges, dtype=bool)
    outside[context] = False
    check(not np.any(scores[outside]), f"{where}: nonzero score outside context")


def explain_one(method: str, params: dict, model, graph, node: int):
    explainer = make_explainer(method, model, **params)
    batch = explain_instances(explainer, [Instance(graph, ExplainTarget.node(node))])
    return batch


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def build_model(spec: Workload, cache_root: Path, rep: int):
    """Generate the dataset and train the model into an empty cache."""
    os.environ["REPRO_CACHE"] = str(cache_root / f"setup{rep}")
    t0 = time.perf_counter()
    dataset = load_dataset(spec.dataset, scale=spec.scale, seed=0)
    t1 = time.perf_counter()
    model, dataset, result = get_model(spec.dataset, "gcn", scale=spec.scale, seed=0,
                                       dataset=dataset)
    t2 = time.perf_counter()
    check(result is not None, "model came from a previous checkpoint, not from training")
    return model, dataset, {"load_s": t1 - t0, "train_s": t2 - t1,
                            "epochs": result.epochs_run}


# ----------------------------------------------------------------------
# explain workloads
# ----------------------------------------------------------------------
class ExplainRun:
    def __init__(self, spec: Workload, seed: int, passes: int, cache_root: Path):
        self.spec = spec
        self.seed = seed
        self.passes = passes
        self.cache_root = cache_root

    def setup(self) -> list[dict]:
        stats = []
        for rep in range(self.spec.setup_repeats):
            # Drop the previous repetition first, so one is resident at a time.
            self.model = self.graph = None
            gc.collect()
            clear_caches()
            self.model, self.graph, info = self._setup_once(rep)
            stats.append(info)
        clear_caches()
        return stats

    def _setup_once(self, rep: int):
        t0 = time.perf_counter()
        model, dataset, info = build_model(self.spec, self.cache_root, rep)
        graph = dataset.graph
        if rep == 0:
            rng = np.random.default_rng(self.seed)
            self.timed, self.warm = stratified_plan(
                graph, model.num_layers, self.spec.pass_size, self.passes,
                self.spec.warmups, rng)
        for node in self.warm:
            batch = explain_one("revelio", REVELIO_PARAMS, model, graph, node)
            check(batch.num_failed == 0, f"warm-up on {node} failed")
        info["total_s"] = time.perf_counter() - t0
        return model, graph, info

    def run_requests(self, passes: int) -> dict:
        """Explain the first ``passes`` passes' targets, each from cold caches."""
        results, failed = [], 0
        before = counters()
        clock = HostClock()
        for node in self.timed[:passes * self.spec.pass_size]:
            clear_caches()
            t0 = time.perf_counter()
            batch = explain_one("revelio", REVELIO_PARAMS, self.model, self.graph, node)
            clock.record(time.perf_counter() - t0)
            failed += batch.num_failed
            results.extend((node, summarize(e)) for e in batch.explanations)
            if clock.due():
                clock.close_segment()
        clock.close_segment()
        return {"clock": clock, "passes": passes, "failed": failed, "results": results,
                "work": delta(before, counters())}

    def verify(self, phase: dict) -> None:
        graph, model = self.graph, self.model
        predicted = model.predict(graph)
        check(len(phase["results"]) == len(phase["clock"].latencies), "missing explanations")
        for node, summary in phase["results"]:
            check_explanation(summary, "revelio", node, graph.num_edges, predicted)
        with explanation_cache_disabled(), context_cache_disabled(), flow_cache_disabled():
            for node, (_, _, cls, scores, _) in phase["results"][:self.spec.rechecks]:
                fresh = explain_one("revelio", REVELIO_PARAMS, model, graph, node)
                e = fresh.explanations[0]
                check(e.predicted_class == cls and np.array_equal(e.edge_scores, scores),
                      f"timed explanation of {node} differs from a cache-free recompute")
        work = phase["work"]
        for key in ("explanation_cache_hits", "context_cache_hits", "flow_cache_hits",
                    "batched_forwards"):
            check(work[key] == 0, f"explain workload timed phase shows {key}={work[key]}")


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------
async def http_call(reader, writer, body: dict) -> tuple[int, bytes]:
    payload = json.dumps(body).encode()
    writer.write(b"POST /explain HTTP/1.1\r\nHost: perfbench\r\n"
                 b"Content-Type: application/json\r\n"
                 + f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("ascii").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


def request_body(spec: Workload, method: str, node: int, params: dict | None = None) -> dict:
    if params is None:
        params = REVELIO_PARAMS if method == "revelio" else FLOWX_PARAMS
    return {"dataset": spec.dataset, "model": "gcn", "explainer": method,
            "target": {"node": node}, "params": params, "scale": spec.scale}


class ServeRun:
    def __init__(self, spec: Workload, seed: int, cache_root: Path):
        self.spec = spec
        self.seed = seed
        self.cache_root = cache_root
        self.app = None
        self.conns: list = []

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
        for _, writer in self.conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.conns = []
        if self.app is not None:
            await self.app.shutdown()
            self.app = None

    async def setup(self) -> list[dict]:
        stats = []
        for rep in range(self.spec.setup_repeats):
            # Drop the previous repetition first, so one is resident at a time.
            await self.close()
            self.model = self.graph = None
            gc.collect()
            clear_caches()
            stats.append(await self._setup_once(rep))
        clear_caches()
        rng = np.random.default_rng(self.seed)
        self.lists, self.revelio_nodes, self.flow_keys = serve_plan(self.graph, self.model, rng)
        return stats

    async def _setup_once(self, rep: int) -> dict:
        t0 = time.perf_counter()
        model, dataset, info = build_model(self.spec, self.cache_root, rep)
        self.app = ServeApp(ServeConfig(port=0))
        await self.app.start()
        self.app.pool.put((self.spec.dataset, "gcn", self.spec.scale, 0), model, dataset)
        self.conns = [await asyncio.open_connection(self.app.host, self.app.port)
                      for _ in range(2)]
        for (reader, writer), method in zip(self.conns, ("flowx", "revelio")):
            status, _ = await http_call(reader, writer, request_body(
                self.spec, method, 0, WARMUP_PARAMS[method]))
            check(status == 200, f"warm-up {method} request returned {status}")
        info["total_s"] = time.perf_counter() - t0
        self.model, self.graph = model, dataset.graph
        return info

    async def _drive(self, conn, requests, log, clock: HostClock) -> None:
        reader, writer = conn
        for method, node in requests:
            body = request_body(self.spec, method, node)
            t0 = time.perf_counter()
            status, raw = await http_call(reader, writer, body)
            t1 = time.perf_counter()
            clock.record(t1 - t0)
            log.append((method, node, status, raw, t0, t1))

    async def run_requests(self, passes: int) -> dict:
        """Sweep ``passes`` times, in chunks of ``SERVE_CHUNK`` requests per connection.

        Both connections drain at the end of a chunk, and the host clock
        calibrates there; a chunk takes about two seconds.
        """
        logs: list[list] = [[], []]
        metrics_before = self.app.metrics.snapshot()
        before = counters()
        clock = HostClock()
        for p in range(passes):
            if p:
                clear_caches()
            for lo in range(0, max(map(len, self.lists)), SERVE_CHUNK):
                await asyncio.gather(*(
                    self._drive(conn, reqs[lo:lo + SERVE_CHUNK], log, clock)
                    for conn, reqs, log in zip(self.conns, self.lists, logs)))
                clock.close_segment()
        work = delta(before, counters())
        snap = self.app.metrics.snapshot()
        serve = {k: snap[k] - metrics_before[k]
                 for k in ("deduped_requests", "batches_total", "batched_requests")}
        log = logs[0] + logs[1]
        return {"clock": clock, "passes": passes,
                "failed": sum(1 for _, _, status, *_ in log if status != 200),
                "log": log, "work": work, "serve": serve}

    def verify(self, phase: dict) -> None:
        passes = phase["passes"]
        graph, model = self.graph, self.model
        predicted = model.predict(graph)
        log = phase["log"]
        check(all(status == 200 for _, _, status, *_ in log), "a served request failed")
        payloads = {}
        for method, node, _, raw, *_ in log:
            payload = json.loads(raw)["explanation"]
            check_explanation(summarize(explanation_from_jsonable(payload)), method,
                              node, graph.num_edges, predicted)
            first = payloads.setdefault((method, node), canonical_bytes(payload))
            check(first == canonical_bytes(payload),
                  f"two responses for {method}@{node} differ")
        rng = np.random.default_rng(self.seed + 1)
        keys = sorted(payloads)
        clear_caches()
        for i in rng.choice(len(keys), 6, replace=False):
            method, node = keys[i]
            batch = explain_one(method, REVELIO_PARAMS if method == "revelio"
                                else FLOWX_PARAMS, model, graph, node)
            served = wire_explanation(batch.explanations[0])[0]
            check(canonical_bytes(served) == payloads[(method, node)],
                  f"served {method}@{node} differs from the serial explain path")
        work = phase["work"]
        check(work["explanation_cache_hits"] == passes * self.revelio_nodes,
              f"explanation hits {work['explanation_cache_hits']} != designed "
              f"{passes * self.revelio_nodes}")
        check(work["flow_cache_misses"] == passes * self.flow_keys,
              f"flow enumerations {work['flow_cache_misses']} != "
              f"{passes * self.flow_keys} distinct flow keys")


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def work_signature(phase: dict) -> dict:
    keep = ("single_forwards", "batched_forwards", "batched_rows", "flow_enumerations",
            "flow_cache_hits", "context_cache_hits", "explanation_cache_hits")
    return {"requests": len(phase["clock"].latencies)} | {k: phase["work"][k] for k in keep}


def source_fingerprint() -> str:
    """Digest of the library's and the benchmark's source files.

    Part of a stored signature's key, so that work counters are compared
    only between runs of identical code: a change that rightly alters the
    work a request does starts a signature of its own.
    """
    root = Path(__file__).resolve().parent.parent
    files = [*(root / "src").rglob("*"), *Path(__file__).resolve().parent.glob("*.py")]
    digest = hashlib.sha256()
    for path in sorted(p for p in files if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def compare_signature(path: Path, signature: dict) -> None:
    """Exact work counters must repeat across runs of one seed and one code."""
    if path.exists():
        stored = json.loads(path.read_text())
        check(stored == signature, f"work counters {signature} differ from an "
              f"earlier run of this seed: {stored}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(signature, sort_keys=True))
    os.replace(tmp, path)


async def run_phase(runner, spec: Workload, passes: int) -> dict:
    if spec.kind == "serve":
        return await runner.run_requests(passes)
    return runner.run_requests(passes)


async def execute(args, spec: Workload, problems: list[str]) -> tuple[dict, int, int]:
    passes = max(1, round(args.seconds / spec.pass_seconds))
    cache_root = Path(os.environ["REPRO_CACHE"])
    if spec.kind == "serve":
        runner = ServeRun(spec, args.seed, cache_root)
        setup_stats = await runner.setup()
    else:
        runner = ExplainRun(spec, args.seed, passes, cache_root)
        setup_stats = runner.setup()
    setup_s = (time.monotonic() - args.spawned_at
               - sum(s["total_s"] for s in setup_stats)
               + statistics.median(s["total_s"] for s in setup_stats))
    setup_rss = peak_rss_mb()

    try:
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            phase = await run_phase(runner, spec, passes)
        finally:
            if tracer is not None:
                tracer.uninstall()
        reference = None
        if tracer is not None:
            # The untraced twin of the first pass, for the tracing overhead.
            clear_caches()
            reference = await run_phase(runner, spec, 1)
        guarded(problems, runner.verify, phase)
    finally:
        if spec.kind == "serve":
            await runner.close()

    signature = work_signature(phase)
    guarded(problems, compare_signature, args.runtime_dir / "signatures"
            / f"{args.workload}-seed{args.seed}-t{args.seconds}-{source_fingerprint()}.json",
            signature)
    print("set-up repetitions (s): "
          + " ".join(f"{s['total_s']:.4f}" for s in setup_stats))
    clock = phase["clock"]
    requests = len(clock.latencies)
    print("host calibrations (s): " + " ".join(f"{c:.4f}" for c in clock.calibrations))
    print(f"unscaled: throughput_per_s {requests / clock.wall:.4f} "
          f"latency_p50_s {percentile(clock.raw_latencies, 0.5):.4f}")

    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (requests / clock.scaled_wall, "1/s"),
        "latency_p50_s": (percentile(clock.latencies, 0.5), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if args.trace:
        guarded(problems, check_spans, spec, tracer, signature)
        metrics = layer_metrics(spec, phase, reference, tracer, setup_stats, setup_rss)
        tracer.write(args.runtime_dir / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        print_span_table(tracer)
    return metrics, requests, phase["failed"]


def guarded(problems: list[str], fn, *args) -> None:
    """Run one check; a failure is recorded and the run goes on."""
    try:
        fn(*args)
    except CheckFailed as exc:
        problems.append(str(exc))


def check_spans(spec: Workload, tracer: Tracer, signature: dict) -> None:
    spans = tracer.aggregate()
    kind = spec.kind
    for name in REQUIRED_SPANS[kind]:
        check(spans.get(name, {}).get("calls", 0) > 0, f"traced span {name} never fired")
    for name in ZERO_SPANS[kind]:
        check(name not in spans, f"span {name} fired on a {kind} workload")
    check(spans["nn.forward_graph"]["calls"] == signature["single_forwards"],
          "forward_graph wrapper and the library's forward counter disagree")
    check(tracer.batched_rows == signature["batched_rows"],
          "forward_masked_batch wrapper and the library's row counter disagree")
    check(tracer.flows_enumerated == signature["flow_enumerations"],
          "flow-cache wrapper and the library's enumeration counter disagree")


def layer_metrics(spec, phase, reference, tracer, setup_stats, setup_rss) -> dict:
    spans = tracer.aggregate()
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_METRICS:
        row = spans.get(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        out[f"{name}_s"] = (row["busy_s"], "s")
        out[f"{name}_self_s"] = (row["self_s"], "s")
        out[f"{name}_calls"] = (row["calls"], "count")
    windows = tracer.explain_windows()
    for method in ("revelio", "flowx"):
        busy = [end - start for (m, _), spans_ in windows.items() if m == method
                for start, end in spans_]
        out[f"explain.{method}_s"] = (sum(busy), "s")
        out[f"explain.{method}_calls"] = (len(busy), "count")
    work, clock = phase["work"], phase["clock"]
    median = statistics.median
    out.update({
        "requests": (len(clock.latencies), "count"),
        "flows.enumerations": (tracer.flows_enumerated, "count"),
        "flows.num_flows": (tracer.flows_num, "count"),
        "nn.batched_rows": (tracer.batched_rows, "count"),
        "datasets.load_s": (median(s["load_s"] for s in setup_stats), "s"),
        "nn.train_s": (median(s["train_s"] for s in setup_stats), "s"),
        "nn.train_epochs": (setup_stats[-1]["epochs"], "count"),
        "cache.explanation_hits": (work["explanation_cache_hits"], "count"),
        "cache.context_hit_ratio": (ratio(work["context_cache_hits"],
                                          work["context_cache_misses"]), "ratio"),
        "cache.flow_hit_ratio": (ratio(work["flow_cache_hits"],
                                       work["flow_cache_misses"]), "ratio"),
        "mem.setup_peak_rss_mb": (setup_rss, "MB"),
        "host.calibration_s": (median(clock.calibrations), "s"),
        "trace.overhead_ratio": (clock.wall / phase["passes"] / reference["clock"].wall,
                                 "ratio"),
    })
    serve = {"serve.queue_wait_s": 0.0, "serve.overhead_s": 0.0,
             "serve.mean_batch_size": 0.0, "serve.deduped_requests": 0,
             "serve.latency_p90_s": 0.0}
    if spec.kind == "serve":
        serve.update(serve_breakdown(phase, reference, windows))
    for key, value in serve.items():
        out[key] = (value, "count" if key == "serve.deduped_requests" else
                    "requests" if key == "serve.mean_batch_size" else "s")
    return out


def ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def serve_breakdown(phase: dict, reference: dict, windows: dict) -> dict:
    """Mean wait, post-explain overhead and batch size per served request.

    ``wait`` runs from sending the request to the start of its explain
    call; ``overhead`` is latency − explain − wait, the response path.
    """
    seen: dict[tuple, int] = {}
    waits, overheads = [], []
    for method, node, _, _, start, end in sorted(phase["log"], key=lambda r: r[4]):
        k = seen.get((method, node), 0)
        seen[(method, node)] = k + 1
        e_start, e_end = sorted(windows[(method, node)])[k]
        waits.append(e_start - start)
        overheads.append((end - start) - (e_end - e_start) - (e_start - start))
    serve = phase["serve"]
    return {"serve.queue_wait_s": float(np.mean(waits)),
            "serve.overhead_s": float(np.mean(overheads)),
            "serve.mean_batch_size": serve["batched_requests"] / max(1, serve["batches_total"]),
            "serve.deduped_requests": serve["deduped_requests"],
            "serve.latency_p90_s": percentile(reference["clock"].latencies, 0.9)}


def print_span_table(tracer: Tracer) -> None:
    spans = tracer.aggregate()
    total = spans.get("explain.explain", {}).get("busy_s", 0.0) or 1.0
    print(f"{'span':28s} {'busy_s':>10s} {'self_s':>10s} {'calls':>9s} {'share':>7s}")
    for name in sorted(spans, key=lambda n: -spans[n]["busy_s"]):
        row = spans[name]
        print(f"{name:28s} {row['busy_s']:10.4f} {row['self_s']:10.4f} "
              f"{row['calls']:9d} {row['busy_s'] / total:7.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--runtime-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    problems: list[str] = []
    metrics, attempted, failed = asyncio.run(execute(args, spec, problems))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>14.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
