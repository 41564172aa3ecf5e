"""Traced experiment runs: merged traces, manifests, meta linkage.

The acceptance pin for the observability layer: a ``jobs=2`` fidelity
experiment produces ONE merged trace containing spans from both worker
processes, plus a RunManifest whose per-method stage aggregates agree
with the merged PERF counters (spans and counters fire at the same
instrumentation sites, so the two channels must tell the same story).
"""

import multiprocessing as mp
import os

import pytest

from repro.eval import ExperimentConfig
from repro.eval.experiments import run_fidelity_experiment
from repro.execution import ExecutionConfig
from repro.explain import ExplainTarget
from repro.obs import load_manifest, load_trace, summarize_trace, tracing

HAS_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="requires fork start method")

CFG = ExperimentConfig(scale=0.12, num_instances=4, effort=0.05,
                       sparsities=(0.5, 0.8), seed=0)
METHODS = ("gradcam", "revelio")


@pytest.fixture(autouse=True)
def fresh_caches():
    """Start from cold explanation/flow/context caches so enumerations
    actually happen (forked workers inherit the parent's caches)."""
    from repro.core.revelio import clear_explanation_cache
    from repro.explain.base import clear_context_cache
    from repro.flows import FLOW_CACHE

    clear_explanation_cache()
    FLOW_CACHE.clear()
    clear_context_cache()


def _span_count(manifest, stage):
    return sum(stages.get(stage, {}).get("count", 0)
               for stages in manifest.spans.values())


def _check_trace_and_manifest(result, trace_path):
    records = load_trace(trace_path)
    assert records, "trace is empty"
    assert {r["trace_id"] for r in records} == {result["trace_id"]}
    roots = [r for r in records if r["parent_id"] is None]
    assert [r["name"] for r in roots] == ["experiment"]
    methods_seen = {(r.get("attrs") or {}).get("method") for r in records}
    assert {"gradcam", "revelio"} <= methods_seen

    manifest = load_manifest(result["manifest_path"])
    assert manifest.trace_id == result["trace_id"]
    assert manifest.dataset_fingerprint
    # Spans fire at the same sites as the PERF counters, so the manifest's
    # two channels must agree — including counters/spans merged back from
    # worker processes.
    assert _span_count(manifest, "flow_enumerate") == \
        manifest.perf["flow_enumerations"]
    assert _span_count(manifest, "masked_forward_batch") == \
        manifest.perf["batched_forwards"]
    assert manifest.perf["flow_enumerations"] > 0   # revelio enumerated flows
    assert manifest.perf["batched_forwards"] > 0    # batched fidelity sweeps ran
    assert manifest.stage_seconds("revelio", "explain") > 0.0
    return records, manifest


class TestSerialTracedRun:
    def test_trace_manifest_and_summary(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        out = run_fidelity_experiment(
            "tree_cycles", "gcn", METHODS, config=CFG,
            execution=ExecutionConfig(trace=str(trace_path)))
        assert out["trace_path"] == str(trace_path)
        records, manifest = _check_trace_and_manifest(out, trace_path)
        assert {r["pid"] for r in records} == {os.getpid()}
        assert manifest.run["jobs"] == 1
        assert manifest.run["dataset"] == "tree_cycles"
        assert manifest.run["methods"] == list(METHODS)
        # Revelio's optimizer loop is visible at epoch granularity.
        names = {r["name"] for r in records}
        assert {"explain", "job", "optimize", "epoch",
                "fidelity_sweep"} <= names
        rows = summarize_trace(trace_path)
        text = "\n".join(rows)
        assert "revelio" in text and "gradcam" in text

    def test_untraced_run_identical_results(self, tmp_path):
        traced = run_fidelity_experiment(
            "tree_cycles", "gcn", METHODS, config=CFG,
            execution=ExecutionConfig(trace=str(tmp_path / "t.jsonl")))
        plain = run_fidelity_experiment("tree_cycles", "gcn", METHODS,
                                        config=CFG)
        assert traced["rows"] == plain["rows"]
        assert traced["curves"] == plain["curves"]
        assert "trace_path" not in plain


@needs_fork
class TestMergedWorkerTrace:
    def test_jobs2_single_merged_trace(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        out = run_fidelity_experiment(
            "tree_cycles", "gcn", METHODS, config=CFG,
            execution=ExecutionConfig(jobs=2, trace=str(trace_path)))
        assert out["jobs"]["failed"] == 0
        records, manifest = _check_trace_and_manifest(out, trace_path)

        # Spans from both workers landed in the one exported trace.
        worker_pids = {r["pid"] for r in records} - {os.getpid()}
        assert len(worker_pids) == 2
        job_spans = [r for r in records if r["name"] == "job"]
        assert len(job_spans) == 8  # 2 methods x 4 chunks
        # Shipped worker roots were re-parented under the experiment span.
        root_id = next(r["span_id"] for r in records
                       if r["name"] == "experiment")
        assert all(j["parent_id"] == root_id for j in job_spans)

        assert manifest.run["jobs"] == 2
        rows = summarize_trace(trace_path)
        assert rows[-1] == "(spans from 3 processes)"
        text = "\n".join(rows)
        assert "revelio" in text and "gradcam" in text

    def test_traced_rows_match_untraced(self, tmp_path):
        traced = run_fidelity_experiment(
            "tree_cycles", "gcn", METHODS, config=CFG,
            execution=ExecutionConfig(jobs=2, trace=str(tmp_path / "t.jsonl")))
        plain = run_fidelity_experiment(
            "tree_cycles", "gcn", METHODS, config=CFG,
            execution=ExecutionConfig(jobs=2))
        assert traced["rows"] == plain["rows"]


class TestExplanationTraceLinkage:
    def test_meta_records_trace_id_and_seconds(self, node_model, mini_ba_shapes,
                                               good_motif_node):
        from repro.explain import make_explainer

        explainer = make_explainer("gradcam", node_model)
        with tracing() as tracer:
            e = explainer.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
            trace_id = tracer.trace_id
        assert e.meta["trace_id"] == trace_id
        assert e.meta["perf"]["explain_seconds"] > 0.0

    def test_meta_untouched_when_disabled(self, node_model, mini_ba_shapes,
                                          good_motif_node):
        from repro.explain import make_explainer

        e = make_explainer("gradcam", node_model).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert "trace_id" not in e.meta
