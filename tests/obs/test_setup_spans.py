"""Cold-start spans: dataset generation and target-model training."""

from repro.datasets import load_dataset
from repro.nn import get_model
from repro.obs import TRACER, tracing
from repro.obs.names import SPAN_DATASET_LOAD, SPAN_MODEL_TRAIN, SPAN_NAMES


def _spans(name):
    return [r for r in TRACER.records() if r["name"] == name]


def test_setup_span_names_are_declared():
    assert {SPAN_DATASET_LOAD, SPAN_MODEL_TRAIN} <= SPAN_NAMES


def test_a_trained_model_traces_its_dataset_load_and_training(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    with tracing():
        model, dataset, result = get_model("tree_cycles", "gcn", scale=0.12, seed=0)
    (load,) = _spans(SPAN_DATASET_LOAD)
    assert load["attrs"] == {"dataset": "tree_cycles", "scale": 0.12,
                             "nodes": dataset.graph.num_nodes,
                             "edges": dataset.graph.num_edges,
                             "features": "dense",
                             "feature_bytes": dataset.graph.x.nbytes}
    (train,) = _spans(SPAN_MODEL_TRAIN)
    assert train["attrs"] == {"dataset": "tree_cycles", "conv": "gcn",
                              "epochs_run": result.epochs_run}


def test_a_checkpoint_hit_traces_no_training(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    get_model("tree_cycles", "gcn", scale=0.12, seed=0)
    with tracing():
        _, _, result = get_model("tree_cycles", "gcn", scale=0.12, seed=0)
    assert result is None
    assert len(_spans(SPAN_DATASET_LOAD)) == 1
    assert _spans(SPAN_MODEL_TRAIN) == []


def test_a_graph_dataset_span_counts_every_graph():
    with tracing():
        dataset = load_dataset("mutag", scale=0.1, seed=0)
    (load,) = _spans(SPAN_DATASET_LOAD)
    assert load["attrs"]["nodes"] == sum(g.num_nodes for g in dataset.graphs)
    assert load["attrs"]["edges"] == sum(g.num_edges for g in dataset.graphs)
    assert load["attrs"]["features"] == "dense"
    assert load["attrs"]["feature_bytes"] == sum(g.x.nbytes for g in dataset.graphs)


def test_a_citation_span_reports_csr_features():
    with tracing():
        dataset = load_dataset("cora", scale=0.1, seed=0)
    (load,) = _spans(SPAN_DATASET_LOAD)
    x = dataset.graph.x
    assert load["attrs"]["features"] == "csr"
    assert load["attrs"]["feature_bytes"] == x.data.nbytes + x.indices.nbytes + x.indptr.nbytes
    assert load["attrs"]["feature_bytes"] < x.shape[0] * x.shape[1] * 8 / 4


def test_setup_spans_record_nothing_while_tracing_is_off(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    get_model("tree_cycles", "gcn", scale=0.12, seed=0)
    assert TRACER.records() == []
