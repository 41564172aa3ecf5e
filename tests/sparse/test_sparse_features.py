"""CSR-stored features: the same bits as their dense twin, without the bytes.

Citation surrogates store their bag-of-words features as canonical CSR
(``Graph.x``). Every path that reads them — training, ``predict_proba``,
each node explainer, LinkRevelio — must give exactly the bytes the same
graph gives with ``x.toarray()``, and a Revelio request must do so without
ever densifying the full matrix.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import LinkRevelio
from repro.core.revelio import clear_explanation_cache
from repro.datasets import cora, load_dataset, pubmed
from repro.explain import ExplainTarget, make_explainer
from repro.explain.base import clear_context_cache
from repro.flows import invalidate
from repro.graph import Graph
from repro.nn import LinkPredictor, Trainer, build_model, train_link_predictor
from repro.sparse import cache as sparse_cache_module
from repro.sparse import feature_dense

from ..explain.test_class_consistency import FAST

LOSS_META = ("final_loss", "loss_first", "loss_min", "loss_last", "converged")
TARGETS = 3


def _dense_twin(graph: Graph) -> Graph:
    return Graph(edge_index=graph.edge_index, x=graph.x.toarray(), y=graph.y,
                 train_mask=graph.train_mask, val_mask=graph.val_mask,
                 test_mask=graph.test_mask, meta=dict(graph.meta))


def _clear_caches() -> None:
    clear_context_cache()
    clear_explanation_cache()
    invalidate()


@pytest.fixture(scope="module", params=[("cora", 0.12), ("pubmed", 0.1)],
                ids=["cora-x0.12", "pubmed-x0.1"])
def twins(request):
    name, scale = request.param
    graph = (cora if name == "cora" else pubmed)(scale=scale, seed=0).graph
    assert sp.issparse(graph.x)
    dense = _dense_twin(graph)
    assert isinstance(dense.x, np.ndarray)
    return graph, dense


def _trained(conv: str, graph: Graph):
    model = build_model(conv, "node", graph.num_features, int(graph.y.max()) + 1,
                        hidden=16, rng=0)
    Trainer(model, epochs=15, patience=None).fit_node(graph)
    return model


def _param_bytes(model) -> list[tuple[str, bytes]]:
    return sorted((name, value.tobytes()) for name, value in model.state_dict().items())


@pytest.mark.parametrize("conv", ["gcn", "gat", "gin"])
def test_training_and_prediction_match_the_dense_twin(twins, conv):
    graph, dense = twins
    on_csr, on_dense = _trained(conv, graph), _trained(conv, dense)
    assert _param_bytes(on_csr) == _param_bytes(on_dense)
    assert on_csr.predict_proba(graph).tobytes() == on_dense.predict_proba(dense).tobytes()


@pytest.fixture(scope="module")
def gcn(twins):
    return _trained("gcn", twins[0])


def _explain(method: str, model, graph: Graph, targets) -> list:
    _clear_caches()
    explainer = make_explainer(method, model, **FAST[method])
    if hasattr(explainer, "fit"):
        explainer.fit(explainer.prepare_instances(
            graph, [ExplainTarget.node(v) for v in targets]))
    out = []
    for v in targets:
        e = explainer.explain(graph, ExplainTarget.node(v))
        out.append((e.edge_scores.tobytes(), e.predicted_class,
                    {k: e.meta[k] for k in LOSS_META if k in e.meta}))
    return out


@pytest.mark.parametrize("method", sorted(FAST))
def test_every_node_explainer_matches_the_dense_twin(twins, gcn, method):
    graph, dense = twins
    targets = [int(v) for v in np.flatnonzero(graph.test_mask)[:TARGETS]]
    assert _explain(method, gcn, graph, targets) == _explain(method, gcn, dense, targets)


def test_link_revelio_matches_the_dense_twin(twins):
    graph, dense = twins
    model = LinkPredictor("gcn", graph.num_features, 16, rng=0)
    train_link_predictor(model, graph, epochs=10, rng=0)
    u, v = (int(n) for n in graph.edge_index[:, 0])

    def explain(g):
        _clear_caches()
        e = LinkRevelio(model, epochs=10, seed=0).explain(g, ExplainTarget.link(u, v))
        return e.edge_scores.tobytes(), e.meta["p_link"], \
            {k: e.meta[k] for k in LOSS_META}

    assert explain(graph) == explain(dense)


# ----------------------------------------------------------------------
# the memory gain stays
# ----------------------------------------------------------------------
def test_loading_cora_never_holds_the_dense_matrix():
    tracemalloc.start()
    try:
        graph = load_dataset("cora", 1.0, seed=0).graph
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    num_nodes, num_features = graph.x.shape
    assert sp.issparse(graph.x)
    assert peak < num_nodes * num_features * 8 / 4


def test_revelio_never_densifies_the_full_matrix(monkeypatch):
    """Neither through the accessor nor behind its back (``toarray``)."""
    ds = cora(scale=0.25, seed=0)
    graph = ds.graph
    model = build_model("gcn", "node", ds.num_features, ds.num_classes, hidden=16, rng=0)
    Trainer(model, epochs=5, patience=None).fit_node(graph)
    node = int(np.flatnonzero(graph.test_mask)[0])
    _clear_caches()

    dense_reads: list = []
    original = sparse_cache_module.feature_dense

    def spy(x):
        dense_reads.append(x)
        return original(x)

    for module in ("repro.sparse", "repro.nn.models", "repro.nn.gin",
                   "repro.nn.link_prediction", "repro.explain.gnnexplainer",
                   "repro.explain.gradcam", "repro.explain.deeplift",
                   "repro.explain.pgm_explainer", "repro.explain.graphmask",
                   "repro.graph.transforms", "repro.analysis.stability"):
        monkeypatch.setattr(f"{module}.feature_dense", spy)
    toarrays: list = []
    real_toarray = sp.csr_matrix.toarray

    def toarray(self, *args, **kwargs):
        toarrays.append(self.shape)
        return real_toarray(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "toarray", toarray)

    explanation = make_explainer("revelio", model, epochs=5).explain(
        graph, ExplainTarget.node(node))
    assert explanation.context_node_ids.size < graph.num_nodes
    assert all(x is not graph.x and x.shape[0] < graph.num_nodes for x in dense_reads)
    assert graph.x.shape not in toarrays
    # Nor are the context's rows densified: the first layer runs sparse.
    assert dense_reads == [] and toarrays == []


def test_the_dense_accessor_is_memoized_and_read_only():
    x = cora(scale=0.1, seed=0).graph.x
    dense = feature_dense(x)
    assert feature_dense(x) is dense
    assert dense.tobytes() == x.toarray().tobytes()
    assert not dense.flags.writeable
    plain = np.ones((2, 2))
    assert feature_dense(plain) is plain


def test_context_cache_on_csr_features():
    """An edit inside the receptive field misses the context cache; one
    outside it hits, and neither densifies the features."""
    from repro.explain.random_baseline import RandomExplainer
    from repro.obs.counters import PERF

    ds = cora(scale=0.25, seed=0)
    graph = ds.graph
    model = build_model("gcn", "node", ds.num_features, ds.num_classes, hidden=8, rng=0)
    explainer = RandomExplainer(model)
    node = int(np.flatnonzero(graph.test_mask)[0])
    _clear_caches()
    first = explainer.node_context(graph, node)
    assert sp.issparse(first.subgraph.x)
    outside = int(np.setdiff1d(np.arange(graph.num_nodes), first.node_ids)[0])

    def with_word(row: int) -> Graph:
        x = graph.x.tolil()
        x[row, int(np.flatnonzero(x[row].toarray()[0] == 0)[0])] = 1.0
        edited = Graph(edge_index=graph.edge_index, x=x, y=graph.y)
        assert sp.issparse(edited.x) and edited.x.nnz == graph.x.nnz + 1
        return edited

    hits = PERF.context_cache_hits
    assert explainer.node_context(with_word(outside), node) is first
    assert PERF.context_cache_hits == hits + 1
    inside = explainer.node_context(with_word(node), node)
    assert inside is not first
    assert PERF.context_cache_hits == hits + 1
    assert inside.subgraph.x.nnz == first.subgraph.x.nnz + 1
