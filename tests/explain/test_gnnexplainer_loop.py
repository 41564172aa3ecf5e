"""GNNExplainer on the shared mask-learning loop (``repro.explain.mask_loop``).

An oracle keeps GNNExplainer's loop written out in ``Tensor`` ops over the
untrimmed exact-context forward: one shared ``σ(m)`` per data edge, the
Eq. 1/2 objective, the size and entropy regularizers and the optional
feature mask. The explainer runs the same loop through the hop trim, replaying
epoch 1's tape, and must reproduce it bit for bit. The hop trim is
the flow trim, and at equal epochs GNNExplainer and Revelio do the same
work per explanation (Table V's claim 3).
"""

import functools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Adam, Tensor, concat, log_softmax
from repro.core import Revelio
from repro.core.revelio import explanation_cache_disabled
from repro.explain import ExplainTarget, GNNExplainer, GraphMask, PGExplainer
from repro.explain.base import context_cache_disabled
from repro.explain.mask_loop import hop_layer_edges
from repro.flows import enumerate_flows
from repro.graph import Graph, SampledSubgraph, extract_receptive_field, khop_in_nodes, sampled
from repro.nn import build_model
from repro.nn.models import GNN
from repro.sparse import sparse_cache
from tests.nn.test_property_models import pathological_targets

LOOP = {"epochs": 15, "lr": 0.05, "size_weight": 0.01, "entropy_weight": 0.5,
        "feature_size_weight": 0.1, "seed": 2}


def reference_gnnexplainer(model, graph, row, class_idx, mode, *, feature_mask, epochs,
                           lr, size_weight, entropy_weight, feature_size_weight, seed):
    """GNNExplainer's loop, every term inline, on the untrimmed forward."""
    rng = np.random.default_rng(seed)
    raw_mask = Tensor(rng.normal(0.0, 0.1, size=graph.num_edges), requires_grad=True)
    params = [raw_mask]
    raw_feature = None
    if feature_mask:
        raw_feature = Tensor(rng.normal(0.0, 0.1, size=graph.num_features),
                             requires_grad=True)
        params.append(raw_feature)
    optimizer = Adam(params, lr=lr)
    for _ in range(epochs):
        optimizer.zero_grad()
        mask = raw_mask.sigmoid()
        layer_masks = [concat([mask, Tensor(np.ones(graph.num_nodes))])  # self-loops kept
                       ] * model.num_layers
        if raw_feature is None:
            logits = model.forward_graph(graph, edge_masks=layer_masks)
        else:
            logits = model.forward(Tensor(graph.x) * raw_feature.sigmoid(), graph.edge_index,
                                   graph.num_nodes, edge_masks=layer_masks,
                                   cache=sparse_cache(graph))
        log_p = log_softmax(logits, axis=-1)[row, class_idx]
        entropy = -(mask * mask.clip(1e-8, 1.0).log()
                    + (1.0 - mask) * (1.0 - mask).clip(1e-8, 1.0).log()).mean()
        if mode == "factual":
            objective, size = -log_p, mask.sum()                               # Eq. 1
        else:
            objective = -(1.0 - log_p.exp().clip(0.0, 1.0 - 1e-12)).log()       # Eq. 2
            size = (1.0 - mask).sum()
        loss = objective + size_weight * size + entropy_weight * entropy
        if raw_feature is not None:
            loss = loss + feature_size_weight * raw_feature.sigmoid().sum()
        loss.backward()
        optimizer.step()
    scores = raw_mask.sigmoid().numpy().copy()
    if mode == "counterfactual":
        scores = 1.0 - scores
    features = None if raw_feature is None else raw_feature.sigmoid().numpy().copy()
    return scores, features


@functools.lru_cache(maxsize=None)
def _model(conv: str, task: str, num_features: int, num_classes: int) -> GNN:
    # Exactness is a property of the forward machinery, not of the fit.
    return build_model(conv, task, num_features, num_classes, hidden=8, rng=0)


@pytest.mark.parametrize("feature_mask", [False, True])
@pytest.mark.parametrize("mode", ["factual", "counterfactual"])
@pytest.mark.parametrize("task", ["node", "graph"])
@pytest.mark.parametrize("conv", ["gcn", "gin", "gat"])
def test_loop_reproduces_the_reference_bit_for_bit(conv, task, mode, feature_mask,
                                                   mini_ba_shapes, mini_mutag,
                                                   good_motif_node):
    ds = mini_ba_shapes if task == "node" else mini_mutag
    model = _model(conv, task, ds.num_features, ds.num_classes)
    explainer = GNNExplainer(model, feature_mask=feature_mask, **LOOP)
    if task == "node":
        context = explainer.node_context(ds.graph, good_motif_node)
        graph, row = context.subgraph, context.local_target
        explanation = explainer.explain(ds.graph, ExplainTarget.node(good_motif_node),
                                        mode=mode)
        edge_scores = explanation.edge_scores[context.edge_positions]
    else:
        graph, row = ds.graphs[0], 0
        explanation = explainer.explain(graph, mode=mode)
        edge_scores = explanation.edge_scores
    class_idx = explainer.predicted_class(graph, target=row if task == "node" else None)
    assert explanation.predicted_class == class_idx

    ref_edges, ref_features = reference_gnnexplainer(
        model, graph, row, class_idx, mode, feature_mask=feature_mask, **LOOP)
    assert np.array_equal(edge_scores, ref_edges)
    if feature_mask:
        assert np.array_equal(explanation.meta["feature_scores"], ref_features)
    else:
        assert "feature_scores" not in explanation.meta


def hop_layer_edges_loop(graph, node, num_layers):
    """The per-layer search the hop trim replaced: one ``khop_in_nodes``
    per layer, from the target of ``graph``."""
    dst = np.concatenate([graph.dst, np.arange(graph.num_nodes)])
    kept = []
    for l in range(num_layers):
        inside = np.zeros(graph.num_nodes, dtype=bool)
        inside[khop_in_nodes(graph, [node], num_layers - 1 - l)] = True
        kept.append(np.flatnonzero(inside[dst]))
    return kept


@settings(max_examples=60, deadline=None)
@given(case=pathological_targets(), num_layers=st.integers(1, 3))
def test_hop_trim_is_the_per_layer_search(case, num_layers):
    """Isolated targets, targets without in-edges, duplicate edges, data
    self-loops, and the zero-hop last layer: the distances the extraction
    recorded give the sets of one search per layer."""
    graph, target, _ = case
    context = extract_receptive_field(graph, [target], num_layers)
    mine = hop_layer_edges(context, num_layers)
    theirs = hop_layer_edges_loop(context.subgraph, context.local_target, num_layers)
    assert len(mine) == num_layers
    for ids, expected in zip(mine, theirs):
        assert ids.dtype == expected.dtype and np.array_equal(ids, expected)


@settings(max_examples=60, deadline=None)
@given(case=pathological_targets(), num_layers=st.integers(1, 3))
def test_hop_trim_is_the_flow_trim(case, num_layers):
    graph, target, _ = case
    context = extract_receptive_field(graph, [target], num_layers)
    hops = hop_layer_edges(context, num_layers)
    flows = enumerate_flows(context.subgraph, num_layers,
                            target=context.local_target).used_layer_edge_ids()
    assert len(hops) == num_layers
    for mine, theirs in zip(hops, flows):
        assert np.array_equal(mine, theirs)


def test_graph_targets_keep_every_layer_edge(mini_mutag):
    graph = mini_mutag.graphs[0]
    for ids in hop_layer_edges(SampledSubgraph.whole(graph), 3):
        assert np.array_equal(ids, np.arange(graph.num_edges + graph.num_nodes))


@pytest.mark.parametrize("cls", [GNNExplainer, PGExplainer, GraphMask])
def test_one_backward_search_per_instance(cls, node_model, mini_ba_shapes, good_motif_node):
    """The context's extraction is the only backward BFS an explanation (or
    a group fit instance) runs: the hop trim reads its recorded distances."""
    graph, target = mini_ba_shapes.graph, ExplainTarget.node(good_motif_node)
    with mock.patch.object(sampled, "_hop_distances",
                           side_effect=sampled._hop_distances) as searches, \
            context_cache_disabled():
        explainer = cls(node_model, epochs=2)
        if cls is not GNNExplainer:
            explainer.fit(explainer.prepare_instances(graph, [target, ExplainTarget.node(0)]))
            assert searches.call_count == 2
            searches.reset_mock()
        explainer.explain(graph, target)
    assert searches.call_count == 1


def test_claim_3_equal_work_at_equal_epochs(node_model, mini_ba_shapes, good_motif_node):
    """One node at equal epochs: the same forwards, backwards and Adam
    steps, over the same trimmed layer edges. The masked forward is
    built once; later epochs replay its tape."""
    graph, target = mini_ba_shapes.graph, ExplainTarget.node(good_motif_node)
    work = {}
    for explainer in (Revelio(node_model, epochs=7), GNNExplainer(node_model, epochs=7)):
        with mock.patch.object(GNN, "forward_graph", autospec=True,
                               side_effect=GNN.forward_graph) as forwards, \
                mock.patch.object(Tensor, "backward", autospec=True,
                                  side_effect=Tensor.backward) as backwards, \
                mock.patch.object(Adam, "step", autospec=True,
                                  side_effect=Adam.step) as steps, \
                explanation_cache_disabled():
            explanation = explainer.explain(graph, target)
        work[explainer.name] = (forwards.call_count, backwards.call_count,
                                steps.call_count, explanation.meta["forward_layer_edges"])
    assert work["revelio"] == work["gnnexplainer"]
    assert work["revelio"][:3] == (1 + 1, 7, 7)  # predicted_class, then epoch 1


def with_isolated_node(graph: Graph) -> tuple[Graph, int]:
    """``graph`` plus one node with no in- or out-edges, and its id."""
    x = np.concatenate([graph.x, graph.x[:1]])
    return Graph(edge_index=graph.edge_index, x=x, num_nodes=graph.num_nodes + 1), \
        graph.num_nodes


@pytest.mark.parametrize("mode", ["factual", "counterfactual"])
def test_isolated_target_trains_to_a_finite_loss(node_model, mini_ba_shapes, mode):
    """An isolated target's context has no data edge, so its edge mask is
    empty: the entropy term is 0, not the NaN mean of nothing."""
    graph, node = with_isolated_node(mini_ba_shapes.graph)
    explainer = GNNExplainer(node_model, epochs=5, lr=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        explanation = explainer.explain(graph, ExplainTarget.node(node), mode=mode)
    meta = explanation.meta
    assert all(np.isfinite(meta[key]) for key in ("final_loss", "loss_first", "loss_min",
                                                   "loss_last"))
    assert isinstance(meta["converged"], bool)
    assert not explanation.edge_scores.any()


@pytest.mark.parametrize("cls", [PGExplainer, GraphMask])
def test_amortized_group_with_an_isolated_instance_trains(cls, node_model, mini_ba_shapes,
                                                          good_motif_node):
    """PGExplainer and GraphMask average masks over each instance's edges
    the same way: an empty instance adds 0, not NaN, to the group loss."""
    graph, node = with_isolated_node(mini_ba_shapes.graph)
    explainer = cls(node_model, epochs=4)
    instances = explainer.prepare_instances(
        graph, [ExplainTarget.node(node), ExplainTarget.node(good_motif_node)])
    assert instances[0].subgraph.num_edges == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        explainer.fit(instances)
    nets = [explainer.edge_mlp] if cls is PGExplainer else explainer.gates
    assert all(np.isfinite(p.data).all() for net in nets for p in net.parameters())
