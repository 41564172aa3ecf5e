"""The Revelio family's one flow-mask loop (``repro.core.optimize``).

An oracle keeps Revelio's mask loop written out in ``Tensor`` ops — the
Eq. 4/5 transform, the Eq. 1/2 objective and the Eq. 8/9 regularizer —
and checks that :func:`optimize_flow_masks` reproduces it bit for bit.
Revelio, TopKRevelio and LinkRevelio then share one settings validation,
one ``meta`` schema and one trace shape; GNNExplainer, the loop's other
caller, validates its settings and reports the loss and trim fields too.
"""

import gc
import json
import sys
import weakref

import numpy as np
import pytest

import repro.core.optimize as optimize_module
from repro.autograd import Adam, Tape, Tensor, log_softmax
from repro.core import LinkRevelio, Revelio, TopKRevelio
from repro.core.optimize import optimize_flow_masks
from repro.core.revelio import explanation_cache_disabled
from repro.datasets import cora, tree_cycles
from repro.errors import ExplainerError
from repro.explain import ExplainTarget, FlowX, GNNExplainer, GNNLRP
from repro.explain.io import (explanation_from_jsonable, explanation_to_jsonable,
                              load_explanation, save_explanation)
from repro.explain.mask_loop import CONVERGENCE_RTOL, converged
from repro.flows import FlowIndex, enumerate_flows
from repro.graph import Graph, extract_receptive_field, sbm_edges
from repro.nn import LayerTrim, LinkPredictor, Trainer, build_model
from repro.obs import TRACER
from repro.obs.trace import tracing
from repro.obs.names import SPAN_EPOCH, SPAN_EXPLAIN, SPAN_OPTIMIZE, SPAN_REPLAY

FAMILY = ["revelio", "revelio_topk", "link_revelio"]


def reference_revelio(flow_index, log_prob, mode, *, epochs, lr, alpha, seed):
    """Revelio's mask loop, every equation inline (tanh masks, exp weights).

    ``log_prob`` maps the full-width ``(E+N,)`` layer masks to ``log P``
    through the untrimmed forward.
    """
    rng = np.random.default_rng(seed)
    used = flow_index.used_layer_edges()
    used_tensor = Tensor(used.astype(np.float64))
    num_used = float(used.sum())
    masks = Tensor(rng.normal(0.0, 0.1, size=flow_index.num_flows), requires_grad=True)
    w = Tensor(np.zeros(flow_index.num_layers), requires_grad=True)
    optimizer = Adam([masks, w], lr=lr)

    def layer_edge_scores():
        accumulated = flow_index.aggregate_scores(masks.tanh())   # Eq. 4, Eq. 3/7
        return (accumulated * w.exp().reshape(-1, 1)).sigmoid()   # Eq. 5

    for _ in range(epochs):
        optimizer.zero_grad()
        omega_e = layer_edge_scores()
        log_p = log_prob([omega_e[l] for l in range(flow_index.num_layers)])
        if mode == "factual":
            objective = -log_p                                              # Eq. 1
            regularizer = (omega_e * used_tensor).sum() / num_used          # Eq. 8
        else:
            p = log_p.exp()
            objective = -(1.0 - p.clip(0.0, 1.0 - 1e-12)).log()            # Eq. 2
            regularizer = ((1.0 - omega_e) * used_tensor).sum() / num_used  # Eq. 9
        loss = objective + alpha * regularizer
        loss.backward()
        optimizer.step()

    omega_f = masks.tanh().numpy().copy()
    omega_e = layer_edge_scores().numpy().copy()
    if mode == "counterfactual":
        omega_f, omega_e = -omega_f, 1.0 - omega_e
    num_edges = flow_index.num_edges
    carried = used[:, :num_edges]
    edge_scores = ((omega_e[:, :num_edges] * carried).sum(axis=0)
                   / np.maximum(carried.sum(axis=0), 1))
    return omega_f, omega_e, edge_scores, loss.item()


LOOP = {"epochs": 25, "lr": 0.05, "alpha": 0.1, "seed": 3}


@pytest.fixture(scope="module")
def conv_models(mini_ba_shapes):
    """Briefly trained GIN and GAT node models on mini BA-Shapes."""
    ds = mini_ba_shapes
    models = {}
    for conv in ("gin", "gat"):
        model = build_model(conv, "node", ds.num_features, ds.num_classes,
                            hidden=16, rng=0)
        Trainer(model, lr=0.02, weight_decay=0.0, epochs=40, patience=None).fit_node(ds.graph)
        models[conv] = model
    return models


@pytest.mark.parametrize("mode", ["factual", "counterfactual"])
@pytest.mark.parametrize("conv", ["gcn", "gin", "gat"])
def test_loop_reproduces_the_reference_bit_for_bit(node_model, conv_models, mini_ba_shapes,
                                                   good_motif_node, conv, mode):
    model = node_model if conv == "gcn" else conv_models[conv]
    explainer = Revelio(model, **LOOP)
    context = explainer.node_context(mini_ba_shapes.graph, good_motif_node)
    graph, target = context.subgraph, context.local_target
    flow_index = enumerate_flows(graph, model.num_layers, target=target)
    class_idx = explainer.predicted_class(graph, target=target)

    def untrimmed(layer_masks):
        logits = model.forward_graph(graph, edge_masks=layer_masks)
        return log_softmax(logits, axis=-1)[target, class_idx]

    flow_ref, layer_ref, edge_ref, loss_ref = reference_revelio(
        flow_index, untrimmed, mode, **LOOP)

    trim = LayerTrim(flow_index.used_layer_edge_ids())

    def log_prob(layer_masks):
        logits = model.forward_graph(graph, edge_masks=layer_masks, trim=trim)
        return log_softmax(logits, axis=-1)[target, class_idx]

    direct = optimize_flow_masks(explainer.settings, flow_index, log_prob, mode,
                                 np.random.default_rng(3), method="revelio",
                                 predicted_class=class_idx, trim=trim)
    with explanation_cache_disabled():
        lifted = explainer.explain(mini_ba_shapes.graph,
                                   ExplainTarget.node(good_motif_node), mode=mode)
    for e in (direct, lifted):
        assert np.array_equal(e.flow_scores, flow_ref)
        assert np.array_equal(e.layer_edge_scores, layer_ref)
        assert e.meta["final_loss"] == loss_ref
    assert np.array_equal(direct.edge_scores, edge_ref)
    assert np.array_equal(lifted.edge_scores[context.edge_positions], edge_ref)


@pytest.mark.parametrize("mode", ["factual", "counterfactual"])
def test_link_loop_reproduces_the_reference_bit_for_bit(link_setup, mode):
    graph, model = link_setup
    u, v = (int(x) for x in graph.edge_index[:, 0])
    explainer = LinkRevelio(model, **LOOP)
    assert_link_loop_is_the_reference(explainer, graph, u, v, mode, LOOP)


def assert_link_loop_is_the_reference(explainer, graph, u, v, mode, loop):
    """LinkRevelio's explanation of ``(u, v)`` equals :func:`reference_revelio`
    run on the untrimmed link forward over the endpoints' joint context."""
    model = explainer.model
    field = extract_receptive_field(graph, [u, v], model.num_layers)
    subgraph, pair = field.subgraph, np.array([field.local_targets])
    parts = [enumerate_flows(subgraph, model.num_layers, target=int(t))
             for t in field.local_targets]
    flow_index = FlowIndex(nodes=np.concatenate([fi.nodes for fi in parts]),
                           layer_edges=np.concatenate([fi.layer_edges for fi in parts]),
                           num_layers=model.num_layers, num_edges=subgraph.num_edges,
                           num_nodes=subgraph.num_nodes)

    def untrimmed(layer_masks):
        logit = model.link_logits(subgraph, pair, edge_masks=layer_masks)[0]
        return logit.sigmoid().clip(1e-12, 1.0 - 1e-12).log()

    flow_ref, layer_ref, edge_ref, loss_ref = reference_revelio(
        flow_index, untrimmed, mode, **loop)
    with explanation_cache_disabled():
        e = explainer.explain(graph, ExplainTarget.link(u, v), mode=mode)
    assert np.array_equal(e.flow_scores, flow_ref)
    assert np.array_equal(e.layer_edge_scores, layer_ref)
    assert e.meta["final_loss"] == loss_ref
    assert np.array_equal(e.edge_scores[field.edge_positions], edge_ref)
    return subgraph


# ----------------------------------------------------------------------
# Cora scale: contexts wide enough for BLAS's row-count-dependent kernels
# ----------------------------------------------------------------------
#: Untrained 32-wide models, as in the locality sweep: exactness is a
#: property of the forward machinery, not of the fit.
CORA_LOOP = {"epochs": 4, "lr": 0.05, "alpha": 0.1, "seed": 3}


@pytest.fixture(scope="module")
def cora_graph():
    return cora(scale=1.0, seed=0).graph


def assert_node_loop_is_the_reference(explainer, graph, node, mode, loop):
    """Revelio's explanation of ``node`` equals :func:`reference_revelio`
    run on the untrimmed forward over its context; returns the meta."""
    model = explainer.model
    context = explainer.node_context(graph, node)
    local, target = context.subgraph, context.local_target
    flow_index = enumerate_flows(local, model.num_layers, target=target)
    class_idx = explainer.predicted_class(local, target=target)

    def untrimmed(layer_masks):
        logits = model.forward_graph(local, edge_masks=layer_masks)
        return log_softmax(logits, axis=-1)[target, class_idx]

    flow_ref, layer_ref, edge_ref, loss_ref = reference_revelio(
        flow_index, untrimmed, mode, **loop)
    with explanation_cache_disabled():
        e = explainer.explain(graph, ExplainTarget.node(node), mode=mode)
    assert np.array_equal(e.flow_scores, flow_ref)
    assert np.array_equal(e.layer_edge_scores, layer_ref)
    assert e.meta["final_loss"] == loss_ref
    assert np.array_equal(e.edge_scores[context.edge_positions], edge_ref)
    return e.meta


@pytest.mark.parametrize("mode", ["factual", "counterfactual"])
@pytest.mark.parametrize("conv", ["gcn", "gin", "gat"])
def test_row_trimmed_loop_is_the_reference_on_cora_contexts(cora_graph, conv, mode):
    """Contexts of 100+ rows trimmed to a few dozen at layer 1 and a few
    at layer 2: the products of the trimmed and untrimmed forwards see
    different row counts, and the loop still reproduces the reference
    bit for bit (GIN, whose MLP has Cora's 1,433-feature width, keeps
    every row)."""
    model = build_model(conv, "node", cora_graph.num_features, 7, rng=0)
    explainer = Revelio(model, **CORA_LOOP)
    for node in (0, 6, 8):
        rows = assert_node_loop_is_the_reference(explainer, cora_graph, node, mode,
                                                 CORA_LOOP)["forward_layer_rows"]
        assert rows["context"] >= 100 and rows["layer_3"] == rows["context"]
        if conv != "gin":
            assert rows["layer_2"] < rows["layer_1"] < rows["context"]


def test_row_trimmed_loop_is_the_reference_under_a_two_class_head():
    """A two-wide head's product gives a row different bits at different
    row counts, so the last layer keeps every row."""
    ds = tree_cycles(scale=1.0, seed=0)
    model = build_model("gcn", "node", ds.num_features, ds.num_classes, rng=0)
    explainer = Revelio(model, **CORA_LOOP)
    assert ds.num_classes == 2
    for node in range(0, 60, 4):
        assert_node_loop_is_the_reference(explainer, ds.graph, node, "factual", CORA_LOOP)


@pytest.mark.parametrize("mode", ["factual", "counterfactual"])
def test_row_trimmed_link_loop_is_the_reference_on_a_cora_context(cora_graph, mode):
    u, v = (int(x) for x in cora_graph.edge_index[:, 0])
    model = LinkPredictor("gcn", cora_graph.num_features, 32, rng=0)
    explainer = LinkRevelio(model, **CORA_LOOP)
    subgraph = assert_link_loop_is_the_reference(explainer, cora_graph, u, v, mode,
                                                 CORA_LOOP)
    assert subgraph.num_nodes >= 100


# ----------------------------------------------------------------------
# one settings validation, one meta schema, one trace shape
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def link_setup():
    rng = np.random.default_rng(0)
    edges = sbm_edges([10, 10], 0.4, 0.05, rng=rng)
    graph = Graph(edge_index=edges, x=rng.normal(size=(20, 4)))
    return graph, LinkPredictor("gcn", 4, 8, rng=0)


@pytest.fixture
def family_member(node_model, mini_ba_shapes, good_motif_node, link_setup):
    """``make(name, **settings)`` → ``(explainer, explain(mode))``."""
    def make(name, **settings):
        if name == "link_revelio":
            graph, model = link_setup
            explainer = LinkRevelio(model, seed=0, **settings)
            u, v = (int(x) for x in graph.edge_index[:, 0])
            return explainer, lambda mode: explainer.explain(
                graph, ExplainTarget.link(u, v), mode=mode)
        cls = TopKRevelio if name == "revelio_topk" else Revelio
        extra = {"k": 4} if name == "revelio_topk" else {}
        explainer = cls(node_model, seed=0, **extra, **settings)
        return explainer, lambda mode: explainer.explain(
            mini_ba_shapes.graph, ExplainTarget.node(good_motif_node), mode=mode)
    return make


@pytest.mark.parametrize("bad, field", [
    ({"epochs": 0}, "epochs"), ({"epochs": -2}, "epochs"),
    ({"epochs": 2.5}, "epochs"), ({"epochs": True}, "epochs"),
    ({"lr": float("nan")}, "lr"), ({"lr": float("inf")}, "lr"),
    ({"lr": 0.0}, "lr"), ({"lr": -0.01}, "lr"), ({"lr": "nan"}, "lr"),
    ({"alpha": float("nan")}, "alpha"), ({"alpha": -0.5}, "alpha"),
])
@pytest.mark.parametrize("name", FAMILY)
def test_bad_loop_settings_rejected_at_construction(family_member, name, bad, field):
    with pytest.raises(ExplainerError, match=field):
        family_member(name, **bad)


@pytest.mark.parametrize("bad, field", [
    ({"epochs": 0}, "epochs"), ({"epochs": -3}, "epochs"), ({"epochs": 2.5}, "epochs"),
    ({"lr": float("nan")}, "lr"), ({"lr": 0.0}, "lr"), ({"lr": "0.01"}, "lr"),
    ({"size_weight": float("nan")}, "size_weight"), ({"size_weight": -1.0}, "size_weight"),
    ({"entropy_weight": float("inf")}, "entropy_weight"),
    ({"entropy_weight": -0.1}, "entropy_weight"),
    ({"feature_size_weight": float("nan")}, "feature_size_weight"),
    ({"feature_size_weight": -0.2}, "feature_size_weight"),
])
def test_bad_gnnexplainer_settings_rejected_at_construction(node_model, bad, field):
    with pytest.raises(ExplainerError, match=field):
        GNNExplainer(node_model, **bad)


@pytest.mark.parametrize("mode", ["factual", "counterfactual"])
@pytest.mark.parametrize("name", FAMILY)
def test_one_meta_schema_and_trace_shape(family_member, name, mode, tmp_path):
    _, explain = family_member(name, epochs=3, lr=0.05, alpha=0.0)
    with explanation_cache_disabled(), tracing() as tracer:
        explanation = explain(mode)
        trace_id = tracer.trace_id
    records = [r for r in TRACER.records() if r["trace_id"] == trace_id]

    explains = [r for r in records if r["name"] == SPAN_EXPLAIN]
    assert len(explains) == 1
    assert explains[0]["attrs"]["method"] == name
    optimize = [r for r in records if r["name"] == SPAN_OPTIMIZE]
    assert len(optimize) == 1
    epochs = [r for r in records if r["name"] == SPAN_EPOCH]
    assert len(epochs) == 3
    assert all(r["parent_id"] == optimize[0]["span_id"] for r in epochs)

    meta = explanation.meta
    assert {"final_loss", "num_flows", "layer_weights", "params"} <= set(meta)
    assert isinstance(meta["tape_nodes"], int) and meta["tape_nodes"] > 0
    assert optimize[0]["attrs"]["tape_nodes"] == meta["tape_nodes"]
    assert isinstance(meta["plan_nodes"], int) and 0 < meta["plan_nodes"] < meta["tape_nodes"]
    assert optimize[0]["attrs"]["plan_nodes"] == meta["plan_nodes"]
    assert meta["trace_id"] == trace_id
    assert meta["perf"]["explain_seconds"] > 0
    assert np.isfinite(meta["final_loss"])
    flow_index = explanation.flow_index
    assert meta["num_flows"] == flow_index.num_flows
    assert meta["layer_weights"].shape == (flow_index.num_layers,)
    expected = {"epochs": 3, "lr": 0.05, "alpha": 0.0}
    if name == "revelio_topk":
        expected.update(k=4, strategy="gradient")
    assert meta["params"] == expected

    # Fig. 5's sparsity quantities and the flow trim, on the reported scores.
    used = flow_index.used_layer_edges()
    assert meta["flows_above_half"] == float((explanation.flow_scores > 0.5).mean())
    assert meta["mean_edge_mask"] == float(explanation.layer_edge_scores[used].mean())
    assert meta["forward_layer_edges"] == {
        **{f"layer_{l + 1}": int(row.sum()) for l, row in enumerate(used)},
        "context": flow_index.num_layer_edges}
    trimmed = [meta["forward_layer_edges"][f"layer_{l + 1}"]
               for l in range(flow_index.num_layers)]
    assert trimmed[-1] < flow_index.num_layer_edges
    # The rows each layer computed: a node's head reads every row, a
    # link's dot product only its endpoints' (two rows, or a padded one).
    rows = meta["forward_layer_rows"]
    assert rows["context"] == flow_index.num_nodes
    assert 2 <= rows["layer_1"] <= flow_index.num_nodes
    assert rows["layer_3"] == (2 if name == "link_revelio" else flow_index.num_nodes)

    # The loss curve in three numbers, and whether its last 10% was flat.
    assert meta["loss_last"] == meta["final_loss"]
    assert meta["loss_min"] <= min(meta["loss_first"], meta["loss_last"])
    assert all(isinstance(meta[key], float) for key in ("loss_first", "loss_min", "loss_last"))
    assert isinstance(meta["converged"], bool)

    wire = explanation_from_jsonable(json.loads(json.dumps(explanation_to_jsonable(explanation))))
    save_explanation(explanation, tmp_path / "e.npz")
    for loaded in (wire, load_explanation(tmp_path / "e.npz")):
        for key in ("flows_above_half", "mean_edge_mask", "forward_layer_edges",
                    "forward_layer_rows", "loss_first", "loss_min", "loss_last", "converged",
                    "tape_nodes", "plan_nodes"):
            assert loaded.meta[key] == meta[key]


@pytest.mark.parametrize("mode", ["factual", "counterfactual"])
def test_gnnexplainer_meta_schema_and_trace_shape(node_model, mini_ba_shapes, good_motif_node,
                                                  mode, tmp_path):
    explainer = GNNExplainer(node_model, epochs=3, lr=0.05)
    with tracing() as tracer:
        explanation = explainer.explain(mini_ba_shapes.graph,
                                        ExplainTarget.node(good_motif_node), mode=mode)
        trace_id = tracer.trace_id
    records = [r for r in TRACER.records() if r["trace_id"] == trace_id]
    optimize = [r for r in records if r["name"] == SPAN_OPTIMIZE]
    assert len(optimize) == 1
    epochs = [r for r in records if r["name"] == SPAN_EPOCH]
    assert len(epochs) == 3
    assert all(r["parent_id"] == optimize[0]["span_id"] for r in epochs)

    meta = explanation.meta
    assert meta["params"] == {"epochs": 3, "lr": 0.05}
    assert optimize[0]["attrs"]["tape_nodes"] == meta["tape_nodes"] > 0
    assert optimize[0]["attrs"]["plan_nodes"] == meta["plan_nodes"] > 0
    assert meta["loss_last"] == meta["final_loss"]
    assert meta["loss_min"] <= min(meta["loss_first"], meta["loss_last"])
    assert all(isinstance(meta[key], float) for key in ("loss_first", "loss_min", "loss_last"))
    assert isinstance(meta["converged"], bool)
    local = explanation.edge_scores[explanation.context_edge_positions]
    assert meta["mean_edge_mask"] == float(local.mean())

    # The hop trim: the same layer edges Revelio's flow trim keeps.
    context = explainer.node_context(mini_ba_shapes.graph, good_motif_node)
    flow_index = enumerate_flows(context.subgraph, node_model.num_layers,
                                 target=context.local_target)
    assert meta["forward_layer_edges"] == {
        **{f"layer_{l + 1}": int(ids.size)
           for l, ids in enumerate(flow_index.used_layer_edge_ids())},
        "context": flow_index.num_layer_edges}
    assert meta["forward_layer_edges"]["layer_3"] < flow_index.num_layer_edges
    # Its rows, pinned: layer 1 writes the target's 2-hop field, layer 2
    # its 1-hop field, and layer 3 every row of the context.
    assert context.subgraph.num_nodes == 21
    assert meta["forward_layer_rows"] == {"layer_1": 7, "layer_2": 4, "layer_3": 21,
                                          "context": 21}

    wire = explanation_from_jsonable(json.loads(json.dumps(explanation_to_jsonable(explanation))))
    save_explanation(explanation, tmp_path / "e.npz")
    for loaded in (wire, load_explanation(tmp_path / "e.npz")):
        for key in ("mean_edge_mask", "forward_layer_edges", "forward_layer_rows", "final_loss",
                    "loss_first", "loss_min", "loss_last", "converged", "tape_nodes",
                    "plan_nodes"):
            assert loaded.meta[key] == meta[key]


@pytest.mark.parametrize("name", ["flowx", "flowx_unrefined", "gnn_lrp"])
def test_flow_baselines_record_their_batched_forward(name, node_model, graph_model,
                                                     mini_ba_shapes, mini_mutag,
                                                     good_motif_node, tmp_path):
    """FlowX's stage 1 (also unrefined, as served) and GNN-LRP's stencils
    record the layer edges and rows their batched forward ran: trimmed to
    the target's flows for a node, every one for a graph readout. Both
    fields survive the JSON wire and the npz file."""
    make = {"flowx": lambda model: FlowX(model, samples=1, finetune_epochs=3),
            "flowx_unrefined": lambda model: FlowX(model, samples=2, finetune_epochs=0),
            "gnn_lrp": lambda model: GNNLRP(model)}[name]
    node = make(node_model).explain(mini_ba_shapes.graph, ExplainTarget.node(good_motif_node))
    flow_index = node.flow_index
    assert node.meta["forward_layer_edges"] == {
        **{f"layer_{l + 1}": int(ids.size)
           for l, ids in enumerate(flow_index.used_layer_edge_ids())},
        "context": flow_index.num_layer_edges}
    # The hop trim's rows (see the GNNExplainer case above): the 2-hop
    # field, the 1-hop field, then every row for the class head.
    assert node.meta["forward_layer_rows"] == {"layer_1": 7, "layer_2": 4, "layer_3": 21,
                                               "context": 21}

    graph = mini_mutag.graphs[0]
    whole = make(graph_model).explain(graph).meta
    width = graph.num_edges + graph.num_nodes
    layers = [f"layer_{l + 1}" for l in range(graph_model.num_layers)]
    assert whole["forward_layer_edges"] == {**dict.fromkeys(layers, width), "context": width}
    assert whole["forward_layer_rows"] == {**dict.fromkeys(layers, graph.num_nodes),
                                           "context": graph.num_nodes}

    wire = explanation_from_jsonable(json.loads(json.dumps(explanation_to_jsonable(node))))
    save_explanation(node, tmp_path / "e.npz")
    for loaded in (wire, load_explanation(tmp_path / "e.npz")):
        for key in ("forward_layer_edges", "forward_layer_rows"):
            assert loaded.meta[key] == node.meta[key]


@pytest.mark.parametrize("epochs", [1, 4])
def test_replay_span_fires_once_per_epoch_after_the_first(family_member, epochs):
    """Epoch 1 records; each later epoch replays the tape inside its own
    ``replay`` span, a child of that epoch's span."""
    _, explain = family_member("revelio", epochs=epochs)
    with explanation_cache_disabled(), tracing() as tracer:
        explain("factual")
        trace_id = tracer.trace_id
    records = [r for r in TRACER.records() if r["trace_id"] == trace_id]
    epoch_ids = [r["span_id"] for r in records if r["name"] == SPAN_EPOCH]
    replays = [r for r in records if r["name"] == SPAN_REPLAY]
    assert len(epoch_ids) == epochs
    assert [r["parent_id"] for r in replays] == epoch_ids[1:]


def test_tape_nodes_pin_a_revelio_epoch(node_model, mini_ba_shapes, good_motif_node):
    """A factual Revelio epoch on a 3-layer GCN replays 36 tape nodes, so
    a node added to this path shows up here as a diff. Its backward plan
    has 31 steps: the five reshapes (Eq. 5's two, one per layer mask) fold
    into the edges that feed them.

    - Eqs. 4–5: tanh, the flow gather and scatter, a reshape, exp(w), its
      reshape, the product and the sigmoid (8);
    - one gather of kept ids per layer (3);
    - layer 1, frozen below the mask: mask reshape, propagate, bias, ReLU
      (4); layers 2–3 add their projection (5 each);
    - the head's projection and bias (2), the target's row, its
      log-softmax and the class's entry (3), Eq. 1's negation (1);
    - Eq. 8: product, sum, mean, α, and the total (5).
    """
    explainer = Revelio(node_model, epochs=2)
    with explanation_cache_disabled():
        explanation = explainer.explain(mini_ba_shapes.graph,
                                        ExplainTarget.node(good_motif_node))
    assert node_model.num_layers == 3 and node_model.conv_name == "gcn"
    assert explanation.meta["tape_nodes"] == 36
    assert explanation.meta["plan_nodes"] == 31


def test_a_finished_loop_frees_its_loss_and_plan(node_model, mini_ba_shapes, good_motif_node,
                                                 monkeypatch):
    """Nothing on the tape refers back to the loss or its plan (the loss
    holds the plan): with the collector off they die when the loop ends,
    not at the next collection. A closure over its own output once held
    every tape alive (DESIGN.md §3.2)."""
    refs = []
    compile_plan = Tape.compile

    def spy(tape, root, params):
        plan = compile_plan(tape, root, params)
        refs.extend((weakref.ref(root), weakref.ref(plan)))
        return plan

    monkeypatch.setattr(Tape, "compile", spy)
    gc.collect()
    gc.disable()
    try:
        with explanation_cache_disabled():
            Revelio(node_model, epochs=3).explain(mini_ba_shapes.graph,
                                                  ExplainTarget.node(good_motif_node))
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


#: Python function calls one replayed factual Revelio epoch makes on the
#: mini BA-Shapes motif node (replay, backward, Adam and the loop around
#: them): 121 on CPython 3.11 with numpy 2.4 with the compiled forward
#: plan and its ``replay`` span, 123 before them, 132 while the sigmoid
#: and the backward seed went through numpy's Python wrappers
#: (``np.clip``, ``np.where``, ``np.ones_like``), 264 before the compiled
#: backward plan. The bound keeps the earlier margin of 13 for version
#: drift.
EPOCH_CALLS = 134


def test_a_replayed_epoch_makes_a_pinned_number_of_python_calls(
        node_model, mini_ba_shapes, good_motif_node, monkeypatch):
    """Interpreter overhead, counted exactly instead of timed: the calls
    of a 3-epoch loop minus those of a 2-epoch one, on warm caches."""
    counts = []
    learn_masks = optimize_module.learn_masks

    def counted(*args, **kwargs):
        calls = [0]

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            return learn_masks(*args, **kwargs)
        finally:
            sys.setprofile(previous)
            counts.append(calls[0])

    monkeypatch.setattr(optimize_module, "learn_masks", counted)
    for epochs in (2, 2, 3):                # the first run warms the caches
        with explanation_cache_disabled():
            Revelio(node_model, epochs=epochs).explain(mini_ba_shapes.graph,
                                                       ExplainTarget.node(good_motif_node))
    assert counts[2] - counts[1] <= EPOCH_CALLS, counts


def test_converged_reads_the_relative_change_over_the_last_tenth():
    flat_tail = [5.0, 3.0, 2.0] + [1.0] * 17 + [1.0 - CONVERGENCE_RTOL / 2]
    assert converged(flat_tail)                         # window: last 2 of 21
    moving = flat_tail[:-1] + [1.0 - 2 * CONVERGENCE_RTOL]
    assert not converged(moving)
    assert converged([2.0, 0.0, 0.0])                   # a zero loss that stays zero
    assert not converged([1.0])                         # one epoch cannot tell
