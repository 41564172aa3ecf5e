"""FlowX stage 2, PGExplainer and GraphMask on the shared mask-learning loop.

Each learner's training loop is kept here written out in ``Tensor`` ops:
a fresh Adam, a rebuilt untrimmed ``forward_graph`` every epoch, the
per-epoch noise drawn inline from the explainer's generator and the
PGExplainer temperature computed inline. The explainers run the same
objective through ``learn_masks`` — trimmed, epoch 1 recorded and
replayed, the noise and temperature refreshed as frozen leaves — and must
reproduce it bit for bit: FlowX's flow and edge scores, the group
learners' network parameters, and the generator state after the fit.

The loss-record cases check that every mask learner writes the loop's
``meta`` (ROADMAP item 8's acceptance test for these learners).
"""

import numpy as np
import pytest

from repro.autograd import Adam, Tensor, concat, log_softmax
from repro.core import Revelio, TopKRevelio
from repro.errors import ExplainerError
from repro.explain import ExplainTarget, FlowX, GNNExplainer, GraphMask, PGExplainer
from repro.explain.flow_common import flow_scores_to_edge_scores
from repro.flows import cached_enumerate_flows
from repro.rng import ensure_rng
from repro.sparse import feature_dense

MODES = ["factual", "counterfactual"]
LOSS_FIELDS = ("final_loss", "loss_first", "loss_min", "loss_last", "converged",
               "tape_nodes", "plan_nodes")


def objective(log_p, mode):
    if mode == "factual":
        return -log_p                                                  # Eq. 1
    return -(1.0 - log_p.exp().clip(0.0, 1.0 - 1e-12)).log()           # Eq. 2


def entropy_of(mask):
    if not mask.size:
        return 0.0
    return -(mask * mask.clip(1e-8, 1.0).log()
             + (1.0 - mask) * (1.0 - mask).clip(1e-8, 1.0).log()).mean()


def mean_of(values):
    return values.mean() if values.size else 0.0


def loop_mask(edge_mask, graph):
    """``(E+N,)``: the data-edge mask, self-loops open."""
    return concat([edge_mask, Tensor(np.ones(graph.num_nodes))])


# ----------------------------------------------------------------------
# inline oracles
# ----------------------------------------------------------------------
def reference_flowx(explainer, graph, target, mode):
    """FlowX: stage 1 as the explainer runs it, then stage 2 inline."""
    model = explainer.model
    flow_index = cached_enumerate_flows(graph, model.num_layers, target=target,
                                        max_flows=explainer.max_flows)
    rng = ensure_rng(explainer.seed)
    class_idx = explainer.predicted_class(graph, target=target)
    shapley = explainer._shapley_flow_scores(graph, flow_index, class_idx, target, rng)
    scale = np.abs(shapley).max()
    init = np.arctanh(np.clip(shapley / scale, -0.99, 0.99)) if scale > 0 else \
        rng.normal(0.0, 0.1, size=flow_index.num_flows)
    masks = Tensor(init, requires_grad=True)
    optimizer = Adam([masks], lr=explainer.lr)
    row = target if target is not None else 0
    for _ in range(explainer.finetune_epochs):
        optimizer.zero_grad()
        omega_e = flow_index.aggregate_scores(masks.tanh()).sigmoid()
        logits = model.forward_graph(graph, edge_masks=[omega_e[l]
                                                        for l in range(model.num_layers)])
        loss = objective(log_softmax(logits, axis=-1)[row, class_idx], mode)
        loss.backward()
        optimizer.step()
    flow_scores = masks.tanh().numpy().copy() * (scale if scale > 0 else 1.0)
    if mode == "counterfactual":
        flow_scores = -flow_scores
    return flow_scores, flow_scores_to_edge_scores(flow_index, flow_scores)


def reference_pgexplainer(explainer, instances, mode):
    """PGExplainer's group fit inline; trains ``explainer.edge_mlp`` and
    draws from ``explainer._rng``."""
    model, rng = explainer.model, explainer._rng
    optimizer = Adam(explainer.edge_mlp.parameters(), lr=explainer.lr)
    classes = [explainer.predicted_class(c.subgraph, target=c.local_target) for c in instances]
    for epoch in range(explainer.epochs):
        temperature = max(0.5, explainer.temperature * (0.97 ** epoch))
        optimizer.zero_grad()
        total = None
        for context, class_idx in zip(instances, classes):
            graph, target = context.subgraph, context.local_target
            z = model.node_embeddings(graph)[-1]
            feats = [z[graph.src], z[graph.dst]]
            if target is not None:
                feats.append(np.repeat(z[target][None, :], graph.num_edges, axis=0))
            logits = explainer.edge_mlp(Tensor(np.concatenate(feats, axis=1))).reshape(-1)
            u = rng.random(graph.num_edges)
            noise = np.log(u + 1e-12) - np.log(1.0 - u + 1e-12)
            mask = ((logits + Tensor(noise)) / temperature).sigmoid()
            out = model.forward_graph(graph,
                                      edge_masks=[loop_mask(mask, graph)] * model.num_layers)
            log_p = log_softmax(out, axis=-1)[target if target is not None else 0, class_idx]
            size = mean_of(mask if mode == "factual" else 1.0 - mask)
            loss = (objective(log_p, mode) + explainer.size_weight * size
                    + explainer.entropy_weight * entropy_of(mask))
            total = loss if total is None else total + loss
        total = total / len(instances)
        total.backward()
        optimizer.step()


def reference_graphmask(explainer, instances, mode):
    """GraphMask's group fit inline; trains ``explainer.gates`` and draws
    from ``explainer._rng``."""
    model, rng = explainer.model, explainer._rng
    gamma, zeta, beta = -0.1, 1.1, 2.0 / 3.0
    hard = explainer.gate_type == "hard_concrete"
    optimizer = Adam([p for g in explainer.gates for p in g.parameters()], lr=explainer.lr)
    classes = [explainer.predicted_class(c.subgraph, target=c.local_target) for c in instances]
    for _ in range(explainer.epochs):
        optimizer.zero_grad()
        total = None
        for context, class_idx in zip(instances, classes):
            graph, target = context.subgraph, context.local_target
            hs = [feature_dense(graph.x)] + model.node_embeddings(graph)[:-1]
            masks, outs = [], []
            for gate_net, h in zip(explainer.gates, hs):
                out = gate_net(Tensor(np.concatenate([h[graph.src], h[graph.dst]], axis=1)))
                out = out.reshape(-1)
                if hard:
                    u = rng.uniform(1e-6, 1.0 - 1e-6, size=out.shape)
                    s = ((out + Tensor(np.log(u) - np.log(1.0 - u))) / beta).sigmoid()
                    gate = (s * (zeta - gamma) + gamma).clip(0.0, 1.0)
                else:
                    gate = out
                outs.append(out)
                masks.append(loop_mask(gate, graph))
            logits = model.forward_graph(graph, edge_masks=masks)
            log_p = log_softmax(logits, axis=-1)[target if target is not None else 0,
                                                 class_idx]
            open_gates = None
            for out, mask in zip(outs, masks):
                term = mean_of((out - beta * np.log(-gamma / zeta)).sigmoid()) if hard \
                    else mean_of(mask[:graph.num_edges])
                open_gates = term if open_gates is None else open_gates + term
            open_gates = open_gates / model.num_layers
            if mode == "counterfactual":
                open_gates = 1.0 - open_gates
            loss = objective(log_p, mode) + explainer.sparsity_weight * open_gates
            total = loss if total is None else total + loss
        total = total / len(instances)
        total.backward()
        optimizer.step()


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def node_targets(mini_ba_shapes, good_motif_node):
    """A motif node, base-graph nodes and a hub: contexts of every size."""
    graph = mini_ba_shapes.graph
    hub = int(np.bincount(graph.dst, minlength=graph.num_nodes).argmax())
    return [good_motif_node, 0, 7, hub]


def task_case(task, mini_ba_shapes, mini_mutag, node_model, graph_model, node_targets):
    """``(model, graph per instance, ExplainTarget or None per instance)``."""
    if task == "node":
        return (node_model, [mini_ba_shapes.graph] * len(node_targets),
                [ExplainTarget.node(v) for v in node_targets])
    graphs = list(mini_mutag.graphs[:4])
    return graph_model, graphs, [None] * len(graphs)


def group_instances(explainer, graphs, targets):
    return [explainer.fit_instance(g, t) for g, t in zip(graphs, targets)]


def parameters(nets):
    return [p.data.copy() for net in nets for p in net.parameters()]


# ----------------------------------------------------------------------
# the oracles, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("task", ["node", "graph"])
def test_flowx_stage_2_reproduces_its_loop(task, mode, mini_ba_shapes, mini_mutag,
                                           node_model, graph_model, node_targets):
    model, graphs, targets = task_case(task, mini_ba_shapes, mini_mutag, node_model,
                                       graph_model, node_targets)
    for seed, (graph, target) in enumerate(zip(graphs, targets)):
        explainer = FlowX(model, samples=2, finetune_epochs=12, lr=0.05, seed=seed)
        explanation = explainer.explain(graph, target, mode=mode)
        if target is None:
            context, row, edges = graph, None, explanation.edge_scores
        else:
            ctx = explainer.node_context(graph, target.node_id)
            context, row = ctx.subgraph, ctx.local_target
            edges = explanation.edge_scores[ctx.edge_positions]
        ref_flows, ref_edges = reference_flowx(explainer, context, row, mode)
        assert np.array_equal(explanation.flow_scores, ref_flows)
        assert np.array_equal(edges, ref_edges)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("task", ["node", "graph"])
def test_pgexplainer_fit_reproduces_its_loop(task, mode, mini_ba_shapes, mini_mutag,
                                             node_model, graph_model, node_targets):
    model, graphs, targets = task_case(task, mini_ba_shapes, mini_mutag, node_model,
                                       graph_model, node_targets)
    settings = {"epochs": 12, "lr": 0.01, "seed": 5}
    explainer = PGExplainer(model, **settings)
    instances = group_instances(explainer, graphs, targets)
    explainer.fit(instances, mode=mode)
    oracle = PGExplainer(model, **settings)
    reference_pgexplainer(oracle, instances, mode)
    for mine, theirs in zip(parameters([explainer.edge_mlp]), parameters([oracle.edge_mlp])):
        assert np.array_equal(mine, theirs)
    assert explainer._rng.bit_generator.state == oracle._rng.bit_generator.state


@pytest.mark.parametrize("gate", ["sigmoid", "hard_concrete"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("task", ["node", "graph"])
def test_graphmask_fit_reproduces_its_loop(task, mode, gate, mini_ba_shapes, mini_mutag,
                                           node_model, graph_model, node_targets):
    model, graphs, targets = task_case(task, mini_ba_shapes, mini_mutag, node_model,
                                       graph_model, node_targets)
    settings = {"epochs": 12, "lr": 0.02, "gate": gate, "seed": 5}
    explainer = GraphMask(model, **settings)
    instances = group_instances(explainer, graphs, targets)
    explainer.fit(instances, mode=mode)
    oracle = GraphMask(model, **settings)
    reference_graphmask(oracle, instances, mode)
    for mine, theirs in zip(parameters(explainer.gates), parameters(oracle.gates)):
        assert np.array_equal(mine, theirs)
    assert explainer._rng.bit_generator.state == oracle._rng.bit_generator.state


# ----------------------------------------------------------------------
# the loss record
# ----------------------------------------------------------------------
def fitted(cls, model, graph, target, **settings):
    explainer = cls(model, **settings)
    explainer.fit([explainer.fit_instance(graph, target)])
    return explainer


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["revelio", "topk", "gnnexplainer", "flowx", "pgexplainer",
                                  "graphmask"])
def test_every_mask_learner_writes_the_loss_record(name, mode, node_model, mini_ba_shapes,
                                                   good_motif_node):
    graph, target = mini_ba_shapes.graph, ExplainTarget.node(good_motif_node)
    explainer = {
        "revelio": lambda: Revelio(node_model, epochs=10),
        "topk": lambda: TopKRevelio(node_model, k=8, epochs=10),
        "gnnexplainer": lambda: GNNExplainer(node_model, epochs=10),
        "flowx": lambda: FlowX(node_model, samples=1, finetune_epochs=10),
        "pgexplainer": lambda: fitted(PGExplainer, node_model, graph, target, epochs=10),
        "graphmask": lambda: fitted(GraphMask, node_model, graph, target, epochs=10),
    }[name]()
    meta = explainer.explain(graph, target, mode=mode).meta
    for key in ("final_loss", "loss_first", "loss_min", "loss_last", "mean_edge_mask"):
        assert np.isfinite(meta[key]), key
    assert meta["loss_min"] <= min(meta["loss_first"], meta["loss_last"])
    assert meta["final_loss"] == meta["loss_last"]
    assert isinstance(meta["converged"], bool)
    assert meta["tape_nodes"] >= meta["plan_nodes"] > 0
    assert 0.0 <= meta["mean_edge_mask"] <= 1.0
    if name in ("pgexplainer", "graphmask"):
        # A group learner's loss fields describe its fit.
        assert {key: meta[key] for key in LOSS_FIELDS} == explainer.fit_meta


@pytest.mark.parametrize("mode", MODES)
def test_unrefined_flowx_reports_stage_1_and_no_loss(mode, node_model, mini_ba_shapes,
                                                     good_motif_node):
    explainer = FlowX(node_model, samples=2, finetune_epochs=0, seed=1)
    explanation = explainer.explain(mini_ba_shapes.graph, ExplainTarget.node(good_motif_node),
                                    mode=mode)
    ctx = explainer.node_context(mini_ba_shapes.graph, good_motif_node)
    ref_flows, ref_edges = reference_flowx(explainer, ctx.subgraph, ctx.local_target, mode)
    assert explanation.flow_scores.tobytes() == ref_flows.tobytes()
    assert explanation.edge_scores[ctx.edge_positions].tobytes() == ref_edges.tobytes()
    assert not set(LOSS_FIELDS) & set(explanation.meta)


# ----------------------------------------------------------------------
# construction and fit inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls, settings, name", [
    (PGExplainer, {"lr": float("nan")}, "lr"),
    (PGExplainer, {"epochs": -3}, "epochs"),
    (PGExplainer, {"hidden": 0}, "hidden"),
    (PGExplainer, {"temperature": 0.0}, "temperature"),
    (PGExplainer, {"size_weight": -1.0}, "size_weight"),
    (PGExplainer, {"entropy_weight": float("inf")}, "entropy_weight"),
    (GraphMask, {"lr": -1.0}, "lr"),
    (GraphMask, {"epochs": 0}, "epochs"),
    (GraphMask, {"hidden": 2.5}, "hidden"),
    (GraphMask, {"sparsity_weight": float("nan")}, "sparsity_weight"),
])
def test_group_learners_validate_their_settings(cls, settings, name, node_model):
    with pytest.raises(ExplainerError, match=name):
        cls(node_model, **settings)


@pytest.mark.parametrize("cls", [PGExplainer, GraphMask])
def test_fit_without_instances_raises(cls, graph_model):
    explainer = cls(graph_model, epochs=2)
    with pytest.raises(ExplainerError, match="at least one instance"):
        explainer.fit([])
    assert not explainer.fitted
