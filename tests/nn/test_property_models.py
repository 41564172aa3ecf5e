"""Property-based invariants of the GNN models.

The deep ones: graph-level predictions must be invariant to node
relabelling (message passing + pooling is permutation equivariant),
masked forwards must interpolate between the full and empty graphs, a
flow-trimmed forward must equal the full one at the explained node, and
a batched masked forward must equal its rows run one at a time.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Adam, Tensor, log_softmax, no_grad
from repro.errors import ModelError, ShapeError
from repro.explain.mask_loop import learn_masks, outcome_loss
from repro.flows import enumerate_flows
from repro.graph import Graph, coalesce_edges
from repro.nn import GNN, LayerTrim
from repro.nn.message_passing import GraphConv


@st.composite
def attributed_graphs(draw):
    n = draw(st.integers(3, 10))
    m = draw(st.integers(2, 20))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    if not keep.any():
        src, dst = np.array([0]), np.array([1])
        keep = np.array([True])
    edge_index = coalesce_edges(np.stack([src[keep], dst[keep]]))
    x = rng.normal(size=(n, 5))
    return Graph(edge_index=edge_index, x=x), seed


@settings(max_examples=25, deadline=None)
@given(data=attributed_graphs(), conv=st.sampled_from(["gcn", "gin", "gat"]))
def test_graph_prediction_permutation_invariant(data, conv):
    graph, seed = data
    model = GNN(conv, "graph", 5, 8, 2, num_layers=2,
                heads=2 if conv == "gat" else 1, rng=0)
    model.eval()
    base = model.forward_graph(graph).numpy()

    rng = np.random.default_rng(seed)
    perm = rng.permutation(graph.num_nodes)
    inverse = np.argsort(perm)
    permuted = Graph(
        edge_index=np.stack([perm[graph.src], perm[graph.dst]]),
        x=graph.x[inverse],
        num_nodes=graph.num_nodes,
    )
    permuted_out = model.forward_graph(permuted).numpy()
    assert np.allclose(base, permuted_out, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(data=attributed_graphs(), conv=st.sampled_from(["gcn", "gin", "gat"]))
def test_ones_mask_matches_unmasked(data, conv):
    graph, _ = data
    model = GNN(conv, "node", 5, 8, 2, num_layers=2,
                heads=2 if conv == "gat" else 1, rng=0)
    model.eval()
    plain = model.forward_graph(graph).numpy()
    ones = [Tensor(np.ones(graph.num_edges + graph.num_nodes))
            for _ in range(model.num_layers)]
    masked = model.forward_graph(graph, edge_masks=ones).numpy()
    assert np.allclose(plain, masked)


@settings(max_examples=25, deadline=None)
@given(data=attributed_graphs())
def test_node_logits_finite_under_random_masks(data):
    graph, seed = data
    rng = np.random.default_rng(seed)
    model = GNN("gcn", "node", 5, 8, 3, num_layers=2, rng=0)
    model.eval()
    masks = [Tensor(rng.uniform(0, 1, graph.num_edges + graph.num_nodes))
             for _ in range(2)]
    out = model.forward_graph(graph, edge_masks=masks).numpy()
    assert np.isfinite(out).all()


@settings(max_examples=25, deadline=None)
@given(data=attributed_graphs())
def test_probabilities_normalized_on_random_graphs(data):
    graph, _ = data
    model = GNN("gin", "node", 5, 8, 4, num_layers=2, rng=0)
    model.eval()
    proba = model.predict_proba(graph)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert (proba >= 0).all()


@settings(max_examples=20, deadline=None)
@given(data=attributed_graphs())
def test_isolated_extra_node_does_not_change_other_logits(data):
    """Adding an isolated node must leave existing node logits unchanged
    (locality of message passing)."""
    graph, _ = data
    model = GNN("gcn", "node", 5, 8, 2, num_layers=2, rng=0)
    model.eval()
    base = model.forward_graph(graph).numpy()
    extended = Graph(
        edge_index=graph.edge_index,
        x=np.concatenate([graph.x, np.zeros((1, 5))]),
        num_nodes=graph.num_nodes + 1,
    )
    out = model.forward_graph(extended).numpy()
    assert np.allclose(base, out[:-1], atol=1e-8)


@st.composite
def pathological_targets(draw):
    """A graph and a target, with the shapes the flow trim must survive.

    Duplicate edges and data self-loops are kept (no coalescing); the
    target may be isolated or have no in-edges, and the graph may have a
    single node.
    """
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 18))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    if m and draw(st.booleans()):
        repeat = rng.integers(0, m, size=draw(st.integers(1, 4)))
        src, dst = np.concatenate([src, src[repeat]]), np.concatenate([dst, dst[repeat]])
    if draw(st.booleans()):
        loops = rng.integers(0, n, size=2)
        src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
    target = draw(st.integers(0, n - 1))
    shape = draw(st.sampled_from(["any", "no_in_edges", "isolated"]))
    if shape == "no_in_edges":
        keep = dst != target
    elif shape == "isolated":
        keep = (dst != target) & (src != target)
    else:
        keep = np.ones(src.shape[0], dtype=bool)
    edge_index = np.stack([src[keep], dst[keep]]).astype(np.int64).reshape(2, -1)
    graph = Graph(edge_index=edge_index, x=rng.normal(size=(n, 5)), num_nodes=n)
    return graph, target, seed


@settings(max_examples=40, deadline=None)
@given(case=pathological_targets(), conv=st.sampled_from(["gcn", "gin", "gat"]))
def test_flow_trimmed_forward_is_exact_at_the_target(case, conv):
    """Each layer run over only its flow-carrying layer edges gives the
    target row and the kept mask gradients bit for bit."""
    graph, target, seed = case
    model = GNN(conv, "node", 5, 8, 3, num_layers=3,
                heads=2 if conv == "gat" else 1, rng=0)
    model.eval()
    model.freeze()
    kept = enumerate_flows(graph, model.num_layers, target=target).used_layer_edge_ids()
    rng = np.random.default_rng(seed)
    width = graph.num_edges + graph.num_nodes
    full = [Tensor(rng.uniform(0, 1, width), requires_grad=True) for _ in kept]
    trimmed = [Tensor(mask.data[ids], requires_grad=True) for mask, ids in zip(full, kept)]

    out_full = model.forward_graph(graph, edge_masks=full)
    trim = LayerTrim(kept)
    out_trim = model.forward_graph(graph, edge_masks=trimmed, trim=trim)
    assert np.array_equal(out_full.numpy()[target], out_trim.numpy()[target])
    # GCN and GAT layers below the head wrote only their kept edges'
    # destinations (two rows at least); the head's layer and GIN's MLP
    # layers wrote every row.
    dst = np.concatenate([graph.dst, np.arange(graph.num_nodes)])
    for l, (ids, rows) in enumerate(zip(kept, trim.rows)):
        written = np.unique(dst[ids])
        if conv == "gin" or l == len(kept) - 1:
            written = np.arange(graph.num_nodes)
        assert np.isin(written, rows).all()
        assert rows.size == max(written.size, min(2, graph.num_nodes))

    weights = Tensor(rng.normal(size=out_full.shape[1]))
    (out_full[target] * weights).sum().backward()
    (out_trim[target] * weights).sum().backward()
    for mask, small, ids in zip(full, trimmed, kept):
        assert np.array_equal(mask.grad[ids], small.grad)
        dropped = np.setdiff1d(np.arange(width), ids)
        assert not mask.grad[dropped].any()

    wrong = [Tensor(np.ones(ids.size + 1)) for ids in kept]
    with pytest.raises(ShapeError, match="edge mask has"):
        model.forward_graph(graph, edge_masks=wrong, trim=LayerTrim(kept))


@settings(max_examples=40, deadline=None)
@given(case=pathological_targets(), conv=st.sampled_from(["gcn", "gin", "gat"]),
       stack=st.sampled_from([1, 2, 128]), kind=st.sampled_from(["coalition", "stencil"]))
def test_flow_trimmed_batched_forward_is_exact_at_the_target(case, conv, stack, kind):
    """A stack of ``B`` mask sets run through the flow trim gives the
    target row of the untrimmed batched forward bit for bit: FlowX's 0/1
    coalitions (unused layer edges at 1.0) and GNN-LRP's ``1 ± h``
    stencils along one flow each."""
    graph, target, seed = case
    model = GNN(conv, "node", 5, 8, 3, num_layers=3,
                heads=2 if conv == "gat" else 1, rng=0)
    model.eval()
    flow_index = enumerate_flows(graph, model.num_layers, target=target)
    kept = flow_index.used_layer_edge_ids()
    rng = np.random.default_rng(seed)
    shape = (stack, model.num_layers, graph.num_edges + graph.num_nodes)
    if kind == "coalition":
        masks = (rng.random(shape) < rng.uniform(0.3, 0.95)).astype(np.float64)
        masks[:, ~flow_index.used_layer_edges()] = 1.0
    else:
        masks = np.ones(shape)
        paths = flow_index.layer_edges[rng.integers(0, flow_index.num_flows, stack)]
        signs = rng.choice([-1.0, 1.0], size=paths.shape)
        layers = np.arange(model.num_layers)
        masks[np.arange(stack)[:, None], layers, paths] += signs * 0.1

    full = model.forward_masked_batch(graph, masks)
    trim = LayerTrim(kept)
    trimmed = model.forward_masked_batch(graph, masks, trim=trim)
    assert trimmed.shape == full.shape == (stack, graph.num_nodes, 3)
    assert np.array_equal(trimmed[:, target], full[:, target])
    assert np.array_equal(model.predict_proba_batch(graph, masks, trim=trim)[:, target],
                          model.predict_proba_batch(graph, masks)[:, target])
    # GCN and GAT layers below the head computed only their kept edges'
    # rows, over a stack of B columns each.
    dst = np.concatenate([graph.dst, np.arange(graph.num_nodes)])
    for l, (ids, rows) in enumerate(zip(kept, trim.rows)):
        written = np.unique(dst[ids])
        if conv == "gin" or l == len(kept) - 1:
            written = np.arange(graph.num_nodes)
        assert np.isin(written, rows).all()
        assert rows.size == max(written.size, min(2, graph.num_nodes))

    with pytest.raises(ModelError, match="structurally"):
        model.forward_masked_batch(graph, masks, structural=True, trim=trim)


@settings(max_examples=30, deadline=None)
@given(case=pathological_targets(), conv=st.sampled_from(["gcn", "gin", "gat"]))
def test_mask_loop_builds_each_layer_once_and_replays_it_exactly(case, conv):
    """``learn_masks`` records epoch 1 and replays it: every conv method
    runs once per layer per explanation, a replayed epoch calls none, and
    the learned masks and losses equal an eager loop's bit for bit."""
    graph, target, seed = case
    model = GNN(conv, "node", 5, 8, 3, num_layers=3,
                heads=2 if conv == "gat" else 1, rng=0)
    model.eval()
    model.freeze()
    kept = enumerate_flows(graph, model.num_layers, target=target).used_layer_edge_ids()
    rng = np.random.default_rng(seed)
    init = [rng.uniform(-1, 1, ids.size) for ids in kept]
    epochs, lr = 4, 0.1

    def problem():
        masks = [Tensor(value, requires_grad=True) for value in init]
        trim = LayerTrim(kept)

        def step():
            layer_masks = [mask.sigmoid() for mask in masks]
            logits = model.forward_graph(graph, edge_masks=layer_masks, trim=trim)
            size = layer_masks[0].sum() + layer_masks[1].sum() + layer_masks[2].sum()
            return outcome_loss(log_softmax(logits, axis=-1)[target, 0], "factual") + 0.01 * size
        return masks, step

    masks, step = problem()
    conv_class = type(model.convs[0])
    calls = []
    original_step = Adam.step

    def counted_step(optimizer):
        original_step(optimizer)
        calls.append((parts.call_count, updates.call_count, forwards.call_count))

    with mock.patch.object(conv_class, "message_parts", autospec=True,
                           side_effect=conv_class.message_parts) as parts, \
            mock.patch.object(conv_class, "update", autospec=True,
                              side_effect=conv_class.update) as updates, \
            mock.patch.object(GraphConv, "forward", autospec=True,
                              side_effect=GraphConv.forward) as forwards, \
            mock.patch.object(Adam, "step", counted_step):
        meta = learn_masks(masks, step, epochs=epochs, lr=lr)
    assert calls == [(model.num_layers,) * 3] * epochs

    eager_masks, eager_step = problem()
    optimizer = Adam(eager_masks, lr=lr)
    losses = []
    for _ in range(epochs):
        optimizer.zero_grad()
        loss = eager_step()
        loss.backward()
        optimizer.step()
        losses.append(loss.item())
    for mine, theirs in zip(masks, eager_masks):
        assert np.array_equal(mine.data, theirs.data)
    assert (meta["loss_first"], meta["loss_last"]) == (losses[0], losses[-1])


@settings(max_examples=40, deadline=None)
@given(case=pathological_targets(), conv=st.sampled_from(["gcn", "gin", "gat"]),
       task=st.sampled_from(["node", "graph"]))
def test_batched_forward_equals_its_rows(case, conv, task):
    """``forward_masked_batch`` row ``b`` equals one ``forward_graph``:
    under random Eq. 6 masks, as structural 0/1 masks against
    ``with_edges`` removal, and under an ``x_stack`` of perturbed
    features."""
    graph, _, seed = case
    model = GNN(conv, task, 5, 8, 3, num_layers=3,
                heads=2 if conv == "gat" else 1, rng=0)
    model.eval()
    rng = np.random.default_rng(seed)
    E, B = graph.num_edges, 3
    width = E + graph.num_nodes

    soft = rng.uniform(0, 1, size=(B, model.num_layers, width))
    keeps = rng.random((B, E)) < 0.6
    structural = np.ones((B, model.num_layers, width))
    structural[:, :, :E] = keeps[:, None, :]
    x_stack = graph.x[None] + rng.normal(size=(B,) + graph.x.shape)
    batched = (model.forward_masked_batch(graph, soft),
               model.forward_masked_batch(graph, structural, structural=True),
               model.forward_masked_batch(graph, x_stack=x_stack))

    with no_grad():
        for b in range(B):
            perturbed = graph.copy()
            perturbed.x = x_stack[b]
            rows = (model.forward_graph(graph, edge_masks=[Tensor(m) for m in soft[b]]),
                    model.forward_graph(graph.with_edges(keeps[b])),
                    model.forward_graph(perturbed))
            for stack, row in zip(batched, rows):
                np.testing.assert_allclose(stack[b], row.numpy(), rtol=0, atol=1e-10)
