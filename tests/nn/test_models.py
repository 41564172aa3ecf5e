"""GNN model class: construction, forward variants, inference helpers."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ModelError
from repro.graph import Graph, GraphBatch
from repro.nn import GNN, LayerTrim, LinkPredictor, build_model


@pytest.fixture
def graph():
    rng = np.random.default_rng(0)
    edge_index = np.array([[0, 1, 1, 2, 3, 2], [1, 0, 2, 1, 2, 3]])
    return Graph(edge_index=edge_index, x=rng.normal(size=(4, 6)), y=np.array([0, 1, 0, 1]))


class TestConstruction:
    def test_unknown_conv(self):
        with pytest.raises(ModelError):
            GNN("sage", "node", 4, 8, 2)

    def test_unknown_task(self):
        with pytest.raises(ModelError):
            GNN("gcn", "edge", 4, 8, 2)

    def test_zero_layers(self):
        with pytest.raises(ModelError):
            GNN("gcn", "node", 4, 8, 2, num_layers=0)

    def test_bad_pool(self):
        with pytest.raises(ModelError):
            GNN("gcn", "graph", 4, 8, 2, pool="median")

    def test_gat_head_divisibility(self):
        with pytest.raises(ModelError):
            GNN("gat", "node", 4, 30, 2, heads=8)

    def test_build_model_defaults(self):
        m = build_model("gat", "node", 4, 2)
        assert m.num_layers == 3
        assert m.heads == 8

    def test_repr(self):
        assert "gcn" in repr(build_model("gcn", "node", 4, 2))


class TestForward:
    @pytest.mark.parametrize("conv", ["gcn", "gin", "gat"])
    def test_node_logits_shape(self, graph, conv):
        model = GNN(conv, "node", 6, 16, 3, heads=8 if conv == "gat" else 1, rng=0)
        out = model.forward_graph(graph)
        assert out.shape == (4, 3)

    @pytest.mark.parametrize("conv", ["gcn", "gin", "gat"])
    def test_graph_logits_shape(self, graph, conv):
        model = GNN(conv, "graph", 6, 16, 2, heads=8 if conv == "gat" else 1, rng=0)
        out = model.forward_graph(graph)
        assert out.shape == (1, 2)

    def test_batch_forward(self, graph):
        model = GNN("gin", "graph", 6, 8, 2, rng=0)
        g2 = graph.copy()
        g2.y = 1
        graph.y = 0
        batch = GraphBatch([graph, g2])
        out = model.forward_batch(batch)
        assert out.shape == (2, 2)

    def test_batch_forward_matches_individual(self, graph):
        model = GNN("gcn", "graph", 6, 8, 2, rng=0)
        g1, g2 = graph.copy(), graph.copy()
        g1.y, g2.y = 0, 1
        batch = GraphBatch([g1, g2])
        batched = model.forward_batch(batch).numpy()
        single1 = model.forward_graph(g1).numpy()
        single2 = model.forward_graph(g2).numpy()
        assert np.allclose(batched[0], single1[0])
        assert np.allclose(batched[1], single2[0])

    def test_batch_on_node_model_rejected(self, graph):
        model = GNN("gcn", "node", 6, 8, 2, rng=0)
        with pytest.raises(ModelError):
            model.forward_batch(GraphBatch([graph]))

    def test_wrong_mask_count(self, graph):
        model = GNN("gcn", "node", 6, 8, 2, num_layers=3, rng=0)
        with pytest.raises(ModelError):
            model.forward_graph(graph, edge_masks=[Tensor(np.ones(10))])

    def test_pool_variants_differ(self, graph):
        outs = {}
        for pool in ("sum", "mean", "max"):
            model = GNN("gcn", "graph", 6, 8, 2, pool=pool, rng=0)
            outs[pool] = model.forward_graph(graph).numpy()
        assert not np.allclose(outs["sum"], outs["mean"])
        assert not np.allclose(outs["mean"], outs["max"])


class TestInference:
    def test_predict_proba_normalized(self, graph):
        model = GNN("gcn", "node", 6, 8, 2, rng=0)
        proba = model.predict_proba(graph)
        assert proba.shape == (4, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_predict_matches_proba(self, graph):
        model = GNN("gcn", "node", 6, 8, 2, rng=0)
        assert np.array_equal(model.predict(graph), model.predict_proba(graph).argmax(axis=1))

    def test_log_prob_differentiable(self, graph):
        model = GNN("gcn", "node", 6, 8, 2, rng=0)
        lp = model.log_prob(graph)
        assert lp.requires_grad

    def test_node_embeddings_per_layer(self, graph):
        model = GNN("gcn", "node", 6, 8, 2, num_layers=3, rng=0)
        embs = model.node_embeddings(graph)
        assert len(embs) == 3
        assert all(e.shape == (4, 8) for e in embs)

    def test_layer_edge_count(self, graph):
        model = GNN("gcn", "node", 6, 8, 2, rng=0)
        assert model.layer_edge_count(graph) == graph.num_edges + graph.num_nodes

    def test_clone_identical(self, graph):
        model = GNN("gin", "graph", 6, 8, 2, rng=0)
        twin = model.clone()
        assert np.allclose(model.forward_graph(graph).numpy(),
                           twin.forward_graph(graph).numpy())

    def test_clone_independent(self, graph):
        model = GNN("gcn", "node", 6, 8, 2, rng=0)
        twin = model.clone()
        twin.head.weight.data += 1.0
        assert not np.allclose(model.forward_graph(graph).numpy(),
                               twin.forward_graph(graph).numpy())


class TestLayerTrimRows:
    """The rows a trimmed forward computes (``LayerTrim.rows``)."""

    def test_a_one_node_row_set_computes_two_rows(self):
        """Node 0 has no in-edges, so each trimmed layer writes only node 0.
        numpy would run a one-row product as a GEMV, whose sums differ from
        the untrimmed GEMM's, so the row set takes node 1 as well; the
        class head's layer writes every row."""
        graph = Graph(edge_index=np.array([[0, 1], [1, 2]]),
                      x=np.random.default_rng(0).normal(size=(4, 32)))
        model = build_model("gcn", "node", 32, 3, rng=0)
        model.freeze()
        kept = [np.array([2])] * 3  # node 0's self-loop: it has no in-edges
        trim = LayerTrim(kept)
        masks = [Tensor(np.ones(ids.size), requires_grad=True) for ids in kept]
        trimmed = model.forward_graph(graph, edge_masks=masks, trim=trim)
        assert [rows.tolist() for rows in trim.rows] == [[0, 1], [0, 1], [0, 1, 2, 3]]
        assert trim.row(0) == 0
        full = model.forward_graph(graph, edge_masks=[Tensor(np.ones(6))] * 3)
        assert np.array_equal(trimmed.numpy()[0], full.numpy()[0])

    def test_a_self_link_computes_two_rows(self):
        graph = Graph(edge_index=np.array([[0, 1], [1, 2]]),
                      x=np.random.default_rng(0).normal(size=(4, 8)))
        model = LinkPredictor("gcn", 8, 16, rng=0)
        # Node 2's hop trim: 1 -> 2 and the loops of nodes 0..2, then 1..2, then 2.
        trim = LayerTrim([np.array([0, 1, 2, 3, 4]), np.array([0, 1, 3, 4]), np.array([1, 4])])
        masks = [Tensor(np.ones(ids.size)) for ids in trim.layer_edges]
        logit = model.link_logits(graph, np.array([[2, 2]]), edge_masks=masks, trim=trim)
        assert trim.rows[-1].tolist() == [0, 2]
        full = model.link_logits(graph, np.array([[2, 2]]), edge_masks=[Tensor(np.ones(6))] * 3)
        assert logit.numpy()[0] == full.numpy()[0]
        with pytest.raises(ModelError, match="not computed by this trim"):
            trim.row(1)

    def test_rows_are_known_once_a_forward_ran(self):
        with pytest.raises(ModelError, match="once a forward has run it"):
            LayerTrim([np.arange(3)]).rows
