"""SubgraphX (Yuan et al., 2021): MCTS subgraph search with Shapley scoring.

Searches connected node coalitions with Monte-Carlo tree search; a
coalition's reward is a sampled Shapley value of retaining exactly that
subgraph's nodes. The best coalition of bounded size is the explanation;
edges receive graded scores from MCTS visit statistics so the fidelity
protocol (which needs a full edge ranking) can sweep sparsity levels.

This is by far the most expensive baseline (the paper caps it to four
datasets / three sparsity values); the ``rollouts`` and ``shapley_samples``
parameters bound the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph import Graph, SampledSubgraph
from ..nn.models import GNN
from ..rng import ensure_rng
from .base import Explainer, Explanation, check_int, check_real
from .flow_common import masked_probability_batch

__all__ = ["SubgraphX"]


@dataclass
class _TreeNode:
    """One MCTS state: a connected coalition of node ids."""

    coalition: frozenset[int]
    visits: int = 0
    total_reward: float = 0.0
    children: dict[frozenset, "_TreeNode"] = field(default_factory=dict)

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.visits if self.visits else 0.0


class SubgraphX(Explainer):
    """MCTS over connected subgraphs with sampled-Shapley rewards.

    Parameters
    ----------
    rollouts:
        MCTS iterations.
    min_nodes:
        Stop shrinking coalitions below this size.
    shapley_samples:
        Monte-Carlo samples per coalition evaluation.
    exploration:
        UCB exploration constant.

    Each coalition's Shapley samples are scored in one structural masked
    forward (binary edge masks reproduce edge removal exactly).
    """

    name = "subgraphx"

    def __init__(self, model: GNN, rollouts: int = 20, min_nodes: int = 4,
                 shapley_samples: int = 8, exploration: float = 5.0,
                 seed: int = 0):
        check_int("rollouts", rollouts, 1)
        check_int("shapley_samples", shapley_samples, 1)
        check_real("exploration", exploration, 0)
        super().__init__(model, seed=seed)
        self.rollouts = rollouts
        self.min_nodes = min_nodes
        self.shapley_samples = shapley_samples
        self.exploration = exploration

    # ------------------------------------------------------------------
    def _explain_instance(self, context: SampledSubgraph, mode: str) -> Explanation:
        graph, target = context.subgraph, context.local_target
        protected = set() if target is None else {target}
        edge_scores, class_idx = self._search(graph, target=target, protected=protected)
        return Explanation(
            edge_scores=edge_scores,
            predicted_class=class_idx,
            method=self.name,
            mode=mode,
            meta={"params": {"rollouts": self.rollouts}},
        )

    # ------------------------------------------------------------------
    def _coalition_mask(self, graph: Graph, coalition: frozenset[int]) -> np.ndarray:
        """``(L, E+N)`` binary structural mask retaining the coalition's
        internal edges (self-loops stay on — pruned graphs keep all nodes)."""
        members = np.zeros(graph.num_nodes, dtype=bool)
        members[list(coalition)] = True
        row = np.ones(graph.num_edges + graph.num_nodes)
        row[:graph.num_edges] = (members[graph.src] & members[graph.dst]).astype(np.float64)
        return np.broadcast_to(row, (self.model.num_layers, row.shape[0]))

    def _shapley_reward(self, graph: Graph, coalition: frozenset[int],
                        class_idx: int, target: int | None,
                        rng: np.random.Generator) -> float:
        """Sampled marginal contribution of the coalition vs. random context."""
        outside = [v for v in range(graph.num_nodes) if v not in coalition]
        extras_list = []
        for _ in range(self.shapley_samples):
            if outside:
                extras_list.append(frozenset(v for v in outside if rng.random() < 0.5))
            else:
                extras_list.append(frozenset())
        baseline = 1.0 / self.model.num_classes
        rows = []
        has_without = []
        for extras in extras_list:
            rows.append(self._coalition_mask(graph, coalition | extras))
            if extras:
                rows.append(self._coalition_mask(graph, extras))
            has_without.append(bool(extras))
        probs = masked_probability_batch(self.model, graph, np.stack(rows),
                                         class_idx, target, structural=True)
        total, i = 0.0, 0
        for hw in has_without:
            with_c = probs[i]
            i += 1
            without_c = probs[i] if hw else baseline
            if hw:
                i += 1
            total += float(with_c - without_c)
        return total / self.shapley_samples

    def _neighbors(self, graph: Graph) -> list[set[int]]:
        nbrs = [set() for _ in range(graph.num_nodes)]
        for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
            nbrs[u].add(v)
            nbrs[v].add(u)
        return nbrs

    def _prune_actions(self, graph: Graph, coalition: frozenset[int],
                       nbrs: list[set[int]], protected: set[int]) -> list[frozenset[int]]:
        """Children: remove one low-degree node, keeping the coalition connected."""
        if len(coalition) <= self.min_nodes:
            return []
        degrees = {v: len(nbrs[v] & coalition) for v in coalition if v not in protected}
        if not degrees:
            return []
        candidates = sorted(degrees, key=degrees.get)[:4]
        children = []
        for v in candidates:
            reduced = coalition - {v}
            if reduced and self._is_connected(reduced, nbrs):
                children.append(frozenset(reduced))
        return children

    @staticmethod
    def _is_connected(coalition: frozenset[int], nbrs: list[set[int]]) -> bool:
        start = next(iter(coalition))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in nbrs[v] & coalition:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(coalition)

    def _search(self, graph: Graph, target: int | None,
                protected: set[int]) -> tuple[np.ndarray, int]:
        rng = ensure_rng(self.seed)
        class_idx = self.predicted_class(graph, target=target)
        nbrs = self._neighbors(graph)
        root = _TreeNode(frozenset(range(graph.num_nodes)))
        rewards: dict[frozenset, float] = {}

        def evaluate(coalition: frozenset[int]) -> float:
            if coalition not in rewards:
                rewards[coalition] = self._shapley_reward(graph, coalition, class_idx,
                                                          target, rng)
            return rewards[coalition]

        for _ in range(self.rollouts):
            path = [root]
            node = root
            while True:
                actions = self._prune_actions(graph, node.coalition, nbrs, protected)
                if not actions:
                    break
                for a in actions:
                    if a not in node.children:
                        node.children[a] = _TreeNode(a)
                # UCB selection.
                total_visits = sum(c.visits for c in node.children.values()) + 1
                def ucb(child: _TreeNode) -> float:
                    bonus = self.exploration * np.sqrt(np.log(total_visits) / (child.visits + 1))
                    return child.mean_reward + bonus
                node = max(node.children.values(), key=ucb)
                path.append(node)
                if node.visits == 0:
                    break
            reward = evaluate(node.coalition)
            for n in path:
                n.visits += 1
                n.total_reward += reward

        # Best coalition among evaluated ones (smallest size wins ties).
        best = max(rewards, key=lambda c: (rewards[c], -len(c)))
        members = np.zeros(graph.num_nodes, dtype=bool)
        members[list(best)] = True

        # Node scores from visit-weighted membership for a graded ranking.
        node_scores = np.zeros(graph.num_nodes)
        stack = [root]
        while stack:
            n = stack.pop()
            if n.visits:
                for v in n.coalition:
                    node_scores[v] += n.visits
            stack.extend(n.children.values())
        if node_scores.max() > 0:
            node_scores = node_scores / node_scores.max()
        node_scores[members] += 1.0  # best coalition dominates

        edge_scores = 0.5 * (node_scores[graph.src] + node_scores[graph.dst])
        return edge_scores, class_idx
