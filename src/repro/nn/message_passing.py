"""Message-passing base layer with per-layer-edge mask support.

The paper's Eq. (6) rewrites message calculation as

    m_ij^l = MSG(h_i^{l-1}, h_j^{l-1}, e_ij^l) * omega[e_ij^l]

i.e. every layer edge carries a scalar multiplier. All convolutions in this
package therefore accept an optional ``edge_mask`` tensor applied to
messages *before* aggregation. Each conv has one masked forward body,
``message_parts → propagate → update``: the Revelio mask loop records it
on the tape, and the perturbation explainers run ``B`` masked forwards
through it at once, on ``(N, B, F)`` states under ``no_grad``.

Layer-edge convention
---------------------
GNN layers pass a node's own representation forward as well (GCN's
renormalized self-loop, GIN's ``(1+eps)·h_j`` term, GAT's self-attention).
Flow-based explanation must treat these self-contributions as first-class
layer edges — the paper's qualitative results (Tables VI/VII) contain flows
such as ``31→31→31→28``. We therefore define the layer-edge id space as::

    ids [0, E)      the graph's directed data edges, in edge_index order
    ids [E, E+N)    one self-loop per node, id E+v for node v

Every conv consumes masks of length ``E + N`` in this order, and
:mod:`repro.flows` enumerates flows over the same augmented edge set.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Module, Tensor, propagate
from ..errors import ShapeError
from ..sparse import edge_cache

# The layer-edge id helpers live with the sparse core (repro.graph builds
# scatter caches from them without importing repro.nn); re-exported here
# because this module documents — and historically owned — the convention.
from ..sparse.structure import augmented_edges as augment_edges  # noqa: F401
from ..sparse.structure import num_layer_edges  # noqa: F401

__all__ = ["GraphConv", "augment_edges", "num_layer_edges"]


class GraphConv(Module):
    """Base class for message-passing layers.

    Every layer shares the signature::

        forward(x, edge_index, num_nodes, edge_mask=None, cache=None,
                structural=False) -> Tensor

    where ``edge_mask`` (if given) is a :class:`Tensor` of shape
    ``(E + N,)`` or ``(E + N, 1)`` holding a multiplier per layer edge in
    the convention documented above, and ``cache`` is an optional
    :class:`~repro.sparse.GraphSparseCache` whose compiled plans back
    every gather/scatter in the layer (forward and adjoint). When omitted
    the layer fetches one from the identity-keyed
    :func:`~repro.sparse.edge_cache` memo, so training loops that pass
    the same ``edge_index`` array each epoch never recompile. A
    :meth:`~repro.sparse.GraphSparseCache.restrict` sub-cache runs the
    layer over its kept layer edges only, reading and writing the rows it
    renumbers; the mask then has one entry per kept edge, in id order.

    The same body runs ``B`` stacked forwards at once (the tape-free
    :meth:`GNN.forward_masked_batch <repro.nn.GNN.forward_masked_batch>`):
    ``x`` is then ``(N, B, F)`` — ``(N, 1, F)`` when the features are
    shared, so the projection runs once — and ``edge_mask`` is
    ``(E + N, B)``, one column per forward. With ``structural=True`` a
    binary mask removes edges instead of down-weighting messages: GCN
    renormalizes over the kept degree and GAT's attention over the kept
    in-edges, as ``Graph.with_edges`` would.

    Subclasses split the layer around the Eq. (6) hook point:
    :meth:`message_parts` returns the mask-independent ``(h, coeff)`` of
    ``m = h[src] · coeff``, :func:`~repro.autograd.propagate` masks and
    aggregates the messages as one tape node, and :meth:`update` maps the
    aggregate to the layer output. :meth:`forward_unmasked` may replace
    the edge-wise path for unmasked ``(N, F)`` states.
    """

    #: Whether :meth:`update` multiplies the aggregate by a weight (GIN's
    #: MLP): its adjoint then has the layer's input width, which is exact
    #: only over the untrimmed rows, so a row-trimmed forward
    #: (:class:`~repro.nn.LayerTrim`) writes every row of such a layer.
    dense_update = False

    def message_parts(self, x: Tensor, cache,
                      keep: np.ndarray | None = None) -> tuple[Tensor, Tensor | None]:
        """``(h, coeff)``: the layer's messages are ``h[src] · coeff``.

        ``keep`` is a structural 0/1 mask, ``(A, B)`` or ``(A, 1)``:
        ``coeff`` is then computed on the kept edges only.
        """
        raise NotImplementedError

    def update(self, aggregated: Tensor) -> Tensor:
        """The layer output from its ``(N, ...)`` aggregated messages."""
        raise NotImplementedError

    def forward_unmasked(self, x: Tensor, cache) -> Tensor:
        """The layer without a mask (training, plain inference)."""
        h, coeff = self.message_parts(x, cache)
        return self.update(propagate(h, cache, coeff))

    def forward(self, x: Tensor, edge_index: np.ndarray, num_nodes: int,
                edge_mask: Tensor | None = None, cache=None,
                structural: bool = False) -> Tensor:
        if cache is None:
            cache = edge_cache(edge_index, num_nodes)
        if edge_mask is None and x.ndim == 2 and not cache.renumbered:
            return self.forward_unmasked(x, cache)
        keep = None
        if edge_mask is not None:
            edge_mask = self._check_mask(edge_mask, edge_index.shape[1], num_nodes,
                                         cache.src.shape[0])
            keep = edge_mask.data if structural else None
        h, coeff = self.message_parts(x, cache, keep)
        return self.update(propagate(h, cache, coeff, edge_mask))

    def _check_mask(self, edge_mask: Tensor | None, num_edges: int, num_nodes: int,
                    num_kept: int | None = None) -> Tensor | None:
        """Validate a mask against the layer's edge set.

        ``num_kept`` is the layer-edge count a restricted cache (the
        flow-trimmed forward, :meth:`GraphSparseCache.restrict
        <repro.sparse.GraphSparseCache.restrict>`) runs over; ``None``
        means all ``E + N``.
        """
        if edge_mask is None:
            return None
        space = num_layer_edges(num_edges, num_nodes)
        expected = space if num_kept is None else num_kept
        if edge_mask.ndim == 1:
            edge_mask = edge_mask.reshape(-1, 1)
        if edge_mask.shape[0] != expected:
            kept = f"{expected} kept of " if expected != space else ""
            raise ShapeError(
                f"edge mask has {edge_mask.shape[0]} entries, expected {expected} "
                f"({kept}{num_edges} data edges + {num_nodes} self-loops)"
            )
        return edge_mask
