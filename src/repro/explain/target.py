"""The single target shape of the explanation API.

Every explanation entry point — :meth:`Explainer.explain
<repro.explain.base.Explainer.explain>`, :func:`explain_instances
<repro.explain.batch.explain_instances>`, the serving protocol's
``ExplainRequest`` and the runner's ``JobSpec`` payloads — addresses *what
is being explained* with one frozen value type instead of the historical
mix of bare node ids, ``(u, v)`` endpoint tuples and task-dependent graph
indices. Three constructors cover the three message-passing tasks the
paper's §II lists:

``ExplainTarget.node(i)``
    the prediction at node ``i`` (node classification),
``ExplainTarget.link(u, v)``
    the predicted edge ``u -> v`` (link prediction),
``ExplainTarget.graph(j)``
    graph ``j`` of a multi-graph dataset (graph classification).

A bare ``int`` or ``(u, v)`` tuple is not a target: :func:`require_target`
rejects it with an :class:`~repro.errors.ExplainerError` naming the typed
constructor to call instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from ..errors import ExplainerError

__all__ = ["ExplainTarget", "as_node_id", "require_target"]

TARGET_KINDS = ("node", "link", "graph")


def _as_index(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int,)) \
            and not hasattr(value, "__index__"):
        raise ExplainerError(f"{what} must be an integer, got {value!r}")
    index = int(value)
    if index < 0:
        raise ExplainerError(f"{what} must be non-negative, got {index}")
    return index


@dataclass(frozen=True)
class ExplainTarget:
    """One explanation target: a node, a link, or a whole graph.

    Attributes
    ----------
    kind:
        ``"node"``, ``"link"`` or ``"graph"``.
    ids:
        The coordinates of the target in that kind's id space:
        ``(node,)``, ``(u, v)`` or ``(graph_index,)``.

    Frozen and hashable, so targets key caches and dedup tables directly.
    """

    kind: str
    ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise ExplainerError(
                f"unknown target kind {self.kind!r}; expected one of {TARGET_KINDS}")
        arity = 2 if self.kind == "link" else 1
        if not isinstance(self.ids, tuple) or len(self.ids) != arity \
                or not all(isinstance(i, int) and not isinstance(i, bool)
                           for i in self.ids):
            raise ExplainerError(
                f"{self.kind} target needs {arity} integer id(s), got {self.ids!r}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def node(cls, index: int) -> "ExplainTarget":
        """The prediction at node ``index`` (node classification)."""
        return cls("node", (_as_index(index, "node target"),))

    @classmethod
    def link(cls, u: int, v: int) -> "ExplainTarget":
        """The predicted link ``u -> v`` (link prediction)."""
        return cls("link", (_as_index(u, "link endpoint u"),
                            _as_index(v, "link endpoint v")))

    @classmethod
    def graph(cls, index: int = 0) -> "ExplainTarget":
        """Graph ``index`` of a multi-graph dataset (graph classification)."""
        return cls("graph", (_as_index(index, "graph target"),))

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        """The node id of a node target (raises for link/graph kinds)."""
        if self.kind != "node":
            raise ExplainerError(f"{self} is not a node target")
        return self.ids[0]

    @property
    def endpoints(self) -> tuple[int, int]:
        """``(u, v)`` of a link target (raises for node/graph kinds)."""
        if self.kind != "link":
            raise ExplainerError(f"{self} is not a link target")
        return (self.ids[0], self.ids[1])

    @property
    def graph_index(self) -> int:
        """The graph index of a graph target (raises for node/link kinds)."""
        if self.kind != "graph":
            raise ExplainerError(f"{self} is not a graph target")
        return self.ids[0]

    def describe(self) -> str:
        """Compact human/log form, e.g. ``node:412`` or ``link:3-7``."""
        return f"{self.kind}:{'-'.join(str(i) for i in self.ids)}"

    # ------------------------------------------------------------------
    # wire codec (JSON job payloads, serve requests, journals)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """JSON-serializable form, inverse of :meth:`from_wire`."""
        return {"kind": self.kind, "ids": list(self.ids)}

    @classmethod
    def from_wire(cls, payload: object) -> "ExplainTarget":
        """Decode a wire dict: ``{"kind": ..., "ids": [...]}`` or the
        shorthand forms ``{"node": i}`` / ``{"link": [u, v]}`` /
        ``{"graph": j}``."""
        if isinstance(payload, ExplainTarget):
            return payload
        if not isinstance(payload, dict):
            raise ExplainerError(
                f"explain target wire form must be an object, got "
                f"{type(payload).__name__}")
        if "kind" in payload:
            ids = payload.get("ids")
            if not isinstance(ids, (list, tuple)):
                raise ExplainerError('explain target "ids" must be a list')
            return cls(str(payload["kind"]), tuple(_as_index(i, "target id")
                                                   for i in ids))
        shorthand = {k: v for k, v in payload.items() if k in TARGET_KINDS}
        if len(shorthand) != 1:
            raise ExplainerError(
                f"explain target object must have exactly one of "
                f"{TARGET_KINDS} (or kind/ids), got {sorted(payload)}")
        kind, value = next(iter(shorthand.items()))
        if kind == "link":
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise ExplainerError('"link" target must be a [u, v] pair')
            return cls.link(value[0], value[1])
        return cls(kind, (_as_index(value, f"{kind} target"),))

    def __str__(self) -> str:
        return self.describe()


def _typed_hint(value: object, task: str) -> str:
    """The typed constructor call that replaces an untyped target."""
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return f"ExplainTarget.link({value[0]}, {value[1]})"
    if task == "link":
        return "ExplainTarget.link(u, v)"
    try:
        index = operator.index(value)
    except TypeError:
        return "ExplainTarget.node(i), ExplainTarget.link(u, v) or ExplainTarget.graph(j)"
    return f"ExplainTarget.{'node' if task == 'node' else 'graph'}({index})"


def require_target(value: object, *, task: str = "node",
                   where: str = "explain") -> "ExplainTarget | None":
    """``value`` itself when it is an :class:`ExplainTarget` or ``None``.

    Anything else (a bare node id, an ``(u, v)`` tuple) raises
    :class:`~repro.errors.ExplainerError` naming the constructor to call,
    e.g. ``pass ExplainTarget.node(4)``; ``task`` (``"node"``, ``"graph"``
    or ``"link"``) picks the constructor the hint names for a bare int.
    """
    if value is None or isinstance(value, ExplainTarget):
        return value
    raise ExplainerError(
        f"{where}: bare {type(value).__name__} targets are not accepted; "
        f"pass {_typed_hint(value, task)}")


def as_node_id(target: "ExplainTarget | None") -> int | None:
    """The node id a target addresses, or ``None`` for whole-instance
    (graph or link) targets — the helper the evaluation layer uses to
    index probability rows."""
    target = require_target(target, where="as_node_id")
    if target is None or target.kind != "node":
        return None
    return target.node_id
