"""Explanation methods: the framework, Revelio's baselines, and a registry."""

from __future__ import annotations

from ..errors import ExplainerError
from ..nn.models import GNN
from .base import MODES, Explainer, Explanation
from .batch import explain_instances
from .target import ExplainTarget, as_node_id
from .deeplift import DeepLIFT
from .flowx import FlowX
from .gnn_lrp import GNNLRP
from .gnnexplainer import GNNExplainer
from .gradcam import GradCAM
from .graphmask import GraphMask
from .group import GroupExplainer
from .io import save_explanation
from .pgexplainer import PGExplainer
from .pgm_explainer import PGMExplainer
from .random_baseline import RandomExplainer
from .relevant_walks import RelevantWalks
from .subgraphx import SubgraphX

__all__ = [
    "Explainer",
    "Explanation",
    "ExplainTarget",
    "as_node_id",
    "MODES",
    "GradCAM",
    "DeepLIFT",
    "GNNExplainer",
    "GroupExplainer",
    "PGExplainer",
    "GraphMask",
    "PGMExplainer",
    "SubgraphX",
    "GNNLRP",
    "FlowX",
    "RelevantWalks",
    "RandomExplainer",
    "make_explainer",
    "save_explanation",
    "explain_instances",
]

# Registry of baseline constructors by paper name. Revelio itself lives in
# repro.core but is registered here too for uniform harness access.
EXPLAINERS: dict[str, type[Explainer]] = {
    "gradcam": GradCAM,
    "deeplift": DeepLIFT,
    "gnnexplainer": GNNExplainer,
    "pgexplainer": PGExplainer,
    "graphmask": GraphMask,
    "pgm_explainer": PGMExplainer,
    "subgraphx": SubgraphX,
    "gnn_lrp": GNNLRP,
    "flowx": FlowX,
    "relevant_walks": RelevantWalks,
    "random": RandomExplainer,
}


def _resolve_explainer_class(name: str) -> type[Explainer]:
    key = name.lower().replace("-", "_")
    if key == "revelio":
        from ..core import Revelio

        return Revelio
    if key == "revelio_topk":
        from ..core import TopKRevelio

        return TopKRevelio
    if key not in EXPLAINERS:
        available = sorted(EXPLAINERS) + ["revelio", "revelio_topk"]
        raise ExplainerError(f"unknown explainer {name!r}; available: {available}")
    return EXPLAINERS[key]


def make_explainer(name: str, model: GNN, **kwargs) -> Explainer:
    """Instantiate an explainer by registry name.

    ``"revelio"`` and ``"revelio_topk"`` resolve to the core package;
    everything else comes from :data:`EXPLAINERS`. All configuration after
    ``(name, model)`` is keyword-only; a keyword the method's constructor
    does not accept raises :class:`~repro.errors.ReproError` naming the
    nearest valid option instead of a bare ``TypeError``.
    """
    import inspect

    from ..execution import reject_unknown_kwargs

    cls = _resolve_explainer_class(name)
    params = inspect.signature(cls.__init__).parameters
    if not any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        valid = tuple(p for p in params if p not in ("self", "model"))
        unknown = {k: v for k, v in kwargs.items() if k not in valid}
        reject_unknown_kwargs(f"make_explainer({name!r})", unknown, valid)
    return cls(model, **kwargs)
