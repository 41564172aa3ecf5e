"""repro — reproduction of *Revelio: Revealing Important Message Flows in
Graph Neural Networks* (He, King & Huang, ICDE 2025).

Quickstart
----------
>>> from repro import load_dataset, get_model, Revelio
>>> model, dataset, _ = get_model("ba_shapes", "gcn", scale=0.25)
>>> explainer = Revelio(model, epochs=200)
>>> node = int(dataset.motif_nodes[0])
>>> explanation = explainer.explain(dataset.graph, target=node)
>>> explanation.top_flows(5)          # the most important message flows
>>> explanation.top_edges(6)          # transferred edge importance

Package map
-----------
``repro.core``      Revelio (the paper's contribution)
``repro.explain``   nine baselines + explainer framework
``repro.flows``     message-flow enumeration / incidence / patterns
``repro.nn``        GNN layers, models, training, pretrained-model zoo
``repro.datasets``  paper benchmarks (synthetics exact; surrogates offline)
``repro.eval``      fidelity / AUC / timing + per-artifact experiment runners
``repro.graph``     graph containers and utilities
``repro.autograd``  the numpy autodiff substrate
``repro.viz``       flow tables, ASCII and curve rendering
``repro.checks``    repo-aware static analysis (pure stdlib)

The top-level namespace is a lazy façade (PEP 562): the numeric
subpackages import on first attribute access, so stdlib-only consumers
— ``repro.checks`` and its whole-program lint above all — can run on a
machine without numpy installed. ``repro.errors`` and ``repro.version``
stay eager; they are dependency-free and everything assumes them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ReproError
from .version import __version__

if TYPE_CHECKING:
    from .core import Revelio
    from .datasets import DATASET_NAMES, load_dataset
    from .explain import Explainer, Explanation, make_explainer
    from .flows import (FlowIndex, cached_enumerate_flows, count_flows,
                        enumerate_flows, match_flows)
    from .graph import Graph, GraphBatch
    from .nn import GNN, Trainer, build_model, get_model
    from .obs.counters import PERF, perf_snapshot

__all__ = [
    "__version__",
    "Revelio",
    "Explainer",
    "Explanation",
    "make_explainer",
    "FlowIndex",
    "enumerate_flows",
    "cached_enumerate_flows",
    "count_flows",
    "match_flows",
    "PERF",
    "perf_snapshot",
    "Graph",
    "GraphBatch",
    "GNN",
    "build_model",
    "get_model",
    "Trainer",
    "load_dataset",
    "DATASET_NAMES",
    "ReproError",
]

#: Re-exported name -> defining submodule, resolved on first access.
_EXPORTS = {
    "Revelio": "repro.core",
    "DATASET_NAMES": "repro.datasets",
    "load_dataset": "repro.datasets",
    "Explainer": "repro.explain",
    "Explanation": "repro.explain",
    "make_explainer": "repro.explain",
    "FlowIndex": "repro.flows",
    "cached_enumerate_flows": "repro.flows",
    "count_flows": "repro.flows",
    "enumerate_flows": "repro.flows",
    "match_flows": "repro.flows",
    "Graph": "repro.graph",
    "GraphBatch": "repro.graph",
    "PERF": "repro.obs.counters",
    "perf_snapshot": "repro.obs.counters",
    "GNN": "repro.nn",
    "Trainer": "repro.nn",
    "build_model": "repro.nn",
    "get_model": "repro.nn",
}


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value  # cache: __getattr__ runs once per name
        return value
    # PEP 562 contract: __getattr__ must raise AttributeError, not a
    # ReproError — hasattr()/dir() tooling depends on the builtin type.
    raise AttributeError(  # repro: noqa[RPR012]
        f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(__all__) | set(globals()))
