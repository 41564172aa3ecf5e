"""Fig. 6: qualitative visualization of explanatory subgraphs.

Renders, for one BA-Shapes node instance (GCN) and one BA-2motifs graph
instance (GIN), each method's top explanatory edges against the planted
house motif — the text counterpart of the paper's node-link plots,
including the "missed motif edge" markers (dashed red in the paper).
"""

from __future__ import annotations

import pytest

from repro.eval import Instance, build_instances
from repro.eval.experiments import method_config
from repro.explain import GroupExplainer, make_explainer
from repro.nn.zoo import get_model
from repro.viz import explanation_summary, render_explanation

from conftest import write_result

METHODS = ("gradcam", "gnnexplainer", "gnn_lrp", "flowx", "revelio")
CASES = (("ba_shapes", "gcn"), ("ba_2motifs", "gin"))


@pytest.mark.parametrize("dataset_name,conv", CASES)
def test_fig6_case(benchmark, dataset_name, conv):
    """Render one Fig. 6 panel set (all methods, one instance)."""
    model, dataset, _ = get_model(dataset_name, conv)
    instances = build_instances(dataset, 1, seed=0, motif_only=True,
                                correct_only=True, model=model)
    if not instances:
        instances = build_instances(dataset, 1, seed=0, motif_only=True)
    inst = instances[0]

    def explain_all():
        out = []
        for method in METHODS:
            explainer = make_explainer(method, model, seed=0,
                                       **method_config(method, 0.1))
            if isinstance(explainer, GroupExplainer):
                explainer.fit([explainer.fit_instance(inst.graph, inst.target)])
            out.append(explainer.explain(inst.graph, target=inst.target))
        return out

    explanations = benchmark.pedantic(explain_all, rounds=1, iterations=1)
    rows = []
    for exp in explanations:
        rows.append(render_explanation(inst.graph, exp, k=10))
        summary = explanation_summary(inst.graph, exp, k=10)
        rows.append(f"-> motif coverage: {summary['top_in_motif']}/{summary['motif_size']} "
                    f"ground-truth edges in top-10")
        rows.append("")
    write_result(f"fig6_visualization_{dataset_name}_{conv}", rows,
                 header=f"Fig. 6 — explanatory subgraphs ({dataset_name}, {conv.upper()})")
