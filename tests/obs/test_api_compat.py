"""Keyword-only API: removed 1.x shapes fail typed, unknown kwargs explain."""

import asyncio
import importlib

import numpy as np
import pytest

from repro.core import LinkRevelio
from repro.errors import ExplainerError, ReproError
from repro.eval import ExperimentConfig, run_fidelity_experiment
from repro.execution import (
    ExecutionConfig,
    reject_driver_kwargs,
    reject_unknown_kwargs,
    resolve_trace_path,
)
from repro.explain import make_explainer
from repro.explain.batch import explain_instances
from repro.graph import Graph, extract_receptive_field
from repro.nn import LinkPredictor
from repro.serve import ServeApp, ServeConfig

from tests.serve.conftest import echo_runner, http_request

CFG = ExperimentConfig(scale=0.12, num_instances=2, effort=0.03, seed=0)


class HTTPStatus(Exception):
    """A served answer, raised so a status sits beside the typed errors."""


def _path_graph():
    return Graph(edge_index=np.array([[0, 1, 2], [1, 2, 3]]),
                 x=np.ones((4, 6)))


def _bare_int_target(request):
    model = request.getfixturevalue("node_model")
    graph = request.getfixturevalue("mini_ba_shapes").graph
    make_explainer("gradcam", model).explain(graph, 4)


def _tuple_target(request):
    model = request.getfixturevalue("node_model")
    graph = request.getfixturevalue("mini_ba_shapes").graph
    make_explainer("gradcam", model).explain(graph, (3, 7))


def _link_positional_endpoints(request):
    LinkRevelio(LinkPredictor("gcn", 6, 8, rng=0)).explain(_path_graph(), 1, 2)


def _flat_jobs(request):
    run_fidelity_experiment("tree_cycles", "gcn", ("gradcam",),
                            config=CFG, jobs=2)


def _too_many_positionals(request):
    run_fidelity_experiment("tree_cycles", "gcn", ("gradcam",),
                            "factual", CFG)


def _integer_wire_target(request):
    async def main():
        app = ServeApp(ServeConfig(port=0), batch_runner=echo_runner)
        await app.start()
        try:
            return await http_request(app.port, "/explain", "POST", body={
                "dataset": "ba_shapes", "model": "gcn", "explainer": "flowx",
                "target": 3})
        finally:
            await app.shutdown()

    status, payload, _ = asyncio.run(main())
    raise HTTPStatus(f"{status} {payload['error']['message']}")


def _instrumentation_import(request):
    importlib.import_module("repro.instrumentation")


def _subgraph_tuple_unpack(request):
    node_ids, edge_mask = extract_receptive_field(_path_graph(), [3], 2)


#: Each 1.x shape deleted in 2.0, and the typed failure that replaced it.
REMOVED_SHAPES = {
    "bare-int-target": (_bare_int_target, ExplainerError,
                        r"pass ExplainTarget\.node\(4\)"),
    "tuple-target": (_tuple_target, ExplainerError,
                     r"pass ExplainTarget\.link\(3, 7\)"),
    "link-positional-endpoints": (_link_positional_endpoints, ExplainerError,
                                  r"pass ExplainTarget\.link\(u, v\)"),
    "flat-jobs": (_flat_jobs, ReproError,
                  r"execution=ExecutionConfig\(jobs=\.\.\.\)"),
    "too-many-positionals": (_too_many_positionals, TypeError,
                             r"takes 3 positional arguments but 5 were given"),
    "integer-wire-target": (_integer_wire_target, HTTPStatus,
                            r'^400 .*send \{"node": 3\}'),
    "instrumentation-import": (_instrumentation_import, ModuleNotFoundError,
                               r"repro\.instrumentation"),
    "subgraph-tuple-unpack": (_subgraph_tuple_unpack, TypeError,
                              r"non-iterable SampledSubgraph"),
}


@pytest.mark.parametrize("shape", sorted(REMOVED_SHAPES))
def test_removed_shape_fails_typed(shape, request):
    call, error, message = REMOVED_SHAPES[shape]
    with pytest.raises(error, match=message):
        call(request)


class TestLegacyKwargs:
    def test_flat_jobs_kwarg_names_execution_config(self):
        with pytest.raises(ReproError, match=r"execution=ExecutionConfig\(jobs"):
            run_fidelity_experiment("tree_cycles", "gcn", ("gradcam",),
                                    config=CFG, jobs=2, resume="fid.jsonl")

    def test_flat_kwarg_rejected_beside_execution(self):
        with pytest.raises(ReproError, match=r"ExecutionConfig\(retries"):
            run_fidelity_experiment("tree_cycles", "gcn", ("gradcam",),
                                    config=CFG, execution=ExecutionConfig(jobs=1),
                                    retries=3)

    def test_positional_mode_and_config_are_type_error(self):
        with pytest.raises(TypeError, match="positional arguments"):
            run_fidelity_experiment("tree_cycles", "gcn", ("gradcam",),
                                    "counterfactual", CFG,
                                    execution=ExecutionConfig(jobs=1))

    def test_too_many_positionals_is_type_error(self):
        with pytest.raises(TypeError,
                           match="takes 3 positional arguments but 6 were given"):
            run_fidelity_experiment("tree_cycles", "gcn", ("gradcam",),
                                    "factual", CFG, "extra")

    def test_explain_instances_positional_mode_is_type_error(self):
        with pytest.raises(TypeError, match="positional arguments"):
            explain_instances(None, [], "factual")


class TestUnknownKwargs:
    def test_driver_suggests_nearest_option(self):
        with pytest.raises(ReproError, match="did you mean 'jobs'"):
            run_fidelity_experiment("tree_cycles", "gcn", ("gradcam",),
                                    config=CFG, job=2)

    def test_driver_lists_options_when_no_match(self):
        with pytest.raises(ReproError, match="valid options"):
            run_fidelity_experiment("tree_cycles", "gcn", ("gradcam",),
                                    config=CFG, zzz=1)

    def test_make_explainer_suggests_constructor_kwarg(self):
        with pytest.raises(ReproError, match="did you mean 'epochs'"):
            make_explainer("gnnexplainer", None, epoch=5)

    def test_explain_instances_suggests_mode(self):
        with pytest.raises(ReproError, match="did you mean 'mode'"):
            explain_instances(None, [], mod="factual")


class TestHelpers:
    def test_reject_unknown_noop_on_empty(self):
        reject_unknown_kwargs("f", {}, ("a", "b"))  # must not raise

    def test_reject_driver_kwargs_noop_on_empty(self):
        reject_driver_kwargs("f", {}, ("mode", "config", "execution"))

    def test_resolve_trace_path(self, tmp_path):
        assert resolve_trace_path(None, None, "t.jsonl") is None
        assert resolve_trace_path(False, None, "t.jsonl") is None
        assert str(resolve_trace_path("runs/x.jsonl", None, "t.jsonl")) == \
            "runs/x.jsonl"
        journal = str(tmp_path / "runs" / "fid.jsonl")
        resolved = resolve_trace_path(True, journal, "t.jsonl")
        assert resolved == tmp_path / "runs" / "t.jsonl"
        assert resolve_trace_path(True, None, "t.jsonl").name == "t.jsonl"

    def test_execution_config_workers(self):
        assert ExecutionConfig().workers == 1
        assert ExecutionConfig(jobs=3).workers == 3
