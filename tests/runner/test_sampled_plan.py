"""plan_sampled_explain: typed-target sharding, JSON codec, executor."""

import json

import pytest

from repro.errors import ExplainerError, RunnerError
from repro.explain import ExplainTarget
from repro.runner import plan_sampled_explain
from repro.runner.execute import execute_job
from repro.runner.plan import TARGET_MARKER, JobSpec


class TestPlanner:
    def test_shards_typed_targets(self):
        plan = plan_sampled_explain("cora", "gcn", "gradcam",
                                    [ExplainTarget.node(0), ExplainTarget.node(4),
                                     ExplainTarget.link(1, 2), ExplainTarget.node(9),
                                     ExplainTarget.node(11)],
                                    scale=0.2, chunk_size=2)
        assert plan.artifact == "sampled_explain"
        assert [j.id for j in plan.jobs] == [
            f"sampled:cora:gcn:gradcam:factual:{i:03d}" for i in range(3)]
        flat = [t for j in plan.jobs for t in j.payload["targets"]]
        assert flat == [ExplainTarget.node(0), ExplainTarget.node(4),
                        ExplainTarget.link(1, 2), ExplainTarget.node(9),
                        ExplainTarget.node(11)]
        assert plan.meta["num_targets"] == 5
        assert all(j.kind == "sampled_explain_chunk" for j in plan.jobs)

    def test_bare_int_target_names_node_constructor(self):
        with pytest.raises(ExplainerError, match=r"ExplainTarget\.node\(9\)"):
            plan_sampled_explain("cora", "gcn", "gradcam",
                                 [ExplainTarget.node(4), 9], scale=0.2)

    def test_seeds_are_stable_and_distinct(self):
        targets = [ExplainTarget.node(i) for i in range(6)]
        a = plan_sampled_explain("cora", "gcn", "gradcam", targets,
                                 scale=0.2, chunk_size=2)
        b = plan_sampled_explain("cora", "gcn", "gradcam", targets,
                                 scale=0.2, chunk_size=2)
        assert [j.seed for j in a.jobs] == [j.seed for j in b.jobs]
        assert len({j.seed for j in a.jobs}) == len(a.jobs)

    def test_validation(self):
        with pytest.raises(RunnerError, match="at least one target"):
            plan_sampled_explain("cora", "gcn", "gradcam", [])
        with pytest.raises(RunnerError, match="chunk_size"):
            plan_sampled_explain("cora", "gcn", "gradcam", [ExplainTarget.node(0)],
                                 chunk_size=0)
        with pytest.raises(RunnerError, match="node or link"):
            plan_sampled_explain("cora", "gcn", "gradcam",
                                 [ExplainTarget.graph(0)])


class TestTargetCodec:
    def test_jobspec_json_round_trip(self):
        plan = plan_sampled_explain("cora", "gcn", "gradcam",
                                    [ExplainTarget.node(3), ExplainTarget.link(1, 2)],
                                    scale=0.2)
        for job in plan.jobs:
            wire = json.loads(json.dumps(job.to_dict()))
            back = JobSpec.from_dict(wire)
            assert back.payload["targets"] == job.payload["targets"]
            assert all(isinstance(t, ExplainTarget)
                       for t in back.payload["targets"])
            assert back.seed == job.seed and back.id == job.id

    def test_marker_survives_nesting(self):
        spec = JobSpec(id="x", kind="k", payload={
            "deep": {"targets": [ExplainTarget.node(1)]},
            "plain": [1, 2, {"a": 3}],
        })
        back = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back.payload["deep"]["targets"] == [ExplainTarget.node(1)]
        assert back.payload["plain"] == [1, 2, {"a": 3}]
        assert TARGET_MARKER in json.dumps(spec.to_dict())


class TestExecutor:
    def test_chunk_executor_streams_targets(self):
        plan = plan_sampled_explain("cora", "gcn", "gradcam",
                                    [ExplainTarget.node(i) for i in (5, 9, 14)],
                                    scale=0.12, chunk_size=8)
        (job,) = plan.jobs
        result = execute_job(job)
        assert result["n"] == 3
        assert [r["target"] for r in result["rows"]] == [
            {"kind": "node", "ids": [5]}, {"kind": "node", "ids": [9]},
            {"kind": "node", "ids": [14]}]
        for row in result["rows"]:
            assert row["num_nodes"] >= 1
            assert len(row["top_edges"]) == len(row["top_scores"])
        # Determinism: the checksum is a pure function of the job.
        assert execute_job(job)["checksum"] == result["checksum"]
