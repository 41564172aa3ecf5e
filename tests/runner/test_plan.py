"""Job planning: stable ids, derived seeds, deterministic chunking."""

import pytest

from repro.errors import RunnerError
from repro.eval import ExperimentConfig
from repro.runner import JobSpec, plan_experiment
from repro.runner.plan import GROUP_FIT_METHODS, derive_seed

CFG = ExperimentConfig(scale=0.12, num_instances=8, effort=0.05,
                       sparsities=(0.5, 0.8), seed=0)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "a:b:c") == derive_seed(0, "a:b:c")

    def test_varies_with_job_and_base(self):
        seeds = {derive_seed(0, "a"), derive_seed(0, "b"), derive_seed(1, "a")}
        assert len(seeds) == 3

    def test_fits_numpy_seed_range(self):
        assert 0 <= derive_seed(12345, "fidelity:mutag:gin:factual:flowx:003") < 2**32


class TestJobSpec:
    def test_roundtrip(self):
        job = JobSpec(id="x", kind="sleep", payload={"seconds": 0.1},
                      seed=7, retries=2, timeout=1.5)
        back = JobSpec.from_dict(job.to_dict())
        assert back == job

    def test_roundtrip_through_json(self):
        import json

        job = JobSpec(id="x", kind="sleep", payload={"values": [1.0, 2.5]}, seed=7)
        back = JobSpec.from_dict(json.loads(json.dumps(job.to_dict())))
        assert back == job


class TestPlanExperiment:
    def test_plan_is_deterministic(self):
        a = plan_experiment("fidelity", "tree_cycles", "gcn",
                            ("gradcam", "revelio"), config=CFG)
        b = plan_experiment("fidelity", "tree_cycles", "gcn",
                            ("gradcam", "revelio"), config=CFG)
        assert [j.to_dict() for j in a.jobs] == [j.to_dict() for j in b.jobs]

    def test_ids_stable_and_unique(self):
        plan = plan_experiment("fidelity", "tree_cycles", "gcn",
                               ("gradcam", "revelio"), config=CFG)
        ids = [j.id for j in plan.jobs]
        assert len(set(ids)) == len(ids)
        assert ids[0] == "fidelity:tree_cycles:gcn:factual:gradcam:000"

    def test_chunks_cover_instances_exactly_once(self):
        plan = plan_experiment("fidelity", "tree_cycles", "gcn", ("gradcam",),
                               config=CFG, chunks=3)
        covered = sorted(i for j in plan.jobs for i in j.payload["instances"])
        assert covered == list(range(8))

    def test_group_fit_methods_single_chunk(self):
        plan = plan_experiment("fidelity", "tree_cycles", "gcn",
                               ("pgexplainer", "graphmask", "gradcam"), config=CFG)
        for method in GROUP_FIT_METHODS:
            jobs = plan.jobs_for_method(method)
            assert len(jobs) == 1
            assert jobs[0].payload["instances"] == list(range(8))
        assert len(plan.jobs_for_method("gradcam")) == 4

    def test_inapplicable_methods_dropped(self):
        plan = plan_experiment("fidelity", "tree_cycles", "gin",
                               ("gnn_lrp", "subgraphx", "gradcam"), config=CFG)
        assert "subgraphx" in plan.meta["methods"]  # tree_cycles allowed
        plan2 = plan_experiment("fidelity", "cora", "gcn",
                                ("subgraphx", "gradcam"), config=CFG)
        assert plan2.meta["methods"] == ["gradcam"]

    def test_effective_instances_chunked(self):
        plan = plan_experiment("auc", "tree_cycles", "gcn", ("gradcam",),
                               config=CFG, num_instances=5)
        covered = sorted(i for j in plan.jobs for i in j.payload["instances"])
        assert covered == list(range(5))
        # jobs still carry the requested count for instance-list rebuild
        assert plan.jobs[0].payload["num_instances"] == 8

    def test_unplannable_artifact(self):
        with pytest.raises(RunnerError):
            plan_experiment("table3", "tree_cycles", "gcn", ("gradcam",), config=CFG)

    def test_per_job_seeds_differ_across_chunks(self):
        plan = plan_experiment("fidelity", "tree_cycles", "gcn", ("revelio",),
                               config=CFG)
        seeds = [j.seed for j in plan.jobs]
        assert len(set(seeds)) == len(seeds)
