"""Aggregation: row format, plan-order sums and failure-path behavior."""

from repro.runner import ExperimentPlan, JobSpec, aggregate_experiment


def _fidelity_plan():
    meta = {"dataset": "tree_cycles", "conv": "gcn", "mode": "factual",
            "sparsities": [0.5, 0.8], "num_instances": 4,
            "methods": ["gradcam", "revelio"]}
    jobs = []
    for method in meta["methods"]:
        for ci in range(2):
            jobs.append(JobSpec(
                id=f"fidelity:tree_cycles:gcn:factual:{method}:{ci:03d}",
                kind="fidelity_chunk",
                payload={"method": method, "chunk": ci,
                         "instances": [2 * ci, 2 * ci + 1]}))
    return ExperimentPlan(artifact="fidelity", meta=meta, jobs=jobs)


def _ok(job_id, result):
    return {"id": job_id, "status": "ok", "attempt": 1, "seconds": 0.1,
            "result": result}


class TestAggregateFidelity:
    def test_weighted_mean_over_chunks(self):
        plan = _fidelity_plan()
        records = {
            plan.jobs[0].id: _ok(plan.jobs[0].id,
                                 {"method": "gradcam", "n": 2, "values": [0.1, 0.2]}),
            plan.jobs[1].id: _ok(plan.jobs[1].id,
                                 {"method": "gradcam", "n": 2, "values": [0.3, 0.4]}),
            plan.jobs[2].id: _ok(plan.jobs[2].id,
                                 {"method": "revelio", "n": 2, "values": [0.5, 0.5]}),
            plan.jobs[3].id: _ok(plan.jobs[3].id,
                                 {"method": "revelio", "n": 2, "values": [0.5, 0.5]}),
        }
        out = aggregate_experiment(plan, records)
        assert abs(out["curves"]["gradcam"][0.5] - 0.2) < 1e-12
        assert abs(out["curves"]["gradcam"][0.8] - 0.3) < 1e-12
        assert out["rows"][0].startswith("method")
        assert len(out["rows"]) == 3
        assert out["failures"] == {}
        assert out["jobs"] == {"total": 4, "ok": 4, "failed": 0}

    def test_partial_failure_aggregates_survivors(self):
        plan = _fidelity_plan()
        records = {
            plan.jobs[0].id: _ok(plan.jobs[0].id,
                                 {"method": "gradcam", "n": 2, "values": [0.1, 0.2]}),
            plan.jobs[1].id: {"id": plan.jobs[1].id, "status": "failed",
                              "attempt": 2, "seconds": 0.1,
                              "error": {"type": "ValueError", "message": "nan"}},
            plan.jobs[2].id: _ok(plan.jobs[2].id,
                                 {"method": "revelio", "n": 2, "values": [0.5, 0.6]}),
            plan.jobs[3].id: _ok(plan.jobs[3].id,
                                 {"method": "revelio", "n": 2, "values": [0.5, 0.6]}),
        }
        out = aggregate_experiment(plan, records)
        # gradcam falls back to its surviving chunk's mean
        assert abs(out["curves"]["gradcam"][0.5] - 0.1) < 1e-12
        assert out["failures"]["gradcam"][0]["error"]["type"] == "ValueError"
        assert out["jobs"]["failed"] == 1

    def test_method_with_all_chunks_failed_omitted(self):
        plan = _fidelity_plan()
        records = {
            plan.jobs[2].id: _ok(plan.jobs[2].id,
                                 {"method": "revelio", "n": 2, "values": [0.5, 0.6]}),
            plan.jobs[3].id: _ok(plan.jobs[3].id,
                                 {"method": "revelio", "n": 2, "values": [0.5, 0.6]}),
        }
        out = aggregate_experiment(plan, records)
        assert "gradcam" not in out["curves"]
        assert "revelio" in out["curves"]
        # missing records (never ran — e.g. killed before dispatch) reported
        assert all(f["error"]["type"] == "Missing"
                   for f in out["failures"]["gradcam"])

    def test_row_format(self):
        plan = _fidelity_plan()
        records = {j.id: _ok(j.id, {"method": j.payload["method"], "n": 2,
                                    "values": [0.1234, -0.5678]})
                   for j in plan.jobs}
        out = aggregate_experiment(plan, records)
        assert out["rows"][0] == "method         s=0.5  s=0.8"
        assert out["rows"][1] == "gradcam        +0.123  -0.568"


class TestAggregateAucRuntime:
    def test_auc_mean_in_instance_order(self):
        meta = {"dataset": "tree_cycles", "conv": "gcn", "mode": "factual",
                "num_instances": 4, "methods": ["gradcam"]}
        jobs = [JobSpec(id=f"auc:x:{ci}", kind="auc_chunk",
                        payload={"method": "gradcam", "chunk": ci})
                for ci in range(2)]
        plan = ExperimentPlan(artifact="auc", meta=meta, jobs=jobs)
        records = {
            jobs[0].id: _ok(jobs[0].id, {"method": "gradcam", "n": 2,
                                         "values": [1.0, 0.5]}),
            jobs[1].id: _ok(jobs[1].id, {"method": "gradcam", "n": 2,
                                         "values": [0.5]}),  # one degenerate skip
        }
        out = aggregate_experiment(plan, records)
        assert abs(out["auc"]["gradcam"] - (1.0 + 0.5 + 0.5) / 3) < 1e-12
        assert out["num_instances"] == 4

    def test_auc_method_without_defined_auc_is_a_failure(self):
        meta = {"dataset": "tree_cycles", "conv": "gcn", "mode": "factual",
                "num_instances": 2, "methods": ["gradcam", "revelio"]}
        jobs = [JobSpec(id=f"auc:x:{m}:000", kind="auc_chunk",
                        payload={"method": m, "chunk": 0})
                for m in meta["methods"]]
        plan = ExperimentPlan(artifact="auc", meta=meta, jobs=jobs)
        records = {
            jobs[0].id: _ok(jobs[0].id, {"method": "gradcam", "n": 2,
                                         "values": [0.75]}),
            jobs[1].id: _ok(jobs[1].id, {"method": "revelio", "n": 2,
                                         "values": []}),  # every instance degenerate
        }
        out = aggregate_experiment(plan, records)
        assert out["auc"] == {"gradcam": 0.75}
        [failure] = out["failures"]["revelio"]
        assert failure["error"]["type"] == "EvaluationError"
        assert "no instance produced a defined AUC" in failure["error"]["message"]
        assert "gradcam" not in out["failures"]

    def test_runtime_details(self):
        meta = {"dataset": "tree_cycles", "conv": "gcn",
                "num_instances": 4, "methods": ["pgexplainer"]}
        jobs = [JobSpec(id="rt:0", kind="runtime_chunk",
                        payload={"method": "pgexplainer", "chunk": 0})]
        plan = ExperimentPlan(artifact="runtime", meta=meta, jobs=jobs)
        records = {"rt:0": _ok("rt:0", {"method": "pgexplainer", "n": 2,
                                        "per_instance": [0.2, 0.4],
                                        "total_seconds": 0.65,
                                        "train_seconds": 1.5})}
        out = aggregate_experiment(plan, records)
        assert abs(out["mean_seconds"]["pgexplainer"] - 0.3) < 1e-12
        assert out["details"]["pgexplainer"]["train_seconds"] == 1.5
        assert "(train 1.5)" in out["rows"][0]
