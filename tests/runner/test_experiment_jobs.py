"""End-to-end: one experiment path, whatever the execution options.

Pins the subsystem's central guarantee: for a fixed ``ExperimentConfig``
the aggregated rows are byte-identical whether the grid runs with no
execution options at all, inline (``jobs=1``), across worker processes,
or across workers after being killed mid-run and finished with
``--resume``. A journal written for another config is refused, and an
unknown method fails before any job runs.
"""

import multiprocessing as mp

import pytest

from repro.errors import EvaluationError, RunnerError
from repro.eval import ExecutionConfig, ExperimentConfig
from repro.eval.experiments import (
    run_auc_experiment,
    run_fidelity_experiment,
    run_runtime_experiment,
)
from repro.runner import load_journal

HAS_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="requires fork start method")

CFG = ExperimentConfig(scale=0.12, num_instances=4, effort=0.05,
                       sparsities=(0.5, 0.8), seed=0)
METHODS = ("gradcam", "revelio")


def _fidelity(jobs, resume):
    execution = ExecutionConfig(jobs=jobs, resume=resume)
    return run_fidelity_experiment("tree_cycles", "gcn", METHODS,
                                   config=CFG, execution=execution)


@needs_fork
class TestWorkerCountInvariance:
    def test_rows_byte_identical_and_resume_after_kill(self, tmp_path):
        inline = _fidelity(1, str(tmp_path / "inline.jsonl"))
        parallel = _fidelity(4, str(tmp_path / "par.jsonl"))
        assert inline["rows"] == parallel["rows"]
        assert inline["curves"] == parallel["curves"]
        assert parallel["jobs"]["failed"] == 0

        # simulate a mid-run kill: keep the first 3 journaled jobs plus a
        # torn partial line (what fsync-per-line leaves behind), then resume
        lines = (tmp_path / "par.jsonl").read_text().splitlines()
        assert len(lines) == 8  # 2 methods x 4 chunks
        killed = tmp_path / "killed.jsonl"
        killed.write_text("\n".join(lines[:3]) + "\n" + lines[3][:20])
        resumed = _fidelity(4, str(killed))
        assert resumed["rows"] == inline["rows"]
        assert resumed["curves"] == inline["curves"]

        # the resumed run only re-ran the missing jobs: journal now holds
        # 3 original + 5 fresh records, one per job id
        journal = load_journal(killed)
        assert len(journal) == 8
        assert all(r["status"] == "ok" for r in journal.values())


def _cold_caches():
    """Make every run compute its explanations (forked workers inherit caches)."""
    from repro.core.revelio import clear_explanation_cache
    from repro.explain.base import clear_context_cache
    from repro.flows import FLOW_CACHE

    clear_explanation_cache()
    FLOW_CACHE.clear()
    clear_context_cache()


TINY = ExperimentConfig(scale=0.12, num_instances=3, effort=0.05,
                        sparsities=(0.5, 0.8), seed=0)
#: artifact -> (driver, methods, result keys that must match exactly)
ARTIFACTS = {
    "fidelity": (run_fidelity_experiment, ("gradcam", "flowx", "revelio"),
                 ("rows", "curves")),
    "auc": (run_auc_experiment, ("gradcam", "gnnexplainer", "revelio"),
            ("rows", "auc")),
    # wall-clock: only the methods and the row count can match
    "runtime": (run_runtime_experiment, ("gradcam", "revelio"), ()),
}


@needs_fork
@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_four_ways_agree(artifact, tmp_path):
    driver, methods, exact = ARTIFACTS[artifact]

    def run(execution):
        _cold_caches()
        return driver("tree_cycles", "gcn", methods, config=TINY,
                      execution=execution)

    journal = tmp_path / "par.jsonl"
    results = {"default": run(None),
               "jobs=1": run(ExecutionConfig(jobs=1)),
               "jobs=2": run(ExecutionConfig(jobs=2, resume=str(journal)))}
    lines = journal.read_text().splitlines()
    total = results["jobs=2"]["jobs"]["total"]
    assert len(lines) == total > 2
    killed = tmp_path / "killed.jsonl"
    killed.write_text("\n".join(lines[:2]) + "\n" + lines[2][:20])
    results["resumed"] = run(ExecutionConfig(jobs=2, resume=str(killed)))
    journaled = load_journal(killed)
    assert len(journaled) == total
    assert all(r["status"] == "ok" for r in journaled.values())

    reference = results["default"]
    assert reference["jobs"]["failed"] == 0 and not reference["failures"]
    for name, result in results.items():
        for key in exact:
            assert result[key] == reference[key], (name, key)
        assert len(result["rows"]) == len(reference["rows"]), name
        assert not result["failures"], name
    if artifact == "runtime":
        for result in results.values():
            assert list(result["mean_seconds"]) == list(methods)


class TestJournalConfig:
    def test_resume_refuses_journal_of_another_alpha(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")

        def run(alpha):
            cfg = ExperimentConfig(scale=0.12, num_instances=2, effort=0.05,
                                   sparsities=(0.5, 0.8), seed=0, alpha=alpha)
            return run_fidelity_experiment(
                "tree_cycles", "gcn", ("revelio",), config=cfg,
                execution=ExecutionConfig(jobs=1, resume=journal))

        run(0.0)
        with pytest.raises(RunnerError, match="different config") as info:
            run(1.0)
        message = str(info.value)
        assert "fidelity:tree_cycles:gcn:factual:revelio:000" in message
        assert journal in message


@pytest.mark.parametrize("execution", [None, ExecutionConfig(jobs=2)],
                         ids=["default", "jobs=2"])
def test_unknown_method_fails_before_any_job(execution, monkeypatch):
    import repro.runner.driver as driver_mod

    ran = []
    monkeypatch.setattr(driver_mod, "run_jobs",
                        lambda jobs, **kw: ran.append(jobs) or {})
    with pytest.raises(EvaluationError, match="unknown method 'gradkam'"):
        run_fidelity_experiment("tree_cycles", "gcn", ("gradcam", "gradkam"),
                                config=CFG, execution=execution)
    assert ran == []


def test_unknown_method_fails_before_any_model_fit(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    config = ExperimentConfig(scale=0.3, num_instances=2, effort=0.05, seed=0)
    with pytest.raises(EvaluationError, match="unknown method 'gradkam'"):
        run_fidelity_experiment("cora", "gcn", ("gradcam", "gradkam"), config=config)
    assert list(tmp_path.rglob("*.npz")) == []


class TestInlineJobsPath:
    def test_fidelity_repeatable_without_journal(self):
        a = _fidelity(1, None)
        b = _fidelity(1, None)
        assert a["rows"] == b["rows"]
        assert a["curves"] == b["curves"]
        assert set(a["curves"]) == set(METHODS)
        assert list(a["curves"]["revelio"]) == [0.5, 0.8]

    def test_auc_jobs_path(self):
        cfg = ExperimentConfig(scale=0.12, num_instances=3, effort=0.05, seed=0)
        out = run_auc_experiment("tree_cycles", "gcn", METHODS, config=cfg,
                                 execution=ExecutionConfig(jobs=1))
        for value in out["auc"].values():
            assert 0.0 <= value <= 1.0
        assert out["jobs"]["failed"] == 0

    def test_runtime_jobs_path(self):
        cfg = ExperimentConfig(scale=0.12, num_instances=2, effort=0.05, seed=0)
        out = run_runtime_experiment("tree_cycles", "gcn",
                                      ("gradcam", "gnnexplainer"), config=cfg,
                                      execution=ExecutionConfig(jobs=1))
        assert out["mean_seconds"]["gradcam"] < out["mean_seconds"]["gnnexplainer"]

    def test_failed_chunks_do_not_abort_artifact(self, monkeypatch):
        # sabotage one method's executor path: revelio chunks raise, the
        # artifact still completes with gradcam aggregated and failures listed
        import repro.runner.execute as execute_mod

        original = execute_mod.EXECUTORS["fidelity_chunk"]

        def sabotaged(payload, seed):
            if payload["method"] == "revelio":
                raise FloatingPointError("injected numerical blowup")
            return original(payload, seed)

        monkeypatch.setitem(execute_mod.EXECUTORS, "fidelity_chunk", sabotaged)
        out = _fidelity(1, None)
        assert "gradcam" in out["curves"]
        assert "revelio" not in out["curves"]
        errors = {f["error"]["type"] for f in out["failures"]["revelio"]}
        assert errors == {"FloatingPointError"}
        assert out["jobs"]["failed"] == 4
