"""Pool failure paths: raising, hanging and hard-crashing jobs; resume.

The executors are registered at import time, so forked workers inherit
them. Pool tests that need real subprocesses are skipped on platforms
without the ``fork`` start method; the inline (``workers=1``) tests run
everywhere.
"""

import multiprocessing as mp
import os
import time

import pytest

from repro.errors import RunnerError
from repro.obs.counters import PERF
from repro.runner import (
    JobSpec,
    load_journal,
    register_executor,
    run_jobs,
)

HAS_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="requires fork start method")


def _touch_and_run(payload, seed):
    """Append one line per invocation to a counter file, then act."""
    if payload.get("counter"):
        with open(payload["counter"], "a") as fh:
            fh.write(f"{payload.get('tag', '?')}\n")
    action = payload.get("action", "ok")
    if action == "raise":
        raise ValueError("injected failure")
    if action == "hang":
        time.sleep(60)
    if action == "exit":
        os._exit(23)  # simulates a segfault/OOM kill: no exception, no cleanup
    if action in ("flaky", "crash_once"):
        # fail until the attempt-counter file has enough lines
        with open(payload["counter"]) as fh:
            attempts = sum(1 for _ in fh)
        if attempts < payload.get("succeed_on", 2):
            if action == "crash_once":
                os._exit(23)
            raise RuntimeError(f"flaky (attempt {attempts})")
    return {"tag": payload.get("tag"), "seed": seed}


register_executor("faulty", _touch_and_run)


def _job(tag, action="ok", counter=None, **kw):
    return JobSpec(id=tag, kind="faulty",
                   payload={"tag": tag, "action": action,
                            "counter": str(counter) if counter else None}, **kw)


class TestInline:
    def test_all_ok(self):
        records = run_jobs([_job("a"), _job("b")], workers=1)
        assert all(r["status"] == "ok" for r in records.values())
        assert records["a"]["result"]["tag"] == "a"

    def test_raising_job_recorded_not_fatal(self):
        records = run_jobs([_job("bad", "raise"), _job("good")],
                           workers=1, retries=0)
        assert records["bad"]["status"] == "failed"
        assert records["bad"]["error"]["type"] == "ValueError"
        assert "injected failure" in records["bad"]["error"]["message"]
        assert "traceback" in records["bad"]["error"]
        assert records["good"]["status"] == "ok"

    def test_retry_until_success(self, tmp_path):
        counter = tmp_path / "c.txt"
        job = _job("flaky", "flaky", counter)
        job.payload["succeed_on"] = 2
        records = run_jobs([job], workers=1, retries=2, backoff=0.01)
        assert records["flaky"]["status"] == "ok"
        assert records["flaky"]["attempt"] == 2

    def test_retries_exhausted(self, tmp_path):
        records = run_jobs([_job("bad", "raise")], workers=1, retries=2,
                           backoff=0.01)
        assert records["bad"]["status"] == "failed"
        assert records["bad"]["attempt"] == 3

    def test_unknown_kind_fails_cleanly(self):
        records = run_jobs([JobSpec(id="u", kind="no_such_kind")], workers=1,
                           retries=0)
        assert records["u"]["status"] == "failed"
        assert records["u"]["error"]["type"] == "RunnerError"

    def test_journal_written(self, tmp_path):
        path = tmp_path / "j.jsonl"
        run_jobs([_job("a"), _job("bad", "raise")], workers=1, retries=0,
                 journal_path=path)
        journal = load_journal(path)
        assert journal["a"]["status"] == "ok"
        assert journal["bad"]["status"] == "failed"
        assert journal["bad"]["error"]["type"] == "ValueError"


@needs_fork
class TestPoolFaults:
    def test_raising_job_journaled_run_survives(self, tmp_path):
        path = tmp_path / "j.jsonl"
        records = run_jobs([_job("bad", "raise"), _job("g1"), _job("g2")],
                           workers=2, retries=0, journal_path=path)
        assert records["bad"]["status"] == "failed"
        assert records["bad"]["error"]["type"] == "ValueError"
        assert records["g1"]["status"] == records["g2"]["status"] == "ok"
        assert load_journal(path)["bad"]["error"]["type"] == "ValueError"

    def test_timeout_kills_and_continues(self, tmp_path):
        path = tmp_path / "j.jsonl"
        t0 = time.perf_counter()
        records = run_jobs([_job("hang", "hang", timeout=0.75),
                            _job("g1"), _job("g2")],
                           workers=2, retries=0, journal_path=path)
        assert time.perf_counter() - t0 < 30  # never waited the full sleep
        assert records["hang"]["status"] == "failed"
        assert records["hang"]["error"]["type"] == "JobTimeout"
        assert records["g1"]["status"] == records["g2"]["status"] == "ok"
        assert load_journal(path)["hang"]["error"]["type"] == "JobTimeout"

    def test_hard_crash_isolated_and_journaled(self, tmp_path):
        path = tmp_path / "j.jsonl"
        records = run_jobs([_job("boom", "exit"), _job("g1"), _job("g2"),
                            _job("g3")],
                           workers=2, retries=0, journal_path=path)
        assert records["boom"]["status"] == "failed"
        assert records["boom"]["error"]["type"] == "WorkerCrashed"
        assert "23" in records["boom"]["error"]["message"]
        for tag in ("g1", "g2", "g3"):
            assert records[tag]["status"] == "ok"
        assert load_journal(path)["boom"]["error"]["type"] == "WorkerCrashed"

    def test_crash_retry_can_succeed(self, tmp_path):
        # hard-exits on the first attempt, succeeds on the respawned
        # worker's retry (attempt 1 writes one counter line then exits;
        # attempt 2 sees the line and returns)
        counter = tmp_path / "c.txt"
        job = _job("phoenix", "crash_once", counter)
        job.payload["succeed_on"] = 2
        records = run_jobs([job], workers=2, retries=1, backoff=0.01)
        assert records["phoenix"]["status"] == "ok"
        assert records["phoenix"]["attempt"] == 2

    def test_more_jobs_than_workers(self):
        jobs = [_job(f"j{i}") for i in range(7)]
        records = run_jobs(jobs, workers=3)
        assert len(records) == 7
        assert all(r["status"] == "ok" for r in records.values())

    def test_per_job_seed_delivered(self):
        job = _job("seeded")
        job.seed = 424242
        records = run_jobs([job], workers=2)
        assert records["seeded"]["result"]["seed"] == 424242


class TestResume:
    def test_resume_skips_ok_reruns_failures(self, tmp_path):
        counter = tmp_path / "c.txt"
        path = tmp_path / "j.jsonl"
        jobs = [_job("a", counter=counter), _job("bad", "raise", counter),
                _job("b", counter=counter)]
        first = run_jobs(jobs, workers=1, retries=0, journal_path=path)
        assert first["bad"]["status"] == "failed"
        assert counter.read_text().splitlines() == ["a", "bad", "b"]

        # second pass: only the failure re-runs (now succeeding)
        jobs[1].payload["action"] = "ok"
        second = run_jobs(jobs, workers=1, retries=0, journal_path=path,
                          resume=True)
        assert counter.read_text().splitlines() == ["a", "bad", "b", "bad"]
        assert second["a"] == first["a"]  # journaled record returned verbatim
        assert second["bad"]["status"] == "ok"

    def test_resume_refuses_ok_record_of_a_different_job(self, tmp_path):
        path = tmp_path / "j.jsonl"
        run_jobs([_job("a")], workers=1, journal_path=path)
        changed = _job("a")
        changed.payload["alpha"] = 1.0  # same id, different work
        with pytest.raises(RunnerError, match=r"job a .*different config") as info:
            run_jobs([changed], workers=1, journal_path=path, resume=True)
        assert str(path) in str(info.value)
        reseeded = _job("a", seed=7)
        with pytest.raises(RunnerError, match="digest mismatch"):
            run_jobs([reseeded], workers=1, journal_path=path, resume=True)

    def test_resume_with_missing_journal_runs_all(self, tmp_path):
        counter = tmp_path / "c.txt"
        records = run_jobs([_job("a", counter=counter)], workers=1,
                           journal_path=tmp_path / "new.jsonl", resume=True)
        assert records["a"]["status"] == "ok"
        assert counter.read_text().splitlines() == ["a"]

    def test_resumed_records_not_perf_merged(self, tmp_path):
        path = tmp_path / "j.jsonl"
        run_jobs([_job("a")], workers=1, journal_path=path)
        before = PERF.snapshot()
        run_jobs([_job("a")], workers=1, journal_path=path, resume=True)
        after = PERF.snapshot()
        assert after["single_forwards"] == before["single_forwards"]
