"""PERF snapshot/merge: worker counters fold truthfully into the parent."""

import multiprocessing as mp

import pytest

from repro.obs.counters import PerfCounters, PERF


class TestMerge:
    def test_merge_adds_counters_and_stages(self):
        parent = PerfCounters()
        parent.single_forwards = 5
        parent.stage_seconds["fit"] = 1.0

        worker = PerfCounters()
        worker.single_forwards = 3
        worker.batched_rows = 11
        worker.stage_seconds["fit"] = 0.5
        worker.stage_seconds["explain"] = 0.25

        parent.merge(worker.snapshot())
        assert parent.single_forwards == 8
        assert parent.batched_rows == 11
        assert parent.stage_seconds == {"fit": 1.5, "explain": 0.25}

    def test_merge_of_delta_roundtrip(self):
        # snapshot → work → delta → merge elsewhere == doing the work there
        a = PerfCounters()
        before = a.snapshot()
        a.single_forwards += 4
        with a.stage("x"):
            pass
        delta = PerfCounters.delta(before, a.snapshot())

        b = PerfCounters()
        b.single_forwards = 100
        b.merge(delta)
        assert b.single_forwards == 104
        assert "x" in b.stage_seconds

    def test_merge_empty_delta_noop(self):
        c = PerfCounters()
        c.single_forwards = 2
        c.merge({})
        assert c.single_forwards == 2
        assert c.stage_seconds == {}

    def test_concurrent_worker_deltas_fold_exactly(self):
        # Each "worker" produces its own delta (snapshot → work → delta, as
        # the pool protocol does) on a private counter set; merging all the
        # deltas into the parent must account for every unit of work and
        # every stage timer, regardless of interleaving.
        import threading

        parent = PerfCounters()
        parent.single_forwards = 1
        deltas = [None] * 8

        def work(i):
            local = PerfCounters()
            before = local.snapshot()
            for _ in range(50):
                local.single_forwards += 1
                local.batched_rows += i
                with local.stage("explain"):
                    pass
                with local.stage(f"stage_{i % 2}"):
                    pass
            deltas[i] = PerfCounters.delta(before, local.snapshot())

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for d in deltas:
            parent.merge(d)
        assert parent.single_forwards == 1 + 8 * 50
        assert parent.batched_rows == 50 * sum(range(8))
        assert set(parent.stage_seconds) == {"explain", "stage_0", "stage_1"}
        # 8 workers x 50 timed blocks each landed in the shared stage.
        assert parent.stage_seconds["explain"] == pytest.approx(
            sum(d["stage_seconds"]["explain"] for d in deltas))


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="requires fork start method")
class TestPoolMergesWorkerCounters:
    def test_worker_forwards_counted_in_parent(self):
        from repro.runner import JobSpec, run_jobs
        from repro.runner.execute import register_executor

        def do_forwards(payload, seed):
            PERF.single_forwards += payload["count"]
            return {}

        register_executor("perf_bump", do_forwards)
        before = PERF.snapshot()
        jobs = [JobSpec(id=f"p{i}", kind="perf_bump", payload={"count": 10})
                for i in range(3)]
        run_jobs(jobs, workers=2)
        after = PERF.snapshot()
        assert after["single_forwards"] - before["single_forwards"] == 30
