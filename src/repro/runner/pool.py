"""Fault-tolerant job execution: inline or across a worker-process pool.

:func:`run_jobs` executes a list of :class:`~repro.runner.plan.JobSpec`
and returns ``{job_id: record}``. Guarantees:

* **Crash isolation** — a worker that dies hard (segfault, OOM-kill,
  ``os._exit``) marks only its in-flight job as failed; the worker is
  respawned and the run continues.
* **Per-job timeout** — a job past its deadline has its worker terminated
  (the only way to preempt arbitrary Python) and is marked failed; the
  pool respawns and moves on.
* **Bounded retry with backoff** — failed jobs are re-queued up to
  ``retries`` extra attempts, delayed by ``backoff * 2**(attempt-1)``.
* **Checkpointed resume** — with a journal path every attempt outcome is
  streamed to JSONL, stamped with its job's :meth:`~JobSpec.digest`;
  ``resume=True`` loads it first, keeps successful records verbatim and
  re-runs only the rest. A successful record whose digest differs from
  the planned job's (the journal was written for another config) raises
  :class:`~repro.errors.RunnerError` instead of being reused.
* **Deterministic inline fallback** — ``workers=1`` executes everything
  in-process (same executors, same records, same journal) so a run is
  debuggable under pdb. Timeouts are *not* enforced inline: preempting
  arbitrary in-process Python is not possible; use ``workers >= 2``.
* **Truthful instrumentation** — each worker ships the delta of its
  :data:`repro.obs.PERF` counters with every result and the parent
  merges it, so engine counters and stage timings reflect the whole run,
  not just the parent process. When the parent's tracer is enabled, each
  task additionally carries the active trace id; workers record spans
  under a per-job ``job`` span, :meth:`~repro.obs.Tracer.drain` their
  buffer into the result envelope, and the parent
  :meth:`~repro.obs.Tracer.absorb`\\ s it — so a ``--jobs N`` run yields
  one merged trace spanning every worker process.

Workers are started with the ``fork`` method when the platform offers it
(inheriting warmed dataset/model contexts and runtime-registered
executors); otherwise ``spawn``, where custom jobs must use the importable
``pycall`` kind.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
import traceback
from pathlib import Path

from ..errors import RunnerError
from ..obs import PERF, TRACER, span
from ..obs.names import SPAN_JOB
from .execute import execute_job
from .journal import Journal, load_journal
from .plan import JobSpec

__all__ = ["run_jobs"]

RETRYABLE_DEFAULTS = {"retries": 1, "backoff": 0.1}

_TRACEBACK_LIMIT = 2000  # chars kept per journaled traceback


def _error_info(exc: BaseException) -> dict:
    tb = traceback.format_exc()
    return {"type": type(exc).__name__, "message": str(exc),
            "traceback": tb[-_TRACEBACK_LIMIT:]}


def _job_span_attrs(job: JobSpec) -> dict:
    attrs = {"job_id": job.id}
    method = job.payload.get("method")
    if method:
        attrs["method"] = method
    return attrs


def _worker_main(task_q, result_q) -> None:
    """Worker loop: pull job dicts, execute, push result envelopes.

    The attempt number is echoed back so the parent can discard stale
    envelopes (a job that finished just as its timeout kill landed, then
    got re-queued). Tasks carrying a ``trace`` config enable this
    process's tracer under the parent's trace id; the buffer is drained
    into every envelope so spans ship incrementally, like PERF deltas.
    """
    # A forked worker inherits the parent tracer's buffered spans; drop
    # them or they would ship back and duplicate the parent's records.
    TRACER.reset()
    while True:
        item = task_q.get()
        if item is None:
            return
        job = JobSpec.from_dict(item["job"])
        trace_cfg = item.get("trace")
        if trace_cfg:
            if not TRACER.enabled or TRACER.trace_id != trace_cfg["trace_id"]:
                TRACER.reset()
                TRACER.enable(trace_id=trace_cfg["trace_id"])
        elif TRACER.enabled:  # fork-inherited enable with tracing now off
            TRACER.disable()
        before = PERF.snapshot()
        t0 = time.perf_counter()
        try:
            if trace_cfg:
                with TRACER.start_span(SPAN_JOB, _job_span_attrs(job)):
                    result = execute_job(job)
            else:
                result = execute_job(job)
            envelope = {"job_id": job.id, "ok": True, "result": result}
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            envelope = {"job_id": job.id, "ok": False, "error": _error_info(exc)}
        envelope["attempt"] = item["attempt"]
        envelope["seconds"] = time.perf_counter() - t0
        envelope["perf"] = PERF.delta(before, PERF.snapshot())
        if trace_cfg:
            envelope["trace"] = TRACER.drain()
        result_q.put(envelope)


class _WorkerSlot:
    """One managed worker process plus its private task queue."""

    def __init__(self, ctx, result_q):
        self.task_q = ctx.Queue()
        self.process = ctx.Process(target=_worker_main,
                                   args=(self.task_q, result_q), daemon=True)
        self.process.start()
        self.job: JobSpec | None = None
        self.attempt = 0
        self.deadline: float | None = None
        self.started: float = 0.0

    @property
    def busy(self) -> bool:
        return self.job is not None

    def assign(self, job: JobSpec, attempt: int, timeout: float | None) -> None:
        self.job = job
        self.attempt = attempt
        self.started = time.monotonic()
        self.deadline = (self.started + timeout) if timeout else None
        item = {"job": job.to_dict(), "attempt": attempt}
        if TRACER.enabled:
            item["trace"] = {"trace_id": TRACER.trace_id}
        self.task_q.put(item)

    def release(self) -> None:
        self.job = None
        self.attempt = 0
        self.deadline = None
        self.started = 0.0

    def stop(self, grace: float = 1.0) -> None:
        if not self.process.is_alive():
            return
        try:
            self.task_q.put(None)
            self.process.join(grace)
        except (ValueError, OSError):
            pass
        if self.process.is_alive():
            self.kill()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(1.0)


def _mp_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def run_jobs(jobs: list[JobSpec], workers: int = 1,
             timeout: float | None = None, retries: int = 1,
             backoff: float = 0.1, journal_path: str | Path | None = None,
             resume: bool = False) -> dict[str, dict]:
    """Execute ``jobs``; return ``{job_id: record}`` for every job.

    A record is ``{"id", "status": "ok"|"failed", "attempt", "seconds",
    "result" | "error", "perf", "digest"}``. With ``resume=True`` and an
    existing journal, jobs whose last journaled record is ``"ok"`` are not
    re-run — their journaled records are returned verbatim (their ``perf``
    deltas are *not* re-merged, so counters stay truthful). Such a record
    must carry the job's current digest; one that does not raises
    :class:`~repro.errors.RunnerError` naming the job and the journal.
    """
    records: dict[str, dict] = {}
    digests = {job.id: job.digest() for job in jobs}
    todo = list(jobs)
    if resume and journal_path is not None:
        previous = load_journal(journal_path)
        todo = []
        for job in jobs:
            rec = previous.get(job.id)
            if rec is None or rec.get("status") != "ok":
                todo.append(job)
            elif rec.get("digest") != digests[job.id]:
                raise RunnerError(
                    f"journal {journal_path} holds job {job.id} for a different "
                    "config (payload/seed digest mismatch); resume with the "
                    "config that wrote it, or use a fresh journal")
            else:
                records[job.id] = rec

    journal = Journal(journal_path) if journal_path is not None else None

    def emit(record: dict) -> None:
        record["digest"] = digests[record["id"]]
        records[record["id"]] = record
        if journal is not None:
            journal.append(record)

    try:
        if workers <= 1:
            _run_inline(todo, retries, backoff, emit)
        else:
            _run_pool(todo, workers, timeout, retries, backoff, emit)
    finally:
        if journal is not None:
            journal.close()
    return records


# ----------------------------------------------------------------------
# inline (workers=1)
# ----------------------------------------------------------------------
def _run_inline(jobs: list[JobSpec], retries: int, backoff: float, emit) -> None:
    for job in jobs:
        allowed = (job.retries if job.retries is not None else retries) + 1
        for attempt in range(1, allowed + 1):
            before = PERF.snapshot()
            t0 = time.perf_counter()
            try:
                with span(SPAN_JOB, **_job_span_attrs(job)):
                    result = execute_job(job)
            except Exception as exc:  # noqa: BLE001 — capture, don't abort the run
                record = {"id": job.id, "status": "failed", "attempt": attempt,
                          "seconds": time.perf_counter() - t0,
                          "error": _error_info(exc),
                          "perf": PERF.delta(before, PERF.snapshot())}
                emit(record)
                if attempt < allowed:
                    time.sleep(backoff * 2 ** (attempt - 1))
                continue
            emit({"id": job.id, "status": "ok", "attempt": attempt,
                  "seconds": time.perf_counter() - t0, "result": result,
                  "perf": PERF.delta(before, PERF.snapshot())})
            break


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------
def _run_pool(jobs: list[JobSpec], workers: int, timeout: float | None,
              retries: int, backoff: float, emit) -> None:
    ctx = _mp_context()
    result_q = ctx.Queue()
    pool = [_WorkerSlot(ctx, result_q) for _ in range(min(workers, max(1, len(jobs))))]
    # (ready_time, plan_order, attempt, job) — sorted pops keep plan order
    # among ready jobs, with backoff delaying retries.
    pending: list[tuple[float, int, int, JobSpec]] = [
        (0.0, i, 1, job) for i, job in enumerate(jobs)
    ]

    def job_allowed(job: JobSpec) -> int:
        return (job.retries if job.retries is not None else retries) + 1

    def job_timeout(job: JobSpec) -> float | None:
        return job.timeout if job.timeout is not None else timeout

    def fail(slot: _WorkerSlot, error: dict, seconds: float) -> None:
        job, attempt = slot.job, slot.attempt
        emit({"id": job.id, "status": "failed", "attempt": attempt,
              "seconds": seconds, "error": error})
        if attempt < job_allowed(job):
            ready = time.monotonic() + backoff * 2 ** (attempt - 1)
            pending.append((ready, len(jobs) + attempt, attempt + 1, job))
        slot.release()

    try:
        while pending or any(s.busy for s in pool):
            now = time.monotonic()

            # 1) dispatch ready jobs to idle, live workers
            pending.sort(key=lambda item: (item[0], item[1]))
            for slot in pool:
                if not pending or pending[0][0] > now:
                    break
                if slot.busy:
                    continue
                if not slot.process.is_alive():  # died while idle — replace
                    slot.kill()
                    pool[pool.index(slot)] = slot = _WorkerSlot(ctx, result_q)
                _, order, attempt, job = pending.pop(0)
                slot.assign(job, attempt, job_timeout(job))

            # 2) collect one result (short poll keeps deadline checks live)
            try:
                envelope = result_q.get(timeout=0.05)
            except queue_mod.Empty:
                envelope = None
            if envelope is not None:
                slot = next((s for s in pool
                             if s.job is not None and s.job.id == envelope["job_id"]
                             and s.attempt == envelope.get("attempt")), None)
                if slot is not None:
                    PERF.merge(envelope.get("perf", {}))
                    TRACER.absorb(envelope.get("trace"))
                    if envelope["ok"]:
                        emit({"id": slot.job.id, "status": "ok",
                              "attempt": slot.attempt,
                              "seconds": envelope["seconds"],
                              "result": envelope["result"],
                              "perf": envelope.get("perf", {})})
                        slot.release()
                    else:
                        fail(slot, envelope["error"], envelope["seconds"])

            # 3) reap timed-out or crashed busy workers
            for i, slot in enumerate(pool):
                if not slot.busy:
                    continue
                timed_out = slot.deadline is not None and time.monotonic() > slot.deadline
                crashed = not slot.process.is_alive()
                if not (timed_out or crashed):
                    continue
                if crashed:
                    code = slot.process.exitcode
                    error = {"type": "WorkerCrashed",
                             "message": f"worker exited with code {code} "
                                        f"while running {slot.job.id}"}
                else:
                    error = {"type": "JobTimeout",
                             "message": f"{slot.job.id} exceeded "
                                        f"{job_timeout(slot.job):.3g}s"}
                slot.kill()
                fail(slot, error, time.monotonic() - slot.started)
                pool[i] = _WorkerSlot(ctx, result_q)
                pool[i].job = None
    finally:
        for slot in pool:
            slot.stop()
