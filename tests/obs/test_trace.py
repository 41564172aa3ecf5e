"""Span/Tracer unit behavior: nesting, buffering, merging, export."""

import threading

import pytest

from repro.obs import TRACER, span
from repro.obs.trace import MemorySink, Tracer, tracing


class TestSpanNesting:
    def test_disabled_span_is_noop(self):
        with span("explain") as sp:
            assert sp is None
        assert TRACER.records() == []

    def test_disabled_span_reuses_shared_context_manager(self):
        assert span("a") is span("b")

    def test_parent_child_linkage(self):
        with tracing():
            with span("explain") as parent:
                with span("flow_enumerate") as child:
                    assert child.parent_id == parent.span_id
        records = TRACER.records()
        assert [r["name"] for r in records] == ["flow_enumerate", "explain"]
        assert records[0]["parent_id"] == records[1]["span_id"]
        assert records[0]["trace_id"] == records[1]["trace_id"]

    def test_method_attribute_inherited_from_parent(self):
        with tracing():
            with span("explain", method="revelio"):
                with span("epoch"):
                    pass
                with span("epoch", method="override"):
                    pass
        epochs = [r for r in TRACER.records() if r["name"] == "epoch"]
        assert epochs[0]["attrs"]["method"] == "revelio"
        assert epochs[1]["attrs"]["method"] == "override"

    def test_span_closes_and_records_on_exception(self):
        with tracing():
            with pytest.raises(ValueError):
                with span("explain"):
                    raise ValueError("boom")
            with span("after") as after:
                assert after.parent_id is None  # the failed span closed
        records = TRACER.records()
        assert [r["name"] for r in records] == ["explain", "after"]
        assert records[0]["seconds"] >= 0.0

    def test_set_attaches_attrs_before_close(self):
        with tracing():
            with span("flow_enumerate") as sp:
                sp.set(num_flows=17)
        assert TRACER.records()[0]["attrs"]["num_flows"] == 17

    def test_threads_get_independent_current_span(self):
        seen = {}

        def worker():
            with span("inner") as sp:
                seen["in_thread"] = sp.parent_id

        with tracing():
            with span("outer"):
                t = threading.Thread(target=worker)
                t.start()
                t.join()
        # A fresh thread starts a fresh context: no inherited parent span.
        assert seen["in_thread"] is None


class TestBufferAndAggregates:
    def test_buffer_bounded_and_drop_counted(self):
        tracer = Tracer(max_buffer=3)
        tracer.enable()
        for i in range(5):
            with tracer.start_span("s", {"i": i}):
                pass
        assert len(tracer.records()) == 3
        assert tracer.dropped == 2
        # Oldest evicted: the survivors are the last three.
        assert [r["attrs"]["i"] for r in tracer.records()] == [2, 3, 4]

    def test_aggregates_survive_eviction(self):
        tracer = Tracer(max_buffer=2)
        tracer.enable()
        for _ in range(10):
            with tracer.start_span("epoch", {"method": "revelio"}):
                pass
        table = tracer.aggregate_table()
        assert table["revelio"]["epoch"]["count"] == 10

    def test_reset_clears_everything(self):
        tracer = Tracer(max_buffer=2)
        tracer.enable()
        for _ in range(5):
            with tracer.start_span("s", {}):
                pass
        tracer.reset()
        assert tracer.records() == []
        assert tracer.dropped == 0
        assert tracer.aggregate_table() == {}


class TestDrainAbsorb:
    def test_drain_empties_buffer_and_resets_dropped(self):
        tracer = Tracer(max_buffer=2)
        tracer.enable()
        for _ in range(3):
            with tracer.start_span("s", {}):
                pass
        shipment = tracer.drain()
        assert len(shipment["records"]) == 2
        assert shipment["dropped"] == 1
        assert tracer.records() == []
        assert tracer.dropped == 0

    def test_absorb_restamps_trace_id_and_reparents_roots(self):
        worker = Tracer()
        worker.enable(trace_id="worker-id")
        with worker.start_span("job", {"method": "gradcam"}):
            with worker.start_span("explain", {}):
                pass
        shipment = worker.drain()

        with tracing(trace_id="parent-id"):
            with span("experiment") as root:
                TRACER.absorb(shipment)
        records = TRACER.records()
        assert all(r["trace_id"] == "parent-id" for r in records)
        job = next(r for r in records if r["name"] == "job")
        explain = next(r for r in records if r["name"] == "explain")
        assert job["parent_id"] == root.span_id       # orphan root re-parented
        assert explain["parent_id"] == job["span_id"]  # interior edge kept
        # Absorbed spans land in the parent's aggregates too.
        assert TRACER.aggregate_table()["gradcam"]["job"]["count"] == 1

    def test_absorb_accumulates_dropped(self):
        with tracing():
            TRACER.absorb({"records": [], "dropped": 7})
            TRACER.absorb({"records": [], "dropped": 2})
            assert TRACER.dropped == 9

    def test_absorb_none_is_noop(self):
        with tracing():
            TRACER.absorb(None)
            TRACER.absorb({})
        assert TRACER.records() == []


class TestSinksAndExport:
    def test_memory_sink_receives_every_record(self):
        sink = MemorySink()
        with tracing(sink=sink):
            with span("a"):
                pass
            with span("b"):
                pass
        assert [r["name"] for r in sink.records] == ["a", "b"]

    def test_export_jsonl_round_trips(self, tmp_path):
        with tracing():
            with span("explain", method="flowx"):
                with span("flow_enumerate"):
                    pass
        out = TRACER.export_jsonl(tmp_path / "trace.jsonl")
        from repro.obs.summary import load_trace

        records = load_trace(out)
        assert [r["name"] for r in records] == ["flow_enumerate", "explain"]

    def test_tracing_restores_prior_state(self):
        sink = MemorySink()
        assert not TRACER.enabled
        with tracing(sink=sink, trace_id="tmp"):
            assert TRACER.enabled
            assert TRACER.trace_id == "tmp"
        assert not TRACER.enabled
        assert not isinstance(TRACER.sink, MemorySink)
