"""Trace summarization: loading, aggregation and table rendering."""

import json

import pytest

from repro.errors import EvaluationError
from repro.obs import summarize_trace
from repro.obs.summary import format_summary, load_trace, summarize_spans


def _record(name, seconds, method=None, pid=1):
    attrs = {"method": method} if method else {}
    return {"name": name, "trace_id": "t", "span_id": name, "parent_id": None,
            "pid": pid, "start": 0.0, "seconds": seconds, "attrs": attrs}


class TestLoadTrace:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(EvaluationError, match="no such trace"):
            load_trace(tmp_path / "nope.jsonl")

    def test_bad_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(_record("explain", 1.0)) + "\n"
            + "{not json\n"
            + "\n"
            + json.dumps({"no_name_key": 1}) + "\n"
            + json.dumps(_record("epoch", 0.1)) + "\n")
        records = load_trace(path)
        assert [r["name"] for r in records] == ["explain", "epoch"]


class TestSummarizeSpans:
    def test_aggregates_by_method_and_stage(self):
        records = [_record("explain", 1.0, "revelio"),
                   _record("epoch", 0.25, "revelio"),
                   _record("epoch", 0.75, "revelio"),
                   _record("explain", 0.5, "gradcam"),
                   _record("experiment", 2.0)]
        table = summarize_spans(records)
        assert table["revelio"]["epoch"] == {
            "count": 2, "seconds": 1.0, "mean_seconds": 0.5}
        assert table["gradcam"]["explain"]["count"] == 1
        assert table["-"]["experiment"]["seconds"] == 2.0


class TestFormatSummary:
    def test_ordering_and_share(self):
        table = summarize_spans([
            _record("explain", 2.0, "revelio"),
            _record("flow_enumerate", 0.5, "revelio"),
            _record("explain", 0.1, "gradcam"),
        ])
        rows = format_summary(table)
        # Header first; methods by descending explain time.
        assert rows[0].startswith("method")
        body = rows[1:]
        assert body[0].split()[0] == "revelio"
        assert body[-1].split()[0] == "gradcam"
        # Within revelio, explain (2.0s) before flow_enumerate (0.5s),
        # and flow_enumerate's share is seconds/explain_seconds = 25%.
        assert body[0].split()[1] == "explain"
        assert body[1].split()[1] == "flow_enumerate"
        assert "25.0%" in body[1]

    def test_process_footer(self):
        rows = format_summary({}, processes=3)
        assert rows[-1] == "(spans from 3 processes)"
        rows = format_summary({}, processes=1)
        assert rows[-1] == "(spans from 1 process)"


class TestSummarizeTrace:
    def test_end_to_end(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [_record("explain", 1.0, "revelio", pid=10),
                   _record("explain", 0.5, "revelio", pid=11)]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        rows = summarize_trace(path)
        assert any("revelio" in r for r in rows)
        assert rows[-1] == "(spans from 2 processes)"

    def test_empty_trace_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n")
        with pytest.raises(EvaluationError, match="no span records"):
            summarize_trace(path)
