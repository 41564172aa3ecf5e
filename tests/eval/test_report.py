"""Benchmark-report aggregation."""

from pathlib import Path

import pytest

from repro.eval import build_report, write_report
from repro.eval.report import collect_artifacts


@pytest.fixture
def results(tmp_path):
    (tmp_path / "table3_datasets.txt").write_text("Table III rows\n")
    (tmp_path / "fig3_fidelity_minus_x_gcn.txt").write_text("fig3 rows\n")
    (tmp_path / "ablation_topk.txt").write_text("ablation rows\n")
    (tmp_path / "unrelated.txt").write_text("ignore me\n")
    return tmp_path


class TestCollect:
    def test_collects_recognized_only(self, results):
        artifacts = collect_artifacts(results)
        names = {a.name for a in artifacts}
        assert "table3_datasets" in names
        assert "unrelated" not in names

    def test_missing_dir_empty(self, tmp_path):
        assert collect_artifacts(tmp_path / "nope") == []

    def test_sections_assigned(self, results):
        sections = {a.name: a.section for a in collect_artifacts(results)}
        assert "Table III" in sections["table3_datasets"]
        assert "Fig. 3" in sections["fig3_fidelity_minus_x_gcn"]


class TestBuild:
    def test_report_structure(self, results):
        text = build_report(results)
        assert text.startswith("# Revelio reproduction report")
        assert "## Table III" in text
        assert "```" in text
        assert "fig3 rows" in text

    def test_empty_report_hint(self, tmp_path):
        text = build_report(tmp_path)
        assert "no artifacts found" in text

    def test_write_report(self, results, tmp_path):
        out = write_report(results, tmp_path / "report.md")
        assert out.exists()
        assert "Table III rows" in out.read_text()

    def test_real_results_dir_if_present(self):
        real = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
        if not real.exists():
            pytest.skip("benchmarks not yet run")
        text = build_report(real)
        assert "#" in text
