"""ASCII curve rendering."""

import pytest

from repro.errors import EvaluationError
from repro.viz import render_curves


@pytest.fixture
def curves():
    return {
        "revelio": {0.5: -0.05, 0.7: -0.03, 0.9: 0.15},
        "gradcam": {0.5: 0.20, 0.7: 0.08, 0.9: 0.16},
    }


class TestRenderCurves:
    def test_contains_markers_and_legend(self, curves):
        out = render_curves(curves)
        assert "o revelio" in out
        assert "x gradcam" in out
        grid_rows = [l for l in out.split("\n") if "|" in l]
        assert any("o" in row for row in grid_rows)
        assert any("x" in row for row in grid_rows)

    def test_axis_labels(self, curves):
        out = render_curves(curves)
        assert "0.50" in out
        assert "0.90" in out
        assert "(sparsity)" in out

    def test_zero_line_when_crossing(self, curves):
        assert "·" in render_curves(curves)

    def test_no_zero_line_when_all_positive(self):
        out = render_curves({"a": {0.0: 1.0, 1.0: 2.0}})
        assert "·" not in out

    def test_flat_curve_does_not_crash(self):
        out = render_curves({"flat": {0.0: 0.5, 1.0: 0.5}})
        assert "flat" in out

    def test_single_point(self):
        out = render_curves({"dot": {0.5: 0.1}})
        assert "dot" in out

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            render_curves({})

    def test_dimensions_respected(self, curves):
        out = render_curves(curves, width=30, height=8)
        plot_lines = [l for l in out.split("\n") if "|" in l]
        assert len(plot_lines) == 8
        assert all(len(l.split("|")[1]) == 30 for l in plot_lines)

    def test_many_methods_cycle_markers(self):
        curves = {f"m{i}": {0.0: float(i), 1.0: float(i)} for i in range(10)}
        out = render_curves(curves)
        assert "m9" in out

    def test_integrates_with_runner_output(self):
        from repro.eval import ExperimentConfig, run_fidelity_experiment

        result = run_fidelity_experiment(
            "tree_cycles", "gcn", ("gradcam",),
            config=ExperimentConfig(scale=0.12, num_instances=2, effort=0.02,
                                    sparsities=(0.5, 0.9)))
        out = render_curves(result["curves"])
        assert "o gradcam" in out
