"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def small_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SCALE", "0.12")
    monkeypatch.setenv("REPRO_INSTANCES", "2")
    monkeypatch.setenv("REPRO_EFFORT", "0.03")
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))


def test_import_leaves_explain_stack_unloaded():
    # `repro lint` and `repro --help` must not pay for the explain stack:
    # the subcommands that need it import it themselves.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = ("import sys, repro.cli; "
            "print(sorted(m for m in ('repro.explain', 'repro.eval.experiments', "
            "'repro.nn.zoo') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self):
        args = build_parser().parse_args(["datasets"])
        assert args.command == "datasets"

    def test_explain_defaults(self):
        args = build_parser().parse_args(["explain"])
        assert args.explainer == "revelio"
        assert args.mode == "factual"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "-d", "imagenet"])

    def test_experiment_runner_flags(self):
        args = build_parser().parse_args(
            ["experiment", "fidelity", "--jobs", "4",
             "--resume", "runs/fid.jsonl", "--timeout", "30", "--retries", "2"])
        assert args.jobs == 4
        assert args.resume == "runs/fid.jsonl"
        assert args.timeout == 30.0
        assert args.retries == 2

    def test_experiment_runner_flag_defaults(self):
        args = build_parser().parse_args(["experiment", "fidelity"])
        assert args.jobs is None and args.resume is None
        assert args.retries == 1


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("cora", "mutag", "ba_shapes"):
            assert name in out

    def test_train_command(self, capsys):
        assert main(["train", "-d", "tree_cycles", "-m", "gcn", "--scale", "0.12"]) == 0
        assert "tree_cycles/gcn" in capsys.readouterr().out

    def test_explain_command(self, capsys):
        code = main(["explain", "-d", "tree_cycles", "-m", "gcn", "--scale", "0.12",
                     "-e", "revelio", "--epochs", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "explanatory edges" in out
        assert "Message Flow" in out  # flow table printed for flow methods

    @pytest.mark.parametrize("flag, message", [
        (["-t", "99999"], "target 99999 out of range"),
        (["-e", "nosuch"], "unknown explainer 'nosuch'"),
    ])
    def test_explain_errors_are_one_line(self, capsys, flag, message):
        code = main(["explain", "-d", "tree_cycles", "-m", "gcn", "--scale", "0.12",
                     "--epochs", "2", *flag])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_explain_edge_method_no_flow_table(self, capsys):
        code = main(["explain", "-d", "tree_cycles", "-m", "gcn", "--scale", "0.12",
                     "-e", "gradcam"])
        assert code == 0
        assert "Message Flow" not in capsys.readouterr().out

    def test_experiment_fidelity(self, capsys):
        code = main(["experiment", "fidelity", "-d", "tree_cycles", "-m", "gcn",
                     "--scale", "0.12", "--instances", "2", "--effort", "0.03"])
        assert code == 0
        out = capsys.readouterr().out
        assert "revelio" in out
        assert "s=0.5" in out

    def test_experiment_sharded_forwards_execution_config(self, capsys, monkeypatch,
                                                          tmp_path):
        seen = {}

        def fake_runner(dataset, model, methods, *, mode="factual", config=None,
                        execution=None, **kwargs):
            seen.update(execution=execution, dataset=dataset)
            return {"rows": ["header", "row"], "curves": {}, "failures": {}}

        monkeypatch.setattr("repro.eval.experiments.run_fidelity_experiment", fake_runner)
        journal = str(tmp_path / "fid.jsonl")
        code = main(["experiment", "fidelity", "-d", "tree_cycles", "-m", "gcn",
                     "--jobs", "4", "--resume", journal, "--timeout", "9"])
        assert code == 0
        execution = seen["execution"]
        assert execution.jobs == 4
        assert execution.resume == journal
        assert execution.timeout == 9.0
        assert execution.retries == 1
        assert not execution.trace

    def test_resume_alone_implies_inline_jobs(self, monkeypatch, tmp_path):
        seen = {}

        def fake_runner(dataset, model, methods, *, mode="factual", config=None,
                        execution=None, **kwargs):
            seen.update(execution=execution)
            return {"rows": [], "curves": {}, "failures": {}}

        monkeypatch.setattr("repro.eval.experiments.run_fidelity_experiment", fake_runner)
        journal = str(tmp_path / "fid.jsonl")
        assert main(["experiment", "fidelity", "-d", "tree_cycles", "-m", "gcn",
                     "--resume", journal]) == 0
        assert seen["execution"].jobs == 1
        assert seen["execution"].resume == journal

    def test_trace_flag_bare_and_with_path(self, monkeypatch):
        seen = {}

        def fake_runner(dataset, model, methods, *, mode="factual", config=None,
                        execution=None, **kwargs):
            seen.update(execution=execution)
            return {"rows": [], "curves": {}, "failures": {}}

        monkeypatch.setattr("repro.eval.experiments.run_fidelity_experiment", fake_runner)
        assert main(["experiment", "fidelity", "-d", "tree_cycles", "-m", "gcn",
                     "--trace"]) == 0
        assert seen["execution"].trace is True
        assert main(["experiment", "fidelity", "-d", "tree_cycles", "-m", "gcn",
                     "--trace", "runs/t.jsonl"]) == 0
        assert seen["execution"].trace == "runs/t.jsonl"

    def test_trace_summarize_command(self, capsys, tmp_path):
        import json

        trace = tmp_path / "t.jsonl"
        records = [
            {"name": "explain", "trace_id": "t", "span_id": "a", "parent_id": None,
             "pid": 1, "start": 0.0, "seconds": 0.5, "attrs": {"method": "revelio"}},
            {"name": "flow_enumerate", "trace_id": "t", "span_id": "b",
             "parent_id": "a", "pid": 2, "start": 0.1, "seconds": 0.2,
             "attrs": {"method": "revelio"}},
        ]
        trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "revelio" in out
        assert "flow_enumerate" in out
        assert "2 processes" in out

    def test_jobs_rejected_for_unsupported_artifact(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.eval.experiments.run_alpha_sensitivity",
                            lambda *a, **k: {"rows": [], "curves": {}})
        assert main(["experiment", "alpha", "-d", "tree_cycles", "-m", "gcn",
                     "--jobs", "4"]) == 0
        assert "not supported" in capsys.readouterr().err

    def test_stats_command_prints_cache_table(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "flow_cache" in out
        assert "hit_rate" in out


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8731
        assert args.max_batch == 16
        assert args.max_linger_ms == 5.0
        assert args.queue_limit == 64
        assert args.no_coalesce is False
        assert args.obs_dir is None
        assert args.trace_every == 0

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--max-batch", "4",
             "--max-linger-ms", "2.5", "--queue-limit", "8",
             "--no-coalesce", "--obs-dir", "runs/serve",
             "--trace-every", "10"])
        assert args.port == 9000
        assert args.max_batch == 4
        assert args.max_linger_ms == 2.5
        assert args.queue_limit == 8
        assert args.no_coalesce is True
        assert args.obs_dir == "runs/serve"
        assert args.trace_every == 10
