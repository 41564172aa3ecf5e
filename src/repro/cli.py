"""Command-line interface: ``repro <command>`` / ``python -m repro``.

Commands
--------
``repro datasets``                      list datasets with Table III stats
``repro train -d cora -m gcn``          train & cache a target model
``repro explain -d ba_shapes -m gcn -e revelio -t 412``
                                        explain one instance
``repro experiment fidelity -d mutag -m gin --mode factual``
                                        regenerate one artifact's rows
``repro experiment fidelity -d mutag -m gin --jobs 4 --resume runs/fid.jsonl``
                                        the same rows from 4 workers, with
                                        a resumable job journal
``repro experiment fidelity -d mutag -m gin --jobs 4 --trace runs/fid_trace.jsonl``
                                        traced run (merged trace + manifest)
``repro trace summarize runs/fid_trace.jsonl``
                                        per-method, per-stage time breakdown
``repro lint``                          repo-aware static analysis (RPRxxx
                                        rules, per-file + whole-program) over
                                        src/tests/benchmarks/examples;
                                        ``--format sarif`` emits SARIF 2.1.0
``repro stats``                         hit/miss/size snapshot of every
                                        process-global cache
``repro serve --port 8731``             explanation-serving daemon (warm model
                                        pool + request coalescing; see
                                        DESIGN.md §12)
"""

from __future__ import annotations

import argparse
import sys

from .datasets import DATASET_NAMES, dataset_task, load_dataset
from .errors import ReproError

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Revelio reproduction: message-flow explanations for GNNs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list datasets and their statistics")

    p_train = sub.add_parser("train", help="train and cache a target model")
    _common(p_train)

    p_explain = sub.add_parser("explain", help="explain one instance")
    _common(p_explain)
    p_explain.add_argument("-e", "--explainer", default="revelio")
    p_explain.add_argument("-t", "--target", type=int, default=None,
                           help="node id (node tasks) or graph index (graph tasks)")
    p_explain.add_argument("--mode", choices=("factual", "counterfactual"),
                           default="factual")
    p_explain.add_argument("--epochs", type=int, default=200)
    p_explain.add_argument("--top-flows", type=int, default=10)
    p_explain.add_argument("--top-edges", type=int, default=10)

    p_exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    p_exp.add_argument("artifact", choices=("table3", "fidelity", "auc", "runtime", "alpha"))
    _common(p_exp)
    p_exp.add_argument("--mode", choices=("factual", "counterfactual"), default="factual")
    p_exp.add_argument("--instances", type=int, default=None)
    p_exp.add_argument("--effort", type=float, default=None)
    p_exp.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes for the artifact's planned jobs: "
                            "omitted or 1 = inline, N > 1 = crash-isolated "
                            "worker pool; the rows do not depend on N "
                            "(fidelity/auc/runtime only)")
    p_exp.add_argument("--resume", default=None, metavar="PATH",
                       help="JSONL journal checkpointing every job; an existing "
                            "journal is resumed, skipping finished jobs "
                            "(implies --jobs 1 unless --jobs is given)")
    p_exp.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-job timeout (enforced with --jobs >= 2)")
    p_exp.add_argument("--retries", type=int, default=1,
                       help="extra attempts per failed job (default 1)")
    p_exp.add_argument("--trace", nargs="?", const=True, default=None,
                       metavar="PATH",
                       help="record a span trace of the run; writes a trace "
                            "JSONL plus a RunManifest (PATH optional: default "
                            "is next to --resume or in the working directory)")

    p_trace = sub.add_parser("trace", help="inspect recorded span traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summ = trace_sub.add_parser(
        "summarize", help="per-method, per-stage time breakdown of a trace")
    p_summ.add_argument("path", help="trace JSONL written by a --trace run")

    p_lint = sub.add_parser(
        "lint", help="run the repro.checks static-analysis rules")
    p_lint.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: every "
                             "existing one of src tests benchmarks examples)")
    p_lint.add_argument("--json", action="store_true", dest="json_output",
                        help="machine-readable findings on stdout "
                             "(same as --format json)")
    p_lint.add_argument("--format", default=None, dest="output_format",
                        choices=("text", "json", "sarif"),
                        help="output format (sarif: SARIF 2.1.0 for "
                             "code-scanning upload)")
    p_lint.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(e.g. RPR001,RPR010); default all")
    p_lint.add_argument("--scope", default="all",
                        choices=("all", "file", "program"),
                        help="run only per-file or only whole-program rules "
                             "(default: all)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print every registered rule and exit")

    sub.add_parser(
        "stats", help="hit/miss/size snapshot of every process-global cache")

    p_serve = sub.add_parser(
        "serve", help="run the explanation-serving daemon")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8731)
    p_serve.add_argument("--max-batch", type=int, default=16,
                         help="coalesce at most N requests per micro-batch "
                              "(default: %(default)s)")
    p_serve.add_argument("--max-linger-ms", type=float, default=5.0,
                         help="wait up to MS for a batch to fill before "
                              "flushing (default: %(default)s)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="pending jobs per batch key before 429 "
                              "backpressure (default: %(default)s)")
    p_serve.add_argument("--no-coalesce", action="store_true",
                         help="serial baseline: one request per batch, no "
                              "deduplication")
    p_serve.add_argument("--obs-dir", default=None, metavar="DIR",
                         help="write one RunManifest per micro-batch under DIR")
    p_serve.add_argument("--trace-every", type=int, default=0, metavar="N",
                         help="record a span trace for every Nth micro-batch "
                              "(0 = never; requires --obs-dir)")

    p_report = sub.add_parser("report", help="aggregate benchmark artifacts into markdown")
    p_report.add_argument("--results", default="benchmarks/results",
                          help="directory of benchmark artifact files")
    p_report.add_argument("-o", "--output", default=None,
                          help="write to a file instead of stdout")
    return parser


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-d", "--dataset", default="ba_shapes", choices=DATASET_NAMES)
    p.add_argument("-m", "--model", default="gcn", choices=("gcn", "gin", "gat"))
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    A :class:`~repro.errors.ReproError` (a bad target, an unknown
    explainer, ...) prints one ``error: <message>`` line to stderr and
    exits with code 2, without a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.command == "datasets":
        for name in DATASET_NAMES:
            ds = load_dataset(name)
            print(ds.stats().row(), f"task={dataset_task(name)}")
        return 0

    if args.command == "train":
        from .nn.zoo import get_model

        model, dataset, result = get_model(args.dataset, args.model, scale=args.scale,
                                           seed=args.seed, use_cache=False, verbose=True)
        print(f"{args.dataset}/{args.model}: {result}")
        return 0

    if args.command == "explain":
        from .explain import ExplainTarget, make_explainer
        from .nn.zoo import get_model

        model, dataset, _ = get_model(args.dataset, args.model, scale=args.scale,
                                      seed=args.seed)
        explainer = make_explainer(args.explainer, model,
                                   **({"epochs": args.epochs}
                                      if args.explainer in ("revelio", "gnnexplainer")
                                      else {}))
        # `-t` is a bare id typed by a user: promote it to the typed target
        # here, at the edge, because the explain API takes no bare ints.
        if dataset.task == "node":
            node = args.target if args.target is not None else int(
                dataset.graph.test_mask.nonzero()[0][0]
                if dataset.graph.test_mask is not None else 0
            )
            graph = dataset.graph
            explanation = explainer.explain(graph, target=ExplainTarget.node(node),
                                            mode=args.mode)
        else:
            idx = args.target if args.target is not None else 0
            graph = dataset.graphs[idx]
            explanation = explainer.explain(graph, mode=args.mode)
        from .viz import render_explanation

        print(render_explanation(graph, explanation, k=args.top_edges))
        if explanation.flow_scores is not None:
            from .viz import format_top_flows

            print()
            print(format_top_flows(explanation, k=args.top_flows))
        return 0

    if args.command == "lint":
        from pathlib import Path

        from .checks import run_lint

        paths = args.paths
        if not paths:
            paths = [p for p in ("src", "tests", "benchmarks", "examples")
                     if Path(p).exists()]
        select = args.select.split(",") if args.select else None
        return run_lint(paths, select=select,
                        json_output=args.json_output,
                        output_format=args.output_format,
                        scope=args.scope,
                        list_rules=args.list_rules)

    if args.command == "trace":
        from .obs import summarize_trace

        for row in summarize_trace(args.path):
            print(row)
        return 0

    if args.command == "experiment":
        from .eval import experiments
        from .execution import ExecutionConfig

        config = experiments.ExperimentConfig(
            scale=args.scale, seed=args.seed, num_instances=args.instances,
            effort=args.effort)
        jobs = args.jobs if args.jobs is not None else (1 if args.resume else None)
        if (jobs is not None or args.trace) and \
                args.artifact not in ("fidelity", "auc", "runtime"):
            print(f"note: --jobs/--resume/--trace not supported for "
                  f"{args.artifact}; running in-process", file=sys.stderr)
            jobs = None
            args.trace = None
        execution = ExecutionConfig(jobs=jobs, resume=args.resume,
                                    timeout=args.timeout, retries=args.retries,
                                    trace=args.trace)
        if args.artifact == "table3":
            result = experiments.run_dataset_table(config=config)
        elif args.artifact == "fidelity":
            methods = experiments.ALL_METHODS if args.mode == "factual" \
                else experiments.COUNTERFACTUAL_METHODS
            result = experiments.run_fidelity_experiment(
                args.dataset, args.model, methods, mode=args.mode,
                config=config, execution=execution)
        elif args.artifact == "auc":
            result = experiments.run_auc_experiment(
                args.dataset, args.model, experiments.ALL_METHODS,
                mode=args.mode, config=config, execution=execution)
        elif args.artifact == "runtime":
            result = experiments.run_runtime_experiment(
                args.dataset, args.model, experiments.ALL_METHODS,
                config=config, execution=execution)
        else:
            result = experiments.run_alpha_sensitivity(
                args.dataset, args.model, mode=args.mode, config=config)
        for row in result["rows"]:
            print(row)
        if result.get("trace_path"):
            print(f"\ntrace: {result['trace_path']}\n"
                  f"manifest: {result['manifest_path']}", file=sys.stderr)
        if result.get("failures"):
            print(f"\n{sum(len(v) for v in result['failures'].values())} job(s) "
                  "failed; aggregated over surviving chunks:", file=sys.stderr)
            for method, fails in result["failures"].items():
                for f in fails:
                    print(f"  {f['job']}: {f['error']['type']}: "
                          f"{f['error']['message']}", file=sys.stderr)
        if args.artifact in ("fidelity", "alpha") and result.get("curves"):
            from .viz import render_curves

            print()
            curves = result["curves"]
            if args.artifact == "alpha":
                curves = {f"alpha={a}": c for a, c in curves.items()}
            print(render_curves(curves))
        return 0

    if args.command == "stats":
        from .obs import format_cache_summary

        for row in format_cache_summary():
            print(row)
        return 0

    if args.command == "serve":
        from .serve import ServeConfig, run_server

        config = ServeConfig(
            host=args.host, port=args.port, max_batch=args.max_batch,
            max_linger_ms=args.max_linger_ms, queue_limit=args.queue_limit,
            coalesce=not args.no_coalesce, obs_dir=args.obs_dir,
            trace_every=args.trace_every,
        )
        return run_server(config)

    if args.command == "report":
        from .eval.report import build_report, write_report

        if args.output:
            path = write_report(args.results, args.output)
            print(f"wrote {path}")
        else:
            print(build_report(args.results))
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
