"""Engine mechanics: suppression, selection, exit codes, output formats."""

import io
import json

import pytest

import ast

from repro.checks import lint_paths, resolve_codes, run_lint
from repro.checks.engine import expand_noqa_map, module_name, statement_spans
from repro.checks.registry import RULES, Rule, register
from repro.errors import CheckError

BARE_EXCEPT = """\
try:
    x = 1
except:
    x = 2
"""


def codes(result):
    return [v.code for v in result.violations]


class TestNoqa:
    def test_bare_noqa_suppresses_every_rule(self, make_module):
        path = make_module("scratch", BARE_EXCEPT.replace(
            "except:", "except:  # repro: noqa"))
        assert lint_paths([path]).clean

    def test_coded_noqa_suppresses_that_code(self, make_module):
        path = make_module("scratch", BARE_EXCEPT.replace(
            "except:", "except:  # repro: noqa[RPR010]"))
        result = lint_paths([path])
        assert "RPR010" not in codes(result)

    def test_coded_noqa_leaves_other_codes(self, make_module):
        path = make_module("scratch", BARE_EXCEPT.replace(
            "except:", "except:  # repro: noqa[RPR001]"))
        assert codes(lint_paths([path])) == ["RPR010"]

    def test_multiple_codes_in_one_comment(self, make_module):
        # a bare broad except with a pass body trips RPR010 and RPR011
        source = "try:\n    x = 1\nexcept:  # repro: noqa[RPR010, RPR011]\n    pass\n"
        assert lint_paths([make_module("scratch", source)]).clean

    def test_noqa_only_covers_its_line(self, make_module):
        source = "# repro: noqa\ntry:\n    x = 1\nexcept:\n    x = 2\n"
        assert codes(lint_paths([make_module("scratch", source)])) == ["RPR010"]


class TestLogicalLineNoqa:
    """A noqa anywhere on a multi-line statement (or its decorators)
    covers the whole logical line, so findings anchored on the first
    line are suppressible from wherever the comment reads best."""

    def test_noqa_on_decorator_suppresses_def_line_finding(self,
                                                           make_module):
        source = (
            "import functools\n"
            "\n"
            "\n"
            "@functools.wraps(dict)  # repro: noqa[RPR020]\n"
            "def explain(target=None):\n"
            "    return target\n"
        )
        result = lint_paths([make_module("repro.explain.scratch", source)])
        assert "RPR020" not in codes(result)

    def test_noqa_on_closing_line_of_multiline_def(self, make_module):
        source = (
            "def explain(\n"
            "    target=None,\n"
            "):  # repro: noqa[RPR020]\n"
            "    return target\n"
        )
        result = lint_paths([make_module("repro.explain.scratch", source)])
        assert "RPR020" not in codes(result)

    def test_unsuppressed_twin_still_fires(self, make_module):
        source = (
            "def explain(\n"
            "    target=None,\n"
            "):\n"
            "    return target\n"
        )
        result = lint_paths([make_module("repro.explain.scratch", source)])
        assert "RPR020" in codes(result)

    def test_statement_spans_cover_decorators_and_headers(self):
        tree = ast.parse(
            "@deco(\n"      # 1
            "    1,\n"      # 2
            ")\n"           # 3
            "def f(\n"      # 4
            "    a,\n"      # 5
            "):\n"          # 6
            "    return a\n"  # 7
        )
        assert (1, 6) in set(statement_spans(tree))

    def test_expand_noqa_map_spreads_codes_across_span(self):
        tree = ast.parse("x = [\n    1,\n    2,\n]\n")
        literal = {3: frozenset({"RPR001"})}
        effective = expand_noqa_map(literal, tree)
        assert effective[1] == frozenset({"RPR001"})
        assert effective[4] == frozenset({"RPR001"})

    def test_suppress_all_wins_within_a_span(self):
        tree = ast.parse("x = [\n    1,\n]\n")
        literal = {1: frozenset({"RPR001"}), 2: None}
        effective = expand_noqa_map(literal, tree)
        assert effective[1] is None and effective[3] is None


class TestExitCodes:
    def test_clean_tree_is_zero(self, make_module):
        path = make_module("scratch", "x = 1\n")
        result = lint_paths([path])
        assert result.clean and result.exit_code == 0
        assert result.files_checked == 1

    def test_violations_are_one(self, make_module):
        result = lint_paths([make_module("scratch", BARE_EXCEPT)])
        assert result.exit_code == 1

    def test_syntax_error_is_two(self, make_module):
        result = lint_paths([make_module("broken", "def f(:\n")])
        assert result.exit_code == 2
        assert "syntax error" in result.errors[0][1]

    def test_missing_path_is_two(self, tmp_path):
        result = lint_paths([tmp_path / "no_such_file.py"])
        assert result.exit_code == 2
        assert "unreadable" in result.errors[0][1]


class TestSelection:
    def test_select_runs_only_named_rules(self, make_module):
        path = make_module("scratch", BARE_EXCEPT)
        result = lint_paths([path], select=["RPR001"])
        assert result.clean
        assert result.rule_codes == ["RPR001"]

    def test_select_is_case_insensitive(self):
        assert [r.code for r in resolve_codes(["rpr010"])] == ["RPR010"]

    def test_unknown_code_raises_checkerror(self):
        with pytest.raises(CheckError, match="RPR999"):
            resolve_codes(["RPR999"])

    def test_register_rejects_malformed_code(self):
        with pytest.raises(CheckError, match="does not match"):
            @register
            class Bad(Rule):
                code = "XYZ1"

    def test_register_rejects_duplicate_code(self):
        taken = sorted(RULES)[0]
        with pytest.raises(CheckError, match="duplicate"):
            @register
            class Clash(Rule):
                code = taken


class TestModuleResolution:
    def test_nested_packages_resolve_to_dotted_name(self, make_module):
        path = make_module("repro.flows.scratch", "x = 1\n")
        assert module_name(path) == "repro.flows.scratch"

    def test_file_outside_packages_is_bare_stem(self, tmp_path):
        path = tmp_path / "standalone.py"
        path.write_text("x = 1\n")
        assert module_name(path) == "standalone"


class TestRunLint:
    def test_json_schema(self, make_module):
        path = make_module("scratch", BARE_EXCEPT)
        stream = io.StringIO()
        exit_code = run_lint([str(path)], json_output=True, stream=stream)
        payload = json.loads(stream.getvalue())
        assert exit_code == 1
        assert payload["clean"] is False
        assert payload["files_checked"] == 1
        assert payload["errors"] == []
        [violation] = [v for v in payload["violations"]
                       if v["code"] == "RPR010"]
        assert set(violation) == {"code", "message", "path", "line", "col"}
        assert violation["line"] == 3

    def test_human_output_and_summary(self, make_module):
        path = make_module("scratch", BARE_EXCEPT)
        stream = io.StringIO()
        assert run_lint([str(path)], stream=stream) == 1
        text = stream.getvalue()
        assert f"{path.as_posix()}:3:0: RPR010" in text
        assert "violation(s)" in text

    def test_clean_summary(self, make_module):
        path = make_module("scratch", "x = 1\n")
        stream = io.StringIO()
        assert run_lint([str(path)], stream=stream) == 0
        assert "clean" in stream.getvalue()

    def test_unknown_rule_is_usage_error(self, make_module, tmp_path):
        stream = io.StringIO()
        assert run_lint([str(tmp_path)], select=["RPR999"], stream=stream) == 2
        assert "unknown rule code" in stream.getvalue()

    def test_unknown_rule_json_error(self, tmp_path):
        stream = io.StringIO()
        assert run_lint([str(tmp_path)], select=["RPR999"],
                        json_output=True, stream=stream) == 2
        assert "error" in json.loads(stream.getvalue())

    def test_list_rules(self):
        stream = io.StringIO()
        assert run_lint([], list_rules=True, stream=stream) == 0
        text = stream.getvalue()
        for code in RULES:
            assert code in text


class TestCLI:
    def test_lint_subcommand_wired(self, make_module):
        from repro.cli import main

        path = make_module("scratch", BARE_EXCEPT)
        assert main(["lint", str(path)]) == 1
        assert main(["lint", str(path), "--select", "RPR001"]) == 0
