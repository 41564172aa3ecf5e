"""One seeded violation (and one clean twin) per rule, RPR001–RPR060."""

from repro.checks import lint_paths
from repro.obs.names import COUNTER_NAMES


def codes(result):
    return [v.code for v in result.violations]


def lint_one(make_module, dotted, source, select=None):
    return lint_paths([make_module(dotted, source)], select=select)


class TestGlobalRandomState:
    def test_np_random_module_call_flagged(self, make_module):
        result = lint_one(make_module, "scratch",
                          "import numpy as np\nnp.random.seed(0)\n",
                          select=["RPR001"])
        assert codes(result) == ["RPR001"]
        assert result.violations[0].line == 2

    def test_stdlib_random_alias_flagged(self, make_module):
        source = "import random as rnd\nx = rnd.random()\n"
        assert codes(lint_one(make_module, "scratch", source,
                              select=["RPR001"])) == ["RPR001"]

    def test_from_random_import_flagged(self, make_module):
        source = "from random import shuffle\n"
        assert codes(lint_one(make_module, "scratch", source,
                              select=["RPR001"])) == ["RPR001"]

    def test_default_rng_is_clean(self, make_module):
        source = ("import numpy as np\n"
                  "rng = np.random.default_rng(0)\n"
                  "x = rng.random()\n")
        assert lint_one(make_module, "scratch", source,
                        select=["RPR001"]).clean


class TestWallClockSeed:
    def test_time_seed_flagged(self, make_module):
        source = ("import time\nimport numpy as np\n"
                  "rng = np.random.default_rng(int(time.time()))\n")
        result = lint_one(make_module, "scratch", source, select=["RPR002"])
        assert codes(result) == ["RPR002"]

    def test_ensure_rng_with_pid_flagged(self, make_module):
        source = ("import os\nfrom repro.rng import ensure_rng\n"
                  "rng = ensure_rng(os.getpid())\n")
        assert codes(lint_one(make_module, "scratch", source,
                              select=["RPR002"])) == ["RPR002"]

    def test_integer_seed_is_clean(self, make_module):
        source = ("import numpy as np\nrng = np.random.default_rng(17)\n")
        assert lint_one(make_module, "scratch", source,
                        select=["RPR002"]).clean


class TestSetOrderIteration:
    def test_for_over_set_in_flows_flagged(self, make_module):
        source = "for x in {1, 2, 3}:\n    print(x)\n"
        assert codes(lint_one(make_module, "repro.flows.scratch", source,
                              select=["RPR003"])) == ["RPR003"]

    def test_list_of_set_union_flagged(self, make_module):
        source = "a = {1}\nb = {2}\nxs = list(a.union(b))\n"
        assert codes(lint_one(make_module, "repro.explain.scratch", source,
                              select=["RPR003"])) == ["RPR003"]

    def test_sorted_set_is_clean(self, make_module):
        source = "for x in sorted({1, 2, 3}):\n    print(x)\n"
        assert lint_one(make_module, "repro.flows.scratch", source,
                        select=["RPR003"]).clean

    def test_out_of_scope_module_not_flagged(self, make_module):
        source = "for x in {1, 2, 3}:\n    print(x)\n"
        assert lint_one(make_module, "repro.eval.scratch", source,
                        select=["RPR003"]).clean


class TestErrorDiscipline:
    def test_bare_except_flagged(self, make_module):
        source = "try:\n    x = 1\nexcept:\n    x = 2\n"
        assert codes(lint_one(make_module, "scratch", source,
                              select=["RPR010"])) == ["RPR010"]

    def test_swallowed_exception_flagged(self, make_module):
        source = "try:\n    x = 1\nexcept Exception:\n    pass\n"
        assert codes(lint_one(make_module, "scratch", source,
                              select=["RPR011"])) == ["RPR011"]

    def test_swallowed_tuple_flagged(self, make_module):
        source = "try:\n    x = 1\nexcept (ValueError, BaseException):\n    ...\n"
        assert codes(lint_one(make_module, "scratch", source,
                              select=["RPR011"])) == ["RPR011"]

    def test_recorded_broad_except_is_clean(self, make_module):
        source = ("failures = []\ntry:\n    x = 1\n"
                  "except Exception as exc:\n    failures.append(exc)\n")
        assert lint_one(make_module, "scratch", source,
                        select=["RPR010", "RPR011"]).clean


class TestForeignRaise:
    def test_builtin_raise_in_library_flagged(self, make_module):
        source = "def f():\n    raise ValueError('nope')\n"
        result = lint_one(make_module, "repro.scratch", source,
                          select=["RPR012"])
        assert codes(result) == ["RPR012"]
        # the message advertises the live hierarchy
        assert "ReproError" in result.violations[0].message

    def test_repro_error_is_clean(self, make_module):
        source = ("from repro.errors import FlowError\n"
                  "def f():\n    raise FlowError('nope')\n")
        assert lint_one(make_module, "repro.scratch", source,
                        select=["RPR012"]).clean

    def test_not_implemented_allowed(self, make_module):
        source = "def f():\n    raise NotImplementedError\n"
        assert lint_one(make_module, "repro.scratch", source,
                        select=["RPR012"]).clean

    def test_outside_library_not_flagged(self, make_module):
        source = "def f():\n    raise ValueError('fine in tests')\n"
        assert lint_one(make_module, "tests.scratch", source,
                        select=["RPR012"]).clean


class TestPositionalDefaults:
    def test_public_eval_function_flagged(self, make_module):
        source = "def curve(model, metric='minus'):\n    return metric\n"
        result = lint_one(make_module, "repro.eval.scratch", source,
                          select=["RPR020"])
        assert codes(result) == ["RPR020"]
        assert "metric" in result.violations[0].message

    def test_keyword_only_is_clean(self, make_module):
        source = "def curve(model, *, metric='minus'):\n    return metric\n"
        assert lint_one(make_module, "repro.eval.scratch", source,
                        select=["RPR020"]).clean

    def test_private_function_exempt(self, make_module):
        source = "def _helper(model, metric='minus'):\n    return metric\n"
        assert lint_one(make_module, "repro.eval.scratch", source,
                        select=["RPR020"]).clean

    def test_all_controls_publicness(self, make_module):
        source = ("__all__ = ['public']\n"
                  "def public(x, *, y=1):\n    return y\n"
                  "def unexported(x, y=1):\n    return y\n")
        assert lint_one(make_module, "repro.explain.scratch", source,
                        select=["RPR020"]).clean

    def test_out_of_scope_module_exempt(self, make_module):
        source = "def curve(model, metric='minus'):\n    return metric\n"
        assert lint_one(make_module, "repro.runner.scratch", source,
                        select=["RPR020"]).clean


class TestFlatExecutionKwargs:
    def test_flat_jobs_kwarg_flagged_even_in_tests(self, make_module):
        source = ("from repro.eval.experiments import run_fidelity_experiment\n"
                  "run_fidelity_experiment('d', 'gcn', ('gradcam',), jobs=2)\n")
        result = lint_one(make_module, "tests.scratch", source,
                          select=["RPR021"])
        assert codes(result) == ["RPR021"]
        assert "ExecutionConfig" in result.violations[0].message

    def test_execution_object_is_clean(self, make_module):
        source = ("from repro.eval.experiments import run_fidelity_experiment\n"
                  "from repro.execution import ExecutionConfig\n"
                  "run_fidelity_experiment('d', 'gcn', ('gradcam',),\n"
                  "                        execution=ExecutionConfig(jobs=2))\n")
        assert lint_one(make_module, "tests.scratch", source,
                        select=["RPR021"]).clean


class TestObservabilityConformance:
    def test_unregistered_span_literal_flagged(self, make_module):
        source = ("from repro.obs import span\n"
                  "with span('masked_foward_batch'):\n    pass\n")
        result = lint_one(make_module, "repro.scratch", source,
                          select=["RPR030"])
        assert codes(result) == ["RPR030"]
        assert "did you mean" in result.violations[0].message

    def test_registered_constant_is_clean(self, make_module):
        source = ("from repro.obs import span\n"
                  "from repro.obs.names import SPAN_FIT\n"
                  "with span(SPAN_FIT):\n    pass\n")
        assert lint_one(make_module, "repro.scratch", source,
                        select=["RPR030"]).clean

    def test_tests_may_open_ad_hoc_spans(self, make_module):
        source = ("from repro.obs import span\n"
                  "with span('anything-goes'):\n    pass\n")
        assert lint_one(make_module, "tests.scratch", source,
                        select=["RPR030"]).clean

    def test_unregistered_stage_flagged(self, make_module):
        source = ("from repro.obs import PERF\n"
                  "with PERF.stage('bogus_stage'):\n    pass\n")
        assert codes(lint_one(make_module, "repro.scratch", source,
                              select=["RPR031"])) == ["RPR031"]

    def test_unknown_counter_attribute_flagged(self, make_module):
        source = ("from repro.obs import PERF\n"
                  "PERF.batchedforwards += 1\n")
        result = lint_one(make_module, "repro.scratch", source,
                          select=["RPR031"])
        assert codes(result) == ["RPR031"]

    def test_declared_counters_and_methods_clean(self, make_module):
        counter = sorted(COUNTER_NAMES)[0]
        source = ("from repro.obs import PERF\n"
                  f"PERF.{counter} += 1\n"
                  "snap = PERF.snapshot()\n")
        assert lint_one(make_module, "repro.scratch", source,
                        select=["RPR031"]).clean


class TestRawUfuncScatter:
    def test_np_add_at_in_library_flagged(self, make_module):
        source = ("import numpy as np\n"
                  "out = np.zeros((4, 2))\n"
                  "np.add.at(out, [0, 1], 1.0)\n")
        result = lint_one(make_module, "repro.flows.scratch", source,
                          select=["RPR050"])
        assert codes(result) == ["RPR050"]
        assert result.violations[0].line == 3
        assert "scatter_add" in result.violations[0].message

    def test_np_maximum_at_flagged_with_segment_max_hint(self, make_module):
        source = ("import numpy as np\n"
                  "np.maximum.at(out, idx, vals)\n")
        result = lint_one(make_module, "repro.nn.scratch", source,
                          select=["RPR050"])
        assert codes(result) == ["RPR050"]
        assert "segment_max" in result.violations[0].message

    def test_repro_sparse_is_exempt(self, make_module):
        """The numpy backend inside repro.sparse *is* the dense reference."""
        source = ("import numpy as np\n"
                  "np.add.at(out, idx, vals)\n")
        assert lint_one(make_module, "repro.sparse.scratch", source,
                        select=["RPR050"]).clean

    def test_tests_and_benchmarks_are_exempt(self, make_module):
        source = ("import numpy as np\n"
                  "np.add.at(out, idx, vals)\n")
        assert lint_one(make_module, "tests.scratch", source,
                        select=["RPR050"]).clean
        assert lint_one(make_module, "bench_scratch", source,
                        select=["RPR050"]).clean

    def test_audited_noqa_suppresses(self, make_module):
        source = ("import numpy as np\n"
                  "np.add.at(out, idx, vals)  # repro: noqa[RPR050]\n")
        assert lint_one(make_module, "repro.autograd.scratch", source,
                        select=["RPR050"]).clean

    def test_plan_backed_dispatch_is_clean(self, make_module):
        source = ("from repro.sparse import kernel\n"
                  "out = kernel('scatter_add')(plan, values)\n")
        assert lint_one(make_module, "repro.nn.scratch", source,
                        select=["RPR050"]).clean


class TestBlockingCallInCoroutine:
    def test_time_sleep_in_serve_coroutine_flagged(self, make_module):
        source = ("import asyncio\n"
                  "import time\n"
                  "async def linger(self):\n"
                  "    time.sleep(0.5)\n")
        result = lint_one(make_module, "repro.serve.scratch", source,
                          select=["RPR060"])
        assert codes(result) == ["RPR060"]
        assert result.violations[0].line == 4
        assert "asyncio.sleep" in result.violations[0].message
        assert "linger" in result.violations[0].message

    def test_subprocess_and_open_flagged(self, make_module):
        source = ("import subprocess\n"
                  "async def reload_model(path):\n"
                  "    subprocess.run(['true'])\n"
                  "    data = open(path).read()\n"
                  "    return data\n")
        result = lint_one(make_module, "repro.serve.scratch", source,
                          select=["RPR060"])
        assert codes(result) == ["RPR060", "RPR060"]
        messages = " ".join(v.message for v in result.violations)
        assert "create_subprocess_exec" in messages
        assert "run_in_executor" in messages

    def test_sync_helper_in_serve_is_clean(self, make_module):
        source = ("import time\n"
                  "def warmup():\n"
                  "    time.sleep(0.1)\n")
        assert lint_one(make_module, "repro.serve.scratch", source,
                        select=["RPR060"]).clean

    def test_nested_sync_def_inside_coroutine_is_clean(self, make_module):
        """Nested defs run on the executor, where blocking is legal."""
        source = ("import time\n"
                  "async def dispatch(loop, executor):\n"
                  "    def work():\n"
                  "        time.sleep(0.1)\n"
                  "        return 1\n"
                  "    return await loop.run_in_executor(executor, work)\n")
        assert lint_one(make_module, "repro.serve.scratch", source,
                        select=["RPR060"]).clean

    def test_outside_repro_serve_is_exempt(self, make_module):
        source = ("import time\n"
                  "async def linger():\n"
                  "    time.sleep(0.5)\n")
        assert lint_one(make_module, "repro.runner.scratch", source,
                        select=["RPR060"]).clean
        assert lint_one(make_module, "tests.serve.scratch", source,
                        select=["RPR060"]).clean
