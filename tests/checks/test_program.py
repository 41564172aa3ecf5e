"""Whole-program rules: seeded violation + clean twin per rule family,
plus ProgramContext behavior on pathological trees."""

import textwrap

from repro.checks import lint_paths
from repro.checks.blocking import BLOCKING_BARE, BLOCKING_CALLS
from repro.checks.program.api_surface import (DeadExport, DunderAllDrift,
                                              PrivateModuleReachIn)
from repro.checks.program.contracts import KernelBackendContract
from repro.checks.program.dataflow import TransitiveBlockingCall
from repro.checks.program.layering import (LAYERS, ImportCycle,
                                           LayeringContract, layer_of)


def lint(tmp_path, *codes):
    result = lint_paths([tmp_path / "src"], select=list(codes))
    return [v.format() for v in result.violations]


class TestImportCycle:
    def test_seeded_cycle_reported_once_with_path(self, make_module, tmp_path):
        make_module("pkg.__init__", "")
        make_module("pkg.alpha", "from pkg.beta import b\n\na = 1\n")
        make_module("pkg.beta", "from pkg.alpha import a\n\nb = 2\n")
        found = lint(tmp_path, "RPR100")
        assert len(found) == 1
        assert "RPR100" in found[0]
        assert "pkg.alpha -> pkg.beta -> pkg.alpha" in found[0]
        # anchored at the lexicographically-first member's import line
        assert "src/pkg/alpha.py:1:" in found[0]

    def test_lazy_edge_breaks_the_cycle(self, make_module, tmp_path):
        make_module("pkg.__init__", "")
        make_module("pkg.alpha", textwrap.dedent("""\
            def use_b():
                from pkg.beta import b
                return b

            a = 1
            """))
        make_module("pkg.beta", "from pkg.alpha import a\n\nb = 2\n")
        assert lint(tmp_path, "RPR100") == []

    def test_three_module_cycle_names_shortest_path(self, make_module,
                                                    tmp_path):
        make_module("pkg.__init__", "")
        make_module("pkg.a", "import pkg.b\n")
        make_module("pkg.b", "import pkg.c\n")
        make_module("pkg.c", "import pkg.a\n")
        found = lint(tmp_path, "RPR100")
        assert len(found) == 1
        assert "pkg.a -> pkg.b -> pkg.c -> pkg.a" in found[0]


class TestLayeringContract:
    def test_contract_shape_is_pinned(self):
        # the declared order the tree is audited against; reordering it
        # is an architecture decision, not a refactor side effect
        assert [name for name, _ in LAYERS] == [
            "foundation", "substrate", "data", "models", "flows",
            "explain", "evaluation", "orchestration"]
        assert layer_of("repro.sparse.kernels") == (1, "substrate")
        assert layer_of("repro.core") == (5, "explain")
        assert layer_of("repro.serve.daemon") == (7, "orchestration")
        assert layer_of("repro") == (7, "orchestration")
        assert layer_of("unrelated.module") is None

    def test_seeded_upward_eager_import(self, make_module, tmp_path):
        make_module("repro.__init__", "")
        make_module("repro.sparse.compute", "from repro.nn.zoo import train\n")
        make_module("repro.nn.zoo", "def train():\n    return 1\n")
        found = lint(tmp_path, "RPR101")
        assert len(found) == 1
        assert "'substrate'" in found[0] and "'models'" in found[0]
        assert "repro.sparse.compute" in found[0]

    def test_lazy_upward_import_is_sanctioned(self, make_module, tmp_path):
        make_module("repro.__init__", "")
        make_module("repro.sparse.compute", textwrap.dedent("""\
            def bench():
                from repro.nn.zoo import train
                return train()
            """))
        make_module("repro.nn.zoo", "def train():\n    return 1\n")
        assert lint(tmp_path, "RPR101") == []

    def test_type_checking_import_is_not_eager(self, make_module, tmp_path):
        make_module("repro.__init__", "")
        make_module("repro.sparse.compute", textwrap.dedent("""\
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.nn.zoo import train
            """))
        make_module("repro.nn.zoo", "def train():\n    return 1\n")
        assert lint(tmp_path, "RPR101") == []


class TestDeadExport:
    def test_seeded_dead_export(self, make_module, tmp_path):
        make_module("pkg.__init__",
                    '__all__ = ["used", "unused"]\n\n'
                    "used = 1\nunused = 2\n")
        make_module("consumer", "from pkg import used\n\nprint(used)\n")
        found = lint(tmp_path, "RPR110")
        assert len(found) == 1
        assert "'unused'" in found[0]

    def test_import_from_defining_module_credits_facade(self, make_module,
                                                        tmp_path):
        # facade re-exports; the consumer imports from the defining
        # module — the facade entry is an alias of a used symbol
        make_module("pkg.__init__",
                    "from pkg.impl import thing\n\n"
                    '__all__ = ["thing"]\n')
        make_module("pkg.impl", "thing = 1\n")
        make_module("consumer", "from pkg.impl import thing\n\nprint(thing)\n")
        assert lint(tmp_path, "RPR110") == []

    def test_no_root_package_means_no_findings(self, make_module, tmp_path):
        # a slice without the tree's root package proves nothing about
        # who imports what — lint one file, not the tree
        path = make_module("pkg.sub.mod",
                           '__all__ = ["unused"]\n\nunused = 1\n')
        result = lint_paths([path], select=["RPR110"])
        assert result.violations == []

    def test_star_import_credits_every_all_name(self, make_module, tmp_path):
        make_module("pkg.__init__",
                    '__all__ = ["one", "two"]\n\none = 1\ntwo = 2\n')
        make_module("consumer", "from pkg import *\n")
        assert lint(tmp_path, "RPR110") == []


class TestDunderAllDrift:
    def test_seeded_phantom_name(self, make_module, tmp_path):
        make_module("pkg.mod", '__all__ = ["real", "phantom"]\n\nreal = 1\n')
        found = lint(tmp_path, "RPR111")
        assert len(found) == 1
        assert "'phantom'" in found[0]

    def test_bound_names_are_clean(self, make_module, tmp_path):
        make_module("pkg.mod", textwrap.dedent("""\
            __all__ = ["real", "Klass", "imported"]

            from os.path import join as imported

            real = 1


            class Klass:
                pass
            """))
        assert lint(tmp_path, "RPR111") == []

    def test_package_may_export_its_own_submodules(self, make_module,
                                                   tmp_path):
        make_module("pkg.__init__", '__all__ = ["sub"]\n')
        make_module("pkg.sub", "x = 1\n")
        assert lint(tmp_path, "RPR111") == []


class TestPrivateModuleReachIn:
    def test_seeded_cross_subpackage_reach_in(self, make_module, tmp_path):
        make_module("pkg.left._internal", "secret = 1\n")
        make_module("pkg.right.user",
                    "from pkg.left._internal import secret\n")
        found = lint(tmp_path, "RPR112")
        assert len(found) == 1
        assert "'_internal'" in found[0]
        assert "pkg.right.user" in found[0]

    def test_same_subpackage_may_use_its_privates(self, make_module,
                                                  tmp_path):
        make_module("pkg.left._internal", "secret = 1\n")
        make_module("pkg.left.user",
                    "from pkg.left._internal import secret\n")
        assert lint(tmp_path, "RPR112") == []


_REGISTRY = textwrap.dedent("""\
    REQUIRED_BACKEND = "scipy"

    KERNELS = {}


    def register_kernel(op, backend, fn):
        KERNELS[(op, backend)] = fn


    def _scatter_scipy(values, index, out_size):
        return values


    register_kernel("scatter_add", "scipy", _scatter_scipy)
    """)


class TestKernelBackendContract:
    def test_seeded_arity_mismatch(self, make_module, tmp_path):
        make_module("pkg.kernels", _REGISTRY)
        make_module("pkg.fast", textwrap.dedent("""\
            from pkg.kernels import register_kernel


            def _scatter_fast(values, index):
                return values


            register_kernel("scatter_add", "numba", _scatter_fast)
            """))
        found = lint(tmp_path, "RPR120")
        assert len(found) == 1
        assert "takes 2 positional parameter(s)" in found[0]
        assert "(values, index, out_size)" in found[0]

    def test_matching_signature_is_clean(self, make_module, tmp_path):
        make_module("pkg.kernels", _REGISTRY)
        make_module("pkg.fast", textwrap.dedent("""\
            from pkg.kernels import register_kernel


            def _scatter_fast(values, index, out_size):
                return values


            register_kernel("scatter_add", "numba", _scatter_fast)
            """))
        assert lint(tmp_path, "RPR120") == []

    def test_unknown_op_is_flagged(self, make_module, tmp_path):
        make_module("pkg.kernels", _REGISTRY)
        make_module("pkg.fast", textwrap.dedent("""\
            from pkg.kernels import register_kernel


            def _segment_fast(values, index, out_size):
                return values


            register_kernel("segment_max", "numba", _segment_fast)
            """))
        found = lint(tmp_path, "RPR120")
        assert len(found) == 1
        assert "unknown op 'segment_max'" in found[0]


class TestTransitiveBlockingCall:
    def test_seeded_two_hop_chain(self, make_module, tmp_path):
        assert "time.sleep" in BLOCKING_CALLS and "open" in BLOCKING_BARE
        make_module("repro.serve.util", textwrap.dedent("""\
            import time


            def settle():
                time.sleep(0.5)
            """))
        make_module("repro.serve.daemon", textwrap.dedent("""\
            from repro.serve.util import settle


            async def handle(request):
                settle()
                return request
            """))
        found = lint(tmp_path, "RPR130")
        assert len(found) == 1
        assert "blocking time.sleep()" in found[0]
        assert "handle (coroutine) -> settle (repro.serve.util)" in found[0]
        # anchored at the call site inside the coroutine
        assert "src/repro/serve/daemon.py:5:" in found[0]

    def test_async_boundary_is_clean(self, make_module, tmp_path):
        make_module("repro.serve.util", textwrap.dedent("""\
            import asyncio


            async def settle():
                await asyncio.sleep(0.5)
            """))
        make_module("repro.serve.daemon", textwrap.dedent("""\
            from repro.serve.util import settle


            async def handle(request):
                await settle()
                return request
            """))
        assert lint(tmp_path, "RPR130") == []

    def test_function_passed_as_value_is_not_an_edge(self, make_module,
                                                     tmp_path):
        make_module("repro.serve.daemon", textwrap.dedent("""\
            import asyncio
            import time


            def slow():
                time.sleep(1.0)


            async def handle(loop):
                await loop.run_in_executor(None, slow)
            """))
        assert lint(tmp_path, "RPR130") == []

    def test_outside_serve_is_unconstrained(self, make_module, tmp_path):
        make_module("repro.runner.worker", textwrap.dedent("""\
            import time


            def wait():
                time.sleep(1.0)


            async def drive():
                wait()
            """))
        assert lint(tmp_path, "RPR130") == []


class TestProgramContextPathologies:
    def test_syntax_error_file_is_skipped_with_error(self, make_module,
                                                     tmp_path):
        make_module("pkg.broken", "def broken(:\n")
        make_module("pkg.alpha", "from pkg.beta import b\n\na = 1\n")
        make_module("pkg.beta", "from pkg.alpha import a\n\nb = 2\n")
        result = lint_paths([tmp_path / "src"], select=["RPR100"])
        assert len(result.errors) == 1
        assert "syntax error" in result.errors[0][1]
        # the rest of the program is still analyzed
        assert any(v.code == "RPR100" for v in result.violations)

    def test_namespace_package_modules_resolve(self, make_module, tmp_path):
        # no __init__.py chain: modules fall back to their bare stem
        nsdir = tmp_path / "src" / "nspkg"
        nsdir.mkdir(parents=True)
        (nsdir / "mod.py").write_text("x = 1\n")
        result = lint_paths([tmp_path / "src"])
        assert result.errors == []
        assert result.files_checked == 1

    def test_deterministic_violation_ordering(self, make_module, tmp_path):
        make_module("pkg.__init__", "")
        make_module("pkg.a", "import pkg.b\n")
        make_module("pkg.b", "import pkg.a\n")
        make_module("pkg.zeta", '__all__ = ["ghost"]\n')
        runs = [lint(tmp_path, "RPR100", "RPR111") for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0] == sorted(runs[0])


class TestProgramRuleClasses:
    def test_rule_classes_carry_program_scope(self):
        for cls in (ImportCycle, LayeringContract, DeadExport,
                    DunderAllDrift, PrivateModuleReachIn,
                    KernelBackendContract, TransitiveBlockingCall):
            assert cls.scope == "program"
            assert cls.code.startswith("RPR1")
