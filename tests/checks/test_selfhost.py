"""The lint pass holds on the repository itself, and the name registry
agrees with the runtime objects it describes."""

from pathlib import Path

import repro
from repro.checks import RULES, lint_paths
from repro.obs.counters import PerfCounters
from repro.obs.names import COUNTER_NAMES, SPAN_NAMES, STAGE_NAMES

REPO_ROOT = Path(repro.__file__).resolve().parents[2]

EXPECTED_CODES = {
    "RPR001", "RPR002", "RPR003",          # determinism
    "RPR010", "RPR011", "RPR012",          # error discipline
    "RPR020",                              # API contracts
    "RPR030", "RPR031",                    # observability conformance
    "RPR050",                              # scatter discipline
    "RPR100", "RPR101",                    # architecture (whole-program)
    "RPR110", "RPR111", "RPR112",          # API surface (whole-program)
    "RPR120",                              # cross-file contracts
    "RPR130",                              # dataflow
}

#: The four roots the whole-program pass must see together: export-usage
#: accounting is only meaningful over every consumer at once.
ALL_ROOTS = [REPO_ROOT / "src", REPO_ROOT / "tests",
             REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]


class TestSelfHosting:
    def test_full_tree_is_clean(self):
        result = lint_paths(ALL_ROOTS)
        assert result.files_checked > 100
        assert result.errors == []
        assert result.violations == [], "\n".join(
            v.format() for v in result.violations)

    def test_program_rules_alone_are_clean(self):
        # the CI lint-program job's exact selection
        result = lint_paths(ALL_ROOTS, select=sorted(
            c for c in EXPECTED_CODES if c.startswith("RPR1")))
        assert result.errors == []
        assert result.violations == [], "\n".join(
            v.format() for v in result.violations)


class TestRegistryConsistency:
    def test_expected_rules_registered(self):
        assert EXPECTED_CODES <= set(RULES)

    def test_counter_names_track_perfcounters_slots(self):
        assert COUNTER_NAMES == frozenset(PerfCounters.__slots__) - {"stage_seconds"}

    def test_registries_are_disjoint_namespaces(self):
        # a stage accumulates seconds, a counter accumulates events —
        # one name must never be read as both
        assert not STAGE_NAMES & COUNTER_NAMES

    def test_span_names_nonempty_strings(self):
        assert SPAN_NAMES
        assert all(isinstance(n, str) and n for n in SPAN_NAMES)
