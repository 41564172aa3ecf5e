"""The benchmark tracer's method table names methods that exist.

``perfbench/tracer.py`` patches the library from outside, by import path
and attribute name (``WRAPPED_METHODS``), so neither the import graph nor
the lint sees those uses. Loading the tracer by path, unchanged, and
resolving every entry here makes a rename (``Tensor.backward``,
``Adam.step``, ``FlowIndex.aggregate_scores``, ...) fail in the tests
rather than when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[2] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = load_tracer().WRAPPED_METHODS


def test_the_table_is_not_empty():
    assert len(WRAPPED) >= 10


@pytest.mark.parametrize("name, module, owner, attr", WRAPPED, ids=[row[0] for row in WRAPPED])
def test_every_wrapped_method_is_defined_where_the_table_says(name, module, owner, attr):
    cls = getattr(importlib.import_module(module), owner)
    assert isinstance(cls, type)
    # install() reads the attribute from the owner's own __dict__.
    assert attr in cls.__dict__, f"{name}: {module}.{owner} defines no {attr!r}"
    assert callable(cls.__dict__[attr])
