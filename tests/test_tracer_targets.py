"""The benchmark tracer wraps edss functions by name; a rename must fail here,
not in the traced benchmark pass."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
_spec = importlib.util.spec_from_file_location("edss_benchmark_tracer", TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize(
    "home, name",
    [(home, name) for home, names in tracer.TARGETS.values() for name in names],
)
def test_target_resolves(home, name):
    assert callable(getattr(importlib.import_module(f"edss.{home}"), name))


def test_layers_and_formula_registry_import():
    for layer in tracer.LAYERS:
        importlib.import_module(f"edss.{layer}")
    assert importlib.import_module("edss.reference").FORMULAS
