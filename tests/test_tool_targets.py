"""The bench scripts in ``tools/`` import edss internals inside their
functions; a rename or removal must fail here, not when a script is rerun.

Each script is parsed, not run: every ``from edss... import name`` must
resolve, and so must every attribute read on a name bound to an edss module.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

TOOLS = sorted((Path(__file__).resolve().parents[1] / "tools").glob("*.py"))


def edss_bindings(tree: ast.Module) -> tuple[list[tuple[str, str]], dict[str, ModuleType]]:
    """``(module, name)`` of every name imported from an edss module, and the
    edss modules bound to a local name."""
    imported, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "edss":
            for alias in node.names:
                imported.append((node.module, alias.name))
                value = getattr(importlib.import_module(node.module), alias.name, None)
                if isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top == "edss":
                    bound = alias.name if alias.asname else top
                    modules[alias.asname or top] = importlib.import_module(bound)
    return imported, modules


@pytest.mark.parametrize("path", TOOLS, ids=[p.name for p in TOOLS])
def test_edss_names_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported, modules = edss_bindings(tree)
    assert imported, f"{path.name} imports nothing from edss"
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            module = modules[node.value.id]
            assert hasattr(module, node.attr), f"{module.__name__}.{node.attr}"
