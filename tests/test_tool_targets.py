"""The bench scripts in ``tools/`` import edss internals inside their
functions; a rename or removal must fail here, not when a script is rerun.

Each script is parsed, not run: every ``from edss... import name`` must
resolve, and so must every attribute read on a name bound to an edss module.
Every keyword argument passed to an imported edss callable must be one of
its parameters.
"""

import ast
import importlib
import inspect
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


def edss_callee(func: ast.expr, modules: dict[str, ModuleType], names: dict[str, object]):
    """The edss object a call's ``func`` names, or None."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module = modules.get(func.value.id)
        return None if module is None else getattr(module, func.attr, None)
    return None


@pytest.mark.parametrize("path", TOOLS, ids=[p.name for p in TOOLS])
def test_edss_keyword_arguments_exist(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    _, modules = edss_bindings(tree)
    names = {
        alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "edss"
        for alias in node.names
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = edss_callee(node.func, modules, names)
        if not callable(callee):
            continue
        params = inspect.signature(callee).parameters
        takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
        for keyword in node.keywords:
            if keyword.arg is not None and not takes_any:
                assert keyword.arg in params, (
                    f"{path.name}:{node.lineno}: {callee.__qualname__} has no "
                    f"parameter {keyword.arg!r}"
                )
