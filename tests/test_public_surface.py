"""Every name ``edss`` exports is read outside the tests: by the README, a tool,
the benchmark, or code of ``src/edss`` that one of those reaches. A name that
only tests read belongs with the tests (``explicit_forms.py``). The check suites
and the root search keep the signatures pinned here."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import edss

ROOT = Path(__file__).resolve().parents[1]


def reads(node: ast.AST) -> set[str]:
    """Each name ``node`` loads, and each string constant (the benchmark tracer
    wraps functions by name)."""
    return {
        n.id if isinstance(n, ast.Name) else n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def read_outside_the_tests() -> set[str]:
    """The names the README, ``tools/`` and ``benchmarks/`` read, and those read
    by the ``src/edss`` code they reach: each module's statements other than its
    functions and classes, and each function or class whose name is read."""
    found = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in [*(ROOT / "tools").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]:
        found |= reads(ast.parse(path.read_text(encoding="utf-8")))
    definitions: dict[str, set[str]] = {}
    for path in set((ROOT / "src" / "edss").glob("*.py")) - {ROOT / "src" / "edss" / "__init__.py"}:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(stmt.name, set()).update(reads(stmt))
            else:
                found |= reads(stmt)
    while grown := set().union(*(definitions.pop(name) for name in found & definitions.keys())):
        found |= grown
    return found


READ = read_outside_the_tests()


@pytest.mark.parametrize("name", edss.__all__)
def test_every_exported_name_is_read_outside_the_tests(name):
    assert name in READ, f"edss.{name} is read only by tests"


# The suites and the root search take no grid density, dimension list, draw count,
# bracket or tolerance: those are the named constants of ``edss.checks`` and
# ``edss.protocols``. The benchmark calls ``run_checks("all", identity={"seed": s})``.
SIGNATURES = {
    "critical_noise": "(fn: 'Callable[[float], float]') -> 'float'",
    "identity_suite": (
        "(seed: 'int' = 20230711, *, grids: 'dict | None' = None) -> 'list[CheckResult]'"
    ),
    "separability_suite": "(*, grids: 'dict | None' = None) -> 'list[CheckResult]'",
    "closed_form_suite": "(*, grids: 'dict | None' = None) -> 'list[CheckResult]'",
    "run_checks": "(suite: 'str' = 'all', **kwargs) -> 'list[CheckResult]'",
}


@pytest.mark.parametrize("name", SIGNATURES)
def test_suite_and_root_search_signatures(name):
    fn = getattr(edss, name, None) or getattr(edss.checks, name)
    assert str(inspect.signature(fn)) == SIGNATURES[name]
