"""Every function, class and constant that a module of ``src/edss`` defines, the
names ``edss`` exports among them, is read outside the tests: by the README, a
tool, the benchmark, or code of ``src/edss`` that one of those reaches. A name
that only tests read belongs with the tests (``explicit_forms.py``). The check
suites, the root search and the public checks keep the signatures pinned here."""

import ast
import functools
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


def defined_names() -> list[str]:
    """``module.name`` of each function, class and assigned name (dunders aside)
    at the top level of a module of ``src/edss``."""
    found = []
    for path in sorted((ROOT / "src" / "edss").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            found += [f"{path.stem}.{name}" for name in names if not name.startswith("__")]
    return found


@pytest.mark.parametrize("name", defined_names())
def test_every_defined_name_is_read_outside_the_tests(name):
    assert name.split(".")[1] in READ, f"edss.{name} is read only by tests"


# The suites, the root search and the public checks take no grid density, dimension
# list, draw count, bracket or tolerance: those are the named constants of
# ``edss.checks``, ``edss.protocols``, ``edss.tensor`` and ``edss.channels``. The
# benchmark calls ``run_checks("all", identity={"seed": s})``.
SIGNATURES = {
    "critical_noise": "(fn: 'Callable[[float], float]') -> 'float'",
    "identity_suite": (
        "(seed: 'int' = 20230711, *, grids: 'dict | None' = None) -> 'list[CheckResult]'"
    ),
    "separability_suite": "(*, grids: 'dict | None' = None) -> 'list[CheckResult]'",
    "closed_form_suite": "(*, grids: 'dict | None' = None) -> 'list[CheckResult]'",
    "run_checks": "(suite: 'str' = 'all', **kwargs) -> 'list[CheckResult]'",
    "tensor.is_hermitian": "(m: 'np.ndarray') -> 'bool'",
    "hermitian_eigenvalues": "(h: 'np.ndarray') -> 'np.ndarray'",
    "DensityOperator.validate": "(self) -> \"'DensityOperator'\"",
    "is_cpt": "(ch: 'QuditChannel') -> 'CptReport'",
    "channels.has_canonical_form": "(ch: 'QuditChannel') -> 'bool'",
    "verify_identity_chain": "(trace: 'ProtocolTrace') -> 'ChainReport'",
    "separability_audit": "(trace: 'ProtocolTrace') -> 'SeparabilityReport'",
    "random_cp_canonical": "(rng: 'np.random.Generator') -> 'CanonicalChannel'",
    "svgchart.render_line_chart": (
        "(xs: 'Sequence[float]', series: 'Sequence[tuple[str, Sequence[float]]]', "
        "title: 'str', x_label: 'str') -> 'str'"
    ),
}


@pytest.mark.parametrize("name", SIGNATURES)
def test_suite_and_root_search_signatures(name):
    # a dotted name from edss, or a bare name of edss or edss.checks
    fn = getattr(edss, name, None) or getattr(edss.checks, name, None)
    fn = fn or functools.reduce(getattr, name.split("."), edss)
    assert str(inspect.signature(fn)) == SIGNATURES[name]
