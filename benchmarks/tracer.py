"""Outside-in tracer for the traced benchmark pass.

``Tracer.install`` wraps the public edss functions named in ``TARGETS`` at
every edss module that binds them, including names rebound through
``from .x import y`` (``edss.protocols.negativity``, ``edss.sweep.qudit_average_only``
and so on), so calls between modules go through the wrapper too. The
closed-form formulas are wrapped in the shared ``FORMULAS`` registry, which
both ``closed_form`` and the check suites read. Each call records a span
(name, start, end, parent, root); spans stay in memory until ``write``.
The program itself is not modified.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "states", "channels", "tensor", "measures", "protocols",
    "reference", "checks", "sweep", "svgchart", "cli",
)

# span name -> (defining module, functions recorded under that name)
TARGETS = {
    "states.initial_state": (
        "states", ("edss_initial_two_qubit", "ghz_initial_state", "qudit_initial_state"),
    ),
    "states.cnot": ("states", ("cnot",)),
    "states.measure_computational": ("states", ("measure_computational",)),
    "states.bob_deterministic_map": ("states", ("bob_deterministic_map",)),
    "channels.is_cpt": ("channels", ("is_cpt",)),
    "channels.has_canonical_form": ("channels", ("has_canonical_form",)),
    "channels.apply_to_subsystem": ("channels", ("apply_to_subsystem",)),
    # DensityOperator validation reaches hermiticity through this name.
    "tensor.is_hermitian": ("tensor", ("is_hermitian",)),
    "tensor.hermitian_eigenvalues": ("tensor", ("hermitian_eigenvalues",)),
    "tensor.partial_transpose": ("tensor", ("partial_transpose",)),
    "tensor.partial_trace": ("tensor", ("partial_trace",)),
    "measures.negativity": ("measures", ("negativity",)),
    "measures.concurrence": ("measures", ("concurrence",)),
    "measures.average_negativity": ("measures", ("average_negativity",)),
    "protocols.run": ("protocols", ("run_two_qubit", "run_ghz", "run_qudit")),
    "protocols.states": ("protocols", ("two_qubit_states", "ghz_states", "qudit_states")),
    "protocols.critical_noise": ("protocols", ("critical_noise",)),
    "protocols.verify_identity_chain": ("protocols", ("verify_identity_chain",)),
    "protocols.separability_audit": ("protocols", ("separability_audit",)),
    "checks.run_checks": ("checks", ("run_checks",)),
    "checks.suite": ("checks", ("identity_suite", "separability_suite", "closed_form_suite")),
    "checks.average_only": (
        "checks", ("qudit_average_only", "ghz_average_only", "two_qubit_average_only"),
    ),
    "checks.random_cp_canonical": ("checks", ("random_cp_canonical",)),
    "sweep.run_sweep": ("sweep", ("run_sweep",)),
    "svgchart.render_line_chart": ("svgchart", ("render_line_chart",)),
    "cli.main": ("cli", ("main",)),
}
CLOSED_FORM_SPAN = "reference.closed_form"


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _initial_state_key(fn):
    def note(args, kwargs, result):
        return (fn.__name__, args[0] if args else kwargs.get("d", 2))
    return note


def _eig_side(args, kwargs, result):
    return int(np.shape(_first_arg(args, kwargs, "h"))[0])


def _null_branches(args, kwargs, result):
    return (sum(branch.post_state is None for branch in result), len(result))


def _channel_key(args, kwargs, result):
    ch = _first_arg(args, kwargs, "ch")
    fields = []
    for key, value in sorted(vars(ch).items()):
        if isinstance(value, (tuple, np.ndarray)):
            value = np.asarray(value).tobytes()
        fields.append((key, value))
    return (type(ch).__name__, tuple(fields))


NOTES = {
    "hermitian_eigenvalues": _eig_side,
    "measure_computational": _null_branches,
    "is_cpt": _channel_key,
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.notes: dict[int, object] = {}
        self._stack: list[tuple[int, int]] = []

    def wrap(self, name, fn, note=None):
        spans, notes, stack = self.spans, self.notes, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent, root = stack[-1] if stack else (-1, index)
            stack.append((index, root))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, root)
            if note is not None:
                notes[index] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every edss module that binds it."""
        package = importlib.import_module("edss")
        modules = [package] + [importlib.import_module(f"edss.{m}") for m in LAYERS]
        for span, (home, names) in TARGETS.items():
            for name in names:
                original = getattr(importlib.import_module(f"edss.{home}"), name)
                note = _initial_state_key(original) if span == "states.initial_state" else None
                wrapped = self.wrap(span, original, note or NOTES.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
        formulas = importlib.import_module("edss.reference").FORMULAS
        for fid, formula in list(formulas.items()):
            formulas[fid] = dataclasses.replace(
                formula, fn=self.wrap(CLOSED_FORM_SPAN, formula.fn)
            )

    def write(self, path: Path) -> None:
        """Write the spans as JSON: names, then [name, start, end, parent, root] rows."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[n], s, e, p, r] for n, s, e, p, r in self.spans]
        path.write_text(json.dumps({"names": names, "spans": rows}), encoding="utf-8")

    def summary(self) -> tuple[dict[str, float], dict[str, float], float]:
        """Per-layer metrics, per-module self-time shares and total root time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        root_time = sum(end - start for _, start, end, parent, _ in spans if parent < 0)

        def noted(name):
            return [v for i, v in self.notes.items() if spans[i][0] == name]

        def ratio(num, den):
            return num / den if den else 0.0

        def under(i, name):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        sides = noted("tensor.hermitian_eigenvalues")
        nulls = noted("states.measure_computational")
        sampling = sum(
            1 for _, _, _, parent, _ in spans
            if parent >= 0 and spans[parent][0] == "checks.random_cp_canonical"
        )
        m = {
            "states.initial_state.calls": calls["states.initial_state"],
            "states.initial_state.self_s": own["states.initial_state"],
            "states.initial_state.distinct_ratio": ratio(
                len(set(noted("states.initial_state"))), calls["states.initial_state"]
            ),
            "states.cnot.self_s": own["states.cnot"],
            "states.measure_computational.self_s": own["states.measure_computational"],
            "states.measure_computational.null_branch_ratio": ratio(
                sum(n for n, _ in nulls), sum(k for _, k in nulls)
            ),
            "channels.is_cpt.calls": calls["channels.is_cpt"],
            "channels.is_cpt.self_s": own["channels.is_cpt"],
            "channels.is_cpt.distinct_ratio": ratio(
                len(set(noted("channels.is_cpt"))), calls["channels.is_cpt"]
            ),
            "channels.has_canonical_form.self_s": own["channels.has_canonical_form"],
            "channels.apply_to_subsystem.self_s": own["channels.apply_to_subsystem"],
            "tensor.hermitian_eigenvalues.calls": calls["tensor.hermitian_eigenvalues"],
            "tensor.hermitian_eigenvalues.self_s": own["tensor.hermitian_eigenvalues"],
            "tensor.hermitian_eigenvalues.side_max": max(sides, default=0),
            "tensor.hermitian_eigenvalues.work_n3": sum(s**3 for s in sides),
            "tensor.partial_transpose.self_s": own["tensor.partial_transpose"],
            "tensor.is_hermitian.calls": calls["tensor.is_hermitian"],
            "tensor.is_hermitian.self_s": own["tensor.is_hermitian"],
            "measures.negativity.calls": calls["measures.negativity"],
            "measures.negativity.self_s": own["measures.negativity"],
            "measures.concurrence.self_s": own["measures.concurrence"],
            "protocols.runs": calls["protocols.run"],
            "protocols.run.self_s": own["protocols.run"],
            "protocols.critical_noise.total_s": total["protocols.critical_noise"],
            "protocols.critical_noise.evals": sum(
                1 for i, span in enumerate(spans)
                if span[0] == "checks.average_only" and under(i, "protocols.critical_noise")
            ),
            "reference.closed_form.calls": calls[CLOSED_FORM_SPAN],
            "reference.closed_form.self_s": own[CLOSED_FORM_SPAN],
            "checks.average_only.calls": calls["checks.average_only"],
            "checks.random_cp_canonical.accept_ratio": ratio(
                calls["checks.random_cp_canonical"], sampling
            ),
            "sweep.run_sweep.self_s": own["sweep.run_sweep"],
            "svgchart.render_line_chart.self_s": own["svgchart.render_line_chart"],
            "cli.main.self_s": own["cli.main"],
        }
        shares: dict[str, float] = defaultdict(float)
        for name, seconds in own.items():
            shares[name.split(".")[0]] += ratio(seconds, root_time)
        return m, dict(shares), root_time
