"""Parameter sweeps: grids of protocol runs emitted as CSV and SVG curves.

The CSV schema is fixed per (protocol, mode, channel kind): first column is
the swept parameter, the rest are simulated quantities, derived quantities,
and closed-form reference values where a formula exists. Floats are
formatted with 12 significant digits, so identical specs give byte-identical
files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .channels import CHANNEL_PARAMS, channel_from_config
from .protocols import (
    CHAIN_ATOL,
    MAX_DIM_CEILING,  # noqa: F401  (re-exported: edss.sweep.MAX_DIM_CEILING)
    PROTOCOLS,
    SEPARABILITY_ATOL,
    SPECS,
    ProtocolTrace,
    _register,
    _runs,
    critical_noise,
    separability_audit,
    verify_identity_chain,
)
from .reference import CLOSED_FORM_ATOL, FORMULAS
from .svgchart import render_line_chart

CHECK_NAMES = ("identity", "separability", "closed_form")
# Canonical parameters a sweep leaves unset take their identity-channel values.
CANONICAL_DEFAULTS = {"lambda1": 1.0, "lambda2": 1.0, "lambda3": 1.0, "t3": 0.0}

# 50x the largest grid any caller uses (201 points), so a typo such as
# --points 100000000 fails at once instead of running for days.
MAX_POINTS = 10_001


class SweepError(ValueError):
    """Invalid sweep specification or non-CPT grid point."""


@dataclass
class SweepSpec:
    """A parameter grid over one protocol plus output and check options."""

    protocol: str
    channel: str
    param: str
    csv_path: Path | str
    mode: str = "probabilistic"
    d: int = 2
    start: float = 0.0
    stop: float = 1.0
    points: int = 21
    svg_path: Path | str | None = None
    checks: frozenset[str] = frozenset()
    channel_args: dict[str, float] = field(default_factory=dict)

    def validate(self) -> "SweepSpec":
        if self.protocol not in PROTOCOLS:
            raise SweepError(f"unknown protocol {self.protocol!r}")
        if (self.protocol, self.mode) not in SPECS:
            raise SweepError(f"mode {self.mode!r} does not exist for the {self.protocol} protocol")
        if self.channel not in CHANNEL_PARAMS:
            raise SweepError(f"unknown channel kind {self.channel!r}")
        try:
            _register(SPECS[self.protocol, self.mode], self.d)
        except ValueError as exc:
            raise SweepError(str(exc)) from exc
        if self.channel == "canonical" and self.d != 2:
            raise SweepError("canonical channels are qubit channels; d must be 2")
        expected_param = CHANNEL_PARAMS[self.channel]
        if self.param not in expected_param:
            raise SweepError(
                f"param {self.param!r} does not fit channel {self.channel!r}; "
                f"expected one of {expected_param}"
            )
        unknown_args = set(self.channel_args) - set(CANONICAL_DEFAULTS)
        if unknown_args:
            raise SweepError(f"unknown channel arguments {sorted(unknown_args)}")
        if self.channel_args and self.channel != "canonical":
            raise SweepError(f"fixed parameters {sorted(self.channel_args)} need a canonical sweep")
        if self.param in self.channel_args:
            raise SweepError(
                f"{self.param} is the swept parameter; drop its fixed value "
                f"{self.channel_args[self.param]}"
            )
        if not 0.0 <= self.start <= self.stop <= 1.0:
            raise SweepError(
                f"need 0 <= start <= stop <= 1, got [{self.start}, {self.stop}]"
            )
        if not 2 <= self.points <= MAX_POINTS:
            raise SweepError(f"points must be in [2, {MAX_POINTS}], got {self.points}")
        bad_checks = set(self.checks) - set(CHECK_NAMES)
        if bad_checks:
            raise SweepError(f"unknown checks {sorted(bad_checks)}")
        if "closed_form" in self.checks and not _closed_forms(self):
            raise SweepError(
                "closed_form check needs a depolarizing or amplitude_damping sweep"
            )
        return self

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    def channel_at(self, x: float):
        return channel_from_config(
            {
                "kind": self.channel,
                "d": self.d,
                **CANONICAL_DEFAULTS,
                **self.channel_args,
                self.param: x,
            }
        )


@dataclass
class SweepResult:
    spec: SweepSpec
    columns: list[str]
    rows: list[dict[str, float]]
    check_failures: list[str]
    csv_path: Path
    svg_path: Path | None

    @property
    def checks_passed(self) -> bool:
        return not self.check_failures


def format_float(x: float) -> str:
    """12 significant digits via %g; negative zero collapses to 0."""
    if x == 0.0:
        return "0"
    return f"{float(x):.12g}"


def _closed_forms(spec: SweepSpec) -> dict[str, tuple[str, ...]]:
    """Formula id -> the columns it predicts; ``ref_<first column>`` holds its value."""
    entry = SPECS[spec.protocol, spec.mode]
    forms = entry.formulas(spec.channel)
    critical = entry.critical_formula(spec.channel)
    if critical is not None:
        forms[critical] = ("critical_noise",)
    return forms


def sweep_columns(spec: SweepSpec) -> list[str]:
    """Fixed column order for this (protocol, mode, channel) combination."""
    entry = SPECS[spec.protocol, spec.mode]
    cols = [spec.param, *(column for column, _ in entry.columns)]
    cols += ["exchange_negativity_max", "chain_max_deviation"]
    if entry.critical_formula(spec.channel) is not None:
        cols.append("critical_noise")
    return cols + [f"ref_{columns[0]}" for columns in _closed_forms(spec).values()]


def _row(spec: SweepSpec, x: float, trace: ProtocolTrace) -> dict[str, float]:
    """Simulated and reference columns of grid point ``x`` from its trace."""
    entry = SPECS[spec.protocol, spec.mode]
    row = {spec.param: x, **{column: trace.value_of(key) for column, key in entry.columns}}
    row["exchange_negativity_max"] = separability_audit(trace).max_negativity
    row["chain_max_deviation"] = verify_identity_chain(trace).max_deviation
    values = {"d": spec.d, spec.param: x}
    for fid, columns in _closed_forms(spec).items():
        formula = FORMULAS[fid]
        row[f"ref_{columns[0]}"] = float(formula.fn(*(values[n] for n in formula.params)))
    return row


def sweep_rows(spec: SweepSpec) -> list[dict[str, float]]:
    """The rows ``run_sweep`` writes for a valid ``spec``, without I/O and
    without ``critical_noise``; the ``ref_*`` columns come from ``FORMULAS``.

    The grid runs through the driver's chunk loop (``protocols._runs``); each
    trace becomes a row, and is dropped, before the next chunk's channels
    are built."""
    entry = SPECS[spec.protocol, spec.mode]
    xs = [float(x) for x in spec.grid()]
    # one channel per point, on every exchange subsystem
    batch = ((spec.channel_at(x),) * len(entry.channel_roles) for x in xs)
    labels = (f"{spec.param}={format_float(x)}" for x in xs)
    runs = _runs(entry, batch, spec.d, labels)
    try:
        # map, unlike a loop variable, keeps no trace while the next chunk runs
        return list(map(lambda x, trace: _row(spec, x, trace), xs, runs))
    except ValueError as exc:
        raise SweepError(str(exc)) from exc


def row_deviations(spec: SweepSpec, row: Mapping[str, float]) -> dict[str, float]:
    """Check name -> deviation of one row: ``identity``, ``separability``, and per
    formula id the worst of its columns against its reference (critical noise
    once the row has it). ``edss sweep --check`` and ``edss check`` read this."""
    devs = {
        "identity": row["chain_max_deviation"],
        "separability": row["exchange_negativity_max"],
    }
    for fid, columns in _closed_forms(spec).items():
        if columns[0] in row:
            ref = row[f"ref_{columns[0]}"]
            devs[fid] = max(abs(row[column] - ref) for column in columns)
    return devs


def _row_checks(spec: SweepSpec, row: dict[str, float]) -> list[str]:
    at = f"{spec.param}={format_float(row[spec.param])}"
    devs = row_deviations(spec, row)
    failures = []
    for check, what, atol in (
        ("identity", "identity chain deviation", CHAIN_ATOL),
        ("separability", "exchange negativity", SEPARABILITY_ATOL),
    ):
        dev = devs.pop(check)
        if check in spec.checks and dev > atol:
            failures.append(f"{at}: {what} {dev:.3e}")
    for fid, dev in devs.items():
        if "closed_form" in spec.checks and dev > CLOSED_FORM_ATOL:
            failures.append(f"{at}: {fid} deviates from closed form by {dev:.3e}")
    return failures


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid, write CSV (and SVG if requested), run row checks."""
    spec = replace(spec, checks=frozenset(spec.checks)).validate()
    if not spec.csv_path:
        raise SweepError("csv output path is required")
    rows = sweep_rows(spec)
    entry = SPECS[spec.protocol, spec.mode]
    if entry.critical_formula(spec.channel) is not None:
        crit = critical_noise(lambda x: entry.average_only(spec.channel, x, spec.d))
        for row in rows:
            row["critical_noise"] = crit

    columns = sweep_columns(spec)
    check_failures: list[str] = []
    for row in rows:
        check_failures.extend(_row_checks(spec, row))

    # each cell formatted once; the chart plots the printed values
    cells = [[format_float(row[c]) for c in columns] for row in rows]
    csv_path = Path(spec.csv_path)
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)

    svg_path = None
    if spec.svg_path is not None:
        svg_path = Path(spec.svg_path)
        xs, *ys = ([float(cell) for cell in column] for column in zip(*cells))
        series = list(zip(columns[1:], ys))  # column 0 is the swept parameter
        title = f"{spec.protocol} / {spec.channel} ({spec.mode})"
        svg_path.write_text(
            render_line_chart(xs, series, title, x_label=spec.param), encoding="utf-8"
        )
    return SweepResult(spec, columns, rows, check_failures, csv_path, svg_path)
