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

import numpy as np

from .channels import CHANNEL_PARAMS, channel_from_config, is_cpt
from .protocols import (
    DEFAULT_MAX_DIM,
    PROTOCOLS,
    SPECS,
    critical_noise,
    separability_audit,
    verify_identity_chain,
)
from .reference import FORMULAS, closed_form
from .svgchart import render_line_chart

CHECK_NAMES = ("identity", "separability", "closed_form")
# Canonical parameters a sweep leaves unset take their identity-channel values.
CANONICAL_DEFAULTS = {"lambda1": 1.0, "lambda2": 1.0, "lambda3": 1.0, "t3": 0.0}

CHECK_ATOL = 1e-9
# 50x the largest grid any caller uses (201 points), so a typo such as
# --points 100000000 fails at once instead of running for days.
MAX_POINTS = 10_001
# Dense states have side d^3: 1000 (16 MB) at d = 10, the largest dimension
# the dense path is meant for; a larger --max-dim would only admit slower runs.
MAX_DIM_CEILING = 10


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
    max_dim: int = DEFAULT_MAX_DIM

    def validate(self) -> "SweepSpec":
        if self.protocol not in PROTOCOLS:
            raise SweepError(f"unknown protocol {self.protocol!r}")
        if (self.protocol, self.mode) not in SPECS:
            raise SweepError(f"mode {self.mode!r} does not exist for the {self.protocol} protocol")
        if self.channel not in CHANNEL_PARAMS:
            raise SweepError(f"unknown channel kind {self.channel!r}")
        if self.max_dim > MAX_DIM_CEILING:
            raise SweepError(f"max_dim must be <= {MAX_DIM_CEILING}, got {self.max_dim}")
        if SPECS[self.protocol, self.mode].takes_d:
            if not 2 <= self.d <= self.max_dim:
                raise SweepError(
                    f"d={self.d} outside the allowed range [2, {self.max_dim}]"
                )
            if self.channel == "canonical" and self.d != 2:
                raise SweepError("canonical channels are qubit channels; d must be 2")
        elif self.d != 2:
            raise SweepError(f"protocol {self.protocol} works with qubits; drop d={self.d}")
        expected_param = CHANNEL_PARAMS[self.channel]
        if self.param not in expected_param:
            raise SweepError(
                f"param {self.param!r} does not fit channel {self.channel!r}; "
                f"expected one of {expected_param}"
            )
        unknown_args = set(self.channel_args) - set(CANONICAL_DEFAULTS)
        if unknown_args:
            raise SweepError(f"unknown channel arguments {sorted(unknown_args)}")
        if not 0.0 <= self.start <= self.stop <= 1.0:
            raise SweepError(
                f"need 0 <= start <= stop <= 1, got [{self.start}, {self.stop}]"
            )
        if not 2 <= self.points <= MAX_POINTS:
            raise SweepError(f"points must be in [2, {MAX_POINTS}], got {self.points}")
        bad_checks = set(self.checks) - set(CHECK_NAMES)
        if bad_checks:
            raise SweepError(f"unknown checks {sorted(bad_checks)}")
        if "closed_form" in self.checks and not _ref_columns(self):
            raise SweepError(
                "closed_form check needs a depolarizing or amplitude_damping sweep"
            )
        if not self.csv_path:
            raise SweepError("csv output path is required")
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


def _ref_columns(spec: SweepSpec) -> dict[str, str]:
    """Map CSV reference columns to formula ids for this sweep."""
    entry = SPECS[spec.protocol, spec.mode]
    refs = {f"ref_{cols[0]}": fid for fid, cols in entry.formulas(spec.channel).items()}
    critical = entry.critical_formula(spec.channel)
    if critical is not None:
        refs["ref_critical_noise"] = critical
    return refs


def sweep_columns(spec: SweepSpec) -> list[str]:
    """Fixed column order for this (protocol, mode, channel) combination."""
    entry = SPECS[spec.protocol, spec.mode]
    cols = [spec.param, *(column for column, _ in entry.columns)]
    cols += ["exchange_negativity_max", "chain_max_deviation"]
    if entry.critical_formula(spec.channel) is not None:
        cols.append("critical_noise")
    return cols + list(_ref_columns(spec))


def _row(spec: SweepSpec, x: float, crit: float | None) -> dict[str, float]:
    """Run the protocol at grid point ``x``; simulated and reference columns."""
    entry = SPECS[spec.protocol, spec.mode]
    trace = entry.run(spec.channel_at(x), spec.d, spec.max_dim)
    row = {spec.param: x, **{column: trace.value_of(key) for column, key in entry.columns}}
    row["exchange_negativity_max"] = separability_audit(trace).max_negativity
    row["chain_max_deviation"] = verify_identity_chain(trace).max_deviation
    if crit is not None:
        row["critical_noise"] = crit
    values = {"d": spec.d, spec.param: x}
    for column, fid in _ref_columns(spec).items():
        row[column] = closed_form(fid, **{name: values[name] for name in FORMULAS[fid].params})
    return row


def _row_checks(spec: SweepSpec, row: dict[str, float]) -> list[str]:
    failures = []
    x = row[spec.param]
    for check, column, what in (
        ("identity", "chain_max_deviation", "identity chain deviation"),
        ("separability", "exchange_negativity_max", "exchange negativity"),
    ):
        if check in spec.checks and row[column] > CHECK_ATOL:
            failures.append(f"{spec.param}={format_float(x)}: {what} {row[column]:.3e}")
    if "closed_form" in spec.checks:
        for column in _ref_columns(spec):
            sim_column = column[len("ref_") :]
            dev = abs(row[sim_column] - row[column])
            if dev > CHECK_ATOL:
                failures.append(
                    f"{spec.param}={format_float(x)}: {sim_column} deviates from "
                    f"closed form by {dev:.3e}"
                )
    return failures


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid, write CSV (and SVG if requested), run row checks."""
    spec = replace(spec, checks=frozenset(spec.checks)).validate()
    grid = spec.grid()
    for x in grid:
        if not is_cpt(spec.channel_at(float(x))):
            raise SweepError(
                f"channel is not CPT at grid point {spec.param}={format_float(float(x))}"
            )

    crit = None
    entry = SPECS[spec.protocol, spec.mode]
    if entry.critical_formula(spec.channel) is not None:
        crit = critical_noise(lambda x: entry.average_only(spec.channel, x, spec.d))
    rows = [_row(spec, float(x), crit) for x in grid]

    columns = sweep_columns(spec)
    check_failures: list[str] = []
    for row in rows:
        check_failures.extend(_row_checks(spec, row))

    csv_path = Path(spec.csv_path)
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_float(row[c]) for c in columns])

    svg_path = None
    if spec.svg_path is not None:
        svg_path = Path(spec.svg_path)
        xs = [float(format_float(row[spec.param])) for row in rows]
        series = [
            (c, [float(format_float(row[c])) for row in rows])
            for c in columns
            if c != spec.param
        ]
        title = f"{spec.protocol} / {spec.channel} ({spec.mode})"
        svg_path.write_text(
            render_line_chart(xs, series, title, x_label=spec.param), encoding="utf-8"
        )
    return SweepResult(spec, columns, rows, check_failures, csv_path, svg_path)
