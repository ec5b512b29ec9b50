"""Parameter sweeps: grids of protocol runs emitted as CSV and SVG curves.

The CSV schema is fixed per (protocol, mode, channel kind): first column is
the swept parameter, the rest are simulated quantities, derived quantities,
and closed-form reference values where a formula exists. Floats are
formatted with 12 significant digits, so identical specs give byte-identical
files.

A grid flows as columns from its parameter array to the file: one row of
channel parameters per point (``SweepSpec.params``), which the driver's chunk
loop turns into channels a chunk at a time, one float array per CSV column
(``sweep_table``, whose root search for the ``critical_noise`` closed form
reads the grid it has swept), checks on whole columns (``row_deviations``),
and one formatting pass over the table for the CSV and one for the SVG.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Mapping

import numpy as np

from .channels import CHANNEL_PARAMS
from .protocols import (
    CHAIN_ATOL,
    CRITICAL_NOISE,
    MAX_DIM_CEILING,  # noqa: F401  (re-exported: edss.sweep.MAX_DIM_CEILING)
    PROTOCOLS,
    SEPARABILITY_ATOL,
    SPECS,
    _critical_noise,
    _register,
    _runs,
)
from .reference import CLOSED_FORM_ATOL, FORMULAS
from .svgchart import render_line_chart
from .tensor import _integer

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
        entry = SPECS[self.protocol, self.mode]
        if self.channel not in CHANNEL_PARAMS:
            raise SweepError(f"unknown channel kind {self.channel!r}")
        try:
            _register(entry, self.d)
            _integer(self.points, "points", 2, MAX_POINTS)
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
        if isinstance(self.checks, str):
            raise SweepError(f"checks must be a collection of check names, got {self.checks!r}")
        bad_checks = set(self.checks) - set(CHECK_NAMES)
        if bad_checks:
            raise SweepError(f"unknown checks {sorted(bad_checks)}")
        if "closed_form" in self.checks and not entry.formulas(self.channel):
            raise SweepError(
                "closed_form check needs a depolarizing or amplitude_damping sweep"
            )
        return self

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    def params(self) -> np.ndarray:
        """One row of ``CHANNEL_PARAMS[channel]`` values per grid point of a valid spec,
        the values ``channel_from_config`` reads for that point's channel."""
        fixed = {**CANONICAL_DEFAULTS, **self.channel_args, self.param: self.grid()}
        return np.column_stack(np.broadcast_arrays(*map(fixed.get, CHANNEL_PARAMS[self.channel])))


@dataclass
class SweepResult:
    spec: SweepSpec
    table: dict[str, np.ndarray]  # CSV column -> one float per grid point, in CSV order
    check_failures: list[str]
    csv_path: Path
    svg_path: Path | None

    @property
    def checks_passed(self) -> bool:
        return not self.check_failures


def format_float(x: float) -> str:
    """The CSV cell of ``x`` (see ``_csv_rows``)."""
    return _csv_rows(np.array([[x]], dtype=float))[:-1]


def _csv_rows(values: np.ndarray) -> str:
    """The CSV lines of the 2-D array ``values``, through one template for the whole
    array: each cell 12 significant digits via %g, ``+ 0.0`` collapsing negative zero to 0."""
    template = (",".join(["%.12g"] * values.shape[1]) + "\n") * len(values)
    return template % tuple((values + 0.0).ravel().tolist())


def _label(spec: SweepSpec, xs: np.ndarray, b: int) -> str:
    """The name of grid point ``b`` in refusals and failure lines."""
    return f"{spec.param}={format_float(xs[b])}"


def sweep_table(spec: SweepSpec) -> dict[str, np.ndarray]:
    """The columns ``run_sweep`` writes for a valid ``spec``, one float per grid point
    each, without I/O, in CSV order: the swept parameter, the entry's columns,
    ``exchange_negativity_max``, ``chain_max_deviation``, ``critical_noise``
    where the spec's formulas hold the ``CRITICAL_NOISE`` group, then
    ``ref_<first column>`` per formula (``ProtocolSpec.formulas``). The grid
    runs through the driver's chunk loop (``protocols._runs``): each chunk's
    columns are kept and the chunk dropped before the next is built. The root
    search (``protocols._critical_noise``) reads its probes from the swept
    ``average_negativity`` where the grid holds them and fills
    ``critical_noise``; ``ref_*`` come from ``FORMULAS``."""
    entry = SPECS[spec.protocol, spec.mode]
    xs, keys, forms = spec.grid(), [key for _, key in entry.columns], entry.formulas(spec.channel)

    def columns(chunk) -> list[np.ndarray]:
        # separability_audit's max_negativity and verify_identity_chain's max_deviation
        exchange_max = np.max([chunk.columns[k] for k in entry.exchange_keys], 0)
        return [*map(chunk.columns.get, keys), exchange_max, chunk.chain_spread()]

    runs = _runs(entry, spec.channel, spec.d, spec.params(), partial(_label, spec, xs))
    try:
        # map, unlike a loop variable, keeps no chunk while the next one runs
        parts = list(map(columns, runs))
    except ValueError as exc:
        raise SweepError(str(exc)) from exc
    names = [c for c, _ in entry.columns] + ["exchange_negativity_max", "chain_max_deviation"]
    table = {spec.param: xs, **dict(zip(names, map(np.concatenate, zip(*parts))))}
    if CRITICAL_NOISE in forms.values():
        swept = xs, table["average_negativity"]
        crit = _critical_noise(lambda ps: entry.average_only(spec.channel, ps, spec.d), grid=swept)
        table["critical_noise"] = np.full(spec.points, crit)
    for fid, cols in forms.items():
        f, at = FORMULAS[fid], {"d": [spec.d] * spec.points, spec.param: xs.tolist()}
        table[f"ref_{cols[0]}"] = np.array([float(f.fn(*a)) for a in zip(*map(at.get, f.params))])
    return table


def row_deviations(spec: SweepSpec, table: Mapping) -> dict[str, np.ndarray]:
    """Check name -> deviation per row of ``table`` (columns, or one row of floats):
    ``identity``, ``separability``, and per formula id the worst of its columns
    against its reference (critical noise included), NaN where a row's inputs
    hold one. ``edss sweep --check`` and ``edss check`` read this."""
    devs = {
        "identity": table["chain_max_deviation"],
        "separability": table["exchange_negativity_max"],
    }
    for fid, columns in SPECS[spec.protocol, spec.mode].formulas(spec.channel).items():
        ref = table[f"ref_{columns[0]}"]
        devs[fid] = np.max([np.abs(table[c] - ref) for c in columns], 0)
    return devs


def check_atol(check: str) -> float:
    """Tolerance of a ``row_deviations`` check; every formula id's is ``CLOSED_FORM_ATOL``."""
    return {"identity": CHAIN_ATOL, "separability": SEPARABILITY_ATOL}.get(check, CLOSED_FORM_ATOL)


def _failures(spec: SweepSpec, table: dict[str, np.ndarray]) -> list[str]:
    """Per row in order, a line for each deviation of ``spec.checks`` not within its
    tolerance (NaN included), in ``row_deviations`` order; failing rows only."""
    texts = {"identity": "identity chain deviation", "separability": "exchange negativity"}
    devs = row_deviations(spec, table)
    checks = [c for c in devs if (c if c in texts else "closed_form") in spec.checks]
    what = [texts.get(c, f"{c} deviates from closed form by") for c in checks]
    failed = np.array([~(devs[c] <= check_atol(c)) for c in checks])
    return [
        f"{_label(spec, table[spec.param], b)}: {what[k]} {devs[checks[k]][b]:.3e}"
        for b, k in zip(*np.nonzero(failed.T))
    ]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid, write CSV (and SVG if requested), run the checks."""
    spec = replace(spec.validate(), checks=frozenset(spec.checks))
    if not spec.csv_path:
        raise SweepError("csv output path is required")
    table = sweep_table(spec)
    columns = list(table)
    check_failures = _failures(spec, table)

    text = ",".join(columns) + "\n" + _csv_rows(np.column_stack(list(table.values())))
    csv_path = Path(spec.csv_path)
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)

    svg_path = None
    if spec.svg_path is not None:
        svg_path, cells = Path(spec.svg_path), text.replace("\n", ",").split(",")
        # the chart plots the printed values; column 0 is the swept parameter
        xs, *ys = np.array(cells[len(columns) : -1], dtype=float).reshape(-1, len(columns)).T
        title = f"{spec.protocol} / {spec.channel} ({spec.mode})"
        chart = render_line_chart(xs, list(zip(columns[1:], ys)), title, x_label=spec.param)
        svg_path.write_text(chart, encoding="utf-8")
    return SweepResult(spec, table, check_failures, csv_path, svg_path)
