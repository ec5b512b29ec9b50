"""Batch verification suites: identity chains, separability, closed forms.

These back the ``edss check`` command. Each suite walks the protocol table
``edss.protocols.SPECS`` and returns a list of :class:`CheckResult` rows
with the observed worst-case deviation against its threshold. Every row but
the random-channel ones is a column maximum of ``edss.sweep.row_deviations``
over a ``GRID_POINTS``-point [0, 1] noise grid's table
(``edss.sweep.sweep_table``), the critical noise levels included: the table
runs their root search. A NaN row makes the maximum NaN, which fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Mapping

import numpy as np

from .channels import CHANNEL_PARAMS, CanonicalChannel, _canonical_tensors, _cpt_reports
from .channels import canonical_channel
from .protocols import PROTOCOLS, SPECS, ProtocolSpec, _Chunk, _runs

# The average-only paths live with the driver; callers import them from here.
from .protocols import ghz_average_only, qudit_average_only, two_qubit_average_only  # noqa: F401
from .reference import CLOSED_FORM_KINDS
from .sweep import SweepSpec, check_atol, row_deviations, sweep_table
from .tensor import _integer

DEFAULT_SEED = 20230711
# Draws are CP up to eigensolver rounding, not merely within admission's VALIDITY_ATOL.
RANDOM_CP_TOL = 1e-12
# Candidates per stacked CPT test of the identity suite's draws (about 1 in 6 is CP).
DRAW_BLOCK = 64
# Refused candidates in a row before a draw gives up; at 5 in 6 refused, (5/6)^10_000 ~ 1e-792.
MAX_TRIES = 10_000
# The closed-form suite's qudit dims; the identity and separability suites check the
# first two, a subset of its grids.
QUDIT_DIMS = (2, 3, 4, 5, 6)
SHORT_QUDIT_DIMS = QUDIT_DIMS[:2]
GRID_POINTS = 21  # of every suite's [0, 1] noise grids: one density, so suites share a grid
# Random CP canonical channels the identity suite draws, before each entry's random_divisor.
RANDOM_CHANNELS = 50


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    threshold: float
    passed: bool

    @classmethod
    def from_deviation(cls, name: str, dev: float, check: str) -> "CheckResult":
        """Row ``name`` at ``dev`` against the tolerance of its check (``sweep.check_atol``)."""
        threshold = check_atol(check)
        return cls(name, float(dev), threshold, bool(dev <= threshold))


def random_cp_canonical(rng: np.random.Generator) -> CanonicalChannel:
    """Rejection-sample a CP-valid canonical channel (Choi-validated), giving up
    after ``MAX_TRIES`` refused candidates in a row."""
    return canonical_channel(*next(_random_cp_canonicals(rng, 1)))


def _random_cp_canonicals(rng, block: int) -> Iterator[list[float]]:
    """The parameter rows (l1, l2, l3, t3) of ``random_cp_canonical`` draws in order,
    the candidates drawn ``block`` at a time and admitted by one stacked CPT test.
    ``uniform(size=(block, 4))`` gives the numbers of ``block`` draws of size 4, so
    ``block`` moves no channel."""
    misses = 0
    while True:
        params = rng.uniform(-1.0, 1.0, size=(block, 4))
        reports = _cpt_reports(_canonical_tensors(params), RANDOM_CP_TOL)
        for row, report in zip(params.tolist(), reports):
            if report:
                misses = 0
                yield row
            elif (misses := misses + 1) >= MAX_TRIES:
                raise RuntimeError("could not sample a CP canonical channel")


def _default_specs() -> list[ProtocolSpec]:
    """The probabilistic entry of every protocol, in table order."""
    return [SPECS[protocol, "probabilistic"] for protocol in PROTOCOLS]


def _dims(spec: ProtocolSpec, qudit_dims: tuple[int, ...]) -> tuple[int, ...]:
    return qudit_dims if spec.takes_d else (2,)


def _suffix(spec: ProtocolSpec, d: int) -> str:
    return f"_d{d}" if spec.takes_d else ""


def _worst(grids: dict, spec: ProtocolSpec, kind: str, d: int) -> dict[str, float]:
    """Largest ``row_deviations`` per check over a ``GRID_POINTS``-point [0, 1] sweep
    of ``kind`` noise: kept in ``grids`` under ``(spec, kind, d)``, a grid memo, so
    the suites that share it sweep each grid once."""
    key = (spec, kind, d)
    if key not in grids:
        param = CHANNEL_PARAMS[kind][0]
        sweep = SweepSpec(spec.protocol, kind, param, "", mode=spec.mode, d=d, points=GRID_POINTS)
        devs = row_deviations(sweep, sweep_table(sweep.validate()))
        grids[key] = {check: float(np.max(dev, initial=0.0)) for check, dev in devs.items()}
    return grids[key]


def identity_suite(seed: int = DEFAULT_SEED, *, grids: dict | None = None) -> list[CheckResult]:
    """Identity-chain deviations across random channels and noise grids.

    A protocol draws ``RANDOM_CHANNELS // random_divisor`` random CP
    canonical channels (its table entry sets the divisor) as parameter rows,
    which the driver's chunk loop ``protocols._runs`` runs, all from one
    stream of ``DRAW_BLOCK`` candidate blocks in table order, seeded by
    ``seed``, a nonnegative integer. ``grids`` is a grid memo shared with
    the other suites of one ``run_checks`` call (see ``_worst``).
    """
    draws = _random_cp_canonicals(np.random.default_rng(_integer(seed, "seed", 0)), DRAW_BLOCK)
    grids, results = {} if grids is None else grids, []
    for spec in _default_specs():
        if spec.random_divisor:
            rows = list(islice(draws, RANDOM_CHANNELS // spec.random_divisor))
            spreads = map(_Chunk.chain_spread, _runs(spec, "canonical", 2, rows))
            dev = max((s for spread in spreads for s in spread.tolist()), default=0.0)
            name = f"identity_{spec.protocol}_random_canonical"
            results.append(CheckResult.from_deviation(name, dev, "identity"))
        for kind in CLOSED_FORM_KINDS:
            for d in _dims(spec, SHORT_QUDIT_DIMS):
                dev = _worst(grids, spec, kind, d)["identity"]
                name = f"identity_{spec.protocol}_{kind}{_suffix(spec, d)}"
                results.append(CheckResult.from_deviation(name, dev, "identity"))
    return results


def separability_suite(*, grids: dict | None = None) -> list[CheckResult]:
    """Exchange-vs-rest negativities stay at zero at every protocol step."""
    grids, results = {} if grids is None else grids, []
    for kind in CLOSED_FORM_KINDS:
        for spec in _default_specs():
            for d in _dims(spec, SHORT_QUDIT_DIMS):
                dev = _worst(grids, spec, kind, d)["separability"]
                name = f"separability_{spec.protocol}_{kind}{_suffix(spec, d)}"
                results.append(CheckResult.from_deviation(name, dev, "separability"))
    return results


def closed_form_suite(*, grids: dict | None = None) -> list[CheckResult]:
    """Compare every closed-form curve of ``reference.FORMULAS`` against the
    simulation on a grid, and every critical noise level against the root
    search of that grid's table."""
    grids, results = {} if grids is None else grids, []
    for protocol in PROTOCOLS:
        specs = [spec for spec in SPECS.values() if spec.protocol == protocol]
        for kind in CLOSED_FORM_KINDS:
            for d in _dims(specs[0], QUDIT_DIMS):
                for spec in specs:
                    worst = _worst(grids, spec, kind, d)
                    results.extend(
                        CheckResult.from_deviation(f"{fid}{_suffix(spec, d)}", worst[fid], fid)
                        for fid in spec.formulas(kind)
                    )

    for spec in _default_specs():
        for kind in CLOSED_FORM_KINDS:
            if (fid := spec.critical_formula(kind)) is None:
                continue
            for d in _dims(spec, QUDIT_DIMS):
                dev = _worst(grids, spec, kind, d)[fid]
                results.append(CheckResult.from_deviation(f"{fid}{_suffix(spec, d)}", dev, fid))
    return results


SUITES = {
    "identity": identity_suite,
    "separability": separability_suite,
    "closed_form": closed_form_suite,
}


def run_checks(suite: str = "all", **kwargs) -> list[CheckResult]:
    """Run one named suite or all of them; ``kwargs`` maps a suite name to
    the keyword arguments of that suite, and names only suites the call runs. The
    suites of one call share a grid memo, so a noise grid that two of them check is
    swept once per call."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all', *SUITES)}")
    names, grids = tuple(SUITES) if suite == "all" else (suite,), {}
    if unknown := sorted(set(kwargs) - set(names)):
        raise ValueError(f"suite keywords {unknown} name no suite this call runs; it runs {names}")
    for name, options in kwargs.items():
        if not isinstance(options, Mapping):
            raise ValueError(f"{name}= takes a mapping of {name} suite keywords, got {options!r}")
    return [
        row for name in names for row in SUITES[name](**kwargs.get(name, {}), grids=grids)
    ]
