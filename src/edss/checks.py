"""Batch verification suites: identity chains, separability, closed forms.

These back the ``edss check`` command. Each suite walks the protocol table
``edss.protocols.SPECS`` and returns a list of :class:`CheckResult` rows
with the observed worst-case deviation against its threshold; on a noise
grid that is the largest ``edss.sweep.row_deviations`` over the sweep rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channels import CHANNEL_PARAMS, CanonicalChannel, canonical_channel, is_cpt
from .protocols import (
    CHAIN_ATOL,
    PROTOCOLS,
    SEPARABILITY_ATOL,
    SPECS,
    ProtocolSpec,
    _runs,
    critical_noise,
    verify_identity_chain,
)

# The average-only paths live with the driver; callers import them from here.
from .protocols import ghz_average_only, qudit_average_only, two_qubit_average_only  # noqa: F401
from .reference import CLOSED_FORM_ATOL, CLOSED_FORM_KINDS, FORMULAS
from .sweep import SweepSpec, row_deviations, sweep_rows

DEFAULT_SEED = 20230711
# Draws are CP up to eigensolver rounding, not merely within admission's VALIDITY_ATOL.
RANDOM_CP_TOL = 1e-12
QUDIT_DIMS = (2, 3, 4, 5, 6)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    threshold: float
    passed: bool

    @classmethod
    def from_deviation(cls, name: str, dev: float, threshold: float) -> "CheckResult":
        return cls(name, float(dev), threshold, bool(dev <= threshold))


def random_cp_canonical(rng: np.random.Generator, max_tries: int = 10_000) -> CanonicalChannel:
    """Rejection-sample a CP-valid canonical channel (Choi-validated)."""
    for _ in range(max_tries):
        l1, l2, l3, t3 = rng.uniform(-1.0, 1.0, size=4)
        ch = canonical_channel(l1, l2, l3, t3)
        if is_cpt(ch, tol=RANDOM_CP_TOL):
            return ch
    raise RuntimeError("could not sample a CP canonical channel")


def _default_specs() -> list[ProtocolSpec]:
    """The probabilistic entry of every protocol, in table order."""
    return [SPECS[protocol, "probabilistic"] for protocol in PROTOCOLS]


def _dims(spec: ProtocolSpec, qudit_dims: Iterable[int]) -> tuple[int, ...]:
    return tuple(qudit_dims) if spec.takes_d else (2,)


def _suffix(spec: ProtocolSpec, d: int) -> str:
    return f"_d{d}" if spec.takes_d else ""


def _worst(grids: dict, spec: ProtocolSpec, kind: str, d: int, points: int) -> dict[str, float]:
    """Largest ``row_deviations`` per check over a [0, 1] sweep of ``kind`` noise,
    kept in ``grids`` under ``(spec, kind, d, points)``: a grid memo, so the
    suites that share it sweep each grid once."""
    key = (spec, kind, d, points)
    if key in grids:
        return grids[key]
    param = CHANNEL_PARAMS[kind][0]
    sweep = SweepSpec(spec.protocol, kind, param, "", mode=spec.mode, d=d, points=points).validate()
    worst: dict[str, float] = {}
    for row in sweep_rows(sweep):
        for check, dev in row_deviations(sweep, row).items():
            worst[check] = max(worst.get(check, 0.0), dev)
    grids[key] = worst
    return worst


def identity_suite(
    random_channels: int = 50,
    grid_points: int = 11,
    seed: int = DEFAULT_SEED,
    qudit_dims: Iterable[int] = (2, 3),
    *,
    grids: dict | None = None,
) -> list[CheckResult]:
    """Identity-chain deviations across random channels and noise grids.

    A protocol draws ``random_channels // random_divisor`` random CP
    canonical channels (its table entry sets the divisor), one chunk at a
    time as the driver's chunk loop ``protocols._runs`` runs them. ``grids``
    is a grid memo shared with the other suites of one ``run_checks`` call
    (see ``_worst``).
    """
    rng, grids = np.random.default_rng(seed), {} if grids is None else grids
    results = []
    for spec in _default_specs():
        if spec.random_divisor:
            count = random_channels // spec.random_divisor
            drawn = ((random_cp_canonical(rng),) * len(spec.channel_roles) for _ in range(count))
            chains = map(verify_identity_chain, _runs(spec, drawn))
            dev = max((chain.max_deviation for chain in chains), default=0.0)
            name = f"identity_{spec.protocol}_random_canonical"
            results.append(CheckResult.from_deviation(name, dev, CHAIN_ATOL))
        for kind in CLOSED_FORM_KINDS:
            for d in _dims(spec, qudit_dims):
                dev = _worst(grids, spec, kind, d, grid_points)["identity"]
                name = f"identity_{spec.protocol}_{kind}{_suffix(spec, d)}"
                results.append(CheckResult.from_deviation(name, dev, CHAIN_ATOL))
    return results


def separability_suite(
    grid_points: int = 11, qudit_dims: Iterable[int] = (2, 3), *, grids: dict | None = None
) -> list[CheckResult]:
    """Exchange-vs-rest negativities stay at zero at every protocol step."""
    grids, results = {} if grids is None else grids, []
    for kind in CLOSED_FORM_KINDS:
        for spec in _default_specs():
            for d in _dims(spec, qudit_dims):
                dev = _worst(grids, spec, kind, d, grid_points)["separability"]
                name = f"separability_{spec.protocol}_{kind}{_suffix(spec, d)}"
                results.append(CheckResult.from_deviation(name, dev, SEPARABILITY_ATOL))
    return results


def closed_form_suite(
    grid_points: int = 21, qudit_dims: Iterable[int] = QUDIT_DIMS, *, grids: dict | None = None
) -> list[CheckResult]:
    """Compare every closed-form curve of ``reference.FORMULAS`` against the
    simulation on a grid, and every critical noise level against a root search."""
    grids, results = {} if grids is None else grids, []
    for protocol in PROTOCOLS:
        specs = [spec for spec in SPECS.values() if spec.protocol == protocol]
        for kind in CLOSED_FORM_KINDS:
            for d in _dims(specs[0], qudit_dims):
                for spec in specs:
                    worst = _worst(grids, spec, kind, d, grid_points)
                    results.extend(
                        CheckResult.from_deviation(
                            f"{fid}{_suffix(spec, d)}", worst[fid], CLOSED_FORM_ATOL
                        )
                        for fid in spec.formulas(kind)
                    )

    for spec in _default_specs():
        for kind in CLOSED_FORM_KINDS:
            if (fid := spec.critical_formula(kind)) is None:
                continue
            for d in _dims(spec, qudit_dims):
                found = critical_noise(lambda x: spec.average_only(kind, x, d))
                name, dev = f"{fid}{_suffix(spec, d)}", abs(found - FORMULAS[fid].fn(d))
                results.append(CheckResult.from_deviation(name, dev, CLOSED_FORM_ATOL))
    return results


SUITES = {
    "identity": identity_suite,
    "separability": separability_suite,
    "closed_form": closed_form_suite,
}


def run_checks(suite: str = "all", **kwargs) -> list[CheckResult]:
    """Run one named suite or all of them; ``kwargs`` maps a suite name to
    the keyword arguments of that suite. The suites of one call share a grid
    memo, so a noise grid that two of them check is swept once per call."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all', *SUITES)}")
    unknown = sorted(set(kwargs) - set(SUITES))
    if unknown:
        raise ValueError(f"unknown suite keywords {unknown}; choose from {tuple(SUITES)}")
    names, grids = SUITES if suite == "all" else (suite,), {}
    return [
        row for name in names for row in SUITES[name](**kwargs.get(name, {}), grids=grids)
    ]
