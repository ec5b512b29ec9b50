"""Closed-form reference curves for every protocol and noise family.

Each formula is the analytic value of a quantity the simulator also
produces numerically, so these serve as independent cross-checks.
Piecewise formulas return 0 in their zero region.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .channels import CHANNEL_PARAMS
from .tensor import _dimension

# Simulated values carry ~1e-15 rounding and the root search stops at 1e-12.
CLOSED_FORM_ATOL = 1e-9
# Channel kinds with closed-form curves, in the column order of ``_CURVES``;
# the check suites sweep these.
CLOSED_FORM_KINDS = ("depolarizing", "amplitude_damping")


@dataclass(frozen=True)
class Formula:
    formula_id: str
    params: tuple[str, ...]
    description: str
    fn: Callable[..., float]


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


TWO_QUBIT_DEPOL_DET_CRITICAL = (3.0 - math.sqrt(5.0)) / 2.0


def _tq_depol_deterministic(p: float) -> float:
    if p >= TWO_QUBIT_DEPOL_DET_CRITICAL:
        return 0.0
    return (math.sqrt(17.0 * p * p - 40.0 * p + 32.0) - p - 4.0) / 12.0


def _tq_ad_deterministic(g: float) -> float:
    return (math.sqrt(8.0 + g * g) - 2.0 - g) / 6.0


def _ghz_depol_success_prob(p: float) -> float:
    return (4.0 + 4.0 * p - p * p) / 28.0


GHZ_DEPOL_B_CRITICAL = (math.sqrt(5.0) - 1.0) / math.sqrt(5.0)


def _ghz_depol_neg_a_bc(p: float) -> float:
    if p > 2.0 / 3.0:
        return 0.0
    return (4.0 - 8.0 * p + 3.0 * p * p) / (4.0 + 4.0 * p - p * p)


def _ghz_depol_neg_b_ac(p: float) -> float:
    if p > GHZ_DEPOL_B_CRITICAL:
        return 0.0
    return (4.0 - 10.0 * p + 5.0 * p * p) / (4.0 + 4.0 * p - p * p)


def _ghz_depol_avg_a_bc(p: float) -> float:
    return (4.0 - 8.0 * p + 3.0 * p * p) / 28.0 if p <= 2.0 / 3.0 else 0.0


def _ghz_depol_avg_b_ac(p: float) -> float:
    if p > GHZ_DEPOL_B_CRITICAL:
        return 0.0
    return (4.0 - 10.0 * p + 5.0 * p * p) / 28.0


def _ghz_ad_success_prob(g: float) -> float:
    return (2.0 + 2.0 * g + g * g) / 14.0


def _ghz_ad_neg_a_bc(g: float) -> float:
    return (math.sqrt(g**4 + 4.0 * (1.0 - g) ** 2) - g * g) / (g * g + 2.0 * g + 2.0)


def _ghz_ad_neg_b_ac(g: float) -> float:
    return (1.0 - g) * (math.sqrt(g * g + 4.0) - g) / (g * g + 2.0 * g + 2.0)


def _ghz_ad_avg_a_bc(g: float) -> float:
    return (math.sqrt(g**4 + 4.0 * (1.0 - g) ** 2) - g * g) / 14.0


def _ghz_ad_avg_b_ac(g: float) -> float:
    return (1.0 - g) * (math.sqrt(g * g + 4.0) - g) / 14.0


def _qudit_depol_success_prob(d: int, p: float) -> float:
    return (d + p * (d - 1.0)) / (d * (2.0 * d - 1.0))


def _qudit_depol_critical(d: int) -> float:
    return d / (d + 1.0)


def _qudit_depol_success_neg(d: int, p: float) -> float:
    if p > d / (d + 1.0):
        return 0.0
    return (d - (d + 1.0) * p) / (d + (d - 1.0) * p)


def _qudit_depol_average(d: int, p: float) -> float:
    if p > d / (d + 1.0):
        return 0.0
    return (d - (d + 1.0) * p) / (d * (2.0 * d - 1.0))


def _qudit_ad_success_prob(d: int, g: float) -> float:
    return (d + (d - 1.0) * g) / (d * (2.0 * d - 1.0))


def _qudit_ad_success_neg(d: int, g: float) -> float:
    return d * (1.0 - g) / (d + (d - 1.0) * g)


def _qudit_ad_average(d: int, g: float) -> float:
    return (1.0 - g) / (2.0 * d - 1.0)


# One row per (protocol, quantity): its description, then its curve under
# depolarizing and under amplitude-damping noise. The formula id is
# <protocol>_<kind>_<quantity>; qudit curves take the dimension d first. The
# two-qubit protocol is the qudit one at d = 2 (equal start states, and the inverse
# CNOT is the CNOT), so ``_registry`` registers each qudit curve at d = 2 as the
# two_qubit curve of the same quantity.
_CURVES = (
    ("two_qubit", "deterministic_negativity",
     "negativity of the deterministic-variant output pair",
     _tq_depol_deterministic, _tq_ad_deterministic),
    ("ghz", "success_probability",
     "probability of the (0, 0) ancilla outcome",
     _ghz_depol_success_prob, _ghz_ad_success_prob),
    ("ghz", "negativity_a_bc",
     "a|bc negativity of the success branch",
     _ghz_depol_neg_a_bc, _ghz_ad_neg_a_bc),
    ("ghz", "negativity_b_ac",
     "b|ac (= c|ab) negativity of the success branch",
     _ghz_depol_neg_b_ac, _ghz_ad_neg_b_ac),
    ("ghz", "average_a_bc",
     "branch-averaged a|bc negativity",
     _ghz_depol_avg_a_bc, _ghz_ad_avg_a_bc),
    ("ghz", "average_b_ac",
     "branch-averaged b|ac (= c|ab) negativity",
     _ghz_depol_avg_b_ac, _ghz_ad_avg_b_ac),
    ("qudit", "success_probability",
     "probability of the entangling measurement outcome",
     _qudit_depol_success_prob, _qudit_ad_success_prob),
    ("qudit", "success_negativity",
     "negativity of the post-measurement pair on success",
     _qudit_depol_success_neg, _qudit_ad_success_neg),
    ("qudit", "average_negativity",
     "branch-averaged negativity distributed between a and b",
     _qudit_depol_average, _qudit_ad_average),
)


def _registry() -> dict[str, Formula]:
    entries = [
        Formula(
            "qudit_depolarizing_critical_noise",
            ("d",),
            "noise level beyond which the average negativity vanishes",
            _qudit_depol_critical,
        )
    ]
    for protocol, quantity, description, depolarizing, damping in _CURVES:
        for kind, fn in zip(CLOSED_FORM_KINDS, (depolarizing, damping)):
            noise = CHANNEL_PARAMS[kind][0]
            if protocol == "qudit":
                fid = f"two_qubit_{kind}_{quantity}"
                entries.append(Formula(fid, (noise,), description, functools.partial(fn, 2)))
            params = ("d", noise) if protocol == "qudit" else (noise,)
            entries.append(Formula(f"{protocol}_{kind}_{quantity}", params, description, fn))
    return {f.formula_id: f for f in entries}


FORMULAS: dict[str, Formula] = _registry()


def closed_form(formula_id: str, **params: float) -> float:
    """Evaluate a registered closed-form curve at the given parameters."""
    try:
        formula = FORMULAS[formula_id]
    except KeyError:
        raise ValueError(f"unknown formula id {formula_id!r}") from None
    missing = [name for name in formula.params if name not in params]
    if missing:
        raise ValueError(f"{formula_id} requires parameters {missing}")
    extra = [name for name in params if name not in formula.params]
    if extra:
        raise ValueError(f"{formula_id} does not take parameters {extra}")
    args = [
        _dimension(params[name]) if name == "d" else _check_unit(name, params[name])
        for name in formula.params
    ]
    return float(formula.fn(*args))
