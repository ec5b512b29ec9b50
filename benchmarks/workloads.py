"""Seeded inputs for the three benchmark workloads.

Every sweep grid lies on a fixed lattice of its swept parameter, so each
grid point has a row in the golden file of its sweep (see ``compare.py``).
The default seed gives the grids used in the README: 101 points over
``[0, 1]`` for the qubit sweeps, 21 points over ``[0, 1]`` at d = 6, and
``lambda3`` over ``[0, 0.5]`` for canonical channels. Any other seed moves
each grid to a half-width window ``[j/200, j/200 + 0.5]`` and picks the fixed
canonical parameters from ``CANONICAL_FIXED``. The number of points, and so
the work, is the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
# ``edss.checks.DEFAULT_SEED``: the identity-suite seed of ``edss check all``.
CHECK_ALL_DEFAULT_IDENTITY_SEED = 20230711

WORKLOADS = ("qubit_sweeps", "qudit_d6_sweeps", "check_all")

# Golden rows sit at multiples of 1/LATTICE of the swept parameter.
LATTICE = 200
# Extent of the golden lattice per channel kind.
LATTICE_STOP = {"depolarizing": 1.0, "amplitude_damping": 1.0, "canonical": 0.8}
# (lambda1, lambda2, t3) triples; with them every lambda3 in [0, 0.8] gives a
# CPT canonical channel: (l1 + l2)^2 + t3^2 <= (1 + l3)^2 and
# (l1 - l2)^2 + t3^2 <= (1 - l3)^2.
CANONICAL_FIXED = (
    (0.4, 0.4, 0.1),
    (0.3, 0.2, 0.15),
    (0.5, 0.45, 0.0),
    (0.2, 0.3, -0.1),
)
PARAM = {"depolarizing": "p", "amplitude_damping": "gamma", "canonical": "lambda3"}
QUBIT_SWEEPS = [
    (protocol, mode, channel)
    for protocol, mode in (("two_qubit", "prob"), ("two_qubit", "det"), ("ghz", "prob"))
    for channel in ("depolarizing", "amplitude_damping", "canonical")
]
QUBIT_POINTS = 101
QUDIT_D = 6
QUDIT_POINTS = 21
WINDOW = 0.5


@dataclass(frozen=True)
class Sweep:
    """One ``edss sweep`` invocation and the golden file its CSV must match."""

    name: str
    golden: str
    argv: tuple[str, ...]
    csv_path: Path
    svg_path: Path | None
    start: float
    stop: float
    points: int


def golden_name(protocol: str, mode: str, channel: str, fixed_index: int) -> str:
    stem = f"{protocol}-{mode}-{channel}"
    if channel == "canonical":
        stem += f"-{fixed_index}"
    return stem + ".csv"


def _window(rng: random.Random | None, channel: str, points: int) -> tuple[float, float]:
    """Grid endpoints on the lattice; ``rng is None`` means the default seed."""
    if rng is None:
        return 0.0, (WINDOW if channel == "canonical" else 1.0)
    step = WINDOW / (points - 1)
    if abs(step * LATTICE - round(step * LATTICE)) > 1e-12:
        raise ValueError(f"{points} points over {WINDOW} are off the 1/{LATTICE} lattice")
    j = rng.randrange(0, int(round((LATTICE_STOP[channel] - WINDOW) * LATTICE)) + 1)
    return j / LATTICE, j / LATTICE + WINDOW


def checks_for(channel: str) -> str:
    """Every ``--check`` that applies: canonical sweeps have no closed forms."""
    if channel == "canonical":
        return "identity,separability"
    return "identity,separability,closed_form"


def make_sweep(
    protocol: str,
    mode: str,
    channel: str,
    start: float,
    stop: float,
    points: int,
    fixed_index: int,
    out_dir: Path,
    svg: bool,
) -> Sweep:
    """The ``edss sweep`` argv for one grid, writing into ``out_dir``."""
    golden = golden_name(protocol, mode, channel, fixed_index)
    csv_path = out_dir / golden
    svg_path = csv_path.with_suffix(".svg") if svg else None
    argv = (
        "sweep", "--protocol", protocol, "--mode", mode, "--channel", channel,
        "--param", PARAM[channel], "--from", repr(start), "--to", repr(stop),
        "--points", str(points), "--csv", str(csv_path), "--check", checks_for(channel),
    )
    if protocol == "qudit":
        argv += ("--d", str(QUDIT_D))
    if channel == "canonical":
        l1, l2, t3 = CANONICAL_FIXED[fixed_index]
        argv += ("--lambda1", repr(l1), "--lambda2", repr(l2), "--t3", repr(t3))
    if svg_path is not None:
        argv += ("--svg", str(svg_path))
    return Sweep(golden[: -len(".csv")], golden, argv, csv_path, svg_path, start, stop, points)


def sweeps(workload: str, seed: int, out_dir: Path) -> list[Sweep]:
    """The sweep invocations of a sweep workload, in the order they run."""
    rng = None if seed == DEFAULT_SEED else random.Random(seed)
    if workload == "qubit_sweeps":
        combos, points = QUBIT_SWEEPS, QUBIT_POINTS
    elif workload == "qudit_d6_sweeps":
        combos = [("qudit", "prob", c) for c in ("depolarizing", "amplitude_damping")]
        points = QUDIT_POINTS
    else:
        raise ValueError(f"{workload} is not a sweep workload")
    out = []
    for protocol, mode, channel in combos:
        start, stop = _window(rng, channel, points)
        fixed_index = 0
        if channel == "canonical" and rng is not None:
            fixed_index = rng.randrange(len(CANONICAL_FIXED))
        out.append(make_sweep(
            protocol, mode, channel, start, stop, points, fixed_index, out_dir,
            svg=protocol != "qudit" and channel != "canonical",
        ))
    return out


def identity_seed(seed: int) -> int:
    """Seed handed to the identity suite of ``run_checks("all")``."""
    if seed == DEFAULT_SEED:
        return CHECK_ALL_DEFAULT_IDENTITY_SEED
    return random.Random(seed).randrange(2**31)
