"""Sweep grids as columns from parameter to file, against row-by-row oracles.

A sweep hands the driver's chunk loop one row of channel parameters per point,
which builds its channels by one ``channels._channels`` call per chunk; it checks
whole columns (``sweep.row_deviations``) and formats the CSV and SVG in one pass
over its float table. Each output must be, byte for byte, what
``explicit_forms.row_by_row_outputs`` rebuilds one row and one cell at a time,
and each grid-built channel the ``channel_from_config`` channel of its point.
A NaN deviation fails its check instead of vanishing from a comparison or a max.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import edss.sweep
from edss import channels, protocols
from edss.channels import CHANNEL_PARAMS, KrausChannel, channel_from_config
from edss.checks import closed_form_suite, identity_suite
from edss.protocols import SPECS, _runs
from edss.sweep import CANONICAL_DEFAULTS, SweepSpec, _failures, run_sweep, sweep_table

from explicit_forms import row_by_row_outputs
from test_columns import GRIDS, grid_spec

GRID_IDS = ["-".join(map(str, g)) for g in GRIDS]


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_csv_svg_and_failure_lines_equal_the_row_by_row_oracle(grid, tmp_path, monkeypatch):
    spec = grid_spec(*grid)
    checks = {"identity", "separability"} | ({"closed_form"} if grid[2] != "canonical" else set())
    spec = replace(
        spec, csv_path=tmp_path / "out.csv", svg_path=tmp_path / "out.svg", checks=checks
    )
    result = run_sweep(spec)
    csv_text, svg_text, failures = row_by_row_outputs(result.spec, result.table)
    assert spec.csv_path.read_bytes() == csv_text.encode()
    assert spec.svg_path.read_bytes() == svg_text.encode()
    assert result.check_failures == failures
    # every deviation against a zero tolerance: the lines of every row that is not exactly 0
    for name in ("CHAIN_ATOL", "SEPARABILITY_ATOL", "CLOSED_FORM_ATOL"):
        monkeypatch.setattr(edss.sweep, name, 0.0)
    every = _failures(result.spec, result.table)
    assert every == row_by_row_outputs(result.spec, result.table)[2]
    assert len(every) > len(failures)


def factory_channel(spec, x):
    """The channel of one grid point through the one-point factory."""
    config = {"kind": spec.channel, "d": spec.d, **CANONICAL_DEFAULTS, **spec.channel_args}
    return channel_from_config({**config, spec.param: x})


def damping_kraus_bytes(d, gamma):
    """Amplitude damping's Kraus operators as one point built them, operator by operator."""
    e0 = np.zeros((d, d), dtype=complex)
    e0[0, 0] = 1.0
    for i in range(1, d):
        e0[i, i] = np.sqrt(1.0 - gamma)
    ops = [e0]
    for m in range(1, d):
        em = np.zeros((d, d), dtype=complex)
        em[0, m] = np.sqrt(gamma)
        ops.append(em)
    return [a.tobytes() for a in ops]


GRID_KINDS = [("depolarizing", d) for d in range(2, 7)]
GRID_KINDS += [("amplitude_damping", d) for d in range(2, 7)] + [("canonical", 2)]


@pytest.mark.parametrize("kind,d", GRID_KINDS)
def test_grid_built_channels_are_the_factory_channels(kind, d):
    # 101 points span two chunks at d = 5 and three at d = 6
    fixed = {"lambda1": 0.4, "lambda2": 0.3, "t3": 0.1} if kind == "canonical" else {}
    spec = SweepSpec(
        "qudit", kind, CHANNEL_PARAMS[kind][-2 if kind == "canonical" else 0], "", d=d,
        points=101, stop=0.8 if kind == "canonical" else 1.0, channel_args=fixed,
    ).validate()
    entry = SPECS[spec.protocol, spec.mode]
    built = [chs[0] for chunk in _runs(entry, kind, d, spec.params()) for chs in chunk.batch]
    assert len(built) == 101
    for x, got in zip(spec.grid().tolist(), built, strict=True):
        want = factory_channel(spec, x)
        assert type(got) is type(want) and got.kind == want.kind and got.dim == want.dim
        fields = [(k, type(v), v) for k, v in vars(want).items() if k != "kraus_ops"]
        assert [(k, type(v), v) for k, v in vars(got).items() if k != "kraus_ops"] == fields
        if isinstance(want, KrausChannel):
            assert [a.tobytes() for a in got.kraus_ops] == [a.tobytes() for a in want.kraus_ops]
            assert [a.tobytes() for a in got.kraus_ops] == damping_kraus_bytes(d, x)
        assert got.transfer_tensor().tobytes() == want.transfer_tensor().tobytes()


def test_a_grid_refusal_names_the_first_bad_value():
    with pytest.raises(ValueError, match=r"^damping rate must be in \[0, 1\], got 1\.5$"):
        channels._channels("amplitude_damping", 3, [[0.5], [1.5], [-1.0]])
    with pytest.raises(ValueError, match=r"^lambda2 must be finite, got inf$"):
        channels._channels("canonical", 2, [[0.1, 0.2, 0.3, 0.0], [0.1, np.inf, np.nan, 0.0]])


def test_no_per_point_channel_build_check_or_tensor_lookup(monkeypatch):
    """A 101-point GHZ sweep reads each channel's tensor from one stacked build:
    one ``_tensors`` build, ``transfer_tensor()`` once per channel (not per role),
    ``channel_from_config`` never, and one ``row_deviations`` call for the grid."""
    reads, builds, configs, deviations = Counter(), [], [], []
    read, build = channels._Channel.transfer_tensor, KrausChannel._tensors
    monkeypatch.setattr(
        channels._Channel, "transfer_tensor", lambda ch: reads.update([id(ch)]) or read(ch)
    )
    monkeypatch.setattr(
        KrausChannel, "_tensors", staticmethod(lambda g: builds.append(len(g)) or build(g))
    )
    monkeypatch.setattr(channels, "channel_from_config", lambda c: configs.append(c) or 1 / 0)
    row_deviations = edss.sweep.row_deviations
    monkeypatch.setattr(
        edss.sweep, "row_deviations", lambda *a: deviations.append(1) or row_deviations(*a)
    )
    spec = SweepSpec("ghz", "amplitude_damping", "gamma", "", points=101, checks={"identity"})
    table = sweep_table(spec.validate())
    assert len(table["gamma"]) == 101
    assert builds == [101] and len(reads) == 101 and set(reads.values()) == {1}
    assert configs == []
    assert _failures(spec, table) == [] and deviations == [1]


def nan_at(monkeypatch, key, point):
    """Every driver chunk's ``key`` column reads NaN at ``point``."""
    drive = protocols._drive

    def poisoned(*args):
        chunk = drive(*args)
        if key in chunk.columns and len(chunk) > point:  # not the root search's one-point runs
            column = chunk.columns[key].copy()
            column[point] = np.nan
            chunk.columns[key] = column
        return chunk

    monkeypatch.setattr(protocols, "_drive", poisoned)


def test_a_nan_chain_deviation_fails_the_sweep_check(tmp_path, monkeypatch):
    nan_at(monkeypatch, "a|bc@channel", 2)
    spec = SweepSpec(
        "qudit", "depolarizing", "p", tmp_path / "out.csv", d=3, points=5, checks={"identity"}
    )
    result = run_sweep(spec)
    assert np.isnan(result.table["chain_max_deviation"][2])
    assert result.check_failures == ["p=0.5: identity chain deviation nan"]
    assert not result.checks_passed


def test_a_nan_deviation_fails_the_suite_rows(monkeypatch):
    nan_at(monkeypatch, "a|b@success", 1)
    by_name = {r.name: r for r in closed_form_suite()}
    row = by_name["qudit_depolarizing_success_negativity_d3"]
    assert np.isnan(row.max_deviation) and not row.passed
    assert by_name["qudit_depolarizing_success_probability_d3"].passed
    nan_at(monkeypatch, "a|bc@channel", 1)
    by_name = {r.name: r for r in identity_suite()}
    assert not by_name["identity_qudit_depolarizing_d2"].passed
