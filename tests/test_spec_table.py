"""Consistency of the protocol table with the runs it describes.

Every (protocol, mode, channel) combination a sweep accepts is run on a
small grid; a typo in a table entry then fails here instead of raising a
KeyError in one combination only.
"""

import csv
import itertools
import re

import pytest

from edss import FORMULAS, SweepError, SweepSpec, run_sweep
from edss.channels import CHANNEL_PARAMS, noise_channel
from edss.protocols import MODES, PROTOCOLS, SPECS, _drive, describe
from edss.reference import CLOSED_FORM_KINDS
from edss.sweep import sweep_columns

# With these fixed values every lambda3 in [0, 0.8] gives a CPT channel.
CANONICAL_ARGS = {"lambda1": 0.4, "lambda2": 0.4, "t3": 0.1}


def accepted_specs():
    specs = []
    for protocol, mode, channel, d in itertools.product(
        PROTOCOLS, MODES, CHANNEL_PARAMS, (2, 3)
    ):
        canonical = channel == "canonical"
        spec = SweepSpec(
            protocol=protocol,
            mode=mode,
            channel=channel,
            d=d,
            param="lambda3" if canonical else CHANNEL_PARAMS[channel][0],
            stop=0.5 if canonical else 1.0,
            points=3,
            csv_path="unused.csv",
            channel_args=CANONICAL_ARGS if canonical else {},
        )
        try:
            specs.append(spec.validate())
        except SweepError:
            continue
    return specs


SPEC_IDS = [f"{s.protocol}-{s.mode}-{s.channel}-d{s.d}" for s in accepted_specs()]


def test_every_protocol_mode_and_channel_is_covered():
    seen = {(s.protocol, s.mode, s.channel) for s in accepted_specs()}
    assert {(p, m) for p, m, _ in seen} == set(SPECS)
    assert {c for _, _, c in seen} == set(CHANNEL_PARAMS)
    assert {s.d for s in accepted_specs() if SPECS[s.protocol, s.mode].takes_d} == {2, 3}


@pytest.mark.parametrize("spec", accepted_specs(), ids=SPEC_IDS)
def test_table_entry_matches_its_runs(spec, tmp_path):
    entry = SPECS[spec.protocol, spec.mode]
    columns = sweep_columns(spec)
    assert len(columns) == len(set(columns))

    fids = [*entry.formulas(spec.channel), entry.critical_formula(spec.channel)]
    fids = [fid for fid in fids if fid is not None]
    assert len([column for column in columns if column.startswith("ref_")]) == len(fids)
    for fid in fids:
        assert fid in FORMULAS

    trace = _drive(entry, [(spec.channel_at(0.25),) * len(entry.channel_roles)], spec.d)[0]
    recorded = set(trace.partition_negativities) | {f"avg:{k}" for k in trace.averages}
    for chain in trace.identity_chains.values():
        assert set(chain) <= recorded
    assert set(trace.exchange_keys) <= set(trace.partition_negativities)
    for _, key in entry.columns:
        assert isinstance(trace.value_of(key), float)

    result = run_sweep(
        SweepSpec(**{**vars(spec), "csv_path": tmp_path / "out.csv", "checks": frozenset()})
    )
    with open(result.csv_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == columns
    assert len(rows) == 1 + spec.points
    assert all(len(row) == len(columns) for row in rows)


# The exchange and measured subsystems each entry once listed by hand.
EXCHANGE = {
    ("two_qubit", "probabilistic"): ((2,), ("c",)),
    ("two_qubit", "deterministic"): ((2,), ()),
    ("ghz", "probabilistic"): ((3, 4), ("d1", "d2")),
    ("qudit", "probabilistic"): ((2,), ("c",)),
}


@pytest.mark.parametrize("key", list(SPECS), ids="-".join)
def test_exchange_and_measured_follow_from_the_steps(key):
    spec = SPECS[key]
    assert (spec.exchange, spec.measured) == EXCHANGE[key]
    for kind in CHANNEL_PARAMS:
        critical = spec.critical_formula(kind)
        assert (critical is not None) == ((spec.protocol, kind) == ("qudit", "depolarizing"))


def test_every_formula_is_read_by_some_entry():
    reached = set()
    for spec, kind in itertools.product(SPECS.values(), CLOSED_FORM_KINDS):
        reached.update(spec.formulas(kind), [spec.critical_formula(kind)])
    assert set(FORMULAS) <= reached


@pytest.mark.parametrize("key", list(SPECS), ids="-".join)
def test_describe_cites_only_step_labels(key):
    spec = SPECS[key]
    cited = set(re.findall(r"@(\w+)", describe(spec.protocol)))
    assert cited
    assert cited <= {step.label for step in spec.steps} | {"success"}


@pytest.mark.parametrize("key", list(SPECS), ids="-".join)
def test_describe_names_what_a_run_records(key):
    spec = SPECS[key]
    tokens = {token.strip(",;:()") for token in describe(spec.protocol).split()}
    channels = (noise_channel("depolarizing", 2, 0.25),) * len(spec.channel_roles)
    trace = _drive(spec, [channels])[0]
    assert set(trace.partition_negativities) <= tokens
    for chains in (spec.identity_chains, spec.symmetry_chains):
        for name, members in chains.items():
            assert {name, *members} <= tokens
    for kind in CLOSED_FORM_KINDS:
        fids = [*spec.formulas(kind), spec.critical_formula(kind)]
        assert {fid for fid in fids if fid is not None} <= tokens
