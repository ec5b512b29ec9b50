"""One integer rule for dimensions, subsystem indices and counts.

Every site that takes a dimension, a subsystem index or a count reads it
through ``tensor._dimension`` or ``tensor._integer``: an ``int`` or numpy
integer in range passes, and a dimension may also be an integral float such
as 3.0. Anything else raises ``ValueError`` (``SweepError`` for a
``SweepSpec``) before any work: it is neither truncated nor accepted, and it
does not fail later with a bare ``TypeError``.
"""

import numpy as np
import pytest

from edss import (
    Bipartition,
    DensityOperator,
    DepolarizingChannel,
    SweepError,
    SweepSpec,
    amplitude_damping,
    apply_to_subsystem,
    channel_from_config,
    closed_form,
    cnot,
    depolarizing,
    identity_channel,
    measure_computational,
    partial_trace,
    qudit_initial_state,
    run_qudit,
)
from edss.checks import identity_suite
from edss.protocols import ghz_average_only
from edss.sweep import sweep_table

from explicit_forms import table_rows

RHO3 = DensityOperator(np.eye(8) / 8, (2, 2, 2))


def _side(d):
    """Side of the register ``(2, int(d))``, or 4 where ``int`` fails: a state that a
    truncated dimension would fit."""
    try:
        return 2 * max(int(d), 1)
    except (TypeError, ValueError, OverflowError):
        return 4


def _maximally_mixed(d):
    return DensityOperator(np.eye(_side(d)) / _side(d), (2, d))


# site -> call with the dimension under test in its place
DIMENSION_SITES = {
    "DensityOperator": _maximally_mixed,
    "qudit_initial_state": qudit_initial_state,
    "depolarizing": lambda d: depolarizing(d, 0.1),
    "DepolarizingChannel": lambda d: DepolarizingChannel(d, 0.1),
    "amplitude_damping": lambda d: amplitude_damping(d, 0.1),
    "identity_channel": identity_channel,
    "channel_from_config": lambda d: channel_from_config({"kind": "depolarizing", "d": d, "p": 0}),
    "run_qudit": lambda d: run_qudit(d, depolarizing(3, 0.1)),
    "closed_form": lambda d: closed_form("qudit_depolarizing_average_negativity", d=d, p=0.1),
    "SweepSpec.d": lambda d: SweepSpec("qudit", "depolarizing", "p", "", d=d, points=2).validate(),
}
# site -> call with the subsystem index (of a three-qubit register) under test in its place
INDEX_SITES = {
    "Bipartition.split": lambda i: Bipartition.split([i], 3),
    "partial_trace": lambda i: partial_trace(RHO3, [i]),
    "cnot.control": lambda i: cnot(RHO3, i, 2 if i != 2 else 0),
    "cnot.target": lambda i: cnot(RHO3, 2 if i != 2 else 0, i),
    "measure_computational": lambda i: measure_computational(RHO3, i),
    "apply_to_subsystem": lambda i: apply_to_subsystem(depolarizing(2, 0.1), RHO3, i),
}
# site -> (call with the count under test in its place, a count it accepts)
COUNT_SITES = {
    "SweepSpec.points": (
        lambda n: SweepSpec("two_qubit", "depolarizing", "p", "", points=n).validate(),
        3,
    ),
    # before, True ran as seed 1, and 2.5 or "3" failed with numpy's bare TypeError
    "identity_suite.seed": (identity_suite, 7),
    "Bipartition.split.n": (lambda n: Bipartition.split([0], n), 3),
}


def _error(site):
    return SweepError if site.startswith("SweepSpec") else ValueError


@pytest.mark.parametrize("d", [2.7, 2.5, 2.9, float("nan"), float("inf"), "3", True, None])
@pytest.mark.parametrize("site", DIMENSION_SITES)
def test_a_non_integral_dimension_is_refused(site, d):
    with pytest.raises(_error(site), match="must be an integer, got"):
        DIMENSION_SITES[site](d)


@pytest.mark.parametrize("d", [1, 0, -3, 1.0, np.int64(1)])
@pytest.mark.parametrize("site", DIMENSION_SITES)
def test_a_dimension_below_two_is_refused(site, d):
    with pytest.raises(_error(site), match="must be >= 2, got"):
        DIMENSION_SITES[site](d)


@pytest.mark.parametrize("d", [3.0, np.float64(3.0), np.int64(3), np.int32(3)])
@pytest.mark.parametrize("site", DIMENSION_SITES)
def test_an_integral_dimension_is_taken_as_an_int(site, d):
    DIMENSION_SITES[site](d)


def test_dimensions_are_stored_as_ints():
    for dims in (_maximally_mixed(np.float64(3.0)).dims, _maximally_mixed(np.int64(3)).dims):
        assert dims == (2, 3)
        assert all(type(d) is int for d in dims)
    assert qudit_initial_state(3.0).dims == (3, 3, 3)


def assert_same_run(got, want):
    assert got.partition_negativities == want.partition_negativities
    assert got.averages == want.averages and got.noise == want.noise
    assert [b.probability for b in got.branches] == [b.probability for b in want.branches]
    for (label, rho), (want_label, want_rho) in zip(got.steps, want.steps, strict=True):
        assert label == want_label and rho.dims == want_rho.dims == (3, 3, 3)
        assert np.array_equal(rho.matrix, want_rho.matrix)


@pytest.mark.parametrize("d", [3.0, np.int64(3)])
def test_a_qudit_run_at_an_integral_float_is_the_integer_run_bit_for_bit(d):
    ch = depolarizing(3, 0.3)
    assert_same_run(run_qudit(d, ch), run_qudit(3, ch))


@pytest.mark.parametrize("d", [3.0, np.float64(3.0), np.int64(3)])
def test_a_depolarizing_channel_at_an_integral_float_is_the_integer_one_bit_for_bit(d):
    ch = DepolarizingChannel(d, 0.3)
    assert type(ch.d) is int
    assert ch.transfer_tensor().tobytes() == DepolarizingChannel(3, 0.3).transfer_tensor().tobytes()
    assert_same_run(run_qudit(3, ch), run_qudit(3, DepolarizingChannel(3, 0.3)))


def test_a_qudit_sweep_at_an_integral_float_is_the_integer_one():
    specs = [SweepSpec("qudit", "depolarizing", "p", "", d=d, points=3) for d in (3.0, 3)]
    assert table_rows(sweep_table(specs[0])) == table_rows(sweep_table(specs[1]))


@pytest.mark.parametrize("i", [0.5, 1.0, 1.5, np.float64(1.0), True, "1", None])
@pytest.mark.parametrize("site", INDEX_SITES)
def test_a_non_integer_subsystem_index_is_refused(site, i):
    with pytest.raises(ValueError, match="must be an integer, got"):
        INDEX_SITES[site](i)


@pytest.mark.parametrize("i", [-1, 3, np.int64(7)])
@pytest.mark.parametrize("site", INDEX_SITES)
def test_an_out_of_range_subsystem_index_is_refused(site, i):
    with pytest.raises(ValueError, match=r"must be in \[0, 2\], got"):
        INDEX_SITES[site](i)


@pytest.mark.parametrize("site", INDEX_SITES)
def test_a_numpy_subsystem_index_is_taken(site):
    INDEX_SITES[site](np.int64(1))


@pytest.mark.parametrize("site", COUNT_SITES)
@pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None, -5])
def test_a_bad_count_is_refused(site, n):
    with pytest.raises(_error(site), match=r"must be (an integer|>= \d+|in \[\d+, \d+\]), got"):
        COUNT_SITES[site][0](n)


@pytest.mark.parametrize("site", COUNT_SITES)
def test_a_numpy_count_is_taken(site):
    call, good = COUNT_SITES[site]
    call(np.int64(good))


@pytest.mark.parametrize("side", [-1, 3, 1.0, True])
def test_a_ghz_side_off_0_1_2_is_refused_naming_the_range(side):
    # before, -1 read the c|ab average, 3 raised IndexError and 1.0 TypeError
    with pytest.raises(ValueError, match=r"^side must be .*\[0, 2\]"):
        ghz_average_only("depolarizing", 0.5, side)
