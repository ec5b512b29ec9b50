"""A point's numbers do not depend on the other points of its driver pass.

Every column cell that ``protocols._drive`` records for a point of a batch must
equal, bit for bit (by ``float.hex``), the cell of the same point driven alone:
over 11-point [0, 1] grids of every ``SPECS`` entry, across GHZ batches whose two
exchange channels differ, and at the probes of the qudit root search, which
``qudit_average_only`` takes as one array per round, so that the search by
rounds lands where the one-point search does, and where a swept grid answers
the probes it holds.
"""

import numpy as np
import pytest

from edss.channels import _channels
from edss.protocols import MAX_DIM_CEILING, SPECS, _critical_noise, _drive, critical_noise
from edss.protocols import qudit_average_only
from edss.reference import CLOSED_FORM_KINDS
from edss.sweep import SweepSpec, sweep_table

GRID = np.linspace(0.0, 1.0, 11)


def assert_cells_match_one_point_passes(key, batch, d):
    spec = SPECS[key]
    wide = _drive(spec, batch, d).columns
    for b, channels in enumerate(batch):
        alone = _drive(spec, [channels], d).columns
        assert list(alone) == list(wide)
        for name, column in wide.items():
            assert float(column[b]).hex() == float(alone[name][0]).hex(), (b, name)


@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
@pytest.mark.parametrize(
    "key, d",
    [(key, d) for key in SPECS for d in ((2, 3, 5, 6) if SPECS[key].takes_d else (2,))],
    ids=lambda v: "-".join(v) if isinstance(v, tuple) else f"d{v}",
)
def test_every_cell_of_a_grid_batch_is_its_one_point_pass(key, d, kind):
    roles = len(SPECS[key].channel_roles)
    batch = [(ch,) * roles for ch in _channels(kind, d, GRID[:, None])]
    assert_cells_match_one_point_passes(key, batch, d)


def test_ghz_batch_with_different_channels_on_d1_and_d2():
    depolarizing = _channels("depolarizing", 2, GRID[:, None])
    damping = _channels("amplitude_damping", 2, GRID[::-1, None])
    batch = list(zip(depolarizing, damping)) + list(zip(damping, depolarizing))
    assert_cells_match_one_point_passes(("ghz", "probabilistic"), batch, 2)


@pytest.mark.parametrize("d", range(2, MAX_DIM_CEILING + 1))
def test_root_search_rounds_are_their_one_point_passes(d):
    """The linear qudit curve's search takes 2 rounds, each one array: the ends
    and the midpoint, then a ± tol/2 pair. Each probe's value is its one-point
    value, and the root is the one public ``critical_noise`` finds through 5
    scalar calls at the same probes."""
    rounds, calls = [], []

    def curve(xs):
        rounds.append((xs.tolist(), values := qudit_average_only(d, "depolarizing", xs)))
        return values

    def fn(x):
        calls.append((x, (value := qudit_average_only(d, "depolarizing", x)).hex()))
        return value

    found = _critical_noise(curve)
    assert [len(xs) for xs, _ in rounds] == [3, 2] and rounds[0][0] == [1.0, 0.0, 0.5]
    assert found.hex() == critical_noise(fn).hex()
    assert calls == [(x, float(v).hex()) for xs, values in rounds for x, v in zip(xs, values)]


@pytest.mark.parametrize(
    "start, stop, points",
    [(0.0, 1.0, 5), (0.5, 1.0, 3), (0.0, 0.5, 2), (0.1, 0.8, 2)],
    ids=["all", "hi-and-mid", "lo-and-mid", "none"],
)
@pytest.mark.parametrize("d", [2, 3, 6])
def test_a_swept_grid_answers_the_probes_it_holds(d, start, stop, points):
    """A search handed a sweep's grid drives only the probes that grid lacks,
    round by round, and lands on the root of the search without it, bit for bit."""

    def searched(grid=((), ())):
        rounds = []

        def curve(xs):
            rounds.append(xs.tolist())
            return qudit_average_only(d, "depolarizing", xs)

        return _critical_noise(curve, grid=grid), rounds

    spec = SweepSpec("qudit", "depolarizing", "p", "", d=d, start=start, stop=stop, points=points)
    table = sweep_table(spec.validate())
    held = set(table["p"].tolist())
    want, rounds = searched()
    found, driven = searched((table["p"], table["average_negativity"]))
    assert found.hex() == want.hex()
    assert driven == [r for r in ([x for x in xs if x not in held] for xs in rounds) if r]
    assert rounds[0] == [1.0, 0.0, 0.5]  # a grid holding all three saves the round
    assert len(driven) == len(rounds) - (held >= {1.0, 0.0, 0.5})
