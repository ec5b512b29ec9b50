"""Stacked channel admission against the one-point oracle in explicit_forms.

``protocols._admit`` checks a batch with one stacked CPT test and one stacked
covariance test; it must give each point the warnings, and the batch the
first refusal, that checking one channel and one point at a time gives.
``channels._cpt_reports`` must give each channel the report of the one-channel
formula, bit for bit.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edss import protocols
from edss.channels import (
    DepolarizingChannel,
    KrausChannel,
    _cpt_reports,
    _covariant,
    _off_sectors,
    amplitude_damping,
    canonical_channel,
    depolarizing,
)
from edss.protocols import SPECS, _admit, _drive, _evolve, _same

from explicit_forms import (
    admit_batch,
    cpt_report_fields,
    off_phase_mask,
    phase_covariant,
    same_channels,
    stinespring_kraus,
    weyl_diagonal_kraus,
    z_twirl,
)


def fourier(d):
    w = np.exp(2j * np.pi / d)
    return np.array([[w ** (i * j) for j in range(d)] for i in range(d)]) / np.sqrt(d)


def channel_pool(d):
    """Channels of every admission outcome at register dimension ``d``."""
    leaky = KrausChannel((np.sqrt(0.5) * np.eye(d, dtype=complex),))
    return {
        # equal tensors in distinct objects, and tensors 1e-9 apart
        "cpt": [
            depolarizing(d, 0.3), amplitude_damping(d, 0.2), depolarizing(d, 0.3),
            depolarizing(d, 0.3 + 1e-9),
        ],
        "non_cpt": [leaky, DepolarizingChannel(d, 1.5)] if d > 2 else [
            canonical_channel(1.0, 1.0, -1.0), canonical_channel(0.9, 0.5, 0.0, 0.6), leaky,
        ],
        "non_covariant": [
            KrausChannel((fourier(d),)), KrausChannel(tuple(stinespring_kraus(1, d)))
        ],
        "wrong_dim": [depolarizing(d + 1, 0.1), amplitude_damping(5 - d, 0.4)],
        "nan": [KrausChannel((np.full((d, d), np.nan, dtype=complex),))],
    }


POOLS = {d: channel_pool(d) for d in (2, 3)}
SPEC_NAMES = {2: ("two_qubit", "ghz"), 3: ("qudit",)}


@st.composite
def admission_batches(draw):
    d = draw(st.sampled_from((2, 3)))
    spec = SPECS[draw(st.sampled_from(SPEC_NAMES[d])), "probabilistic"]
    pool = POOLS[d]
    channel = st.sampled_from(sorted(pool)).flatmap(lambda kind: st.sampled_from(pool[kind]))
    batch = []
    for _ in range(draw(st.integers(1, 7))):
        first = draw(channel)
        shared = len(spec.channel_roles) == 1 or draw(st.booleans())
        rest = [first if shared else draw(channel) for _ in spec.channel_roles[1:]]
        batch.append((first, *rest))
    labels = [f"x={b}" for b in range(len(batch))] if draw(st.booleans()) else []
    return spec, batch, d, labels


def admitted(spec, batch, d, labels=()):
    """Per point, the warnings that ``_admit``'s flags stand for; a refusal is
    prefixed with ``labels[b]`` when labels are given."""
    _, _, warned = _admit(spec, batch, d, labels.__getitem__ if labels else None)
    warning = (
        "{} is not Bloch-diagonal or otherwise phase-covariant; identity chains are not guaranteed"
    )
    return [
        [warning.format(role) for role, flag in zip(spec.channel_roles, row) if flag]
        for row in warned.tolist()
    ]


def symmetric(spec, channels, d):
    """Whether the driver grants the point its symmetry chains: the flag of
    ``_same``, which the point's trace view must agree with."""
    granted = bool(_same(*_admit(spec, [channels], d)[:2])[0])
    trace = _drive(spec, [channels], d)[0]
    assert (set(spec.symmetry_chains) <= set(trace.identity_chains)) == granted
    assert any("differ" in warning for warning in trace.warnings) == (not granted)
    return granted


def outcome(admit, *args):
    try:
        return "ok", admit(*args)
    except ValueError as exc:
        return "error", str(exc)


class TestStackedAdmission:
    @settings(max_examples=150, deadline=None)
    @given(admission_batches())
    def test_matches_one_point_oracle(self, case):
        spec, batch, d, labels = case
        with np.errstate(invalid="ignore"):
            expected = outcome(admit_batch, spec.channel_roles, batch, d, labels)
            got = outcome(admitted, spec, batch, d, labels)
        assert got == expected
        if expected[0] == "ok":
            got = [symmetric(spec, channels, d) for channels in batch]
            assert got == [same_channels(channels) for channels in batch]

    def test_first_refusal_wins_over_later_dimension_error(self):
        spec = SPECS["two_qubit", "probabilistic"]
        batch = [
            (depolarizing(2, 0.1),), (canonical_channel(1.0, 1.0, -1.0),), (depolarizing(3, 0.1),)
        ]
        with pytest.raises(ValueError, match=r"^b: communication channel is not a CPT map"):
            _admit(spec, batch, 2, ["a", "b", "c"].__getitem__)

    def test_each_distinct_channel_reaches_the_kernels_once(self, monkeypatch):
        seen = []
        stacked = protocols._cpt_reports
        monkeypatch.setattr(
            protocols,
            "_cpt_reports",
            lambda t4, **kwargs: seen.append(len(t4)) or stacked(t4, **kwargs),
        )
        shared, other = depolarizing(2, 0.2), amplitude_damping(2, 0.3)
        batch = [(shared, shared), (shared, other), (other, other), (depolarizing(2, 0.2),) * 2]
        traces = _drive(SPECS["ghz", "probabilistic"], batch)
        assert seen == [3]
        assert [not t.warnings for t in traces] == [True, False, True, True]

    def test_symmetry_matches_allclose_on_every_pair(self):
        channels = POOLS[2]["cpt"] + POOLS[2]["non_covariant"]
        spec = SPECS["ghz", "probabilistic"]
        pairs = [(a, b) for a in channels for b in channels]
        assert [symmetric(spec, pair, 2) for pair in pairs] == list(map(same_channels, pairs))

    def test_one_comparison_per_distinct_channel_tuple(self, monkeypatch):
        compared = []
        allclose = np.allclose
        monkeypatch.setattr(np, "allclose", lambda *a, **k: compared.append(1) or allclose(*a, **k))
        a, b, c = depolarizing(2, 0.2), depolarizing(2, 0.2), amplitude_damping(2, 0.2)
        batch = [(a, b), (a, c), (a, b), (c, c), (a, c), (b, a)]
        t4, index, _ = _admit(SPECS["ghz", "probabilistic"], batch, 2)
        assert _same(t4, index).tolist() == [True, False, True, True, False, True]
        assert len(compared) == 3  # (a, b), (a, c) and (b, a); (c, c) is one object

    def test_symmetry_compares_no_tensors_when_one_object_fills_every_role(self, monkeypatch):
        ch = depolarizing(2, 0.4)
        monkeypatch.setattr(np, "allclose", lambda *args, **kwargs: pytest.fail("compared"))
        assert symmetric(SPECS["ghz", "probabilistic"], (ch, ch), 2)


def random_transfer_tensors(rng, d, count):
    """Transfer tensors of CPT, CP but not trace-preserving, not CP, and not
    Hermiticity-preserving maps, in turn."""
    out = []
    for n in range(count):
        kind = n % 4
        ops = stinespring_kraus(int(rng.integers(1 << 30)), d, count=int(rng.integers(1, 4)))
        if kind == 1:
            ops = [a * rng.uniform(0.5, 1.5) for a in ops]
        t4 = KrausChannel(tuple(ops)).transfer_tensor().copy()
        if kind == 2:
            # minus a multiple of a Hermitian-preserving map: Hermitian Choi, not PSD
            t4 -= rng.uniform(0.0, 2.0) * np.einsum("ik,jl->ijkl", np.eye(d), np.eye(d))
        if kind == 3:
            t4 += 1e-3 * (rng.standard_normal(t4.shape) + 1j * rng.standard_normal(t4.shape))
        out.append(t4)
    return np.stack(out)


def same_bits(a, b):
    return type(a) is type(b) and (a == b or (a != a and b != b))


class TestCptReports:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_field_matches_the_one_channel_formula(self, d):
        t4 = random_transfer_tensors(np.random.default_rng(d), d, 128)
        reports = _cpt_reports(t4)
        assert len(reports) == len(t4)
        verdicts = set()
        for report, row in zip(reports, t4):
            fields = astuple(report)
            expected = cpt_report_fields(row)
            assert all(map(same_bits, fields, expected)), (fields, expected)
            verdicts.add((report.is_cpt, np.isnan(report.min_choi_eigenvalue)))
        assert verdicts == {(True, False), (False, False), (False, True)}
        assert _covariant(t4).tolist() == [phase_covariant(row) for row in t4]

    def test_bad_rows_fail_with_nan_and_never_reach_lapack(self, monkeypatch):
        d = 3
        good = [ch.transfer_tensor() for ch in (depolarizing(d, 0.2), amplitude_damping(d, 0.5))]
        nan_row, inf_row = good[0].copy(), good[1].copy()
        nan_row[0, 0, 1, 1] = np.nan  # both on a Choi sector: covariant, so both rows
        inf_row[1, 1, 0, 0] = np.inf  # reach the sector route
        skew = good[0] + 1e-3j * np.einsum("ik,jl->ijkl", np.eye(d), np.eye(d))
        stack = np.stack([nan_row, good[0], skew, inf_row, good[1]])
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(h):
            seen.append(h.copy())
            return eigvalsh(h)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        # the two good rows, as two Choi matrices, then as their 2 x d sectors
        for covariant, shape in ((None, (2, d * d, d * d)), (_covariant(stack), (2, d, d, d))):
            seen.clear()
            with np.errstate(invalid="ignore"):
                reports = _cpt_reports(stack, covariant=covariant)
            assert [r.is_cpt for r in reports] == [False, True, False, False, True]
            failed = [np.isnan(r.min_choi_eigenvalue) for r in reports]
            assert failed == [True, False, True, True, False]
            assert reports[2].choi_hermiticity_error > 1e-9
            assert len(seen) == 1 and seen[0].shape == shape
            assert np.isfinite(seen[0]).all()


def covariant_rows(d, rng):
    """Phase-covariant transfer tensors at ``d``: depolarizing and amplitude
    damping on their grids, Weyl-diagonal, Z_d-twirled random Kraus channels,
    and covariant maps that are not CP, not trace-preserving or neither."""
    chs = [depolarizing(d, p) for p in (0.0, 0.3, 1.0)]
    chs += [amplitude_damping(d, g) for g in (0.0, 0.4, 1.0)]
    chs += [KrausChannel(tuple(weyl_diagonal_kraus(rng.dirichlet(np.ones(d * d)).reshape(d, d))))]
    chs += [KrausChannel(tuple(z_twirl(stinespring_kraus(int(rng.integers(1 << 30)), d), d)))]
    rows = [ch.transfer_tensor() for ch in chs]
    ident = np.einsum("ik,jl->ijkl", np.eye(d), np.eye(d))
    rows += [rows[-1] - rng.uniform(0.1, 2.0) * ident, 1.5 * rows[1], rows[4] - 0.5 * ident]
    return np.stack(rows)


def assert_sector_reports_match_dense(t4):
    covariant = _covariant(t4)
    assert covariant.all()
    for report, row in zip(_cpt_reports(t4, covariant=covariant), t4):
        ok, min_eig, tp_err, _ = cpt_report_fields(row)
        assert report.is_cpt == ok
        assert same_bits(report.trace_preservation_error, tp_err)
        assert abs(report.min_choi_eigenvalue - min_eig) <= 1e-12, (report, min_eig)


class TestSectorRoute:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_fields_match_the_dense_formula(self, d):
        t4 = covariant_rows(d, np.random.default_rng(d))
        assert_sector_reports_match_dense(t4)
        assert {r.is_cpt for r in _cpt_reports(t4)} == {True, False}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 12), st.integers(1, 3), st.integers(0, 1 << 30))
    def test_twirled_channels_match_the_dense_formula(self, d, count, seed):
        ch = KrausChannel(tuple(z_twirl(stinespring_kraus(seed, d, count=count), d)))
        assert_sector_reports_match_dense(ch.transfer_tensor()[None])

    def test_admission_at_d6_solves_only_sectors(self, monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: seen.append(h.shape) or eigvalsh(h))
        batch = [(depolarizing(6, p),) for p in np.linspace(0.0, 1.0, 21)]
        assert not _admit(SPECS["qudit", "probabilistic"], batch, 6)[2].any()
        assert seen and all(shape[-2:] == (6, 6) for shape in seen)

    def test_refusals_keep_the_dense_report(self):
        t4 = covariant_rows(4, np.random.default_rng(4))
        sectors, dense = _cpt_reports(t4, covariant=_covariant(t4)), _cpt_reports(t4)
        refused = [(a, b) for a, b in zip(sectors, dense) if not b.is_cpt]
        assert refused and all(all(map(same_bits, astuple(a), astuple(b))) for a, b in refused)


def covariance_cases(d, rng):
    """Transfer tensors at ``d`` against the covariance test, with its verdict:
    a covariant channel, off-sector entries below and above ``_COVARIANCE_ATOL``,
    a NaN on a sector and one off them, a random tensor and its sector part."""
    off = off_phase_mask(d)
    base = depolarizing(d, 0.3).transfer_tensor()
    noise = np.where(off, rng.standard_normal(off.shape) + 1j * rng.standard_normal(off.shape), 0)
    nan_on, nan_off = base.copy(), base.copy()
    nan_on[0, 0, 1, 1] = nan_off[0, 1, 0, 0] = np.nan  # i - j = k - l, and i - j != k - l
    random = rng.standard_normal(off.shape) + 1j * rng.standard_normal(off.shape)
    cases = [
        (base, True), (base + 1e-11 * noise, True), (base + 1e-9 * noise, False),
        (nan_on, True), (nan_off, False), (random, False), (np.where(off, 0, random), True),
    ]
    return np.stack([t4 for t4, _ in cases]), [verdict for _, verdict in cases]


class TestCovarianceIndex:
    """``_covariant`` and the off-sector zeroing, which read the Choi sector
    index, against the mask of i - j != k - l (mod d) in explicit_forms."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 16, 24])
    def test_covariant_and_zeroing_match_the_mask(self, d):
        t4, verdicts = covariance_cases(d, np.random.default_rng(d))
        assert _covariant(t4).tolist() == [phase_covariant(row) for row in t4] == verdicts
        off = off_phase_mask(d)
        assert _off_sectors(t4).tobytes() == np.where(off, t4, 0).tobytes()
        finite = t4[np.isfinite(t4).all(axis=(1, 2, 3, 4))]
        assert (finite - _off_sectors(finite)).tobytes() == np.where(off, 0, finite).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 6, 24])
    def test_an_empty_stack_has_no_verdicts(self, d):
        empty = np.zeros((0,) + (d,) * 4, dtype=complex)
        assert _covariant(empty).shape == (0,) and _off_sectors(empty).shape == empty.shape
        assert _cpt_reports(empty, covariant=_covariant(empty)) == []
        # no channel fits the register: admission checks an empty stack, then refuses
        with pytest.raises(ValueError, match=f"has dimension {d + 1}; the register needs {d}"):
            _admit(SPECS["qudit", "probabilistic"], [(depolarizing(d + 1, 0.1),)], d)

    @pytest.mark.parametrize("d", [3, 4, 6, 16, 24])
    def test_the_driver_zeroes_an_admitted_tensor_off_the_sectors(self, d):
        """Off-sector entries within ``_COVARIANCE_ATOL`` pass admission; ``_evolve``
        zeroes them in place, so its states are those of the tensor without them."""
        rng = np.random.default_rng(d)
        off, (i, j) = off_phase_mask(d), np.indices((d, d, 1, 1), sparse=True)[:2]
        base = depolarizing(d, 0.3).transfer_tensor()[None]
        # entries with i != j move no trace, so every stack stays unit-trace
        noise = rng.standard_normal(off.shape) + 1j * rng.standard_normal(off.shape)
        t4 = base + 1e-11 * np.where(off & (i != j), noise, 0)
        assert _covariant(t4).all() and not np.array_equal(t4, base)
        spec, index, dims = SPECS["qudit", "probabilistic"], np.zeros((1, 1), dtype=int), (d,) * 3
        evolved, expected = _evolve(spec, t4, index, dims), _evolve(spec, base.copy(), index, dims)
        assert t4.tobytes() == base.tobytes()
        for (_, got), (_, want) in zip(evolved, expected):
            assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
            assert got.values.tobytes() == want.values.tobytes()
