import csv
from dataclasses import replace

import numpy as np
import pytest

import edss.checks
import edss.reference
from edss import SweepError, SweepSpec, closed_form, run_sweep
from edss.checks import SUITES, CheckResult, closed_form_suite, identity_suite, run_checks
from edss.cli import load_config, main
from edss import protocols
from edss.protocols import SPECS
from edss.reference import Formula
from edss.svgchart import render_line_chart
from edss.sweep import (
    MAX_DIM_CEILING,
    MAX_POINTS,
    format_float,
    row_deviations,
    sweep_columns,
    sweep_rows,
)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def small_spec(tmp_path, **overrides):
    base = dict(
        protocol="two_qubit",
        channel="depolarizing",
        param="p",
        csv_path=tmp_path / "out.csv",
        points=5,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_unknown_protocol(self, tmp_path):
        with pytest.raises(SweepError):
            small_spec(tmp_path, protocol="teleportation").validate()

    def test_deterministic_only_for_two_qubit(self, tmp_path):
        with pytest.raises(SweepError):
            small_spec(tmp_path, protocol="ghz", mode="deterministic").validate()

    def test_param_channel_mismatch(self, tmp_path):
        with pytest.raises(SweepError):
            small_spec(tmp_path, param="gamma").validate()
        with pytest.raises(SweepError):
            small_spec(tmp_path, channel="canonical", param="p").validate()

    def test_grid_bounds(self, tmp_path):
        with pytest.raises(SweepError):
            small_spec(tmp_path, start=0.5, stop=0.2).validate()
        with pytest.raises(SweepError):
            small_spec(tmp_path, points=1).validate()
        with pytest.raises(SweepError):
            small_spec(tmp_path, stop=1.4).validate()

    def test_closed_form_check_needs_formula_backed_channel(self, tmp_path):
        spec = small_spec(
            tmp_path, channel="canonical", param="lambda3", checks=frozenset({"closed_form"})
        )
        with pytest.raises(SweepError):
            spec.validate()

    def test_qudit_dimension_cap(self, tmp_path):
        with pytest.raises(SweepError):
            small_spec(tmp_path, protocol="qudit", d=11).validate()
        for d in (9, 10):
            spec = small_spec(tmp_path, protocol="qudit", d=d)
            assert spec.validate() is spec

    def test_non_integer_dimension_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"dimension d must be an integer, got 2\.5"):
            small_spec(tmp_path, protocol="qudit", d=2.5).validate()

    def test_non_cpt_grid_point_rejected(self, tmp_path):
        spec = small_spec(
            tmp_path,
            channel="canonical",
            param="lambda3",
            channel_args={"lambda1": 1.0, "lambda2": 1.0, "t3": 0.5},
        )
        with pytest.raises(SweepError) as excinfo:
            run_sweep(spec)
        assert str(excinfo.value).startswith("lambda3=0: communication channel is not a CPT map")
        assert not spec.csv_path.exists()


class TestSweepOutput:
    def test_csv_schema_and_values(self, tmp_path):
        result = run_sweep(small_spec(tmp_path, points=21))
        header, rows = read_csv(result.csv_path)
        assert header == sweep_columns(result.spec)
        assert header[0] == "p"
        assert len(rows) == 21
        for row in rows:
            record = dict(zip(header, (float(v) for v in row)))
            expected = closed_form(
                "two_qubit_depolarizing_average_negativity", p=record["p"]
            )
            assert abs(record["average_negativity"] - expected) < 1e-9
            assert record["ref_average_negativity"] == pytest.approx(expected, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        spec_a = small_spec(tmp_path, csv_path=tmp_path / "a.csv", points=7)
        spec_b = small_spec(tmp_path, csv_path=tmp_path / "b.csv", points=7)
        run_sweep(spec_a)
        run_sweep(spec_b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_deterministic_mode_columns(self, tmp_path):
        result = run_sweep(small_spec(tmp_path, mode="deterministic", points=5))
        header, rows = read_csv(result.csv_path)
        assert "deterministic_negativity" in header
        assert "success_probability" not in header
        record = dict(zip(header, (float(v) for v in rows[0])))
        assert record["deterministic_negativity"] == pytest.approx(
            closed_form("two_qubit_depolarizing_deterministic_negativity", p=0.0),
            abs=1e-9,
        )

    def test_ghz_sweep(self, tmp_path):
        spec = small_spec(
            tmp_path,
            protocol="ghz",
            channel="amplitude_damping",
            param="gamma",
            points=5,
            checks=frozenset({"identity", "separability", "closed_form"}),
        )
        result = run_sweep(spec)
        assert result.checks_passed
        header, rows = read_csv(result.csv_path)
        record = dict(zip(header, (float(v) for v in rows[2])))
        assert record["gamma"] == 0.5
        assert record["average_b_ac"] == pytest.approx(
            closed_form("ghz_amplitude_damping_average_b_ac", gamma=0.5), abs=1e-9
        )

    def test_qudit_sweep_has_critical_column(self, tmp_path):
        spec = small_spec(tmp_path, protocol="qudit", d=3, points=5)
        result = run_sweep(spec)
        header, rows = read_csv(result.csv_path)
        assert "critical_noise" in header
        for row in rows:
            record = dict(zip(header, (float(v) for v in row)))
            assert record["critical_noise"] == pytest.approx(0.75, abs=1e-9)
            assert record["ref_critical_noise"] == 0.75

    def test_critical_noise_above_the_default_dimension_cap(self, tmp_path):
        """The root search of a d=7 sweep runs under the one dimension
        ceiling that the sweep itself is held to."""
        spec = small_spec(tmp_path, protocol="qudit", d=7, points=2)
        header, rows = read_csv(run_sweep(spec).csv_path)
        for row in rows:
            record = dict(zip(header, (float(v) for v in row)))
            assert record["critical_noise"] == pytest.approx(7 / 8, abs=1e-9)

    def test_svg_polylines_reproducible_from_csv(self, tmp_path):
        spec = small_spec(tmp_path, svg_path=tmp_path / "chart.svg", points=9)
        result = run_sweep(spec)
        header, rows = read_csv(result.csv_path)
        xs = [float(r[0]) for r in rows]
        series = [
            (col, [float(r[i]) for r in rows]) for i, col in enumerate(header) if i > 0
        ]
        regenerated = render_line_chart(
            xs, series, "two_qubit / depolarizing (probabilistic)", x_label="p"
        )
        assert regenerated == (tmp_path / "chart.svg").read_text(encoding="utf-8")
        assert regenerated.count("<polyline") == len(header) - 1
        for _, ys in series:
            assert len(ys) == 9

    def test_check_failure_reported(self, tmp_path, monkeypatch):
        wrong = Formula(
            "two_qubit_depolarizing_average_negativity",
            ("p",),
            "wrong constant",
            lambda p: (2.0 - 3.0 * p) / 5.0 if p <= 2 / 3 else 0.0,
        )
        monkeypatch.setitem(
            edss.reference.FORMULAS, "two_qubit_depolarizing_average_negativity", wrong
        )
        result = run_sweep(small_spec(tmp_path, checks=frozenset({"closed_form"})))
        assert not result.checks_passed
        assert any("average_negativity" in f for f in result.check_failures)


class TestFloatFormat:
    def test_short_and_stable(self):
        assert format_float(0.05) == "0.05"
        assert format_float(0.0) == "0"
        assert format_float(-0.0) == "0"
        assert format_float(1 / 3) == "0.333333333333"

    def test_round_trip_within_12_digits(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            x = float(rng.uniform(-1, 1))
            assert abs(float(format_float(x)) - x) < 1e-12


class TestChecksSuites:
    def test_closed_form_negative_control(self, monkeypatch):
        fid = "two_qubit_depolarizing_average_negativity"
        wrong = Formula(
            fid, ("p",), "wrong constant", lambda p: (2.0 - 3.0 * p) / 7.0 if p <= 2 / 3 else 0.0
        )
        monkeypatch.setitem(edss.reference.FORMULAS, fid, wrong)
        results = closed_form_suite(grid_points=5, qudit_dims=(2,))
        by_name = {r.name: r for r in results}
        bad = by_name["two_qubit_depolarizing_average_negativity"]
        assert not bad.passed
        assert bad.max_deviation > 1e-3
        assert by_name["two_qubit_depolarizing_success_probability"].passed

    def test_small_suites_pass(self):
        results = run_checks(
            "identity",
            identity={"random_channels": 5, "grid_points": 3, "qudit_dims": (2,)},
        )
        results += run_checks(
            "separability", separability={"grid_points": 3, "qudit_dims": (2,)}
        )
        results += run_checks(
            "closed_form", closed_form={"grid_points": 5, "qudit_dims": (2, 3)}
        )
        assert results
        for res in results:
            assert res.passed, (res.name, res.max_deviation)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_checks("everything")

    @pytest.mark.parametrize("points", [0, 1, -3, MAX_POINTS + 1])
    def test_bad_grid_refused_before_any_run(self, monkeypatch, points):
        def no_run(*args):
            raise AssertionError("a check grid ran before validation")

        monkeypatch.setattr(protocols, "_drive", no_run)
        with pytest.raises(SweepError, match=rf"points must be in \[2, {MAX_POINTS}\]"):
            run_checks("separability", separability={"grid_points": points})

    def test_misspelled_suite_keyword_rejected(self):
        with pytest.raises(ValueError, match="separabilty"):
            run_checks("separability", separabilty={"grid_points": 2})

    def test_grid_rows_are_worst_sweep_row_deviations(self, tmp_path):
        spec = small_spec(tmp_path, protocol="qudit", d=2, points=3).validate()
        rows = sweep_rows(spec)
        by_name = {r.name: r for r in identity_suite(random_channels=0, grid_points=3)}
        worst = max(row_deviations(spec, row)["identity"] for row in rows)
        assert by_name["identity_qudit_depolarizing_d2"].max_deviation == worst

    @staticmethod
    def count_sweeps(monkeypatch):
        calls = []

        def counting(spec, *args):
            calls.append(spec)
            return sweep_rows(spec, *args)

        monkeypatch.setattr(edss.checks, "sweep_rows", counting)
        return calls

    def test_all_sweeps_each_grid_once(self, monkeypatch):
        # identity and separability check the same 8 (protocol, kind, d) grids
        # at 11 points; closed_form adds 16 grids at 21 points
        calls = self.count_sweeps(monkeypatch)
        run_checks("all")
        assert len(calls) == 24
        assert len({(s.protocol, s.mode, s.channel, s.d, s.points) for s in calls}) == 24
        calls.clear()  # a later call shares nothing with this one
        run_checks("separability")
        assert len(calls) == 8

    def test_all_rows_are_the_suites_run_alone(self):
        alone = [row for name in SUITES for row in run_checks(name)]
        together = run_checks("all")
        assert [r.name for r in together] == [r.name for r in alone]
        for got, want in zip(together, alone):
            assert got.max_deviation.hex() == want.max_deviation.hex(), got.name
            assert (got.threshold, got.passed) == (want.threshold, want.passed)


class TestSweepRows:
    def test_rows_are_the_rows_run_sweep_writes(self, tmp_path):
        spec = small_spec(tmp_path, protocol="qudit", d=3, points=4)
        written = run_sweep(spec).rows
        rows = sweep_rows(spec.validate())
        assert all("critical_noise" not in row for row in rows)
        crit = written[0]["critical_noise"]
        assert [{**row, "critical_noise": crit} for row in rows] == written

    def test_deviation_of_every_check(self, tmp_path):
        spec = small_spec(tmp_path, protocol="ghz", points=2).validate()
        row = sweep_rows(spec)[1]
        devs = row_deviations(spec, row)
        assert devs["identity"] == row["chain_max_deviation"]
        assert devs["separability"] == row["exchange_negativity_max"]
        ref = row["ref_negativity_b_ac"]
        assert devs["ghz_depolarizing_negativity_b_ac"] == max(
            abs(row["negativity_b_ac"] - ref), abs(row["negativity_c_ab"] - ref)
        )
        fids = SPECS["ghz", "probabilistic"].formulas("depolarizing")
        assert set(devs) == {"identity", "separability", *fids}

    def test_qubit_protocol_refuses_a_qudit_dimension(self):
        spec = SweepSpec("ghz", "depolarizing", "p", "", d=3, points=2)
        with pytest.raises(SweepError, match="works with qubits"):
            sweep_rows(spec)

    def test_critical_noise_deviation_once_the_row_has_it(self, tmp_path):
        spec = small_spec(tmp_path, protocol="qudit", d=3, points=2).validate()
        row = sweep_rows(spec)[0]
        assert "qudit_depolarizing_critical_noise" not in row_deviations(spec, row)
        devs = row_deviations(spec, {**row, "critical_noise": 0.5})
        assert devs["qudit_depolarizing_critical_noise"] == pytest.approx(0.25)


class TestCli:
    def test_sweep_roundtrip(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--protocol",
                "two_qubit",
                "--channel",
                "depolarizing",
                "--param",
                "p",
                "--from",
                "0",
                "--to",
                "1",
                "--points",
                "5",
                "--csv",
                str(csv_path),
                "--check",
                "identity,separability,closed_form",
            ]
        )
        assert code == 0
        assert csv_path.exists()
        assert "PASS" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "# two-qubit depolarizing sweep\n"
            "protocol = two_qubit\n"
            "channel = depolarizing\n"
            "param = p\n"
            "points = 5\n"
            f"csv = {tmp_path / 'cfg.csv'}\n",
            encoding="utf-8",
        )
        code = main(["sweep", "--config", str(config), "--points", "3"])
        assert code == 0
        _, rows = read_csv(tmp_path / "cfg.csv")
        assert len(rows) == 3

    def test_config_rejects_unknown_key(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("protocl = two_qubit\n", encoding="utf-8")
        assert main(["sweep", "--config", str(config)]) == 2

    def test_invalid_input_exit_code(self, tmp_path):
        code = main(
            [
                "sweep",
                "--protocol",
                "two_qubit",
                "--channel",
                "depolarizing",
                "--param",
                "gamma",
                "--csv",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    def test_io_error_exit_code(self, tmp_path):
        code = main(
            [
                "sweep",
                "--protocol",
                "two_qubit",
                "--channel",
                "depolarizing",
                "--param",
                "p",
                "--points",
                "2",
                "--csv",
                str(tmp_path / "missing" / "deep" / "x.csv"),
            ]
        )
        assert code == 3

    def test_check_failure_exit_code(self, tmp_path, monkeypatch):
        wrong = Formula(
            "two_qubit_depolarizing_average_negativity",
            ("p",),
            "wrong constant",
            lambda p: 0.5,
        )
        monkeypatch.setitem(
            edss.reference.FORMULAS, "two_qubit_depolarizing_average_negativity", wrong
        )
        code = main(
            [
                "sweep",
                "--protocol",
                "two_qubit",
                "--channel",
                "depolarizing",
                "--param",
                "p",
                "--points",
                "3",
                "--csv",
                str(tmp_path / "x.csv"),
                "--check",
                "closed_form",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("column", ["negativity_c_ab", "average_c_ab"])
    def test_every_column_of_a_grouped_closed_form_is_checked(
        self, tmp_path, monkeypatch, capsys, column
    ):
        # Wire the second column of a grouped formula to the a|bc value.
        entry = SPECS["ghz", "probabilistic"]
        columns = dict(entry.columns)
        columns[column] = columns[column].replace("c|ab", "a|bc")
        monkeypatch.setitem(
            SPECS, ("ghz", "probabilistic"), replace(entry, columns=tuple(columns.items()))
        )
        argv = ["sweep", "--protocol", "ghz", "--channel", "depolarizing", "--param", "p"]
        argv += ["--points", "5", "--csv", str(tmp_path / "x.csv"), "--check", "closed_form"]
        assert main(argv) == 1
        fid = "ghz_depolarizing_" + column.replace("c_ab", "b_ac")
        assert f"{fid} deviates from closed form" in capsys.readouterr().err

    def test_check_command_uses_suite_results(self, monkeypatch, capsys):
        fake = [CheckResult("demo_check", 1e-12, 1e-9, True)]
        monkeypatch.setattr("edss.cli.run_checks", lambda suite: fake)
        assert main(["check", "identity"]) == 0
        out = capsys.readouterr().out
        assert "demo_check" in out and "PASS" in out

        fake_bad = [CheckResult("demo_check", 1e-3, 1e-9, False)]
        monkeypatch.setattr("edss.cli.run_checks", lambda suite: fake_bad)
        assert main(["check", "identity"]) == 1

    def test_describe_protocols(self, capsys):
        assert main(["describe", "two_qubit"]) == 0
        out = capsys.readouterr().out
        for step in ("I ", "II", "III", "IV", "V"):
            assert step in out
        assert "measure" in out

        assert main(["describe", "ghz"]) == 0
        out = capsys.readouterr().out
        assert "4 outcomes" in out

        assert main(["describe", "qudit"]) == 0
        out = capsys.readouterr().out
        assert "inverse" in out and "d outcomes" in out

    def test_describe_unknown_protocol(self):
        assert main(["describe", "router"]) == 2

    def test_bad_usage_exit_code(self, capsys):
        assert main(["sweep", "--protocol", "warp"]) == 2
        capsys.readouterr()

    def test_qudit_above_six_runs_without_a_flag(self, tmp_path, capsys):
        argv = ["sweep", "--protocol", "qudit", "--d", "7", "--channel", "depolarizing"]
        argv += ["--param", "p", "--points", "2", "--csv", str(tmp_path / "x.csv")]
        assert main(argv) == 0
        capsys.readouterr()

    def test_max_dim_is_an_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("protocol = qudit\nd = 7\nmax_dim = 8\n", encoding="utf-8")
        argv = ["sweep", "--config", str(config), "--channel", "depolarizing"]
        code = main(argv + ["--param", "p", "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unknown key 'max_dim'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestConfigParser:
    def test_values_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "protocol = qudit  # trailing comment\n"
            "\n"
            "d = 3\n"
            "param = p\n",
            encoding="utf-8",
        )
        values = load_config(path)
        assert values == {"protocol": "qudit", "d": "3", "param": "p"}

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("protocol two_qubit\n", encoding="utf-8")
        with pytest.raises(SweepError):
            load_config(path)


class TestInputGuards:
    def test_non_finite_canonical_parameter_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--protocol",
                "two_qubit",
                "--channel",
                "canonical",
                "--param",
                "lambda3",
                "--lambda1",
                "nan",
                "--points",
                "3",
                "--csv",
                str(tmp_path / "x.csv"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "lambda1" in err
        assert "converge" not in err and "LinAlgError" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_canonical_parameter_on_depolarizing_sweep_exits_2(self, tmp_path, capsys):
        argv = ["sweep", "--protocol", "two_qubit", "--channel", "depolarizing"]
        argv += ["--param", "p", "--lambda1", "0.3", "--points", "3"]
        code = main(argv + ["--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "lambda1" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_fixed_value_for_the_swept_parameter_exits_2(self, tmp_path, capsys):
        argv = ["sweep", "--protocol", "two_qubit", "--channel", "canonical"]
        argv += ["--param", "lambda3", "--lambda3", "0.3", "--lambda1", "0.4"]
        argv += ["--lambda2", "0.4", "--to", "0.5", "--points", "3"]
        code = main(argv + ["--csv", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "lambda3" in err and "0.3" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--protocol", "two_qubit", "--points", str(MAX_POINTS + 1)],
            ["--protocol", "two_qubit", "--points", "100000000"],
            ["--protocol", "qudit", "--d", str(MAX_DIM_CEILING + 1)],
            ["--protocol", "qudit", "--d", "1000"],
        ],
    )
    def test_resource_caps_exit_2_before_any_grid(self, tmp_path, monkeypatch, capsys, extra):
        def no_grid(spec):
            raise AssertionError("grid built before validation")

        monkeypatch.setattr(SweepSpec, "grid", no_grid)
        argv = ["sweep", "--channel", "depolarizing", "--param", "p"]
        code = main(argv + extra + ["--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_caps_are_inclusive(self, tmp_path):
        assert small_spec(tmp_path, points=MAX_POINTS).validate()
        for d in (MAX_DIM_CEILING - 1, MAX_DIM_CEILING):
            spec = small_spec(tmp_path, protocol="qudit", d=d)
            assert spec.validate() is spec
        with pytest.raises(SweepError):
            small_spec(tmp_path, protocol="qudit", d=MAX_DIM_CEILING + 1).validate()
