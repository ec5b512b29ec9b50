import ast
import csv
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import edss.checks
import edss.reference
from edss import SweepError, SweepSpec, closed_form, run_sweep
from edss.checks import GRID_POINTS, QUDIT_DIMS, SUITES, CheckResult, closed_form_suite
from edss.checks import identity_suite, run_checks
from edss import cli
from edss.cli import build_parser, load_config, main
from edss import protocols
from edss.protocols import SPECS, _drive, critical_noise, qudit_average_only
from edss.reference import CLOSED_FORM_ATOL, Formula
from edss.svgchart import polyline_points, render_line_chart
from edss.sweep import (
    MAX_DIM_CEILING,
    MAX_POINTS,
    format_float,
    row_deviations,
    sweep_table,
)

from explicit_forms import sweep_columns, table_rows, x_to_px, y_to_px


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

    def test_a_string_of_checks_is_refused(self, tmp_path):
        # not split into its characters and reported as unknown checks
        spec = small_spec(tmp_path, checks="identity")
        message = "checks must be a collection of check names, got 'identity'"
        for call in (spec.validate, lambda: run_sweep(spec)):
            with pytest.raises(SweepError, match=message):
                call()
        assert not spec.csv_path.exists()

    def test_qudit_dimension_cap(self, tmp_path):
        with pytest.raises(SweepError):
            small_spec(tmp_path, protocol="qudit", d=MAX_DIM_CEILING + 1).validate()
        for d in (MAX_DIM_CEILING - 1, MAX_DIM_CEILING):
            spec = small_spec(tmp_path, protocol="qudit", d=d)
            assert spec.validate() is spec

    def test_non_integer_dimension_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"dimension d must be an integer, got 2\.5"):
            small_spec(tmp_path, protocol="qudit", d=2.5).validate()

    @pytest.mark.parametrize("points", [2.5, 21.0, True, "5", None])
    def test_non_integer_point_count_rejected(self, tmp_path, points):
        message = re.escape(f"points must be an integer, got {points!r}")
        with pytest.raises(SweepError, match=message):
            small_spec(tmp_path, points=points).validate()

    def test_numpy_integer_point_count_accepted(self, tmp_path):
        spec = small_spec(tmp_path, points=np.int64(3))
        assert spec.validate() is spec and len(spec.grid()) == 3

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

    def test_qudit_root_search_takes_two_driver_passes(self, tmp_path, monkeypatch):
        sizes = []

        def counting(spec, batch, *args):
            sizes.append(len(batch))
            return _drive(spec, batch, *args)

        monkeypatch.setattr(protocols, "_drive", counting)
        run_sweep(small_spec(tmp_path, protocol="qudit", d=3, points=5))
        # the grid, then the root search's second round: the grid holds the first's probes
        assert sizes == [5, 2]

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
        results = closed_form_suite()
        by_name = {r.name: r for r in results}
        bad = by_name["two_qubit_depolarizing_average_negativity"]
        assert not bad.passed
        assert bad.max_deviation > 1e-3
        assert by_name["two_qubit_depolarizing_success_probability"].passed

    def test_every_suite_row_passes(self):
        results = run_checks("all")
        assert len(results) == 71
        for res in results:
            assert res.passed, (res.name, res.max_deviation)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_checks("everything")

    def test_misspelled_suite_keyword_rejected(self):
        with pytest.raises(ValueError, match="separabilty"):
            run_checks("separability", separabilty={})

    @pytest.mark.parametrize(
        "suite, kwargs, message",
        [
            ("identity", {"identity": 5}, "identity= takes a mapping of identity suite keywords"),
            ("all", {"closed_form": None}, "closed_form= takes a mapping of closed_form suite"),
            ("separability", {"identity": {"seed": 3}}, r"\['identity'\] name no suite this call"),
            ("closed_form", {"identity": {}, "separability": {}}, r"\['identity', 'separa"),
        ],
        ids=["not-a-mapping", "none-in-all", "a-suite-not-run", "two-suites-not-run"],
    )
    def test_suite_keywords_are_refused_before_any_suite_runs(
        self, monkeypatch, suite, kwargs, message
    ):
        for name in SUITES:
            monkeypatch.setitem(SUITES, name, lambda **_: pytest.fail("a suite ran"))
        with pytest.raises(ValueError, match=message):
            run_checks(suite, **kwargs)

    def test_suite_keywords_reach_their_suite(self, monkeypatch):
        # the benchmark's call: a seed for the identity suite of an "all" run
        calls = []

        def recorder(name):
            return lambda **kwargs: calls.append((name, kwargs)) or []

        for name in SUITES:
            monkeypatch.setitem(SUITES, name, recorder(name))
        assert run_checks("all", identity={"seed": 3}) == []
        assert calls == [
            ("identity", {"seed": 3, "grids": {}}),
            ("separability", {"grids": {}}),
            ("closed_form", {"grids": {}}),
        ]

    def test_grid_rows_are_worst_sweep_row_deviations(self, tmp_path):
        spec = small_spec(tmp_path, protocol="qudit", d=2, points=GRID_POINTS).validate()
        rows = table_rows(sweep_table(spec))
        by_name = {r.name: r for r in identity_suite()}
        worst = max(row_deviations(spec, row)["identity"] for row in rows)
        assert by_name["identity_qudit_depolarizing_d2"].max_deviation == worst

    @staticmethod
    def count_sweeps(monkeypatch):
        calls = []

        def counting(spec, *args):
            calls.append(spec)
            return sweep_table(spec, *args)

        monkeypatch.setattr(edss.checks, "sweep_table", counting)
        return calls

    def test_all_sweeps_each_grid_once(self, monkeypatch):
        # every suite checks GRID_POINTS-point grids: identity and separability the same
        # 8 (protocol, kind, d) grids, which closed_form's 16 include
        calls = self.count_sweeps(monkeypatch)
        run_checks("all")
        assert len(calls) == 16
        assert len({(s.protocol, s.mode, s.channel, s.d, s.points) for s in calls}) == 16
        assert {s.points for s in calls} == {GRID_POINTS}
        calls.clear()  # a later call shares nothing with this one
        run_checks("separability")
        assert len(calls) == 8

    @pytest.mark.parametrize("suite", ["identity", "separability"])
    def test_a_short_suite_alone_runs_the_d2_and_d3_root_searches(self, monkeypatch, suite):
        # its qudit depolarizing grids are sweep tables, and each table runs its search:
        # the grid holds the first round, so each search drives one 2-point pass
        sizes = []

        def counting(spec, batch, *args):
            sizes.append((spec.protocol, len(batch)))
            return _drive(spec, batch, *args)

        monkeypatch.setattr(protocols, "_drive", counting)
        run_checks(suite)
        assert [size for size in sizes if size[1] == 2] == [("qudit", 2)] * 2

    @pytest.mark.parametrize("d", QUDIT_DIMS)
    def test_a_critical_row_is_the_scalar_root_against_its_closed_form(self, d):
        # the scalar search drives one probe a call; the row reads the table's column
        row = {r.name: r for r in closed_form_suite()}[f"qudit_depolarizing_critical_noise_d{d}"]
        found = critical_noise(lambda x: qudit_average_only(d, "depolarizing", x))
        want = abs(found - closed_form("qudit_depolarizing_critical_noise", d=d))
        assert row.max_deviation.hex() == want.hex()
        assert row.passed and row.threshold == CLOSED_FORM_ATOL

    def test_only_the_sweep_table_and_critical_noise_call_the_root_search(self):
        callers = set()
        for path in Path(edss.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.FunctionDef):
                    calls = {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call)
                             and isinstance(n.func, ast.Name)}
                    if "_critical_noise" in calls:
                        callers.add((path.name, node.name))
        assert callers == {("sweep.py", "sweep_table"), ("protocols.py", "critical_noise")}

    def test_all_takes_23_driver_passes(self, monkeypatch):
        # 16 grids, the two random-channel chunk loops and 5 root searches of 2 rounds,
        # the first of which the closed-form grid answers
        passes = []

        def counting(*args):
            passes.append(args)
            return _drive(*args)

        monkeypatch.setattr(protocols, "_drive", counting)
        run_checks("all")
        assert len(passes) == 23

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
        written = run_sweep(spec).table
        table = sweep_table(spec.validate())
        assert list(table) == list(written) == sweep_columns(spec)
        assert table_rows(table) == table_rows(written)

    def test_deviation_of_every_check(self, tmp_path):
        spec = small_spec(tmp_path, protocol="ghz", points=2).validate()
        row = table_rows(sweep_table(spec))[1]
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
            sweep_table(spec)


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

    def test_d_follows_the_library_dimension_rule(self, tmp_path, capsys):
        def sweep(name, *extra, config=""):
            path = tmp_path / f"{name}.cfg"
            path.write_text(config, encoding="utf-8")
            argv = ["sweep", "--config", str(path), "--protocol", "qudit"]
            argv += ["--channel", "depolarizing", "--param", "p", "--points", "3", *extra]
            return main(argv + ["--csv", str(tmp_path / f"{name}.csv")])

        assert sweep("int", "--d", "3") == 0
        assert sweep("flag", "--d", "3.0") == 0
        assert sweep("config", config="d = 3.0\n") == 0
        want = (tmp_path / "int.csv").read_bytes()
        assert (tmp_path / "flag.csv").read_bytes() == want
        assert (tmp_path / "config.csv").read_bytes() == want
        capsys.readouterr()
        assert sweep("fraction", "--d", "2.5") == 2
        assert "dimension d must be an integer, got 2.5" in capsys.readouterr().err
        assert sweep("points", "--d", "3", "--points", "3.0") == 2
        assert "argument --points: invalid int value: '3.0'" in capsys.readouterr().err
        assert not (tmp_path / "fraction.csv").exists() and not (tmp_path / "points.csv").exists()

    def test_one_parser_per_process_and_bad_usage_leaves_it_fresh(
        self, tmp_path, capsys, monkeypatch
    ):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        calls = [
            ["sweep", "--points", "many"],  # bad usage: argparse exits 2
            ["describe", "ghz"],
            ["bogus"],
            ["sweep", "--protocol", "qudit", "--channel", "depolarizing", "--param", "p",
             "--d", "3", "--points", "3", "--csv", str(tmp_path / "q.csv")],
            ["describe", "two_qubit"],
        ]

        def run(fresh):
            outputs = []
            for argv in calls:
                if fresh:
                    cli._parser.cache_clear()
                outputs.append((main(list(argv)), *capsys.readouterr()))
            return outputs

        fresh = run(fresh=True)
        assert len(built) == len(calls)
        built.clear()
        cli._parser.cache_clear()
        assert run(fresh=False) == fresh  # each call as if it were the first
        assert len(built) == 1
        assert [code for code, _, _ in fresh] == [2, 0, 2, 0, 0]
        assert build_parser() is not build_parser()

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


class TestPolylinePoints:
    @pytest.mark.parametrize(
        "x_range,y_range",
        [((0.0, 1.0), (-0.05, 1.05)), ((0.25, 0.25), (0.0, 0.8)), ((0.0, 0.5), (0.3, 0.3)),
         ((2.0, 2.0), (-1.0, -1.0)), ((-3.0, 7.5), (1e-9, 2e-9))],
    )
    def test_matches_the_per_point_transforms(self, x_range, y_range):
        rng = np.random.default_rng(5)
        xs, ys = rng.uniform(-4, 8, 301).tolist(), rng.uniform(-1, 2, 301).tolist()
        xs[:3], ys[:3] = [*x_range, 0.0], [*y_range, -0.0]
        want = " ".join(
            f"{x_to_px(x, *x_range):.3f},{y_to_px(y, *y_range):.3f}" for x, y in zip(xs, ys)
        )
        assert polyline_points(xs, ys, x_range, y_range) == want
