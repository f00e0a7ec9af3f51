"""CLI surface: schema validation, subcommands, determinism, goldens."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from wardgames import LinearBenefit, Scenario, ScenarioError, symmetric_scenario
from wardgames import cli
from wardgames.cli import (
    RunOptions,
    build_parser,
    load_scenario,
    load_scenario_document,
    main,
    parse_scenario_document,
    scenario_to_dict,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def write_scenario(tmp_path: Path, doc: dict) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def s0_doc() -> dict:
    return {
        "n_wards": 4,
        "wards": {"symmetric": {"cost_expose": 2.0, "cost_buffer": 1.0}},
        "benefit": {"kind": "linear", "beta_per_exposer": 0.3},
        "interventions": [],
    }


class TestParser:
    def test_analyze_args(self):
        args = build_parser().parse_args(["analyze", "s.json", "--out", "r.json"])
        assert args.command == "analyze"
        assert args.scenario == "s.json"
        assert args.out == "r.json"

    def test_dynamics_defaults(self):
        args = build_parser().parse_args(["dynamics", "s.json", "--initial", "EEBB"])
        assert args.schedule == "round_robin"
        assert args.tie_break == "stay"
        assert not args.replicator

    def test_sweep_args(self):
        args = build_parser().parse_args(
            ["sweep", "s.json", "--path", "interventions[0].penalty",
             "--lo", "0", "--hi", "5", "--critical", "--predicate", "all_buffer_not_nash"]
        )
        assert args.critical and args.predicate == "all_buffer_not_nash"

    def test_unknown_schedule_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["dynamics", "s.json", "--initial", "EEBB", "--schedule", "chaos"]
            )


class TestLoadScenario:
    def test_shipped_s0_loads(self):
        scenario = load_scenario(SCENARIOS / "s0_baseline.json")
        assert scenario.n == 4
        assert scenario.wards[0].cost_expose == 2.0
        assert scenario.interventions == ()

    def test_round_trip_equality(self):
        scenario, options = load_scenario_document(SCENARIOS / "s0_mechanism.json")
        doc = scenario_to_dict(scenario, options)
        again, _ = parse_scenario_document(doc)
        assert again == scenario

    def test_explicit_ward_list(self, tmp_path):
        doc = s0_doc()
        doc["wards"] = [
            {"cost_expose": 2.0, "cost_buffer": 1.0},
            {"cost_expose": 2.5, "cost_buffer": 0.5},
        ]
        doc["n_wards"] = 2
        doc["benefit"] = {"kind": "linear", "beta_per_exposer": 0.1}
        scenario = load_scenario(write_scenario(tmp_path, doc))
        assert scenario.wards[1].cost_expose == 2.5

    def test_empty_interventions_is_baseline(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, s0_doc()))
        assert scenario == symmetric_scenario(4, 2.0, 1.0, LinearBenefit(0.3))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = s0_doc()
        doc["extra"] = 1
        with pytest.raises(ScenarioError, match="extra"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_unknown_intervention_key_rejected(self, tmp_path):
        doc = s0_doc()
        doc["interventions"] = [{"kind": "effort", "delta_expose": 0.1, "oops": 2}]
        with pytest.raises(ScenarioError, match="oops"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_wrong_table_length_names_path(self, tmp_path, capsys):
        doc = s0_doc()
        doc["benefit"] = {"kind": "table", "values": [0.0, 1.0, 2.0]}
        path = write_scenario(tmp_path, doc)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "benefit.values" in err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2

    def test_options_block_parsed(self, tmp_path):
        doc = s0_doc()
        doc["options"] = {"epsilon": 1e-9, "dt": 0.02, "t_end": 10.0}
        _, options = load_scenario_document(write_scenario(tmp_path, doc))
        assert options == RunOptions(epsilon=1e-9, dt=0.02, t_end=10.0)

    def test_warnings_to_stderr_not_fatal(self, tmp_path, capsys):
        doc = s0_doc()
        doc["wards"] = {"symmetric": {"cost_expose": 0.5, "cost_buffer": 1.0}}
        path = write_scenario(tmp_path, doc)
        assert main(["analyze", str(path)]) == 0
        assert "asymmetry" in capsys.readouterr().err


class TestAnalyze:
    def test_stdout_contains_nash_and_gap(self, capsys):
        assert main(["analyze", str(SCENARIOS / "s0_baseline.json")]) == 0
        out = capsys.readouterr().out
        assert "BBBB" in out
        assert "welfare_gap 0.8" in out

    def test_json_report_written(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(
            ["analyze", str(SCENARIOS / "s0_baseline.json"), "--out", str(out_path)]
        ) == 0
        report = json.loads(out_path.read_text())
        assert report["schema_version"] == 1
        assert report["scenario"]["n_wards"] == 4
        assert report["equilibrium"]["nash_profiles"] == [
            {"profile": "BBBB", "strict": True}
        ]
        assert report["equilibrium"]["welfare_optimum"]["welfare"] == -3.2
        assert report["flip"]["blocking_wards"] == [0, 1, 2, 3]

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            main(["analyze", str(SCENARIOS / "v0_veto.json"), "--out", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEpsilon:
    @pytest.mark.parametrize("epsilon", [float("nan"), -1.0])
    def test_bad_options_epsilon_exits_2(self, epsilon, tmp_path, capsys):
        doc = s0_doc()
        doc["options"] = {"epsilon": epsilon}
        path = write_scenario(tmp_path, doc)
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert "options.epsilon" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "dynamics", "sweep"])
    @pytest.mark.parametrize("epsilon", ["nan", "-1"])
    def test_bad_epsilon_flag_exits_2(self, command, epsilon, capsys):
        extra = {
            "analyze": [],
            "dynamics": ["--initial", "EEEE"],
            "sweep": ["--path", "interventions[0].penalty", "--lo", "0", "--hi", "2"],
        }[command]
        argv = [command, str(SCENARIOS / "s0_observability.json"), *extra]
        assert main([*argv, f"--epsilon={epsilon}"]) == 2
        captured = capsys.readouterr()
        assert "--epsilon" in captured.err
        assert captured.out == ""


class TestIntegrationBounds:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("dt", float("nan")),
            ("dt", 0.0),
            ("dt", -0.01),
            ("t_end", float("nan")),
            ("t_end", -1.0),
            ("t_end", float("inf")),
        ],
    )
    def test_bad_options_step_exits_2(self, key, value, tmp_path, capsys):
        doc = s0_doc()
        doc["options"] = {key: value}
        path = write_scenario(tmp_path, doc)
        assert main(["dynamics", str(path), "--initial", "0.5", "--replicator"]) == 2
        captured = capsys.readouterr()
        assert f"options.{key}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--dt", "nan"], "--dt"),
            (["--dt", "0"], "--dt"),
            (["--t-end", "-1"], "--t-end"),
            (["--t-end", "inf"], "--t-end"),
            (["--dt", "1e-300", "--t-end", "1"], "--t-end / --dt"),
            (["--dt", "1e-7"], "options.t_end / --dt"),
        ],
    )
    def test_bad_step_flags_exit_2(self, flags, named, capsys):
        scenario = str(SCENARIOS / "v0_veto.json")
        argv = ["dynamics", scenario, "--initial", "0.5", "--replicator"]
        assert main([*argv, *flags]) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("steps", ["1", "100001", "100000000"])
    def test_sweep_steps_out_of_range_exit_2(self, steps, capsys):
        argv = ["sweep", str(SCENARIOS / "s0_observability.json"),
                "--path", "interventions[0].penalty", "--lo", "0", "--hi", "2"]
        assert main([*argv, "--steps", steps]) == 2
        captured = capsys.readouterr()
        assert "--steps" in captured.err
        assert captured.out == ""


class TestDynamics:
    def test_trace_csv(self, capsys):
        assert main(
            ["dynamics", str(SCENARIOS / "s0_baseline.json"), "--initial", "EEEE"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "step,profile,mover,payoff_delta"
        assert lines[1].startswith("0,EEEE,,")
        assert lines[-1].split(",")[1] == "BBBB"

    def test_replicator_csv_final_share(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(
            [
                "dynamics",
                str(SCENARIOS / "v0_veto.json"),
                "--initial",
                "0.5",
                "--replicator",
                "--out",
                str(out),
            ]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x"
        final_x = float(lines[-1].split(",")[1])
        assert final_x < 1e-3

    def test_bad_initial_profile_exits_2(self, capsys):
        assert main(
            ["dynamics", str(SCENARIOS / "s0_baseline.json"), "--initial", "EEXX"]
        ) == 2

    def test_seeded_random_schedule_deterministic(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(
                [
                    "dynamics",
                    str(SCENARIOS / "v0_veto.json"),
                    "--initial",
                    "EEEB",
                    "--schedule",
                    "random",
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSweep:
    def test_sweep_csv_header_and_rows(self, capsys):
        assert main(
            [
                "sweep",
                str(SCENARIOS / "s0_observability.json"),
                "--path",
                "interventions[0].penalty",
                "--lo",
                "0",
                "--hi",
                "2",
                "--steps",
                "5",
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("value,nash_set,classification,welfare_gap")
        assert len(lines) == 6
        assert "DominantExpose" in lines[-1]

    def test_critical_threshold_json(self, tmp_path):
        out = tmp_path / "threshold.json"
        assert main(
            [
                "sweep",
                str(SCENARIOS / "s0_observability.json"),
                "--path",
                "interventions[0].penalty",
                "--lo",
                "0",
                "--hi",
                "5",
                "--critical",
                "--predicate",
                "all_buffer_not_nash",
                "--out",
                str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["critical_value"] == pytest.approx(1.4, abs=1e-6)
        assert doc["analytic_value"] == pytest.approx(1.4, abs=1e-9)

    def test_unresolvable_path_exits_2(self, capsys):
        assert main(
            [
                "sweep",
                str(SCENARIOS / "s0_baseline.json"),
                "--path",
                "interventions[0].penalty",
                "--lo",
                "0",
                "--hi",
                "1",
            ]
        ) == 2
        assert "interventions[0]" in capsys.readouterr().err

    def test_bracket_failure_exits_1(self, capsys):
        assert main(
            [
                "sweep",
                str(SCENARIOS / "s0_observability.json"),
                "--path",
                "interventions[0].penalty",
                "--lo",
                "0",
                "--hi",
                "1",
                "--critical",
                "--predicate",
                "all_buffer_not_nash",
            ]
        ) == 1


class TestReport:
    def test_bundle_contents(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(
            [
                "report",
                str(SCENARIOS / "s0_observability.json"),
                "--bundle",
                str(bundle),
            ]
        ) == 0
        assert (bundle / "analyze.json").exists()
        assert (bundle / "sweep_0_observability.csv").exists()
        assert (bundle / "margin_0_observability.svg").exists()
        assert (bundle / "threshold_0_observability.json").exists()
        svg = (bundle / "margin_0_observability.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        threshold = json.loads((bundle / "threshold_0_observability.json").read_text())
        assert threshold["critical_value"] == pytest.approx(1.4, abs=1e-6)

    def test_threshold_runtime_error_exits_1(self, tmp_path, monkeypatch, capsys):
        # only a bracket without a flip becomes a note; other errors surface
        def broken(*args, **kwargs):
            raise RuntimeError("bisection broke")

        monkeypatch.setattr(cli, "critical_threshold", broken)
        bundle = tmp_path / "bundle"
        argv = ["report", str(SCENARIOS / "s0_observability.json"), "--bundle", str(bundle)]
        assert main(argv) == 1
        assert "bisection broke" in capsys.readouterr().err

    def test_bundle_deterministic(self, tmp_path):
        bundles = []
        for name in ("one", "two"):
            bundle = tmp_path / name
            main(
                ["report", str(SCENARIOS / "s0_observability.json"), "--bundle", str(bundle)]
            )
            bundles.append(
                {p.name: p.read_bytes() for p in sorted(bundle.iterdir())}
            )
        assert bundles[0] == bundles[1]


class TestGoldens:
    @pytest.mark.parametrize(
        "stem",
        ["s0_baseline", "v0_veto", "s0_mechanism", "s0_observability", "s0_effort"],
    )
    def test_analyze_report_matches_golden(self, stem, tmp_path, capsys):
        out = tmp_path / f"{stem}.json"
        assert main(["analyze", str(SCENARIOS / f"{stem}.json"), "--out", str(out)]) == 0
        golden = GOLDEN / f"{stem}.analyze.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_sweep_csv_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(
            [
                "sweep",
                str(SCENARIOS / "s0_observability.json"),
                "--path",
                "interventions[0].penalty",
                "--lo",
                "0",
                "--hi",
                "2",
                "--steps",
                "5",
                "--out",
                str(out),
            ]
        )
        assert out.read_bytes() == (GOLDEN / "s0_observability.sweep.csv").read_bytes()

    def test_margin_svg_matches_golden(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        main(
            ["report", str(SCENARIOS / "s0_observability.json"), "--bundle", str(bundle)]
        )
        produced = (bundle / "margin_0_observability.svg").read_bytes()
        assert produced == (GOLDEN / "s0_observability.margin.svg").read_bytes()
