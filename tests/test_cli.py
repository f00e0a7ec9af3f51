"""CLI surface: schema validation, subcommands, determinism, goldens."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import re
import time
from dataclasses import replace
from pathlib import Path

import pytest

from wardgames import (
    ActionProfile,
    LinearBenefit,
    Mechanism,
    MechanismMode,
    Observability,
    Scenario,
    ScenarioError,
    best_response_dynamics,
    integrate_replicator,
    sweep_grid,
    sweep_parameter,
    symmetric_scenario,
)
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
from wardgames.sweep import OBSERVABLES

from conftest import random_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
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

    def test_main_reuses_one_parser_and_no_flag_leaks(self, monkeypatch, capsys):
        epsilons = []
        setting = cli._setting

        def spy(args, options, name):
            if name == "epsilon":
                epsilons.append(args.epsilon)
            return setting(args, options, name)

        monkeypatch.setattr(cli, "_setting", spy)
        scenario = str(SCENARIOS / "s0_baseline.json")
        build_parser.cache_clear()
        assert main(["analyze", scenario, "--epsilon", "0.5"]) == 0
        assert main(["analyze", scenario]) == 0
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert epsilons == [0.5, None]
        capsys.readouterr()

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

    def test_round_trip_property(self):
        rng = random.Random(20261018)
        for _ in range(200):
            scenario = random_scenario(rng, with_interventions=True)
            if rng.random() < 0.5:
                caps = tuple(rng.uniform(0.0, 3.0) for _ in range(scenario.n))
                mech = Mechanism(caps, rng.choice(list(MechanismMode)))
                scenario = replace(scenario, interventions=scenario.interventions + (mech,))
            options = RunOptions()
            if rng.random() < 0.7:
                options = RunOptions(
                    epsilon=rng.uniform(0.0, 0.1),
                    rng_seed=rng.randrange(10**6),
                    dt=rng.uniform(1e-3, 0.1),
                    t_end=rng.uniform(0.0, 100.0),
                    max_iters=rng.randint(1, 10**5),
                )
            doc = scenario_to_dict(scenario, options)
            again = parse_scenario_document(doc)
            assert again == (scenario, options)
            assert parse_scenario_document(json.loads(json.dumps(doc))) == again
            assert json.dumps(scenario_to_dict(*again)) == json.dumps(doc)

    def test_readme_schema_block_parses(self):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        scenario, options = parse_scenario_document(json.loads(re.sub(r"//.*", "", block)))
        assert scenario.n == 4
        assert [type(iv).__name__ for iv in scenario.interventions] == [
            "EffortReduction", "Observability", "Mechanism"
        ]
        assert options == RunOptions()

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


_DROP = object()
_WARD = {"cost_expose": 2.0, "cost_buffer": 1.0}
_BAD_MODE = "expected 'absorb' or 'redistribute'"

# (top-level overrides of s0_doc, exact error line); _DROP removes the key
MALFORMED = [
    ({"extra": 1}, "document: unknown keys ['extra']; allowed: "
     "['benefit', 'interventions', 'n_wards', 'options', 'wards']"),
    ({"benefit": _DROP}, "document: missing required keys ['benefit']"),
    ({"n_wards": True}, "document.n_wards: expected an integer, got True"),
    ({"n_wards": 1}, "n_wards: need at least 2 wards, got 1"),
    ({"wards": "x"}, "wards: expected an object or a list"),
    ({"wards": [_WARD] * 2}, "wards: expected 4 entries (n_wards), got 2"),
    ({"wards": {"symmetric": {**_WARD, "cost": 1.0}}},
     "wards.symmetric: unknown keys ['cost']; allowed: ['cost_buffer', 'cost_expose']"),
    ({"wards": {"symmetric": {**_WARD, "cost_expose": "2"}}},
     "wards.symmetric.cost_expose: expected a number, got '2'"),
    ({"wards": [_WARD] * 3 + [{"cost_expose": 2.0}]},
     "wards[3]: missing required keys ['cost_buffer']"),
    ({"wards": [_WARD] * 3 + [{**_WARD, "cost_buffer": True}]},
     "wards[3].cost_buffer: expected a number, got True"),
    ({"benefit": [1]}, "benefit: expected an object"),
    ({"benefit": {"kind": "quadratic", "beta": 1.0}},
     "benefit.kind: expected one of linear/threshold/concave/table, got 'quadratic'"),
    ({"benefit": {"kind": ["linear"], "beta_per_exposer": 0.3}},
     "benefit.kind: expected one of linear/threshold/concave/table, got ['linear']"),
    ({"benefit": {"kind": "linear", "beta_per_exposer": 0.3, "beta": 1.0}},
     "benefit: unknown keys ['beta']; allowed: ['beta_per_exposer', 'kind']"),
    ({"benefit": {"kind": "threshold", "tau": 2}},
     "benefit: missing required keys ['beta']"),
    ({"benefit": {"kind": "threshold", "tau": 2.0, "beta": 1.0}},
     "benefit.tau: expected an integer, got 2.0"),
    ({"benefit": {"kind": "threshold", "tau": True, "beta": 1.0}},
     "benefit.tau: expected an integer, got True"),
    ({"benefit": {"kind": "concave", "beta": 1.0, "gamma": "0.5"}},
     "benefit.gamma: expected a number, got '0.5'"),
    ({"benefit": {"kind": "table", "values": [0.0, 1.0, 2.0]}},
     "benefit.values: expected exactly 5 entries for 4 wards, got 3"),
    ({"benefit": {"kind": "table", "values": 1.0}}, "benefit.values: expected a list"),
    ({"benefit": {"kind": "table", "values": [0.0, False, 1.0, 2.0, 3.0]}},
     "benefit.values[1]: expected a number, got False"),
    ({"interventions": {"kind": "effort"}}, "interventions: expected a list"),
    ({"interventions": [3]}, "interventions[0]: expected an object"),
    ({"interventions": [{"kind": "nudge"}]},
     "interventions[0].kind: expected one of effort/observability/mechanism, got 'nudge'"),
    ({"interventions": [{"kind": "effort", "delta_expose": 0.1, "oops": 2}]},
     "interventions[0]: unknown keys ['oops']; allowed: "
     "['delta_buffer', 'delta_expose', 'kind']"),
    ({"interventions": [{"kind": "observability", "p0": 0.5}]},
     "interventions[0]: missing required keys ['penalty']"),
    ({"interventions": [{"kind": "observability", "p0": True, "penalty": 1.0}]},
     "interventions[0].p0: expected a number, got True"),
    ({"interventions": [{"kind": "mechanism", "mode": "absorb"}]},
     "interventions[0]: missing required keys ['capped_cost_expose']"),
    ({"interventions": [{"kind": "mechanism", "capped_cost_expose": [1.0, 1.0]}]},
     "interventions[0].capped_cost_expose: expected 4 per-ward entries, got 2"),
    ({"interventions": [{"kind": "mechanism", "capped_cost_expose": "1.2"}]},
     "interventions[0].capped_cost_expose: expected a number or list, got '1.2'"),
    ({"interventions": [{"kind": "mechanism", "capped_cost_expose": [1.0, 1.0, None, 1.0]}]},
     "interventions[0].capped_cost_expose[2]: expected a number, got None"),
    ({"interventions": [{"kind": "mechanism", "capped_cost_expose": 1.2, "mode": "share"}]},
     f"interventions[0].mode: {_BAD_MODE}, got 'share'"),
    ({"interventions": [{"kind": "mechanism", "capped_cost_expose": 1.2, "mode": ["absorb"]}]},
     f"interventions[0].mode: {_BAD_MODE}, got ['absorb']"),
    ({"options": []}, "options: expected an object"),
    ({"options": {"seed": 1}}, "options: unknown keys ['seed']; allowed: "
     "['dt', 'epsilon', 'max_iters', 'rng_seed', 't_end']"),
    ({"options": {"rng_seed": 1.5}}, "options.rng_seed: expected an integer, got 1.5"),
    ({"options": {"max_iters": False}}, "options.max_iters: expected an integer, got False"),
    ({"options": {"epsilon": "0"}}, "options.epsilon: expected a number, got '0'"),
    # a table too short for any scenario is reported against n_wards
    ({"benefit": {"kind": "table", "values": [0.0, 1.0]}},
     "benefit.values: expected exactly 5 entries for 4 wards, got 2"),
]


def error_line(tmp_path: Path, capsys, doc: dict) -> str:
    """The whole stderr of `analyze` on a document that must exit 2."""
    assert main(["analyze", str(write_scenario(tmp_path, doc))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


class TestSchema:
    @pytest.mark.parametrize("overrides, line", MALFORMED)
    def test_malformed_document_error_line(self, overrides, line, tmp_path, capsys):
        doc = s0_doc()
        for key, value in overrides.items():
            if value is _DROP:
                del doc[key]
            else:
                doc[key] = value
        assert error_line(tmp_path, capsys, doc) == f"error: {line}\n"


    @pytest.mark.parametrize(
        "overrides, line",
        [
            ({"benefit": {"kind": "linear", "beta_per_exposer": -1}},
             "benefit: beta_per_exposer must be finite and >= 0"),
            ({"benefit": {"kind": "threshold", "tau": 0, "beta": 1.0}},
             "benefit: tau must be an integer >= 1, got 0"),
            ({"benefit": {"kind": "concave", "beta": 1.0, "gamma": 2}},
             "benefit: gamma must lie in (0, 1], got 2.0"),
            ({"benefit": {"kind": "table", "values": [0.0, 1.0, float("inf"), 2.0, 3.0]}},
             "benefit: benefit table entry 2 is not finite: inf"),
            ({"interventions": [{"kind": "effort", "delta_buffer": -1}]},
             "interventions[0]: delta_buffer must be finite and >= 0, got -1.0"),
            ({"interventions": [{"kind": "observability", "p0": 0.5, "penalty": -1}]},
             "interventions[0]: penalty must be finite and >= 0, got -1.0"),
            ({"interventions": [
                {"kind": "effort"},
                {"kind": "mechanism", "capped_cost_expose": [1.0, -1.0, 1.0, 1.0]},
            ]},
             "interventions[1]: capped_cost_expose entries must be finite and >= 0, "
             "got -1.0"),
            ({"wards": {"symmetric": {**_WARD, "cost_buffer": -1}}},
             "wards.symmetric: cost_buffer must be finite and >= 0, got -1.0"),
            ({"wards": [_WARD] * 3 + [{**_WARD, "cost_expose": float("nan")}]},
             "wards[3]: cost_expose must be finite and >= 0, got nan"),
            ({"benefit": {"kind": "threshold", "tau": 5, "beta": 1.0}},
             "benefit.tau: expected a threshold in [1, 4], got 5"),
        ],
    )
    def test_value_error_names_its_path(self, overrides, line, tmp_path, capsys):
        doc = {**s0_doc(), **overrides}
        assert error_line(tmp_path, capsys, doc) == f"error: {line}\n"


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
        assert report["schema_version"] == 2
        assert report["scenario"]["n_wards"] == 4
        assert report["equilibrium"]["nash_profiles"] == [
            {"profile": "BBBB", "strict": True}
        ]
        assert report["equilibrium"]["welfare_optimum"]["welfare"] == -3.2
        assert report["flip"]["blocking_wards"] == [0, 1, 2, 3]

    def test_nash_set_over_the_cap_exits_1_without_output(self, tmp_path, capsys):
        # every deviation ties exactly, so all 2^23 profiles are weak Nash
        doc = {
            "n_wards": 23,
            "wards": [
                {"cost_expose": 1.5 + 0.25 * i, "cost_buffer": 1.0 + 0.25 * i}
                for i in range(23)
            ],
            "benefit": {"kind": "linear", "beta_per_exposer": 0.5},
            "interventions": [],
        }
        out_path = tmp_path / "report.json"
        argv = ["analyze", str(write_scenario(tmp_path, doc)), "--out", str(out_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines(keepends=True)[-1] == (
            "error: the Nash set has 8388608 profiles, more than the cap of "
            "4194304 to materialise; use flip_conditions for the pole profiles "
            "instead\n"
        )
        assert not out_path.exists()

    @pytest.mark.parametrize("costs, values, cause", [
        # every payoff is -inf: once listed as four strict Nash profiles
        ((1.7e308, 1.7e308), [-1.7e308] * 3, "payoff overflow: a payoff or deviation gain"),
        # finite payoffs whose welfare sum overflows: once "intermediate overflow in fsum"
        ((2.0, 1.0), [1e308] * 5, "welfare overflow: 4 x (max|B| + max|penalty|"),
    ])
    def test_float_overflow_exits_1_naming_the_cause(self, costs, values, cause,
                                                     tmp_path, capsys):
        doc = {
            "n_wards": len(values) - 1,
            "wards": {"symmetric": dict(zip(("cost_expose", "cost_buffer"), costs))},
            "benefit": {"kind": "table", "values": values},
        }
        out_path = tmp_path / "report.json"
        argv = ["analyze", str(write_scenario(tmp_path, doc)), "--out", str(out_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(f"error: {cause}")
        assert not out_path.exists()

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

    def test_bad_options_max_iters_exits_2(self, tmp_path, capsys):
        doc = {**s0_doc(), "options": {"max_iters": 0}}
        assert error_line(tmp_path, capsys, doc) == (
            "error: options.max_iters: expected an integer >= 1, got 0\n"
        )

    def test_bad_max_iters_flag_exits_2(self, capsys):
        argv = ["dynamics", str(SCENARIOS / "s0_baseline.json"), "--initial", "EEEE"]
        assert main([*argv, "--max-iters", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --max-iters: max_iters must be >= 1, got -3\n"
        assert captured.out == ""

    @pytest.mark.parametrize("initial", ["nan", "-0.5", "1.5", "half"])
    def test_bad_replicator_initial_exits_2(self, initial, capsys):
        argv = ["dynamics", str(SCENARIOS / "v0_veto.json"), "--replicator"]
        assert main([*argv, "--initial", initial]) == 2
        captured = capsys.readouterr()
        why = ("expected a number with --replicator, got 'half'" if initial == "half"
               else f"x0 must lie in [0, 1], got {float(initial)}")
        assert captured.err == f"error: --initial: {why}\n"
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

    def test_csv_writers_match_the_csv_module(self, s0, v0):
        def reference(header, rows):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            return buf.getvalue()

        result = integrate_replicator(v0, 0.3, t_end=1.0, dt=0.1)
        assert cli.replicator_to_csv(result) == reference(
            ["t", "x"], [[repr(t), repr(x)] for t, x in result.trajectory]
        )
        trace = best_response_dynamics(
            s0, ActionProfile.from_string("EBEE"), schedule="random", seed=5
        )
        profile, rows = trace.initial, [[0, str(trace.initial), "", repr(0.0)]]
        for i, (ward, delta) in enumerate(trace.moves, 1):
            profile = profile.with_action(ward, profile.actions[ward].flipped())
            rows.append([i, str(profile), ward, repr(delta)])
        assert cli.trace_to_csv(trace) == reference(
            ["step", "profile", "mover", "payoff_delta"], rows
        )
        # penalty 1.4 makes all 16 profiles weak Nash; a pure Nash profile
        # always exists, so a gap and an empty Nash set are built by hand
        s = replace(s0, interventions=(Observability(p0=0.5, penalty=1.4),))
        grid = sweep_grid(0.0, 2.8, 5)
        sweep_rows = sweep_parameter(s, "interventions[0].penalty", grid) + [{
            "value": 3.5, "nash_set": [], "classification": "Mixed/Other",
            "welfare_gap": None, "flip_margins": [-0.5] * s.n,
        }]

        def cells(row, obs):
            v = row[obs]
            if obs == "flip_margins":
                return [repr(m) for m in v]
            if obs == "nash_set":
                return [";".join(v)]
            if obs == "classification":
                return [v]
            return ["" if v is None else repr(v)]

        for size in range(len(OBSERVABLES) + 1):
            for observables in itertools.combinations(OBSERVABLES, size):
                header = ["value"]
                for obs in observables:
                    wide = obs == "flip_margins"
                    header += [f"margin_ward_{i}" for i in range(s.n)] if wide else [obs]
                rows = [
                    [repr(row["value"])] + [c for obs in observables for c in cells(row, obs)]
                    for row in sweep_rows
                ]
                assert cli.sweep_rows_to_csv(sweep_rows, observables, s.n) == reference(
                    header, rows
                )

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


class TestFlagErrors:
    """A bad command-line value exits 2 with a message that names its flag."""

    OBS = str(SCENARIOS / "s0_observability.json")
    S0 = str(SCENARIOS / "s0_baseline.json")
    SWEEP = ["sweep", OBS, "--path", "interventions[0].penalty"]
    CRITICAL = ["--critical", "--predicate", "all_buffer_not_nash"]
    REPLICATOR = ["dynamics", str(SCENARIOS / "v0_veto.json"), "--replicator"]

    @pytest.mark.parametrize(
        "argv, line",
        [
            (SWEEP + ["--lo", "3", "--hi", "1"],
             "--lo/--hi: need lo < hi, got lo=3.0, hi=1.0"),
            (SWEEP + ["--lo", "3", "--hi", "1"] + CRITICAL,
             "--lo/--hi: need lo < hi, got lo=3.0, hi=1.0"),
            (SWEEP + ["--lo", "0", "--hi", "1", "--observables", "bogus"],
             "--observables: unknown observables ['bogus']; valid: "
             "('nash_set', 'classification', 'welfare_gap', 'flip_margins')"),
            (SWEEP + ["--lo", "0", "--hi", "1", "--critical", "--predicate", "bogus"],
             "--predicate: unknown predicate 'bogus'; valid: ['all_buffer_nash', "
             "'all_buffer_not_nash', 'all_expose_nash', 'all_expose_not_nash']"),
            (["dynamics", S0, "--initial", "EEE"],
             "--initial: initial profile length 3 does not match 4 wards"),
            (["dynamics", S0, "--initial", "EXBB"],
             "--initial: profile string must use only 'E' and 'B', got 'EXBB'"),
            (SWEEP + ["--lo", "0", "--hi", "inf"],
             "--lo/--hi: need finite bounds, got lo=0.0, hi=inf"),
            (SWEEP + ["--lo=-inf", "--hi", "1"] + CRITICAL,
             "--lo/--hi: need finite bounds, got lo=-inf, hi=1.0"),
            (SWEEP + ["--lo", "nan", "--hi", "1"],
             "--lo/--hi: need finite bounds, got lo=nan, hi=1.0"),
            (SWEEP + ["--lo", "0", "--hi", "nan"] + CRITICAL,
             "--lo/--hi: need finite bounds, got lo=0.0, hi=nan"),
            (SWEEP + ["--lo", "1", "--hi", "1"],
             "--lo/--hi: need lo < hi, got lo=1.0, hi=1.0"),
            (SWEEP + ["--lo", "0", "--hi", "1", "--steps", "1"],
             "--steps: steps must be an integer in [2, 100000], got 1"),
            (SWEEP + ["--lo", "0", "--hi", "1", "--steps", "100001"],
             "--steps: steps must be an integer in [2, 100000], got 100001"),
            (SWEEP + ["--lo", "0", "--hi", "1", "--observables", "classification,gap"],
             "--observables: unknown observables ['gap']; valid: "
             "('nash_set', 'classification', 'welfare_gap', 'flip_margins')"),
            (["dynamics", S0, "--initial", "EEEEE", "--max-iters", "0"],
             "--initial: initial profile length 5 does not match 4 wards"),
            (REPLICATOR + ["--initial", "1.5"], "--initial: x0 must lie in [0, 1], got 1.5"),
            (REPLICATOR + ["--initial", "EEBB"],
             "--initial: expected a number with --replicator, got 'EEBB'"),
            (REPLICATOR + ["--initial", "0.5", "--dt", "0"],
             "--dt: dt must be a finite number > 0, got 0.0"),
            (REPLICATOR + ["--initial", "0.5", "--dt", "nan"],
             "--dt: dt must be a finite number > 0, got nan"),
            (REPLICATOR + ["--initial", "0.5", "--t-end", "-1"],
             "--t-end: t_end must be a finite number >= 0, got -1.0"),
            (REPLICATOR + ["--initial", "0.5", "--t-end", "inf", "--dt", "0"],
             "--t-end: t_end must be a finite number >= 0, got inf"),
            (REPLICATOR + ["--initial", "0.5", "--dt", "1e-300", "--t-end", "1"],
             "--t-end / --dt: t_end=1.0 with dt=1e-300 needs more than 1000000 RK4 steps"),
            (REPLICATOR + ["--initial", "0.5", "--dt", "1e-7"],
             "options.t_end / --dt: t_end=50.0 with dt=1e-07 needs more than 1000000 "
             "RK4 steps"),
            (["dynamics", S0, "--initial", "EEEE", "--max-iters", "0"],
             "--max-iters: max_iters must be >= 1, got 0"),
            (["dynamics", S0, "--initial", "EEEE", "--epsilon", "nan"],
             "--epsilon: epsilon must be a finite number >= 0, got nan"),
            (["analyze", S0, "--epsilon=-1"],
             "--epsilon: epsilon must be a finite number >= 0, got -1.0"),
            (SWEEP + ["--lo", "0", "--hi", "1", "--epsilon=-1"],
             "--epsilon: epsilon must be a finite number >= 0, got -1.0"),
            (SWEEP + ["--lo", "0", "--hi", "1", "--epsilon=-1"] + CRITICAL,
             "--epsilon: epsilon must be a finite number >= 0, got -1.0"),
            (["sweep", str(SCENARIOS / "v0_veto.json"), "--path", "benefit.tau", "--lo", "1.5",
              "--hi", "4", "--critical", "--predicate", "all_expose_not_nash"],
             "--lo/--hi: 'benefit.tau' names an integer field; got lo=1.5, hi=4.0"),
        ],
    )
    def test_message_names_the_flag(self, argv, line, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {line}\n"
        assert captured.out == ""

    def test_replicator_above_1030_wards_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {**s0_doc(), "n_wards": 1031})
        argv = ["dynamics", str(path), "--replicator", "--initial", "0.5"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: replicator dynamics support at most 1030 wards, got 1031")

    def test_replicator_on_signed_zero_costs_exits_2(self, tmp_path, capsys):
        doc = {"n_wards": 2, "wards": [{"cost_expose": 0.0, "cost_buffer": 0.0},
                                       {"cost_expose": -0.0, "cost_buffer": 0.0}],
               "benefit": {"kind": "linear", "beta_per_exposer": 0.0}}
        argv = ["dynamics", str(write_scenario(tmp_path, doc)), "--replicator", "--initial", "0.5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "error: replicator dynamics need every ward's effective cost_expose and "
            "cost_buffer to be bit-identical (0.0 and -0.0 differ); use "
            "best_response_dynamics for other scenarios\n")

    def test_n_wards_above_the_cap_fails_fast(self, tmp_path, capsys):
        over = cli.MAX_WARDS + 1
        path = write_scenario(tmp_path, {**s0_doc(), "n_wards": over})
        start = time.perf_counter()
        assert main(["analyze", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: n_wards: at most {cli.MAX_WARDS} wards are supported, got {over}\n"
        )

    def test_n_wards_at_the_cap_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_WARDS", 4)
        assert parse_scenario_document(s0_doc())[0].n == 4
        with pytest.raises(ScenarioError, match="n_wards: at most 4 wards"):
            parse_scenario_document({**s0_doc(), "n_wards": 5})


class TestNashWardsCap:
    OBSERVED = {"kind": "observability", "p0": 0.5, "penalty": 1.0}

    def nash_commands(self, path: Path, tmp_path: Path) -> list[list[str]]:
        sweep = ["sweep", str(path), "--path", "interventions[0].penalty",
                 "--lo", "0", "--hi", "2", "--steps", "3"]
        return [
            ["analyze", str(path)],
            ["report", str(path), "--bundle", str(tmp_path / "bundle")],
            sweep,
            sweep + ["--observables", "flip_margins,welfare_gap"],
        ]

    def test_above_the_cap_exits_2_before_any_analysis(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("analysis ran above the cap")

        monkeypatch.setattr(cli, "enumerate_nash", refuse)
        monkeypatch.setattr(cli, "sweep_parameter", refuse)
        over = cli.MAX_NASH_WARDS + 1
        doc = {**s0_doc(), "n_wards": over, "interventions": [self.OBSERVED]}
        path = write_scenario(tmp_path, doc)
        for argv in self.nash_commands(path, tmp_path):
            start = time.perf_counter()
            assert main(argv) == 2, argv
            assert time.perf_counter() - start < 1.0
            assert capsys.readouterr().err == (
                f"error: n_wards: Nash analysis supports at most {cli.MAX_NASH_WARDS} "
                f"wards, got {over}: each analysis costs O(N^2)\n"
            )
        assert not (tmp_path / "bundle").exists()

    def test_at_the_cap_accepted(self, tmp_path, capsys, monkeypatch):
        path = write_scenario(tmp_path, {**s0_doc(), "interventions": [self.OBSERVED]})
        monkeypatch.setattr(cli, "MAX_NASH_WARDS", 4)
        for argv in self.nash_commands(path, tmp_path):
            assert main(argv) == 0, argv
        monkeypatch.setattr(cli, "MAX_NASH_WARDS", 3)
        for argv in self.nash_commands(path, tmp_path):
            assert main(argv) == 2, argv
        capsys.readouterr()

    def test_commands_without_nash_analysis_are_not_capped(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, {**s0_doc(), "interventions": [self.OBSERVED]})
        monkeypatch.setattr(cli, "MAX_NASH_WARDS", 3)
        sweep = ["sweep", str(path), "--path", "interventions[0].penalty", "--lo", "0",
                 "--hi", "2", "--out", str(tmp_path / "out")]
        assert main(sweep + ["--observables", "flip_margins"]) == 0
        assert main(sweep + ["--critical", "--predicate", "all_buffer_not_nash"]) == 0
        assert main(["dynamics", str(path), "--initial", "EBBB",
                     "--out", str(tmp_path / "trace.csv")]) == 0


class TestMarginCellsCap:
    OBSERVED = {"kind": "observability", "p0": 0.5, "penalty": 1.0}

    def sweep(self, tmp_path, n, steps, observables="flip_margins"):
        doc = {**s0_doc(), "n_wards": n, "interventions": [self.OBSERVED]}
        return main(["sweep", str(write_scenario(tmp_path, doc)),
                     "--path", "interventions[0].penalty", "--lo", "0", "--hi", "2",
                     "--steps", str(steps), "--observables", observables,
                     "--out", str(tmp_path / "out.csv")])

    def test_above_the_cap_exits_2_before_any_point(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep point ran above the cap")

        monkeypatch.setattr(cli, "sweep_parameter", refuse)
        n, steps = 10**4, 1001
        assert n * steps > cli.MAX_MARGIN_CELLS and n <= cli.MAX_WARDS
        start = time.perf_counter()
        assert self.sweep(tmp_path, n, steps) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: --steps: 10000 wards x 1001 grid points exceed "
            f"{cli.MAX_MARGIN_CELLS} flip-margin cells\n"
        )
        assert not (tmp_path / "out.csv").exists()

    def test_at_the_cap_accepted(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_MARGIN_CELLS", 12)
        assert self.sweep(tmp_path, 4, 3) == 0
        assert self.sweep(tmp_path, 4, 3, "classification,flip_margins") == 0
        assert self.sweep(tmp_path, 4, 4) == 2
        assert self.sweep(tmp_path, 4, 4, "classification,flip_margins") == 2
        assert self.sweep(tmp_path, 4, 4, "classification") == 0  # no margin cells
        assert capsys.readouterr().err == (
            "error: --steps: 4 wards x 4 grid points exceed 12 flip-margin cells\n" * 2
        )


class TestTraceCellsCap:
    def dynamics(self, tmp_path, doc, *flags):
        path = write_scenario(tmp_path, doc)
        initial = "B" * doc["n_wards"]
        return main(["dynamics", str(path), "--initial", initial,
                     "--out", str(tmp_path / "trace.csv"), *flags])

    @pytest.mark.parametrize("source", ["--max-iters", "options.max_iters"])
    def test_above_the_cap_exits_2_before_any_move(self, source, tmp_path, capsys,
                                                   monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dynamics ran above the cap")

        monkeypatch.setattr(cli, "best_response_dynamics", refuse)
        n, max_iters = 10**4, 10**4
        assert n * (max_iters + 1) > cli.MAX_TRACE_CELLS
        doc = {**s0_doc(), "n_wards": n}
        flags = ["--max-iters", str(max_iters)]
        if source == "options.max_iters":
            doc, flags = {**doc, "options": {"max_iters": max_iters}}, []
        start = time.perf_counter()
        assert self.dynamics(tmp_path, doc, *flags) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: {source}: 10000 wards x (10000 + 1) trace rows exceed "
            f"{cli.MAX_TRACE_CELLS} CSV cells\n"
        )
        assert not (tmp_path / "trace.csv").exists()

    def test_at_the_cap_accepted(self, tmp_path):
        n = 10**4
        max_iters = cli.MAX_TRACE_CELLS // n - 1
        assert n * (max_iters + 1) == cli.MAX_TRACE_CELLS
        doc = {**s0_doc(), "n_wards": n}
        assert self.dynamics(tmp_path, doc, "--max-iters", str(max_iters)) == 0
        assert (tmp_path / "trace.csv").read_text() == (
            f"step,profile,mover,payoff_delta\n0,{'B' * n},,0.0\n"
        )

    def test_below_the_cap_runs_and_one_more_row_exits_2(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(cli, "MAX_TRACE_CELLS", 13)
        doc = {**s0_doc(), "options": {"max_iters": 2}}
        assert self.dynamics(tmp_path, doc) == 0
        capsys.readouterr()
        assert self.dynamics(tmp_path, doc, "--max-iters", "3") == 2
        assert capsys.readouterr().err == (
            "error: --max-iters: 4 wards x (3 + 1) trace rows exceed 13 CSV cells\n"
        )

    def test_replicator_is_not_capped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TRACE_CELLS", 1)
        path = write_scenario(tmp_path, s0_doc())
        assert main(["dynamics", str(path), "--replicator", "--initial", "0.5",
                     "--out", str(tmp_path / "x.csv")]) == 0


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

    def test_only_printed_nash_lists_are_capped(self, tmp_path, capsys):
        # at penalty 1.4 the 30 wards have 824,776,359 Nash profiles
        doc = {
            "n_wards": 30,
            "wards": {"symmetric": {"cost_expose": 2.0, "cost_buffer": 1.0}},
            "benefit": {"kind": "linear", "beta_per_exposer": 0.3},
            "interventions": [{"kind": "observability", "p0": 0.5, "penalty": 1.4}],
        }
        argv = ["sweep", str(write_scenario(tmp_path, doc)), "--path",
                "interventions[0].penalty", "--lo", "1", "--hi", "2", "--steps", "6"]
        assert main(argv + ["--observables", "classification,welfare_gap"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "value,classification,welfare_gap"
        assert lines[3].startswith("1.4,")
        assert main(argv + ["--observables", "nash_set,classification"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the Nash set has 824776359 profiles, more than the cap of "
            "4194304 to materialise; use flip_conditions for the pole profiles "
            "instead\n"
        )

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
        a, b = doc["bracket"]
        assert math.nextafter(a, math.inf) == b == doc["critical_value"]
        assert list(doc) == [
            "schema_version", "scenario", "parameter_path", "predicate",
            "critical_value", "bracket", "iterations", "true_at_high",
        ]
        assert isinstance(doc["true_at_high"], bool)

    def test_integer_path_threshold(self, tmp_path, capsys):
        # tau moves in whole steps: the bracket holds two consecutive integers
        out = tmp_path / "threshold.json"
        assert main(["sweep", str(SCENARIOS / "v0_veto.json"), "--path", "benefit.tau",
                     "--lo", "1", "--hi", "4", "--critical",
                     "--predicate", "all_expose_not_nash", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads(out.read_text())
        assert doc["bracket"] == [3.0, 4.0] and doc["critical_value"] == 4.0
        assert doc["true_at_high"] is False

    @pytest.mark.parametrize("lo, hi, steps, flag", [
        ("1", "4", "3", "--steps"), ("1", "4", "5", "--steps"), ("1.5", "4", "6", "--lo/--hi"),
    ])
    def test_integer_path_grid_off_the_integers_exits_2(self, lo, hi, steps, flag, capsys):
        # an evenly spaced grid would hand tau a value the user never gave, such as 2.5
        assert main(["sweep", str(SCENARIOS / "v0_veto.json"), "--path", "benefit.tau",
                     "--lo", lo, "--hi", hi, "--steps", steps]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}: 'benefit.tau' names an integer field")

    def test_integer_path_grid_on_the_integers(self, capsys):
        assert main(["sweep", str(SCENARIOS / "v0_veto.json"), "--path", "benefit.tau",
                     "--lo", "1", "--hi", "4", "--steps", "4",
                     "--observables", "classification"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "value,classification", "1.0,Mixed/Other", "2.0,Mixed/Other",
            "3.0,Mixed/Other", "4.0,Bistable",
        ]

    def test_grid_with_an_overflowing_span(self, capsys):
        # hi - lo overflows; every grid point is still a finite value in [lo, hi]
        assert main(["sweep", str(SCENARIOS / "s0_observability.json"),
                     "--path", "interventions[0].p_slope", "--lo=-1.7e308",
                     "--hi=1.7e308", "--steps", "3",
                     "--observables", "classification"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "value,classification", "-1.7e+308,Mixed/Other", "0.0,Bistable",
            "1.7e+308,Bistable",
        ]

    def test_grid_with_an_overflowing_multiple_of_its_span(self, capsys):
        # hi - lo is finite, but (hi - lo) * 2 is not
        assert main(["sweep", str(SCENARIOS / "s0_observability.json"),
                     "--path", "interventions[0].p_slope", "--lo", "0",
                     "--hi", "1.7e308", "--steps", "3",
                     "--observables", "classification"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "value,classification", "0.0,Bistable", "8.5e+307,Bistable",
            "1.7e+308,Bistable",
        ]

    def test_negative_bound_in_exponent_form_needs_the_equals_form(self, capsys):
        # argparse takes "-1e-3" after --lo for an option, so only --lo=-1e-3 works
        argv = ["sweep", str(SCENARIOS / "s0_observability.json"),
                "--path", "interventions[0].p_slope", "--hi", "0.5", "--steps", "3",
                "--observables", "classification"]
        assert main(argv + ["--lo=-1e-3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "value,classification", "-0.001,Mixed/Other", "0.2495,Bistable", "0.5,Bistable",
        ]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--lo", "-1e-3"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "wardgames sweep: error: argument --lo: expected one argument\n")
        with pytest.raises(SystemExit) as exit_info:  # the help names the = form
            main(["sweep", "--help"])
        assert exit_info.value.code == 0
        help_text = capsys.readouterr().out
        assert "--lo=-1e-3" in help_text and "--hi=-1e-3" in help_text

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

    @pytest.mark.parametrize("mode", [[], ["--critical", "--predicate", "all_buffer_not_nash"]])
    @pytest.mark.parametrize(
        "scenario, path, lo, line",
        [
            ("s0_baseline", "n", "2", "parameter path 'n': no field 'n' on Scenario"),
            ("s0_observability", "interventions[0].penalty", "-1",
             "parameter path 'interventions[0].penalty': "
             "penalty must be finite and >= 0, got -1.0"),
        ],
    )
    def test_bad_path_or_value_exits_2(self, mode, scenario, path, lo, line, capsys):
        argv = ["sweep", str(SCENARIOS / f"{scenario}.json"), "--path", path,
                "--lo", lo, "--hi", "4", "--steps", "3", *mode]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {line}\n"
        assert captured.out == ""

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

    def test_zero_exposure_costs_skip_the_canonical_sweep(self, tmp_path, capsys):
        # the canonical bracket [0, scale * max c(E)] is empty: no sweep, a note, exit 0
        doc = {"n_wards": 3,
               "wards": {"symmetric": {"cost_expose": 0.0, "cost_buffer": 0.0}},
               "benefit": {"kind": "linear", "beta_per_exposer": 0.5},
               "interventions": [{"kind": "observability", "p0": 0.5, "penalty": 1.0}]}
        bundle = tmp_path / "bundle"
        argv = ["report", str(write_scenario(tmp_path, doc)), "--bundle", str(bundle)]
        assert main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == ("note: skipping canonical sweep for interventions[0] "
                           "(every cost_expose is 0: bracket [0, 0])")
        assert [p.name for p in bundle.iterdir()] == ["analyze.json"]

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


def reference_margin_chart_svg(title, values, margins):
    """margin_chart_svg as it was before it drew each distinct column once:
    every x and every ward's points formatted afresh."""
    W, H, PAD, palette = cli._SVG_W, cli._SVG_H, cli._SVG_PAD, cli._PALETTE
    n_wards = len(margins[0]) if margins else 0
    xs = values
    ys = [m for row in margins for m in row]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys + [0.0])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return f"{PAD + (x - x_lo) / (x_hi - x_lo) * (W - 2 * PAD):.2f}"

    def py(y):
        return f"{H - PAD - (y - y_lo) / (y_hi - y_lo) * (H - 2 * PAD):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.2f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
        f'<line x1="{px(x_lo)}" y1="{py(y_lo)}" x2="{px(x_hi)}" y2="{py(y_lo)}" '
        'stroke="black" stroke-width="1"/>'
        f'<line x1="{px(x_lo)}" y1="{py(y_lo)}" x2="{px(x_lo)}" y2="{py(y_hi)}" '
        'stroke="black" stroke-width="1"/>',
    ]
    if y_lo < 0.0 < y_hi:
        parts.append(
            f'<line x1="{px(x_lo)}" y1="{py(0.0)}" x2="{px(x_hi)}" y2="{py(0.0)}" '
            'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    for label, x in ((f"{x_lo:.6g}", x_lo), (f"{x_hi:.6g}", x_hi)):
        parts.append(
            f'<text x="{px(x)}" y="{H - PAD + 18:.2f}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{label}</text>'
        )
    for label, y in ((f"{y_lo:.6g}", y_lo), (f"{y_hi:.6g}", y_hi)):
        parts.append(
            f'<text x="{PAD - 6:.2f}" y="{py(y)}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{label}</text>'
        )
    for w in range(n_wards):
        pts = " ".join(f"{px(x)},{py(row[w])}" for x, row in zip(xs, margins))
        color = palette[w % len(palette)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{W - PAD + 4:.2f}" y="{py(margins[-1][w])}" '
            f'font-family="monospace" font-size="10" fill="{color}">w{w}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


class TestMarginChart:
    """margin_chart_svg writes the reference's bytes."""

    def test_equals_the_reference(self):
        rng = random.Random(23)
        values = [0.1 * i for i in range(21)]
        ramp = [[x - 0.7, 0.5 * x - 0.7, -0.0 * x, 0.0] for x in values]
        cases = [
            ([0.0, 1.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),  # all-zero margins
            ([2.0], [[-0.5, -0.5]]),  # one point
            (values, [[x - 1.0] * 9 for x in values]),  # symmetric: one column
            (values, ramp),  # 0.0 and -0.0 columns share a line
        ]
        for n in (3, 8, 10):  # asymmetric, some wards equal, palette wraps at 8+
            cols = [[rng.uniform(-2.0, 2.0) for _ in values] for _ in range(n)]
            cols[n - 1] = cols[0]
            cases.append((values, [list(row) for row in zip(*cols)]))
        for scenario in ("s0_observability", "s0_effort", "s0_mechanism"):
            s = load_scenario(SCENARIOS / f"{scenario}.json")
            s = replace(s, wards=tuple(replace(w, cost_expose=w.cost_expose + 0.1 * i)
                                       for i, w in enumerate(s.wards)))
            path = cli._canonical_sweeps(s)[0][2]
            rows = sweep_parameter(s, path, sweep_grid(0.0, 3.0, 21),
                                   observables=("flip_margins",))
            cases.append(([r["value"] for r in rows], [r["flip_margins"] for r in rows]))
        for values, margins in cases:
            assert cli.margin_chart_svg("t: margin vs p", values, margins) == (
                reference_margin_chart_svg("t: margin vs p", values, margins))


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


    def test_threshold_json_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "threshold.json"
        main(["sweep", str(SCENARIOS / "s0_observability.json"), "--path",
              "interventions[0].penalty", "--lo", "0", "--hi", "5", "--critical",
              "--predicate", "all_buffer_not_nash", "--out", str(out)])
        assert out.read_bytes() == (GOLDEN / "s0_observability.threshold.json").read_bytes()


class TestDumpJson:
    """cli._dump_json writes what json.dumps(indent=2) writes, byte for byte."""

    # strings that look like the separators the writer joins records with
    TRICKY = ("", "}, {", "},\n    {", "a\nb", "\"", "\\", "é", " ", "{}", "[]")

    def random_value(self, rng: random.Random, depth: int):
        kind = rng.randrange(10 if depth < 4 else 5)
        if kind == 0:
            return rng.choice((0.0, -0.0, 1e300, 5e-324, rng.uniform(-9, 9)))
        if kind == 1:
            return rng.choice((0, -7, 2**70, True, False, None))
        if kind in (2, 3, 4):
            return rng.choice(self.TRICKY)
        if kind in (5, 6):  # a list of flat records, possibly with empty values
            return [self.random_record(rng) for _ in range(rng.randrange(4))]
        if kind == 7:
            return tuple(self.random_value(rng, depth + 1) for _ in range(rng.randrange(4)))
        return self.random_record(rng, depth + 1)

    def random_record(self, rng: random.Random, depth: int = 4) -> dict:
        keys = rng.sample(self.TRICKY + ("k", "profile", "strict"), rng.randrange(4))
        return {k: self.random_value(rng, depth) for k in keys}

    def test_matches_the_stdlib_on_random_documents(self):
        rng = random.Random(89)
        for _ in range(2000):
            doc = self.random_record(rng, rng.randrange(4))
            assert cli._dump_json(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    def test_matches_the_stdlib_on_a_report_bundle(self, tmp_path, capsys):
        main(["report", str(SCENARIOS / "s0_observability.json"), "--bundle",
              str(tmp_path)])
        for path in tmp_path.glob("*.json"):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_out_of_range_float_raises_the_stdlib_error(self):
        doc = {"a": [{"b": 1.0}, {"b": math.nan}]}
        with pytest.raises(ValueError) as ours:
            cli._dump_json(doc)
        with pytest.raises(ValueError) as stdlib:
            json.dumps(doc, indent=2, allow_nan=False)
        assert str(ours.value) == str(stdlib.value)
