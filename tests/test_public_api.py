"""The package's public surface: its exported names, the README's library
examples, and the tie tolerance every analysis entry point refuses."""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

import wardgames
from wardgames import (
    ActionProfile,
    LinearBenefit,
    Observability,
    ScenarioError,
    ThresholdBenefit,
    best_response,
    best_response_dynamics,
    critical_threshold,
    enumerate_nash,
    flip_conditions,
    integrate_replicator,
    is_nash,
    set_by_path,
    sweep_grid,
    sweep_parameter,
    symmetric_scenario,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


class TestExports:
    def test_every_name_in_all_resolves(self):
        for name in wardgames.__all__:
            assert getattr(wardgames, name) is not None, name

    def test_all_has_no_duplicates_and_no_sweep_spec(self):
        assert len(wardgames.__all__) == len(set(wardgames.__all__))
        assert "SweepSpec" not in wardgames.__all__
        assert not hasattr(wardgames, "SweepSpec")


class TestReadme:
    def test_python_blocks_run(self):
        blocks = readme_python_blocks()
        assert blocks, "README.md has no python block"
        assert any("sweep_parameter(" in b and "sweep_grid(" in b for b in blocks)
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})


# whose only Nash profile is BBB (DominantBuffer)
S = symmetric_scenario(3, 2.0, 1.0, LinearBenefit(0.3), [Observability(0.5, 0.0, 0.0)])
EEE = ActionProfile.from_string("EEE")
ENTRY_POINTS = {
    "enumerate_nash": lambda e: enumerate_nash(S, epsilon=e),
    "flip_conditions": lambda e: flip_conditions(S, epsilon=e),
    "is_nash": lambda e: is_nash(S, EEE, e),
    "best_response": lambda e: best_response(S, EEE.actions[1:], 0, epsilon=e),
    "sweep_parameter": lambda e: sweep_parameter(
        S, "interventions[0].penalty", (0.0, 2.0), epsilon=e),
    "critical_threshold": lambda e: critical_threshold(
        S, "interventions[0].penalty", 0.0, 4.0, "all_buffer_not_nash", epsilon=e),
    "best_response_dynamics": lambda e: best_response_dynamics(S, EEE, epsilon=e),
}


class TestEpsilonChecked:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, -1.0])
    def test_refused(self, name, epsilon):
        with pytest.raises(ScenarioError, match=r"^epsilon must be a finite number >= 0") as info:
            ENTRY_POINTS[name](epsilon)
        assert info.value.names == ("epsilon",)

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_negative_zero_is_zero(self, name):
        assert repr(ENTRY_POINTS[name](-0.0)) == repr(ENTRY_POINTS[name](0.0))

    def test_the_scenario_has_one_nash_profile(self):
        report = enumerate_nash(S)
        assert [str(p) for p, _ in report.nash_profiles] == ["BBB"]
        assert report.classification.value == "DominantBuffer"


PENALTY = "interventions[0].penalty"
V0 = symmetric_scenario(3, 2.0, 1.0, ThresholdBenefit(tau=3, beta=3.0))
PREDICATE = "all_buffer_not_nash"


class TestRefusalNames:
    """A refused argument is named on the error, so the CLI can name the flag
    that fed it; a refusal of anything else, such as a scenario field that a
    swept value reaches, names no argument."""

    @pytest.mark.parametrize("call, names", [
        pytest.param(lambda: sweep_grid(0.0, math.inf, 3), ("lo", "hi"), id="grid-finite"),
        pytest.param(lambda: sweep_grid(1.0, 1.0, 3), ("lo", "hi"), id="grid-order"),
        pytest.param(lambda: sweep_grid(0.0, 1.0, 1), ("steps",), id="grid-steps"),
        # not an int: 2.5 once reached range() and raised TypeError
        pytest.param(lambda: sweep_grid(0.0, 1.0, 2.5), ("steps",), id="grid-steps-2.5"),
        pytest.param(lambda: sweep_grid(0.0, 1.0, 2.0), ("steps",), id="grid-steps-2.0"),
        pytest.param(lambda: sweep_grid(0.0, 1.0, True), ("steps",), id="grid-steps-bool"),
        pytest.param(lambda: critical_threshold(S, PENALTY, math.nan, 4.0, PREDICATE),
                     ("lo", "hi"), id="threshold-finite"),
        pytest.param(lambda: critical_threshold(S, PENALTY, 4.0, 0.0, PREDICATE),
                     ("lo", "hi"), id="threshold-order"),
        pytest.param(lambda: critical_threshold(S, PENALTY, 0.0, 4.0, "bogus"),
                     ("predicate",), id="threshold-predicate"),
        pytest.param(lambda: critical_threshold(V0, "benefit.tau", 1.0, 2.5, PREDICATE),
                     ("lo", "hi"), id="threshold-integer-field"),
        pytest.param(lambda: sweep_parameter(S, PENALTY, (0.0,), observables=("bogus",)),
                     ("observables",), id="sweep-observables"),
        pytest.param(lambda: integrate_replicator(S, 1.5), ("x0",), id="replicator-x0"),
        pytest.param(lambda: integrate_replicator(S, 0.5, t_end=-1.0), ("t_end",),
                     id="replicator-t_end"),
        pytest.param(lambda: integrate_replicator(S, 0.5, dt=math.inf), ("dt",),
                     id="replicator-dt"),
        pytest.param(lambda: integrate_replicator(S, 0.5, t_end=1.0, dt=1e-300),
                     ("t_end", "dt"), id="replicator-rk4-cap"),
        pytest.param(lambda: best_response_dynamics(S, ActionProfile.from_string("EE")),
                     ("initial",), id="br-initial"),
        pytest.param(lambda: best_response_dynamics(S, EEE, max_iters=0), ("max_iters",),
                     id="br-max_iters"),
        pytest.param(lambda: sweep_parameter(S, PENALTY, (-1.0,)), (), id="leaf-penalty"),
        pytest.param(lambda: set_by_path(S, "n", 2.0), (), id="leaf-path"),
        pytest.param(lambda: critical_threshold(S, "wards[0].cost_expose", -1.0, 1.0, PREDICATE),
                     (), id="leaf-cost"),
        pytest.param(lambda: ActionProfile.from_string("EXB"), (), id="leaf-profile"),
    ])
    def test_names(self, call, names):
        with pytest.raises(ScenarioError) as info:
            call()
        assert info.value.names == names
