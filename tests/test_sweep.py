"""Parameter paths, grid sweeps, and the critical-threshold solver."""

from __future__ import annotations

import math
import random
import re
import struct
import time
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from wardgames import (
    ActionProfile,
    BracketError,
    ConcaveBenefit,
    EffortReduction,
    LinearBenefit,
    Mechanism,
    MechanismMode,
    Observability,
    Scenario,
    ScenarioError,
    SweepSpec,
    ThresholdBenefit,
    critical_threshold,
    effective_payoff,
    get_by_path,
    is_nash,
    set_by_path,
    sweep_parameter,
    enumerate_nash,
    symmetric_scenario,
    welfare,
)
from wardgames.equilibrium import _analyse
from wardgames.interventions import payoff_tables
from wardgames.model import profile_string
from wardgames.sweep import MAX_GRID_POINTS, NASH_OBSERVABLES, OBSERVABLES, PREDICATES

from conftest import (
    assert_classes,
    interchangeable_edge_scenarios,
    random_scenario,
    repeated_costs_scenario,
)


def obs_scenario(penalty=1.4, p0=0.5):
    return symmetric_scenario(
        4, 2.0, 1.0, LinearBenefit(0.3), [Observability(p0=p0, penalty=penalty)]
    )


class TestParameterPaths:
    def test_get_and_set_intervention_field(self):
        s = obs_scenario(penalty=1.0)
        assert get_by_path(s, "interventions[0].penalty") == 1.0
        s2 = set_by_path(s, "interventions[0].penalty", 2.5)
        assert get_by_path(s2, "interventions[0].penalty") == 2.5
        assert get_by_path(s, "interventions[0].penalty") == 1.0  # original intact

    def test_set_ward_cost(self, s0):
        s2 = set_by_path(s0, "wards[3].cost_expose", 5.0)
        assert s2.wards[3].cost_expose == 5.0
        assert s2.wards[2].cost_expose == 2.0

    def test_set_benefit_field(self, s0):
        s2 = set_by_path(s0, "benefit.beta_per_exposer", 0.5)
        assert s2.benefit.beta_per_exposer == 0.5

    def test_set_per_ward_cap_entry(self, s0):
        s = Scenario(s0.wards, s0.benefit, (Mechanism((1.2, 1.2, 1.2, 1.2)),))
        s2 = set_by_path(s, "interventions[0].capped_cost_expose[3]", 0.7)
        assert s2.interventions[0].capped_cost_expose == (1.2, 1.2, 1.2, 0.7)

    def test_integer_field_accepts_whole_values_only(self, v0):
        s2 = set_by_path(v0, "benefit.tau", 3.0)
        assert s2.benefit.tau == 3
        for value in (2.5, float("nan"), float("inf")):
            with pytest.raises(ScenarioError, match="integer field"):
                set_by_path(v0, "benefit.tau", value)

    def test_unresolvable_path_names_the_path(self, s0):
        with pytest.raises(ScenarioError, match="interventions\\[0\\]"):
            get_by_path(s0, "interventions[0].penalty")
        with pytest.raises(ScenarioError, match="nope"):
            set_by_path(s0, "benefit.nope", 1.0)

    def test_segments_must_be_fields(self, s0):
        # `n` is a property: readable, but replace() cannot set it
        for resolve in (get_by_path, lambda s, p: set_by_path(s, p, 3.0)):
            with pytest.raises(ScenarioError, match="no field 'n' on Scenario"):
                resolve(s0, "n")
            with pytest.raises(ScenarioError, match="no field 'benefit_at' on Scenario"):
                resolve(s0, "benefit_at")

    def test_non_numeric_leaf_rejected(self, s0):
        with pytest.raises(ScenarioError):
            get_by_path(s0, "wards[0]")

    def test_invalid_values_still_validated(self, s0, v0):
        with pytest.raises(ScenarioError, match="'wards\\[0\\].cost_expose': ward 0"):
            set_by_path(s0, "wards[0].cost_expose", -1.0)
        with pytest.raises(ScenarioError, match="'benefit.tau': threshold tau must lie"):
            set_by_path(v0, "benefit.tau", 5.0)


class TestSweep:
    def test_penalty_sweep_classifications(self):
        s = obs_scenario()
        spec = SweepSpec(
            parameter_path="interventions[0].penalty",
            lo=0.0,
            hi=2.0,
            steps=5,
            observables=("classification", "nash_set"),
        )
        rows = sweep_parameter(s, spec)
        by_value = {row["value"]: row["classification"] for row in rows}
        assert by_value[0.0] == "DominantBuffer"
        assert by_value[0.5] == "DominantBuffer"
        assert by_value[1.0] == "DominantBuffer"
        assert by_value[2.0] == "DominantExpose"

    def test_boundary_value_weak_nash_both_poles(self):
        s = obs_scenario()
        spec = SweepSpec(
            parameter_path="interventions[0].penalty",
            values=(1.4,),
            observables=("nash_set",),
        )
        rows = sweep_parameter(s, spec)
        assert "BBBB" in rows[0]["nash_set"] and "EEEE" in rows[0]["nash_set"]

    def test_repeated_value_rows_identical(self):
        s = obs_scenario()
        spec = SweepSpec(
            parameter_path="interventions[0].penalty",
            values=(0.5, 0.5, 0.5),
        )
        rows = sweep_parameter(s, spec)
        assert rows[0] == rows[1] == rows[2]

    def test_effort_sweep_flips_between_point6_and_point8(self, s0):
        s = Scenario(s0.wards, s0.benefit, (EffortReduction(0.0, 0.0),))
        spec = SweepSpec(
            parameter_path="interventions[0].delta_expose",
            lo=0.0,
            hi=1.0,
            steps=6,
            observables=("nash_set",),
        )
        rows = sweep_parameter(s, spec)
        flips = ["BBBB" in row["nash_set"] for row in rows]
        # all-Buffer survives through 0.6 and is gone by 0.8
        assert flips == [True, True, True, True, False, False]

    def test_predicate_flips_exactly_once_in_linear_family(self):
        rng = random.Random(83)
        for _ in range(20):
            cb = rng.uniform(0.2, 1.0)
            ce = cb + rng.uniform(0.2, 1.5)
            p0 = rng.uniform(0.3, 1.0)
            s = symmetric_scenario(
                rng.randint(2, 6),
                ce,
                cb,
                LinearBenefit(rng.uniform(0.0, 0.15)),
                [Observability(p0=p0, penalty=0.0)],
            )
            spec = SweepSpec(
                parameter_path="interventions[0].penalty",
                lo=0.0,
                hi=2.0 * (ce - cb) / p0 + 1.0,
                steps=17,
                observables=("nash_set",),
            )
            rows = sweep_parameter(s, spec)
            all_b = "B" * s.n
            states = [all_b in row["nash_set"] for row in rows]
            changes = sum(1 for a, b in zip(states, states[1:]) if a != b)
            assert changes == 1

    def test_invalid_spec_rejected(self):
        with pytest.raises(ScenarioError):
            SweepSpec(parameter_path="x", lo=1.0, hi=0.0, steps=5)
        with pytest.raises(ScenarioError):
            SweepSpec(parameter_path="x", lo=0.0, hi=1.0, steps=1)
        with pytest.raises(ScenarioError):
            SweepSpec(parameter_path="x", lo=0.0, hi=1.0, steps=5, observables=("bogus",))

    def test_grid_with_an_overflowing_multiple_of_its_span(self):
        # hi - lo is finite, but (hi - lo) * 2 is not
        assert SweepSpec("x", lo=0.0, hi=1e308, steps=3).grid() == [0.0, 5e307, 1e308]
        grid = SweepSpec("x", lo=1e300, hi=1.7e308, steps=MAX_GRID_POINTS).grid()
        assert grid[0] == 1e300 and grid[-1] == 1.7e308
        assert all(a <= b for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("lo, hi", [
        (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan),
    ])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ScenarioError, match="need finite lo and hi"):
            SweepSpec(parameter_path="x", lo=lo, hi=hi, steps=3)

    def test_grid_capped(self):
        SweepSpec(parameter_path="x", lo=0.0, hi=1.0, steps=MAX_GRID_POINTS)
        with pytest.raises(ScenarioError):
            SweepSpec(parameter_path="x", lo=0.0, hi=1.0, steps=MAX_GRID_POINTS + 1)
        with pytest.raises(ScenarioError):
            SweepSpec(parameter_path="x", values=[0.0] * (MAX_GRID_POINTS + 1))


def swept_path(s: Scenario) -> tuple[str, float, float]:
    """A parameter path of the scenario with a bracket to sweep it over."""
    max_ce = max(w.cost_expose for w in s.wards) or 1.0  # zero costs: still a bracket
    for i, iv in enumerate(s.interventions):
        if isinstance(iv, Observability):
            return f"interventions[{i}].penalty", 0.0, 4.0 * max_ce
        if isinstance(iv, EffortReduction):
            return f"interventions[{i}].delta_expose", 0.0, 2.0 * max_ce
        if isinstance(iv, Mechanism):
            index = "[0]" if isinstance(iv.capped_cost_expose, tuple) else ""
            return f"interventions[{i}].capped_cost_expose{index}", 0.0, max_ce
    return "wards[0].cost_expose", 0.0, 2.0 * max_ce


class TestSweepWelfareFromTheSearch:
    """Sweep rows take the welfare gap from the welfare search, not welfare()."""

    @staticmethod
    def scenarios():
        rng = random.Random(137)
        for trial in range(90):
            if trial % 3 == 0:
                s = repeated_costs_scenario(rng, with_interventions=True)
            else:
                s = random_scenario(rng, with_interventions=True)
            if trial % 4 == 0:
                cap = rng.uniform(0.0, max(w.cost_expose for w in s.wards))
                mech = Mechanism(cap, MechanismMode.REDISTRIBUTE)
                s = Scenario(s.wards, s.benefit, s.interventions + (mech,))
            yield s, rng.choice((0.0, 0.25))
        for s in interchangeable_edge_scenarios():
            yield s, 0.0
            yield s, 0.25

    def test_rows_equal_enumerate_nash_bit_for_bit(self, monkeypatch):
        import wardgames.equilibrium as equilibrium

        calls = []

        def counting(scenario, profile):
            calls.append(profile)
            return welfare(scenario, profile)

        monkeypatch.setattr(equilibrium, "welfare", counting)
        kinds = set()
        for s, epsilon in self.scenarios():
            kinds.add(epsilon)
            kinds.update(type(iv).__name__ for iv in s.interventions)
            kinds.update(iv.mode for iv in s.interventions if isinstance(iv, Mechanism))
            path, lo, hi = swept_path(s)
            spec = SweepSpec(parameter_path=path, lo=lo, hi=hi, steps=9,
                             observables=("classification", "welfare_gap"))
            before = len(calls)
            rows = sweep_parameter(s, spec, epsilon=epsilon)
            assert len(calls) == before, "sweep_parameter called welfare()"
            for row in rows:
                point = set_by_path(s, path, row["value"])
                ref = enumerate_nash(point, epsilon=epsilon)
                assert row["classification"] == ref.classification.value
                # repr tells every float apart, -0.0 from 0.0 included
                assert repr(row["welfare_gap"]) == repr(ref.welfare_gap), (s, row)
                fast = _analyse(point, payoff_tables(point), epsilon, oracle=False)
                assert repr(fast.welfare_optimum) == repr(ref.welfare_optimum)
        assert {0.0, 0.25, "EffortReduction", "Observability", "Mechanism",
                MechanismMode.REDISTRIBUTE} <= kinds


def reference_sweep_parameter(scenario, spec, epsilon=0.0):
    """sweep_parameter as it was before the game was patched per point: a
    set_by_path and a full compile at every grid value, and a fresh Nash set
    list per row."""
    observables = set(spec.observables)
    rows = []
    for value in spec.grid():
        s = set_by_path(scenario, spec.parameter_path, value)
        tables = payoff_tables(s)
        row = {"value": value}
        if NASH_OBSERVABLES & observables:
            report = _analyse(s, tables, epsilon, oracle=False)
            if "nash_set" in observables:
                row["nash_set"] = [profile_string(m, s.n) for m, _ in report.nash_masks]
            if "classification" in observables:
                row["classification"] = report.classification.value
            if "welfare_gap" in observables:
                row["welfare_gap"] = report.welfare_gap
        if "flip_margins" in observables:
            row["flip_margins"] = [tables.gain_to_expose(i, 0) for i in range(s.n)]
        rows.append(row)
    return rows


def oracle_patcher(scenario, path):
    """_patcher's contract from set_by_path and a full compile per value."""
    def at(value):
        point = set_by_path(scenario, path, value)
        return point, payoff_tables(point)

    return at, isinstance(get_by_path(scenario, path), int)


def numeric_paths(obj, prefix=""):
    """Every path to a numeric field below obj, ward ids left out."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        items = ([(f"{prefix}{f.name}[{i}]", v) for i, v in enumerate(value)]
                 if isinstance(value, tuple) else [(prefix + f.name, value)])
        for path, v in items:
            if is_dataclass(v):
                yield from numeric_paths(v, path + ".")
            elif isinstance(v, (int, float)) and not isinstance(v, bool) and f.name != "id":
                yield path


def path_values(rng: random.Random, s: Scenario, path: str) -> tuple[float, ...]:
    """Four valid values for the field at path, drawn around its range."""
    field = path.rsplit(".", 1)[-1].split("[")[0]
    if field == "tau":
        return tuple(float(rng.randint(1, s.n)) for _ in range(4))
    lo, hi = {"p0": (0.0, 1.0), "gamma": (0.05, 1.0), "p_slope": (-2.0, 2.0),
              "values": (-1.0, 3.0)}.get(field, (0.0, 2.0 * get_by_path(s, path) + 1.0))
    return tuple(rng.uniform(lo, hi) for _ in range(4))


class TestPatchedTables:
    """Every grid point and threshold step compiles only the part of the game
    its path changes; the tables must equal a full compile of set_by_path."""

    @staticmethod
    def scenarios():
        rng = random.Random(2027)
        for trial in range(24):
            if trial % 4 == 3:
                s = repeated_costs_scenario(rng, with_interventions=True)
            else:
                s = random_scenario(rng, symmetric=trial % 2 == 0, with_interventions=True)
            if trial % 3 == 0:  # both mechanism modes, scalar and per-ward caps
                caps = tuple(rng.uniform(0.0, 2.0) for _ in range(s.n))
                mech = Mechanism(caps if trial % 2 else caps[0], list(MechanismMode)[trial % 2])
                s = replace(s, interventions=s.interventions + (mech,))
            yield rng, s
        for s in interchangeable_edge_scenarios():
            yield rng, s

    def test_patched_tables_equal_a_full_compile(self, monkeypatch):
        import wardgames.sweep as sweep

        patcher, checked = sweep._patcher, []

        def checking(scenario, path):
            at, integer = patcher(scenario, path)
            ref_at, ref_integer = oracle_patcher(scenario, path)
            assert integer == ref_integer

            def both(value):
                ref = ref_at(value)
                got = at(value)
                assert repr(got) == repr(ref), (scenario, path, value)
                checked.append(path.rsplit(".", 1)[-1].split("[")[0])
                return got

            return both, integer

        monkeypatch.setattr(sweep, "_patcher", checking)
        kinds = set()
        for rng, s in self.scenarios():
            kinds.update(type(iv).__name__ for iv in s.interventions)
            kinds.update(iv.mode for iv in s.interventions if isinstance(iv, Mechanism))
            kinds.update(isinstance(iv.capped_cost_expose, tuple)
                         for iv in s.interventions if isinstance(iv, Mechanism))
            kinds.add(type(s.benefit).__name__)
            for path in numeric_paths(s):
                values = path_values(rng, s, path)
                spec = SweepSpec(parameter_path=path, values=values,
                                 observables=("classification", "flip_margins"))
                assert repr(sweep_parameter(s, spec)) == repr(
                    reference_sweep_parameter(s, spec))
                lo, hi = min(values), max(values)
                if lo < hi:
                    try:
                        critical_threshold(s, path, lo, hi, rng.choice(PREDICATE_NAMES))
                    except BracketError:
                        pass
        assert {"EffortReduction", "Observability", "Mechanism", MechanismMode.ABSORB,
                MechanismMode.REDISTRIBUTE, True, False, "LinearBenefit",
                "ThresholdBenefit", "ConcaveBenefit", "TableBenefit"} <= kinds
        assert {"cost_expose", "cost_buffer", "beta_per_exposer", "tau", "beta", "gamma",
                "values", "delta_expose", "delta_buffer", "p0", "p_slope", "penalty",
                "capped_cost_expose"} <= set(checked)

    def test_patched_tables_have_their_own_classes(self):
        import wardgames.sweep as sweep

        for rng, s in self.scenarios():
            for path in numeric_paths(s):
                values = path_values(rng, s, path)
                if path.startswith("wards["):  # the other wards' costs: classes merge
                    field = path.split(".")[1]
                    values += tuple(getattr(w, field) for w in s.wards)
                at, _ = sweep._patcher(s, path)
                for value in values:
                    assert_classes(at(value)[1])

    @pytest.mark.parametrize("path, bad", [
        ("interventions[0].penalty", -1.0),
        ("interventions[0].p0", 1.5),
        ("interventions[1].delta_buffer", -0.5),
        ("interventions[2].capped_cost_expose[1]", -2.0),
        ("wards[2].cost_buffer", math.inf),
        ("benefit.tau", 5.0),
        ("benefit.tau", 2.5),
    ])
    def test_a_bad_value_raises_what_set_by_path_raises(self, path, bad):
        from wardgames.sweep import _patcher

        s = symmetric_scenario(4, 2.0, 1.0, ThresholdBenefit(tau=2, beta=3.0), [
            Observability(0.5, 0.0, 1.0), EffortReduction(0.1, 0.1),
            Mechanism((1.0, 1.0, 1.0, 1.0), MechanismMode.REDISTRIBUTE)])
        with pytest.raises(ScenarioError) as expected:
            set_by_path(s, path, bad)
        at, _ = _patcher(s, path)
        for _ in range(2):  # before and after the first compile
            with pytest.raises(ScenarioError) as got:
                at(bad)
            assert str(got.value) == str(expected.value)
            at(get_by_path(s, path))
        if path == "benefit.tau" and not bad.is_integer():
            return  # a sweep refuses this grid up front
        spec = SweepSpec(parameter_path=path, values=(get_by_path(s, path), bad))
        with pytest.raises(ScenarioError) as got:
            sweep_parameter(s, spec)
        assert str(got.value) == str(expected.value)


class TestSweepRowsAsBefore:
    """sweep_parameter returns the rows of the full-compile reference."""

    def test_rows_equal_the_reference(self):
        rng = random.Random(59)
        nash_sets = 0
        for trial in range(40):
            if trial % 4 == 3:
                s = repeated_costs_scenario(rng, with_interventions=True)
            else:
                s = random_scenario(rng, symmetric=trial % 2 == 0, with_interventions=True)
            path, lo, hi = swept_path(s)
            observables = (OBSERVABLES, ("nash_set",))[trial % 2]
            epsilon = (0.0, 0.25)[trial % 3 == 1]
            spec = SweepSpec(parameter_path=path, lo=lo, hi=hi, steps=21,
                             observables=observables)
            rows = sweep_parameter(s, spec, epsilon=epsilon)
            assert repr(rows) == repr(reference_sweep_parameter(s, spec, epsilon))
            lists = [id(row["nash_set"]) for row in rows]
            assert len(set(lists)) == len(rows)
            nash_sets += sum(a["nash_set"] == b["nash_set"] for a, b in zip(rows, rows[1:]))
        assert nash_sets > 100  # most points repeat the previous Nash set

    def test_rows_of_interchangeable_edge_scenarios(self):
        for s in interchangeable_edge_scenarios():
            for path in numeric_paths(s):
                value = get_by_path(s, path)
                spec = SweepSpec(parameter_path=path, values=(value, value, value / 2 + 0.5))
                assert repr(sweep_parameter(s, spec)) == repr(
                    reference_sweep_parameter(s, spec))

    def test_an_integer_grid_is_refused_before_any_point(self, monkeypatch):
        import wardgames.sweep as sweep
        from wardgames.cli import load_scenario

        s = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "v0_veto.json")
        analysed = []
        monkeypatch.setattr(sweep, "_analyse", lambda *a, **k: analysed.append(a))
        message = ("parameter path 'benefit.tau' names an integer field, but the grid "
                   "of 3 points includes 2.5")
        with pytest.raises(ScenarioError, match=re.escape(message)):
            sweep_parameter(s, SweepSpec("benefit.tau", lo=1, hi=4, steps=3))
        with pytest.raises(ScenarioError, match=re.escape(
                "names an integer field, but the grid of 2 points includes 3.5")):
            sweep_parameter(s, SweepSpec("benefit.tau", values=(1.0, 3.5)))
        assert analysed == []
        monkeypatch.undo()
        rows = sweep_parameter(s, SweepSpec("benefit.tau", lo=1, hi=4, steps=4))
        assert [row["value"] for row in rows] == [1.0, 2.0, 3.0, 4.0]


def first_k_oracle(s: Scenario) -> tuple[str, float | None, int]:
    """Classification, welfare gap and Nash count of a symmetric scenario from
    is_nash and welfare on the profile whose first k wards expose, per k."""
    n = s.n
    prefixes = [ActionProfile.from_mask((1 << k) - 1, n) for k in range(n + 1)]
    checks = [is_nash(s, p) for p in prefixes]
    welfares = [welfare(s, p) for p in prefixes]
    nash_k = [k for k in range(n + 1) if checks[k].is_nash]
    # ward 0 exposes in every prefix k >= 1; ward n - 1 buffers in every k < n
    if all(0 in checks[k].violating_wards for k in range(1, n + 1)):
        cls = "DominantBuffer"
    elif all(n - 1 in checks[k].violating_wards for k in range(n)):
        cls = "DominantExpose"
    elif checks[0].is_nash and checks[n].is_nash:
        cls = "Bistable"
    else:
        cls = "Mixed/Other"
    gap = max(welfares) - max(welfares[k] for k in nash_k) if nash_k else None
    return cls, gap, sum(math.comb(n, k) for k in nash_k)


class TestNashSetsOfAnySize:
    def test_sweep_without_nash_set_passes_the_cap(self):
        # at penalty 1.4 the 30 wards have 824,776,359 Nash profiles
        s = symmetric_scenario(
            30, 2.0, 1.0, LinearBenefit(0.3), [Observability(0.5, 0.0, 1.4)]
        )
        spec = SweepSpec(
            parameter_path="interventions[0].penalty",
            values=(1.0, 1.4, 2.0),
            observables=("classification", "welfare_gap"),
        )
        start = time.perf_counter()
        rows = sweep_parameter(s, spec)
        assert time.perf_counter() - start < 1.0
        for row in rows:
            point = set_by_path(s, "interventions[0].penalty", row["value"])
            cls, gap, count = first_k_oracle(point)
            assert (row["classification"], row["welfare_gap"]) == (cls, gap)
            assert enumerate_nash(point).nash_count == count
        assert first_k_oracle(s)[2] == 824_776_359

    def test_nash_set_sweep_compiles_once_and_builds_no_profiles(self, monkeypatch):
        # C(14, 7) = 3432 pivotal 7-exposer profiles plus all-Buffer per point
        import wardgames.equilibrium as equilibrium
        import wardgames.sweep as sweep
        from wardgames.interventions import payoff_tables

        s = symmetric_scenario(14, 2.0, 1.0, ThresholdBenefit(tau=7, beta=3.0))
        spec = SweepSpec(parameter_path="benefit.beta", lo=2.0, hi=4.0, steps=21,
                         observables=("nash_set", "flip_margins"))
        compiles = []
        built = []
        post_init = ActionProfile.__post_init__

        def counting_tables(scenario):
            compiles.append(scenario)
            return payoff_tables(scenario)

        def counting_post_init(profile):
            built.append(profile)
            post_init(profile)

        monkeypatch.setattr(sweep, "payoff_tables", counting_tables)
        monkeypatch.setattr(equilibrium, "payoff_tables", counting_tables)
        monkeypatch.setattr(ActionProfile, "__post_init__", counting_post_init)
        rows = sweep_parameter(s, spec)
        monkeypatch.undo()
        assert len(compiles) == 1
        assert len(built) <= 2 * 21
        assert all(len(row["nash_set"]) == 3433 for row in rows)
        for row in rows[::10]:
            report = enumerate_nash(set_by_path(s, "benefit.beta", row["value"]))
            assert row["nash_set"] == [str(p) for p, _ in report.nash_profiles]


def pole_is_nash(scenario: Scenario, path: str, value: float, predicate: str,
                 epsilon: float) -> bool:
    """is_nash of the predicate's pole profile in the scenario at `value`."""
    s = set_by_path(scenario, path, value)
    pole = ActionProfile.all_expose if "expose" in predicate else ActionProfile.all_buffer
    return is_nash(s, pole(s.n), epsilon).is_nash


def assert_certified(scenario, path, lo, hi, predicate, result, epsilon=0.0):
    """The bracket holds two adjacent values inside [lo, hi] at which the
    pole's is_nash takes its values at lo and at hi, and these differ."""
    a, b = result.bracket
    integer = isinstance(get_by_path(scenario, path), int)
    assert lo <= a < b <= hi
    assert b == (a + 1 if integer else math.nextafter(a, math.inf))
    assert result.critical_value == b
    assert result.iterations <= 128
    nash = [pole_is_nash(scenario, path, v, predicate, epsilon) for v in (lo, a, b, hi)]
    assert nash[0] == nash[1] != nash[2] == nash[3]
    assert result.true_at_high == (nash[3] != result.predicate.endswith("_not_nash"))


def _ordinal(x: float) -> int:
    (bits,) = struct.unpack(">Q", struct.pack(">d", x))
    return bits if bits >> 63 == 0 else (1 << 63) - bits


def _from_ordinal(k: int) -> float:
    (x,) = struct.unpack(">d", struct.pack(">Q", abs(k)))
    return math.copysign(x, k)


def plain_bisection(scenario, path, lo, hi, predicate, epsilon):
    """The flip of the pole's is_nash found by halving [lo, hi] in float bit
    order from no hint, or None when is_nash is the same at both ends."""
    a, b = _ordinal(lo), _ordinal(hi)
    at_lo = pole_is_nash(scenario, path, lo, predicate, epsilon)
    if pole_is_nash(scenario, path, hi, predicate, epsilon) == at_lo:
        return None
    while b - a > 1:
        mid = (a + b) // 2
        if pole_is_nash(scenario, path, _from_ordinal(mid), predicate, epsilon) == at_lo:
            a = mid
        else:
            b = mid
    return _from_ordinal(a), _from_ordinal(b)


PREDICATE_NAMES = ("all_buffer_nash", "all_buffer_not_nash", "all_expose_nash",
                   "all_expose_not_nash")


def canonical_case(rng: random.Random, s: Scenario) -> tuple[Scenario, str, float, float]:
    """The scenario with one more intervention, or none, and the path and
    bracket `report` would search, or a ward's exposure cost."""
    max_ce = max(w.cost_expose for w in s.wards)
    ivs, kind = s.interventions, rng.randrange(4)
    path = f"interventions[{len(ivs)}]."
    if kind == 0:
        ivs += (EffortReduction(0.0, rng.uniform(0.0, 0.5)),)
        return replace(s, interventions=ivs), path + "delta_expose", 0.0, 2.0 * max_ce
    if kind == 1:
        ivs += (Observability(rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0), 0.0),)
        return replace(s, interventions=ivs), path + "penalty", 0.0, 4.0 * max_ce
    if kind == 2:
        mode = rng.choice(list(MechanismMode))
        ivs += (Mechanism(0.0, mode),)
        return replace(s, interventions=ivs), path + "capped_cost_expose", 0.0, max_ce
    return s, f"wards[{rng.randrange(s.n)}].cost_expose", 0.0, 2.0 * max_ce + 1.0


class TestCriticalThreshold:
    def test_observability_threshold(self):
        s = obs_scenario(penalty=0.0)
        path = "interventions[0].penalty"
        result = critical_threshold(s, path, 0.0, 5.0, "all_buffer_not_nash")
        assert result.bracket == (1.4, math.nextafter(1.4, math.inf))
        assert result.critical_value == 1.4000000000000001
        assert result.true_at_high
        # the secant hint lands on the flip: two evaluations inside [0, 5]
        assert result.iterations == 2
        assert_certified(s, path, 0.0, 5.0, "all_buffer_not_nash", result)

    def test_effort_threshold(self, s0):
        s = Scenario(s0.wards, s0.benefit, (EffortReduction(0.0, 0.0),))
        path = "interventions[0].delta_expose"
        result = critical_threshold(s, path, 0.0, 1.0, "all_buffer_not_nash")
        assert result.bracket == (0.7, math.nextafter(0.7, math.inf))
        assert_certified(s, path, 0.0, 1.0, "all_buffer_not_nash", result)

    def test_mechanism_threshold(self, s0):
        s = Scenario(s0.wards, s0.benefit, (Mechanism(1.2),))
        path = "interventions[0].capped_cost_expose"
        result = critical_threshold(s, path, 0.0, 2.0, "all_expose_nash")
        assert result.bracket == (1.3, math.nextafter(1.3, math.inf))
        assert not result.true_at_high
        assert_certified(s, path, 0.0, 2.0, "all_expose_nash", result)

    def test_predicate_name_normalisation(self):
        s = obs_scenario(penalty=0.0)
        for name in ("all-Buffer not Nash", "ALL_BUFFER_NOT_NASH", "all buffer not nash"):
            result = critical_threshold(s, "interventions[0].penalty", 0.0, 5.0, name)
            assert result.predicate == "all_buffer_not_nash"

    def test_unknown_predicate_rejected(self, s0):
        with pytest.raises(ScenarioError):
            critical_threshold(s0, "wards[0].cost_expose", 0.0, 5.0, "nonsense")

    def test_bracket_without_flip_raises(self):
        s = obs_scenario(penalty=0.0)
        with pytest.raises(BracketError):
            critical_threshold(
                s, "interventions[0].penalty", 0.0, 1.0, "all_buffer_not_nash"
            )

    def test_bisection_matches_closed_form_randomised(self):
        # symmetric linear family: F* = (c(E) - c(B) - B(1) + B(0)) / p,
        # delta_E* = c(E) - c(B) - B(1) + B(0) + delta_B, cap* = c(B) + B(N) - B(N-1).
        # The float margins round at the scale of the largest term they add, so
        # each closed form lies within two ulps of that term of the bracket.
        rng = random.Random(89)
        for _ in range(25):
            n = rng.randint(2, 8)
            cb = rng.uniform(0.2, 1.5)
            ce = cb + rng.uniform(0.1, 2.0)
            beta = rng.uniform(0.0, 0.9 * (ce - cb))
            p = rng.uniform(0.2, 1.0)
            d_b = rng.uniform(0.0, 0.1)
            base = symmetric_scenario(n, ce, cb, LinearBenefit(beta))
            b1, bn1, bn = (base.benefit_at(k) for k in (1, n - 1, n))
            scale = math.ulp(max(ce, cb, bn))
            cases = [
                (Observability(p0=p, penalty=0.0), "penalty", 2.0 * ce / p,
                 "all_buffer_not_nash", (ce - cb - b1) / p, 2 * scale / p),
                (EffortReduction(0.0, d_b), "delta_expose", ce, "all_buffer_not_nash",
                 ce - cb - b1 + d_b, 2 * scale),
                (Mechanism(0.0), "capped_cost_expose", ce, "all_expose_nash",
                 cb + bn - bn1, 2 * scale),
            ]
            for iv, name, hi, predicate, closed_form, tolerance in cases:
                s = replace(base, interventions=(iv,))
                path = f"interventions[0].{name}"
                result = critical_threshold(s, path, 0.0, hi, predicate)
                assert_certified(s, path, 0.0, hi, predicate, result)
                a, b = result.bracket
                assert a - tolerance <= closed_form <= b + tolerance

    def test_observability_and_effort_thresholds_coincide(self):
        # p * F* equals the critical effort differential for the same baseline
        rng = random.Random(97)
        for _ in range(15):
            n = rng.randint(2, 6)
            cb = rng.uniform(0.2, 1.5)
            ce = cb + rng.uniform(0.1, 2.0)
            beta = rng.uniform(0.0, 0.9 * (ce - cb))
            p = rng.uniform(0.3, 1.0)
            base = symmetric_scenario(n, ce, cb, LinearBenefit(beta))
            s_obs = Scenario(
                base.wards, base.benefit, (Observability(p0=p, penalty=0.0),)
            )
            s_eff = Scenario(base.wards, base.benefit, (EffortReduction(0.0, 0.0),))
            hi = 4.0 * (ce - cb) / p + 1.0
            f_star = critical_threshold(
                s_obs, "interventions[0].penalty", 0.0, hi, "all_buffer_not_nash"
            ).critical_value
            d_star = critical_threshold(
                s_eff, "interventions[0].delta_expose", 0.0, ce, "all_buffer_not_nash"
            ).critical_value
            assert p * f_star == pytest.approx(d_star, abs=1e-12)

    def test_asymmetric_threshold_is_the_first_ward_to_flip(self, s0):
        # ward 3 (c(E) = 3) flips at delta_E = 1.7, after the others at 0.7
        wards = s0.wards[:3] + (type(s0.wards[0])(3, 3.0, 1.0),)
        s = Scenario(wards, s0.benefit, (EffortReduction(0.0, 0.0),))
        assert payoff_tables(s).classes == ((0, 0b0111), (3, 0b1000))
        path = "interventions[0].delta_expose"
        result = critical_threshold(s, path, 0.0, 2.5, "all_buffer_not_nash")
        assert result.bracket == (0.7, math.nextafter(0.7, math.inf))
        result = critical_threshold(s, path, 0.0, 2.5, "all_buffer_nash")
        assert result.bracket == (0.7, math.nextafter(0.7, math.inf))
        assert_certified(s, path, 0.0, 2.5, "all_buffer_nash", result)

    @pytest.mark.parametrize(
        "cost_expose, lo, hi", [(3e9, 0.0, 1e10), (1.5e308, 1e308, 1.7e308)]
    )
    def test_bisection_stops_at_adjacent_floats(self, cost_expose, lo, hi):
        # near the root the float spacing is far above 1e-9; in the second
        # bracket hi - lo is finite but lo + hi overflows
        s = symmetric_scenario(
            4, cost_expose, 1.0, LinearBenefit(0.3), [Observability(1.0, 0.0, 0.0)]
        )
        start = time.perf_counter()
        path = "interventions[0].penalty"
        result = critical_threshold(s, path, lo, hi, "all_buffer_not_nash")
        assert time.perf_counter() - start < 1.0
        assert_certified(s, path, lo, hi, "all_buffer_not_nash", result)
        a, b = result.bracket
        assert a <= cost_expose - 1.0 - 0.3 <= b

    def test_threshold_on_veto_game_mechanism(self, v0):
        # all-Expose is already Nash in V0; cap sweep cannot change that
        s = Scenario(v0.wards, v0.benefit, (Mechanism(2.0),))
        with pytest.raises(BracketError):
            critical_threshold(
                s, "interventions[0].capped_cost_expose", 0.0, 2.0, "all_expose_nash"
            )

    def test_equals_plain_bisection_on_random_scenarios(self, monkeypatch):
        # Canonical paths and ward costs enter every pole margin monotonically,
        # so the flip is unique and the hinted search must find the pair a
        # hint-free bisection finds. With a full compile per step in place of
        # the patched tables, the search must return the same result.
        import wardgames.sweep as sweep

        def compiling_every_step(*args):
            with monkeypatch.context() as m:
                m.setattr(sweep, "_patcher", oracle_patcher)
                return critical_threshold(*args)

        rng = random.Random(131)
        found = 0
        for trial in range(240):
            s = (repeated_costs_scenario(rng, with_interventions=True) if trial % 4 == 3
                 else random_scenario(rng, symmetric=trial % 2 == 0, with_interventions=True))
            s, path, lo, hi = canonical_case(rng, s)
            predicate = rng.choice(PREDICATE_NAMES)
            epsilon = (0.0, rng.uniform(0.0, 0.3))[trial % 3 == 1]
            expected = plain_bisection(s, path, lo, hi, predicate, epsilon)
            if expected is None:
                with pytest.raises(BracketError):
                    critical_threshold(s, path, lo, hi, predicate, epsilon)
                continue
            result = critical_threshold(s, path, lo, hi, predicate, epsilon)
            assert result.bracket == expected, (s, path, predicate, epsilon)
            assert_certified(s, path, lo, hi, predicate, result, epsilon)
            reference = compiling_every_step(s, path, lo, hi, predicate, epsilon)
            assert repr(result) == repr(reference)
            found += 1
        assert found > 100

    def test_one_threshold_compiles_once(self, monkeypatch):
        import wardgames.sweep as sweep

        compiles = []

        def counting(scenario):
            compiles.append(scenario)
            return payoff_tables(scenario)

        monkeypatch.setattr(sweep, "payoff_tables", counting)
        s = replace(obs_scenario(penalty=0.0), interventions=(
            Observability(0.5, 0.0, 0.0), EffortReduction(0.0, 0.0), Mechanism(2.0)))
        for path, hi, predicate in (
                ("interventions[0].penalty", 5.0, "all_buffer_not_nash"),
                ("interventions[1].delta_expose", 4.0, "all_buffer_not_nash"),
                ("interventions[2].capped_cost_expose", 2.0, "all_expose_not_nash"),
                ("wards[1].cost_buffer", 4.0, "all_buffer_not_nash"),
                ("benefit.beta_per_exposer", 3.0, "all_buffer_not_nash")):
            compiles.clear()
            result = critical_threshold(s, path, 0.0, hi, predicate)
            assert result.iterations > 0 and len(compiles) == 1, path

    @pytest.mark.parametrize("trial", range(6))
    def test_certified_where_the_hint_is_poor(self, trial):
        # gamma enters B(k) = beta * k^gamma non-linearly and p_slope can push
        # p(k) past its clamp, so the secant hint may land far from the flip
        rng = random.Random(trial)
        for _ in range(20):
            s = random_scenario(rng, with_interventions=True)
            max_ce = max(w.cost_expose for w in s.wards)
            s = replace(s, benefit=ConcaveBenefit(rng.uniform(0.5, 4.0) * max_ce, 0.5),
                        interventions=s.interventions + (Observability(0.3, 0.0, max_ce),))
            k = len(s.interventions) - 1
            for path, lo, hi in (("benefit.gamma", 1e-3, 1.0),
                                 (f"interventions[{k}].p_slope", -3.0, 3.0)):
                for predicate in PREDICATE_NAMES:
                    try:
                        result = critical_threshold(s, path, lo, hi, predicate)
                    except BracketError:
                        continue
                    assert_certified(s, path, lo, hi, predicate, result)

    def test_flip_at_an_end_of_the_bracket(self):
        # the flip pair itself, and brackets that end on one of its values
        s = obs_scenario(penalty=0.0)
        path = "interventions[0].penalty"
        a, b = 1.4, math.nextafter(1.4, math.inf)
        for lo, hi in ((a, b), (0.0, b), (a, 5.0), (a, 1e300), (-0.0, b)):
            for predicate in ("all_buffer_nash", "all_buffer_not_nash"):
                result = critical_threshold(s, path, lo, hi, predicate)
                assert result.bracket == (a, b)
                assert_certified(s, path, lo, hi, predicate, result)
        assert critical_threshold(s, path, a, b, "all_buffer_nash").iterations == 0
        # the margin is 0 at a, so the hint is a itself; clamped into the open
        # bracket it becomes b, the only value evaluated
        assert critical_threshold(s, path, a, 5.0, "all_buffer_nash").iterations == 1

    def test_integer_field(self):
        # the veto game's all-Expose profile is Nash only while tau = N
        s = symmetric_scenario(6, 2.0, 1.0, ThresholdBenefit(tau=3, beta=3.0))
        for lo in (1.0, 3.0, 5.0):
            result = critical_threshold(s, "benefit.tau", lo, 6.0, "all_expose_not_nash")
            assert result.bracket == (5.0, 6.0)
            assert_certified(s, "benefit.tau", lo, 6.0, "all_expose_not_nash", result)
        with pytest.raises(ScenarioError, match="integer field; got 1.5"):
            critical_threshold(s, "benefit.tau", 1.5, 6.0, "all_expose_not_nash")

    def test_ends_are_evaluated_at_the_given_values(self):
        s = obs_scenario(penalty=0.0)
        with pytest.raises(ScenarioError, match="penalty must be finite and >= 0"):
            critical_threshold(s, "interventions[0].penalty", -1.0, 5.0,
                               "all_buffer_not_nash")


class TestPredicates:
    def test_predicates_equal_their_is_nash_form(self):
        rng = random.Random(101)
        for trial in range(200):
            if trial % 4 == 3:
                s = repeated_costs_scenario(rng, with_interventions=True)
            else:
                s = random_scenario(rng, symmetric=trial % 2 == 0, with_interventions=True)
            poles = {"buffer": ActionProfile.all_buffer(s.n),
                     "expose": ActionProfile.all_expose(s.n)}
            epsilon = (0.0, rng.uniform(0.0, 0.5))[trial % 3 == 1]
            if trial % 3 == 2:  # exactly one pole gain: the tie must not count
                expose = poles["expose"]
                dev = expose.with_action(0, expose.actions[0].flipped())
                epsilon = abs(effective_payoff(s, dev, 0) - effective_payoff(s, expose, 0))
            tables = payoff_tables(s)
            for name, pred in PREDICATES.items():
                nash = is_nash(s, poles[name.split("_")[1]], epsilon).is_nash
                assert pred(tables, epsilon) == (nash != name.endswith("_not_nash")), (name, s)
