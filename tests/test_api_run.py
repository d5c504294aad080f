"""The unified run() entry point and its bit-identity to the primitives."""

import warnings

from repro.api import (
    ArtefactSpec,
    ControlSpec,
    ExperimentSpec,
    FleetPlan,
    ScenarioSpec,
    SweepSpec,
    run,
    spec_from_config,
    spec_from_scenario,
    spec_hash,
)
from repro.core.system import HanConfig, execute_config
from repro.neighborhood import build_fleet, execute_fleet
from repro.sim.units import MINUTE
from repro.workloads import paper_scenario

SHORT = 45 * MINUTE


def series_points(series):
    return list(series)


def assert_same_run(a, b):
    """Bit-identical run results (modulo the unpicklable agents)."""
    assert series_points(a.load_w) == series_points(b.load_w)
    assert a.stats() == b.stats()
    assert [r.arrival_time for r in a.requests] == \
        [r.arrival_time for r in b.requests]
    assert [r.completed_at for r in a.requests] == \
        [r.completed_at for r in b.requests]
    assert a.bursts == b.bursts


def single_spec(seed=1):
    return ExperimentSpec(
        name="api-single",
        scenario=ScenarioSpec(preset="paper-low"),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(seed,), until_s=SHORT)


def test_run_single_shape_and_provenance():
    spec = single_spec()
    result = run(spec)
    assert len(result.runs) == 1
    assert result.neighborhood is None and result.artefact is None
    assert result.provenance.spec_hash == spec_hash(spec)
    assert result.provenance.seeds == (1,)
    assert result.provenance.code_version
    assert result.run_result().stats().peak_kw > 0
    assert "spec " + result.provenance.short_hash in result.render()


def test_run_is_job_count_invariant():
    spec = ExperimentSpec(
        name="api-jobs", scenario=ScenarioSpec(preset="paper-low"),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(1, 2), until_s=SHORT)
    serial = run(spec, jobs=1)
    parallel = run(spec, jobs=2)
    for a, b in zip(serial.runs, parallel.runs):
        assert_same_run(a, b)


def test_run_sweep_reshapes():
    spec = ExperimentSpec(
        name="api-sweep", kind="sweep",
        scenario=ScenarioSpec(preset="paper-low"),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(1,), until_s=SHORT,
        sweep=SweepSpec(rates=(4.0, 18.0)))
    result = run(spec)
    assert len(result.runs) == 2 * 2 * 1
    table = result.sweep_table()
    assert set(table) == {4.0, 18.0}
    for cell in table.values():
        assert set(cell) == {"coordinated", "uncoordinated"}
        for outcome in cell.values():
            assert len(outcome.results) == 1


def test_run_neighborhood_attaches_spec():
    spec = ExperimentSpec(
        name="api-nbhd", kind="neighborhood",
        scenario=ScenarioSpec(horizon_s=SHORT),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(3,), fleet=FleetPlan(homes=2, mix="mixed"))
    result = run(spec)
    assert result.neighborhood is not None
    assert result.neighborhood.spec is spec
    assert len(result.neighborhood.homes) == 2
    assert result.neighborhood.feeder_stats().diversity_factor >= 1.0 - 1e-9


def test_run_artefact_kind():
    spec = ExperimentSpec(
        name="api-artefact", kind="artefact",
        artefact=ArtefactSpec(kind="cp-trace", params={"rounds": 2}))
    result = run(spec)
    assert result.artefact is not None
    assert "Communication Plane" in result.artefact.text


# -- run() is bit-identical to the execution primitives ----------------------


def test_run_single_matches_execute_config():
    config = HanConfig(scenario=paper_scenario("low"), policy="coordinated",
                       cp_fidelity="ideal", seed=4)
    via_api = run(spec_from_config(config, until=SHORT)).runs[0]
    assert_same_run(via_api, execute_config(config, until=SHORT))


def test_run_sweep_by_policy_matches_execute_config():
    scenario = paper_scenario("low")
    spec = ExperimentSpec(
        name="x", kind="sweep", scenario=spec_from_scenario(scenario),
        control=ControlSpec(cp_fidelity="ideal"), seeds=(1,),
        until_s=SHORT, sweep=SweepSpec(rates=()))
    via_api = run(spec).by_policy()
    assert set(via_api) == {"coordinated", "uncoordinated"}
    for policy, outcome in via_api.items():
        config = HanConfig(scenario=scenario, policy=policy,
                           cp_fidelity="ideal", seed=1)
        [one] = outcome.results
        assert_same_run(one, execute_config(config, until=SHORT))


def test_run_sweep_table_matches_execute_config():
    from dataclasses import replace
    scenario = paper_scenario("low")
    spec = ExperimentSpec(
        name="x", kind="sweep",
        # the rate axis owns each cell's rate; the base scenario's own
        # rate would be dead configuration the validator rejects
        scenario=replace(spec_from_scenario(scenario),
                         rate_per_hour=None),
        control=ControlSpec(cp_fidelity="ideal"), seeds=(1,),
        until_s=SHORT, sweep=SweepSpec(rates=(18.0,)))
    via_api = run(spec).sweep_table()
    assert set(via_api) == {18.0}
    for policy, outcome in via_api[18.0].items():
        config = HanConfig(scenario=scenario.with_rate(18.0),
                           policy=policy, cp_fidelity="ideal", seed=1)
        [one] = outcome.results
        assert_same_run(one, execute_config(config, until=SHORT))


def test_run_neighborhood_matches_execute_fleet():
    fleet = build_fleet(2, mix="mixed", seed=3, cp_fidelity="ideal",
                        horizon=SHORT)
    spec = ExperimentSpec(
        name="x", kind="neighborhood",
        scenario=ScenarioSpec(horizon_s=SHORT),
        control=ControlSpec(cp_fidelity="ideal"), seeds=(3,),
        fleet=FleetPlan(homes=2, mix="mixed"))
    via_api = run(spec).neighborhood
    direct = execute_fleet(fleet)
    assert series_points(via_api.feeder_w) == \
        series_points(direct.feeder_w)
    for a, b in zip(via_api.homes, direct.homes):
        assert_same_run(a, b)


def test_execute_fleet_is_warning_free():
    fleet = build_fleet(2, mix="mixed", seed=1, cp_fidelity="ideal",
                        horizon=10 * MINUTE)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        execute_fleet(fleet)
