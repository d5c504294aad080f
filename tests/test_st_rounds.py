"""Communication-Plane drivers: Ideal, Sampled (calibrated), SlotLevel."""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio import (
    DriftingClock,
    EnergyMeter,
    FloodMedium,
    RadioConfig,
    flocklab26,
)
from repro.sim import RandomStreams, Simulator
from repro.st import (
    GlossyConfig,
    IdealCP,
    MiniCastConfig,
    SampledCP,
    SlotLevelCP,
)
from repro.st import rounds as cp_rounds


class ScriptedApp:
    """Minimal CpApplication: per-node outgoing items + delivery log."""

    def __init__(self, nodes):
        self.outbox = {n: None for n in nodes}
        self.deliveries = []          # (node, packets, round)
        self.payload_calls = 0

    def cp_payload(self, node, round_index):
        self.payload_calls += 1
        payload = self.outbox.get(node)
        if round_index == -1:
            return payload if payload is not None else f"state-{node}"
        self.outbox[node] = None
        return payload

    def cp_deliver(self, node, packets, round_index):
        self.deliveries.append((node, dict(packets), round_index))


class PendingApp(ScriptedApp):
    """ScriptedApp that names its pending nodes and logs delivery times."""

    def __init__(self, sim, nodes):
        super().__init__(nodes)
        self.sim = sim

    def cp_pending_nodes(self):
        return {node for node, item in self.outbox.items()
                if item is not None}

    def cp_deliver(self, node, packets, round_index):
        self.deliveries.append((self.sim.now, node, dict(packets),
                                round_index))


class CountingIdealCP(IdealCP):
    round_calls = 0

    def _round(self):
        self.round_calls += 1
        return super()._round()


def test_ideal_cp_delivers_to_all():
    sim = Simulator()
    app = ScriptedApp(range(4))
    cp = IdealCP(sim, app, list(range(4)), period=2.0)
    app.outbox[1] = "req"
    cp.start()
    sim.run(until=1.0)
    receivers = {node for node, packets, _ in app.deliveries
                 if packets.get(1) == "req"}
    assert receivers == {0, 1, 2, 3}


def test_ideal_cp_skips_empty_rounds():
    sim = Simulator()
    app = ScriptedApp(range(3))
    cp = IdealCP(sim, app, list(range(3)), period=2.0)
    cp.start()
    sim.run(until=10.0)
    assert app.deliveries == []
    # rounds at 0, 2, ..., 10 s: the round on the horizon runs before
    # the stop event
    assert cp.stats.rounds_total == 6
    assert cp.stats.rounds_active == 0


def test_ideal_cp_respects_failed_nodes():
    sim = Simulator()
    app = ScriptedApp(range(3))
    cp = IdealCP(sim, app, list(range(3)), period=2.0)
    cp.fail_node(2)
    app.outbox[0] = "x"
    cp.start()
    sim.run(until=1.0)
    receivers = {node for node, _, _ in app.deliveries}
    assert 2 not in receivers
    cp.recover_node(2)
    app.outbox[0] = "y"
    sim.run(until=3.0)
    receivers = {node for node, packets, _ in app.deliveries
                 if "y" in packets.values()}
    assert 2 in receivers


def test_cp_without_pending_nodes_calls_every_node_every_round():
    """An app that cannot name its pending nodes gets no skipped rounds."""
    sim = Simulator()
    app = ScriptedApp(range(3))
    cp = IdealCP(sim, app, list(range(3)), period=2.0)
    cp.start()
    sim.run(until=10.0)
    assert cp.stats.rounds_total == 6
    assert app.payload_calls == cp.stats.rounds_total * 3


def test_quiet_hour_runs_two_rounds():
    """Quiet rounds before the next queued event are counted, not run."""
    sim = Simulator()
    app = PendingApp(sim, range(3))
    cp = CountingIdealCP(sim, app, list(range(3)), period=2.0)
    cp.start()
    sim.run(until=3600.0)
    assert cp.stats.rounds_total == 1801
    assert cp.round_index == 1801
    assert cp.round_calls <= 2


def test_cp_cannot_start_twice():
    sim = Simulator()
    app = ScriptedApp(range(2))
    cp = IdealCP(sim, app, [0, 1])
    cp.start()
    with pytest.raises(RuntimeError):
        cp.start()


def _flood_medium(seed=3):
    streams = RandomStreams(seed)
    channel = flocklab26().make_channel(rng=streams.stream("channel"))
    return FloodMedium(channel, streams.stream("floods")), streams


def test_calibration_shape_and_quality():
    medium, _ = _flood_medium()
    calibration = SampledCP.calibrate(medium, list(range(26)), rounds=5)
    assert calibration.delivery_prob.shape == (26, 26)
    assert np.all(np.diag(calibration.delivery_prob) == 1.0)
    assert calibration.mean_delivery > 0.98
    assert calibration.round_duration > 0.0
    assert calibration.round_energy_j > 0.0


def test_sampled_cp_perfect_matrix_delivers_everything():
    sim = Simulator()
    nodes = list(range(5))
    app = ScriptedApp(nodes)
    cp = SampledCP(sim, app, nodes, np.ones((5, 5)),
                   RandomStreams(0).stream("cp"), period=2.0)
    app.outbox[2] = "req"
    cp.start()
    sim.run(until=1.0)
    receivers = {node for node, packets, _ in app.deliveries
                 if packets.get(2) == "req"}
    assert receivers == set(nodes)


def test_sampled_cp_zero_matrix_only_self_delivers():
    sim = Simulator()
    nodes = list(range(4))
    app = ScriptedApp(nodes)
    matrix = np.zeros((4, 4))
    cp = SampledCP(sim, app, nodes, matrix,
                   RandomStreams(0).stream("cp"), period=2.0,
                   refresh_every=1000)
    app.outbox[1] = "req"
    cp.start()
    sim.run(until=1.0)
    receivers = {node for node, packets, _ in app.deliveries
                 if packets.get(1) == "req"}
    assert receivers == {1}  # origin always holds its own item


def test_sampled_cp_refresh_heals_misses():
    """After a missed delivery, the refresh round re-shares state."""
    sim = Simulator()
    nodes = [0, 1]
    app = ScriptedApp(nodes)
    # 0 -> 1 never delivers on the first try... but refresh retries using
    # cp_payload(node, -1), which re-offers state indefinitely.
    matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
    cp = SampledCP(sim, app, nodes, matrix,
                   RandomStreams(0).stream("cp"), period=1.0,
                   refresh_every=2)
    app.outbox[0] = "v"
    cp.start()
    sim.run(until=10.0)
    # The miss marks _had_miss; refresh rounds keep re-sharing, so the
    # stats must show repeated attempts (misses accumulate).
    assert cp.stats.misses >= 2


def test_sampled_cp_rejects_bad_matrix_shape():
    sim = Simulator()
    app = ScriptedApp(range(3))
    with pytest.raises(ValueError):
        SampledCP(sim, app, [0, 1, 2], np.ones((2, 2)),
                  RandomStreams(0).stream("cp"))


def test_slot_level_cp_end_to_end():
    medium, streams = _flood_medium(seed=4)
    sim = Simulator()
    nodes = list(range(26))
    app = ScriptedApp(nodes)
    energy = {n: EnergyMeter() for n in nodes}
    clocks = {n: DriftingClock(sim, drift_ppm=float(
        streams.stream("drift").normal(0, 20))) for n in nodes}
    cp = SlotLevelCP(sim, app, nodes, medium, period=2.0,
                     clocks=clocks, sync_rng=streams.stream("sync"),
                     energy=energy)
    app.outbox[7] = "req"
    cp.start()
    sim.run(until=1.0)
    receivers = {node for node, packets, _ in app.deliveries
                 if packets.get(7) == "req"}
    assert len(receivers) >= 25  # all-to-all modulo rare flood losses
    assert cp.stats.duration_on_air > 0.0
    assert all(m.radio_on_time > 0 for m in energy.values())
    # sync applied: every synced clock agrees with node 0 within 100 us
    assert cp.sync is not None
    assert cp.sync.stats.samples > 0
    assert cp.sync.stats.max_abs_error < 100e-6


def test_slot_level_cp_single_node_noop():
    medium, _ = _flood_medium()
    sim = Simulator()
    app = ScriptedApp([0])
    cp = SlotLevelCP(sim, app, [0], medium, period=2.0)
    cp.fail_node(0)
    cp.start()
    sim.run(until=5.0)
    assert app.deliveries == []


# ---------------------------------------------------------------------------
# Event-driven rounds against the periodic loop
# ---------------------------------------------------------------------------

class _PeriodicRounds:
    """The reference loop: one timeout, hence one wake-up, per round."""

    def _run(self):
        while True:
            self._round()
            self.round_index += 1
            yield self.sim.timeout(self.period)


class PeriodicIdealCP(_PeriodicRounds, IdealCP):
    pass


class PeriodicSampledCP(_PeriodicRounds, SampledCP):
    pass


_KINDS = ("share", "bounce", "fail", "recover")
#: (grid instant index, offset in periods, kind, node); offset 0 lands
#: exactly on a round instant, so it ties with the round
_ACTION = st.tuples(st.integers(0, 40), st.sampled_from([0.0, 0.0, 0.37]),
                    st.sampled_from(_KINDS), st.integers(0, 4))
_SCENARIO = st.fixed_dictionaries({
    "sampled": st.booleans(),
    "period": st.sampled_from([0.3, 0.5, 2.0]),
    "nodes": st.integers(2, 5),
    "seed": st.integers(0, 2**16),
    "refresh_every": st.integers(1, 6),
    "scripts": st.lists(st.lists(_ACTION, max_size=8), max_size=3),
    # (grid index, offset in periods, external changes before the next run)
    "runs": st.lists(st.tuples(
        st.integers(0, 45), st.sampled_from([0.0, 0.5]),
        st.lists(st.tuples(st.sampled_from(_KINDS), st.integers(0, 4)),
                 max_size=3)), min_size=1, max_size=4),
})


def _apply(app, cp, kind, node, tag):
    node %= len(cp.nodes)
    if kind in ("share", "bounce"):
        app.outbox[node] = tag
    elif kind == "fail":
        cp.fail_node(node)
    else:
        cp.recover_node(node)


def _simulate(scenario, ideal_cls, sampled_cls):
    """Drive one CP through ``scenario``; everything it observably did."""
    period, n = scenario["period"], scenario["nodes"]
    grid = [0.0]
    for _ in range(48):
        grid.append(grid[-1] + period)
    sim = Simulator()
    nodes = list(range(n))
    app = PendingApp(sim, nodes)
    rng = np.random.default_rng(scenario["seed"])
    if scenario["sampled"]:
        matrix = np.random.default_rng(scenario["seed"]).choice(
            [0.0, 0.5, 0.9, 1.0], size=(n, n))
        cp = sampled_cls(sim, app, nodes, matrix, rng, period=period,
                         refresh_every=scenario["refresh_every"],
                         round_duration=0.013)
    else:
        cp = ideal_cls(sim, app, nodes, period=period)

    def script(actions, name):
        for i, (k, offset, kind, node) in enumerate(sorted(actions)):
            yield sim.timeout_at(grid[k] + offset * period)
            if kind == "bounce":  # re-queue behind everything at this instant
                yield sim.timeout(0.0)
            _apply(app, cp, kind, node, f"{name}-{i}")

    for s, actions in enumerate(scenario["scripts"]):
        sim.spawn(script(actions, f"s{s}"))
    cp.start()
    for r, (k, offset, changes) in enumerate(sorted(scenario["runs"])):
        sim.run(until=max(grid[k] + offset * period, sim.now))
        for c, (kind, node) in enumerate(changes):
            _apply(app, cp, kind, node, f"ext-{r}-{c}")
    return (app.deliveries, cp.stats, cp.round_index, sim.now,
            rng.bit_generator.state)


@settings(max_examples=300, deadline=None)
@given(_SCENARIO)
def test_event_driven_rounds_match_periodic_rounds(scenario):
    """Skipping quiet rounds is invisible: same deliveries (time, node,
    packets, round index), same CpStats, same Generator state."""
    reference = _simulate(scenario, PeriodicIdealCP, PeriodicSampledCP)
    assert _simulate(scenario, IdealCP, SampledCP) == reference


# ---------------------------------------------------------------------------
# Calibration memo
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_memo():
    cp_rounds.reset_calibration_memo()
    yield cp_rounds.CALIBRATION_STATS
    cp_rounds.reset_calibration_memo()


def _calibration_input(seed=3, config=None, nodes=range(8), minicast=None,
                       rounds=2, advance=0):
    streams = RandomStreams(seed)
    channel = flocklab26().make_channel(
        rng=streams.stream("channel"),
        config=config or RadioConfig())
    medium = FloodMedium(channel, streams.stream("floods"))
    medium.rng.random(advance)
    return medium, list(nodes), minicast, rounds


def _same_calibration(a, b):
    return (np.array_equal(a.delivery_prob, b.delivery_prob)
            and a.round_duration == b.round_duration
            and a.round_energy_j == b.round_energy_j)


def test_calibration_memo_hit_equals_fresh_calibration(fresh_memo):
    first = _calibration_input()
    fresh = SampledCP.calibrate(*first)
    fresh_state = first[0].rng.bit_generator.state
    assert fresh_memo == {"hits": 0, "misses": 1}
    again = _calibration_input()  # same fresh streams
    cached = SampledCP.calibrate(*again)
    assert fresh_memo == {"hits": 1, "misses": 1}
    assert _same_calibration(cached, fresh)
    # The Generator ends where the measurement itself would leave it.
    assert again[0].rng.bit_generator.state == fresh_state
    assert again[0].rng.random() == first[0].rng.random()


@pytest.mark.parametrize("change", [
    {"seed": 4},                                       # power matrix
    {"config": RadioConfig(ci_derating=0.9)},          # radio config
    {"nodes": range(7)},                               # node set
    {"minicast": MiniCastConfig(aggregation=1)},       # MiniCast config
    {"minicast": MiniCastConfig(flood=GlossyConfig(n_tx=2))},  # Glossy
    {"rounds": 3},                                     # rounds
    {"advance": 1},                                    # Generator state
], ids=["power", "radio", "nodes", "minicast", "glossy", "rounds", "rng"])
def test_calibration_memo_misses_on_any_input_change(fresh_memo, change):
    SampledCP.calibrate(*_calibration_input())
    changed = _calibration_input(**change)
    calibration = SampledCP.calibrate(*changed)
    assert fresh_memo == {"hits": 0, "misses": 2}
    # ... and the miss measured its own inputs, not the cached ones.
    cp_rounds.reset_calibration_memo()
    alone = _calibration_input(**change)
    assert _same_calibration(calibration, SampledCP.calibrate(*alone))
    assert (changed[0].rng.bit_generator.state
            == alone[0].rng.bit_generator.state)


def test_calibration_memo_skips_medium_subclasses(fresh_memo):
    class TracedMedium(FloodMedium):
        pass

    for _ in range(2):
        medium, nodes, minicast, rounds = _calibration_input()
        SampledCP.calibrate(TracedMedium(medium.channel, medium.rng),
                            nodes, minicast, rounds)
    assert fresh_memo == {"hits": 0, "misses": 0}


def test_calibrated_delivery_matrix_is_read_only(fresh_memo):
    for _ in range(2):  # the miss and the hit
        calibration = SampledCP.calibrate(*_calibration_input())
        with pytest.raises(ValueError):
            calibration.delivery_prob[0, 1] = 0.5


def test_calibration_memo_is_a_bounded_lru(fresh_memo):
    limit = cp_rounds._CALIBRATIONS_MAX

    def calibrate(advance):
        SampledCP.calibrate(*_calibration_input(
            nodes=range(3), rounds=1, advance=advance))

    for advance in range(limit):
        calibrate(advance)
    calibrate(0)  # hit: the oldest entry becomes the most recent
    calibrate(limit)  # miss: evicts entry 1, now the least recent
    assert len(cp_rounds._CALIBRATIONS) == limit
    assert fresh_memo == {"hits": 1, "misses": limit + 1}
    calibrate(0)
    assert fresh_memo == {"hits": 2, "misses": limit + 1}
    calibrate(1)
    assert fresh_memo == {"hits": 2, "misses": limit + 2}
    assert len(cp_rounds._CALIBRATIONS) == limit


def headline_sweep_digest() -> str:
    """Digest of every run of the HEADLINE sweep (round CP) at jobs=1."""
    from repro.api import run
    from repro.api.spec import ControlSpec, ExperimentSpec, SweepSpec
    from repro.workloads.scenarios import PAPER_RATES
    spec = ExperimentSpec(
        name="headline", kind="sweep",
        control=ControlSpec(cp_fidelity="round"), seeds=(1, 2, 3, 4, 5),
        sweep=SweepSpec(rates=tuple(sorted(PAPER_RATES.values()))))
    hasher = hashlib.sha256()
    for result in run(spec, jobs=1).runs:
        calibration = result.cp_calibration
        hasher.update(np.asarray(result.load_w.times).tobytes())
        hasher.update(np.asarray(result.load_w.values).tobytes())
        hasher.update(calibration.delivery_prob.tobytes())
        hasher.update(repr((calibration.round_duration,
                            calibration.round_energy_j,
                            result.cp_stats)).encode())
    return hasher.hexdigest()


def test_headline_sweep_calibrates_once_per_radio(fresh_memo):
    """30 runs, 5 radios: rate and policy never reach the calibration.
    A fresh interpreter (empty memo, nothing run before) produces the
    same bits."""
    digest = headline_sweep_digest()
    assert fresh_memo == {"hits": 25, "misses": 5}
    script = textwrap.dedent("""
        from tests.test_st_rounds import headline_sweep_digest
        print(headline_sweep_digest())
    """)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root), str(root / "src")])
    probe = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == digest
