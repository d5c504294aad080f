"""FIG1 — the Communication Plane: MiniCast rounds every 2 s.

Measures what Figure 1 sketches: one slot-level round shares every DI's
items with every other DI well inside the 2 s period, with >99% delivery,
microsecond sync and a single-digit-mJ energy bill.
"""

import itertools

import pytest

from repro.experiments import trace_cp
from repro.radio import FloodMedium, flocklab26
from repro.sim import RandomStreams
from repro.st import GlossyConfig, MiniCast, SampledCP, run_flood
from repro.st.rounds import CALIBRATION_STATS, reset_calibration_memo


@pytest.mark.benchmark(group="cp")
def test_fig1_cp_trace(benchmark, record_figure):
    result = benchmark.pedantic(lambda: trace_cp(rounds=25, seed=1),
                                rounds=1, iterations=1)

    class _Figure:  # adapt CpTraceResult to the record_figure helper
        figure_id = "fig1-cp-trace"
        text = result.text

    record_figure(_Figure)

    # One round must fit far inside the 2 s period (paper Figure 1).
    assert result.mean_duration_ms < 500.0
    # All-to-all sharing is effectively reliable.
    assert result.mean_delivery > 0.99
    # Clock agreement is orders of magnitude below the 15-min slots.
    assert max(result.sync_errors_us) < 100.0
    # Duty-cycled radio: a few percent, not always-on.
    assert result.radio_duty_cycle < 0.25

    benchmark.extra_info["round_ms"] = round(result.mean_duration_ms, 1)
    benchmark.extra_info["delivery"] = round(result.mean_delivery, 4)
    benchmark.extra_info["duty_cycle_pct"] = round(
        100 * result.radio_duty_cycle, 2)


def _medium(seed=1):
    streams = RandomStreams(seed)
    channel = flocklab26().make_channel(rng=streams.stream("channel"))
    return FloodMedium(channel, streams.stream("floods"))


@pytest.mark.benchmark(group="cp")
def test_single_flood_speed(benchmark):
    """Microbench: one slot-level Glossy flood over 26 nodes."""
    medium = _medium()
    nodes = list(range(26))
    result = benchmark(lambda: run_flood(medium, 0, nodes, GlossyConfig()))
    assert len(result.receivers) >= 24


@pytest.mark.benchmark(group="cp")
def test_minicast_round_speed(benchmark):
    """Microbench: one full 26-node MiniCast round (13 floods)."""
    medium = _medium()
    minicast = MiniCast(medium)
    nodes = list(range(26))
    outcome = benchmark(lambda: minicast.run_round(nodes))
    assert outcome.delivery_ratio(nodes) > 0.98


@pytest.mark.benchmark(group="cp")
@pytest.mark.parametrize("case", ["cold", "warm"])
def test_calibration_speed(benchmark, case):
    """Microbench: one 26-node, 20-round CP calibration (the HanSystem
    default) on a new radio per round — ``cold`` on distinct seeds, so
    every call measures; ``warm`` on one seed, so every call is a memo
    hit."""
    reset_calibration_memo()
    seeds = itertools.count(100) if case == "cold" else itertools.repeat(1)
    nodes = list(range(26))
    if case == "warm":
        SampledCP.calibrate(_medium(1), nodes, rounds=20)
    baseline = dict(CALIBRATION_STATS)

    def fresh_radio():
        return (_medium(next(seeds)), nodes), {"rounds": 20}

    calibration = benchmark.pedantic(SampledCP.calibrate, setup=fresh_radio,
                                     rounds=5, iterations=1)
    hits = CALIBRATION_STATS["hits"] - baseline["hits"]
    misses = CALIBRATION_STATS["misses"] - baseline["misses"]
    assert (hits, misses) == ((0, 5) if case == "cold" else (5, 0))
    assert calibration.mean_delivery > 0.98
    benchmark.extra_info["memo_hits"] = hits
    benchmark.extra_info["memo_misses"] = misses
    benchmark.extra_info["mean_delivery"] = round(
        calibration.mean_delivery, 4)
    reset_calibration_memo()
