"""FloodMedium (ST reception model) and CsmaMedium (AT continuous medium)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio import Channel, CsmaMedium, FloodMedium, Frame, RadioConfig
from repro.radio.channel import mw_to_dbm, prr_from_sinr
from repro.radio.packet import BROADCAST
from repro.sim import RandomStreams, Simulator


def line_channel(distances, **kwargs):
    xs = np.concatenate([[0.0], np.cumsum(distances)])
    positions = np.column_stack([xs, np.zeros_like(xs)])
    return Channel(positions, **kwargs)


@pytest.fixture
def streams():
    return RandomStreams(9)


# ---------------------------------------------------------------------------
# FloodMedium
# ---------------------------------------------------------------------------

def test_flood_reception_strong_link(streams):
    channel = line_channel([10.0])
    medium = FloodMedium(channel, streams.stream("f"))
    assert medium.reception_probability(1, [0], 40) > 0.999


def test_flood_reception_out_of_range(streams):
    channel = line_channel([500.0])
    medium = FloodMedium(channel, streams.stream("f"))
    assert medium.reception_probability(1, [0], 40) == 0.0


def test_flood_no_senders_no_reception(streams):
    channel = line_channel([10.0])
    medium = FloodMedium(channel, streams.stream("f"))
    assert medium.reception_probability(1, [], 40) == 0.0


def test_synchronized_senders_combine_power(streams):
    """Two synchronized senders must not be worse than the best alone
    (modulo the CI derating factor)."""
    channel = line_channel([35.0, 10.0, 10.0])  # receivers around node 0
    medium = FloodMedium(channel, streams.stream("f"))
    single = medium.reception_probability(0, [1], 40)
    double = medium.reception_probability(0, [1, 2], 40)
    derating = channel.config.ci_derating
    assert double >= single * derating - 1e-9


def test_ci_derating_applies(streams):
    channel = line_channel([5.0, 5.0, 5.0])
    medium = FloodMedium(channel, streams.stream("f"))
    # At saturation PRR=1, so probability equals the derating product.
    three = medium.reception_probability(0, [1, 2, 3], 40)
    assert three == pytest.approx(channel.config.ci_derating ** 2)


def test_flood_slot_returns_receivers(streams):
    channel = line_channel([10.0, 10.0])
    medium = FloodMedium(channel, streams.stream("f"))
    received = medium.flood_slot([0], [1, 2], 40)
    assert 1 in received  # 10 m: essentially certain


def reference_flood_slot(medium, senders, listeners, psdu_bytes):
    """The per-listener loop ``flood_slot`` replaced, kept as the oracle:
    a scalar power sum, the scalar dB transform and one scalar draw per
    listener with ``p > 0``."""
    config = medium.channel.config
    received = set()
    for listener in listeners:
        p = 0.0
        combined_mw = medium.channel.combined_rx_power_mw(listener, senders)
        if senders and combined_mw > 0.0:
            combined_dbm = mw_to_dbm(combined_mw)
            if combined_dbm >= config.sensitivity_dbm:
                p = prr_from_sinr(combined_dbm - config.noise_floor_dbm,
                                  psdu_bytes) \
                    * config.ci_derating ** (len(senders) - 1)
        assert medium.reception_probability(listener, senders,
                                            psdu_bytes) == p
        if p > 0.0 and medium.rng.random() < p:
            received.add(listener)
    return received


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(2, 14), span_m=st.sampled_from([20.0, 60.0, 150.0]),
       shadowing=st.sampled_from([0.0, 3.0]),
       derating=st.sampled_from([1.0, 0.985, 0.5]),
       psdu_bytes=st.integers(5, 127))
def test_flood_slot_matches_per_listener_reference(
        data, seed, n, span_m, shadowing, derating, psdu_bytes):
    """The vectorised slot decodes the same listeners and leaves the
    Generator in the same state as the per-listener scalar loop, for
    channels with out-of-range nodes, any sender order and duplicate,
    shuffled or empty listener lists."""
    rng = np.random.default_rng(seed)
    channel = Channel(rng.uniform(0.0, span_m, size=(n, 2)),
                      config=RadioConfig(ci_derating=derating),
                      shadowing_sigma_db=shadowing, rng=rng)
    senders = data.draw(st.permutations(range(n)).flatmap(
        lambda order: st.integers(1, n).map(lambda k: order[:k])))
    listeners = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    fast = FloodMedium(channel, np.random.default_rng(seed + 1))
    slow = FloodMedium(channel, np.random.default_rng(seed + 1))
    powers = []  # the kernel's combined powers, as the model sees them
    decode = fast._decode_probability

    def recording_decode(combined_mw, n_senders, size):
        powers.append(combined_mw)
        return decode(combined_mw, n_senders, size)

    fast._decode_probability = recording_decode
    for _ in range(3):  # consecutive slots share the Generator
        assert fast.flood_slot(senders, listeners, psdu_bytes) == \
            reference_flood_slot(slow, senders, listeners, psdu_bytes)
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
    # Bit for bit the scalar sum, so sender order is respected exactly.
    assert powers == 3 * [channel.combined_rx_power_mw(listener, senders)
                          for listener in listeners]


@pytest.mark.parametrize("k", [1, 2, 7, 64])
def test_vector_draw_consumes_generator_like_scalar_draws(k):
    """``flood_slot`` relies on ``random(k)`` being k ``random()`` calls."""
    vector = RandomStreams(4).stream("floods")
    scalar = RandomStreams(4).stream("floods")
    assert vector.random(k).tolist() == [scalar.random() for _ in range(k)]
    assert vector.bit_generator.state == scalar.bit_generator.state


# ---------------------------------------------------------------------------
# CsmaMedium
# ---------------------------------------------------------------------------

def deliver_one(sim, medium, src, frame):
    def proc(sim):
        yield from medium.transmit(src, frame)
    sim.spawn(proc(sim))


def test_csma_unicast_delivery(streams):
    channel = line_channel([15.0])
    sim = Simulator()
    medium = CsmaMedium(sim, channel, streams.stream("m"))
    got = []
    medium.register(1, lambda frame, rssi: got.append((frame.payload, rssi)))
    frame = Frame(source=0, destination=1, payload="hello", payload_bytes=10)
    deliver_one(sim, medium, 0, frame)
    sim.run()
    assert len(got) == 1
    assert got[0][0] == "hello"
    assert got[0][1] == channel.rx_power_dbm(0, 1)


def test_csma_address_filtering(streams):
    channel = line_channel([15.0, 15.0])
    sim = Simulator()
    medium = CsmaMedium(sim, channel, streams.stream("m"))
    got = []
    medium.register(1, lambda f, r: got.append(1))
    medium.register(2, lambda f, r: got.append(2))
    frame = Frame(source=0, destination=2, payload=None, payload_bytes=4)
    deliver_one(sim, medium, 0, frame)
    sim.run()
    assert got == [2]


def test_csma_broadcast_reaches_neighbours(streams):
    channel = line_channel([15.0, 15.0])
    sim = Simulator()
    medium = CsmaMedium(sim, channel, streams.stream("m"))
    got = []
    for node in (1, 2):
        medium.register(node, lambda f, r, n=node: got.append(n))
    frame = Frame(source=0, destination=BROADCAST, payload=None,
                  payload_bytes=4)
    deliver_one(sim, medium, 0, frame)
    sim.run()
    assert sorted(got) == [1, 2]


def test_csma_collision_destroys_both(streams):
    """Two equidistant simultaneous senders jam each other at the middle."""
    # receiver 0 in the middle, senders 1 and 2 at equal distance
    positions = np.array([[0.0, 0.0], [-20.0, 0.0], [20.0, 0.0]])
    channel = Channel(positions)
    sim = Simulator()
    medium = CsmaMedium(sim, channel, streams.stream("m"))
    got = []
    medium.register(0, lambda f, r: got.append(f.source))
    f1 = Frame(source=1, destination=0, payload=None, payload_bytes=20)
    f2 = Frame(source=2, destination=0, payload=None, payload_bytes=20)
    deliver_one(sim, medium, 1, f1)
    deliver_one(sim, medium, 2, f2)
    sim.run()
    assert got == []  # SINR ~ 0 dB for both: neither decodes
    assert medium.frames_lost_interference >= 1


def test_csma_capture_strong_wins(streams):
    """A much closer sender survives interference from a distant one."""
    positions = np.array([[0.0, 0.0], [5.0, 0.0], [60.0, 0.0]])
    channel = Channel(positions)
    sim = Simulator()
    medium = CsmaMedium(sim, channel, streams.stream("m"))
    got = []
    medium.register(0, lambda f, r: got.append(f.source))
    near = Frame(source=1, destination=0, payload=None, payload_bytes=20)
    far = Frame(source=2, destination=0, payload=None, payload_bytes=20)
    deliver_one(sim, medium, 1, near)
    deliver_one(sim, medium, 2, far)
    sim.run()
    assert got == [1]


def test_half_duplex_no_reception_while_transmitting(streams):
    channel = line_channel([15.0])
    sim = Simulator()
    medium = CsmaMedium(sim, channel, streams.stream("m"))
    got = []
    medium.register(0, lambda f, r: got.append(f.source))
    medium.register(1, lambda f, r: got.append(f.source))
    # Node 1 transmits a long frame; node 0 sends to node 1 meanwhile.
    long_frame = Frame(source=1, destination=0, payload=None,
                       payload_bytes=100)
    short_frame = Frame(source=0, destination=1, payload=None,
                        payload_bytes=4)

    def overlap(sim):
        deliver_one(sim, medium, 1, long_frame)
        yield sim.timeout(0.0005)
        deliver_one(sim, medium, 0, short_frame)

    sim.spawn(overlap(sim))
    sim.run()
    assert 0 not in got  # node 1 was transmitting: cannot hear node 0


def test_channel_busy_during_transmission(streams):
    # 8 m: inside the CCA carrier-sense range (-77 dBm threshold).
    channel = line_channel([8.0])
    sim = Simulator()
    medium = CsmaMedium(sim, channel, streams.stream("m"))
    observations = []

    def observer(sim):
        yield sim.timeout(0.0001)
        observations.append(medium.channel_busy(1))

    frame = Frame(source=0, destination=1, payload=None, payload_bytes=100)
    deliver_one(sim, medium, 0, frame)
    sim.spawn(observer(sim))
    sim.run()
    assert observations == [True]
    assert not medium.channel_busy(1)  # idle after the run


def test_unregistered_node_receives_nothing(streams):
    channel = line_channel([15.0])
    sim = Simulator()
    medium = CsmaMedium(sim, channel, streams.stream("m"))
    got = []
    medium.register(1, lambda f, r: got.append(f))
    medium.unregister(1)
    frame = Frame(source=0, destination=1, payload=None, payload_bytes=4)
    deliver_one(sim, medium, 0, frame)
    sim.run()
    assert got == []
