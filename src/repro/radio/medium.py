"""Shared-medium models.

Two media cover the two communication paradigms in the paper:

* :class:`FloodMedium` — slot-synchronous model for Synchronous-Transmission
  protocols (Glossy/MiniCast).  All transmitters in a slot send the *same*
  packet within sub-µs offsets, so signals combine (constructive
  interference / capture) instead of colliding.
* :class:`CsmaMedium` — continuous-time model for the traditional
  Asynchronous-Transmission stack: overlapping different frames interfere,
  with SINR-based capture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.radio.channel import Channel, mw_to_dbm, prr_from_sinr
from repro.radio.packet import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class FloodMedium:
    """Reception model for slot-synchronous concurrent transmissions."""

    def __init__(self, channel: Channel, rng: np.random.Generator):
        self.channel = channel
        self.rng = rng

    def reception_probability(self, receiver: int, senders: Sequence[int],
                              psdu_bytes: int) -> float:
        """Probability that ``receiver`` decodes a synchronized flood slot.

        All ``senders`` transmit the identical packet: their powers add at
        the receiver (non-coherent combining), de-rated per extra sender to
        account for carrier-frequency beating (``ci_derating``).
        """
        if not senders:
            return 0.0
        return self._decode_probability(
            self.channel.combined_rx_power_mw(receiver, senders),
            len(senders), psdu_bytes)

    def _decode_probability(self, combined_mw: float, n_senders: int,
                            psdu_bytes: int) -> float:
        """The reception model proper, on an already combined power."""
        if combined_mw <= 0.0:
            return 0.0
        config = self.channel.config
        combined_dbm = mw_to_dbm(combined_mw)
        if combined_dbm < config.sensitivity_dbm:
            return 0.0  # below the radio's synchronisation threshold
        base = prr_from_sinr(combined_dbm - config.noise_floor_dbm,
                             psdu_bytes)
        return base * config.ci_derating ** (n_senders - 1)

    def flood_slot(self, senders: Sequence[int], listeners: Iterable[int],
                   psdu_bytes: int) -> set[int]:
        """Simulate one slot; returns the listeners that decoded the packet.

        Bit-identical to one :meth:`reception_probability` and one scalar
        ``rng.random()`` per listener with ``p > 0``: sender rows add in
        sender order, as ``sum`` does; the dB transform stays scalar, as
        NumPy's ``log10`` and ``round`` need not match ``math``'s bits.
        """
        senders, listeners = list(senders), list(listeners)
        if not senders:
            return set()
        rows = self.channel._rx_power_mw[:, listeners][senders]
        combined = np.add.accumulate(rows)[-1].tolist()
        live = []
        for listener, mw in zip(listeners, combined):
            p = self._decode_probability(mw, len(senders), psdu_bytes)
            if p > 0.0:
                live.append((listener, p))
        draws = self.rng.random(len(live)).tolist()  # = k scalar draws
        return {listener for (listener, p), u in zip(live, draws) if u < p}


@dataclass
class Transmission:
    """One in-flight frame on the CSMA medium."""

    frame: Frame
    source: int
    start: float
    end: float
    #: transmissions whose airtime overlapped this one at any point
    interferers: list["Transmission"] = field(default_factory=list)


class CsmaMedium:
    """Continuous-time broadcast medium with SINR-based capture.

    Nodes register a ``listener`` callback; when a frame's airtime ends the
    medium decides per receiver whether it decodes, based on the SINR
    against every transmission that overlapped the frame, then invokes the
    callback.
    """

    def __init__(self, sim: "Simulator", channel: Channel,
                 rng: np.random.Generator):
        self.sim = sim
        self.channel = channel
        self.rng = rng
        self._active: list[Transmission] = []
        self._listeners: dict[int, Callable[[Frame, float], None]] = {}
        #: node ids currently transmitting (cannot receive meanwhile)
        self._transmitting: set[int] = set()
        # statistics
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost_interference = 0
        self.frames_lost_noise = 0

    # -- registration -----------------------------------------------------------

    def register(self, node: int,
                 callback: Callable[[Frame, float], None]) -> None:
        """Attach ``node``'s reception callback."""
        self._listeners[node] = callback

    def unregister(self, node: int) -> None:
        """Detach a node (e.g. crash injection)."""
        self._listeners.pop(node, None)

    # -- carrier sensing ----------------------------------------------------------

    def channel_busy(self, node: int) -> bool:
        """Would a CCA at ``node`` report the channel busy right now?"""
        if not self._active:
            return False
        energy_mw = self.channel.noise_mw + sum(
            self.channel.rx_power_mw(t.source, node) for t in self._active)
        return mw_to_dbm(energy_mw) >= self.channel.config.cca_threshold_dbm

    # -- transmission -----------------------------------------------------------

    def transmit(self, source: int, frame: Frame):
        """Process: occupy the medium for the frame's airtime, then deliver.

        Use as ``yield from medium.transmit(node_id, frame)`` from a node
        process.  Reception outcomes are evaluated at end of frame.
        """
        start = self.sim.now
        transmission = Transmission(frame, source, start,
                                    start + frame.airtime)
        for other in self._active:
            other.interferers.append(transmission)
            transmission.interferers.append(other)
        self._active.append(transmission)
        self._transmitting.add(source)
        self.frames_sent += 1
        try:
            yield self.sim.timeout(frame.airtime)
        finally:
            self._active.remove(transmission)
            self._transmitting.discard(source)
        self._deliver(transmission)

    def _deliver(self, transmission: Transmission) -> None:
        frame = transmission.frame
        interferer_ids = [t.source for t in transmission.interferers]
        for node, callback in list(self._listeners.items()):
            if node == transmission.source:
                continue
            if not frame.is_broadcast and node != frame.destination:
                # Real receivers drop frames for others after address filter;
                # we skip the delivery either way.
                continue
            if node in self._transmitting:
                continue  # half-duplex: transmitters cannot receive
            if not self.channel.audible(transmission.source, node):
                continue
            if interferer_ids:
                # Co-channel capture: the frame survives concurrent
                # *different* transmissions only with a clear power
                # advantage (same-packet combining is FloodMedium's job).
                interference_mw = sum(
                    self.channel.rx_power_mw(i, node)
                    for i in interferer_ids)
                if interference_mw > 0.0:
                    sir_db = (self.channel.rx_power_dbm(
                        transmission.source, node)
                        - mw_to_dbm(interference_mw))
                    if sir_db < self.channel.config.capture_threshold_db:
                        self.frames_lost_interference += 1
                        continue
            sinr = self.channel.sinr_db(node, transmission.source,
                                        interferer_ids)
            p = prr_from_sinr(sinr, frame.psdu_bytes)
            if self.rng.random() < p:
                self.frames_delivered += 1
                callback(frame, self.channel.rx_power_dbm(
                    transmission.source, node))
            elif interferer_ids:
                self.frames_lost_interference += 1
            else:
                self.frames_lost_noise += 1
