"""Communication-Plane drivers.

The paper's Communication Plane (CP) runs one MiniCast round every 2 s so
that every DI holds every device's status and every pending user request
(Figure 1).  Three interchangeable drivers trade fidelity for speed:

* :class:`SlotLevelCP` — full flood-slot simulation (sync beacon + MiniCast
  round); the ground truth, used by protocol tests and microbenches.
* :class:`SampledCP` — per-round delivery sampled from a matrix *calibrated
  against the slot-level model* on the same topology; the default for the
  350-minute load experiments.  Calibrations are memoised per process on
  their exact inputs, so a sweep calibrates once per radio: rate and
  policy never reach it.
* :class:`IdealCP` — loss-free instantaneous sharing, for pure-algorithm
  unit tests.

Applications implement :class:`CpApplication`; payloads are *full current
state* (idempotent), so a missed delivery is healed by any later round.

Rounds sit on a fixed grid (``period`` apart), but the Ideal and Sampled
drivers only *run* the rounds that can matter.  Most rounds are quiet:
no node has anything new.  When the application names its pending nodes
(``cp_pending_nodes``) and none is pending after a quiet round, the
quiet rounds before the next queued simulator event are counted in
:class:`CpStats` without being scheduled (see :meth:`_CpBase._run`);
outputs, statistics and random draws are the same as with one timeout
per round.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol, Sequence

import numpy as np

from repro.radio.clock import DriftingClock
from repro.radio.energy import EnergyMeter
from repro.radio.medium import FloodMedium
from repro.st.glossy import GlossyConfig, run_flood
from repro.st.minicast import MiniCast, MiniCastConfig
from repro.st.sync import SyncService

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


_INF = float("inf")

#: Calibrations (with the flood Generator's state after each) by a digest
#: of power matrix, radio config, nodes, MiniCast config, rounds and
#: Generator state; least recently used first.
_CALIBRATIONS: "OrderedDict[bytes, tuple[CpCalibration, dict]]" = \
    OrderedDict()
_CALIBRATIONS_MAX = 64
#: memo counters, for tests and the CP benchmarks
CALIBRATION_STATS = {"hits": 0, "misses": 0}


def reset_calibration_memo() -> None:
    """Drop the calibration memo and its counters (tests/benchmarks)."""
    _CALIBRATIONS.clear()
    for key in CALIBRATION_STATS:
        CALIBRATION_STATS[key] = 0


class CpApplication(Protocol):
    """What the coordination layer exposes to the CP driver."""

    def cp_payload(self, node: int, round_index: int) -> Optional[object]:
        """The item ``node`` shares this round (None = nothing new)."""

    def cp_deliver(self, node: int, packets: dict[int, object],
                   round_index: int) -> None:
        """Hand ``node`` the payloads (origin → payload) it decoded."""


@dataclass
class CpStats:
    """Aggregate CP behaviour over a run."""

    rounds_total: int = 0
    rounds_active: int = 0
    deliveries: int = 0
    misses: int = 0
    duration_on_air: float = 0.0

    @property
    def delivery_ratio(self) -> float:
        attempted = self.deliveries + self.misses
        return self.deliveries / attempted if attempted else 1.0


class _CpBase:
    """Shared alive-set and process bookkeeping."""

    def __init__(self, sim: "Simulator", app: CpApplication,
                 nodes: Sequence[int], period: float = 2.0):
        self.sim = sim
        self.app = app
        self.nodes = list(nodes)
        self.period = period
        self.alive: set[int] = set(nodes)
        self.stats = CpStats()
        self.round_index = 0
        self._process = None

    def start(self) -> None:
        """Begin periodic rounds (first round runs immediately)."""
        if self._process is not None:
            raise RuntimeError("CP already started")
        self._process = self.sim.spawn(self._run(), name="cp-rounds")

    def fail_node(self, node: int) -> None:
        """Crash ``node``: it stops initiating, relaying and receiving."""
        self.alive.discard(node)

    def recover_node(self, node: int) -> None:
        """Bring a crashed node back into the CP."""
        if node in self.nodes:
            self.alive.add(node)

    def _run(self):
        """Run a round on every ``period`` grid instant from the start.

        After a quiet round (nothing shared, no node pending) every
        round strictly before the next queued event would find the same
        quiet state, since nothing else runs in between.  Those rounds
        are only counted, and the process sleeps until the first grid
        instant at or after that event.  Its timeout takes its sequence
        number now instead of at the last counted round; no event runs
        in between, so it still orders after every queued event and
        before any later one, and ties on that instant resolve exactly
        as with one timeout per round.
        """
        sim = self.sim
        period = self.period
        pending = getattr(self.app, "cp_pending_nodes", None)
        while True:
            quiet = self._round()
            self.round_index += 1
            when = sim.now + period
            if quiet and pending is not None and not pending():
                # An empty queue (peek() is inf) keeps a single period.
                horizon = sim.peek()
                limit = self._quiet_rounds_limit()
                skipped = 0
                while when < horizon < _INF and skipped != limit:
                    when += period
                    skipped += 1
                self.round_index += skipped
                self.stats.rounds_total += skipped
            yield sim.timeout_at(when)

    # -- interface for subclasses ------------------------------------------------

    def _round(self) -> Optional[bool]:
        """Run one round; True when it shared nothing (a quiet round)."""
        raise NotImplementedError

    def _quiet_rounds_limit(self) -> Optional[int]:
        """How many quiet rounds in a row may be counted without running
        them (None = no bound)."""
        return None

    def _gather_payloads(self) -> dict[int, object]:
        """Fresh payloads this round, keyed by node, in ``nodes`` order.

        When the application can name the nodes that *may* share
        (``cp_pending_nodes``, a conservative superset — see
        :meth:`repro.core.system.HanSystem.cp_pending_nodes`), every
        other node is skipped without a call, so a quiet round that does
        run costs one set lookup instead of one call chain per node.
        (Most quiet rounds never run at all: :meth:`_run` counts them.)
        Behaviour is identical either way, because ``cp_payload`` on a
        non-pending node returns ``None`` without side effects.
        """
        payloads = {}
        app = self.app
        round_index = self.round_index
        pending = getattr(app, "cp_pending_nodes", None)
        if pending is not None:
            candidates = pending()
            if not candidates:
                return payloads
            alive = self.alive
            for node in self.nodes:
                if node in candidates and node in alive:
                    payload = app.cp_payload(node, round_index)
                    if payload is not None:
                        payloads[node] = payload
            return payloads
        for node in self.nodes:
            if node not in self.alive:
                continue
            payload = app.cp_payload(node, round_index)
            if payload is not None:
                payloads[node] = payload
        return payloads


class IdealCP(_CpBase):
    """Loss-free, zero-latency all-to-all sharing."""

    def _round(self) -> bool:
        self.stats.rounds_total += 1
        payloads = self._gather_payloads()
        if not payloads:
            return True
        self.stats.rounds_active += 1
        for node in self.nodes:
            if node not in self.alive:
                continue
            packets = {origin: p for origin, p in payloads.items()}
            self.stats.deliveries += len(packets)
            self.app.cp_deliver(node, packets, self.round_index)
        return False


class SlotLevelCP(_CpBase):
    """Full-fidelity CP: sync flood + MiniCast round, slot by slot."""

    def __init__(self, sim: "Simulator", app: CpApplication,
                 nodes: Sequence[int], medium: FloodMedium,
                 period: float = 2.0,
                 minicast_config: Optional[MiniCastConfig] = None,
                 clocks: Optional[dict[int, DriftingClock]] = None,
                 sync_rng: Optional[np.random.Generator] = None,
                 energy: Optional[dict[int, EnergyMeter]] = None):
        super().__init__(sim, app, nodes, period)
        self.minicast = MiniCast(medium, minicast_config)
        self.medium = medium
        self.energy = energy
        self.sync: Optional[SyncService] = None
        if clocks is not None and sync_rng is not None:
            self.sync = SyncService(clocks, sync_rng,
                                    self.minicast.config.flood)

    def _round(self) -> None:
        self.stats.rounds_total += 1
        alive = sorted(self.alive)
        if len(alive) < 2:
            return
        # 1. sync beacon from the lowest-id alive node
        beacon = run_flood(self.medium, alive[0], alive,
                           self.minicast.config.flood)
        self.stats.duration_on_air += beacon.duration
        if self.sync is not None:
            self.sync.apply_flood(beacon)
        # 2. all-to-all share
        payloads = self._gather_payloads()
        self.stats.rounds_active += 1
        outcome = self.minicast.run_round(alive, energy=self.energy)
        self.stats.duration_on_air += outcome.duration
        for node in alive:
            packets = {origin: payload
                       for origin, payload in payloads.items()
                       if outcome.reached(origin, node)}
            self.stats.deliveries += len(packets)
            self.stats.misses += len(payloads) - len(packets)
            if packets:
                self.app.cp_deliver(node, packets, self.round_index)


class SampledCP(_CpBase):
    """Fast CP: per-pair delivery sampled from a calibrated matrix.

    The matrix ``delivery_prob[origin, receiver]`` comes from
    :meth:`calibrate`, which runs the slot-level model on the same topology.
    Rounds with no fresh payload are skipped *computationally* (state is
    idempotent and unchanged), except that every ``refresh_every`` rounds a
    full share runs anyway to heal any stale views — bounding staleness the
    way real per-round re-flooding does.
    """

    def __init__(self, sim: "Simulator", app: CpApplication,
                 nodes: Sequence[int], delivery_prob: np.ndarray,
                 rng: np.random.Generator, period: float = 2.0,
                 refresh_every: int = 15,
                 round_duration: float = 0.0,
                 round_energy_j: float = 0.0):
        super().__init__(sim, app, nodes, period)
        n = len(nodes)
        delivery_prob = np.asarray(delivery_prob, dtype=float)
        if delivery_prob.shape != (n, n):
            raise ValueError(
                f"delivery matrix must be {n}x{n}, got {delivery_prob.shape}")
        self.delivery_prob = delivery_prob
        self.rng = rng
        self.refresh_every = max(int(refresh_every), 1)
        self.round_duration = round_duration
        self.round_energy_j = round_energy_j
        self._index = {node: i for i, node in enumerate(nodes)}
        self._had_miss = False

    def _round(self) -> bool:
        self.stats.rounds_total += 1
        payloads = self._gather_payloads()
        refresh_due = (self.round_index % self.refresh_every) == 0
        if not payloads and not (self._had_miss and refresh_due):
            return True
        if not payloads and refresh_due:
            # Healing round: re-share current state of every alive node.
            for node in sorted(self.alive):
                payload = self.app.cp_payload(node, -1)
                if payload is not None:
                    payloads[node] = payload
            if not payloads:
                self._had_miss = False
                return True
        self.stats.rounds_active += 1
        self.stats.duration_on_air += self.round_duration
        self._had_miss = False
        origin_rows = {origin: self.delivery_prob[self._index[origin]]
                       for origin in payloads}
        for node in sorted(self.alive):
            j = self._index[node]
            packets = {}
            for origin, payload in payloads.items():
                if origin == node:
                    packets[origin] = payload
                    continue
                if self.rng.random() < origin_rows[origin][j]:
                    packets[origin] = payload
                    self.stats.deliveries += 1
                else:
                    self.stats.misses += 1
                    self._had_miss = True
            if packets:
                self.app.cp_deliver(node, packets, self.round_index)
        return False

    def _quiet_rounds_limit(self) -> Optional[int]:
        # After a miss, the next refresh-due round heals and must run.
        if self._had_miss:
            return -self.round_index % self.refresh_every
        return None

    # -- calibration ------------------------------------------------------------

    @staticmethod
    def calibrate(medium: FloodMedium, nodes: Sequence[int],
                  minicast_config: Optional[MiniCastConfig] = None,
                  rounds: int = 30) -> "CpCalibration":
        """Measure delivery probabilities with the slot-level model.

        Memoised per process (exact :class:`FloodMedium` only) on every
        input the measurement reads; a hit also restores the Generator's
        post-calibration state, so hits and fresh runs are identical.
        """
        minicast = MiniCast(medium, minicast_config)
        ordered = sorted(nodes)
        rng = medium.rng
        key = None
        if type(medium) is FloodMedium:
            power = medium.channel._rx_power_mw
            key = hashlib.sha256(power.tobytes() + repr((
                power.shape, medium.channel.config, ordered,
                minicast.config, rounds,
                rng.bit_generator.state)).encode()).digest()
            cached = _CALIBRATIONS.get(key)
            if cached is not None:
                _CALIBRATIONS.move_to_end(key)
                CALIBRATION_STATS["hits"] += 1
                calibration, rng.bit_generator.state = cached
                return calibration
        n = len(ordered)
        index = {node: i for i, node in enumerate(ordered)}
        hits = np.zeros((n, n))
        total_duration = 0.0
        energy = {node: EnergyMeter() for node in ordered}
        for _ in range(rounds):
            outcome = minicast.run_round(ordered, energy=energy)
            total_duration += outcome.duration
            for origin in ordered:
                for receiver in outcome.delivered.get(origin, ()):
                    hits[index[origin], index[receiver]] += 1
        prob = hits / rounds
        np.fill_diagonal(prob, 1.0)
        prob.setflags(write=False)
        mean_energy = float(np.mean(
            [m.energy_joules() for m in energy.values()])) / rounds
        calibration = CpCalibration(delivery_prob=prob,
                                    round_duration=total_duration / rounds,
                                    round_energy_j=mean_energy)
        if key is not None:
            CALIBRATION_STATS["misses"] += 1
            _CALIBRATIONS[key] = (calibration, rng.bit_generator.state)
            if len(_CALIBRATIONS) > _CALIBRATIONS_MAX:
                _CALIBRATIONS.popitem(last=False)
        return calibration


@dataclass(frozen=True)
class CpCalibration:
    """Output of :meth:`SampledCP.calibrate` (shared by memo hits)."""

    delivery_prob: np.ndarray
    round_duration: float
    round_energy_j: float

    @property
    def mean_delivery(self) -> float:
        n = len(self.delivery_prob)
        if n < 2:
            return 1.0
        off_diag = self.delivery_prob.sum() - n
        return float(off_diag / (n * (n - 1)))
