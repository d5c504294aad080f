"""Feeder-level collaboration plane: the paper's CP, one level up.

The paper's collaborative scheme (§II) never crosses the home's meter:
every Device Interface shares a :class:`~repro.core.state.CpItem` over
MiniCast rounds, and the shared deterministic scheduler staggers bursts
*inside* one home.  Behind a feeder, independently coordinated homes still
peak together — PR 1's neighborhood layer measures that as a diversity
factor barely above 1.

This module extends the same announce/claim/stagger structure across
homes, in the spirit of distributed neighborhood scheduling
(arXiv:2011.04338) and online multi-home load coordination
(arXiv:2304.11770):

* each home's gateway (its smart meter uplink) publishes a compact
  :class:`HomeItem` — the home's *claimed-burst envelope*, i.e. the
  per-phase-bin upper bound of its realized Type-2 load — the
  neighborhood analogue of a :class:`~repro.core.state.CpItem`;
* a decentralized **feeder round** mirrors the in-home CP's loss-free
  all-to-all exchange (:class:`~repro.st.rounds.IdealCP` semantics,
  executed directly at fleet scale — see :class:`FeederPlane`): one
  gateway per round holds the claim token and picks the **phase offset**
  minimising the projected feeder peak given every other home's claimed
  envelope — exactly the in-home scheduler's one-by-one stagger logic,
  one level up;
* the negotiated offsets are applied by *phase-rotating* each home's
  realized load profile (:func:`rotate_series`).  The workloads are
  time-homogeneous (Poisson / MMPP / batch arrivals with no
  time-of-day structure), so a cyclic rotation of a home's trajectory
  is a sample path of the phase-shifted home — and rotation preserves
  each home's energy and individual peak *exactly*, which pins the
  conservation law the invariant tests rely on: coordination moves
  load, it never sheds it.

Determinism: the plane consumes only the (already bit-deterministic)
per-home results, in fleet order, and draws no randomness — so
``execute_fleet(..., coordination="feeder")`` stays bit-identical for
any ``jobs`` count.

Safety: the per-bin envelope makes the negotiated objective an *upper
bound* on the realized feeder peak, so the plane re-evaluates the final
plan against the realized profiles and falls back to zero offsets
(``applied=False``) if staggering would not strictly lower the realized
coincident peak.  The feeder plane is advisory — it never regresses the
feeder it coordinates.  That check lives in one apply step,
:func:`_apply_offsets`, which the feeder, substation
(:func:`repro.neighborhood.grid.coordinate_profiles`) and online-epoch
(:func:`repro.neighborhood.online.coordinate_fleet_online`) tiers all
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.core.system import RunResult
from repro.neighborhood.aggregate import combine_partials, sum_series
from repro.sim.monitor import StepSeries
from repro.st.rounds import CpStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.neighborhood.fleet import FleetSpec, HomeSpec

#: serialized footprint of a HomeItem header on the wire, bytes
HOME_ITEM_HEADER_BYTES: int = 10
#: bytes per quantized envelope bin on the wire
ENVELOPE_BIN_BYTES: int = 2


@dataclass(frozen=True)
class FeederConfig:
    """Knobs of the feeder collaboration plane.

    Defaults mirror the in-home Communication Plane where a counterpart
    exists: feeder rounds run every ``period`` (= the paper's 2 s MiniCast
    period), and the phase ``epoch`` defaults to the fleet's largest
    ``maxDCP`` — the recurrence period of the bursts being staggered.
    """

    #: phase period the offsets live in; None = max home ``maxDCP``
    epoch: Optional[float] = None
    #: nominal envelope bin width (seconds) — also the offset
    #: granularity; snapped so bins tile the horizon exactly
    bin_s: float = 60.0
    #: maximum full claim sweeps (every gateway claims once per sweep)
    max_sweeps: int = 4
    #: feeder CP round period, seconds (one claim token per round)
    period: float = 2.0
    #: re-check the realized feeder peak and refuse a non-improving plan
    guard: bool = True

    def __post_init__(self) -> None:
        if self.bin_s <= 0:
            raise ValueError(f"bin_s must be > 0, got {self.bin_s}")
        if self.max_sweeps < 1:
            raise ValueError(
                f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if self.epoch is not None and self.epoch <= 0:
            raise ValueError(f"epoch must be > 0, got {self.epoch}")


@dataclass(frozen=True)
class HomeItem:
    """One home gateway's payload for a feeder CP round.

    The neighborhood analogue of the in-home
    :class:`~repro.core.state.CpItem`: instead of one device's status plus
    announcements, a gateway shares its whole home's *aggregate
    claimed-burst envelope* — the per-bin upper bound of the home's load
    over the observation window — plus the phase ``shift`` (in bins) it
    currently claims.  Items are versioned so view merges stay idempotent
    and order-insensitive, mirroring
    :meth:`repro.core.state.SharedView.merge_item`.
    """

    home_id: int
    version: int
    #: claimed phase offset, in envelope bins
    shift: int
    #: per-bin upper bound of the home's load over the horizon, watts
    envelope: tuple[float, ...]
    #: the home's individual peak (max of the envelope), watts
    peak_w: float

    @property
    def wire_bytes(self) -> int:
        """Approximate serialized size (quantized bins), for airtime
        accounting — the feeder analogue of
        :attr:`repro.core.state.CpItem.wire_bytes`."""
        return (HOME_ITEM_HEADER_BYTES
                + ENVELOPE_BIN_BYTES * len(self.envelope))


@dataclass
class FeederCoordination:
    """Outcome of one feeder-plane negotiation over a finished fleet run.

    Carries both the coordinated and the independent (un-rotated) feeder
    series so :class:`~repro.neighborhood.federation.NeighborhoodResult`
    can report the diversity-factor uplift without re-running anything.
    """

    #: resolved phase period (seconds)
    epoch: float
    #: envelope bin width = offset granularity (seconds)
    bin_s: float
    #: negotiated per-home phase offsets (seconds, fleet order)
    planned_offsets_s: tuple[float, ...]
    #: offsets actually applied (all zero when the guard declined)
    offsets_s: tuple[float, ...]
    #: False when the guard found no realized improvement and fell back
    applied: bool
    #: full claim sweeps the negotiation ran before converging
    sweeps: int
    #: feeder CP round statistics (reused :class:`~repro.st.rounds.CpStats`)
    cp_stats: CpStats
    #: per-home feeder contributions (phase-rotated load), fleet order
    contributions_w: list[StepSeries]
    #: Σ un-rotated homes — the independent baseline feeder profile
    independent_w: StepSeries
    #: Σ rotated homes — what the feeder carries under coordination
    coordinated_w: StepSeries


# ---------------------------------------------------------------------------
# envelopes and rotation
# ---------------------------------------------------------------------------

def snap_bin(horizon: float, bin_s: float) -> float:
    """The envelope bin width snapped so bins tile ``horizon`` exactly.

    The claim objective rolls envelopes on a cycle of ``bins × bin_s``
    and rotation wraps at the horizon — the two cycles must be the same
    length or the negotiated offsets optimize a mis-wrapped profile.
    Both :func:`coordinate_fleet` and the shard planner's envelope
    pre-reduction (:attr:`repro.neighborhood.shard.ShardSpec.envelope_bin_s`)
    go through this one function, so a worker-side envelope is always
    computed at exactly the bin the parent will negotiate with.
    """
    n_bins = max(int(round(horizon / bin_s)), 1)
    return horizon / n_bins


def phase_envelope(series: StepSeries, horizon: float,
                   bin_s: float) -> tuple[float, ...]:
    """Per-bin upper bound of ``series`` on a regular grid over the window.

    Bin ``b`` covers ``[b * bin_s, (b + 1) * bin_s)``; its envelope value
    is the *maximum* signal value attained inside, so summed envelopes
    upper-bound the summed signals — the property the feeder plane's
    claim objective relies on.  The ``start=0`` form of
    :func:`phase_envelope_window`.
    """
    return phase_envelope_window(series, 0.0, horizon, bin_s)


def _window_segment_table(series: StepSeries, start: float, end: float,
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(starts, ends, values)`` arrays partitioning ``[start, end)``.

    The vectorized twin of :meth:`~repro.sim.monitor.StepSeries.segments`
    (same boundaries, same values, no arithmetic on either) — rotation
    and envelopes must agree with the statistics' decomposition bit for
    bit.
    """
    times, values = series._data()
    lo = int(np.searchsorted(times, start, side="right"))
    hi = int(np.searchsorted(times, end, side="left"))
    starts = np.empty(hi - lo + 1, dtype=float)
    starts[0] = start
    starts[1:] = times[lo:hi]
    ends = np.empty(hi - lo + 1, dtype=float)
    ends[:-1] = times[lo:hi]
    ends[-1] = end
    seg_values = np.empty(hi - lo + 1, dtype=float)
    seg_values[0] = values[lo - 1] if lo > 0 else 0.0
    seg_values[1:] = values[lo:hi]
    return starts, ends, seg_values


def phase_envelope_window(series: StepSeries, start: float, end: float,
                          bin_s: float,
                          bins: Optional[int] = None,
                          ) -> tuple[float, ...]:
    """Per-bin upper bound of ``series`` over the window ``[start, end)``.

    The windowed form of :func:`phase_envelope`: bin ``b`` covers
    ``[start + b·bin_s, start + (b+1)·bin_s)``.  ``bins`` pins the
    envelope length explicitly — the online loop passes the per-epoch
    bin count so every epoch's envelope (including a last epoch whose
    span differs by one float ulp) has the same shape and the claim
    plane can roll them against each other.
    """
    if bins is None:
        bins = int(math.ceil((end - start) / bin_s - 1e-9))
    envelope = np.zeros(bins, dtype=float)
    starts, ends, values = _window_segment_table(series, start, end)
    for seg_start, seg_end, value in zip(starts.tolist(), ends.tolist(),
                                         values.tolist()):
        if value <= 0.0:
            continue
        first = int((seg_start - start) // bin_s)
        last = min(int(math.ceil((seg_end - start) / bin_s)), bins)
        if first < last:
            np.maximum(envelope[first:last], value,
                       out=envelope[first:last])
    return tuple(envelope.tolist())


def rotate_window(series: StepSeries, offset: float, start: float,
                  end: float, name: Optional[str] = None) -> StepSeries:
    """Cyclically delay the ``[start, end)`` window of ``series``.

    The windowed form of :func:`rotate_series`: returns a step series
    defined on ``[start, end)`` only — beginning with a record exactly
    at ``start`` — holding ``s(start + ((t − start − offset) mod span))``
    with ``span = end − start``.  Segment durations and values are
    permuted, never changed, so the window's energy, time-weighted
    distribution and peak are preserved exactly; with ``offset == 0``
    the window's own records come back untouched (no float round-trip),
    which is what lets declined epochs stitch bit-identical realized
    windows.

    Caller contract (which epoch grids satisfy by construction): the
    computed ``span`` must be the *exact* real difference ``end − start``
    — true whenever ``start == 0`` or ``end ≤ 2·start`` (Sterbenz) — so
    wrapped record times can never land before ``start``.
    """
    from repro.neighborhood.aggregate import dedup_records
    out_name = name if name is not None else series.name
    span = end - start
    offset = offset % span
    starts, ends, values = _window_segment_table(series, start, end)
    if offset == 0.0:
        times, kept = dedup_records(starts, values)
        return StepSeries.from_arrays(out_name, times, kept)
    new_starts = starts + offset
    wrapped = new_starts >= end
    split = ~wrapped & (ends + offset > end)
    entry_times = np.concatenate([
        np.where(wrapped, new_starts - span, new_starts),
        np.full(int(split.sum()), start, dtype=float)])
    entry_values = np.concatenate([values, values[split]])
    order = np.lexsort((entry_values, entry_times))
    times, kept = dedup_records(entry_times[order], entry_values[order])
    return StepSeries.from_arrays(out_name, times, kept)


def rotate_series(series: StepSeries, offset: float, horizon: float,
                  name: Optional[str] = None) -> StepSeries:
    """Cyclically delay ``series`` by ``offset`` within ``[0, horizon)``.

    Returns the step series ``r(t) = s((t − offset) mod horizon)``: the
    home's day, started ``offset`` later, with the displaced tail wrapping
    to the front (the steady-state reading of a phase shift).  Rotation
    permutes the constant segments without changing their durations or
    values, so the integral (energy), the time-weighted distribution and
    the peak over ``[0, horizon)`` are all preserved.  The ``start=0``
    form of :func:`rotate_window`.
    """
    return rotate_window(series, offset, 0.0, horizon, name)


# ---------------------------------------------------------------------------
# the decentralized feeder round
# ---------------------------------------------------------------------------

class FeederPlane:
    """The feeder-level claim plane, one gateway per home.

    Claims are made one by one — the gateway whose ``home_id`` matches
    the round index (round-robin token) re-claims its phase offset
    against the envelopes everyone else published, mirroring the paper's
    one-by-one admission order.  A claim is only moved when it *strictly*
    lowers the projected feeder peak, so the negotiation is a descent on
    a finite lattice and always converges.

    The rounds used to be driven through
    :class:`~repro.st.rounds.IdealCP` with every gateway re-sharing its
    full :class:`HomeItem` every round; at fleet scale (N≥500) that
    all-to-all merge was O(N³) per sweep and dominated the whole run.
    Because IdealCP delivery is loss-free, every gateway's merged view is
    simply "each home's latest claim", so :meth:`run_round` evolves that
    shared state directly and :func:`negotiate_offsets` accounts the
    identical :class:`~repro.st.rounds.CpStats` the driver produced.
    The state is one dense ``(n, bins)`` matrix of envelopes rolled by
    their claims, rows in home order; every claim re-folds the other
    rows left to right from +0.0 (see :meth:`_combined_others`), never
    an incremental update, so the claim sequence carries no float drift.
    :class:`HomeItem` remains the wire format the stats meter airtime
    against.
    """

    def __init__(self, home_ids: Sequence[int],
                 envelopes: dict[int, tuple[float, ...]],
                 shifts: int,
                 claims: Optional[dict[int, int]] = None):
        if shifts < 1:
            raise ValueError(f"need >= 1 candidate shift, got {shifts}")
        self.home_ids = list(home_ids)
        self.shifts = shifts
        self._row = {home: row for row, home in enumerate(self.home_ids)}
        #: seeded claims carry a previous epoch's negotiation state into
        #: an online re-negotiation (:func:`renegotiate_offsets`)
        self.claims: dict[int, int] = (
            {home: 0 for home in self.home_ids} if claims is None
            else {home: int(claims[home]) for home in self.home_ids})
        bins = len(envelopes[self.home_ids[0]]) if self.home_ids else 0
        self._envelopes = np.zeros((len(self.home_ids), bins), dtype=float)
        #: row ``r``: home ``r``'s envelope rolled by its current claim —
        #: what the other gateways' merged views hold for it
        self._rolled = np.zeros_like(self._envelopes)
        for row, home in enumerate(self.home_ids):
            self._envelopes[row] = envelopes[home]
            self._rolled[row] = np.roll(self._envelopes[row],
                                        self.claims[home])
        #: ``envelope[_circulant[s]] == np.roll(envelope, s)``: every
        #: candidate shift gathered in one call
        self._circulant = (np.arange(bins)
                           - np.arange(shifts)[:, None]) % bins
        self.sweep_changed = False

    def update_envelope(self, node: int,
                        envelope: tuple[float, ...]) -> None:
        """Replace one gateway's published envelope, keeping its claim.

        The online plane's per-epoch re-publication: a home whose
        predicted envelope changed announces the new one; its claimed
        shift stands until a later claim round moves it.
        """
        row = self._row[node]
        self._envelopes[row] = envelope
        self._rolled[row] = np.roll(self._envelopes[row], self.claims[node])

    def item(self, node: int) -> HomeItem:
        """The gateway's current :class:`HomeItem` (the wire form)."""
        envelope = self._envelopes[self._row[node]]
        return HomeItem(home_id=node, version=1, shift=self.claims[node],
                        envelope=tuple(envelope),
                        peak_w=float(envelope.max(initial=0.0)))

    def run_round(self, round_index: int) -> None:
        """One feeder round: the round-robin token holder re-claims."""
        self.reclaim(self.home_ids[round_index % len(self.home_ids)])

    def reclaim(self, token: int) -> None:
        """Give ``token`` the claim round: re-pick its phase offset."""
        best = self._best_shift(token)
        if best != self.claims[token]:
            row = self._row[token]
            self.claims[token] = best
            self._rolled[row] = np.roll(self._envelopes[row], best)
            self.sweep_changed = True

    # -- the claim rule ----------------------------------------------------------

    def _combined_others(self, node: int) -> np.ndarray:
        """Projected feeder load per bin from everyone else's claims.

        A strictly left-to-right fold, from +0.0, over the other rows in
        home order: ``np.add.accumulate`` over a zero-led stack, the
        per-home ``+=`` loop's exact bits.  Never ``np.sum`` or
        ``np.add.reduce``: NumPy sums a contiguous axis pairwise — with
        one bin, the home axis — and that regrouping changes the bits
        the candidate peaks are compared on.
        """
        row = self._row[node]
        stack = np.concatenate((np.zeros((1, self._rolled.shape[1])),
                                self._rolled[:row], self._rolled[row + 1:]))
        return np.add.accumulate(stack, axis=0, out=stack)[-1]

    def _best_shift(self, node: int) -> int:
        """Least-peak phase for ``node`` given the others, stagger-style.

        Selection keys mirror :func:`repro.core.scheduler._pick_start`
        one level up: (1) smallest projected feeder peak, (2) the current
        claim when it ties (stability — only strict improvements move),
        (3) the earliest phase.
        """
        envelope = self._envelopes[self._row[node]]
        peaks = (self._combined_others(node)
                 + envelope[self._circulant]).max(axis=1)
        tied = peaks <= float(peaks.min()) + 1e-9
        current = self.claims[node]
        if 0 <= current < self.shifts and tied[current]:
            return current
        return int(np.argmax(tied))


def negotiate_offsets(home_ids: Sequence[int],
                      envelopes: dict[int, tuple[float, ...]],
                      shifts: int,
                      config: FeederConfig,
                      ) -> tuple[dict[int, int], CpStats, int]:
    """Run feeder claim rounds until the claims converge.

    One claim token per round (n rounds to a sweep), until a full sweep
    moves no claim or :attr:`FeederConfig.max_sweeps` is reached.
    Returns the claimed shifts (bins) per home, the CP round statistics
    — identical to what driving the plane through
    :class:`~repro.st.rounds.IdealCP` produced (every round is active,
    all n items reach all n gateways) — and the number of sweeps run.
    """
    plane = FeederPlane(home_ids, envelopes, shifts)
    n = len(plane.home_ids)
    stats = CpStats()
    round_index = 0
    sweeps = 0
    for _sweep in range(config.max_sweeps):
        plane.sweep_changed = False
        # Rounds sweep*n .. sweep*n + n − 1, one token claim each.
        for _round in range(n):
            stats.rounds_total += 1
            stats.rounds_active += 1
            stats.deliveries += n * n
            plane.run_round(round_index)
            round_index += 1
        sweeps += 1
        if not plane.sweep_changed:
            break
    return dict(plane.claims), stats, sweeps


def renegotiate_offsets(plane: FeederPlane, changed: Sequence[int],
                        config: FeederConfig,
                        ) -> tuple[dict[int, int], CpStats, int]:
    """Incrementally re-run claim rounds after an envelope diff.

    The online plane's per-epoch re-negotiation: ``plane`` carries every
    gateway's current claims and (already re-published) envelopes from
    the previous epoch, and only the homes in ``changed`` — those whose
    predicted envelope actually moved — get claim tokens.  Unchanged
    homes keep claims that are still optimal against their unchanged
    envelopes, so the per-sweep work is O(|changed|·n·bins) rather than
    the from-scratch O(n²·bins) of :func:`negotiate_offsets`, and with
    nothing changed no round runs at all — the sub-linear replan cost
    ``benchmarks/test_bench_online.py`` measures.

    CP accounting matches the incremental wire traffic: each round
    delivers *one* updated :class:`HomeItem` to the n gateways (``n``
    deliveries), not the all-to-all re-share of a cold negotiation.
    Returns ``(claims, stats, sweeps)`` like :func:`negotiate_offsets`.
    """
    n = len(plane.home_ids)
    stats = CpStats()
    changed_set = set(changed)
    order = [home for home in plane.home_ids if home in changed_set]
    sweeps = 0
    if not order:
        return dict(plane.claims), stats, sweeps
    for _sweep in range(config.max_sweeps):
        plane.sweep_changed = False
        for token in order:
            stats.rounds_total += 1
            stats.rounds_active += 1
            stats.deliveries += n
            plane.reclaim(token)
        sweeps += 1
        if not plane.sweep_changed:
            break
    return dict(plane.claims), stats, sweeps


# ---------------------------------------------------------------------------
# the shared apply step: every tier negotiates, rotates and guards here
# ---------------------------------------------------------------------------

def _phase_epoch(epoch: Optional[float], homes: Iterable["HomeSpec"],
                 horizon: float) -> float:
    """The phase period offsets live in: ``epoch``, else the largest
    ``maxDCP`` of ``homes`` (the horizon when there are none), capped at
    the horizon."""
    if epoch is None:
        epoch = max((home.scenario.max_dcp for home in homes),
                    default=horizon)
    return min(epoch, horizon)


def _apply_offsets(series: Sequence[StepSeries],
                   offsets: Sequence[float], baseline: StepSeries,
                   start: float, end: float, guard: bool,
                   name: str = "feeder",
                   ) -> tuple[list[StepSeries], StepSeries, bool]:
    """Rotate, sum, guard, decline: apply one plan over ``[start, end)``.

    Every series' window is rotated by its offset (:func:`rotate_window`)
    and the rotated windows are summed.  The plan stands only when some
    offset is non-zero and — with ``guard`` — the rotated sum's peak over
    the window is more than 1e-9 W below ``baseline``'s; otherwise every
    window comes back un-rotated and the sum is ``baseline`` itself.
    Returns ``(contributions, coordinated, applied)``.  The feeder,
    substation and online-epoch tiers all apply their plans through this
    one step, so none of them can raise the peak it coordinates.
    """
    rotated = [rotate_window(one, offset, start, end)
               for one, offset in zip(series, offsets)]
    if not any(offset != 0.0 for offset in offsets):
        return rotated, baseline, False
    coordinated = sum_series(rotated, name=name)
    if guard and coordinated.maximum(start, end) \
            >= baseline.maximum(start, end) - 1e-9:
        return ([rotate_window(one, 0.0, start, end) for one in series],
                baseline, False)
    return rotated, coordinated, True


def _negotiate_and_apply(series: Sequence[StepSeries],
                         baseline: StepSeries, horizon: float,
                         epoch: float, config: FeederConfig,
                         envelopes: Optional[
                             Sequence[tuple[float, ...]]] = None,
                         name: str = "feeder") -> FeederCoordination:
    """One batch negotiation over ``[0, horizon)``, applied and guarded.

    Publishes each series' :func:`phase_envelope` (or the precomputed
    ``envelopes``, same bin), runs :func:`negotiate_offsets` to
    convergence and applies the plan with :func:`_apply_offsets`.
    """
    bin_s = snap_bin(horizon, config.bin_s)
    shifts = max(int(epoch / bin_s + 1e-9), 1)
    if envelopes is None:
        envelopes = [phase_envelope(one, horizon, bin_s) for one in series]
    ids = range(len(series))
    claims, cp_stats, sweeps = negotiate_offsets(
        ids, dict(zip(ids, envelopes)), shifts, config)
    planned = tuple(claims[index] * bin_s for index in ids)
    contributions, coordinated, applied = _apply_offsets(
        series, planned, baseline, 0.0, horizon, config.guard, name)
    return FeederCoordination(
        epoch=epoch, bin_s=bin_s,
        planned_offsets_s=planned,
        offsets_s=planned if applied else tuple(0.0 for _ in planned),
        applied=applied, sweeps=sweeps, cp_stats=cp_stats,
        contributions_w=contributions, independent_w=baseline,
        coordinated_w=coordinated)


def coordinate_fleet(fleet: "FleetSpec", results: Sequence[RunResult],
                     horizon: float,
                     config: Optional[FeederConfig] = None,
                     partials: Optional[Sequence[object]] = None,
                     envelopes: Optional[
                         Sequence[tuple[float, ...]]] = None,
                     ) -> FeederCoordination:
    """Negotiate and apply cross-home phase offsets for a finished run.

    ``results`` are the per-home :class:`~repro.core.system.RunResult`
    objects of ``fleet`` (fleet order), as produced by the independent
    fan-out in :func:`~repro.neighborhood.federation.execute_fleet`.
    Pure post-exchange: no randomness, no re-simulation, bit-identical
    for any worker count.

    ``partials`` — the per-shard
    :class:`~repro.neighborhood.aggregate.SeriesPartial` pre-reductions
    of a sharded run, when available — let the independent baseline
    profile fold from S shard columns instead of N homes; the value is
    bit-identical either way.

    ``envelopes`` — per-home phase envelopes (fleet order) the shard
    workers pre-reduced at :func:`snap_bin`'s width — skip the
    parent-side :func:`phase_envelope` pass entirely.
    :func:`phase_envelope` is pure, so precomputed and recomputed
    envelopes are the same tuples and the negotiation is bit-identical.
    """
    if config is None:
        config = FeederConfig()
    if len(results) != fleet.n_homes:
        raise ValueError(
            f"fleet has {fleet.n_homes} homes but got {len(results)} "
            f"results")
    if envelopes is not None and len(envelopes) != fleet.n_homes:
        raise ValueError(
            f"fleet has {fleet.n_homes} homes but got "
            f"{len(envelopes)} precomputed envelopes")
    series = [result.load_w for result in results]
    if partials is not None:
        independent = combine_partials(partials, series)
    else:
        independent = sum_series(series)
    return _negotiate_and_apply(
        series, independent, horizon,
        _phase_epoch(config.epoch, fleet.homes, horizon), config,
        envelopes=envelopes)
