"""Feeder-level collaboration plane: rotation algebra, the decentralized
claim rounds, conservation invariants, parallel determinism, and a
golden-style lock on the diversity-factor uplift.

The conservation tests pin the plane's contract (see
``docs/coordination.md``): coordination re-phases homes, it never changes
what any home consumes — per-home energy and per-home peak are invariant,
and the guard never lets a plan regress the realized coincident peak.
The golden uplift lock follows the policy in ``docs/regression-policy.md``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.neighborhood import (
    FeederConfig,
    FeederPlane,
    build_fleet,
    negotiate_offsets,
    phase_envelope,
    renegotiate_offsets,
    rotate_series,
    execute_fleet,
)
from repro.neighborhood import coordination
from repro.neighborhood.aggregate import sum_series
from repro.sim.monitor import StepSeries
from repro.sim.units import MINUTE

HORIZON = 90 * MINUTE

#: Golden diversity-factor uplift of the locked fleet below (seed 5,
#: 6 homes, "mixed", ideal CP, 90 min).  Deterministic reruns match to
#: rounding; re-pin only per docs/regression-policy.md.
GOLDEN_UPLIFT = 1.230
GOLDEN_UPLIFT_TOL = 0.02


def locked_fleet():
    """The fixed fleet/seed the golden uplift is pinned against."""
    return build_fleet(6, mix="mixed", seed=5, cp_fidelity="ideal",
                       horizon=HORIZON)


@pytest.fixture(scope="module")
def coordinated():
    """One coordinated run of the locked fleet, shared by every test."""
    return execute_fleet(locked_fleet(), jobs=1, coordination="feeder")


# -- rotation algebra ---------------------------------------------------------


def square_wave(period=10.0, high=1000.0, duty=0.4, horizon=100.0,
                phase=0.0):
    series = StepSeries("square")
    t = phase
    while t < horizon:
        series.record(t, high)
        series.record(min(t + duty * period, horizon), 0.0)
        t += period
    return series


def test_rotate_series_wraps_exactly():
    series = StepSeries("s")
    series.record(0.0, 100.0)
    series.record(60.0, 0.0)  # one burst in [0, 60)
    rotated = rotate_series(series, 80.0, horizon=100.0)
    # burst occupies [80, 100) and wraps into [0, 40)
    assert rotated.at(0.0) == 100.0
    assert rotated.at(39.0) == 100.0
    assert rotated.at(41.0) == 0.0
    assert rotated.at(79.0) == 0.0
    assert rotated.at(81.0) == 100.0


@pytest.mark.parametrize("offset", [0.0, 7.5, 33.0, 99.0, 100.0, 140.0])
def test_rotation_conserves_energy_and_peak(offset):
    series = square_wave()
    rotated = rotate_series(series, offset, horizon=100.0)
    assert rotated.integral(0.0, 100.0) == pytest.approx(
        series.integral(0.0, 100.0), rel=1e-12)
    assert rotated.maximum(0.0, 100.0) == series.maximum(0.0, 100.0)
    assert rotated.minimum(0.0, 100.0) == series.minimum(0.0, 100.0)


def test_rotation_by_zero_is_identity():
    series = square_wave()
    rotated = rotate_series(series, 0.0, horizon=100.0)
    for t in [0.0, 3.9, 4.1, 55.0, 99.5]:
        assert rotated.at(t) == series.at(t)


def test_rotation_shifts_values():
    series = square_wave()  # high on [0, 4), [10, 14), ...
    rotated = rotate_series(series, 5.0, horizon=100.0)
    for t in [0.0, 3.0, 10.0, 47.0]:
        assert rotated.at((t + 5.0) % 100.0) == series.at(t)



@st.composite
def step_series(draw, name="s"):
    """A random step series: sorted distinct record times in [0, 200),
    values drawn from a few levels (so equal neighbours occur) or free."""
    times = sorted(set(draw(st.lists(
        st.floats(0.0, 200.0, exclude_max=True), min_size=1,
        max_size=24))))
    levels = st.sampled_from([0.0, 250.0, 1000.0, 1234.5]) | st.floats(
        0.0, 5000.0)
    values = draw(st.lists(levels, min_size=len(times),
                           max_size=len(times)))
    return StepSeries.from_arrays(name, np.array(times), np.array(values))


@st.composite
def epoch_windows(draw):
    """``[start, end)`` windows meeting :func:`rotate_window`'s exact-span
    contract: ``start == 0`` or ``end <= 2 * start``."""
    if draw(st.booleans()):
        return 0.0, draw(st.floats(1e-3, 250.0))
    start = draw(st.floats(1e-3, 200.0))
    return start, start + draw(st.floats(1e-3, 1.0)) * start


def resolvable_segments(series, start, end):
    """How many segments the window has, assuming each lasts at least
    1e-6 s — far above the ~eps * end rounding of a shifted record
    time.  A shorter segment can collapse to zero length when shifted,
    and no rotation of it then keeps both its value and its energy."""
    starts, ends, _values = coordination._window_segment_table(
        series, start, end)
    assume(bool(np.all(ends - starts >= 1e-6)))
    return len(starts)


offsets = st.sampled_from([0.0, 60.0]) | st.floats(0.0, 1000.0)


@settings(max_examples=200, deadline=None)
@given(series=step_series(), window=epoch_windows(), offset=offsets)
def test_rotate_window_keeps_peak_and_energy(series, window, offset):
    """Rotation permutes a window's segments: the peak comes back bit for
    bit and the energy moves only by the rounding of the shifted
    record times — each of order eps * end, at most two per segment
    (plus the one split at the wrap)."""
    start, end = window
    segments = resolvable_segments(series, start, end)
    tolerance = 16 * (segments + 1) * np.finfo(float).eps
    rotated = coordination.rotate_window(series, offset, start, end)
    peak = series.maximum(start, end)
    assert rotated.maximum(start, end) == peak
    assert abs(rotated.integral(start, end) - series.integral(start, end)) \
        <= tolerance * peak * end


@settings(max_examples=100, deadline=None)
@given(members=st.lists(step_series(), min_size=1, max_size=5),
       window=epoch_windows(), data=st.data())
def test_guarded_apply_never_raises_the_window_peak(members, window, data):
    """The apply step every tier shares (feeder, substation and online
    epoch): with the guard on, the applied sum's peak over the window is
    never above the baseline's, and a declined plan hands back the
    baseline and un-rotated windows."""
    start, end = window
    for member in members:
        resolvable_segments(member, start, end)
    planned = data.draw(st.lists(offsets, min_size=len(members),
                                 max_size=len(members)))
    baseline = sum_series(members)
    contributions, applied_sum, applied = coordination._apply_offsets(
        members, planned, baseline, start, end, guard=True)
    assert applied_sum.maximum(start, end) <= baseline.maximum(start, end)
    if applied:
        assert any(offset != 0.0 for offset in planned)
        assert applied_sum.maximum(start, end) \
            < baseline.maximum(start, end) - 1e-9
    else:
        assert applied_sum is baseline
        for member, window_series in zip(members, contributions):
            unrotated = coordination.rotate_window(member, 0.0, start, end)
            assert list(window_series) == list(unrotated)

# -- envelopes ----------------------------------------------------------------


def test_phase_envelope_upper_bounds_the_series():
    series = square_wave(period=13.0, duty=0.31)
    envelope = phase_envelope(series, horizon=100.0, bin_s=6.0)
    assert len(envelope) == math.ceil(100.0 / 6.0)
    for i, value in enumerate(envelope):
        for t in (i * 6.0, i * 6.0 + 3.0, i * 6.0 + 5.9):
            if t < 100.0:
                assert value >= series.at(t) - 1e-9


def test_phase_envelope_tight_on_aligned_series():
    series = StepSeries("s")
    series.record(0.0, 500.0)
    series.record(10.0, 0.0)
    series.record(20.0, 800.0)
    series.record(30.0, 0.0)
    assert phase_envelope(series, horizon=40.0, bin_s=10.0) \
        == (500.0, 0.0, 800.0, 0.0)


# -- the claim rounds ---------------------------------------------------------


def test_negotiation_staggers_identical_homes():
    """Two same-phase square homes end up in disjoint phases."""
    env = (1000.0, 1000.0, 0.0, 0.0)  # half-duty, aligned
    claims, stats, sweeps = negotiate_offsets(
        [0, 1], {0: env, 1: env}, shifts=4, config=FeederConfig())
    assert sorted(claims) == [0, 1]
    assert abs(claims[0] - claims[1]) == 2  # opposite phases
    assert stats.rounds_total >= 2
    assert sweeps >= 1


def test_negotiation_converges_and_stops():
    env_a = (900.0, 0.0, 0.0, 900.0)
    env_b = (0.0, 700.0, 700.0, 0.0)
    claims, _stats, sweeps = negotiate_offsets(
        [0, 1], {0: env_a, 1: env_b}, shifts=4,
        config=FeederConfig(max_sweeps=6))
    # Already perfectly staggered: nobody should move, and the plane
    # should notice within two sweeps.
    assert claims == {0: 0, 1: 0}
    assert sweeps <= 2


class ReferencePlane:
    """The claim kernel as a per-home loop: the equivalence reference.

    Same claim rule as :class:`FeederPlane`, written the plain way —
    one rolled array per home in a dict, the others' load folded with
    one ``+=`` per home in home order, one ``np.roll`` per candidate
    shift.  :class:`FeederPlane` must reproduce it bit for bit.
    """

    def __init__(self, home_ids, envelopes, shifts, claims=None):
        self.home_ids = list(home_ids)
        self.shifts = shifts
        self.envelopes = {home: np.asarray(envelopes[home], dtype=float)
                          for home in self.home_ids}
        self.claims = ({home: 0 for home in self.home_ids}
                       if claims is None
                       else {home: int(claims[home])
                             for home in self.home_ids})
        self.rolled = {home: np.roll(self.envelopes[home],
                                     self.claims[home])
                       for home in self.home_ids}
        self.sweep_changed = False

    def update_envelope(self, node, envelope):
        self.envelopes[node] = np.asarray(envelope, dtype=float)
        self.rolled[node] = np.roll(self.envelopes[node], self.claims[node])

    def run_round(self, round_index):
        self.reclaim(self.home_ids[round_index % len(self.home_ids)])

    def reclaim(self, token):
        best = self.best_shift(token)
        if best != self.claims[token]:
            self.claims[token] = best
            self.rolled[token] = np.roll(self.envelopes[token], best)
            self.sweep_changed = True

    def combined_others(self, node):
        combined = np.zeros(len(self.envelopes[node]), dtype=float)
        for home in self.home_ids:
            if home != node:
                combined += self.rolled[home]
        return combined

    def best_shift(self, node):
        combined = self.combined_others(node)
        envelope = self.envelopes[node]
        rolled = np.stack([np.roll(envelope, s) for s in range(self.shifts)])
        peaks = (combined[None, :] + rolled).max(axis=1)
        floor = float(peaks.min())
        candidates = [s for s in range(self.shifts)
                      if peaks[s] <= floor + 1e-9]
        if self.claims[node] in candidates:
            return self.claims[node]
        return candidates[0]


def wide_envelopes(seed, n, bins, quantized=False):
    """Envelopes whose home magnitudes span 1e0..1e8 in one plane.

    Wide magnitudes make the float sum depend on how it is grouped;
    ``quantized`` draws a few levels per home instead, so projected
    peaks tie and the claim rule's tie-breaks get exercised.
    """
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(0.0, 8.0, size=(n, 1))
    shape = rng.integers(0, 4, size=(n, bins)) if quantized \
        else rng.uniform(0.0, 1.0, size=(n, bins))
    return {home: tuple(row.tolist())
            for home, row in enumerate(shape * scale)}


def reference_negotiate(home_ids, envelopes, shifts, config):
    """:func:`negotiate_offsets` driven through :class:`ReferencePlane`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coordination, "FeederPlane", ReferencePlane)
        return negotiate_offsets(home_ids, envelopes, shifts, config)


def assert_same_combined(plane, reference):
    """Every home's projected others-load carries identical bits."""
    for home in reference.home_ids:
        assert (plane._combined_others(home).tobytes()
                == reference.combined_others(home).tobytes()), home


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300),
       bins=st.integers(1, 16), shift_frac=st.floats(0.0, 1.0),
       quantized=st.booleans(), changed_frac=st.floats(0.0, 1.0))
@example(seed=3, n=300, bins=1, shift_frac=1.0, quantized=False,
         changed_frac=0.5)
@example(seed=4, n=120, bins=12, shift_frac=1.0, quantized=True,
         changed_frac=0.2)
def test_claim_kernel_matches_per_home_reference(seed, n, bins, shift_frac,
                                                 quantized, changed_frac):
    """Cold negotiation, then a seeded re-negotiation after envelope
    updates: claims, CP stats, sweeps and every projected load are
    exactly the per-home reference's."""
    shifts = max(1, round(shift_frac * bins))
    config = FeederConfig()
    home_ids = list(range(n))
    envelopes = wide_envelopes(seed, n, bins, quantized)
    cold = negotiate_offsets(home_ids, envelopes, shifts, config)
    assert cold == reference_negotiate(home_ids, envelopes, shifts, config)

    claims = cold[0]
    plane = FeederPlane(home_ids, envelopes, shifts, claims=claims)
    reference = ReferencePlane(home_ids, envelopes, shifts, claims=claims)
    fresh = wide_envelopes(seed + 1, n, bins, quantized)
    changed = home_ids[::max(1, round(1 / max(changed_frac, 1e-3)))]
    for home in changed:
        plane.update_envelope(home, fresh[home])
        reference.update_envelope(home, fresh[home])
    assert_same_combined(plane, reference)
    assert (renegotiate_offsets(plane, changed, config)
            == renegotiate_offsets(reference, changed, config))
    assert_same_combined(plane, reference)


def test_one_bin_fold_is_sequential_not_pairwise():
    """Why the kernel folds with ``np.add.accumulate``: on a one-bin
    plane ``np.add.reduce`` sums pairwise, and with wide magnitudes
    that regrouping changes the bits the per-home loop produces."""
    n = 300
    envelopes = wide_envelopes(3, n, 1)
    plane = FeederPlane(list(range(n)), envelopes, 1)
    reference = ReferencePlane(list(range(n)), envelopes, 1)
    rolled = np.array([envelopes[home] for home in range(n)])
    pairwise_differs = any(
        np.add.reduce(np.delete(rolled, home, axis=0), axis=0).tobytes()
        != reference.combined_others(home).tobytes()
        for home in range(n))
    assert pairwise_differs
    assert_same_combined(plane, reference)


# -- conservation invariants on a real fleet ----------------------------------


def test_coordination_never_increases_per_home_energy(coordinated):
    """The plane re-phases homes; it cannot make any home consume more."""
    for result, contribution in zip(coordinated.homes,
                                    coordinated.contributions_w):
        original = result.load_w.integral(0.0, coordinated.horizon)
        rotated = contribution.integral(0.0, coordinated.horizon)
        assert rotated <= original + 1e-6
        assert rotated == pytest.approx(original, rel=1e-9)


def test_coordination_preserves_per_home_peaks(coordinated):
    for result, contribution in zip(coordinated.homes,
                                    coordinated.contributions_w):
        assert contribution.maximum(0.0, coordinated.horizon) \
            == result.load_w.maximum(0.0, coordinated.horizon)


def test_feeder_equals_sum_of_rotated_homes(coordinated):
    probe_times = list(coordinated.feeder_w.times)[:300]
    probe_times += [t + 7.5 for t in probe_times[:100]]
    for t in probe_times:
        expected = math.fsum(series.at(t)
                             for series in coordinated.contributions_w)
        assert coordinated.feeder_w.at(t) == pytest.approx(expected,
                                                           abs=1e-9)


def test_guard_never_regresses_the_feeder(coordinated):
    plan = coordinated.coordination
    coordinated_peak = plan.coordinated_w.maximum(0.0, coordinated.horizon)
    independent_peak = plan.independent_w.maximum(0.0, coordinated.horizon)
    assert coordinated_peak <= independent_peak + 1e-9
    comparison = coordinated.comparison()
    assert comparison.coordinated.diversity_factor \
        >= comparison.independent.diversity_factor - 1e-9


def test_offsets_lie_inside_the_epoch(coordinated):
    plan = coordinated.coordination
    for offset in plan.offsets_s:
        assert 0.0 <= offset < plan.epoch


def test_homes_are_untouched_by_coordination(coordinated):
    """Home runs are bit-identical with and without the feeder plane."""
    independent = execute_fleet(locked_fleet(), jobs=1)
    for a, b in zip(independent.homes, coordinated.homes):
        assert a.load_w.times == b.load_w.times
        assert a.load_w.values == b.load_w.values
        assert a.bursts == b.bursts
    assert independent.feeder_w.times \
        == coordinated.coordination.independent_w.times
    assert independent.feeder_w.values \
        == coordinated.coordination.independent_w.values
    assert independent.comparison() is None


# -- parallel determinism -----------------------------------------------------


def test_coordinated_run_bit_identical_1_vs_n_workers(coordinated):
    fanned = execute_fleet(locked_fleet(), jobs=3,
                              coordination="feeder")
    assert fanned.coordination.offsets_s \
        == coordinated.coordination.offsets_s
    assert fanned.coordination.applied == coordinated.coordination.applied
    assert fanned.feeder_w.times == coordinated.feeder_w.times
    assert fanned.feeder_w.values == coordinated.feeder_w.values
    for a, b in zip(fanned.contributions_w, coordinated.contributions_w):
        assert a.times == b.times
        assert a.values == b.values


# -- golden uplift lock -------------------------------------------------------


def test_diversity_uplift_matches_golden(coordinated):
    """The locked fleet's uplift stays pinned (docs/regression-policy.md)."""
    comparison = coordinated.comparison()
    assert coordinated.coordination.applied
    assert comparison.diversity_uplift == pytest.approx(
        GOLDEN_UPLIFT, abs=GOLDEN_UPLIFT_TOL), (
        "feeder-coordination uplift drifted; if intentional, re-pin "
        "GOLDEN_UPLIFT following docs/regression-policy.md")
    assert comparison.coordinated.diversity_factor \
        > comparison.independent.diversity_factor
    assert comparison.energy_drift_pct < 1e-9


# -- mode plumbing ------------------------------------------------------------


def test_unknown_coordination_mode_rejected():
    with pytest.raises(ValueError, match="coordination must be one of"):
        execute_fleet(locked_fleet(), coordination="bogus")


def test_single_home_fleet_is_a_noop():
    fleet = build_fleet(1, mix="suburb", seed=3, cp_fidelity="ideal",
                        horizon=HORIZON)
    result = execute_fleet(fleet, coordination="feeder")
    plan = result.coordination
    assert plan.offsets_s == (0.0,)
    assert not plan.applied
    assert result.feeder_w.times == plan.independent_w.times
    assert result.feeder_w.values == plan.independent_w.values
    assert result.comparison().diversity_uplift == pytest.approx(1.0)
