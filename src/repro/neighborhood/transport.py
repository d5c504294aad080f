"""Batched result transport for fleet-scale neighborhood runs.

Per-home pickles were measured fine at N=200 (~8 kB/home, <1 % of the
run), but at N≥500 the per-object serialisation — one ``StepSeries``
pickle per home, each a separate dispatch through the result pipe —
becomes pure overhead on the hot fan-in path.  This module replaces N
per-home series pickles with **one frame per shard**: the worker
concatenates every series' ``(times, values)`` arrays into a single
``float64`` block and ships it as one ``bytes`` blob through the
ordinary result pipe; a :class:`SeriesFrame` records the per-series
lengths.  The parent's ``np.frombuffer`` views are zero-copy over the
blob — every bulk consumer (aggregation, coordination, statistics)
reads them directly — and each view keeps the blob alive through its
``.base``.

Transport never touches values: the frame carries the exact recorded
float64 bits, so framed and in-process shards give bit-identical
results — the shard-invariance tests diff digests across both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.monitor import StepSeries


@dataclass
class SeriesFrame:
    """Many step series batched into one contiguous ``bytes`` block.

    Layout: a ``(2, total)`` float64 array — row 0 the concatenated
    event times, row 1 the concatenated values — with ``lengths[i]``
    spans in series order.  An empty frame keeps one zero-filled
    padding column, so ``blob`` is never empty.
    """

    names: tuple[str, ...]
    lengths: tuple[int, ...]
    blob: bytes

    @property
    def total(self) -> int:
        """Total number of ``(time, value)`` records in the block."""
        return sum(self.lengths)


def pack_series(series_list: Sequence[StepSeries]) -> SeriesFrame:
    """Batch ``series_list`` into one frame (worker side)."""
    lengths = tuple(len(series) for series in series_list)
    total = sum(lengths)
    # np.zeros, not np.empty: the block keeps one padding slot when
    # ``total == 0`` and that slot is never written below —
    # uninitialized padding made ``tobytes()`` blobs
    # byte-nondeterministic, breaking digests/dedup over pickled frames.
    block = np.zeros((2, max(total, 1)), dtype=np.float64)
    cursor = 0
    for series in series_list:
        times, values = series._data()
        span = times.size
        block[0, cursor:cursor + span] = times
        block[1, cursor:cursor + span] = values
        cursor += span
    return SeriesFrame(names=tuple(series.name for series in series_list),
                       lengths=lengths, blob=block.tobytes())


def unpack_series(frame: SeriesFrame) -> list[StepSeries]:
    """Rebuild the batched series from a frame (parent side), zero-copy."""
    block = np.frombuffer(frame.blob, dtype=np.float64).reshape(2, -1)
    series_list: list[StepSeries] = []
    cursor = 0
    for name, span in zip(frame.names, frame.lengths):
        series_list.append(StepSeries.from_arrays(
            name, block[0, cursor:cursor + span],
            block[1, cursor:cursor + span]))
        cursor += span
    return series_list
