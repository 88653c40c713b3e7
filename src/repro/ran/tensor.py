"""Cohort entry points: same-shape sessions run one column at a time.

A campaign cohort is a run of sessions that differ only in their derived
seed: same operator profile, duration and direction.
:func:`simulate_downlink_cohort` and :func:`simulate_uplink_cohort` run
each column through the per-session engine
(:func:`~repro.ran.simulator.simulate_downlink` /
:func:`~repro.ran.simulator.simulate_uplink`: the native period loop, or
the reference engine without the native kernel), so every trace is the
per-session trace by construction.

Both return lazy generators, one trace per column in cohort order: a
consumer that folds or stores each trace before advancing holds one
trace at a time.  With ``arena_factory`` every trace is packed into one
:class:`~repro.xcal.arena.CohortArena` for the cohort and yielded as a
row view of it; a factory that allocates the arena in shared memory
lets the shm transport of :mod:`repro.core.runner` ship segment names
instead of traces.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterator, Sequence

import numpy as np

from repro.channel.model import ChannelRealization
from repro.ran.config import CellConfig
from repro.ran.simulator import SimParams, simulate_downlink, simulate_uplink
from repro.xcal.records import SlotTrace, TraceMetadata

__all__ = [
    "cohort_stats",
    "simulate_downlink_cohort",
    "simulate_uplink_cohort",
]

_COUNTERS = {"cohorts": 0, "columns": 0}


def cohort_stats() -> dict:
    """Cohort calls made in this process and the columns they held."""
    return dict(_COUNTERS)


def _cohort(simulate: Callable[..., SlotTrace],
            channels: Collection[ChannelRealization],
            rngs: Sequence[np.random.Generator],
            metadatas: Sequence[TraceMetadata] | None,
            arena_factory) -> Iterator[SlotTrace]:
    n_cols = len(channels)
    if metadatas is None:
        metadatas = [None] * n_cols
    if not (n_cols == len(rngs) == len(metadatas)) or not n_cols:
        raise ValueError("cohort needs matching, non-empty channels/rngs/metadatas")
    _COUNTERS["cohorts"] += 1
    _COUNTERS["columns"] += n_cols
    return _columns(simulate, channels, rngs, metadatas, arena_factory)


def _columns(simulate, channels, rngs, metadatas, arena_factory) -> Iterator[SlotTrace]:
    """One trace per column; the first column sizes the arena, and a
    factory returning ``None`` (a failed shared-memory allocation)
    leaves the traces unpacked."""
    arena = None
    n_slots = None
    for c, (channel, rng, metadata) in enumerate(zip(channels, rngs, metadatas)):
        if n_slots is None:
            n_slots = channel.n_slots
            if arena_factory is not None:
                arena = arena_factory(len(rngs), n_slots, channel.mu)
        elif channel.n_slots != n_slots:
            raise ValueError("cohort channels must share one slot count")
        trace = simulate(channel, rng, metadata)
        del channel  # one realization live while the consumer runs
        if arena is not None:
            arena.pack_row(c, trace)
            trace = arena.trace(c, metadata=trace.metadata)
        yield trace


def simulate_downlink_cohort(
    cell: CellConfig,
    channels: Collection[ChannelRealization],
    rngs: Sequence[np.random.Generator],
    params: SimParams | None = None,
    metadatas: Sequence[TraceMetadata] | None = None,
    arena_factory=None,
) -> Iterator[SlotTrace]:
    """:func:`~repro.ran.simulator.simulate_downlink` over a cohort.

    ``channels``/``rngs``/``metadatas`` hold one entry per column
    (``channels`` may be any sized iterable, e.g. one that realizes each
    channel only when reached); each ``rngs[c]`` must be positioned
    where the per-session path hands it to ``simulate_downlink``.
    ``arena_factory(n_cols, n_slots, mu)`` supplies the
    :class:`~repro.xcal.arena.CohortArena` the traces are packed into.
    """
    def simulate(channel, rng, metadata):
        return simulate_downlink(cell, channel, rng=rng, params=params,
                                 metadata=metadata)

    return _cohort(simulate, channels, rngs, metadatas, arena_factory)


def simulate_uplink_cohort(
    cell: CellConfig,
    channels: Collection[ChannelRealization],
    rngs: Sequence[np.random.Generator],
    params: SimParams | None = None,
    max_layers: int = 2,
    metadatas: Sequence[TraceMetadata] | None = None,
    arena_factory=None,
) -> Iterator[SlotTrace]:
    """:func:`~repro.ran.simulator.simulate_uplink` over a cohort (see
    :func:`simulate_downlink_cohort`)."""
    def simulate(channel, rng, metadata):
        return simulate_uplink(cell, channel, rng=rng, params=params,
                               max_layers=max_layers, metadata=metadata)

    return _cohort(simulate, channels, rngs, metadatas, arena_factory)
