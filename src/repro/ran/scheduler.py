"""Downlink RB schedulers: round-robin and proportional fair.

With a single backlogged UE (the paper's iPerf measurements) every
scheduler allocates "close to the maximum RBs" (Fig. 4); the policies
differ only under contention — §5.2 / Fig. 14 shows two simultaneous
full-buffer UEs each receive roughly half the RBs and half the
throughput, which both policies reproduce for symmetric demands.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field


@dataclass(slots=True)
class SchedulingRequest:
    """Per-slot scheduling input for one UE.

    Slotted: the multi-UE simulator constructs (or reuses) one of these
    per UE per slot, so attribute access is on the scheduler's hot path.
    """

    ue_id: int
    backlog_bits: int
    instantaneous_rate: float  # achievable bits/slot at current MCS/rank
    average_rate: float = 1.0  # EWMA throughput (PF denominator)


class Scheduler(abc.ABC):
    """Interface: split ``total_rb`` RBs among the requesting UEs."""

    @abc.abstractmethod
    def allocate(self, requests: list[SchedulingRequest], total_rb: int) -> dict[int, int]:
        """Return ``{ue_id: n_rb}``; unallocated UEs are omitted."""

    @staticmethod
    def _active(requests: list[SchedulingRequest]) -> list[SchedulingRequest]:
        return [r for r in requests if r.backlog_bits > 0]


@dataclass
class RoundRobinScheduler(Scheduler):
    """Equal RB split with a rotating remainder.

    RBs are divided evenly; the indivisible remainder rotates across
    slots so long-run shares are exactly equal.  The rotation is keyed
    on ``ue_id`` — not on position in the request list — so request
    reordering or UEs joining/leaving between slots cannot re-target
    the remainder and skew long-run shares.
    """

    _next_ue: int | None = None

    def allocate(self, requests: list[SchedulingRequest], total_rb: int) -> dict[int, int]:
        if total_rb < 0:
            raise ValueError("total_rb must be non-negative")
        active = self._active(requests)
        if not active or total_rb == 0:
            return {}
        order = sorted(active, key=lambda r: r.ue_id)
        n = len(order)
        base, remainder = divmod(total_rb, n)
        allocation = {r.ue_id: base for r in order}
        start = 0
        if self._next_ue is not None:
            # Resume at the stored ue_id, or the next-higher one present.
            start = next((k for k, r in enumerate(order) if r.ue_id >= self._next_ue), 0)
        for k in range(remainder):
            allocation[order[(start + k) % n].ue_id] += 1
        if remainder:
            self._next_ue = order[(start + remainder) % n].ue_id
        return {ue: rb for ue, rb in allocation.items() if rb > 0}


@dataclass
class ProportionalFairScheduler(Scheduler):
    """Proportional-fair frequency-domain scheduling.

    RBs are split proportionally to the PF metric
    ``instantaneous_rate / average_rate``; with symmetric channels this
    degenerates to an even split, and a UE in a fade yields RBs to peers.
    The EWMA averages are maintained by the caller via :meth:`update_average`.
    """

    ewma_alpha: float = 0.05
    averages: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must lie in (0, 1]")

    def allocate(self, requests: list[SchedulingRequest], total_rb: int) -> dict[int, int]:
        if total_rb < 0:
            raise ValueError("total_rb must be non-negative")
        active = self._active(requests)
        if not active or total_rb == 0:
            return {}
        averages = self.averages
        metrics = [
            r.instantaneous_rate / max(averages.get(r.ue_id, r.average_rate), 1e-9)
            for r in active
        ]
        total_metric = 0.0
        for m in metrics:
            total_metric += m
        if total_metric <= 0:
            metrics = [1.0] * len(active)
            total_metric = float(len(active))
        # Pure scalar arithmetic: this runs once per DL slot and the
        # request lists are a handful of UEs, where numpy's per-call
        # overhead dwarfs the work.
        rbs = []
        fractional = []
        assigned = 0
        for m in metrics:
            scaled = (m / total_metric) * total_rb
            n = int(scaled)  # floor: scaled is non-negative
            rbs.append(n)
            fractional.append(scaled - n)
            assigned += n
        # Distribute the rounding remainder to the largest fractional
        # parts; sorted() is stable, so ties go to the lower index.
        remainder = total_rb - assigned
        if remainder > 0:
            order = sorted(range(len(active)), key=fractional.__getitem__, reverse=True)
            for idx in order[:remainder]:
                rbs[idx] += 1
        return {r.ue_id: n for r, n in zip(active, rbs) if n > 0}

    def update_average(self, ue_id: int, served_bits: float) -> None:
        """Fold one slot's service into the UE's EWMA throughput."""
        previous = self.averages.get(ue_id, max(served_bits, 1.0))
        self.averages[ue_id] = (1.0 - self.ewma_alpha) * previous + self.ewma_alpha * served_bits
