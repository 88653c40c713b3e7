"""Mergeable per-session sketches — streaming KPI reduction.

The paper's headline results (Figs. 1, 3, 12; Tables 2-3) are
distribution summaries over thousands of sessions: means, CDF
percentiles, scaled-variability profiles.  Materializing a full
per-slot :class:`~repro.xcal.records.SlotTrace` per session makes
memory — not compute — the campaign-size ceiling.  This module defines
the mergeable sketch a worker folds each session into so only the
sketch (a few KB, independent of session length) crosses the process
boundary, and ``run_tasks(..., reduce=...)`` can left-fold a
million-session campaign without ever holding more than one in-flight
trace per worker.

Exact-vs-approximate contract (the documented tolerances):

- **Bit-exact**: session counts, slot counts, delivered bits (integer
  sums), per-group min/max session throughput, and — for a single
  session per group — the pooled variability profile, which collapses
  to :func:`repro.core.variability.scaled_variability` by construction.
- **Exact within float accumulation order** (observed ≲ 1e-12
  relative): means and total minutes/GB.  Scalar folds use
  Neumaier-compensated summation; numpy's pairwise ``mean`` and the
  compensated left-fold agree to that tolerance but are not
  bit-identical in general.
- **Approximate with a hard bound**: percentiles come from a fixed-bin
  histogram over ``[quantile_lo, quantile_hi]``; any percentile of
  in-range data is off by at most half a bin width
  (:attr:`QuantileSketch.resolution` / 2).  Out-of-range mass clamps
  into the edge bins, and estimates always clamp to the exact observed
  ``[min, max]``.
- Standard deviation merges per Chan et al.'s pairwise ``m2`` update
  (observed ≲ 1e-9 relative vs. two-pass numpy).

Determinism: a sketch folded from the same manifest is byte-identical
(via :func:`repro.store.codec.encode`) for any worker count and either
transport, because workers ship *per-task* sketches and the parent
merges them in manifest order — the merge tree never depends on
scheduling.  Cohort execution keeps that shape: a cohort tensor pass
yields its columns one at a time in cohort (manifest) order, each
folded into a per-task sketch as it streams out, so the fold never
materializes a cohort's traces together and the merge tree is the
same whether sessions ran singly or batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from repro.core.stats import Summary
from repro.core.variability import MIN_VALID_FRACTION, abs_diff_stats

__all__ = [
    "CampaignReduction",
    "CampaignSketch",
    "GroupSketch",
    "MomentSketch",
    "QuantileSketch",
    "VariabilitySketch",
]

#: Bump when the serialized sketch layout changes (invalidates stored
#: campaign-level sketches through the reduce-key payload).
SKETCH_SCHEMA_VERSION = 1


def _neumaier(total: float, comp: float, x: float) -> tuple[float, float]:
    """One Neumaier-compensated accumulation step."""
    t = total + x
    if abs(total) >= abs(x):
        comp += (total - t) + x
    else:
        comp += (x - t) + total
    return t, comp


# ---------------------------------------------------------------------- #
# Scalar moments
# ---------------------------------------------------------------------- #
@dataclass(eq=False)
class MomentSketch:
    """Streaming count/sum/min/max/second-moment of a scalar KPI.

    The sum carries a Neumaier compensation term; ``m2`` (sum of squared
    deviations) merges with Chan et al.'s pairwise update, so folds and
    merges commute with plain accumulation up to float rounding.
    """

    count: int = 0
    total: float = 0.0
    comp: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, x: float) -> None:
        x = float(x)
        if self.count == 0:
            self.count, self.total, self.comp, self.m2 = 1, x, 0.0, 0.0
            self.minimum = self.maximum = x
            return
        na = self.count
        delta = x - self.mean
        self.m2 += delta * delta * (na / (na + 1))
        self.count = na + 1
        self.total, self.comp = _neumaier(self.total, self.comp, x)
        self.minimum = min(self.minimum, x)
        self.maximum = max(self.maximum, x)

    def merge(self, other: "MomentSketch") -> "MomentSketch":
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.total, self.comp = other.count, other.total, other.comp
            self.m2, self.minimum, self.maximum = other.m2, other.minimum, other.maximum
            return self
        na, nb = self.count, other.count
        delta = other.mean - self.mean
        self.m2 = self.m2 + other.m2 + delta * delta * (na * nb / (na + nb))
        self.count = na + nb
        self.total, self.comp = _neumaier(self.total, self.comp, other.total)
        self.total, self.comp = _neumaier(self.total, self.comp, other.comp)
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @property
    def mean(self) -> float:
        if self.count == 0:
            return float("nan")
        return (self.total + self.comp) / self.count

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1), 0.0 for a single sample —
        mirrors :func:`repro.core.stats.summarize`."""
        if self.count == 0:
            return float("nan")
        if self.count == 1:
            return 0.0
        return math.sqrt(max(self.m2, 0.0) / (self.count - 1))

    def state(self) -> dict:
        return {
            "count": int(self.count),
            "total": float(self.total),
            "comp": float(self.comp),
            "m2": float(self.m2),
            "min": None if self.count == 0 else float(self.minimum),
            "max": None if self.count == 0 else float(self.maximum),
        }

    @classmethod
    def from_state(cls, state: dict) -> "MomentSketch":
        return cls(count=int(state["count"]), total=float(state["total"]),
                   comp=float(state["comp"]), m2=float(state["m2"]),
                   minimum=math.inf if state["min"] is None else float(state["min"]),
                   maximum=-math.inf if state["max"] is None else float(state["max"]))


# ---------------------------------------------------------------------- #
# Quantiles
# ---------------------------------------------------------------------- #
@dataclass(eq=False)
class QuantileSketch:
    """Fixed-bin histogram for percentile estimates.

    ``n_bins`` equal-width bins over ``[lo, hi)``; out-of-range values
    clamp into the edge bins.  A percentile is estimated by walking the
    cumulative counts to the target order-statistic rank (numpy's
    ``linear`` convention, rank ``q/100 * (n-1)``) and placing each
    bracketing order statistic at its bin midpoint, then clamping to the
    exact observed min/max tracked by the paired :class:`MomentSketch`.
    For data inside ``[lo, hi]`` the error is at most half a bin width.
    """

    lo: float
    hi: float
    counts: np.ndarray

    def __init__(self, lo: float, hi: float, n_bins: int = 1024,
                 counts: np.ndarray | None = None) -> None:
        if not (hi > lo):
            raise ValueError("quantile sketch needs hi > lo")
        if n_bins < 1:
            raise ValueError("quantile sketch needs at least one bin")
        self.lo = float(lo)
        self.hi = float(hi)
        if counts is None:
            counts = np.zeros(n_bins, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def resolution(self) -> float:
        """Bin width — percentile error is bounded by half of this."""
        return (self.hi - self.lo) / self.n_bins

    def add(self, x: float) -> None:
        b = int((float(x) - self.lo) / self.resolution)
        self.counts[min(max(b, 0), self.n_bins - 1)] += 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        if (other.lo, other.hi, other.n_bins) != (self.lo, self.hi, self.n_bins):
            raise ValueError("cannot merge quantile sketches with different bins")
        self.counts += other.counts
        return self

    def _value_at_rank(self, rank: int, cumulative: np.ndarray) -> float:
        b = int(np.searchsorted(cumulative, rank, side="right"))
        return self.lo + (b + 0.5) * self.resolution

    def percentile(self, q: float, minimum: float, maximum: float) -> float:
        """Estimated ``q``-th percentile, clamped to the exact
        ``[minimum, maximum]`` observed by the paired moment sketch."""
        n = int(self.counts.sum())
        if n == 0:
            return float("nan")
        if minimum == maximum:
            return float(minimum)
        cumulative = np.cumsum(self.counts)
        rank = (q / 100.0) * (n - 1)
        low_rank = int(math.floor(rank))
        value = self._value_at_rank(low_rank, cumulative)
        frac = rank - low_rank
        if frac > 0.0:
            value += frac * (self._value_at_rank(low_rank + 1, cumulative) - value)
        return float(min(max(value, minimum), maximum))

    def state(self) -> dict:
        return {"lo": float(self.lo), "hi": float(self.hi), "n_bins": self.n_bins}


# ---------------------------------------------------------------------- #
# Scaled variability
# ---------------------------------------------------------------------- #
@dataclass(eq=False)
class VariabilitySketch:
    """Streaming pooled V(t) accumulators per dyadic block size.

    Per scale ``t = 2^k * base_interval_ms`` this keeps the
    (compensated) sum of absolute first differences and their count,
    pooled across sessions; ``V(t) = sum / count`` — for one session
    this is exactly :func:`repro.core.variability.scaled_variability`,
    for many it is the sample-weighted pooled mean.
    """

    base_interval_ms: float
    max_scale_ms: float = 2048.0
    min_valid_fraction: float = MIN_VALID_FRACTION
    sums: list = field(default_factory=list)
    comps: list = field(default_factory=list)
    counts: list = field(default_factory=list)

    def _grow(self, n_scales: int) -> None:
        while len(self.sums) < n_scales:
            self.sums.append(0.0)
            self.comps.append(0.0)
            self.counts.append(0)

    def fold_series(self, samples: np.ndarray) -> None:
        samples = np.asarray(samples, dtype=float)
        block, k = 1, 0
        while block * self.base_interval_ms <= self.max_scale_ms:
            total, count = abs_diff_stats(samples, block, self.min_valid_fraction)
            if count:
                self._grow(k + 1)
                self.sums[k], self.comps[k] = _neumaier(self.sums[k], self.comps[k], total)
                self.counts[k] += count
            block *= 2
            k += 1

    def merge(self, other: "VariabilitySketch") -> "VariabilitySketch":
        if (other.base_interval_ms, other.max_scale_ms) != \
                (self.base_interval_ms, self.max_scale_ms):
            raise ValueError("cannot merge variability sketches with different scales")
        self._grow(len(other.sums))
        for k in range(len(other.sums)):
            self.sums[k], self.comps[k] = _neumaier(self.sums[k], self.comps[k],
                                                    other.sums[k])
            self.sums[k], self.comps[k] = _neumaier(self.sums[k], self.comps[k],
                                                    other.comps[k])
            self.counts[k] += other.counts[k]
        return self

    def profile(self) -> tuple[np.ndarray, np.ndarray]:
        """``(scales_ms, v)`` — the Fig. 12 profile shape, scales with
        no valid differences omitted (matching ``variability_profile``)."""
        scales: list[float] = []
        values: list[float] = []
        for k in range(len(self.sums)):
            if self.counts[k]:
                scales.append((1 << k) * self.base_interval_ms)
                values.append((self.sums[k] + self.comps[k]) / self.counts[k])
        return np.array(scales), np.array(values)

    def state(self) -> dict:
        return {
            "base_interval_ms": float(self.base_interval_ms),
            "max_scale_ms": float(self.max_scale_ms),
            "min_valid_fraction": float(self.min_valid_fraction),
            "sums": [float(v) for v in self.sums],
            "comps": [float(v) for v in self.comps],
            "counts": [int(v) for v in self.counts],
        }

    @classmethod
    def from_state(cls, state: dict) -> "VariabilitySketch":
        return cls(base_interval_ms=float(state["base_interval_ms"]),
                   max_scale_ms=float(state["max_scale_ms"]),
                   min_valid_fraction=float(state["min_valid_fraction"]),
                   sums=[float(v) for v in state["sums"]],
                   comps=[float(v) for v in state["comps"]],
                   counts=[int(v) for v in state["counts"]])


# ---------------------------------------------------------------------- #
# Per-group and campaign sketches
# ---------------------------------------------------------------------- #
@dataclass(eq=False)
class GroupSketch:
    """All KPI accumulators for one reduction group (operator/direction)."""

    throughput: MomentSketch
    quantiles: QuantileSketch
    n_slots: int = 0
    total_bits: int = 0
    duration_total: float = 0.0
    duration_comp: float = 0.0
    slot_ms: float | None = None
    variability: dict = field(default_factory=dict)

    @property
    def n_sessions(self) -> int:
        return self.throughput.count

    @property
    def duration_s(self) -> float:
        return self.duration_total + self.duration_comp

    def fold_session(self, mean_throughput: float, n_slots: int, bits: int,
                     duration_s: float) -> None:
        self.throughput.add(mean_throughput)
        self.quantiles.add(mean_throughput)
        self.n_slots += int(n_slots)
        self.total_bits += int(bits)
        self.duration_total, self.duration_comp = _neumaier(
            self.duration_total, self.duration_comp, float(duration_s))

    def merge(self, other: "GroupSketch") -> "GroupSketch":
        self.throughput.merge(other.throughput)
        self.quantiles.merge(other.quantiles)
        self.n_slots += other.n_slots
        self.total_bits += other.total_bits
        self.duration_total, self.duration_comp = _neumaier(
            self.duration_total, self.duration_comp, other.duration_total)
        self.duration_total, self.duration_comp = _neumaier(
            self.duration_total, self.duration_comp, other.duration_comp)
        if self.slot_ms is None:
            self.slot_ms = other.slot_ms
        elif other.slot_ms is not None and other.slot_ms != self.slot_ms:
            raise ValueError("cannot merge groups with different slot durations")
        for kpi, sketch in other.variability.items():
            mine = self.variability.get(kpi)
            if mine is None:
                self.variability[kpi] = sketch
            else:
                mine.merge(sketch)
        return self

    def summary(self) -> Summary:
        """The :func:`repro.core.stats.summarize` shape over per-session
        mean throughputs (count/mean/std/min/max per the moment sketch,
        percentiles per the quantile sketch)."""
        n = self.throughput.count
        if n == 0:
            nan = float("nan")
            return Summary(0, nan, nan, nan, nan, nan, nan, nan)
        lo, hi = self.throughput.minimum, self.throughput.maximum
        return Summary(
            n=n,
            mean=self.throughput.mean,
            std=self.throughput.std,
            minimum=lo,
            p25=self.quantiles.percentile(25.0, lo, hi),
            median=self.quantiles.percentile(50.0, lo, hi),
            p75=self.quantiles.percentile(75.0, lo, hi),
            maximum=hi,
        )

    def state(self) -> dict:
        return {
            "throughput": self.throughput.state(),
            "quantiles": self.quantiles.state(),
            "n_slots": int(self.n_slots),
            "total_bits": int(self.total_bits),
            "duration": [float(self.duration_total), float(self.duration_comp)],
            "slot_ms": None if self.slot_ms is None else float(self.slot_ms),
            "variability": {kpi: sketch.state()
                            for kpi, sketch in sorted(self.variability.items())},
        }

    @classmethod
    def from_state(cls, state: dict, qcounts: np.ndarray) -> "GroupSketch":
        qmeta = state["quantiles"]
        return cls(
            throughput=MomentSketch.from_state(state["throughput"]),
            quantiles=QuantileSketch(qmeta["lo"], qmeta["hi"], qmeta["n_bins"],
                                     counts=qcounts),
            n_slots=int(state["n_slots"]),
            total_bits=int(state["total_bits"]),
            duration_total=float(state["duration"][0]),
            duration_comp=float(state["duration"][1]),
            slot_ms=None if state["slot_ms"] is None else float(state["slot_ms"]),
            variability={kpi: VariabilitySketch.from_state(vs)
                         for kpi, vs in state["variability"].items()},
        )


@dataclass(eq=False)
class CampaignSketch:
    """Merged campaign state: one :class:`GroupSketch` per group key.

    Groups keep first-fold (manifest) order; ``merge`` consumes the
    right-hand sketch (shared accumulators), matching the runner's
    left-fold usage.
    """

    groups: dict = field(default_factory=dict)

    @property
    def n_sessions(self) -> int:
        return sum(g.n_sessions for g in self.groups.values())

    def group(self, key: str) -> GroupSketch:
        return self.groups[key]

    def merge(self, other: "CampaignSketch") -> "CampaignSketch":
        for key, group in other.groups.items():
            mine = self.groups.get(key)
            if mine is None:
                self.groups[key] = group
            else:
                mine.merge(group)
        return self

    # ------------------------------------------------------------------ #
    # Serialization (repro.store.codec "sketch" payloads)
    # ------------------------------------------------------------------ #
    def to_arrays(self) -> tuple[dict, dict]:
        """``(arrays, meta)`` for deterministic npz encoding: quantile
        count vectors as arrays, everything else as exact JSON scalars."""
        names = list(self.groups)
        arrays = {f"g{i}.qcounts": self.groups[name].quantiles.counts
                  for i, name in enumerate(names)}
        meta = {
            "version": SKETCH_SCHEMA_VERSION,
            "groups": names,
            "data": [self.groups[name].state() for name in names],
        }
        return arrays, meta

    @classmethod
    def from_arrays(cls, arrays: dict, meta: dict) -> "CampaignSketch":
        if meta.get("version") != SKETCH_SCHEMA_VERSION:
            raise ValueError(f"unsupported sketch version {meta.get('version')!r}")
        groups = {}
        for i, name in enumerate(meta["groups"]):
            groups[name] = GroupSketch.from_state(meta["data"][i],
                                                  arrays[f"g{i}.qcounts"])
        return cls(groups=groups)


# ---------------------------------------------------------------------- #
# The reduction
# ---------------------------------------------------------------------- #
#: KPI name -> per-slot series extractor (SlotTrace -> 1-D float array),
#: matching the fig12 series definitions.
def _throughput_series(trace: Any) -> np.ndarray:
    return trace.throughput_mbps(trace.slot_duration_ms)


def _mcs_series(trace: Any) -> np.ndarray:
    from repro.core.timeseries import KpiSeries

    return KpiSeries.from_trace_column(trace, "mcs_index").values


def _mimo_series(trace: Any) -> np.ndarray:
    from repro.core.timeseries import KpiSeries

    return KpiSeries.from_trace_column(trace, "layers").values


_KPI_SERIES = {
    "throughput": _throughput_series,
    "mcs": _mcs_series,
    "mimo": _mimo_series,
}


@dataclass
class CampaignReduction:
    """Fold/merge strategy turning session results into a
    :class:`CampaignSketch`.

    ``group_mode``:

    - ``"campaign"`` — group by ``<operator>/<direction>`` parsed from
      campaign manifest labels (``key/DL/017``);
    - ``"label"`` — one group per full task label (experiment manifests
      where each task is its own reporting unit).

    ``variability_kpis`` opts into per-scale V(t) accumulators (``"throughput"``,
    ``"mcs"``, ``"mimo"``); they cost one pass over the slot series per
    scale, so campaigns that only need throughput summaries leave it
    empty.  Carrier-aggregated results fold their aggregate throughput
    series; MCS/MIMO sketches skip them (no single per-slot series).

    The binning and V(t) constants below are the same for every
    campaign; they stay in the fingerprint so memo keys are unchanged.

    The ``stats`` dict is runner-side accounting (folded/merged counts,
    memo state) surfaced by the CLI's ``[reduce]`` line; it never enters
    the fingerprint.
    """

    group_mode: str = "campaign"
    variability_kpis: tuple = ()
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    max_scale_ms: ClassVar[float] = 2048.0
    quantile_lo: ClassVar[float] = 0.0
    quantile_hi: ClassVar[float] = 4096.0
    quantile_bins: ClassVar[int] = 1024
    min_valid_fraction: ClassVar[float] = MIN_VALID_FRACTION

    def __post_init__(self) -> None:
        if self.group_mode not in ("campaign", "label"):
            raise ValueError(f"unknown group_mode {self.group_mode!r}")
        unknown = set(self.variability_kpis) - set(_KPI_SERIES)
        if unknown:
            raise ValueError(f"unknown variability KPIs {sorted(unknown)!r}")
        self.variability_kpis = tuple(self.variability_kpis)

    # -- identity ------------------------------------------------------- #
    def fingerprint(self) -> str:
        """Canonical JSON of the reduction *configuration* (excludes the
        mutable ``stats``) — part of the campaign-level sketch key."""
        from repro.store.keys import canonical_json

        return canonical_json({
            "sketch_version": SKETCH_SCHEMA_VERSION,
            "group_mode": self.group_mode,
            "variability_kpis": list(self.variability_kpis),
            "max_scale_ms": self.max_scale_ms,
            "quantile_lo": self.quantile_lo,
            "quantile_hi": self.quantile_hi,
            "quantile_bins": self.quantile_bins,
            "min_valid_fraction": self.min_valid_fraction,
        })

    # -- folding -------------------------------------------------------- #
    def empty(self) -> CampaignSketch:
        return CampaignSketch()

    def _group_key(self, task: Any) -> str:
        label = getattr(task, "label", "") or ""
        if self.group_mode == "label":
            return label
        key, _, rest = label.rpartition("/")
        operator, _, direction = key.rpartition("/")
        if not operator or not direction:
            raise ValueError(
                f"label {label!r} is not campaign-shaped (<operator>/<DL|UL>/<index>)")
        del rest
        return f"{operator}/{direction}"

    def _new_group(self) -> GroupSketch:
        return GroupSketch(
            throughput=MomentSketch(),
            quantiles=QuantileSketch(self.quantile_lo, self.quantile_hi,
                                     self.quantile_bins),
        )

    def _fold_variability(self, group: GroupSketch, trace: Any) -> None:
        for kpi in self.variability_kpis:
            series = _KPI_SERIES[kpi](trace)
            sketch = group.variability.get(kpi)
            if sketch is None:
                sketch = VariabilitySketch(
                    base_interval_ms=trace.slot_duration_ms,
                    max_scale_ms=self.max_scale_ms,
                    min_valid_fraction=self.min_valid_fraction)
                group.variability[kpi] = sketch
            sketch.fold_series(series)

    def fold(self, task: Any, value: Any) -> CampaignSketch:
        """One session result -> a single-group, single-session sketch."""
        sketch = CampaignSketch()
        group = self._new_group()
        sketch.groups[self._group_key(task)] = group
        per_carrier = getattr(value, "per_carrier", None)
        if per_carrier is not None:  # AggregatedResult
            primary = value.primary
            group.fold_session(
                mean_throughput=value.mean_throughput_mbps,
                n_slots=len(primary),
                bits=sum(t.total_bits for t in per_carrier),
                duration_s=primary.duration_s)
            group.slot_ms = primary.slot_duration_ms
            if "throughput" in self.variability_kpis:
                series = value.throughput_mbps(primary.slot_duration_ms)
                vs = VariabilitySketch(base_interval_ms=primary.slot_duration_ms,
                                       max_scale_ms=self.max_scale_ms,
                                       min_valid_fraction=self.min_valid_fraction)
                vs.fold_series(series)
                group.variability["throughput"] = vs
        else:  # SlotTrace
            group.fold_session(
                mean_throughput=value.mean_throughput_mbps,
                n_slots=len(value),
                bits=value.total_bits,
                duration_s=value.duration_s)
            group.slot_ms = value.slot_duration_ms
            self._fold_variability(group, value)
        return sketch

    def merge(self, acc: CampaignSketch, sketch: CampaignSketch) -> CampaignSketch:
        """Left-fold step: merge ``sketch`` into ``acc`` (consumes both)."""
        return acc.merge(sketch)
