"""Measurement-campaign dataset generation (mirrors §2 / Table 1).

The paper's campaign covers seven operators in five cities over ~17
weeks: per-operator sessions with DL/UL iPerf runs at several times of
day.  :func:`generate_campaign` re-creates that structure synthetically:
for each operator profile it produces a set of DL and UL traces with
session-to-session environment jitter, and reports Table 1-style
statistics.

The output volume is scaled down (full-fidelity 5 TB regeneration is
pointless); the ``minutes_per_operator`` knob controls size.

Sessions are independent by construction: the campaign is expanded into
a flat manifest of :class:`~repro.core.runner.SessionTask` descriptors,
each carrying a child seed derived from the campaign seed via
``SeedSequence(spec.seed, spawn_key=(crc32(operator_key), session))``.
The derived seed is recorded in each trace's metadata, so any exported
trace can be regenerated in isolation with :func:`run_session`, and
results are bit-identical for any ``jobs`` worker count.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.runner import (SessionTask, derive_seed,
                               register_cohort_runner, run_tasks)
from repro.ran.config import resolve_engine
from repro.ran.simulator import simulate_downlink, simulate_uplink
from repro.ran.tensor import simulate_downlink_cohort, simulate_uplink_cohort
from repro.xcal.io import write_csv, write_jsonl, write_npz
from repro.xcal.records import SlotTrace, TraceMetadata

#: Trace writer and file suffix per export format; the CLI's
#: ``--out-format`` choices.
EXPORT_FORMATS = {
    "csv": (write_csv, ".csv"),
    "jsonl": (write_jsonl, ".jsonl"),
    "npz": (write_npz, ".npz"),
}

_UNSAFE_FILENAME = re.compile(r"[^A-Za-z0-9._-]+")


def _filename_key(key: str) -> str:
    """Operator key sanitized for filenames.

    Path separators, whitespace and other non-portable characters
    collapse to ``_`` so a key like ``"O_Sp 100/shared"`` cannot escape
    the export directory or produce unportable names.
    """
    cleaned = _UNSAFE_FILENAME.sub("_", key).strip("._") or "operator"
    return cleaned


@dataclass(frozen=True)
class CampaignSpec:
    """Shape of a synthetic measurement campaign.

    Parameters
    ----------
    minutes_per_operator:
        Total simulated minutes per operator (DL + UL combined).
    session_s:
        Length of one measurement session in seconds.
    session_sinr_jitter_db:
        Std-dev of the per-session mean-SINR jitter (different days,
        times and exact spots).
    ul_fraction:
        Fraction of sessions that measure the uplink.
    seed:
        Campaign-level RNG seed.
    """

    minutes_per_operator: float = 2.0
    session_s: float = 20.0
    session_sinr_jitter_db: float = 1.0
    ul_fraction: float = 0.3
    seed: int = 2024

    def __post_init__(self) -> None:
        for name in ("minutes_per_operator", "session_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not 0.0 <= self.ul_fraction <= 1.0:
            raise ValueError(f"ul_fraction must lie in [0, 1], got {self.ul_fraction!r}")


@dataclass
class MeasurementCampaign:
    """Generated campaign: traces per operator plus summary statistics."""

    spec: CampaignSpec
    dl_traces: dict[str, list[SlotTrace]] = field(default_factory=dict)
    ul_traces: dict[str, list[SlotTrace]] = field(default_factory=dict)

    @property
    def operators(self) -> list[str]:
        return sorted(set(self.dl_traces) | set(self.ul_traces))

    @property
    def total_minutes(self) -> float:
        """Total simulated measurement minutes (Table 1's '5G Network Tests')."""
        seconds = 0.0
        for traces in list(self.dl_traces.values()) + list(self.ul_traces.values()):
            seconds += sum(t.duration_s for t in traces)
        return seconds / 60.0

    @property
    def total_data_gb(self) -> float:
        """Data volume delivered across all traces (Table 1's 'Data consumed')."""
        bits = 0
        for traces in list(self.dl_traces.values()) + list(self.ul_traces.values()):
            bits += sum(t.total_bits for t in traces)
        return bits / 8e9

    def summary_rows(self) -> list[str]:
        """Printable Table 1-style summary."""
        rows = [
            f"operators: {len(self.operators)}",
            f"5G network tests: {self.total_minutes:.1f} minutes",
            f"data consumed on 5G: {self.total_data_gb:.2f} GB",
        ]
        for key in self.operators:
            n_dl = len(self.dl_traces.get(key, []))
            n_ul = len(self.ul_traces.get(key, []))
            rows.append(f"  {key:10s} sessions: {n_dl} DL / {n_ul} UL")
        return rows

    def export(self, directory: str | Path, format: str = "csv") -> list[Path]:
        """Write every trace under ``directory``; returns paths.

        ``format`` is one of :data:`EXPORT_FORMATS` (``csv``, ``jsonl``,
        ``npz``).  Each trace lands as ``<operator>_<kind>_<i>`` directly
        under ``directory``, with the operator key sanitized for
        filenames.  Two keys that sanitize to the same name raise
        ``ValueError`` before anything is written.
        """
        try:
            writer, suffix = EXPORT_FORMATS[format]
        except KeyError:
            raise ValueError(
                f"unknown export format {format!r}; known: {sorted(EXPORT_FORMATS)}"
            ) from None
        owners: dict[str, str] = {}
        for key in {**self.dl_traces, **self.ul_traces}:
            safe = _filename_key(key)
            owner = owners.setdefault(safe, key)
            if owner != key:
                raise ValueError(f"operator keys {owner!r} and {key!r} both "
                                 f"export as {safe!r}")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths: list[Path] = []
        for kind, collection in (("dl", self.dl_traces), ("ul", self.ul_traces)):
            for key, traces in collection.items():
                safe = _filename_key(key)
                for i, trace in enumerate(traces):
                    target = directory / f"{safe}_{kind}_{i:03d}{suffix}"
                    paths.append(writer(trace, target))
        return paths

    def export_csv(self, directory: str | Path) -> list[Path]:
        """Write every trace as CSV under ``directory``; returns paths."""
        return self.export(directory, format="csv")


@dataclass
class CampaignSummary:
    """Reduced campaign: per-group KPI sketches, no materialized traces.

    The streaming-reduction counterpart of :class:`MeasurementCampaign`,
    mirroring its reporting surface (``operators``, ``total_minutes``,
    ``total_data_gb``, ``summary_rows``) so Table 1 renders identically
    from either.  Session counts and delivered bits are exact; minutes
    come from a compensated sum (see :mod:`repro.core.reduce` for the
    full exact-vs-approximate contract).
    """

    spec: CampaignSpec
    sketch: object  # repro.core.reduce.CampaignSketch
    profile_keys: tuple[str, ...] = ()
    #: The reduction that produced the sketch (carries runner-side
    #: ``stats`` for the CLI's ``[reduce]`` accounting line).
    reduction: object | None = None

    def _counts(self) -> dict[str, dict[str, int]]:
        counts: dict[str, dict[str, int]] = {
            key: {"DL": 0, "UL": 0} for key in self.profile_keys}
        for group_key, group in self.sketch.groups.items():
            operator, _, direction = group_key.rpartition("/")
            counts.setdefault(operator, {"DL": 0, "UL": 0})
            counts[operator][direction] += group.n_sessions
        return counts

    @property
    def operators(self) -> list[str]:
        return sorted(self._counts())

    @property
    def n_sessions(self) -> int:
        return self.sketch.n_sessions

    @property
    def total_minutes(self) -> float:
        return sum(g.duration_s for g in self.sketch.groups.values()) / 60.0

    @property
    def total_data_gb(self) -> float:
        return sum(g.total_bits for g in self.sketch.groups.values()) / 8e9

    def group(self, operator_key: str, direction: str):
        """The :class:`~repro.core.reduce.GroupSketch` of one
        operator/direction, or ``None`` when no session fell in it."""
        return self.sketch.groups.get(f"{operator_key}/{direction}")

    def summary_rows(self) -> list[str]:
        """Printable Table 1-style summary (same shape as
        :meth:`MeasurementCampaign.summary_rows`)."""
        counts = self._counts()
        rows = [
            f"operators: {len(counts)}",
            f"5G network tests: {self.total_minutes:.1f} minutes",
            f"data consumed on 5G: {self.total_data_gb:.2f} GB",
        ]
        for key in sorted(counts):
            rows.append(f"  {key:10s} sessions: "
                        f"{counts[key]['DL']} DL / {counts[key]['UL']} UL")
        return rows


def campaign_reduction():
    """The standard campaign reduction: group by operator/direction,
    summaries only (variability sketches are opt-in per experiment)."""
    from repro.core.reduce import CampaignReduction

    return CampaignReduction(group_mode="campaign")


def session_seed(campaign_seed: int, operator_key: str, session: int) -> int:
    """Derived seed of one session of a campaign.

    The seed depends only on ``(campaign_seed, operator_key, session)``
    — not on the session count, the UL fraction, or which other
    operators are in the campaign — so shrinking or reshaping a
    campaign never perturbs the sessions it shares with a larger one.
    """
    return derive_seed(campaign_seed, operator_key, session)


def run_session(profile, spec: CampaignSpec, direction: str, seed: int) -> SlotTrace:
    """Simulate one self-contained campaign session.

    All randomness (environment jitter, channel realization, link
    simulation) flows from ``seed`` alone, which is also recorded in the
    trace metadata: feeding a trace's ``metadata.seed`` back into this
    function regenerates the trace bit-for-bit.
    """
    if direction not in ("DL", "UL"):
        raise ValueError(f"direction must be 'DL' or 'UL', got {direction!r}")
    rng = np.random.default_rng(seed)
    cell = profile.primary_cell
    jitter = spec.session_sinr_jitter_db * float(rng.standard_normal())
    metadata = TraceMetadata(
        operator=profile.operator, country=profile.country,
        carrier_name=cell.name, direction=direction,
        bandwidth_mhz=cell.bandwidth_mhz, scs_khz=cell.scs_khz,
        seed=seed,
    )
    if direction == "UL":
        channel = profile.ul_channel(jitter).realize(spec.session_s, mu=cell.mu, rng=rng)
        return simulate_uplink(cell, channel, rng=rng, params=profile.sim_params(),
                               max_layers=profile.ul_max_layers, metadata=metadata)
    channel = profile.dl_channel(jitter).realize(spec.session_s, mu=cell.mu, rng=rng)
    return simulate_downlink(cell, channel, rng=rng, params=profile.sim_params(),
                             metadata=metadata)


def run_session_cohort(profile, spec: CampaignSpec, direction: str,
                       seeds: list[int], arena_factory=None):
    """Batched counterpart of :func:`run_session` for same-shape cohorts.

    Yields one trace per seed, in order, each byte-identical to
    ``run_session(profile, spec, direction, seed)``.  When the engine
    policy selects the cross-session tensor pass
    (``resolve_engine(len(seeds)) == "tensor"``) the whole
    cohort executes as one ``(sessions x slots)`` pass in
    :mod:`repro.ran.tensor`; otherwise sessions run one at a time
    through the per-session path.  Either way the result is a lazy
    generator — a consumer that folds or stores each trace before
    advancing holds at most one trace.

    Registered as the cohort runner for :func:`run_session`, so
    :func:`repro.core.runner.run_tasks` routes maximal same-shape
    manifest runs through here automatically.

    ``arena_factory`` (``(n_cols, n_slots, mu) -> CohortArena | None``)
    is forwarded to the tensor engine so materializing consumers — the
    runner's serial path and its pipe and shared-memory transports —
    get the cohort-wide arena flush; the per-session fallback path
    ignores it.
    """
    if direction not in ("DL", "UL"):
        raise ValueError(f"direction must be 'DL' or 'UL', got {direction!r}")
    if resolve_engine(len(seeds)) != "tensor":
        return (run_session(profile, spec, direction, seed) for seed in seeds)
    params = profile.sim_params()
    cell = profile.primary_cell
    rngs, channels, metadatas = [], [], []
    for seed in seeds:
        # Exactly run_session's draw order per seed: jitter, then the
        # channel realization; the simulator consumes the rest.
        rng = np.random.default_rng(seed)
        jitter = spec.session_sinr_jitter_db * float(rng.standard_normal())
        metadatas.append(TraceMetadata(
            operator=profile.operator, country=profile.country,
            carrier_name=cell.name, direction=direction,
            bandwidth_mhz=cell.bandwidth_mhz, scs_khz=cell.scs_khz,
            seed=seed,
        ))
        prior = profile.ul_channel(jitter) if direction == "UL" \
            else profile.dl_channel(jitter)
        channels.append(prior.realize(spec.session_s, mu=cell.mu, rng=rng))
        rngs.append(rng)
    if direction == "UL":
        return simulate_uplink_cohort(cell, channels, rngs, params=params,
                                      max_layers=profile.ul_max_layers,
                                      metadatas=metadatas,
                                      arena_factory=arena_factory)
    return simulate_downlink_cohort(cell, channels, rngs, params=params,
                                    metadatas=metadatas,
                                    arena_factory=arena_factory)


register_cohort_runner(run_session, run_session_cohort, accepts_arena=True)


def campaign_manifest(profiles: dict, spec: CampaignSpec) -> list[SessionTask]:
    """Expand a campaign into its flat session manifest."""
    n_sessions = max(1, int(round(spec.minutes_per_operator * 60.0 / spec.session_s)))
    n_ul = int(round(n_sessions * spec.ul_fraction))
    tasks: list[SessionTask] = []
    for key, profile in profiles.items():
        for session in range(n_sessions):
            direction = "UL" if session < n_ul else "DL"
            tasks.append(SessionTask(
                fn=run_session,
                kwargs={"profile": profile, "spec": spec, "direction": direction},
                seed=session_seed(spec.seed, key, session),
                label=f"{key}/{direction}/{session:03d}",
            ))
    return tasks


def generate_campaign(
    profiles: dict | None = None,
    spec: CampaignSpec | None = None,
    jobs: int | str | None = 1,
    store=None,
    executor=None,
    reduce: bool | object = False,
) -> MeasurementCampaign | CampaignSummary:
    """Generate a synthetic campaign over the given operator profiles.

    ``profiles`` defaults to all operators of the study.  Per session
    the operator's environment prior is jittered, a channel realization
    drawn, and a full-buffer DL or UL run simulated.  Sessions execute
    through :func:`repro.core.runner.run_tasks`: ``jobs=1`` (default)
    runs serially, ``jobs=N`` or ``jobs="auto"`` fans out to a process
    pool with bit-identical results.  ``store`` (a
    :class:`repro.store.TraceStore`) memoizes sessions: previously
    simulated ones load from disk, new ones are simulated and
    backfilled, and the campaign is identical either way.  ``executor``
    (a :class:`repro.core.runner.CampaignExecutor`) reuses one warm
    worker pool across campaigns.

    ``reduce`` switches to streaming reduction: ``True`` uses the
    standard :func:`campaign_reduction` (or pass a configured
    :class:`~repro.core.reduce.CampaignReduction`), traces are folded
    into per-group sketches as they complete — never all held in memory
    — and the return value is a :class:`CampaignSummary` instead of a
    :class:`MeasurementCampaign`.
    """
    from repro.operators.profiles import ALL_PROFILES

    profiles = profiles if profiles is not None else ALL_PROFILES
    spec = spec or CampaignSpec()
    manifest = campaign_manifest(profiles, spec)
    if reduce:
        reduction = campaign_reduction() if reduce is True else reduce
        sketch = run_tasks(manifest, jobs=jobs, store=store, executor=executor,
                           reduce=reduction)
        return CampaignSummary(spec=spec, sketch=sketch,
                               profile_keys=tuple(profiles), reduction=reduction)
    campaign = MeasurementCampaign(spec=spec)
    for key in profiles:
        campaign.dl_traces[key] = []
        campaign.ul_traces[key] = []
    results = run_tasks(manifest, jobs=jobs, store=store, executor=executor)
    for task, trace in zip(manifest, results):
        key, direction, _ = task.label.rsplit("/", 2)  # key itself may contain "/"
        collection = campaign.ul_traces if direction == "UL" else campaign.dl_traces
        collection[key].append(trace)
    return campaign
