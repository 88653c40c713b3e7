"""Byte-identity of the cohort entry points.

A cohort of same-shape sessions (same cell/params/duration, differing
only in seed) must come out of :mod:`repro.ran.tensor` byte-identical
to running each session alone through the reference engine — the same
npz bytes a campaign export would write, whether the traces are
yielded on their own or packed into a cohort arena.  The matrix covers
the knobs that reshape the slot loop (modulation table, TDD vs FDD,
OLLA on/off, retx density via SINR regime, DL vs UL) crossed with
cohort sizes, plus a mixed cohort where only some columns ever
retransmit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.model import SyntheticChannel
from repro.nr.mcs import Modulation
from repro.nr.tdd import TddPattern
from repro.ran import _native, tensor
from repro.ran.config import CellConfig, resolve_engine
from repro.ran.simulator import SimParams, simulate_downlink, simulate_uplink
from repro.ran.tensor import simulate_downlink_cohort, simulate_uplink_cohort
from repro.xcal.arena import CohortArena
from repro.xcal.io import npz_bytes, trace_to_arrays

DURATION_S = 1.5
JITTER_DB = 2.0


def _trace_bytes(trace) -> bytes:
    return npz_bytes(trace_to_arrays(trace), {})


def _tdd_cell(max_modulation: Modulation, bandwidth_mhz: int = 90) -> CellConfig:
    return CellConfig(name=f"tensor n78 {bandwidth_mhz}MHz", band_name="n78",
                      bandwidth_mhz=bandwidth_mhz, scs_khz=30,
                      max_modulation=max_modulation,
                      tdd=TddPattern.from_string("DDDSU"))


def _fdd_cell() -> CellConfig:
    return CellConfig(name="tensor n25 20MHz", band_name="n25",
                      bandwidth_mhz=20, scs_khz=15,
                      max_modulation=Modulation.QAM256, tdd=None,
                      n_rb_override=51)


def _channel_and_rng(mean_sinr_db: float, seed: int, cell: CellConfig,
                     duration_s: float = DURATION_S,
                     jitter_db: float = JITTER_DB):
    """One session's channel + positioned rng, in campaign draw order."""
    rng = np.random.default_rng(seed)
    jitter = jitter_db * float(rng.standard_normal())
    channel = SyntheticChannel(mean_sinr_db=mean_sinr_db + jitter).realize(
        duration_s, mu=cell.mu, rng=rng)
    return channel, rng


def _single_bytes(monkeypatch, simulate, cell: CellConfig, mean_sinr_db: float,
                  seed: int, engine: str, duration_s: float = DURATION_S,
                  **params) -> bytes:
    channel, rng = _channel_and_rng(mean_sinr_db, seed, cell, duration_s)
    with monkeypatch.context() as env:
        env.setenv("REPRO_ENGINE", engine)
        trace = simulate(cell, channel, rng=rng, params=SimParams(**params))
    return _trace_bytes(trace)


def _cohort_bytes(simulate_cohort, cell: CellConfig, mean_sinr_db: float,
                  seeds: list[int], duration_s: float = DURATION_S,
                  arena_factory=None, **params) -> list[bytes]:
    channels, rngs = [], []
    for seed in seeds:
        channel, rng = _channel_and_rng(mean_sinr_db, seed, cell, duration_s)
        channels.append(channel)
        rngs.append(rng)
    return [_trace_bytes(t) for t in simulate_cohort(
        cell, channels, rngs, params=SimParams(**params),
        arena_factory=arena_factory)]


CASES = {
    # High SINR: long clean stretches, few divergent periods.
    "tdd-256qam-good": (_tdd_cell(Modulation.QAM256), 22.0, {}),
    # Mid SINR: OLLA converges to ~10% BLER, every column diverges often.
    "tdd-256qam-mid": (_tdd_cell(Modulation.QAM256), 12.0, {}),
    # Poor SINR: retx windows dominate most slots.
    "tdd-256qam-poor": (_tdd_cell(Modulation.QAM256), 2.0, {}),
    "tdd-64qam": (_tdd_cell(Modulation.QAM64, bandwidth_mhz=60), 15.0, {}),
    "fdd-256qam": (_fdd_cell(), 18.0, {}),
    "tdd-no-olla": (_tdd_cell(Modulation.QAM256), 14.0,
                    {"olla_enabled": False}),
    "tdd-retx-heavy": (_tdd_cell(Modulation.QAM256), 8.0,
                       {"cqi_alpha": 1.4, "retx_error_scale": 0.9,
                        "harq_rtt_slots": 6}),
}


@pytest.mark.parametrize("cohort_size", [3, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_downlink_cohort_byte_identical(monkeypatch, case: str, cohort_size: int):
    cell, sinr, params = CASES[case]
    seeds = list(range(40, 40 + cohort_size))
    singles = [_single_bytes(monkeypatch, simulate_downlink, cell, sinr, s,
                             "reference", **params) for s in seeds]
    cohort = _cohort_bytes(simulate_downlink_cohort, cell, sinr, seeds,
                           **params)
    assert cohort == singles


@pytest.mark.parametrize("seed0", [7, 70])
def test_uplink_cohort_byte_identical(monkeypatch, seed0: int):
    cell = _tdd_cell(Modulation.QAM256)
    seeds = list(range(seed0, seed0 + 5))
    singles = [_single_bytes(monkeypatch, simulate_uplink, cell, 6.0, s,
                             "reference") for s in seeds]
    cohort = _cohort_bytes(simulate_uplink_cohort, cell, 6.0, seeds)
    assert cohort == singles


def test_divergent_retx_fallback_mixed_columns(monkeypatch):
    """Mixed cohort: some columns never fail, others retransmit.

    With OLLA off and a conservative CQI mapping at high (per-seed
    jittered) SINR the cohort holds a strict mix of error-free and
    retransmitting columns, and every column must still match the
    reference oracle byte for byte.
    """
    cell = _tdd_cell(Modulation.QAM256)
    params = dict(olla_enabled=False, cqi_alpha=0.4)
    mean, jitter, duration = 18.0, 6.0, 1.0
    # Seeds chosen so the 6 dB jitter splits the cohort (seeds 3, 6 and
    # 11 stay error-free at alpha=0.4; the rest take NACKs).
    seeds = [1, 2, 3, 4, 5, 6, 11]

    singles, channels, rngs = [], [], []
    for seed in seeds:
        channel, rng = _channel_and_rng(mean, seed, cell, duration, jitter)
        with monkeypatch.context() as env:
            env.setenv("REPRO_ENGINE", "reference")
            singles.append(_trace_bytes(simulate_downlink(
                cell, channel, rng=rng, params=SimParams(**params))))
        channel, rng = _channel_and_rng(mean, seed, cell, duration, jitter)
        channels.append(channel)
        rngs.append(rng)

    before = tensor.cohort_stats()
    cohort = [_trace_bytes(t) for t in simulate_downlink_cohort(
        cell, channels, rngs, params=SimParams(**params))]
    stats = tensor.cohort_stats()

    assert cohort == singles
    assert stats["cohorts"] - before["cohorts"] == 1
    assert stats["columns"] - before["columns"] == len(seeds)

    # The adversarial mix: some columns retransmitted, some never did.
    retx_counts = []
    for seed in seeds:
        channel, rng = _channel_and_rng(mean, seed, cell, duration, jitter)
        trace = simulate_downlink(cell, channel, rng=rng,
                                  params=SimParams(**params))
        retx_counts.append(int(trace.error.sum() + trace.is_retx.sum()))
    assert sorted(set(c == 0 for c in retx_counts)) == [False, True]


# Adversarial retx density: low SINR plus an optimistic CQI mapping and
# unscaled retx errors keeps most cells dirty and builds real backlogs.
HIGH_BLER_PARAMS = dict(cqi_alpha=2.0, retx_error_scale=1.0,
                        harq_rtt_slots=8)
HIGH_BLER_SINR = -2.0


def test_high_bler_cohort_byte_identical(monkeypatch):
    """Retransmission-heavy cohort: at -2 dB with an aggressive CQI
    mapping nearly every period of every column holds pending
    retransmissions, some with deep backlogs, and each column must
    still match the per-session reference byte for byte."""
    cell = _tdd_cell(Modulation.QAM256)
    seeds = list(range(5))
    singles = [_single_bytes(monkeypatch, simulate_downlink, cell,
                             HIGH_BLER_SINR, s, "reference", **HIGH_BLER_PARAMS)
               for s in seeds]
    cohort = _cohort_bytes(simulate_downlink_cohort, cell, HIGH_BLER_SINR,
                           seeds, **HIGH_BLER_PARAMS)

    assert cohort == singles


@pytest.mark.parametrize("case", ["tdd-256qam-poor", "fdd-256qam"])
def test_arena_rows_byte_identical(monkeypatch, case: str):
    """Traces packed into the ``arena_factory`` arena are its row views
    and serialize to the per-session bytes."""
    cell, sinr, params = CASES[case]
    seeds = [11, 12, 13, 14]
    singles = [_single_bytes(monkeypatch, simulate_downlink, cell, sinr, s,
                             "reference", **params) for s in seeds]
    arenas = []

    def factory(n_cols, n_slots, mu):
        arenas.append(CohortArena.allocate(n_cols, n_slots, mu))
        return arenas[-1]

    channels, rngs = zip(*(_channel_and_rng(sinr, s, cell) for s in seeds))
    traces = list(simulate_downlink_cohort(cell, channels, rngs,
                                           params=SimParams(**params),
                                           arena_factory=factory))
    assert len(arenas) == 1
    assert [arenas[0].row_index_of(t) for t in traces] == list(range(len(seeds)))
    assert [_trace_bytes(t) for t in traces] == singles
    # A factory that cannot allocate leaves the traces unpacked.
    assert _cohort_bytes(simulate_downlink_cohort, cell, sinr, seeds,
                         arena_factory=lambda *shape: None, **params) == singles


def test_no_kernel_falls_back_to_reference(monkeypatch):
    """``run_session_cohort`` calls ``simulate_*_cohort`` whatever the
    engine: pinned to the reference engine, and on a host without the
    native kernel, where every column counts as one fallback session."""
    import repro.xcal.dataset as dataset
    from repro.core.runner import run_tasks
    from repro.operators.profiles import EU_PROFILES
    from repro.xcal.dataset import CampaignSpec, campaign_manifest

    spec = CampaignSpec(minutes_per_operator=0.1, session_s=1.0, seed=11,
                        ul_fraction=0.5)
    manifest = campaign_manifest({"V_Sp": EU_PROFILES["V_Sp"]}, spec)
    directions = {task.kwargs["direction"] for task in manifest}
    assert directions == {"DL", "UL"}
    calls = []

    def spy(name):
        original = getattr(dataset, name)

        def wrapped(cell, channels, rngs, **kwargs):
            calls.append((name, len(channels)))
            return original(cell, channels, rngs, **kwargs)

        monkeypatch.setattr(dataset, name, wrapped)

    spy("simulate_downlink_cohort")
    spy("simulate_uplink_cohort")
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    policy = [_trace_bytes(t) for t in run_tasks(manifest, jobs=1)]
    assert sum(n for _, n in calls) == len(manifest)

    monkeypatch.setenv("REPRO_ENGINE", "reference")
    calls.clear()
    fallbacks = _native.kernel_status()["fallback_sessions"]
    assert [_trace_bytes(t) for t in run_tasks(manifest, jobs=1)] == policy
    assert {name for name, _ in calls} == {"simulate_downlink_cohort",
                                           "simulate_uplink_cohort"}
    assert sum(n for _, n in calls) == len(manifest)
    # A pinned run is not a fallback.
    assert _native.kernel_status()["fallback_sessions"] == fallbacks

    monkeypatch.delenv("REPRO_ENGINE")
    monkeypatch.setattr(_native, "load_kernel", lambda: None)
    assert resolve_engine() == "reference"
    calls.clear()
    assert [_trace_bytes(t) for t in run_tasks(manifest, jobs=1)] == policy
    assert sum(n for _, n in calls) == len(manifest)
    assert (_native.kernel_status()["fallback_sessions"]
            == fallbacks + len(manifest))


def test_cohort_stats_count_passes():
    before = tensor.cohort_stats()
    cell, sinr, params = CASES["tdd-256qam-good"]
    _cohort_bytes(simulate_downlink_cohort, cell, sinr, [5, 6, 7], **params)
    stats = tensor.cohort_stats()
    assert stats["cohorts"] - before["cohorts"] == 1
    assert stats["columns"] - before["columns"] == 3


def test_cohort_validates_inputs():
    cell, sinr, params = CASES["tdd-256qam-good"]
    ch, rng = _channel_and_rng(sinr, 1, cell)
    with pytest.raises(ValueError):
        list(simulate_downlink_cohort(cell, [], [], params=SimParams()))
    with pytest.raises(ValueError):
        list(simulate_downlink_cohort(cell, [ch], [rng, rng],
                                      params=SimParams()))
    short, short_rng = _channel_and_rng(sinr, 2, cell, duration_s=0.5)
    with pytest.raises(ValueError):
        list(simulate_downlink_cohort(cell, [ch, short], [rng, short_rng],
                                      params=SimParams()))


class TestEnginePolicy:
    @pytest.fixture(autouse=True)
    def kernel_loaded(self, monkeypatch):
        # The policy on a host where the native kernel loads; the
        # no-kernel cohort run is test_no_kernel_falls_back_to_reference.
        monkeypatch.setattr(_native, "load_kernel", lambda: object())

    def test_decision_table(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == "native"
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert resolve_engine() == "reference"
        monkeypatch.setattr(_native, "load_kernel", lambda: None)
        assert resolve_engine() == "reference"
        monkeypatch.delenv("REPRO_ENGINE")
        assert resolve_engine() == "reference"

    def test_invalid_engine(self, monkeypatch):
        # "tensor" and "auto" name no engine to pin; "vectorized" names
        # a deleted engine.
        for value in ("warp", "tensor", "auto", "vectorized"):
            monkeypatch.setenv("REPRO_ENGINE", value)
            with pytest.raises(ValueError, match="REPRO_ENGINE"):
                resolve_engine()

    def test_env_override(self, monkeypatch):
        # The switch pins cohorts to the reference engine too.
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert resolve_engine() == "reference"
        # An empty value means unset: the policy applies.
        monkeypatch.setenv("REPRO_ENGINE", "")
        assert resolve_engine() == "native"
