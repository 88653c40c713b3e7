"""Byte-identity of the cross-session tensor engine.

A cohort of same-shape sessions (same cell/params/duration, differing
only in seed) must come out of :mod:`repro.ran.tensor` byte-identical
to running each session alone through the per-session engines — the
same npz bytes a campaign export would write.  The matrix covers the
knobs that reshape the slot loop (modulation table, TDD vs FDD, OLLA
on/off, retx density via SINR regime, DL vs UL) crossed with cohort
sizes, plus an adversarial mixed cohort where only some columns ever
retransmit.  Tests that call the cohort engine directly need the
compiled retx kernel and skip on hosts where it cannot be built.
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
from repro.xcal.io import npz_bytes, trace_to_arrays

DURATION_S = 1.5
JITTER_DB = 2.0

requires_kernel = pytest.mark.skipif(
    _native.load_kernel() is None,
    reason="compiled retx kernel unavailable (no C compiler?)")


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
                  **params) -> list[bytes]:
    channels, rngs = [], []
    for seed in seeds:
        channel, rng = _channel_and_rng(mean_sinr_db, seed, cell, duration_s)
        channels.append(channel)
        rngs.append(rng)
    return [_trace_bytes(t) for t in simulate_cohort(
        cell, channels, rngs, params=SimParams(**params))]


CASES = {
    # High SINR: long clean stretches, few divergent periods.
    "tdd-256qam-good": (_tdd_cell(Modulation.QAM256), 22.0, {}),
    # Mid SINR: OLLA converges to ~10% BLER, every column diverges often.
    "tdd-256qam-mid": (_tdd_cell(Modulation.QAM256), 12.0, {}),
    # Poor SINR: retx windows dominate, the retx kernel carries most
    # slots — the tensor pass must still match byte for byte.
    "tdd-256qam-poor": (_tdd_cell(Modulation.QAM256), 2.0, {}),
    "tdd-64qam": (_tdd_cell(Modulation.QAM64, bandwidth_mhz=60), 15.0, {}),
    "fdd-256qam": (_fdd_cell(), 18.0, {}),
    "tdd-no-olla": (_tdd_cell(Modulation.QAM256), 14.0,
                    {"olla_enabled": False}),
    "tdd-retx-heavy": (_tdd_cell(Modulation.QAM256), 8.0,
                       {"cqi_alpha": 1.4, "retx_error_scale": 0.9,
                        "harq_rtt_slots": 6}),
}


@requires_kernel
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


@requires_kernel
@pytest.mark.parametrize("seed0", [7, 70])
def test_uplink_cohort_byte_identical(monkeypatch, seed0: int):
    cell = _tdd_cell(Modulation.QAM256)
    seeds = list(range(seed0, seed0 + 5))
    singles = [_single_bytes(monkeypatch, simulate_uplink, cell, 6.0, s,
                             "reference") for s in seeds]
    cohort = _cohort_bytes(simulate_uplink_cohort, cell, 6.0, seeds)
    assert cohort == singles


@requires_kernel
def test_divergent_retx_fallback_mixed_columns(monkeypatch):
    """Adversarial cohort: some columns never fail, others retransmit.

    With OLLA off and a conservative CQI mapping at high (per-seed
    jittered) SINR, clean columns ride the tensor fast path for the
    whole session while dirty columns walk their retransmissions
    through the retx kernel — the cohort must hold a strict mix, and
    every column must still match the reference oracle byte for byte.
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

    tensor.reset_cohort_stats()
    cohort = [_trace_bytes(t) for t in simulate_downlink_cohort(
        cell, channels, rngs, params=SimParams(**params))]
    stats = tensor.cohort_stats()

    assert cohort == singles
    assert stats["cohorts"] == 1
    assert stats["columns"] == len(seeds)
    assert stats["dirty_periods"] > 0

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


@requires_kernel
def test_high_bler_cohort_byte_identical(monkeypatch):
    """Forced >=80% dirty cells: the retx kernel carries the cohort.

    At -2 dB with an aggressive CQI mapping nearly every (column, period)
    cell holds pending retransmissions, so the clean-bookkeeping tier
    almost never applies — the retx kernel does the work and must still
    match the per-session reference byte for byte.  This case also
    covers deep backlogs: 59 of its 646 dirty cells start a period with
    more than 6 blocks pending.
    """
    cell = _tdd_cell(Modulation.QAM256)
    seeds = list(range(5))
    singles = [_single_bytes(monkeypatch, simulate_downlink, cell,
                             HIGH_BLER_SINR, s, "reference", **HIGH_BLER_PARAMS)
               for s in seeds]
    tensor.reset_cohort_stats()
    cohort = _cohort_bytes(simulate_downlink_cohort, cell, HIGH_BLER_SINR,
                           seeds, **HIGH_BLER_PARAMS)
    stats = tensor.cohort_stats()

    assert cohort == singles
    assert stats["dirty_periods"] / stats["cells"] >= 0.8
    assert stats["batched_periods"] > 0


def test_no_kernel_falls_back_to_reference(monkeypatch):
    """Hosts without the compiled retx kernel never run the tensor pass.

    The engine policy resolves cohorts to the per-session reference
    engine — same bytes, no tensor cohorts, every session counted as a
    fallback — and a direct cohort call fails loudly instead of running
    a slower tier.
    """
    from repro.core.runner import run_tasks
    from repro.operators.profiles import EU_PROFILES
    from repro.xcal.dataset import CampaignSpec, campaign_manifest

    spec = CampaignSpec(minutes_per_operator=0.1, session_s=1.0, seed=11)
    manifest = campaign_manifest({"V_Sp": EU_PROFILES["V_Sp"]}, spec)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    tensor.reset_cohort_stats()
    with_kernel = [_trace_bytes(t) for t in run_tasks(manifest, jobs=1)]
    if _native.load_kernel() is not None:
        assert tensor.cohort_stats()["cohorts"] > 0

    monkeypatch.setattr(_native, "load_kernel", lambda: None)
    assert resolve_engine(64) == "reference"
    tensor.reset_cohort_stats()
    fallbacks = _native.kernel_status()["fallback_sessions"]
    without = [_trace_bytes(t) for t in run_tasks(manifest, jobs=1)]
    assert without == with_kernel
    assert tensor.cohort_stats()["cohorts"] == 0
    fallbacks += len(manifest)
    assert _native.kernel_status()["fallback_sessions"] == fallbacks
    # A pinned run is not a fallback.
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert [_trace_bytes(t) for t in run_tasks(manifest, jobs=1)] == with_kernel
    assert _native.kernel_status()["fallback_sessions"] == fallbacks

    cell, sinr, _ = CASES["tdd-256qam-good"]
    ch1, rng1 = _channel_and_rng(sinr, 1, cell)
    ch2, rng2 = _channel_and_rng(sinr, 2, cell)
    with pytest.raises(RuntimeError, match="retx kernel"):
        simulate_downlink_cohort(cell, [ch1, ch2], [rng1, rng2])


@requires_kernel
def test_cohort_stats_count_passes():
    tensor.reset_cohort_stats()
    assert tensor.cohort_stats()["cohorts"] == 0
    cell, sinr, params = CASES["tdd-256qam-good"]
    _cohort_bytes(simulate_downlink_cohort, cell, sinr, [5, 6, 7], **params)
    stats = tensor.cohort_stats()
    assert stats["cohorts"] == 1 and stats["columns"] == 3
    assert stats["slots"] > 0 and stats["seconds"] > 0


@requires_kernel
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
        # The policy on a host where the retx kernel loads; the no-kernel
        # column is test_no_kernel_falls_back_to_reference.
        monkeypatch.setattr(_native, "load_kernel", lambda: object())

    def test_decision_table(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(1) == "native"
        assert resolve_engine(2) == "tensor"
        assert resolve_engine(32) == "tensor"
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert resolve_engine(1) == "reference"
        assert resolve_engine(32) == "reference"

    def test_invalid_engine(self, monkeypatch):
        # "tensor" and "auto" name the policy, not an engine to pin;
        # "vectorized" names a deleted engine.
        for value in ("warp", "tensor", "auto", "vectorized"):
            monkeypatch.setenv("REPRO_ENGINE", value)
            with pytest.raises(ValueError, match="REPRO_ENGINE"):
                resolve_engine(1)

    def test_env_override(self, monkeypatch):
        # The switch pins cohorts to the per-session engine too.
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert resolve_engine(64) == "reference"
        # An empty value means unset: the policy applies.
        monkeypatch.setenv("REPRO_ENGINE", "")
        assert resolve_engine(64) == "tensor"
