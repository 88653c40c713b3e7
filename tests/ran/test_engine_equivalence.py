"""Byte-identity of the vectorized slot engine against the scalar oracle.

The vectorized engine is the default; the scalar reference engine
(``REPRO_ENGINE=reference``) is kept as the correctness oracle.
The contract is not "statistically close" but *byte-identical npz
traces*: both engines must consume the RNG in the same order and
produce the same doubles, so every config knob that changes the slot
loop's shape (modulation table, TDD vs FDD, OLLA on/off, SINR regime
and hence retx density, DL vs UL) gets a parametrized equality case,
plus a seeded randomized-config sweep as a tripwire for interactions
the matrix misses.  The multi-UE loop has a single engine, so it has
no pair to compare.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.model import SyntheticChannel
from repro.nr.mcs import Modulation
from repro.nr.tdd import TddPattern
from repro.ran.config import CellConfig
from repro.ran.simulator import SimParams, simulate_downlink, simulate_uplink
from repro.xcal.io import npz_bytes, trace_to_arrays

DURATION_S = 2.0


def _trace_bytes(trace) -> bytes:
    """The exact bytes a campaign export would write for this trace."""
    return npz_bytes(trace_to_arrays(trace), {})


def _tdd_cell(max_modulation: Modulation, bandwidth_mhz: int = 90) -> CellConfig:
    return CellConfig(name=f"eq n78 {bandwidth_mhz}MHz", band_name="n78",
                      bandwidth_mhz=bandwidth_mhz, scs_khz=30,
                      max_modulation=max_modulation,
                      tdd=TddPattern.from_string("DDDSU"))


def _fdd_cell() -> CellConfig:
    return CellConfig(name="eq n25 20MHz", band_name="n25", bandwidth_mhz=20,
                      scs_khz=15, max_modulation=Modulation.QAM256, tdd=None,
                      n_rb_override=51)


def _run_single(monkeypatch, simulate, cell: CellConfig, mean_sinr_db: float,
                seed: int, engine: str, **params) -> bytes:
    monkeypatch.setenv("REPRO_ENGINE", engine)
    channel = SyntheticChannel(mean_sinr_db=mean_sinr_db).realize(
        DURATION_S, rng=np.random.default_rng(seed))
    trace = simulate(cell, channel, rng=np.random.default_rng(seed),
                     params=SimParams(**params))
    return _trace_bytes(trace)


SINGLE_UE_CASES = {
    # High SINR: long no-retx segments, the fast path's best case.
    "tdd-256qam-good": (_tdd_cell(Modulation.QAM256), 22.0, {}),
    # Mid SINR: OLLA converges to ~10% BLER, fragmented segments.
    "tdd-256qam-mid": (_tdd_cell(Modulation.QAM256), 12.0, {}),
    # Poor SINR: retx windows dominate, mostly the scalar fallback.
    "tdd-256qam-poor": (_tdd_cell(Modulation.QAM256), 2.0, {}),
    "tdd-64qam": (_tdd_cell(Modulation.QAM64, bandwidth_mhz=60), 15.0, {}),
    "fdd-256qam": (_fdd_cell(), 18.0, {}),
    "tdd-no-olla": (_tdd_cell(Modulation.QAM256), 14.0,
                    {"olla_enabled": False}),
}


@pytest.mark.parametrize("case", sorted(SINGLE_UE_CASES))
@pytest.mark.parametrize("seed", [3, 1234])
def test_single_ue_downlink_byte_identical(monkeypatch, case: str, seed: int):
    cell, mean_sinr_db, params = SINGLE_UE_CASES[case]
    vec = _run_single(monkeypatch, simulate_downlink, cell, mean_sinr_db, seed,
                      "vectorized", **params)
    ref = _run_single(monkeypatch, simulate_downlink, cell, mean_sinr_db, seed,
                      "reference", **params)
    assert vec == ref


@pytest.mark.parametrize("seed", [3, 1234])
def test_uplink_byte_identical(monkeypatch, seed: int):
    cell = _tdd_cell(Modulation.QAM256)
    vec = _run_single(monkeypatch, simulate_uplink, cell, 16.0, seed, "vectorized")
    ref = _run_single(monkeypatch, simulate_uplink, cell, 16.0, seed, "reference")
    assert vec == ref


def test_randomized_configs_byte_identical(monkeypatch):
    """Seeded random sweep over the config space the matrix interpolates."""
    meta_rng = np.random.default_rng(20240805)
    for _ in range(6):
        tdd = bool(meta_rng.integers(2))
        cell = (_tdd_cell(Modulation.QAM256 if meta_rng.integers(2)
                          else Modulation.QAM64)
                if tdd else _fdd_cell())
        mean_sinr_db = float(meta_rng.uniform(0.0, 28.0))
        seed = int(meta_rng.integers(1, 2**31))
        params = {"olla_enabled": bool(meta_rng.integers(2)),
                  "cqi_noise_db": float(meta_rng.uniform(0.0, 1.5))}
        vec = _run_single(monkeypatch, simulate_downlink, cell, mean_sinr_db,
                          seed, "vectorized", **params)
        ref = _run_single(monkeypatch, simulate_downlink, cell, mean_sinr_db,
                          seed, "reference", **params)
        assert vec == ref, (tdd, mean_sinr_db, seed, params)
