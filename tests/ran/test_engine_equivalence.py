"""Byte-identity of the per-session slot engines against the scalar oracle.

A lone session runs the compiled native period loop when the engine
switch is unset; the scalar reference engine (``REPRO_ENGINE=reference``,
and the path of every session without the native kernel) is kept as the
correctness oracle.  The contract is not "statistically close" but
*byte-identical npz traces*: every engine must consume the RNG in the
same order and produce the same doubles, so every config knob that
changes the slot loop's shape (modulation table, TDD vs FDD, OLLA
on/off, SINR regime and hence retx density, DL vs UL) gets a
parametrized equality case, plus a seeded randomized-config sweep and a
hypothesis property over the operator profiles as tripwires for
interactions the matrix misses.  The multi-UE loop has a single
engine, so it has no pair to compare.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.channel.model import SyntheticChannel
from repro.nr.mcs import MCS_TABLE_64QAM, MCS_TABLE_256QAM, Modulation
from repro.nr.tdd import TddPattern
from repro.operators.profiles import ALL_PROFILES
from repro.ran import _native
from repro.ran.amc import BlerModel
from repro.ran.config import ENGINE_ENV, CellConfig, resolve_engine
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
    # High SINR: long no-retx segments.
    "tdd-256qam-good": (_tdd_cell(Modulation.QAM256), 22.0, {}),
    # Mid SINR: OLLA converges to ~10% BLER, fragmented segments.
    "tdd-256qam-mid": (_tdd_cell(Modulation.QAM256), 12.0, {}),
    # Poor SINR: retx windows dominate.
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
    ref = _run_single(monkeypatch, simulate_downlink, cell, mean_sinr_db, seed,
                      "reference", **params)
    policy = _run_single(monkeypatch, simulate_downlink, cell, mean_sinr_db,
                         seed, "", **params)
    assert policy == ref


@pytest.mark.parametrize("seed", [3, 1234])
def test_uplink_byte_identical(monkeypatch, seed: int):
    cell = _tdd_cell(Modulation.QAM256)
    policy = _run_single(monkeypatch, simulate_uplink, cell, 16.0, seed, "")
    ref = _run_single(monkeypatch, simulate_uplink, cell, 16.0, seed, "reference")
    assert policy == ref


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
        policy = _run_single(monkeypatch, simulate_downlink, cell, mean_sinr_db,
                             seed, "", **params)
        ref = _run_single(monkeypatch, simulate_downlink, cell, mean_sinr_db,
                          seed, "reference", **params)
        assert policy == ref, (tdd, mean_sinr_db, seed, params)


# ---------------------------------------------------------------------- #
# The engine policy's native period loop
# ---------------------------------------------------------------------- #
def _profile_session(profile, direction: str, seed: int, olla_enabled: bool):
    """One 1 s full-buffer session of an operator profile, built as a
    campaign session is."""
    rng = np.random.default_rng(seed)
    cell = profile.primary_cell
    params = profile.sim_params(olla_enabled=olla_enabled)
    if direction == "UL":
        channel = profile.ul_channel().realize(1.0, mu=cell.mu, rng=rng)
        return simulate_uplink(cell, channel, rng=rng, params=params,
                               max_layers=profile.ul_max_layers)
    channel = profile.dl_channel().realize(1.0, mu=cell.mu, rng=rng)
    return simulate_downlink(cell, channel, rng=rng, params=params)


@given(profile_key=st.sampled_from(sorted(ALL_PROFILES)),
       direction=st.sampled_from(["DL", "UL"]),
       sinr_offset_db=st.floats(min_value=-15.0, max_value=15.0),
       olla_enabled=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_engines_byte_identical_property(monkeypatch, profile_key, direction,
                                         sinr_offset_db, olla_enabled, seed):
    """Policy (the native loop) and reference traces of one session are
    byte-identical for any operator profile, direction, SINR regime,
    OLLA setting and seed."""
    base = ALL_PROFILES[profile_key]
    profile = replace(base, mean_sinr_db=base.mean_sinr_db + sinr_offset_db)
    traces = {}
    for engine in ("", "reference"):  # "": the policy
        monkeypatch.setenv(ENGINE_ENV, engine)
        traces[engine] = _trace_bytes(
            _profile_session(profile, direction, seed, olla_enabled))
    assert traces[""] == traces["reference"]


def test_policy_runs_the_native_loop_when_the_kernel_loads(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    expected = "reference" if _native.load_kernel() is None else "native"
    assert resolve_engine() == expected


def test_no_kernel_falls_back_to_reference(monkeypatch):
    """Without the native kernel a lone session runs the reference
    engine, with the same bytes, and ``kernel_status`` says why and
    counts it."""
    cell, mean_sinr_db, params = SINGLE_UE_CASES["tdd-256qam-mid"]
    with_kernel = _run_single(monkeypatch, simulate_downlink, cell, mean_sinr_db,
                              7, "", **params)
    monkeypatch.setattr(_native, "_state",
                        {"loaded": True, "fn": None,
                         "error": "RuntimeError: no C compiler on PATH",
                         "fallback_sessions": 0})
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    assert resolve_engine() == "reference"
    assert _native.load_kernel() is None
    status = _native.kernel_status()
    assert status["available"] is False
    assert "no C compiler" in status["error"]
    without = _run_single(monkeypatch, simulate_downlink, cell, mean_sinr_db,
                          7, "", **params)
    assert without == with_kernel
    assert _native.kernel_status()["fallback_sessions"] == 1
    # A pinned run is not a fallback.
    _run_single(monkeypatch, simulate_downlink, cell, mean_sinr_db, 7,
                "reference", **params)
    assert _native.kernel_status()["fallback_sessions"] == 1


# ---------------------------------------------------------------------- #
# The CQI fill in C
# ---------------------------------------------------------------------- #
# The native loop forward-fills the CQI column itself when a session
# ends; the reference engine runs ``_forward_fill_cqi``.  Equal bytes on
# the columns' edge cases pin the C rule to the Python one.

def _cqi_fill_case(case: str):
    """(simulate, cell, duration_s) of one edge case of the fill."""
    dddsu = _tdd_cell(Modulation.QAM256)
    if case == "no-scheduled-slot":
        return simulate_uplink, replace(dddsu, tdd=TddPattern.from_string("DDDDD")), 0.2
    if case == "leading-unscheduled":
        return simulate_uplink, dddsu, 0.2
    if case == "one-slot-scheduled":
        return simulate_downlink, dddsu, 0.0005
    return simulate_uplink, dddsu, 0.0005  # one slot, unscheduled


@pytest.mark.parametrize("case", ["no-scheduled-slot", "leading-unscheduled",
                                  "one-slot-scheduled", "one-slot-unscheduled"])
def test_native_cqi_fill_matches_forward_fill(monkeypatch, case):
    _require_kernel()
    from repro.ran import simulator

    simulate, cell, duration_s = _cqi_fill_case(case)
    fills = []
    python_fill = simulator._forward_fill_cqi
    monkeypatch.setattr(simulator, "_forward_fill_cqi",
                        lambda trace: fills.append(trace) or python_fill(trace))
    traces = {}
    for engine in ("", "reference"):
        monkeypatch.setenv(ENGINE_ENV, engine)
        channel = SyntheticChannel(mean_sinr_db=15.0).realize(
            duration_s, rng=np.random.default_rng(5))
        traces[engine] = simulate(cell, channel, rng=np.random.default_rng(5))
    # Only the reference engine called the Python fill.
    assert fills == [traces["reference"]]
    native = traces[""]
    assert _trace_bytes(native) == _trace_bytes(traces["reference"])
    scheduled = native.scheduled
    if case in ("no-scheduled-slot", "one-slot-unscheduled"):
        assert not scheduled.any() and not native.cqi.any()
    elif case == "leading-unscheduled":
        first = int(np.argmax(scheduled))
        assert first > 0 and (native.cqi[:first] == native.cqi[first]).all()
        assert (native.cqi > 0).all() and not scheduled.all()
    else:
        assert scheduled.tolist() == [True] and native.cqi[0] > 0


# ---------------------------------------------------------------------- #
# The error probability in C
# ---------------------------------------------------------------------- #
# The native loop evaluates the logistic error probability per period in
# C, calling numpy's own float64 exp inner loop through a function
# pointer (libm's exp rounds differently).  These tests pin the
# evaluation against BlerModel's and the fallback when the resolved
# loop is not numpy's exp.

_EFFICIENCIES = sorted({entry.spectral_efficiency
                        for table in (MCS_TABLE_64QAM, MCS_TABLE_256QAM)
                        for entry in table})


def _chunk_capacity(n_slots: int = 5120) -> np.ndarray:
    sinr = np.random.default_rng(5).normal(12.0, 9.0, n_slots)
    return BlerModel().capacity(sinr)


def _require_kernel():
    if _native.load_kernel() is None:
        pytest.skip(f"native kernel unavailable: {_native.kernel_status()['error']}")


def test_error_probability_matches_bler_model():
    """``repro_error_probability`` equals
    ``BlerModel.error_probability_given_capacity`` bit for bit over
    every period length 1..20 at several start offsets, for every MCS
    efficiency, into the saturated (p = 1.0) and exp-overflow (p = 0.0)
    regions."""
    _require_kernel()
    bler = BlerModel()
    cap = np.concatenate((_chunk_capacity(400), np.linspace(-80.0, 90.0, 200)))
    got = np.empty(20)
    expected = np.empty(20)
    regions = set()
    for eff in _EFFICIENCIES:
        for start in (0, 1, 7, 63, 399, 420, 579):
            for m in range(1, 21):
                window = cap[start:start + m]
                with np.errstate(over="ignore"):
                    want = bler.error_probability_given_capacity(
                        eff, window, out=expected[:len(window)])
                have = _native.error_probability(eff, window, bler.bias, bler.slope,
                                                 got[:len(window)])
                assert have.tobytes() == want.tobytes(), (eff, start, m)
                regions.update({float(v) for v in want} & {0.0, 1.0})
    assert regions == {0.0, 1.0}


def test_kernel_source_calls_no_libm_transcendentals():
    """The kernel gets every exponential from numpy's loop and builds
    without FMA contraction: its code calls no libm exp, log or pow."""
    import re

    source = re.sub(r"/\*.*?\*/", "", _native._SOURCE.read_text(), flags=re.S)
    assert re.findall(r"\b(?:exp|log|pow)[fl]?\s*\(", source) == []
    assert "-ffp-contract=off" in _native._CFLAGS


def test_wrong_exp_loop_falls_back_to_reference(monkeypatch):
    """A resolver that hands back another float64 loop (``np.log``'s)
    fails the load-time probe: the kernel counts as unavailable, the
    error names the exp loop, and an unpinned session runs the
    reference engine with the same bytes, counted."""
    _require_kernel()
    cell, mean_sinr_db, params = SINGLE_UE_CASES["tdd-256qam-mid"]
    with_kernel = _run_single(monkeypatch, simulate_downlink, cell, mean_sinr_db,
                              7, "", **params)
    monkeypatch.setattr(_native, "_state",
                        {"loaded": False, "fn": None, "loop": None, "exp": None,
                         "evaluate": None, "error": None, "fallback_sessions": 0})
    monkeypatch.setattr(_native, "_exp_loop", lambda: _native._float64_loop(np.log))
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    assert _native.load_kernel() is None
    assert "exp loop" in _native.kernel_status()["error"]
    assert resolve_engine() == "reference"
    without = _run_single(monkeypatch, simulate_downlink, cell, mean_sinr_db,
                          7, "", **params)
    assert without == with_kernel
    assert _native.kernel_status()["fallback_sessions"] == 1


_SIMD_SNIPPET = r"""
import json, os, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
from repro.operators.profiles import ALL_PROFILES
from repro.ran import _native
from repro.xcal.dataset import CampaignSpec, run_session
from repro.xcal.io import npz_bytes, trace_to_arrays

spec = CampaignSpec(minutes_per_operator=0.2, session_s=4.0, seed=9)
sessions = [(key, direction, seed) for key in sorted(ALL_PROFILES)[:3]
            for direction, seed in (("DL", 11), ("UL", 12))]
out = {"avx512": bool(__cpu_features__.get("X86_V4")),
       "kernel": _native.load_kernel() is not None, "differ": []}
traces = {}
for engine in ("", "reference"):
    os.environ["REPRO_ENGINE"] = engine
    traces[engine] = [npz_bytes(trace_to_arrays(run_session(ALL_PROFILES[k], spec, d, s)), {})
                      for k, d, s in sessions]
out["differ"] = [list(s) for s, a, b in zip(sessions, traces[""], traces["reference"])
                 if a != b]
json.dump(out, sys.stdout)
"""

_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def test_native_matches_reference_on_the_non_avx512_exp_path():
    """With numpy's AVX-512 dispatch disabled its float64 exp runs
    another code path, whose bits differ from the AVX-512 ones on a few
    percent of inputs; the native loop calls whichever loop numpy
    dispatched, so its traces still equal the reference engine's."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    def run(extra_env):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.update(extra_env)
        return subprocess.run([sys.executable, "-c", _SIMD_SNIPPET], env=env,
                              capture_output=True, text=True, timeout=300)

    base = run({})
    assert base.returncode == 0, base.stderr
    if not json.loads(base.stdout)["avx512"]:
        pytest.skip("host lacks the AVX-512 features numpy dispatches exp to")
    disabled = run({"NPY_DISABLE_CPU_FEATURES": _NO_AVX512})
    if disabled.returncode != 0:
        pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES={_NO_AVX512!r}: "
                    f"{disabled.stderr.strip().splitlines()[-1:]}")
    result = json.loads(disabled.stdout)
    if result["avx512"]:
        pytest.skip(f"numpy ignored NPY_DISABLE_CPU_FEATURES={_NO_AVX512!r}")
    if not result["kernel"]:
        pytest.skip("native kernel unavailable")
    assert result["differ"] == []
    assert json.loads(base.stdout)["differ"] == []


def test_lazy_tile_matches_rows():
    """A 2-D (values x slots) tile equals the 1-D rows bit for bit."""
    bler = BlerModel()
    cap = _chunk_capacity()
    effs = np.array(_EFFICIENCIES)
    tile = bler.error_probability_given_capacity(effs[:, None], cap,
                                                 out=np.empty((effs.size, cap.size)))
    for k, eff in enumerate(_EFFICIENCIES):
        row = bler.error_probability_given_capacity(eff, cap, out=np.empty(cap.size))
        assert tile[k].tobytes() == row.tobytes()
