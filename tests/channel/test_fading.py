"""Tests for repro.channel.fading."""

import numpy as np
import pytest

from repro.channel.fading import (
    Ar1Fading,
    _ar1_scan_const,
    ar1_scan,
    coherence_time_s,
    doppler_hz,
)


def _scan_loop(coeff, noise, init):
    """Direct recursion — the reference ar1_scan must reproduce."""
    coeff = np.broadcast_to(coeff, np.shape(noise))
    x = np.empty(len(noise))
    x[0] = init
    for t in range(1, len(noise)):
        x[t] = coeff[t] * x[t - 1] + noise[t]
    return x


class TestAr1Scan:
    def test_scalar_coeff_matches_loop(self, rng):
        for a in (0.999, 0.5, 0.01, -0.7):
            noise = rng.standard_normal(3000)
            got = ar1_scan(a, noise, init=1.5)
            np.testing.assert_allclose(got, _scan_loop(a, noise, 1.5),
                                       rtol=1e-9, atol=1e-12)

    def test_varying_coeff_matches_loop(self, rng):
        coeff = rng.uniform(0.0, 1.0, 2500)
        noise = rng.standard_normal(2500)
        got = ar1_scan(coeff, noise, init=float(noise[0]))
        np.testing.assert_allclose(got, _scan_loop(coeff, noise, float(noise[0])),
                                   rtol=1e-9, atol=1e-12)

    def test_zero_coefficients_restart_recursion(self, rng):
        coeff = rng.uniform(0.5, 0.99, 400)
        coeff[[1, 50, 399]] = 0.0
        noise = rng.standard_normal(400)
        got = ar1_scan(coeff, noise, init=0.0)
        np.testing.assert_allclose(got, _scan_loop(coeff, noise, 0.0),
                                   rtol=1e-9, atol=1e-12)
        # A zero coefficient makes the output exactly the innovation.
        assert got[50] == noise[50]

    def test_extreme_coefficients_stay_finite(self, rng):
        # Coefficients small enough that the scaled scan would overflow
        # must fall back to the exact per-element recursion.
        coeff = np.full(100, 1e-280)
        noise = rng.standard_normal(100)
        got = ar1_scan(coeff, noise, init=1.0)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, _scan_loop(coeff, noise, 1.0),
                                   rtol=1e-9, atol=1e-12)

    def test_long_run_short_coherence_no_overflow(self, rng):
        # |log a| accumulation over 200k steps must chunk, not overflow.
        got = ar1_scan(0.6, rng.standard_normal(200_000), init=0.0)
        assert np.all(np.isfinite(got))

    def test_single_element(self):
        assert ar1_scan(0.9, np.array([5.0]), init=3.0) == np.array([3.0])

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            ar1_scan(0.5, np.array([]), init=0.0)
        with pytest.raises(ValueError):
            ar1_scan(0.5, np.ones((3, 3)), init=0.0)
        with pytest.raises(ValueError):
            ar1_scan(np.ones(5), np.ones(7), init=0.0)


class TestDoppler:
    def test_doppler_value(self):
        # 1.4 m/s at 3.5 GHz ~ 16.3 Hz.
        assert doppler_hz(1.4, 3.5) == pytest.approx(16.34, abs=0.1)

    def test_static_ue(self):
        assert doppler_hz(0.0, 3.5) == 0.0
        assert coherence_time_s(0.0, 3.5) == float("inf")

    def test_coherence_shrinks_with_speed(self):
        assert coherence_time_s(11.0, 3.5) < coherence_time_s(1.4, 3.5)

    def test_coherence_shrinks_with_frequency(self):
        # mmWave decorrelates ~8x faster at the same speed.
        ratio = coherence_time_s(1.4, 3.5) / coherence_time_s(1.4, 28.0)
        assert ratio == pytest.approx(8.0)

    def test_negative_speed(self):
        with pytest.raises(ValueError):
            doppler_hz(-1.0, 3.5)


class TestAr1:
    def test_stationary_std(self, rng):
        fading = Ar1Fading(sigma_db=2.5, coherence_slots=20.0)
        series = fading.sample(200_000, rng)
        assert series.std() == pytest.approx(2.5, rel=0.05)
        assert abs(series.mean()) < 0.1

    def test_lag1_autocorrelation(self, rng):
        fading = Ar1Fading(sigma_db=2.0, coherence_slots=50.0)
        series = fading.sample(100_000, rng)
        lag1 = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert lag1 == pytest.approx(fading.rho, abs=0.01)

    def test_rho_from_coherence(self):
        assert Ar1Fading(coherence_slots=100.0).rho == pytest.approx(np.exp(-0.01))

    def test_zero_sigma(self, rng):
        assert np.all(Ar1Fading(sigma_db=0.0).sample(100, rng) == 0.0)

    def test_single_sample(self, rng):
        out = Ar1Fading().sample(1, rng)
        assert out.shape == (1,)

    def test_long_series_no_overflow(self, rng):
        # The chunked scan must stay finite over long runs with short
        # coherence (the a^-t overflow hazard).
        fading = Ar1Fading(sigma_db=3.0, coherence_slots=2.0)
        series = fading.sample(500_000, rng)
        assert np.all(np.isfinite(series))
        assert series.std() == pytest.approx(3.0, rel=0.05)

    def test_for_speed_builds_coherence(self):
        slow = Ar1Fading.for_speed(1.4, 3.5, 0.5)
        fast = Ar1Fading.for_speed(11.0, 3.5, 0.5)
        assert fast.coherence_slots < slow.coherence_slots

    def test_for_speed_stationary(self):
        static = Ar1Fading.for_speed(0.0, 3.5, 0.5)
        assert static.coherence_slots > 1000.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            Ar1Fading(sigma_db=-1.0)
        with pytest.raises(ValueError):
            Ar1Fading(coherence_slots=0.0)
        with pytest.raises(ValueError):
            Ar1Fading().sample(0, rng)

    def test_sample_matches_direct_recursion(self):
        # The scan must equal x[t] = rho x[t-1] + sigma sqrt(1-rho^2) w[t].
        fading = Ar1Fading(sigma_db=2.5, coherence_slots=30.0)
        w = np.random.default_rng(5).standard_normal(5000)
        a = fading.rho
        b = fading.sigma_db * np.sqrt(1.0 - a * a)
        got = fading.sample(5000, np.random.default_rng(5))
        np.testing.assert_allclose(got, _scan_loop(a, b * w, fading.sigma_db * w[0]),
                                   rtol=1e-9, atol=1e-12)

    def test_underflowing_rho_stays_finite(self, rng):
        # coherence so short that rho underflows to exactly 0: the
        # series degenerates to IID draws instead of NaN.
        series = Ar1Fading(sigma_db=2.0, coherence_slots=1e-6).sample(64, rng)
        assert np.all(np.isfinite(series))


def _chunk_length(a: float) -> int:
    """The constant-coefficient scan's chunk rule."""
    log_a = -np.log(abs(a))
    return max(16, min(4096, int(600.0 / max(1e-9, log_a)) if abs(a) < 1 else 4096))


def _chunk_loop(a: float, noise: np.ndarray, init: float) -> np.ndarray:
    """Oracle: the constant-coefficient scan one chunk at a time, the
    loop the block form must reproduce byte for byte."""
    x = np.empty(noise.size)
    x[0] = init
    n = noise.size
    if a == 0.0:
        x[1:] = noise[1:]
        return x
    log_a = -np.log(abs(a))
    chunk = max(16, min(4096, int(600.0 / max(1e-9, log_a)) if abs(a) < 1 else 4096))
    start = 1
    prev = x[0]
    while start < n:
        stop = min(n, start + chunk)
        k = stop - start
        powers = a ** np.arange(1, k + 1)
        scaled = noise[start:stop] / powers
        x[start:stop] = powers * (prev + np.cumsum(scaled))
        prev = x[stop - 1]
        start = stop
    return x


#: Coefficients by the chunk length they select: the 16-slot floor
#: (coherence 0.025 slots), about 1200 (coherence 2), the 4096 cap, and
#: |a| >= 1 (always 4096 slots).
SCAN_COEFFICIENTS = {
    "floor": float(np.exp(-1.0 / 0.025)),
    "chunk-1200": float(np.exp(-1.0 / 2.0)),
    "cap": float(np.exp(-1.0 / 800.0)),
    "negative": -0.7,
    "one": 1.0,
    "above-one": 1.0005,
    "minus-one": -1.0,
}


class TestScanMatchesChunkLoop:
    """The block-form constant scan equals the chunk loop bit for bit."""

    @pytest.mark.parametrize("name", sorted(SCAN_COEFFICIENTS))
    def test_chunk_boundaries(self, name):
        a = SCAN_COEFFICIENTS[name]
        chunk = _chunk_length(a)
        rng = np.random.default_rng(11)
        # n - 1 below one chunk, exactly k chunks, and k chunks plus one.
        for n_minus_1 in (chunk - 1, chunk, 3 * chunk, 3 * chunk + 1):
            noise = rng.standard_normal(n_minus_1 + 1)
            with np.errstate(all="ignore"):
                want = _chunk_loop(a, noise, 0.25)
                got = ar1_scan(a, noise, init=0.25)
                aliased = noise.copy()
                aliased[0] = 0.25
                _ar1_scan_const(a, aliased, aliased)
            assert got.tobytes() == want.tobytes(), (name, n_minus_1)
            assert aliased.tobytes() == want.tobytes(), (name, n_minus_1)

    def test_chunk_lengths_covered(self):
        lengths = {name: _chunk_length(a) for name, a in SCAN_COEFFICIENTS.items()}
        assert lengths["floor"] == 16
        assert 1195 <= lengths["chunk-1200"] <= 1200
        assert lengths["cap"] == lengths["one"] == lengths["above-one"] == 4096

    def test_zero_coefficient(self):
        noise = np.random.default_rng(2).standard_normal(5000)
        want = _chunk_loop(0.0, noise, 1.5)
        assert ar1_scan(0.0, noise, init=1.5).tobytes() == want.tobytes()
        assert want[1:].tobytes() == noise[1:].tobytes()

    @pytest.mark.parametrize("n_slots", [1, 2, 100_000])
    @pytest.mark.parametrize("coherence", [0.025, 2.0, 30.0, 800.0])
    def test_sample_matches_chunk_loop(self, n_slots, coherence):
        fading = Ar1Fading(sigma_db=2.5, coherence_slots=coherence)
        w = np.random.default_rng(9).standard_normal(n_slots)
        a = fading.rho
        b = fading.sigma_db * np.sqrt(1.0 - a * a)
        want = _chunk_loop(a, b * w, fading.sigma_db * w[0])
        got = fading.sample(n_slots, np.random.default_rng(9))
        assert np.isfinite(got).all()
        assert got.tobytes() == want.tobytes()
