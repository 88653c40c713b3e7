"""Fast fading as an AR(1) process on the slot grid.

Small-scale fading varies on the channel's coherence time, which for a
mid-band carrier and pedestrian/vehicular speeds spans a few ms to a few
hundred ms — exactly the range over which the paper's §5 variability
analysis observes 5G throughput to fluctuate before "stabilizing" around
0.2-0.5 s.  We model the effective per-slot SINR perturbation (in dB) as
a stationary AR(1) (Ornstein-Uhlenbeck in discrete time):

    x[t] = rho * x[t-1] + sigma * sqrt(1 - rho^2) * w[t]

with ``rho = exp(-slot / tau)`` where ``tau`` is the coherence time in
slots.  Coherence time follows Clarke's model: ``tau ~ 0.423 / f_d`` with
Doppler ``f_d = v * f_c / c``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


def _ar1_scan_const(a: float, noise: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Constant-coefficient scan body; fills ``x[1:]`` in place.

    ``x`` may be ``noise`` itself: every element of ``noise`` is read
    before or as that element of ``x`` is written.

    The chunk length and per-chunk arithmetic are load-bearing: cached
    campaign traces embed this exact floating-point evaluation order,
    so any change here is a store-schema change.  The full chunks run
    as the rows of one ``(full, chunk)`` block (divide, row-wise
    ``cumsum``, the carry from the previous chunk end, multiply) and
    the trailing partial chunk runs alone; that keeps the chunk rule
    and every element's operation order of a chunk-at-a-time loop, so
    the values are bit for bit those of the loop and the block form is
    not a schema change.
    """
    n = noise.size
    if a == 0.0:
        x[1:] = noise[1:]
        return x
    # Scaled-prefix-sum scan: x[t]/a^t = x[0] + sum noise[k]/a^k.  For
    # long runs a^-t overflows, so process in bounded-length chunks.
    log_a = -np.log(abs(a))
    chunk = max(16, min(4096, int(600.0 / max(1e-9, log_a)) if abs(a) < 1 else 4096))
    full = (n - 1) // chunk
    start = 1 + full * chunk
    prev = x[0]
    if full:
        powers = a ** np.arange(1, chunk + 1)
        block = x[1:start].reshape(full, chunk)
        np.divide(noise[1:start].reshape(full, chunk), powers, out=block)
        np.cumsum(block, axis=1, out=block)
        # Row r continues from the end of row r - 1: the same
        # ``powers[-1] * (prev + cumsum[-1])`` the chunk loop stores,
        # here in Python floats (IEEE doubles, same rounding).
        carries = []
        prev = float(prev)
        last = float(powers[-1])
        for row_sum in block[:, -1].tolist():
            carries.append(prev)
            prev = last * (prev + row_sum)
        block += np.array(carries)[:, None]
        block *= powers
    if start < n:
        powers = a ** np.arange(1, n - start + 1)
        scaled = noise[start:] / powers
        x[start:] = powers * (prev + np.cumsum(scaled))
    return x


def _ar1_scan_varying(coeff: np.ndarray, noise: np.ndarray,
                      x: np.ndarray) -> np.ndarray:
    """Varying-coefficient scan body; fills ``x[1:]`` in place.

    Within a chunk ``P[t] = prod coeff[start..t]`` (a cumulative
    product) plays the role the constant path's ``a^k`` powers play:
    ``x[t] = P[t] * (x[start-1] + sum noise[k]/P[k])``.  Chunks end
    where the running ``|log P|`` would exceed the float64 dynamic
    range, and a zero coefficient restarts the recursion exactly
    (``x[t] = noise[t]``), which also resets the product.
    """
    n = noise.size
    nonzero = coeff != 0.0
    log_p = np.cumsum(np.where(nonzero, np.log(np.abs(np.where(nonzero, coeff, 1.0))), 0.0))
    zero_at = np.flatnonzero(~nonzero)
    start = 1
    prev = x[0]
    while start < n:
        if not nonzero[start]:
            x[start] = noise[start]
            prev = x[start]
            start += 1
            continue
        j = int(np.searchsorted(zero_at, start))
        segment_end = n if j == zero_at.size else int(zero_at[j])
        window_end = min(segment_end, start + 4096)
        base = log_p[start - 1]
        over = np.flatnonzero(np.abs(log_p[start:window_end] - base) >= 600.0)
        stop = window_end if over.size == 0 else start + int(over[0])
        stop = max(stop, start + 1)
        if stop == start + 1:
            # Degenerate chunk (extreme coefficient): the direct
            # recursion is exact where the scaled scan would overflow.
            x[start] = coeff[start] * prev + noise[start]
        else:
            powers = np.cumprod(coeff[start:stop])
            scaled = noise[start:stop] / powers
            x[start:stop] = powers * (prev + np.cumsum(scaled))
        prev = x[stop - 1]
        start = stop
    return x


def ar1_scan(coeff: float | np.ndarray, noise: np.ndarray,
             init: float) -> np.ndarray:
    """Vectorized first-order linear recurrence (AR(1) scan).

    Evaluates ``x[0] = init`` and ``x[t] = coeff[t] * x[t-1] + noise[t]``
    for ``t >= 1`` in O(n) numpy operations instead of a Python loop.
    ``coeff`` is either a scalar (stationary process — fast fading) or
    an array aligned with ``noise`` (per-step coefficients — spatially
    correlated shadowing on a non-uniform route); element 0 of both
    ``coeff`` and ``noise`` is ignored.

    The scalar path reproduces the historical ``Ar1Fading.sample``
    arithmetic bit for bit; the array path matches the direct recursion
    to floating-point round-off.
    """
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 1 or noise.size == 0:
        raise ValueError("noise must be a non-empty 1-D array")
    x = np.empty(noise.size)
    x[0] = init
    if noise.size == 1:
        return x
    if np.ndim(coeff) == 0:
        return _ar1_scan_const(float(coeff), noise, x)
    coeff = np.asarray(coeff, dtype=float)
    if coeff.shape != noise.shape:
        raise ValueError("coeff must be a scalar or match noise's shape")
    return _ar1_scan_varying(coeff, noise, x)


def doppler_hz(speed_mps: float, frequency_ghz: float) -> float:
    """Maximum Doppler shift for a UE speed and carrier frequency."""
    if speed_mps < 0:
        raise ValueError("speed must be non-negative")
    return speed_mps * frequency_ghz * 1e9 / SPEED_OF_LIGHT


def coherence_time_s(speed_mps: float, frequency_ghz: float) -> float:
    """Clarke coherence time ``0.423 / f_d`` (inf for a static UE)."""
    fd = doppler_hz(speed_mps, frequency_ghz)
    if fd == 0.0:
        return float("inf")
    return 0.423 / fd


@dataclass(frozen=True)
class Ar1Fading:
    """Stationary AR(1) fading generator on the slot grid.

    Parameters
    ----------
    sigma_db:
        Stationary standard deviation of the SINR perturbation in dB.
    coherence_slots:
        e-folding time of the autocorrelation, in slots.  Use
        :func:`coherence_time_s` divided by the slot duration, or pick a
        value directly when calibrating to measured variability.
    """

    sigma_db: float = 2.5
    coherence_slots: float = 100.0

    def __post_init__(self) -> None:
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be non-negative")
        if self.coherence_slots <= 0:
            raise ValueError("coherence_slots must be positive")

    @property
    def rho(self) -> float:
        """One-slot autocorrelation coefficient."""
        return float(np.exp(-1.0 / self.coherence_slots))

    def sample(self, n_slots: int, rng: np.random.Generator) -> np.ndarray:
        """Generate ``n_slots`` correlated fading samples in dB.

        Vectorized via the scan identity: with ``a = rho`` constant,
        ``x[t] = a^t x[0] + sum_k a^(t-k) b w[k]`` is computed with a
        cumulative product trick in O(n).
        """
        if n_slots < 1:
            raise ValueError("n_slots must be positive")
        if self.sigma_db == 0.0:
            return np.zeros(n_slots)
        a = self.rho
        b = self.sigma_db * np.sqrt(1.0 - a * a)
        # The draws become the noise and then the samples, in place.
        x = rng.standard_normal(n_slots)
        init = self.sigma_db * x[0]
        x *= b
        x[0] = init
        if n_slots > 1:
            _ar1_scan_const(a, x, x)
        return x

    @classmethod
    def for_speed(
        cls,
        speed_mps: float,
        frequency_ghz: float,
        slot_duration_ms: float,
        sigma_db: float = 2.5,
        floor_slots: float = 2.0,
    ) -> "Ar1Fading":
        """Build a fading process whose coherence matches a UE speed.

        A stationary UE still sees residual environmental variation
        (scatterer motion); ``floor_slots`` only lower-bounds the
        coherence; stationary UEs get a long (10 s) coherence instead of
        an infinite one.
        """
        tau_s = coherence_time_s(speed_mps, frequency_ghz)
        if np.isinf(tau_s):
            tau_slots = 10_000.0 / slot_duration_ms * 0.5  # ~10 s of slots
        else:
            tau_slots = max(floor_slots, tau_s * 1000.0 / slot_duration_ms)
        return cls(sigma_db=sigma_db, coherence_slots=tau_slots)
