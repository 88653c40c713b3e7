"""ABR (adaptive bitrate) algorithms: BOLA, throughput-based, dynamic.

§6 evaluates three dash.js algorithms:

- **BOLA** (Spiteri, Urgaonkar, Sitaraman — ToN 2020): a Lyapunov
  utility-maximization rule on the buffer level; the paper finds it the
  best performer (appendix Fig. 24) and uses it throughout §6.
- **Throughput-based** ("probe and adapt", Li et al.): pick the highest
  bitrate below a safety-discounted throughput estimate.
- **Dynamic** (dash.js default): throughput-based while the buffer is
  low, BOLA once it is comfortable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.apps.video.content import BitrateLadder


@dataclass(frozen=True)
class AbrContext:
    """Everything an ABR algorithm may inspect before one chunk download."""

    buffer_level_s: float
    buffer_capacity_s: float
    chunk_s: float
    throughput_estimate_mbps: float
    last_level: int
    chunk_index: int
    stalled_since_last: bool = False
    #: Wall-clock time of the request (lets network-aware algorithms
    #: index side-channel PHY signals).
    now_s: float = 0.0


class AbrAlgorithm(abc.ABC):
    """Interface: pick the next chunk's quality level."""

    name = "abr"
    #: Whether the player may abandon this algorithm's in-flight chunks
    #: when the link collapses (dash.js ships an abandonment rule with
    #: BOLA — the BOLA-E refinement — but not with the plain throughput
    #: rule).
    supports_abandonment = False

    def __init__(self, ladder: BitrateLadder):
        self.ladder = ladder

    @abc.abstractmethod
    def choose(self, context: AbrContext) -> int:
        """Quality level for the next chunk."""

    def reset(self) -> None:
        """Clear per-session state (default: stateless)."""


class Bola(AbrAlgorithm):
    """BOLA-BASIC.

    For buffer level ``Q`` (in seconds, the dash.js formulation) the
    algorithm picks::

        argmax_m  (V * (v_m + gamma_p) - Q) / S_m

    with utilities ``v_m = ln(S_m / S_min)`` and ``S_m`` proportional to
    the chunk sizes.  ``V`` is derived from the buffer target so the
    maximum quality is reached just below it (dash.js BolaRule):

        V = (buffer_target - chunk_s) / (v_max + gamma_p)

    A smaller chunk therefore both raises the top-quality threshold
    toward the full buffer and shortens the commitment of every
    decision — the §6.2 mechanism.
    """

    name = "bola"
    supports_abandonment = True

    def __init__(self, ladder: BitrateLadder, gamma_p: float = 5.0,
                 startup_safety: float = 0.9, startup_exit_buffer_s: float = 8.0):
        super().__init__(ladder)
        if gamma_p <= 0:
            raise ValueError("gamma_p must be positive")
        if not 0.0 < startup_safety <= 1.0:
            raise ValueError("startup_safety must lie in (0, 1]")
        self.gamma_p = gamma_p
        self.startup_safety = startup_safety
        self.startup_exit_buffer_s = startup_exit_buffer_s
        self._in_startup = True

    def control_parameter(self, buffer_capacity_s: float, chunk_s: float) -> float:
        """The Lyapunov trade-off parameter V (seconds-based, dash.js)."""
        headroom_s = max(chunk_s, buffer_capacity_s - chunk_s)
        v_max = float(self.ladder.utilities[-1])
        return headroom_s / (v_max + self.gamma_p)

    def choose(self, context: AbrContext) -> int:
        v = self.control_parameter(context.buffer_capacity_s, context.chunk_s)
        q = context.buffer_level_s  # seconds
        sizes = self.ladder.bitrates_mbps  # proportional to chunk size
        scores = (v * (self.ladder.utilities + self.gamma_p) - q) / sizes
        # When every score is negative (buffer above the top-quality
        # threshold) the argmax still lands on the highest quality —
        # Spiteri et al.'s "pause" refinement saves bandwidth but does
        # not change the quality decision, so plain argmax is faithful.
        best = int(np.argmax(scores))
        # dash.js startup state: while the buffer builds (at session
        # start, and again after every rebuffer — dash.js resets BOLA to
        # STARTUP when playback restarts), pick purely by measured
        # throughput.  This is why the paper's Fig. 16 session opens at
        # the highest quality, and why post-stall recoveries are
        # throughput-conservative.
        if context.stalled_since_last:
            self._in_startup = True
        if self._in_startup:
            exit_level_s = min(self.startup_exit_buffer_s, 0.6 * context.buffer_capacity_s)
            if context.buffer_level_s >= exit_level_s:
                self._in_startup = False
            else:
                best = self.ladder.highest_below(
                    self.startup_safety * context.throughput_estimate_mbps)
        return best

    def reset(self) -> None:
        self._in_startup = True


class ThroughputBased(AbrAlgorithm):
    """Probe-and-adapt: highest bitrate under ``safety * estimate``."""

    name = "throughput"

    def __init__(self, ladder: BitrateLadder, safety: float = 0.9):
        super().__init__(ladder)
        if not 0.0 < safety <= 1.0:
            raise ValueError("safety must lie in (0, 1]")
        self.safety = safety

    def choose(self, context: AbrContext) -> int:
        return self.ladder.highest_below(self.safety * context.throughput_estimate_mbps)


class DynamicAbr(AbrAlgorithm):
    """dash.js 'dynamic': throughput-based when the buffer is below a
    threshold, BOLA once it is comfortably full."""

    name = "dynamic"

    def __init__(self, ladder: BitrateLadder, switch_buffer_s: float = 10.0,
                 gamma_p: float = 5.0, safety: float = 0.9):
        super().__init__(ladder)
        if switch_buffer_s <= 0:
            raise ValueError("switch_buffer_s must be positive")
        self.switch_buffer_s = switch_buffer_s
        self._bola = Bola(ladder, gamma_p=gamma_p)
        self._tput = ThroughputBased(ladder, safety=safety)
        self._using_bola = False

    def choose(self, context: AbrContext) -> int:
        # Hysteresis: enter BOLA above the threshold, fall back only when
        # the buffer halves below it (mirrors dash.js switching rules).
        if context.buffer_level_s >= self.switch_buffer_s:
            self._using_bola = True
        elif context.buffer_level_s < self.switch_buffer_s / 2.0:
            self._using_bola = False
        algorithm = self._bola if self._using_bola else self._tput
        return algorithm.choose(context)

    def reset(self) -> None:
        self._using_bola = False
