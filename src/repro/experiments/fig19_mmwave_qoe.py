"""Fig. 19 / §7 — QoE implications of mid-band vs mmWave.

Experiment set (a): the standard 7-level ladder (~400 Mbps average)
streamed while walking over both technologies — mmWave raises bitrates
but pays with stalls.  Set (b): the scaled-up ladder (~1.25 Gbps
average) over mmWave while walking and driving — driving degrades QoE
markedly; the achieved bitrate falls to ~80% of the channel's average
throughput.
"""

from __future__ import annotations

import numpy as np

from repro.apps.video import Bola, PAPER_LADDER_MIDBAND, PAPER_LADDER_MMWAVE, StreamingSession, Video
from repro import papertargets as targets
from repro.experiments.base import ExperimentResult
from repro.experiments.fig18_mmwave_variability import SCENARIOS, _midband_run, _mmwave_run


def _stream(result, video: Video) -> dict:
    capacity = result.throughput_mbps(50.0)
    session = StreamingSession(video=video, abr=Bola(video.ladder), capacity_mbps=capacity,
                               buffer_capacity_s=12.0).run()
    qoe = session.qoe()
    # Effective delivery rate over wall time (playback + stalls): the
    # "average bitrate achieved" §7 compares against the channel mean.
    wall_s = qoe.startup_delay_s + session.playback_s + session.total_stall_s
    delivered_mbps = float(session.chunk_bitrates_mbps.sum() * video.chunk_s / max(wall_s, 1e-9))
    return {
        "norm_bitrate": qoe.normalized_bitrate,
        "bitrate_mbps": qoe.mean_bitrate_mbps,
        "delivered_mbps": delivered_mbps,
        "stall_pct": qoe.stall_percentage,
        "tput_mbps": float(capacity.mean()),
    }


def run(seed: int = 2024, quick: bool = True) -> ExperimentResult:
    duration = 25.0 if quick else 120.0
    chunk_s = 1.0  # §7 uses 1 s chunks in both sets
    rows: list[str] = []
    data: dict = {"set_a": {}, "set_b": {}}

    # Set (a): standard ladder, walking, both technologies.
    video_a = Video(duration_s=duration - 5.0, chunk_s=chunk_s, ladder=PAPER_LADDER_MIDBAND)
    walking = SCENARIOS["walking"]
    mid = _stream(_midband_run(duration, walking, seed), video_a)
    mm = _stream(_mmwave_run(duration, walking, seed), video_a)
    data["set_a"] = {"midband": mid, "mmwave": mm}
    rows.append("-- set (a): standard ladder, walking --")
    rows.append(f"mid-band  bitrate {mid['norm_bitrate']:5.3f}  stall {mid['stall_pct']:5.2f}%")
    rows.append(f"mmWave    bitrate {mm['norm_bitrate']:5.3f}  stall {mm['stall_pct']:5.2f}%  "
                "(paper: bitrate gain at the expense of stalls)")

    # Set (b): scaled-up ladder over mmWave, walking vs driving.
    video_b = Video(duration_s=duration - 5.0, chunk_s=chunk_s, ladder=PAPER_LADDER_MMWAVE)
    rows.append("-- set (b): scaled-up ladder, mmWave only --")
    for scenario_name in ("walking", "driving"):
        # Straight into _stream: a bound result would keep one run's
        # four-carrier traces alive while the next one simulates.
        outcome = _stream(_mmwave_run(duration, SCENARIOS[scenario_name], seed + 3),
                          video_b)
        fraction = outcome["delivered_mbps"] / max(outcome["tput_mbps"], 1e-9)
        outcome["bitrate_tput_fraction"] = fraction
        data["set_b"][scenario_name] = outcome
        rows.append(
            f"mmWave {scenario_name:8s} bitrate {outcome['bitrate_mbps']:7.1f} Mbps  "
            f"stall {outcome['stall_pct']:5.2f}%  bitrate/tput {100 * fraction:5.1f}% "
            + (f"(paper {100 * targets.SEC7_SCALED_LADDER_BITRATE_FRACTION:.1f}%)"
               if scenario_name == "driving" else "")
        )
    return ExperimentResult("fig19", "mid-band vs mmWave QoE (Fig. 19)", rows, data)
