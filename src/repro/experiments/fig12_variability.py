"""Fig. 12 — scaled variability V(t) of throughput, MCS and MIMO layers
across time scales (0.5 ms ... 2 s) for four carriers.

Expected shape: V(t) decreasing in t and stabilizing around 0.2-0.5 s;
O_Sp_100 the most variable on every KPI, V_It the least; MIMO-layer
variability an order of magnitude below MCS variability.

With ``reduce=True`` the per-scale V(t) accumulators stream out of the
workers as sketches instead of whole traces; for a single session per
carrier the pooled estimate collapses to ``scaled_variability`` exactly,
so the printed rows are byte-identical to the materializing path.
"""

from __future__ import annotations

import numpy as np

from repro.core.runner import SessionTask, run_tasks
from repro.core.timeseries import KpiSeries
from repro.core.variability import variability_profile
from repro.experiments.base import ExperimentResult, dl_trace
from repro.operators.profiles import EU_PROFILES

FIG12_KEYS = ("O_Sp_100", "O_Sp_90", "V_Sp", "V_It")
_KPI_NAMES = ("throughput", "mcs", "mimo")
#: Scales the printed summary reports (full profiles are in ``data``).
REPORT_SCALES_MS = (0.5, 8.0, 128.0, 2048.0)


def run(seed: int = 2024, quick: bool = True, jobs: int | str = 1,
        store=None, executor=None, reduce: bool = False) -> ExperimentResult:
    duration = 20.0 if quick else 60.0
    rows: list[str] = []
    data: dict = {}
    manifest = [
        SessionTask(fn=dl_trace,
                    kwargs={"profile": EU_PROFILES[key], "duration_s": duration},
                    seed=seed, label=key)
        for key in FIG12_KEYS
    ]
    if reduce:
        from repro.core.reduce import CampaignReduction

        reduction = CampaignReduction(group_mode="label",
                                      variability_kpis=_KPI_NAMES)
        sketch = run_tasks(manifest, jobs=jobs, store=store, executor=executor,
                           reduce=reduction)
        for key in FIG12_KEYS:
            group = sketch.groups[key]
            data[key] = {}
            for name in _KPI_NAMES:
                scales, values = group.variability[name].profile()
                data[key][name] = {"scales_ms": scales, "v": values}
        data["reduce_stats"] = dict(reduction.stats)
    else:
        traces = dict(zip(FIG12_KEYS, run_tasks(manifest, jobs=jobs, store=store,
                                                executor=executor)))
        for key in FIG12_KEYS:
            trace = traces[key]
            slot_ms = trace.slot_duration_ms
            kpis = {
                "throughput": trace.throughput_mbps(slot_ms),
                "mcs": KpiSeries.from_trace_column(trace, "mcs_index").values,
                "mimo": KpiSeries.from_trace_column(trace, "layers").values,
            }
            data[key] = {}
            for name, series in kpis.items():
                scales, values = variability_profile(series, slot_ms, max_scale_ms=2048.0)
                data[key][name] = {"scales_ms": scales, "v": values}

    for key in FIG12_KEYS:
        summary = []
        for name in _KPI_NAMES:
            profile_data = data[key][name]
            picks = []
            for target in REPORT_SCALES_MS:
                idx = int(np.argmin(np.abs(profile_data["scales_ms"] - target)))
                picks.append(profile_data["v"][idx])
            summary.append(f"{name} V@[0.5ms,8ms,128ms,2s] = "
                           + "/".join(f"{v:7.2f}" for v in picks))
        rows.append(f"{key:10s} " + " | ".join(summary))

    # Ordering check at the stabilized scale (128 ms).
    def v_at(key: str, kpi: str, scale: float) -> float:
        d = data[key][kpi]
        idx = int(np.argmin(np.abs(d["scales_ms"] - scale)))
        return float(d["v"][idx])

    order = sorted(FIG12_KEYS, key=lambda k: -v_at(k, "throughput", 128.0))
    rows.append(f"throughput-variability ordering at 128 ms: {' > '.join(order)} "
                "(paper: O_Sp_100 most, V_It least)")
    data["ordering_128ms"] = order
    return ExperimentResult("fig12", "V(t) across time scales (Fig. 12)", rows, data)
