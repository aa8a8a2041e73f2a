"""Figure 23: per-token latency at varied core counts (plus DiT-XL).

HBM bandwidth scales with the chip at 2.7 GB/s per core.  The spec's grid
is the full 1472-core chip; ``include`` entries add the smaller chips, each
pairing ``cores_per_chip`` with its bandwidth, and DiT-XL on one chip at
batch 8.
"""

from dataclasses import replace

from _common import FULL, figure_spec, run_figure

from repro.ir.models.registry import PAPER_LLM_NAMES
from repro.units import GB, TB

SPEC = figure_spec("fig23_core_sweep", model=PAPER_LLM_NAMES)


def _point(model: str, cores: int, policy: str) -> dict:
    if model == "dit-xl":
        system = {"system": "single-chip", "batch_size": 8}
        chips = 1
    else:
        system = {}
        chips = 4
    return {
        "model": model,
        **system,
        "cores_per_chip": cores,
        "hbm_bandwidth_tbps": 2.7 * GB * (cores * chips) / TB,
        "policy": policy,
    }


if FULL:
    SPEC = replace(
        SPEC,
        include=tuple(
            _point(model, cores, policy)
            for model, counts in (
                *((llm, (736, 1104)) for llm in PAPER_LLM_NAMES),
                ("dit-xl", (736, 1104, 1472)),
            )
            for cores in counts
            for policy in SPEC.axes["policy"]
        ),
    )


def test_fig23_core_count_sweep(benchmark):
    rows = run_figure(benchmark, SPEC).rows
    # Performance scales with the chip: more cores (and proportional HBM)
    # never slows Elk-Full down.
    series: dict[str, list[dict]] = {}
    for row in rows:
        if row["policy"] != "elk-full":
            continue
        series.setdefault(row["model"], []).append(row)
    for model, points in series.items():
        points.sort(key=lambda r: r["cores_per_chip"])
        assert points[-1]["latency_ms"] <= points[0]["latency_ms"] * 1.05, model
