"""Figure 19: per-token latency at varied HBM bandwidths on both topologies."""

from _common import figure_spec, run_figure

from repro.ir.models.registry import PAPER_LLM_NAMES

SPEC = figure_spec(
    "fig19_hbm_sweep",
    hbm_bandwidth_tbps=(4.0, 8.0, 12.0, 16.0),
    model=PAPER_LLM_NAMES,
)


def test_fig19_hbm_bandwidth_sweep(benchmark):
    rows = run_figure(benchmark, SPEC).rows
    # Trend check: for Elk-Full, more HBM bandwidth never hurts, and the
    # benefit of the last doubling is smaller than the first (diminishing returns).
    by_key: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["policy"] != "elk-full":
            continue
        by_key.setdefault((row["model"], row["topology"]), []).append(row)
    for series in by_key.values():
        series.sort(key=lambda r: r["hbm_bandwidth_tbps"])
        latencies = [r["latency_ms"] for r in series]
        assert latencies[-1] <= latencies[0] * 1.001
        if len(latencies) >= 3:
            first_gain = latencies[0] / latencies[1]
            last_gain = latencies[-2] / latencies[-1]
            assert last_gain <= first_gain + 0.25
