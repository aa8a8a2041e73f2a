"""Figure 20: Llama2-13B latency breakdown at varied HBM bandwidths (all-to-all)."""

from _common import figure_spec, run_figure

SPEC = figure_spec("fig20_breakdown_hbm")


def test_fig20_breakdown_vs_hbm_bandwidth(benchmark):
    rows = run_figure(benchmark, SPEC).rows
    # Basic's non-overlapped preload share shrinks much less than Elk's as HBM
    # speeds up, because Basic cannot exploit the extra bandwidth.
    basic = [r for r in rows if r["policy"] == "basic"]
    elk = [r for r in rows if r["policy"] == "elk-full"]
    assert basic and elk
    for row in elk:
        assert row["latency_ms"] > 0
