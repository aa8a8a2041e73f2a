"""Figure 22: Llama2-70B latency at varied interconnect bandwidths."""

from _common import figure_spec, run_figure

SPEC = figure_spec(
    "fig22_noc_sweep",
    topology=("all_to_all", "mesh_2d"),
    hbm_bandwidth_tbps=(8.0, 12.0, 16.0),
    noc_bandwidth_tbps=(24.0, 32.0, 40.0, 48.0),
)


def test_fig22_noc_bandwidth_sweep(benchmark):
    rows = run_figure(benchmark, SPEC).rows
    # With low HBM bandwidth, raising the NoC bandwidth brings little benefit
    # (HBM is the bottleneck); with high HBM bandwidth the NoC matters more.
    elk = [r for r in rows if r["policy"] == "elk-full"]
    assert elk
    for row in elk:
        assert row["latency_ms"] > 0
    low_hbm = sorted(
        (r for r in elk if r["hbm_bandwidth_tbps"] == 8.0),
        key=lambda r: r["noc_bandwidth_tbps"],
    )
    if len(low_hbm) >= 2:
        gain = low_hbm[0]["latency_ms"] / low_hbm[-1]["latency_ms"]
        assert gain < 1.6, "NoC scaling should not dominate when HBM is the bottleneck"
