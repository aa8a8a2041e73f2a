"""Figure 24: achieved TFLOPS for the Llama2-13B training forward pass."""

from _common import figure_spec, run_figure

SPEC = figure_spec(
    "fig24_training",
    topology=("all_to_all", "mesh_2d"),
    matmul_tflops=(500.0, 1000.0, 1500.0),
)


def test_fig24_training_flops(benchmark):
    rows = run_figure(benchmark, SPEC).rows
    # Training is compute-bound: achieved TFLOPS grows with available TFLOPS
    # even at modest (GB/s-class) HBM bandwidth — the paper's insight 4.
    elk = [r for r in rows if r["policy"] == "elk-full"]
    by_setting: dict[tuple, list[dict]] = {}
    for row in elk:
        key = (row["topology"], row["hbm_bandwidth_tbps"], row["noc_bandwidth_tbps"])
        by_setting.setdefault(key, []).append(row)
    for points in by_setting.values():
        points.sort(key=lambda r: r["matmul_tflops"])
        assert points[-1]["achieved_tflops"] >= points[0]["achieved_tflops"] * 1.1
