"""Figure 18: latency breakdown, HBM/NoC utilization, and achieved TFLOPS per design."""

from _common import figure_spec, run_figure

SPEC = figure_spec("fig18_utilization")


def test_fig18_utilization(benchmark):
    rows = run_figure(benchmark, SPEC).rows
    by_model: dict[str, dict[str, dict]] = {}
    for row in rows:
        by_model.setdefault(row["model"], {})[row["policy"]] = row
    for model, policies in by_model.items():
        if not {"basic", "elk-full"} <= set(policies):
            continue
        # Fig. 18b ordering: Elk utilizes HBM better than Basic.
        assert (
            policies["elk-full"]["hbm_utilization"]
            > policies["basic"]["hbm_utilization"]
        ), model
        # Fig. 18d: Elk achieves higher TFLOPS than Basic.
        assert (
            policies["elk-full"]["achieved_tflops"]
            > policies["basic"]["achieved_tflops"]
        ), model
