"""Figure 21: interconnect utilization at varied HBM bandwidths, both topologies."""

from _common import figure_spec, run_figure

SPEC = figure_spec("fig21_noc_util")


def test_fig21_noc_utilization(benchmark):
    rows = run_figure(benchmark, SPEC).rows
    # Mesh chips run their interconnect hotter than all-to-all chips at the
    # same HBM bandwidth (multi-hop HBM delivery), for the same design.
    paired: dict[tuple, dict[str, float]] = {}
    for row in rows:
        if row["policy"] != "elk-full":
            continue
        key = (row["model"], row["hbm_bandwidth_tbps"])
        paired.setdefault(key, {})[row["topology"]] = row["noc_utilization"]
    compared = 0
    for utils in paired.values():
        if {"all_to_all", "mesh_2d"} <= set(utils):
            compared += 1
            assert utils["mesh_2d"] >= utils["all_to_all"] - 0.10
    assert compared >= 2
