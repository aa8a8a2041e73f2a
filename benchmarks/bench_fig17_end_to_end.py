"""Figure 17: per-token serving latency of all designs across models/batches/sequences."""

from _common import figure_spec, run_figure, summarize_speedups

SPEC = figure_spec("fig17_end_to_end", seq_len=(2048, 4096), batch_size=(16, 32, 64))


def test_fig17_end_to_end_latency(benchmark):
    result = run_figure(benchmark, SPEC)
    speedups = summarize_speedups(result)
    print(f"Geomean speedup of Elk-Full: {speedups}")
    # Shape checks against the paper: Elk-Full beats Basic clearly, is at
    # least on par with Static and Elk-Dyn, and stays below the Ideal roofline.
    assert speedups.get("basic", 0) > 1.15
    assert speedups.get("static", 0) > 0.95
    assert speedups.get("elk-dyn", 0) >= 0.99
    assert 0.5 <= speedups.get("ideal", 0) <= 1.001
