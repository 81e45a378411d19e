"""Metric assembly for the copbands benchmark.

Pure functions shared by the orchestrator (``run.py``) and the self-tests:
they turn the raw measurements a worker reports into the named metrics
listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics

# A tail percentile is reported only where at least this many samples lie
# beyond it.
TAIL_BEYOND = 10

# The speed probe's kernel time (calibrate.py) on the machine the bounds
# were set on, a 2-vCPU Intel Xeon VM: the median of many measurements. Pass
# times are reported as if the kernel had taken this long beside them.
REFERENCE_CAL_S = 0.00033

# Span names recorded around the calls into each layer (see worker.py).
RUN_SPAN = "montecarlo.run"
CLI_SPAN = "cli.main"

# Which end-to-end metric each per-layer metric should move, and on which
# workload. Written down before measuring; a claimed gain on a layer is
# checked against this table.
LAYER_MOVES = {
    "montecarlo.self_us_per_rep": ("throughput_per_s", "coverage"),
    "montecarlo.pool_speedup": ("none: no timed pass is pooled", "coverage"),
    "montecarlo.stack_bytes": ("peak_rss_mb", "deviation"),
    "copula.frank_conditional_sample_us": ("throughput_per_s", "coverage"),
    "copula.cell_setup_us": ("throughput_per_s, setup_s", "coverage"),
    "estimator.make_pseudo_sample_us": ("throughput_per_s", "coverage, deviation"),
    "estimator.estimate_grid_us": ("throughput_per_s", "deviation most, coverage less"),
    "estimator.calls": ("throughput_per_s", "deviation, coverage"),
    "estimator.flops_per_call": ("throughput_per_s", "deviation, coverage"),
    "specfun.normal_quantile_us": ("throughput_per_s", "coverage, deviation"),
    "specfun.epanechnikov_cdf_us": ("throughput_per_s", "coverage, deviation"),
    "bands.lil_bands_us": ("throughput_per_s", "coverage (0 on deviation)"),
    "bands.normal_bands_us": ("throughput_per_s", "coverage (0 on deviation)"),
    "bands.covers_us": ("throughput_per_s", "coverage (0 on deviation)"),
    "bands.calls": ("throughput_per_s", "coverage (0 on deviation)"),
    "cli.import_s": ("setup_s, wall_s", "cli"),
    "cli.self_s": ("wall_s", "cli"),
    "cli.rows_per_s": ("wall_s", "cli"),
    "trace.overhead_s": ("none: traced minus untraced pass time", "all"),
}


def tail(samples):
    """Highest percentile that has at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, beyond)``. With ``TAIL_BEYOND`` samples
    or fewer no such percentile exists; the maximum is returned with
    ``beyond = 0`` so the report shows the tail is only the slowest pass.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > TAIL_BEYOND:
        k = n - 1 - TAIL_BEYOND
        return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND
    return ordered[-1], 100.0, 0


def at_reference_speed(segments, kernel_s):
    """A pass's time at the speed where the probe kernel takes ``REFERENCE_CAL_S``.

    ``segments`` holds the pass's segment times and ``kernel_s`` the probe
    kernel times around them, one before the first segment and one after
    each; a segment is scaled by the mean of the two around it.
    """
    if len(kernel_s) != len(segments) + 1:
        raise ValueError(f"{len(segments)} segments need {len(segments) + 1} kernel times")
    return sum(seg * REFERENCE_CAL_S / (0.5 * (before + after))
               for seg, before, after in zip(segments, kernel_s, kernel_s[1:]))


def end_to_end(setup_s, ref_pass_s, items_per_pass, peak_rss_mb):
    """End-to-end metrics of one untraced run, plus how the tail was taken.

    Times are at reference speed (``at_reference_speed``): ``setup_s``
    holds one per fresh interpreter that imported copbands and built the
    inputs, ``ref_pass_s`` one per timed pass. ``items_per_pass`` is the
    replicates (Monte Carlo) or CSV rows (cli) one pass processes.
    """
    wall = statistics.median(ref_pass_s)
    tail_value, percentile, beyond = tail(ref_pass_s)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": wall,
        "wall_s_tail": tail_value,
        "throughput_per_s": items_per_pass / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "setup_samples": len(setup_s),
        "passes": len(ref_pass_s),
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
    }
    return metrics, details


def _stat(summary, name):
    return summary.get(name, {"count": 0, "total_ns": 0, "self_ns": 0})


def _mean_us(summary, name):
    s = _stat(summary, name)
    return s["total_ns"] / s["count"] / 1e3 if s["count"] else 0.0


def per_layer(trace, import_s):
    """Per-layer metrics of one traced run.

    ``trace`` is the worker's traced-run report: ``summary`` maps each span
    name to its call count, total and self nanoseconds over ``passes``
    traced passes; the other keys are measured or computed by the worker.
    ``import_s`` is the median fresh-interpreter ``import copbands`` time.
    Layers a workload never calls read 0.
    """
    summary = trace["summary"]
    passes = trace["passes"]
    replicates = trace["replicates_per_pass"] * passes
    cdf = _stat(summary, "copula.frank_cdf")
    sigma2 = _stat(summary, "copula.frank_sigma2")
    cell_setups = max(cdf["count"], sigma2["count"])
    band_calls = sum(
        _stat(summary, name)["count"]
        for name in ("bands.lil_bands", "bands.normal_bands", "bands.covers")
    )
    cli = _stat(summary, CLI_SPAN)
    shapes = trace["estimate_shapes"]
    calls = sum(count for _, _, count in shapes)
    flops = sum(2 * g * g * n * count for n, g, count in shapes)
    return {
        "montecarlo.self_us_per_rep": (
            _stat(summary, RUN_SPAN)["self_ns"] / 1e3 / replicates if replicates else 0.0
        ),
        "montecarlo.pool_speedup": trace["pool_speedup"],
        "montecarlo.stack_bytes": trace["stack_bytes"],
        "copula.frank_conditional_sample_us": _mean_us(summary, "copula.frank_conditional_sample"),
        "copula.cell_setup_us": (
            (cdf["total_ns"] + sigma2["total_ns"]) / 1e3 / cell_setups if cell_setups else 0.0
        ),
        "estimator.make_pseudo_sample_us": _mean_us(summary, "estimator.make_pseudo_sample"),
        "estimator.estimate_grid_us": _mean_us(summary, "estimator.estimate_grid"),
        "estimator.calls": calls / passes,
        "estimator.flops_per_call": flops / calls if calls else 0.0,
        "specfun.normal_quantile_us": trace["normal_quantile_us"],
        "specfun.epanechnikov_cdf_us": trace["epanechnikov_cdf_us"],
        "bands.lil_bands_us": _mean_us(summary, "bands.lil_bands"),
        "bands.normal_bands_us": _mean_us(summary, "bands.normal_bands"),
        "bands.covers_us": _mean_us(summary, "bands.covers"),
        "bands.calls": band_calls / passes,
        "cli.import_s": import_s,
        "cli.self_s": cli["self_ns"] / 1e9 / passes,
        "cli.rows_per_s": (
            trace["rows_per_pass"] * passes / (cli["total_ns"] / 1e9) if cli["count"] else 0.0
        ),
        "trace.overhead_s": trace["overhead_s"],
    }
