"""Fast self-tests of the benchmark code: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_end_to_end_names_match_benchmark_json():
    got, details = metrics.end_to_end([1.0, 1.2, 1.1], [0.5] * 30, 384, 100.0)
    assert set(got) == names("end_to_end")
    assert all(value > 0 for value in got.values())
    assert details["tail_percentile"] == pytest.approx(100.0 * 20 / 30)


def test_segments_are_scaled_by_the_kernel_times_around_them():
    ref = metrics.REFERENCE_CAL_S
    assert metrics.at_reference_speed([1.0, 2.0], [ref, 2 * ref, 4 * ref]) == pytest.approx(
        1.0 / 1.5 + 2.0 / 3.0)
    with pytest.raises(ValueError):
        metrics.at_reference_speed([1.0, 2.0], [ref, ref])


def test_speed_probe_segments_a_pass():
    import calibrate

    probe = calibrate.SpeedProbe(segment_s=0.0)
    step = probe.hook(lambda: None)
    probe.timed(lambda: [step() for _ in range(3)])()
    segments, kernel_s = probe.segments()
    assert len(segments) == 4 and len(kernel_s) == 5
    assert all(s >= 0 for s in segments) and all(k > 0 for k in kernel_s)
    step()  # outside a timed pass the hook adds no window
    assert len(probe.segments()[0]) == 4


def test_speed_probe_takes_windows_from_a_child():
    import calibrate

    probe = calibrate.SpeedProbe(segment_s=1.0)

    def child_pass():
        time.sleep(0.01)
        child = calibrate.SpeedProbe(segment_s=1.0)
        child.probe()
        child.probe()
        probe.add(json.loads(json.dumps(child.windows)))

    start = time.perf_counter()
    probe.timed(child_pass)()
    elapsed = time.perf_counter() - start
    segments, kernel_s = probe.segments()
    assert len(segments) == 3 and len(kernel_s) == 4
    assert 0.01 <= sum(segments) < elapsed


def test_per_layer_names_match_benchmark_json():
    trace = {
        "summary": {"montecarlo.run": {"count": 1, "total_ns": 10**6, "self_ns": 10**5}},
        "passes": 2, "replicates_per_pass": 384, "rows_per_pass": 0,
        "estimate_shapes": [[50, 33, 192], [500, 33, 192]], "pool_speedup": 1.3,
        "stack_bytes": 0, "normal_quantile_us": 1.0, "epanechnikov_cdf_us": 1.0,
        "overhead_s": 0.01,
    }
    assert set(metrics.per_layer(trace, 1.0)) == names("per_layer")
    assert set(metrics.LAYER_MOVES) == names("per_layer")


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS)
    assert set(worker.MEASURE_PROCESSES) == set(worker.WORKLOADS)


def test_probe_time_counts_only_the_overlap():
    windows = [(0.0, 1.0, 1e-4), (2.0, 3.0, 1e-4), (4.5, 5.5, 1e-4)]
    assert worker.probe_time(windows, 0.5, 5.0) == pytest.approx(0.5 + 1.0 + 0.5)


def test_tail_needs_ten_samples_beyond():
    assert metrics.tail(range(1, 41)) == (30, 75.0, 10)
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_gate_rejects_a_perturbed_surface():
    surface = np.linspace(0.0, 1.0, 33 * 33)
    reference = {key: surface for key in ("estimate", "lower", "center", "upper")}
    assert checks.cli_mismatch(reference, reference, reference) == []
    assert checks.cli_mismatch({k: v + 1e-14 for k, v in reference.items()}, reference) == []
    perturbed = dict(reference, center=surface.copy())
    perturbed["center"][500] += 1e-9
    problems = checks.cli_mismatch(perturbed, reference, reference)
    assert len(problems) == 2 and all("center" in p for p in problems)


def test_gate_rejects_a_changed_coverage_count():
    golden = worker.golden_section("coverage")["counts"]
    assert checks.counts_mismatch(dict(golden), golden) == []
    cell = sorted(golden)[0]
    changed = dict(golden, **{cell: golden[cell] + 1})
    assert checks.counts_mismatch(changed, golden) == [
        f"coverage count {cell}: {golden[cell] + 1} != expected {golden[cell]}"
    ]


def test_reference_matches_the_estimator():
    import copbands

    xs, ys = worker.cli_sample(3, 300)
    knots = copbands.interior_grid(33)
    pseudo = copbands.make_pseudo_sample(copbands.PairedSample(xs, ys))
    program = copbands.estimate_grid(pseudo, copbands.default_bandwidth(300).h, knots).values
    reference = checks.reference_estimate(xs, ys, knots)
    assert checks.values_mismatch("estimate", program, reference) == []


def test_midranks_average_ties():
    assert checks.midranks([3.0, 1.0, 3.0, 2.0]).tolist() == [3.5, 1.0, 3.5, 2.0]


def test_exits_nonzero_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "coverage", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
