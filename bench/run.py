"""copbands benchmark: Monte Carlo throughput, CLI latency and per-layer costs.

Run from the root of a source checkout:

    python3 bench/run.py --workload coverage --seed 1 --seconds 28 --trace 0

Workloads are ``coverage``, ``deviation`` and ``cli``;
``--workload all`` runs each in turn. Every workload first times fresh
interpreters that import copbands and build the inputs (set-up), then runs
passes in a separate process for ``--seconds`` and checks every output.
With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are the per-layer metrics of a
traced run. Readable lines with machine facts, metrics and any correctness
problem come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The full result, the
outputs of the first pass and (traced runs) the spans are written under
``.bench_build/copbands-bench/``.

``--write-golden`` (default seed only) stores the outputs of the run as the
golden outputs in ``bench/golden.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from calibrate import SpeedProbe
from metrics import REFERENCE_CAL_S, at_reference_speed, end_to_end, per_layer
from worker import DEFAULT_SEED, GOLDEN, MEASURE_PROCESSES, SEGMENT_S, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORK = ROOT / ".bench_build" / "copbands-bench"

# Set-up is timed in this many fresh interpreters; the median is reported,
# which also absorbs a first interpreter that finds the file cache cold.
SETUP_REPEATS = 3


def child(*args, timeout):
    """Run worker.py with ``args``; returns the JSON object on its last line."""
    done = subprocess.run([sys.executable, str(WORKER), *map(str, args)],
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker {args[:2]} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine_facts():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "COPBANDS_WORKERS"):
        facts[var] = os.environ.get(var)
    try:
        facts["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        facts["git_commit"] = None  # a checkout without git metadata
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "copbands").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    facts["source_sha256"] = digest.hexdigest()
    return facts


def timed_setups(name, seed, workdir, timeout):
    """Fresh set-up interpreters under the speed probe.

    Returns the set-up times at reference speed, their unscaled times, and
    the import and build times each child reports.
    """
    probe = SpeedProbe(SEGMENT_S)
    ref_s, raw_s, import_s, build_s = [], [], [], []
    for _ in range(SETUP_REPEATS):
        out = {}

        def one_setup():
            out.update(child("setup", name, seed, workdir, timeout=timeout))
            probe.add(out["windows"])

        probe.timed(one_setup)()
        segments, kernel_s = probe.segments()
        ref_s.append(at_reference_speed(segments, kernel_s))
        raw_s.append(sum(segments))
        import_s.append(out["import_s"])
        build_s.append(out["build_s"])
    return ref_s, raw_s, import_s, build_s


def measure(name, seed, workdir, seconds, trace, timeout):
    """Run the measuring processes; their untraced reports are pooled."""
    processes = 1 if trace else MEASURE_PROCESSES[name]
    raws = [child("measure", name, seed, workdir, seconds / processes, int(trace),
                  int(i == processes - 1), timeout=timeout)
            for i in range(processes)]
    if trace:
        return raws[0]
    pooled = {key: [v for raw in raws for v in raw[key]]
              for key in ("pass_s", "ref_pass_s", "segments", "problems")}
    pooled.update(
        kernel_s=statistics.median(raw["kernel_s"] for raw in raws),
        peak_rss_mb=max(raw["peak_rss_mb"] for raw in raws),
        items_per_pass=raws[0]["items_per_pass"],
        attempted=sum(raw["attempted"] for raw in raws),
        failed=sum(raw["failed"] for raw in raws),
    )
    return pooled


def run_workload(name, seed, seconds, trace, spec):
    workdir = WORK / f"{name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    timeout = seconds + 120
    setup_s, setup_raw_s, import_s, build_s = timed_setups(name, seed, workdir, timeout)
    raw = measure(name, seed, workdir, seconds, trace, timeout)

    if trace:
        metrics = per_layer(raw, statistics.median(import_s))
        details = {"traced_passes": raw["passes"], "pass_s": raw["pass_s"],
                   "estimate_shapes": raw["estimate_shapes"],
                   "spans": str(workdir / "spans.csv")}
        kind = "per_layer"
    else:
        metrics, details = end_to_end(setup_s, raw["ref_pass_s"], raw["items_per_pass"],
                                      raw["peak_rss_mb"])
        details.update(pass_s=raw["pass_s"], ref_pass_s=raw["ref_pass_s"],
                       segments=raw["segments"], raw_wall_s=statistics.median(raw["pass_s"]),
                       kernel_s=raw["kernel_s"])
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {kind}")
    details.update(setup_s=setup_s, setup_raw_s=setup_raw_s, import_s=import_s,
                   build_s=build_s)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": raw["failed"] == 0 and not raw["problems"],
        "attempted": raw["attempted"], "failed": raw["failed"],
        "error_ratio": raw["failed"] / raw["attempted"],
        "problems": raw["problems"],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "details": details,
        "outputs": str(workdir / "outputs.json"),
    }


def report(result):
    print(f"## {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"correct={result['correct']}  error_ratio={result['failed']}/{result['attempted']}")
    for name, metric in result["metrics"].items():
        print(f"   {name:36s} {metric['value']:.6g} {metric['unit']}")
    details = result["details"]
    if "tail_percentile" in details:
        print(f"   wall_s over {details['passes']} passes; wall_s_tail is "
              f"p{details['tail_percentile']:.1f} with {details['tail_samples_beyond']} beyond; "
              f"setup_s median of {details['setup_samples']}")
        print(f"   unscaled median pass {details['raw_wall_s']:.6g} s; speed probe kernel "
              f"{details['kernel_s']:.6g} s (reference {REFERENCE_CAL_S:g} s), "
              f"median {statistics.median(details['segments']):g} segments per pass; "
              f"unscaled median set-up {statistics.median(details['setup_raw_s']):.6g} s")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")


def write_golden(name, outputs_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    golden["seed"] = DEFAULT_SEED
    golden[name] = json.loads(Path(outputs_path).read_text(encoding="utf-8"))
    lines = [f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}"
             for key in sorted(golden)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "copbands" / "__init__.py").is_file():
        print(f"error: no copbands source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if args.write_golden and args.seed != DEFAULT_SEED:
        parser.error(f"--write-golden needs the default seed {DEFAULT_SEED}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    facts = machine_facts()
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, spec)
        result["facts"] = facts
        results.append(result)
        report(result)
        path = WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        if args.write_golden:
            write_golden(name, result["outputs"])

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
