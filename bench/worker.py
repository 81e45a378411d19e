"""Child process of the copbands benchmark.

``run.py`` starts this file in fresh interpreters:

    python3 bench/worker.py setup   WORKLOAD SEED WORKDIR
    python3 bench/worker.py measure WORKLOAD SEED WORKDIR SECONDS TRACE CROSS_CHECK

``setup`` imports copbands and builds the workload's inputs from SEED,
under the speed probe of calibrate.py.
``measure`` runs passes of the workload for about SECONDS and checks the
output of every pass. With TRACE 0 the passes are untraced and cut into
segments with a speed measurement between them (calibrate.py); with TRACE 1
traced passes alternate with untraced ones, so the tracing overhead is
measured in the same process, and the spans are written to WORKDIR when
the run ends. CROSS_CHECK 1 adds coverage's pass through the process pool
after the timed passes. Both modes print one JSON object as the last line
of standard output.

numpy and the benchmark's own numpy code are imported inside functions, so
that a set-up interpreter's ``import copbands`` time includes numpy.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from metrics import CLI_SPAN, RUN_SPAN, at_reference_speed

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
GOLDEN = BENCH / "golden.json"

WORKLOADS = ("coverage", "deviation", "cli")
DEFAULT_SEED = 0
POOL_WORKERS = 2
GRID = 33

# Untraced measuring processes per run, which share its seconds. Some of a
# process's speed lasts its whole life: on coverage, the scaled pass times
# of fresh processes differed by 5-10% now and then. More processes average
# that out; a CLI pass starts fresh interpreters anyway.
MEASURE_PROCESSES = {"coverage": 3, "deviation": 2, "cli": 1}

# Untraced passes are cut into segments of about this length, with a speed
# probe measurement between segments (calibrate.py).
SEGMENT_S = 0.1

# coverage: the paper's coverage experiment. B = 64 is one replicate chunk
# per cell, which keeps a pass short enough for a tail.
COVERAGE_THETAS = (-2.0, 1.0, 10.0)
COVERAGE_NS = (50, 500)
COVERAGE_B = 64

# deviation: B = 1000 is the program's floor for the bias check.
DEVIATION_THETA = 5.0
DEVIATION_N = 2000
LIL_B = 100
BIAS_B = 1000

# cli: one estimate and one normal-band run on generated CSVs.
CLI_THETA = 5.0
CLI_ESTIMATE_ROWS = 20_000
CLI_BANDS_ROWS = 200_000

# Module attributes wrapped in spans on traced passes: the public functions
# each entry module calls, named by the layer that defines them.
MONTECARLO_LAYERS = {
    "frank_cdf": "copula.frank_cdf",
    "frank_sigma2": "copula.frank_sigma2",
    "frank_conditional_sample": "copula.frank_conditional_sample",
    "make_pseudo_sample": "estimator.make_pseudo_sample",
    "estimate_grid": "estimator.estimate_grid",
    "lil_bands": "bands.lil_bands",
    "normal_bands": "bands.normal_bands",
    "covers": "bands.covers",
}
RUN_LAYERS = {"run_coverage": RUN_SPAN, "run_lil_check": RUN_SPAN, "run_bias_check": RUN_SPAN}
CLI_LAYERS = {
    "main": CLI_SPAN,
    "frank_sigma2": "copula.frank_sigma2",
    "make_pseudo_sample": "estimator.make_pseudo_sample",
    "estimate_grid": "estimator.estimate_grid",
    "lil_bands": "bands.lil_bands",
    "normal_bands": "bands.normal_bands",
}


class Tracer:
    """Spans kept in memory: id, parent id, pass id, name, start, end, child ns."""

    def __init__(self):
        self.spans = []
        self.shapes = Counter()  # (n, grid knots) of each estimate_grid call
        self.pass_id = 0
        self._open = []

    def wrap(self, name, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [len(spans), open_spans[-1][0] if open_spans else -1,
                    self.pass_id, name, clock(), 0, 0]
            spans.append(span)
            open_spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = clock()
                open_spans.pop()
                if open_spans:
                    open_spans[-1][6] += span[5] - span[4]

        return traced

    def patch(self, *targets):
        """Wrap functions in spans, given (module, {attribute: span name}) pairs.

        Returns the function that puts the originals back.
        """
        originals = []
        for module, layers in targets:
            for attr, name in layers.items():
                if not hasattr(module, attr):
                    continue
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                if attr == "estimate_grid":
                    fn = self._record_shape(fn)
                setattr(module, attr, self.wrap(name, fn))

        def restore():
            for module, attr, fn in originals:
                setattr(module, attr, fn)

        return restore

    def _record_shape(self, fn):
        def recorded(*args, **kwargs):
            knots = args[2] if len(args) > 2 else kwargs["u_knots"]
            self.shapes[(args[0].n, len(knots))] += 1
            return fn(*args, **kwargs)

        return recorded

    def summary(self):
        out = {}
        for _, _, _, name, start, end, child in self.spans:
            stat = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
            stat["count"] += 1
            stat["total_ns"] += end - start
            stat["self_ns"] += end - start - child
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,pass_id,name,start_ns,end_ns,self_ns\n")
            for sid, parent, pid, name, start, end, child in self.spans:
                fh.write(f"{sid},{parent},{pid},{name},{start},{end},{end - start - child}\n")


def master_seed(seed):
    """Monte Carlo master seed derived from the workload seed."""
    import numpy as np

    return int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])


def golden_section(name):
    if not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text(encoding="utf-8")).get(name)


class CoverageWorkload:
    """``run_coverage`` over lil and normal bands, in-process."""

    golden_name = "coverage"
    warm_up_pass = True
    replicates_per_pass = len(COVERAGE_THETAS) * len(COVERAGE_NS) * COVERAGE_B
    rows_per_pass = 0
    stack_bytes = 0

    rss_scope = resource.RUSAGE_SELF

    def __init__(self, cb, seed):
        self.cb = cb
        specs = (cb.BandSpec(cb.BandMethod.LIL), cb.BandSpec(cb.BandMethod.NORMAL))
        self.config = cb.ExperimentConfig(
            thetas=COVERAGE_THETAS, ns=COVERAGE_NS, B=COVERAGE_B, seed=master_seed(seed),
            grid_resolution=GRID, band_specs=specs,
        )
        self.first = None

    def _run(self, workers):
        report = self.cb.run_coverage(self.config, workers=workers)
        return [[r.method, r.theta, r.n, r.coverage, r.mc_stderr, r.B, r.seed] for r in report.rows]

    def timed_pass(self):
        return self._run(1)

    def kinds(self):
        """Traced run: traced and untraced passes at one worker, untraced at two."""
        return {"traced": lambda: self._run(1), "untraced": lambda: self._run(1),
                "pooled": lambda: self._run(POOL_WORKERS)}

    def cross_check_pass(self):
        """A pass through the process pool; the report must be identical."""
        return self._run(POOL_WORKERS)

    def patch(self, tracer):
        return tracer.patch((self.cb, RUN_LAYERS), (self.cb.montecarlo, MONTECARLO_LAYERS))

    def attach(self, probe):
        return hook_estimates(self.cb, probe)

    @staticmethod
    def counts(rows):
        return {f"{m} theta={t!r} n={n}": round(cov * b) for m, t, n, cov, _, b, _ in rows}

    def outputs(self, rows):
        return {"counts": self.counts(rows)}

    def check(self, rows, golden):
        from checks import counts_mismatch

        if self.first is None:
            self.first = rows
        problems = []
        if rows != self.first:
            problems.append("coverage report differs from the first pass of this run")
        counts = self.counts(rows)
        problems += [f"coverage count {c} outside [0, {COVERAGE_B}]"
                     for c, k in counts.items() if not 0 <= k <= COVERAGE_B]
        if golden is not None:
            problems += counts_mismatch(counts, golden["counts"])
        return problems


class DeviationWorkload:
    """``run_lil_check`` and ``run_bias_check`` at n = 2000, one worker."""

    golden_name = "deviation"
    warm_up_pass = True
    replicates_per_pass = LIL_B + BIAS_B
    rows_per_pass = 0
    stack_bytes = max(LIL_B, BIAS_B) * GRID * GRID * 8
    rss_scope = resource.RUSAGE_SELF

    def __init__(self, cb, seed):
        self.cb = cb
        common = dict(thetas=(DEVIATION_THETA,), ns=(DEVIATION_N,), seed=master_seed(seed),
                      grid_resolution=GRID)
        self.lil_config = cb.ExperimentConfig(B=LIL_B, **common)
        self.bias_config = cb.ExperimentConfig(B=BIAS_B, **common)
        self.first = None

    def timed_pass(self):
        lil = self.cb.run_lil_check(self.lil_config, workers=1)
        bias = self.cb.run_bias_check(self.bias_config, workers=1)
        return {"lil": list(lil.rows[0].statistics), "bias": bias.rows[0].statistics[0]}

    def kinds(self):
        return {"traced": self.timed_pass, "untraced": self.timed_pass}

    def patch(self, tracer):
        return tracer.patch((self.cb, RUN_LAYERS), (self.cb.montecarlo, MONTECARLO_LAYERS))

    def attach(self, probe):
        return hook_estimates(self.cb, probe)

    def outputs(self, out):
        return out

    def check(self, out, golden):
        from checks import values_mismatch

        if self.first is None:
            self.first = out
        stats = out["lil"] + [out["bias"]]
        problems = []
        if len(out["lil"]) != LIL_B:
            problems.append(f"lil check returned {len(out['lil'])} statistics, not {LIL_B}")
        elif not all(math.isfinite(s) and s > 0 for s in stats):
            problems.append("deviation statistics must be finite and positive")
        else:
            for key in ("lil", "bias"):
                problems += values_mismatch(f"{key} vs first pass", out[key], self.first[key])
                if golden is not None:
                    problems += values_mismatch(f"{key} vs golden", out[key], golden[key])
        return problems


def cli_sample(seed, rows):
    """Frank(theta = 5) pairs on exponential and tangent margins."""
    import numpy as np

    rng = np.random.default_rng([seed, rows])
    u = rng.random(rows)
    w = rng.random(rows)
    a = np.exp(-CLI_THETA * u)
    v = -np.log1p(w * np.expm1(-CLI_THETA) / (w + a * (1.0 - w))) / CLI_THETA
    return -np.log1p(-u), np.tan(3.0 * (v - 0.5))


class CliWorkload:
    """``copbands estimate`` on 20k rows and ``copbands bands`` on 200k rows."""

    golden_name = "cli"
    warm_up_pass = False
    replicates_per_pass = 0
    rows_per_pass = CLI_ESTIMATE_ROWS + CLI_BANDS_ROWS
    stack_bytes = 0
    rss_scope = resource.RUSAGE_CHILDREN

    def __init__(self, cb, seed, workdir, write_inputs=False):
        self.cb = cb
        self.workdir = Path(workdir)
        self.samples = {}
        for name, rows in (("estimate", CLI_ESTIMATE_ROWS), ("bands", CLI_BANDS_ROWS)):
            xs, ys = cli_sample(seed, rows)
            self.samples[name] = (xs, ys)
            if write_inputs:
                lines = ["x,y"] + [f"{x!r},{y!r}" for x, y in zip(xs.tolist(), ys.tolist())]
                self.csv(name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.reference = None
        self.probe = None

    def csv(self, name):
        return self.workdir / f"{name}-input.csv"

    def out(self, name):
        return self.workdir / f"{name}-output.csv"

    def argvs(self):
        return [
            ["estimate", str(self.csv("estimate")), "--out", str(self.out("estimate"))],
            ["bands", str(self.csv("bands")), "--method", "normal", "--theta", repr(CLI_THETA),
             "--out", str(self.out("bands"))],
        ]

    def attach(self, probe):
        self.probe = probe

        def detach():
            self.probe = None

        return detach

    def timed_pass(self):
        """Each command in a fresh interpreter, under cli_child.py's probe."""
        windows = self.workdir / "probe-windows.json"
        for argv in self.argvs():
            command = [sys.executable, str(BENCH / "cli_child.py"), str(windows), repr(SEGMENT_S)]
            done = subprocess.run([*command, *argv], stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                raise RuntimeError(f"copbands {argv[0]} exited {done.returncode}: {done.stderr}")
            if self.probe is not None:
                self.probe.add(json.loads(windows.read_text(encoding="utf-8")))
        return self.read_outputs()

    def in_process_pass(self):
        for argv in self.argvs():
            code = self.cb.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"copbands {argv[0]} returned {code}")
        return self.read_outputs()

    def kinds(self):
        return {"traced": self.in_process_pass, "untraced": self.in_process_pass}

    def patch(self, tracer):
        return tracer.patch((self.cb.cli, CLI_LAYERS))

    def read_outputs(self):
        import numpy as np

        est = np.loadtxt(self.out("estimate"), delimiter=",", skiprows=1)
        bands = np.loadtxt(self.out("bands"), delimiter=",", skiprows=1)
        return {"grid": [est[:, :2].tolist(), bands[:, :2].tolist()],
                "estimate": est[:, 2].tolist(), "lower": bands[:, 2].tolist(),
                "center": bands[:, 3].tolist(), "upper": bands[:, 4].tolist()}

    def outputs(self, out):
        return {key: out[key] for key in ("estimate", "lower", "center", "upper")}

    def _reference(self):
        import numpy as np
        from checks import reference_estimate, reference_normal_bands

        knots = np.arange(1, GRID + 1) / (GRID + 1.0)
        estimate = reference_estimate(*self.samples["estimate"], knots)
        center = reference_estimate(*self.samples["bands"], knots)
        lower, upper = reference_normal_bands(center, CLI_BANDS_ROWS, CLI_THETA, knots)
        grid = np.stack(np.meshgrid(knots, knots, indexing="ij"), axis=-1).reshape(-1, 2)
        return {"grid": grid, "estimate": estimate.ravel(), "center": center.ravel(),
                "lower": lower.ravel(), "upper": upper.ravel()}

    def check(self, out, golden):
        from checks import cli_mismatch, values_mismatch

        if self.reference is None:
            self.reference = self._reference()
        problems = []
        for label, grid in zip(("estimate", "bands"), out["grid"]):
            problems += values_mismatch(f"cli {label} grid", grid, self.reference["grid"], tol=0.0)
        return problems + cli_mismatch(out, self.reference, golden)


def make_workload(cb, name, seed, workdir, write_inputs=False):
    if name == "coverage":
        return CoverageWorkload(cb, seed)
    if name == "deviation":
        return DeviationWorkload(cb, seed)
    if name == "cli":
        return CliWorkload(cb, seed, workdir, write_inputs)
    raise ValueError(f"unknown workload {name!r}")


class Ledger:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self, workload, golden, golden_required):
        self.workload = workload
        self.golden = golden
        self.golden_required = golden_required
        self.attempted = 0
        self.failed = 0
        self.problems = Counter()  # message -> passes that showed it
        self.outputs = None

    def run(self, fn):
        """Run and check one pass; returns its wall time in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn()
        except Exception:  # a pass that raises is a failed operation; keep measuring
            elapsed = time.perf_counter() - start
            self.failed += 1
            self.problems[traceback.format_exc(limit=3)] += 1
            return elapsed
        elapsed = time.perf_counter() - start
        problems = self.workload.check(out, self.golden)
        if self.golden_required and self.golden is None:
            problems.append(f"no golden outputs for {self.workload.golden_name}")
        if self.outputs is None:
            self.outputs = self.workload.outputs(out)
        if problems:
            self.failed += 1
            self.problems.update(problems)
        return elapsed


def specfun_us(specfun, shapes):
    """Micro-timed cost of the quantile and kernel functions per estimate_grid call.

    Each call evaluates the quantile on both pseudo-samples and both knot
    vectors and the kernel CDF on both (knots, n) tables; shapes are the
    (n, knots, calls) seen on traced passes, weighted by their call counts.
    """
    import numpy as np

    def timed(fn, arg):
        samples = []
        stop = time.perf_counter() + 0.05
        while len(samples) < 3 or (time.perf_counter() < stop and len(samples) < 200):
            start = time.perf_counter()
            fn(arg)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    rng = np.random.default_rng(0)
    calls = sum(count for _, _, count in shapes)
    quantile = kernel = 0.0
    for n, g, count in shapes:
        pseudo = rng.permutation(np.arange(1, n + 1) / (n + 1.0))
        knots = np.arange(1, g + 1) / (g + 1.0)
        table = (specfun.normal_quantile(knots)[:, None]
                 - specfun.normal_quantile(pseudo)[None, :]) * math.log(n)
        quantile += count * 2 * (timed(specfun.normal_quantile, pseudo)
                                 + timed(specfun.normal_quantile, knots))
        kernel += count * 2 * timed(specfun.epanechnikov_cdf, table)
    if not calls:
        return 0.0, 0.0
    return quantile / calls * 1e6, kernel / calls * 1e6


def warm_up(workload):
    """One untimed, unchecked pass before timing, where the process warms up.

    The first pass of a process can run 1.5x slower than later ones: on
    deviation, large temporaries are page-faulted until glibc raises its
    mmap threshold. A CLI pass starts fresh processes each time, and set-up
    has already warmed the file cache, so cli needs none.
    """
    if workload.warm_up_pass:
        workload.timed_pass()


def hook_estimates(cb, probe):
    """Probe windows at the ``estimate_grid`` calls of the Monte Carlo
    harness; returns the function that puts the original back."""
    original = cb.montecarlo.estimate_grid
    cb.montecarlo.estimate_grid = probe.hook(original)

    def restore():
        cb.montecarlo.estimate_grid = original

    return restore


def measure_untraced(workload, ledger, seconds, cross_check):
    """Timed passes cut into segments by speed-probe windows (calibrate.py)."""
    from calibrate import SpeedProbe

    probe = SpeedProbe(SEGMENT_S)
    detach = workload.attach(probe)
    timed_pass = probe.timed(workload.timed_pass)
    pass_s, ref_pass_s, segments, kernel_s = [], [], [], []
    try:
        warm_up(workload)
        start = time.perf_counter()
        while True:
            ledger.run(timed_pass)
            pass_segments, pass_kernel_s = probe.segments()
            pass_s.append(sum(pass_segments))
            ref_pass_s.append(at_reference_speed(pass_segments, pass_kernel_s))
            segments.append(len(pass_segments))
            kernel_s += pass_kernel_s[1:]
            # stop before a pass that would end past the window
            if time.perf_counter() - start + pass_s[-1] > seconds:
                break
    finally:
        detach()
    if cross_check and hasattr(workload, "cross_check_pass"):
        ledger.run(workload.cross_check_pass)
    peak_kb = resource.getrusage(workload.rss_scope).ru_maxrss
    return {"pass_s": pass_s, "ref_pass_s": ref_pass_s, "segments": segments,
            "kernel_s": statistics.median(kernel_s), "peak_rss_mb": peak_kb / 1024.0,
            "items_per_pass": workload.replicates_per_pass or workload.rows_per_pass}


def measure_traced(workload, ledger, seconds, cb, workdir):
    tracer = Tracer()
    kinds = workload.kinds()
    times = {kind: [] for kind in kinds}
    warm_up(workload)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for kind, fn in kinds.items():
            if kind == "traced":
                tracer.pass_id = len(times[kind])
                undo = workload.patch(tracer)
                try:
                    times[kind].append(ledger.run(fn))
                finally:
                    undo()
            else:
                times[kind].append(ledger.run(fn))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    tracer.write(Path(workdir) / "spans.csv")
    shapes = [[n, g, count] for (n, g), count in sorted(tracer.shapes.items())]
    quantile_us, kernel_us = specfun_us(cb.specfun, shapes)
    untraced = statistics.median(times["untraced"])
    pooled = times.get("pooled")
    return {
        "summary": tracer.summary(),
        "passes": len(times["traced"]),
        "replicates_per_pass": workload.replicates_per_pass,
        "rows_per_pass": workload.rows_per_pass,
        "estimate_shapes": shapes,
        "pool_speedup": untraced / statistics.median(pooled) if pooled else 0.0,
        "stack_bytes": workload.stack_bytes,
        "normal_quantile_us": quantile_us,
        "epanechnikov_cdf_us": kernel_us,
        "overhead_s": statistics.median(times["traced"]) - untraced,
        "pass_s": times,
    }


def probe_time(windows, start, end):
    """Seconds of probe windows that fall between ``start`` and ``end``."""
    return sum(max(0.0, min(e, end) - max(s, start)) for s, e, _ in windows)


def setup(name, seed, workdir):
    """Import copbands and build the inputs, under the speed probe.

    Prints the probe windows, and the import and build times less the
    probe's own time in them.
    """
    start = time.perf_counter()
    import numpy  # noqa: F401  (the probe's one import, which copbands needs too)

    probe_start = time.perf_counter()
    from calibrate import probing

    with probing(SEGMENT_S, probe_start) as probe:
        import copbands
        import copbands.cli  # noqa: F401  (the cli workload's entry module)

        imported = time.perf_counter()
        make_workload(copbands, name, seed, workdir, write_inputs=True)
        built = time.perf_counter()
    windows = probe.windows
    print(json.dumps({
        "import_s": imported - start - probe_time(windows, start, imported),
        "build_s": built - imported - probe_time(windows, imported, built),
        "windows": windows,
    }))
    return 0


def main(argv):
    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), argv[3]
    sys.path.insert(0, str(SRC))
    if mode == "setup":
        return setup(name, seed, workdir)

    import copbands
    import copbands.cli  # noqa: F401  (the cli workload's entry module)

    seconds, trace, cross_check = float(argv[4]), argv[5] == "1", argv[6] == "1"
    workload = make_workload(copbands, name, seed, workdir)
    golden = golden_section(workload.golden_name) if seed == DEFAULT_SEED else None
    ledger = Ledger(workload, golden, golden_required=seed == DEFAULT_SEED)
    if trace:
        result = measure_traced(workload, ledger, seconds, copbands, workdir)
    else:
        result = measure_untraced(workload, ledger, seconds, cross_check)
    Path(workdir, "outputs.json").write_text(json.dumps(ledger.outputs), encoding="utf-8")
    problems = [f"{message} (in {count} passes)" for message, count in ledger.problems.items()]
    result.update(attempted=ledger.attempted, failed=ledger.failed, problems=problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
