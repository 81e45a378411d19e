"""Seeded replication engine for coverage and deviation experiments.

Three experiments over Frank-copula ground truth, whose results and
determinism contract README.md states:

* ``run_coverage``: empirical simultaneous-coverage frequencies of the
  requested bands over B replicates per (theta, n) cell.
* ``run_lil_check``: distribution of the normalized maximal deviation
  R_n * sup |Chat - Ebar| per replicate, Ebar the cross-replicate mean
  surface standing in for the exact estimator expectation.
* ``run_bias_check``: the normalized bias proxy R_n * sup |Ebar - C|.

This docstring is the one account of how a run is split and drawn. Each
experiment is a fold over one cell pipeline (``_cells``): one task per
(theta, n, chunk) in that order, and one map over all tasks; only a run
that starts a process pool imports the pool's modules. A task (``_Task``)
names up to ``REPLICATE_CHUNK`` replicates r0..r1-1 of one cell by the
cell's stream key, theta and n, and carries what its chunk function
reads: the rank table of n (one per n, shared by every theta), and for
coverage the truth and the band half-widths; bias tasks carry no array. Its
replicates run in row blocks of about ``_ROW_BLOCK`` draws (8 replicates
at n = 2000, a whole chunk at n = 50) so that each layer's arrays stay in
cache. A row block makes one keyed draw (``_keyed_draws``), one Frank
sampler call and one rank pass (``copbands.estimator``'s
``_rank_pair_rows``) over (replicates, n) arrays. The keyed draw uses one
Philox generator and re-keys it per replicate: its state is reset to the
replicate's key, a zero counter and an empty buffer. A Philox stream is a
pure function of key and counter, so this draws what a newly keyed
generator draws. The estimator turns a chunk's rank rows into its stack
of surfaces, and holds every sum (see ``copbands.estimator``): coverage
workers count ``covers`` over each half of a chunk's stack, the lil check
concatenates one cell's stacks at a time, and bias workers return the
rank rows (``_rank_rows``), which the estimator's bias fold adds up.

Reports do not depend on the worker count, the chunk size or the row
block: a replicate's stream depends only on its key, every layer works
row by row, counts add exactly, the lil check reduces a cell's whole
stack, the bias fold adds replicates in order, and results are reduced in
submission order. The estimator's products add the BLAS thread count to
that list (see ``copbands.estimator``).
"""

from __future__ import annotations

import numbers
import operator
import os
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .bands import MIN_N, BandMethod, BandSpec, covers, half_width, rn
from .copula import THETA_MAX, _cdf_sigma2, frank_cdf, frank_conditional_sample
from .estimator import _GRID_RESOLUTION, _bias_mean, _rank_pair_rows, _table_stack
from .estimator import default_bandwidth, interior_grid, rank_table
from .estimator import estimate_grid  # unused; bench/worker.py:hook_estimates patches it

__all__ = [
    "WORKERS_ENV",
    "REPLICATE_CHUNK",
    "ExperimentConfig",
    "CoverageRow",
    "CoverageReport",
    "DeviationRow",
    "DeviationReport",
    "run_coverage",
    "run_lil_check",
    "run_bias_check",
]

WORKERS_ENV = "COPBANDS_WORKERS"

# Replicates per task; reports do not depend on it (see the module docstring).
REPLICATE_CHUNK = 64

# Draws per row block of a chunk (see the module docstring).
_ROW_BLOCK = 2**14


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one replication experiment.

    ``bandwidth`` is None (the default schedule 1/log n) or a fixed finite
    positive number. ``seed``, ``B`` and the numbers of thetas and ns are
    bounded by the width of their field in the per-replicate stream key,
    so that no two experiments share a random stream.
    """

    thetas: tuple
    ns: tuple
    B: int
    seed: int
    grid_resolution: int = _GRID_RESOLUTION
    bandwidth: float | None = None
    band_specs: tuple = (BandSpec(BandMethod.LIL),)

    def __post_init__(self):
        for name in ("thetas", "ns", "B", "seed", "grid_resolution", "bandwidth"):
            value = getattr(self, name)
            items = value if isinstance(value, (tuple, list)) else [value]
            if any(isinstance(v, bool) for v in items):  # a bool would pass for 0 or 1
                raise ValueError(f"{name} takes numbers, not bools: {value!r}")
        for name in ("ns", "B", "seed", "grid_resolution"):
            value = getattr(self, name)
            try:
                value = tuple(map(operator.index, value)) if name == "ns" else operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be given as integers, not {value!r}") from None
            object.__setattr__(self, name, value)
        thetas = tuple(self.thetas) if np.iterable(self.thetas) else None
        if thetas is None or not all(isinstance(t, numbers.Real) for t in thetas):
            raise ValueError(f"thetas must be real numbers, not {self.thetas!r}")
        thetas = tuple(map(float, thetas))
        if not thetas or not all(np.isfinite(thetas)):
            raise ValueError("thetas must be a nonempty list of finite reals")
        if any(abs(t) > THETA_MAX for t in thetas):
            raise ValueError(f"|theta| must be <= {THETA_MAX:g} (exp overflow in the sampler)")
        if not self.ns or any(n < MIN_N for n in self.ns):
            raise ValueError(f"all sample sizes must be >= {MIN_N}")
        for name, values in (("thetas", thetas), ("ns", self.ns)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value")
            if len(values) > 2**16:
                raise ValueError(f"at most 2**16 {name} (16-bit stream-key field)")
        if not 1 <= self.B <= 2**32:
            raise ValueError("B must be >= 1 and <= 2**32 (32-bit stream-key field)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64) (64-bit stream-key field)")
        interior_grid(self.grid_resolution)  # rejects a resolution below 2
        specs = tuple(self.band_specs)
        if not specs or not all(isinstance(s, BandSpec) for s in specs):
            raise ValueError("band_specs must be a nonempty list of BandSpec")
        for k, spec in enumerate(specs):  # report rows are keyed by method
            if spec.method in [s.method for s in specs[:k]]:
                raise ValueError(f"band_specs repeat the method '{spec.method.value}'")
        if self.bandwidth is not None:
            if not isinstance(self.bandwidth, numbers.Real) or not 0 < self.bandwidth < np.inf:
                raise ValueError("bandwidth must be None or a finite positive number")
            object.__setattr__(self, "bandwidth", float(self.bandwidth))
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "band_specs", specs)

    def bandwidth_for(self, n: int) -> float:
        if self.bandwidth is None:
            return default_bandwidth(n)
        return self.bandwidth


@dataclass(frozen=True)
class CoverageRow:
    method: str
    theta: float
    n: int
    coverage: float
    mc_stderr: float
    B: int
    seed: int


@dataclass(frozen=True)
class CoverageReport:
    """Coverage frequencies in emission order (method, then theta, then n)."""

    rows: tuple

    def cell(self, method: str, theta: float, n: int) -> CoverageRow:
        for row in self.rows:
            if row.method == method and row.theta == float(theta) and row.n == int(n):
                return row
        raise KeyError(f"no coverage cell ({method}, {theta}, {n})")


@dataclass(frozen=True)
class DeviationRow:
    """Deviation statistics for one (theta, n) cell.

    ``statistics`` holds one value per replicate for the LIL experiment
    and a single aggregated value for the bias experiment.
    """

    theta: float
    n: int
    B: int
    statistics: tuple

    @property
    def stat_max(self) -> float:
        return float(np.max(self.statistics))

    @property
    def stat_mean(self) -> float:
        return float(np.mean(self.statistics))

    @property
    def stat_p99(self) -> float:
        return float(np.percentile(self.statistics, 99.0))

    def fraction_within(self, bound: float) -> float:
        stats = np.asarray(self.statistics)
        return float(np.mean(stats <= bound))


@dataclass(frozen=True)
class DeviationReport:
    mode: str
    rows: tuple


def _stream_key(seed: int, theta_idx: int, n_idx: int, r: int) -> int:
    """128-bit Philox key: master seed (high 64) | theta | n | replicate.

    The masks alias values wider than their field onto smaller ones;
    ``ExperimentConfig`` rejects such values before any stream is keyed.
    """
    return (
        ((seed & 0xFFFFFFFFFFFFFFFF) << 64)
        | ((theta_idx & 0xFFFF) << 48)
        | ((n_idx & 0xFFFF) << 32)
        | (r & 0xFFFFFFFF)
    )


_Task = namedtuple("_Task", "cell_key theta n r0 r1 table truth half_widths")


def _keyed_draws(cell_key: int, r0: int, r1: int, n: int):
    """Draws u and w, each (r1 - r0, n), of replicates r0..r1-1 in one re-keyed Philox.

    ``cell_key`` is the cell's ``_stream_key`` at replicate 0; row k holds
    what a generator keyed by ``cell_key | (r0 + k)`` draws first and second.
    """
    rng = np.random.Generator(np.random.Philox(key=0))
    u = np.empty((r1 - r0, n))
    w = np.empty((r1 - r0, n))
    for k, r in enumerate(range(r0, r1)):
        key = cell_key | r
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [key & 0xFFFFFFFFFFFFFFFF, key >> 64]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.random(out=u[k])
        rng.random(out=w[k])
    return u, w


def _rank_rows(task: _Task) -> list:
    """The ``_rank_pair_rows`` items of the task's replicates in order, a row block at a time."""
    rows = max(1, _ROW_BLOCK // task.n)
    items = []
    for b in range(task.r0, task.r1, rows):
        u, w = _keyed_draws(task.cell_key, b, min(b + rows, task.r1), task.n)
        items.extend(_rank_pair_rows(u, frank_conditional_sample(task.theta, u, w)))
    return items


def _grid_chunk(task: _Task) -> np.ndarray:
    """(r1 - r0, G, G) stack of the estimate surfaces of the task's replicates."""
    return _table_stack(task.table, _rank_rows(task))


def _coverage_chunk(task: _Task) -> np.ndarray:
    """Covered replicates of one chunk, one count per band half-width."""
    stack = _grid_chunk(task)
    # covers takes half the stack at a time: with temporaries as large as the
    # whole stack, the free top of the C heap crossed malloc's trim threshold,
    # so chunks gave their memory back and faulted it in again
    halves = (stack[:len(stack) // 2], stack[len(stack) // 2:])
    return np.array([sum(np.count_nonzero(covers(half, hw, task.truth)) for half in halves)
                     for hw in task.half_widths])


def _rank_tables(config: ExperimentConfig) -> list:
    """The rank table of each n, in ``config.ns`` order."""
    knots = interior_grid(config.grid_resolution)
    return [rank_table(n, config.bandwidth_for(n), knots) for n in config.ns]


def _worker_count(workers) -> int:
    """``workers``, else ``WORKERS_ENV`` (default 1), checked >= 1; runs call it before any work."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        if not raw.strip().isdecimal() or int(raw) < 1:
            raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, not {raw!r}")
        workers = int(raw)
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    return workers


def _cells(config: ExperimentConfig, workers, chunk_fn, tables=None, truths=None, half_widths=None):
    """Yield ``(theta_idx, n_idx, chunk results)`` per cell in (theta, n) order.

    One ``_Task`` per (theta, n, chunk), whose ``table``, ``truth`` and
    ``half_widths`` are ``tables[n_idx]``, ``truths[theta_idx]`` and
    ``half_widths[theta_idx][n_idx]`` of the lists given, else None: bias
    tasks carry no table. ``chunk_fn`` maps over all tasks at once: lazily
    in process for one worker, else through a single process pool of at
    most one worker per task. The chunk results are an iterator over the
    cell's chunks in order; exhaust it before taking the next cell.
    """
    chunks = [(r0, min(r0 + REPLICATE_CHUNK, config.B))
              for r0 in range(0, config.B, REPLICATE_CHUNK)]
    cells = [(i, j) for i in range(len(config.thetas)) for j in range(len(config.ns))]
    tasks = [_Task(_stream_key(config.seed, i, j, 0), config.thetas[i], config.ns[j], r0, r1,
                   tables and tables[j], truths and truths[i], half_widths and half_widths[i][j])
             for i, j in cells for r0, r1 in chunks]
    workers = min(workers, len(tasks))  # a pool forks all its workers up front
    serial = workers == 1
    if not serial:
        from concurrent.futures import ProcessPoolExecutor
    with nullcontext() if serial else ProcessPoolExecutor(max_workers=workers) as pool:
        results = map(chunk_fn, tasks) if serial else pool.map(chunk_fn, tasks)
        for i, j in cells:
            yield i, j, islice(results, len(chunks))


def run_coverage(config: ExperimentConfig, workers=None) -> CoverageReport:
    """Empirical simultaneous-coverage frequencies per (method, theta, n).

    Each replicate draws a Frank sample by conditional sampling and
    estimates the copula on the shared interior grid. A band covers the
    replicate when the true surface lies within the estimate ± the band's
    half-width at every knot (``covers``). Rows are emitted in
    (method, theta, n) order with Monte Carlo standard errors
    sqrt(p(1-p)/B) attached.
    """
    workers = _worker_count(workers)
    knots = interior_grid(config.grid_resolution)
    truths, half_widths = [], []  # per theta; half-widths per n, one per band
    for theta in config.thetas:
        truth, sigma2 = _cdf_sigma2(theta, knots[:, None], knots[None, :])
        truths.append(truth)
        half_widths.append([[half_width(spec, n, sigma2) for spec in config.band_specs]
                            for n in config.ns])

    counts = np.zeros((len(config.thetas), len(config.ns), len(config.band_specs)), dtype=int)
    cells = _cells(config, workers, _coverage_chunk, _rank_tables(config), truths, half_widths)
    for i, j, chunk_counts in cells:
        counts[i, j] = np.sum(list(chunk_counts), axis=0)

    rows = []
    for k, spec in enumerate(config.band_specs):
        for i, theta in enumerate(config.thetas):
            for j, n in enumerate(config.ns):
                p = int(counts[i, j, k]) / config.B
                rows.append(CoverageRow(method=spec.method.value, theta=float(theta), n=int(n),
                                        coverage=p, B=config.B, seed=config.seed,
                                        mc_stderr=float(np.sqrt(p * (1.0 - p) / config.B))))
    return CoverageReport(tuple(rows))


def run_lil_check(config: ExperimentConfig, workers=None) -> DeviationReport:
    """Per-replicate normalized maximal deviations R_n·sup|Chat - Ebar|.

    Ebar is the cross-replicate mean surface, the Monte Carlo stand-in for
    the exact estimator expectation; B >= 100 keeps its error an order
    below the statistic.
    """
    if config.B < 100:
        raise ValueError("lil check requires B >= 100 (mean-surface proxy accuracy)")
    rows = []
    for i, j, stacks in _cells(config, _worker_count(workers), _grid_chunk, _rank_tables(config)):
        grids = np.concatenate(list(stacks), axis=0)
        n = config.ns[j]
        stats = rn(n) * np.max(np.abs(grids - grids.mean(axis=0)), axis=(1, 2))
        rows.append(DeviationRow(theta=config.thetas[i], n=n, B=config.B,
                                 statistics=tuple(float(s) for s in stats)))
    return DeviationReport(mode="lil", rows=tuple(rows))


def run_bias_check(config: ExperimentConfig, workers=None) -> DeviationReport:
    """Normalized bias proxy R_n·sup|Ebar - C| per (theta, n) cell.

    B >= 1000 so the mean surface estimates the expectation with error
    well below the bias it is measuring. Ebar comes from the estimator's
    bias fold.
    """
    if config.B < 1000:
        raise ValueError("bias check requires B >= 1000 (mean-surface proxy accuracy)")
    workers = _worker_count(workers)
    knots = interior_grid(config.grid_resolution)
    truths = [frank_cdf(theta, knots[:, None], knots[None, :]) for theta in config.thetas]
    tables, rows = _rank_tables(config), []
    for i, j, chunks in _cells(config, workers, _rank_rows):
        mean_surface = _bias_mean(tables[j], chunks, config.B)
        stat = rn(config.ns[j]) * float(np.max(np.abs(mean_surface - truths[i])))
        rows.append(DeviationRow(theta=config.thetas[i], n=config.ns[j], B=config.B,
                                 statistics=(stat,)))
    return DeviationReport(mode="bias", rows=tuple(rows))
