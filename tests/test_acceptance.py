"""Acceptance suite: end-to-end checks of the coverage experiment, the
deviation experiments, and the numeric contracts.

Each test prints one ``acceptance N (<name>): PASS|FAIL`` line so the
pytest log doubles as the acceptance report. Tolerances are frozen here;
see README.md for the experiment definitions.

Acceptance 1 and 2 require the harness's coverage counts to equal those
of an independent reproduction of the documented experiment
(``_reference_cell``), which shares with the harness only the documented
layout of the replicate stream key and the draw order (u, then w). The
fixed reference levels of an unrecorded protocol survive as one-sided
clauses: lil coverage stays at or above ``LIL_TARGET - LIL_TOL`` and
normal joint coverage below the nominal level. README.md, "Reference
coverage levels", gives the evidence.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtri

import copbands as cb
import reference
from copbands.bands import BandMethod, BandSpec
from copbands.estimator import PairedSample, interior_grid, rank_estimate, rank_table
from copbands.montecarlo import ExperimentConfig, run_bias_check, run_coverage, run_lil_check

SEED = 20260814
THETAS = (-2.0, 1.0, 10.0)
NS = (50, 100, 500)
B = 1000

# reference coverage levels of an unrecorded protocol, keyed by theta,
# columns n = 50, 100, 500; the lil levels are asserted as floors
LIL_TARGET = {-2.0: (0.95, 0.96, 0.93), 1.0: (0.96, 0.97, 0.94), 10.0: (0.98, 0.99, 0.99)}
LIL_TOL = 0.05
DOMINANCE_GAP = 0.20
SURFACE_TOL = 1e-12

# the documented experiment, restated for the reference reproduction
REF_KNOTS = np.arange(1, 34) / 34.0
REF_A = 0.5
REF_CONFIDENCE = 0.99

COVERAGE_CONFIG = ExperimentConfig(
    thetas=THETAS,
    ns=NS,
    B=B,
    seed=SEED,
    band_specs=(BandSpec(BandMethod.LIL), BandSpec(BandMethod.NORMAL)),
)


def _report(line):
    print(f"\n{line}")


# Independent reference: textbook Frank closed forms, argsort ranks,
# scipy's ndtri and a per-n kernel table indexed by rank. _reference_cell
# calls nothing in copbands; it draws each replicate through
# ``reference.draws``, keyed as the README's determinism contract states.


def _ref_frank_cdf(theta, u, v):
    return -np.log1p(np.expm1(-theta * u) * np.expm1(-theta * v) / np.expm1(-theta)) / theta


def _ref_frank_partials(theta, u, v):
    eu, ev = np.expm1(-theta * u), np.expm1(-theta * v)
    den = np.expm1(-theta) + eu * ev
    return np.exp(-theta * u) * ev / den, np.exp(-theta * v) * eu / den


def _ref_frank_sample(theta, u, w):
    # inverse in v of the conditional CDF C_u(u, v) = w
    return -np.log1p(w * np.expm1(-theta) / (w + (1.0 - w) * np.exp(-theta * u))) / theta


def _ref_sigma2(theta, u, v):
    """Variance of 1{U<=u,V<=v} - C_u 1{U<=u} - C_v 1{V<=v} as a quadratic
    form of the weights (1, -C_u, -C_v) in the indicators' covariance."""
    c = _ref_frank_cdf(theta, u, v)
    cu, cv = _ref_frank_partials(theta, u, v)
    weights = np.stack([np.ones_like(c), -cu, -cv])
    cov = np.stack([
        np.stack([c * (1 - c), c * (1 - u), c * (1 - v)]),
        np.stack([c * (1 - u), u * (1 - u), c - u * v]),
        np.stack([c * (1 - v), c - u * v, v * (1 - v)]),
    ])
    return np.einsum("i...,ij...,j...->...", weights, cov, weights)


def _draw_sample(theta, n, seed, theta_idx, n_idx, r):
    """Sample of one harness replicate: u, then w, then v = C_u^-1(w | u)."""
    u, w = reference.draws(seed, theta_idx, n_idx, r, n)
    return PairedSample(u, cb.frank_conditional_sample(theta, u, w))


def _ref_ranks(x):
    ranks = np.empty(x.size, dtype=np.intp)
    ranks[np.argsort(x)] = np.arange(x.size)
    return ranks


def _ref_kernel_cdf(t):
    t = np.clip(t, -1.0, 1.0)
    return 0.25 * (2.0 + 3.0 * t - t**3)


def _reference_cell(theta_idx, theta, n_idx, n):
    """Coverage counts and replicate-0 surfaces of one (theta, n) cell.

    Pseudo-observations rank/(n+1) take the values k/(n+1), so the kernel
    factor of each knot and rank is tabulated once; a replicate's estimate
    is then ``K[:, ru] @ K[:, rv].T / n`` for its 0-based rank vectors.
    """
    u_grid, v_grid = np.meshgrid(REF_KNOTS, REF_KNOTS, indexing="ij")
    truth = _ref_frank_cdf(theta, u_grid, v_grid)
    sigma2 = _ref_sigma2(theta, u_grid, v_grid)
    h = 1.0 / np.log(n)
    table = _ref_kernel_cdf(
        (ndtri(REF_KNOTS)[:, None] - ndtri(np.arange(1, n + 1) / (n + 1.0))[None, :]) / h
    )
    lil_half = REF_A / np.sqrt(n / (2.0 * np.log(np.log(n))))
    normal_half = ndtri(0.5 + 0.5 * REF_CONFIDENCE) * np.sqrt(sigma2 / n)
    counts = {"lil": 0, "normal": 0}
    for r in range(B):
        u, w = reference.draws(SEED, theta_idx, n_idx, r, n)
        v = _ref_frank_sample(theta, u, w)
        estimate = table[:, _ref_ranks(u)] @ table[:, _ref_ranks(v)].T / n
        if r == 0:
            first = estimate
        dev = np.abs(estimate - truth)
        counts["lil"] += bool(np.all(dev <= lil_half))
        counts["normal"] += bool(np.all(dev <= normal_half))
    return {"counts": counts, "estimate": first, "truth": truth, "sigma2": sigma2}


@pytest.fixture(scope="module")
def coverage_table():
    return run_coverage(COVERAGE_CONFIG)


@pytest.fixture(scope="module")
def reference_table():
    return {
        (theta, n): _reference_cell(i, theta, j, n)
        for i, theta in enumerate(THETAS)
        for j, n in enumerate(NS)
    }


def _count_misses(coverage_table, reference_table, method):
    misses = []
    for (theta, n), ref in reference_table.items():
        got = round(coverage_table.cell(method, theta, n).coverage * B)
        want = ref["counts"][method]
        if got != want:
            misses.append(f"theta={theta:g},n={n} harness {got} reference {want}")
    return misses


def _reference_counts(reference_table, method):
    return "; ".join(
        f"theta={theta:g}: "
        + "/".join(str(reference_table[(theta, n)]["counts"][method]) for n in NS)
        for theta in THETAS
    )


def _surface_gaps(reference_table):
    """Largest replicate-0 gap of each layer: estimate, truth, sigma2."""
    knots = interior_grid(COVERAGE_CONFIG.grid_resolution)
    gaps = {"estimate": 0.0, "truth": 0.0, "sigma2": 0.0}
    for i, theta in enumerate(THETAS):
        truth = cb.frank_cdf(theta, knots[:, None], knots[None, :])
        sigma2 = cb.frank_sigma2(theta, knots[:, None], knots[None, :])
        for j, n in enumerate(NS):
            ref = reference_table[(theta, n)]
            sample = _draw_sample(theta, n, SEED, i, j, 0)
            h = COVERAGE_CONFIG.bandwidth_for(n)
            estimate = cb.estimate_grid(sample, h, knots)
            for name, got in (("estimate", estimate), ("truth", truth), ("sigma2", sigma2)):
                gaps[name] = max(gaps[name], float(np.max(np.abs(got - ref[name]))))
    return gaps


def test_acceptance_1_lil_coverage_table(coverage_table, reference_table):
    failures = _count_misses(coverage_table, reference_table, "lil")
    for theta in THETAS:
        for j, n in enumerate(NS):
            got = coverage_table.cell("lil", theta, n).coverage
            floor = LIL_TARGET[theta][j] - LIL_TOL
            if got < floor:
                failures.append(f"theta={theta:g},n={n} coverage {got:.3f} below {floor:.2f}")
    gaps = _surface_gaps(reference_table)
    failures += [
        f"replicate-0 {name} differs by {gap:.1e}"
        for name, gap in gaps.items()
        if not gap <= SURFACE_TOL
    ]
    detail = "; ".join(failures) if failures else (
        f"harness equal in 9/9 cells, all ≥ target − {LIL_TOL}; replicate-0 surfaces "
        + ", ".join(f"{name} {gap:.1e}" for name, gap in gaps.items())
        + f" ≤ {SURFACE_TOL:g}"
    )
    _report(
        f"acceptance 1 (lil coverage table): {'FAIL' if failures else 'PASS'} — "
        f"reference counts of {B} ({_reference_counts(reference_table, 'lil')}); {detail}"
    )
    assert not failures, "; ".join(failures)


def test_acceptance_2_normal_coverage_table_and_dominance(coverage_table, reference_table):
    value_misses = _count_misses(coverage_table, reference_table, "normal")
    gap_misses = []
    for theta in THETAS:
        for n in NS:
            normal = coverage_table.cell("normal", theta, n).coverage
            lil = coverage_table.cell("lil", theta, n).coverage
            if not normal < REF_CONFIDENCE:
                value_misses.append(
                    f"theta={theta:g},n={n} joint coverage {normal:.3f} not below {REF_CONFIDENCE}"
                )
            if lil - normal < DOMINANCE_GAP:
                gap_misses.append(f"theta={theta:g},n={n} gap {lil - normal:+.3f}")
    parts = []
    if value_misses:
        parts.append("; ".join(value_misses))
    if gap_misses:
        parts.append(f"dominance gap < {DOMINANCE_GAP}: " + "; ".join(gap_misses))
    detail = " | ".join(parts) if parts else (
        f"harness equal in 9/9 cells, all below the nominal {REF_CONFIDENCE}; "
        f"lil exceeds normal by ≥ {DOMINANCE_GAP} everywhere"
    )
    _report(
        "acceptance 2 (normal coverage table and dominance): "
        f"{'FAIL' if parts else 'PASS'} — "
        f"reference counts of {B} ({_reference_counts(reference_table, 'normal')}); {detail}"
    )
    assert not parts, " | ".join(parts)


def test_acceptance_3_normalized_deviation_bound():
    config = ExperimentConfig(thetas=(1.0,), ns=(500,), B=500, seed=SEED)
    (row,) = run_lil_check(config).rows
    frac = row.fraction_within(3.0)
    ok = frac >= 0.99
    _report(
        f"acceptance 3 (normalized deviation bound): {'PASS' if ok else 'FAIL'} — "
        f"R_n·sup|est − mean| ≤ 3 in {frac:.1%} of 500 replicates "
        f"(max {row.stat_max:.3f}, p99 {row.stat_p99:.3f})"
    )
    assert ok


def test_acceptance_4_bias_decay():
    config = ExperimentConfig(thetas=(1.0,), ns=(50, 200, 800), B=2000, seed=SEED)
    rows = run_bias_check(config).rows
    stats = [row.statistics[0] for row in rows]
    ok = all(b < a for a, b in zip(stats, stats[1:]))
    _report(
        f"acceptance 4 (bias decay): {'PASS' if ok else 'FAIL'} — "
        "R_n·sup|mean − truth| at n=(50,200,800): "
        + ", ".join(f"{s:.5f}" for s in stats)
    )
    assert ok


def test_acceptance_5_small_bandwidth_limit():
    rng = np.random.default_rng(55)
    n = 100
    worst = 0.0
    for _ in range(20):
        u = rng.random(n)
        v = np.asarray(cb.frank_conditional_sample(1.0, u, rng.random(n)))
        knots = np.sort(0.02 + 0.96 * rng.random(21))
        grid = cb.estimate_grid(PairedSample(u, v), 1e-6, knots)
        pu, pv = (_ref_ranks(u) + 1) / (n + 1.0), (_ref_ranks(v) + 1) / (n + 1.0)
        emp = np.mean(
            (pu[:, None, None] <= knots[None, :, None])
            & (pv[:, None, None] <= knots[None, None, :]),
            axis=0,
        )
        worst = max(worst, float(np.max(np.abs(grid - emp))))
    ok = worst <= 1.0 / n
    _report(
        f"acceptance 5 (small-bandwidth limit): {'PASS' if ok else 'FAIL'} — "
        f"sup|estimate(h=1e-6) − empirical copula| = {worst:.2e} ≤ {1.0 / n}"
    )
    assert ok


def test_acceptance_6_sampler_fidelity():
    n = 100_000
    bound = 4.0 / np.sqrt(n)
    knots = np.arange(1, 22) / 22.0
    devs = {}
    for i, theta in enumerate(THETAS):
        rng = np.random.default_rng(600 + i)
        u = rng.random(n)
        v = np.asarray(cb.frank_conditional_sample(theta, u, rng.random(n)))
        iu = (u[:, None] <= knots[None, :]).astype(float)
        iv = (v[:, None] <= knots[None, :]).astype(float)
        emp = (iu.T @ iv) / n
        truth = cb.frank_cdf(theta, knots[:, None], knots[None, :])
        devs[theta] = float(np.max(np.abs(emp - truth)))
    ok = all(d <= bound for d in devs.values())
    detail = ", ".join(f"theta={t:g}: {d:.5f}" for t, d in devs.items())
    _report(
        f"acceptance 6 (sampler fidelity): {'PASS' if ok else 'FAIL'} — "
        f"sup|empirical − cdf| over 21×21 ({detail}) ≤ {bound:.5f}"
    )
    assert ok


def test_acceptance_7_variance_oracle():
    # The variance formula is an asymptotic statement about the estimation
    # error, so the estimator runs in the small-bandwidth regime where the
    # finite-h smoothing deflation (about -10% of the variance at the
    # default h = 1/log n, dozens of Monte Carlo standard errors) is
    # negligible next to the Monte Carlo resolution.
    theta, n, reps, h = 1.0, 2000, 10_000, 1e-3
    rng = np.random.default_rng(2026)
    pts_u = 0.05 + 0.9 * rng.random(10)
    pts_v = 0.05 + 0.9 * rng.random(10)
    knots = np.union1d(pts_u, pts_v)
    iu, iv = np.searchsorted(knots, pts_u), np.searchsorted(knots, pts_v)
    table = rank_table(n, h, knots)
    truth = cb.frank_cdf(theta, pts_u, pts_v)

    devs = np.empty((reps, 10))
    for r in range(reps):
        sample = _draw_sample(theta, n, 99, 0, 0, r)
        grid = rank_estimate(table, sample.xs, sample.ys)
        devs[r] = np.sqrt(n) * (grid[iu, iv] - truth)

    emp_var = devs.var(axis=0, ddof=1)
    predicted = cb.frank_sigma2(theta, pts_u, pts_v)
    mc_se = emp_var * np.sqrt(2.0 / (reps - 1))
    z = (emp_var - predicted) / mc_se
    ok = bool(np.all(np.abs(z) <= 3.0))
    _report(
        f"acceptance 7 (variance oracle): {'PASS' if ok else 'FAIL'} — "
        f"max |z| = {float(np.max(np.abs(z))):.2f} over 10 points "
        f"({reps} replicates at n={n}, h={h:g})"
    )
    assert ok


def test_acceptance_8_unit_precision():
    failures = []

    rng = np.random.default_rng(8)
    p = rng.random(10_000)
    quantile_err = float(np.max(np.abs(cb.normal_quantile(p) - ndtri(p))))
    if quantile_err > 1e-9:
        failures.append(f"quantile error {quantile_err:.2e}")

    exact = (
        cb.epanechnikov_cdf(0.0) == 0.5
        and cb.epanechnikov_cdf(1.0) == 1.0
        and cb.epanechnikov_cdf(-1.0) == 0.0
        and cb.epanechnikov_cdf(0.5) == 27.0 / 32.0
        and cb.epanechnikov_cdf(-0.5) == 5.0 / 32.0
    )
    if not exact:
        failures.append("kernel cdf polynomial values not exact")

    t = np.linspace(0.0, 1.0, 41)
    boundary_err = 0.0
    for theta in THETAS:
        boundary_err = max(
            boundary_err,
            float(np.max(np.abs(cb.frank_cdf(theta, t, np.zeros_like(t))))),
            float(np.max(np.abs(cb.frank_cdf(theta, np.zeros_like(t), t)))),
            float(np.max(np.abs(cb.frank_cdf(theta, t, np.ones_like(t)) - t))),
            float(np.max(np.abs(cb.frank_cdf(theta, np.ones_like(t), t) - t))),
        )
    if boundary_err > 1e-14:
        failures.append(f"cdf boundary error {boundary_err:.2e}")

    step = 1e-6
    fd_err = 0.0
    for theta in THETAS:
        u = 0.01 + 0.98 * rng.random(300)
        v = 0.01 + 0.98 * rng.random(300)
        cu, cv = cb.frank_partials(theta, u, v)
        fd_u = (cb.frank_cdf(theta, u + step, v) - cb.frank_cdf(theta, u - step, v)) / (2 * step)
        fd_v = (cb.frank_cdf(theta, u, v + step) - cb.frank_cdf(theta, u, v - step)) / (2 * step)
        fd_err = max(fd_err, float(np.max(np.abs(cu - fd_u))), float(np.max(np.abs(cv - fd_v))))
    if fd_err > 1e-6:
        failures.append(f"partials finite-difference error {fd_err:.2e}")

    ok = not failures
    _report(
        f"acceptance 8 (unit precision): {'PASS' if ok else 'FAIL'} — "
        + (
            f"quantile ≤ 1e-9 ({quantile_err:.1e}), kernel cdf exact, "
            f"cdf boundary ≤ 1e-14 ({boundary_err:.1e}), partials vs "
            f"finite differences ≤ 1e-6 ({fd_err:.1e})"
            if ok
            else "; ".join(failures)
        )
    )
    assert ok, "; ".join(failures)


def test_acceptance_9_parallel_determinism(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "thetas = -2, 10\nns = 50, 100\nB = 200\nseed = 7\nmethods = lil, normal\n",
        encoding="utf-8",
    )
    outputs = {}
    for workers in (1, 4, 16):
        out = tmp_path / f"cov_{workers}.csv"
        env = dict(os.environ, COPBANDS_WORKERS=str(workers))
        proc = subprocess.run(
            [sys.executable, "-m", "copbands", "simulate-coverage",
             "--config", str(config), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[workers] = out.read_bytes()
    ok = outputs[1] == outputs[4] == outputs[16]
    _report(
        f"acceptance 9 (parallel determinism): {'PASS' if ok else 'FAIL'} — "
        f"coverage CSV bytes identical across worker counts 1/4/16: {ok}"
    )
    assert ok
