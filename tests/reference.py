"""An independent oracle for the Monte Carlo engine, replicate by replicate.

It restates what README.md documents of each experiment and shares no code
with the engine's draws, ranks or sums:

* replicate r of cell (theta_i, n_j) draws from a Philox generator keyed
  as the determinism contract states (``stream_key``): u first, then w,
  and v = C_u^-1(w | u) from ``copbands.frank_conditional_sample``;
* margins are ranked by ``scipy.stats.rankdata`` (mid-ranks for ties);
* each surface is the textbook double sum of the estimator (``textbook``);
* the reductions are the experiments' own: ``covers`` counts for
  coverage, R_n·sup|Chat - Ebar| per replicate for the lil check and
  R_n·sup|Ebar - C| for the bias check, Ebar the mean of the B surfaces.

Draws may be coarsened onto a grid of 64 values in u, in v or in both, so
that replicates tie; ``coarsen`` puts the engine's draws on the same grid.
"""

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

from copbands import covers, frank_cdf, frank_conditional_sample, frank_sigma2, half_width, rn
from copbands import montecarlo


def stream_key(seed, theta_idx, n_idx, r):
    """128-bit Philox key: seed in the high 64 bits, then theta index (16), n index (16), replicate (32)."""
    return seed << 64 | theta_idx << 48 | n_idx << 32 | r


def draws(seed, theta_idx, n_idx, r, n):
    """The replicate's uniforms u and w, each of size n, in the order it draws them."""
    rng = np.random.Generator(np.random.Philox(key=stream_key(seed, theta_idx, n_idx, r)))
    u = rng.random(n)
    return u, rng.random(n)


def _grid(x):
    return np.floor(x * 64.0) / 64.0


def sample(seed, theta_idx, n_idx, rs, theta, n, coarse=""):
    """Samples (u, v) of the replicates rs of a cell, one row each.

    u and v are put on a grid of 64 values where ``coarse`` names them.
    """
    u, w = np.array([draws(seed, theta_idx, n_idx, r, n) for r in rs]).transpose(1, 0, 2)
    u = _grid(u) if "u" in coarse else u
    v = frank_conditional_sample(theta, u, w)
    return u, _grid(v) if "v" in coarse else v


def coarsen(monkeypatch, coarse):
    """Puts the engine's u draws and Frank v on the grid of ``sample`` where ``coarse`` names them."""
    if "u" in coarse:
        keyed_draws = montecarlo._keyed_draws

        def coarse_draws(*args):
            u, w = keyed_draws(*args)
            return _grid(u), w

        monkeypatch.setattr(montecarlo, "_keyed_draws", coarse_draws)
    if "v" in coarse:
        def coarse_sample(theta, u, w):
            return _grid(frank_conditional_sample(theta, u, w))

        monkeypatch.setattr(montecarlo, "frank_conditional_sample", coarse_sample)


def textbook(xs, ys, h, knots):
    """The estimator as its textbook double sum, from scipy's average ranks and ndtri.

    xs and ys hold one sample or one sample per row. The integrated
    Epanechnikov kernel is written in closed form, (2 + 3t - t^3)/4 on
    [-1, 1], and each surface averages the n terms K_x(i) K_y(i) one knot
    pair at a time.
    """
    q = ndtri(knots)

    def factors(x):
        t = np.clip((q - ndtri(rankdata(x, axis=-1) / (x.shape[-1] + 1))[..., None]) / h, -1.0, 1.0)
        return 0.25 * (2.0 + t * (3.0 - t * t))

    return np.einsum("...ni,...nj->...ij", factors(xs), factors(ys)) / xs.shape[-1]


class Cell:
    """Textbook surfaces of the first B replicates of cell (theta_i, n_j) of an ExperimentConfig."""

    def __init__(self, config, i, j, B, coarse=""):
        self.theta, self.n = config.thetas[i], config.ns[j]
        g = config.grid_resolution
        knots = np.arange(1, g + 1) / (g + 1.0)
        self.truth = frank_cdf(self.theta, knots[:, None], knots[None, :])
        self.sigma2 = frank_sigma2(self.theta, knots[:, None], knots[None, :])
        h = config.bandwidth_for(self.n)
        self.surfaces = np.concatenate([  # 128 replicates at a time bound the memory
            textbook(*sample(config.seed, i, j, range(r0, min(r0 + 128, B)), self.theta, self.n,
                             coarse), h, knots)
            for r0 in range(0, B, 128)
        ])

    def covered(self, spec, B):
        """Replicates among the first B whose band of ``spec`` covers the truth at every knot."""
        band = half_width(spec, self.n, self.sigma2)
        return int(np.count_nonzero(covers(self.surfaces[:B], band, self.truth)))

    def lil_statistics(self, B):
        """R_n·sup|Chat - Ebar| of each of the first B replicates."""
        surfaces = self.surfaces[:B]
        return rn(self.n) * np.max(np.abs(surfaces - surfaces.mean(axis=0)), axis=(1, 2))

    def bias_statistic(self, B):
        """R_n·sup|Ebar - C| over the first B replicates."""
        return rn(self.n) * np.max(np.abs(self.surfaces[:B].mean(axis=0) - self.truth))
