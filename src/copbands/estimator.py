"""Probit-transformation kernel estimator of a bivariate copula.

The estimator sees a raw sample (X_i, Y_i) only through its
pseudo-observations Uhat_i = rank(X_i)/(n+1), Vhat_i = rank(Y_i)/(n+1),
and averages products of kernel factors on the Probit scale:

    Chat(u, v) = (1/n) * sum_i K((q(u) - q(Uhat_i)) / h) * K((q(v) - q(Vhat_i)) / h)

with q the normal quantile and K the Epanechnikov kernel CDF; README.md
states what the public functions compute and guarantee. This docstring
is the one account of how every estimate is summed, the Monte Carlo
engine's included: the engine hands this module rank rows and gets
surfaces back.

Rank points. ``_argsort_rows`` is the one ranker. A value of doubled
rank m = 2, 3, ..., 2n (odd m: a tie's mid-rank) has the
pseudo-observation m / (2(n + 1)), rank point m - 2.

One quantile vector. An estimate takes the normal quantiles of the knots
and of the 2n - 1 rank points from one call (``_quantiles``), and every
factor is K((q(knot) - q(point)) / h) of that vector (``_factors``).
``_factors`` evaluates K only on the knots between its plateaus: a knot
whose t is <= -1 (>= 1) at every point of the block gets the 0.0 (1.0)
that K gives there, so the bits are those of K evaluated everywhere.
``rank_table`` holds the factors of every rank point, one row each, so a
gather of observations copies whole rows; it fills one table over blocks
of 512 ascending points, each with few knots off the plateaus.
``estimate_grid`` gathers its blocks' rows from the vector itself, so its
memory is O(n) for the vector plus O(|knots|·512) for the blocks.

x-rank order. The terms of the sum may be added in any order, and every
path adds them in x-rank order, a tie group of x in y-rank order
(``_rank_pair_rows``). The sum then depends only on the set of rank
pairs, so a surface has the same bits for every row order of its sample.
Without ties in x the x factors of the terms are the rank table's even
rows in order, read in place as ``table[0::2]``, so only the y rows are
gathered. ``_table_stack`` sums the surfaces of many samples from table
rows into one stack; ``rank_estimate`` is its one-sample case.

The bias fold. The estimator is bilinear, Chat = (1/n) sum_i
T[mx_i - 2]^T T[my_i - 2] for the rank table T, so untied replicates
sum to T[0::2]^T A, where row k of the (n, G) array A sums, in replicate
order, their y factors of x-rank k + 1 (``_bias_mean``). A replicate
with tied x adds its own undivided surface to one (G, G) sum, added to
T[0::2]^T A (+ 0.0 keeps its bits) before the one division by nB, so
memory does not grow with B. The fold lets go of each chunk of rank rows
before the next is built, so it holds one.

Blocks and tiles. ``_block_sum`` is the one sum: it walks blocks of 512
observations in order and takes each block's factor rows from its
caller, which evaluates them (``estimate_grid``), gathers them from the
rank table (``_table_stack``, tied replicates of the fold) or slices T and A.
A block's (G, G) product fx^T fy (``_product``) is built from tiles of
at most 33 knots per side, one BLAS call each, so a one-tile product (G
<= 33) is one call that writes straight into its destination. A tile
stays on one BLAS thread, while a single call on a larger grid is split
across threads from 45 knots and sums in another order, so the tiles
keep every estimate independent of the BLAS thread count at any G
(checked from 2 to 99 knots). Block 0's product is written where the sum
goes, so a one-block sum is one product, and later blocks' products,
made in one scratch array, are added to it, which gives the bits of a
sum from 0.0 because the products are >= 0. ``estimate_grid`` and
``rank_estimate`` thus evaluate the same doubles and add them in the
same order, and agree bit for bit.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .specfun import epanechnikov_cdf, normal_quantile

__all__ = [
    "PairedSample",
    "estimate_grid",
    "rank_table",
    "rank_estimate",
    "default_bandwidth",
    "interior_grid",
]

# Observations per block of the estimator sum, and knots per side of a
# product's tiles (see the module docstring).
_BLOCK = 512
_TILE = 33
_GRID_RESOLUTION = 33  # knots per axis of the default grid, in the library, the CLI and a config


@dataclass(frozen=True)
class PairedSample:
    """Raw bivariate sample (X_i, Y_i) on arbitrary real margins."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("xs and ys must be one-dimensional and of equal length")
        if xs.size < 2:
            raise ValueError("need at least 2 paired observations")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return int(self.xs.size)


def _check_knots(knots) -> np.ndarray:
    arr = np.asarray(knots, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("knots must be a nonempty one-dimensional array")
    if np.any(np.isnan(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("knots must lie in [0, 1]")
    if np.any(np.diff(arr) <= 0.0) and arr.size > 1:
        raise ValueError("knots must be strictly increasing")
    return arr


def _argsort_rows(x: np.ndarray):
    """Argsort of each row of the 2-D array x of finite values, and the rows with ties.

    Rows of n values are sorted as packed keys: each value, plus 0.0 so that
    -0.0 becomes the +0.0 it equals, has its low b = max(1, (n - 1).bit_length())
    bits overwritten with its column index, and the keys are sorted in place
    as doubles. Doubles of one sign order like their bit patterns, so values
    that differ above the low b bits keep their order, and the low bits of
    the sorted keys are the argsort. Values that agree above them, equal ones
    included, sort next to each other; a row with such neighbours is sorted
    again by ``np.argsort``, which costs less than sorting its runs apart
    when the row is heavily tied and is rare otherwise. Every row comes back
    sorted, and a row without ties in the order ``np.argsort`` gives. The
    second result lists, ascending, the rows in which two values are equal.
    """
    n = x.shape[1]
    low = np.uint64((1 << max(1, (n - 1).bit_length())) - 1)
    keys = np.add(x, 0.0, dtype=np.float64)
    bits = keys.view(np.uint64)
    bits &= ~low
    bits |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=1)
    near = (bits[:, 1:] ^ bits[:, :-1]) <= low  # neighbours agree above the low bits
    bits &= low
    order = bits.view(np.int64)
    tied = []
    for k in np.flatnonzero(near.any(axis=1)):
        order[k] = np.argsort(x[k])
        vals = x[k, order[k]]
        if np.any(vals[1:] == vals[:-1]):
            tied.append(k)
    return order, np.array(tied, dtype=np.intp)


def _tie_ranks(xs: np.ndarray) -> np.ndarray:
    """Doubled ranks of the sorted values xs, in order, each tie group given twice its mean rank."""
    # tie groups are the runs of equal sorted values
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], xs.size)
    # ranks starts+1 .. ends have the mean (starts + 1 + ends) / 2
    return np.repeat(starts + 1 + ends, ends - starts)


def _doubled_rank_rows(x: np.ndarray) -> np.ndarray:
    """Doubled ranks of each row of the 2-D array x of finite values.

    Doubled ranks are twice the ranks 1..n as integers, each tie group given
    twice its mean rank.
    """
    order, tied = _argsort_rows(x)
    m = np.empty(x.shape, dtype=np.intp)
    ranks = np.arange(2, 2 * x.shape[1] + 1, 2)
    for row, o in zip(m, order):  # cheaper than np.put_along_axis at n = 2000
        row[o] = ranks
    for k in tied:
        m[k, order[k]] = _tie_ranks(x[k, order[k]])
    return m


def _rank_pair_rows(x: np.ndarray, y: np.ndarray):
    """Yield the rank-table rows of each row of the (r, n) arrays x and y, in x-rank order.

    Row m - 2 of a :func:`rank_table` holds the factors of doubled rank m.
    A row with untied x gives ``(None, ys)``: ys[k] is the row of the y
    factors of its observation of x-rank k + 1, whose x factors are row 2k.
    A row with tied x gives the rows ``(xs, ys)`` of its pairs, sorted by
    x-rank and then by y-rank.
    """
    order, tied = _argsort_rows(x)
    ys = _doubled_rank_rows(y) - 2
    span = 2 * x.shape[1]  # exceeds every table row index
    tied = set(tied.tolist())
    for k, o in enumerate(order):
        if k in tied:
            # sort the pairs as the integers mx * span + my, in (mx, my) order
            pairs = (_tie_ranks(x[k, o]) - 2) * span + ys[k, o]
            pairs.sort()
            yield np.divmod(pairs, span)
        else:
            yield None, ys[k].take(o)


def estimate_grid(sample: PairedSample, h: float, knots) -> np.ndarray:
    """Estimate of ``sample`` on the product grid knots x knots.

    Ties get mid-ranks, which keeps the estimator total on arbitrary
    numeric data. The surface keeps its bits under strictly increasing maps
    of either margin and under any reordering of the pairs. It costs
    O(n·|knots|²) flops and O(n + |knots|·512) memory.

    Parameters
    ----------
    sample : PairedSample
        Raw observations.
    h : float
        Positive finite smoothing bandwidth on the transformed scale.
    knots : array_like
        Strictly increasing evaluation coordinates in [0, 1]. Endpoints 0
        and 1 are allowed and produce exact copula boundary values.

    Returns the (|knots|, |knots|) surface, values[i, j] = Chat(knots[i], knots[j]).
    """
    knots = _check_knots(knots)
    h = _check_bandwidth(h)
    n = sample.n
    (xs, ys), = _rank_pair_rows(sample.xs[None], sample.ys[None])
    if xs is None:
        xs = np.arange(0, 2 * n, 2)
    qk, qp = _quantiles(knots, n)

    def rows(s):  # block s's rows of the rank table of n, h and knots
        return _factors(qk, qp.take(xs[s]), h), _factors(qk, qp.take(ys[s]), h)

    return _block_sum(n, rows) / n


def _check_bandwidth(h) -> float:
    """The bandwidth h as a float; reject a bool, a non-number and one not positive and finite."""
    if isinstance(h, bool) or not isinstance(h, numbers.Real):  # a bool would pass for 1.0
        raise ValueError(f"bandwidth h must be a positive number, not {h!r}")
    if not 0.0 < h < math.inf:
        raise ValueError("bandwidth h must be positive and finite")
    return float(h)


def _quantiles(knots: np.ndarray, n: int):
    """Normal quantiles of the knots and of the 2n - 1 rank points, as two arrays.

    Rank point m - 2 is m / (2(n + 1)), for doubled rank m = 2, 3, ..., 2n.
    """
    q = normal_quantile(np.concatenate((knots, np.arange(2, 2 * n + 1) / (2.0 * (n + 1)))))
    return q[:knots.size], q[knots.size:]


def _factors(qk: np.ndarray, qp: np.ndarray, h: float, out=None) -> np.ndarray:
    """(points, knots) table of kernel factors K((qk_g - qp_i) / h) of quantiles.

    Written into ``out``, or a new array if it is None. Only the columns
    between the kernel's plateaus are evaluated: rounding is monotone, so a
    column's t is largest at qp.min() and smallest at qp.max(), and the
    leading columns whose largest t is <= -1 (trailing columns whose
    smallest t is >= 1) hold exactly the 0.0 (1.0) that the kernel gives
    there. The plateau columns are runs from either end, not a count,
    because the quantiles of close knots can fall out of order by an ulp.
    +/-inf quantiles of boundary knots land on a plateau, never a nan.
    """
    if out is None:
        out = np.empty((qp.size, qk.size))
    lo = np.logical_and.accumulate((qk - qp.min()) / h <= -1.0).sum()
    hi = qk.size - np.logical_and.accumulate((qk - qp.max())[::-1] / h >= 1.0).sum()
    out[:, :lo] = 0.0
    out[:, hi:] = 1.0
    t = qk[None, lo:hi] - qp[:, None]
    t /= h
    out[:, lo:hi] = epanechnikov_cdf(t)
    return out


def _blocks(n: int):
    """Slices of the estimator sum's blocks of _BLOCK observations, in order."""
    return (slice(b, b + _BLOCK) for b in range(0, n, _BLOCK))


def _product(fx: np.ndarray, fy: np.ndarray, out=None) -> np.ndarray:
    """fx^T fy of two (rows, G) tables, written into ``out`` (a new (G, G) array if None)."""
    g = fx.shape[1]
    if g <= _TILE:
        return np.matmul(fx.T, fy, out=out)
    if out is None:
        out = np.empty((g, g))
    for i in range(0, g, _TILE):
        for j in range(0, g, _TILE):
            np.matmul(fx[:, i:i + _TILE].T, fy[:, j:j + _TILE], out=out[i:i + _TILE, j:j + _TILE])
    return out


def _block_sum(n: int, rows, out=None) -> np.ndarray:
    """Sum of fx^T fy over the blocks of n observations, added in order: the one sum.

    ``rows(s)`` gives the (fx, fy) tables, (rows, G) each, of the block at
    slice s. Returns ``out``, or a new (G, G) array if it is None, holding
    the sum, undivided; its bits are those of a sum from 0.0.
    """
    out = _product(*rows(slice(0, _BLOCK)), out)  # block 0's product goes straight to out
    if n > _BLOCK:  # later blocks add from one scratch product
        scratch = np.empty_like(out)
        for s in islice(_blocks(n), 1, None):
            out += _product(*rows(s), scratch)
    return out


def _table_stack(table: np.ndarray, items: list) -> np.ndarray:
    """(len(items), G, G) stack of the estimate surfaces of ``_rank_pair_rows`` items.

    Slot i holds the :func:`_block_sum` of table[xs_i]^T table[ys_i], and the stack is divided by n.
    """
    # items is a list, so the stack is allocated once the draws and ranks behind
    # it are freed; allocated before them, it doubled a coverage pass's minor faults
    stack = np.empty((len(items), table.shape[1], table.shape[1]))
    even = table[0::2]  # the x factors in order when xs is None
    for surface, (xs, ys) in zip(stack, items):
        def rows(s):  # ranks are in range, so "clip" only skips the bounds check
            return (even[s] if xs is None else table.take(xs[s], axis=0, mode="clip"),
                    table.take(ys[s], axis=0, mode="clip"))

        _block_sum(len(ys), rows, surface)
    stack /= (table.shape[0] + 1) // 2
    return stack


def _bias_mean(table: np.ndarray, chunks, B: int) -> np.ndarray:
    """Mean surface of B replicates from chunks of their ``_rank_pair_rows`` items: the bias fold.

    An untied replicate adds its y rows to the (n, G) accumulator A, a
    replicate with tied x its undivided surface to one (G, G) sum.
    """
    n = (table.shape[0] + 1) // 2
    even = np.zeros((n, table.shape[1]))
    rows = np.empty_like(even)
    tied = np.zeros((table.shape[1], table.shape[1]))  # the surfaces of replicates with tied x
    # chain drops each chunk once its items are read, before the next is built;
    # ranks are in range, so "clip" only skips the bounds check
    for xs, ys in chain.from_iterable(chunks):
        if xs is None:
            even += table.take(ys, axis=0, out=rows, mode="clip")
        else:
            tied += _block_sum(n, lambda s: (table.take(xs[s], axis=0, mode="clip"),
                                             table.take(ys[s], axis=0, mode="clip")))
    return (_block_sum(n, lambda s: (table[0::2][s], even[s])) + tied) / (n * B)


def rank_table(n: int, h: float, knots) -> np.ndarray:
    """Kernel factors of every doubled rank m = 2, 3, ..., 2n (odd m: ties).

    Row m - 2 of the (2n - 1, knots) table holds the factors of the
    pseudo-observation m / (2(n + 1)). Build it once per (n, h, knots)
    and pass it to :func:`rank_estimate`. The table is filled block by
    block, so the build holds the table and one block's temporaries.
    """
    if isinstance(n, bool) or (n := operator.index(n)) < 1:  # a bool would pass for n = 1
        raise ValueError(f"n must be a count >= 1, not {n!r}")
    knots = _check_knots(knots)
    h = _check_bandwidth(h)
    qk, qp = _quantiles(knots, n)
    table = np.empty((qp.size, qk.size))
    for s in _blocks(qp.size):  # ascending points: few columns per block off the plateaus
        _factors(qk, qp[s], h, table[s])
    return table


def rank_estimate(table: np.ndarray, xs, ys) -> np.ndarray:
    """Estimator surface of the raw sample (xs, ys) from a :func:`rank_table`.

    Bit-identical to ``estimate_grid(PairedSample(xs, ys), h, knots)`` for
    the table's n, h and knots, and checked as ``PairedSample`` checks a
    sample: finite values in two one-dimensional arrays of equal length,
    here the table's n. The table must be two-dimensional, with an odd
    number 2n - 1 of rows and at least one column.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[0] % 2 == 0 or table.shape[1] < 1:
        raise ValueError(f"table must have 2n - 1 rows and G >= 1 columns, not shape {table.shape}")
    n = (table.shape[0] + 1) // 2
    sample = PairedSample(xs, ys)
    if sample.n != n:
        raise ValueError(f"xs and ys must have the table's size {n}, not {sample.n}")
    return _table_stack(table, list(_rank_pair_rows(sample.xs[None], sample.ys[None])))[0]


def default_bandwidth(n: int) -> float:
    """Default bandwidth schedule h = 1/log(n).

    The band theory asks for h inside [log n / n, n^(-1/4)]; 1/log n lands
    there from n = 5 up to roughly n = 5.5e3. At tiny n it exceeds
    n^(-1/4), and asymptotically it decays slower than n^(-1/4).
    """
    n = operator.index(n)
    if n < 3:
        raise ValueError("n must be >= 3 (log log n is undefined or nonpositive below that)")
    return 1.0 / math.log(n)


def interior_grid(resolution: int = _GRID_RESOLUTION) -> np.ndarray:
    """Uniform interior evaluation grid {i/(resolution+1) : i = 1..resolution}.

    The default 33 knots per axis avoid the exact boundary, where
    pointwise normal-approximation bands degenerate to zero width.
    """
    resolution = operator.index(resolution)
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    return np.arange(1, resolution + 1, dtype=float) / (resolution + 1.0)
