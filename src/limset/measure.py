"""Atomic Patterson-Sullivan measures: the orbit sum, its atom spacing and
its conformality residual.

The Patterson-Sullivan measure on the limit set is approximated by the
normalized orbit sum

    mu = (1/Z) sum_{|gamma| <= n_max} e^{-s d(o, gamma o)} delta_{proj(gamma o)},

with s = delta + epsilon slightly above the critical exponent so the full
series converges; proj is the radial projection of the orbit point to the
boundary chart.  Conformality gamma_* mu ~ e^{s b_xi(o, gamma o)} mu is a
theorem for the limiting measure and a refinement-testable property of the
truncation.

No command runs the unstable conditionals or the local-dimension
estimator; they live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import MEASURE_DEFAULT_EPSILON as DEFAULT_EPSILON
from .core import MEASURE_DEFAULT_N_MAX as DEFAULT_N_MAX


class DivergenceError(core.GeometryError):
    """Orbit-sum parameters outside the convergence range."""


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive atomic measure on R^d (a boundary or N+ chart).

    ``points`` has shape (n, d) and ``weights`` shape (n,), all weights
    strictly positive; ``mass`` is their sum.
    """

    points: np.ndarray
    weights: np.ndarray
    mass: float = field(init=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pts.shape[0] != w.shape[0]:
            raise ValueError(f"{pts.shape[0]} points vs {w.shape[0]} weights")
        if w.shape[0] == 0:
            raise ValueError("measure needs at least one atom")
        if not np.all(w > 0.0):
            raise ValueError("weights must be strictly positive")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mass", float(w.sum()))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def patterson_orbit_measure(
    group,
    delta: float,
    epsilon: float = DEFAULT_EPSILON,
    n_max: int = DEFAULT_N_MAX,
) -> AtomicMeasure:
    """Normalized orbit-sum approximation of the Patterson-Sullivan measure.

    Atoms sit at the chart projections of the orbit points w.o over reduced
    words of length <= n_max, with weights e^{-(delta+epsilon) d(o, w.o)}
    normalized to unit mass.  Raises :class:`DivergenceError` when the
    per-level masses fail to decay (exponent at or below the critical one).
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    s = delta + epsilon
    pts, dists = group.orbit_chart(n_max)
    raw = np.exp(-s * dists)
    if n_max >= 2:
        lo, mid, hi = (group.word_count(n) for n in range(n_max - 2, n_max + 1))
        last = raw[mid:hi].sum()
        prev = raw[lo:mid].sum()
        if last >= prev:
            raise DivergenceError(
                f"shell masses grow at depth {n_max} ({last:.3g} >= {prev:.3g}): "
                f"exponent {s} is not above the critical exponent"
            )
    return AtomicMeasure(points=pts, weights=raw / raw.sum())


def _weighted_quantiles(values: np.ndarray, weights: np.ndarray, qs) -> np.ndarray:
    """Weighted qs-quantiles of values, from one sort."""
    order = np.argsort(values)
    cum = np.cumsum(weights[order])
    pos = np.searchsorted(cum, np.asarray(qs) * cum[-1])
    return values[order][np.minimum(pos, values.shape[0] - 1)]


def _quantile_points(mu: AtomicMeasure, qs) -> np.ndarray:
    """Per-axis weighted qs-quantiles of the atoms, row i for qs[i], one sort an axis."""
    return np.stack([_weighted_quantiles(mu.points[:, j], mu.weights, qs)
                     for j in range(mu.d)], axis=1)


def _quantile_span(q10: np.ndarray, q90: np.ndarray) -> float:
    """Largest per-axis spread of the atoms' weighted 10% and 90% quantile points (1 if 0)."""
    span = float(np.max(q90 - q10))
    return 1.0 if span <= 0.0 else span


def nearest_neighbor_distances(points: np.ndarray) -> np.ndarray:
    """Distance from each atom to its nearest distinct-index neighbour.

    Exact and numpy-only.  In d = 1 the distances are the gaps of the sorted
    coordinates; in d >= 2 they come from ``_cell_search``, whose arithmetic
    is cKDTree's (its sum of squared differences, square root last), so the
    result equals ``cKDTree(points).query(points, k=2)[0][:, 1]`` bit for
    bit.  The points must be finite, as an AtomicMeasure's are; coincident
    atoms have distance 0.
    """
    if points.shape[0] < 2:
        raise ValueError("need at least two atoms for neighbour distances")
    if points.shape[1] == 1:
        order = np.argsort(points[:, 0])
        xs = points[order, 0]
        gaps = np.diff(xs)
        nn_sorted = np.minimum(np.concatenate([[gaps[0]], gaps]),
                               np.concatenate([gaps, [gaps[-1]]]))
        nn = np.empty_like(nn_sorted)
        nn[order] = nn_sorted
        return nn
    return _cell_search(points)


#: Queries per block, and candidate pairs per pass, of ``_cell_search``: its
#: memory beyond a few arrays of the atom count (1.3 MiB traced at 4,687 atoms).
_QUERY_BLOCK = 1 << 10
_PAIR_PASS = 1 << 14


def _morton(x: np.ndarray, bits: int) -> np.ndarray:
    """Z-order keys of the (n, d) non-negative integers x below 2**bits:
    their bits interleaved from the top, column 0 first."""
    d = x.shape[1]
    byte = np.arange(256)
    spread = sum(((byte >> b) & 1) << (b * d) for b in range(8))
    key = np.zeros(x.shape[0], dtype=np.int64)
    for j in range(d):
        for b in range(0, bits, 8):
            key |= spread[(x[:, j] >> b) & 255] << (b * d + d - 1 - j)
    return key


def _cell_search(points: np.ndarray) -> np.ndarray:
    """Exact nearest-neighbour distances in d >= 2 by a search over dyadic cells
    (the cell method of Bentley, Weide and Yao, ACM TOMS 6, 1980).

    The points are quantized to t = 52 bits per axis (an ulp of the extent
    or two) and sorted in Z-order, so every dyadic cell is one contiguous run
    of the sorted points.  The Z-order key is built in stages that each fit
    an int64: the first takes the leading 62 // k bits of every axis, and
    each later one the rank of the key so far among the occupied cells,
    followed by the next bits.

    A point's distances to its two Z-order neighbours on each side bound its
    nearest-neighbour distance by ub.  It takes the dyadic cell of side at
    least 2 (ub + 3 quanta): every point within ub then lies in that cell or
    in its neighbour on the near side along each axis, at most 2^k cells,
    each found by ``searchsorted`` on the stages' sorted keys.  The cells
    index the first k = min(d, 6) axes only, which is exact (a point within
    ub is within ub on every axis) and bounds 2^k in any d; cells lose their
    edge over a k-d tree from d = 4 on.  The candidates' squared distances
    are reduced per point, the point itself left out of its own cell.  The
    points are queried _QUERY_BLOCK at a time, and a block's candidates go
    in passes of at most _PAIR_PASS pairs that never split one point's (a
    point with more takes a pass of its own), so each distance is the
    minimum of the same squared distances whatever the two constants are.
    """
    n, d = points.shape
    k = min(d, 6)
    widths = [62 // k]
    while sum(widths) < 52:             # 52 bits: a quantum exceeds the rounding
        widths.append(min((63 - n.bit_length()) // k, 52 - sum(widths)))
    t = sum(widths)
    half = 0.5 * points[:, :k]          # halved, no difference overflows
    lo = half.min(axis=0)
    span = float((half.max(axis=0) - lo).max())
    scale = np.ldexp(1.0, min(t - int(np.frexp(span)[1]), 1000))   # a power of two: exact
    grid = np.floor((half - lo) * scale).astype(np.int64)

    order = np.arange(n)
    rank = np.zeros(n, dtype=np.int64)
    tables, firsts = [], []
    low = t
    for w in widths:
        low -= w
        key = rank << k * w | _morton((grid[order] >> low) & ((1 << w) - 1), w)
        resort = np.argsort(key)
        order, key = order[resort], key[resort]
        new = np.concatenate([[True], key[1:] != key[:-1]])
        tables.append(key[new])
        firsts.append(np.append(np.flatnonzero(new), n))
        rank = np.cumsum(new) - 1
    del half, key, resort, new, rank        # the queries need only the tables
    grid = grid[order]
    axes = [np.ascontiguousarray(points[order, j]) for j in range(d)]

    def sq_dist(i, j):
        """cKDTree's sum of squared differences: four running sums over the
        axes in blocks of four, added in order, then the remaining axes."""
        with np.errstate(over="ignore"):    # +-1e308 apart is inf, as in cKDTree
            sq = [(x[i] - x[j]) ** 2 for x in axes]
            head = d - d % 4
            return sum(sq[head:], sum(sum(sq[lane:head:4]) for lane in range(4)))

    def cell_runs(corner, side):
        """Range in the sorted points of each cell (corner, 2^side), stage by stage."""
        start = np.zeros(corner.shape[0], dtype=np.int64)
        stop = np.zeros_like(start)
        rows = np.arange(corner.shape[0])
        at = np.zeros_like(start)
        depth, top, low = t - side, 0, t
        for w, table, first in zip(widths, tables, firsts):
            top, low = top + w, low - w
            pre = at << k * w | _morton((corner[rows] >> low) & ((1 << w) - 1), w)
            at = np.searchsorted(table, pre)
            done = depth[rows] <= top
            end = np.searchsorted(table, pre[done] + (1 << k * (top - depth[rows[done]])))
            start[rows[done]], stop[rows[done]] = first[at[done]], first[end]
            deeper = ~done & (table[np.minimum(at, table.shape[0] - 1)] == pre)
            rows, at = rows[deeper], at[deeper]
        return start, stop

    out = np.full(n, np.inf)
    for step in (1, 2):
        near = sq_dist(np.arange(step, n), np.arange(n - step))
        np.minimum(out[step:], near, out=out[step:])
        np.minimum(out[:-step], near, out=out[:-step])
    reach = np.minimum(np.sqrt(out) * (1.0 + 2.0 ** -40) * (0.5 * scale) + 3.0, 2.0 ** t)
    moves = np.array(list(np.ndindex(*(2,) * k))) == 1   # axes to step along, per cell
    for a in range(0, n, _QUERY_BLOCK):
        q = np.arange(a, min(a + _QUERY_BLOCK, n))
        q = q[out[q] > 0.0]                          # 0 is already the minimum
        if q.shape[0] == 0:
            continue
        r = reach[q, None]
        side = np.minimum(np.frexp(2.0 * r)[1], t).astype(np.int64)
        cell = grid[q] >> side
        offset = grid[q] - (cell << side)
        toward = np.where(offset < r, -1, np.where((1 << side) - offset < r, 1, 0))
        toward[(cell + toward < 0) | (cell + toward >= 1 << (t - side))] = 0
        starts = np.zeros((q.shape[0], len(moves) + 1), dtype=np.int64)
        stops = np.zeros_like(starts)
        rows, cols = np.nonzero(np.all((toward[:, None, :] != 0) | ~moves, axis=2))
        corner = (cell[rows] + toward[rows] * moves[cols]) << side[rows]
        starts[rows, cols], stops[rows, cols] = cell_runs(corner, side[rows, 0])
        starts[:, -1], stops[:, -1] = q + 1, stops[:, 0]   # own cell, after q
        stops[:, 0] = q                                    # own cell, before q
        counts = stops - starts
        per_query = counts.sum(axis=1)
        total = np.cumsum(per_query)
        i = 0
        while i < q.shape[0]:
            j = max(int(np.searchsorted(total, total[i] - per_query[i] + _PAIR_PASS,
                                        side="right")), i + 1)
            c = counts[i:j].ravel()
            ends = np.cumsum(c)
            cand = np.arange(ends[-1]) - np.repeat(ends - c - starts[i:j].ravel(), c)
            own = np.repeat(q[i:j], per_query[i:j])
            seg = np.cumsum(per_query[i:j]) - per_query[i:j]
            out[q[i:j]] = np.minimum.reduceat(sq_dist(own, cand), seg)
            i = j
    nn = np.empty(n)
    nn[order] = np.sqrt(out)
    return nn


def atom_spacing(mu: AtomicMeasure) -> float:
    """Resolution scale of the discretization: the weighted median of the
    nearest-neighbour atom distances (inf for a single atom)."""
    return _nn_spacing(mu)[1]


def _nn_spacing(mu: AtomicMeasure) -> tuple[np.ndarray, float]:
    """The atoms' nearest-neighbour distances and ``atom_spacing`` from them."""
    if mu.n < 2:
        return np.full(mu.n, np.inf), np.inf
    nn = nearest_neighbor_distances(mu.points)
    eta = float(_weighted_quantiles(nn, mu.weights, (0.5,))[0])
    if eta <= 0.0:
        raise core.DegenerateConfigurationError("coincident atoms: spacing 0")
    return nn, eta


def bump_test_functions(mu: AtomicMeasure):
    """Gaussian bumps at 3 weighted-quantile centers and 5 dyadic widths.

    Deterministic in the measure; used as the test-function family for the
    conformality residual.  The returned ``bumps(p)`` yields their values at
    the points p, center by center, from one squared distance a center.
    """
    *centers, q10, q90 = _quantile_points(mu, (0.25, 0.5, 0.75, 0.1, 0.9))
    sigs = [_quantile_span(q10, q90) * 0.5 ** j for j in range(5)]

    def bumps(p):
        p = np.atleast_2d(np.asarray(p, dtype=float))
        for c in centers:
            sq = np.sum((p - c) ** 2, axis=-1)
            for sig in sigs:
                yield np.exp(-0.5 * sq / sig ** 2)

    return bumps


#: Atoms per pass of ``conformality_residual``.
_RESIDUAL_CHUNK = 1 << 14


def conformality_residual(mu: AtomicMeasure, gamma: np.ndarray, s: float) -> float:
    """Discrepancy between gamma_* mu and the conformal reweighting of mu.

    Compares int f d(gamma_* mu) with int f(xi) e^{s b_xi(o, gamma o)} dmu(xi)
    over the test family and returns the worst absolute difference.  ``s`` is
    the conformal dimension of the measure: for a truncated orbit measure
    pass its construction exponent delta + epsilon.  The atoms go
    _RESIDUAL_CHUNK at a time (the test family's centres and widths come from
    the whole measure first), and the chunks' 15 + 15 integrals are added in
    chunk order by a compensated sum, so the memory beyond the measure is set
    by the chunk.
    """
    bumps = bump_test_functions(mu)
    o = core.basepoint(mu.d)
    go = np.asarray(gamma, dtype=float) @ o

    def part(lo):
        pts, w = mu.points[lo:lo + _RESIDUAL_CHUNK], mu.weights[lo:lo + _RESIDUAL_CHUNK]
        imgs, finite = core.chart_action(gamma, pts)
        w_push = w[finite]
        w_conf = w * np.exp(s * core.busemann(core.chart_to_boundary(pts), o, go))
        return np.array([np.sum(w_push * f) for f in bumps(imgs[finite])]
                        + [np.sum(w_conf * f) for f in bumps(pts)])

    total = core.neumaier(part(lo) for lo in range(0, mu.n, _RESIDUAL_CHUNK))
    half = total.shape[0] // 2
    worst = 0.0
    for lhs, rhs in zip(total[:half], total[half:]):
        worst = max(worst, abs(float(lhs) - float(rhs)))
    return worst
