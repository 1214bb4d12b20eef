"""Critical exponent estimation from truncated Poincare series.

For a discrete group Gamma acting on H^{d+1} the Poincare series

    P(s, o) = sum_{gamma in Gamma} exp(-s * d(o, gamma o))

diverges for s below the critical exponent delta and converges above it.
For a Schottky group the reduced words of length n form a "shell" and the
shell sums

    a_n(s) = sum_{|gamma| = n} exp(-s * d(o, gamma o))

grow/decay geometrically with ratio crossing 1 exactly at s = delta (up to
truncation error).  The estimator used here finds, for each level n, the
root delta_n of

    log a_n(s) - log a_{n-1}(s) = 0

on the grid of midpoints that a bisection to BISECTION_TOL visits, searched
from the previous level's root cell (the ratio is strictly decreasing in s),
and reports the deepest-level root.  For elementary groups (k = 1) the
shells do not grow -- the count ratio is 1 for n >= 2 -- so there is no
positive root and the series is degenerate: delta = 0.

Summation is done in the log domain with a max shift, chunked in a fixed
order so results are bit-identical regardless of thread count.  The
log-sum-exp is computed here in numpy with the arithmetic of
``scipy.special.logsumexp`` (scipy 1.17), so delta's bits match scipy's
without importing it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import core

#: Bisection tolerance in s for the per-level roots.
BISECTION_TOL = 1e-6

#: Default truncation depth, and the shallowest that gives a stable estimate.
DEFAULT_N_MAX = 12
MIN_N_MAX = 6

#: Fixed chunk length for the log-sum-exp reduction tree.  Partial sums are
#: combined in chunk order, so the result does not depend on thread count.
_CHUNK = 1 << 16

#: Upper end of the bracket-expansion search in s.
_BRACKET_CAP = 1024.0


@dataclass(frozen=True)
class DeltaEstimate:
    """Per-level critical exponent estimates delta_n and the final value.

    The shells are the level cache's distances d(o, w o); delta does not
    depend on the basepoint, so another one's distances d(x, w x) go to
    delta_from_distances instead.

    ``delta`` is the deepest-level estimate delta_{n_max}; ``spread``, max - min
    of the last three delta_n, is no truncation error bar: below BISECTION_TOL
    it is under the bisection's resolution (on the reference it reads 0).
    ``evaluations[n - 1]`` counts the evaluations of the level-n shell ratio,
    bracket included; no output file carries it.
    """

    delta: float
    levels: np.ndarray
    per_level: np.ndarray
    spread: float
    counts: np.ndarray
    n_max: int
    evaluations: np.ndarray


def logsumexp(a: np.ndarray, scale: float = 1.0, out: np.ndarray | None = None) -> np.float64:
    """log(sum(exp(scale * a))) of a nonempty float array, with the bits of
    scipy's ``logsumexp(scale * a)``.

    ``scale * a`` goes into ``out`` (an array of a's shape, overwritten; a
    new one by default).  The ``m`` entries tied at its maximum are split out
    of the shifted sum s = sum(exp(scale * a - max)) over the rest, and the
    result is log1p(s / m) + log(m) + max.  Only when that is not finite (an
    infinite or nan maximum) is the direct log(sum(exp(scale * a))) taken
    instead, from ``a``.
    """
    shifted = np.multiply(a, scale, out=out)
    a_max = shifted.max()
    ties = shifted == a_max
    m = np.float64(np.count_nonzero(ties))
    with np.errstate(all="ignore"):
        np.copyto(shifted, -np.inf, where=ties)
        shifted -= a_max
        s = np.exp(shifted, out=shifted).sum()
        result = np.log1p(s if s == 0 else s / m) + np.log(m) + a_max
    if np.isfinite(result):
        return result
    with np.errstate(all="ignore"):
        return np.log(np.exp(scale * a).sum())


def _chunked_logsumexp(dists: np.ndarray, s: float, threads: int = 1) -> float:
    """log(sum(exp(-s * dists))) with a fixed chunked reduction order.  Each
    chunk is scaled by -s into one scratch buffer of a chunk per worker
    thread, so neither a scaled copy of a shell nor a temporary per chunk is
    made."""
    chunks = [dists[i : i + _CHUNK] for i in range(0, dists.shape[0], _CHUNK)]
    scratch = threading.local()

    def part(c):
        if not hasattr(scratch, "buf"):
            scratch.buf = np.empty(chunks[0].shape[0])
        return logsumexp(c, -s, scratch.buf[: c.shape[0]])

    partial = core.parallel_map(part, chunks, threads)
    return float(partial[0] if len(partial) == 1 else logsumexp(np.array(partial)))


def log_shell_sums(dists: list[np.ndarray], s: float, threads: int = 1) -> np.ndarray:
    """log a_n(s) for each shell of distances, in the given level order."""
    return np.array([_chunked_logsumexp(d, s, threads) for d in dists])


def shell_sums(group, s: float, n_max: int, threads: int = 1) -> np.ndarray:
    """log a_n(s), n = 0 .. n_max, the log shell sums of the truncated
    Poincare series over the level cache's distances (an a_n that overflows
    double precision stays finite here)."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    return log_shell_sums(group.orbit_distances(n_max), s, threads)


def delta_from_distances(
    dists: list[np.ndarray],
    threads: int = 1,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Per-level roots delta_n of f_n(s) = log a_n(s) - log a_{n-1}(s) = 0.

    ``dists[n]`` holds the level-n orbit distances (``dists[0]`` is the
    identity shell, ``[0.0]``).  Returns (delta_{n_max}, per-level roots,
    per-level counts of f evaluations, bracket included).

    Each level expands a bracket s = 1, 2, 4, ... to the first hi_0 with
    f(hi_0) <= 0, then takes the grid s = j h, h = hi_0 / 2^J, whose spacing
    is the first halving of hi_0 at or below BISECTION_TOL: the points a
    bisection of [0, hi_0] to BISECTION_TOL would visit, all dyadic and so
    exact.  The root is the midpoint of the cell [j h, (j + 1) h] where
    f(j h) > 0 turns false, taking it true at j = 0 and false at j = 2^J as
    the bisection does.  Level 1 bisects [0, 2^J]; every later level starts
    from the previous level's cell, steps out from it by doubling strides
    until the sign flips, and bisects inside.  The deep levels of a
    converging series end in their predecessor's cell after two evaluations.

    This is the bisection's cell, midpoint for midpoint, while the computed
    f decreases across the grid points: a grid step lowers f by about
    h (the gap between the shells' tilted mean distances), far above the
    ~1e-14 rounding of the log-sum-exp.  Raises
    :class:`core.DegenerateConfigurationError` when a shell fails to outgrow
    its predecessor (count ratio <= 1), in which case the series converges
    for every s > 0 and delta = 0.
    """
    n_max = len(dists) - 1
    per_level = np.empty(n_max)
    evaluations = np.zeros(n_max, dtype=np.int64)
    cell = None    # the previous level's root cell [cell, cell + step] in s
    for n in range(1, n_max + 1):
        d_prev, d_cur = dists[n - 1], dists[n]
        ratio0 = np.log(d_cur.shape[0] / d_prev.shape[0])
        if ratio0 <= 1e-12:
            raise core.DegenerateConfigurationError(
                f"degenerate shell growth at level {n}: "
                f"{d_cur.shape[0]} words after {d_prev.shape[0]}; the series "
                "converges for all s > 0 (elementary group, delta = 0)"
            )

        def f(s: float) -> float:
            evaluations[n - 1] += 1
            return _chunked_logsumexp(d_cur, s, threads) - _chunked_logsumexp(
                d_prev, s, threads
            )

        hi = 1.0
        f_hi = f(hi)
        while f_hi > 0.0 and hi < _BRACKET_CAP:
            hi *= 2.0
            f_hi = f(hi)
        if f_hi > 0.0:
            raise core.GeometryError(
                f"bisection bracket failure at level {n}: shell ratio still "
                f"growing at s = {hi}"
            )
        step, top = hi, 1
        while step > BISECTION_TOL:
            step *= 0.5
            top *= 2

        def positive(j: int) -> bool:
            return j <= 0 or (j < top and f(j * step) > 0.0)

        if cell is None:
            lo, hi = 0, top
        else:
            start, stride = min(int(cell / step), top - 1), 1
            if positive(start):
                lo, hi = start, start + 1
                while positive(hi):
                    lo, hi, stride = hi, min(hi + 2 * stride, top), 2 * stride
            else:
                lo, hi = start - 1, start
                while not positive(lo):
                    lo, hi, stride = max(lo - 2 * stride, 0), lo, 2 * stride
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if positive(mid):
                lo = mid
            else:
                hi = mid
        cell = lo * step
        per_level[n - 1] = 0.5 * (cell + hi * step)
    return float(per_level[-1]), per_level, evaluations


def estimate_delta(
    group,
    n_max: int = DEFAULT_N_MAX,
    threads: int = 1,
) -> DeltaEstimate:
    """Estimate the critical exponent of a Schottky group.

    delta_n is the unique s at which the level-n shell sum equals the
    level-(n-1) shell sum: the midpoint a bisection to BISECTION_TOL finds,
    searched on the bisection's grid from the previous level's cell (see
    delta_from_distances, and ``evaluations`` for its cost); the estimate
    is delta_{n_max}, and ``spread`` (see DeltaEstimate) is no truncation error.
    """
    if n_max < MIN_N_MAX:
        raise ValueError(f"n_max must be >= {MIN_N_MAX} for a stable estimate, got {n_max}")
    dists = group.orbit_distances(n_max)
    counts = np.array([d.shape[0] for d in dists])
    delta, per_level, evaluations = delta_from_distances(dists, threads)
    d = group.d
    if not 0.0 < delta < d:
        raise core.DegenerateConfigurationError(
            f"estimated delta = {delta:.6g} outside (0, {d}); the group is "
            "elementary or the truncation is unusable"
        )
    tail = per_level[-3:]
    return DeltaEstimate(
        delta=delta,
        levels=np.arange(1, n_max + 1),
        per_level=per_level,
        spread=float(tail.max() - tail.min()),
        counts=counts,
        n_max=n_max,
        evaluations=evaluations,
    )
