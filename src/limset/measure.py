"""Atomic Patterson-Sullivan measures and their unstable conditionals.

The Patterson-Sullivan measure on the limit set is approximated by the
normalized orbit sum

    mu = (1/Z) sum_{|gamma| <= n_max} e^{-s d(o, gamma o)} delta_{proj(gamma o)},

with s = delta + epsilon slightly above the critical exponent so the full
series converges; proj is the radial projection of the orbit point to the
boundary chart.  Conformality gamma_* mu ~ e^{s b_xi(o, gamma o)} mu is a
theorem for the limiting measure and a refinement-testable property of the
truncation.

The unstable conditional at a frame g transports the boundary measure to
N+ chart coordinates: the atom at xi moves to the v with (n+(v) g)-forward
direction xi and is reweighted by the Busemann factor e^{delta b_xi(o, p)}
with p the basepoint of the translated frame.  In these coordinates the
translation/rotation/geodesic-flow equivariances of the conditionals are
exact atom by atom, which the property tests assert directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core

#: Default exponent offset above the critical exponent.
DEFAULT_EPSILON = 0.05

#: Default orbit truncation depth.
DEFAULT_N_MAX = 12


class DivergenceError(core.GeometryError):
    """Orbit-sum parameters outside the convergence range."""


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive atomic measure on R^d (a boundary or N+ chart).

    ``points`` has shape (n, d) and ``weights`` shape (n,), all weights
    strictly positive; ``mass`` is their sum.  ``dropped`` counts atoms
    discarded during construction (e.g. projections at infinity).
    """

    points: np.ndarray
    weights: np.ndarray
    dropped: int = 0
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
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mass", float(w.sum()))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def box_mass(self, half_width: float, center: np.ndarray | None = None) -> float:
        """Mass of the sup-norm box of the given half width."""
        pts = self.points if center is None else self.points - center
        inside = np.all(np.abs(pts) <= half_width, axis=1)
        return float(self.weights[inside].sum())


@dataclass(frozen=True)
class FramePoint:
    """A frame of the unit tangent bundle, encoded by a group element g.

    The frame sits at the point g^{-1}.o and looks toward the boundary
    direction [g^{-1} e_{d+1}]; the identity frame sits at o looking toward
    the chart origin.  Left translation by n+(v) moves the frame along its
    unstable horosphere.
    """

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"frame element must be square, got {g.shape}")
        if core.so_relative_residual(g) > 1e-6:
            raise core.ModelViolationError("frame element does not preserve the form")
        object.__setattr__(self, "g", g)

    @property
    def d(self) -> int:
        return self.g.shape[0] - 2

    @property
    def point(self) -> np.ndarray:
        return core.group_inverse(self.g) @ core.basepoint(self.d)

    @property
    def forward(self) -> np.ndarray:
        xi = core.group_inverse(self.g)[:, -1]
        return core.normalize_boundary(xi)


@dataclass(frozen=True)
class ConditionalMeasure:
    """Windowed unstable conditional in N+ chart coordinates."""

    measure: AtomicMeasure
    excluded: int
    window: float
    delta: float


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
        sizes = [group.level(n).words.shape[0] for n in range(n_max + 1)]
        hi = np.cumsum(sizes)
        last = raw[hi[-2] : hi[-1]].sum()
        prev = raw[hi[-3] : hi[-2]].sum()
        if last >= prev:
            raise DivergenceError(
                f"shell masses grow at depth {n_max} ({last:.3g} >= {prev:.3g}): "
                f"exponent {s} is not above the critical exponent"
            )
    return AtomicMeasure(points=pts, weights=raw / raw.sum(), dropped=0)


def _weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    order = np.argsort(values)
    cum = np.cumsum(weights[order])
    pos = np.searchsorted(cum, q * cum[-1])
    return float(values[order][min(pos, values.shape[0] - 1)])


def _quantile_point(mu: AtomicMeasure, q: float) -> np.ndarray:
    """Per-axis weighted q-quantiles of the atoms."""
    return np.array([_weighted_quantile(mu.points[:, j], mu.weights, q) for j in range(mu.d)])


def _quantile_span(mu: AtomicMeasure) -> float:
    """Largest per-axis weighted 10-90 spread of the atoms (1 if it is 0)."""
    span = float(np.max(_quantile_point(mu, 0.9) - _quantile_point(mu, 0.1)))
    return 1.0 if span <= 0.0 else span


def nearest_neighbor_distances(points: np.ndarray) -> np.ndarray:
    """Distance from each atom to its nearest distinct-index neighbour."""
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
    from scipy.spatial import cKDTree   # d >= 2 only: scipy stays off start-up
    return cKDTree(points).query(points, k=2)[0][:, 1]


def atom_spacing(mu: AtomicMeasure) -> float:
    """Resolution scale of the discretization: the weighted median of the
    nearest-neighbour atom distances (inf for a single atom)."""
    return _nn_spacing(mu)[1]


def _nn_spacing(mu: AtomicMeasure) -> tuple[np.ndarray, float]:
    """The atoms' nearest-neighbour distances and ``atom_spacing`` from them."""
    if mu.n < 2:
        return np.full(mu.n, np.inf), np.inf
    nn = nearest_neighbor_distances(mu.points)
    eta = _weighted_quantile(nn, mu.weights, 0.5)
    if eta <= 0.0:
        raise core.DegenerateConfigurationError("coincident atoms: spacing 0")
    return nn, eta


def bump_test_functions(mu: AtomicMeasure):
    """Gaussian bumps at 3 weighted-quantile centers and 5 dyadic widths.

    Deterministic in the measure; used as the test-function family for the
    conformality residual.
    """
    centers = [_quantile_point(mu, q) for q in (0.25, 0.5, 0.75)]
    span = _quantile_span(mu)
    funcs = []
    for c in centers:
        for j in range(5):
            sig = span * 0.5 ** j

            def f(p, c=c, sig=sig):
                p = np.atleast_2d(np.asarray(p, dtype=float))
                return np.exp(-0.5 * np.sum((p - c) ** 2, axis=-1) / sig ** 2)

            funcs.append(f)
    return funcs


def conformality_residual(mu: AtomicMeasure, gamma: np.ndarray, s: float,
                          busemann_sign: float = 1.0) -> float:
    """Discrepancy between gamma_* mu and the conformal reweighting of mu.

    Compares int f d(gamma_* mu) with int f(xi) e^{s b_xi(o, gamma o)} dmu(xi)
    over the test family and returns the worst absolute difference.  ``s`` is
    the conformal dimension of the measure: for a truncated orbit measure
    pass its construction exponent delta + epsilon.  ``busemann_sign`` is +1
    for the conformal density; passing -1 evaluates the deliberately wrong
    sign convention (a diagnostic that should inflate the residual).
    """
    imgs, finite = core.chart_action(gamma, mu.points)
    w_push = mu.weights[finite]
    p_push = imgs[finite]
    xi = core.chart_to_boundary(mu.points)
    o = core.basepoint(mu.d)
    go = np.asarray(gamma, dtype=float) @ o
    density = np.exp(busemann_sign * s * core.busemann(xi, o, go))
    worst = 0.0
    for f in bump_test_functions(mu):
        lhs = float(np.sum(w_push * f(p_push)))
        rhs = float(np.sum(mu.weights * density * f(mu.points)))
        worst = max(worst, abs(lhs - rhs))
    return worst


def unstable_conditional(
    mu_ps: AtomicMeasure,
    frame: FramePoint,
    delta: float,
    window: float = 1.0,
) -> ConditionalMeasure:
    """Unstable (N+) conditional of the boundary measure at the given frame.

    The atom at boundary point xi is carried to the chart coordinate v with
    (n+(v) g)-forward direction xi, i.e. v = -chart(g xi), and reweighted by
    e^{delta b_xi(o, p)} with p the basepoint of the frame n+(v) g.  Atoms
    mapping outside the window (or with no chart preimage) are excluded and
    counted; the result is a Radon measure and is not renormalized.
    """
    if window <= 0.0:
        raise ValueError(f"window must be positive, got {window}")
    g = frame.g
    imgs, finite = core.chart_action(g, mu_ps.points)
    v = -imgs[finite]
    inside = np.linalg.norm(v, axis=1) <= window
    v = v[inside]
    excluded = mu_ps.n - int(inside.sum())
    if v.shape[0] == 0:
        raise core.DegenerateConfigurationError(
            "no atoms inside the conditional window"
        )
    kept_pts = mu_ps.points[finite][inside]
    kept_w = mu_ps.weights[finite][inside]
    d = mu_ps.d

    # basepoint of the frame n+(v) g: g^{-1} n+(-v) o, built columnwise
    rt2 = np.sqrt(2.0)
    no = np.empty((v.shape[0], d + 2))
    no[:, 0] = (1.0 + 0.5 * np.sum(v ** 2, axis=1)) / rt2
    no[:, 1:-1] = -v / rt2
    no[:, -1] = 1.0 / rt2
    p = no @ core.group_inverse(g).T

    xi = core.chart_to_boundary(kept_pts)
    o = core.basepoint(d)
    weights = kept_w * np.exp(delta * core.busemann(xi, o, p))
    return ConditionalMeasure(
        measure=AtomicMeasure(points=v, weights=weights),
        excluded=excluded,
        window=float(window),
        delta=float(delta),
    )


def flow_equivariance_ratio(
    mu_ps: AtomicMeasure,
    frame: FramePoint,
    delta: float,
    t: float,
) -> float:
    """Mass ratio testing geodesic-flow equivariance of the conditionals.

    Returns mass(conditional at g_t.frame over the e^t-dilated box) divided
    by mass(conditional at frame over the box [-1/2, 1/2]^d); the conformal
    scaling predicts exactly e^{delta t}.
    """
    half_width = 0.5
    d = mu_ps.d
    et = np.exp(t)
    w0 = half_width * np.sqrt(d) * (1.0 + 1e-9)
    c0 = unstable_conditional(mu_ps, frame, delta, window=max(w0, 1e-6))
    flowed = FramePoint(core.geodesic_flow(t, d) @ frame.g)
    ct = unstable_conditional(mu_ps, flowed, delta, window=max(et * w0, 1e-6))
    m0 = c0.measure.box_mass(half_width)
    mt = ct.measure.box_mass(et * half_width)
    if m0 <= 0.0:
        raise core.DegenerateConfigurationError("no conditional mass in the test box")
    return mt / m0


@dataclass(frozen=True)
class LocalDimensionEstimate:
    """Weight-averaged Frostman slope of log mu(B(x, r)) against log r."""

    slope: float
    per_center: np.ndarray
    dropped: int


def default_radii(mu: AtomicMeasure) -> np.ndarray:
    """Geometric ladder of 12 radii sized to the measure's weighted 10-90 spread.

    Spans [span/800, span/16]: low enough to see several refinement scales,
    high enough that single-atom masses do not flatten the fit.
    """
    return _quantile_span(mu) * np.geomspace(1.0 / 800.0, 1.0 / 16.0, 12)


def local_dimension_estimate(
    mu: AtomicMeasure,
    radii=None,
    sample_count: int = 200,
    seed: int = 0,
) -> LocalDimensionEstimate:
    """Least-squares local dimension of mu at weight-sampled atom centers.

    For each sampled atom x the ball masses mu(B(x, r)) over the given radii
    (spanning at least 1.5 decades) are fit by a line in log-log scale; the
    estimate is the mean slope.  Radii with empty balls are dropped from the
    affected fit and counted in ``dropped``.
    """
    if radii is None:
        radii = default_radii(mu)
    radii = np.sort(np.asarray(radii, dtype=float))
    if radii[0] <= 0.0:
        raise ValueError("radii must be positive")
    if np.log10(radii[-1] / radii[0]) < 1.5:
        raise ValueError("radii must span at least 1.5 decades")
    rng = np.random.default_rng(seed)
    prob = mu.weights / mu.mass
    idx = rng.choice(mu.n, size=sample_count, replace=True, p=prob)
    centers = mu.points[idx]

    log_r = np.log(radii)
    slopes = np.empty(sample_count)
    dropped = 0
    if mu.d == 1:
        order = np.argsort(mu.points[:, 0])
        xs = mu.points[order, 0]
        cw = np.concatenate([[0.0], np.cumsum(mu.weights[order])])
        c = centers[:, 0][:, None]
        hi = np.searchsorted(xs, c + radii[None, :], side="right")
        lo = np.searchsorted(xs, c - radii[None, :], side="left")
        masses = cw[hi] - cw[lo]
        for i in range(sample_count):
            slopes[i], drops = _loglog_slope(log_r, masses[i])
            dropped += drops
    else:
        for i in range(sample_count):
            dist = np.linalg.norm(mu.points - centers[i], axis=1)
            order = np.argsort(dist)
            cw = np.cumsum(mu.weights[order])
            pos = np.searchsorted(dist[order], radii, side="right")
            masses = np.where(pos > 0, cw[np.maximum(pos - 1, 0)], 0.0)
            slopes[i], drops = _loglog_slope(log_r, masses)
            dropped += drops
    return LocalDimensionEstimate(
        slope=float(slopes.mean()), per_center=slopes, dropped=dropped
    )


def _loglog_slope(log_r: np.ndarray, masses: np.ndarray) -> tuple[float, int]:
    keep = masses > 0.0
    drops = int((~keep).sum())
    if keep.sum() < 2:
        return 0.0, drops
    x = log_r[keep]
    y = np.log(masses[keep])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope), drops
