"""Quadratic-form model of H^{d+1} and its isometry group.

Everything lives in R^{d+2} with the quadratic form

    Q(x) = 2 x_0 x_{d+1} - sum_{i=1..d} x_i^2,

of signature (1, d+1), with associated symmetric bilinear form

    B(x, y) = x_0 y_{d+1} + x_{d+1} y_0 - sum_{i=1..d} x_i y_i.

Hyperbolic space is the future sheet {Q(x) = 1, x_0 + x_{d+1} > 0} with
basepoint o = (1, 0, ..., 0, 1)/sqrt(2); the boundary at infinity is the set
of future null directions.  The isometry group is realized as SO(Q), and the
distinguished subgroups are the diagonal flow g_t = diag(e^t, I_d, e^{-t}),
the horospherical groups N+ (upper unipotent) and N- = (N+)^T, and the
rotations M = SO(d) embedded as diag(1, m, 1).

The boundary chart identifies x in R^d with the null direction
iota(x) = (||x||^2/2, x, 1); n+(y) acts on the chart by translation by y,
g_t by dilation by e^t, and embedded rotations linearly.  The unique null
direction missed by the chart is [e_0], the attracting endpoint of g_t.

Metric quantities: d(x, y) = arccosh B(x, y) on the future sheet, and the
Busemann cocycle beta_xi(x, y) = log(B(x, xi) / B(y, xi)), normalized to be
positive when y is closer to xi (it is the limit of d(x, z) - d(y, z) as
z -> xi radially).
"""

from __future__ import annotations

import functools

import numpy as np

DEFAULT_TOL = 1e-9

#: Defaults and bounds of the layers' config keys, defined here so that parsing
#: a config imports no layer; each layer imports its own under its old name.
DELTA_DEFAULT_N_MAX = 12            # truncation depth of the delta estimate,
DELTA_MIN_N_MAX = 6                 # and the shallowest that gives a stable one
MEASURE_DEFAULT_EPSILON = 0.05      # exponent offset above the critical exponent
MEASURE_DEFAULT_N_MAX = 12          # orbit truncation depth of the measure
FOURIER_MIN_SHELLS = 8              # fewest shells of a decay fit
FOURIER_MAX_GRID_STEP = 0.25        # coarsest step of the grid statistics
FOURIER_MIN_EXCEPTIONAL_T = 4.0     # smallest exceptional-set radius T
NONCONC_DEFAULT_EPSILONS = (0.05, 0.1, 0.2, 0.4)    # slab widths eps of a profile
NONCONC_DEFAULT_BALL_SAMPLES = 200  # balls a profile samples


class GeometryError(ValueError):
    """Base class for model-consistency failures."""


class ModelViolationError(GeometryError):
    """An input does not satisfy the model invariants (wrong sheet, not in SO(Q), ...)."""


class DegenerateConfigurationError(GeometryError):
    """A geometric configuration is degenerate (coincident endpoints, B <= 0, ...)."""


class ChartInfinityError(GeometryError):
    """A boundary point is projectively [e_0], the point at infinity of the chart."""


# ---------------------------------------------------------------------------
# The form and the distinguished subgroups
# ---------------------------------------------------------------------------

def gram_matrix(d):
    """Gram matrix J of B: corners J[0, d+1] = J[d+1, 0] = 1, middle block -I_d.

    J is an involution (J @ J = I), so g^{-1} = J g^T J on SO(Q).
    """
    J = np.zeros((d + 2, d + 2))
    J[0, d + 1] = 1.0
    J[d + 1, 0] = 1.0
    J[1:d + 1, 1:d + 1] = -np.eye(d)
    return J


def bilinear_form(x, y):
    """B(x, y), broadcasting over leading axes of either argument."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (x[..., 0] * y[..., -1] + x[..., -1] * y[..., 0]
            - np.sum(x[..., 1:-1] * y[..., 1:-1], axis=-1))


def basepoint(d):
    """o = (1, 0, ..., 0, 1)/sqrt(2): the point on the g_t-axis with Q(o) = 1."""
    o = np.zeros(d + 2)
    o[0] = o[-1] = 1.0 / np.sqrt(2.0)
    return o


def geodesic_flow(t, d):
    """g_t = diag(e^t, I_d, e^{-t}); a stack of times gives a stack of flows."""
    t = np.asarray(t, dtype=float)
    g = _identities(t.shape, d + 2)
    g[..., 0, 0], g[..., -1, -1] = np.exp(t), np.exp(-t)
    return g


def unipotent_plus(x):
    """n+(x): first row (1, x, ||x||^2/2), middle block I_d with last column x^T.

    One-parameter abelian: n+(x) n+(y) = n+(x + y).  ``x`` is a vector or a
    stack (..., d) of them.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[-1]
    g = _identities(x.shape[:-1], d + 2)
    g[..., 0, 1:d + 1] = x
    g[..., 0, d + 1] = 0.5 * row_dot(x, x)
    g[..., 1:d + 1, d + 1] = x
    return g


def unipotent_minus(y):
    """n-(y) = n+(y)^T, the opposite horospherical subgroup."""
    return unipotent_plus(y).swapaxes(-1, -2)


def rotation_embed(m):
    """Embed m in SO(d) as diag(1, m, 1); commutes with every g_t.  ``m`` is a
    matrix or a stack (..., d, d); any block that is not orthogonal is refused."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    d = m.shape[-1]
    if m.shape[-2] != d:
        raise ModelViolationError(f"rotation block must be square, got {m.shape}")
    defect = np.abs(m.swapaxes(-1, -2) @ m - np.eye(d)).max(axis=(-1, -2))
    if not (defect <= 1e3 * DEFAULT_TOL).all():
        raise ModelViolationError("rotation block is not orthogonal within tolerance")
    g = _identities(m.shape[:-2], d + 2)
    g[..., 1:d + 1, 1:d + 1] = m
    return g


def row_dot(a, b):
    """<a, b> over the last axis of two vectors or stacks, with the bits of a
    1-D ``np.dot`` for each row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _identities(shape, n):
    """A writable stack of ``shape`` identity matrices of size n."""
    g = np.zeros((*shape, n * n))
    g[..., ::n + 1] = 1.0
    return g.reshape(*shape, n, n)


def group_inverse(g):
    """g^{-1} = J g^T J for g in SO(Q) (exact; no linear solve)."""
    g = np.asarray(g)
    d = g.shape[-1] - 2
    J = gram_matrix(d)
    return J @ np.swapaxes(g, -1, -2) @ J


# ---------------------------------------------------------------------------
# Membership checks and drift correction
# ---------------------------------------------------------------------------

def so_residual(g):
    """max-norm defect ||g^T J g - J||_max (absolute)."""
    g = np.asarray(g, dtype=float)
    d = g.shape[-1] - 2
    J = gram_matrix(d)
    return np.abs(np.swapaxes(g, -1, -2) @ J @ g - J).max(axis=(-1, -2))


def so_relative_residual(g):
    """Scale-aware defect: ||g^T J g - J||_max / (1 + ||g||_max^2).

    For matrices with huge entries the absolute defect of even an exactly
    J-orthogonal matrix floats at ~||g||^2 * eps when evaluated in double
    precision, so drift decisions must be made relative to that scale.
    """
    g = np.asarray(g, dtype=float)
    scale = 1.0 + np.abs(g).max(axis=(-1, -2)) ** 2
    return so_residual(g) / scale


def project_so(g, tol=DEFAULT_TOL):
    """Reproject drifted matrices to SO(Q) (Newton iteration for the J-polar factor).

    ``g`` is one matrix or a stack (..., n, n).  The matrices whose scale-relative
    defect exceeds tol/10 iterate together, g <- (g + J g^{-T} J)/2 (quadratic
    convergence to the J-orthogonal factor of the generalized polar
    decomposition near the group), until all are within tol/100 or for 6 steps.
    """
    g = np.array(g, dtype=float)    # a copy: the caller's matrices never change
    bad = so_relative_residual(g) > 0.1 * tol
    if np.any(bad):
        J = gram_matrix(g.shape[-1] - 2)
        fix = g[bad]
        for _ in range(6):
            fix = 0.5 * (fix + J @ np.linalg.inv(fix).transpose(0, 2, 1) @ J)
            if so_relative_residual(fix).max() <= 0.01 * tol:
                break
        g[bad] = fix
    return g


# ---------------------------------------------------------------------------
# Points, boundary, chart
# ---------------------------------------------------------------------------

def chart_to_boundary(x):
    """iota(x) = (||x||^2/2, x, 1): the null direction with chart coordinate x.

    Bijective onto null directions other than [e_0]; satisfies the
    equivariance iota(x + y) ~ n+(y) iota(x).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sq = 0.5 * np.sum(x ** 2, axis=-1, keepdims=True)
    ones = np.ones(x.shape[:-1] + (1,))
    return np.concatenate([sq, x, ones], axis=-1)


def boundary_from_chart(xi):
    """Chart coordinate of a null direction: normalize the last coordinate to 1.

    Raises ChartInfinityError for directions projectively equal to [e_0].
    """
    xi = np.asarray(xi, dtype=float)
    scale = np.abs(xi).max()
    if scale == 0.0:
        raise DegenerateConfigurationError("zero vector is not a boundary point")
    if not abs(xi[-1]) > DEFAULT_TOL * scale:
        raise ChartInfinityError("boundary point at infinity of the chart ([e_0])")
    return xi[1:-1] / xi[-1]


def chart_action(g, pts):
    """Projective action of g on chart points, vectorized.

    pts has shape (..., d); returns (images, finite) where finite marks points
    whose image stays inside the chart (last homogeneous coordinate away from
    zero at the working scale).  Non-finite rows are filled with nan.
    """
    g = np.asarray(g, dtype=float)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    z = chart_to_boundary(pts) @ g.T
    scale = np.abs(z).max(axis=-1)
    last = z[..., -1]
    finite = np.abs(last) > 1e-12 * np.maximum(scale, 1.0)
    out = np.full(pts.shape, np.nan)
    np.divide(z[..., 1:-1], last[..., None], out=out, where=finite[..., None])
    return out, finite


def normalize_boundary(xi):
    """Canonical representative: unit Euclidean norm, future-pointing.

    Null vectors are scaled to unit norm; the overall sign is fixed by making
    the first-plus-last coordinate positive (every nonzero null vector has
    x_0 + x_{d+1} != 0, and the future cone has it positive).
    """
    xi = np.asarray(xi, dtype=float)
    n = np.linalg.norm(xi, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise DegenerateConfigurationError("zero vector is not a boundary point")
    xi = xi / n
    s = np.sign(xi[..., 0] + xi[..., -1])
    return xi * np.where(s == 0.0, 1.0, s)[..., None]


# ---------------------------------------------------------------------------
# Metric quantities
# ---------------------------------------------------------------------------

def busemann(xi, x, y):
    """Busemann cocycle beta_xi(x, y) = log(B(x, xi) / B(y, xi)).

    Scale-free in the representative of xi; positive when y is closer to xi;
    satisfies the cocycle identity beta(x,y) + beta(y,z) = beta(x,z) and the
    isometry equivariance beta_{g.xi}(g.x, g.y) = beta_xi(x, y).  Broadcasts
    over leading axes.
    """
    bx = bilinear_form(x, xi)
    by = bilinear_form(y, xi)
    if not (np.all(bx > 0.0) and np.all(by > 0.0)):
        raise DegenerateConfigurationError(
            "B(point, xi) <= 0: xi not a future null direction for these points")
    return np.log(bx) - np.log(by)


# ---------------------------------------------------------------------------
# Config rules (slab widths, thread count) and the ordered parallel map
# ---------------------------------------------------------------------------

def slab_epsilons(epsilons):
    """nonconc's slab widths eps as a float array; each must lie in (0, 1/2]."""
    eps = np.asarray(epsilons, dtype=float)
    if eps.size == 0 or not np.all((eps > 0.0) & (eps <= 0.5)):
        raise ValueError("epsilon values must lie in (0, 1/2]")
    return eps


class Stream:
    """Seeded counter-based random stream, which imports nothing.

    Output i is SplitMix64's (Steele, Lea & Flood 2014) mix of
    seed + (i + 1) * 0x9E3779B97F4A7C15 mod 2^64: the i-th output of
    SplitMix64 seeded with ``seed``, computed from i alone.  The counter is
    the only state, so n values drawn at once equal the same n drawn in
    pieces.  ``random`` and ``standard_normal`` take a shape as numpy's
    Generator methods of those names do.  A seed must be at least 0; seeds
    congruent mod 2^64 give the same stream.
    """

    def __init__(self, seed=0):
        if seed < 0:
            raise ValueError(f"seed must be at least 0, got {seed}")
        self.seed = int(seed) % 2 ** 64
        self.count = 0

    def bits(self, n):
        """The next n outputs, as uint64."""
        z = np.arange(self.count + 1, self.count + n + 1, dtype=np.uint64)
        self.count += n
        z *= 0x9E3779B97F4A7C15     # uint64 arithmetic wraps mod 2^64
        z += self.seed
        z ^= z >> 30
        z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27
        z *= 0x94D049BB133111EB
        z ^= z >> 31
        return z

    def random(self, shape):
        """Uniforms in [0, 1): the top 53 bits of each output times 2^-53."""
        return ((self.bits(int(np.prod(shape))) >> 11) * 2.0 ** -53).reshape(shape)

    def standard_normal(self, shape):
        """Box-Muller normals sqrt(-2 log(1 - u)) cos(2 pi v), normal k from
        the uniforms (u, v) of outputs 2k and 2k + 1."""
        u, v = self.random((int(np.prod(shape)), 2)).T
        return (np.sqrt(-2.0 * np.log(1.0 - u)) * np.cos(2.0 * np.pi * v)).reshape(shape)

    def choice(self, weights, size):
        """``size`` indices drawn with probability proportional to ``weights``
        by inverse CDF, numpy's rule for ``Generator.choice(p=...)``; an
        atom of weight 0 is never drawn."""
        cdf = np.cumsum(weights)
        return np.searchsorted(cdf, self.random(size) * cdf[-1], side="right")


def resolve_threads(flag=None, env=None, configured=1):
    """Worker-thread count: ``flag``, else ``env``, else ``configured``.

    ``flag`` is the --threads value and ``env`` the text of the
    LIMSET_THREADS environment variable (None when unset).  A count below 1
    is refused with a ValueError naming its source, never clamped.
    """
    source, value = next((s, v) for s, v in (("--threads", flag),
                                             ("LIMSET_THREADS", env),
                                             ("[run] threads", configured))
                         if v is not None)
    try:
        count = int(value)
    except ValueError:
        raise ValueError(f"{source}: expected an integer, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{source}: thread count must be at least 1, got {count}")
    return count


def neumaier(parts) -> np.ndarray:
    """Compensated (Neumaier) sum of partial sums over atom chunks or blocks,
    in order, elementwise for array partials."""
    total = comp = 0.0
    for part in parts:
        t = total + part
        comp = comp + np.where(np.abs(total) >= np.abs(part),
                               (total - t) + part, (part - t) + total)
        total = t
    return total + comp


def parallel_map(fn, items, threads=1):
    """[fn(x) for x in items] for a list ``items``, on up to ``threads`` threads.

    Results come back in item order, so a reduction over them in that order
    gives the same bits for every thread count.  A count below 1 is refused.
    """
    if threads < 1:
        raise ValueError(f"thread count must be at least 1, got {threads}")
    if threads == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    return list(_pool(threads).map(fn, items))


@functools.cache
def _pool(threads):
    """The process's executor of ``threads`` workers, started on first use and
    kept, so repeated maps start no threads; one per count a run asks for."""
    import concurrent.futures    # here, so a single-threaded run never loads it

    return concurrent.futures.ThreadPoolExecutor(max_workers=threads)
