"""Nonuniform Fourier transform of atomic measures and decay statistics.

Implements mu-hat(xi) = (1/mass) sum_j w_j e^{2 pi i <xi, x_j>} evaluated by
direct summation (desk scale; no NUFFT).  The phase <xi, x> is summed one
axis at a time in a fixed order (no BLAS product), the atoms are taken in
fixed chunks whose partial sums combine with Neumaier compensation, and the
frequencies go to the workers in blocks sized so that one block of complex
terms stays within a fixed byte budget per worker.  Each frequency is mapped
into the half-space where its first nonzero coordinate is positive, each
antipodal pair is evaluated once and mu-hat(-xi) = conj(mu-hat(xi)).  The
bits of every value are independent of the thread count and the block size.
On top of the transform sit the experiment statistics:

* ``decay_scan`` -- per-shell maxima of |mu-hat| over sampled directions and
  a least-squares decay exponent kappa fitted on the upper half of the
  shells (polynomial Fourier decay |mu-hat| ~ ||xi||^{-kappa});
* ``grid_statistics`` -- |mu-hat| evaluated once on a uniform grid over the
  ball ||xi|| <= R, for the Riemann estimate of the L2 average
  int_{||xi|| <= R} |mu-hat|^2, whose doubling ratio tracks R^{d - alpha}
  (L2-flattening / Frostman scaling), and the Lebesgue measure of the
  super-level sets {||xi|| <= T : |mu-hat(xi)| > T^{-delta}}, T <= R (the
  flattening exceptional set); ``l2_average``, ``exceptional_set_measure``
  and ``exceptional_sweep`` read it.

Atomic discretizations only resolve frequencies below ~1/(atom spacing);
every scan computes that cap from the weighted median nearest-neighbour
distance and refuses to report samples beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .measure import AtomicMeasure, atom_spacing

#: Values of |mu-hat| below this are double-precision cancellation noise.
NUMERICAL_FLOOR = 1e-14

#: Resolution cap: frequencies above 1/(4 eta) for atom spacing eta are
#: artifacts of the discretization.
_CAP_FACTOR = 0.25

#: Fewest shells of a decay fit; coarsest step and smallest exceptional-set
#: radius T of the grid statistics.
MIN_SHELLS = 8
MAX_GRID_STEP = 0.25
MIN_EXCEPTIONAL_T = 4.0

_ATOM_CHUNK = 1 << 16

#: Bytes of the complex block one worker fills at a time: the frequency rows
#: of a block are the most that fit min(atoms, _ATOM_CHUNK) complex terms each.
_BLOCK_BYTES = 16 << 20


def _neumaier(parts) -> np.ndarray:
    """Compensated sum of per-atom-chunk partial sums, taken in chunk order."""
    total = comp = 0.0
    for part in parts:
        t = total + part
        comp = comp + np.where(np.abs(total) >= np.abs(part),
                               (total - t) + part, (part - t) + total)
        total = t
    return total + comp


def _atom_chunks(n: int) -> list[slice]:
    return [slice(i, min(i + _ATOM_CHUNK, n)) for i in range(0, n, _ATOM_CHUNK)]


def _atom_sum(xt: np.ndarray, w: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """sum_j w_j e^{2 pi i <xi, x_j>} over the atoms ``xt`` (axis-major, d x n).

    The phase is summed one axis at a time (a BLAS product's bits depend on
    the block's row count) and the exponent is taken in place.  The block
    keeps at least two rows, so numpy multiplies it by gemv, never by dot,
    whose summation order differs: a row's bits do not depend on its block.
    """
    rows = freqs.shape[0]

    def part(sl: slice) -> np.ndarray:
        z = np.zeros((max(rows, 2), sl.stop - sl.start), dtype=complex)
        phase = z.imag[:rows]
        np.multiply(freqs[:, 0, None], xt[0, sl], out=phase)
        for a in range(1, xt.shape[0]):
            phase += freqs[:, a, None] * xt[a, sl]
        phase *= 2.0 * np.pi
        np.exp(z[:rows], out=z[:rows])
        return (z @ w[sl])[:rows]

    return _neumaier(part(sl) for sl in _atom_chunks(xt.shape[1]))


def _half_space(freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row flipped into the half-space where its first nonzero coordinate
    is positive (-0.0 made +0.0), and the mask of the flipped rows."""
    lead = freqs[np.arange(freqs.shape[0]), np.argmax(freqs != 0.0, axis=1)]
    flip = lead < 0.0
    return np.where(flip[:, None], -freqs, freqs) + 0.0, flip


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``a``, sorted, and the index of each row among them.

    Same result as np.unique(a, axis=0, return_inverse=True), which sorts the
    rows as structured records, about 20 times slower on a large grid.
    """
    order = np.lexsort(a.T[::-1])
    srt = a[order]
    first = np.ones(a.shape[0], dtype=bool)
    first[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    inverse = np.empty(a.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return srt[first], inverse


def _nudft(pts: np.ndarray, w: np.ndarray, freqs: np.ndarray, threads: int) -> np.ndarray:
    """mu-hat at each row of ``freqs``, evaluating each antipodal pair once:
    mu-hat(-xi) = conj(mu-hat(xi)) holds bit for bit."""
    canon, flip = _half_space(freqs)
    uniq, inverse = _distinct_rows(canon)
    xt = np.ascontiguousarray(pts.T)
    rows = max(1, _BLOCK_BYTES // (16 * min(pts.shape[0], _ATOM_CHUNK)))
    blocks = [uniq[i : i + rows] for i in range(0, uniq.shape[0], rows)]
    num = np.concatenate(core.parallel_map(lambda f: _atom_sum(xt, w, f), blocks, threads))
    # normalize by the total weight, chunked and compensated as the sums are
    den = _neumaier(np.ones((1, sl.stop - sl.start), dtype=complex) @ w[sl]
                    for sl in _atom_chunks(pts.shape[0])).real[0]
    vals = num / den
    vals[~uniq.any(axis=1)] = 1.0     # the division may round den/den below 1
    vals = vals[inverse]
    return np.where(flip, np.conj(vals), vals)


def fourier_transform(mu: AtomicMeasure, xi, threads: int = 1):
    """mu-hat(xi) = (1/mass) sum_j w_j e^{2 pi i <xi, x_j>}.

    ``xi`` is a single frequency vector (length d) or a batch (..., d);
    returns a complex scalar or array accordingly.  mu-hat(0) = 1 exactly
    and mu-hat(-xi) = conj(mu-hat(xi)).
    """
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim == 1
    freqs = np.atleast_2d(xi)
    if freqs.shape[-1] != mu.d:
        raise ValueError(f"frequency dim {freqs.shape[-1]} != measure dim {mu.d}")
    shape = freqs.shape[:-1]
    vals = _nudft(mu.points, mu.weights, freqs.reshape(-1, mu.d), threads)
    return complex(vals[0]) if single else vals.reshape(shape)


def resolution_cap(mu: AtomicMeasure) -> float:
    """Largest honestly resolvable frequency: 1/(4 eta) for atom spacing eta."""
    eta = atom_spacing(mu)
    return _CAP_FACTOR / eta if np.isfinite(eta) else np.inf


@dataclass(frozen=True)
class FrequencySpec:
    """Frequency sampling plan: a geometric shell ladder with directions.

    ``mode`` is "shell" (per-shell direction fans with log-spaced radial
    samples) or "ray" (nominal radii along the given directions only).
    ``grid_step`` is checked and read by nothing: the grid statistics take
    their own step (``grid_statistics(..., grid_step=)``).
    """

    mode: str = "shell"
    r0: float = 4.0
    ratio: float = 2.0
    count: int = 8
    directions: np.ndarray | None = None
    samples_per_shell: int = 16
    grid_step: float = 0.25

    def __post_init__(self):
        if self.mode not in ("shell", "ray"):
            raise ValueError(f"unknown frequency mode {self.mode!r}")
        if self.r0 <= 0.0 or self.ratio <= 1.0 or self.count < 1:
            raise ValueError("shell ladder must be strictly increasing: "
                             f"r0={self.r0}, ratio={self.ratio}, count={self.count}")
        if self.grid_step <= 0.0:
            raise ValueError(f"grid_step must be positive, got {self.grid_step}")
        if self.directions is not None:
            dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
            norms = np.linalg.norm(dirs, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise ValueError("directions must be unit vectors")
            object.__setattr__(self, "directions", dirs)

    @property
    def radii(self) -> np.ndarray:
        return self.r0 * self.ratio ** np.arange(self.count)


def default_directions(d: int, count: int = 64, seed: int = 0) -> np.ndarray:
    """Deterministic quasi-uniform directions: {+1,-1} for d=1, an equal-angle
    fan for d=2 (for an even count its second half is exactly the negated
    first half, so the transform evaluates each antipodal pair once), seeded
    normalized Gaussians for d >= 3."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        th = 2.0 * np.pi * np.arange(count) / count
        fan = np.stack([np.cos(th), np.sin(th)], axis=1)
        if count % 2 == 0:
            fan[count // 2:] = -fan[: count // 2]
        return fan
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@dataclass(frozen=True)
class DecayReport:
    """Shell maxima of |mu-hat| and the fitted polynomial decay exponent."""

    shell_radii: np.ndarray
    shell_max: np.ndarray
    sample_dir_index: np.ndarray
    sample_values: np.ndarray
    kappa: float
    fit_residual: float
    resolution_cap: float
    floored: bool
    truncated_shells: int


def _fit_kappa(radii: np.ndarray, maxima: np.ndarray) -> tuple[float, float, bool]:
    """-slope of log(shell max) on log R over the upper half of the shells."""
    if np.all(maxima < NUMERICAL_FLOOR):
        return float("nan"), float("nan"), True
    k = radii.shape[0]
    upper = slice(k - k // 2 - (k % 2), k) if k > 1 else slice(0, k)
    x = np.log(radii[upper])
    y = np.log(np.maximum(maxima[upper], NUMERICAL_FLOOR))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - slope * x - intercept) ** 2)))
    return float(-slope), resid, False


def decay_scan(mu: AtomicMeasure, spec: FrequencySpec, seed: int = 0,
               threads: int = 1) -> DecayReport:
    """Per-shell maxima of |mu-hat| and the decay exponent kappa.

    Shells beyond the measure's resolution cap are dropped (and counted);
    within each kept shell the modulus is maximized over the direction fan
    and log-spaced radial samples.  kappa = -slope of log(max) vs log(R)
    over the upper half of the kept shells (a sup-bound fit).
    """
    if spec.count < MIN_SHELLS:
        raise ValueError(f"a decay fit needs at least {MIN_SHELLS} shells, got {spec.count}")
    dirs = spec.directions
    if dirs is None:
        dirs = default_directions(mu.d, seed=seed)
    if dirs.shape[1] != mu.d:
        raise ValueError(f"direction dim {dirs.shape[1]} != measure dim {mu.d}")
    cap = resolution_cap(mu)
    radii = spec.radii
    kept = radii[radii <= cap]
    truncated = int(radii.shape[0] - kept.shape[0])
    if kept.shape[0] == 0:
        raise core.DegenerateConfigurationError(
            f"all shells lie above the resolution cap {cap:.3g}")

    if spec.mode == "ray":
        r_samples = kept[:, None]
    else:
        frac = (np.arange(spec.samples_per_shell) + 0.5) / spec.samples_per_shell
        r_samples = kept[:, None] * spec.ratio ** frac[None, :]
        r_samples = np.minimum(r_samples, cap)
    n_shell, n_rad = r_samples.shape
    n_dir = dirs.shape[0]
    # fixed sample order: shell-major, then direction, then radial position
    freqs = (r_samples[:, None, :, None] * dirs[None, :, None, :]).reshape(-1, mu.d)
    dir_index = np.broadcast_to(np.arange(n_dir)[None, :, None],
                                (n_shell, n_dir, n_rad)).reshape(-1).copy()
    vals = _nudft(mu.points, mu.weights, freqs, threads)
    mods = np.abs(vals).reshape(n_shell, n_dir * n_rad)
    shell_max = mods.max(axis=1)
    kappa, resid, floored = _fit_kappa(kept, shell_max)
    return DecayReport(
        shell_radii=kept,
        shell_max=shell_max,
        sample_dir_index=dir_index,
        sample_values=vals,
        kappa=kappa,
        fit_residual=resid,
        resolution_cap=cap,
        floored=floored,
        truncated_shells=truncated,
    )


def _grid_values_1d(pts: np.ndarray, w: np.ndarray, step: float, k_max: int,
                    threads: int) -> np.ndarray:
    """mu-hat(k*step) for k = 0..k_max by a running-phase-power recursion."""

    def chunk_values(sl: slice) -> np.ndarray:
        x = pts[sl, 0]
        z = np.exp(2j * np.pi * step * x)
        p = w[sl].astype(complex)
        out = np.empty(k_max + 1, dtype=complex)
        out[0] = p.sum()
        for k in range(1, k_max + 1):
            p *= z
            out[k] = p.sum()
        return out

    parts = core.parallel_map(chunk_values, _atom_chunks(pts.shape[0]), threads)
    total = sum(parts[1:], parts[0])    # in block order, for every thread count
    return total / total[0].real


@dataclass(frozen=True)
class L2Average:
    """Riemann estimate of int_{||xi|| <= R} |mu-hat|^2 d xi."""

    value: float
    radius: float
    grid_step: float
    coarse: bool


def _grid_ball(d: int, radius: float, step: float) -> np.ndarray:
    ax = np.arange(-np.floor(radius / step), np.floor(radius / step) + 1) * step
    grids = np.meshgrid(*([ax] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return pts[np.linalg.norm(pts, axis=1) <= radius]


def grid_statistics(mu: AtomicMeasure, radius: float, t_values=(), delta_grid=(),
                    grid_step: float = 0.25, threads: int = 1):
    """|mu-hat| evaluated once on the grid k*grid_step of the ball ||xi|| <= radius.

    In d = 1 only the half line k >= 0 is evaluated, each k > 0 standing for
    the cells +-k*grid_step.  Returns ``(l2, fractions, lebesgues)``: the
    L2Average over the ball, and the exceptional sets at level T^{-delta} over
    (delta_grid x t_values), each counted on the cells of the radius-T grid.
    """
    if not 0.0 < grid_step <= MAX_GRID_STEP:
        raise ValueError(f"grid_step must lie in (0, {MAX_GRID_STEP}], got {grid_step}")
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    for t in t_values:
        if not MIN_EXCEPTIONAL_T <= t <= radius:
            raise ValueError(f"T must lie in [{MIN_EXCEPTIONAL_T:g}, {radius}], got {t}")
    for dexp in delta_grid:
        if not 0.0 < dexp < 1.0:
            raise ValueError(f"delta_exp must be in (0, 1), got {dexp}")
    d = mu.d
    if d == 1:
        k_max = int(np.floor(radius / grid_step))
        freqs = np.arange(k_max + 1)[:, None] * grid_step
        mods = np.abs(_grid_values_1d(mu.points, mu.weights, grid_step, k_max, threads))
    else:
        freqs = _grid_ball(d, radius, grid_step)
        mods = np.abs(_nudft(mu.points, mu.weights, freqs, threads))
    cells = np.where((d == 1) & (freqs[:, 0] > 0), 2, 1)   # on the half line, +-xi
    m2 = mods ** 2
    total = grid_step ** d * (np.sum(m2[cells == 1]) + 2.0 * np.sum(m2[cells == 2]))
    span = float((mu.points.max(axis=0) - mu.points.min(axis=0)).max())
    l2 = L2Average(value=float(total), radius=float(radius),
                   grid_step=float(grid_step), coarse=grid_step * span > 1.0)
    # unit-ball volume; 2, not pi^(1/2)/Gamma(3/2), which is one ulp short of it
    unit_ball = 2.0 if d == 1 else np.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    fractions = np.empty((len(delta_grid), len(t_values)))
    lebesgues = np.empty_like(fractions)
    for j, t in enumerate(t_values):
        # the radius-T grid: |k| <= floor(T/step) per axis, and for d >= 2 the ball
        inside = np.abs(freqs).max(axis=1) <= np.floor(t / grid_step) * grid_step
        if d > 1:
            inside &= np.linalg.norm(freqs, axis=1) <= t
        for i, dexp in enumerate(delta_grid):
            count = int(np.sum(cells[inside & (mods > t ** (-dexp))]))
            lebesgues[i, j] = count * grid_step ** d
            fractions[i, j] = lebesgues[i, j] / (unit_ball * t ** d)
    return l2, fractions, lebesgues


def l2_average(mu: AtomicMeasure, radius: float, grid_step: float = 0.25,
               threads: int = 1) -> L2Average:
    """Grid Riemann sum of |mu-hat(xi)|^2 over the ball ||xi|| <= radius.

    The doubling ratio value(2R)/value(R) tracks R^{d-alpha} for a measure
    of local dimension alpha.  ``coarse`` flags grids whose step exceeds the
    reciprocal support span (|mu-hat|'s oscillation scale under-resolved).
    """
    return grid_statistics(mu, radius, grid_step=grid_step, threads=threads)[0]


@dataclass(frozen=True)
class ExceptionalSet:
    """Lebesgue estimate of {||xi|| <= T : |mu-hat(xi)| > T^{-delta_exp}}."""

    lebesgue: float
    fraction: float
    threshold: float
    t_value: float
    delta_exp: float


def exceptional_set_measure(mu: AtomicMeasure, t_value: float, delta_exp: float,
                            grid_step: float = 0.25, threads: int = 1) -> ExceptionalSet:
    """Grid-cell estimate of the flattening exceptional set at level T^{-delta}."""
    _, fractions, lebesgues = grid_statistics(mu, t_value, [t_value], [delta_exp],
                                              grid_step, threads)
    return ExceptionalSet(
        lebesgue=float(lebesgues[0, 0]),
        fraction=float(fractions[0, 0]),
        threshold=float(t_value ** (-delta_exp)),
        t_value=float(t_value),
        delta_exp=float(delta_exp),
    )


def exceptional_sweep(mu: AtomicMeasure, t_values=(16.0, 64.0, 256.0),
                      delta_grid=None, grid_step: float = 0.25,
                      threads: int = 1):
    """Exceptional-set fractions over a (delta_exp, T) grid from one pass.

    Returns (delta_grid, t_values, fractions, lebesgues) with ``fractions``
    of shape (len(delta_grid), len(t_values)); every T reads the one grid
    of radius max(T).
    """
    if delta_grid is None:
        delta_grid = np.arange(0.05, 0.46, 0.05)
    t_values = np.asarray(sorted(t_values), dtype=float)
    delta_grid = np.asarray(delta_grid, dtype=float)
    _, fractions, lebesgues = grid_statistics(mu, t_values[-1], t_values, delta_grid,
                                              grid_step, threads)
    return delta_grid, t_values, fractions, lebesgues
