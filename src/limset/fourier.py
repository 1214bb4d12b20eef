"""Nonuniform Fourier transform of atomic measures and decay statistics.

Implements mu-hat(xi) = (1/mass) sum_j w_j e^{2 pi i <xi, x_j>} by two
NUFFTs that share one Gaussian kernel (``_kernel``).  The decay scan, whose
frequencies are radii times directions, takes a 1-D type-3 NUFFT of the
projections along each direction (``_ray_transform``), and the grid
statistics one type-1 NUFFT (``_grid_values``).  Both lie within 1e-10
absolute of the direct d-dimensional sum, which the tests keep as their
oracle, while |xi| max_j |x_j| stays at most 2.5e6 for the scan and 2.5e5
for the grid: past that the rounding of the phase 2 pi <xi, x_j> dominates
the gap, which grows as about 1.5e-17 |xi| max_j |x_j| for the scan and
1e-16 |xi| max_j |x_j| for the grid.  When a direction's fine grid would
exceed a budget (a support wide against the radii's reciprocal) the scan
sums directly along the projections (``_ray_sum``), and the grid statistics
refuse a grid whose memory estimate exceeds it (``check_grid_budget``).  The
bits of every value are independent of the thread count.  On top of the
transforms sit the experiment statistics:

* ``decay_scan`` -- per-shell maxima of |mu-hat| over sampled directions and
  a least-squares decay exponent kappa, with its standard error, fitted on
  the upper half of the shells (polynomial Fourier decay |mu-hat| ~
  ||xi||^{-kappa});
* ``grid_statistics`` -- |mu-hat| evaluated once on a uniform grid over the
  ball ||xi|| <= R, for the Riemann estimate of the L2 average
  int_{||xi|| <= R} |mu-hat|^2, whose doubling ratio tracks R^{d - alpha}
  (L2-flattening / Frostman scaling), and the Lebesgue measure of the
  super-level sets {||xi|| <= T : |mu-hat(xi)| > T^{-delta}}, T <= R (the
  flattening exceptional set) over a (delta, T) grid in one pass;
  ``l2_average`` and ``exceptional_set_measure`` read it.

Atomic discretizations only resolve frequencies below ~1/(atom spacing);
every scan computes that cap from the weighted median nearest-neighbour
distance and refuses to report samples beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import FOURIER_MAX_GRID_STEP as MAX_GRID_STEP
from .core import FOURIER_MIN_EXCEPTIONAL_T as MIN_EXCEPTIONAL_T
from .core import FOURIER_MIN_SHELLS as MIN_SHELLS
from .measure import AtomicMeasure, atom_spacing

#: Values of |mu-hat| below this are double-precision cancellation noise.
NUMERICAL_FLOOR = 1e-14

#: Resolution cap: frequencies above 1/(4 eta) for atom spacing eta are
#: artifacts of the discretization.
_CAP_FACTOR = 0.25

_ATOM_CHUNK = 1 << 16

#: Fine cells on each side of an atom, per axis, that the grid NUFFT spreads
#: it to (values within about 1e-12 of the direct sum), and the bytes of the
#: indices and values one worker spreads at a time.
_SPREAD = 12
_SPREAD_BYTES = 512 << 10

#: Step of the decay scan's type-3 grid times the half-range of its radii.
_RAY_STEP = 0.225

#: Bytes the grid statistics may hold at once (see check_grid_budget), and
#: the most one direction of the decay scan's type-3 transform may hold (about
#: four complex arrays of its FFT's size) before the scan sums directly.
_GRID_BUDGET = 1 << 30


def _atom_chunks(n: int) -> list[slice]:
    return [slice(i, min(i + _ATOM_CHUNK, n)) for i in range(0, n, _ATOM_CHUNK)]


def _half_space(freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row flipped into the half-space where its first nonzero coordinate
    is positive (-0.0 made +0.0), and the mask of the flipped rows."""
    lead = freqs[np.arange(freqs.shape[0]), np.argmax(freqs != 0.0, axis=1)]
    flip = lead < 0.0
    return np.where(flip[:, None], -freqs, freqs) + 0.0, flip


def resolution_cap(mu: AtomicMeasure) -> float:
    """Largest honestly resolvable frequency: 1/(4 eta) for atom spacing eta."""
    eta = atom_spacing(mu)
    return _CAP_FACTOR / eta if np.isfinite(eta) else np.inf


@dataclass(frozen=True)
class FrequencySpec:
    """Frequency sampling plan: a geometric shell ladder.

    Each shell is sampled at ``samples_per_shell`` log-spaced radii along
    every direction of the fan (``default_directions``); ``mode`` accepts
    only "shell", that plan.
    ``grid_step`` is checked and read by nothing: the grid statistics take
    their own step (``grid_statistics(..., grid_step=)``).
    """

    mode: str = "shell"
    r0: float = 4.0
    ratio: float = 2.0
    count: int = 8
    samples_per_shell: int = 16
    grid_step: float = 0.25

    def __post_init__(self):
        if self.mode != "shell":
            raise ValueError(f"unknown frequency mode {self.mode!r}")
        if self.r0 <= 0.0 or self.ratio <= 1.0 or self.count < 1:
            raise ValueError("shell ladder must be strictly increasing: "
                             f"r0={self.r0}, ratio={self.ratio}, count={self.count}")
        if self.samples_per_shell < 1:
            raise ValueError(f"samples_per_shell must be >= 1, got {self.samples_per_shell}")
        if self.grid_step <= 0.0:
            raise ValueError(f"grid_step must be positive, got {self.grid_step}")

    @property
    def radii(self) -> np.ndarray:
        return self.r0 * self.ratio ** np.arange(self.count)


def default_directions(d: int, count: int = 64, seed: int = 0) -> np.ndarray:
    """Deterministic quasi-uniform directions: {+1,-1} for d=1, an equal-angle
    fan for d=2 (for an even count its second half is exactly the negated
    first half, so the transform evaluates each antipodal pair once), and for
    d >= 3 normalized Gaussians of the seeded ``core.Stream``."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        th = 2.0 * np.pi * np.arange(count) / count
        fan = np.stack([np.cos(th), np.sin(th)], axis=1)
        if count % 2 == 0:
            fan[count // 2:] = -fan[: count // 2]
        return fan
    v = core.Stream(seed).standard_normal((count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@dataclass(frozen=True)
class DecayReport:
    """Shell maxima of |mu-hat| and the fitted polynomial decay exponent,
    with the fit's RMS residual and the exponent's standard error."""

    shell_radii: np.ndarray
    shell_max: np.ndarray
    sample_dir_index: np.ndarray
    sample_values: np.ndarray
    kappa: float
    fit_residual: float
    kappa_stderr: float
    resolution_cap: float
    floored: bool
    truncated_shells: int


def _fit_kappa(radii: np.ndarray, maxima: np.ndarray) -> tuple[float, float, float, bool]:
    """-slope of log(shell max) on log R over the upper half of the shells, the
    fit's RMS residual, the slope's standard error (nan below three fitted
    shells) and whether every maximum lies below the floor (no fit).  Below
    two fitted shells there is no line: all three are nan, not floored."""
    nan = float("nan")
    if np.all(maxima < NUMERICAL_FLOOR):
        return nan, nan, nan, True
    k = radii.shape[0]
    x = np.log(radii[k // 2:])
    y = np.log(np.maximum(maxima[k // 2:], NUMERICAL_FLOOR))
    n = x.shape[0]
    if n < 2:
        return nan, nan, nan, False
    (slope, intercept), cov = np.polyfit(x, y, 1, cov="unscaled")
    sq = (y - slope * x - intercept) ** 2
    stderr = np.sqrt(cov[0, 0] * np.sum(sq) / (n - 2)) if n > 2 else nan
    return float(-slope), float(np.sqrt(np.mean(sq))), float(stderr), False


def decay_scan(mu: AtomicMeasure, spec: FrequencySpec, seed: int = 0,
               threads: int = 1) -> DecayReport:
    """Per-shell maxima of |mu-hat| and the decay exponent kappa.

    Shells beyond the measure's resolution cap are dropped (and counted);
    within each kept shell the modulus is maximized over the direction fan
    and log-spaced radial samples, all taken by ``_ray_transform``.  kappa =
    -slope of log(max) vs log(R) over the upper half of the kept shells (a
    sup-bound fit), ``kappa_stderr`` the slope's standard error.  The type-3
    transform takes the directions one after another on the calling thread;
    ``threads`` workers serve only the direct sums past the grid budget, and
    a count below 1 is refused either way.
    """
    if spec.count < MIN_SHELLS:
        raise ValueError(f"a decay fit needs at least {MIN_SHELLS} shells, got {spec.count}")
    dirs = default_directions(mu.d, seed=seed)
    cap = resolution_cap(mu)
    radii = spec.radii
    kept = radii[radii <= cap]
    truncated = int(radii.shape[0] - kept.shape[0])
    if kept.shape[0] == 0:
        raise core.DegenerateConfigurationError(
            f"all shells lie above the resolution cap {cap:.3g}")

    frac = (np.arange(spec.samples_per_shell) + 0.5) / spec.samples_per_shell
    r_samples = np.minimum(kept[:, None] * spec.ratio ** frac[None, :], cap)
    n_shell, n_rad = r_samples.shape
    n_dir = dirs.shape[0]
    # fixed sample order: shell-major, then direction, then radial position
    dir_index = np.broadcast_to(np.arange(n_dir)[None, :, None],
                                (n_shell, n_dir, n_rad)).reshape(-1).copy()
    rays = _ray_transform(mu.points, mu.weights, dirs, r_samples.ravel(), threads)
    vals = rays.reshape(n_dir, n_shell, n_rad).transpose(1, 0, 2).reshape(-1)
    mods = np.abs(vals).reshape(n_shell, n_dir * n_rad)
    shell_max = mods.max(axis=1)
    kappa, resid, stderr, floored = _fit_kappa(kept, shell_max)
    return DecayReport(
        shell_radii=kept,
        shell_max=shell_max,
        sample_dir_index=dir_index,
        sample_values=vals,
        kappa=kappa,
        fit_residual=resid,
        kappa_stderr=stderr,
        resolution_cap=cap,
        floored=floored,
        truncated_shells=truncated,
    )


def _kernel(s: np.ndarray, b: float, scale=1.0) -> tuple[np.ndarray, np.ndarray]:
    """The cell floor(s) of each position ``s`` (in fine cells) and the Gaussian
    weights e^{-(frac - l)^2/b} * scale on its cells l = 1-q .. q (row l + q - 1,
    q = _SPREAD), frac = s - floor(s), by the recurrence
    e^{-(frac - l)^2/b} = e^{-frac^2/b} (e^{2 frac/b})^l e^{-l^2/b}."""
    q = _SPREAD
    cell = np.floor(s)
    frac = s - cell
    ker = np.empty((2 * q, frac.shape[0]))
    ker[q - 1] = np.exp(-frac * frac / b) * scale
    up, down = np.exp(2.0 * frac / b), np.exp(-2.0 * frac / b)
    for j in range(q, 2 * q):
        np.multiply(ker[j - 1], up, out=ker[j])
    for j in range(q - 2, -1, -1):
        np.multiply(ker[j + 1], down, out=ker[j])
    ker *= np.exp(-np.arange(1 - q, q + 1) ** 2 / b)[:, None]
    return cell.astype(np.intp), ker


def _fine_size(modes: int) -> int:
    """Fine-grid side: the least 5-smooth size (a divisor of 30^40) at or above
    twice the mode count and two kernel widths."""
    size = max(2 * modes, 2 * _SPREAD)
    while 30 ** 40 % size:
        size += 1
    return size


def _grid_values(pts: np.ndarray, w: np.ndarray, step: float, k_max: int,
                 threads: int) -> np.ndarray:
    """mu-hat(k * step) on the cube |k_a| <= k_max, an array indexed by k + k_max.

    A type-1 NUFFT by fast Gaussian gridding (Greengard-Lee 2004): e^{2 pi i k
    step x} has period 1 in u = step x mod 1, so each atom is wrapped to u and
    spread with e^{-s^2/b} onto the _SPREAD fine cells on each side of it, per
    axis; one real FFT, half along axis 0, and a per-axis deconvolution give
    the modes.  Chunk grids add in chunk order, each value with k_0 < 0 is its
    antipode's conjugate bit for bit, and mu-hat(0) = 1.
    """
    n, d = pts.shape
    q, modes = _SPREAD, 2 * k_max + 1
    fine = _fine_size(modes)
    b = q * fine / (math.pi * (fine - 0.5 * modes))     # from the actual oversampling
    side = fine + 2 * q        # fine cells 1-q .. fine+q, so that no index wraps
    rows = max(1, _SPREAD_BYTES // (16 * (2 * q) ** d))

    def spread(sl: slice) -> np.ndarray:
        grid = np.zeros(side ** d)
        for lo in range(sl.start, sl.stop, rows):
            blk = slice(lo, min(lo + rows, sl.stop))
            for a in range(d):
                cell, ker = _kernel(np.mod(step * pts[blk, a], 1.0) * fine, b,
                                    w[blk] if a == 0 else 1.0)
                shape = (1,) * a + (2 * q,) + (1,) * (d - 1 - a) + (-1,)
                pos = (cell + np.arange(2 * q)[:, None]).reshape(shape)
                ker = ker.reshape(shape)
                idx, val = (pos, ker) if a == 0 else (idx * side + pos, val * ker)
            np.add.at(grid, idx.ravel(), val.ravel())
        return grid

    chunks, grid = _atom_chunks(n), np.zeros(side ** d)
    for i in range(0, len(chunks), max(threads, 1)):   # at most `threads` grids at once
        for part in core.parallel_map(spread, chunks[i : i + threads], threads):
            grid += part
    grid = grid.reshape((side,) * d)
    for a in range(d):         # fold the padding onto the periodic grid
        g = np.moveaxis(grid, a, 0)
        grid = g[q - 1 : q - 1 + fine].copy()
        grid[: q + 1] += g[q - 1 + fine :]
        grid[fine - q + 1 :] += g[: q - 1]
        grid = np.moveaxis(grid, 0, a)
    spec = np.fft.rfftn(grid, axes=tuple(range(d))[::-1])
    k = np.arange(-k_max, k_max + 1)
    vals = np.empty((modes,) * d, dtype=complex)
    vals[k_max:] = np.conj(spec[np.ix_(k[k_max:], *[k % fine] * (d - 1))]) / np.sum(w)
    deconv = np.exp(math.pi ** 2 * b * (k / fine) ** 2) / math.sqrt(math.pi * b)
    for factor in np.ix_(deconv[k_max:], *[deconv] * (d - 1)):
        vals[k_max:] *= factor
    flat = vals.reshape(-1)
    mid = flat.size // 2       # the origin; flat[i] and flat[-1 - i] are antipodes
    flat[:mid] = np.conj(flat[: mid : -1])
    flat[mid] = 1.0
    return vals


def _projection(xt: np.ndarray, theta: np.ndarray, sl: slice) -> np.ndarray:
    """<theta, x_j> of the atoms ``sl`` of ``xt`` (axis-major, d x n), summed one
    axis at a time in a fixed order (no BLAS product)."""
    t = theta[0] * xt[0, sl]
    for a in range(1, xt.shape[0]):
        t += theta[a] * xt[a, sl]
    return t


def _ray_sum(xt: np.ndarray, w: np.ndarray, theta: np.ndarray, rs: np.ndarray,
             blocks: list[slice]) -> np.ndarray:
    """sum_j w_j e^{2 pi i r t_j} at each radius r of ``rs``, summed directly
    over the projections t_j = <theta, x_j>.

    The atoms go by ``blocks`` and, within a block, the radii by rows of at
    most _SPREAD_BYTES of complex terms, however many radii there are; the
    phase 2 pi (r t_j) is exponentiated in place, and the block sums combine
    with Neumaier compensation in block order.
    """
    def part(sl: slice) -> np.ndarray:
        t = _projection(xt, theta, sl)
        rows = max(1, _SPREAD_BYTES // (16 * t.shape[0]))
        sums = []
        for i in range(0, rs.shape[0], rows):
            z = np.zeros((min(rows, rs.shape[0] - i), t.shape[0]), dtype=complex)
            phase = z.imag
            np.multiply(rs[i : i + rows, None], t, out=phase)
            phase *= 2.0 * np.pi
            np.exp(z, out=z)
            z *= w[sl]         # summed without BLAS, whose order follows its threads
            sums.append(z.sum(axis=1))
            del z, phase       # free these terms before the next rows
        return np.concatenate(sums)

    return core.neumaier(part(sl) for sl in blocks)


def _ray_transform(pts: np.ndarray, w: np.ndarray, dirs: np.ndarray, radii: np.ndarray,
                   threads: int) -> np.ndarray:
    """mu-hat(r theta) for each row theta of ``dirs`` and each radius r > 0 of
    ``radii``, an array (directions, radii).

    mu-hat(r theta) = sum_j w_j e^{2 pi i r t_j} / mass is a 1-D type-3 NUFFT of
    the projections t_j = <theta, x_j> (Lee-Greengard 2005), taken once per
    antipodal pair of directions (mu-hat(-xi) = conj(mu-hat(xi)) bit for bit),
    direction by direction on the calling thread.  With the atoms centred at
    c (|t_j - c| <= X) and the radii at s0 (|r - s0| <= S), the atoms carry
    the pre-phase e^{2 pi i s0 (t_j - c)} and are spread with a Gaussian onto
    a grid of step h = _RAY_STEP / S; a type-2 step (deconvolution, one FFT
    of a 5-smooth size at least twice the grid, Gaussian interpolation at
    h (r - s0)) gives the grid's transform, which the first Gaussian's
    transform and the post-phase e^{2 pi i r c} turn into mu-hat.  Values
    lie within 1e-10 absolute of the direct d-dimensional sum while
    r max_j |x_j| <= 2.5e6; the gap grows as about 1.5e-17 r max_j |x_j|.
    A direction along which every projection is c gets the closed form
    e^{2 pi i r c}.  If the largest direction's FFT would hold more than
    _GRID_BUDGET bytes (a support wide against 1/S), each direction without
    that closed form is summed directly along its projections (``_ray_sum``),
    by one worker of ``threads`` per direction.  Either way the bits do not
    depend on the thread count, and a count below 1 is refused.
    """
    canon, flip = _half_space(dirs)
    uniq, inverse = np.unique(canon, axis=0, return_inverse=True)
    rs, r_index = np.unique(radii, return_inverse=True)
    s0, half_s = 0.5 * (rs[-1] + rs[0]), 0.5 * (rs[-1] - rs[0])
    q = _SPREAD
    xt, n = pts.T, pts.shape[0]
    rows = max(1, _SPREAD_BYTES // (32 * 2 * q))   # kernel, index, products per entry
    blocks = [slice(i, min(i + rows, n)) for i in range(0, n, rows)]

    def plan(theta):
        """Centre c, half-width X, step h and grid half-length of one direction."""
        ends = [(t.min(), t.max()) for t in (_projection(xt, theta, sl) for sl in blocks)]
        lo, hi = min(e[0] for e in ends), max(e[1] for e in ends)
        c, x_half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        h = min(_RAY_STEP / half_s, x_half) if half_s > 0.0 else x_half
        # cells -m0 .. m0 hold every kernel: |t - c| / h <= X / h, up to rounding
        return c, x_half, h, int(x_half / h) + q + 1 if x_half > 0.0 else 0

    plans = [plan(theta) for theta in uniq]
    grid_max = 2 * max(p[3] for p in plans) + 1
    direct = 128 * grid_max > _GRID_BUDGET or 64 * _fine_size(grid_max) > _GRID_BUDGET
    mass = np.sum(w)       # the grid's and AtomicMeasure.mass's total

    def transform(k: int) -> np.ndarray:
        theta, (c, x_half, h, m0) = uniq[k], plans[k]
        if x_half == 0.0:
            return np.exp(2j * np.pi * rs * c)
        if direct:
            return _ray_sum(xt, w, theta, rs, blocks) / mass
        size = 2 * m0 + 1
        b = q / (math.pi * (1.0 - h * half_s))      # from the actual oversampling
        re, im = np.zeros(size), np.zeros(size)
        for sl in blocks:
            x = _projection(xt, theta, sl) - c
            phase = (2.0 * np.pi * s0) * x
            cell, ker = _kernel(x / h, b)
            idx = (cell + (m0 + 1 - q) + np.arange(2 * q)[:, None]).ravel()
            re += np.bincount(idx, (ker * (w[sl] * np.cos(phase))).ravel(), size)
            im += np.bincount(idx, (ker * (w[sl] * np.sin(phase))).ravel(), size)
        # type 2: the grid's modes m at u = h (r - s0), period 1 in u
        fine = _fine_size(size)
        b2 = q * fine / (math.pi * (fine - 0.5 * size))
        m = np.arange(-m0, m0 + 1)
        spec = np.zeros(fine, dtype=complex)
        spec[m % fine] = ((re + 1j * im) * np.exp(math.pi ** 2 * b2 * (m / fine) ** 2)
                          / math.sqrt(math.pi * b2))
        conv = np.fft.ifft(spec, norm="forward")
        u = h * (rs - s0)
        cell, ker = _kernel(fine * u, b2)
        near = conv.take(cell + (1 - q) + np.arange(2 * q)[:, None], mode="wrap")
        vals = (ker * near).sum(axis=0)
        post = np.exp(2j * np.pi * rs * c + math.pi ** 2 * b * u * u) / math.sqrt(math.pi * b)
        return vals * post / mass

    # a type-3 direction takes milliseconds: a second worker saved nothing at
    # 4,687 atoms and held a heap of its own; min(threads, 1) refuses below 1
    out = np.stack(core.parallel_map(transform, list(range(uniq.shape[0])),
                                     threads if direct else min(threads, 1)))
    out = out[inverse][:, r_index]
    return np.where(flip[:, None], np.conj(out), out)


def check_grid_budget(d: int, atoms: int, radius: float, grid_step: float,
                      threads: int = 1) -> int:
    """Bytes ``grid_statistics`` holds at once, from the sizes alone: the padded
    fine grid as the running total and once per busy worker, its half spectrum,
    and the values, frequencies and masks of the (2K+1)^d cube.  A ValueError
    naming the estimate when it exceeds _GRID_BUDGET."""
    k_max = int(np.floor(radius / grid_step))
    fine = _fine_size(2 * k_max + 1)
    workers = min(threads, -(-atoms // _ATOM_CHUNK))
    need = (8 * (fine + 2 * _SPREAD) ** d * (1 + workers)
            + 16 * (fine // 2 + 1) * fine ** (d - 1) + (40 + 16 * d) * (2 * k_max + 1) ** d)
    if need > _GRID_BUDGET:
        raise ValueError(f"grid statistics to radius {radius:g} at step {grid_step:g} "
                         f"in d = {d} would hold about {need / 2 ** 30:.3g} GiB, over "
                         f"the budget of {_GRID_BUDGET >> 30} GiB")
    return need


@dataclass(frozen=True)
class L2Average:
    """Riemann estimate of int_{||xi|| <= R} |mu-hat|^2 d xi."""

    value: float
    radius: float
    grid_step: float
    coarse: bool


def grid_statistics(mu: AtomicMeasure, radius: float, t_values=(), delta_grid=(),
                    grid_step: float = 0.25, threads: int = 1):
    """|mu-hat| evaluated once on the grid k*grid_step of the ball ||xi|| <= radius.

    Returns ``(l2, fractions, lebesgues)``: the L2Average over the ball, and
    the exceptional sets at level T^{-delta} over (delta_grid x t_values),
    each counted on the cells of the radius-T grid.  Refused up front when
    ``check_grid_budget`` refuses its size.
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
    check_grid_budget(d, mu.n, radius, grid_step, threads)
    k_max = int(np.floor(radius / grid_step))
    mods = np.abs(_grid_values(mu.points, mu.weights, grid_step, k_max, threads)).ravel()
    ax = np.arange(-k_max, k_max + 1) * grid_step
    freqs = np.stack([g.ravel() for g in np.meshgrid(*[ax] * d, indexing="ij")], axis=1)
    norms = np.linalg.norm(freqs, axis=1)

    def grid(t):
        """The radius-t grid: |k| <= floor(t/step) per axis, and for d >= 2 the ball."""
        inside = np.abs(freqs).max(axis=1) <= np.floor(t / grid_step) * grid_step
        return inside & (norms <= t) if d > 1 else inside

    total = grid_step ** d * np.sum(mods[grid(radius)] ** 2)
    span = float((mu.points.max(axis=0) - mu.points.min(axis=0)).max())
    l2 = L2Average(value=float(total), radius=float(radius),
                   grid_step=float(grid_step), coarse=grid_step * span > 1.0)
    # unit-ball volume; 2, not pi^(1/2)/Gamma(3/2), which is one ulp short of it
    unit_ball = 2.0 if d == 1 else np.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    fractions = np.empty((len(delta_grid), len(t_values)))
    lebesgues = np.empty_like(fractions)
    for j, t in enumerate(t_values):
        inside = grid(t)
        for i, dexp in enumerate(delta_grid):
            count = int(np.count_nonzero(inside & (mods > t ** (-dexp))))
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
