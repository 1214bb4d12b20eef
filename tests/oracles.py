"""Oracles, fixture measures and diagnostics that only the tests read.

Most are a closed form, an exact computation or a slow direct construction
that the library's fast paths are checked against; among them the direct
d-dimensional Fourier sum ``fourier_transform`` (``_nudft``), which the
decay scan and the grid statistics replaced.  The rest are helpers and
diagnostics that no command runs, moved here from the library: the form
``quadratic_form``, the hyperbolic distance ``distance``,
``random_rotation``, ``boundary_equal``, ``fixed_points`` and the signed
letter index ``signed`` of the geometry; the unstable conditionals
(``FramePoint``, ``unstable_conditional``, ``flow_equivariance_ratio``)
and the local-dimension estimator (``local_dimension_estimate``) of the
measure; and the phase-linearization error ``linearization_error`` of the
holonomy.
"""

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from limset import _io, core, dimension, schottky
from limset.fourier import _ATOM_CHUNK, _atom_chunks, _half_space, _neumaier
from limset.holonomy import REGIME_BOUND, FactorizationResult, HolonomyInput
from limset.measure import AtomicMeasure, _quantile_points, _quantile_span


# Geometry helpers: the form, the metric, random rotations and loxodromic axes.

def quadratic_form(x):
    """Q(x) = 2 x_0 x_{d+1} - sum of squared middle coordinates."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 3:
        raise core.ModelViolationError(f"vector length {x.shape[-1]} < 3; need d >= 1")
    return 2.0 * x[..., 0] * x[..., -1] - np.sum(x[..., 1:-1] ** 2, axis=-1)


def distance(x, y):
    """d(x, y) = arccosh B(x, y); symmetric, isometry-invariant.

    Broadcasts over leading axes.  B not at least 1 - DEFAULT_TOL (impossible for
    points on the future sheet; nan included) raises ModelViolationError.
    """
    b = core.bilinear_form(x, y)
    if not np.all(b >= 1.0 - core.DEFAULT_TOL):
        raise core.ModelViolationError(
            f"B(x, y) = {np.min(b)} < 1: arguments not on the future sheet")
    return np.arccosh(np.maximum(b, 1.0))


def random_rotation(d, rng):
    """Haar-ish random element of SO(d) via QR with sign fix."""
    if d == 1:
        return np.eye(1)
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def splitmix64(seed, n):
    """The first n outputs of SplitMix64 seeded with ``seed``, one at a time
    in Python integers: the oracle of ``core.Stream.bits``."""
    state, out = seed % 2 ** 64, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) % 2 ** 64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
        out.append(z ^ (z >> 31))
    return out


def boundary_equal(a, b, tol=1e-8):
    """Projective equality of null directions via canonical representatives."""
    return bool(np.abs(core.normalize_boundary(a) - core.normalize_boundary(b)).max() <= tol)


def fixed_points(g):
    """(attracting, repelling) null eigenvectors of a loxodromic g, normalized."""
    g = np.asarray(g, dtype=float)
    schottky.translation_length(g)  # loxodromy check
    ev, vecs = np.linalg.eig(g)
    order = np.argsort(np.abs(ev))
    rep = np.real(vecs[:, order[0]])
    att = np.real(vecs[:, order[-1]])
    for v in (att, rep):
        if abs(quadratic_form(v)) > 1e-6 * float(v @ v):
            raise core.ModelViolationError("fixed eigenvector is not null")
    return core.normalize_boundary(att), core.normalize_boundary(rep)


def signed(letter_id):
    """External signed index of a letter id: 2i -> i+1, 2i+1 -> -(i+1)."""
    return (letter_id // 2 + 1) * (1 if letter_id % 2 == 0 else -1)


def enumerate_words(group, n):
    """All reduced words of ``group`` of length <= n as tuples of signed
    indices, lexicographic in letter ids within each length: the oracle of
    the level cache's word order."""
    yield ()
    frontier = [()]
    for _ in range(n):
        nxt = []
        for w in frontier:
            for b in range(2 * group.k):
                if w and group._inv(w[-1]) == b:
                    continue
                nxt.append(w + (b,))
        frontier = nxt
        for w in frontier:
            yield tuple(signed(b) for b in w)


def word_to_element(group, word):
    """Product of ``group``'s generator matrices along a reduced word of signed
    indices, one matrix product at a time: the oracle of the level cache."""
    g = np.eye(group.d + 2)
    prev = None
    for s in word:
        s = int(s)
        if s == 0 or abs(s) > group.k:
            raise schottky.ConfigurationError(f"letter {s} out of range")
        b = 2 * (abs(s) - 1) + (0 if s > 0 else 1)
        if prev is not None and group._inv(prev) == b:
            raise schottky.ConfigurationError(f"word {tuple(word)} is not reduced")
        g = g @ group.letter_mats[b]
        prev = b
    return core.project_so(g, tol=group.tol)


def matrix_levels(group, n):
    """Levels 0..n of the matrix cache the vector cache replaced, one at a
    time: each word's float64 product W, built by appending a letter to the
    parent words in rank/position order, and reprojected by
    ``core.project_so`` on levels past the 2^53 guard (every level of a float
    group).  Yields namespaces with ``words``, ``mats``, ``dists``,
    ``chart`` (the orbit points' chart coordinates) and ``exact``."""
    k2 = 2 * group.k
    col_sum = int(np.abs(group.letter_mats).sum(axis=1).max())
    words = np.zeros((1, 0), dtype=np.int8)
    mats = np.eye(group.d + 2)[None]
    exact = bool(np.array_equal(group.letter_mats, np.rint(group.letter_mats)))
    for level in range(n + 1):
        if level:
            npar, plen = words.shape
            per = k2 if plen == 0 else k2 - 1
            exact = exact and int(np.abs(mats).max()) * col_sum <= schottky._FLOAT_EXACT
            child_words = np.empty((npar * per, plen + 1), dtype=np.int8)
            child = np.empty((npar * per, group.d + 2, group.d + 2))
            last = words[:, -1] if plen else np.full(npar, -9, dtype=np.int8)
            for b in range(k2):
                sel = np.nonzero(last != group._inv(b))[0]
                # lexicographic slot: rank of b among the parent's allowed letters
                rank = b - ((group._inv(last[sel]) < b) & (last[sel] >= 0))
                pos = sel * per + rank
                child_words[pos, :plen] = words[sel]
                child_words[pos, plen] = b
                child[pos] = mats[sel] @ group.letter_mats[b]
            words, mats = child_words, child
            if not exact:
                mats = core.project_so(mats, tol=group.tol)
        corner = 0.5 * (mats[:, 0, 0] + mats[:, 0, -1] + mats[:, -1, 0] + mats[:, -1, -1])
        num = mats[:, 1:-1, 0] + mats[:, 1:-1, -1]
        den = mats[:, -1, 0] + mats[:, -1, -1]
        yield SimpleNamespace(words=words, mats=mats, exact=exact,
                              dists=np.arccosh(np.maximum(corner, 1.0)),
                              chart=num / den[:, None])


def prepend_masked(group, words, vecs):
    """The level build's prepend by boolean masks: for each letter b, the
    parents that do not start with b's inverse, gathered and multiplied in
    one call.  The oracle of ``SchottkyGroup._prepend``."""
    npar, plen = words.shape
    first = words[:, 0] if plen else np.full(npar, -1, dtype=np.int8)
    keep = [first != group._inv(b) for b in range(2 * group.k)]
    total = sum(int(m.sum()) for m in keep)
    out_words = np.empty((total, plen + 1), dtype=np.int8)
    out_vecs = np.empty((total,) + vecs.shape[1:])
    lo = 0
    for b, m in enumerate(keep):
        hi = lo + int(m.sum())
        out_words[lo:hi, 0] = b
        out_words[lo:hi, 1:] = words[m]
        np.matmul(vecs[m], group.letter_mats[b].T, out=out_vecs[lo:hi])
        lo = hi
    return out_words, out_vecs


def masked_levels(group, n):
    """Levels 0..n of ``group`` built by ``prepend_masked``, with the level
    cache's distances, largest entry and 2^53 exactness guard."""
    row_sum = int(np.abs(group.letter_mats).sum(axis=2).max())
    lev = group.level(0)
    yield lev
    for _ in range(n):
        words, vecs = prepend_masked(group, lev.words, lev.vecs)
        lev = SimpleNamespace(
            words=words, vecs=vecs,
            dists=np.arccosh(np.maximum(0.5 * (vecs[:, 0] + vecs[:, -1]), 1.0)),
            max_entry=float(max(vecs.max(), -vecs.min())),
            exact=lev.exact and int(lev.max_entry) * row_sum <= schottky._FLOAT_EXACT)
        yield lev


def masked_orbit_images(group, x, n):
    """W x for the words of each length 0..n, by ``prepend_masked``."""
    out = [np.asarray(x, dtype=float)[None]]
    for lev in group.levels(n - 1):
        out.append(prepend_masked(group, lev.words, out[-1])[1])
    return out


def orbit_images(group, x, n):
    """W x for the words W of each length 0..n, one array per length in the
    level cache's word order, by the level build's recursion
    (``SchottkyGroup._prepend``) from a point x other than o."""
    group.check_depth(n)
    out = [np.asarray(x, dtype=float)[None]]
    for _ in range(n):
        out.append(np.concatenate([prod for _, _, prod in group._prepend(out[-1])]))
    return out


def basepoint_distances(group, x, n):
    """d(x, W x) for the words W of each length 0..n: the shells of the
    Poincare series at the basepoint x, for ``dimension.delta_from_distances``
    and ``dimension.log_shell_sums``."""
    return [distance(x[None, :], imgs) for imgs in orbit_images(group, x, n)]


def determinant_delta(group, n):
    """The critical exponent of a d = 1 group from its dynamical determinant,
    independent of the shell sums: the largest zero in s of

        det(s) = exp(-sum_{k <= n} (z^k / k) sum_{|w| = k} e^{-s l(w)} / (1 - e^{-l(w)}))

    at z = 1, with the exponential expanded as a power series in z and cut
    at z^n.  The inner sum runs over the cyclically reduced words of length
    k, and l(w) = arccosh((tr W - 1) / 2) is the translation length of W,
    from the products of ``matrix_levels``.  Bisected to 1e-15."""
    if group.d != 1:
        raise ValueError("determinant_delta reads translation lengths from traces in d = 1")
    weights = []
    for k, lev in enumerate(matrix_levels(group, n)):
        if k:
            cyclic = lev.mats[group._inv(lev.words[:, -1]) != lev.words[:, 0]]
            length = np.arccosh((np.trace(cyclic, axis1=1, axis2=2) - 1.0) / 2.0)
            weights.append((length, 1.0 / (k * (1.0 - np.exp(-length)))))

    def det(s):
        trace = [np.sum(c * np.exp(-s * length)) for length, c in weights]
        a = [1.0]       # the z^m coefficients of exp(-sum_k trace[k-1] z^k)
        for m in range(1, n + 1):
            a.append(-sum(k * trace[k - 1] * a[m - k] for k in range(1, m + 1)) / m)
        return sum(a)

    hi = 1.0
    lo = hi - 0.05
    while det(lo) >= 0.0:
        lo -= 0.05
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if det(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def bisection_delta(dists, threads=1):
    """Per-level roots of log a_n(s) = log a_{n-1}(s) by plain bisection:
    expand the bracket s = 1, 2, 4, ... to the first f(hi) <= 0, then halve
    [0, hi] to ``BISECTION_TOL`` and take the midpoint.  Returns
    (delta_{n_max}, per-level roots): the oracle of the grid search in
    ``dimension.delta_from_distances``, with its refusals."""
    n_max = len(dists) - 1
    per_level = np.empty(n_max)
    for n in range(1, n_max + 1):
        d_prev, d_cur = dists[n - 1], dists[n]
        ratio0 = np.log(d_cur.shape[0] / d_prev.shape[0])
        if ratio0 <= 1e-12:
            raise core.DegenerateConfigurationError(
                f"degenerate shell growth at level {n}: "
                f"{d_cur.shape[0]} words after {d_prev.shape[0]}; the series "
                "converges for all s > 0 (elementary group, delta = 0)")

        def f(s):
            return (dimension._chunked_logsumexp(d_cur, s, threads)
                    - dimension._chunked_logsumexp(d_prev, s, threads))

        lo, hi = 0.0, 1.0
        f_hi = f(hi)
        while f_hi > 0.0 and hi < dimension._BRACKET_CAP:
            hi *= 2.0
            f_hi = f(hi)
        if f_hi > 0.0:
            raise core.GeometryError(
                f"bisection bracket failure at level {n}: shell ratio still "
                f"growing at s = {hi}")
        while hi - lo > dimension.BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        per_level[n - 1] = 0.5 * (lo + hi)
    return float(per_level[-1]), per_level


def orbit_vectors(group, n):
    """Per-level arrays of the orbit points w.o in R^{d+2}, from the cache."""
    return [lev.vecs / np.sqrt(2.0) for lev in group.levels(n)]


def limit_set_sample(group, depth):
    """One chart point of the limit set per reduced word of length ``depth``,
    and the count of points lost to the chart's point at infinity.

    The word w = l_1...l_n is applied to the attracting-ball center of its
    final letter; ping-pong puts the result in the nested ball of w, and
    every point of the limit set is a limit of such samples.  The count is 0
    for validated groups, whose ball system is bounded in the chart.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    last = group.level(depth).words[:, -1]
    z = np.empty((last.size, group.d + 2))
    for b in range(2 * group.k):
        seed = core.chart_to_boundary(group.letter_balls[b][1].center)
        z[last == b] = orbit_images(group, seed, depth)[depth][last == b]
    scale = np.abs(z).max(axis=-1)
    finite = np.abs(z[:, -1]) > 1e-12 * np.maximum(scale, 1.0)
    pts = z[finite, 1:-1] / z[finite, -1][:, None]
    return pts, int((~finite).sum())


def ball_image_interval(g, ball):
    """The image under g of the boundary of a d = 1 chart ball: the images of
    its two endpoints, sorted.  In d = 1 the ping-pong certificate's source
    diameter is the ball itself, so it maps these same two endpoints."""
    ends = np.array([[ball.center[0] - ball.radius], [ball.center[0] + ball.radius]])
    img, fin = core.chart_action(g, ends)
    assert fin.all(), "an endpoint of the ball maps to infinity"
    return np.sort(img[:, 0])


def sampled_letter_margin(g, source, target, rng):
    """The ping-pong margin of one letter, sampled: a least-squares sphere fit
    through the images of seeded points on the source sphere, 256 seeded
    points outside it and the image of infinity.  The d >= 2 oracle of
    ``SchottkyGroup._letter_margin``, which maps two points instead."""
    d = source.center.shape[0]
    # the point sent to chart-infinity must lie inside the source ball,
    # otherwise the image of the complement is unbounded
    ginv = core.group_inverse(g)
    try:
        pole = core.boundary_from_chart(ginv[:, 0])
    except core.ChartInfinityError:
        return -np.inf, None
    if source.margin(pole) <= 0:
        return -np.inf, pole
    # exact image of the source-ball boundary (in d = 1 the draws take
    # both signs, so the fit passes through the two endpoints' images)
    u = rng.standard_normal((max(64, d + 3), d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    sphere = source.center + source.radius * u
    img, fin = core.chart_action(g, sphere)
    if not fin.all():
        return -np.inf, sphere[~fin][0]
    # Moebius images of spheres are spheres: fit ||y||^2 = 2<y,c> - k
    A = np.column_stack([2.0 * img, -np.ones(len(img))])
    rhs = np.sum(img ** 2, axis=1)
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    c_img, k_img = sol[:d], sol[d]
    r_img = np.sqrt(max(float(c_img @ c_img - k_img), 0.0))
    if np.abs(A @ sol - rhs).max() > 1e-6 * (1.0 + rhs.max()):
        return -np.inf, sphere[0]  # not a sphere: g outside the model
    fit_margin = float(target.radius - np.linalg.norm(c_img - target.center) - r_img)
    worst = sphere[int(np.argmin(target.margin(img)))]
    # dense samples outside the source ball, plus the image of infinity
    u = rng.standard_normal((256, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = source.radius * np.exp(rng.uniform(0.0, 5.0, len(u)))
    outside = source.center + radii[:, None] * u
    img_out, fin = core.chart_action(g, outside)
    if not fin.all():
        return -np.inf, outside[~fin][0]
    m = target.margin(img_out)
    sample_margin = float(m.min())
    if sample_margin < fit_margin - 1e-9:
        worst = outside[int(np.argmin(m))]
    try:
        inf_img = core.boundary_from_chart(g[:, 0])
        inf_margin = float(target.margin(inf_img))
    except core.ChartInfinityError:
        return -np.inf, None
    margin = min(fit_margin, sample_margin, inf_margin)
    return margin, (worst if margin <= 0 else None)


def in_so_q(g):
    """Whether g preserves Q (scale-relative) and has det close to +1."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 3:
        return False
    if core.so_relative_residual(g) > core.DEFAULT_TOL:
        return False
    sign, logdet = np.linalg.slogdet(g)
    return sign > 0 and abs(logdet) < np.log1p(1e3 * core.DEFAULT_TOL) + 1e-6


def integer_word_product(group, letters):
    """Product of an integer group's letter matrices along internal letter
    ids, in Python ints (object dtype): the exact oracle of the level cache."""
    g = np.eye(group.d + 2, dtype=np.int64).astype(object)
    for b in letters:
        g = g @ np.rint(group.letter_mats[b]).astype(np.int64).astype(object)
    return g


def exact_integer_residual(g):
    """||g^T J g - J||_max computed in exact integer arithmetic.

    Requires every entry of g to be an exactly-integral float (or an integer
    array).  The float64 evaluation of the defect of a large exactly
    J-orthogonal integer matrix is dominated by rounding noise ~ ||g||^2 eps;
    arbitrary-precision integers sidestep that entirely.
    """
    g = np.asarray(g)
    gi = np.rint(np.asarray(g, dtype=float)).astype(object)
    if np.abs(np.asarray(g, dtype=float) - np.asarray(gi, dtype=float)).max() != 0.0:
        raise core.ModelViolationError("matrix entries are not exactly integral")
    gi = np.vectorize(int, otypes=[object])(gi)
    d = g.shape[0] - 2
    J = np.vectorize(int, otypes=[object])(np.rint(core.gram_matrix(d)).astype(object))
    resid = gi.T @ J @ gi - J
    return max(abs(int(v)) for v in resid.ravel())


def shell_measure(group, delta, n) -> AtomicMeasure:
    """Level-n shell measure: atoms at the chart points of w.o over the
    reduced words of length exactly n, weighted e^{-delta d(o, w.o)} and
    normalised.  By Sullivan's shadow lemma its length-n cylinder masses
    match the Patterson-Sullivan measure's up to bounded factors, with no
    heavy shallow atoms (the orbit sum's largest atom holds about 0.1)."""
    lev = group.levels(n)[n]
    raw = np.exp(-delta * lev.dists)
    return AtomicMeasure(points=lev.vecs[:, 1:-1] / lev.vecs[:, -1:], weights=raw / raw.sum())


# The Fourier transform's direct sum: the oracle of both NUFFTs.

#: Bytes of the complex block one worker fills at a time: the frequency rows
#: of a block are the most that fit min(atoms, _ATOM_CHUNK) complex terms each.
_BLOCK_BYTES = 16 << 20


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
    vals = num / np.sum(w)
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


def uniform_segment_measure(n: int) -> AtomicMeasure:
    """n-atom midpoint discretization of the uniform measure on [0, 1].

    Its transform has the closed form e^{pi i xi} sin(pi xi)/(n sin(pi xi/n)),
    i.e. modulus |sinc(xi)/sinc(xi/n)|.
    """
    pts = ((np.arange(n) + 0.5) / n)[:, None]
    return AtomicMeasure(points=pts, weights=np.full(n, 1.0 / n))


def segment_modulus_oracle(xi, n: int) -> np.ndarray:
    """|mu-hat| of the n-atom segment discretization, in closed form."""
    xi = np.asarray(xi, dtype=float)
    return np.abs(np.sinc(xi) / np.sinc(xi / n))


def uniform_square_measure(side_count: int = 1000) -> AtomicMeasure:
    """Midpoint grid discretization of the uniform measure on [-1, 1]^2.

    The slab/ball area ratio for a disk fully inside the square is the
    closed form (2/pi)(arcsin eps + eps sqrt(1 - eps^2)).
    """
    ax = -1.0 + (2.0 * np.arange(side_count) + 1.0) / side_count
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return AtomicMeasure(points=pts, weights=np.full(pts.shape[0], 1.0 / pts.shape[0]))


def slab_disk_ratio_oracle(eps) -> np.ndarray:
    """Area fraction of the slab {|y| <= eps r} inside a disk of radius r."""
    eps = np.asarray(eps, dtype=float)
    return (2.0 / np.pi) * (np.arcsin(eps) + eps * np.sqrt(1.0 - eps ** 2))


def write_csv_per_cell(path, columns, rows, meta):
    """The CSV writer that rendered one cell at a time: write_lines headers,
    the column names, then each row's cells by their Python type.  The byte
    oracle of the column writer ``_io.write_csv``."""
    body = (",".join(_cell(x) for x in row) for row in rows)
    _io.write_lines(path, meta, itertools.chain([",".join(columns)], body))


def _cell(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _io.fmt(x)
    return str(x)


# The per-trial N-MAN+ factorization, closed forms and draws: the oracle of
# the stacked step in ``limset.holonomy`` and of its functions of one input;
# and the phase-linearization error, which factors one matrix with them.

def lambda_fn(v, w):
    """lambda(v, w) = 1 + <v, w> + ||v||^2 ||w||^2 / 4 (symmetric in v, w)."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return 1.0 + float(v @ w) + 0.25 * float(v @ v) * float(w @ w)


def lambda_linear(v, w):
    """Linearized multiplier 1 + <v, w>; differs from lambda_fn by exactly
    ||v||^2 ||w||^2 / 4."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return 1.0 + float(v @ w)


def assemble_product(h: HolonomyInput):
    """The matrix n+(v) n-(w) g_tau m (rotation and flow commute)."""
    return (core.unipotent_plus(h.v) @ core.unipotent_minus(h.w)
            @ core.geodesic_flow(h.tau, h.d) @ core.rotation_embed(h.m))


def _cell_lambda(h: HolonomyInput):
    """lambda(v, w), refused when the product leaves the N-MAN+ cell."""
    lam = lambda_fn(h.v, h.w)
    if not lam > core.DEFAULT_TOL:      # a nan is refused too
        raise core.DegenerateConfigurationError(
            f"lambda = {lam}: product outside the N-MAN+ cell")
    return lam


def phi_closed_form(h: HolonomyInput):
    """N+ component: m^{-1} (v + (||v||^2/2) w) / (e^tau lambda(v, w))."""
    lam = _cell_lambda(h)
    return (h.m.T @ (h.v + 0.5 * float(h.v @ h.v) * h.w)) / (np.exp(h.tau) * lam)


def tau_closed_form(h: HolonomyInput):
    """Flow component: tau + log lambda(v, w).

    lambda is the leading entry of n+(v) n-(w), and the first row of
    n-(y) m g_t n+(x) is e^t (1, x, ||x||^2/2), so e^{t_out} = e^tau lambda.
    """
    lam = _cell_lambda(h)
    return h.tau + np.log(lam)


def y_closed_form(h: HolonomyInput):
    """N- component: (w + (||w||^2/2) v) / lambda(v, w); independent of tau, m."""
    lam = _cell_lambda(h)
    return (h.w + 0.5 * float(h.w @ h.w) * h.v) / lam


def m_closed_form(h: HolonomyInput):
    """Rotation component: the middle-block Schur-type complement of
    n+(v) n-(w), times m."""
    lam = _cell_lambda(h)
    col = h.w + 0.5 * float(h.w @ h.w) * h.v
    row = h.v + 0.5 * float(h.v @ h.v) * h.w
    mprime = np.eye(h.d) + np.outer(h.v, h.w) - np.outer(col, row) / lam
    return mprime @ h.m


def decompose_nmak(X):
    """Solve X = n-(y) m g_t n+(x) from the entries of X.

    X[0, 0] = e^t must be positive; the first row then gives x, the first
    column gives y, and the middle block gives m after removing the rank-one
    part e^t y x^T.  Returns (y, m, t, x, residual) with the reconstruction
    residual in max norm.  Raises for X outside the open cell (X[0,0] not above
    core.DEFAULT_TOL, a nan included) or when the extracted m is not
    orthogonal (X not in SO(Q)).
    """
    X = np.asarray(X, dtype=float)
    d = X.shape[0] - 2
    lead = X[0, 0]
    if not lead > core.DEFAULT_TOL:     # a nan is refused too
        raise core.DegenerateConfigurationError(
            f"leading entry {lead} <= {core.DEFAULT_TOL:g}: matrix outside the N-MAN+ cell")
    t = np.log(lead)
    x = X[0, 1:d + 1] / lead
    y = X[1:d + 1, 0] / lead
    m = X[1:d + 1, 1:d + 1] - np.outer(X[1:d + 1, 0], X[0, 1:d + 1]) / lead
    if not np.abs(m.T @ m - np.eye(d)).max() <= 1e3 * core.DEFAULT_TOL:
        raise core.ModelViolationError("extracted rotation block not orthogonal; "
                                       "input matrix is not in SO(Q)")
    recon = (core.unipotent_minus(y) @ core.rotation_embed(m)
             @ core.geodesic_flow(t, d) @ core.unipotent_plus(x))
    residual = float(np.abs(recon - X).max())
    return y, m, t, x, residual


def factorize_product(x, y, tau=0.0, m=None):
    """Numerically factor n+(x) n-(y) g_tau m into N- M A N+.

    The matrix oracle for the closed forms: assembles the product and solves
    from its entries.  Enforces ||x||, ||y|| <= 1/2.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if m is None:
        m = np.eye(x.shape[0])
    h = HolonomyInput(v=x, w=y, m=m, tau=tau)
    X = assemble_product(h)
    y_out, m_out, t_out, phi, residual = decompose_nmak(X)
    if residual > max(core.DEFAULT_TOL, 1e-12 * np.abs(X).max()):
        raise core.ModelViolationError(f"factorization residual {residual} exceeds tolerance")
    return FactorizationResult(y_out=y_out, m_out=m_out, t_out=float(t_out),
                               phi=phi, residual=residual)


def _random_ball_point(rng, d, r_min, r_max):
    """Uniform direction in R^d, radius uniform in [r_min, r_max]."""
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    return rng.uniform(r_min, r_max) * u


class Replay:
    """A generator for the per-trial draws that replays one input's rows of
    the stacked draws: ``standard_normal`` hands out the next values of
    ``normals`` and ``random`` the next of ``uniforms``, in order; ``used``
    tells whether both rows were used up."""

    def __init__(self, normals, uniforms):
        self.normals, self.uniforms = iter(normals), iter(uniforms)

    def standard_normal(self, shape):
        return np.array([next(self.normals) for _ in range(int(np.prod(shape)))]).reshape(shape)

    def random(self):
        return next(self.uniforms)

    def uniform(self, low, high):
        return low + (high - low) * self.random()

    def used(self):
        return next(self.normals, None) is None and next(self.uniforms, None) is None


def random_regime_input(rng, d, w_min=0.0):
    """Random HolonomyInput: ||v|| <= 1/2, ||w|| in [w_min, 1/2], |tau| <= 1/2."""
    return HolonomyInput(v=_random_ball_point(rng, d, 0.0, REGIME_BOUND),
                         w=_random_ball_point(rng, d, w_min, REGIME_BOUND),
                         m=random_rotation(d, rng),
                         tau=float(rng.uniform(-0.5, 0.5)))


def linearization_error(h: HolonomyInput, xi, t):
    """Modulus |chi - alpha| of the phase-linearization discrepancy at time t.

    For n = exp(v) on the unstable leaf, the holonomy pullback of the linear
    phase exp(i <xi_t, .>) evaluates at u = log(phi^{-1}(exp(v))), obtained
    by factoring n+(v) (n-(w) m g_tau)^{-1} and reading the N+ component.
    The linearization replaces it by

        alpha = exp(i (1 + <v, w>) <xi_{t - tau}, m v>),   xi_t = e^{-t} xi,

    which is exact when w = 0 (then u = e^tau m v).  Both phases scale by
    e^{-t}, so the error is 2 |sin(C e^{-t} / 2)| for a constant C determined
    by (h, xi): it contracts by essentially e^{-s} when t increases by s.
    """
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    p_minus = (core.unipotent_minus(h.w) @ core.rotation_embed(h.m)
               @ core.geodesic_flow(h.tau, h.d))
    Y = core.unipotent_plus(h.v) @ core.group_inverse(p_minus)
    _, _, _, u, _ = decompose_nmak(Y)
    xi_t = np.exp(-t) * xi
    exact = np.exp(1j * float(xi_t @ u))
    alpha = np.exp(1j * lambda_linear(h.v, h.w) * float((np.exp(h.tau) * xi_t) @ (h.m @ h.v)))
    return float(abs(exact - alpha))


# The unstable conditionals of the orbit measure and the local-dimension
# estimator: diagnostics of the measure that no command runs.

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


def box_mass(mu: AtomicMeasure, half_width: float) -> float:
    """Mass of the sup-norm box of the given half width about the origin."""
    inside = np.all(np.abs(mu.points) <= half_width, axis=1)
    return float(mu.weights[inside].sum())


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
    counted; the result is a Radon measure and is not renormalized.  In these
    coordinates the translation, rotation and geodesic-flow equivariances of
    the conditionals are exact atom by atom.
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
    m0 = box_mass(c0.measure, half_width)
    mt = box_mass(ct.measure, et * half_width)
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
    span = _quantile_span(*_quantile_points(mu, (0.1, 0.9)))
    return span * np.geomspace(1.0 / 800.0, 1.0 / 16.0, 12)


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
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    rng = np.random.default_rng(seed)
    prob = mu.weights / mu.mass
    idx = rng.choice(mu.n, size=sample_count, replace=True, p=prob)
    centers = mu.points[idx]

    # masses[i, j] = mu(B(centers[i], radii[j]))
    if mu.d == 1:
        order = np.argsort(mu.points[:, 0])
        xs = mu.points[order, 0]
        cw = np.concatenate([[0.0], np.cumsum(mu.weights[order])])
        c = centers[:, 0][:, None]
        hi = np.searchsorted(xs, c + radii[None, :], side="right")
        lo = np.searchsorted(xs, c - radii[None, :], side="left")
        masses = cw[hi] - cw[lo]
    else:
        masses = np.empty((sample_count, radii.shape[0]))
        for i in range(sample_count):
            dist = np.linalg.norm(mu.points - centers[i], axis=1)
            order = np.argsort(dist)
            cw = np.cumsum(mu.weights[order])
            pos = np.searchsorted(dist[order], radii, side="right")
            masses[i] = np.where(pos > 0, cw[np.maximum(pos - 1, 0)], 0.0)
    log_r = np.log(radii)
    slopes = np.empty(sample_count)
    dropped = 0
    for i in range(sample_count):
        slopes[i], drops = _loglog_slope(log_r, masses[i])
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
