"""Schottky groups: construction, ping-pong certification, words and orbits.

A Schottky group here is generated by loxodromic elements gamma_1..gamma_k
together with ping-pong ball pairs in the boundary chart R^d: gamma_i maps the
complement of ball_minus(i) into ball_plus(i) (hence gamma_i^{-1} maps the
complement of ball_plus(i) into ball_minus(i)).  When all 2k balls are
pairwise disjoint and the mapping condition holds, the group is free,
discrete, and convex cocompact, and its limit set is the nested intersection
of ball images.

The word engine enumerates reduced words in deterministic lexicographic
order and caches, per level, each word's orbit vector v = W (e_0 + e_last)
(twice the orbit point W o) and distance, but not its letters, the
mixed-radix digits of its row; a cache over a fixed memory budget is
refused up front.  A level is built from its parent by prepending a letter,
v_child = L_b v_parent.  The generators are reprojected to SO(Q) once, at
construction; the word vectors are never reprojected.  For integer generators
a level is certified exact while its parent's largest entry times the
letters' largest row-abs-sum is at most 2^53: every partial sum of L_b v is
then an integer that float64 holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from limset import core

# Integers up to 2^53 in magnitude are exact in float64.
_FLOAT_EXACT = float(2 ** 53)
_CACHE_BUDGET = 4 << 30  # bytes of orbit vectors and distances in the level cache


class ConfigurationError(ValueError):
    """Invalid Schottky data: overlapping balls, dimension mismatch, ..."""


# ---------------------------------------------------------------------------
# Loxodromic elements
# ---------------------------------------------------------------------------

def translation_length(g):
    """log of the spectral radius; errors unless g is loxodromic.

    A loxodromic element is conjugate to g_l * m and has simple real
    eigenvalues e^l > 1 and e^{-l} < 1 outside the unit circle, the rest on it.
    """
    ev = np.linalg.eigvals(np.asarray(g, dtype=float))
    radius = float(np.abs(ev).max())
    if radius <= 1.0 + core.DEFAULT_TOL:
        raise core.DegenerateConfigurationError(
            f"spectral radius {radius} <= 1 + {core.DEFAULT_TOL:g}: element is not loxodromic")
    lead = ev[int(np.argmax(np.abs(ev)))]
    if abs(lead.imag) > 1e-6 * radius or lead.real <= 0:
        raise core.ModelViolationError("leading eigenvalue is not real positive")
    return float(np.log(radius))


def build_loxodromic(xi_att, xi_rep, length, m=None):
    """Loxodromic element with axis (xi_att, xi_rep), translation length, rotation m.

    Builds h in SO(Q) whose columns are (a, u_1, ..., u_d, r) with
    B(a, r) = 1 and B(u_i, u_j) = -delta_ij on the B-orthogonal complement of
    the axis, then returns h (g_length m) h^{-1} with h^{-1} = J h^T J.  The
    attracting fixed point is xi_att.
    """
    xi_att = np.asarray(xi_att, dtype=float)
    xi_rep = np.asarray(xi_rep, dtype=float)
    n = xi_att.shape[0]
    d = n - 2
    if length <= 0:
        raise ValueError("translation length must be positive")
    a = core.normalize_boundary(xi_att)
    r = core.normalize_boundary(xi_rep)
    pairing = core.bilinear_form(a, r)
    if pairing <= core.DEFAULT_TOL:
        raise core.DegenerateConfigurationError(
            "axis endpoints coincide (B(att, rep) ~ 0)")
    r = r / pairing
    # B-orthogonal complement of span(a, r); -B is positive definite there
    basis = []
    for x in np.eye(n):
        x = x - core.bilinear_form(x, r) * a - core.bilinear_form(x, a) * r
        for u in basis:
            x = x + core.bilinear_form(x, u) * u  # -B-projection: x -= (-B(x,u)) u
        nrm2 = -core.bilinear_form(x, x)
        if nrm2 > 1e-8:
            basis.append(x / np.sqrt(nrm2))
        if len(basis) == d:
            break
    if len(basis) < d:
        raise core.DegenerateConfigurationError("could not complete axis to a frame")
    h = np.column_stack([a] + basis + [r])
    if np.linalg.det(h) < 0:
        h[:, d] = -h[:, d]
    core_part = core.geodesic_flow(length, d)
    if m is not None:
        core_part = core_part @ core.rotation_embed(m)
    return h @ core_part @ core.group_inverse(h)


# ---------------------------------------------------------------------------
# Balls and generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    """Euclidean ball in the boundary chart."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center",
                           np.atleast_1d(np.asarray(self.center, dtype=float)))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ConfigurationError(f"ball radius {self.radius} must be positive")

    def margin(self, pts):
        """radius - distance to center: positive inside, vectorized."""
        pts = np.asarray(pts, dtype=float)
        return self.radius - np.linalg.norm(pts - self.center, axis=-1)

    def gap_to(self, other):
        """Distance between the two closed balls (negative if they overlap)."""
        return (float(np.linalg.norm(self.center - other.center))
                - self.radius - other.radius)


@dataclass(frozen=True)
class SchottkyGenerator:
    """A loxodromic generator with its ping-pong ball pair in the chart.

    The element maps the complement of ball_minus into ball_plus; its inverse
    maps the complement of ball_plus into ball_minus.
    """

    elem: np.ndarray
    ball_plus: Ball
    ball_minus: Ball

    def __post_init__(self):
        elem = np.asarray(self.elem, dtype=float)
        object.__setattr__(self, "elem", elem)
        d = elem.shape[0] - 2
        if elem.shape != (d + 2, d + 2) or d < 1:
            raise ConfigurationError(f"generator matrix has shape {elem.shape}")
        if self.ball_plus.center.shape[0] != d or self.ball_minus.center.shape[0] != d:
            raise ConfigurationError("ball dimension does not match the matrix")
        if core.so_relative_residual(elem) > 1e-6:
            raise core.ModelViolationError("generator does not preserve the form Q")
        translation_length(elem)  # raises unless loxodromic
        if self.ball_plus.gap_to(self.ball_minus) <= 0:
            raise ConfigurationError("ball_plus and ball_minus of a generator overlap")


@dataclass
class PingPongReport:
    """Outcome of the ping-pong verification."""

    ok: bool
    margins: dict
    worst_margin: float
    min_ball_gap: float
    witnesses: list = field(default_factory=list)

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        lines = [f"ping-pong {status}: worst margin {self.worst_margin:.6g}, "
                 f"min ball gap {self.min_ball_gap:.6g}"]
        for name, mg in self.margins.items():
            lines.append(f"  {name}: margin {mg:.6g}")
        for w in self.witnesses:
            lines.append(f"  witness: {w}")
        return "\n".join(lines)


def _words_through(k, n):
    """The reduced words of length <= n on k generators, in closed form."""
    base = 2 * k - 1
    return 1 + 2 * n if base == 1 else 1 + 2 * k * (base ** n - 1) // (base - 1)


@dataclass
class _Level:
    """Cached data for all reduced words of one length."""

    vecs: np.ndarray         # (N, d+2) float64 orbit vectors W (e_0 + e_last)
    dists: np.ndarray        # (N,) d(o, w o)
    max_entry: float         # max |entry| over the level's vectors
    exact: bool              # vecs are the exact integer products (2^53 guard)
    length: int              # the word length
    k: int                   # generators: the letters are 0..2k-1
    mats = imats = None  # not fields; perfbench/layers.py reads them until its next change

    @property
    def words(self):
        """(N, length) int8 letter ids decoded from the row indices on each
        access; nothing in limset reads them.  By the first-letter block
        invariant (``SchottkyGroup._prepend``) row i's letters are its digits
        in the radices 2k, 2k-1, ..., 2k-1, each after the first shifted up by
        one when it is at or above the inverse of the letter before it."""
        base, n = 2 * self.k - 1, self.length
        words = np.empty((self.vecs.shape[0], n), dtype=np.int8)
        for j in range(n):
            # digit j runs through its radix, each value held for base^(n-1-j) rows
            digit = np.repeat(np.arange(base if j else 2 * self.k, dtype=np.int8),
                              base ** (n - 1 - j))
            digit = np.tile(digit, words.shape[0] // digit.size)
            words[:, j] = digit + (digit >= words[:, j - 1] ^ 1) if j else digit
        return words


class SchottkyGroup:
    """Schottky group with word/orbit caches and a ping-pong certificate.

    Letters are internally 0..2k-1 with even ids the generators and odd ids
    their inverses (ids 2i, 2i+1 are inverse to each other); externally words
    use signed indices +-(i+1).
    """

    def __init__(self, gens, tol=core.DEFAULT_TOL, name="schottky"):
        gens = list(gens)
        if len(gens) < 1:
            raise ConfigurationError("need at least one generator")
        self.gens = gens
        self.k = len(gens)
        self.d = gens[0].elem.shape[0] - 2
        self.tol = float(tol)
        self.name = name
        for g in gens:
            if g.elem.shape[0] - 2 != self.d:
                raise ConfigurationError("generators have inconsistent dimensions")
        mats = []
        for g in gens:
            elem = core.project_so(g.elem, tol=self.tol)
            mats += [elem, core.group_inverse(elem)]
        self.letter_mats = np.stack(mats)
        # |parent entry| * row-abs-sum bounds every partial sum of an integer
        # L_b v: within 2^53 each is an integer that float64 holds exactly.
        self._row_sum = int(np.abs(self.letter_mats).sum(axis=2).max())
        self.letter_balls = []
        for g in gens:
            self.letter_balls.append((g.ball_minus, g.ball_plus))   # for gamma
            self.letter_balls.append((g.ball_plus, g.ball_minus))   # for gamma^{-1}
        self.letter_names = [f"g{i + 1}{inv}" for i in range(self.k) for inv in ("", "^-1")]
        integral = np.array_equal(self.letter_mats, np.rint(self.letter_mats))
        e = np.eye(self.d + 2)
        self._levels = [_Level(vecs=e[:1] + e[-1:], dists=np.zeros(1), max_entry=1.0,
                               exact=bool(integral), length=0, k=self.k)]

    # -- words ---------------------------------------------------------------

    @staticmethod
    def _inv(letter_id):
        return letter_id ^ 1

    def signed(self, letter_id):
        """External signed index of a letter id: 2i -> i+1, 2i+1 -> -(i+1)."""
        return (letter_id // 2 + 1) * (1 if letter_id % 2 == 0 else -1)

    def word_count(self, n):
        """1 + sum_{j<=n} 2k (2k-1)^{j-1} reduced words of length <= n."""
        return _words_through(self.k, n)

    # -- level cache ----------------------------------------------------------

    def cache_bytes(self, n):
        """Bytes of the orbit vectors and distances of levels 0..n: a float64
        vector and distance for each of their word_count(n) words."""
        return (self.d + 3) * 8 * _words_through(self.k, n)

    def check_depth(self, n):
        """Refuse levels 0..n over the level cache budget, building nothing; a
        k >= 2 depth past 64 (over any budget) is named by levels 0..64's size."""
        shown = n if self.k == 1 else min(n, 64)
        need = self.cache_bytes(shown)
        if need > _CACHE_BUDGET:
            more = "more than " if shown < n else ""
            raise ValueError(f"word levels to depth {n} need {more}{need / 2 ** 30:.3g} GiB,"
                             f" over the level cache budget of {_CACHE_BUDGET >> 30} GiB")

    def _extend_levels(self, n):
        self.check_depth(n)
        while len(self._levels) <= n:
            self._levels.append(self._next_level(self._levels[-1]))

    def _prepend(self, vecs):
        """L_b v for each parent vector v of one level, grouped by the
        prepended letter b, parents in order, skipping those that start with
        b's inverse: the next level's vectors in lexicographic word order.

        It relies on the first-letter block invariant, which it also keeps: a
        level's words are grouped by first letter in letter order, npar // 2k
        words a block (empty at level 0, the one empty word).  So b's parents
        are two slices, before and after its inverse's block.  numpy
        multiplies a one-row matrix by dot, not gemm, with other bits: a
        one-row slice of a letter that keeps more rows (a level-1 parent) is
        multiplied as a two-row stack, and only a letter that keeps one row
        (level 0, or k = 1) multiplies it alone.  So every row has the bits of
        one product per letter over all its parents.
        """
        npar = vecs.shape[0]
        block = npar // (2 * self.k)
        per = npar - block
        out = np.empty((2 * self.k * per,) + vecs.shape[1:])
        for b in range(2 * self.k):
            mat = self.letter_mats[b].T
            lo = b * per
            skip = self._inv(b) * block
            for start, stop in ((0, skip), (skip + block, npar)):
                hi = lo + stop - start
                if stop - start == 1 < per:
                    out[lo:hi] = np.matmul(vecs[[start, start]], mat)[:1]
                else:
                    np.matmul(vecs[start:stop], mat, out=out[lo:hi])
                lo = hi
        return out

    def _next_level(self, parent: _Level):
        exact = parent.exact and int(parent.max_entry) * self._row_sum <= _FLOAT_EXACT
        vecs = self._prepend(parent.vecs)
        dists = np.add(vecs[:, 0], vecs[:, -1])    # built in place: no temporaries
        dists *= 0.5
        np.arccosh(np.maximum(dists, 1.0, out=dists), out=dists)
        return _Level(vecs=vecs, dists=dists, max_entry=float(max(vecs.max(), -vecs.min())),
                      exact=exact, length=parent.length + 1, k=self.k)

    def level(self, n) -> _Level:
        return self.levels(n)[n]

    def levels(self, n):
        self._extend_levels(n)
        return self._levels[:n + 1]

    def exact_through(self, n):
        """Deepest level <= n certified to hold the exact integer products; -1
        for float groups.  A level is exact only if its parent is."""
        return sum(lev.exact for lev in self.levels(n)) - 1

    # -- orbit ----------------------------------------------------------------

    def orbit_distances(self, n):
        return [lev.dists for lev in self.levels(n)]

    def orbit_chart(self, n):
        """Chart coordinates of all orbit points of word length <= n, with
        their distances to o, flattened across levels in enumeration order.

        Orbit points are future timelike, so their last homogeneous
        coordinate is strictly positive: nothing is dropped.
        """
        levels = self.levels(n)
        pts = [lev.vecs[:, 1:-1] / lev.vecs[:, -1:] for lev in levels]
        return np.concatenate(pts), np.concatenate([lev.dists for lev in levels])

    # -- validation -----------------------------------------------------------

    def validate(self):
        """Check the ping-pong mapping condition and return a report.

        Disjointness of the 2k balls is a hard precondition (raises
        ConfigurationError naming the first offending pair).  For each letter
        the image of the complement of its source ball is bounded as an exact
        ball image (a sphere fit through the images of seeded boundary points,
        in d = 1 the two endpoints) and must sit inside the target ball; dense
        outside samples (including the image of the chart's point at infinity)
        are checked point-wise, at a fixed seed.  The worst containment margin
        is reported.
        """
        names = self.letter_names
        # the plus-balls of the 2k letters run through all 2k balls exactly once
        balls = [self.letter_balls[b][1] for b in range(2 * self.k)]
        min_gap = np.inf
        for i, j in itertools.combinations(range(2 * self.k), 2):
            gap = balls[i].gap_to(balls[j])
            min_gap = min(min_gap, gap)
            if gap <= 0:
                raise ConfigurationError(
                    f"balls of {names[i]} and {names[j]} overlap (gap {gap:.3g})")
        rng = np.random.default_rng(0)
        margins, witnesses = {}, []
        ok = True
        for b in range(2 * self.k):
            g = self.letter_mats[b]
            source, target = self.letter_balls[b]
            margin, wit = self._letter_margin(g, source, target, rng)
            margins[names[b]] = margin
            if margin <= 0:
                ok = False
                if wit is not None:
                    witnesses.append(f"{names[b]}: image of {np.round(wit, 6)} "
                                     f"escapes the target ball")
        return PingPongReport(ok=ok, margins=margins,
                              worst_margin=float(min(margins.values())),
                              min_ball_gap=float(min_gap),
                              witnesses=witnesses)

    def _letter_margin(self, g, source, target, rng):
        d = self.d
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

    def __repr__(self):
        return f"SchottkyGroup(name={self.name!r}, k={self.k}, d={self.d})"
