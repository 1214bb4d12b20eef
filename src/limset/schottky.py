"""Schottky groups: construction, ping-pong certification, words and orbits.

A Schottky group here is generated by loxodromic elements gamma_1..gamma_k
together with ping-pong ball pairs in the boundary chart R^d: gamma_i maps the
complement of ball_minus(i) into ball_plus(i) (hence gamma_i^{-1} maps the
complement of ball_plus(i) into ball_minus(i)).  When all 2k balls are
pairwise disjoint and the mapping condition holds, the group is free,
discrete, and convex cocompact, and its limit set is the nested intersection
of ball images.

The word engine enumerates reduced words in deterministic lexicographic
order and caches, per level, each word's distance and, on the levels whose
vectors a caller reads, its orbit vector v = W (e_0 + e_last) (twice the
orbit point W o), but not its letters, the mixed-radix digits of its row; a
cache over a fixed memory budget is refused up front.  A level is built from
its parent by prepending a letter, v_child = L_b v_parent: whole while it is
read as vectors or small, and below that streamed depth first from fixed
chunks of parent rows, so no deeper level's vectors are ever held whole.  The
generators are reprojected to SO(Q) once, at construction; the word vectors
never are.
For integer generators a level is certified exact while its parent's
largest entry times the letters' largest row-abs-sum is at most 2^53: every
partial sum of L_b v is then an integer that float64 holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from limset import core

# Integers up to 2^53 in magnitude are exact in float64.
_FLOAT_EXACT = float(2 ** 53)
_CACHE_BUDGET = 4 << 30  # bytes of orbit vectors and distances in the level cache
_ROWS = 1 << 14          # parent rows per product chunk of the streamed levels


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


def _direction(v):
    """The unit vector along v, or the first axis when v is zero."""
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else np.eye(v.shape[0])[0]


def _words_through(k, n):
    """The reduced words of length <= n on k generators, in closed form."""
    base = 2 * k - 1
    return 1 + 2 * n if base == 1 else 1 + 2 * k * (base ** n - 1) // (base - 1)


def _distances(prod, out):
    """d(o, w o) of the orbit vectors ``prod`` (rows W (e_0 + e_last)) into
    ``out``, in place: no temporaries."""
    np.add(prod[:, 0], prod[:, -1], out=out)
    out *= 0.5
    np.arccosh(np.maximum(out, 1.0, out=out), out=out)


@dataclass
class _Level:
    """Cached data for all reduced words of one length."""

    vecs: np.ndarray | None  # (N, d+2) float64 W (e_0 + e_last); None unless read
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
        words = np.empty((self.dists.shape[0], n), dtype=np.int8)
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

    def word_count(self, n):
        """1 + sum_{j<=n} 2k (2k-1)^{j-1} reduced words of length <= n."""
        return _words_through(self.k, n)

    # -- level cache ----------------------------------------------------------

    def cache_bytes(self, n, read=None, held=0):
        """Bytes the level cache holds at most while ``_extend_levels`` builds
        levels 0..n with vectors through ``read`` (by default n), levels
        0..``held`` already holding theirs: a float64 distance for each word of
        levels 0..n, and a (d+2)-float vector for each word of the levels built
        whole and for each row of one _ROWS chunk per level streamed below."""
        read = n if read is None else read
        whole = max(read, held, self._one_chunk_through(n))
        vectors = _words_through(self.k, whole) + max(n - whole, 0) * _ROWS
        return 8 * (_words_through(self.k, n) + (self.d + 2) * vectors)

    def check_depth(self, n, read=None, held=0):
        """Refuse levels 0..n over the level cache budget (``cache_bytes``),
        building nothing; a k >= 2 depth past 64 is named by levels 0..64's."""
        shown = n if self.k == 1 else min(n, 64)
        need = self.cache_bytes(shown, min(n if read is None else read, shown), min(held, shown))
        if need > _CACHE_BUDGET:
            more = "more than " if shown < n else ""
            raise ValueError(f"word levels to depth {n} need {more}{need / 2 ** 30:.3g} GiB,"
                             f" over the level cache budget of {_CACHE_BUDGET >> 30} GiB")

    def _extend_levels(self, n, read):
        """Build levels 0..n with their distances and the vectors of levels
        0..read.  The levels holding vectors are a prefix.  The missing levels
        are built whole from the deepest of them, down to ``read`` or to the
        deepest level of at most _ROWS words, whichever is deeper; the rest
        are streamed from there (``_build``) and never hold vectors.  A level
        built with vectors only as a parent drops them at the end."""
        levels = self._levels
        held = self._held()
        self.check_depth(n, read, held)
        whole = read if n < len(levels) else max(read, held, self._one_chunk_through(n))
        for j in range(held + 1, whole + 1):
            self._build(j - 1, j, vectors=True)
        if n >= len(levels):                # level n is still missing
            self._build(whole, n, vectors=False)
        for parent, lev in zip(levels, levels[1:]):
            lev.exact = parent.exact and int(parent.max_entry) * self._row_sum <= _FLOAT_EXACT
        for lev in levels[max(held, read) + 1:]:
            lev.vecs = None

    def _held(self):
        """The deepest level holding vectors (those holding them are a prefix)."""
        return sum(lev.vecs is not None for lev in self._levels) - 1

    def _one_chunk_through(self, n):
        """The deepest level <= n of at most _ROWS words (n when k = 1)."""
        j = n if self.k == 1 else 0
        while j < n and _words_through(self.k, j + 1) - _words_through(self.k, j) <= _ROWS:
            j += 1
        return j

    def _build(self, j, n, vectors):
        """Levels j+1..n from level j's vectors, replacing any built before:
        whole, with vectors, when ``vectors``; otherwise as distances only,
        from chunks of _ROWS rows of level j, depth first (``_descend``)."""
        levels = self._levels
        for i in range(j + 1, n + 1):
            count = _words_through(self.k, i) - _words_through(self.k, i - 1)
            lev = _Level(vecs=np.empty((count, self.d + 2)) if vectors else None,
                         dists=np.empty(count), max_entry=0.0, exact=False,
                         length=i, k=self.k)
            levels[i:i + 1] = [lev]         # appends, or replaces a level
        vecs = levels[j].vecs
        step = vecs.shape[0] if vectors else _ROWS
        for first in range(0, vecs.shape[0], step):
            self._descend(j, first, vecs[first:first + step], n)

    def _descend(self, j, first, vecs, n):
        """Fill levels j+1..n below rows first.. of level j (``vecs``): each
        product block goes into its level's distances, largest entry and
        vectors (when that level holds them), then down to level n."""
        child = self._levels[j + 1]
        npar = self._levels[j].dists.shape[0]
        for lo, hi, prod in self._prepend(vecs, first, npar, child.vecs):
            _distances(prod, child.dists[lo:hi])
            child.max_entry = max(child.max_entry, float(prod.max()), float(-prod.min()))
            if j + 1 < n:
                self._descend(j + 1, lo, prod, n)
            del prod                                # freed before the next block is made

    def _walk(self, n, rows, held, whole):
        """Level n's distances, ``rows`` at a time in walk order, into one
        staging buffer (see ``streamed_distances``): level ``whole``'s vectors
        go in chunks of _ROWS rows depth first to level n, as ``_build`` carries
        them.  At its end the levels deeper than ``held`` drop their vectors."""
        buf = np.empty(min(rows, _words_through(self.k, n) - _words_through(self.k, n - 1)))
        rows, fill = buf.shape[0], 0
        try:
            top = self._levels[whole].vecs
            for first in range(0, top.shape[0], _ROWS):
                for prod in self._blocks(whole, first, top[first:first + _ROWS], n):
                    done = 0
                    while done < prod.shape[0]:
                        take = min(rows - fill, prod.shape[0] - done)
                        _distances(prod[done:done + take], buf[fill:fill + take])
                        fill, done = fill + take, done + take
                        if fill == rows:
                            yield buf
                            fill = 0
            if fill:
                yield buf[:fill]
        finally:
            for lev in self._levels[held + 1:]:
                lev.vecs = None

    def _blocks(self, j, first, vecs, n):
        """The level-n product blocks below rows first.. of level j (``vecs``),
        depth first, each dropped once the caller asks for the next."""
        npar = self._levels[j].dists.shape[0]
        for lo, _, prod in self._prepend(vecs, first, npar):
            if j + 1 == n:
                yield prod
            else:
                yield from self._blocks(j + 1, lo, prod, n)
            del prod

    def _prepend(self, vecs, first=0, npar=None, out=None):
        """L_b v for the parent vectors ``vecs``, rows first.. of a level of
        ``npar`` rows (by default all of it), grouped by the prepended letter
        b, parents in order, skipping those that start with b's inverse: the
        next level's vectors in lexicographic word order.  Yields (lo, hi,
        rows lo..hi of the next level) per product block, into ``out`` (the
        next level's vectors) if given.

        It relies on the first-letter block invariant, which it also keeps: a
        level's words are grouped by first letter in letter order, npar // 2k
        words a block (empty at level 0, the one empty word).  So b's parents
        are two slices, before and after its inverse's block, and parent p
        goes to row b * per + (p if it is before the block, else p - block).
        numpy multiplies a one-row matrix by dot, not gemm, with other bits:
        a one-row slice of a letter that keeps more rows (a level-1 parent,
        or a chunk's edge) is multiplied as a two-row stack, and only a
        letter that keeps one row (level 0, or k = 1) multiplies it alone.
        So every row has the bits of one product per letter over all its
        parents, however the parents are chunked.
        """
        npar = vecs.shape[0] if npar is None else npar
        block = npar // (2 * self.k)
        per = npar - block
        end = first + vecs.shape[0]
        for b in range(2 * self.k):
            mat = self.letter_mats[b].T
            skip = self._inv(b) * block
            for start, stop in ((first, min(end, skip)), (max(first, skip + block), end)):
                if stop <= start:
                    continue
                lo = b * per + (start if start < skip else start - block)
                hi = lo + stop - start
                rows = vecs[start - first:stop - first]
                dest = np.empty((hi - lo, vecs.shape[1])) if out is None else out[lo:hi]
                if stop - start == 1 < per:
                    dest[:] = np.matmul(rows[[0, 0]], mat)[:1]
                else:
                    np.matmul(rows, mat, out=dest)
                yield lo, hi, dest
                del dest                    # a block the caller dropped is freed now

    def truncate(self, n):
        """Forget the levels deeper than n; asking for them again rebuilds them."""
        del self._levels[n + 1:]

    def level(self, n) -> _Level:
        return self.levels(n)[n]

    def levels(self, n):
        self._extend_levels(n, read=n)
        return self._levels[:n + 1]

    def exact_through(self, n):
        """Deepest level <= n certified to hold the exact integer products; -1
        for float groups.  A level is exact only if its parent is."""
        return sum(lev.exact for lev in self.levels(n)) - 1

    # -- orbit ----------------------------------------------------------------

    def orbit_distances(self, n):
        """d(o, w o) for the words of each length 0..n; see _extend_levels."""
        self._extend_levels(n, read=0)
        return [lev.dists for lev in self._levels[:n + 1]]

    def holds(self, n):
        """Whether level n is in the cache."""
        return n < len(self._levels)

    def streamed_distances(self, n, rows):
        """Levels 0..n-1's distances (``orbit_distances(n - 1)``) and an
        iterator over level n's, ``rows`` at a time (the last chunk shorter), in
        the order the walker makes them, not in row order; level n is never
        held.  Each chunk is a view of one staging buffer, valid until the next
        is asked for, and each distance has the bits ``orbit_distances(n)``
        gives it.  The budget is checked for levels 0..n, as
        ``orbit_distances(n)`` checks it, before any level is built.  The levels
        built whole keep their vectors, which the walk starts from, until the
        walk ends."""
        held = self._held()
        self.check_depth(n, 0, held)
        whole = self._one_chunk_through(n - 1)
        self._extend_levels(n - 1, read=whole)
        return [lev.dists for lev in self._levels[:n]], self._walk(n, rows, held, whole)

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
        the image of the complement of its source ball, an exact ball
        (``_letter_margin``), must sit inside the target ball; the worst
        containment margin is reported.
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
        margins, witnesses = {}, []
        ok = True
        for b in range(2 * self.k):
            source, target = self.letter_balls[b]
            margin, wit = self._letter_margin(self.letter_mats[b], source, target)
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

    @staticmethod
    def _letter_margin(g, source, target):
        """The margin by which g maps the complement of ``source`` into
        ``target``, and for a margin <= 0 a source point whose image escapes.

        A positive leading eigenvalue (``translation_length``) makes g time-
        orientation preserving: a Moebius map of the chart that sends only its
        pole p = g^-1(inf) to infinity, so the image is bounded exactly when p
        is inside the source ball.  The source diameter through p lies on a
        line orthogonal to the source sphere, whose image is a line through the
        image sphere's centre: the diameter's ends map to antipodes of it.  A
        failure's witness is the preimage of its point farthest from the target.
        """
        try:
            pole = core.boundary_from_chart(core.group_inverse(g)[:, 0])
        except core.ChartInfinityError:
            return -np.inf, None
        if source.margin(pole) <= 0:
            return -np.inf, pole
        axis = _direction(pole - source.center)
        ends = source.center + source.radius * np.array([axis, -axis])
        img, fin = core.chart_action(g, ends)
        if not fin.all():               # an end so near p that its image leaves the chart
            return -np.inf, ends[~fin][0]
        centre, radius = 0.5 * (img[0] + img[1]), 0.5 * np.linalg.norm(img[0] - img[1])
        margin = float(target.margin(centre) - radius)
        if margin > 0:
            return margin, None
        far = centre + radius * _direction(centre - target.center)
        return margin, core.chart_action(core.group_inverse(g), far)[0][0]

    def __repr__(self):
        return f"SchottkyGroup(name={self.name!r}, k={self.k}, d={self.d})"
