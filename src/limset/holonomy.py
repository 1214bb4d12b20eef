"""Exact N-MAN+ factorization and the closed-form stable holonomy map.

Products n+(v) n-(w) g_tau m with ||v||, ||w|| <= 1/2 lie in the open cell
N- M A N+ and factor in closed form.  Writing lambda(v, w) = 1 + <v, w> +
||v||^2 ||w||^2 / 4 (the leading entry of n+(v) n-(w)):

    n+(v) n-(w) g_tau m  =  n-(y) m' g_t n+(phi)

with

    t    = tau + log lambda(v, w),
    phi  = m^{-1} (v + (||v||^2/2) w) / (e^tau lambda(v, w)),
    y    = (w + (||w||^2/2) v) / lambda(v, w),
    m'   = (I + v w^T - (w + (||w||^2/2) v)(v + (||v||^2/2) w)^T / lambda) m.

The formulas are verified against direct matrix factorization, which solves
for the factors from the entries of the product: the first row of
n-(y) m g_t n+(x) equals e^t (1, x, ||x||^2/2), the first column equals
e^t (1, y, ||y||^2/2), and the middle block equals m + e^t y x^T.
``property_suite`` runs that comparison on seeded random regime inputs.

Each step has one implementation, over a stack of trials of one dimension;
its checks raise the first bad trial's message, and a nan fails each of them.
The functions of one input run it on a stack of one.  The per-trial code they
replaced is the tests' oracle (``tests/oracles.py``), which also holds the
phase-linearization error, the one-matrix factorization ``decompose_nmak``
and the linearized multiplier 1 + <v, w>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from limset import core

REGIME_BOUND = 0.5
MIN_TRIALS = 10     # the fewest trials property_suite runs
MAX_TRIALS = 10 ** 6   # the most: every trial's draws are held at once, ~0.75 KiB each


class RegimeError(ValueError):
    """Input outside the ||v||, ||w|| <= 1/2 smallness regime."""


@dataclass(frozen=True)
class HolonomyInput:
    """Parameters (v, w, m, tau) of the weak-stable element n-(w) m g_tau and
    the unstable displacement v; enforced to the smallness regime."""

    v: np.ndarray
    w: np.ndarray
    m: np.ndarray
    tau: float

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        w = np.atleast_1d(np.asarray(self.w, dtype=float))
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "m", np.atleast_2d(np.asarray(self.m, dtype=float)))
        object.__setattr__(self, "tau", float(self.tau))
        if v.shape != w.shape or self.m.shape != (v.shape[0], v.shape[0]):
            raise ValueError("inconsistent dimensions among v, w, m")
        _check_inputs(*_one(self)[:3])

    @property
    def d(self):
        return self.v.shape[0]


@dataclass(frozen=True)
class FactorizationResult:
    """Factors of n+(v) n-(w) g_tau m = n-(y_out) m_out g_{t_out} n+(phi)."""

    y_out: np.ndarray
    m_out: np.ndarray
    t_out: float
    phi: np.ndarray
    residual: float


def lambda_fn(v, w):
    """lambda(v, w) = 1 + <v, w> + ||v||^2 ||w||^2 / 4 (symmetric in v, w), of
    two vectors or of each row of two (n, d) stacks."""
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    return 1.0 + core.row_dot(v, w) + 0.25 * core.row_dot(v, v) * core.row_dot(w, w)


def phi_closed_form(h: HolonomyInput):
    """N+ component: m^{-1} (v + (||v||^2/2) w) / (e^tau lambda(v, w))."""
    v, w, tau, m = _one(h)
    return _phi_form(_row(v, w), tau, m, _checked_lambda(v, w))[0]


def tau_closed_form(h: HolonomyInput):
    """Flow component: tau + log lambda(v, w).

    lambda is the leading entry of n+(v) n-(w), and the first row of
    n-(y) m g_t n+(x) is e^t (1, x, ||x||^2/2), so e^{t_out} = e^tau lambda.
    """
    v, w, tau, _ = _one(h)
    return (tau + np.log(_checked_lambda(v, w)))[0]


def y_closed_form(h: HolonomyInput):
    """N- component: (w + (||w||^2/2) v) / lambda(v, w); independent of tau, m."""
    v, w, _, _ = _one(h)
    return (_row(w, v) / _checked_lambda(v, w)[:, None])[0]


def m_closed_form(h: HolonomyInput):
    """Rotation component: the middle-block Schur-type complement of
    n+(v) n-(w), times m."""
    v, w, _, m = _one(h)
    return _m_form(v, w, _row(v, w), _row(w, v), m, _checked_lambda(v, w))[0]


def factorize_product(x, y, tau=0.0, m=None):
    """Numerically factor n+(x) n-(y) g_tau m into N- M A N+.

    The matrix oracle for the closed forms: assembles the product and solves
    from its entries.  Enforces ||x||, ||y|| <= 1/2.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if m is None:
        m = np.eye(x.shape[0])
    h = HolonomyInput(v=x, w=y, m=m, tau=tau)
    y_out, m_out, t_out, phi, residual = (part[0] for part in _factor(_product(*_one(h))))
    return FactorizationResult(y_out=y_out, m_out=m_out, t_out=float(t_out),
                               phi=phi, residual=float(residual))


def random_regime_input(rng, d, w_min=0.0):
    """Random HolonomyInput: ||v|| <= 1/2, ||w|| in [w_min, 1/2], |tau| <= 1/2."""
    [((v, w), m, tau)] = _draw_stacks(rng, (d,), ((0.0, REGIME_BOUND), (w_min, REGIME_BOUND)),
                                      (-0.5, 0.5))
    return HolonomyInput(v=v[0], w=w[0], m=m[0], tau=tau[0])


#: Tolerance of each property of the suite, in report order.
SUITE_TOLS = {
    "phi_round_trip": 1e-10,
    "tau_round_trip": 1e-10,
    "y_round_trip": 1e-10,
    "m_round_trip": 1e-10,
    "block_coherence": 1e-12,
    "lambda_gap_identity": 1e-12,
    "cocycle_composition": 1e-8,
}


def property_suite(trials, seed=0, tau_sign=1.0):
    """Property suite over seeded random regime inputs, d cycling 1..3.

    Round-trips compare the closed forms against the matrix factorization;
    block coherence checks each output factor against the quadratic form;
    the lambda gap is the exact |v|^2 |w|^2 / 4 identity; the cocycle law
    refactors step-wise and jointly over trials // 10 triples.  Draw radii
    for the cocycle triples are clipped so every intermediate stays inside
    the ||.|| <= 1/2 regime.

    Every input is drawn first, in the RNG order of ``random_regime_input``;
    then each dimension runs as one stacked pass.

    ``tau_sign`` multiplies the closed-form flow component before its round
    trip: -1 is a deliberate negative control under which the suite fails.
    Returns one row (name, trials, max_residual, tol, passed) per entry of
    ``SUITE_TOLS``, in order.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"need at most {MAX_TRIALS} trials, got {trials}")
    rng = np.random.default_rng(seed)
    n_triples = max(trials // 10, 1)
    dims = [1 + i % 3 for i in range(trials)]
    inputs = _draw_stacks(rng, dims, ((0.0, REGIME_BOUND),) * 2, (-0.5, 0.5))
    triples = _draw_stacks(rng, dims[:n_triples], ((0.0, 0.2), (0.0, 0.2), (0.0, 0.3)),
                           (0.0, 0.25))
    worst = dict.fromkeys(SUITE_TOLS, 0.0)
    for (v, w), m, tau in inputs:      # np.max keeps a nan, which then fails its row
        for name, values in _trial_residuals(v, w, m, tau, tau_sign).items():
            worst[name] = float(np.max(values, initial=worst[name]))
    for (x0, x1, w), m, tau in triples:
        worst["cocycle_composition"] = float(np.max(_cocycle_residuals(x0, x1, w, m, tau),
                                                    initial=worst["cocycle_composition"]))
    counts = dict.fromkeys(SUITE_TOLS, trials)
    counts["cocycle_composition"] = n_triples
    return [(name, counts[name], worst[name], tol, worst[name] < tol)
            for name, tol in SUITE_TOLS.items()]


# The stacked pass: each step runs over a stack of trials of one dimension.

def _draw_stacks(rng, dims, radii, tau_range):
    """One input of dimension d for each d of ``dims``, in the RNG order of
    drawing them one at a time: for each (r_min, r_max) of ``radii`` a uniform
    direction (normalized ``rng.standard_normal(d)``) times
    ``rng.uniform(r_min, r_max)``, then a rotation with the draws and bits of
    the tests' ``random_rotation`` (a QR of a Gaussian d x d matrix, signs
    fixed), then ``rng.uniform(*tau_range)``, which is
    ``a + (b - a) * rng.random()``.  One (points, rotations, tau) per distinct
    d, in increasing d, with that d's inputs in draw order; ``points[j]``
    stacks ``radii[j]``."""
    draws = {d: ([], []) for d in sorted(set(dims))}    # normals, uniforms
    for d in dims:
        normals, uniforms = draws[d]
        for _ in radii:
            normals.append(rng.standard_normal(d))
            uniforms.append(rng.random())
        if d > 1:
            normals.append(rng.standard_normal(d * d))
        uniforms.append(rng.random())
    stacks = []
    low, high = np.array((*radii, tau_range)).T
    for d, (normals, uniforms) in draws.items():
        u = low + (high - low) * np.reshape(uniforms, (-1, len(radii) + 1))
        z = np.concatenate(normals).reshape(len(u), -1)
        points = []
        for j in range(len(radii)):
            unit = z[:, j * d:(j + 1) * d]
            points.append(u[:, j, None] * (unit / np.sqrt(core.row_dot(unit, unit))[:, None]))
        q = np.ones((len(u), 1, 1))
        if d > 1:
            q, r = np.linalg.qr(z[:, len(radii) * d:].reshape(-1, d, d))
            q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
            flip = np.linalg.det(q) < 0
            q[flip, :, 0] = -q[flip, :, 0]
        stacks.append((points, q, u[:, -1]))
    return stacks


def _one(h):
    """The input ``h`` as a stack of one trial: (v, w, tau, m)."""
    return h.v[None], h.w[None], np.array([h.tau]), h.m[None]


def _refuse(bad, exc, message, *values):
    """Raise exc(message) formatted with ``values`` at the first bad trial."""
    if bad.any():
        raise exc(message.format(*(value[np.argmax(bad)] for value in values)))


def _check_inputs(v, w, tau):
    """Refuse the first trial outside the smallness regime, then the first
    with a non-finite tau."""
    nv, nw = np.sqrt(core.row_dot(v, v)), np.sqrt(core.row_dot(w, w))
    _refuse(~(np.maximum(nv, nw) <= REGIME_BOUND), RegimeError,
            "||v|| = {:.4f}, ||w|| = {:.4f}: outside the smallness regime <= "
            f"{REGIME_BOUND}", nv, nw)
    _refuse(~np.isfinite(tau), ValueError, "tau = {}: not a finite number", tau)


def _product(v, w, tau, m):
    """n+(v) n-(w) g_tau m of each trial, after ``_check_inputs``; a rotation
    block that is not orthogonal is refused by ``core.rotation_embed``."""
    _check_inputs(v, w, tau)
    return (core.unipotent_plus(v) @ core.unipotent_minus(w)
            @ core.geodesic_flow(tau, v.shape[1]) @ core.rotation_embed(m))


def _decompose(X):
    """Solve X = n-(y) m g_t n+(x) from the entries of each X of an
    (n, d+2, d+2) stack.

    X[0, 0] = e^t must be above core.DEFAULT_TOL; the first row then gives x,
    the first column gives y, and the middle block gives m after removing the
    rank-one part e^t y x^T.  Returns the stacks (y, m, t, x, residual), with
    each reconstruction residual in max norm.  Raises when a matrix leaves
    the open cell or its extracted m is not orthogonal (X not in SO(Q))."""
    d = X.shape[-1] - 2
    lead = X[:, 0, 0]
    _refuse(~(lead > core.DEFAULT_TOL), core.DegenerateConfigurationError,
            f"leading entry {{}} <= {core.DEFAULT_TOL:g}: matrix outside the N-MAN+ cell",
            lead)
    t = np.log(lead)
    x = X[:, 0, 1:d + 1] / lead[:, None]
    y = X[:, 1:d + 1, 0] / lead[:, None]
    m = X[:, 1:d + 1, 1:d + 1] - X[:, 1:d + 1, :1] * X[:, :1, 1:d + 1] / lead[:, None, None]
    try:
        rotation = core.rotation_embed(m)
    except core.ModelViolationError:
        raise core.ModelViolationError("extracted rotation block not orthogonal; "
                                       "input matrix is not in SO(Q)") from None
    recon = (core.unipotent_minus(y) @ rotation @ core.geodesic_flow(t, d)
             @ core.unipotent_plus(x))
    return y, m, t, x, np.abs(recon - X).max(axis=(1, 2))


def _factor(X):
    """``_decompose`` of a stack of products, refused where a residual exceeds
    ``factorize_product``'s bound."""
    y, m, t, x, residual = _decompose(X)
    bound = np.maximum(core.DEFAULT_TOL, 1e-12 * np.abs(X).max(axis=(1, 2)))
    _refuse(~(residual <= bound), core.ModelViolationError,
            "factorization residual {} exceeds tolerance", residual)
    return y, m, t, x, residual


def _checked_lambda(v, w):
    """lambda(v, w) of each trial, refused where a product leaves the N-MAN+ cell."""
    lam = lambda_fn(v, w)
    _refuse(~(lam > core.DEFAULT_TOL), core.DegenerateConfigurationError,
            "lambda = {}: product outside the N-MAN+ cell", lam)
    return lam


def _row(v, w):
    """v + (||v||^2/2) w of each trial: the N+ numerator; _row(w, v) is the N- one."""
    return v + 0.5 * core.row_dot(v, v)[:, None] * w


def _phi_form(row, tau, m, lam):
    return (np.swapaxes(m, 1, 2) @ row[:, :, None])[:, :, 0] / (np.exp(tau) * lam)[:, None]


def _m_form(v, w, row, col, m, lam):
    mprime = (np.eye(v.shape[1]) + v[:, :, None] * w[:, None, :]
              - col[:, :, None] * row[:, None, :] / lam[:, None, None])
    return mprime @ m


def _closed_forms(v, w, tau, m):
    """lambda and the closed forms (phi, t, y, m') of each trial."""
    lam = _checked_lambda(v, w)
    row, col = _row(v, w), _row(w, v)
    return (lam, _phi_form(row, tau, m, lam), tau + np.log(lam), col / lam[:, None],
            _m_form(v, w, row, col, m, lam))


def _trial_residuals(v, w, m, tau, tau_sign):
    """Each trial's residual of the per-trial properties of ``SUITE_TOLS``."""
    y_out, m_out, t_out, phi, _ = _factor(_product(v, w, tau, m))
    lam, phi_cf, t_cf, y_cf, m_cf = _closed_forms(v, w, tau, m)
    blocks = (core.unipotent_minus(y_out), core.rotation_embed(m_out),
              core.geodesic_flow(t_out, v.shape[1]), core.unipotent_plus(phi))
    return {
        "phi_round_trip": np.abs(phi - phi_cf).max(axis=1),
        "tau_round_trip": np.abs(t_out - tau_sign * t_cf),
        "y_round_trip": np.abs(y_out - y_cf).max(axis=1),
        "m_round_trip": np.abs(m_out - m_cf).max(axis=(1, 2)),
        "block_coherence": np.max([core.so_residual(b) for b in blocks], axis=0),
        "lambda_gap_identity": np.abs(lam - (1.0 + core.row_dot(v, w))
                                      - 0.25 * core.row_dot(v, v) * core.row_dot(w, w)),
    }


def _cocycle_residuals(x0, x1, w, m, tau):
    """Each triple's cocycle residual: factor n+(x0) P, refactor the result
    after n+(x1), and compare with factoring n+(x1 + x0) P directly."""
    y1, m1, t1, phi1, _ = _factor(_product(x0, w, tau, m))
    y2, m2, t2, phi2, _ = _factor(_product(x1, y1, t1, m1))
    yc, mc, tc, phic, _ = _factor(_product(x1 + x0, w, tau, m))
    return np.max([np.abs(t2 - tc), np.abs(y2 - yc).max(axis=1),
                   np.abs(phi2 + phi1 - phic).max(axis=1),
                   np.abs(m2 - mc).max(axis=(1, 2))], axis=0)
