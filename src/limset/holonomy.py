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

The phase-linearization error quantifies how well the holonomy phase
exp(i <xi_t, .>) is approximated by its linearization
alpha(t, v) = exp(i (1 + <v, w>) <xi_t, m v>) after flowing for time t
(with xi_t = e^{-t} xi); the discrepancy contracts like e^{-t}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from limset import core

REGIME_BOUND = 0.5
MIN_TRIALS = 10     # the fewest trials property_suite runs


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
        if np.linalg.norm(v) > REGIME_BOUND or np.linalg.norm(w) > REGIME_BOUND:
            raise RegimeError(
                f"||v|| = {np.linalg.norm(v):.4f}, ||w|| = {np.linalg.norm(w):.4f}: "
                f"outside the smallness regime <= {REGIME_BOUND}")

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
    if lam <= core.DEFAULT_TOL:
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
    residual in max norm.  Raises for X outside the open cell (X[0,0] <= core.DEFAULT_TOL)
    or when the extracted m is not orthogonal (X not in SO(Q)).
    """
    X = np.asarray(X, dtype=float)
    d = X.shape[0] - 2
    lead = X[0, 0]
    if lead <= core.DEFAULT_TOL:
        raise core.DegenerateConfigurationError(
            f"leading entry {lead} <= {core.DEFAULT_TOL:g}: matrix outside the N-MAN+ cell")
    t = np.log(lead)
    x = X[0, 1:d + 1] / lead
    y = X[1:d + 1, 0] / lead
    m = X[1:d + 1, 1:d + 1] - np.outer(X[1:d + 1, 0], X[0, 1:d + 1]) / lead
    if np.abs(m.T @ m - np.eye(d)).max() > 1e3 * core.DEFAULT_TOL:
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
    if t < 0:
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


def _random_ball_point(rng, d, r_min, r_max):
    """Uniform direction in R^d, radius uniform in [r_min, r_max]."""
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    return rng.uniform(r_min, r_max) * u


def random_regime_input(rng, d, w_min=0.0):
    """Random HolonomyInput: ||v|| <= 1/2, ||w|| in [w_min, 1/2], |tau| <= 1/2."""
    return HolonomyInput(v=_random_ball_point(rng, d, 0.0, REGIME_BOUND),
                         w=_random_ball_point(rng, d, w_min, REGIME_BOUND),
                         m=core.random_rotation(d, rng),
                         tau=float(rng.uniform(-0.5, 0.5)))


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
    then each dimension runs as one stacked pass with the scalar checks.

    ``tau_sign`` multiplies the closed-form flow component before its round
    trip: -1 is a deliberate negative control under which the suite fails.
    Returns one row (name, trials, max_residual, tol, passed) per entry of
    ``SUITE_TOLS``, in order.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    rng = np.random.default_rng(seed)
    n_triples = max(trials // 10, 1)
    inputs = _draw_stacks(rng, trials, ((0.0, REGIME_BOUND),) * 2, (-0.5, 0.5))
    triples = _draw_stacks(rng, n_triples, ((0.0, 0.2), (0.0, 0.2), (0.0, 0.3)), (0.0, 0.25))
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


# The stacked pass: each helper runs a scalar step above over a stack of trials
# of one dimension, with its checks and messages; the scalar code is its oracle.

def _draw_stacks(rng, count, radii, tau_range):
    """``count`` inputs, d cycling 1..3, in the RNG order of ``count`` scalar
    draws of one ``_random_ball_point`` per (r_min, r_max) of ``radii``,
    ``core.random_rotation`` and ``rng.uniform(*tau_range)``, which is
    ``a + (b - a) * rng.random()``.  One (points, rotations, tau) per d drawn,
    bit for bit the scalar draws; ``points[j]`` stacks ``radii[j]``."""
    draws = {d: ([], []) for d in (1, 2, 3)}    # normals, uniforms
    for i in range(count):
        d = 1 + i % 3
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
        if not uniforms:
            continue
        u = low + (high - low) * np.reshape(uniforms, (-1, len(radii) + 1))
        z = np.concatenate(normals).reshape(len(u), -1)
        points = []
        for j in range(len(radii)):
            unit = z[:, j * d:(j + 1) * d]
            points.append(u[:, j, None] * (unit / np.sqrt(_dot(unit, unit))[:, None]))
        q = np.ones((len(u), 1, 1))
        if d > 1:
            q, r = np.linalg.qr(z[:, len(radii) * d:].reshape(-1, d, d))
            q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
            flip = np.linalg.det(q) < 0
            q[flip, :, 0] = -q[flip, :, 0]
        stacks.append((points, q, u[:, -1]))
    return stacks


def _dot(a, b):
    """Row-wise <a, b> of (n, d) stacks, with the bits of a 1-D ``a @ b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _refuse(bad, exc, message, *values):
    """Raise exc(message) formatted with ``values`` at the first bad trial."""
    if bad.any():
        raise exc(message.format(*(value[np.argmax(bad)] for value in values)))


def _plus_stack(x, minus=False):
    """``core.unipotent_plus`` (or ``unipotent_minus``) of each row of an (n, d) stack."""
    n, d = x.shape
    g = np.tile(np.eye(d + 2), (n, 1, 1))
    g[:, 0, 1:d + 1] = x
    g[:, 0, d + 1] = 0.5 * _dot(x, x)
    g[:, 1:d + 1, d + 1] = x
    return np.swapaxes(g, 1, 2) if minus else g


def _flow_stack(t, d):
    g = np.tile(np.eye(d + 2), (len(t), 1, 1))
    g[:, 0, 0], g[:, -1, -1] = np.exp(t), np.exp(-t)
    return g


def _rotation_stack(m, message="rotation block is not orthogonal within tolerance"):
    """``core.rotation_embed`` over a stack, after its orthogonality check."""
    defect = np.abs(np.swapaxes(m, 1, 2) @ m - np.eye(m.shape[-1])).max(axis=(1, 2))
    _refuse(defect > 1e3 * core.DEFAULT_TOL, core.ModelViolationError, message)
    n, d, _ = m.shape
    g = np.tile(np.eye(d + 2), (n, 1, 1))
    g[:, 1:d + 1, 1:d + 1] = m
    return g


def _product_stack(v, w, tau, m):
    """``assemble_product`` over a stack, after ``HolonomyInput``'s regime check."""
    nv, nw = np.sqrt(_dot(v, v)), np.sqrt(_dot(w, w))
    _refuse((nv > REGIME_BOUND) | (nw > REGIME_BOUND), RegimeError,
            "||v|| = {:.4f}, ||w|| = {:.4f}: outside the smallness regime <= "
            f"{REGIME_BOUND}", nv, nw)
    return (_plus_stack(v) @ _plus_stack(w, minus=True) @ _flow_stack(tau, v.shape[1])
            @ _rotation_stack(m))


def _factor_stack(X):
    """``decompose_nmak`` over a stack of products, then ``factorize_product``'s
    residual bound.  Returns the stacks (y_out, m_out, t_out, phi)."""
    d = X.shape[-1] - 2
    lead = X[:, 0, 0]
    _refuse(lead <= core.DEFAULT_TOL, core.DegenerateConfigurationError,
            f"leading entry {{}} <= {core.DEFAULT_TOL:g}: matrix outside the N-MAN+ cell",
            lead)
    t = np.log(lead)
    x = X[:, 0, 1:d + 1] / lead[:, None]
    y = X[:, 1:d + 1, 0] / lead[:, None]
    m = X[:, 1:d + 1, 1:d + 1] - X[:, 1:d + 1, :1] * X[:, :1, 1:d + 1] / lead[:, None, None]
    rotation = _rotation_stack(m, "extracted rotation block not orthogonal; "
                                  "input matrix is not in SO(Q)")
    recon = _plus_stack(y, minus=True) @ rotation @ _flow_stack(t, d) @ _plus_stack(x)
    residual = np.abs(recon - X).max(axis=(1, 2))
    bound = np.maximum(core.DEFAULT_TOL, 1e-12 * np.abs(X).max(axis=(1, 2)))
    _refuse(residual > bound, core.ModelViolationError,
            "factorization residual {} exceeds tolerance", residual)
    return y, m, t, x


def _closed_forms_stack(v, w, tau, m):
    """lambda and the closed forms (phi, t, y, m') of a stack, after ``_cell_lambda``'s check."""
    vv, ww = _dot(v, v), _dot(w, w)
    lam = 1.0 + _dot(v, w) + 0.25 * vv * ww
    _refuse(lam <= core.DEFAULT_TOL, core.DegenerateConfigurationError,
            "lambda = {}: product outside the N-MAN+ cell", lam)
    row = v + 0.5 * vv[:, None] * w
    col = w + 0.5 * ww[:, None] * v
    phi = (np.swapaxes(m, 1, 2) @ row[:, :, None])[:, :, 0] / (np.exp(tau) * lam)[:, None]
    mprime = (np.eye(v.shape[1]) + v[:, :, None] * w[:, None, :]
              - col[:, :, None] * row[:, None, :] / lam[:, None, None])
    return lam, phi, tau + np.log(lam), col / lam[:, None], mprime @ m


def _trial_residuals(v, w, m, tau, tau_sign):
    """Each trial's residual of the per-trial properties of ``SUITE_TOLS``."""
    y_out, m_out, t_out, phi = _factor_stack(_product_stack(v, w, tau, m))
    lam, phi_cf, t_cf, y_cf, m_cf = _closed_forms_stack(v, w, tau, m)
    blocks = (_plus_stack(y_out, minus=True), _rotation_stack(m_out),
              _flow_stack(t_out, v.shape[1]), _plus_stack(phi))
    return {
        "phi_round_trip": np.abs(phi - phi_cf).max(axis=1),
        "tau_round_trip": np.abs(t_out - tau_sign * t_cf),
        "y_round_trip": np.abs(y_out - y_cf).max(axis=1),
        "m_round_trip": np.abs(m_out - m_cf).max(axis=(1, 2)),
        "block_coherence": np.max([core.so_residual(b) for b in blocks], axis=0),
        "lambda_gap_identity": np.abs(lam - (1.0 + _dot(v, w)) - 0.25 * _dot(v, v) * _dot(w, w)),
    }


def _cocycle_residuals(x0, x1, w, m, tau):
    """Each triple's cocycle residual: factor n+(x0) P, refactor the result
    after n+(x1), and compare with factoring n+(x1 + x0) P directly."""
    y1, m1, t1, phi1 = _factor_stack(_product_stack(x0, w, tau, m))
    y2, m2, t2, phi2 = _factor_stack(_product_stack(x1, y1, t1, m1))
    yc, mc, tc, phic = _factor_stack(_product_stack(x1 + x0, w, tau, m))
    return np.max([np.abs(t2 - tc), np.abs(y2 - yc).max(axis=1),
                   np.abs(phi2 + phi1 - phic).max(axis=1),
                   np.abs(m2 - mc).max(axis=(1, 2))], axis=0)
