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

    ``tau_sign`` multiplies the closed-form flow component before its round
    trip: -1 is a deliberate negative control under which the suite fails.
    Returns one row (name, trials, max_residual, tol, passed) per entry of
    ``SUITE_TOLS``, in order.
    """
    if trials < 10:
        raise ValueError(f"need at least 10 trials, got {trials}")
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(SUITE_TOLS, 0.0)
    for i in range(trials):
        h = random_regime_input(rng, 1 + i % 3)
        res = factorize_product(h.v, h.w, h.tau, h.m)
        blocks = (core.unipotent_minus(res.y_out),
                  core.rotation_embed(res.m_out),
                  core.geodesic_flow(res.t_out, h.d),
                  core.unipotent_plus(res.phi))
        gap = (lambda_fn(h.v, h.w) - lambda_linear(h.v, h.w)
               - 0.25 * float(h.v @ h.v) * float(h.w @ h.w))
        residuals = {
            "phi_round_trip": float(np.abs(res.phi - phi_closed_form(h)).max()),
            "tau_round_trip": abs(res.t_out - tau_sign * tau_closed_form(h)),
            "y_round_trip": float(np.abs(res.y_out - y_closed_form(h)).max()),
            "m_round_trip": float(np.abs(res.m_out - m_closed_form(h)).max()),
            "block_coherence": max(core.so_residual(b) for b in blocks),
            "lambda_gap_identity": abs(gap),
        }
        for name, value in residuals.items():
            worst[name] = max(worst[name], value)
    n_triples = max(trials // 10, 1)
    for i in range(n_triples):
        d = 1 + i % 3
        x0 = _random_ball_point(rng, d, 0.0, 0.2)
        x1 = _random_ball_point(rng, d, 0.0, 0.2)
        w = _random_ball_point(rng, d, 0.0, 0.3)
        m = core.random_rotation(d, rng)
        tau = float(rng.uniform(0.0, 0.25))
        r1 = factorize_product(x0, w, tau, m)
        r2 = factorize_product(x1, r1.y_out, r1.t_out, r1.m_out)
        comb = factorize_product(x1 + x0, w, tau, m)
        resid = max(abs(r2.t_out - comb.t_out),
                    float(np.abs(r2.y_out - comb.y_out).max()),
                    float(np.abs(r2.phi + r1.phi - comb.phi).max()),
                    float(np.abs(r2.m_out - comb.m_out).max()))
        worst["cocycle_composition"] = max(worst["cocycle_composition"], resid)
    counts = dict.fromkeys(SUITE_TOLS, trials)
    counts["cocycle_composition"] = n_triples
    return [(name, counts[name], worst[name], tol, worst[name] < tol)
            for name, tol in SUITE_TOLS.items()]
