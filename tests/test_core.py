"""Tests for the quadratic-form model: subgroup algebra, metric, Busemann cocycle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limset import core

import oracles


def random_element(rng, d, scale=0.8):
    """Random word n+(x) n-(y) m g_t with moderate parameters."""
    x = scale * rng.standard_normal(d)
    y = scale * rng.standard_normal(d)
    t = float(rng.uniform(-1.0, 1.0))
    m = oracles.random_rotation(d, rng)
    return (core.unipotent_plus(x) @ core.unipotent_minus(y)
            @ core.rotation_embed(m) @ core.geodesic_flow(t, d))


def ray_point(xi, d, T):
    """Point at distance T from o on the geodesic ray toward xi.

    gamma(T) = cosh(T) o + sinh(T) u with u = xi / B(o, xi) - o; then
    Q(u) = -1, B(o, u) = 0, so gamma stays on the sheet and
    d(o, gamma(T)) = T.  Used as the truncated-limit oracle for busemann().
    """
    o = core.basepoint(d)
    xi = np.asarray(xi, dtype=float)
    u = xi / core.bilinear_form(o, xi) - o
    assert abs(core.quadratic_form(u) + 1.0) < 1e-12
    return np.cosh(T) * o + np.sinh(T) * u


# ---------------------------------------------------------------------------
# Form and subgroups
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_gram_matrix_involution(d):
    J = core.gram_matrix(d)
    assert np.array_equal(J @ J, np.eye(d + 2))
    assert core.quadratic_form(core.basepoint(d)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_subgroups_in_so_q(d):
    rng = np.random.default_rng(7 + d)
    for _ in range(20):
        g = random_element(rng, d)
        assert core.so_residual(g) < 1e-12
        assert oracles.in_so_q(g)
    # inverse via J g^T J agrees with the numerical inverse
    g = random_element(rng, d)
    assert np.abs(core.group_inverse(g) - np.linalg.inv(g)).max() < 1e-11


@pytest.mark.parametrize("d", [1, 2, 3])
def test_unipotent_additivity(d):
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal(d), rng.standard_normal(d)
    lhs = core.unipotent_plus(x) @ core.unipotent_plus(y)
    assert np.abs(lhs - core.unipotent_plus(x + y)).max() < 1e-14
    lhs = core.unipotent_minus(x) @ core.unipotent_minus(y)
    assert np.abs(lhs - core.unipotent_minus(x + y)).max() < 1e-14


@pytest.mark.parametrize("d", [1, 2, 3])
def test_flow_conjugates_unipotent(d):
    # g_t n+(x) g_{-t} = n+(e^t x); m n+(x) m^{-1} = n+(m x)
    rng = np.random.default_rng(13)
    x = rng.standard_normal(d)
    t = 0.37
    gt = core.geodesic_flow(t, d)
    conj = gt @ core.unipotent_plus(x) @ core.geodesic_flow(-t, d)
    assert np.abs(conj - core.unipotent_plus(np.exp(t) * x)).max() < 1e-12
    m = oracles.random_rotation(d, rng)
    me = core.rotation_embed(m)
    conj = me @ core.unipotent_plus(x) @ me.T
    assert np.abs(conj - core.unipotent_plus(m @ x)).max() < 1e-12
    # rotations commute with the flow
    assert np.abs(me @ gt - gt @ me).max() < 1e-14


def test_rotation_embed_rejects_nonorthogonal():
    with pytest.raises(core.ModelViolationError):
        core.rotation_embed(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(core.ModelViolationError, match="not orthogonal"):
        core.rotation_embed(np.full((2, 2), np.nan))
    stack = np.tile(np.eye(2), (5, 1, 1))
    stack[3, 0, 1] = np.nan
    with pytest.raises(core.ModelViolationError, match="not orthogonal"):
        core.rotation_embed(stack)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_constructors_of_a_stack_are_the_single_calls(d):
    """Each constructor takes leading stack axes, and each row of a stacked
    call is the single call's matrix bit for bit."""
    rng = np.random.default_rng(40 + d)
    x = rng.uniform(-2.0, 2.0, (50, d))
    t = rng.uniform(-3.0, 3.0, 50)
    m = np.array([oracles.random_rotation(d, rng) for _ in range(50)])
    for f, arg in ((core.unipotent_plus, x), (core.unipotent_minus, x),
                   (lambda a: core.geodesic_flow(a, d), t), (core.rotation_embed, m)):
        stacked = f(arg)
        assert stacked.shape == (50, d + 2, d + 2)
        for row, a in zip(stacked, arg):
            assert row.tobytes() == f(a).tobytes()
        assert f(arg.reshape(5, 10, *arg.shape[1:])).tobytes() == stacked.tobytes()
    for a, s in zip(x, t):      # the single calls keep the bits of their 2-D formulas
        assert core.unipotent_plus(a)[0, -1] == 0.5 * np.dot(a, a)
        flow = np.diag(np.concatenate(([np.exp(s)], np.ones(d), [np.exp(-s)])))
        assert core.geodesic_flow(s, d).tobytes() == flow.tobytes()


# ---------------------------------------------------------------------------
# Chart
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_chart_roundtrip_and_equivariance(d):
    rng = np.random.default_rng(17)
    v = rng.standard_normal(d)
    xi = core.chart_to_boundary(v)
    assert abs(core.quadratic_form(xi)) < 1e-12
    assert np.abs(core.boundary_from_chart(xi) - v).max() < 1e-14
    # n+(y) translates the chart, g_t dilates it, rotations act linearly
    y = rng.standard_normal(d)
    img, ok = core.chart_action(core.unipotent_plus(y), v)
    assert ok.all() and np.abs(img[0] - (v + y)).max() < 1e-12
    img, ok = core.chart_action(core.geodesic_flow(0.6, d), v)
    assert ok.all() and np.abs(img[0] - np.exp(0.6) * v).max() < 1e-12
    m = oracles.random_rotation(d, rng)
    img, ok = core.chart_action(core.rotation_embed(m), v)
    assert ok.all() and np.abs(img[0] - m @ v).max() < 1e-12


def test_chart_infinity():
    e0 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(core.ChartInfinityError):
        core.boundary_from_chart(e0)
    with pytest.raises(core.ChartInfinityError):   # nan is not a chart point
        core.boundary_from_chart(np.array([np.nan, 0.2, np.nan]))
    # n-(y) maps [e_0]... stays at [e_0]?  No: n- fixes iota(0), moves e_0.
    img, ok = core.chart_action(np.eye(3), np.array([[0.5]]))
    assert ok.all()


def test_boundary_equal_projective():
    xi = core.chart_to_boundary(np.array([0.3, -1.2]))
    assert oracles.boundary_equal(xi, -3.7 * xi)
    assert not oracles.boundary_equal(xi, core.chart_to_boundary(np.array([0.3, -1.1])))


# ---------------------------------------------------------------------------
# Metric
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2])
def test_distance_along_flow(d):
    o = core.basepoint(d)
    for t in [0.1, 1.0, 5.0, 25.0]:
        p = core.geodesic_flow(t, d) @ o
        assert oracles.distance(o, p) == pytest.approx(t, abs=1e-9)
    assert oracles.distance(o, o) == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_distance_isometry_invariance(d):
    rng = np.random.default_rng(23)
    o = core.basepoint(d)
    for _ in range(10):
        g = random_element(rng, d)
        h = random_element(rng, d)
        x, y = g @ o, h @ o
        w = random_element(rng, d)
        assert oracles.distance(w @ x, w @ y) == pytest.approx(oracles.distance(x, y), abs=1e-9)


def test_distance_rejects_off_sheet():
    o = core.basepoint(1)
    with pytest.raises(core.ModelViolationError):
        oracles.distance(o, -o)
    with pytest.raises(core.ModelViolationError, match="B\\(x, y\\) = nan"):
        oracles.distance(o, np.array([[1.0, 0.0, 1.0], [np.nan, 0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Busemann cocycle: truncated-limit oracle, cocycle identity, equivariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_busemann_truncated_limit(d):
    # beta_xi(x, y) = lim_T [d(x, gamma(T)) - d(y, gamma(T))] along the ray
    # toward xi; at T = 30 the tail is O(e^{-2T} e^{d(o,x)+d(o,y)}) << 1e-8.
    rng = np.random.default_rng(29 + d)
    for _ in range(25):
        xi = core.chart_to_boundary(rng.uniform(-2.0, 2.0, size=d))
        x = random_element(rng, d, scale=0.5) @ core.basepoint(d)
        y = random_element(rng, d, scale=0.5) @ core.basepoint(d)
        zT = ray_point(xi, d, 30.0)
        truncated = oracles.distance(x, zT) - oracles.distance(y, zT)
        assert core.busemann(xi, x, y) == pytest.approx(truncated, abs=1e-8)


def test_busemann_along_flow_exact():
    # beta at the chart origin iota(0) = [e_{d+1}] direction:  B(x, e_{d+1}) = x_0,
    # so beta_{[e_{d+1}]}(o, g_t o) = log(o_0 / (g_t o)_0) = -t exactly.
    for d in (1, 2):
        o = core.basepoint(d)
        xi = core.chart_to_boundary(np.zeros(d))
        for t in (0.5, 1.0, 2.0):
            p = core.geodesic_flow(t, d) @ o
            assert core.busemann(xi, o, p) == pytest.approx(-t, abs=1e-13)
            assert core.busemann(xi, p, o) == pytest.approx(t, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3]))
def test_busemann_cocycle_and_equivariance(seed, d):
    rng = np.random.default_rng(seed)
    xi = core.chart_to_boundary(rng.uniform(-2.0, 2.0, size=d))
    pts = [random_element(rng, d, scale=0.5) @ core.basepoint(d) for _ in range(3)]
    x, y, z = pts
    coc = core.busemann(xi, x, y) + core.busemann(xi, y, z) - core.busemann(xi, x, z)
    assert abs(coc) < 1e-10
    g = random_element(rng, d, scale=0.5)
    lhs = core.busemann(g @ xi, g @ x, g @ y)
    assert lhs == pytest.approx(core.busemann(xi, x, y), abs=1e-9)


def test_busemann_scale_free_and_degenerate():
    o = core.basepoint(2)
    xi = core.chart_to_boundary(np.array([1.0, 2.0]))
    p = core.unipotent_plus(np.array([0.3, 0.0])) @ o
    assert core.busemann(7.0 * xi, o, p) == core.busemann(xi, o, p)
    with pytest.raises(core.DegenerateConfigurationError):
        core.busemann(-xi, o, p)
    with pytest.raises(core.DegenerateConfigurationError, match="B\\(point, xi\\) <= 0"):
        core.busemann(np.array([np.nan, 0.0, 1.0]), core.basepoint(1), core.basepoint(1))


# ---------------------------------------------------------------------------
# Residuals and drift correction
# ---------------------------------------------------------------------------

def test_project_so_restores_drift():
    rng = np.random.default_rng(31)
    for d in (1, 2):
        g = random_element(rng, d)
        drifted = g * (1.0 + 1e-7) + 1e-8 * rng.standard_normal(g.shape)
        assert core.so_relative_residual(drifted) > 1e-9
        fixed = core.project_so(drifted, tol=1e-9)
        assert core.so_relative_residual(fixed) <= 1e-10
        # projection moves the matrix by about the drift, not more
        assert np.abs(fixed - g).max() < 1e-5


def test_project_so_noop_when_clean():
    g = core.unipotent_plus(np.array([0.4]))
    assert np.array_equal(core.project_so(g), g)


def _inline_level_fix(mats, tol):
    """The drift fix the level cache ran inline before it called project_so."""
    mats = mats.copy()
    bad = core.so_relative_residual(mats) > 0.1 * tol
    if np.any(bad):
        idx = np.nonzero(bad)[0]
        J = core.gram_matrix(mats.shape[-1] - 2)
        fix = mats[idx]
        for _ in range(6):
            fix = 0.5 * (fix + J @ np.linalg.inv(fix).transpose(0, 2, 1) @ J)
            if core.so_relative_residual(fix).max() <= 0.01 * tol:
                break
        mats[idx] = fix
    return mats


def test_project_so_batch_matches_the_inline_level_fix():
    rng = np.random.default_rng(32)
    for d in (1, 2):
        clean = np.stack([random_element(rng, d) for _ in range(12)])
        drift = 10.0 ** rng.uniform(-12, -6, size=(12, 1, 1))
        stack = clean * (1.0 + drift) + drift * rng.standard_normal(clean.shape)
        stack[::3] = clean[::3]                  # some matrices need no fix
        fixed = core.project_so(stack, tol=1e-9)
        assert np.array_equal(fixed, _inline_level_fix(stack, 1e-9))
        assert not np.array_equal(fixed, stack)
        assert np.array_equal(fixed[::3], clean[::3])
        # (..., n, n) stacks and single matrices follow the same rule
        grid = core.project_so(stack.reshape(3, 4, d + 2, d + 2), tol=1e-9)
        assert np.array_equal(grid.reshape(stack.shape), fixed)
        assert np.array_equal(core.project_so(stack[1], tol=1e-9), fixed[1])


def test_parallel_map_refuses_thread_counts_below_one():
    for threads in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            core.parallel_map(abs, [1, 2, 3], threads)
        with pytest.raises(ValueError, match="at least 1"):
            core.parallel_map(abs, [], threads)


def test_exact_integer_residual():
    # an exactly J-orthogonal integer matrix has residual 0 as an integer,
    # even when its float64 defect would be rounding-dominated at large scale
    g1 = np.array([[2, 6, 9], [2, 7, 12], [1, 4, 8]], dtype=float)
    assert oracles.exact_integer_residual(g1) == 0
    g1[0, 0] = 3.0
    assert oracles.exact_integer_residual(g1) > 0
    with pytest.raises(core.ModelViolationError):
        oracles.exact_integer_residual(np.array([[0.5, 0, 1], [0, -1, 0], [1, 0, 0]]))
