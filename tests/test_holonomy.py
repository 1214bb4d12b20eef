"""Tests for the N-MAN+ factorization, closed forms, and phase linearization
(the last an oracle of ``tests/oracles.py``)."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limset import core, holonomy

import oracles


def make_input(v, w, m=None, tau=0.0):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if m is None:
        m = np.eye(v.shape[0])
    return holonomy.HolonomyInput(v=v, w=np.atleast_1d(np.asarray(w, dtype=float)),
                                  m=m, tau=tau)


# ---------------------------------------------------------------------------
# lambda
# ---------------------------------------------------------------------------

def test_lambda_values():
    assert holonomy.lambda_fn(np.zeros(2), np.array([0.3, 0.1])) == 1.0
    # orthogonal half-norm vectors: middle term dies, quartic term is 1/64
    v, w = np.array([0.5, 0.0]), np.array([0.0, 0.5])
    assert holonomy.lambda_fn(v, w) == pytest.approx(1.015625, abs=0)
    assert oracles.lambda_linear(v, w) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_lambda_symmetry_and_linear_gap(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    v, w = 0.5 * rng.uniform(-1, 1, d), 0.5 * rng.uniform(-1, 1, d)
    assert holonomy.lambda_fn(v, w) == holonomy.lambda_fn(w, v)
    gap = holonomy.lambda_fn(v, w) - oracles.lambda_linear(v, w)
    assert gap == pytest.approx(0.25 * (v @ v) * (w @ w), abs=1e-15)


# ---------------------------------------------------------------------------
# Closed forms: trivial cases
# ---------------------------------------------------------------------------

def test_phi_trivial_cases():
    v = np.array([0.3, -0.2])
    h = make_input(v, np.zeros(2))
    assert np.abs(holonomy.phi_closed_form(h) - v).max() == 0.0
    h = make_input(v, np.zeros(2), tau=0.7)
    assert np.abs(holonomy.phi_closed_form(h) - np.exp(-0.7) * v).max() < 1e-15


def test_tau_trivial_and_orthogonal():
    h = make_input(np.zeros(2), np.array([0.4, 0.1]), tau=0.3)
    assert holonomy.tau_closed_form(h) == pytest.approx(0.3, abs=0)
    # orthogonal half-norm case: t_out = log(1.015625); the sign is pinned by
    # the matrix factorization below (leading entry of the product is
    # lambda e^tau = e^{t_out}), and lambda > 1 here
    h = make_input(np.array([0.5, 0.0]), np.array([0.0, 0.5]))
    expected = np.log(1.015625)
    assert expected == pytest.approx(0.0155042, abs=5e-8)
    assert holonomy.tau_closed_form(h) == pytest.approx(expected, abs=0)
    res = holonomy.factorize_product(h.v, h.w)
    assert res.t_out == pytest.approx(expected, abs=1e-14)


def test_factorize_trivial_cases():
    res = holonomy.factorize_product(np.zeros(2), np.zeros(2), tau=0.45)
    assert np.all(res.y_out == 0.0) and np.all(res.phi == 0.0)
    assert res.t_out == pytest.approx(0.45, abs=1e-15)
    assert np.abs(res.m_out - np.eye(2)).max() < 1e-15
    # y = 0: conjugation by AM only
    rng = np.random.default_rng(3)
    m = oracles.random_rotation(3, rng)
    x = np.array([0.2, -0.1, 0.3])
    res = holonomy.factorize_product(x, np.zeros(3), tau=0.6, m=m)
    assert res.t_out == pytest.approx(0.6, abs=1e-12)
    assert np.abs(res.phi - np.exp(-0.6) * (m.T @ x)).max() < 1e-12
    assert np.abs(res.y_out).max() < 1e-14


# ---------------------------------------------------------------------------
# Round trip: closed forms against the matrix factorization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_round_trip_matches_closed_forms(d):
    rng = np.random.default_rng(101 + d)
    for _ in range(300):
        h = holonomy.random_regime_input(rng, d)
        res = holonomy.factorize_product(h.v, h.w, h.tau, h.m)
        assert res.residual < 1e-10
        assert np.abs(res.phi - holonomy.phi_closed_form(h)).max() < 1e-10
        assert abs(res.t_out - holonomy.tau_closed_form(h)) < 1e-10
        assert np.abs(res.y_out - holonomy.y_closed_form(h)).max() < 1e-10
        assert np.abs(res.m_out - holonomy.m_closed_form(h)).max() < 1e-10


def test_factor_blocks_are_group_elements():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        h = holonomy.random_regime_input(rng, d)
        res = holonomy.factorize_product(h.v, h.w, h.tau, h.m)
        for block in (core.unipotent_minus(res.y_out),
                      core.rotation_embed(res.m_out),
                      core.geodesic_flow(res.t_out, d),
                      core.unipotent_plus(res.phi)):
            assert core.so_residual(block) < 1e-12


def test_cocycle_composition():
    # factor n+(x0) P, then hit the result with n+(x1): stepwise refactoring
    # agrees with factoring n+(x1 + x0) P directly
    rng = np.random.default_rng(9)
    for d in (1, 2):
        x0, x1 = 0.2 * rng.standard_normal(d), 0.2 * rng.standard_normal(d)
        w = 0.3 * rng.standard_normal(d)
        m = oracles.random_rotation(d, rng)
        tau = 0.25
        r1 = holonomy.factorize_product(x0, w, tau, m)
        r2 = holonomy.factorize_product(x1, r1.y_out, r1.t_out, r1.m_out)
        combined = holonomy.factorize_product(x1 + x0, w, tau, m)
        assert abs(r2.t_out - combined.t_out) < 1e-8
        assert np.abs(r2.y_out - combined.y_out).max() < 1e-8
        assert np.abs(r2.phi + r1.phi - combined.phi).max() < 1e-8
        assert np.abs(r2.m_out - combined.m_out).max() < 1e-8


# ---------------------------------------------------------------------------
# Errors and regime enforcement
# ---------------------------------------------------------------------------

def test_regime_enforced():
    with pytest.raises(holonomy.RegimeError):
        make_input(np.array([0.6, 0.0]), np.zeros(2))
    with pytest.raises(holonomy.RegimeError):
        holonomy.factorize_product(np.array([0.1]), np.array([0.9]))


def test_decompose_outside_cell():
    J = core.gram_matrix(1)  # J[0,0] = 0: on the boundary of the cell
    with pytest.raises(core.DegenerateConfigurationError):
        holonomy._factor(J[None])
    with pytest.raises(core.ModelViolationError):
        holonomy._factor(np.diag([1.0, 2.0, 1.0])[None])  # not in SO(Q)


# ---------------------------------------------------------------------------
# Phase linearization
# ---------------------------------------------------------------------------

def test_linearization_exact_when_w_zero():
    rng = np.random.default_rng(21)
    for d in (1, 2, 3):
        v = 0.4 * rng.standard_normal(d)
        v *= min(1.0, 0.49 / np.linalg.norm(v))
        h = make_input(v, np.zeros(d), m=oracles.random_rotation(d, rng), tau=0.3)
        xi = rng.uniform(1.0, 8.0) * rng.standard_normal(d)
        for t in (0.0, 2.0, 7.0):
            assert oracles.linearization_error(h, xi, t) < 1e-12


def test_linearization_decay_ratio():
    rng = np.random.default_rng(23)
    for d in (1, 2):
        for _ in range(20):
            h = holonomy.random_regime_input(rng, d, w_min=0.1)
            xi = rng.uniform(1.0, 8.0) * (lambda u: u / np.linalg.norm(u))(rng.standard_normal(d))
            e5 = oracles.linearization_error(h, xi, 5.0)
            if e5 < 1e-13:
                continue  # phases coincide to rounding; ratio is 0/0 noise
            e10 = oracles.linearization_error(h, xi, 10.0)
            assert e10 / e5 <= 3.0 * np.exp(-5.0)


def test_linearization_pure_exponential_profile():
    # error(t) = 2 |sin(C e^{-t}/2)|, so error(8)/error(5) = e^{-3} up to
    # the O((C e^{-5})^2) sine correction
    h = make_input(np.array([0.3, 0.1]), np.array([-0.2, 0.35]), tau=0.2)
    xi = np.array([4.0, -2.5])
    e5 = oracles.linearization_error(h, xi, 5.0)
    e8 = oracles.linearization_error(h, xi, 8.0)
    assert e8 / e5 == pytest.approx(np.exp(-3.0), rel=1e-3)


def test_linearization_shrinks_with_w():
    v = np.array([0.25, 0.35])
    w_dir = np.array([0.8, -0.6])
    xi = np.array([5.0, 3.0])
    errs = []
    for s in (0.4, 0.2, 0.1):
        h = make_input(v, s * w_dir, tau=0.15)
        errs.append(oracles.linearization_error(h, xi, 3.0))
    assert errs[0] > errs[1] > errs[2] > 0.0


def test_linearization_rejects_negative_time():
    h = make_input(np.array([0.1]), np.array([0.1]))
    with pytest.raises(ValueError):
        oracles.linearization_error(h, np.array([1.0]), -1.0)


# ---------------------------------------------------------------------------
# The stacked suite against the scalar oracle
# ---------------------------------------------------------------------------

#: Largest |stacked - scalar| allowed for any per-trial or per-triple residual:
#: the size of the suite's largest residual.  The stacked pass sums the same
#: products through stacked matmuls where the scalar path calls dot and gemv;
#: a BLAS that orders them differently may move a residual by a few ulps.
ORACLE_BOUND = 2e-15
TRIAL_RADII = ((0.0, holonomy.REGIME_BOUND),) * 2
TRIPLE_RADII = ((0.0, 0.2), (0.0, 0.2), (0.0, 0.3))


def scalar_draws(rng, trials):
    """The suite's inputs drawn one at a time by the per-trial oracle:
    ``trials`` regime inputs, then trials // 10 cocycle triples (x0, x1, w, m, tau)."""
    inputs = [oracles.random_regime_input(rng, 1 + i % 3) for i in range(trials)]
    triples = []
    for i in range(max(trials // 10, 1)):
        d = 1 + i % 3
        triples.append((oracles._random_ball_point(rng, d, 0.0, 0.2),
                        oracles._random_ball_point(rng, d, 0.0, 0.2),
                        oracles._random_ball_point(rng, d, 0.0, 0.3),
                        oracles.random_rotation(d, rng), float(rng.uniform(0.0, 0.25))))
    return inputs, triples


def cycling(count):
    return [1 + i % 3 for i in range(count)]


def stacked_draws(rng, trials):
    return (holonomy._draw_stacks(rng, cycling(trials), TRIAL_RADII, (-0.5, 0.5)),
            holonomy._draw_stacks(rng, cycling(max(trials // 10, 1)), TRIPLE_RADII, (0.0, 0.25)))


def scalar_trial_residuals(h):
    """One trial's per-trial residuals under each tau_sign, from the oracle's
    factorize_product and closed forms."""
    res = oracles.factorize_product(h.v, h.w, h.tau, h.m)
    blocks = (core.unipotent_minus(res.y_out), core.rotation_embed(res.m_out),
              core.geodesic_flow(res.t_out, h.d), core.unipotent_plus(res.phi))
    gap = (oracles.lambda_fn(h.v, h.w) - oracles.lambda_linear(h.v, h.w)
           - 0.25 * float(h.v @ h.v) * float(h.w @ h.w))
    common = {
        "phi_round_trip": float(np.abs(res.phi - oracles.phi_closed_form(h)).max()),
        "y_round_trip": float(np.abs(res.y_out - oracles.y_closed_form(h)).max()),
        "m_round_trip": float(np.abs(res.m_out - oracles.m_closed_form(h)).max()),
        "block_coherence": max(core.so_residual(b) for b in blocks),
        "lambda_gap_identity": abs(gap),
    }
    tau_cf = oracles.tau_closed_form(h)
    return {sign: {**common, "tau_round_trip": abs(res.t_out - sign * tau_cf)}
            for sign in (1.0, -1.0)}


def scalar_cocycle_residual(x0, x1, w, m, tau):
    r1 = oracles.factorize_product(x0, w, tau, m)
    r2 = oracles.factorize_product(x1, r1.y_out, r1.t_out, r1.m_out)
    comb = oracles.factorize_product(x1 + x0, w, tau, m)
    return max(abs(r2.t_out - comb.t_out), float(np.abs(r2.y_out - comb.y_out).max()),
               float(np.abs(r2.phi + r1.phi - comb.phi).max()),
               float(np.abs(r2.m_out - comb.m_out).max()))


def same_bits(stack, scalars):
    expected = np.array(scalars, dtype=float)
    return stack.shape == expected.shape and stack.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_stacked_draws_equal_scalar_draws(seed):
    """The suite's inputs, drawn first, are today's draws bit for bit, in the
    same RNG order: the regime inputs (Haar rotations included), then the
    cocycle triples; both generators end in the same state."""
    scalar_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    inputs, triples = scalar_draws(scalar_rng, 601)
    stacks, triple_stacks = stacked_draws(rng, 601)
    assert rng.bit_generator.state == scalar_rng.bit_generator.state
    for d, ((v, w), m, tau) in zip((1, 2, 3), stacks):
        scalar = inputs[d - 1::3]
        assert same_bits(v, [h.v for h in scalar]) and same_bits(w, [h.w for h in scalar])
        assert same_bits(m, [h.m for h in scalar]) and same_bits(tau, [h.tau for h in scalar])
    for d, (points, m, tau) in zip((1, 2, 3), triple_stacks):
        scalar = triples[d - 1::3]
        for j, stack in enumerate(points):
            assert same_bits(stack, [t[j] for t in scalar])
        assert same_bits(m, [t[3] for t in scalar]) and same_bits(tau, [t[4] for t in scalar])


@pytest.mark.parametrize("seed", range(21))
def test_stacked_suite_matches_scalar_oracle(seed):
    """Each trial's six residuals and each triple's cocycle residual agree with
    the scalar loop within ORACLE_BOUND, and every row of property_suite
    equals the oracle's suite: the same passed verdicts, and under the
    tau_sign = -1 control only tau_round_trip fails."""
    trials = 2000
    inputs, triples = scalar_draws(np.random.default_rng(seed), trials)
    stacks, triple_stacks = stacked_draws(np.random.default_rng(seed), trials)
    worst = {sign: dict.fromkeys(holonomy.SUITE_TOLS, 0.0) for sign in (1.0, -1.0)}
    for d, ((v, w), m, tau) in zip((1, 2, 3), stacks):
        stacked = {sign: holonomy._trial_residuals(v, w, m, tau, sign) for sign in worst}
        for k, h in enumerate(inputs[d - 1::3]):
            for sign, residuals in scalar_trial_residuals(h).items():
                for name, value in residuals.items():
                    assert abs(stacked[sign][name][k] - value) <= ORACLE_BOUND, (name, k)
                    worst[sign][name] = max(worst[sign][name], value)
    for d, (points, m, tau) in zip((1, 2, 3), triple_stacks):
        stacked = holonomy._cocycle_residuals(*points, m, tau)
        for k, triple in enumerate(triples[d - 1::3]):
            value = scalar_cocycle_residual(*triple)
            assert abs(stacked[k] - value) <= ORACLE_BOUND, k
            for sign in worst:
                worst[sign]["cocycle_composition"] = max(
                    worst[sign]["cocycle_composition"], value)
    for sign, oracle in worst.items():
        rows = holonomy.property_suite(trials, seed, tau_sign=sign)
        assert [r[0] for r in rows] == list(holonomy.SUITE_TOLS)
        for name, count, value, tol, passed in rows:
            assert abs(value - oracle[name]) <= ORACLE_BOUND, name
            assert passed == (oracle[name] < tol), name
        failing = {name for name, *_, passed in rows if not passed}
        assert failing == (set() if sign > 0 else {"tau_round_trip"})


BAD = 17    # the one bad trial of each crafted stack


def good_stack(d=2, n=40):
    """n regime inputs of dimension d: (v, w, m, tau) stacks."""
    (v, w), m, tau = holonomy._draw_stacks(np.random.default_rng(3), [d] * n,
                                           TRIAL_RADII, (-0.5, 0.5))[0]
    return v, w, m, tau


def refusal(call):
    """(class, message) that ``call`` raises."""
    with pytest.raises(ValueError) as err:
        call()
    return type(err.value), str(err.value)


def test_stacked_checks_refuse_one_bad_trial():
    """Each check of the per-trial oracle refuses a stack holding one bad trial
    among good ones, with the oracle's class and message: the regime bound,
    the orthogonality of rotation_embed's input, the cell's leading entry, the
    orthogonality of the extracted block, the factorization residual bound
    and lambda.  factorize_product gives the same refusals."""
    v, w, m, tau = good_stack()
    X = holonomy._product(v, w, tau, m)
    holonomy._factor(X)
    holonomy._closed_forms(v, w, tau, m)

    far = v.copy()
    far[BAD] = [0.6, 0.0]
    expected = refusal(lambda: oracles.factorize_product(far[BAD], w[BAD], tau[BAD], m[BAD]))
    assert expected[0] is holonomy.RegimeError
    assert refusal(lambda: holonomy._product(far, w, tau, m)) == expected
    assert refusal(lambda: holonomy.factorize_product(
        far[BAD], w[BAD], tau[BAD], m[BAD])) == expected

    skew = m.copy()
    skew[BAD] = np.diag([1.0, 2.0])
    expected = refusal(lambda: oracles.factorize_product(v[BAD], w[BAD], tau[BAD], skew[BAD]))
    assert refusal(lambda: holonomy._product(v, w, tau, skew)) == expected
    assert refusal(lambda: holonomy.factorize_product(
        v[BAD], w[BAD], tau[BAD], skew[BAD])) == expected

    for bad, exc in ((core.gram_matrix(2), core.DegenerateConfigurationError),
                     (np.diag([1.0, 2.0, 1.0, 1.0]), core.ModelViolationError)):
        crafted = X.copy()
        crafted[BAD] = bad
        expected = refusal(lambda: oracles.decompose_nmak(bad))
        assert expected[0] is exc
        assert refusal(lambda: holonomy._factor(crafted)) == expected

    drifted = X.copy()
    drifted[BAD, -1, -1] += 1e-6     # outside the entries the factors are read from
    *_, residual = oracles.decompose_nmak(drifted[BAD])
    exc, message = refusal(lambda: holonomy._factor(drifted))
    assert exc is core.ModelViolationError
    assert message.startswith("factorization residual ") and message.endswith(" exceeds tolerance")
    assert abs(float(message.split()[2]) - residual) <= ORACLE_BOUND

    antipodal_v, antipodal_w = v.copy(), w.copy()
    antipodal_v[BAD], antipodal_w[BAD] = [2.0, 0.0], [-1.0, 0.0]    # lambda = 0
    cell = types.SimpleNamespace(v=antipodal_v[BAD], w=antipodal_w[BAD])
    expected = refusal(lambda: oracles._cell_lambda(cell))
    assert expected[0] is core.DegenerateConfigurationError
    assert refusal(lambda: holonomy._closed_forms(antipodal_v, antipodal_w, tau, m)) == expected


NAN = float("nan")


def test_nan_inputs_are_refused():
    """A nan fails every check of the factorization, for one input and for a
    stack with one nan trial among good ones, which raises that trial's
    one-input message."""
    eye = np.eye(2)
    with pytest.raises(holonomy.RegimeError, match=r"\|\|v\|\| = nan"):
        holonomy.factorize_product([NAN, 0.1], [0.1, 0.2], 0.1, eye)
    with pytest.raises(ValueError, match="tau = nan: not a finite number"):
        holonomy.HolonomyInput(v=[0.1], w=[0.1], m=np.eye(1), tau=NAN)
    for X in (np.full((4, 4), NAN), core.unipotent_plus([0.1, NAN])):
        # an all-nan matrix fails the leading entry; a nan in the first row
        # passes it and fails the extracted block's orthogonality
        pytest.raises(core.GeometryError, holonomy._factor, X[None])
    h = make_input([0.1], [0.1])
    with pytest.raises(ValueError, match="t must be nonnegative"):
        oracles.linearization_error(h, [1.0], NAN)
    with pytest.raises(core.DegenerateConfigurationError, match="lambda = nan"):
        holonomy._closed_forms(np.array([[NAN]]), np.array([[0.1]]), np.zeros(1), np.eye(1)[None])

    v, w, m, tau = good_stack()
    X = holonomy._product(v, w, tau, m)
    for name, call in (("v", lambda a: holonomy._product(a, w, tau, m)),
                       ("tau", lambda a: holonomy._product(v, w, a, m)),
                       ("m", lambda a: holonomy._product(v, w, tau, a))):
        arg = {"v": v, "tau": tau, "m": m}[name].copy()
        arg[BAD] = NAN
        one = {"v": v[BAD], "w": w[BAD], "m": m[BAD], "tau": tau[BAD], name: arg[BAD]}
        assert refusal(lambda: call(arg)) == refusal(
            lambda: holonomy.factorize_product(one["v"], one["w"], one["tau"], one["m"]))
    for entry in ((0, 0), (0, 1), (3, 3)):      # lead, extracted block, residual
        crafted = X.copy()
        crafted[(BAD, *entry)] = NAN
        exc, message = refusal(lambda: holonomy._factor(crafted))
        assert (exc, message) == refusal(lambda: holonomy._factor(crafted[BAD:BAD + 1]))
        if entry == (3, 3):
            assert message == "factorization residual nan exceeds tolerance"
    nan_w = w.copy()
    nan_w[BAD] = NAN
    assert refusal(lambda: holonomy._closed_forms(v, nan_w, tau, m)) == refusal(
        lambda: holonomy._closed_forms(*(a[BAD:BAD + 1] for a in (v, nan_w, tau, m))))


def test_oracle_refuses_nan_as_the_stack_of_one_does():
    """The per-trial oracle and the stacked step, given one trial, refuse the
    same nan inputs with the same class and message: a nan leading entry, a
    nan in the first row (the extracted block), and a nan lambda."""
    v, w, m, tau = good_stack(n=1)
    X = holonomy._product(v, w, tau, m)[0]
    for entry in ((0, 0), (0, 1)):
        crafted = X.copy()
        crafted[entry] = NAN
        expected = refusal(lambda: oracles.decompose_nmak(crafted))
        assert expected[0] in (core.DegenerateConfigurationError, core.ModelViolationError)
        assert refusal(lambda: holonomy._factor(crafted[None])) == expected, entry
    for name in ("v", "w"):
        nan = {"v": v.copy(), "w": w.copy()}
        nan[name][0, 0] = NAN
        cell = types.SimpleNamespace(v=nan["v"][0], w=nan["w"][0])
        expected = refusal(lambda: oracles._cell_lambda(cell))
        assert expected == (core.DegenerateConfigurationError,
                            "lambda = nan: product outside the N-MAN+ cell")
        assert refusal(lambda: holonomy._closed_forms(nan["v"], nan["w"], tau, m)) == expected


@pytest.mark.parametrize("d", [1, 2, 3])
def test_functions_of_one_input_match_the_oracle(d):
    """The functions of one input run the stacked step on a stack of one and
    agree with the per-trial oracle within ORACLE_BOUND on 1,000 seeded
    inputs per d; random_regime_input draws the oracle's bits and leaves the
    generator in the oracle's state."""
    rng, oracle_rng = np.random.default_rng([d, 11]), np.random.default_rng([d, 11])
    for k in range(1000):
        w_min = 0.1 * (k % 3)
        h = holonomy.random_regime_input(rng, d, w_min=w_min)
        expected = oracles.random_regime_input(oracle_rng, d, w_min=w_min)
        for field in ("v", "w", "m", "tau"):
            assert np.asarray(getattr(h, field)).tobytes() == \
                np.asarray(getattr(expected, field)).tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert type(h.tau) is float

        res, want = (f(h.v, h.w, h.tau, h.m) for f in (holonomy.factorize_product,
                                                      oracles.factorize_product))
        assert type(res) is holonomy.FactorizationResult
        assert type(res.t_out) is float and type(res.residual) is float
        for field in ("y_out", "m_out", "t_out", "phi", "residual"):
            assert np.abs(getattr(res, field) - getattr(want, field)).max() <= ORACLE_BOUND
        for name in ("phi_closed_form", "tau_closed_form", "y_closed_form", "m_closed_form"):
            got, want = getattr(holonomy, name)(h), getattr(oracles, name)(h)
            assert np.shape(got) == np.shape(want)
            assert np.abs(got - want).max() <= ORACLE_BOUND, name


def test_functions_of_one_input_equal_the_stacked_closed_forms():
    """Each function of one input computes only its own closed form, with the
    bits _closed_forms gives on the same stack of one."""
    rng = np.random.default_rng(19)
    for k in range(300):
        h = holonomy.random_regime_input(rng, 1 + k % 3, w_min=0.1 * (k % 2))
        _, phi, t, y, m = holonomy._closed_forms(*holonomy._one(h))
        for name, want in (("phi", phi), ("tau", t), ("y", y), ("m", m)):
            got = getattr(holonomy, f"{name}_closed_form")(h)
            assert np.asarray(got).tobytes() == want[0].tobytes(), name


def test_suite_runs_no_per_trial_scalar_code(monkeypatch):
    """The suite's work is stacked: it calls no function of one input, and it
    makes as many calls to each of core's constructors at 3,000 trials as at
    300, one per stack."""
    def forbidden(*args, **kwargs):
        raise AssertionError("property_suite ran per-trial scalar code")

    for name in ("factorize_product", "phi_closed_form", "tau_closed_form", "y_closed_form",
                 "m_closed_form", "random_regime_input"):
        monkeypatch.setattr(holonomy, name, forbidden)
    calls = {}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return call

    constructors = ("unipotent_plus", "unipotent_minus", "geodesic_flow", "rotation_embed")
    for name in constructors:
        monkeypatch.setattr(core, name, counted(name, getattr(core, name)))
    counts = []
    for trials in (300, 3000):
        calls.clear()
        assert all(passed for *_, passed in holonomy.property_suite(trials))
        counts.append(dict(calls))
    assert set(counts[0]) == set(constructors)
    assert counts[0] == counts[1]


def test_nan_residual_fails_its_row(monkeypatch):
    """A nan residual of one trial fails its property instead of vanishing
    from the maximum."""
    real = holonomy._trial_residuals

    def with_nan(*args):
        out = real(*args)
        out["y_round_trip"][0] = np.nan
        return out

    monkeypatch.setattr(holonomy, "_trial_residuals", with_nan)
    assert {name for name, *_, passed in holonomy.property_suite(30)
            if not passed} == {"y_round_trip"}
