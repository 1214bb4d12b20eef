"""Tests for Schottky construction, word enumeration, ping-pong, limit sets."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

import limset
from limset import _io, core, schottky

import oracles

SQ7 = np.sqrt(7.0)


# ---------------------------------------------------------------------------
# Loxodromic elements
# ---------------------------------------------------------------------------

def test_translation_length_of_flow():
    for d in (1, 2):
        g = core.geodesic_flow(1.7, d)
        assert schottky.translation_length(g) == pytest.approx(1.7, abs=1e-12)
    with pytest.raises(core.DegenerateConfigurationError):
        schottky.translation_length(np.eye(3))
    with pytest.raises(core.DegenerateConfigurationError):
        schottky.translation_length(core.rotation_embed(
            np.array([[0.0, -1.0], [1.0, 0.0]])))


def test_build_loxodromic_trivial_axis():
    # axis ([e_0], [e_{d+1}]) with m = I is the flow itself
    d = 2
    e0 = np.eye(d + 2)[0]
    elast = np.eye(d + 2)[d + 1]
    g = schottky.build_loxodromic(e0, elast, 0.9)
    assert np.abs(g - core.geodesic_flow(0.9, d)).max() < 1e-14


def test_build_loxodromic_reproduces_integer_generator():
    # g1 = [[2,6,9],[2,7,12],[1,4,8]] has fixed points -1 +- sqrt7 in the chart
    # and translation length arccosh(8) (trace 17 = 2 cosh l + 1)
    att = core.chart_to_boundary(np.array([-1.0 + SQ7]))
    rep = core.chart_to_boundary(np.array([-1.0 - SQ7]))
    g = schottky.build_loxodromic(att, rep, float(np.arccosh(8.0)))
    g1 = np.array([[2.0, 6.0, 9.0], [2.0, 7.0, 12.0], [1.0, 4.0, 8.0]])
    assert np.abs(g - g1).max() < 1e-10


@pytest.mark.parametrize("d", [1, 2, 3])
def test_build_loxodromic_spectrum_and_fixed_points(d):
    rng = np.random.default_rng(41 + d)
    for _ in range(5):
        att = core.chart_to_boundary(rng.uniform(-3, 3, d))
        rep = core.chart_to_boundary(rng.uniform(-3, 3, d))
        if core.boundary_equal(att, rep, tol=1e-3):
            continue
        length = float(rng.uniform(0.5, 2.5))
        m = core.random_rotation(d, rng)
        g = schottky.build_loxodromic(att, rep, length, m)
        assert core.so_relative_residual(g) < 1e-12
        assert schottky.translation_length(g) == pytest.approx(length, abs=1e-9)
        a_fix, r_fix = schottky.fixed_points(g)
        assert core.boundary_equal(a_fix, att, tol=1e-7)
        assert core.boundary_equal(r_fix, rep, tol=1e-7)


def test_build_loxodromic_degenerate_axis():
    xi = core.chart_to_boundary(np.array([1.0]))
    with pytest.raises(core.DegenerateConfigurationError):
        schottky.build_loxodromic(xi, 2.0 * xi, 1.0)


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def test_word_counts_match_closed_form(reference):
    for n in range(5):
        words = list(oracles.enumerate_words(reference, n))
        assert len(words) == reference.word_count(n)
    assert reference.word_count(2) == 17  # 1 + 4 + 12


def test_words_reduced_and_ordered(reference):
    words = [w for w in oracles.enumerate_words(reference, 3) if len(w) == 3]
    for w in words:
        for a, b in zip(w, w[1:]):
            assert a != -b, f"cancellation in {w}"
    # deterministic lexicographic order in letter ids (+1, -1, +2, -2)
    assert words[0] == (1, 1, 1)
    assert words[1] == (1, 1, 2)
    assert words[2] == (1, 1, -2)


def test_cyclic_word_counts(cyclic):
    # only gamma^n and gamma^{-n} survive reduction
    for n in range(1, 6):
        assert cyclic.word_count(n) == 1 + 2 * n
        words = [w for w in oracles.enumerate_words(cyclic, n) if len(w) == n]
        assert len(words) == 2


def test_word_to_element(reference):
    assert np.array_equal(oracles.word_to_element(reference, ()), np.eye(3))
    w = (1, 2, -1, 2)
    g = oracles.word_to_element(reference, w)
    ginv = oracles.word_to_element(reference, tuple(-s for s in reversed(w)))
    assert np.abs(g @ ginv - np.eye(3)).max() == 0.0  # exact: integer lane
    # associativity spot check against re-bracketed product
    g12 = oracles.word_to_element(reference, (1, 2))
    g34 = oracles.word_to_element(reference, (-1, 2))
    assert np.array_equal(g12 @ g34, g)
    with pytest.raises(schottky.ConfigurationError):
        oracles.word_to_element(reference, (1, -1))
    with pytest.raises(schottky.ConfigurationError):
        oracles.word_to_element(reference, (3,))


def test_level_cache_matches_enumeration(reference):
    lev = reference.level(3)
    words = [w for w in oracles.enumerate_words(reference, 3) if len(w) == 3]
    assert lev.words.shape == (36, 3)
    rng = np.random.default_rng(0)
    for idx in rng.choice(36, size=8, replace=False):
        w = words[int(idx)]
        assert tuple(reference.signed(b) for b in lev.words[idx]) == w
        assert np.array_equal(lev.mats[idx], oracles.word_to_element(reference, w))


# ---------------------------------------------------------------------------
# Exact integer lane
# ---------------------------------------------------------------------------

def test_integer_lane_exact_through_depth_8(reference):
    assert reference.exact_through(8) == 8
    lev = reference.level(8)
    assert lev.exact
    # sampled words equal the Python-int products of their letters, and are
    # exactly in SO(Q)(Z)
    rng = np.random.default_rng(1)
    for idx in rng.choice(lev.mats.shape[0], size=5, replace=False):
        assert np.array_equal(lev.mats[idx].astype(object),
                              oracles.integer_word_product(reference, lev.words[idx]))
        assert oracles.exact_integer_residual(lev.mats[idx]) == 0


def test_level_cache_float_view_and_max_entry(reference, sweep_groups):
    for n in range(11):
        lev = reference.level(n)
        assert lev.exact and np.array_equal(lev.mats, np.rint(lev.mats))
        assert lev.max_entry == np.abs(lev.mats).max()
        float_lev = sweep_groups[3.0].level(n)
        assert not float_lev.exact
        assert float_lev.max_entry == np.abs(float_lev.mats).max()
    assert sweep_groups[3.0].exact_through(10) == -1


def test_integer_lane_level_build_holds_one_float_copy():
    # An exact level is filled in place and not reprojected, so building it
    # holds little more than its one matrix stack.
    G = _io.load_group_file(limset.fixture_path("reference"))
    G.level(11)
    tracemalloc.start()
    try:
        lev = G.level(12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lev.exact
    assert peak <= 2.0 * lev.mats.nbytes


def test_exactness_boundary_of_cubed_reference(reference):
    # Cubing the reference's generators keeps their ping-pong balls and makes
    # level 5 the first whose partial sums may pass 2^53.
    cubed = schottky.SchottkyGroup([
        schottky.SchottkyGenerator(elem=np.linalg.matrix_power(g.elem, 3),
                                   ball_plus=g.ball_plus, ball_minus=g.ball_minus)
        for g in reference.gens])
    assert cubed.validate().ok
    assert cubed.exact_through(7) == 4
    rng = np.random.default_rng(2)
    for n, lev in enumerate(cubed.levels(7)):
        assert lev.exact == (n <= 4)
        if lev.exact:
            for idx in rng.choice(lev.mats.shape[0], size=min(5, lev.mats.shape[0]),
                                  replace=False):
                assert np.array_equal(lev.mats[idx].astype(object),
                                      oracles.integer_word_product(cubed, lev.words[idx]))
                assert oracles.exact_integer_residual(lev.mats[idx]) == 0
        else:
            assert core.so_relative_residual(lev.mats).max() < 1e-10


def test_cache_bytes_is_what_the_levels_hold(reference, sweep_groups):
    # one copy of words, matrices and distances per level, nothing else
    for G, n in ((reference, 10), (sweep_groups[2.0], 5)):
        assert G.cache_bytes(n) == sum(a.nbytes for lev in G.levels(n)
                                       for a in (lev.words, lev.mats, lev.dists))


def test_level_cache_over_budget_is_refused_before_any_build():
    G = _io.load_group_file(limset.fixture_path("reference"))
    assert G.cache_bytes(15) < schottky._CACHE_BUDGET < G.cache_bytes(16)
    with pytest.raises(ValueError, match=r"depth 16 need at least 7\.7 GiB.*budget of 4 GiB"):
        G.level(16)
    assert len(G._levels) == 1


def test_orbit_distances_level_one(reference):
    # both generators displace o by arccosh 10 (corner sum 20 / 2)
    d1 = reference.orbit_distances(1)[1]
    assert np.allclose(d1, np.arccosh(10.0), atol=1e-12)


def test_orbit_chart_all_finite(reference):
    pts, dists = reference.orbit_chart(5)
    assert pts.shape == (reference.word_count(5), 1)
    assert np.isfinite(pts).all() and np.isfinite(dists).all()
    vecs = np.concatenate(oracles.orbit_vectors(reference, 5))
    # Q(w.o) = 1 up to the cancellation floor ~ ||w.o||^2 eps of evaluating
    # the form in double precision
    scale = 1.0 + np.abs(vecs).max(axis=-1) ** 2
    assert (np.abs(core.quadratic_form(vecs) - 1.0) / scale).max() < 1e-12


def test_orbit_injective_discreteness_witness(reference):
    # distinct reduced words of length <= 8 move o to distinct points
    vecs = np.concatenate(oracles.orbit_vectors(reference, 8))
    tree = cKDTree(vecs)
    dd, _ = tree.query(vecs, k=2)
    assert dd[:, 1].min() > 10 * reference.tol


# ---------------------------------------------------------------------------
# Ping-pong verification
# ---------------------------------------------------------------------------

def test_reference_ping_pong_margins(reference):
    report = reference.report
    assert report.ok
    # exact margins: g1 and g2^-1 land with margin 11/16 - 2/3 = 1/48;
    # g1^-1 and g2 with margin 3 - 32/11 = 1/11
    assert report.worst_margin == pytest.approx(1.0 / 48.0, abs=1e-9)
    assert report.margins["g1"] == pytest.approx(1.0 / 48.0, abs=1e-9)
    assert report.margins["g2^-1"] == pytest.approx(1.0 / 48.0, abs=1e-9)
    assert report.margins["g1^-1"] == pytest.approx(1.0 / 11.0, abs=1e-9)
    assert report.margins["g2"] == pytest.approx(1.0 / 11.0, abs=1e-9)
    assert report.min_ball_gap == pytest.approx(5.0 / 16.0, abs=1e-12)
    assert "PASS" in str(report)


def test_overlapping_balls_error():
    with pytest.raises(schottky.ConfigurationError, match="g1.*g2|g2.*g1"):
        _io.load_group_file(limset.fixture_path("overlapping")).verify_ping_pong()


def test_failed_inclusion_reported(reference):
    # shrink g1's plus ball below the exact image radius 2/3: inclusion fails
    g1 = reference.gens[0]
    bad = schottky.SchottkyGenerator(
        elem=g1.elem,
        ball_plus=schottky.Ball(g1.ball_plus.center, 0.5),
        ball_minus=g1.ball_minus)
    G = schottky.SchottkyGroup([bad, reference.gens[1]])
    report = G.verify_ping_pong()
    assert not report.ok
    assert report.margins["g1"] == pytest.approx(0.5 - 2.0 / 3.0, abs=1e-9)
    assert report.witnesses
    assert not G.validate().ok and not G.validated


def test_cyclic_ping_pong(cyclic):
    assert cyclic.report.ok
    assert cyclic.k == 1


def test_sweep_groups_validate(sweep_groups):
    for length, G in sweep_groups.items():
        assert G.validated, f"sweep group at length {length} failed ping-pong"
        assert G.report.worst_margin > 0.1


def test_sweep_float_lane_drift_controlled(sweep_groups):
    G = sweep_groups[2.0]
    assert G.exact_through(6) == -1  # generic float group: no integer lane
    for lev in G.levels(6):
        assert core.so_relative_residual(lev.mats).max() < 1e-10


def test_zariski_heuristic(reference, cyclic):
    z = reference.report.zariski
    assert z["noncommuting"] and z["distinct_axes"] and z["k"] == 2
    assert cyclic.report.zariski["k"] == 1


# ---------------------------------------------------------------------------
# Limit set sampling
# ---------------------------------------------------------------------------

def test_limit_set_depth_one(reference):
    pts, dropped = oracles.limit_set_sample(reference, 1)
    assert dropped == 0 and pts.shape == (4, 1)
    # image of each letter's own attracting center lies in that ball
    for b in range(4):
        ball = reference.letter_balls[b][1]
        assert ball.margin(pts[b]) > 0


def test_limit_set_nesting(reference):
    # depth-(n+1) samples lie in the ball of their length-n prefix:
    # pull back by the prefix and check membership in the last letter's ball
    rng = np.random.default_rng(7)
    for depth in (2, 4, 6):
        lev = reference.level(depth)
        pts, dropped = oracles.limit_set_sample(reference, depth)
        assert dropped == 0
        idx = rng.choice(pts.shape[0], size=min(60, pts.shape[0]), replace=False)
        for i in idx:
            prefix = lev.words[i, :-1]
            gpre = np.eye(3)
            for b in prefix:
                gpre = gpre @ reference.letter_mats[b]
            pulled = core.chart_action(core.group_inverse(gpre), pts[i])[0][0]
            ball = reference.letter_balls[int(lev.words[i, -1])][1]
            assert ball.margin(pulled) > 0


def test_limit_set_cyclic_two_points(cyclic):
    pts, dropped = oracles.limit_set_sample(cyclic, 9)
    assert dropped == 0 and pts.shape == (2, 1)
    fixed = sorted([-1.0 - SQ7, -1.0 + SQ7])
    assert np.abs(np.sort(pts.ravel()) - np.array(fixed)).max() < 1e-6


def test_limit_set_points_in_union_of_balls(reference):
    pts, _ = oracles.limit_set_sample(reference, 7)
    margins = np.stack([reference.letter_balls[b][1].margin(pts) for b in range(4)])
    assert (margins.max(axis=0) > 0).all()


# ---------------------------------------------------------------------------
# Group file round trip
# ---------------------------------------------------------------------------

def test_group_file_round_trip(tmp_path, reference):
    path = tmp_path / "ref2.group"
    path.write_text(_io.group_file_text(reference, comment="round trip"))
    G2 = _io.load_group_file(path)
    for a, b in zip(reference.gens, G2.gens):
        assert np.array_equal(a.elem, b.elem)
        assert a.ball_plus.radius == b.ball_plus.radius
        assert np.array_equal(a.ball_minus.center, b.ball_minus.center)
    assert G2.verify_ping_pong().ok


def test_group_file_from_axis_data(tmp_path):
    text = """
[model]
d = 1

[generator.1]
att = -10
rep = -5
length = 3

[balls.1]
minus_center = -4.7376329986442316
minus_radius = 1.5265707844152586
plus_center = -10.262367001355769
plus_radius = 1.5265707844152586
"""
    G = _io.parse_group_text(text)
    assert G.k == 1 and G.d == 1
    assert schottky.translation_length(G.gens[0].elem) == pytest.approx(3.0, abs=1e-9)
