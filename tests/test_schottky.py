"""Tests for Schottky construction, word enumeration, ping-pong, limit sets."""

import dataclasses
import functools
import re
import time
import tracemalloc
from pathlib import Path

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
        if oracles.boundary_equal(att, rep, tol=1e-3):
            continue
        length = float(rng.uniform(0.5, 2.5))
        m = oracles.random_rotation(d, rng)
        g = schottky.build_loxodromic(att, rep, length, m)
        assert core.so_relative_residual(g) < 1e-12
        assert schottky.translation_length(g) == pytest.approx(length, abs=1e-9)
        a_fix, r_fix = oracles.fixed_points(g)
        assert oracles.boundary_equal(a_fix, att, tol=1e-7)
        assert oracles.boundary_equal(r_fix, rep, tol=1e-7)


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
        assert tuple(oracles.signed(b) for b in lev.words[idx]) == w
        g = oracles.word_to_element(reference, w)
        assert np.array_equal(lev.vecs[idx], g[:, 0] + g[:, -1])


def test_vector_cache_matches_the_matrix_oracle_bit_for_bit_while_exact(reference):
    # every reference level through 13 (the guard certifies 12; level 13's
    # vectors, up to 6.6e15 < 2^53, are exact all the same), and the cubed
    # reference's certified levels
    G = _io.load_group_file(limset.fixture_path("reference"))
    cubed = _cubed(reference)
    for H, depth in ((G, 13), (cubed, cubed.exact_through(7))):
        for n, oracle in enumerate(oracles.matrix_levels(H, depth)):
            lev = H.level(n)
            assert oracle.exact    # the old column-sum guard certified these
            assert np.array_equal(lev.words, oracle.words)
            assert np.array_equal(lev.vecs, oracle.mats[:, :, 0] + oracle.mats[:, :, -1])
            assert np.array_equal(lev.dists, oracle.dists)
            assert np.array_equal(lev.vecs[:, 1:-1] / lev.vecs[:, -1:], oracle.chart)
    assert G.exact_through(13) == 12


def test_readme_exactness_figure():
    """The depth to which the README says the 2^53 guard certifies the
    reference's word products is the one ``exact_through`` certifies."""
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    depth = int(re.search(r"all word products to length (\d+) are float64 products "
                          r"certified exact by the 2\^53 guard", readme).group(1))
    G = _io.load_group_file(limset.fixture_path("reference"))
    assert G.exact_through(depth + 1) == depth


def test_vector_cache_stays_near_the_reprojected_matrix_oracle_on_float_groups():
    # the float-d2-grid benchmark groups: the matrix oracle reprojects every
    # level, the vector cache never does; measured 1.4e-14 (dists, 8.7e-16
    # relative) and 3.2e-14 (chart) over seeds 0-7 to depth 8
    from perfbench import workloads
    for seed in range(8):
        G = workloads.generated_group(seed)
        for n, oracle in enumerate(oracles.matrix_levels(G, 8)):
            lev = G.level(n)
            assert np.array_equal(lev.words, oracle.words)
            assert np.abs(lev.dists - oracle.dists).max() <= 2e-14
            assert np.abs(lev.vecs[:, 1:-1] / lev.vecs[:, -1:] - oracle.chart).max() <= 5e-14
        assert G.exact_through(8) == -1


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_levels_match_the_masked_oracle(make, depth):
    # four fresh groups: the oracle's; levels built as vectors; distances
    # built alone (streamed below the deepest level of one chunk of rows, no
    # level's vectors kept); and vectors asked for after a distances-only
    # build, which rebuilds the dropped ones
    fresh = make().levels(depth)
    alone = make()
    alone.orbit_distances(depth)
    rebuilt = make()
    rebuilt.orbit_distances(depth)
    rebuilt = rebuilt.levels(depth)
    for lev, streamed, again, oracle in zip(fresh, alone._levels, rebuilt,
                                            oracles.masked_levels(make(), depth), strict=True):
        for name in ("words", "vecs", "dists"):
            want = getattr(oracle, name)
            assert _same_bits(getattr(lev, name), want), name
            assert _same_bits(getattr(again, name), want), name
        assert _same_bits(streamed.dists, lev.dists)
        for got in (lev, streamed, again):
            assert got.max_entry == oracle.max_entry and got.exact == oracle.exact


def test_sliced_level_build_matches_the_masked_prepend_bit_for_bit():
    # the prepend copies and multiplies the two slices around the skipped
    # first-letter block; the oracle gathers each letter's parents by mask
    from perfbench import workloads
    for name in ("reference", "cyclic"):
        _assert_levels_match_the_masked_oracle(
            functools.partial(_io.load_group_file, limset.fixture_path(name)), 12)
    for seed in range(8):
        _assert_levels_match_the_masked_oracle(
            functools.partial(workloads.generated_group, seed), 8)


def test_streamed_levels_match_the_masked_prepend_bit_for_bit(monkeypatch):
    # Below the levels built whole, orbit_distances streams from chunks of
    # _ROWS parent rows.  With a few rows the chunk edges cut the letters'
    # slices into one-row ranges (multiplied as a two-row stack), and at one
    # row the stream starts at level 0, whose one row each letter multiplies
    # alone (dot, per == 1), as every letter does on the k = 1 group.  The
    # cubed reference loses exactness at level 5, inside the stream.
    from perfbench import workloads

    def reference():
        return _io.load_group_file(limset.fixture_path("reference"))

    cases = ((reference, 7), (lambda: _cubed(reference()), 7),
             (functools.partial(workloads.generated_group, 0), 5),
             (functools.partial(_io.load_group_file, limset.fixture_path("cyclic")), 12))
    for make, depth in cases:
        oracle = list(oracles.masked_levels(make(), depth))
        for rows in (1, 2, 3, 5, 16, 100):
            monkeypatch.setattr(schottky, "_ROWS", rows)
            G = make()
            dists = G.orbit_distances(depth)
            assert [lev.vecs is None for lev in G._levels] == [False] + [True] * depth
            for lev, d, want in zip(G._levels, dists, oracle, strict=True):
                assert _same_bits(d, want.dists), (rows, lev.length)
                assert lev.max_entry == want.max_entry, (rows, lev.length)
                assert lev.exact == want.exact, (rows, lev.length)


def test_orbit_images_match_the_masked_prepend_bit_for_bit():
    # from level 1 a letter's parents are one-row slices; multiplied alone
    # (dot, not gemm) they moved the images of seed 0 by 1.1e-13 at level 2
    # and 7.2e-7 at level 6
    from perfbench import workloads
    x = (core.unipotent_plus(np.array([0.3, -0.2])) @ core.geodesic_flow(0.4, 2)
         @ core.basepoint(2))
    for seed in (0, 3):
        G = workloads.generated_group(seed)
        images = oracles.orbit_images(G, x, 6)
        assert len(images) == 7
        for got, want in zip(images, oracles.masked_orbit_images(G, x, 6)):
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Exact integer lane
# ---------------------------------------------------------------------------

def test_integer_lane_exact_through_depth_8(reference):
    assert reference.exact_through(8) == 8
    lev = reference.level(8)
    assert lev.exact
    # sampled words' oracle matrices equal the Python-int products of their
    # letters and are exactly in SO(Q)(Z); the cached vectors are their
    # corner column sums
    mats = _last(oracles.matrix_levels(reference, 8)).mats
    rng = np.random.default_rng(1)
    for idx in rng.choice(lev.words.shape[0], size=5, replace=False):
        exact = oracles.integer_word_product(reference, lev.words[idx])
        assert np.array_equal(mats[idx].astype(object), exact)
        assert oracles.exact_integer_residual(mats[idx]) == 0
        assert np.array_equal(lev.vecs[idx].astype(object), exact[:, 0] + exact[:, -1])


def test_level_cache_float_view_and_max_entry(reference, sweep_groups):
    oracle = oracles.matrix_levels(reference, 10)
    for n in range(11):
        lev = reference.level(n)
        mats = next(oracle).mats
        assert lev.exact and np.array_equal(mats, np.rint(mats))
        assert np.array_equal(lev.vecs, np.rint(lev.vecs))
        assert lev.max_entry == np.abs(lev.vecs).max()
        float_lev = sweep_groups[3.0].level(n)
        assert not float_lev.exact
        assert float_lev.max_entry == np.abs(float_lev.vecs).max()
    assert sweep_groups[3.0].exact_through(10) == -1


def test_integer_lane_level_build_holds_one_float_copy():
    # A level is filled in place, its distances too, so building it holds
    # no more than the level itself: its vectors and distances.
    G = _io.load_group_file(limset.fixture_path("reference"))
    G.level(11)
    tracemalloc.start()
    try:
        lev = G.level(12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lev.exact
    assert peak <= 1.05 * (lev.vecs.nbytes + lev.dists.nbytes)


def test_distances_only_build_holds_no_deep_vectors():
    # orbit_distances builds whole only the levels of at most one chunk of
    # _ROWS rows (levels 0..8 on the reference, 1.5 chunks of rows together)
    # and streams the deeper ones depth first, holding one product block of
    # at most a chunk per streamed level: above the distances it holds a
    # chunk per level, not a level's vectors (measured 0.76, 0.91 and 1.06
    # MiB at depths 11, 12 and 13; the level-by-level build held level 11's
    # 5.4 MiB of vectors and a product block at depth 12).  It leaves the
    # distances held (level 0 was built with the group).
    for depth in (11, 12, 13):
        G = _io.load_group_file(limset.fixture_path("reference"))
        tracemalloc.start()
        try:
            dists = G.orbit_distances(depth)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dist_bytes = sum(d.nbytes for d in dists)
        chunk = (G.d + 2) * 8 * schottky._ROWS
        assert dist_bytes == 8 * G.word_count(depth)
        assert peak <= dist_bytes + (2 + depth - G._one_chunk_through(depth)) * chunk, depth
        assert held <= dist_bytes + 16 * 1024
        assert [lev.vecs is None for lev in G._levels] == [False] + [True] * depth


def _cubed(reference):
    """The reference with its generators cubed: the same ping-pong balls."""
    return schottky.SchottkyGroup([
        schottky.SchottkyGenerator(elem=np.linalg.matrix_power(g.elem, 3),
                                   ball_plus=g.ball_plus, ball_minus=g.ball_minus)
        for g in reference.gens])


def _last(iterable):
    *_, item = iterable
    return item


def test_exactness_boundary_of_cubed_reference(reference):
    # Cubing makes level 5 the first whose partial sums may pass 2^53.
    cubed = _cubed(reference)
    assert cubed.validate().ok
    assert cubed.exact_through(7) == 4
    rng = np.random.default_rng(2)
    for n, (lev, oracle) in enumerate(zip(cubed.levels(7), oracles.matrix_levels(cubed, 7))):
        assert lev.exact == oracle.exact == (n <= 4)
        if lev.exact:
            for idx in rng.choice(lev.words.shape[0], size=min(5, lev.words.shape[0]),
                                  replace=False):
                exact = oracles.integer_word_product(cubed, lev.words[idx])
                assert np.array_equal(oracle.mats[idx].astype(object), exact)
                assert oracles.exact_integer_residual(oracle.mats[idx]) == 0
                assert np.array_equal(lev.vecs[idx].astype(object),
                                      exact[:, 0] + exact[:, -1])
        else:
            assert core.so_relative_residual(oracle.mats).max() < 1e-10
            scale = np.abs(lev.vecs).max(axis=-1) ** 2
            assert (np.abs(oracles.quadratic_form(lev.vecs) - 2.0) / scale).max() <= 1e-13


def test_cache_bytes_is_what_the_levels_hold(reference, cyclic, sweep_groups):
    # one copy of vectors and distances per level, nothing else: no letters
    stored = {f.name for f in dataclasses.fields(schottky._Level)}
    assert stored == {"vecs", "dists", "max_entry", "exact", "length", "k"}
    for G, n in ((reference, 10), (cyclic, 9), (sweep_groups[2.0], 5)):
        assert G.cache_bytes(n) == sum(a.nbytes for lev in G.levels(n)
                                       for a in (lev.vecs, lev.dists))
        assert G.cache_bytes(n) == (G.d + 3) * 8 * G.word_count(n)
        assert all(lev.mats is None and lev.imats is None for lev in G.levels(n))


def test_decoded_words_match_the_masked_build_for_k_1_2_3(reference, cyclic):
    from perfbench import workloads
    for G, depths in ((cyclic, (0, 1, 2, 7)), (reference, (0, 1, 2, 5, 9)),
                      (workloads.generated_group(2), (0, 1, 3, 6))):
        oracle = list(oracles.masked_levels(G, max(depths)))
        for n in depths:
            words = G.level(n).words
            assert words.dtype == np.int8 and words.shape == (G.level(n).vecs.shape[0], n)
            assert np.array_equal(words, oracle[n].words)


def test_level_cache_over_budget_is_refused_before_any_build():
    G = _io.load_group_file(limset.fixture_path("reference"))
    assert G.cache_bytes(16) < schottky._CACHE_BUDGET < G.cache_bytes(17)
    with pytest.raises(ValueError, match=r"depth 17 need 7\.7 GiB, over .*budget of 4 GiB"):
        G.level(17)
    # distances only: 1.92 GiB of distances and under 4 MiB of vectors (levels
    # 0..8 whole, one chunk per streamed level) fit; depth 18 does not
    G.check_depth(17, read=0)
    assert G.cache_bytes(17, read=0) - 8 * G.word_count(17) < 4 << 20
    with pytest.raises(ValueError, match=r"depth 18 need 5\.78 GiB"):
        G.orbit_distances(18)
    assert len(G._levels) == 1


def test_level_cache_budget_check_is_cheap_at_any_depth(cyclic):
    # a k >= 2 depth past 64 is named by the size of levels 0..64; k = 1
    # levels grow linearly, so every depth's size is exact
    G = _io.load_group_file(limset.fixture_path("reference"))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"depth 10000000 need more than [0-9.e+]+ GiB"):
        G.check_depth(10 ** 7)
    with pytest.raises(ValueError, match=r"depth 10000000000 need 596 GiB"):
        cyclic.check_depth(10 ** 10)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="depth 17 need 7.7 GiB"):
        G.levels(17)
    assert len(G._levels) == 1


def test_readme_streamed_level_figures():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    rows, level = re.search(r"the deepest of at most ([\d,]+) words, whichever is deeper "
                            r"\(level (\d+) on the reference\)", readme).groups()
    assert int(rows.replace(",", "")) == schottky._ROWS
    assert f"chunks of {rows} parent rows" in readme
    G = _io.load_group_file(limset.fixture_path("reference"))
    assert G._one_chunk_through(12) == int(level)


def test_readme_level_cache_figures_are_cache_bytes():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    G = _io.load_group_file(limset.fixture_path("reference"))
    # a measure reads its levels as vectors; delta reads distances only
    for section, read in (("measure", None), ("delta", 0)):
        figures = re.search(rf"`\[{section}\] n_max = (\d+)` needs ([\d.]+) GiB(?:, [^,]*,)? "
                            r"and depth (\d+) ([\d.]+) GiB", readme).groups()
        for n, gib in (figures[:2], figures[2:]):
            need = G.cache_bytes(int(n), read)
            assert f"{need / 2 ** 30:.1f}" == gib, section
            assert (need > schottky._CACHE_BUDGET) == (float(gib) > 4), section


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
    assert (np.abs(oracles.quadratic_form(vecs) - 1.0) / scale).max() < 1e-12


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
    report = reference.validate()
    assert report.ok
    # exact margins: g1 and g2^-1 land with margin 11/16 - 2/3 = 1/48;
    # g1^-1 and g2 with margin 3 - 32/11 = 1/11
    assert report.worst_margin == pytest.approx(1.0 / 48.0, abs=1e-12)
    assert report.margins["g1"] == pytest.approx(1.0 / 48.0, abs=1e-12)
    assert report.margins["g2^-1"] == pytest.approx(1.0 / 48.0, abs=1e-12)
    assert report.margins["g1^-1"] == pytest.approx(1.0 / 11.0, abs=1e-12)
    assert report.margins["g2"] == pytest.approx(1.0 / 11.0, abs=1e-12)
    assert report.min_ball_gap == pytest.approx(5.0 / 16.0, abs=1e-12)
    assert "PASS" in str(report)


def test_overlapping_balls_error():
    with pytest.raises(schottky.ConfigurationError, match="g1.*g2|g2.*g1"):
        _io.load_group_file(limset.fixture_path("overlapping")).validate()


def _shrunk_reference(reference):
    """The reference with g1's plus ball shrunk to radius 0.5, below the
    exact image radius 2/3 of g1; g1^-1's image radius grows to 2 / 0.5 = 4."""
    g1 = reference.gens[0]
    bad = schottky.SchottkyGenerator(
        elem=g1.elem,
        ball_plus=schottky.Ball(g1.ball_plus.center, 0.5),
        ball_minus=g1.ball_minus)
    return schottky.SchottkyGroup([bad, reference.gens[1]])


def test_failed_inclusion_reported(reference):
    report = _shrunk_reference(reference).validate()
    assert not report.ok
    assert report.margins["g1"] == pytest.approx(0.5 - 2.0 / 3.0, abs=1e-12)
    assert report.margins["g1^-1"] == pytest.approx(3.0 - 4.0, abs=1e-12)
    assert [w.split(":")[0] for w in report.witnesses] == ["g1", "g1^-1"]


def test_bounded_failure_witness_escapes_its_target(reference):
    # a failing letter's witness lies on its source sphere, and g maps it
    # outside the target, to the image sphere's point farthest from the
    # target's centre: its image's margin is the letter's margin
    from perfbench import workloads
    failed = 0
    for G in [_shrunk_reference(reference)] + [workloads.generated_group(s) for s in range(4)]:
        for b in range(2 * G.k):
            g, (source, target) = G.letter_mats[b], G.letter_balls[b]
            for tgt in (target, schottky.Ball(target.center, 0.5 * target.radius),
                        schottky.Ball(target.center + target.radius, target.radius)):
                margin, wit = G._letter_margin(g, source, tgt)
                if margin > 0:
                    assert wit is None
                    continue
                failed += 1
                assert np.isfinite(margin)
                assert abs(np.linalg.norm(wit - source.center) - source.radius) <= 1e-12
                image = core.chart_action(g, wit)[0][0]
                assert tgt.margin(image) <= 0
                assert tgt.margin(image) == pytest.approx(margin, abs=1e-9)
    assert failed >= 2 + 2 * 6 * 4


def test_unbounded_image_fails_with_its_witness(reference):
    # g1's pole is -4: a source ball without it has an unbounded image, and
    # one with it 1e-6 inside its sphere has an end whose image the chart
    # cannot hold (the image's last coordinate vanishes to second order)
    g, (_, target) = reference.letter_mats[0], reference.letter_balls[0]
    for center, witness in ((-0.5, -4.0), (-1.0 - 1e-6, -4.0 - 1e-6)):
        margin, wit = reference._letter_margin(g, schottky.Ball([center], 3.0), target)
        assert margin == -np.inf
        assert wit == pytest.approx([witness], abs=1e-12)


def test_cyclic_ping_pong(cyclic):
    report = cyclic.validate()
    assert report.ok
    assert cyclic.k == 1
    # exact margins: g1 lands with margin 11/16 - 2/3 = 1/48, g1^-1 with 1/11
    assert report.margins["g1"] == pytest.approx(1.0 / 48.0, abs=1e-12)
    assert report.margins["g1^-1"] == pytest.approx(1.0 / 11.0, abs=1e-12)
    assert report.worst_margin == pytest.approx(1.0 / 48.0, abs=1e-12)


def _seeded_d1_group(k, seed):
    """A seeded d = 1 group of k loxodromics, axes 20 apart along the line,
    balls at each generator's pole and image of infinity with 1.3 times the
    isometric radius (the construction of conftest.make_sweep_group)."""
    rng = np.random.default_rng(seed)
    gens = []
    for i in range(k):
        mid = 20.0 * (i - 0.5 * (k - 1)) + rng.uniform(-1.0, 1.0)
        att, rep = mid + rng.permutation([-2.5, 2.5]) + rng.uniform(-0.5, 0.5, 2)
        length = rng.uniform(2.0, 4.0)
        g = schottky.build_loxodromic(core.chart_to_boundary(np.array([att])),
                                      core.chart_to_boundary(np.array([rep])), length)
        rho = 1.3 * abs(att - rep) / (2.0 * np.sinh(length / 2.0))
        gens.append(schottky.SchottkyGenerator(
            elem=g,
            ball_plus=schottky.Ball(core.boundary_from_chart(g[:, 0]), rho),
            ball_minus=schottky.Ball(
                core.boundary_from_chart(core.group_inverse(g)[:, 0]), rho)))
    return schottky.SchottkyGroup(gens, name=f"d1-k{k}-seed{seed}")


def test_d1_sphere_fit_is_the_endpoint_image():
    # in d = 1 the certificate's source diameter is the source ball, so its
    # image ball is the interval between the endpoints' images.  A target
    # ball reaching 1 past the oracle interval on one side, and far past it
    # on the other, has margin 1 exactly when the image's end on that side
    # is the oracle's
    for k in (1, 2, 3, 4):
        G = _seeded_d1_group(k, seed=k)
        assert G.validate().ok
        for side in (-1.0, 1.0):
            for b in range(2 * k):
                lo, hi = oracles.ball_image_interval(G.letter_mats[b], G.letter_balls[b][0])
                reach = hi - lo + 2.0
                target = schottky.Ball([hi + 1.0 - reach if side < 0 else lo - 1.0 + reach],
                                       reach)
                margin, _ = G._letter_margin(G.letter_mats[b], G.letter_balls[b][0],
                                             target)
                assert margin == pytest.approx(1.0, abs=1e-12), (k, b, side)


def test_letter_margin_matches_the_sampled_sphere_fit(sweep_groups):
    # the d >= 2 oracle: a sphere fit through 64 seeded boundary images and
    # 256 seeded outside points, at seed 0.  These groups centre each source
    # ball on its letter's pole, where every diameter passes through the
    # pole, so each source ball is also moved off the pole by 0.4 radii
    from perfbench import workloads
    for G in [workloads.generated_group(s) for s in range(8)] + list(sweep_groups.values()):
        rng = np.random.default_rng(0)
        for b in range(2 * G.k):
            g, (source, target) = G.letter_mats[b], G.letter_balls[b]
            shift = 0.4 * source.radius * np.resize([0.6, 0.8], G.d)
            for src in (source, schottky.Ball(source.center + shift, source.radius)):
                sampled, _ = oracles.sampled_letter_margin(g, src, target, rng)
                assert G._letter_margin(g, src, target)[0] == pytest.approx(sampled, abs=1e-9)


def test_sweep_groups_validate(sweep_groups):
    for length, G in sweep_groups.items():
        report = G.validate()
        assert report.ok, f"sweep group at length {length} failed ping-pong"
        assert report.worst_margin > 0.1


def test_sweep_float_lane_drift_controlled(sweep_groups):
    G = sweep_groups[2.0]
    assert G.exact_through(6) == -1  # generic float group: no integer lane
    for lev, oracle in zip(G.levels(6), oracles.matrix_levels(G, 6)):
        assert core.so_relative_residual(oracle.mats).max() < 1e-10
        scale = np.abs(lev.vecs).max(axis=-1) ** 2
        assert (np.abs(oracles.quadratic_form(lev.vecs) - 2.0) / scale).max() <= 1e-13


def test_near_so_q_generator_is_reprojected_once_at_construction(reference):
    # a generator 1e-8 off SO(Q) passes the 1e-6 input check; its letter is
    # reprojected, its inverse letter is the exact inverse of that, and the
    # word vectors built from them stay on the form
    rng = np.random.default_rng(5)
    g1, g2 = reference.gens
    elem = g1.elem * (1.0 + 1e-8 * rng.standard_normal(g1.elem.shape))
    assert 1e-9 < core.so_relative_residual(elem) <= 1e-6
    G = schottky.SchottkyGroup([schottky.SchottkyGenerator(
        elem=elem, ball_plus=g1.ball_plus, ball_minus=g1.ball_minus), g2])
    assert core.so_relative_residual(G.letter_mats[0]) <= G.tol / 100
    assert np.array_equal(G.letter_mats[1], core.group_inverse(G.letter_mats[0]))
    assert np.array_equal(G.letter_mats[2:], reference.letter_mats[2:])
    assert G.validate().ok and G.exact_through(8) == -1
    vecs = np.concatenate([lev.vecs for lev in G.levels(8)])
    assert (np.abs(oracles.quadratic_form(vecs) - 2.0)
            / np.sum(vecs ** 2, axis=-1)).max() <= 1e-13


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
        words = reference.level(depth).words
        pts, dropped = oracles.limit_set_sample(reference, depth)
        assert dropped == 0
        idx = rng.choice(pts.shape[0], size=min(60, pts.shape[0]), replace=False)
        for i in idx:
            prefix = words[i, :-1]
            gpre = np.eye(3)
            for b in prefix:
                gpre = gpre @ reference.letter_mats[b]
            pulled = core.chart_action(core.group_inverse(gpre), pts[i])[0][0]
            ball = reference.letter_balls[int(words[i, -1])][1]
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
    assert G2.validate().ok


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
