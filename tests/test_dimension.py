"""Critical exponent estimation: closed-form roots, fixtures, stability."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limset
from limset import _io, core, dimension, schottky

import oracles

REFERENCE_DELTA = 0.4842963218688965  # level-12 shell-ratio root, bisection tol 1e-6
REFERENCE_ROOTS = [
    "0x1.da42a00000000p-2", "0x1.f2ee200000000p-2", "0x1.f65fe00000000p-2",
    "0x1.f230200000000p-2", "0x1.f054200000000p-2", "0x1.effae00000000p-2",
    "0x1.efece00000000p-2", "0x1.efeb600000000p-2", "0x1.efeb600000000p-2",
    "0x1.efeb600000000p-2", "0x1.efeb600000000p-2", "0x1.efeb600000000p-2",
]


# ---------------------------------------------------------------------------
# shell sums


def test_shell_sums_identity_level(reference):
    for s in (0.0, 0.7, 100.0):
        log_a = dimension.shell_sums(reference, s, 4)
        assert np.exp(log_a)[0] == 1.0
        assert log_a[0] == 0.0


def test_shell_sums_at_zero_count_words(reference):
    log_a = dimension.shell_sums(reference, 0.0, 5)
    counts = np.array([1] + [4 * 3 ** (n - 1) for n in range(1, 6)])
    assert np.allclose(np.exp(log_a), counts, rtol=1e-12)


def test_shell_sums_strictly_decreasing_in_s(reference):
    grid = [0.0, 0.3, 0.7, 1.2, 2.5]
    stack = np.array([dimension.shell_sums(reference, s, 5) for s in grid])
    # entrywise strictly decreasing in s for every shell with positive distances
    assert np.all(np.diff(stack[:, 1:], axis=0) < 0.0)


def test_shell_sums_decay_geometrically_at_large_s(reference):
    log_a = dimension.shell_sums(reference, 100.0, 6)
    assert np.isfinite(np.exp(log_a)).all()
    assert np.all(np.diff(log_a) < -100.0)


def test_shell_sums_rejects_negative_s(reference):
    with pytest.raises(ValueError):
        dimension.shell_sums(reference, -0.5, 4)


def test_shell_sums_threads_bit_identical(reference):
    a = dimension.shell_sums(reference, 0.48, 8, threads=1)
    b = dimension.shell_sums(reference, 0.48, 8, threads=4)
    assert np.array_equal(a, b)


def _logsumexp_cases():
    """400 seeded arrays of sizes 1 to 300k, then the edge cases."""
    rng = np.random.default_rng(2024)
    for i in range(400):
        n = int(np.exp(rng.uniform(0.0, np.log(300_000)))) if i % 50 else 300_000
        a = rng.normal(loc=rng.uniform(-800.0, 800.0),
                       scale=rng.choice([1e-3, 1.0, 40.0, 700.0]), size=n)
        if i % 3 == 0:      # rounded values: many ties, also at the maximum
            a = np.round(a / 10.0)
        if i % 7 == 0:
            a[rng.integers(0, n, size=max(1, n // 5))] = -np.inf
        yield a
    yield np.full(4, -np.inf)
    yield np.array([-np.inf])
    yield np.array([0.5, np.inf, -3.0])
    yield np.array([np.inf, np.inf])
    yield np.array([-np.inf, np.inf])
    yield np.array([1e308, -1e308, 1e308, 7.0])
    yield np.array([-1e308, -1e308])
    yield np.array([1e308, 1e308])


def test_logsumexp_matches_scipy_bit_for_bit():
    from scipy.special import logsumexp as scipy_logsumexp
    with np.errstate(all="ignore"):
        for a in _logsumexp_cases():
            ours, theirs = dimension.logsumexp(a), scipy_logsumexp(a)
            assert np.float64(ours).tobytes() == np.float64(theirs).tobytes(), (
                a.size, ours, theirs)


def _chunked_cases():
    rng = np.random.default_rng(7)
    for n in (1, dimension._CHUNK, 5 * dimension._CHUNK + 123):
        yield np.round(rng.normal(scale=30.0, size=n)), 0.5
    d = np.abs(rng.normal(scale=30.0, size=3 * dimension._CHUNK))
    d[dimension._CHUNK:2 * dimension._CHUNK] = np.inf    # a chunk's terms all 0
    yield d, 0.5
    d = d.copy()
    d[5] = -np.inf                                       # a chunk's maximum inf
    d[-1] = np.nan
    yield d, 0.5
    yield np.array([np.inf, 3.0]), 0.0                   # 0 * inf is nan


def test_chunked_logsumexp_bits_independent_of_threads():
    # a non-finite chunk takes the direct log(sum(exp)) from the distances,
    # not from the scratch buffer that the shifted sum overwrote
    from scipy.special import logsumexp as scipy_logsumexp
    with np.errstate(all="ignore"):
        for a, s in _chunked_cases():
            parts = [scipy_logsumexp(-s * a[i:i + dimension._CHUNK])
                     for i in range(0, a.size, dimension._CHUNK)]
            want = np.float64(parts[0] if len(parts) == 1 else scipy_logsumexp(parts))
            for threads in (1, 2, 3):
                got = np.float64(dimension._chunked_logsumexp(a, s, threads=threads))
                assert got.tobytes() == want.tobytes(), (a.size, s, threads, got, want)


def test_chunked_logsumexp_memory_is_one_chunk_per_worker():
    # each worker scales its chunks into one scratch buffer of a chunk, and
    # the shifted sum works in it; the ties mask is an eighth of a chunk,
    # and the thread pool's own objects take a few KiB
    a = np.abs(np.random.default_rng(0).normal(scale=30.0, size=5 * dimension._CHUNK + 123))
    dimension._chunked_logsumexp(a, 0.5, threads=3)     # the pool's first start
    for threads in (1, 2, 3):
        tracemalloc.start()
        try:
            dimension._chunked_logsumexp(a, 0.5, threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= threads * 9 * dimension._CHUNK + (64 << 10), threads


def test_thread_count_below_one_is_refused(reference):
    # the small-input path (every level below one chunk) still reaches the pool
    with pytest.raises(ValueError, match="at least 1"):
        dimension.estimate_delta(reference, n_max=6, threads=0)
    with pytest.raises(ValueError, match="at least 1"):
        dimension.shell_sums(reference, 0.48, 4, threads=-1)


def test_cyclic_shell_sums_on_axis_closed_form():
    # one loxodromic with axis (-1, 1) in the chart; for a basepoint on the
    # axis d(x, g^n x) = n*ell exactly, so a_n(s) = 2 exp(-s n ell)
    ell = 2.0
    att = core.chart_to_boundary(np.array([1.0]))
    rep = core.chart_to_boundary(np.array([-1.0]))
    g = schottky.build_loxodromic(att, rep, ell)
    r_iso = 1.0 / np.sinh(ell / 2.0)
    rho = 1.3 * r_iso
    pole = core.boundary_from_chart(core.group_inverse(g)[:, 0])
    tinf = core.boundary_from_chart(g[:, 0])
    gen = schottky.SchottkyGenerator(
        elem=g,
        ball_plus=schottky.Ball(tinf, rho),
        ball_minus=schottky.Ball(pole, rho),
    )
    group = schottky.SchottkyGroup([gen], name="axis-cyclic")

    x = (att + rep) / np.sqrt(2.0 * core.bilinear_form(att, rep))
    assert oracles.quadratic_form(x) == pytest.approx(1.0, abs=1e-15) and x[0] + x[-1] > 0
    dists = oracles.basepoint_distances(group, x, 5)
    for s in (0.2, 1.0):
        values = np.exp(dimension.log_shell_sums(dists, s))
        n = np.arange(1, 6)
        assert np.allclose(values[1:], 2.0 * np.exp(-s * n * ell), rtol=1e-10)


# ---------------------------------------------------------------------------
# per-level roots: synthetic closed form


def _geometric_shells(c, k, depth=6):
    # constant distance c n on shell n of the free group on k generators
    return [np.zeros(1)] + [np.full(2 * k * (2 * k - 1) ** (n - 1), c * n)
                            for n in range(1, depth + 1)]


@pytest.mark.parametrize("c", [0.5, 1.7])
@pytest.mark.parametrize("k", [2, 3])
def test_delta_from_distances_matches_geometric_closed_form(c, k):
    # the level-n ratio equation reads log(2k-1) - s*c = 0 for n >= 2,
    # log(2k) - s*c = 0 for n = 1; c = 0.5, k = 3 roots above 1 (hi_0 = 4)
    dists = _geometric_shells(c, k)
    delta, per_level, _ = dimension.delta_from_distances(dists)
    assert abs(per_level[0] - np.log(2 * k) / c) < 2e-6
    assert np.all(np.abs(per_level[1:] - np.log(2 * k - 1) / c) < 2e-6)
    assert delta == per_level[-1]
    assert np.array_equal(per_level, oracles.bisection_delta(dists)[1])


def _shells_with_roots(roots, k=2):
    # constant distances on each shell, spaced so that delta_n = roots[n - 1]
    dists, total = [np.zeros(1)], 0.0
    for n, root in enumerate(roots, start=1):
        size = 2 * k * (2 * k - 1) ** (n - 1)
        total += np.log(size / dists[-1].shape[0]) / root
        dists.append(np.full(size, total))
    return dists


def test_grid_search_follows_a_bracket_that_changes_between_levels():
    # k = 2, c = 1.2: delta_1 = log 4 / 1.2 > 1 brackets at hi_0 = 2, the
    # later roots log 3 / 1.2 < 1 at hi_0 = 1, two grids of the same spacing.
    # Level 2 walks down from delta_1's cell, clamped to the top of its own
    # grid, about 2^18 cells to delta_2; later levels end in their
    # predecessor's cell.
    dists = _geometric_shells(1.2, 2)
    _, per_level, evaluations = dimension.delta_from_distances(dists)
    assert per_level[0] > 1.0 > per_level[1]
    assert np.array_equal(per_level, oracles.bisection_delta(dists)[1])
    assert list(evaluations) == [2 + 21, 35, 3, 3, 3, 3]
    # roots 2e-4 apart across s = 1: level 3 walks from delta_2's cell on the
    # hi_0 = 2 grid, clamped to the top of its own hi_0 = 1 grid
    dists = _shells_with_roots([1 + 3e-4, 1 + 1e-4] + [1 - 1e-4] * 4)
    _, per_level, evaluations = dimension.delta_from_distances(dists)
    assert per_level[1] > 1.0 > per_level[2]
    assert np.array_equal(per_level, oracles.bisection_delta(dists)[1])
    assert list(evaluations) == [2 + 21, 2 + 16, 15, 3, 3, 3]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 3), c=st.floats(0.3, 3.0), depth=st.integers(2, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grid_search_matches_bisection_on_growing_shells(k, c, depth, seed):
    # shell n spreads its distances over [c n, c (n + 1/2)), so each shell's
    # tilted mean lies past its predecessor's and f_n decreases in s
    rng = np.random.default_rng(seed)
    dists = [np.zeros(1)] + [c * (n + 0.5 * rng.random(2 * k * (2 * k - 1) ** (n - 1)))
                             for n in range(1, depth + 1)]
    _, per_level, evaluations = dimension.delta_from_distances(dists)
    assert np.array_equal(per_level, oracles.bisection_delta(dists)[1])
    # after its bracket 1, 2, ..., hi_0 a level takes at most 2J evaluations
    # on its grid of 2^J cells, hi_0 / 2^J <= BISECTION_TOL
    hi_0 = 2.0 ** np.maximum(np.ceil(np.log2(per_level)), 0.0)
    J = np.ceil(np.log2(hi_0 / dimension.BISECTION_TOL))
    assert np.all(evaluations - (np.log2(hi_0) + 1) <= 2 * J)


def test_delta_from_distances_degenerate_on_flat_counts():
    dists = [np.zeros(1), np.array([2.0, 2.0]), np.array([4.0, 4.0])]
    with pytest.raises(core.DegenerateConfigurationError):
        dimension.delta_from_distances(dists)


def test_delta_from_distances_refusals_keep_the_bisections_class_and_message():
    flat = [np.zeros(1), np.array([2.0, 2.0]), np.array([4.0, 4.0])]
    unbounded = [np.zeros(1), np.zeros(2), np.zeros(4)]     # f(s) = log 2 for all s
    cases = [(flat, core.DegenerateConfigurationError,
              "degenerate shell growth at level 2: 2 words after 2; the series converges "
              "for all s > 0 (elementary group, delta = 0)"),
             (unbounded, core.GeometryError,
              "bisection bracket failure at level 1: shell ratio still growing at s = 1024.0")]
    for dists, cls, message in cases:
        for search in (dimension.delta_from_distances, oracles.bisection_delta):
            with pytest.raises(cls) as info:
                search(dists)
            assert type(info.value) is cls and str(info.value) == message


# ---------------------------------------------------------------------------
# estimate_delta on fixtures


def test_reference_delta_value_and_stability(reference):
    est = dimension.estimate_delta(reference, n_max=12)
    assert 0.0 < est.delta < 1.0
    assert abs(est.delta - REFERENCE_DELTA) < 2e-6
    # truncation stability: deepest levels agree
    assert abs(est.per_level[11] - est.per_level[9]) < 0.01
    assert est.spread < 1e-4
    # weak monotone trend of successive differences
    diffs = np.abs(np.diff(est.per_level))
    assert diffs[-1] <= diffs[0]
    assert est.counts[0] == 1 and est.counts[1] == 4


def test_estimate_delta_is_the_distance_seam_on_the_cache(reference, sweep_groups):
    # estimate_delta reads the level cache's distances; any other set of
    # orbit distances (another basepoint) goes through the same seam
    for group, n in ((reference, 12), (sweep_groups[3.0], 10)):
        got = dimension.delta_from_distances(group.orbit_distances(n))[0]
        assert got == dimension.estimate_delta(group, n).delta


def test_reference_roots_are_pinned(reference):
    # every delta_n at n_max = 12, as the bisection of [0, 1] found them
    est = dimension.estimate_delta(reference, n_max=12)
    assert [x.hex() for x in est.per_level] == REFERENCE_ROOTS
    assert est.delta == float.fromhex(REFERENCE_ROOTS[-1])


@pytest.mark.parametrize("n_max", range(6, 13))
def test_grid_search_matches_bisection_on_the_reference(reference, n_max):
    dists = reference.orbit_distances(n_max)
    assert np.array_equal(dimension.estimate_delta(reference, n_max=n_max).per_level,
                          oracles.bisection_delta(dists)[1])


def test_grid_search_matches_bisection_on_generated_groups():
    from perfbench import workloads
    for seed in range(8):
        dists = workloads.generated_group(seed).orbit_distances(8)
        assert np.array_equal(dimension.delta_from_distances(dists)[1],
                              oracles.bisection_delta(dists)[1])


def _fresh_reference():
    """The reference group with an empty level cache (the session fixture's
    cache depends on the tests run before)."""
    return _io.load_group_file(limset.fixture_path("reference"))


def test_reference_root_search_evaluation_counts():
    # delta_8..delta_12 share one cell, so levels 9..11 test its two ends
    # after the bracket's f(1), and level 12, summed as the walker builds it,
    # tests the two ends alone; bisection takes 21 evaluations a level, 252.
    # Levels 2..6 walk 2^11 to 2^15 cells from their predecessor's root, at
    # about 2 log2 of the distance, and levels 7 and 8 after smaller moves
    est = dimension.estimate_delta(_fresh_reference(), n_max=12)
    assert list(est.evaluations) == [21, 31, 25, 27, 23, 19, 13, 7, 3, 3, 3, 2]
    # a held level 12 is searched as delta_from_distances searches it
    held = _fresh_reference()
    held.orbit_distances(12)
    assert list(dimension.estimate_delta(held, n_max=12).evaluations)[-1] == 3


def test_readme_evaluation_total():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    total, n_max, bisection = re.search(
        r"counts its steps per level: (\d+) on the reference at n_max (\d+), against "
        r"(\d+) for bisection", readme).groups()
    est = dimension.estimate_delta(_fresh_reference(), n_max=int(n_max))
    assert est.evaluations.sum() == int(total)
    assert 21 * int(n_max) == int(bisection)


def test_generated_group_root_search_evaluation_counts():
    # level 2 of the float d = 2 benchmark groups walks far from delta_1
    from perfbench import workloads
    for seed, counts in ((0, [21, 33, 25, 15, 5, 3]), (1, [21, 33, 23, 17, 11, 5])):
        est = dimension.estimate_delta(workloads.generated_group(seed), n_max=6)
        assert list(est.evaluations) == counts


# ---------------------------------------------------------------------------
# the deepest level summed as the walker builds it


def _held_search(group, n_max):
    """delta_from_distances over the held levels 0..n_max: the oracle of the
    streamed last level."""
    dists = group.orbit_distances(n_max)
    return dists, dimension.delta_from_distances(dists)


def _check_streamed(make, n_max, streamed):
    group = make()
    est = dimension.estimate_delta(group, n_max=n_max)
    assert group.holds(n_max) != streamed       # a streamed level is never held
    dists, (delta, per_level, evaluations) = _held_search(make(), n_max)
    assert np.array_equal(est.per_level, per_level) and est.delta == delta
    assert np.array_equal(est.evaluations[:-1], evaluations[:-1])
    assert est.evaluations[-1] == (2 if streamed else evaluations[-1])
    assert list(est.counts) == [d.shape[0] for d in dists]
    # the held levels' sums keep their bits; the streamed one is summed in
    # walk order, so it may differ in its last bits
    assert np.array_equal(est.log_a[:-1], dimension.log_shell_sums(dists[:-1], delta))
    held_last = dimension._chunked_logsumexp(dists[-1], delta)
    assert abs(est.log_a[-1] - held_last) <= (1e-14 if streamed else 0.0)


@pytest.mark.parametrize("n_max", range(9, 15))
def test_streamed_reference_roots_match_the_held_search(n_max):
    # level 9's 26,244 words are one chunk, so it is held; levels 10..14 are
    # 78,732 to 6,377,292 words
    _check_streamed(_fresh_reference, n_max, streamed=n_max > 9)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n_max", range(6, 9))
def test_streamed_generated_group_roots_match_the_held_search(seed, n_max):
    # level 6's 18,750 words are one chunk, so it is held; levels 7 and 8
    # (93,750 and 468,750 words) are streamed
    from perfbench import workloads
    _check_streamed(lambda: workloads.generated_group(seed), n_max, streamed=n_max > 6)


@pytest.mark.parametrize("seed", range(8))
def test_streamed_level_of_several_small_chunks(seed, monkeypatch):
    # walked 4,096 distances at a time, level 6 is five chunks; the roots of
    # all seeds but 0 and 2 leave level 5's cell, so it is built and held
    from perfbench import workloads
    monkeypatch.setattr(dimension, "_CHUNK", 4096)
    _check_streamed(lambda: workloads.generated_group(seed), 6, streamed=seed in (0, 2))


def test_streamed_estimate_bits_are_independent_of_threads():
    one, four = (dimension.estimate_delta(_fresh_reference(), n_max=12, threads=t)
                 for t in (1, 4))
    for a, b in ((one.per_level, four.per_level), (one.log_a, four.log_a),
                 (one.evaluations, four.evaluations)):
        assert a.tobytes() == b.tobytes()


def test_levels_built_by_the_cache_take_the_held_path():
    group = _fresh_reference()
    group.levels(12)
    est = dimension.estimate_delta(group, n_max=12)
    dists = group.orbit_distances(12)
    assert est.evaluations[-1] == 3
    assert np.array_equal(est.log_a, dimension.log_shell_sums(dists, est.delta))


def test_readme_streamed_shell_figures():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    rows = re.search(r"sums level `n_max` as the walker makes it, ([\d,]+) distances", readme)
    assert int(rows.group(1).replace(",", "")) == dimension._CHUNK
    words = re.search(r"if it has at most ([\d,]+) words", readme).group(1)
    assert int(words.replace(",", "")) == dimension._CHUNK
    group = _fresh_reference()
    first = int(re.search(r"on the reference, levels (\d+) and deeper", readme).group(1))
    assert [group.word_count(n) - group.word_count(n - 1) > dimension._CHUNK
            for n in (first - 1, first)] == [False, True]
    held, top, deepest, whole = re.search(
        r"the cache then holds ([\d.]+) MiB of distances \(levels 0\.\.(\d+)\), where "
        r"with level (\d+) it held ([\d.]+) MiB", readme).groups()
    for n, mib in ((int(top), held), (int(deepest), whole)):
        assert f"{8 * group.word_count(n) / 2 ** 20:.1f}" == mib
    moved, n = re.search(r"the last row of `delta.csv` moved by ([\d.e-]+) in `log a_(\d+)`",
                         readme).groups()
    est = dimension.estimate_delta(group, n_max=int(n))
    held_sum = dimension._chunked_logsumexp(_fresh_reference().orbit_distances(int(n))[-1],
                                            est.delta)
    assert f"{abs(est.log_a[-1] - held_sum):.1e}" == moved


def test_streamed_estimate_memory_is_below_the_deepest_level():
    # levels 0..11 hold 354,293 distances (2.7 MiB); level 12's 708,588
    # (5.4 MiB) are summed 65,536 at a time as the walker makes them
    group = _fresh_reference()
    tracemalloc.start()
    try:
        dimension.estimate_delta(group, n_max=12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 << 20


def test_reference_delta_matches_the_dynamical_determinant(reference):
    """The shell-ratio delta lies within the bisection's resolution of the
    zero of the dynamical determinant, which has converged to 1e-8 by n = 10."""
    o9, o10 = (oracles.determinant_delta(reference, n) for n in (9, 10))
    assert abs(o10 - o9) <= 1e-8
    delta = dimension.estimate_delta(reference, n_max=12).delta
    assert abs(delta - o10) <= dimension.BISECTION_TOL


def test_reference_delta_basepoint_drift(reference):
    o = core.basepoint(1)
    base = dimension.estimate_delta(reference, n_max=10).delta
    for h in (core.unipotent_plus(np.array([0.3])),
              core.unipotent_plus(np.array([-0.5])),
              core.geodesic_flow(0.2, 1)):
        dists = oracles.basepoint_distances(reference, h @ o, 10)
        assert abs(dimension.delta_from_distances(dists)[0] - base) < 0.02


def test_custom_basepoint_distances_match_the_matrix_oracle(reference, sweep_groups):
    # the prepend recursion from x against W x over the oracle's matrices
    x = core.unipotent_plus(np.array([0.3])) @ core.geodesic_flow(0.4, 1) @ core.basepoint(1)
    for group in (reference, sweep_groups[2.0]):
        dists = oracles.basepoint_distances(group, x, 8)
        for d_n, oracle in zip(dists, oracles.matrix_levels(group, 8)):
            want = oracles.distance(x[None, :], oracle.mats @ x)
            assert np.abs(d_n - want).max() <= 1e-15 * max(1.0, want.max())


def test_grid_search_matches_bisection_at_custom_basepoints(reference, sweep_groups):
    o = core.basepoint(1)
    x = core.unipotent_plus(np.array([0.3])) @ core.geodesic_flow(0.4, 1) @ o
    cases = [(group, x) for group in (reference, sweep_groups[2.0])] + [
        (reference, h @ o) for h in (core.unipotent_plus(np.array([0.3])),
                                     core.unipotent_plus(np.array([-0.5])),
                                     core.geodesic_flow(0.2, 1))]
    for group, basepoint in cases:
        dists = oracles.basepoint_distances(group, basepoint, 10)
        assert np.array_equal(dimension.delta_from_distances(dists)[1],
                              oracles.bisection_delta(dists)[1])


def test_cyclic_group_is_degenerate(cyclic):
    with pytest.raises(core.DegenerateConfigurationError):
        dimension.estimate_delta(cyclic, n_max=6)


def test_estimate_delta_rejects_shallow_truncation(reference):
    with pytest.raises(ValueError):
        dimension.estimate_delta(reference, n_max=4)


def test_sweep_delta_decreases_with_translation_length(sweep_groups):
    deltas = {}
    for ell, group in sorted(sweep_groups.items()):
        est = dimension.estimate_delta(group, n_max=8)
        assert 0.0 < est.delta < 0.5
        deltas[ell] = est.delta
    assert deltas[2.0] > deltas[3.0] > deltas[4.0]


def test_sweep_truncation_spread_small(sweep_groups):
    est = dimension.estimate_delta(sweep_groups[2.0], n_max=12)
    assert est.delta < 0.5
    assert abs(est.per_level[11] - est.per_level[9]) < 0.01
