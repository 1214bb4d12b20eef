"""Fourier transform of atomic measures: closed-form oracles and scan behavior."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limset import core, fourier, measure

import oracles


def delta_at(x):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    return measure.AtomicMeasure(points=pts, weights=np.full(pts.shape[0], 1.0 / pts.shape[0]))


def random_measure(n=400, d=1, seed=11):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d)) * 2.0
    w = rng.uniform(0.1, 1.0, size=n)
    return measure.AtomicMeasure(points=pts, weights=w)


# --- transform oracles ---------------------------------------------------


def test_point_mass_transform_is_constant_one():
    mu = delta_at([0.0])
    xi = np.array([[0.0], [3.0], [-17.5], [101.25]])
    vals = fourier.fourier_transform(mu, xi)
    assert np.all(vals == 1.0 + 0.0j)


def test_zero_frequency_is_exactly_one():
    mu = random_measure(n=70000, seed=3)  # spans two atom chunks
    assert fourier.fourier_transform(mu, np.zeros(1)) == 1.0
    batch = fourier.fourier_transform(mu, np.zeros((3, 1)))
    assert np.all(batch == 1.0 + 0.0j)


def test_two_atom_half_frequency_cancellation():
    # (delta_0 + delta_1)/2 has mu-hat(1/2) = (1 + e^{i pi})/2 = 0
    mu = delta_at([[0.0], [1.0]])
    assert abs(fourier.fourier_transform(mu, np.array([0.5]))) < 1e-15


def test_conjugate_symmetry_exact():
    mu = random_measure(n=500, d=2, seed=5)
    rng = np.random.default_rng(6)
    xi = rng.normal(size=(40, 2)) * 8.0
    plus = fourier.fourier_transform(mu, xi)
    minus = fourier.fourier_transform(mu, -xi)
    assert np.array_equal(minus, np.conj(plus))


def test_modulus_bounded_by_one():
    mu = random_measure(n=2000, seed=7)
    xi = np.linspace(-50.0, 50.0, 777)[:, None]
    assert np.abs(fourier.fourier_transform(mu, xi)).max() <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(shift=st.floats(-10.0, 10.0), freq=st.floats(-30.0, 30.0))
def test_translation_rotates_phase(shift, freq):
    mu = random_measure(n=200, seed=13)
    shifted = measure.AtomicMeasure(points=mu.points + shift, weights=mu.weights)
    xi = np.array([freq])
    a = fourier.fourier_transform(mu, xi)
    b = fourier.fourier_transform(shifted, xi)
    assert abs(b - np.exp(2j * np.pi * freq * shift) * a) < 1e-10
    assert abs(abs(b) - abs(a)) < 1e-12


def test_thread_count_does_not_change_bits():
    mu = random_measure(n=5000, seed=17)
    xi = np.linspace(-40.0, 40.0, 2500)[:, None]  # several frequency blocks
    assert np.array_equal(
        fourier.fourier_transform(mu, xi, threads=1),
        fourier.fourier_transform(mu, xi, threads=4),
    )


def plain_transform(mu, xi):
    """The oracle: one dense matrix of exponentials, one product."""
    return np.exp(2j * np.pi * (xi @ mu.points.T)) @ mu.weights / mu.weights.sum()


def ball_frequencies(d, count, radius, seed):
    """``count`` frequencies drawn uniformly from the ball ||xi|| <= radius."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * radius * rng.uniform(size=(count, 1)) ** (1.0 / d)


@pytest.mark.parametrize("d", [2, 3])
def test_bits_independent_of_block_size_and_threads(d, monkeypatch):
    mu = random_measure(n=3000, d=d, seed=31)
    xi = ball_frequencies(d, 300, 256.0, seed=32)
    xi = np.concatenate([xi, -xi[:40], np.zeros((1, d))])  # antipodes, the origin
    default = fourier.fourier_transform(mu, xi, threads=1)
    monkeypatch.setattr(fourier, "_BLOCK_BYTES", 1)      # one row per block
    assert np.array_equal(fourier.fourier_transform(mu, xi, threads=3), default)
    assert fourier.fourier_transform(mu, xi[7]) == default[7]
    assert default[-1] == 1.0


@pytest.mark.parametrize("d", [2, 3])
def test_transform_matches_the_plain_sum(d):
    mu = random_measure(n=2000, d=d, seed=33)
    xi = ball_frequencies(d, 400, 256.0, seed=34)
    err = np.abs(fourier.fourier_transform(mu, xi) - plain_transform(mu, xi))
    assert err.max() <= 1e-12


def test_each_antipodal_pair_is_evaluated_once(monkeypatch):
    rows = []
    real = fourier._atom_sum
    monkeypatch.setattr(fourier, "_atom_sum",
                        lambda xt, w, f: rows.append(f.shape[0]) or real(xt, w, f))
    plane = random_measure(n=300, d=2, seed=4)
    plane = measure.AtomicMeasure(points=plane.points / 100.0, weights=plane.weights)
    for mu in (oracles.uniform_segment_measure(500), plane):
        rows.clear()
        report = fourier.decay_scan(mu, fourier.FrequencySpec())
        assert sum(rows) == report.sample_values.shape[0] // 2
    rows.clear()
    fourier.grid_statistics(random_measure(n=50, d=2, seed=3), 6.0)
    assert rows == []       # the grid takes the NUFFT, whose antipodes are conjugates


def test_transform_memory_stays_within_the_block_budget(monkeypatch):
    budget = 1 << 20
    monkeypatch.setattr(fourier, "_BLOCK_BYTES", budget)
    mu = random_measure(n=20000, d=2, seed=35)
    xi = ball_frequencies(2, 200, 64.0, seed=36)
    tracemalloc.start()
    try:
        fourier.fourier_transform(mu, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * budget      # 200 rows in one block would take 64 MB


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        fourier.fourier_transform(random_measure(d=2), np.array([1.0]))


# --- segment calibration --------------------------------------------------


def test_segment_modulus_matches_sinc():
    mu = oracles.uniform_segment_measure(1000)
    xi = np.arange(0.05, 20.0001, 0.05)
    mods = np.abs(fourier.fourier_transform(mu, xi[:, None]))
    # continuous sinc up to the discretization correction (pi xi / n)^2 / 6
    assert np.abs(mods - np.abs(np.sinc(xi))).max() < 1e-3
    # exact discrete closed form down to roundoff
    assert np.abs(mods - oracles.segment_modulus_oracle(xi, 1000)).max() < 1e-12


def test_segment_resolution_cap():
    mu = oracles.uniform_segment_measure(1000)
    assert fourier.resolution_cap(mu) == pytest.approx(250.0, rel=1e-12)
    assert fourier.resolution_cap(delta_at([0.0])) == np.inf


def test_coincident_atoms_have_no_cap():
    mu = delta_at([[1.0], [1.0]])
    with pytest.raises(core.DegenerateConfigurationError):
        fourier.resolution_cap(mu)


def test_segment_decay_exponent_near_one():
    # |mu-hat| ~ 1/(pi xi) for the segment, so kappa should fit ~1; shells
    # 256 and 512 lie above the 1000-atom cap of 250 and must be dropped
    mu = oracles.uniform_segment_measure(1000)
    report = fourier.decay_scan(mu, fourier.FrequencySpec())
    assert report.truncated_shells == 2
    assert report.shell_radii[-1] == 128.0
    assert not report.floored
    assert abs(report.kappa - 1.0) <= 0.15


# --- decay scan ------------------------------------------------------------


def test_point_mass_scan_is_flat():
    report = fourier.decay_scan(delta_at([0.0]), fourier.FrequencySpec())
    assert np.all(report.shell_max == 1.0)
    assert abs(report.kappa) < 1e-12
    assert report.resolution_cap == np.inf
    assert report.truncated_shells == 0


def test_scan_is_deterministic():
    mu = random_measure(n=3000, seed=19)
    a = fourier.decay_scan(mu, fourier.FrequencySpec(), threads=1)
    b = fourier.decay_scan(mu, fourier.FrequencySpec(), threads=3)
    assert np.array_equal(a.sample_values, b.sample_values)
    assert a.kappa == b.kappa


def test_fit_floor_skips_fit():
    radii = 4.0 * 2.0 ** np.arange(8)
    kappa, resid, floored = fourier._fit_kappa(radii, np.full(8, 1e-16))
    assert floored and np.isnan(kappa)


def test_spec_validation():
    with pytest.raises(ValueError):
        fourier.FrequencySpec(mode="spiral")
    with pytest.raises(ValueError):
        fourier.FrequencySpec(ratio=1.0)
    with pytest.raises(ValueError):
        fourier.FrequencySpec(r0=-2.0)
    with pytest.raises(ValueError):
        fourier.FrequencySpec(directions=np.array([[2.0]]))
    with pytest.raises(ValueError):
        fourier.decay_scan(delta_at([0.0]), fourier.FrequencySpec(count=4))
    with pytest.raises(ValueError):
        fourier.FrequencySpec(mode="grid")


def test_ray_mode_samples_nominal_radii_only():
    mu = oracles.uniform_segment_measure(200)
    spec = fourier.FrequencySpec(mode="ray", directions=np.array([[1.0]]))
    report = fourier.decay_scan(mu, spec)
    assert report.sample_values.shape[0] == report.shell_radii.shape[0]
    assert np.array_equal(report.sample_values,
                          fourier.fourier_transform(mu, report.shell_radii[:, None]))


def test_d2_fan_is_exactly_antipodal():
    for count in (64, 6):
        fan = fourier.default_directions(2, count=count)
        assert np.array_equal(fan[count // 2:], -fan[: count // 2])
        th = 2.0 * np.pi * np.arange(count) / count
        assert np.abs(fan - np.stack([np.cos(th), np.sin(th)], axis=1)).max() <= 1e-15
    th = 2.0 * np.pi * np.arange(7) / 7       # an odd fan has no antipodes
    assert np.array_equal(fourier.default_directions(2, count=7),
                          np.stack([np.cos(th), np.sin(th)], axis=1))


def test_default_directions_are_unit():
    for d in (1, 2, 3, 5):
        dirs = fourier.default_directions(d)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    assert fourier.default_directions(1).shape == (2, 1)
    assert fourier.default_directions(2).shape == (64, 2)


# --- L2 average -------------------------------------------------------------


def test_l2_point_mass_gives_ball_volume():
    # |mu-hat| = 1 everywhere, so the integral is just the ball volume
    for radius in (8.0, 32.0):
        est = fourier.l2_average(delta_at([0.0]), radius)
        assert est.value == pytest.approx(2.0 * radius, rel=0.02)
    est2 = fourier.l2_average(delta_at([[0.0, 0.0]]), 4.0)
    assert est2.value == pytest.approx(np.pi * 16.0, rel=0.02)


def test_l2_grid_validation():
    mu = delta_at([0.0])
    with pytest.raises(ValueError):
        fourier.l2_average(mu, 8.0, grid_step=0.3)
    with pytest.raises(ValueError):
        fourier.l2_average(mu, -1.0)


def test_l2_stable_under_atom_doubling():
    a = fourier.l2_average(oracles.uniform_segment_measure(1000), 16.0).value
    b = fourier.l2_average(oracles.uniform_segment_measure(2000), 16.0).value
    assert abs(a - b) / a < 0.05


def test_l2_segment_doubling_ratio():
    # full-dimensional measure on the line: d - alpha = 0, so the L2 mass
    # over ||xi|| <= R saturates and doubling ratios stay near 1
    mu = oracles.uniform_segment_measure(1000)
    vals = {r: fourier.l2_average(mu, r).value for r in (32.0, 64.0, 128.0)}
    assert vals[64.0] / vals[32.0] <= 2.0 ** 0.3
    assert vals[128.0] / vals[64.0] <= 2.0 ** 0.3


REFERENCE_DELTA = 0.4842963218688965      # delta_12 of the reference (README)


def grid_inputs(reference):
    """(measure, radius) of the four oracle inputs of the grid NUFFT."""
    mu8 = measure.patterson_orbit_measure(reference, REFERENCE_DELTA, 0.02, 8)
    return {"segment": (oracles.uniform_segment_measure(1000), 64.0),
            "mu8": (mu8, 256.0),
            "d2": (random_measure(n=3000, d=2, seed=41), 8.0),
            "d3": (random_measure(n=300, d=3, seed=42), 2.0)}


def grid_and_direct(mu, radius, step=0.25):
    """The NUFFT's values on the cube |k_a| <= radius/step, their frequencies
    in the same order, and the direct sum at those frequencies."""
    k_max = int(radius // step)
    ax = np.arange(-k_max, k_max + 1) * step
    freqs = np.stack([g.ravel() for g in np.meshgrid(*[ax] * mu.d, indexing="ij")], axis=1)
    vals = fourier._grid_values(mu.points, mu.weights, step, k_max, threads=1).ravel()
    return freqs, vals, fourier.fourier_transform(mu, freqs)


@pytest.mark.parametrize("name", ["segment", "mu8", "d2", "d3"])
def test_grid_nufft_matches_direct_sum(reference, name):
    mu, radius = grid_inputs(reference)[name]
    freqs, vals, direct = grid_and_direct(mu, radius)
    assert np.abs(vals - direct).max() <= 1e-10
    if name == "segment":
        oracle = oracles.segment_modulus_oracle(freqs[:, 0], 1000)
        assert np.abs(np.abs(vals) - oracle).max() <= 1e-10


def test_grid_nufft_exceptional_cells_match_direct_sum(reference):
    # no cell of the mu8 or d = 2 grid lies on the other side of T^{-delta}
    # than under the direct sum, at T = the radius and every delta of a sweep
    inputs = grid_inputs(reference)
    for name in ("mu8", "d2"):
        mu, radius = inputs[name]
        _, vals, direct = grid_and_direct(mu, radius)
        for dexp in np.arange(0.05, 0.46, 0.05):
            level = radius ** -dexp
            assert np.count_nonzero((np.abs(vals) > level) != (np.abs(direct) > level)) == 0


def test_grid_nufft_bits_independent_of_threads(monkeypatch):
    monkeypatch.setattr(fourier, "_SPREAD_BYTES", 1 << 16)  # several blocks a chunk
    for d, n, k_max in ((1, 3000, 200), (2, 3000, 12), (3, 400, 3)):
        monkeypatch.setattr(fourier, "_ATOM_CHUNK", n // 4 - 1)    # five chunks
        mu = random_measure(n=n, d=d, seed=43)
        one = fourier._grid_values(mu.points, mu.weights, 0.25, k_max, threads=1)
        for threads in (2, 3):
            assert np.array_equal(
                fourier._grid_values(mu.points, mu.weights, 0.25, k_max, threads), one)
        flat = one.ravel()
        assert np.array_equal(flat, np.conj(flat[::-1]))      # mu-hat(-xi), bit for bit
        assert flat[flat.size // 2] == 1.0
        stats = [fourier.grid_statistics(mu, k_max * 0.25, threads=t)[0] for t in (1, 2)]
        assert stats[0] == stats[1]


def test_grid_budget_refuses_before_any_work(monkeypatch):
    # the CLI defaults (grid_max 256, step 0.25): a 5-smooth fine grid of
    # 4320 a side, not 8192, fits in d = 2 and not in d = 3
    assert fourier._fine_size(2 * 1024 + 1) == 4320
    assert fourier.check_grid_budget(2, 4687, 256.0, 0.25, threads=2) < fourier._GRID_BUDGET
    monkeypatch.setattr(fourier, "_grid_values", None)       # would fail if reached
    for d, radius in ((3, 256.0), (2, 1024.0)):
        with pytest.raises(ValueError, match="over the budget of 1 GiB"):
            fourier.check_grid_budget(d, 100, radius, 0.25)
        with pytest.raises(ValueError, match=f"in d = {d} would hold about"):
            fourier.grid_statistics(random_measure(n=10, d=d), radius)


def test_grid_memory_stays_within_the_estimate(monkeypatch):
    monkeypatch.setattr(fourier, "_ATOM_CHUNK", 1000)        # a partial grid per worker
    for d, radius in ((1, 256.0), (2, 24.0)):
        mu = random_measure(n=4000, d=d, seed=44)
        need = fourier.check_grid_budget(d, mu.n, radius, 0.25, threads=2)
        tracemalloc.start()
        try:
            fourier.grid_statistics(mu, radius, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need + 3 * fourier._SPREAD_BYTES    # and a spreading block a worker


# --- exceptional set ---------------------------------------------------------


def test_exceptional_point_mass_fills_ball():
    est = fourier.exceptional_set_measure(delta_at([0.0]), 16.0, 0.5)
    assert est.fraction == pytest.approx(1.0, abs=0.01)
    assert est.threshold == pytest.approx(16.0 ** -0.5)


def test_exceptional_segment_shrinks_with_t():
    mu = oracles.uniform_segment_measure(1000)
    fractions = [
        fourier.exceptional_set_measure(mu, t, 0.5).fraction
        for t in (16.0, 64.0, 256.0)
    ]
    assert fractions[0] > fractions[1] > fractions[2]


def test_exceptional_validation():
    mu = delta_at([0.0])
    with pytest.raises(ValueError):
        fourier.exceptional_set_measure(mu, 16.0, 0.0)
    with pytest.raises(ValueError):
        fourier.exceptional_set_measure(mu, 16.0, 1.0)
    with pytest.raises(ValueError):
        fourier.exceptional_set_measure(mu, 2.0, 0.5)


def test_exceptional_sweep_matches_single_calls():
    mu = oracles.uniform_segment_measure(500)
    dg, tv, fracs, lebs = fourier.exceptional_sweep(
        mu, t_values=(16.0, 64.0), delta_grid=np.array([0.2, 0.45]))
    for i, dexp in enumerate(dg):
        for j, t in enumerate(tv):
            one = fourier.exceptional_set_measure(mu, t, dexp)
            assert fracs[i, j] == one.fraction
            assert lebs[i, j] == one.lebesgue
    # d = 2: every T reads the one grid of radius max(T)
    mu2 = random_measure(n=60, d=2, seed=4)
    dg, tv, fracs, lebs = fourier.exceptional_sweep(
        mu2, t_values=(6.0, 4.0), delta_grid=np.array([0.2, 0.45]))
    for i, dexp in enumerate(dg):
        for j, t in enumerate(tv):
            one = fourier.exceptional_set_measure(mu2, t, dexp)
            assert fracs[i, j] == one.fraction
            assert lebs[i, j] == one.lebesgue


def test_exceptional_sweep_validation():
    mu = oracles.uniform_segment_measure(100)
    for t, step in (([2.0], 0.5), ([2.0], 0.25), ([16.0], 0.5), ([16.0], 0.0),
                    ([16.0], -0.25)):
        with pytest.raises(ValueError, match=None if t[0] < 4 else f"got {step}"):
            fourier.exceptional_sweep(mu, t, [0.5], grid_step=step)
    with pytest.raises(ValueError):
        fourier.exceptional_sweep(mu, [16.0], [1.5])


def test_grid_statistics_reads_one_grid():
    # the L2 average and the exceptional sets of one call match the
    # single-purpose calls, in d = 1 (half line) and d = 2 (ball)
    for mu, radius, ts in ((random_measure(n=300, seed=8), 20.0, [5.0, 20.0]),
                           (random_measure(n=40, d=2, seed=9), 5.0, [4.5, 5.0])):
        l2, fracs, lebs = fourier.grid_statistics(mu, radius, ts, [0.1, 0.3])
        assert l2 == fourier.l2_average(mu, radius)
        for i, dexp in enumerate((0.1, 0.3)):
            for j, t in enumerate(ts):
                one = fourier.exceptional_set_measure(mu, t, dexp)
                assert (fracs[i, j], lebs[i, j]) == (one.fraction, one.lebesgue)
    with pytest.raises(ValueError):
        fourier.grid_statistics(delta_at([0.0]), 8.0, [16.0], [0.5])


def test_thread_count_below_one_is_refused():
    mu = random_measure(n=50, seed=2)
    with pytest.raises(ValueError, match="at least 1"):
        fourier.fourier_transform(mu, [1.0], threads=-5)
    with pytest.raises(ValueError, match="at least 1"):
        fourier.decay_scan(mu, fourier.FrequencySpec(), threads=0)
    with pytest.raises(ValueError, match="at least 1"):
        fourier.l2_average(mu, 8.0, threads=0)
