"""Fourier transform of atomic measures: closed-form oracles and scan behavior."""

import tracemalloc
import warnings

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
    vals = oracles.fourier_transform(mu, xi)
    assert np.all(vals == 1.0 + 0.0j)


def test_zero_frequency_is_exactly_one():
    mu = random_measure(n=70000, seed=3)  # spans two atom chunks
    assert oracles.fourier_transform(mu, np.zeros(1)) == 1.0
    batch = oracles.fourier_transform(mu, np.zeros((3, 1)))
    assert np.all(batch == 1.0 + 0.0j)


def test_two_atom_half_frequency_cancellation():
    # (delta_0 + delta_1)/2 has mu-hat(1/2) = (1 + e^{i pi})/2 = 0
    mu = delta_at([[0.0], [1.0]])
    assert abs(oracles.fourier_transform(mu, np.array([0.5]))) < 1e-15


def test_conjugate_symmetry_exact():
    mu = random_measure(n=500, d=2, seed=5)
    rng = np.random.default_rng(6)
    xi = rng.normal(size=(40, 2)) * 8.0
    plus = oracles.fourier_transform(mu, xi)
    minus = oracles.fourier_transform(mu, -xi)
    assert np.array_equal(minus, np.conj(plus))


def test_modulus_bounded_by_one():
    mu = random_measure(n=2000, seed=7)
    xi = np.linspace(-50.0, 50.0, 777)[:, None]
    assert np.abs(oracles.fourier_transform(mu, xi)).max() <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(shift=st.floats(-10.0, 10.0), freq=st.floats(-30.0, 30.0))
def test_translation_rotates_phase(shift, freq):
    mu = random_measure(n=200, seed=13)
    shifted = measure.AtomicMeasure(points=mu.points + shift, weights=mu.weights)
    xi = np.array([freq])
    a = oracles.fourier_transform(mu, xi)
    b = oracles.fourier_transform(shifted, xi)
    assert abs(b - np.exp(2j * np.pi * freq * shift) * a) < 1e-10
    assert abs(abs(b) - abs(a)) < 1e-12


def test_thread_count_does_not_change_bits():
    mu = random_measure(n=5000, seed=17)
    xi = np.linspace(-40.0, 40.0, 2500)[:, None]  # several frequency blocks
    assert np.array_equal(
        oracles.fourier_transform(mu, xi, threads=1),
        oracles.fourier_transform(mu, xi, threads=4),
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
    default = oracles.fourier_transform(mu, xi, threads=1)
    monkeypatch.setattr(oracles, "_BLOCK_BYTES", 1)      # one row per block
    assert np.array_equal(oracles.fourier_transform(mu, xi, threads=3), default)
    assert oracles.fourier_transform(mu, xi[7]) == default[7]
    assert default[-1] == 1.0


@pytest.mark.parametrize("d", [2, 3])
def test_transform_matches_the_plain_sum(d):
    mu = random_measure(n=2000, d=d, seed=33)
    xi = ball_frequencies(d, 400, 256.0, seed=34)
    err = np.abs(oracles.fourier_transform(mu, xi) - plain_transform(mu, xi))
    assert err.max() <= 1e-12


def test_each_antipodal_pair_is_evaluated_once(monkeypatch):
    # the decay scan transforms one direction of each antipodal pair, one
    # after another on the calling thread whatever the thread count, and
    # neither the scan nor the grid sums directly
    rows, maps = [], []
    real_map = core.parallel_map
    monkeypatch.setattr(fourier, "_ray_sum", lambda *args: rows.append(args) or None)
    monkeypatch.setattr(core, "parallel_map", lambda fn, items, threads=1:
                        maps.append((len(items), threads)) or real_map(fn, items, threads))
    plane = random_measure(n=300, d=2, seed=4)
    plane = measure.AtomicMeasure(points=plane.points / 100.0, weights=plane.weights)
    for mu, fan in ((oracles.uniform_segment_measure(500), 2), (plane, 64)):
        maps.clear()
        report = fourier.decay_scan(mu, fourier.FrequencySpec(), threads=2)
        assert maps == [(fan // 2, 1)]
        assert np.unique(report.sample_dir_index).size == fan
    fourier.grid_statistics(random_measure(n=50, d=2, seed=3), 6.0)
    assert rows == []


def test_transform_memory_stays_within_the_block_budget(monkeypatch):
    budget = 1 << 20
    monkeypatch.setattr(oracles, "_BLOCK_BYTES", budget)
    mu = random_measure(n=20000, d=2, seed=35)
    xi = ball_frequencies(2, 200, 64.0, seed=36)
    tracemalloc.start()
    try:
        oracles.fourier_transform(mu, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * budget      # 200 rows in one block would take 64 MB


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        oracles.fourier_transform(random_measure(d=2), np.array([1.0]))


# --- segment calibration --------------------------------------------------


def test_segment_modulus_matches_sinc():
    mu = oracles.uniform_segment_measure(1000)
    xi = np.arange(0.05, 20.0001, 0.05)
    mods = np.abs(oracles.fourier_transform(mu, xi[:, None]))
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
    kappa, resid, stderr, floored = fourier._fit_kappa(radii, np.full(8, 1e-16))
    assert floored and np.isnan(kappa) and np.isnan(stderr)


def test_kappa_stderr_is_the_slope_standard_error():
    # the hand least-squares fit on the upper half of the shells: slope
    # sum(dx dy) / sum(dx^2), standard error sqrt(SSR / (n - 2) / sum(dx^2))
    rng = np.random.default_rng(12)
    for k in (5, 6, 9):
        radii = 4.0 * 2.0 ** np.arange(k)
        maxima = radii ** -0.7 * np.exp(0.3 * rng.normal(size=k))
        kappa, resid, stderr, floored = fourier._fit_kappa(radii, maxima)
        x, y = np.log(radii[k // 2:]), np.log(maxima[k // 2:])
        dx = x - x.mean()
        slope = np.sum(dx * (y - y.mean())) / np.sum(dx * dx)
        ssr = np.sum((y - y.mean() - slope * dx) ** 2)
        assert not floored and x.size == (k + 1) // 2
        assert kappa == pytest.approx(-slope, rel=1e-12)
        assert stderr == pytest.approx(np.sqrt(ssr / (x.size - 2) / np.sum(dx * dx)), rel=1e-9)
    for k in (3, 4):             # two fitted points
        radii = 4.0 * 2.0 ** np.arange(k)
        kappa, _, stderr, floored = fourier._fit_kappa(radii, radii ** -0.5)
        assert not floored and np.isfinite(kappa) and np.isnan(stderr)
    for k in (1, 2):             # one fitted point: no line
        radii = 4.0 * 2.0 ** np.arange(k)
        kappa, resid, stderr, floored = fourier._fit_kappa(radii, radii ** -0.5)
        assert not floored and np.isnan([kappa, resid, stderr]).all()
    assert fourier.decay_scan(delta_at([0.0]), fourier.FrequencySpec()).kappa_stderr == 0.0
    # the resolution cap keeps one shell of this cloud: no line, no warning
    pts = np.random.default_rng(3).normal(size=(500, 3)) * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fourier.decay_scan(delta_at(pts), fourier.FrequencySpec(r0=0.25))
    assert report.shell_radii.shape[0] == 1 and not report.floored
    assert np.isnan([report.kappa, report.fit_residual, report.kappa_stderr]).all()


def test_spec_validation():
    with pytest.raises(ValueError):
        fourier.FrequencySpec(mode="spiral")
    with pytest.raises(ValueError, match="mode"):
        fourier.FrequencySpec(mode="ray")
    with pytest.raises(ValueError, match="samples_per_shell"):
        fourier.FrequencySpec(samples_per_shell=0)
    with pytest.raises(ValueError):
        fourier.FrequencySpec(ratio=1.0)
    with pytest.raises(ValueError):
        fourier.FrequencySpec(r0=-2.0)
    with pytest.raises(ValueError):
        fourier.decay_scan(delta_at([0.0]), fourier.FrequencySpec(count=4))
    with pytest.raises(ValueError):
        fourier.FrequencySpec(mode="grid")


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


# --- decay scan by the type-3 transform --------------------------------------

RAY_BOUND = 1e-10      # the type-3 scan against the direct sum
CLI_SHELLS = fourier.FrequencySpec(r0=1.0, count=9)      # shells 1 .. 256


def scaled(mu, factor):
    return measure.AtomicMeasure(points=mu.points * factor, weights=mu.weights)


def clustered_measure():
    """Six clusters of 500 atoms, each 1e-3 wide, spread over [-5, 5]."""
    rng = np.random.default_rng(54)
    centres = rng.uniform(-5.0, 5.0, size=(6, 1, 1))
    pts = (centres + 1e-3 * rng.normal(size=(6, 500, 1))).reshape(-1, 1)
    return measure.AtomicMeasure(points=pts, weights=rng.uniform(0.1, 1.0, size=3000))


def shifted_segment(shift):
    seg = oracles.uniform_segment_measure(1000)
    return measure.AtomicMeasure(points=seg.points + shift, weights=seg.weights)


def ray_inputs(reference):
    return {"d1": random_measure(n=3000, seed=51),
            "d2": scaled(random_measure(n=2000, d=2, seed=52), 0.01),
            "d3": scaled(random_measure(n=500, d=3, seed=53), 0.01),
            "segment": oracles.uniform_segment_measure(1000),
            "shifted": shifted_segment(1e4),       # r max |x_j| up to 2.5e6
            "mu9": measure.patterson_orbit_measure(reference, REFERENCE_DELTA, 0.02, 9),
            "clustered": clustered_measure()}


def scan_frequencies(mu, spec, report):
    """The frequency of each sample of ``report`` in its order: shell-major,
    then direction, then radial position."""
    dirs = fourier.default_directions(mu.d)
    frac = (np.arange(spec.samples_per_shell) + 0.5) / spec.samples_per_shell
    radii = np.minimum(report.shell_radii[:, None] * spec.ratio ** frac[None, :],
                       report.resolution_cap)
    return (radii[:, None, :, None] * dirs[None, :, None, :]).reshape(-1, mu.d)


@pytest.mark.parametrize("name", ["d1", "d2", "d3", "segment", "shifted", "mu9", "clustered"])
def test_ray_scan_matches_the_direct_sum(reference, name):
    mu = ray_inputs(reference)[name]
    report = fourier.decay_scan(mu, CLI_SHELLS)
    freqs = scan_frequencies(mu, CLI_SHELLS, report)
    direct = oracles._nudft(mu.points, mu.weights, freqs, 1)
    assert np.abs(report.sample_values - direct).max() <= RAY_BOUND
    if name == "segment":
        oracle = oracles.segment_modulus_oracle(freqs[:, 0], 1000)
        assert np.abs(np.abs(report.sample_values) - oracle).max() <= 1e-12


def test_ray_scan_bits_independent_of_threads_and_antipodal(monkeypatch):
    monkeypatch.setattr(fourier, "_SPREAD_BYTES", 1 << 14)    # many blocks a direction
    for mu in (random_measure(n=3000, seed=55), scaled(random_measure(n=2000, d=2, seed=56), 0.01)):
        one = fourier.decay_scan(mu, CLI_SHELLS, threads=1)
        assert np.array_equal(fourier.decay_scan(mu, CLI_SHELLS, threads=3).sample_values,
                              one.sample_values)
        # each fan's second half is its first half negated
        fan = one.sample_values.reshape(one.shell_radii.shape[0], 2 if mu.d == 1 else 64, -1)
        half = fan.shape[1] // 2
        assert np.array_equal(fan[:, half:], np.conj(fan[:, :half]))
    mu = scaled(random_measure(n=500, d=3, seed=57), 0.01)
    dirs = fourier.default_directions(3, count=8)
    radii = np.geomspace(1.0, 200.0, 40)
    rays = fourier._ray_transform(mu.points, mu.weights, np.concatenate([dirs, -dirs]), radii, 2)
    assert np.array_equal(rays[8:], np.conj(rays[:8]))
    assert np.array_equal(rays[:8], fourier._ray_transform(mu.points, mu.weights, dirs, radii, 1))


def test_ray_scan_keeps_the_direct_sum_over_the_grid_budget(monkeypatch):
    def scan_and_direct(mu, spec):
        """The scan's values at threads 1 and 3, and the direct d-dimensional sum."""
        report = fourier.decay_scan(mu, spec, threads=1)
        three = fourier.decay_scan(mu, spec, threads=3).sample_values
        freqs = scan_frequencies(mu, spec, report)
        return report.sample_values, three, oracles._nudft(mu.points, mu.weights, freqs, 1)

    mu = scaled(random_measure(n=1000, d=2, seed=58), 0.01)
    real_sum = fourier._ray_sum
    monkeypatch.setattr(fourier, "_ray_sum", None)     # under the budget: never reached
    fourier.decay_scan(mu, CLI_SHELLS)
    monkeypatch.setattr(fourier, "_ray_sum", real_sum)
    monkeypatch.setattr(fourier, "_GRID_BUDGET", 1 << 10)
    asked, real_map = [], core.parallel_map     # the direct sums keep the pool
    monkeypatch.setattr(core, "parallel_map", lambda fn, items, threads=1:
                        asked.append(threads) or real_map(fn, items, threads))
    one, three, want = scan_and_direct(mu, CLI_SHELLS)
    assert asked[:2] == [1, 3]     # then the oracle's own map
    assert np.array_equal(one, three)
    assert np.abs(one - want).max() <= 1e-12
    monkeypatch.undo()
    # supports spanning 1e6 at the default budget: in d = 1 the phase r t_j
    # rounds as the direct sum's does; in d = 2 r <theta, x_j> and
    # sum_a (r theta_a) x_a differ at phases near 1e9 (2.4e-10 seen)
    seg = oracles.uniform_segment_measure(1000)
    for far, bound in (([1e6], 1e-12), ([1e6, 3e5], 1e-9)):
        pts = np.concatenate([np.repeat(seg.points, len(far), axis=1), [far]])
        wide = measure.AtomicMeasure(points=pts, weights=np.full(1001, 1e-3))
        one, three, want = scan_and_direct(wide, fourier.FrequencySpec())
        assert np.array_equal(one, three)
        assert np.abs(one - want).max() <= bound


def test_ray_sum_memory_is_set_by_the_block():
    mu = random_measure(n=8192, seed=60)
    xt, radii = mu.points.T, np.geomspace(1.0, 64.0, 2000)
    blocks = [slice(i, min(i + 4096, mu.n)) for i in range(0, mu.n, 4096)]
    tracemalloc.start()
    try:
        sums = fourier._ray_sum(xt, mu.weights, np.array([1.0]), radii, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * fourier._SPREAD_BYTES    # all 2000 radii a block would take 131 MB
    want = oracles._nudft(mu.points, mu.weights, radii[:, None], 1)
    assert np.abs(sums / mu.weights.sum() - want).max() <= 1e-12


def test_ray_scan_of_a_single_projection_is_the_closed_form():
    # a point mass, and a line of atoms seen across it: every projection is t0
    radii = np.geomspace(1.0, 400.0, 50)
    line = measure.AtomicMeasure(points=np.stack([np.full(40, 0.3), np.linspace(0, 1, 40)], 1),
                                 weights=np.full(40, 0.025))
    for mu, theta, t0 in ((delta_at([0.7]), [1.0], 0.7), (line, [1.0, 0.0], 0.3)):
        rays = fourier._ray_transform(mu.points, mu.weights, np.array([theta]), radii, 1)
        assert np.array_equal(rays[0], np.exp(2j * np.pi * radii * t0))
    rays = fourier._ray_transform(line.points, line.weights, np.array([[0.6, 0.8]]), radii[:1], 1)
    direct = oracles.fourier_transform(line, radii[0] * np.array([0.6, 0.8]))
    assert abs(rays[0, 0] - direct) <= RAY_BOUND


def test_ray_spread_memory_is_set_by_the_block():
    mu = random_measure(n=200_000, seed=59)
    radii = np.geomspace(1.0, 64.0, 50)
    tracemalloc.start()
    try:
        fourier._ray_transform(mu.points, mu.weights, np.array([[1.0]]), radii, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * fourier._SPREAD_BYTES      # one unblocked kernel would take 38 MB


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
    """(measure, radius) of the five oracle inputs of the grid NUFFT."""
    mu8 = measure.patterson_orbit_measure(reference, REFERENCE_DELTA, 0.02, 8)
    return {"segment": (oracles.uniform_segment_measure(1000), 64.0),
            "shifted": (shifted_segment(1e3), 250.0),      # |xi| max |x_j| up to 2.5e5
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
    return freqs, vals, oracles.fourier_transform(mu, freqs)


@pytest.mark.parametrize("name", ["segment", "shifted", "mu8", "d2", "d3"])
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
    # one grid_statistics call over a (delta, T) grid reads the one grid of
    # radius max(T); each cell equals the single-purpose call
    mu = oracles.uniform_segment_measure(500)
    dg, tv = np.array([0.2, 0.45]), [16.0, 64.0]
    _, fracs, lebs = fourier.grid_statistics(mu, max(tv), tv, dg)
    for i, dexp in enumerate(dg):
        for j, t in enumerate(tv):
            one = fourier.exceptional_set_measure(mu, t, dexp)
            assert fracs[i, j] == one.fraction
            assert lebs[i, j] == one.lebesgue
    # d = 2: the ball of each T inside the cube of radius max(T)
    mu2 = random_measure(n=60, d=2, seed=4)
    tv = sorted((6.0, 4.0))
    _, fracs, lebs = fourier.grid_statistics(mu2, max(tv), tv, dg)
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
            fourier.grid_statistics(mu, max(t), t, [0.5], grid_step=step)
    with pytest.raises(ValueError):
        fourier.grid_statistics(mu, 16.0, [16.0], [1.5])


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
        oracles.fourier_transform(mu, [1.0], threads=-5)
    with pytest.raises(ValueError, match="at least 1"):
        fourier.decay_scan(mu, fourier.FrequencySpec(), threads=0)
    with pytest.raises(ValueError, match="at least 1"):
        fourier.l2_average(mu, 8.0, threads=0)
