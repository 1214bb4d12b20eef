"""Acceptance gate: the top-level requirements, one pass/fail line each.

Every test here is a complete end-to-end criterion with pinned tolerances
and, where stated, a wall-clock budget.  They deliberately re-run pieces
covered by the unit suites at full scale — the point is a one-glance verdict
on the whole laboratory, not incremental coverage.
"""

import time

import numpy as np
import pytest

import limset
from limset import _io, cli, core, dimension, fourier, holonomy, measure, nonconc

import oracles

REF = limset.fixture_path("reference")


@pytest.fixture(scope="module")
def delta12(reference):
    return dimension.estimate_delta(reference, n_max=12)


def test_01_holonomy_closed_forms_match_factorization():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_phi = worst_tau = 0.0
    for i in range(10_000):
        h = holonomy.random_regime_input(rng, 1 + i % 3)
        res = holonomy.factorize_product(h.v, h.w, h.tau, h.m)
        worst_phi = max(worst_phi,
                        float(np.abs(res.phi - holonomy.phi_closed_form(h)).max()))
        worst_tau = max(worst_tau, abs(res.t_out - holonomy.tau_closed_form(h)))
    elapsed = time.perf_counter() - start
    assert worst_phi < 1e-10, f"phi residual {worst_phi}"
    assert worst_tau < 1e-10, f"tau residual {worst_tau}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_02_linearization_error_contracts():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    for i in range(100):
        d = 1 + i % 3
        h = holonomy.random_regime_input(rng, d, w_min=0.1)
        u = rng.standard_normal(d)
        xi = rng.uniform(1.0, 8.0) * u / np.linalg.norm(u)
        e5 = oracles.linearization_error(h, xi, 5.0)
        if e5 < 1e-13:
            continue    # phases already agree to rounding; the ratio is noise
        e10 = oracles.linearization_error(h, xi, 10.0)
        assert e10 / e5 <= 3.0 * np.exp(-5.0), f"ratio {e10 / e5} at input {i}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 80
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_03_model_invariants_at_depth(reference):
    # The float64 defect of a word with entries ~1e14 is rounding-dominated
    # (~||g||^2 eps ~ 1e-2 relative is 1e12 absolute), so the certificate runs
    # on the exact integer products: the matrix oracle's float64 levels hold
    # integers through depth 12, the form defect is evaluated in arbitrary
    # precision, and the cached vectors are the products' corner column sums
    # (the 2^53 guard certifies them through depth 12).
    assert reference.exact_through(12) == 12
    J = np.vectorize(int, otypes=[object])(
        np.rint(core.gram_matrix(reference.d)).astype(object))
    worst = 0
    for n, oracle in enumerate(oracles.matrix_levels(reference, 12)):
        mats = oracle.mats
        assert np.array_equal(mats, np.rint(mats))
        assert np.array_equal(reference.level(n).vecs, mats[:, :, 0] + mats[:, :, -1])
        gi = mats.astype(np.int64).astype(object)
        resid = np.matmul(gi.transpose(0, 2, 1), np.matmul(J[None], gi)) - J[None]
        worst = max(worst, max(abs(int(v)) for v in resid.ravel()))
    assert worst <= 1e-9, f"form defect {worst} over words of length <= 12"
    # drift correction fixes these words (already on the group, nothing to
    # move), and they are their letters' Python-int products
    words = reference.level(12).words     # decoded from the row indices
    for idx in (0, len(mats) // 2, len(mats) - 1):
        assert np.array_equal(core.project_so(mats[idx]), mats[idx])
        assert np.array_equal(mats[idx].astype(object),
                              oracles.integer_word_product(reference, words[idx]))

    rng = np.random.default_rng(31)
    worst_coc = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        xi = core.chart_to_boundary(rng.uniform(-2.0, 2.0, size=d))
        pts = []
        for _ in range(3):
            g = (core.unipotent_plus(0.5 * rng.standard_normal(d))
                 @ core.unipotent_minus(0.5 * rng.standard_normal(d))
                 @ core.geodesic_flow(float(rng.uniform(-1.0, 1.0)), d))
            pts.append(g @ core.basepoint(d))
        x, y, z = pts
        coc = (core.busemann(xi, x, y) + core.busemann(xi, y, z)
               - core.busemann(xi, x, z))
        worst_coc = max(worst_coc, abs(coc))
    assert worst_coc < 1e-8, f"cocycle residual {worst_coc}"


def test_04_critical_exponent_stability(reference):
    start = time.perf_counter()
    est12 = dimension.estimate_delta(reference, n_max=12)
    est10 = dimension.estimate_delta(reference, n_max=10)
    assert 0.0 < est12.delta < 1.0
    assert abs(est12.delta - est10.delta) < 0.01, \
        f"delta_12 {est12.delta} vs delta_10 {est10.delta}"
    o = core.basepoint(1)
    moved = core.unipotent_plus(np.array([0.3])) @ core.geodesic_flow(0.4, 1) @ o
    delta_p = dimension.delta_from_distances(oracles.basepoint_distances(reference, moved, 12))[0]
    assert abs(delta_p - est12.delta) < 0.02, f"basepoint drift {abs(delta_p - est12.delta)}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_05_measure_consistency(reference, delta12):
    delta = delta12.delta
    eps = 0.02
    mu8 = measure.patterson_orbit_measure(reference, delta, eps, 8)
    mu12 = measure.patterson_orbit_measure(reference, delta, eps, 12)
    g1 = reference.gens[0].elem
    r8 = measure.conformality_residual(mu8, g1, delta + eps)
    r12 = measure.conformality_residual(mu12, g1, delta + eps)
    assert r8 / r12 >= 1.5, f"residual ratio {r8 / r12}"

    est = oracles.local_dimension_estimate(mu12, sample_count=200, seed=0)
    assert abs(est.slope - delta) < 0.05, f"local dim {est.slope} vs {delta}"

    frame = oracles.FramePoint(np.eye(3))
    for t in (0.5, 1.0):
        ratio = oracles.flow_equivariance_ratio(mu12, frame, delta, t)
        predicted = np.exp(delta * t)
        assert abs(ratio / predicted - 1.0) <= 0.10, \
            f"flow mass ratio {ratio} vs e^(delta t) {predicted}"


def test_06_fourier_engine_sinc_calibration():
    start = time.perf_counter()
    seg = oracles.uniform_segment_measure(1000)
    cap = fourier.resolution_cap(seg)
    xi = np.arange(0.5, cap, 0.5)[:, None]
    mods = np.abs(fourier.fourier_transform(seg, xi))
    worst = float(np.abs(mods - np.abs(np.sinc(xi[:, 0]))).max())
    assert worst <= 1e-3, f"sinc deviation {worst} below cap {cap}"

    fine = oracles.uniform_segment_measure(10_000)
    report = fourier.decay_scan(fine, fourier.FrequencySpec(), seed=0)
    assert 0.85 <= report.kappa <= 1.15, f"kappa {report.kappa}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_07_decay_flattening_l2_experiment(reference, delta12):
    start = time.perf_counter()
    delta = delta12.delta
    eps = 0.01
    mu10 = measure.patterson_orbit_measure(reference, delta, eps, 10)
    mu12 = measure.patterson_orbit_measure(reference, delta, eps, 12)

    # (a) positive decay exponent, stable under deepening the truncation
    spec = fourier.FrequencySpec()
    k10 = fourier.decay_scan(mu10, spec, seed=0).kappa
    k12 = fourier.decay_scan(mu12, spec, seed=0).kappa
    assert k10 > 0.0 and k12 > 0.0, f"kappa {k10}, {k12}"
    assert abs(k12 - k10) <= 0.1, f"kappa drift {abs(k12 - k10)}"

    # (b) exceptional-set fraction at threshold T^-d_exp shrinks with T
    grid, t_values = np.array([0.05, 0.10, 0.15, 0.20]), [16.0, 64.0, 256.0]
    _, fractions, _ = fourier.grid_statistics(mu12, max(t_values), t_values, grid)
    assert np.all(np.diff(fractions, axis=1) <= 0.0), f"fractions {fractions}"
    assert np.all(fractions[:, -1] < fractions[:, 0])

    # (c) dyadic L2 averages grow slower than 2^(d - alpha + 0.3)
    alpha = oracles.local_dimension_estimate(mu12, sample_count=200, seed=0).slope
    vals = {r: fourier.l2_average(mu12, float(r)).value for r in (32, 64, 128, 256)}
    bound = 2.0 ** (1.0 - alpha + 0.3)
    for r in (32, 64, 128):
        ratio = vals[2 * r] / vals[r]
        assert ratio <= bound, f"L2 ratio {ratio} at R={r} exceeds {bound}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_07_shell_measure_decay_is_resolved(reference, delta12):
    # the level-n shell measure, where no shallow atom holds the mass, shows
    # the paper's polynomial decay: kappa beyond twice its standard error on
    # 12 shells from radius 4, at n = 10 and 12 (0.202 +- 0.093 at both)
    spec = fourier.FrequencySpec(count=12)
    reports = [fourier.decay_scan(oracles.shell_measure(reference, delta12.delta, n), spec,
                                  seed=0) for n in (10, 12)]
    for n, report in zip((10, 12), reports):
        assert report.kappa > 2.0 * report.kappa_stderr, \
            f"n = {n}: kappa {report.kappa} +- {report.kappa_stderr}"
    assert abs(reports[1].kappa - reports[0].kappa) <= 0.1


def test_08_affine_nonconcentration_profiles(reference, delta12):
    mu = measure.patterson_orbit_measure(reference, delta12.delta, 0.05, 12)
    prof = nonconc.affine_profile(mu)
    assert np.all(np.diff(prof.ratios) > 0.0), \
        f"profile not strictly monotone: {prof.ratios}"
    assert prof.ratios[0] < 0.9, f"ratio at eps=0.05 is {prof.ratios[0]}"

    square = oracles.uniform_square_measure(2000)
    sq = nonconc.affine_profile(square, r_min=0.2)
    for eps, ratio in zip(sq.epsilons, sq.ratios):
        assert abs(ratio - eps) <= 0.1, f"square ratio {ratio} at eps {eps}"


def test_09_fourier_command_byte_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(f"""
[run]
seed = 0

[group]
file = {REF}

[delta]
n_max = 8

[measure]
epsilon = 0.05
n_max = 8

[fourier]
shell_min = 1
shell_max = 256
grid_max = 64
""")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = cli.main(["fourier", "--config", str(cfg),
                         "--out", str(out), "--threads", "1"])
        assert code == 0
    assert (a / "fourier.csv").read_bytes() == (b / "fourier.csv").read_bytes()
    assert (a / "fourier_summary.txt").read_bytes() == (b / "fourier_summary.txt").read_bytes()
