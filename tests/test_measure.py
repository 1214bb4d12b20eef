"""Patterson-Sullivan orbit measures, conditionals, and their symmetries."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from limset import core, dimension, measure

import oracles

DELTA_REF = 0.4842963218688965


@pytest.fixture(scope="module")
def mu_ref(reference):
    return measure.patterson_orbit_measure(reference, DELTA_REF, 0.05, 12)


# ---------------------------------------------------------------------------
# AtomicMeasure basics


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        measure.AtomicMeasure(points=np.zeros((2, 1)), weights=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        measure.AtomicMeasure(points=np.zeros((2, 1)), weights=np.array([1.0]))
    # a non-finite atom would poison the neighbour distances and the spacing
    for bad in ([[0.0], [np.nan], [1.0], [2.0], [2.5]], [[0.0, 1.0], [np.inf, 0.0]]):
        with pytest.raises(ValueError, match="finite"):
            measure.AtomicMeasure(points=np.array(bad), weights=np.ones(len(bad)))
    m = measure.AtomicMeasure(points=np.array([[0.0], [1.0]]), weights=np.array([0.25, 0.5]))
    assert m.mass == 0.75 and m.n == 2 and m.d == 1


def test_frame_point_accessors():
    fr = oracles.FramePoint(np.eye(3))
    assert np.allclose(fr.point, core.basepoint(1))
    assert core.boundary_from_chart(fr.forward) == pytest.approx(0.0)
    with pytest.raises(core.ModelViolationError):
        oracles.FramePoint(np.diag([2.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# orbit measure construction


def test_patterson_measure_depth_zero(reference):
    mu = measure.patterson_orbit_measure(reference, DELTA_REF, 0.05, 0)
    assert mu.n == 1
    assert np.allclose(mu.points[0], 0.0)
    assert mu.mass == 1.0


def test_patterson_measure_normalized(mu_ref):
    assert abs(mu_ref.mass - 1.0) < 1e-12
    assert np.all(mu_ref.weights > 0.0)
    assert mu_ref.n == sum(4 * 3 ** (k - 1) for k in range(1, 13)) + 1


def test_patterson_atoms_in_first_letter_balls(reference):
    mu = measure.patterson_orbit_measure(reference, DELTA_REF, 0.05, 6)
    sizes = [reference.level(n).vecs.shape[0] for n in range(7)]
    hi = np.cumsum(sizes)
    for n in range(1, 7):
        pts = mu.points[hi[n - 1] : hi[n]]
        first = reference.level(n).words[:, 0]
        for letter in range(4):
            ball = reference.letter_balls[letter][1]  # plus (image) ball
            sel = first == letter
            assert np.all(ball.margin(pts[sel]) > 0.0)


def test_patterson_measure_divergence_guard(reference):
    with pytest.raises(measure.DivergenceError):
        measure.patterson_orbit_measure(reference, 0.1, 0.05, 8)
    with pytest.raises(ValueError):
        measure.patterson_orbit_measure(reference, DELTA_REF, -0.01, 8)


# ---------------------------------------------------------------------------
# conformality


def test_conformality_identity_is_zero(mu_ref):
    assert measure.conformality_residual(mu_ref, np.eye(3), DELTA_REF + 0.05) == 0.0


def test_conformality_residual_decreases_with_depth(reference):
    eps = 0.02
    s = DELTA_REF + eps
    g1 = reference.letter_mats[0]
    mu8 = measure.patterson_orbit_measure(reference, DELTA_REF, eps, 8)
    mu12 = measure.patterson_orbit_measure(reference, DELTA_REF, eps, 12)
    r8 = measure.conformality_residual(mu8, g1, s)
    r12 = measure.conformality_residual(mu12, g1, s)
    assert r12 < r8


def test_conformality_sign_flip_inflates(reference, mu_ref):
    s = DELTA_REF + 0.05
    for letter in (0, 2):  # both generators
        g = reference.letter_mats[letter]
        good = measure.conformality_residual(mu_ref, g, s)
        bad = measure.conformality_residual(mu_ref, g, -s)   # the wrong sign convention
        assert bad >= 10.0 * good


def _conformal_mass(mu, g, s):
    o = core.basepoint(mu.d)
    xi = core.chart_to_boundary(mu.points)
    return float(np.sum(mu.weights * np.exp(s * core.busemann(xi, o, g @ o))))


@pytest.mark.parametrize("chunk, depth", [(1, 5), (7, 7), (4096, 9)])
def test_chunked_residual_matches_the_full_array_oracle(reference, monkeypatch, chunk,
                                                        depth):
    # each integral's terms are weights times bumps in (0, 1], so the chunked
    # compensated sum and the oracle's one np.sum each round to a few ulp of
    # the masses; a chunk of one atom also maps it by dot, not gemm, whose
    # other last bits the narrowest bump (1/16 of the quantile span) magnifies
    # (2.4e-15 on the d = 2 measure): 1e-14 (mass + conformal mass) bounds the
    # difference.  The reference measures of depth 5, 7 and 9 have 485, 4,373
    # and 39,365 atoms, the d = 2 one 937
    from perfbench import workloads
    d2 = workloads.generated_group(0)
    delta2 = dimension.estimate_delta(d2, n_max=6).delta
    cases = [(reference, measure.patterson_orbit_measure(reference, DELTA_REF, 0.02, depth),
              DELTA_REF + 0.02),
             (d2, measure.patterson_orbit_measure(d2, delta2, 0.02, 4), delta2 + 0.02)]
    monkeypatch.setattr(measure, "_RESIDUAL_CHUNK", chunk)
    for group, mu, s in cases:
        for g in group.letter_mats:
            want = oracles.conformality_residual(mu, g, s)
            got = measure.conformality_residual(mu, g, s)
            assert abs(got - want) <= 1e-14 * (mu.mass + _conformal_mass(mu, g, s)), (mu.n, g)


def _residual_peaks(reference):
    """Traced peaks (MiB) of the chunked residual and of the full-array
    oracle on the depth-9 reference measure, 39,365 atoms."""
    mu = measure.patterson_orbit_measure(reference, DELTA_REF, 0.02, 9)
    g, s = reference.letter_mats[0], DELTA_REF + 0.02
    peaks = []
    for residual in (measure.conformality_residual, oracles.conformality_residual):
        residual(mu, g, s)
        tracemalloc.start()
        try:
            residual(mu, g, s)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
        finally:
            tracemalloc.stop()
    return mu.n, peaks


def test_residual_memory_is_set_by_the_chunk(reference):
    # 39,365 atoms in three chunks
    _, (chunked, _) = _residual_peaks(reference)
    assert chunked <= 1.5


def test_readme_residual_figures(reference):
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    rows, chunked, atoms, whole = re.search(
        r"`conformality_residual` takes the atoms ([\d,]+) at a time .*? ([\d.]+) MiB "
        r"traced on ([\d,]+) atoms, against ([\d.]+) MiB in one pass", readme).groups()
    assert int(rows.replace(",", "")) == measure._RESIDUAL_CHUNK
    n, peaks = _residual_peaks(reference)
    assert n == int(atoms.replace(",", ""))
    for peak, figure in zip(peaks, (chunked, whole)):
        assert abs(peak - float(figure)) < 0.1


# ---------------------------------------------------------------------------
# unstable conditionals


def test_conditional_identity_frame_reflects_atoms(mu_ref):
    cond = oracles.unstable_conditional(mu_ref, oracles.FramePoint(np.eye(3)),
                                        DELTA_REF, window=32.0)
    assert cond.excluded == 0
    assert np.array_equal(cond.measure.points, -mu_ref.points)
    assert np.all(cond.measure.weights > 0.0)


def test_conditional_window_monotone(mu_ref):
    fr = oracles.FramePoint(np.eye(3))
    masses = [
        oracles.unstable_conditional(mu_ref, fr, DELTA_REF, window=w).measure.mass
        for w in (0.5, 1.0, 2.0)
    ]
    assert masses[0] <= masses[1] <= masses[2]
    cond = oracles.unstable_conditional(mu_ref, fr, DELTA_REF, window=0.5)
    outside = int((np.linalg.norm(mu_ref.points, axis=1) > 0.5).sum())
    assert cond.excluded == outside
    with pytest.raises(ValueError):
        oracles.unstable_conditional(mu_ref, fr, DELTA_REF, window=0.0)


def test_conditional_translation_equivariance(mu_ref):
    # frame moved by n+(y): atoms shift by -y, weights unchanged atom by atom
    y = np.array([0.375])
    base = oracles.FramePoint(np.eye(3))
    moved = oracles.FramePoint(core.unipotent_plus(y))
    c0 = oracles.unstable_conditional(mu_ref, base, DELTA_REF, window=64.0)
    c1 = oracles.unstable_conditional(mu_ref, moved, DELTA_REF, window=64.0)
    assert c0.excluded == 0 and c1.excluded == 0
    assert np.allclose(c1.measure.points, c0.measure.points - y, atol=1e-12)
    assert np.allclose(c1.measure.weights, c0.measure.weights, rtol=1e-12)


def test_conditional_rotation_equivariance_synthetic_plane():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, size=(300, 2))
    mu = measure.AtomicMeasure(points=pts, weights=rng.uniform(0.1, 1.0, 300))
    theta = 0.7
    m = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    base = oracles.FramePoint(np.eye(4))
    rot = oracles.FramePoint(core.rotation_embed(m))
    c0 = oracles.unstable_conditional(mu, base, 0.6, window=16.0)
    c1 = oracles.unstable_conditional(mu, rot, 0.6, window=16.0)
    assert np.allclose(c1.measure.points, c0.measure.points @ m.T, atol=1e-12)
    assert np.allclose(c1.measure.weights, c0.measure.weights, rtol=1e-12)


def test_conditional_flow_equivariance_exact(mu_ref):
    fr = oracles.FramePoint(np.eye(3))
    for t in (0.5, 1.0):
        ratio = oracles.flow_equivariance_ratio(mu_ref, fr, DELTA_REF, t)
        assert ratio == pytest.approx(np.exp(DELTA_REF * t), rel=1e-10)


def test_conditional_flow_equivariance_composite_frame(reference, mu_ref):
    g = reference.letter_mats[0] @ core.unipotent_plus(np.array([0.25]))
    fr = oracles.FramePoint(g)
    ratio = oracles.flow_equivariance_ratio(mu_ref, fr, DELTA_REF, 1.0)
    assert ratio == pytest.approx(np.exp(DELTA_REF), rel=1e-10)


# ---------------------------------------------------------------------------
# local dimension


def test_local_dimension_single_atom():
    one = measure.AtomicMeasure(points=np.array([[0.3, -0.2]]), weights=np.array([1.0]))
    est = oracles.local_dimension_estimate(one, np.geomspace(0.01, 0.5, 8),
                                           sample_count=4, seed=0)
    assert est.slope == 0.0


def test_local_dimension_uniform_segment_plane():
    xs = np.linspace(-1.0, 1.0, 4001)
    pts = np.stack([xs, np.zeros_like(xs)], axis=1)
    seg = measure.AtomicMeasure(points=pts, weights=np.full(4001, 1.0 / 4001))
    est = oracles.local_dimension_estimate(seg, np.geomspace(0.008, 0.3, 10),
                                           sample_count=120, seed=3)
    assert abs(est.slope - 1.0) < 0.1


def test_local_dimension_matches_delta(mu_ref):
    est = oracles.local_dimension_estimate(mu_ref, sample_count=200, seed=0)
    assert abs(est.slope - DELTA_REF) < 0.05
    assert est.dropped == 0


def test_local_dimension_deterministic(mu_ref):
    a = oracles.local_dimension_estimate(mu_ref, sample_count=50, seed=11)
    b = oracles.local_dimension_estimate(mu_ref, sample_count=50, seed=11)
    assert np.array_equal(a.per_center, b.per_center)


def test_local_dimension_radii_validation(mu_ref):
    with pytest.raises(ValueError):
        oracles.local_dimension_estimate(mu_ref, np.geomspace(0.1, 1.0, 5))
    with pytest.raises(ValueError):
        oracles.local_dimension_estimate(mu_ref, np.array([-0.1, 0.5, 10.0]))
    with pytest.raises(ValueError, match="sample_count"):
        oracles.local_dimension_estimate(mu_ref, sample_count=0)


# ---------------------------------------------------------------------------
# cross-module consistency


def test_delta_and_measure_agree(reference, mu_ref):
    est = dimension.estimate_delta(reference, n_max=10)
    slope = oracles.local_dimension_estimate(mu_ref, sample_count=150, seed=1).slope
    assert abs(est.delta - slope) < 0.05
