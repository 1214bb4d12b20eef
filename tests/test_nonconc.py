"""Affine non-concentration profiles: slab-area oracles and degeneracy flags."""

import numpy as np
import pytest

from limset import core, measure, nonconc

import oracles


@pytest.fixture(scope="module")
def square():
    return oracles.uniform_square_measure(1000)


def test_square_matches_slab_area_oracle(square):
    # interior disks of the uniform square: ratio = (2/pi)(arcsin e + e sqrt(1-e^2))
    prof = nonconc.affine_profile(square, epsilons=(0.1, 0.2, 0.4), r_min=0.3)
    oracle = oracles.slab_disk_ratio_oracle(prof.epsilons)
    assert np.abs(prof.ratios - oracle).max() < 0.02
    assert np.abs(prof.ratios - prof.epsilons).max() < 0.1
    assert not prof.in_hyperplane
    assert prof.method == "principal+axes+random"


def test_square_profile_linear_in_eps(square):
    # product measure with uniform factors: delta-hat(eps) <= 2 eps
    prof = nonconc.affine_profile(square, epsilons=(0.1, 0.2, 0.4), r_min=0.3)
    assert np.all(prof.ratios <= 2.0 * prof.epsilons)


def test_profile_monotone_in_eps(square):
    prof = nonconc.affine_profile(square, epsilons=(0.05, 0.1, 0.2, 0.4), r_min=0.3)
    assert np.all(np.diff(prof.ratios) >= 0.0)
    assert prof.balls_used + prof.discarded == prof.ball_samples


def test_segment_in_plane_is_flagged():
    # measure supported on a line inside R^2: the local principal hyperplane
    # captures everything, ratio exactly 1 at every eps, whatever order the
    # slab and ball masses are summed in
    pts = np.stack([np.linspace(0.0, 1.0, 2001), np.zeros(2001)], axis=1)
    for w in (np.full(2001, 1.0 / 2001), np.random.default_rng(0).uniform(0.1, 1.0, 2001)):
        prof = nonconc.affine_profile(measure.AtomicMeasure(points=pts, weights=w), r_min=0.05)
        assert np.all(prof.ratios == 1.0), prof.ratios.tolist()
        assert prof.in_hyperplane


def test_uniform_segment_1d_profile_tracks_eps():
    # d=1 slabs are sub-balls; for the uniform density the mass ratio is eps
    # up to atom discreteness at the smallest radii
    mu = oracles.uniform_segment_measure(5000)
    prof = nonconc.affine_profile(mu)
    assert prof.method == "center-point"
    assert np.abs(prof.ratios - prof.epsilons).max() < 0.1
    assert not prof.in_hyperplane


def test_profile_deterministic_per_seed():
    mu = oracles.uniform_segment_measure(2000)
    a = nonconc.affine_profile(mu, seed=7)
    b = nonconc.affine_profile(mu, seed=7)
    assert np.array_equal(a.ratios, b.ratios)
    assert a.balls_used == b.balls_used


def test_epsilons_validated():
    mu = oracles.uniform_segment_measure(100)
    with pytest.raises(ValueError):
        nonconc.affine_profile(mu, epsilons=(0.0, 0.1))
    with pytest.raises(ValueError):
        nonconc.affine_profile(mu, epsilons=(0.6,))
    with pytest.raises(ValueError):
        nonconc.affine_profile(mu, ball_samples=0)


def test_r_min_honesty_enforced():
    mu = oracles.uniform_segment_measure(100)  # spacing 0.01, floor 0.05
    with pytest.raises(ValueError):
        nonconc.affine_profile(mu, r_min=0.01)
    nonconc.affine_profile(mu, r_min=0.06)  # above the floor: fine


def test_too_coarse_measure_is_degenerate():
    # 3 atoms: spacing 0.5, resolution floor 2.5 leaves no radii below 1
    mu = measure.AtomicMeasure(points=np.array([[0.0], [0.5], [1.0]]),
                               weights=np.ones(3) / 3)
    with pytest.raises(core.DegenerateConfigurationError):
        nonconc.affine_profile(mu)


def test_single_atom_is_degenerate():
    mu = measure.AtomicMeasure(points=np.zeros((1, 1)), weights=np.ones(1))
    with pytest.raises(core.DegenerateConfigurationError):
        nonconc.affine_profile(mu)


def test_oracle_values():
    # spot values of (2/pi)(arcsin e + e sqrt(1-e^2))
    got = oracles.slab_disk_ratio_oracle(np.array([0.05, 0.1, 0.2, 0.4]))
    assert np.allclose(got, [0.063662, 0.127100, 0.252862, 0.495356],
                       atol=2e-4)
    assert oracles.slab_disk_ratio_oracle(1.0) == pytest.approx(1.0)


def test_profile_computes_neighbour_distances_once(monkeypatch):
    # the spacing floor and the per-centre isolation test share one pass
    calls = []
    real = measure.nearest_neighbor_distances
    counted = lambda pts: calls.append(pts.shape) or real(pts)  # noqa: E731
    monkeypatch.setattr(measure, "nearest_neighbor_distances", counted)
    monkeypatch.setattr(nonconc, "nearest_neighbor_distances", counted, raising=False)
    mu = oracles.uniform_square_measure(60)
    nonconc.affine_profile(mu, ball_samples=20)
    assert len(calls) == 1
