"""Empirical affine non-concentration profiles of atomic measures.

A measure mu is uniformly affinely non-concentrated when every ball
B(x, r) centered on the support gives slabs small mass:

    mu(W^{(eps r)} cap B(x, r)) <= delta(eps) * mu(B(x, r)),

with delta(eps) -> 0 as eps -> 0, uniformly over affine hyperplanes W and
scales r.  ``affine_profile`` estimates delta(eps) as a sup over sampled
balls and candidate hyperplanes through the ball center.  The quantifier
over all hyperplanes is not searchable; candidates are the local principal
frame (the hyperplane spanned by the top principal directions of the atoms
in the ball, i.e. slab normal = least principal direction), the coordinate
axes, and 8 random normals from the seeded ``core.Stream`` -- so the
reported profile is a lower bound on the true sup.  In d = 1 a hyperplane
is a point and the slab around the center is just the ball B(x, eps r).

Resolution honesty: an atomic discretization looks like a finite point set
below its atom spacing, where every ratio saturates at 1.  Radii are drawn
log-uniformly from [r_min, 1] with r_min at least 5x the global weighted
median atom spacing, and a sample is discarded when its radius falls below
5x the center's own nearest-neighbour distance (isolated atoms of the
orbital approximation are artifacts, not limit-set structure).

Two further sample classes are discarded because they saturate at 1 for
reasons unrelated to affine concentration:

* radial isolation events -- balls whose entire mass lies inside the
  eps_max r core (the annulus (eps_max r, r] is uncharged).  A strongly
  separated Cantor measure has islands isolated by large gap ratios, and a
  ball that captures exactly one island reports ratio 1 for every
  hyperplane and every eps above the island ratio -- equally for round,
  perfectly isotropic islands.  That is gap structure of the support, not
  directional concentration; the interior structure of the island is
  re-sampled at smaller radii by the log-uniform radius law.
* boundary-clipped balls -- balls sticking out of the atom bounding box
  (checked per axis with nonzero extent).  Clipping manufactures fake
  anisotropy: a ball clipped at a corner of the uniform square reports
  slab ratios far above the interior slab-area value along the corner
  bisector even though the uniform measure concentrates near no hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import NONCONC_DEFAULT_BALL_SAMPLES as DEFAULT_BALL_SAMPLES
from .core import NONCONC_DEFAULT_EPSILONS as DEFAULT_EPSILONS
from .measure import AtomicMeasure, _nn_spacing

#: Balls must span at least this many atom spacings to be meaningful.
_RESOLUTION_MARGIN = 5.0


@dataclass(frozen=True)
class NonConcProfile:
    """Worst observed slab/ball mass ratios delta-hat(eps), eps ascending."""

    epsilons: np.ndarray
    ratios: np.ndarray
    ball_samples: int
    balls_used: int
    discarded: int
    method: str
    in_hyperplane: bool

    def __post_init__(self):
        if np.any(self.ratios < 0.0) or np.any(self.ratios > 1.0):
            raise core.GeometryError("slab/ball ratios must lie in [0, 1]")
        if np.any(np.diff(self.ratios) < 0.0):
            raise core.GeometryError("profile must be non-decreasing in eps")


def _principal_normal(delta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Normal of the local principal hyperplane: the least principal
    direction of the weighted atom cloud (the hyperplane then contains the
    top principal directions, the worst-case concentration candidate)."""
    mean = (w @ delta) / w.sum()
    centered = delta - mean
    cov = (centered * w[:, None]).T @ centered
    return np.linalg.eigh(cov)[1][:, 0]


def _slab_ratio(w_in: np.ndarray, held: np.ndarray, ball_mass: float) -> float:
    """Largest slab/ball mass ratio over the slabs, one a column of ``held``.

    ``w_in @ held`` and ``w_in.sum()`` add in different orders, so a slab is
    capped at the ball's mass, and one that holds every atom of the ball
    reads exactly 1.
    """
    mass = np.where(held.all(axis=0), ball_mass, np.minimum(w_in @ held, ball_mass))
    return mass.max() / ball_mass


def affine_profile(mu: AtomicMeasure, epsilons=DEFAULT_EPSILONS,
                   ball_samples: int = DEFAULT_BALL_SAMPLES, seed: int = 0,
                   r_min=None) -> NonConcProfile:
    """Empirical non-concentration profile delta-hat(eps) of ``mu``.

    Ball centers are drawn from the atoms by weight, radii log-uniformly
    from [r_min, 1), both from ``core.Stream(seed)``.  For each kept ball
    the slab/ball mass ratio is maximized over candidate hyperplanes
    through the center, at every eps from the same projected distances --
    so the profile is non-decreasing in eps exactly, per sample.  Returns the worst ratio per eps.
    """
    eps = np.sort(core.slab_epsilons(epsilons))
    if ball_samples < 1:
        raise ValueError("need at least one ball sample")
    nn, spacing = _nn_spacing(mu)
    floor = _RESOLUTION_MARGIN * spacing if np.isfinite(spacing) else 0.0
    if r_min is None:
        r_min = floor
    elif r_min < floor:
        raise ValueError(
            f"r_min {r_min:.3g} is below {_RESOLUTION_MARGIN}x the atom "
            f"spacing {spacing:.3g}; the profile is meaningless there")
    if not 0.0 < r_min < 1.0:
        raise core.DegenerateConfigurationError(
            f"resolution floor {r_min:.3g} leaves no radii below 1")

    stream = core.Stream(seed)
    centers = stream.choice(mu.weights, ball_samples)
    radii = np.exp(np.log(r_min) * (1.0 - stream.random(ball_samples)))
    if mu.d >= 2:
        rand_dirs = stream.standard_normal((8, mu.d))
        rand_dirs /= np.linalg.norm(rand_dirs, axis=1, keepdims=True)
        fixed_dirs = np.concatenate([np.eye(mu.d), rand_dirs])
        method = "principal+axes+random"
    else:
        fixed_dirs = None
        method = "center-point"
    local_nn = nn[centers]
    lo = mu.points.min(axis=0)
    hi = mu.points.max(axis=0)
    extended = hi - lo > 0.0  # clipping is only meaningful along these axes

    worst = np.zeros(eps.shape[0])
    used = 0
    discarded = 0
    for i in range(ball_samples):
        r = radii[i]
        x = mu.points[centers[i]]
        clipped = np.any(x[extended] - r < lo[extended]) or \
            np.any(x[extended] + r > hi[extended])
        if r < _RESOLUTION_MARGIN * local_nn[i] or clipped:
            discarded += 1
            continue
        delta = mu.points - x
        dist = np.abs(delta[:, 0]) if mu.d == 1 else np.linalg.norm(delta, axis=1)
        inside = dist <= r
        w_in = mu.weights[inside]
        d_in = dist[inside]
        ball_mass = w_in.sum()
        if ball_mass <= 0.0 or not np.any(d_in > eps[-1] * r):
            discarded += 1  # empty ball, or a radial isolation event
            continue
        if mu.d == 1:
            proj = d_in[:, None]
        else:
            sub = delta[inside]
            dirs = np.concatenate([fixed_dirs, [_principal_normal(sub, w_in)]]) \
                if sub.shape[0] >= 2 else fixed_dirs
            proj = np.abs(sub @ dirs.T)
        # nested slabs from one projection: exact monotonicity in eps
        sample = np.array([_slab_ratio(w_in, proj <= e * r, ball_mass) for e in eps])
        worst = np.maximum(worst, sample)
        used += 1
    if used == 0:
        raise core.DegenerateConfigurationError(
            "every ball sample was discarded (below resolution, clipped, "
            "or a radial isolation event)")
    return NonConcProfile(
        epsilons=eps,
        ratios=worst,
        ball_samples=ball_samples,
        balls_used=used,
        discarded=discarded,
        method=method,
        in_hyperplane=bool(worst.max() >= 1.0 - 1e-12),
    )
