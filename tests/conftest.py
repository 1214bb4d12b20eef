"""Shared fixtures: the reference integer group and float-lane sweep groups."""

import numpy as np
import pytest

import limset
from limset import _io, core, schottky


@pytest.fixture(scope="session")
def reference():
    """Two-generator integer Schottky group (d = 1), validated."""
    G = _io.load_group_file(limset.fixture_path("reference"))
    report = G.validate()
    assert report.ok
    return G


@pytest.fixture(scope="session")
def cyclic():
    return _io.load_group_file(limset.fixture_path("cyclic"))


def make_sweep_group(length, rho_factor=1.3):
    """d = 1 two-generator group with axes (-10, -5) and (10, 5) and the given
    translation length; balls sit at each generator's pole and image of
    infinity with radius rho_factor times the isometric-circle radius
    (a - r) / (2 sinh(length / 2)), which certifies ping-pong for
    length in [2, 4] with these axes."""
    r_iso = 5.0 / (2.0 * np.sinh(length / 2.0))
    rho = rho_factor * r_iso
    gens = []
    for att, rep in ((-10.0, -5.0), (10.0, 5.0)):
        g = schottky.build_loxodromic(core.chart_to_boundary(np.array([att])),
                                      core.chart_to_boundary(np.array([rep])),
                                      length)
        pole = core.boundary_from_chart(core.group_inverse(g)[:, 0])
        tinf = core.boundary_from_chart(g[:, 0])
        gens.append(schottky.SchottkyGenerator(
            elem=g,
            ball_plus=schottky.Ball(tinf, rho),
            ball_minus=schottky.Ball(pole, rho)))
    return schottky.SchottkyGroup(gens, name=f"sweep-l{length:g}")


@pytest.fixture(scope="session")
def sweep_groups():
    """Same axes, increasing translation length: dimension must decrease."""
    out = {}
    for length in (2.0, 3.0, 4.0):
        G = make_sweep_group(length)
        assert G.validate().ok
        out[length] = G
    return out
