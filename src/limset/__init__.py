"""limset: a numerical laboratory for limit sets of Schottky groups.

The package constructs convex cocompact (Schottky) groups of isometries of
real hyperbolic space H^{d+1} in the quadratic-form matrix model, approximates
their Patterson-Sullivan measures, and measures Fourier decay, L2 flattening,
and affine non-concentration of the resulting fractal measures.  The
closed-form N-MAN+ holonomy formulas are implemented exactly and
property-tested against the matrix factorization.  The library holds what
the commands run; diagnostics only the tests use (the unstable conditionals,
the local-dimension estimate, the phase-linearization error) live in
``tests/oracles.py``.
"""

__version__ = "0.1.0"


def fixture_path(name):
    """Filesystem path of a packaged example group file (e.g. 'reference')."""
    from importlib.resources import files
    fname = name if name.endswith(".group") else name + ".group"
    return str(files("limset") / "fixtures" / fname)


__all__ = [
    "core",
    "dimension",
    "fourier",
    "holonomy",
    "measure",
    "nonconc",
    "schottky",
    "fixture_path",
    "__version__",
]


def __getattr__(name):
    """Import a layer on first use (PEP 562): ``import limset`` loads none."""
    if name in __all__:
        from importlib import import_module
        return import_module(f"limset.{name}")
    raise AttributeError(f"module 'limset' has no attribute {name!r}")
