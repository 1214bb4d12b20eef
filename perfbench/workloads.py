"""Benchmark workloads: the generated inputs and the CLI commands they run.

Every workload runs all six CLI commands, so every end-to-end metric exists on
every workload; what differs is the input and its size, which decides where
the work goes.  The benchmark seed feeds ``[run] seed`` and the holonomy seed,
and for the d=2 workloads it also drives the group generator.  The program
only ever sees the group files and configs written here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Workload:
    name: str
    group: str                  # "reference" or "generated"
    config: dict                # section -> {key: value}, the main config
    nonconc_from_file: bool = False  # `nonconc` reads the written measure.csv

    @property
    def generators(self):
        return 2 if self.group == "reference" else _K

    def nonconc_config(self):
        if not self.nonconc_from_file:
            return self.config
        return _merge(self.config, {"measure": {"file": "out/measure.csv"}})


# `holonomy` reads neither the group nor the config, so every workload runs
# the same suite.  The CLI's default of 10000 trials takes 4-5 s; 2000 keep the
# command near the others' length, so a run samples each command alike.
HOLONOMY_TRIALS = 2000


def _merge(base, over):
    out = {sec: dict(keys) for sec, keys in base.items()}
    for sec, keys in over.items():
        out.setdefault(sec, {}).update(keys)
    return out


# The README example config, written without its inline ';' comments: the
# parser strips only '#' comments, so the README block as printed exits 2
# with "unknown config key '; file'".  One value differs: the measure is taken
# to depth 9 (39k atoms), not 12 (1.06M).  At depth 12 `measure` takes 8 s and
# `fourier` 19 s, one sample each in a run, and their run-to-run spread on a
# shared host exceeded every bound; delta keeps depth 12, where the reference
# value 0.48429632 is known.
_README = {
    "run": {"threads": 1},
    "group": {"file": "group.group"},
    "delta": {"n_max": 12},
    "measure": {"epsilon": 0.02, "n_max": 9},
    "fourier": {"shell_min": 1, "shell_max": 256, "samples_per_shell": 16,
                "grid_step": 0.25, "grid_max": 256},
    "nonconc": {"samples": 200, "epsilons": "0.05 0.1 0.2 0.4", "r_min": 0},
}

_D2 = {
    "run": {"threads": 2},
    "group": {"file": "group.group"},
    "delta": {"n_max": 6},
    "measure": {"epsilon": 0.02, "n_max": 5},
    "fourier": {"shell_min": 1, "shell_max": 128, "samples_per_shell": 4,
                "grid_step": 0.25, "grid_max": 8},
    "nonconc": {"samples": 200, "epsilons": "0.05 0.1 0.2 0.4", "r_min": 0},
}

WORKLOADS = {w.name: w for w in (
    # The ROADMAP's end to end: the README config on the reference fixture
    # (d=1, exact int64 lane), its measure at depth 9 (39k atoms).  delta's
    # depth-12 levels, fourier's decay scan (288 frequencies x 39k atoms) and
    # d=1 grid recursion dominate; the d >= 2 code paths stay idle.
    Workload(
        name="ref-d1",
        group="reference",
        config=_README,
    ),
    # A seeded d=2 group on the float lane, its measure at depth 5 (4.7k
    # atoms), fourier on 2 threads: the per-word residual check instead of
    # the int64 lane, conformality over 3 generators, a 3-column table write
    # that nonconc reads back (cKDTree and full-array slab scans), and, above
    # all, fourier's d >= 2 grid-ball transform to radius 8, the 64-direction
    # fan and the thread pool.  (delta refuses depths below 6.)
    Workload(
        name="float-d2-grid",
        group="generated",
        config=_D2,
        nonconc_from_file=True,
    ),
)}


def config_text(config, seed):
    """Config file text; the benchmark seed becomes ``[run] seed``."""
    lines = []
    for sec, keys in config.items():
        if sec == "run":
            keys = {"seed": seed, **keys}
        lines.append(f"[{sec}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The d=2 group generator
# ---------------------------------------------------------------------------

_K = 3               # generators
_LENGTH = 2.0        # translation length of each generator
_REP_RADIUS = 2.0    # repelling points sit on this circle, attracting on |x|=1
_JITTER = 0.05       # radians of seeded axis jitter
_BALL_SCALE = 1.1    # ping-pong balls are this multiple of the isometric radius


def generated_group(seed):
    """A seeded ping-pong Schottky group of three loxodromics of H^3.

    Generator i has its attracting point on the unit circle near angle
    2 pi i / 3 and its repelling point on the circle of radius 2 near the same
    angle, both jittered, with a seeded rotation angle.  Its balls are
    centred at g^{-1}(inf) and g(inf) with 1.1 times the isometric radius,
    so g maps the outside of one strictly into the other.
    """
    from limset import core, schottky

    rng = np.random.default_rng([seed, 2])
    gens = []
    for i in range(_K):
        base = 2.0 * np.pi * i / _K
        a_att, a_rep = base + rng.uniform(-_JITTER, _JITTER, size=2)
        att = np.array([np.cos(a_att), np.sin(a_att)])
        rep = _REP_RADIUS * np.array([np.cos(a_rep), np.sin(a_rep)])
        turn = rng.uniform(-np.pi, np.pi)
        rot = np.array([[np.cos(turn), -np.sin(turn)],
                        [np.sin(turn), np.cos(turn)]])
        g = schottky.build_loxodromic(core.chart_to_boundary(att),
                                      core.chart_to_boundary(rep), _LENGTH, rot)
        plus = core.boundary_from_chart(g[:, 0])
        minus = core.boundary_from_chart(core.group_inverse(g)[:, 0])
        # a Moebius map sends distance rho from g^{-1}(inf) to r^2/rho from
        # g(inf), r the isometric radius
        probe = minus + np.array([1.0, 0.0])
        image = core.chart_action(g, probe)[0][0]
        radius = float(np.sqrt(np.linalg.norm(image - plus)))
        gens.append(schottky.SchottkyGenerator(
            elem=g,
            ball_plus=schottky.Ball(plus, _BALL_SCALE * radius),
            ball_minus=schottky.Ball(minus, _BALL_SCALE * radius)))
    return schottky.SchottkyGroup(gens, name=f"d2-seed{seed}")


def group_text(workload, seed, src_dir):
    """Group file text for a workload and seed."""
    if workload.group == "reference":
        path = os.path.join(src_dir, "limset", "fixtures", "reference.group")
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    from limset import _io
    return _io.group_file_text(generated_group(seed),
                               comment=f"generated d=2 benchmark group, seed {seed}")


def write_inputs(workload, seed, work, src_dir):
    """Write the group file and the configs into ``work``; return the paths."""
    os.makedirs(work, exist_ok=True)
    paths = {"group": os.path.join(work, "group.group")}
    with open(paths["group"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(group_text(workload, seed, src_dir))
    for name, cfg in (("main", workload.config),
                      ("nonconc", workload.nonconc_config())):
        paths[name] = os.path.join(work, f"{name}.cfg")
        with open(paths[name], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(config_text(cfg, seed))
    return paths

