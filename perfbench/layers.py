"""The traced run: a workload's inputs through each layer's public functions.

The calls follow the order the CLI makes them (group, levels, delta,
measure, table write and read, fourier, nonconc, holonomy), each once, under
a span recorded by this file; ``src/`` carries no instrumentation.  ``core``
has no span of its own: its helpers run per element inside the other layers'
calls.  Spans are kept in memory and written with the result at the end.

The sequence runs twice in one process: first untraced (no spans, no
tracemalloc), which also warms the caches, then traced.  The difference of
the two wall times is reported as the tracing overhead.
"""

from __future__ import annotations

import contextlib
import os
import time
import tracemalloc

import numpy as np

from perfbench import checks, workloads

_MIB = float(1 << 20)


class Tracer:
    """Spans (name, start, end, parent, counts) kept in memory."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        """Time the block; yields a dict the block may fill with counts."""
        counts = {}
        if not self.enabled:
            yield counts
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield counts
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name):
        """Total duration of the spans with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def _grid_points(d, radius, step):
    """Frequencies the d >= 2 grid-ball statistics evaluate (the recursion
    in d = 1 evaluates floor(R/step) + 1)."""
    if d == 1:
        return int(np.floor(radius / step)) + 1
    m = int(np.floor(radius / step))
    ax = np.arange(-m, m + 1) * step
    grid = np.stack(np.meshgrid(*([ax] * d), indexing="ij"), axis=-1)
    return int(np.count_nonzero(np.linalg.norm(grid, axis=-1) <= radius))


def _sequence(session, tr, problems):
    """One pass of the pipeline's layers; returns the per-layer figures and
    adds what its checks find wrong to ``problems``."""
    from limset import _io, dimension, fourier, holonomy, measure, nonconc

    w, seed, cfg = session.w, session.seed, session.w.config
    threads = cfg["run"]["threads"]
    dn, mn = cfg["delta"]["n_max"], cfg["measure"]["n_max"]
    eps = cfg["measure"]["epsilon"]
    fig = {}
    os.makedirs(session.out, exist_ok=True)

    with tr.span("io.load_group"):
        group = _io.load_group_file(session.paths["group"])
    with tr.span("schottky.validate"):
        report = group.validate()
    if not report.ok:
        problems.append("schottky: ping-pong certificate failed")

    n = max(dn, mn)
    with tr.span("schottky.levels") as c:
        levels = group.levels(n)
        c["words"] = sum(lev.words.shape[0] for lev in levels)
    with tr.span("schottky.exact_through"):
        fig["schottky.exact_through"] = (group.exact_through(n), "count")
    fig["schottky.words"] = (c["words"], "count")
    fig["schottky.level_bytes"] = (sum(
        a.nbytes for lev in levels
        for a in (lev.words, lev.mats, lev.dists, lev.imats) if a is not None),
        "bytes")

    with tr.span("dimension.estimate_delta"):
        est = dimension.estimate_delta(group, n_max=dn, threads=threads)
    with tr.span("dimension.shell_sums"):
        dimension.shell_sums(group, est.delta, dn, threads=threads)
    if w.group == "reference" and abs(est.delta - checks.REFERENCE_DELTA) > checks.DELTA_TOL:
        problems.append(f"dimension: delta {est.delta!r}")

    with tr.span("measure.orbit_measure"):
        mu = measure.patterson_orbit_measure(group, est.delta, epsilon=eps, n_max=mn)
    fig["measure.atoms"] = (mu.n, "count")
    if mu.n != checks.word_count(w.generators, mn) or abs(mu.mass - 1.0) > checks.MASS_TOL:
        problems.append(f"measure: {mu.n} atoms of mass {mu.mass!r}")

    table = os.path.join(session.out, "measure.csv")
    with tr.span("io.write_measure"):
        _io.write_measure_file(table, mu, {"delta": _io.fmt(est.delta)})
    fig["io.measure_bytes"] = (os.path.getsize(table), "bytes")
    with tr.span("measure.conformality"):
        s = est.delta + eps
        max(measure.conformality_residual(mu, g.elem, s) for g in group.gens)
    with tr.span("io.read_measure"):
        mu_file, _ = _io.read_measure_file(table)
    if not np.array_equal(mu_file.points, mu.points):
        problems.append("io: the atom table does not read back exactly")

    f = cfg["fourier"]
    count = int(np.floor(np.log2(f["shell_max"] / f["shell_min"]) + 1e-9)) + 1
    spec = fourier.FrequencySpec(mode="shell", r0=f["shell_min"], ratio=2.0,
                                 count=count, samples_per_shell=f["samples_per_shell"],
                                 grid_step=f["grid_step"])
    if tr.enabled:
        tracemalloc.start()
    with tr.span("fourier.atom_spacing"):
        fourier.atom_spacing(mu)
    with tr.span("fourier.decay_scan"):
        decay = fourier.decay_scan(mu, spec, seed=seed, threads=threads)
    with tr.span("fourier.l2_average"):
        fourier.l2_average(mu, f["grid_max"], grid_step=f["grid_step"],
                           threads=threads)
    with tr.span("fourier.exceptional"):
        fourier.exceptional_set_measure(mu, f["grid_max"], 0.1,
                                        grid_step=f["grid_step"], threads=threads)
    if tr.enabled:
        fig["fourier.peak_alloc_mib"] = (tracemalloc.get_traced_memory()[1] / _MIB, "MiB")
        tracemalloc.stop()
    fig["fourier.decay_terms"] = (mu.n * decay.sample_values.shape[0], "count")
    fig["fourier.truncated_shells"] = (decay.truncated_shells, "count")
    fig["fourier.grid_terms"] = (
        2 * mu.n * _grid_points(mu.d, f["grid_max"], f["grid_step"]), "count")

    mu_n = mu_file if w.nonconc_from_file else mu
    ncfg = cfg["nonconc"]
    r_min = ncfg["r_min"] if ncfg["r_min"] > 0 else None
    with tr.span("nonconc.affine_profile"):
        profile = nonconc.affine_profile(
            mu_n, epsilons=[float(e) for e in ncfg["epsilons"].split()],
            ball_samples=ncfg["samples"], seed=seed, r_min=r_min)
    fig["nonconc.balls_used"] = (profile.balls_used, "count")
    fig["nonconc.discarded"] = (profile.discarded, "count")
    fig["nonconc.used_ratio"] = (profile.balls_used / profile.ball_samples, "ratio")

    rng = np.random.default_rng(seed)
    with tr.span("holonomy.inputs"):
        inputs = [holonomy.random_regime_input(rng, 1 + i % 3)
                  for i in range(workloads.HOLONOMY_TRIALS)]
    with tr.span("holonomy.factorize"):
        results = [holonomy.factorize_product(h.v, h.w, h.tau, h.m) for h in inputs]
    with tr.span("holonomy.closed_forms"):
        closed = [(holonomy.phi_closed_form(h), holonomy.tau_closed_form(h),
                   holonomy.y_closed_form(h), holonomy.m_closed_form(h))
                  for h in inputs]
    worst = max(abs(r.t_out - c[1]) for r, c in zip(results, closed))
    if not worst < 1e-10:
        problems.append(f"holonomy: tau round trip {worst:.3g}")
    return fig


def traced_run(session):
    """Per-layer metrics of one workload; (metrics, extra record fields).

    Each of the two passes counts as one attempt, failed if any of its
    checks failed.
    """
    plain, traced_problems = [], []
    t0 = time.perf_counter()
    _sequence(session, Tracer(enabled=False), plain)
    untraced = time.perf_counter() - t0
    tr = Tracer()
    with tr.span("run"):
        fig = _sequence(session, tr, traced_problems)
    session.attempted = 2
    session.problems = [p for p in (plain, traced_problems) if p]
    root = tr.spans[0]
    traced = root["end"] - root["start"]
    covered = sum(s["end"] - s["start"] for s in tr.spans if s["parent"] == root["id"])

    sec = tr.seconds
    words = fig["schottky.words"][0]
    bytes_ = fig["io.measure_bytes"][0]
    grid_s = sec("fourier.l2_average") + sec("fourier.exceptional")
    metrics = {
        "io.load_group_s": (sec("io.load_group"), "s"),
        "schottky.validate_s": (sec("schottky.validate"), "s"),
        "schottky.levels_s": (sec("schottky.levels"), "s"),
        "schottky.words_per_s": (words / sec("schottky.levels"), "1/s"),
        "dimension.estimate_delta_s": (sec("dimension.estimate_delta"), "s"),
        "dimension.shell_sums_s": (sec("dimension.shell_sums"), "s"),
        "measure.orbit_measure_s": (sec("measure.orbit_measure"), "s"),
        "measure.conformality_s": (sec("measure.conformality"), "s"),
        "io.write_measure_s": (sec("io.write_measure"), "s"),
        "io.write_mb_per_s": (bytes_ / 1e6 / sec("io.write_measure"), "MB/s"),
        "io.read_measure_s": (sec("io.read_measure"), "s"),
        "io.read_mb_per_s": (bytes_ / 1e6 / sec("io.read_measure"), "MB/s"),
        "fourier.atom_spacing_s": (sec("fourier.atom_spacing"), "s"),
        "fourier.decay_scan_s": (sec("fourier.decay_scan"), "s"),
        "fourier.decay_ns_per_term": (
            1e9 * sec("fourier.decay_scan") / fig["fourier.decay_terms"][0], "ns"),
        "fourier.l2_average_s": (sec("fourier.l2_average"), "s"),
        "fourier.exceptional_s": (sec("fourier.exceptional"), "s"),
        "fourier.grid_ns_per_term": (1e9 * grid_s / fig["fourier.grid_terms"][0], "ns"),
        "nonconc.affine_profile_s": (sec("nonconc.affine_profile"), "s"),
        "holonomy.factorize_s": (sec("holonomy.factorize"), "s"),
        "holonomy.closed_forms_s": (sec("holonomy.closed_forms"), "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.span_coverage": (covered / traced, "ratio"),
        **fig,
    }
    return metrics, {"spans": tr.spans, "traced_s": traced, "untraced_s": untraced}
