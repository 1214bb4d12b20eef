"""Experiment runner for Schottky limit-set measurements.

Subcommands
-----------
validate GROUP    ping-pong certificate for a group file (prints the report)
delta             critical-exponent estimate       -> delta.csv + delta_summary.txt
measure           Patterson-Sullivan atom table    -> measure.csv + measure_summary.txt
fourier           decay scan, L2 average, exceptional set
                                                   -> fourier.csv [+ .svg] + fourier_summary.txt
nonconc           affine non-concentration profile -> nonconc.csv
holonomy          closed-form factorization property suite
                                                   -> holonomy.csv + report on stdout

``fourier`` and ``nonconc`` read their input measure from ``[measure] file =
PATH`` when given, and otherwise run the full pipeline on ``[group] file``
(delta estimate, then the orbit measure at exponent delta + epsilon).

Determinism: identical config + seed + thread setting produces byte-identical
output files; every file opens with '# key=value' comments carrying the
config hash, package version, and seed.  Threads resolve as the --threads
flag, else the LIMSET_THREADS environment variable, else the config value;
a count below 1 is refused (exit 2), and so are a --seed below 0 and a
holonomy --trials below 10 or above 10^6.

Exit codes: 0 success; 2 validation failure (malformed file, overlapping
balls, failed certificate, bad parameter); 3 numerical failure (degenerate
configuration, divergent exponent, failed property suite); 4 I/O failure.

LIMSET_BUG_TAU_SIGN=1 flips the sign of the closed-form flow component
inside the holonomy suite: a deliberate negative control (the suite must
then fail).  It affects nothing else.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from limset import __version__, _io, core    # each command imports its own layers

_EXC_DELTA_EXP = 0.1    # threshold exponent reported by cmd_fourier


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _setup(args):
    """(config, thread count, output directory) of a config-driven command."""
    cfg = _io.parse_experiment_config(args.config)
    if args.seed is not None:
        if args.seed < 0:   # the rule of [run] seed
            raise ValueError(f"--seed: must be at least 0, got {args.seed}")
        cfg.run.seed = args.seed
    if args.out is not None:
        cfg.output.dir = args.out
    if getattr(args, "svg", False):
        cfg.output.svg = True
    threads = core.resolve_threads(args.threads, os.environ.get("LIMSET_THREADS"),
                                   cfg.run.threads)
    os.makedirs(cfg.output.dir, exist_ok=True)
    return cfg, threads, cfg.output.dir


def _meta(command, config_hash, seed, threads, **extra):
    return {
        "command": command,
        "config": config_hash if config_hash else "none",
        "version": __version__,
        "seed": int(seed),
        "threads": int(threads),
        **extra,
    }


def _report(path, meta, lines):
    """Write a summary file (header comments, then ``lines``) and print the lines."""
    _io.write_lines(path, meta, lines)
    print("\n".join(lines))


class _Pipeline:
    """group -> delta estimate -> orbit measure, each stage built on first use.

    ``delta`` reads only ``estimate``, so it never pays for the measure.
    """

    def __init__(self, cfg, threads):
        self.cfg = cfg
        self.threads = threads
        self.group = _io.load_group_file(cfg.resolve(cfg.group.file))

    @functools.cached_property
    def estimate(self):
        from limset import dimension
        return dimension.estimate_delta(self.group, n_max=self.cfg.delta.n_max,
                                        threads=self.threads)

    @functools.cached_property
    def mu(self):
        from limset import measure
        # the measure's vector levels before delta's distances, so each level is
        # built once; a measure over the level cache budget fails before delta;
        # the distances below the measure's depth served only the estimate
        self.group.levels(self.cfg.measure.n_max)
        delta = self.estimate.delta
        self.group.truncate(self.cfg.measure.n_max)
        mu = measure.patterson_orbit_measure(self.group, delta,
                                             epsilon=self.cfg.measure.epsilon,
                                             n_max=self.cfg.measure.n_max)
        self.group.truncate(0)      # no command reads the levels once the measure exists
        return mu


def _input_measure(cfg, threads, check=lambda d, atoms: None):
    """(measure, delta-or-None, source label) from the config.

    A nonempty [measure] file short-circuits the pipeline and loads the atom
    table directly; otherwise the group file is loaded and run through the
    delta estimate and the orbit-measure construction.  ``check(d, atoms)``
    sees the measure's size before any stage runs.
    """
    if cfg.measure.file:
        path = cfg.resolve(cfg.measure.file)
        mu, meta = _io.read_measure_file(path)
        check(mu.d, mu.n)
        return mu, meta.get("delta"), os.path.basename(path)
    run = _Pipeline(cfg, threads)
    run.group.check_depth(cfg.measure.n_max)    # before word_count, slow at a huge depth
    check(run.group.d, run.group.word_count(cfg.measure.n_max))
    return run.mu, run.estimate.delta, run.group.name


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    group = _io.load_group_file(args.group)
    report = group.validate()
    print(report)
    return 0 if report.ok else 2


def cmd_delta(args):
    cfg, threads, out = _setup(args)
    run = _Pipeline(cfg, threads)
    meta = _meta("delta", cfg.sha256, cfg.run.seed, threads, group=run.group.name)
    summary_path = os.path.join(out, "delta_summary.txt")
    try:
        est = run.estimate
    except core.DegenerateConfigurationError as exc:
        _report(summary_path, meta, ["status = degenerate", f"reason = {exc}"])
        return 3
    with np.errstate(over="ignore"):
        a_n = np.exp(est.log_a)[est.levels]
    _io.write_csv(os.path.join(out, "delta.csv"), {
        "n": est.levels, "s": np.full(est.levels.size, est.delta),
        "a_n": a_n, "delta_n": est.per_level[est.levels - 1]}, meta)
    _report(summary_path, meta, [
        "status = ok",
        f"delta = {_io.fmt(est.delta)}",
        f"spread = {_io.fmt(est.spread)}",
        f"n_max = {est.n_max}",
        f"words = {int(est.counts.sum())}",
    ])
    return 0


def cmd_measure(args):
    from limset import measure
    cfg, threads, out = _setup(args)
    run = _Pipeline(cfg, threads)
    mu, est = run.mu, run.estimate
    s = est.delta + cfg.measure.epsilon
    meta = _meta("measure", cfg.sha256, cfg.run.seed, threads, group=run.group.name,
                 delta=_io.fmt(est.delta), epsilon=_io.fmt(cfg.measure.epsilon),
                 n_max=int(cfg.measure.n_max))
    _io.write_measure_file(os.path.join(out, "measure.csv"), mu, meta)
    residual = max(measure.conformality_residual(mu, g.elem, s)
                   for g in run.group.gens)
    _report(os.path.join(out, "measure_summary.txt"), meta, [
        f"atoms = {mu.n}",
        f"mass = {_io.fmt(mu.mass)}",
        f"delta = {_io.fmt(est.delta)}",
        f"exponent = {_io.fmt(s)}",
        f"conformality_residual = {_io.fmt(residual)}",
    ])
    return 0


def cmd_fourier(args):
    from limset import fourier
    cfg, threads, out = _setup(args)
    f = cfg.fourier
    mu, delta, source = _input_measure(cfg, threads, lambda d, atoms: fourier.check_grid_budget(
        d, atoms, f.grid_max, f.grid_step, threads))
    spec = fourier.FrequencySpec(r0=f.shell_min, ratio=2.0,
                                 count=_io.shell_count(f.shell_min, f.shell_max),
                                 samples_per_shell=f.samples_per_shell)
    report = fourier.decay_scan(mu, spec, seed=cfg.run.seed, threads=threads)
    l2, fractions, lebesgues = fourier.grid_statistics(
        mu, f.grid_max, [f.grid_max], [_EXC_DELTA_EXP], grid_step=f.grid_step,
        threads=threads)
    meta = _meta("fourier", cfg.sha256, cfg.run.seed, threads, source=source)
    if delta is not None:
        meta["delta"] = _io.fmt(delta)
    block = report.sample_values.shape[0] // report.shell_radii.shape[0]
    _io.write_csv(os.path.join(out, "fourier.csv"), {
        "shell_radius": np.repeat(report.shell_radii, block),
        "direction_index": report.sample_dir_index, "re": report.sample_values.real,
        "im": report.sample_values.imag, "abs": np.abs(report.sample_values)}, meta)
    lines = [
        "{",
        f'  "kappa": {_io.fmt(report.kappa)},',
        f'  "fit_residual": {_io.fmt(report.fit_residual)},',
        f'  "kappa_stderr": {_io.fmt(report.kappa_stderr)},',
        f'  "resolution_cap": {_io.fmt(report.resolution_cap)},',
        f'  "floored": {str(report.floored).lower()},',
        f'  "shells_kept": {report.shell_radii.shape[0]},',
        f'  "truncated_shells": {report.truncated_shells},',
        f'  "l2_average": {_io.fmt(l2.value)},',
        f'  "l2_radius": {_io.fmt(l2.radius)},',
        f'  "l2_coarse": {str(l2.coarse).lower()},',
        f'  "exceptional_fraction": {_io.fmt(fractions[0, 0])},',
        f'  "exceptional_lebesgue": {_io.fmt(lebesgues[0, 0])},',
        f'  "exceptional_t": {_io.fmt(f.grid_max)},',
        f'  "exceptional_delta_exp": {_io.fmt(_EXC_DELTA_EXP)}',
        "}",
    ]
    if cfg.output.svg:
        _io.write_loglog_svg(os.path.join(out, "fourier.svg"),
                             report.shell_radii, report.shell_max,
                             title="shell maxima of |mu-hat|",
                             xlabel="frequency radius", ylabel="max |mu-hat|")
    _report(os.path.join(out, "fourier_summary.txt"), meta, lines)
    return 0


def cmd_nonconc(args):
    from limset import nonconc
    cfg, threads, out = _setup(args)
    mu, _, source = _input_measure(cfg, threads)
    n = cfg.nonconc
    profile = nonconc.affine_profile(mu, epsilons=n.epsilons, ball_samples=n.samples,
                                     seed=cfg.run.seed, r_min=n.r_min or None)
    meta = _meta("nonconc", cfg.sha256, cfg.run.seed, threads, source=source,
                 method=profile.method,
                 in_hyperplane=str(profile.in_hyperplane).lower(),
                 discarded=int(profile.discarded))
    _io.write_csv(os.path.join(out, "nonconc.csv"), {
        "epsilon": profile.epsilons, "worst_ratio": profile.ratios,
        "ball_count_used": np.full(profile.ratios.size, profile.balls_used)}, meta)
    lines = [f"epsilon {_io.fmt(e)}: worst slab ratio {_io.fmt(r)}"
             for e, r in zip(profile.epsilons, profile.ratios)]
    if profile.in_hyperplane:
        lines.append("flag: measure concentrates on an affine hyperplane")
    print("\n".join(lines))
    return 0


def cmd_holonomy(args):
    """Run holonomy.property_suite; write its rows and print the report."""
    from limset import holonomy
    for flag, value, least, most in (
            ("--seed", args.seed, 0, math.inf),
            ("--trials", args.trials, holonomy.MIN_TRIALS, holonomy.MAX_TRIALS)):
        if value < least:
            raise ValueError(f"{flag}: must be at least {least}, got {value}")
        if value > most:
            raise ValueError(f"{flag}: must be at most {most}, got {value}")
    sign = -1.0 if os.environ.get("LIMSET_BUG_TAU_SIGN") == "1" else 1.0
    rows = holonomy.property_suite(args.trials, args.seed, tau_sign=sign)
    os.makedirs(args.out, exist_ok=True)
    columns = ("property", "trials", "max_residual", "tol", "passed")
    _io.write_csv(os.path.join(args.out, "holonomy.csv"), dict(zip(columns, zip(*rows))),
                  _meta("holonomy", "", args.seed, 1, trials=args.trials))
    ok = all(passed for *_, passed in rows)
    width = max(len(name) for name, *_ in rows)
    lines = [f"{name:<{width}}  trials {trials:>6}  "
             f"max residual {worst:.3e}  tol {tol:.0e}  {'PASS' if passed else 'FAIL'}"
             for name, trials, worst, tol, passed in rows]
    lines.append(f"overall: {'PASS' if ok else 'FAIL'} "
                 f"({len(rows)} properties, {args.trials} trials, seed {args.seed})")
    print("\n".join(lines))
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_config_flags(p, svg=False):
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
    p.add_argument("--threads", type=int, default=None,
                   help="thread count (overrides LIMSET_THREADS and config)")
    if svg:
        p.add_argument("--svg", action="store_true",
                       help="also render a log-log SVG of the shell maxima of |mu-hat|")


def _parser():
    p = argparse.ArgumentParser(prog="limset",
                                description="Schottky limit-set experiment runner")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a group file's ping-pong certificate")
    v.add_argument("group", help="group file to validate")
    v.set_defaults(func=cmd_validate)

    for name, func, svg in (("delta", cmd_delta, False),
                            ("measure", cmd_measure, False),
                            ("fourier", cmd_fourier, True),
                            ("nonconc", cmd_nonconc, False)):
        q = sub.add_parser(name)
        _add_config_flags(q, svg=svg)
        q.set_defaults(func=func)

    h = sub.add_parser("holonomy", help="closed-form factorization property suite")
    h.add_argument("--trials", type=int, default=10000)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--out", default="out", help="output directory")
    h.set_defaults(func=cmd_holonomy)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except core.GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:   # GroupFileError, ConfigurationError, bad parameters
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
