#!/usr/bin/env python3
"""Benchmark of the limset CLI pipeline, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ref-d1 --seed 0 --seconds 55 --trace 0

``--trace 0`` runs the workload as fresh ``python3 -m limset.cli`` processes,
one at a time (a closed loop with one client), and reports the end-to-end
metrics: ``setup_s`` is the median of several ``limset validate`` runs, each
per-command time the median of the runs of that command made in
``--seconds`` (at least one each), ``pipeline_s`` the sum of those medians,
``peak_rss_mib`` the highest per-command median peak RSS.  Times are wall
seconds scaled by a host-speed probe read between commands (``probe.py``);
the raw wall times go to the results file.

``--trace 1`` runs the same inputs in this process through the layers' public
functions, in the order the CLI calls them, and reports the per-layer metrics
from spans recorded around those calls (see ``layers.py``).

Every command's outputs are checked (``checks.py``); ``failed`` counts the
commands that exited non-zero or failed a check.  The last line of standard
output is the result object; the line before it is the machine stamp.  Full
results, with the spans of a traced run, go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
if not __package__:                     # run as a script
    sys.path[:0] = [ROOT, SRC]

from perfbench import checks, layers, probe, stamp, workloads  # noqa: E402

SETUP_RUNS = 5          # fewest `validate` runs per result, reported as their median
_LIMSET_ENV = ("LIMSET_THREADS", "LIMSET_TRACE", "LIMSET_BUG_TAU_SIGN")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env(extra=None):
    """Environment of a CLI child: the benchmark's configs decide threads."""
    env = {k: v for k, v in os.environ.items() if k not in _LIMSET_ENV}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


# The children are started by a small launcher process of their own.  On
# Linux a child's ru_maxrss also holds the peak RSS of the memory image it was
# exec'ed from; spawned from this process, which holds measures for its own
# checks, every command would report at least this process's size.
_LAUNCHER = r"""
import json, os, subprocess, sys, time
for line in sys.stdin:
    job = json.loads(line)
    with open(job["log"], "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(job["argv"], stdout=log, stderr=subprocess.STDOUT,
                                env=job["env"], cwd=job["cwd"])
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    print(json.dumps([os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss]),
          flush=True)
"""
_launcher = None
atexit.register(lambda: stop_launcher(kill=True))


def _start_launcher():
    global _launcher
    if _launcher is None:
        _launcher = subprocess.Popen([sys.executable, "-c", _LAUNCHER],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)
    return _launcher


def stop_launcher(kill=False):
    """End the launcher; with ``kill``, also the command it is running."""
    global _launcher
    proc, _launcher = _launcher, None
    if proc is None:
        return
    if kill:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    with contextlib.suppress(OSError):
        proc.stdin.close()
    proc.wait()
    proc.stdout.close()
    if kill:                    # the orphaned command is reaped by init
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)


def run_cli(args, log_path, env):
    """Run ``limset ARGS`` as a fresh process: (exit code, wall s, peak RSS MiB).

    The peak RSS is the child's own, from ``wait4``; ``RUSAGE_CHILDREN`` is a
    running maximum over all children and would hide which command peaked.
    """
    launcher = _start_launcher()
    job = {"argv": [sys.executable, "-m", "limset.cli", *args], "log": log_path,
           "env": env, "cwd": ROOT}
    try:
        launcher.stdin.write(json.dumps(job) + "\n")
        launcher.stdin.flush()
        reply = launcher.stdout.readline()
        code, wall, maxrss_kib = json.loads(reply)
    except BaseException:
        stop_launcher(kill=True)
        raise
    return code, wall, maxrss_kib / 1024.0      # KiB on Linux


def _read(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


class Session:
    """One workload's inputs in a work directory, and its checked commands."""

    def __init__(self, workload, seed, work, digests):
        self.w = workload
        self.seed = seed
        self.work = work
        self.out = os.path.join(work, "out")
        self.paths = workloads.write_inputs(workload, seed, work, SRC)
        # Output digests are keyed by the exact inputs, so that a changed
        # workload definition starts a fresh record.
        self.inputs_id = checks.sha256_files(sorted(self.paths.values()))[:16]
        self.digests = digests
        self.env = child_env()
        self.attempted = 0
        self.problems = []
        self._fourier_mu = None
        self._checked = {}      # command -> digest of an output that passed

    def commands(self):
        """(name, CLI args) of one pass, in pipeline order."""
        out = ["--out", self.out]
        trials = str(workloads.HOLONOMY_TRIALS)
        return [
            ("delta", ["delta", "--config", self.paths["main"], *out]),
            ("measure", ["measure", "--config", self.paths["main"], *out]),
            ("fourier", ["fourier", "--config", self.paths["main"], *out]),
            ("nonconc", ["nonconc", "--config", self.paths["nonconc"], *out]),
            ("holonomy", ["holonomy", "--trials", trials,
                          "--seed", str(self.seed), *out]),
        ]

    def validate_args(self):
        return ["validate", self.paths["group"]]

    def run(self, name, args):
        """Run and check one command; (wall s, peak RSS MiB)."""
        log = os.path.join(self.work, f"{name}.log")
        code, wall, rss = run_cli(args, log, self.env)
        self.attempted += 1
        problems = [f"{name}: exit code {code}"] if code else []
        if not code:
            try:
                problems += self.check(name, _read(log))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"{name}: unreadable output ({exc})")
        if problems:
            self.problems.append(problems)
            print("FAILED " + "; ".join(problems), file=sys.stderr)
        return wall, rss

    def check(self, name, stdout):
        if name == "validate":
            return checks.check_validate(stdout)
        digest = checks.sha256_files([os.path.join(self.out, f"{name}.csv")])
        problems = self.digests.record(
            f"{self.w.name}/{self.inputs_id}/{name}.csv", digest)
        if name == "holonomy":
            problems += checks.check_holonomy(stdout)
        elif self._checked.get(name) != digest:
            # Bytes already checked in this session need no second reading.
            found = self.check_content(name)
            if not found:
                self._checked[name] = digest
            problems += found
        return problems

    def check_content(self, name):
        cfg = self.w.config
        if name == "delta":
            return checks.check_delta(self.out, self.w.group == "reference")
        if name == "measure":
            return checks.check_measure(self.out, self.w.generators,
                                        cfg["measure"]["n_max"])
        if name == "fourier":
            return checks.check_fourier(
                self.out, self.fourier_measure(),
                cfg["fourier"]["samples_per_shell"], self.seed)
        return checks.check_nonconc(self.out)

    def fourier_measure(self):
        """The measure `fourier` transforms, rebuilt through the pipeline."""
        if self._fourier_mu is None:
            from limset import _io, dimension, measure
            cfg = self.w.config
            group = _io.load_group_file(self.paths["group"])
            est = dimension.estimate_delta(group, n_max=cfg["delta"]["n_max"])
            self._fourier_mu = measure.patterson_orbit_measure(
                group, est.delta, epsilon=cfg["measure"]["epsilon"],
                n_max=cfg["measure"]["n_max"])
        return self._fourier_mu


def end_to_end(session, seconds):
    """Rounds of ``validate`` and the pipeline's commands for ``seconds``.

    The first round runs every command; later rounds run a command again
    while its median so far still fits before the deadline, so short commands
    collect more samples than long ones, and ``validate`` (the set-up time)
    is sampled across the whole run, at least ``SETUP_RUNS`` times.  Every
    sample is a wall time scaled by the host-speed probe read just before and
    after it (``probe.py``); each time is a median of samples.
    """
    # Untimed runs first: a cold interpreter, library pages and bytecode cache
    # would otherwise land in the first timed command.  The first run in a
    # checkout also makes one untimed pass of the whole pipeline.
    marker = os.path.join(STATE, "warm")
    warm_up = [("validate", session.validate_args())]
    if not os.path.exists(marker):
        warm_up += session.commands()
    for name, args in warm_up:
        run_cli(args, os.path.join(session.work, f"warm-{name}.log"), session.env)
    open(marker, "w").close()

    # The fourier check's reference measure is built before timing starts,
    # so that it takes no time from the samples.
    session.fourier_measure()
    speed = probe.Probe()
    rounds = [("validate", session.validate_args()), *session.commands()]
    raw = {name: [] for name, _ in rounds}
    walls = {name: [] for name, _ in rounds}
    rss = {name: [] for name, _ in rounds}

    def sample(name, args):
        wall, peak = session.run(name, args)
        raw[name].append(wall)
        walls[name].append(speed.normalize(wall))
        rss[name].append(peak)

    deadline = time.perf_counter() + seconds
    while True:
        ran = False
        for name, args in rounds:
            if raw[name] and (time.perf_counter() + statistics.median(raw[name])
                              > deadline):
                continue
            sample(name, args)
            ran = True
        if not ran:
            break
    while len(walls["validate"]) < SETUP_RUNS:
        sample(*rounds[0])
    setup = walls.pop("validate")
    del rss["validate"]
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for name, samples in walls.items():
        metrics[f"{name}_s"] = (statistics.median(samples), "s")
    metrics["pipeline_s"] = (sum(statistics.median(v) for v in walls.values()), "s")
    metrics["peak_rss_mib"] = (max(statistics.median(v) for v in rss.values()), "MiB")
    return metrics, {"setup_runs": setup, "walls": walls, "peak_rss": rss,
                     "raw_walls": raw, "probe_s": speed.readings}


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "limset", "cli.py")):
        print(f"error: no limset sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    src_hash = stamp.source_hash(SRC)
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    work = os.path.join(STATE, "work", f"{workload.name}-s{args.seed}-{os.getpid()}")
    digests = checks.Digests(os.path.join(STATE, "digests.json"), f"{src_hash[:16]}/")
    try:
        session = Session(workload, args.seed, work, digests)
        if args.trace:
            metrics, extra = layers.traced_run(session)
        else:
            metrics, extra = end_to_end(session, args.seconds)
        digests.save()
    finally:
        stop_launcher(kill=True)
        shutil.rmtree(work, ignore_errors=True)
    failed = len(session.problems)
    result = {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    machine = stamp.machine_stamp(ROOT, SRC, src_hash)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine,
              "problems": session.problems, **result, **extra}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(STATE, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
