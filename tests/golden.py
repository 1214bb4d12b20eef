#!/usr/bin/env python3
"""SHA-256 digests of every CLI output on the benchmark inputs.

Usage, from the root of a checkout::

    python tests/golden.py SRC OUT.json
    python tests/golden.py --diff A.json B.json

``SRC`` is the ``src`` directory of the limset tree to run, so one checkout's
tool can digest another tree (a parent commit, say).  The inputs are written
by ``perfbench.workloads.write_inputs`` of this checkout: both benchmark
workloads at seeds 0 and 1.  Each (workload, seed, thread count) pass runs
``validate``, ``delta``, ``measure``, ``fourier --svg``, ``nonconc`` (at
``--threads 1`` and ``2``) and ``holonomy --trials 2000`` as fresh processes,
and records the exit code and the digests of stdout, stderr and every output
file.  ``fourier`` also runs, at the same seeds and thread counts, on a d = 3
measure file (``DUST_DEPTH``), where the directions come from the seeded
stream.  ``measure``, then ``fourier`` and ``nonconc`` on the measure file it
writes, also run at both thread counts on a larger d = 2 measure, the
float-d2-grid group of seed 1 to depth ``LARGE_D2_DEPTH``, so that the
neighbour search takes many query blocks and pair passes and the scan many
atoms a direction.  ``delta`` also runs, at both thread counts, on the
reference at ``[delta] n_max = DEEP_DELTA``, so that the deepest level, summed
as the walker makes it, is digested at a second depth.  ``validate`` also
runs on each packaged fixture of the tree.  Beside its digest it records the text of each stdout and summary
under 4 KiB.  Two trees behave alike when their OUT.json files are equal.
``--diff`` prints each key whose record differs between two OUT.json files,
or that only one of them has, with the lines that differ where both have
the text, and exits 1 if there is any.  Not a test module: pytest does not
collect it.
"""

import dataclasses
import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402

SEEDS = (0, 1)
THREADS = (1, 2)
FIXTURES = ("reference", "cyclic", "overlapping")
HOLONOMY_TRIALS = 2000
DUST_DEPTH = 3      # the d = 3 measure: the cube of a depth-3 Cantor measure, 512 atoms
DUST_CONFIG = """[measure]
file = dust.csv

[fourier]
shell_min = 1
shell_max = 256
grid_max = 8
"""
LARGE_D2_DEPTH = 6  # the larger d = 2 measure: 23,437 atoms
DEEP_DELTA = 14     # the second delta depth on the reference: 9,565,937 words
TEXT_LIMIT = 4096   # bytes of stdout or summary recorded as text


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _text(data):
    """``data`` decoded if it is short enough to record as text, else None."""
    return data.decode("utf-8", "replace") if len(data) < TEXT_LIMIT else None


def _run(src, args, cwd):
    """Exit code and stdout/stderr digests of ``limset ARGS`` run from ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIMSET_")}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-m", "limset.cli", *args], cwd=cwd, env=env,
                          capture_output=True, check=False)
    return {"exit": proc.returncode, "stdout": _sha256(proc.stdout),
            "stderr": _sha256(proc.stderr), "stdout_text": _text(proc.stdout)}


def digests(src, work):
    """{pass/command or pass/out/file: digest record} of every pass."""
    record = {}
    for fixture in FIXTURES:
        path = os.path.join(src, "limset", "fixtures", f"{fixture}.group")
        record[f"fixtures/{fixture}/validate"] = _run(src, ["validate", path], work)
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            for threads in THREADS:
                key = f"{name}/seed{seed}/threads{threads}"
                run_dir = os.path.join(work, key)
                paths = workloads.write_inputs(workload, seed, run_dir, src)
                out = os.path.join(run_dir, "out")
                flags = ["--out", out, "--threads", str(threads)]
                for command, args in (
                        ("validate", ["validate", paths["group"]]),
                        ("delta", ["delta", "--config", paths["main"], *flags]),
                        ("measure", ["measure", "--config", paths["main"], *flags]),
                        ("fourier", ["fourier", "--config", paths["main"], "--svg", *flags]),
                        ("nonconc", ["nonconc", "--config", paths["nonconc"], *flags]),
                        ("holonomy", ["holonomy", "--trials", str(HOLONOMY_TRIALS),
                                      "--seed", str(seed), "--out", out])):
                    record[f"{key}/{command}"] = _run(src, args, run_dir)
                _record_outputs(record, key, out)
    d2 = workloads.WORKLOADS["float-d2-grid"]
    large = dataclasses.replace(d2, config={
        **d2.config, "measure": {**d2.config["measure"], "n_max": LARGE_D2_DEPTH}})
    for threads in THREADS:
        key = f"large-d2/seed1/threads{threads}"
        run_dir = os.path.join(work, key)
        paths = workloads.write_inputs(large, 1, run_dir, src)
        flags = ["--out", os.path.join(run_dir, "out"), "--threads", str(threads)]
        for command, config in (("measure", paths["main"]), ("fourier", paths["nonconc"]),
                                ("nonconc", paths["nonconc"])):
            record[f"{key}/{command}"] = _run(src, [command, "--config", config, *flags],
                                              run_dir)
        _record_outputs(record, key, os.path.join(run_dir, "out"))
    ref = workloads.WORKLOADS["ref-d1"]
    deep = dataclasses.replace(ref, config={**ref.config, "delta": {"n_max": DEEP_DELTA}})
    for threads in THREADS:
        key = f"deep-delta/seed0/threads{threads}"
        run_dir = os.path.join(work, key)
        paths = workloads.write_inputs(deep, 0, run_dir, src)
        out = os.path.join(run_dir, "out")
        record[f"{key}/delta"] = _run(
            src, ["delta", "--config", paths["main"], "--out", out, "--threads", str(threads)],
            run_dir)
        _record_outputs(record, key, out)
    dust_dir = os.path.join(work, "d3")
    _write_dust(dust_dir)
    for seed in SEEDS:
        for threads in THREADS:
            key = f"d3/seed{seed}/threads{threads}"
            out = os.path.join(work, key, "out")
            record[f"{key}/fourier"] = _run(
                src, ["fourier", "--config", "dust.cfg", "--seed", str(seed), "--out", out,
                      "--threads", str(threads)], dust_dir)
            _record_outputs(record, key, out)
    return record


def _record_outputs(record, key, out):
    """Record the digest of each file in ``out``, and the text of a summary."""
    for file in sorted(os.listdir(out)):
        with open(os.path.join(out, file), "rb") as fh:
            data = fh.read()
        record[f"{key}/out/{file}"] = (
            {"sha256": _sha256(data), "text": _text(data)}
            if file.endswith("_summary.txt") else _sha256(data))


def _write_dust(work):
    """Write dust.csv, the cube of the middle-thirds Cantor measure of depth
    ``DUST_DEPTH`` with weights 0.3 and 0.7 (a d = 3 measure file), and
    dust.cfg, which reads it, into ``work``."""
    import numpy as np

    from limset import _io
    from limset.measure import AtomicMeasure

    x, w = np.zeros(1), np.ones(1)
    for k in range(DUST_DEPTH):
        x, w = np.concatenate([x, x + 2.0 * 3.0 ** -(k + 1)]), np.concatenate([0.3 * w, 0.7 * w])
    points = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    os.makedirs(work, exist_ok=True)
    _io.write_measure_file(os.path.join(work, "dust.csv"),
                           AtomicMeasure(points=points, weights=weights), {"source": "dust"})
    with open(os.path.join(work, "dust.cfg"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(DUST_CONFIG)


def _text_of(record):
    """The recorded stdout or summary text of a record, or None."""
    if isinstance(record, dict):
        return record.get("stdout_text", record.get("text"))
    return None


def diff(a_path, b_path):
    """Lines naming each key whose record differs between two OUT.json files
    or that only one of them has, in key order; where both records hold
    text, each is followed by its differing lines, "  - " for A's and
    "  + " for B's."""
    records = []
    for path in (a_path, b_path):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    a, b = records
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) == b.get(key):
            continue
        if key not in a or key not in b:
            lines.append(f"{key}: only in {a_path if key in a else b_path}")
            continue
        lines.append(f"{key}: differs")
        old, new = _text_of(a[key]), _text_of(b[key])
        if old is not None and new is not None:
            lines += [f"  {line}" for line in difflib.ndiff(old.splitlines(), new.splitlines())
                      if line[:2] in ("- ", "+ ")]
    return lines


def main(argv):
    if len(argv) == 3 and argv[0] == "--diff":
        lines = diff(argv[1], argv[2])
        print("\n".join(lines) if lines else "no differences")
        sys.exit(1 if lines else 0)
    if len(argv) != 2:
        sys.exit(__doc__)
    src, out_json = os.path.abspath(argv[0]), argv[1]
    sys.path.insert(0, src)     # the generated group is written by the tree run
    with tempfile.TemporaryDirectory() as work:
        record = digests(src, work)
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    failed = sorted(k for k, v in record.items() if isinstance(v, dict) and v.get("exit"))
    print(f"{len(record)} digests, {len(failed)} non-zero exits"
          + (f": {', '.join(failed)}" if failed else ""))


if __name__ == "__main__":
    main(sys.argv[1:])
