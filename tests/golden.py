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
file.  Two trees behave alike when their OUT.json files are equal.
``--diff`` prints each key whose record differs between two OUT.json files,
or that only one of them has, and exits 1 if there is any.  Not a test
module: pytest does not collect it.
"""

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
HOLONOMY_TRIALS = 2000


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _run(src, args, cwd):
    """Exit code and stdout/stderr digests of ``limset ARGS`` run from ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIMSET_")}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-m", "limset.cli", *args], cwd=cwd, env=env,
                          capture_output=True, check=False)
    return {"exit": proc.returncode, "stdout": _sha256(proc.stdout),
            "stderr": _sha256(proc.stderr)}


def digests(src, work):
    """{pass/command or pass/out/file: digest record} of every pass."""
    record = {}
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
                for file in sorted(os.listdir(out)):
                    with open(os.path.join(out, file), "rb") as fh:
                        record[f"{key}/out/{file}"] = _sha256(fh.read())
    return record


def diff(a_path, b_path):
    """Lines naming each key whose record differs between two OUT.json files
    or that only one of them has, in key order."""
    records = []
    for path in (a_path, b_path):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    a, b = records
    return [f"{key}: " + ("differs" if key in a and key in b else
                          f"only in {a_path if key in a else b_path}")
            for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]


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
    failed = sorted(k for k, v in record.items() if isinstance(v, dict) and v["exit"])
    print(f"{len(record)} digests, {len(failed)} non-zero exits"
          + (f": {', '.join(failed)}" if failed else ""))


if __name__ == "__main__":
    main(sys.argv[1:])
