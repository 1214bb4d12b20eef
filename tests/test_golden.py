"""``tests/golden.py --diff``: the keys two digest files disagree on, and the
lines of their recorded text."""

import json
import os
import subprocess
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.py")


def run_diff(tmp_path, a, b):
    paths = []
    for name, record in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
        paths.append(str(path))
    proc = subprocess.run([sys.executable, GOLDEN, "--diff", *paths],
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout.splitlines(), paths


def test_diff_names_every_differing_or_missing_key(tmp_path):
    run = {"exit": 0, "stdout": "aa", "stderr": "bb"}
    a = {"w/seed0/delta": run, "w/seed0/out/delta.csv": "11", "w/seed0/out/old.csv": "22",
         "w/seed1/holonomy": run}
    b = {"w/seed0/delta": {**run, "exit": 2}, "w/seed0/out/delta.csv": "11",
         "w/seed0/out/new.csv": "33", "w/seed1/holonomy": dict(run)}
    code, lines, (pa, pb) = run_diff(tmp_path, a, b)
    assert code == 1
    assert lines == ["w/seed0/delta: differs",
                     f"w/seed0/out/new.csv: only in {pb}",
                     f"w/seed0/out/old.csv: only in {pa}"]


def test_diff_of_equal_files_exits_0(tmp_path):
    record = {"w/seed0/validate": {"exit": 0, "stdout": "aa", "stderr": "bb"}}
    assert run_diff(tmp_path, record, dict(record))[:2] == (0, ["no differences"])


def test_diff_prints_the_differing_lines_of_recorded_text(tmp_path):
    run = {"exit": 0, "stdout": "aa", "stderr": "bb", "stdout_text": "atoms = 4\nmass = 1\n"}
    summary = {"sha256": "11", "text": "kappa = 0.1\nl2_average = 0.5\n"}
    a = {"w/seed0/measure": run, "w/seed0/out/fourier_summary.txt": summary,
         "w/seed0/out/fourier.csv": "33"}
    b = {"w/seed0/measure": {**run, "stdout": "cc", "stdout_text": "atoms = 5\nmass = 1\n"},
         "w/seed0/out/fourier_summary.txt": {"sha256": "22",
                                             "text": "kappa = 0.1\nl2_average = 0.6\n"},
         "w/seed0/out/fourier.csv": "44"}
    code, lines, _ = run_diff(tmp_path, a, b)
    assert code == 1
    assert lines == ["w/seed0/measure: differs", "  - atoms = 4", "  + atoms = 5",
                     "w/seed0/out/fourier.csv: differs",
                     "w/seed0/out/fourier_summary.txt: differs",
                     "  - l2_average = 0.5", "  + l2_average = 0.6"]
