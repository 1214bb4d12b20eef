"""Negative controls: the benchmark's checks must catch known-bad output.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import os
import subprocess
import sys

from perfbench import checks, run, workloads


def _session(tmp_path, name="float-d2-grid", seed=0):
    digests = checks.Digests(str(tmp_path / "digests.json"), "control/")
    return run.Session(workloads.WORKLOADS[name], seed, str(tmp_path / "work"),
                       digests)


def test_holonomy_with_flipped_tau_sign_counts_as_failed(tmp_path):
    session = _session(tmp_path)
    session.env = run.child_env({"LIMSET_BUG_TAU_SIGN": "1"})
    session.run("holonomy", ["holonomy", "--trials", "30", "--out", session.out])
    assert session.attempted == 1
    assert len(session.problems) == 1
    with open(os.path.join(session.work, "holonomy.log"), encoding="utf-8") as fh:
        assert checks.check_holonomy(fh.read())


def test_corrupted_fourier_row_counts_as_failed(tmp_path):
    session = _session(tmp_path)
    args = dict(session.commands())["fourier"]
    session.run("fourier", args)
    assert session.problems == []
    path = os.path.join(session.out, "fourier.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    first = next(i for i, line in enumerate(lines) if line[0].isdigit())
    cells = lines[first].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[first] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    problems = session.check("fourier", "")
    assert any("direct sum" in p for p in problems)
    assert any("sha256" in p for p in problems)


def test_generated_group_is_deterministic_and_certified(tmp_path):
    workload = workloads.WORKLOADS["float-d2-grid"]
    for seed in (0, 1, 7):
        text = workloads.group_text(workload, seed, run.SRC)
        assert workloads.group_text(workload, seed, run.SRC) == text
        path = tmp_path / f"seed{seed}.group"
        path.write_text(text, encoding="utf-8")
        code, _, _ = run.run_cli(["validate", str(path)], str(tmp_path / "v.log"),
                                 run.child_env())
        assert code == 0
        assert checks.check_validate((tmp_path / "v.log").read_text()) == []


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in os.listdir(here):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(here, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref-d1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
