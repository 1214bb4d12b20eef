"""Smoke test of the benchmark's per-layer mode, which reads the level cache."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_per_layer_benchmark_runs_clean_on_the_d2_workload(tmp_path):
    # run from a copy, so its results and state land under tmp_path
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "float-d2-grid", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["schottky.words"]["value"] > 0
