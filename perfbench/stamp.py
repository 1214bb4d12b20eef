"""Machine stamp recorded with every result: where and on what it ran.

These are recorded fields, not metrics; nothing is gated on them.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess


def _source_files(src):
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".group")):
                yield os.path.join(base, name)


def source_hash(src):
    """SHA-256 over the program's sources and fixtures, by relative path."""
    h = hashlib.sha256()
    for path in _source_files(src):
        h.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()


def src_lines(src):
    """Line count of the package's Python sources (tracked by the ROADMAP)."""
    total = 0
    for path in _source_files(src):
        if path.endswith(".py"):
            with open(path, "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def _proc_field(path, key):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                name, sep, value = line.partition(":")
                if sep and name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return None


def git_rev(root):
    """HEAD of the checkout, or None where it is not a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def machine_stamp(root, src, src_hash):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(root),
        "src_sha256": src_hash,
        "src_lines": src_lines(src),
    }
