"""Output checks behind ``failed``: each returns a list of problems, empty if
the command's outputs are right.

The checks read the files the CLI wrote and recompute what they can without
trusting the layer under test: word counts by formula, Fourier samples by a
direct sum of the benchmark's own, the resolution cap from its definition.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
from scipy.spatial import cKDTree

#: delta of the reference fixture at n_max = 12 (bisection tolerance 1e-6).
REFERENCE_DELTA = 0.48429632
DELTA_TOL = 1e-6
MASS_TOL = 1e-12
FOURIER_TOL = 1e-9
FOURIER_SAMPLE_ROWS = 16
#: Rounding allowance above 1 for a slab/ball mass quotient, the same one
#: nonconc.NonConcProfile enforces (saturated balls read 1 + a few ulp).
RATIO_TOL = 1e-12

_D2_DIRECTIONS = 64     # the fan of fourier.default_directions for d = 2
_CAP_FACTOR = 0.25      # resolution cap 1/(4 eta), eta the atom spacing


def word_count(k, n):
    """Reduced words of length <= n in the free group on k generators."""
    return 1 + sum(2 * k * (2 * k - 1) ** (j - 1) for j in range(1, n + 1))


def summary_value(path, key):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            name, sep, value = line.partition("=")
            if sep and name.strip() == key:
                return float(value)
    raise KeyError(f"{key} missing from {os.path.basename(path)}")


def read_table(path):
    """(header dict, float rows) of a CSV written by the CLI."""
    meta, skip = {}, 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            skip += 1
            if not line.startswith("# "):
                break            # the column line
            key, _, value = line[2:].rstrip("\n").partition("=")
            meta[key] = value
    rows = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return meta, rows


def check_validate(stdout):
    first = stdout.splitlines()[0] if stdout else ""
    return [] if first.startswith("ping-pong PASS") else [f"validate: {first!r}"]


def check_delta(out, reference):
    delta = summary_value(os.path.join(out, "delta_summary.txt"), "delta")
    if reference:
        if abs(delta - REFERENCE_DELTA) > DELTA_TOL:
            return [f"delta {delta!r} is not {REFERENCE_DELTA} +- {DELTA_TOL}"]
    elif not 0.0 < delta < 2.0:
        return [f"delta {delta!r} outside (0, 2)"]
    return []


def check_measure(out, k, n_max):
    meta, rows = read_table(os.path.join(out, "measure.csv"))
    want = word_count(k, n_max)
    problems = []
    if int(meta.get("count", -1)) != want or rows.shape[0] != want:
        problems.append(f"measure: {rows.shape[0]} atoms (header "
                        f"{meta.get('count')}), want {want}")
    mass = float(rows[:, -1].sum())
    if abs(mass - 1.0) > MASS_TOL:
        problems.append(f"measure: mass {mass!r} is not 1 +- {MASS_TOL}")
    return problems


def atom_spacing(points, weights):
    """Weighted median nearest-neighbour distance, from its definition."""
    if points.shape[1] == 1:
        order = np.argsort(points[:, 0], kind="stable")
        gaps = np.diff(points[order, 0])
        nn_sorted = np.minimum(np.r_[gaps[0], gaps], np.r_[gaps, gaps[-1]])
        nn = np.empty_like(nn_sorted)
        nn[order] = nn_sorted
    else:
        nn = cKDTree(points).query(points, k=2)[0][:, 1]
    srt = np.argsort(nn, kind="stable")
    cum = np.cumsum(weights[srt])
    return float(nn[srt][np.searchsorted(cum, 0.5 * cum[-1])])


def direct_transform(points, weights, freqs):
    """mu-hat at each frequency by a plain sum over all atoms."""
    vals = np.array([np.sum(weights * np.exp(2j * np.pi * (points @ xi)))
                     for xi in freqs])
    return vals / weights.sum()


def check_fourier(out, mu, samples_per_shell, seed):
    """Sampled rows of fourier.csv against the direct sum.

    Rows run shell-major, then direction, then radial sample; the radial
    sample j of shell R sits at min(R 2^((j + 1/2)/S), cap).
    """
    _, rows = read_table(os.path.join(out, "fourier.csv"))
    d = mu.points.shape[1]
    n_dir = 2 if d == 1 else _D2_DIRECTIONS
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        th = 2.0 * np.pi * np.arange(n_dir) / n_dir
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    cap = _CAP_FACTOR / atom_spacing(mu.points, mu.weights)
    rng = np.random.default_rng(seed)
    pick = np.unique(np.r_[0, rows.shape[0] - 1,
                           rng.choice(rows.shape[0], FOURIER_SAMPLE_ROWS)])
    rad = pick % samples_per_shell
    frac = (rad + 0.5) / samples_per_shell
    radius = np.minimum(rows[pick, 0] * 2.0 ** frac, cap)
    dir_index = rows[pick, 1].astype(int)
    if np.any(dir_index != (pick // samples_per_shell) % n_dir):
        return ["fourier: rows out of shell/direction/radius order"]
    freqs = radius[:, None] * dirs[dir_index]
    want = direct_transform(mu.points, mu.weights, freqs)
    err = np.maximum(np.abs(rows[pick, 2] - want.real),
                     np.abs(rows[pick, 3] - want.imag))
    if not err.max() <= FOURIER_TOL:
        bad = int(pick[np.argmax(err)])
        return [f"fourier: row {bad} differs from the direct sum by "
                f"{err.max():.3g} > {FOURIER_TOL}"]
    return []


def check_nonconc(out):
    _, rows = read_table(os.path.join(out, "nonconc.csv"))
    eps, ratios = rows[:, 0], rows[:, 1]
    problems = []
    if np.any(np.diff(eps) <= 0):
        problems.append("nonconc: epsilons not ascending")
    if np.any(ratios < 0.0) or np.any(ratios > 1.0 + RATIO_TOL):
        problems.append("nonconc: a ratio outside [0, 1]")
    if np.any(np.diff(ratios) < 0.0):
        problems.append("nonconc: ratios decrease with epsilon")
    return problems


def check_holonomy(stdout):
    if any(line.startswith("overall: PASS") for line in stdout.splitlines()):
        return []
    return ["holonomy: no 'overall: PASS'"]


def sha256_files(paths):
    """SHA-256 of the files' contents, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Digests:
    """SHA-256 of each output CSV, kept across runs in one checkout.

    CSVs are documented to be byte-identical for the same code, config and
    seed, so a second, different digest under one key is a failure.  Keys
    carry a hash of the program's source and of the inputs, so an edited
    program or workload starts afresh.
    """

    def __init__(self, path, prefix):
        self.path = path
        self.prefix = prefix
        try:
            with open(path, encoding="utf-8") as fh:
                self.book = json.load(fh)
        except FileNotFoundError:
            self.book = {}

    def record(self, name, digest):
        key = self.prefix + name
        old = self.book.setdefault(key, digest)
        if old != digest:
            return [f"{name}: sha256 {digest[:12]} differs from {old[:12]}, "
                    "recorded for the same code and seed"]
        return []

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.book, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
