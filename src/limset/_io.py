"""Group description files, experiment configs, and deterministic CSV/SVG output.

The group file is a line-oriented key = value format with sections [model],
[generator.i], [balls.i]; generators are given either as a raw row-major
matrix or as (att, rep, length[, rotation]) axis data in the chart.  Numbers
are written with 17 significant digits so that round-tripping is lossless.
All parse and validation errors carry the 1-based line number.

CSV files start with '# key=value' header comments (config hash, version,
seed), use '%.17g' for floats, and are byte-identical across reruns at fixed
seed and thread configuration: no timestamps, no environment-dependent text.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from limset import core, schottky

FLOAT_FMT = "%.17g"


class GroupFileError(ValueError):
    """Malformed group or config file; .line is the 1-based offending line."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def fmt(x):
    """Decimal rendering of a float with full precision."""
    return FLOAT_FMT % float(x)


def fmt_vector(v):
    return " ".join(fmt(x) for x in np.atleast_1d(v))


# ---------------------------------------------------------------------------
# Line-oriented section/key parsing (shared by group files and configs)
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.\-]+)\]$")


def _parse_sections(text):
    """text -> {section: {key: (value_string, line_no)}}, preserving order."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name in sections:
                raise GroupFileError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise GroupFileError(f"expected 'key = value' or '[section]', got {line!r}",
                                 lineno)
        if current is None:
            raise GroupFileError("key outside any [section]", lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise GroupFileError("empty key", lineno)
        if key in sections[current]:
            raise GroupFileError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _floats(value, line, expect=None, what="value"):
    toks = value.replace(",", " ").split()
    try:
        out = np.array([float(t) for t in toks])
    except ValueError:
        raise GroupFileError(f"{what}: could not parse {value!r} as numbers", line)
    if expect is not None and out.size != expect:
        raise GroupFileError(f"{what}: expected {expect} numbers, got {out.size}", line)
    return out


def _one_float(value, line, what="value"):
    return float(_floats(value, line, expect=1, what=what)[0])


def _one_int(value, line, what="value"):
    x = _one_float(value, line, what)
    if x != int(x):
        raise GroupFileError(f"{what}: expected an integer, got {value!r}", line)
    return int(x)


def _thread_count(value, line, what="value"):
    """[run] threads, refused by the one thread rule with its line number."""
    try:
        return core.resolve_threads(configured=_one_int(value, line, what))
    except ValueError as exc:
        raise GroupFileError(str(exc), line) from None


# ---------------------------------------------------------------------------
# Group files
# ---------------------------------------------------------------------------

def parse_group_text(text, name="group"):
    """Build a SchottkyGroup from group-file text (see module docstring)."""
    sections = _parse_sections(text)
    if "model" not in sections:
        raise GroupFileError("missing [model] section")
    model = sections["model"]
    if "d" not in model:
        raise GroupFileError("[model] must define d")
    d = _one_int(*model["d"], what="d")
    if d < 1:
        raise GroupFileError("d must be >= 1", model["d"][1])
    tol = _one_float(*model["tol"], what="tol") if "tol" in model else core.DEFAULT_TOL
    for key in model:
        if key not in ("d", "tol"):
            raise GroupFileError(f"unknown key {key!r} in [model]", model[key][1])

    gen_ids = sorted(int(s.split(".")[1]) for s in sections if s.startswith("generator."))
    if not gen_ids:
        raise GroupFileError("no [generator.i] sections")
    if gen_ids != list(range(1, len(gen_ids) + 1)):
        raise GroupFileError(f"generator indices must be 1..k, got {gen_ids}")
    for s in sections:
        if not (s == "model" or s.startswith("generator.") or s.startswith("balls.")):
            raise GroupFileError(f"unknown section [{s}]")

    gens = []
    for i in gen_ids:
        gsec = sections[f"generator.{i}"]
        bname = f"balls.{i}"
        if bname not in sections:
            raise GroupFileError(f"missing [{bname}] for generator {i}")
        bsec = sections[bname]
        elem = _parse_generator_elem(gsec, d, i)
        balls = {}
        for key in ("minus_center", "plus_center"):
            if key not in bsec:
                raise GroupFileError(f"[{bname}] missing {key}")
            balls[key] = _floats(*bsec[key], expect=d, what=key)
        for key in ("minus_radius", "plus_radius"):
            if key not in bsec:
                raise GroupFileError(f"[{bname}] missing {key}")
            balls[key] = _one_float(*bsec[key], what=key)
            if balls[key] <= 0:
                raise GroupFileError(f"{key} must be positive", bsec[key][1])
        for key in bsec:
            if key not in ("minus_center", "minus_radius", "plus_center", "plus_radius"):
                raise GroupFileError(f"unknown key {key!r} in [{bname}]", bsec[key][1])
        first_line = min(line for _, line in gsec.values())
        try:
            gens.append(schottky.SchottkyGenerator(
                elem=elem,
                ball_plus=schottky.Ball(balls["plus_center"], balls["plus_radius"]),
                ball_minus=schottky.Ball(balls["minus_center"], balls["minus_radius"])))
        except (ValueError, core.GeometryError) as exc:
            raise GroupFileError(f"generator {i}: {exc}", first_line) from exc
    return schottky.SchottkyGroup(gens, tol=tol, name=name)


def _parse_generator_elem(gsec, d, i):
    n = d + 2
    if "matrix" in gsec:
        for key in gsec:
            if key != "matrix":
                raise GroupFileError(f"generator {i}: 'matrix' excludes {key!r}",
                                     gsec[key][1])
        vals = _floats(*gsec["matrix"], expect=n * n, what="matrix")
        return vals.reshape(n, n)
    needed = {"att", "rep", "length"}
    missing = needed - set(gsec)
    if missing:
        line = min(l for _, l in gsec.values()) if gsec else None
        raise GroupFileError(
            f"generator {i}: need 'matrix' or att/rep/length, missing {sorted(missing)}",
            line)
    att = _floats(*gsec["att"], expect=d, what="att")
    rep = _floats(*gsec["rep"], expect=d, what="rep")
    length = _one_float(*gsec["length"], what="length")
    if length <= 0:
        raise GroupFileError("length must be positive", gsec["length"][1])
    m = None
    if "rotation" in gsec:
        m = _floats(*gsec["rotation"], expect=d * d, what="rotation").reshape(d, d)
    for key in gsec:
        if key not in ("att", "rep", "length", "rotation"):
            raise GroupFileError(f"unknown key {key!r} in [generator.{i}]", gsec[key][1])
    try:
        return schottky.build_loxodromic(core.chart_to_boundary(att),
                                         core.chart_to_boundary(rep), length, m)
    except core.GeometryError as exc:
        raise GroupFileError(f"generator {i}: {exc}", gsec["att"][1]) from exc


def load_group_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read group file {path}: {exc}") from exc
    name = str(path).rsplit("/", 1)[-1]
    name = name[:-6] if name.endswith(".group") else name
    return parse_group_text(text, name=name)


def group_file_text(group: schottky.SchottkyGroup, comment=None):
    """Serialize a group losslessly (17 significant digits)."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines += ["[model]", f"d = {group.d}", f"tol = {fmt(group.tol)}", ""]
    for i, gen in enumerate(group.gens, start=1):
        lines.append(f"[generator.{i}]")
        lines.append("matrix = " + fmt_vector(gen.elem.ravel()))
        lines.append("")
        lines.append(f"[balls.{i}]")
        lines.append("minus_center = " + fmt_vector(gen.ball_minus.center))
        lines.append("minus_radius = " + fmt(gen.ball_minus.radius))
        lines.append("plus_center = " + fmt_vector(gen.ball_plus.center))
        lines.append("plus_radius = " + fmt(gen.ball_plus.radius))
        lines.append("")
    return "\n".join(lines)


def write_group_file(path, group, comment=None):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(group_file_text(group, comment))


# ---------------------------------------------------------------------------
# Experiment configs
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    group_file: str = ""
    measure_file: str = ""     # nonempty: skip the pipeline, load atoms from here
    seed: int = 0
    threads: int = 1
    delta_n_max: int = 12
    delta_tol: float = 1e-6
    measure_epsilon: float = 0.05
    measure_n_max: int = 12
    fourier_shell_min: float = 1.0
    fourier_shell_max: float = 256.0
    fourier_samples_per_shell: int = 16
    fourier_grid_step: float = 0.25
    fourier_grid_max: float = 256.0
    nonconc_samples: int = 200
    nonconc_epsilons: tuple = (0.4, 0.2, 0.1, 0.05)
    nonconc_r_min: float = 0.0     # 0 = auto from resolution
    out_dir: str = "out"
    svg: bool = False
    sha256: str = ""
    path: str = ""

    def resolve(self, rel):
        """Resolve a path relative to the config file's directory."""
        import os
        if not rel or os.path.isabs(rel) or not self.path:
            return rel
        return os.path.join(os.path.dirname(os.path.abspath(self.path)), rel)


_CONFIG_KEYS = {
    ("run", "seed"): ("seed", _one_int),
    ("run", "threads"): ("threads", _thread_count),
    ("group", "file"): ("group_file", None),
    ("measure", "file"): ("measure_file", None),
    ("delta", "n_max"): ("delta_n_max", _one_int),
    ("delta", "tol"): ("delta_tol", _one_float),
    ("measure", "epsilon"): ("measure_epsilon", _one_float),
    ("measure", "n_max"): ("measure_n_max", _one_int),
    ("fourier", "shell_min"): ("fourier_shell_min", _one_float),
    ("fourier", "shell_max"): ("fourier_shell_max", _one_float),
    ("fourier", "samples_per_shell"): ("fourier_samples_per_shell", _one_int),
    ("fourier", "grid_step"): ("fourier_grid_step", _one_float),
    ("fourier", "grid_max"): ("fourier_grid_max", _one_float),
    ("nonconc", "samples"): ("nonconc_samples", _one_int),
    ("nonconc", "r_min"): ("nonconc_r_min", _one_float),
    ("output", "dir"): ("out_dir", None),
    ("output", "svg"): ("svg", None),
}


def parse_experiment_config(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read config {path}: {exc}") from exc
    cfg = ExperimentConfig(sha256=hashlib.sha256(data).hexdigest(), path=str(path))
    sections = _parse_sections(data.decode("utf-8"))
    for sec, keys in sections.items():
        for key, (value, line) in keys.items():
            if sec == "nonconc" and key == "epsilons":
                eps = _floats(value, line, what="epsilons")
                if eps.size == 0 or np.any(eps <= 0) or np.any(eps > 1):
                    raise GroupFileError("epsilons must lie in (0, 1]", line)
                cfg.nonconc_epsilons = tuple(float(e) for e in eps)
                continue
            if (sec, key) not in _CONFIG_KEYS:
                raise GroupFileError(f"unknown config key {key!r} in [{sec}]", line)
            attr, conv = _CONFIG_KEYS[(sec, key)]
            if conv is None:
                if attr == "svg":
                    if value not in ("true", "false"):
                        raise GroupFileError("svg must be true or false", line)
                    setattr(cfg, attr, value == "true")
                else:
                    setattr(cfg, attr, value)
            else:
                setattr(cfg, attr, conv(value, line, what=key))
    return cfg


# ---------------------------------------------------------------------------
# CSV and SVG emission
# ---------------------------------------------------------------------------

def write_lines(path, meta, lines):
    """'# key=value' header comments (sorted keys; no timestamps or
    machine-dependent content may enter meta), then ``lines``, one per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        for line in lines:
            fh.write(line + "\n")


def write_csv(path, columns, rows, meta):
    """Deterministic CSV: write_lines headers, then columns, then rows.

    Floats are rendered with 17 significant digits; ints as ints.
    """
    body = (",".join(_cell(x) for x in row) for row in rows)
    write_lines(path, meta, itertools.chain([",".join(columns)], body))


def _cell(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return fmt(x)
    return str(x)


def read_csv(path):
    """Read a write_csv file back: (meta dict, columns, float ndarray rows)."""
    meta, columns, rows = {}, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
                continue
            if columns is None:
                columns = line.split(",")
                continue
            rows.append([float(c) for c in line.split(",")])
    return meta, columns, np.array(rows)


def write_measure_file(path, mu, meta=None):
    """Atom table CSV (x1..xd, weight) with d/count/mass header entries.

    ``meta`` rides along in the '# key=value' header (provenance: config
    hash, version, seed, the construction exponent).
    """
    base = {"d": mu.d, "count": mu.n, "mass": fmt(mu.mass)}
    if meta:
        base.update(meta)
    columns = [f"x{i + 1}" for i in range(mu.d)] + ["weight"]
    write_csv(path, columns, np.column_stack([mu.points, mu.weights]), base)


def read_measure_file(path):
    """Inverse of write_measure_file: (AtomicMeasure, header meta dict)."""
    from limset import measure as _measure

    meta, columns, rows = read_csv(path)
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise GroupFileError(f"measure file {path}: no atom table")
    d = rows.shape[1] - 1
    if "d" in meta and int(meta["d"]) != d:
        raise GroupFileError(
            f"measure file {path}: header d={meta['d']} but rows carry {d} coordinates")
    if "count" in meta and int(meta["count"]) != rows.shape[0]:
        raise GroupFileError(
            f"measure file {path}: header count={meta['count']} but {rows.shape[0]} rows")
    return _measure.AtomicMeasure(points=rows[:, :d], weights=rows[:, d]), meta


def write_loglog_svg(path, xs, ys, title, xlabel, ylabel, width=640, height=440):
    """Hand-rolled log-log polyline plot; no plotting dependencies.

    Points with nonpositive coordinates are dropped (cannot appear on log
    axes).  Output is deterministic text.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0)
    xs, ys = xs[keep], ys[keep]
    if xs.size == 0:
        xs, ys = np.array([1.0]), np.array([1.0])
    lx, ly = np.log10(xs), np.log10(ys)
    x0, x1 = float(lx.min()), float(lx.max())
    y0, y1 = float(ly.min()), float(ly.max())
    x1 += 1e-9 if x1 == x0 else 0.0
    y1 += 1e-9 if y1 == y0 else 0.0
    mL, mR, mT, mB = 64, 16, 28, 44
    pw, ph = width - mL - mR, height - mT - mB

    def sx(v):
        return mL + pw * (v - x0) / (x1 - x0)

    def sy(v):
        return mT + ph * (y1 - v) / (y1 - y0)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
             f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
             f'<rect x="{mL}" y="{mT}" width="{pw}" height="{ph}" fill="none" '
             f'stroke="black"/>',
             f'<text x="{width / 2:.1f}" y="16" text-anchor="middle">{title}</text>',
             f'<text x="{width / 2:.1f}" y="{height - 8}" text-anchor="middle">'
             f'{xlabel}</text>',
             f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" '
             f'transform="rotate(-90 14 {height / 2:.1f})">{ylabel}</text>']
    for dec in range(int(np.floor(x0)), int(np.ceil(x1)) + 1):
        if x0 <= dec <= x1:
            parts.append(f'<line x1="{sx(dec):.2f}" y1="{mT}" x2="{sx(dec):.2f}" '
                         f'y2="{mT + ph}" stroke="#cccccc"/>')
            parts.append(f'<text x="{sx(dec):.2f}" y="{mT + ph + 14}" '
                         f'text-anchor="middle">1e{dec}</text>')
    for dec in range(int(np.floor(y0)), int(np.ceil(y1)) + 1):
        if y0 <= dec <= y1:
            parts.append(f'<line x1="{mL}" y1="{sy(dec):.2f}" x2="{mL + pw}" '
                         f'y2="{sy(dec):.2f}" stroke="#cccccc"/>')
            parts.append(f'<text x="{mL - 6}" y="{sy(dec):.2f}" '
                         f'text-anchor="end">1e{dec}</text>')
    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
                 f'stroke-width="1.5"/>')
    for a, b in zip(lx, ly):
        parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="2.5" '
                     f'fill="#1f77b4"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
