"""Group description files, experiment configs, and deterministic CSV/SVG output.

The group file is a line-oriented key = value format with sections [model],
[generator.i], [balls.i] (i = 1..k, no leading zero); generators are given
either as a raw row-major matrix or as (att, rep, length[, rotation]) axis
data in the chart.  Numbers are written with 17 significant digits so that
round-tripping is lossless.  Group files and configs share one schema reader,
``_read``: an unknown section or key, a missing key and a malformed or
non-finite number are refused at the 1-based line of the key or its section.
Each config key is named once, in ``_config_schema()``, with its converter and
default; the converter also refuses a value out of the library's range.  Only
``core`` is imported at module level; parsing a config imports no layer, and
each other function imports the layers it reads.

CSV files start with '# key=value' header comments (config hash, version,
seed), use '%.17g' for floats, and are byte-identical across reruns at fixed
seed and thread configuration: no timestamps, no environment-dependent text.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
import sys
import types
import warnings

import numpy as np

from limset import core

FLOAT_FMT = "%.17g"
CSV_CHUNK_ROWS = 4096      # rows rendered by one %-format in write_csv
_COLUMN_FMT = {"f": FLOAT_FMT, "i": "%d", "b": "%s", "U": "%s"}     # by dtype kind


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
# Line-oriented sections read through one schema (group files and configs)
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.\-]+)\]$")
_GROUP_SECTION_RE = re.compile(r"model|(?:generator|balls)\.[1-9][0-9]*")
_REQUIRED = object()    # schema default of a key that must be given


def _parse_sections(text, known):
    """text -> {section: (line_no, {key: (value_string, line_no)})}, in file
    order; a section whose name fails the ``known`` test is refused at its line."""
    sections = {}
    current = keys = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = m.group(1)
            if not known(current):
                raise GroupFileError(f"unknown section [{current}]", lineno)
            if current in sections:
                raise GroupFileError(f"duplicate section [{current}]", lineno)
            keys = {}
            sections[current] = (lineno, keys)
            continue
        if "=" not in line:
            raise GroupFileError(f"expected 'key = value' or '[section]', got {line!r}",
                                 lineno)
        if current is None:
            raise GroupFileError("key outside any [section]", lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise GroupFileError("empty key", lineno)
        if key in keys:
            raise GroupFileError(f"duplicate key {key!r} in [{current}]", lineno)
        keys[key] = (value, lineno)
    return sections


def _read(sections, name, schema, kind="key"):
    """Section ``name`` converted by ``schema``, {key: (converter, default)}:
    each value is ``converter(value, line, what=key)``, a key not in the schema
    is refused at its line, a missing key (or section) takes its default, and a
    missing _REQUIRED key is refused at the section's line."""
    line, keys = sections.get(name, (None, {}))
    for key, (_, key_line) in keys.items():
        if key not in schema:
            raise GroupFileError(f"unknown {kind} {key!r} in [{name}]", key_line)
    values = {}
    for key, (convert, default) in schema.items():
        if key in keys:
            values[key] = convert(*keys[key], what=key)
        elif default is _REQUIRED:
            raise GroupFileError(f"[{name}] missing {key}", line)
        else:
            values[key] = default
    return values


def _decode(data, what):
    """UTF-8 text of a file's bytes; the first bad byte is refused at its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise GroupFileError(f"{what} is not valid UTF-8: {exc.reason} "
                             f"(byte {data[exc.start]:#04x})", line) from None


def _floats(value, line, shape=None, what="value"):
    """Finite numbers, separated by spaces or commas; reshaped when ``shape`` is given."""
    toks = value.replace(",", " ").split()
    try:
        out = np.array([float(t) for t in toks])
    except ValueError:
        raise GroupFileError(f"{what}: could not parse {value!r} as numbers", line)
    if not np.isfinite(out).all():
        raise GroupFileError(f"{what}: numbers must be finite, got {value!r}", line)
    if shape is not None and out.size != math.prod(shape):
        raise GroupFileError(
            f"{what}: expected {math.prod(shape)} numbers, got {out.size}", line)
    return out if shape is None else out.reshape(shape)


def _one_float(value, line, what="value"):
    return float(_floats(value, line, (1,), what)[0])


def _one_int(value, line, what="value"):
    x = _one_float(value, line, what)
    if x != int(x):
        raise GroupFileError(f"{what}: expected an integer, got {value!r}", line)
    return int(x)


def _number(parse, low, high=math.inf, above=False, below=False):
    """Converter of a number read by ``parse`` in [low, high]; ``above``/``below`` open it."""
    def convert(value, line, what="value"):
        x = parse(value, line, what)
        if x < low or x > high or (above and x == low) or (below and x == high):
            raise GroupFileError(f"{what} must lie in {'(' if above else '['}{low:g}, "
                                 f"{high:g}{')' if below else ']'}, got {value}", line)
        return x
    return convert


_positive = _number(_one_float, 0.0, above=True)


def _text(value, line, what="value"):
    return value


def _boolean(value, line, what="value"):
    if value not in ("true", "false"):
        raise GroupFileError(f"{what} must be true or false", line)
    return value == "true"


def _at_line(line, rule, *args, **kwargs):
    """Apply a library rule; the ValueError it raises is refused at ``line``."""
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        raise GroupFileError(str(exc), line) from None


def _thread_count(value, line, what="value"):
    """[run] threads, refused by the one thread rule with its line number."""
    return _at_line(line, core.resolve_threads, configured=_one_int(value, line, what))


def _epsilons(value, line, what="value"):
    """[nonconc] epsilons, refused by the slab-width rule with its line number."""
    eps = _at_line(line, core.slab_epsilons, _floats(value, line, what=what))
    return tuple(eps.tolist())


# ---------------------------------------------------------------------------
# Group files
# ---------------------------------------------------------------------------

def parse_group_text(text, name="group"):
    """Build a SchottkyGroup from group-file text (see module docstring)."""
    from limset import schottky
    sections = _parse_sections(text, _GROUP_SECTION_RE.fullmatch)
    if "model" not in sections:
        raise GroupFileError("missing [model] section")
    k = sum(sec.startswith("generator.") for sec in sections)
    for sec, (line, _) in sections.items():
        if int(sec.partition(".")[2] or 0) > k:
            raise GroupFileError(f"[{sec}]: index beyond the {k} generators", line)
    model = _read(sections, "model", {
        "d": (_number(_one_int, 1), _REQUIRED),
        "tol": (_one_float, core.DEFAULT_TOL)})
    d = model["d"]
    point = (functools.partial(_floats, shape=(d,)), _REQUIRED)
    matrix_keys = {"matrix": (functools.partial(_floats, shape=(d + 2,) * 2), _REQUIRED)}
    axis_keys = {"att": point, "rep": point, "length": (_positive, _REQUIRED),
                 "rotation": (functools.partial(_floats, shape=(d, d)), None)}
    ball_keys = {"minus_center": point, "minus_radius": (_positive, _REQUIRED),
                 "plus_center": point, "plus_radius": (_positive, _REQUIRED)}
    gens = []
    for i in range(1, k + 1):
        line, keys = sections[f"generator.{i}"]
        if f"balls.{i}" not in sections:
            raise GroupFileError(f"missing [balls.{i}] for generator {i}", line)
        if "matrix" in keys:
            elem = _read(sections, f"generator.{i}", matrix_keys)["matrix"]
        else:
            axis = _read(sections, f"generator.{i}", axis_keys)
            elem = _at_line(line, schottky.build_loxodromic,
                            core.chart_to_boundary(axis["att"]),
                            core.chart_to_boundary(axis["rep"]),
                            axis["length"], axis["rotation"])
        ball = _read(sections, f"balls.{i}", ball_keys)
        gens.append(_at_line(
            line, schottky.SchottkyGenerator, elem=elem,
            ball_plus=schottky.Ball(ball["plus_center"], ball["plus_radius"]),
            ball_minus=schottky.Ball(ball["minus_center"], ball["minus_radius"])))
    return _at_line(sections["model"][0], schottky.SchottkyGroup, gens, tol=model["tol"],
                    name=name)


def load_group_file(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read group file {path}: {exc}") from exc
    return parse_group_text(_decode(data, f"group file {path}"),
                            name=os.path.basename(path).removesuffix(".group"))


def group_file_text(group, comment=None):
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


# ---------------------------------------------------------------------------
# Experiment configs
# ---------------------------------------------------------------------------

@functools.cache
def _config_schema():
    """Every config key, named once: section -> key -> (converter, default);
    the layers' defaults and bounds are read from ``core``, not the layers."""
    return {
        "run": {"seed": (_number(_one_int, 0), 0), "threads": (_thread_count, 1)},
        "group": {"file": (_text, "")},
        "delta": {"n_max": (_number(_one_int, core.DELTA_MIN_N_MAX),
                            core.DELTA_DEFAULT_N_MAX)},
        "measure": {"file": (_text, ""),    # nonempty: load atoms here, skip the pipeline
                    "epsilon": (_positive, core.MEASURE_DEFAULT_EPSILON),
                    "n_max": (_number(_one_int, 0), core.MEASURE_DEFAULT_N_MAX)},
        "fourier": {"shell_min": (_positive, 1.0), "shell_max": (_positive, 256.0),
                    "samples_per_shell": (_number(_one_int, 1), 16),
                    "grid_step": (_number(_one_float, 0, core.FOURIER_MAX_GRID_STEP,
                                          above=True), 0.25),
                    "grid_max": (_number(_one_float, core.FOURIER_MIN_EXCEPTIONAL_T), 256.0)},
        "nonconc": {"samples": (_number(_one_int, 1), core.NONCONC_DEFAULT_BALL_SAMPLES),
                    "r_min": (_number(_one_float, 0.0, 1.0, below=True), 0.0),   # 0 = auto
                    "epsilons": (_epsilons, core.NONCONC_DEFAULT_EPSILONS)},
        "output": {"dir": (_text, "out"), "svg": (_boolean, False)},
    }


class ExperimentConfig(types.SimpleNamespace):
    """A parsed config: the ``sha256`` and ``path`` of its file, and one
    namespace per section of _config_schema() holding its values (cfg.fourier.grid_max)."""

    def resolve(self, rel):
        """Resolve a path relative to the config file's directory."""
        if not rel or os.path.isabs(rel):
            return rel
        return os.path.join(os.path.dirname(os.path.abspath(self.path)), rel)


def shell_count(shell_min, shell_max):
    """Shells of the ratio-2 ladder shell_min * 2^k <= shell_max (to 1e-9 in
    k); a ratio beyond the float range counts as the end of that range."""
    ratio = min(max(shell_max / shell_min, sys.float_info.min), sys.float_info.max)
    return int(np.floor(np.log2(ratio) + 1e-9)) + 1


def _sha256(data):
    """Hex SHA-256 by the built-in module hashlib falls back to (``_sha2`` on
    CPython >= 3.12, ``_sha256`` on 3.10-3.11), else by hashlib, which maps
    OpenSSL's libcrypto (3.6 MiB resident over numpy's) to hash one config."""
    for name in ("_sha2", "_sha256", "hashlib"):
        try:
            return __import__(name).sha256(data).hexdigest()
        except ImportError:
            pass


def parse_experiment_config(path):
    """Read a config; each bad value is refused at its line before any work."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read config {path}: {exc}") from exc
    sections = _parse_sections(_decode(data, f"config {path}"), _config_schema().__contains__)
    values = {name: types.SimpleNamespace(**_read(sections, name, schema, kind="config key"))
              for name, schema in _config_schema().items()}
    f, keys = values["fourier"], sections.get("fourier", (None, {}))[1]
    if shell_count(f.shell_min, f.shell_max) < core.FOURIER_MIN_SHELLS:
        key = "shell_max" if "shell_max" in keys else "shell_min"
        raise GroupFileError(f"{key}: fewer than {core.FOURIER_MIN_SHELLS} shells from "
                             f"{f.shell_min:g} to {f.shell_max:g}", keys[key][1])
    return ExperimentConfig(sha256=_sha256(data), path=str(path), **values)


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


def write_csv(path, table, meta):
    """Deterministic CSV of ``table``, {column name: 1-D array or sequence},
    after the write_lines headers.  A column's dtype fixes its format
    (_COLUMN_FMT; bools as true/false), and the rows go out CSV_CHUNK_ROWS at
    a time, one %-format each, so the memory taken is set by the chunk."""
    columns = [np.asarray(c) for c in table.values()]
    rows = len(columns[0])
    if any(len(c) != rows for c in columns):
        raise ValueError(f"CSV columns of unequal lengths {[len(c) for c in columns]}")
    row_fmt = ",".join(_COLUMN_FMT[c.dtype.kind] for c in columns)

    def chunks():
        yield ",".join(table)
        for lo in range(0, rows, CSV_CHUNK_ROWS):
            cells = [(np.where(p, "true", "false") if p.dtype.kind == "b" else p).tolist()
                     for p in (c[lo:lo + CSV_CHUNK_ROWS] for c in columns)]
            flat = tuple(itertools.chain.from_iterable(zip(*cells)))
            yield "\n".join([row_fmt] * len(cells[0])) % flat
    write_lines(path, meta, chunks())


def read_csv(path):
    """Read a write_csv file back: (meta dict, columns, float ndarray rows).

    A byte that is not UTF-8 and a table row that is not numbers of the
    first row's width are refused at their file line.
    """
    meta = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            line = fh.readline()
            while line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                meta[key] = value
                line = fh.readline()
            columns = line.rstrip("\n").split(",") if line else None
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError:      # also a UnicodeDecodeError, refused by _csv_lines
        table = _csv_lines(path)[1]
        width = len(table[0][1])
        for line, cells in table:
            if len(cells) != width or not all(map(_plain_number, cells)):
                raise GroupFileError(f"CSV file {path}: expected {width} numbers, got "
                                     f"{','.join(cells)!r}", line) from None
        raise
    return meta, columns, rows


def _csv_lines(path):
    """File lines of a CSV's '# key=value' headers, {key: line}, and of its
    table rows, [(line, cells)], in the order read_csv reads them: after the
    column line, skipping lines that are empty once a '#' comment is cut."""
    with open(path, "rb") as fh:
        text = _decode(fh.read(), f"CSV file {path}")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    n = 0
    headers = {}
    while n < len(lines) and lines[n].startswith("# "):
        headers[lines[n][2:].partition("=")[0]] = n + 1
        n += 1
    table = []
    for line, raw in enumerate(lines[n + 1:], start=n + 2):
        body = raw.split("#", 1)[0]
        if body:
            table.append((line, body.split(",")))
    return headers, table


def _plain_number(cell):
    """Whether np.loadtxt reads ``cell`` as a float; Python's float() also
    takes digit separators and non-ASCII digits, which loadtxt refuses."""
    if not cell.isascii() or "_" in cell:
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def write_measure_file(path, mu, meta=None):
    """Atom table CSV (x1..xd, weight) with d/count/mass header entries.

    ``meta`` rides along in the '# key=value' header (provenance: config
    hash, version, seed, the construction exponent).
    """
    table = {f"x{i + 1}": mu.points[:, i] for i in range(mu.d)} | {"weight": mu.weights}
    write_csv(path, table, {"d": mu.d, "count": mu.n, "mass": fmt(mu.mass), **(meta or {})})


def read_measure_file(path):
    """Inverse of write_measure_file: (AtomicMeasure, header meta dict; its delta a float)."""
    from limset import measure
    meta, columns, rows = read_csv(path)
    if rows.shape[1] < 2:
        raise GroupFileError(f"measure file {path}: no atom table")
    for bad, what in ((~np.isfinite(rows).all(axis=1), "non-finite coordinate or weight"),
                      (~(rows[:, -1] > 0.0), "weight not strictly positive")):
        if bad.any():
            raise GroupFileError(f"measure file {path}: {what}",
                                 _csv_lines(path)[1][np.argmax(bad)][0])
    d = rows.shape[1] - 1
    for key, found, what in (("d", d, "coordinates"), ("count", rows.shape[0], "rows")):
        try:
            agrees = int(meta.get(key, found)) == found
        except ValueError:
            agrees = False
        if not agrees:
            raise GroupFileError(f"measure file {path}: header {key}={meta[key]} but "
                                 f"the table has {found} {what}", _csv_lines(path)[0][key])
    if "delta" in meta:     # a finite number, or refused at its header line
        try:
            meta["delta"] = _one_float(meta["delta"], None, what="header delta")
        except GroupFileError as exc:
            raise GroupFileError(f"measure file {path}: {exc}", _csv_lines(path)[0]["delta"])
    return measure.AtomicMeasure(points=rows[:, :d], weights=rows[:, d]), meta


def write_loglog_svg(path, xs, ys, title, xlabel, ylabel):
    """Hand-rolled 640x440 log-log polyline plot; no plotting dependencies.

    Points with nonpositive coordinates are dropped (cannot appear on log
    axes).  Output is deterministic text.
    """
    width, height = 640, 440
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
