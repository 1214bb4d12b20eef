"""Config parsing, CSV/measure-file round trips, SVG emission."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limset
from limset import _io
from limset.measure import AtomicMeasure

import oracles

# ---------------------------------------------------------------------------
# experiment configs
# ---------------------------------------------------------------------------

FULL_CONFIG = """
# full config exercising every section
[run]
seed = 7
threads = 2

[group]
file = groups/ref.group

[delta]
n_max = 10

[measure]
epsilon = 0.02
n_max = 9

[fourier]
shell_min = 1
shell_max = 128
samples_per_shell = 8
grid_step = 0.125
grid_max = 32

[nonconc]
samples = 50
r_min = 0.25
epsilons = 0.1 0.2 0.4

[output]
dir = results
svg = true
"""


def test_config_defaults(tmp_path):
    path = tmp_path / "min.cfg"
    path.write_text("[group]\nfile = a.group\n")
    cfg = _io.parse_experiment_config(path)
    assert cfg.group.file == "a.group"
    assert cfg.run.seed == 0 and cfg.run.threads == 1
    assert cfg.delta.n_max == 12 and cfg.measure.epsilon == 0.05
    assert cfg.output.dir == "out" and cfg.output.svg is False
    assert len(cfg.sha256) == 64


def test_config_full_round(tmp_path):
    path = tmp_path / "full.cfg"
    path.write_text(FULL_CONFIG)
    cfg = _io.parse_experiment_config(path)
    assert cfg.run.seed == 7 and cfg.run.threads == 2
    assert cfg.delta.n_max == 10
    assert cfg.measure.epsilon == 0.02
    assert cfg.fourier.shell_max == 128 and cfg.fourier.grid_step == 0.125
    assert cfg.nonconc.samples == 50 and cfg.nonconc.epsilons == (0.1, 0.2, 0.4)
    assert cfg.output.dir == "results" and cfg.output.svg is True


def test_config_hash_tracks_bytes(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("[run]\nseed = 1\n")
    b.write_text("[run]\nseed = 2\n")
    ha = _io.parse_experiment_config(a).sha256
    hb = _io.parse_experiment_config(b).sha256
    assert ha != hb
    b.write_text("[run]\nseed = 1\n")
    assert _io.parse_experiment_config(b).sha256 == ha


def test_config_unknown_key_has_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[run]\nseed = 1\nbogus = 3\n")
    with pytest.raises(_io.GroupFileError) as err:
        _io.parse_experiment_config(path)
    assert err.value.line == 3


def test_config_window_key_is_refused(tmp_path):
    path = tmp_path / "old.cfg"
    for text, key in (("[measure]\nepsilon = 0.02\nwindow = 0.5\n", "window"),
                      ("[delta]\nn_max = 8\ntol = 0\n", "tol")):
        path.write_text(text)
        with pytest.raises(_io.GroupFileError, match=f"unknown config key '{key}'") as err:
            _io.parse_experiment_config(path)
        assert err.value.line == 3


def test_config_r_min_half_open(tmp_path):
    """[nonconc] r_min lies in [0, 1): radii are drawn from [r_min, 1)."""
    path = tmp_path / "r.cfg"
    path.write_text("[nonconc]\nr_min = 0.999\n")
    assert _io.parse_experiment_config(path).nonconc.r_min == 0.999
    path.write_text("[nonconc]\nsamples = 10\nr_min = 1\n")
    with pytest.raises(_io.GroupFileError) as err:
        _io.parse_experiment_config(path)
    assert err.value.line == 3 and "r_min must lie in [0, 1), got 1" in str(err.value)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_config_thread_count_below_one_refused(tmp_path, count):
    path = tmp_path / "t.cfg"
    path.write_text(f"[run]\nseed = 1\nthreads = {count}\n")
    with pytest.raises(_io.GroupFileError, match="at least 1") as err:
        _io.parse_experiment_config(path)
    assert err.value.line == 3


def test_readme_config_block_parses(tmp_path):
    """The config example in README.md parses as printed."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    cfg = _io.parse_experiment_config(path)
    assert cfg.run.seed == 0 and cfg.run.threads == 1
    assert cfg.group.file == "reference.group" and cfg.measure.file == ""
    assert cfg.delta.n_max == 12
    assert cfg.measure.epsilon == 0.02 and cfg.measure.n_max == 12
    assert cfg.fourier.shell_min == 1 and cfg.fourier.shell_max == 256
    assert cfg.fourier.samples_per_shell == 16
    assert cfg.fourier.grid_step == 0.25 and cfg.fourier.grid_max == 256
    assert cfg.nonconc.samples == 200 and cfg.nonconc.r_min == 0
    assert cfg.nonconc.epsilons == (0.05, 0.1, 0.2, 0.4)


def test_readme_config_table_runs(tmp_path):
    """Each row of the README config table: its default is the value an empty
    config parses to, and its refused example is refused at its line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| (.*?) \| .*? \| (.*?) \|$", readme, re.M)
    assert sorted((sec, key) for sec, key, *_ in rows) == sorted(
        (sec, key) for sec, keys in _io._CONFIG.items() for key in keys)
    path = tmp_path / "c.cfg"
    path.write_text("")
    defaults = _io.parse_experiment_config(path)
    for sec, key, default, refused in rows:
        path.write_text(f"[{sec}]\n{key} = {default.strip('`').replace('—', '')}\n")
        value = getattr(_io.parse_experiment_config(path), sec)
        assert getattr(value, key) == getattr(getattr(defaults, sec), key), (sec, key)
        if refused != "—":
            path.write_text(f"[{sec}]\n{key} = {refused.strip('`')}\n")
            with pytest.raises(_io.GroupFileError) as err:
                _io.parse_experiment_config(path)
            assert err.value.line == 2, (sec, key)


def test_config_epsilons_validated(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[nonconc]\nepsilons = 0.2 1.5\n")
    with pytest.raises(_io.GroupFileError):
        _io.parse_experiment_config(path)


def test_config_svg_must_be_boolean(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[output]\nsvg = yes\n")
    with pytest.raises(_io.GroupFileError):
        _io.parse_experiment_config(path)


def test_config_resolves_relative_to_its_directory(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    path = sub / "c.cfg"
    path.write_text("[group]\nfile = g.group\n")
    cfg = _io.parse_experiment_config(path)
    assert cfg.resolve("g.group") == str(sub / "g.group")
    assert cfg.resolve("/abs/g.group") == "/abs/g.group"


def test_config_missing_file_raises_io(tmp_path):
    with pytest.raises(FileNotFoundError):
        _io.parse_experiment_config(tmp_path / "nope.cfg")


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip_is_lossless(tmp_path):
    path = tmp_path / "t.csv"
    rng = np.random.default_rng(3)
    vals = np.concatenate([rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50),
                           [0.0, 1.0, -1.0, 2.0 ** -1022]])
    _io.write_csv(path, {"i": np.arange(vals.size), "v": vals}, {"seed": 0})
    meta, cols, data = _io.read_csv(path)
    assert cols == ["i", "v"]
    assert meta["seed"] == "0"
    assert np.array_equal(data[:, 1], vals)   # %.17g round-trips float64 exactly


def test_csv_meta_sorted_and_commented(tmp_path):
    path = tmp_path / "t.csv"
    _io.write_csv(path, {"x": [1.0]}, {"zeta": "z", "alpha": 1, "flag": True})
    lines = path.read_text().splitlines()
    assert lines[0] == "# alpha=1"
    assert lines[1] == "# flag=True"
    assert lines[2] == "# zeta=z"
    assert lines[3] == "x"


def test_csv_cell_types(tmp_path):
    path = tmp_path / "t.csv"
    _io.write_csv(path, {"a": [np.int64(3)], "b": [np.float64(0.5)], "c": [True],
                         "d": ["word"]}, {})
    assert path.read_text().splitlines()[1] == "3,0.5,true,word"


_SPECIAL_FLOATS = [-0.0, 2.0 ** -1074, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300,
                   -1e-300]
_EDGE_INTS = [np.iinfo(np.int64).min, np.iinfo(np.int64).min + 1,
              np.iinfo(np.int64).max - 1, np.iinfo(np.int64).max]


@pytest.mark.parametrize("rows", [0, 1, 16383, 16384, 16385])
def test_csv_column_writer_matches_per_cell_oracle(tmp_path, rows):
    # chunk edges at CSV_CHUNK_ROWS = 16384; every dtype the writer formats
    assert _io.CSV_CHUNK_ROWS == 16384
    rng = np.random.default_rng([rows, 11])
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    floats[:len(_SPECIAL_FLOATS)] = _SPECIAL_FLOATS[:rows]
    ints = rng.integers(-2 ** 62, 2 ** 62, rows)
    ints[:len(_EDGE_INTS)] = _EDGE_INTS[:rows]
    pairs = rng.uniform(-1.0, 1.0, (rows, 2))
    table = {
        "name": rng.choice(["lambda_gap", "", "a b", "caf\u00e9", "-0"], rows),
        "count": ints,
        "x": floats,
        "y": pairs[:, 1],                      # a strided view, as measure files pass
        "small": rng.integers(0, 10, rows).astype(np.int32),
        "passed": rng.random(rows) < 0.5,
        "listed": [float(v) for v in rng.standard_normal(rows)],   # a plain sequence
    }
    meta = {"seed": 3, "delta": _io.fmt(0.5)}
    _io.write_csv(tmp_path / "column.csv", table, meta)
    oracles.write_csv_per_cell(tmp_path / "cell.csv", list(table), zip(*table.values()),
                               meta)
    assert (tmp_path / "column.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


def test_csv_writer_memory_is_set_by_the_chunk(tmp_path):
    rng = np.random.default_rng(5)
    table = {name: rng.standard_normal(1_000_000) for name in ("x1", "x2", "weight")}
    tracemalloc.start()
    try:
        _io.write_csv(tmp_path / "big.csv", table, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_csv_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError, match="unequal lengths"):
        _io.write_csv(tmp_path / "t.csv", {"a": [1.0, 2.0], "b": [1.0]}, {})


# ---------------------------------------------------------------------------
# measure files
# ---------------------------------------------------------------------------

def test_measure_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    mu = AtomicMeasure(points=rng.standard_normal((40, 2)),
                       weights=rng.uniform(0.1, 1.0, 40))
    path = tmp_path / "m.csv"
    _io.write_measure_file(path, mu, {"delta": _io.fmt(0.5), "seed": 0})
    mu2, meta = _io.read_measure_file(path)
    assert np.array_equal(mu.points, mu2.points)
    assert np.array_equal(mu.weights, mu2.weights)
    assert meta["d"] == "2" and meta["count"] == "40"
    assert float(meta["mass"]) == mu.mass
    assert float(meta["delta"]) == 0.5


def test_measure_file_header_mismatch_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# count=3\n# d=1\nx1,weight\n0,1\n0.5,1\n")
    with pytest.raises(_io.GroupFileError):
        _io.read_measure_file(path)
    path.write_text("# count=2\n# d=2\nx1,weight\n0,1\n0.5,1\n")
    with pytest.raises(_io.GroupFileError):
        _io.read_measure_file(path)


# ---------------------------------------------------------------------------
# group file parse errors carry line numbers
# ---------------------------------------------------------------------------

def test_group_parse_bad_matrix_length_line():
    text = "[model]\nd = 1\n\n[generator.1]\nmatrix = 1 2 3\n\n[balls.1]\n" \
           "minus_center = -4\nminus_radius = 3\nplus_center = 2\nplus_radius = 0.7\n"
    with pytest.raises(_io.GroupFileError) as err:
        _io.parse_group_text(text)
    assert err.value.line == 5
    assert "9" in str(err.value)   # expected d+2 squared entries


def test_group_parse_duplicate_key_line():
    with pytest.raises(_io.GroupFileError) as err:
        _io.parse_group_text("[model]\nd = 1\nd = 2\n")
    assert err.value.line == 3


def test_group_parse_key_outside_section():
    with pytest.raises(_io.GroupFileError) as err:
        _io.parse_group_text("d = 1\n")
    assert err.value.line == 1


def test_group_section_names_and_values_refused_at_their_line():
    base = Path(limset.fixture_path("reference")).read_text().splitlines()
    model, gen2 = base.index("[model]") + 1, base.index("[generator.2]") + 1

    def refused(lines):
        with pytest.raises(_io.GroupFileError) as err:
            _io.parse_group_text("\n".join(lines))
        return err.value.line

    for header in ("[generator.2.1]", "[generator.b]", "[generator.02]", "[other]"):
        assert refused(base[:gen2 - 1] + [header] + base[gen2 - 1:]) == gen2
    for key, value in (("d", "1e400"), ("d", "nan"), ("tol", "nan"),
                       ("minus_radius", "nan"), ("plus_center", "inf"),
                       ("matrix", "2 6 9 2 7 12 1 4 nan")):
        i = next(n for n, line in enumerate(base) if line.startswith(key + " ="))
        assert refused(base[:i] + [f"{key} = {value}"] + base[i + 1:]) == i + 1
    # a missing key or section is refused at its section's (or generator's) line
    assert refused([line for line in base if not line.startswith("d =")]) == model
    balls2 = base.index("[balls.2]")
    assert refused(base[:balls2]) == gen2
    assert refused(base + ["[balls.3]"]) == len(base) + 1


def test_measure_file_refuses_non_finite_rows_and_empty_tables(tmp_path, recwarn):
    path = tmp_path / "m.csv"
    for body in ("0.1,1\nnan,1\n0.3,1\n", "0.1,1\n0.3,inf\n"):
        path.write_text("# count=3\n# d=1\nx1,weight\n" + body)
        with pytest.raises(_io.GroupFileError, match="finite") as err:
            _io.read_measure_file(path)
        assert err.value.line == 5
    path.write_text("# count=0\n# d=1\nx1,weight\n")
    with pytest.raises(_io.GroupFileError, match="no atom table"):
        _io.read_measure_file(path)
    assert len(recwarn) == 0


def test_measure_file_refusals_name_their_file_line(tmp_path):
    path = tmp_path / "m.csv"
    head = b"# count=2\n# d=1\nx1,weight\n"
    for body, line in ((b"0.1,1\n\n# note\n0.2,inf\n", 7),   # blank and comment lines
                       (b"0.1,1\n0.2,1,1\n", 5),               # a row of another width
                       (b"0.1,1\n0.2,1_0\n", 5),               # loadtxt takes no '_'
                       (b"0.1,1\n0.2,caf\xe9\n", 5)):          # not UTF-8
        path.write_bytes(head + body)
        with pytest.raises(_io.GroupFileError) as err:
            _io.read_measure_file(path)
        assert err.value.line == line, body
    path.write_bytes(head.replace(b"\n", b"\r\n") + b"0.1,1\r\nnan,1\r\n")
    with pytest.raises(_io.GroupFileError, match="finite") as err:
        _io.read_measure_file(path)
    assert err.value.line == 5


# ---------------------------------------------------------------------------
# fuzzed group files and configs: a value whose floats are all finite, or a
# GroupFileError naming a line (a group file with no [model] names none)
# ---------------------------------------------------------------------------

_TOKENS = ["nan", "inf", "-inf", "1e400", "", "0", "-1", "0.6", "2.5", "1 2", "x",
           "true", "[generator.01]", "[generator.2.1]", "[other]", "[balls.3]",
           "[model]", "[nonconc]", "d = 2", "bogus = 1", "= 1"]
_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
_README_CONFIG = re.search(r"```ini\n(.*?)```", _README, re.S).group(1)


@st.composite
def _mutations(draw, text):
    """Insert, delete and re-value lines of ``text`` from the token pool."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "revalue"]))
        i = draw(st.integers(0, len(lines) - 1))
        token = draw(st.sampled_from(_TOKENS))
        if op == "insert":
            key = lines[i].split("=")[0].strip() if "=" in lines[i] else "d"
            lines.insert(i, draw(st.sampled_from([token, f"{key} = {token}"])))
        elif op == "delete" and len(lines) > 1:
            del lines[i]
        elif "=" in lines[i]:
            lines[i] = lines[i].split("=")[0] + "= " + token
    return "\n".join(lines) + "\n"


def _finite(values):
    return all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values)


@settings(max_examples=300, deadline=None)
@given(text=_mutations(Path(limset.fixture_path("reference")).read_text()))
def test_fuzzed_group_file_is_honoured_or_refused_at_a_line(text):
    try:
        group = _io.parse_group_text(text)
    except _io.GroupFileError as exc:
        assert exc.line is not None or str(exc) == "missing [model] section"
        return
    assert _finite([group.tol] + [x for g in group.gens for x in (
        g.elem, g.ball_plus.center, g.ball_plus.radius,
        g.ball_minus.center, g.ball_minus.radius)])


@settings(max_examples=300, deadline=None)
@given(text=_mutations(_README_CONFIG))
def test_fuzzed_config_is_honoured_or_refused_at_a_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text)
    try:
        cfg = _io.parse_experiment_config(path)
    except _io.GroupFileError as exc:
        assert exc.line is not None
        return
    assert _finite(v for section in _io._CONFIG for v in vars(getattr(cfg, section)).values()
                   if isinstance(v, (int, float, tuple)))
    _assert_in_range(cfg)


def _assert_in_range(cfg):
    """Every range rule of the README config table holds for ``cfg``."""
    run, f, n = cfg.run, cfg.fourier, cfg.nonconc
    assert run.seed >= 0 and run.threads >= 1 and cfg.delta.n_max >= 6
    assert cfg.measure.epsilon > 0 and cfg.measure.n_max >= 0
    assert f.shell_min > 0 and f.samples_per_shell >= 1 and f.grid_max >= 4
    assert 0 < f.grid_step <= 0.25 and _io.shell_count(f.shell_min, f.shell_max) >= 8
    assert n.samples >= 1 and n.r_min >= 0 and all(0 < e <= 0.5 for e in n.epsilons)


# ---------------------------------------------------------------------------
# SVG plots
# ---------------------------------------------------------------------------

def test_svg_deterministic_and_well_formed(tmp_path):
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    ys = np.array([1.0, 0.5, 0.25, 0.125])
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    _io.write_loglog_svg(a, xs, ys, "t", "x", "y")
    _io.write_loglog_svg(b, xs, ys, "t", "x", "y")
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "polyline" in text and text.count("<circle") == 4


def test_svg_drops_nonpositive_points(tmp_path):
    path = tmp_path / "c.svg"
    _io.write_loglog_svg(path, [1.0, -2.0, 4.0], [1.0, 3.0, 0.0], "t", "x", "y")
    assert path.read_text().count("<circle") == 1
