"""End-to-end command tests: exit codes, emitted files, determinism."""

import ast
import gc
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limset
from limset import _io, cli, dimension, fourier, holonomy, measure, schottky
from limset.measure import AtomicMeasure

import oracles

REF = limset.fixture_path("reference")
CYC = limset.fixture_path("cyclic")
OVERLAP = limset.fixture_path("overlapping")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared config and measure-fixture files for the command tests."""
    root = tmp_path_factory.mktemp("cli")

    _io.write_measure_file(root / "point.csv",
                           AtomicMeasure(points=np.array([[0.25]]),
                                         weights=np.array([1.0])),
                           {"source": "point-mass"})
    _io.write_measure_file(root / "segment.csv",
                           oracles.uniform_segment_measure(1000),
                           {"source": "uniform-segment"})
    _io.write_measure_file(root / "square.csv",
                           oracles.uniform_square_measure(200),
                           {"source": "uniform-square"})
    _io.write_measure_file(root / "cube.csv",
                           AtomicMeasure(points=np.random.default_rng(8).uniform(
                               -1.0, 1.0, size=(300, 3)), weights=np.full(300, 1.0 / 300)),
                           {"source": "uniform-cube"})
    x = np.linspace(-1.0, 1.0, 2001)
    flat = AtomicMeasure(points=np.column_stack([x, np.zeros_like(x)]),
                         weights=np.full(x.size, 1.0 / x.size))
    _io.write_measure_file(root / "inplane.csv", flat,
                           {"source": "segment-in-plane"})

    def config(name, body):
        (root / name).write_text(body)

    pipeline = """
[run]
seed = 0
threads = 1

[group]
file = {group}

[delta]
n_max = {delta_n}

[measure]
epsilon = 0.05
n_max = {measure_n}

[fourier]
shell_min = 1
shell_max = 256
grid_max = 64

[nonconc]
samples = 120
r_min = 0.05
"""
    config("ref.cfg", pipeline.format(group=REF, delta_n=8, measure_n=8))
    config("cyc.cfg", pipeline.format(group=CYC, delta_n=8, measure_n=8))
    config("ref_n0.cfg", pipeline.format(group=REF, delta_n=6, measure_n=0))
    config("ref_n12.cfg", pipeline.format(group=REF, delta_n=8, measure_n=12))
    config("ref_n6.cfg", pipeline.format(group=REF, delta_n=8, measure_n=6))
    config("ref_d12_m9.cfg", pipeline.format(group=REF, delta_n=12, measure_n=9))
    config("segment.cfg", """
[run]
seed = 0

[measure]
file = segment.csv

[fourier]
shell_min = 4
shell_max = 512
grid_max = 64
""")
    config("cube.cfg", """
[measure]
file = cube.csv

[fourier]
shell_min = 1
shell_max = 256
grid_max = 8
""")
    config("point.cfg", """
[measure]
file = point.csv

[fourier]
shell_min = 1
shell_max = 128
grid_max = 64
""")
    config("square.cfg", """
[run]
seed = 0

[measure]
file = square.csv

[nonconc]
samples = 200
r_min = 0.3
epsilons = 0.05 0.1 0.2 0.4
""")
    config("inplane.cfg", """
[measure]
file = inplane.csv

[nonconc]
samples = 120
r_min = 0.05
""")
    return root


def summary_value(path, key):
    """Value of a 'key = value' line in a summary file."""
    for line in path.read_text().splitlines():
        if line.startswith(f"{key} ="):
            return line.split("=", 1)[1].strip()
    raise KeyError(key)


def block_value(path, key):
    """Value of a '"key": value' line in the JSON-like fourier summary."""
    for line in path.read_text().splitlines():
        body = line.strip().rstrip(",")
        if body.startswith(f'"{key}":'):
            return body.split(":", 1)[1].strip()
    raise KeyError(key)


def csv_meta(path):
    meta = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition("=")
        meta[key] = value
    return meta


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_reference_passes(capsys):
    assert cli.main(["validate", REF]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_overlapping_names_the_pair(capsys):
    assert cli.main(["validate", OVERLAP]) == 2
    err = capsys.readouterr().err
    assert "g1" in err and "g2" in err and "overlap" in err


def test_validate_malformed_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.group"
    bad.write_text("[model]\nd = 1\n\n[generator.1]\nmatrix = 1 2 3\n\n"
                   "[balls.1]\nminus_center = -4\nminus_radius = 3\n"
                   "plus_center = 2\nplus_radius = 0.7\n")
    assert cli.main(["validate", str(bad)]) == 2
    assert "line 5" in capsys.readouterr().err


def test_validate_failed_inclusion_exits_2_with_a_witness(tmp_path, capsys):
    # g1's plus ball shrunk to radius 0.5, below g1's image radius 2/3
    text = Path(REF).read_text()
    shrunk = tmp_path / "shrunk.group"
    shrunk.write_text(text.replace("plus_radius = 0.6875\n", "plus_radius = 0.5\n", 1))
    assert cli.main(["validate", str(shrunk)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("ping-pong FAIL")
    assert re.search(r"^  witness: g1: image of \[-?[\d.]+\] escapes the target ball$", out, re.M)


def test_validate_missing_file_io_exit(tmp_path):
    assert cli.main(["validate", str(tmp_path / "nope.group")]) == 4


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "limset.cli", "validate", REF],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_start_up_loads_no_scipy(tmp_path):
    # no command imports scipy: not at start-up, and not for the atom spacing
    # that fourier and nonconc take from a d = 2 measure's neighbour distances;
    # on one thread no command loads the thread pool's concurrent.futures, nor
    # does fourier on two, whose type-3 scan and one-chunk grid run inline
    rng = np.random.default_rng(6)
    _io.write_measure_file(tmp_path / "plane.csv",
                           AtomicMeasure(points=rng.uniform(-1.0, 1.0, size=(300, 2)),
                                         weights=rng.uniform(0.5, 1.0, size=300)))
    (tmp_path / "plane.cfg").write_text(
        "[measure]\nfile = plane.csv\n\n[fourier]\nshell_min = 1\nshell_max = 128\n"
        "grid_max = 4\n\n[nonconc]\nsamples = 40\nr_min = 0.3\n")
    script = ("import sys\nfrom limset import cli\nref, cfg, out = sys.argv[1:]\n"
              "codes = [cli.main(['validate', ref])] + [\n"
              "    cli.main([cmd, '--config', cfg, '--out', out + cmd]) for cmd in ('fourier', 'nonconc')]\n"
              "codes.append(cli.main(['fourier', '--config', cfg, '--out', out + '2', '--threads', '2']))\n"
              "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
              "      'concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(limset.__file__).parents[1]))
    env.pop("LIMSET_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", script, REF, str(tmp_path / "plane.cfg"),
                           str(tmp_path / "out-")], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] [] False"


_MODULES_SCRIPT = """\
import sys
import limset
mode, *argv = sys.argv[1:]
code = None
if mode == 'cli':
    from limset import cli
    try:
        code = cli.main(argv)
    except SystemExit as exc:   # argparse's refusal
        code = exc.code
print(code, sorted(m for m in sys.modules if m.startswith('limset.')),
      *(m in sys.modules for m in ('hashlib', '_hashlib', 'numpy.random')))
print(limset.fourier.decay_scan.__module__)
"""


def test_each_command_loads_only_its_layers(work, tmp_path):
    # each case in a fresh interpreter: `import limset` loads no layer, a
    # layer still resolves as an attribute, and a command loads only the
    # layers it runs; parsing a config imports no layer and no hashlib, and
    # the seeded draws of holonomy, nonconc and fourier in d = 3 (cube.cfg)
    # come from core.Stream, so no command loads numpy.random, or hashlib
    # and _hashlib, which numpy.random imports through secrets
    front = ["limset._io", "limset.cli", "limset.core"]
    pipeline = front + ["limset.dimension", "limset.schottky"]

    def config(command, cfg):
        return ("cli", command, "--config", str(work / cfg),
                "--out", str(tmp_path / f"{command}-{cfg}"))

    def line(code, modules):
        return f"{code} {sorted(modules)} False False False"

    cases = {
        ("import",): line(None, []),
        ("cli",): line(2, front),     # no subcommand: argparse exits 2
        ("cli", "validate", REF): line(0, front + ["limset.schottky"]),
        ("cli", "holonomy", "--trials", "10", "--out", str(tmp_path)):
            line(0, front + ["limset.holonomy"]),
        config("delta", "ref.cfg"): line(0, pipeline),
        config("measure", "ref.cfg"): line(0, pipeline + ["limset.measure"]),
        config("fourier", "ref.cfg"): line(0, pipeline + ["limset.measure", "limset.fourier"]),
        config("nonconc", "ref.cfg"): line(0, pipeline + ["limset.measure", "limset.nonconc"]),
        config("fourier", "segment.cfg"): line(0, front + ["limset.measure", "limset.fourier"]),
        config("fourier", "cube.cfg"): line(0, front + ["limset.measure", "limset.fourier"]),
        config("nonconc", "square.cfg"): line(0, front + ["limset.measure", "limset.nonconc"]),
    }
    env = dict(os.environ, PYTHONPATH=str(Path(limset.__file__).parents[1]))
    for argv, loaded in cases.items():
        proc = subprocess.run([sys.executable, "-c", _MODULES_SCRIPT, *argv],
                              capture_output=True, text=True, env=env)
        modules, resolved = proc.stdout.splitlines()[-2:]
        assert modules == loaded, (argv, modules, proc.stderr)
        assert resolved == "limset.fourier", argv


def test_no_source_file_imports_scipy():
    # scipy is a test-only oracle: it is not a runtime dependency
    for path in Path(limset.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not [n for n in names if n.split(".")[0] == "scipy"], path.name


#: Layer of each limset module: a module imports only from its own layer or a
#: lower one (geometry, measures, statistics, front end).  __init__ is exempt.
_LAYERS = {"core": 0, "schottky": 0, "holonomy": 0, "dimension": 1, "measure": 1,
           "fourier": 2, "nonconc": 2, "_io": 3, "cli": 3}


def _limset_imports(tree):
    """The names a module's AST imports from limset: its modules, or for
    ``from limset import x`` the name x, which may be __init__'s own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names
                        if a.name.startswith("limset."))
        elif isinstance(node, ast.ImportFrom):
            full = node.module or ""
            if node.level:
                full = f"limset.{full}" if full else "limset"
            if full == "limset":
                yield from (a.name for a in node.names)
            elif full.startswith("limset."):
                yield full.split(".")[1]


def test_source_imports_go_one_way():
    folder = Path(limset.__file__).parent
    assert {p.stem for p in folder.glob("*.py")} == set(_LAYERS) | {"__init__"}
    for name, layer in _LAYERS.items():
        path = folder / f"{name}.py"
        for mod in _limset_imports(ast.parse(path.read_text(), str(path))):
            # a name that is no module (__version__) is __init__'s: exempt
            assert _LAYERS.get(mod, -1) <= layer, f"{name} imports {mod}"


def _clustered_orbit_measure():
    """Depth-6 orbit measure of the benchmark's seeded d = 2 group: its
    neighbour distances span many decades (5e-13 to 0.9 at depth 8)."""
    from perfbench.workloads import generated_group
    group = generated_group(1)
    return measure.patterson_orbit_measure(group, dimension.estimate_delta(group, n_max=6).delta,
                                           0.02, 6).points


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nearest_neighbor_distances_d2_match_kdtree():
    from scipy.spatial import cKDTree
    rng = np.random.default_rng(4)
    line = np.linspace(-1.0, 1.0, 3000)
    inputs = {
        "uniform": rng.uniform(-1.0, 1.0, size=(500, 2)),
        "lattice": oracles.uniform_square_measure(200).points,
        "duplicates": np.repeat(rng.uniform(size=(300, 2)), [1, 2, 3] * 100, axis=0),
        "collinear": np.column_stack([line, 0.3 * line + 0.1]),
        "on an axis": np.column_stack([line ** 3, np.zeros_like(line)]),
        "two points": np.array([[0.1, 0.2], [0.4, -0.3]]),
        "extreme": np.array([[-1e308, 0.0], [1e308, 0.0], [0.0, 1e-310], [0.0, 2e-310]]),
        "d = 3": rng.normal(size=(4000, 3)),
        "d = 9": rng.normal(size=(500, 9)),      # cKDTree's four-lane sum, 6 cell axes
        "clustered": _clustered_orbit_measure(),
    }
    for name, points in inputs.items():
        assert np.array_equal(measure.nearest_neighbor_distances(points),
                              cKDTree(points).query(points, k=2)[0][:, 1]), name


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.lists(
    st.lists(st.floats(-4.0, 4.0) | st.floats(-4.0, 4.0, width=16), min_size=d, max_size=d),
    min_size=2, max_size=40)))
def test_nearest_neighbor_distances_match_kdtree_property(rows):
    from scipy.spatial import cKDTree
    points = np.array(rows)
    assert np.array_equal(measure.nearest_neighbor_distances(points),
                          cKDTree(points).query(points, k=2)[0][:, 1])


def test_nearest_neighbor_distances_do_not_depend_on_the_blocks(monkeypatch):
    # each query's candidates come from its own reach and cells, and a pass
    # never splits them, so any query block and pair pass give the same bits
    from scipy.spatial import cKDTree
    rng = np.random.default_rng(12)
    inputs = []
    for d in (2, 3):
        spread = rng.uniform(-1.0, 1.0, size=(150, d))
        rays = rng.normal(size=(150, d))
        cluster = 0.3 + rays * 10.0 ** rng.uniform(-12.0, 0.0, size=(150, 1))
        inputs.append(np.concatenate([spread, spread[:20], cluster, cluster[:10]]))
    want = [measure.nearest_neighbor_distances(points) for points in inputs]
    for points, nn in zip(inputs, want):
        assert np.array_equal(nn, cKDTree(points).query(points, k=2)[0][:, 1])
    for block in (1, 3, 64):
        for pairs in (1, 3, 64):
            monkeypatch.setattr(measure, "_QUERY_BLOCK", block)
            monkeypatch.setattr(measure, "_PAIR_PASS", pairs)
            for points, nn in zip(inputs, want):
                assert np.array_equal(measure.nearest_neighbor_distances(points), nn), \
                    (points.shape, block, pairs)


def test_nearest_neighbor_memory_is_set_by_the_blocks():
    # the float-d2-grid benchmark's measure, 4,687 atoms: 1.3 MiB traced, where
    # blocks of 16,384 queries and passes of 2^20 pairs take 3.3 MiB
    from perfbench.workloads import generated_group
    points, _ = generated_group(13).orbit_chart(5)
    measure.nearest_neighbor_distances(points)      # any first-call allocations
    tracemalloc.start()
    try:
        measure.nearest_neighbor_distances(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert points.shape == (4687, 2)
    assert peak <= 1.65 * 2 ** 20


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------

def test_delta_reference_in_unit_interval(work, tmp_path):
    out = tmp_path / "d"
    assert cli.main(["delta", "--config", str(work / "ref.cfg"),
                     "--out", str(out)]) == 0
    assert summary_value(out / "delta_summary.txt", "status") == "ok"
    delta = float(summary_value(out / "delta_summary.txt", "delta"))
    assert 0.0 < delta < 1.0
    meta, cols, rows = _io.read_csv(out / "delta.csv")
    assert cols == ["n", "s", "a_n", "delta_n"]
    assert rows.shape[0] == 8
    assert np.all(rows[:, 1] == delta)
    # the per-level estimates settle towards the reported value
    assert abs(rows[-1, 3] - delta) < 1e-12
    assert meta["config"] and meta["version"]


def test_delta_rerun_identical_bytes(work, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["delta", "--config", str(work / "ref.cfg"),
                         "--out", str(out)]) == 0
    assert (a / "delta.csv").read_bytes() == (b / "delta.csv").read_bytes()
    assert (a / "delta_summary.txt").read_bytes() == (b / "delta_summary.txt").read_bytes()


def test_delta_cyclic_is_degenerate(work, tmp_path, capsys):
    out = tmp_path / "c"
    assert cli.main(["delta", "--config", str(work / "cyc.cfg"),
                     "--out", str(out)]) == 3
    assert "degenerate" in capsys.readouterr().out
    assert summary_value(out / "delta_summary.txt", "status") == "degenerate"
    assert not (out / "delta.csv").exists()


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def test_measure_atom_count_is_word_count(work, tmp_path):
    out = tmp_path / "m"
    assert cli.main(["measure", "--config", str(work / "ref.cfg"),
                     "--out", str(out)]) == 0
    mu, meta = _io.read_measure_file(out / "measure.csv")
    G = _io.load_group_file(REF)
    assert mu.n == G.word_count(8)
    assert int(meta["count"]) == mu.n
    assert mu.mass == pytest.approx(1.0, abs=1e-12)
    assert int(summary_value(out / "measure_summary.txt", "atoms")) == mu.n


def test_measure_depth_zero_single_atom(work, tmp_path):
    out = tmp_path / "m0"
    assert cli.main(["measure", "--config", str(work / "ref_n0.cfg"),
                     "--out", str(out)]) == 0
    mu, _ = _io.read_measure_file(out / "measure.csv")
    assert mu.n == 1


def _count_level_builds(monkeypatch):
    """The levels each ``SchottkyGroup._build`` call makes, in call order."""
    built = []
    real = schottky.SchottkyGroup._build

    def counted(self, j, n, vectors):
        built.extend(range(j + 1, n + 1))
        return real(self, j, n, vectors)

    monkeypatch.setattr(schottky.SchottkyGroup, "_build", counted)
    return built


def test_measure_builds_each_level_once(work, tmp_path, monkeypatch):
    """The measure's vector levels are built before delta's distances, so
    each level's products are built once, whether the measure is shallower
    than delta or as deep, and whether delta's deeper levels are built whole
    or streamed (at 100 rows a chunk, below level 3)."""
    built = _count_level_builds(monkeypatch)
    for rows in (schottky._ROWS, 100):
        monkeypatch.setattr(schottky, "_ROWS", rows)
        for cfg in ("ref_n6.cfg", "ref.cfg"):
            built.clear()
            assert cli.main(["measure", "--config", str(work / cfg),
                             "--out", str(tmp_path / cfg)]) == 0
            assert built == list(range(1, 9)), (rows, cfg)


def test_delta_builds_each_level_once(work, tmp_path, monkeypatch):
    """The shell sums of delta.csv reuse the estimate's distances."""
    built = _count_level_builds(monkeypatch)
    for rows in (schottky._ROWS, 100):
        monkeypatch.setattr(schottky, "_ROWS", rows)
        built.clear()
        assert cli.main(["delta", "--config", str(work / "ref.cfg"),
                         "--out", str(tmp_path / "d")]) == 0
        assert built == list(range(1, 9)), rows


def test_measure_holds_no_levels_below_its_depth(work):
    """Once delta is estimated the pipeline forgets the distances below the
    measure's depth, which only the estimate read, and once the measure is
    built every level but the identity's; with gc off, so that no reference
    cycle may keep the streamed levels alive either."""
    cfg = _io.parse_experiment_config(str(work / "ref_d12_m9.cfg"))
    gc.disable()
    tracemalloc.start()
    try:
        run = cli._Pipeline(cfg, 1)
        mu = run.mu
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert run.estimate.n_max == 12 and len(run.group._levels) == 1
    # the atoms and what a first import holds (0.12 MiB in a fresh process);
    # the vectors and distances of levels 0..9 alone are 1.2 MiB
    assert held <= mu.points.nbytes + mu.weights.nbytes + (256 << 10)


def test_measure_refinement_shrinks_residual(work, tmp_path):
    resid = {}
    for name, cfg in (("8", "ref.cfg"), ("12", "ref_n12.cfg")):
        out = tmp_path / name
        assert cli.main(["measure", "--config", str(work / cfg),
                         "--out", str(out)]) == 0
        resid[name] = float(summary_value(out / "measure_summary.txt",
                                          "conformality_residual"))
    # deeper truncation halves the residual, up to a factor-2 slack
    ratio = resid["8"] / resid["12"]
    assert 1.0 <= ratio <= 4.0


# ---------------------------------------------------------------------------
# fourier
# ---------------------------------------------------------------------------

def test_readme_kappa_figure(tmp_path):
    """The README's kappa and its standard error, to the printed digits, from
    the README config on the reference with the measure at the depth the
    sentence names."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    flat = " ".join(readme.split())
    depth, kappa, stderr = re.search(
        r"the README config but `\[measure\] n_max = (\d+)` .*? kappa is ([-\d.]+) "
        r"with a standard error of ([\d.]+),", flat).groups()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    block = re.sub(r"(\[measure\]\nepsilon = [\d.]+\nn_max = )\d+", rf"\g<1>{depth}", block)
    assert f"n_max = {depth}\n" in block
    (tmp_path / "reference.group").write_text(Path(REF).read_text())
    (tmp_path / "readme.cfg").write_text(block)
    out = tmp_path / "out"
    assert cli.main(["fourier", "--config", str(tmp_path / "readme.cfg"),
                     "--out", str(out)]) == 0
    summary = out / "fourier_summary.txt"
    for printed, key in ((kappa, "kappa"), (stderr, "kappa_stderr")):
        digits = len(printed.split(".")[1])
        assert f"{float(block_value(summary, key)):.{digits}f}" == printed, key


def test_fourier_segment_kappa_near_one(work, tmp_path):
    out = tmp_path / "f"
    assert cli.main(["fourier", "--config", str(work / "segment.cfg"),
                     "--out", str(out)]) == 0
    summary = out / "fourier_summary.txt"
    kappa = float(block_value(summary, "kappa"))
    assert 0.85 <= kappa <= 1.15
    keys = [line.split('"')[1] for line in summary.read_text().splitlines()
            if line.startswith('  "')]
    assert keys[keys.index("fit_residual") + 1] == "kappa_stderr"
    assert 0.0 < float(block_value(summary, "kappa_stderr")) < 0.1
    cap = float(block_value(summary, "resolution_cap"))
    assert cap == pytest.approx(250.0, rel=1e-9)
    assert int(block_value(summary, "truncated_shells")) == 2
    meta, cols, rows = _io.read_csv(out / "fourier.csv")
    assert cols == ["shell_radius", "direction_index", "re", "im", "abs"]
    shells = np.unique(rows[:, 0])
    assert shells.shape[0] == int(block_value(summary, "shells_kept"))
    assert np.all(shells <= cap)
    assert np.allclose(rows[:, 4], np.hypot(rows[:, 2], rows[:, 3]))


def test_fourier_point_mass_flat(work, tmp_path):
    out = tmp_path / "p"
    assert cli.main(["fourier", "--config", str(work / "point.cfg"),
                     "--out", str(out)]) == 0
    summary = out / "fourier_summary.txt"
    assert abs(float(block_value(summary, "kappa"))) < 1e-12
    assert block_value(summary, "resolution_cap") == "inf"
    assert float(block_value(summary, "exceptional_fraction")) == pytest.approx(1.0, abs=0.02)


def test_fourier_rerun_identical_bytes(work, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["fourier", "--config", str(work / "segment.cfg"),
                         "--out", str(out), "--threads", "1", "--svg"]) == 0
    for name in ("fourier.csv", "fourier_summary.txt", "fourier.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fourier_bytes_do_not_depend_on_the_blas_thread_count(work, tmp_path):
    # OpenBLAS splits a long product's sum across its threads, so no sum of
    # the scan may go through BLAS; 39,365 atoms, above its split threshold
    outs = {blas: tmp_path / f"blas{blas}" for blas in ("1", "2")}
    for blas, out in outs.items():
        env = dict(os.environ, PYTHONPATH=str(Path(limset.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=blas)
        proc = subprocess.run([sys.executable, "-m", "limset.cli", "fourier", "--config",
                               str(work / "ref_d12_m9.cfg"), "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    for name in ("fourier.csv", "fourier_summary.txt"):
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


def test_fourier_thread_count_leaves_data_rows_unchanged(work, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, threads in ((a, "1"), (b, "3")):
        assert cli.main(["fourier", "--config", str(work / "segment.cfg"),
                         "--out", str(out), "--threads", threads]) == 0
    rows_a = [l for l in (a / "fourier.csv").read_text().splitlines()
              if not l.startswith("#")]
    rows_b = [l for l in (b / "fourier.csv").read_text().splitlines()
              if not l.startswith("#")]
    assert rows_a == rows_b


def test_fourier_svg_follows_the_csv(work, tmp_path):
    out = tmp_path / "s"
    assert cli.main(["fourier", "--config", str(work / "segment.cfg"),
                     "--out", str(out), "--svg"]) == 0
    svg = (out / "fourier.svg").read_text()
    shells = int(block_value(out / "fourier_summary.txt", "shells_kept"))
    assert svg.count("<circle") == shells
    # the plot drawn from the report is byte for byte the one drawn from the
    # shell maxima of the written CSV (%.17g round-trips exactly)
    _, _, data = _io.read_csv(out / "fourier.csv")
    r, a = data[:, 0], data[:, 4]
    radii = np.unique(r)
    _io.write_loglog_svg(tmp_path / "oracle.svg", radii,
                         np.array([a[r == x].max() for x in radii]),
                         title="shell maxima of |mu-hat|",
                         xlabel="frequency radius", ylabel="max |mu-hat|")
    assert (out / "fourier.svg").read_bytes() == (tmp_path / "oracle.svg").read_bytes()


def test_fourier_evaluates_the_grid_once(work, tmp_path, monkeypatch):
    """The L2 average and the exceptional set read one grid evaluation:
    after the decay scan's type-3 transform, one grid NUFFT in d = 1 and d = 2."""
    calls = []

    def counted(name):
        real = getattr(fourier, name)
        return lambda *args, **kw: calls.append(name) or real(*args, **kw)

    for name in ("_ray_transform", "_grid_values"):
        monkeypatch.setattr(fourier, name, counted(name))
    rng = np.random.default_rng(5)
    _io.write_measure_file(tmp_path / "plane.csv",
                           AtomicMeasure(points=rng.uniform(size=(200, 2)),
                                         weights=rng.uniform(0.5, 1.0, size=200)))
    (tmp_path / "plane.cfg").write_text("[measure]\nfile = plane.csv\n\n[fourier]\n"
                                        "shell_min = 1\nshell_max = 128\ngrid_max = 6\n")
    for cfg, expected in ((work / "segment.cfg", ["_ray_transform", "_grid_values"]),
                          (tmp_path / "plane.cfg", ["_ray_transform", "_grid_values"])):
        calls.clear()
        assert cli.main(["fourier", "--config", str(cfg),
                         "--out", str(tmp_path / cfg.stem)]) == 0
        assert calls == expected


def test_env_var_thread_override(work, tmp_path, monkeypatch):
    monkeypatch.setenv("LIMSET_THREADS", "2")
    out = tmp_path / "e"
    assert cli.main(["fourier", "--config", str(work / "segment.cfg"),
                     "--out", str(out)]) == 0
    assert csv_meta(out / "fourier.csv")["threads"] == "2"


def test_thread_count_precedence_and_refusal(work, tmp_path, monkeypatch, capsys):
    """--threads beats LIMSET_THREADS beats [run] threads; counts below 1 are
    refused with exit 2 and name their source."""
    monkeypatch.delenv("LIMSET_THREADS", raising=False)

    def config(threads):
        path = tmp_path / f"t{threads}.cfg"
        path.write_text(f"[run]\nseed = 0\nthreads = {threads}\n\n"
                        f"[measure]\nfile = {work / 'point.csv'}\n\n"
                        "[fourier]\nshell_min = 1\nshell_max = 128\ngrid_max = 16\n")
        return str(path)

    def threads_used(env, *flag):
        if env is None:
            monkeypatch.delenv("LIMSET_THREADS", raising=False)
        else:
            monkeypatch.setenv("LIMSET_THREADS", env)
        out = tmp_path / f"o-{env}-{'-'.join(flag)}"
        code = cli.main(["fourier", "--config", config(3), "--out", str(out), *flag])
        return csv_meta(out / "fourier.csv")["threads"] if code == 0 else code

    assert threads_used(None) == "3"
    assert threads_used("2") == "2"
    assert threads_used("2", "--threads", "1") == "1"
    assert threads_used(None, "--threads", "4") == "4"
    capsys.readouterr()
    for env, flag, source in ((None, ["--threads", "0"], "--threads"),
                              (None, ["--threads", "-3"], "--threads"),
                              ("0", [], "LIMSET_THREADS")):
        assert threads_used(env, *flag) == 2
        assert source in capsys.readouterr().err
    monkeypatch.delenv("LIMSET_THREADS")
    assert cli.main(["fourier", "--config", config(0),
                     "--out", str(tmp_path / "c0")]) == 2
    assert "line 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# nonconc
# ---------------------------------------------------------------------------

def test_nonconc_square_tracks_slab_oracle(work, tmp_path):
    out = tmp_path / "q"
    assert cli.main(["nonconc", "--config", str(work / "square.cfg"),
                     "--out", str(out)]) == 0
    meta, cols, rows = _io.read_csv(out / "nonconc.csv")
    assert cols == ["epsilon", "worst_ratio", "ball_count_used"]
    assert meta["in_hyperplane"] == "false"
    for eps, ratio, used in rows:
        assert ratio == pytest.approx(oracles.slab_disk_ratio_oracle(eps), abs=0.05)
        assert abs(ratio - eps) < 0.12
        assert used > 0
    assert np.all(np.diff(rows[:, 1]) >= 0.0)


def test_nonconc_segment_in_plane_flagged(work, tmp_path, capsys):
    out = tmp_path / "i"
    assert cli.main(["nonconc", "--config", str(work / "inplane.cfg"),
                     "--out", str(out)]) == 0
    assert "hyperplane" in capsys.readouterr().out
    meta, _, rows = _io.read_csv(out / "nonconc.csv")
    assert meta["in_hyperplane"] == "true"
    assert np.all(rows[:, 1] == 1.0)


# ---------------------------------------------------------------------------
# holonomy
# ---------------------------------------------------------------------------

def holonomy_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def test_holonomy_suite_passes(tmp_path, capsys):
    out = tmp_path / "h"
    assert cli.main(["holonomy", "--trials", "1500", "--out", str(out)]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    rows = holonomy_rows(out / "holonomy.csv")
    assert len(rows) == 7
    for name, trials, residual, tol, passed in rows:
        assert passed == "true"
        assert float(residual) < float(tol)
    round_trips = {r[0]: float(r[2]) for r in rows if r[0].endswith("round_trip")}
    assert max(round_trips.values()) < 1e-10


def test_holonomy_seed_change_same_verdict(tmp_path):
    assert cli.main(["holonomy", "--trials", "600", "--seed", "42",
                     "--out", str(tmp_path / "h42")]) == 0


def test_holonomy_rerun_identical_bytes(tmp_path):
    for name in ("a", "b"):
        assert cli.main(["holonomy", "--trials", "2000", "--seed", "3",
                         "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "holonomy.csv").read_bytes() == \
        (tmp_path / "b" / "holonomy.csv").read_bytes()


def test_holonomy_sign_bug_negative_control(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LIMSET_BUG_TAU_SIGN", "1")
    out = tmp_path / "hb"
    assert cli.main(["holonomy", "--trials", "300", "--out", str(out)]) == 3
    assert "overall: FAIL" in capsys.readouterr().out
    failing = {r[0] for r in holonomy_rows(out / "holonomy.csv") if r[4] == "false"}
    assert failing == {"tau_round_trip"}


# ---------------------------------------------------------------------------
# config and error plumbing
# ---------------------------------------------------------------------------

def test_bad_config_key_validation_exit(work, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[run]\nbogus = 1\n")
    assert cli.main(["delta", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_config_io_exit(tmp_path):
    assert cli.main(["delta", "--config", str(tmp_path / "nope.cfg")]) == 4


def test_invalid_epsilon_validation_exit(work, tmp_path, capsys):
    cfg = tmp_path / "crit.cfg"
    cfg.write_text(f"[group]\nfile = {REF}\n\n[delta]\nn_max = 8\n\n"
                   "[measure]\nepsilon = -0.2\nn_max = 8\n")
    assert cli.main(["measure", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert "epsilon" in capsys.readouterr().err


_REF_TEXT = Path(REF).read_text()
_GROUP = f"[group]\nfile = {REF}\n\n"     # lines 1-3 of a config that could run
_BAD_INPUTS = {   # case -> (command, group file or config text)
    "d-overflow": ("validate", _REF_TEXT.replace("d = 1\n", "d = 1e400\n")),
    "d-nan": ("validate", _REF_TEXT.replace("d = 1\n", "d = nan\n")),
    "tol-nan": ("validate", _REF_TEXT.replace("tol = 1e-9", "tol = nan")),
    "radius-nan": ("validate", _REF_TEXT.replace("minus_radius = 3\n",
                                                 "minus_radius = nan\n")),
    "dotted-section": ("validate", _REF_TEXT.replace("[generator.2]", "[generator.2.1]")),
    "named-section": ("validate", _REF_TEXT.replace("[generator.2]", "[generator.b]")),
    "unknown-section": ("validate", _REF_TEXT + "\n[other]\n"),
    "missing-key": ("validate", _REF_TEXT.replace("plus_center = 6\n", "")),
    "missing-section": ("validate", _REF_TEXT.split("[balls.2]")[0]),
    "seed-overflow": ("delta", "[run]\nseed = 1e400\n"),
    "unknown-config-section": ("delta", "[run]\nseed = 1\n[other]\n"),
    "epsilon-above-half": ("delta", "[nonconc]\nepsilons = 0.2 0.6\n"),
    "nan-measure-file": ("fourier", "[measure]\nfile = nan.csv\n"),
    "measure-weight-negative": ("fourier", "[measure]\nfile = weight.csv\n"),
    "measure-bad-cell": ("fourier", "[measure]\nfile = cell.csv\n"),
    "measure-header-d": ("fourier", "[measure]\nfile = d.csv\n"),
    "measure-header-count": ("fourier", "[measure]\nfile = count.csv\n"),
    "measure-header-delta-text": ("fourier", "[measure]\nfile = delta-text.csv\n"),
    "measure-header-delta-nan": ("fourier", "[measure]\nfile = delta-nan.csv\n"),
    "group-not-utf8": ("validate", _REF_TEXT.encode().replace(b"tol = 1e-9",
                                                             b"tol = 1e-9 # \xe9")),
    "config-not-utf8": ("delta", b"[run]\nseed = 1\n# caf\xe9\n"),
    # the range rules of the README config table
    "seed-negative": ("delta", _GROUP + "[run]\nseed = -5\n"),
    "delta-tol": ("delta", _GROUP + "[delta]\nn_max = 8\ntol = 0\n"),
    "delta-n-max-5": ("delta", _GROUP + "[delta]\nn_max = 5\n"),
    "measure-epsilon-0": ("measure", _GROUP + "[measure]\nepsilon = 0\n"),
    "measure-n-max-negative": ("measure", _GROUP + "[measure]\nn_max = -1\n"),
    "shell-min-0": ("fourier", _GROUP + "[fourier]\nshell_min = 0\n"),
    "samples-per-shell-0": ("fourier", _GROUP + "[fourier]\nsamples_per_shell = 0\n"),
    "grid-step-0": ("fourier", _GROUP + "[fourier]\ngrid_step = 0\n"),
    "grid-step-half": ("fourier", _GROUP + "[fourier]\ngrid_step = 0.5\n"),
    "grid-max-2": ("fourier", _GROUP + "[fourier]\ngrid_max = 2\n"),
    "shell-max-7-shells": ("fourier", _GROUP + "[fourier]\nshell_min = 1\nshell_max = 64\n"),
    "shell-min-7-shells": ("fourier", _GROUP + "[fourier]\nshell_min = 4\n"),
    "nonconc-samples-0": ("nonconc", _GROUP + "[nonconc]\nsamples = 0\n"),
    "nonconc-r-min-negative": ("nonconc", _GROUP + "[nonconc]\nr_min = -0.1\n"),
    "nonconc-r-min-1": ("nonconc", _GROUP + "[nonconc]\nr_min = 1\n"),
}
_MEASURE_FILES = {      # name -> text; the table starts after the headers
    "nan.csv": "# count=3\n# d=1\nx1,weight\n0.1,1\nnan,1\n0.3,1\n",
    "weight.csv": "# count=3\n# d=1\nx1,weight\n0.1,1\n0.2,1\n0.3,-0.5\n",
    "cell.csv": "# count=3\n# d=1\nx1,weight\n0.1,1\n\n0.2,abc\n0.3,1\n",
    "d.csv": "# count=2\n# d=2\nx1,weight\n0.1,1\n0.2,1\n",
    "count.csv": "# count=3\n# d=1\nx1,weight\n0.1,1\n0.2,1\n",
    "delta-text.csv": "# count=2\n# d=1\n# delta=abc\nx1,weight\n0.1,1\n0.2,1\n",
    "delta-nan.csv": "# count=2\n# d=1\n# delta=nan\nx1,weight\n0.1,1\n0.2,1\n",
}
_BAD_LINES = {          # case -> the file line its refusal must name
    "nan-measure-file": 5,
    "measure-weight-negative": 6,
    "measure-bad-cell": 6,
    "measure-header-d": 2,
    "measure-header-count": 1,
    "measure-header-delta-text": 3,
    "measure-header-delta-nan": 3,
    "group-not-utf8": _REF_TEXT.splitlines().index("tol = 1e-9") + 1,
    "config-not-utf8": 3,
    # the bad value of a config that could run stands on its last line
    **{case: text.count("\n") for case, (_, text) in _BAD_INPUTS.items()
       if isinstance(text, str) and text.startswith(_GROUP)},
}


def _no_stage(*args, **kwargs):
    raise AssertionError("a pipeline stage ran before the refusal")


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_exits_2_naming_its_line(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(dimension, "estimate_delta", _no_stage)
    command, text = _BAD_INPUTS[case]
    for name, table in _MEASURE_FILES.items():
        (tmp_path / name).write_text(table)
    path = tmp_path / "input"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    args = ([str(path)] if command == "validate"
            else ["--config", str(path), "--out", str(tmp_path / "o")])
    assert cli.main([command] + args) == 2
    line = re.search(r"line (\d+):", capsys.readouterr().err)
    assert line
    if case in _BAD_LINES:
        assert int(line.group(1)) == _BAD_LINES[case]


@pytest.mark.parametrize("section, depth, need", [
    pytest.param("delta", 18, "5.78", id="delta"),
    pytest.param("measure", 17, "7.7", id="measure")])
def test_depth_over_level_cache_budget_exits_2_up_front(tmp_path, capsys, section, depth, need):
    # the levels of the reference over the budget, refused before any level
    # (or, for measure, the delta stage) is built: delta holds distances
    # only, so its depth 17 (1.9 GiB) fits and depth 18 does not
    path = tmp_path / "deep.cfg"
    path.write_text(_GROUP + f"[{section}]\nn_max = {depth}\n")
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = cli.main([section, "--config", str(path), "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert time.perf_counter() - start < 0.5
    assert peak < 4 << 20
    assert f"depth {depth} need {need} GiB" in capsys.readouterr().err


def test_huge_measure_depth_is_refused_before_the_word_count(tmp_path, capsys, monkeypatch):
    # the grid budget check counts the measure's atoms by word_count, a
    # big-int power that takes seconds at a depth like this; the level cache
    # refusal runs first
    def no_word_count(self, n):
        raise AssertionError(f"word_count({n}) reached")
    monkeypatch.setattr(schottky.SchottkyGroup, "word_count", no_word_count)
    path = tmp_path / "huge.cfg"
    path.write_text(_GROUP + "[measure]\nn_max = 10000000\n")
    start = time.perf_counter()
    code = cli.main(["fourier", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert time.perf_counter() - start < 2.0
    assert "depth 10000000 need more than" in capsys.readouterr().err


def test_grid_over_budget_exits_2_up_front(tmp_path, capsys, monkeypatch):
    """The grid statistics' memory estimate is refused before any stage runs:
    a d = 3 measure file at the default grid_max of 256, and the d = 2
    benchmark group with grid_max 1024 at the benchmark's depth 5 (at the
    default depth 12 its levels are over the level cache budget, which is
    refused first)."""
    from perfbench.workloads import generated_group
    monkeypatch.setattr(dimension, "estimate_delta", _no_stage)
    monkeypatch.setattr(fourier, "decay_scan", _no_stage)
    rng = np.random.default_rng(7)
    _io.write_measure_file(tmp_path / "cube.csv",
                           AtomicMeasure(points=rng.uniform(size=(50, 3)),
                                         weights=np.ones(50)))
    (tmp_path / "cube.cfg").write_text("[measure]\nfile = cube.csv\n")
    (tmp_path / "plane.group").write_text(_io.group_file_text(generated_group(1)))
    (tmp_path / "plane.cfg").write_text("[group]\nfile = plane.group\n\n"
                                        "[measure]\nn_max = 5\n\n"
                                        "[fourier]\ngrid_max = 1024\n")
    for name, d in (("cube.cfg", 3), ("plane.cfg", 2)):
        assert cli.main(["fourier", "--config", str(tmp_path / name),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert re.search(f"in d = {d} would hold about [0-9.e+]+ GiB, over the budget "
                         "of 1 GiB", err), err
    assert not (tmp_path / "o" / "fourier.csv").exists()


def test_negative_seed_flag_is_refused_naming_it(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dimension, "estimate_delta", _no_stage)
    path = tmp_path / "seed.cfg"
    path.write_text(_GROUP + "[delta]\nn_max = 8\n")
    for command in ("delta", "measure", "fourier", "nonconc"):
        assert cli.main([command, "--config", str(path), "--seed", "-5",
                         "--out", str(tmp_path / "o")]) == 2
        assert "--seed: must be at least 0, got -5" in capsys.readouterr().err
    # the suite holds every trial's draws at once: a count over the cap is
    # refused before any draw
    for flags, message in ((["--trials", "10", "--seed", "-5"],
                            "--seed: must be at least 0, got -5"),
                           (["--trials", "5"], "--trials: must be at least 10, got 5"),
                           (["--trials", "1000001"],
                            "--trials: must be at most 1000000, got 1000001")):
        start = time.perf_counter()
        assert cli.main(["holonomy", *flags, "--out", str(tmp_path / "h")]) == 2
        assert time.perf_counter() - start < 0.1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "h").exists()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="at most 1000000 trials, got 1000001"):
        holonomy.property_suite(holonomy.MAX_TRIALS + 1)
    assert time.perf_counter() - start < 0.1
