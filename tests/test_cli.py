"""End-to-end command tests, run in-process through cli.main().

Every test works inside tmp_path and asserts on the process exit code plus
the artifacts a user would actually look at.
"""

import json
import time

import numpy as np
import pytest

import fracpm.evolution
from conftest import child_peak_mb
from fracpm import fieldio
from fracpm.cli import main


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE_1D = (
    "dimension = 1\n"
    "epsilon = 0.7\n"
    "grid.n = 256\n"
    "geometry.jumps = -0.5, 0.5\n"
    "geometry.values = 0.0, 1.0\n"
)


def test_fracfield_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, BASE_1D)
    out = tmp_path / "out"
    assert main(["fracfield", "--config", cfg, "--out", str(out)]) == 0

    for name in ("singular.field", "alpha.field", "probes.csv",
                 "fracfield_report.json"):
        assert (out / name).exists(), name

    report = json.loads((out / "fracfield_report.json").read_text())
    assert report["epsilon"] == 0.7 and report["dimension"] == 1
    by_name = {f["quantity"]: f for f in report["fits"]}
    grad = by_name["frac_gradient_magnitude"]
    alpha = by_name["diffusion_coefficient"]
    assert grad["target"] == pytest.approx(-0.3)
    assert alpha["target"] == pytest.approx(0.6)
    # fitted exponents should land near the predicted ones on this window
    assert abs(grad["slope"] - grad["target"]) < 0.1
    assert abs(alpha["slope"] - alpha["target"]) < 0.2

    field, header = fieldio.read_field(str(out / "singular.field"))
    assert header["n"] == 256 and field.values.shape == (256,)


def test_fracfield_sign_check_judges_the_leading_term(tmp_path):
    # at eps = 0.55 the pointwise alpha'' on [1e-3, 1e-2] has the wrong sign
    # (its subleading term dominates there); the leading exponent decides
    cfg = write_cfg(
        tmp_path,
        BASE_1D.replace("epsilon = 0.7", "epsilon = 0.55")
        + "probes.sign_check = true\n",
    )
    out = tmp_path / "out"
    assert main(["fracfield", "--config", cfg, "--out", str(out)]) == 0
    check = json.loads((out / "fracfield_report.json").read_text())["sign_check"]
    assert check["expected_sign"] == -1.0
    assert check["gamma"] == pytest.approx(2.0 - 2.0 * 0.55, abs=0.05)
    assert check["min_signed_value"] < 0.0
    assert check["all_correct"] is True


def test_evolve_artifacts_and_determinism(tmp_path):
    cfg = write_cfg(
        tmp_path,
        BASE_1D
        + "perturbation.kind = noise\nperturbation.amplitude = 0.01\n"
        + "solver.dt = 1e-3\nsolver.t_final = 0.01\nsolver.snapshot_stride = 5\n"
        + "seed = 3\n",
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["evolve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["evolve", "--config", cfg, "--out", str(out2)]) == 0

    series = (out1 / "series.csv").read_bytes()
    assert b"\r\n" in series  # RFC 4180 line endings
    assert series.split(b"\r\n")[0] == b"t,l2_w,linf_u,mean_u,energy"
    assert series == (out2 / "series.csv").read_bytes()

    report = json.loads((out1 / "evolve_report.json").read_text())
    assert report["status"] == "completed"
    assert report["seed"] == 3
    assert report["steps_recorded"] == 10
    cg = report["cg_iterations"]
    assert set(cg) == {"total", "mean", "max"}
    assert 0 < cg["max"] <= 500 and cg["mean"] == pytest.approx(cg["total"] / 10)
    assert (out1 / "evolve_report.json").read_bytes() == (
        out2 / "evolve_report.json"
    ).read_bytes()

    snaps = sorted(p.name for p in out1.glob("w_*.field"))
    assert len(snaps) == report["snapshots"] and len(snaps) >= 2
    assert (out1 / snaps[0]).read_bytes() == (out2 / snaps[0]).read_bytes()


def test_evolve_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(
        tmp_path,
        BASE_1D
        + "perturbation.kind = noise\nsolver.dt = 1e-3\nsolver.t_final = 0.005\n"
        + "seed = 3\n",
    )
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--seed", "11", "--out", str(out)]) == 0
    report = json.loads((out / "evolve_report.json").read_text())
    assert report["seed"] == 11


@pytest.mark.parametrize(
    "text, argv",
    [("seed = -1\n", []), ("", ["--seed", "-1"])],
    ids=("config", "flag"),
)
def test_negative_noise_seed_exits_2(tmp_path, capsys, text, argv):
    cfg = write_cfg(tmp_path, BASE_1D + "perturbation.kind = noise\n" + text)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), *argv]) == 2
    assert "non-negative seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header",
    [
        '{"dtype": "f64", "byte_order": "LE"}',
        "[1, 2]",
        '{"dim": "x", "n": 16, "dtype": "f64", "byte_order": "LE"}',
        '{"dim": 1, "n": 16.9, "dtype": "f64", "byte_order": "LE"}',
        '{"dim": 3, "n": 16, "dtype": "f64", "byte_order": "LE"}',
        '{"dim": 1, "n": 15, "dtype": "f64", "byte_order": "LE"}',
        '{"dim": 1, "n": 8388608, "dtype": "f64", "byte_order": "LE"}',
    ],
    ids=("no-dim", "list", "text-dim", "float-n", "dim-3", "odd-n", "n-over-max-nodes"),
)
def test_malformed_field_file_header_exits_2(tmp_path, capsys, header):
    """A perturbation file whose header is not an object with integer dim
    and n, or whose dim or n no grid takes, is a config error naming the
    file, not a traceback, a run on a truncated size or a message that
    reads like a fault in the run config."""
    field = tmp_path / "w0.field"
    field.write_bytes(header.encode() + b"\n" + bytes(16 * 8))
    cfg = write_cfg(tmp_path, (
        "dimension = 1\nepsilon = 0.7\ngrid.n = 16\n"
        "geometry.jumps = -0.43, 0.47\ngeometry.values = 0.0, 1.0\n"
        f"perturbation.kind = file\nperturbation.file = {field}\n"
        "solver.dt = 1e-3\nsolver.t_final = 1e-3\n"
    ))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(field) in lines[0]


def test_spectrum_report(tmp_path):
    cfg = write_cfg(tmp_path, BASE_1D)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0

    report = json.loads((out / "spectrum_report.json").read_text())
    assert report["mode"] == "dense"
    assert report["gamma"] > 0
    assert report["poincare_constant"] == pytest.approx(report["gamma"] ** -0.5)
    assert report["component_count"] == 2
    assert report["deflation_dim"] == 2
    assert report["kernel_dim"] == 1

    rows = (out / "eigenvalues.csv").read_text().strip().splitlines()
    assert rows[0] == "index,eigenvalue"
    assert len(rows) == 256 + 1
    eigs = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(np.diff(eigs) >= -1e-12)


def test_spectrum_on_the_smallest_grid(tmp_path):
    cfg = write_cfg(tmp_path, BASE_1D.replace("grid.n = 256", "grid.n = 4"))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "spectrum_report.json").read_text())
    assert report["kernel_dim"] == 1


def test_iterative_spectrum_reruns_identically(tmp_path):
    cfg = write_cfg(tmp_path, BASE_1D.replace("grid.n = 256", "grid.n = 8192"))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    for name in ("spectrum_report.json", "eigenvalues.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report = json.loads((outs[0] / "spectrum_report.json").read_text())
    assert report["mode"] == "iterative"
    assert report["kernel_dim"] == 1
    rows = (outs[0] / "eigenvalues.csv").read_text().strip().splitlines()
    assert len(rows) == 10 + 1


BASE_2D = (
    "dimension = 2\n"
    "epsilon = 0.7\n"
    "grid.n = 16\n"
    "geometry.curve = circle\n"
)


SPLINE_2D = (
    "dimension = 2\n"
    "epsilon = 0.3\n"
    "geometry.curve = spline\n"
    "geometry.points = 0.52, 0.03; 0.31, 0.41; -0.12, 0.55; -0.47, 0.22; "
    "-0.43, -0.27; -0.05, -0.49; 0.36, -0.33\n"
    "probes.sign_check = true\n"
    "solver.dt = 1e-3\n"
    "solver.t_final = 0.01\n"
)


def test_spline_fracfield_and_evolve_in_bounded_memory(tmp_path):
    """An off-lattice 7-point spline runs both curve commands (10 steps) in
    one fresh process, on a 16^2 grid and on the default 128^2 grid."""
    for grid in ("grid.n = 16\n", ""):
        cfg = write_cfg(tmp_path, SPLINE_2D + grid)
        out = tmp_path / "o"
        code = (
            "from fracpm.cli import main\n"
            "for cmd in ('fracfield', 'evolve'):\n"
            f"    assert main([cmd, '--config', {cfg!r}, '--out', {str(out)!r}]) == 0\n"
        )
        assert child_peak_mb(code) < 250.0
        report = json.loads((out / "fracfield_report.json").read_text())
        assert report["sign_check"]["all_correct"] is True


@pytest.mark.parametrize(
    "command, text",
    [
        # a spline knot on the node (-0.5, 0)
        (
            "evolve",
            "geometry.curve = spline\n"
            "geometry.points = 0.4819814303479266, 0.10641473822667005; "
            "0.19651251582696183, 0.36781110902058023; "
            "-0.2369343312364991, 0.3522382127426953; -0.5, 0.0; "
            "-0.37653573300180554, -0.263175490375885; "
            "0.022432415175256928, -0.3995972266165259; "
            "0.4045084971874734, -0.23511410091698962\n"
            "solver.dt = 1e-3\nsolver.t_final = 0.01\n",
        ),
        # a circle through the y-face midpoint (0, 0.4375)
        ("spectrum", "geometry.center = 0.0, 0.03\ngeometry.radius = 0.4075\n"),
    ],
    ids=("spline-knot-on-node", "circle-on-y-face"),
)
def test_curve_on_the_lattice_is_shifted_off_it(tmp_path, capsys, command, text):
    cfg = write_cfg(tmp_path, "dimension = 2\nepsilon = 0.3\ngrid.n = 16\n" + text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "translating by (h/4, h/4)" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["fracfield", "evolve"])
def test_diamond_spline_takes_the_next_shift(tmp_path, capsys, command):
    """At n = 16 the diamond's h/4-shifted spline passes through the node
    (0.375, 0.375); the h/8 shift clears the lattice, and the shift note is
    all that reaches stderr (a warning anywhere else fails the test)."""
    cfg = write_cfg(
        tmp_path,
        "dimension = 2\nepsilon = 0.3\ngrid.n = 16\ngeometry.curve = spline\n"
        "geometry.points = 0.5, 0; 0, 0.5; -0.5, 0; 0, -0.5\n"
        "solver.dt = 1e-3\nsolver.t_final = 0.005\n",
    )
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("note: ")
    assert "translating by (h/8, h/8)" in err[0]


def test_cli_import_leaves_scipy_integrate_unloaded():
    """Import budget: only C01's quadrature cross-check needs scipy.integrate,
    so a fresh `import fracpm.cli` must not pay for loading it."""
    child_peak_mb("import sys, fracpm.cli\nassert 'scipy.integrate' not in sys.modules\n")


def main_call(command, cfg, out):
    """A line of child code that runs one command and asserts exit 0."""
    return f"assert main([{command!r}, '--config', {cfg!r}, '--out', {str(out)!r}]) == 0\n"


NO_SCIPY = (
    "loaded = [m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')]\n"
    "assert not loaded, loaded\n"
)


def test_cli_import_loads_no_fit_or_quadrature_modules():
    """Start-up import guard: every process pays its module-level imports
    in set-up time and peak memory. The fits, special functions and FFTs
    are numpy only; scipy and mpmath serve only the commands and checks
    that import them where they are used."""
    child_peak_mb("import sys, fracpm.cli\n" + NO_SCIPY)


def test_2d_fracfield_and_evolve_load_no_scipy(tmp_path):
    """The 2D commands and 1D semi-implicit stepping (its FD preconditioner
    is `linearop.ring_solver`) are numpy only."""
    fracfield = write_cfg(tmp_path, BASE_2D, "fracfield.cfg")
    evolve = write_cfg(
        tmp_path,
        BASE_2D + "perturbation.kind = noise\nsolver.dt = 1e-4\nsolver.t_final = 3e-4\n",
        "evolve.cfg",
    )
    evolve_1d = write_cfg(
        tmp_path,
        BASE_1D + "perturbation.kind = noise\nsolver.dt = 1e-3\nsolver.t_final = 3e-3\n",
        "evolve_1d.cfg",
    )
    child_peak_mb(
        "import sys\nfrom fracpm.cli import main\n"
        + main_call("fracfield", fracfield, tmp_path / "f")
        + main_call("evolve", evolve, tmp_path / "e")
        + main_call("evolve", evolve_1d, tmp_path / "e1")
        + NO_SCIPY
    )


def test_criterion_clock_starts_after_the_scipy_imports():
    """A criterion's runtime_s is its own work: in a fresh process the
    suite's scipy modules are loaded before the first criterion starts."""
    child_peak_mb(
        "import sys\nfrom fracpm import verify\n"
        "MODULES = ('scipy.integrate', 'scipy.linalg', 'scipy.sparse.linalg')\n"
        "def probe():\n"
        "    return all(m in sys.modules for m in MODULES), {}\n"
        "verify.CRITERIA = (('C00', 'probe', 'verify', probe),)\n"
        "assert verify.run_criterion('C00')['passed']\n"
    )


@pytest.mark.parametrize(
    "command, text, setup",
    [("spectrum", BASE_1D.replace("256", "64"), "fracpm.linearop:face_alpha")],
    ids=("spectrum",),
)
def test_1d_scipy_loads_by_the_end_of_set_up(tmp_path, command, text, setup):
    """The eigensolve loads scipy before the set-up call returns, so the
    import is not timed as part of the solve."""
    cfg = write_cfg(tmp_path, text)
    module, name = setup.split(":")
    child_peak_mb(
        "import sys, importlib\nfrom fracpm.cli import main\n"
        f"mod = importlib.import_module({module!r})\n"
        f"inner, seen = getattr(mod, {name!r}), []\n"
        "def probe(*a, **k):\n"
        "    out = inner(*a, **k)\n"
        "    seen.append('scipy.sparse.linalg' in sys.modules)\n"
        "    return out\n"
        f"setattr(mod, {name!r}, probe)\n"
        + main_call(command, cfg, tmp_path / "o")
        + "assert seen and seen[0], seen\n"
    )


@pytest.mark.parametrize(
    "command, text, named",
    [
        ("evolve", BASE_1D + "solver.dt = nan\n", "dt"),
        ("evolve", BASE_1D + "solver.t_final = inf\n", "t_final"),
        ("evolve", BASE_1D + "perturbation.amplitude = nan\n", "amplitude"),
        ("fracfield", BASE_2D + "geometry.center = 0\n", "center"),
        ("fracfield", BASE_2D + "geometry.radius = nan\n", "radius"),
        ("fracfield", BASE_1D + "geometry.values = inf, 0.0\n", "geometry.values"),
        ("fracfield", BASE_2D + "probes.angle = nan\n", "probes.angle"),
        ("fracfield", BASE_2D + "probes.d_max = inf\n", "probes.d_max"),
    ],
    ids=("dt", "t_final", "amplitude", "center", "radius", "values", "angle", "d_max"),
)
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command, text, named):
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_1D + "grid.spacing = 0.1\n")
    assert main(["fracfield", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "grid.spacing" in err


@pytest.mark.parametrize("command", ("fracfield", "evolve", "spectrum"))
def test_grid_above_the_node_ceiling_exits_2_at_once(tmp_path, capsys, command):
    """10^10 nodes would exhaust memory; the grid is refused before any
    per-node array exists."""
    cfg = write_cfg(tmp_path, BASE_2D.replace("grid.n = 16", "grid.n = 100000"))
    start = time.perf_counter()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1.0
    assert "node ceiling" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,named",
    [
        (BASE_1D + "solver.t_final = 10\nsolver.dt = 1e-6\n", "step ceiling"),
        (BASE_1D + "solver.max_linear_iter = 100000000\n", "solver.max_linear_iter"),
        (
            BASE_2D.replace("grid.n = 16", "grid.n = 2048")
            + "solver.t_final = 0.1\nsolver.snapshot_stride = 1\n",
            "snapshot values",
        ),
    ],
    ids=("steps", "linear-iterations", "snapshots"),
)
def test_evolve_above_the_work_ceilings_exits_2_at_once(tmp_path, capsys, text, named):
    """10^7 steps, a cap of 10^8 CG iterations per solve, or 1001 snapshots
    of 2048^2 nodes (34 GB), are refused before the singular field or any
    snapshot is computed."""
    cfg = write_cfg(tmp_path, text)
    start = time.perf_counter()
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1.0
    assert named in capsys.readouterr().err


# a circle or spline knot outside the box: one torus curve seen from an
# image the quadrature never visits (a wrong field), 21M bisected curve points
# (a MemoryError), and a distance that overflows into "on the curve"
OUT_OF_BOX = (
    ("geometry.center = 4.1, 0\ngeometry.radius = 0.4\n", "geometry.center"),
    ("geometry.curve = spline\ngeometry.points = 1e300,1; -1,0.5; 0,0.3; -1,0\n",
     "geometry.points"),
    ("geometry.center = 1e300, 0\n", "geometry.center"),
)


@pytest.mark.parametrize("text, named", OUT_OF_BOX,
                         ids=("shifted-circle", "huge-knot", "huge-center"))
def test_curve_outside_the_box_exits_2_naming_the_key(tmp_path, capsys, text, named):
    cfg = write_cfg(tmp_path, BASE_2D.replace("epsilon = 0.7", "epsilon = 0.3") + text)
    assert main(["fracfield", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert named in err and "[-1, 1]" in err and "on the curve" not in err


def test_missing_config_flag_exits_2(capsys):
    assert main(["fracfield"]) == 2
    assert "requires --config" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["-1", "10000000000"])
def test_probe_count_outside_its_range_exits_2_at_once(tmp_path, capsys, count):
    cfg = write_cfg(tmp_path, BASE_2D + f"probes.count = {count}\n")
    start = time.perf_counter()
    assert main(["fracfield", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1.0
    assert "probes.count must lie in [1, 4096]" in capsys.readouterr().err


def test_probe_count_below_eight_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_1D + "probes.count = 7\n")
    assert main(["fracfield", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "needs >= 8 usable samples" in capsys.readouterr().err


def test_sign_check_above_its_difference_window_exits_2_before_writing(tmp_path, capsys):
    """[0.02, 3] is a valid two-decade probe window, but it leaves the sign
    check's second differences on [max(d_min, 1e-3), 1e-2] empty."""
    cfg = write_cfg(
        tmp_path,
        BASE_1D + "probes.d_min = 0.02\nprobes.d_max = 3.0\nprobes.sign_check = true\n",
    )
    out = tmp_path / "o"
    out.mkdir()
    assert main(["fracfield", "--config", cfg, "--out", str(out)]) == 2
    assert "probes.sign_check needs probes.d_min < 0.01" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "base, d_max, reach",
    [(BASE_1D.replace("256", "64"), 1.9, "0.1"), (BASE_2D, 0.8, "0.418")],
    ids=("1d", "2d"),
)
def test_probe_beyond_the_jump_set_exits_2_before_writing(tmp_path, capsys, base, d_max, reach):
    """Past the next jump (1D) or across the box (2D) the outermost probe is
    not at distance d_max from the jump set, so the fits would read a false
    d; the run exits 2 and names probes.d_max. A window inside it runs."""
    window = "probes.d_min = 1e-3\nprobes.d_max = {}\n"
    out = tmp_path / "o"
    out.mkdir()
    cfg = write_cfg(tmp_path, base + window.format(d_max))
    assert main(["fracfield", "--config", cfg, "--out", str(out)]) == 2
    assert f"probes.d_max: the outermost probe lies {reach}, not " in capsys.readouterr().err
    assert not any(out.iterdir())
    inside = write_cfg(tmp_path, base + window.format(0.4), "in.cfg")
    assert main(["fracfield", "--config", inside, "--out", str(tmp_path / "in")]) == 0


def test_excluded_epsilon_exits_3(tmp_path):
    cfg = write_cfg(
        tmp_path,
        BASE_1D.replace("epsilon = 0.7", "epsilon = 0.5")
        + "probes.sign_check = true\n",
    )
    assert main(["fracfield", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_blow_up_exits_4_with_diagnostics(tmp_path, monkeypatch):
    # force a negative diffusion coefficient so the sup norm actually grows;
    # dt respects the explicit stability guard so only the detector can stop it
    monkeypatch.setattr(
        fracpm.evolution,
        "diffusion_coefficient",
        lambda grid, p, S, c: (-np.ones(grid.shape), 0.0),
    )
    h = 2.0 / 256
    cfg = write_cfg(
        tmp_path,
        BASE_1D
        + "perturbation.kind = sine\nperturbation.amplitude = 0.1\n"
        + f"solver.scheme = explicit\nsolver.dt = {h * h / 2.0:.17g}\n"
        + "solver.t_final = 0.01\n",
    )
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 4

    report = json.loads((out / "evolve_report.json").read_text())
    assert report["status"].startswith("blow-up")
    assert report["cg_iterations"] == {"total": 0, "mean": 0.0, "max": 0}
    assert (out / "series.csv").exists()
    last, header = fieldio.read_field(str(out / "w_last_good.field"))
    assert np.all(np.isfinite(last.values))
    assert header["n"] == 256


def test_unresolved_component_exits_5(tmp_path, capsys):
    # the sliver between two nearly equal jumps holds no grid node, so its
    # indicator column is zero and deflation must refuse
    cfg = write_cfg(
        tmp_path,
        "dimension = 1\nepsilon = 0.7\ngrid.n = 256\n"
        "geometry.jumps = -0.5, -0.499999999, 0.5\n"
        "geometry.values = 0.0, 1.0, 0.0\n",
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 5
    assert "not resolved" in capsys.readouterr().err


def test_jumps_that_coincide_once_shifted_exit_2_naming_the_key(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "dimension = 1\nepsilon = 0.7\ngrid.n = 64\n"
        "geometry.jumps = 0.0, 7.1e-54\ngeometry.values = 1.0, 0.0\n",
    )
    assert main(["fracfield", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "geometry.jumps" in err and "coincide" in err
    assert "strictly increasing" not in err


@pytest.mark.parametrize(
    "jumps,values,message",
    [
        # four one-node arcs deflate the whole space: no gap is left
        ("-0.9, -0.4, 0.1, 0.6", "1, 0, 1, 0", "no eigenvalue is left"),
        # five arcs on four nodes: one of them holds no node
        ("-0.9, -0.4, 0.1, 0.6, 0.7", "1, 0, 1, 0, 1", "not resolved"),
    ],
)
def test_deflating_every_node_exits_5(tmp_path, capsys, jumps, values, message):
    cfg = write_cfg(
        tmp_path,
        "dimension = 1\nepsilon = 0.7\ngrid.n = 4\n"
        f"geometry.jumps = {jumps}\ngeometry.values = {values}\n",
    )
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 5
    assert message in capsys.readouterr().err
    assert not (out / "eigenvalues.csv").exists()
    assert not (out / "spectrum_report.json").exists()


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert len(lines) == 10
    ids = [ln.split()[0] for ln in lines]
    assert ids == [f"C{i:02d}" for i in range(1, 11)]
    for ln in lines:
        cmd = ln.split("[", 1)[1].split("]", 1)[0]
        assert cmd in ("fracfield", "evolve", "spectrum")



@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("command", ["fracfield", "evolve", "spectrum"])
def test_every_command_reruns_byte_identically(tmp_path, command, dim):
    """Same config and seed, same bytes: every file of every command, in 1D
    (n = 64) and 2D (n = 16, circle), evolve with five noise steps."""
    base = BASE_1D.replace("grid.n = 256", "grid.n = 64") if dim == 1 else BASE_2D
    cfg = write_cfg(
        tmp_path,
        base + "perturbation.kind = noise\nseed = 5\nsolver.dt = 1e-3\n"
        "solver.t_final = 0.005\nsolver.snapshot_stride = 2\n",
    )
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names and names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
