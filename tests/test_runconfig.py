import pytest

from fracpm.errors import ConfigError, ExcludedParameterError
from fracpm.geometry import JumpSet1D, JumpSet2D
from fracpm.runconfig import load_config, parse_config_text

MINIMAL = "dimension = 1\nepsilon = 0.7\n"


def test_minimal_config_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.dimension == 1 and cfg.epsilon == 0.7
    assert cfg.grid_n == 512  # 1D default resolves at parse
    grid = cfg.build_grid()
    assert grid.n == 512 and grid.dim == 1
    assert cfg.delta == 0.1
    assert cfg.perturbation_kind == "sine"
    assert cfg.solver.scheme == "semi_implicit"
    assert cfg.seed == 0


def test_default_grid_depends_on_dimension():
    cfg = parse_config_text("dimension = 2\nepsilon = 0.3\n")
    assert cfg.build_grid().n == 128


def test_comments_blanks_and_case():
    text = """
    # a comment
    DIMENSION = 1

    Epsilon = 0.25
    grid.n = 256
    """
    cfg = parse_config_text(text)
    assert cfg.epsilon == 0.25 and cfg.grid_n == 256


def test_unknown_keys_are_listed():
    with pytest.raises(ConfigError) as info:
        parse_config_text(MINIMAL + "grid.m = 3\nsolvr.dt = 0.1\n")
    msg = str(info.value)
    assert "grid.m" in msg and "solvr.dt" in msg


def test_missing_required_key():
    with pytest.raises(ConfigError):
        parse_config_text("dimension = 1\n")


def test_malformed_line():
    with pytest.raises(ConfigError):
        parse_config_text("dimension 1\n")


@pytest.mark.parametrize(
    "line",
    [
        "epsilon = 1.5",
        "dimension = 3",
        "geometry.delta = 0",
        "perturbation.kind = sawtooth",
        "probes.d_min = 0",
        "probes.d_min = 1e-13",
        "epsilon = 5e-324",
        "solver.dt = -0.1",
        "solver.scheme = leapfrog",
        "perturbation.taper = maybe",
    ],
)
def test_invalid_values_rejected(line):
    base = "dimension = 1\nepsilon = 0.7\n"
    with pytest.raises(ConfigError):
        parse_config_text(base + line + "\n")


def test_bad_grid_size_rejected_at_build():
    # parse keeps grid.n opaque; PeriodicGrid owns the even/>=4 contract
    cfg = parse_config_text("dimension = 1\nepsilon = 0.7\ngrid.n = -4\n")
    with pytest.raises(ConfigError):
        cfg.build_grid()


def test_grid_node_ceiling():
    assert parse_config_text(MINIMAL + f"grid.n = {2**22}\n").build_grid().n == 2**22
    cfg = parse_config_text("dimension = 2\nepsilon = 0.7\ngrid.n = 2050\n")
    with pytest.raises(ConfigError, match="node ceiling"):
        cfg.build_grid()


def test_excluded_epsilon_surfaces_at_build():
    cfg = parse_config_text("dimension = 1\nepsilon = 0.5\n")
    cfg.build_params()  # fine when the caller tolerates the excluded value
    with pytest.raises(ExcludedParameterError):
        cfg.build_params(forbid_half=True)


def test_jump_geometry_build_sorts_positions():
    cfg = parse_config_text(
        "dimension = 1\nepsilon = 0.7\n"
        "geometry.jumps = 0.5, -0.5\ngeometry.values = 1.0, 0.0\n"
    )
    geom = cfg.build_geometry()
    assert isinstance(geom, JumpSet1D)
    assert list(geom.positions) == [-0.5, 0.5]


def test_circle_geometry_build():
    cfg = parse_config_text(
        "dimension = 2\nepsilon = 0.3\n"
        "geometry.radius = 0.4\ngeometry.center = 0.1, -0.2\n"
        "geometry.inside = 2.0\ngeometry.outside = -1.0\n"
    )
    geom = cfg.build_geometry()
    assert isinstance(geom, JumpSet2D)
    assert geom.jump == 3.0
    assert abs(geom.curve.radius - 0.4) < 1e-15


def test_spline_geometry_requires_enough_points():
    head = "dimension = 2\nepsilon = 0.3\ngeometry.curve = spline\n"
    with pytest.raises(ConfigError):
        parse_config_text(head + "geometry.points = 0,0; 0.5,0; 0,0.5\n").build_geometry()
    ok = parse_config_text(
        head + "geometry.points = 0.5,0; 0,0.5; -0.5,0; 0,-0.5\n"
    ).build_geometry()
    assert ok.component_count() == 2


def test_solver_keys_flow_through():
    cfg = parse_config_text(
        MINIMAL + "solver.dt = 0.002\nsolver.t_final = 0.1\nsolver.scheme = explicit\n"
        "solver.snapshot_stride = 5\n"
    )
    assert cfg.solver.dt == 0.002
    assert cfg.solver.scheme == "explicit"
    assert cfg.solver.snapshot_stride == 5


def test_probe_window_ordering_enforced():
    # parse only guards 1e-12 <= d_min < d_max; the two-decade span rule is
    # checked where the fit happens, not here
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "probes.d_min = 0.01\nprobes.d_max = 0.001\n")
    cfg = parse_config_text(MINIMAL + "probes.d_min = 1e-3\nprobes.d_max = 5e-3\n")
    assert cfg.probe_window() == (1e-3, 5e-3, cfg.probes_count)


@pytest.mark.parametrize("count", ["0", "-1", "4097", "10000000000"])
def test_probe_count_outside_its_range_rejected(count):
    """np.geomspace would raise on a negative count and allocate 80 GB for
    10^10 probes; both are refused at parse."""
    with pytest.raises(ConfigError, match=r"probes\.count must lie in \[1, 4096\]"):
        parse_config_text(MINIMAL + f"probes.count = {count}\n")


@pytest.mark.parametrize("count", [1, 4096])
def test_probe_count_range_ends_accepted(count):
    assert parse_config_text(MINIMAL + f"probes.count = {count}\n").probes_count == count


def test_sign_check_needs_d_min_below_its_difference_window():
    """A valid two-decade window above 1e-2 leaves the sign check's second
    differences on [max(d_min, 1e-3), 1e-2] nothing to sample."""
    window = "probes.d_min = 0.02\nprobes.d_max = 3.0\n"
    assert parse_config_text(MINIMAL + window).probes_d_min == 0.02
    with pytest.raises(ConfigError, match=r"probes\.sign_check needs probes\.d_min < 0\.01"):
        parse_config_text(MINIMAL + window + "probes.sign_check = true\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.cfg"))


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL + "seed = 7\noutput = results\n")
    cfg = load_config(str(path))
    assert cfg.seed == 7 and cfg.output == "results"
    assert cfg == parse_config_text(path.read_text())


def test_stepping_work_ceilings(tmp_path):
    """round(t_final / dt) <= 10**6 is checked at parse. The snapshot store,
    (steps // stride + 1) * n**dim <= 2**27 floats, needs the grid, so
    `SolverConfig.validate` checks it; `fracpm evolve` calls that first."""
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL + "solver.t_final = 10\nsolver.dt = 1e-6\n")
    with pytest.raises(ConfigError, match="step ceiling"):
        load_config(str(path))
    at_ceiling = parse_config_text(
        MINIMAL + "solver.t_final = 100\nsolver.dt = 1e-4\nsolver.snapshot_stride = 1000\n"
    )
    at_ceiling.solver.validate(at_ceiling.build_grid())

    path.write_text(
        "dimension = 2\nepsilon = 0.7\ngrid.n = 2048\n"
        "solver.t_final = 0.1\nsolver.dt = 1e-4\nsolver.snapshot_stride = 1\n"
    )
    cfg = load_config(str(path))
    with pytest.raises(ConfigError, match="snapshot"):
        cfg.solver.validate(cfg.build_grid())
    cfg.solver.snapshot_stride = 1000  # two snapshots of 2048^2 fit
    cfg.solver.validate(cfg.build_grid())
