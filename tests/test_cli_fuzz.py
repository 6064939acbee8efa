"""Grammar fuzz of the command line: every config ends in a documented exit.

Hypothesis writes tiny configs (1D n <= 64, 2D n <= 16, at most 20 steps,
circles and splines) whose numbers mix ordinary values with extreme finite
ones and coordinates outside the box, and runs each in-process through
`cli.main`. Whatever the config, the run must return 0, 2, 3, 4 or 5 without
raising, warn through nothing but its `note:` lines, and print one `error:`
line when it fails. The pinned examples are configs that once ended in a
wrong field, a MemoryError, a misleading message, a traceback or a raw
RuntimeWarning.
"""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracpm.cli import main

EXTREME = (0.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308)


def number(lo, hi, **bounds):
    """A float in [lo, hi], or one time in ten an extreme finite one."""
    return st.integers(0, 9).flatmap(
        lambda i: st.sampled_from(EXTREME) if i == 0 else st.floats(lo, hi, **bounds))


def numbers(lo, hi, count):
    return st.lists(number(lo, hi), min_size=count, max_size=count).map(
        lambda xs: ", ".join(repr(x) for x in xs))


def sometimes(values):
    """values one time in four, else None (the key keeps its default)."""
    return st.integers(0, 3).flatmap(lambda i: values if i == 0 else st.none())


@st.composite
def configs(draw):
    """(command, config text) of a tiny run."""
    dim = draw(st.sampled_from((1, 2)))
    keys = {
        "dimension": str(dim),
        "epsilon": repr(draw(number(0.0, 1.0, exclude_min=True, exclude_max=True))),
        "grid.n": str(2 * draw(st.integers(1, 32 if dim == 1 else 8))),
    }
    if dim == 1:
        count = draw(st.integers(2, 4))
        keys["geometry.jumps"] = draw(numbers(-1.0, 1.0, count))
        keys["geometry.values"] = draw(numbers(-2.0, 2.0, count))
    elif draw(st.booleans()):
        keys["geometry.center"] = draw(numbers(-1.0, 1.0, 2))
        keys["geometry.radius"] = repr(draw(number(0.0, 1.0)))
    else:
        keys["geometry.curve"] = "spline"
        points = draw(st.lists(numbers(-1.0, 1.0, 2), min_size=3, max_size=6))
        keys["geometry.points"] = "; ".join(points)
    steps = draw(st.integers(1, 20))
    dt = draw(number(1e-6, 1e-2))
    optional = {
        "geometry.inside": number(-2.0, 2.0).map(repr),
        "geometry.outside": number(-2.0, 2.0).map(repr),
        "geometry.delta": number(0.0, 1.0).map(repr),
        "perturbation.kind": st.sampled_from(("sine", "mode", "noise", "none")),
        "perturbation.amplitude": number(-1.0, 1.0).map(repr),
        "perturbation.taper": st.sampled_from(("true", "false")),
        "seed": st.integers(-2, 100).map(str),
        "solver.scheme": st.sampled_from(("semi_implicit", "explicit")),
        "solver.tolerance": number(1e-14, 1e-6).map(repr),
        "solver.max_linear_iter": st.integers(1, 500).map(str),
        "solver.snapshot_stride": st.integers(1, 25).map(str),
        "probes.d_min": number(1e-8, 1e-1).map(repr),
        "probes.d_max": number(1e-6, 1.0).map(repr),
        "probes.count": st.integers(1, 40).map(str),
        "probes.angle": number(-7.0, 7.0).map(repr),
        "probes.sign_check": st.sampled_from(("true", "false")),
    }
    for key, values in optional.items():
        value = draw(sometimes(values))
        if value is not None:
            keys[key] = value
    keys["solver.dt"] = repr(dt)
    keys["solver.t_final"] = repr(steps * dt)
    text = "".join(f"{key} = {value}\n" for key, value in keys.items())
    return draw(st.sampled_from(("fracfield", "evolve", "spectrum"))), text


def run(command, text):
    """Exit code and stderr lines of one in-process run; each warning that
    escapes the command counts as a line of its own."""
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main([command, "--config", path, "--out", os.path.join(tmp, "out")])
    return code, stderr.getvalue().splitlines() + [f"warning: {w.message}" for w in caught]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=configs())
@example(case=("fracfield", "dimension = 2\nepsilon = 0.3\ngrid.n = 16\n"
               "geometry.center = 4.1, 0\ngeometry.radius = 0.4\n"))
@example(case=("fracfield", "dimension = 2\nepsilon = 0.3\ngrid.n = 6\ngeometry.curve = spline\n"
               "geometry.points = 1e300,1; -1,0.5; 0,0.3; -1,0\n"))
@example(case=("fracfield", "dimension = 2\nepsilon = 0.3\ngrid.n = 16\n"
               "geometry.center = 1e300, 0\n"))
@example(case=("spectrum", "dimension = 2\nepsilon = 0.3\ngrid.n = 8\n"
               "geometry.outside = 1e300\n"))
@example(case=("evolve", "dimension = 1\nepsilon = 5e-324\ngrid.n = 4\n"
               "solver.dt = 1e-3\nsolver.t_final = 1e-3\n"))
@example(case=("evolve", "dimension = 1\nepsilon = 0.3\ngrid.n = 4\ngeometry.delta = 5e-324\n"
               "solver.dt = 1e-3\nsolver.t_final = 1e-3\n"))
@example(case=("evolve", "dimension = 1\nepsilon = 0.5\ngrid.n = 4\nperturbation.amplitude = 1e300\n"
               "solver.dt = 1e-3\nsolver.t_final = 1e-3\n"))
@example(case=("fracfield", "dimension = 1\nepsilon = 0.5\ngrid.n = 4\n"
               "geometry.values = 0.0, 1.7976931348623157e+308\n"))
@example(case=("evolve", "dimension = 2\nepsilon = 0.5\ngrid.n = 4\n"
               "solver.dt = 1e300\nsolver.t_final = 1e300\n"))
@example(case=("fracfield", "dimension = 1\nepsilon = 0.5\ngrid.n = 4\n"
               "geometry.values = 0.0, 0.0\nprobes.d_max = 1e300\n"))
@example(case=("fracfield", "dimension = 2\nepsilon = 0.5\ngrid.n = 4\ngeometry.curve = spline\n"
               "geometry.points = 0.0, 0.0; 0.0, 0.0; 0.0, 0.0; 0.0, 0.0\n"))
@example(case=("fracfield", "dimension = 2\nepsilon = 0.75\ngrid.n = 4\n"
               "geometry.radius = 2.225073858507203e-309\ngeometry.inside = 0.0\n"
               "geometry.outside = 1.0\nprobes.d_max = 1.0\nprobes.sign_check = true\n"))
@example(case=("evolve", "dimension = 1\nepsilon = 0.3\ngrid.n = 512\nperturbation.kind = noise\n"
               "solver.dt = 2e-3\nsolver.t_final = 2e-3\nsolver.tolerance = 5e-324\n"
               "solver.max_linear_iter = 100000000\n"))
def test_every_config_ends_in_a_documented_exit(case):
    command, text = case
    code, lines = run(command, text)
    assert code in (0, 2, 3, 4, 5), (code, lines)
    others = [line for line in lines if not line.startswith("note: ")]
    if code == 0:
        assert others == [], lines
    else:
        assert others == lines[-1:] and others[0].startswith("error: "), lines
