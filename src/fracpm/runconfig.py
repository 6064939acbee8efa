"""Run configuration: a flat key = value text format with dotted sections.

Example::

    dimension = 1
    epsilon = 0.7
    grid.n = 512
    perturbation.kind = sine
    solver.dt = 1e-4

Everything has a default except `dimension` and `epsilon`. Unknown keys
are rejected rather than ignored, so a typo cannot silently fall back to
a default. Values are plain scalars; the only structured values are
comma-separated number lists (jump positions, curve centers) and the
semicolon-separated point list for spline curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .evolution import SolverConfig
from .geometry import COLLISION_TOL
from .grid import FracParams, PeriodicGrid
from .oracles import SIGN_WINDOW


MAX_PROBES = 4096  # probes.count ceiling


def _as_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}")


def _as_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}")
    if not np.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def _as_bool(key, raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _as_floats(key, raw):
    return tuple(_as_float(key, tok) for tok in raw.split(",") if tok.strip())


def _as_points(key, raw):
    pts = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        pair = _as_floats(key, chunk)
        if len(pair) != 2:
            raise ConfigError(f"{key}: each point needs two coordinates")
        pts.append(pair)
    return tuple(pts)


@dataclass
class RunConfig:
    dimension: int
    epsilon: float
    seed: int = 0
    output: str = "out"
    grid_n: int = 0  # 0 = dimension-dependent default
    delta: float = 0.1
    jumps: tuple = (-0.5, 0.5)
    jump_values: tuple = (1.0, 0.0)
    curve: str = "circle"
    center: tuple = (0.0, 0.0)
    radius: float = 0.5
    spline_points: tuple = ()
    inside: float = 1.0
    outside: float = 0.0
    perturbation_kind: str = "sine"
    perturbation_amplitude: float = 1e-3
    perturbation_taper: bool = True
    perturbation_file: str = ""
    solver: SolverConfig = field(default_factory=SolverConfig)
    probes_d_min: float = 1e-4
    probes_d_max: float = 1e-2
    probes_count: int = 32
    probes_angle: float = 0.37
    sign_check: bool = False

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ConfigError("dimension must be 1 or 2")
        FracParams(self.epsilon)  # epsilon's range
        if self.grid_n == 0:
            self.grid_n = 512 if self.dimension == 1 else 128
        if self.perturbation_kind not in ("sine", "mode", "noise", "none", "file"):
            raise ConfigError(
                f"unknown perturbation kind {self.perturbation_kind!r}"
            )
        if self.perturbation_kind == "file" and not self.perturbation_file:
            raise ConfigError("perturbation.kind = file needs perturbation.file")
        if self.curve not in ("circle", "spline"):
            raise ConfigError(f"unknown curve kind {self.curve!r}")
        if len(self.jumps) != len(self.jump_values):
            raise ConfigError("geometry.jumps and geometry.values lengths differ")
        if not self.delta > 0:
            raise ConfigError("geometry.delta must be positive")
        if len(self.center) != 2:
            raise ConfigError("geometry.center needs two numbers")
        # the short-range quadrature's images reach a curve drawn in the box
        for key, pts in (("geometry.center", [self.center]),
                         ("geometry.points", self.spline_points)):
            if any(abs(c) > 1.0 for pt in pts for c in pt):
                raise ConfigError(f"{key}: coordinates must lie in [-1, 1], the periodic box")
        if not (COLLISION_TOL <= self.probes_d_min < self.probes_d_max):
            # closer than COLLISION_TOL counts as on the jump set
            raise ConfigError(f"probe window must satisfy {COLLISION_TOL:g} <= d_min < d_max")
        if not (1 <= self.probes_count <= MAX_PROBES):
            raise ConfigError(f"probes.count must lie in [1, {MAX_PROBES}]")
        if self.sign_check and self.probes_d_min >= SIGN_WINDOW[1]:
            raise ConfigError(
                f"probes.sign_check needs probes.d_min < {SIGN_WINDOW[1]:g}, the top"
                " of its second-difference window"
            )
        self.solver.validate_static()

    # -- builders ---------------------------------------------------------

    def build_grid(self) -> PeriodicGrid:
        return PeriodicGrid(self.dimension, self.grid_n)

    def build_params(self, forbid_half: bool = False) -> FracParams:
        return FracParams(self.epsilon, forbid_half=forbid_half)

    def build_geometry(self):
        from .curves import Circle, SplineCurve
        from .geometry import JumpSet1D, JumpSet2D

        if self.dimension == 1:
            order = np.argsort(self.jumps)
            return JumpSet1D(
                tuple(self.jumps[i] for i in order),
                tuple(self.jump_values[i] for i in order),
            )
        if self.curve == "circle":
            base = Circle(self.center, self.radius)
        else:
            if len(self.spline_points) < 4:
                raise ConfigError("a spline curve needs at least 4 points")
            base = SplineCurve(self.spline_points)
        return JumpSet2D(base, inside=self.inside, outside=self.outside)

    def probe_window(self):
        return self.probes_d_min, self.probes_d_max, self.probes_count


_SCALAR_KEYS = {
    "dimension": ("dimension", _as_int),
    "epsilon": ("epsilon", _as_float),
    "seed": ("seed", _as_int),
    "output": ("output", str),
    "grid.n": ("grid_n", _as_int),
    "geometry.delta": ("delta", _as_float),
    "geometry.jumps": ("jumps", _as_floats),
    "geometry.values": ("jump_values", _as_floats),
    "geometry.curve": ("curve", str),
    "geometry.center": ("center", _as_floats),
    "geometry.radius": ("radius", _as_float),
    "geometry.points": ("spline_points", _as_points),
    "geometry.inside": ("inside", _as_float),
    "geometry.outside": ("outside", _as_float),
    "perturbation.kind": ("perturbation_kind", str),
    "perturbation.amplitude": ("perturbation_amplitude", _as_float),
    "perturbation.taper": ("perturbation_taper", _as_bool),
    "perturbation.file": ("perturbation_file", str),
    "probes.d_min": ("probes_d_min", _as_float),
    "probes.d_max": ("probes_d_max", _as_float),
    "probes.count": ("probes_count", _as_int),
    "probes.angle": ("probes_angle", _as_float),
    "probes.sign_check": ("sign_check", _as_bool),
}

_SOLVER_KEYS = {
    "solver.dt": ("dt", _as_float),
    "solver.t_final": ("t_final", _as_float),
    "solver.scheme": ("scheme", str),
    "solver.tolerance": ("tolerance", _as_float),
    "solver.max_linear_iter": ("max_linear_iter", _as_int),
    "solver.snapshot_stride": ("snapshot_stride", _as_int),
}


def parse_config_text(text: str) -> RunConfig:
    """Parse the flat key = value format; reject unknown keys."""
    scalars = {}
    solver_kw = {}
    unknown = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip().lower()
        raw = raw.strip()
        if key in _SCALAR_KEYS:
            attr, conv = _SCALAR_KEYS[key]
            if conv is str:
                scalars[attr] = raw
            else:
                scalars[attr] = conv(key, raw)
        elif key in _SOLVER_KEYS:
            attr, conv = _SOLVER_KEYS[key]
            solver_kw[attr] = raw if conv is str else conv(key, raw)
        else:
            unknown.append(f"line {lineno}: {key}")
    if unknown:
        raise ConfigError("unknown configuration keys: " + "; ".join(unknown))
    for required in ("dimension", "epsilon"):
        if required not in scalars:
            raise ConfigError(f"missing required key {required}")
    try:
        solver = SolverConfig(**solver_kw)
    except TypeError as exc:
        raise ConfigError(f"bad solver settings: {exc}")
    return RunConfig(solver=solver, **scalars)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
