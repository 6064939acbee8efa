"""Jump geometry on the periodic box: the jump sets, distances, weights.

A jump set is the one geometry that `ensure_offgrid`, `evolution.evolve`,
`linearop.face_alpha`, `linearop.component_indicators` and the `oracles`
take. `JumpSet1D` (jump points) and `JumpSet2D` (a closed curve from
`curves` with its two step values) share one interface; points go in as
one array per axis:

* label(*axes): the component of the complement of the jump set holding
  each point, 0 <= label < component_count();
* values: one step value per component, so indicator(*axes) is
  values[label] and component_count() is len(values);
* distance(*axes) and shifted(*offsets), one offset per axis;
* outward_point(d, angle): points shaped (..., dim), the shape the oracles
  take, at distance d outside the jump set (angle picks the ray in 2D and
  is unused in 1D).

This module also owns the dimension-agnostic pieces: the node/face
collision shift, the weight profile and every asymptotic fit (log-log
slope, power plus constant, exponential decay rate), all numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ExcludedParameterError
from .grid import PeriodicGrid


COLLISION_TOL = 1e-12  # how close to a node or face a jump set collides
MAX_FIELD_VALUE = 1e100  # |step or perturbation value| ceiling: fields and squares stay finite


def periodic_delta(x, a) -> np.ndarray:
    """Signed periodic difference x - a of the nearest image, in [-1, 1): the
    one wrap rule. fmod and the +-2 are exact, so this is the rounded x - a
    bit for bit whenever |x - a| < 1."""
    r = np.fmod(np.asarray(x, dtype=float) - a, 2.0)
    return np.where(r >= 1.0, r - 2.0, np.where(r < -1.0, r + 2.0, r))


def check_values(what, values):
    """ConfigError unless every value lies within MAX_FIELD_VALUE (nan fails)."""
    if not np.all(np.abs(values) <= MAX_FIELD_VALUE):
        raise ConfigError(f"{what} must lie in [-{MAX_FIELD_VALUE:g}, {MAX_FIELD_VALUE:g}]")


class _JumpSet:
    """What every jump set derives from its `label` and `values`."""

    def indicator(self, *axes) -> np.ndarray:
        return np.asarray(self.values)[self.label(*axes)]

    def component_count(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class JumpSet1D(_JumpSet):
    """Sorted jump positions in [-1, 1) and the piecewise values between them.

    values[j] is the field value on [positions[j], positions[j+1]) with the
    last interval wrapping around the period; that interval is component j.
    """

    positions: tuple
    values: tuple

    def __post_init__(self):
        pos = tuple(float(p) for p in self.positions)
        if len(pos) < 2:
            raise ConfigError("a 1D jump set needs at least two jumps")
        if any(not (-1.0 <= p < 1.0) for p in pos):
            raise ConfigError("jump positions must lie in [-1, 1)")
        if list(pos) != sorted(pos) or len(set(pos)) != len(pos):
            raise ConfigError("jump positions must be strictly increasing")
        if len(self.values) != len(pos):
            raise ConfigError("need one interval value per jump position")
        check_values("step values", self.values)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @classmethod
    def symmetric_step(cls, inside=1.0, outside=0.0, half_width=0.5):
        return cls((-half_width, half_width), (inside, outside))

    def jump_sizes(self) -> np.ndarray:
        v = np.asarray(self.values)
        return v - np.roll(v, 1)

    def label(self, x) -> np.ndarray:
        idx = np.searchsorted(self.positions, periodic_delta(x, 0.0), side="right") - 1
        return np.where(idx < 0, len(self.positions) - 1, idx)

    def distance(self, x) -> np.ndarray:
        return np.min([np.abs(periodic_delta(x, a)) for a in self.positions], axis=0)

    def shifted(self, offset: float) -> "JumpSet1D":
        pos = tuple(float(periodic_delta(p + offset, 0.0)) for p in self.positions)
        if len(set(pos)) < len(pos):
            raise ConfigError("geometry.jumps: two jumps closer than round-off coincide"
                              f" once shifted by {offset:g}; merge them or move them apart")
        order = np.argsort(pos)
        return JumpSet1D(
            tuple(pos[i] for i in order), tuple(self.values[i] for i in order)
        )

    def outward_point(self, d, angle=0.0) -> np.ndarray:
        """Points d right of the last jump, shaped (..., 1); angle is unused."""
        return (self.positions[-1] + np.asarray(d, dtype=float))[..., None]


class JumpSet2D(_JumpSet):
    """A closed curve with the step values inside (component 0) and outside
    (component 1) it.

    The curve's fractional field is that of the unit step; the field of
    these values scales linearly with the jump inside - outside, which
    `oracles.step_field` reads off the `jump` attribute.
    """

    def __init__(self, curve, inside: float = 1.0, outside: float = 0.0):
        check_values("step values", (inside, outside))
        if inside == outside:
            raise ConfigError("step values must differ across the curve")
        self.curve = curve
        self.values = (float(inside), float(outside))

    @property
    def jump(self) -> float:
        return self.values[0] - self.values[1]

    def label(self, x, y) -> np.ndarray:
        return np.where(self.curve.signed_distance(x, y) < 0, 0, 1)

    def distance(self, x, y) -> np.ndarray:
        return self.curve.distance(x, y)

    def shifted(self, dx: float, dy: float) -> "JumpSet2D":
        return JumpSet2D(self.curve.shifted(dx, dy), *self.values)

    def outward_point(self, d, angle=0.0) -> np.ndarray:
        return self.curve.outward_point(d, angle=angle)


def ensure_offgrid(geom, grid: PeriodicGrid):
    """Shift a jump set off the node/face lattice if it collides.

    The singular field is evaluated at the nodes and at the face midpoints
    half a cell along each axis; a jump set within COLLISION_TOL of any of
    them is translated along every axis by the first of h/4, h/8 and 3h/8
    that clears them all (a ConfigError if none does). In 1D the nodes and
    faces tile the h/2 lattice (the default step at +-1/2 collides on every
    power-of-two grid) and h/4 lands on the h/4 sub-lattice, which can never
    collide. Returns (geometry, note): the shifted geometry and a message
    naming the shift, or the input and None when nothing collides.
    """
    nodes = grid.nodes()
    half = grid.h / 2.0
    faces = [tuple(x + half * e for x, e in zip(nodes, unit))
             for unit in np.eye(grid.dim)]

    def collides(g):
        return any(np.min(g.distance(*pts)) < COLLISION_TOL for pts in (nodes, *faces))

    if not collides(geom):
        return geom, None
    for name, frac in (("h/4", 0.25), ("h/8", 0.125), ("3h/8", 0.375)):
        q = frac * grid.h
        moved = geom.shifted(*[q] * grid.dim)
        if not collides(moved):
            shift = ", ".join([name] * grid.dim)
            return moved, (f"jump set touches the node/face lattice; translating by ({shift})"
                           f" = {q:g} per axis")
    raise ConfigError(
        "jump set touches the node/face lattice after each of the shifts"
        " h/4, h/8 and 3h/8 along every axis; move it or change grid.n"
    )


def weight_profile(d, delta: float) -> np.ndarray:
    """The cutoff weight: d below delta, 1 above 2*delta, C^3 blend between.

    The blend is the degree-7 Hermite interpolant matching value, first,
    second and third derivatives of both branches at d = delta and
    d = 2*delta (a quintic cannot satisfy all eight conditions), in closed
    form in s = (d - delta) / delta.
    """
    if delta <= 0:
        raise ConfigError("delta must be positive")
    d = np.asarray(d, dtype=float)
    s = (np.clip(d, delta, 2.0 * delta) - delta) / delta  # in [0, 1], even for a denormal delta
    blend = np.polynomial.polynomial.polyval(s, [
        delta, delta, 0.0, 0.0, 35.0 - 55.0 * delta, 129.0 * delta - 84.0,
        70.0 - 106.0 * delta, 30.0 * delta - 20.0])
    return np.where(d <= delta, d, np.where(d >= 2.0 * delta, 1.0, blend))


def probe_distances(d_min: float, d_max: float, count: int) -> np.ndarray:
    if not (0 < d_min < d_max):
        raise ConfigError("need 0 < d_min < d_max")
    return np.geomspace(d_min, d_max, count)


def _fit_samples(d, values, what):
    """Finite, nonzero samples as (d, |values|).

    Raises ExcludedParameterError unless at least 8 samples remain and they
    span at least two decades: a narrower fit is meaningless for the
    asymptotics it is used to certify.
    """
    d = np.asarray(d, dtype=float)
    y = np.asarray(values, dtype=float)
    keep = np.isfinite(y) & (np.abs(y) > 0) & (d > 0)
    d, y = d[keep], np.abs(y[keep])
    if d.size < 8:
        raise ExcludedParameterError(
            f"{what} needs >= 8 usable samples, got {d.size}"
        )
    span = d.max() / d.min()
    if span < 100.0 * (1.0 - 1e-9):
        raise ExcludedParameterError(
            f"{what} window must span >= 2 decades, got {span:.3g}x"
        )
    return d, y


def _line_fit(x, y):
    """Least-squares slope of y against x, and the r^2 of that line."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - float(np.sum(resid**2) / ss_tot) if ss_tot > 0 else 1.0
    return float(slope), r2


def exponent_fit(d, values):
    """Least-squares slope of log|values| against log d.

    Returns (slope, r_squared, n_used). Requires at least 8 retained samples
    spanning at least two decades, else ExcludedParameterError.
    """
    d, y = _fit_samples(d, values, "exponent fit")
    slope, r2 = _line_fit(np.log(d), np.log(y))
    return slope, r2, int(d.size)


def decay_rate_fit(times, norms):
    """Exponential decay rate of a norm history (positive = decaying): the
    line fit of log(norm) against t over every positive sample. Returns
    (rate, r2)."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(norms, dtype=float)
    keep = y > 0
    if np.count_nonzero(keep) < 4:
        raise ValueError("not enough samples for a decay fit")
    slope, r2 = _line_fit(t[keep], np.log(y[keep]))
    return -slope, r2


def power_constant_fit(d, values):
    """Fit |values| = a * d^s + c: a leading power plus a constant.

    A singular field a d^s + c + o(1) has a pure log-log slope that drifts
    away from s as |c| / (a d^s) grows across the window; this model keeps
    the constant and returns the leading exponent itself. Variable
    projection: for each s the pair (a, c) is the linear least-squares
    solution in relative residuals (each sample weighted by 1/|value|), and
    s minimises that residual, first on a 0.05 grid over [-3, 3] and then
    on nested grids of 21 nodes spanning one spacing either side of the
    best node, 10x finer per pass, until the spacing is below 1e-10.

    Returns (slope, amplitude, constant, rel_rms, n_used), rel_rms being the
    root-mean-square relative residual. The sample guards are those of
    exponent_fit.
    """
    d, y = _fit_samples(d, values, "power-plus-constant fit")
    d_ref = np.sqrt(d.min() * d.max())  # keeps the d^s column well scaled
    x = d / d_ref
    # the relative fit is scale-free: a power-of-two scale, exact, keeps 1/y
    # finite for a field of subnormal size
    y_ref = 2.0 ** np.round(np.log2(y.max()))
    y = y / y_ref
    ones = np.ones_like(y)

    def solve(s):
        basis = np.stack([x**s, ones], axis=1) / y[:, None]
        coef = np.linalg.lstsq(basis, ones, rcond=None)[0]
        resid = basis @ coef - ones
        return coef, float(resid @ resid)

    step, nodes = 0.05, np.linspace(-3.0, 3.0, 121)
    while step > 1e-11:  # passes at spacings 0.05, 0.005, ..., 5e-11
        s = float(nodes[np.argmin([solve(t)[1] for t in nodes])])
        step /= 10.0
        nodes = np.clip(s + step * np.arange(-10, 11), -3.0, 3.0)
    (a_ref, c), ssr = solve(s)
    return (
        s,
        float(a_ref * d_ref ** (-s) * y_ref),
        float(c * y_ref),
        float(np.sqrt(ssr / y.size)),
        int(y.size),
    )
