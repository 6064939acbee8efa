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
collision shift, the weight profile and the exponent fits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ConfigError, ExcludedParameterError
from .grid import PeriodicGrid


def periodic_delta(x, a) -> np.ndarray:
    """Signed periodic difference x - a reduced to [-1, 1)."""
    return np.mod(np.asarray(x, dtype=float) - a + 1.0, 2.0) - 1.0


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
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @classmethod
    def symmetric_step(cls, inside=1.0, outside=0.0, half_width=0.5):
        return cls((-half_width, half_width), (inside, outside))

    def jump_sizes(self) -> np.ndarray:
        v = np.asarray(self.values)
        return v - np.roll(v, 1)

    def label(self, x) -> np.ndarray:
        x = np.mod(np.asarray(x, dtype=float) + 1.0, 2.0) - 1.0
        idx = np.searchsorted(self.positions, x, side="right") - 1
        return np.where(idx < 0, len(self.positions) - 1, idx)

    def distance(self, x) -> np.ndarray:
        d = np.min(
            [np.abs(periodic_delta(x, a)) for a in self.positions], axis=0
        )
        return d

    def shifted(self, offset: float) -> "JumpSet1D":
        pos = tuple(np.mod(p + offset + 1.0, 2.0) - 1.0 for p in self.positions)
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
        if not np.isfinite(inside) or not np.isfinite(outside):
            raise ConfigError("step values must be finite")
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


def ensure_offgrid(geom, grid: PeriodicGrid, tol: float = 1e-12):
    """Shift a jump set off the node/face lattice if it collides.

    The singular field is evaluated at the nodes and at the face midpoints
    half a cell along each axis; a jump set within tol of any of them is
    translated along every axis by the first of h/4, h/8 and 3h/8 that
    clears them all (a ConfigError if none does). In 1D the nodes and faces
    tile the h/2 lattice (the default step at +-1/2 collides on every
    power-of-two grid) and h/4 lands on the h/4 sub-lattice, which can never
    collide. Returns (possibly shifted geometry, shifted: bool) and warns
    on shift.
    """
    nodes = grid.nodes()
    half = grid.h / 2.0
    faces = [tuple(x + half * e for x, e in zip(nodes, unit))
             for unit in np.eye(grid.dim)]

    def collides(g):
        return any(np.min(g.distance(*pts)) < tol for pts in (nodes, *faces))

    if not collides(geom):
        return geom, False
    for name, frac in (("h/4", 0.25), ("h/8", 0.125), ("3h/8", 0.375)):
        q = frac * grid.h
        moved = geom.shifted(*[q] * grid.dim)
        if not collides(moved):
            shift = ", ".join([name] * grid.dim)
            warnings.warn(
                f"jump set touches the node/face lattice; translating by ({shift})"
                f" = {q:g} per axis",
                stacklevel=2,
            )
            return moved, True
    raise ConfigError(
        "jump set touches the node/face lattice after each of the shifts"
        " h/4, h/8 and 3h/8 along every axis; move it or change grid.n"
    )


def _hermite_blend_coeffs() -> np.ndarray:
    """Degree-7 two-point Hermite basis on s in [0,1].

    Solves for p with p(0)=p'(0)=..., matching value/slope/2nd/3rd derivative
    at both ends; returned as the coefficient matrix applied to the 8 end
    conditions. Computed once at import via a small linear solve.
    """
    rows = []
    for end in (0.0, 1.0):
        for der in range(4):
            row = np.zeros(8)
            for j in range(der, 8):
                row[j] = np.prod(np.arange(j, j - der, -1)) * end ** (j - der)
            rows.append(row)
    return np.linalg.inv(np.asarray(rows))


_BLEND = _hermite_blend_coeffs()


def weight_profile(d, delta: float) -> np.ndarray:
    """The cutoff weight: d below delta, 1 above 2*delta, C^3 blend between.

    The blend is the degree-7 Hermite interpolant matching value, first,
    second and third derivatives of both branches at d = delta and
    d = 2*delta (a quintic cannot satisfy all eight conditions).
    """
    if delta <= 0:
        raise ConfigError("delta must be positive")
    d = np.asarray(d, dtype=float)
    s = np.clip((d - delta) / delta, 0.0, 1.0)
    # end conditions: value delta, slope delta (d/ds = delta * d/dd), rest 0
    cond = np.array([delta, delta, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    coeffs = _BLEND @ cond
    blend = np.polynomial.polynomial.polyval(s, coeffs)
    return np.where(d <= delta, d, np.where(d >= 2.0 * delta, 1.0, blend))


def probe_distances(d_min: float, d_max: float, count: int) -> np.ndarray:
    if not (0 < d_min < d_max):
        raise ConfigError("need 0 < d_min < d_max")
    return np.geomspace(d_min, d_max, count)


def _fit_samples(d, values, d_min, d_max, what):
    """Finite, nonzero samples inside [d_min, d_max] as (d, |values|).

    Raises ExcludedParameterError unless at least 8 samples remain and they
    span at least two decades: a narrower fit is meaningless for the
    asymptotics it is used to certify.
    """
    d = np.asarray(d, dtype=float)
    y = np.asarray(values, dtype=float)
    keep = np.isfinite(y) & (np.abs(y) > 0) & (d > 0)
    if d_min is not None:
        keep &= d >= d_min * (1.0 - 1e-12)
    if d_max is not None:
        keep &= d <= d_max * (1.0 + 1e-12)
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


def exponent_fit(d, values, d_min=None, d_max=None):
    """Least-squares slope of log|values| against log d.

    Returns (slope, r_squared, n_used). Requires at least 8 retained samples
    spanning at least two decades, else ExcludedParameterError.
    """
    d, y = _fit_samples(d, values, d_min, d_max, "exponent fit")
    lx, ly = np.log(d), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = np.sum((ly - ly.mean()) ** 2)
    r2 = 1.0 - float(np.sum(resid**2) / ss_tot) if ss_tot > 0 else 1.0
    return float(slope), r2, int(d.size)


def power_constant_fit(d, values):
    """Fit |values| = a * d^s + c: a leading power plus a constant.

    A singular field a d^s + c + o(1) has a pure log-log slope that drifts
    away from s as |c| / (a d^s) grows across the window; this model keeps
    the constant and returns the leading exponent itself. Variable
    projection: for each s the pair (a, c) is the linear least-squares
    solution in relative residuals (each sample weighted by 1/|value|), and
    s minimises that residual, first on a 0.05 grid over [-3, 3] and then by
    bounded Brent refinement within one grid step of the best node.

    Returns (slope, amplitude, constant, rel_rms, n_used), rel_rms being the
    root-mean-square relative residual. The sample guards are those of
    exponent_fit.
    """
    d, y = _fit_samples(d, values, None, None, "power-plus-constant fit")
    d_ref = np.sqrt(d.min() * d.max())  # keeps the d^s column well scaled
    x = d / d_ref
    ones = np.ones_like(y)

    def solve(s):
        basis = np.stack([x**s, ones], axis=1) / y[:, None]
        coef = np.linalg.lstsq(basis, ones, rcond=None)[0]
        resid = basis @ coef - ones
        return coef, float(resid @ resid)

    lo, hi, step = -3.0, 3.0, 0.05
    nodes = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    best = int(np.argmin([solve(s)[1] for s in nodes]))
    res = minimize_scalar(
        lambda s: solve(s)[1],
        bounds=(max(lo, nodes[best] - step), min(hi, nodes[best] + step)),
        method="bounded",
        options={"xatol": 1e-10},
    )
    s = float(res.x)
    (a_ref, c), ssr = solve(s)
    return (
        s,
        float(a_ref * d_ref ** (-s)),
        float(c),
        float(np.sqrt(ssr / y.size)),
        int(y.size),
    )
