"""Closed curves in the periodic box and the 2D singular step field.

The field of interest is the fractionally smoothed boundary measure

    F(x) = sum_{k != 0} |k|^{-eps} mu_hat(k) e^{i pi k . x},
    mu_hat(k) = (1/4) * integral_Gamma e^{-i pi k . y} dH^1(y),

which is |grad H| of the indicator of the enclosed region pushed through
the |k|^{-eps} smoothing multiplier. `EwaldStepField2D` evaluates it
exactly by an Ewald split: writing |k|^{-eps} as an integral of
e^{-t|k|^2} and applying the theta transform below the splitting parameter
t0 turns the series into a short-range incomplete-gamma integral over the
curve plus a rapidly converging reciprocal-lattice sum.

The short-range integral is near-singular at distance d from the curve
and takes one admissible-panel rule (after Helsing & Ojala, J. Comput.
Phys. 227:2899, 2008). Every curve exposes point(t) -> (xy, speed) on a
parameter of period 1 and `breaks`, the edges of its smooth pieces. Each
(point image, panel) pair starts at one piece; the panel is bisected
while the point is closer to its midpoint than its arclength, and
dropped once it lies beyond the kernel's reach; the survivors take
16-point Gauss-Legendre. Pairs share panels: the halves of each distinct
split panel are built once per level and every pair splitting it points
at them, in the pair order of a panel per pair, so every sum is
unchanged. The field row (no derivatives) takes 0 with no power and no Q
lookup at nodes where `special.GammaQ` is exactly 0 (u0 >=
`Q_ZERO_FROM`). The quadrature visits the nine images of a point offset
by 0 or +-2 along each axis (`_IMAGES`), not only the nearest: a piece
longer than about 0.43 (1 less the reach 4 sqrt(t0)) can be in reach of
two images of one point. Points are wrapped into the box first, and for
a curve drawn in the box [-1, 1]^2, the range the config parser
enforces, the nine hold every image in reach. The work grows like
log(1/d) and the result is accurate to round-off at any d > 0. A panel
still splitting after 40 bisections means the point is on the curve
(closer than about 1e-12), which raises ConfigError. The reciprocal sum
is separable: Re sum (E_x C) * E_y with E_a = e^{i pi x_a k} over one
axis of 87 wavenumbers, E_x C and E_y formed once per distinct
coordinate of a block of points (a lattice has n per axis) and gathered
per point. The evaluator builds one `special.GammaQ` table of Q per part
(exponent 1 - eps/2, and eps/2).

Curve geometry is exact. A circle's signed distance is one hypot to the
nearest image of its centre (`geometry.periodic_delta`); a spline's is the
distance to the foot point, bracketed by the nearest of 4096 samples (a
kd-tree on the torus finds it across the periodic images), refined by
Newton steps on the parameter and signed by the side of its normal. A spline shifts exactly by translating its knots. Evaluation's one
on-curve test is the bisection cap above.

A bare curve feeds only `EwaldStepField2D` and `lattice_field_2d`; every
other call takes it wrapped in `geometry.JumpSet2D` with its step values.

`lattice_field_2d` is the independent oracle: the literal truncated lattice
sum with a tail window, cutoff K >= 8/d for the smallest distance d. It
costs O(K^2) per batch, so it serves moderate d and cross-checks only.

Both share mu_hat; for circles mu_hat has the Bessel closed form
(pi r / 2) J0(pi r |k|) e^{-i pi k . c} (J0 from `special.j0`), pinned
against the trapezoid `quadrature` in tests; other curves take that
trapezoid sum.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .geometry import periodic_delta
from .grid import FracParams
from .special import Q_ZERO_FROM, GammaQ, gamma, j0

_GAMMA_TAIL = 36.0  # e^-36 ~ 2e-16: where incomplete-gamma tails are dropped
# the periodic images (mx, my) of each point in the short-range quadrature
_IMAGES = tuple((mx, my) for mx in (-2.0, 0.0, 2.0) for my in (-2.0, 0.0, 2.0))
_GL_ORDER = 16  # Gauss-Legendre nodes per admissible panel
_MAX_LEVELS = 40  # bisections before a point counts as lying on the curve
_PAIRS = 2**14  # (point image, curve piece) pairs per evaluation block
_NEWTON_STEPS = 4  # from the nearest spline sample to the foot point


def quadrature(curve, m: int):
    """m curve points at equispaced parameters and their trapezoid
    arclength weights (spectrally accurate on smooth closed curves)."""
    xy, speed = curve.point(np.arange(m) / m)
    return xy, speed / m


class _ClosedCurve:
    """The unsigned distance from the signed distance (nearest image)."""

    def distance(self, x, y) -> np.ndarray:
        """Unsigned distance to the curve, periodic images included."""
        return np.abs(self.signed_distance(x, y))


class Circle(_ClosedCurve):
    """A circle, the default closed curve."""

    breaks = (0.0, 0.25, 0.5, 0.75)  # quarter arcs keep the lattice symmetry

    def __init__(self, center=(0.0, 0.0), radius=0.5):
        if not (0 < radius < 1):
            raise ConfigError("circle radius must lie in (0, 1)")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def length(self) -> float:
        return 2.0 * np.pi * self.radius

    def point(self, t):
        """Curve points and speed |d xy / dt| at parameters t (period 1)."""
        theta = 2.0 * np.pi * np.asarray(t, dtype=float)
        xy = self.center + self.radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return xy, np.full(theta.shape, self.length())

    def signed_distance(self, x, y) -> np.ndarray:
        """Negative inside the circle. Only the nearest image of the centre
        counts: every other one is at least 1 away, and the radius is below 1."""
        dx, dy = periodic_delta(x, self.center[0]), periodic_delta(y, self.center[1])
        return np.hypot(dx, dy) - self.radius

    def mu_hat_closed_form(self, kx, ky) -> np.ndarray:
        absk = np.hypot(kx, ky)
        phase = np.exp(-1j * np.pi * (kx * self.center[0] + ky * self.center[1]))
        return (np.pi * self.radius / 2.0) * j0(np.pi * self.radius * absk) * phase

    def shifted(self, dx: float, dy: float) -> "Circle":
        return Circle(self.center + np.array([dx, dy]), self.radius)

    def outward_point(self, d, angle=0.0):
        """Point at unsigned distance d outside the curve along `angle`."""
        d = np.asarray(d, dtype=float)
        n = np.stack([np.cos(angle) * np.ones_like(d), np.sin(angle) * np.ones_like(d)], axis=-1)
        return self.center + (self.radius + d)[..., None] * n


class SplineCurve(_ClosedCurve):
    """Closed cubic-spline curve through given points (periodic parameter)."""

    def __init__(self, points):
        from scipy.interpolate import CubicSpline
        from scipy.spatial import cKDTree

        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise ConfigError("spline curve needs >= 3 points of shape (m, 2)")
        if np.any(np.all(pts == np.roll(pts, 1, axis=0), axis=1)):  # a zero-length piece
            raise ConfigError("spline curve needs consecutive points to differ")
        closed = np.vstack([pts, pts[:1]])
        t = np.linspace(0.0, 1.0, closed.shape[0])
        self._spline = CubicSpline(t, closed, bc_type="periodic")
        self.breaks = self._spline.x[:-1]  # the knots: no panel straddles one
        self.center = pts.mean(axis=0)
        # foot-point brackets; the tree's box [0, 2)^2 is the periodic box + (1, 1)
        self._tt = np.linspace(0.0, 1.0, 4096, endpoint=False)
        self._samples = self._spline(self._tt)
        self._tree = cKDTree(np.mod(self._samples + 1.0, 2.0), boxsize=2.0)
        # +1 on counterclockwise knots: there the tangent turned clockwise points out
        x, y = self._samples.T
        self._sense = np.sign(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def length(self) -> float:
        return float(np.sum(quadrature(self, 4096)[1]))

    def point(self, t):
        """Curve points and speed |d xy / dt| at parameters t in [0, 1]."""
        return self._spline(t), np.linalg.norm(self._spline(t, 1), axis=-1)

    def signed_distance(self, x, y) -> np.ndarray:
        """Distance to the foot point on the nearest image, negative on the
        inner side of its normal."""
        q = np.stack(np.broadcast_arrays(np.asarray(x, dtype=float), y), axis=-1)
        _, i = self._tree.query(q + 1.0)
        q = q - 2.0 * np.round((q - self._samples[i]) / 2.0)  # the image nearest the sample
        t = self._tt[i]
        for _ in range(_NEWTON_STEPS):
            # Newton on f(t) = (C(t) - q) . C'(t), the slope of |C(t) - q|^2 / 2
            gap = self._spline(t) - q
            tangent = self._spline(t, 1)
            f = np.sum(gap * tangent, axis=-1)
            df = np.sum(tangent * tangent + gap * self._spline(t, 2), axis=-1)
            # clipped to one sample spacing; no division where df is about 0
            big = np.abs(f) >= self._tt[1] * np.abs(df)
            clipped = np.copysign(self._tt[1], f) * np.copysign(1.0, df)
            t = t - np.where(big, clipped, f / np.where(big, 1.0, df))
        gap = q - self._spline(t)
        tx, ty = np.moveaxis(self._spline(t, 1), -1, 0)
        side = self._sense * (gap[..., 0] * ty - gap[..., 1] * tx)
        return np.copysign(np.hypot(gap[..., 0], gap[..., 1]), side)

    def outward_point(self, d, angle=0.0):
        """Points at distance d along the outward unit normal, at the sample
        nearest in angle to the ray from the centroid along `angle`."""
        rel = self._samples - self.center
        gap = np.angle(np.exp(1j * (np.arctan2(rel[:, 1], rel[:, 0]) - angle)))
        i = int(np.argmin(np.abs(gap)))
        tx, ty = self._spline(self._tt[i], 1)
        normal = self._sense * np.array([ty, -tx]) / np.hypot(tx, ty)
        return self._samples[i] + np.asarray(d, dtype=float)[..., None] * normal

    def shifted(self, dx: float, dy: float) -> "SplineCurve":
        # c[-1] holds the knots; interpolation is linear in them, so this is exact
        return SplineCurve(self._spline.c[-1] + np.array([dx, dy]))


def _mu_hat(curve, kx, ky):
    """mu_hat on the tensor grid kx x ky: the Bessel closed form for a
    circle, the 4096-point trapezoid sum over the box of measure 4 otherwise."""
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    if isinstance(curve, Circle):
        return curve.mu_hat_closed_form(kx[:, None], ky[None, :])
    y, w = quadrature(curve, 4096)
    ex = np.exp(-1j * np.pi * np.outer(kx, y[:, 0])) * (w / 4.0)
    return ex @ np.exp(-1j * np.pi * np.outer(y[:, 1], ky))


class EwaldStepField2D:
    """Exact evaluator of F, grad F and the Laplacian at arbitrary points."""

    def __init__(self, curve, p: FracParams, t0: float = 0.02):
        self.curve = curve
        self.p = p
        self.t0 = float(t0)
        eps = p.epsilon
        self.a_short = 1.0 - eps / 2.0
        self.q_short = GammaQ(self.a_short)
        self.gamma_a_short = gamma(self.a_short)
        self.gamma_half_eps = gamma(eps / 2.0)
        # reciprocal sum: the (k_x, k_y) matrix over one axis k, zero outside
        # 0 < t0 |k|^2 <= tail threshold
        kmax = int(np.ceil(np.sqrt(_GAMMA_TAIL / self.t0)))
        self.k = np.arange(-kmax, kmax + 1, dtype=float)
        k2 = np.add.outer(self.k**2, self.k**2)
        keep = (k2 > 0) & (self.t0 * k2 <= _GAMMA_TAIL)
        k2 = np.where(keep, k2, 1.0)
        self.long_coeff = np.where(
            keep,
            k2 ** (-eps / 2.0)
            * GammaQ(eps / 2.0)(self.t0 * k2)
            * _mu_hat(curve, self.k, self.k),
            0.0,
        )
        # constant subtracted so that the k = 0 term is absent
        self.k0_term = curve.length() / 4.0 * self.t0 ** (eps / 2.0) / gamma(eps / 2.0 + 1.0)
        self.rho_max = 4.0 * np.sqrt(self.t0)  # beyond this Psi underflows
        # admissible panels start from the curve's smooth pieces
        self._gl = np.polynomial.legendre.leggauss(_GL_ORDER)
        a = np.asarray(curve.breaks, dtype=float)
        self._pieces = self._panels(a, np.append(a[1:], a[0] + 1.0))

    # -- short-range kernel and its radial derivatives ---------------------

    def _psi_terms(self, rho, derivs):
        eps = self.p.epsilon
        q = 0.5 * np.pi * rho
        u0 = q * q / self.t0
        if not derivs:  # Q is exactly 0 from Q_ZERO_FROM up: no power, no lookup there
            near = u0 < Q_ZERO_FROM
            field = np.zeros(rho.shape)
            field[near] = q[near] ** (eps - 2.0) * (self.gamma_a_short * self.q_short(u0[near]))
            return [field]
        # e^-u0 is not 0 where Q is, so the derivative rows take every node
        gu = self.gamma_a_short * self.q_short(u0)
        ee = np.where(u0 < 700.0, u0 ** (self.a_short - 1.0) * np.exp(-u0), 0.0)
        return [
            q ** (eps - 2.0) * gu,
            0.5 * np.pi * (
                (eps - 2.0) * q ** (eps - 3.0) * gu
                - (2.0 / self.t0) * q ** (eps - 1.0) * ee
            ),
            (0.5 * np.pi) ** 2 * (
                (eps - 2.0) * (eps - 3.0) * q ** (eps - 4.0) * gu
                - (2.0 / self.t0) * q ** (eps - 2.0) * ee * (eps - 3.0 - 2.0 * u0)
            ),
        ]

    def _panels(self, a, b):
        """Parameter panels [a, b]: Gauss-Legendre nodes, arclength weights,
        midpoints and arclengths."""
        x, w = self._gl
        half = 0.5 * (b - a)[:, None]
        mid = 0.5 * (a + b)
        nodes, speed = self.curve.point(mid[:, None] + half * x)
        weights = half * w * speed
        centre, _ = self.curve.point(mid)
        return a, b, nodes, weights, centre, weights.sum(axis=1)

    def _short_parts(self, pts, derivs):
        """Short-range integral by the admissible-panel rule; rows are the
        field and, with derivs, grad x, grad y and the Laplacian."""
        targets = (pts[:, None, :] - np.array(_IMAGES)).reshape(-1, 2)
        npieces = self._pieces[0].size
        tgt = np.repeat(np.arange(targets.shape[0]), npieces)
        idx = np.tile(np.arange(npieces), targets.shape[0])  # rows of `panels`
        panels = self._pieces
        acc = np.zeros((4 if derivs else 1, pts.shape[0]))
        for _ in range(_MAX_LEVELS):
            a, b, nodes, weights, centre, length = panels
            # drop panels beyond the kernel's reach, bisect those the point
            # is closer to than their arclength, integrate the rest
            dist = np.hypot(*(targets[tgt] - centre[idx]).T)
            keep = dist - length[idx] < self.rho_max
            split = keep & (dist < length[idx])
            done = keep & ~split
            z = targets[tgt[done], None, :] - nodes[idx[done]]
            rho = np.hypot(z[..., 0], z[..., 1])
            psi = self._psi_terms(rho, derivs)
            w = weights[idx[done]]
            rows = [psi[0]]
            if derivs:
                radial = psi[1] / rho
                rows += [radial * z[..., 0], radial * z[..., 1], psi[2] + radial]
            owner = tgt[done] // len(_IMAGES)
            for row, vals in zip(acc, rows):
                row += np.bincount(owner, np.sum(w * vals, axis=1), pts.shape[0])
            if not np.any(split):
                return np.pi / (4.0 * self.gamma_half_eps) * acc
            # the halves of each distinct split panel, built once for all its pairs
            parent, child = np.unique(idx[split], return_inverse=True)
            tgt = np.concatenate([tgt[split], tgt[split]])
            idx = np.concatenate([child, child + parent.size])
            a, b = a[parent], b[parent]
            mid = 0.5 * (a + b)
            panels = self._panels(np.concatenate([a, mid]), np.concatenate([mid, b]))
        raise ConfigError("evaluation point lies on the curve")

    def _long_parts(self, pts, derivs):
        """Reciprocal-lattice sum Re sum C e^{i pi k.x}, same rows as the
        short part, through the separable phases E_x and E_y."""
        ik = 1j * np.pi * self.k
        # phases and products per distinct coordinate, gathered per point
        xs, ix = np.unique(pts[:, 0], return_inverse=True)
        ys, iy = np.unique(pts[:, 1], return_inverse=True)
        # numpy sends a one-row product to BLAS gemv, which rounds apart from
        # gemm: a block of several points on one x keeps two rows, so that a
        # point's value does not depend on the other x in its block
        xs = np.resize(xs, min(len(pts), max(xs.size, 2)))
        ex = np.exp(np.outer(xs, ik))
        ey = np.exp(np.outer(ys, ik))[iy]
        exc = (ex @ self.long_coeff)[ix]
        rows = [np.sum(exc * ey, axis=1)]
        if derivs:
            dxc = ((ex * ik) @ self.long_coeff)[ix]
            dxxc = ((ex * ik**2) @ self.long_coeff)[ix]
            rows += [
                np.sum(dxc * ey, axis=1),
                np.sum(exc * (ey * ik), axis=1),
                np.sum(dxxc * ey + exc * (ey * ik**2), axis=1),
            ]
        return np.array(rows).real

    def evaluate(self, points, want=("field",)):
        """Evaluate at points of shape (..., 2).

        Returns a dict with keys among 'field', 'grad', 'lap'. Points are
        wrapped into the box first. A point closer than about 1e-12 to the
        curve counts as on it: its panels are still splitting at the
        bisection cap, which raises ConfigError.
        """
        pts = np.asarray(points, dtype=float)
        flat = periodic_delta(np.atleast_2d(pts.reshape(-1, 2)), 0.0)
        derivs = "grad" in want or "lap" in want
        parts = np.empty((4 if derivs else 1, flat.shape[0]))
        step = max(1, _PAIRS // (len(_IMAGES) * self._pieces[0].size))
        for start in range(0, flat.shape[0], step):
            block = flat[start:start + step]
            parts[:, start:start + step] = (
                self._short_parts(block, derivs) + self._long_parts(block, derivs)
            )
        out = {}
        lead = pts.shape[:-1]
        if "field" in want:
            out["field"] = (parts[0] - self.k0_term).reshape(lead)
        if "grad" in want:
            out["grad"] = parts[1:3].T.reshape(pts.shape)
        if "lap" in want:
            out["lap"] = parts[3].reshape(lead)
        return out


def lattice_field_2d(curve, p: FracParams, points, cutoff: int):
    """The truncated lattice sum of F at arbitrary points: the independent
    comparator for the Ewald evaluator.

    Keeps the modes with |k| <= K = cutoff; a quartic tail window
    exp(-18 (|k|/K)^4) suppresses the hard-truncation ripple without
    biasing low modes. Resolving distance d needs K of about 8/d.
    """
    pts = np.asarray(points, dtype=float)
    flat = np.atleast_2d(pts.reshape(-1, 2))
    if float(np.min(curve.distance(flat[:, 0], flat[:, 1]))) <= 0:
        raise ConfigError("evaluation point lies on the curve")
    K = int(cutoff)
    eps = p.epsilon
    vals = np.zeros(flat.shape[0])
    k2full = np.arange(-K, K + 1, dtype=float)
    for k1 in range(-K, K + 1):
        absk2 = k1 * k1 + k2full**2
        keep = (absk2 > 0) & (absk2 <= K * K)
        if not np.any(keep):
            continue
        k2 = k2full[keep]
        a2 = absk2[keep]
        coeff = a2 ** (-eps / 2.0) * _mu_hat(curve, [k1], k2)[0]
        # quartic exponent: flat to O(k^4) at the origin, so the taper adds
        # no second-order smoothing bias, yet still reaches e^-18 at the
        # cutoff circle
        coeff = coeff * np.exp(-18.0 * (a2 / (K * K)) ** 2)
        phase = np.exp(
            1j * np.pi * (flat[:, :1] * k1 + np.outer(flat[:, 1], k2))
        )
        vals += (phase @ coeff).real
    return vals.reshape(pts.shape[:-1])
