"""Closed curves in the periodic box and the 2D singular step field.

The field of interest is the fractionally smoothed boundary measure

    F(x) = sum_{k != 0} |k|^{-eps} mu_hat(k) e^{i pi k . x},
    mu_hat(k) = (1/4) * integral_Gamma e^{-i pi k . y} dH^1(y),

which is |grad H| of the indicator of the enclosed region pushed through
the |k|^{-eps} smoothing multiplier. `EwaldStepField2D` evaluates it
exactly by an Ewald split: writing |k|^{-eps} as an integral of
e^{-t|k|^2} and applying the theta transform below the splitting parameter
t0 turns the series into a short-range incomplete-gamma integral over the
curve (quadrature) plus a rapidly converging reciprocal-lattice sum. The
quadrature takes m = 48 r / d samples, capped at 2^21, so it is accurate
down to d = 48 r / 2^21 (1.1e-5 at r = 0.5); below that it reads low (0.8%
at d = 1e-6, eps = 0.3) until graded panels lift the cap (ROADMAP item 1).

`lattice_field_2d` is the independent oracle: the literal truncated lattice
sum with a tail window, cutoff K >= 8/d for the smallest distance d. It
costs O(K^2) per batch, so it serves moderate d and cross-checks only.

Both share mu_hat; for circles mu_hat has the Bessel closed form
(pi r / 2) J0(pi r |k|) e^{-i pi k . c}, pinned against the quadrature
route in tests.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincc, gammaln, j0

from .errors import ConfigError
from .grid import FracParams

_GAMMA_TAIL = 36.0  # e^-36 ~ 2e-16: where incomplete-gamma tails are dropped
# the periodic images (mx, my) that distance and quadrature sums visit, in order
_IMAGES = tuple((mx, my) for mx in (-2.0, 0.0, 2.0) for my in (-2.0, 0.0, 2.0))


class Circle:
    """A circle, the default closed curve."""

    def __init__(self, center=(0.0, 0.0), radius=0.5):
        if not (0 < radius < 1):
            raise ConfigError("circle radius must lie in (0, 1)")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def length(self) -> float:
        return 2.0 * np.pi * self.radius

    def distance(self, x, y) -> np.ndarray:
        """Unsigned distance to the curve, periodic images included."""
        return np.abs(self.signed_distance(x, y))

    def signed_distance(self, x, y) -> np.ndarray:
        """Negative inside the circle (nearest image)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        best = None
        for mx, my in _IMAGES:
            s = np.hypot(x - self.center[0] - mx, y - self.center[1] - my) - self.radius
            best = s if best is None else np.where(np.abs(s) < np.abs(best), s, best)
        return best

    def indicator(self, x, y) -> np.ndarray:
        return np.where(self.signed_distance(x, y) < 0, 1.0, 0.0)

    def quadrature(self, m: int):
        """m curve points and arclength weights (uniform angle, spectral)."""
        theta = 2.0 * np.pi * np.arange(m) / m
        pts = self.center + self.radius * np.stack(
            [np.cos(theta), np.sin(theta)], axis=-1
        )
        w = np.full(m, self.length() / m)
        return pts, w

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

    def component_count(self) -> int:
        return 2  # inside and outside


class JumpSet2D:
    """A closed curve together with the step values on either side.

    Thin adapter so 2D runs can use data other than the unit step; the
    fractional field of outside + (inside - outside) * chi scales linearly
    in the jump, which downstream code reads off the `jump` attribute.
    """

    def __init__(self, curve, inside: float = 1.0, outside: float = 0.0):
        if not np.isfinite(inside) or not np.isfinite(outside):
            raise ConfigError("step values must be finite")
        if inside == outside:
            raise ConfigError("step values must differ across the curve")
        self.curve = curve
        self.inside = float(inside)
        self.outside = float(outside)

    @property
    def jump(self) -> float:
        return self.inside - self.outside

    def indicator(self, x, y) -> np.ndarray:
        chi = self.curve.indicator(x, y)
        return self.outside + (self.inside - self.outside) * chi

    def distance(self, x, y) -> np.ndarray:
        return self.curve.distance(x, y)

    def shifted(self, dx: float, dy: float) -> "JumpSet2D":
        return JumpSet2D(self.curve.shifted(dx, dy), self.inside, self.outside)

    def component_count(self) -> int:
        return self.curve.component_count()


class SplineCurve:
    """Closed cubic-spline curve through given points (periodic parameter)."""

    def __init__(self, points):
        from scipy.interpolate import CubicSpline

        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise ConfigError("spline curve needs >= 3 points of shape (m, 2)")
        closed = np.vstack([pts, pts[:1]])
        t = np.linspace(0.0, 1.0, closed.shape[0])
        self._spline = CubicSpline(t, closed, bc_type="periodic")
        self.center = pts.mean(axis=0)
        # dense sampling reused by distance queries
        self._tt = np.linspace(0.0, 1.0, 4096, endpoint=False)
        self._samples = self._spline(self._tt)

    def length(self) -> float:
        dp = self._spline(self._tt, 1)
        return float(np.mean(np.hypot(dp[:, 0], dp[:, 1])))

    def quadrature(self, m: int):
        t = np.linspace(0.0, 1.0, m, endpoint=False)
        pts = self._spline(t)
        speed = np.hypot(*self._spline(t, 1).T)
        return pts, speed / m

    def mu_hat_closed_form(self, kx, ky):
        raise NotImplementedError("spline curves use the quadrature route")

    def distance(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        pts = np.stack([x, y], axis=-1)[..., None, :]
        best = None
        for mx, my in _IMAGES:
            diff = pts - (self._samples + np.array([mx, my]))
            d = np.min(np.linalg.norm(diff, axis=-1), axis=-1)
            best = d if best is None else np.minimum(best, d)
        return best

    def indicator(self, x, y) -> np.ndarray:
        # winding-number test against the dense polygon (central image)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        px, py = self._samples[:, 0], self._samples[:, 1]
        nx, ny = np.roll(px, -1), np.roll(py, -1)
        xx = x[..., None]
        yy = y[..., None]
        crosses = ((py <= yy) & (ny > yy)) | ((py > yy) & (ny <= yy))
        t = (yy - py) / np.where(ny == py, np.inf, ny - py)
        xint = px + t * (nx - px)
        inside = np.sum(crosses & (xint > xx), axis=-1) % 2
        return inside.astype(float)

    def shifted(self, dx: float, dy: float) -> "SplineCurve":
        t = np.linspace(0.0, 1.0, 64, endpoint=False)
        return SplineCurve(self._spline(t) + np.array([dx, dy]))

    def component_count(self) -> int:
        return 2


def _mu_hat(curve, kx, ky, quad_m: int = 4096):
    try:
        return curve.mu_hat_closed_form(kx, ky)
    except NotImplementedError:
        pts, w = curve.quadrature(quad_m)
        phase = np.exp(
            -1j
            * np.pi
            * (np.multiply.outer(kx, pts[:, 0]) + np.multiply.outer(ky, pts[:, 1]))
        )
        return phase @ w


class EwaldStepField2D:
    """Exact evaluator of F, grad F and the Laplacian at arbitrary points."""

    def __init__(self, curve, p: FracParams, t0: float = 0.02):
        self.curve = curve
        self.p = p
        self.t0 = float(t0)
        self._quads = {}
        eps = p.epsilon
        self.a_short = 1.0 - eps / 2.0
        self.gamma_a_short = np.exp(gammaln(self.a_short))
        self.gamma_half_eps = np.exp(gammaln(eps / 2.0))
        # reciprocal sum: keep modes with t0 |k|^2 <= tail threshold
        kmax = int(np.ceil(np.sqrt(_GAMMA_TAIL / self.t0)))
        k = np.arange(-kmax, kmax + 1)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        k2 = (kx**2 + ky**2).astype(float)
        keep = (k2 > 0) & (self.t0 * k2 <= _GAMMA_TAIL)
        self.kx = kx[keep].astype(float)
        self.ky = ky[keep].astype(float)
        k2 = k2[keep]
        self.long_coeff = (
            k2 ** (-eps / 2.0)
            * gammaincc(eps / 2.0, self.t0 * k2)
            * _mu_hat(curve, self.kx, self.ky)
        )
        self.mode_count = int(self.kx.size)
        # constant subtracted so that the k = 0 term is absent
        self.k0_term = (
            curve.length() / 4.0 * self.t0 ** (eps / 2.0)
            / np.exp(gammaln(eps / 2.0 + 1.0))
        )
        self.rho_max = 4.0 * np.sqrt(self.t0)  # beyond this Psi underflows

    # -- short-range kernel and its radial derivatives ---------------------

    def _psi_terms(self, rho, orders):
        eps = self.p.epsilon
        q = 0.5 * np.pi * rho
        u0 = q * q / self.t0
        gu = self.gamma_a_short * gammaincc(self.a_short, u0)
        ee = np.where(u0 < 700.0, u0 ** (self.a_short - 1.0) * np.exp(-u0), 0.0)
        out = {}
        if 0 in orders:
            out[0] = q ** (eps - 2.0) * gu
        if 1 in orders:
            out[1] = 0.5 * np.pi * (
                (eps - 2.0) * q ** (eps - 3.0) * gu
                - (2.0 / self.t0) * q ** (eps - 1.0) * ee
            )
        if 2 in orders:
            out[2] = (0.5 * np.pi) ** 2 * (
                (eps - 2.0) * (eps - 3.0) * q ** (eps - 4.0) * gu
                - (2.0 / self.t0) * q ** (eps - 2.0) * ee * (eps - 3.0 - 2.0 * u0)
            )
        return out, q

    def _quad_m(self, d: float) -> int:
        # ~7.6 quadrature points per peak width d; rounded up to powers of
        # two so probe batches share cached curve samplings
        scale = getattr(self.curve, "radius", 0.5)
        m = min(max(4096, 48.0 * scale / d), 2**21)
        return int(2 ** np.ceil(np.log2(m)))

    def _short_parts(self, points, dists, want):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        pref = np.pi / (4.0 * self.gamma_half_eps)
        field = np.zeros(pts.shape[0])
        grad = np.zeros_like(pts)
        lap = np.zeros(pts.shape[0])
        orders = {0} | ({1, 2} if ("grad" in want or "lap" in want) else set())
        for i, x in enumerate(pts):
            m = self._quad_m(dists[i])
            if m not in self._quads:
                self._quads[m] = self.curve.quadrature(m)
            ypts, w = self._quads[m]
            acc_f = 0.0
            acc_g = np.zeros(2)
            acc_l = 0.0
            for image in _IMAGES:
                z = x - ypts - image
                rho = np.hypot(z[:, 0], z[:, 1])
                near = rho < self.rho_max
                if not np.any(near):
                    continue
                rho_n = rho[near]
                w_n = w[near]
                psi, _ = self._psi_terms(rho_n, orders)
                acc_f += np.dot(w_n, psi[0])
                if 1 in psi:
                    unit = z[near] / rho_n[:, None]
                    acc_g += (w_n * psi[1]) @ unit
                    acc_l += np.dot(w_n, psi[2] + psi[1] / rho_n)
            field[i] = pref * acc_f
            grad[i] = pref * acc_g
            lap[i] = pref * acc_l
        return field, grad, lap

    def _long_parts(self, points, want):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        phase = np.exp(
            1j * np.pi * (np.outer(pts[:, 0], self.kx) + np.outer(pts[:, 1], self.ky))
        )
        weighted = phase * self.long_coeff
        field = weighted.sum(axis=1).real
        grad = np.zeros_like(pts)
        lap = np.zeros(pts.shape[0])
        if "grad" in want or "lap" in want:
            grad[:, 0] = (weighted * (1j * np.pi * self.kx)).sum(axis=1).real
            grad[:, 1] = (weighted * (1j * np.pi * self.ky)).sum(axis=1).real
            k2 = self.kx**2 + self.ky**2
            lap = (weighted * (-np.pi**2 * k2)).sum(axis=1).real
        return field, grad, lap

    def evaluate(self, points, want=("field",)):
        """Evaluate at points of shape (..., 2).

        Returns a dict with keys among 'field', 'grad', 'lap'. Points must
        keep a positive distance from the curve.
        """
        pts = np.asarray(points, dtype=float)
        flat = np.atleast_2d(pts.reshape(-1, 2))
        d = self.curve.distance(flat[:, 0], flat[:, 1])
        if float(np.min(d)) <= 0:
            raise ConfigError("evaluation point lies on the curve")
        sf, sg, sl = self._short_parts(flat, d, want)
        lf, lg, ll = self._long_parts(flat, want)
        out = {}
        lead = pts.shape[:-1]
        if "field" in want:
            out["field"] = (sf + lf - self.k0_term).reshape(lead)
        if "grad" in want:
            out["grad"] = (sg + lg).reshape(pts.shape)
        if "lap" in want:
            out["lap"] = (sl + ll).reshape(lead)
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
    d = curve.distance(flat[:, 0], flat[:, 1])
    if float(np.min(d)) <= 0:
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
        coeff = a2 ** (-eps / 2.0) * _mu_hat(curve, np.full(k2.shape, float(k1)), k2)
        # quartic exponent: flat to O(k^4) at the origin, so the taper adds
        # no second-order smoothing bias, yet still reaches e^-18 at the
        # cutoff circle
        coeff = coeff * np.exp(-18.0 * (a2 / (K * K)) ** 2)
        phase = np.exp(
            1j * np.pi * (flat[:, :1] * k1 + np.outer(flat[:, 1], k2))
        )
        vals += (phase @ coeff).real
    return vals.reshape(pts.shape[:-1])
