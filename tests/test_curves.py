import os
import subprocess
import sys

import numpy as np
import pytest

import fracpm
from fracpm.curves import (
    Circle,
    EwaldStepField2D,
    JumpSet2D,
    SplineCurve,
    lattice_field_2d,
)
from fracpm.errors import ConfigError
from fracpm.evolution import precompute_singular_field
from fracpm.grid import FracParams, PeriodicGrid

from conftest import offgrid


@pytest.fixture(scope="module")
def circle(circle_64):
    return circle_64[1]


@pytest.fixture(scope="module")
def evaluator(circle):
    return EwaldStepField2D(circle, FracParams(0.3))


def ring(circle, d, count=64):
    ang = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    r = circle.radius + d
    return np.stack(
        [r * np.cos(ang) + circle.center[0], r * np.sin(ang) + circle.center[1]],
        axis=-1,
    )


def test_circle_basics(circle):
    assert abs(circle.length() - 2.0 * np.pi * circle.radius) < 1e-14
    assert circle.component_count() == 2
    assert circle.indicator(0.0, 0.0) == 1.0
    assert circle.indicator(0.9, 0.0) == 0.0
    assert abs(circle.distance(0.0, 0.0) - circle.radius) < 1e-14
    x, y = circle.outward_point(0.1, angle=0.37)
    assert abs(circle.distance(x, y) - 0.1) < 1e-13
    assert circle.signed_distance(0.0, 0.0) < 0 < circle.signed_distance(0.99, 0.99)


def test_circle_mu_hat_matches_quadrature(circle):
    """Closed-form boundary-measure coefficients against plain trapezoid
    sums over curve points; the box has measure 4."""
    kx = np.array([0.0, 1.0, 3.0, 8.0, 17.0])
    ky = np.array([0.0, 2.0, -5.0, 1.0, 9.0])
    pts, w = circle.quadrature(4096)
    direct = np.array(
        [
            np.sum(w * np.exp(-1j * np.pi * (a * pts[:, 0] + b * pts[:, 1])))
            for a, b in zip(kx, ky)
        ]
    ) / 4.0
    assert np.max(np.abs(direct - circle.mu_hat_closed_form(kx, ky))) < 1e-10


def test_circle_zero_mode_is_perimeter_density(circle):
    assert abs(circle.mu_hat_closed_form(0.0, 0.0).real - circle.length() / 4.0) < 1e-14
    _, w = circle.quadrature(512)
    assert abs(np.sum(w) - circle.length()) < 1e-12


def test_ewald_split_independent_of_partition(circle):
    p = FracParams(0.3)
    pts = ring(circle, 0.13, 16)
    f1 = EwaldStepField2D(circle, p, t0=0.02).evaluate(pts)["field"]
    f2 = EwaldStepField2D(circle, p, t0=0.01).evaluate(pts)["field"]
    assert np.max(np.abs(f1 - f2)) < 1e-9


def test_ewald_matches_windowed_lattice_sum(circle, evaluator):
    # independent slow route: tail-windowed direct sum over the dual lattice
    pts = ring(circle, 0.2, 4)
    fast = evaluator.evaluate(pts)["field"]
    slow = lattice_field_2d(circle, FracParams(0.3), pts, cutoff=800)
    assert np.max(np.abs(fast - slow)) < 1e-7


def test_ewald_gradient_and_laplacian_consistent(evaluator):
    x0 = np.array([0.64 * np.cos(0.37), 0.64 * np.sin(0.37)])
    out = evaluator.evaluate(x0[None], want=("field", "grad", "lap"))

    def f(pt):
        return evaluator.evaluate(np.atleast_2d(pt), want=("field",))["field"][0]

    dd = 1e-4
    e1, e2 = np.array([dd, 0.0]), np.array([0.0, dd])
    fd_grad = np.array(
        [(f(x0 + e1) - f(x0 - e1)) / (2 * dd), (f(x0 + e2) - f(x0 - e2)) / (2 * dd)]
    )
    fd_lap = (f(x0 + e1) + f(x0 - e1) + f(x0 + e2) + f(x0 - e2) - 4.0 * f(x0)) / dd**2
    assert np.max(np.abs(out["grad"][0] - fd_grad)) < 1e-5
    assert abs(out["lap"][0] - fd_lap) < 1e-3  # FD truncation dominates


def test_singular_field_has_lattice_symmetry(circle_64, singular_field_2d):
    """Centered circle: the grid field inherits the full dihedral symmetry
    of the node lattice (j -> -j mod n per axis, and the transpose)."""
    S = singular_field_2d
    n = S.shape[0]
    idx = (-np.arange(n)) % n
    assert np.max(np.abs(S - S.T)) < 1e-11
    assert np.max(np.abs(S - S[idx, :])) < 1e-11
    assert np.max(np.abs(S - S[:, idx])) < 1e-11


@pytest.mark.parametrize("offsets", [(0.0, 0.0), (-0.5, 0.0)], ids=("nodes", "x-faces"))
def test_singular_field_on_any_even_grid(offsets):
    """48 does not divide the far-field lattice: the folded far field must
    still match the exact evaluator at nodes and at face offsets."""
    grid = PeriodicGrid(2, 48)
    curve = offgrid(Circle((0.0, 0.0), 0.5), grid)
    p = FracParams(0.3)
    S = precompute_singular_field(grid, curve, p, offsets=offsets)
    X, Y = grid.nodes()
    X, Y = X + offsets[0] * grid.h, Y + offsets[1] * grid.h
    far = np.flatnonzero(curve.distance(X, Y) >= 0.06)[::37]
    pts = np.stack([X.ravel()[far], Y.ravel()[far]], axis=-1)
    exact = EwaldStepField2D(curve, p).evaluate(pts)["field"]
    assert far.size > 40
    assert np.max(np.abs(S.ravel()[far] - exact)) < 1e-6


def test_singular_field_memory_is_bounded():
    """One 64^2 call in a fresh process stays well under the ~440 MB that
    a full 2048^2 synthesis of the far field would take. The child reports
    VmHWM, not ru_maxrss: Linux carries the parent's peak into ru_maxrss
    across exec, and this test process can be larger than the bound."""
    code = (
        "from fracpm.curves import Circle\n"
        "from fracpm.evolution import precompute_singular_field\n"
        "from fracpm.grid import FracParams, PeriodicGrid\n"
        "grid, curve = PeriodicGrid(2, 64), Circle((0.0, 0.0), 0.49)\n"
        "precompute_singular_field(grid, curve, FracParams(0.3))\n"
        "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')))\n"
    )
    src = os.path.dirname(os.path.dirname(fracpm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    peak_mb = int(out.stdout.split()[1]) / 1024.0  # VmHWM is in kB
    assert peak_mb < 250.0


def test_field_is_not_rotation_invariant(evaluator):
    """Periodization breaks rotation invariance at the 1e-2 level; the
    angular spread is bounded but far above round-off, so nothing may
    assume constancy along rings."""
    spreads = {}
    for d in (0.05, 0.1, 0.2):
        f = evaluator.evaluate(ring(evaluator.curve, d))["field"]
        spreads[d] = float(f.max() - f.min())
    assert all(s < 2.5e-2 for s in spreads.values())
    assert spreads[0.2] > 1e-4


def test_spline_closed_curve_length_and_quadrature():
    th = 2.0 * np.pi * np.arange(12) / 12
    spl = SplineCurve(np.stack([0.55 * np.cos(th), 0.35 * np.sin(th)], axis=-1))
    pts, w = spl.quadrature(20000)
    polygon = np.sum(np.hypot(*np.diff(np.vstack([pts, pts[:1]]), axis=0).T))
    assert abs(spl.length() - polygon) / polygon < 1e-6
    assert abs(np.sum(w) - spl.length()) < 1e-9
    assert spl.indicator(0.0, 0.0) == 1.0
    assert spl.indicator(0.9, 0.9) == 0.0
    assert spl.component_count() == 2


def test_spline_distance_sanity():
    th = 2.0 * np.pi * np.arange(8) / 8
    spl = SplineCurve(np.stack([0.5 * np.cos(th), 0.5 * np.sin(th)], axis=-1))
    # nearly a circle, so the center distance is close to the radius
    assert abs(spl.distance(0.0, 0.0) - 0.5) < 0.01


def test_jump_set_adapter_blends_values(circle):
    geom = JumpSet2D(circle, inside=2.0, outside=-1.0)
    assert geom.jump == 3.0
    assert geom.indicator(0.0, 0.0) == 2.0
    assert geom.indicator(0.9, 0.0) == -1.0
    assert geom.component_count() == circle.component_count()
    x = np.array([0.7, 0.1])
    assert np.allclose(geom.distance(x, x), circle.distance(x, x))
    moved = geom.shifted(0.01, -0.02)
    assert moved.inside == 2.0 and moved.outside == -1.0
    assert abs(moved.curve.center[0] - circle.center[0] - 0.01) < 1e-15


def test_jump_set_adapter_scales_alpha_field(circle):
    # the boundary field is linear in the jump; alpha = 1/(1 + (jump*f)^2)
    from fracpm.oracles import alpha_H_and_derivatives

    p = FracParams(0.3)
    pts = ring(circle, 0.1, 3)
    base = EwaldStepField2D(circle, p).evaluate(pts)["field"]
    alpha, _, _ = alpha_H_and_derivatives(JumpSet2D(circle, 2.0, -1.0), p, pts)
    assert np.max(np.abs(alpha - 1.0 / (1.0 + (3.0 * base) ** 2))) < 1e-12


def test_jump_set_adapter_rejects_degenerate_values(circle):
    with pytest.raises(ConfigError):
        JumpSet2D(circle, 1.0, 1.0)
    with pytest.raises(ConfigError):
        JumpSet2D(circle, np.nan, 0.0)
