import tracemalloc
import warnings

import numpy as np
import pytest

from fracpm import curves
from fracpm.curves import (
    Circle,
    EwaldStepField2D,
    SplineCurve,
    lattice_field_2d,
    quadrature,
)
from fracpm.errors import ConfigError
from fracpm.evolution import precompute_singular_field
from fracpm.geometry import JumpSet2D
from fracpm.grid import FracParams, PeriodicGrid
from fracpm.special import Q_ZERO_FROM

from conftest import child_peak_mb, offgrid


@pytest.fixture(scope="module")
def circle(circle_64):
    return circle_64[1].curve


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
    assert abs(circle.distance(0.0, 0.0) - circle.radius) < 1e-14
    x, y = circle.outward_point(0.1, angle=0.37)
    assert abs(circle.distance(x, y) - 0.1) < 1e-13
    assert circle.signed_distance(0.0, 0.0) < 0 < circle.signed_distance(0.99, 0.99)


def nine_image_signed_distance(circle, x, y):
    """The signed distance of the nearest of the 3 x 3 images of the
    circle, in scan order, with the arithmetic of each image kept apart."""
    best = None
    for mx in (-2.0, 0.0, 2.0):
        for my in (-2.0, 0.0, 2.0):
            s = np.hypot(x - circle.center[0] - mx, y - circle.center[1] - my) - circle.radius
            best = s if best is None else np.where(np.abs(s) < np.abs(best), s, best)
    return best


def test_circle_distance_is_the_nearest_of_nine_images():
    rng = np.random.default_rng(11)
    for i in range(200):
        centre = rng.choice([-1.0, 1.0], 2) if i % 10 == 0 else rng.uniform(-1.0, 1.0, 2)
        c = Circle(centre, rng.uniform(0.001, 0.999))
        x, y = rng.uniform(-1.0, 1.0, (2, 2000))
        x[:4], y[:4] = -1.0, np.array([-1.0, 0.0, c.center[1], 0.5])  # the box edge
        assert np.array_equal(c.signed_distance(x, y), nine_image_signed_distance(c, x, y))


def test_points_outside_the_box_take_the_field_of_their_image(evaluator):
    inside = np.array([[0.55, 0.02], [-0.3, 0.6]])
    outside = inside + np.array([[4.0, 0.0], [-2.0, 6.0]])
    want = evaluator.evaluate(inside, want=("field", "grad"))
    got = evaluator.evaluate(outside, want=("field", "grad"))
    for key in ("field", "grad"):
        assert np.allclose(got[key], want[key], rtol=1e-12, atol=0.0)


def test_circle_mu_hat_matches_quadrature(circle):
    """Closed-form boundary-measure coefficients against plain trapezoid
    sums over curve points; the box has measure 4."""
    kx = np.array([0.0, 1.0, 3.0, 8.0, 17.0])
    ky = np.array([0.0, 2.0, -5.0, 1.0, 9.0])
    pts, w = quadrature(circle, 4096)
    direct = np.array(
        [
            np.sum(w * np.exp(-1j * np.pi * (a * pts[:, 0] + b * pts[:, 1])))
            for a, b in zip(kx, ky)
        ]
    ) / 4.0
    assert np.max(np.abs(direct - circle.mu_hat_closed_form(kx, ky))) < 1e-10


def test_circle_zero_mode_is_perimeter_density(circle):
    assert abs(circle.mu_hat_closed_form(0.0, 0.0).real - circle.length() / 4.0) < 1e-14
    _, w = quadrature(circle, 512)
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


def uniform_route_oracle(ev, pts, m=2**21):
    """Independent oracle for the panel rule: the short-range integral by
    the m-point uniform trapezoid (spectrally accurate while d spans a few
    sample spacings; 2^21 samples reach d = 1e-5 on a circle of radius
    0.5), plus the evaluator's reciprocal sum. Rows: field, grad, lap."""
    y, w = quadrature(ev.curve, m)
    short = np.zeros((4, len(pts)))
    for i, x in enumerate(pts):
        for image in [(a, b) for a in (-2.0, 0.0, 2.0) for b in (-2.0, 0.0, 2.0)]:
            z = x - y - np.array(image)
            rho = np.hypot(z[:, 0], z[:, 1])
            near = rho < ev.rho_max
            psi = ev._psi_terms(rho[near], True)
            radial = psi[1] / rho[near]
            short[:, i] += [
                np.dot(w[near], psi[0]),
                np.dot(w[near], radial * z[near, 0]),
                np.dot(w[near], radial * z[near, 1]),
                np.dot(w[near], psi[2] + radial),
            ]
    rows = np.pi / (4.0 * ev.gamma_half_eps) * short + ev._long_parts(pts, True)
    return rows[0] - ev.k0_term, rows[1:3].T, rows[3]


@pytest.mark.parametrize("eps", [0.3, 0.7])
def test_panel_rule_matches_uniform_route_oracle(eps):
    circle = Circle((0.0, 0.0), 0.5)
    ev = EwaldStepField2D(circle, FracParams(eps))
    d = np.array([1e-5, 1e-3, 1e-1])
    pts = circle.outward_point(np.concatenate([d, -d]), angle=0.37)  # outside, inside
    out = ev.evaluate(pts, want=("field", "grad", "lap"))
    field, grad, lap = uniform_route_oracle(ev, pts)
    assert np.max(np.abs(out["field"] - field) / np.abs(field)) < 1e-12
    gerr = np.linalg.norm(out["grad"] - grad, axis=1) / np.linalg.norm(grad, axis=1)
    assert np.max(gerr) < 1e-11
    assert np.max(np.abs(out["lap"] - lap) / np.abs(lap)) < 1e-11


def test_panel_rule_converges_in_the_order(monkeypatch):
    """At d = 1e-7, far below any uniform sampling, orders 24 and 32 agree
    with the default 16-point rule."""
    circle = Circle((0.0, 0.0), 0.5)
    pts = circle.outward_point(np.array([1e-7, -1e-7]), angle=0.37)  # outside, inside
    want = ("field", "grad", "lap")
    base = EwaldStepField2D(circle, FracParams(0.3)).evaluate(pts, want)
    for order in (24, 32):
        monkeypatch.setattr(curves, "_GL_ORDER", order)
        out = EwaldStepField2D(circle, FracParams(0.3)).evaluate(pts, want)
        for key in want:
            err = np.abs(out[key] - base[key]) / np.abs(base[key])
            assert np.max(err) < 1e-9, (order, key)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def images_in_reach(ev, pts):
    """How many of the nine periodic images of each point come within the
    kernel's reach of the curve (sampled at 2048 parameters)."""
    on_curve, _ = ev.curve.point(np.arange(2048) / 2048)
    count = np.zeros(len(pts), dtype=int)
    for image in curves._IMAGES:
        gap = (pts - image)[:, None, :] - on_curve
        count += np.min(np.hypot(gap[..., 0], gap[..., 1]), axis=1) < ev.rho_max
    return count


def seven_knot_spline():
    th = 2.0 * np.pi * np.arange(7) / 7
    return SplineCurve(np.stack([0.5 * np.cos(th), 0.4 * np.sin(th)], axis=-1))


@pytest.mark.parametrize("make_curve", [lambda: Circle((0.03, -0.02), 0.5), seven_knot_spline],
                         ids=("shifted-circle", "spline"))
def test_one_call_equals_each_point_alone(make_curve):
    """A 16^2 lattice in one call against each point alone, on the field,
    grad and lap rows. The lattice has a border band where two periodic
    images of a point are in reach. The short part, where pairs share
    panels and zeros are skipped, agrees bit for bit. The long part agrees
    to 1e-15 of its largest value, not bit for bit: numpy sends a one-row
    product to BLAS gemv, which rounds apart from the gemm of a block with
    several distinct coordinates. Several points on one x take gemm, so the
    16 points on the lattice's first x agree bit for bit alone."""
    ev = EwaldStepField2D(make_curve(), FracParams(0.3))
    X, Y = PeriodicGrid(2, 16).nodes()
    pts = np.stack([X + 0.01, Y + 0.003], axis=-1).reshape(-1, 2)
    assert np.max(images_in_reach(ev, pts)) >= 2
    assert np.all(pts[:16, 0] == pts[0, 0])
    assert same_bits(ev._long_parts(pts[:16], True), ev._long_parts(pts, True)[:, :16])
    for derivs in (False, True):
        alone = np.concatenate([ev._short_parts(p[None], derivs) for p in pts], axis=1)
        assert same_bits(ev._short_parts(pts, derivs), alone), derivs
        long = ev._long_parts(pts, derivs)
        alone = np.concatenate([ev._long_parts(p[None], derivs) for p in pts], axis=1)
        assert np.all(np.max(np.abs(alone - long), axis=1) <= 1e-15 * np.max(np.abs(long), axis=1))
    want = ("field", "grad", "lap")
    whole = ev.evaluate(pts, want)
    alone = [ev.evaluate(p, want) for p in pts]
    for key in want:
        err = np.max(np.abs(np.stack([out[key] for out in alone]) - whole[key]))
        assert err <= 1e-15 * np.max(np.abs(whole[key])), key


def test_one_lattice_evaluation_builds_each_panel_once_in_little_memory(monkeypatch):
    """One 64^2 evaluation on the fracfield-2d config (circle r = 0.5 moved
    off the lattice, eps = 0.3) builds 1,248 panel rows, each split panel
    once for all its (point image, panel) pairs, where building one per
    pair made 31,754. Its tracemalloc peak stays under 1.5 MB (0.93 MB
    with the pairs and reciprocal rows in fixed chunks; 3.05 MB with
    arrays the size of the block, 6.2 MB with a panel per pair and the
    (9, N) gather of GammaQ coefficients)."""
    grid = PeriodicGrid(2, 64)
    geom = offgrid(JumpSet2D(Circle((0.0, 0.0), 0.5)), grid)
    ev = EwaldStepField2D(geom.curve, FracParams(0.3))
    pts = np.stack(grid.nodes(), axis=-1)
    built = []
    panels = ev._panels
    monkeypatch.setattr(ev, "_panels", lambda a, b: built.append(a.size) or panels(a, b))
    field = ev.evaluate(pts)["field"]
    assert sum(built) <= 2000
    monkeypatch.undo()
    tracemalloc.start()
    try:
        assert same_bits(ev.evaluate(pts)["field"], field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


@pytest.mark.parametrize("make_curve", [lambda: Circle((0.03, -0.02), 0.5), seven_knot_spline],
                         ids=("shifted-circle", "spline"))
def test_chunk_lengths_change_no_bit(monkeypatch, make_curve):
    """The field, grad and lap of the 16^2 lattice with every pair and
    point chunk 3 long, so that chunks split levels, images and points at
    every offset, equal those of the default chunks bit for bit."""
    ev = EwaldStepField2D(make_curve(), FracParams(0.3))
    X, Y = PeriodicGrid(2, 16).nodes()
    pts = np.stack([X + 0.01, Y + 0.003], axis=-1).reshape(-1, 2)
    want = ("field", "grad", "lap")
    default = ev.evaluate(pts, want)
    monkeypatch.setattr(curves, "_PAIR_CHUNK", 3)
    monkeypatch.setattr(curves, "_POINT_CHUNK", 3)
    chunked = ev.evaluate(pts, want)
    for key in want:
        assert same_bits(chunked[key], default[key]), key


def test_field_row_skips_exact_zeros_bit_for_bit(evaluator):
    """Without derivatives, nodes at u0 >= Q_ZERO_FROM take 0 with no power
    and no GammaQ lookup. On nodes straddling that edge the field row equals
    the first row of the derivative path, which evaluates every node."""
    edge = 2.0 * np.sqrt(Q_ZERO_FROM * evaluator.t0) / np.pi  # u0 = Q_ZERO_FROM here
    rho = np.concatenate([
        edge * (1.0 + np.linspace(-1e-3, 1e-3, 1997)),
        [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)],
    ]).reshape(-1, 16)
    field = evaluator._psi_terms(rho, False)[0]
    assert same_bits(field, evaluator._psi_terms(rho, True)[0])
    assert 0 < np.count_nonzero(field) < field.size


def test_point_on_the_curve_is_rejected():
    circle = Circle((0.0, 0.0), 0.5)
    with pytest.raises(ConfigError):
        EwaldStepField2D(circle, FracParams(0.3)).evaluate(np.array([[0.5, 0.0]]))
    # a spline point between its samples: the foot-point distance sees it on
    # the curve, and evaluation rejects it at the bisection cap
    th = 2.0 * np.pi * np.arange(7) / 7
    spl = SplineCurve(np.stack([0.5 * np.cos(th), 0.4 * np.sin(th)], axis=-1))
    on_curve, _ = spl.point(np.array([0.123457]))
    assert spl.distance(*on_curve.T)[0] < 1e-12
    with pytest.raises(ConfigError):
        EwaldStepField2D(spl, FracParams(0.3)).evaluate(on_curve)


def test_spline_through_a_circle_carries_its_coefficients_and_field():
    """A 64-knot spline through a circle (knots off the axes) differs from
    it by about 1e-6 relative; mu_hat must carry the 1/4 box measure."""
    th = 2.0 * np.pi * (np.arange(64) + 0.5) / 64
    spl = SplineCurve(np.stack([0.5 * np.cos(th), 0.5 * np.sin(th)], axis=-1))
    circle = Circle((0.0, 0.0), 0.5)
    k = np.array([0.0, 1.0, 3.0, 7.0, -12.0])
    exact = curves._mu_hat(circle, k, k)
    assert np.max(np.abs(curves._mu_hat(spl, k, k) - exact)) < 1e-6 * np.max(np.abs(exact))
    pts = np.array([[0.2, 0.62], [0.0, 0.0], [0.9, 0.1], [-0.8, -0.85], [0.15, 0.1]])
    p = FracParams(0.3)
    f_spl = EwaldStepField2D(spl, p).evaluate(pts)["field"]
    f_circle = EwaldStepField2D(circle, p).evaluate(pts)["field"]
    assert np.max(np.abs(f_spl - f_circle) / np.abs(f_circle)) < 1e-6
    X, Y = PeriodicGrid(2, 64).nodes()
    assert np.max(np.abs(spl.distance(X, Y) - circle.distance(X, Y))) < 1e-6
    far = circle.distance(X, Y) > 1e-5
    labels = [JumpSet2D(c).label(X, Y)[far] for c in (spl, circle)]
    assert np.array_equal(*labels)


def test_spline_outward_point_lies_at_the_distance():
    """Along the normal at a curve point the foot-point distance is exact,
    from 1e-8 to 1e-1 on both sides, for either knot orientation."""
    th = 2.0 * np.pi * np.arange(7) / 7
    d = np.geomspace(1e-8, 1e-1, 15)
    d = np.concatenate([d, -d])  # outside, inside
    for sense in (1.0, -1.0):  # counterclockwise and clockwise knots
        spl = SplineCurve(np.stack([0.5 * np.cos(th), sense * 0.4 * np.sin(th)], axis=-1))
        for angle in (0.37, 2.0, 4.5):
            pts = spl.outward_point(d, angle=angle)
            signed = spl.signed_distance(pts[:, 0], pts[:, 1])
            assert np.max(np.abs(signed - d)) < 1e-12
            assert np.array_equal(JumpSet2D(spl).label(pts[:, 0], pts[:, 1]), d > 0)


def test_spline_shift_is_exact():
    th = 2.0 * np.pi * np.arange(7) / 7
    spl = SplineCurve(np.stack([0.5 * np.cos(th), 0.4 * np.sin(th)], axis=-1))
    t = np.linspace(0.0, 1.0, 1001)
    for dx, dy in ((0.0, 0.0), (0.03125, -0.0078125)):
        moved, _ = spl.shifted(dx, dy).point(t)
        assert np.max(np.abs(moved - spl.point(t)[0] - [dx, dy])) < 1e-15


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
    """On a 48^2 grid, at nodes and at face offsets, the grid field matches
    the independent lattice sum (cutoff 2000, itself good to about 2e-8
    here) at nodes with 0.06 <= d < 0.1, where a truncated lattice route is
    weakest; a field with 1e-7-level error there fails."""
    grid = PeriodicGrid(2, 48)
    geom = offgrid(JumpSet2D(Circle((0.0, 0.0), 0.5)), grid)
    p = FracParams(0.3)
    S = precompute_singular_field(grid, geom, p, offsets=offsets)
    X, Y = grid.nodes()
    X, Y = X + offsets[0] * grid.h, Y + offsets[1] * grid.h
    d = geom.distance(X, Y).ravel()
    far = np.flatnonzero((d >= 0.06) & (d < 0.1))[::26]
    pts = np.stack([X.ravel()[far], Y.ravel()[far]], axis=-1)
    lattice = lattice_field_2d(geom.curve, p, pts, cutoff=2000)
    assert far.size >= 5
    assert np.max(np.abs(S.ravel()[far] - lattice)) < 5e-8


def test_singular_field_memory_is_bounded():
    """One 128^2 call in a fresh process stays under 150 MB: evaluation runs
    in fixed-size blocks of points, panels and lattice phases."""
    code = (
        "from fracpm.curves import Circle\n"
        "from fracpm.evolution import precompute_singular_field\n"
        "from fracpm.geometry import JumpSet2D\n"
        "from fracpm.grid import FracParams, PeriodicGrid\n"
        "grid, geom = PeriodicGrid(2, 128), JumpSet2D(Circle((0.0, 0.0), 0.49))\n"
        "precompute_singular_field(grid, geom, FracParams(0.3))\n"
    )
    assert child_peak_mb(code) < 150.0


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
    pts, w = quadrature(spl, 20000)
    polygon = np.sum(np.hypot(*np.diff(np.vstack([pts, pts[:1]]), axis=0).T))
    assert abs(spl.length() - polygon) / polygon < 1e-6
    assert abs(np.sum(w) - spl.length()) < 1e-9
    assert spl.signed_distance(0.0, 0.0) < 0 < spl.signed_distance(0.9, 0.9)


def test_spline_newton_step_does_not_divide_at_a_centre_of_curvature():
    """At the node (0.125, 0) the diamond spline's Newton slope df vanishes;
    the clipped step is taken there instead of a division by zero."""
    diamond = SplineCurve([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = diamond.distance(0.125, 0.0)
    assert d == pytest.approx(0.375, abs=1e-9)


def test_spline_distance_sanity():
    th = 2.0 * np.pi * np.arange(8) / 8
    spl = SplineCurve(np.stack([0.5 * np.cos(th), 0.5 * np.sin(th)], axis=-1))
    # nearly a circle, so the center distance is close to the radius
    assert abs(spl.distance(0.0, 0.0) - 0.5) < 0.01


def test_jump_set_2d_indicator_is_the_component_value(circle):
    """indicator is values[label]: 0.3 inside, not the blend -0.7 + 1.0 * 1
    = 0.30000000000000004."""
    geom = JumpSet2D(circle, inside=0.3, outside=-0.7)
    assert geom.values == (0.3, -0.7) and geom.component_count() == 2
    assert geom.indicator(0.0, 0.0) == 0.3
    assert geom.indicator(0.9, 0.0) == -0.7
    assert JumpSet2D(circle, 2.0, -1.0).jump == 3.0
    x = np.array([0.7, 0.1])
    assert np.allclose(geom.distance(x, x), circle.distance(x, x))
    moved = geom.shifted(0.01, -0.02)
    assert moved.values == geom.values
    assert abs(moved.curve.center[0] - circle.center[0] - 0.01) < 1e-15


def test_jump_set_adapter_scales_alpha_field(circle):
    # the boundary field is linear in the jump; alpha = 1/(1 + (jump*f)^2)
    from fracpm.oracles import alpha_H_and_derivatives

    p = FracParams(0.3)
    pts = ring(circle, 0.1, 3)
    base = EwaldStepField2D(circle, p).evaluate(pts)["field"]
    alpha, _ = alpha_H_and_derivatives(JumpSet2D(circle, 2.0, -1.0), p, pts)
    assert np.max(np.abs(alpha - 1.0 / (1.0 + (3.0 * base) ** 2))) < 1e-12


def test_jump_set_adapter_rejects_degenerate_values(circle):
    with pytest.raises(ConfigError):
        JumpSet2D(circle, 1.0, 1.0)
    with pytest.raises(ConfigError):
        JumpSet2D(circle, np.nan, 0.0)


def test_spline_needs_four_knots():
    """The knot minimum lives in SplineCurve itself, not only in the config."""
    with pytest.raises(ConfigError, match="at least 4 points"):
        SplineCurve([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0]])
