import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import fracpm.linearop as lo
from fracpm.curves import Circle
from fracpm.errors import ConfigError, LinearAlgebraError
from fracpm.evolution import dirichlet_energy, precompute_singular_field
from fracpm.geometry import JumpSet1D, JumpSet2D
from fracpm.grid import FracParams, PeriodicGrid, ScalarField
from fracpm.spectral import gradient, spectral_ops

from conftest import offgrid

P7 = FracParams(0.7)


def build(n, p=P7, dim=1):
    grid = PeriodicGrid(dim, n)
    geom = offgrid(JumpSet1D.symmetric_step(), grid)
    A = lo.assemble(grid, lo.face_alpha(grid, geom, p))
    return grid, geom, A


@pytest.fixture(scope="module")
def op_256():
    return build(256)


@pytest.fixture(scope="module")
def op_512():
    return build(512)


def test_assembled_operator_is_symmetric_psd(op_256):
    A = op_256[2].toarray()
    assert np.max(np.abs(A - A.T)) == 0.0
    eigs = np.linalg.eigvalsh(A)
    assert eigs[0] >= -1e-12 * np.max(np.abs(A))


def test_m_matrix_sign_pattern(op_256):
    A = op_256[2].toarray()
    off = A - np.diag(np.diag(A))
    assert np.max(off) <= 0.0
    assert np.min(np.diag(A)) > 0.0
    # conservative stencil: exact zero row sums, constants in the kernel
    assert np.max(np.abs(A.sum(axis=1))) < 1e-12 * np.max(np.abs(A))


def test_discrete_maximum_principle(op_256):
    _, _, A = op_256
    rng = np.random.default_rng(8)
    b = rng.uniform(1.0, 3.0, A.shape[0])
    x = np.linalg.solve(np.eye(A.shape[0]) + 1e-3 * A, b)
    assert x.min() >= b.min() - 1e-12
    assert x.max() <= b.max() + 1e-12


def test_discrete_kernel_is_constants_only(op_512):
    """Only the constant vector is numerically null. The indicator of each
    piece becomes near-null only in the continuum limit (and only for
    epsilon < 1/2), so the second eigenvalue stays order one here."""
    A = op_512[2].toarray()
    eigs = np.linalg.eigvalsh(A)
    scale = np.max(np.abs(A))
    assert int(np.sum(eigs < 1e-10 * scale)) == 1
    assert eigs[1] > 0.5


def test_deflated_spectrum_and_gap(op_512):
    grid, geom, A = op_512
    ind = lo.component_indicators(grid, geom)
    gamma, eigs, r = lo.spectrum_deflated(A, ind)
    assert r == 2
    assert np.max(np.abs(eigs[:r])) < 1e-8  # the deflated directions
    assert gamma == eigs[r] > 0.0
    assert abs(lo.poincare_constant(gamma) - 1.0 / np.sqrt(gamma)) < 1e-15


def test_poincare_inequality_on_random_deflated_vectors(op_256):
    grid, geom, A = op_256
    ind = lo.component_indicators(grid, geom)
    gamma, _, _ = lo.spectrum_deflated(A, ind)
    Q, _ = np.linalg.qr(ind)
    rng = np.random.default_rng(123)
    V = rng.standard_normal((A.shape[0], 1000))
    V -= Q @ (Q.T @ V)
    quad = np.einsum("ij,ij->j", V, A @ V)
    norms = np.einsum("ij,ij->j", V, V)
    assert np.all(quad >= (gamma - 1e-8) * norms)


def test_gap_and_constant_stable_under_refinement():
    p = FracParams(0.8)
    gammas = {}
    for n in (256, 512, 1024):
        grid, geom, A = build(n, p)
        ind = lo.component_indicators(grid, geom)
        gammas[n] = lo.spectrum_deflated(A, ind)[0]
    assert all(g > 0 for g in gammas.values())
    spread = max(gammas.values()) / min(gammas.values()) - 1.0
    assert spread < 0.10
    cs = [lo.poincare_constant(g) for g in gammas.values()]
    assert max(cs) / min(cs) - 1.0 < 0.10


def near_null_overlap(A: np.ndarray, indicators: np.ndarray) -> float:
    """Smallest principal-angle cosine between the span of the r lowest
    eigenvectors of A and the indicator span (1 = identical)."""
    from scipy.linalg import eigh, qr, svd

    r = indicators.shape[1]
    _, vecs = eigh(0.5 * (A + A.T))
    Q, _ = qr(np.asarray(indicators, dtype=float), mode="economic")
    return float(np.min(svd(vecs[:, :r].T @ Q, compute_uv=False)))


def test_near_null_overlap_at_small_epsilon():
    # overlap climbs toward 1 with resolution; above 0.999 needs eps well
    # below 1/2 or a fine grid
    overlaps = {}
    for n in (512, 1024):
        grid, geom, A = build(n, FracParams(0.2))
        overlaps[n] = near_null_overlap(A.toarray(), lo.component_indicators(grid, geom))
    assert overlaps[512] < overlaps[1024]
    assert overlaps[1024] > 0.999


def test_indicator_rayleigh_quotient_grows_above_half():
    # for eps > 1/2 the indicator is not asymptotically null: its Rayleigh
    # quotient grows as the grid refines
    quotients = {}
    for n in (256, 1024):
        grid, geom, A = build(n, P7)
        ind = lo.component_indicators(grid, geom)
        v = ind[:, 0] - ind[:, 0].mean()
        quotients[n] = v @ (A @ v) / (v @ v)
    assert quotients[1024] > 1.2 * quotients[256]


def test_deflation_guard_rejects_rank_deficiency(op_256):
    grid, geom, A = op_256
    ind = lo.component_indicators(grid, geom)
    dup = np.column_stack([ind[:, 0], ind[:, 0]])
    with pytest.raises(LinearAlgebraError):
        lo.spectrum_deflated(A, dup)


def test_symmetry_guard():
    M = np.triu(np.ones((8, 8)))
    with pytest.raises(LinearAlgebraError):
        lo.spectrum_deflated(csr_matrix(M), np.ones((8, 1)))


def oracle_deflated_eigenvalues(A, indicators):
    """Oracle: every eigenvalue of P A P from numpy's QR and a dense eigvalsh."""
    Q, _ = np.linalg.qr(np.asarray(indicators, dtype=float))
    P = np.eye(A.shape[0]) - Q @ Q.T
    return np.linalg.eigvalsh(P @ A @ P)


def arc_indicators(n, cuts):
    """Indicators of the arcs [cuts[j], cuts[j + 1]) of the node ring, the
    last arc wrapping around; node i sits after face i."""
    label = (np.searchsorted(cuts, np.arange(n), side="right") - 1) % len(cuts)
    return np.stack([label == j for j in range(len(cuts))], axis=1).astype(float)


def ring_case(name):
    """(A, indicators) of one ring-route case."""
    if name == "symmetric step":
        grid, geom, A = build(512)
        return A, lo.component_indicators(grid, geom)
    rng = np.random.default_rng(11)
    n = 256
    faces = rng.uniform(0.05, 1.0, n)
    if name == "six random jumps":
        cuts = np.sort(rng.choice(n, 6, replace=False))
    elif name == "arc of one node":
        cuts = np.array([10, 11, 140])
    else:  # a cut ring: two zero faces split it into two pieces
        cuts = np.array([60, 190])
        faces[cuts] = 0.0
    return lo.assemble(PeriodicGrid(1, n), faces), arc_indicators(n, cuts)


@pytest.mark.parametrize("name", ["symmetric step", "six random jumps", "arc of one node", "cut ring"])
def test_ring_route_matches_dense_oracle(name, monkeypatch):
    A, ind = ring_case(name)
    monkeypatch.setattr(lo, "_dense_spectrum", None)  # the ring route must serve
    gamma, eigs, r = lo.spectrum_deflated(A, ind)
    want = oracle_deflated_eigenvalues(A, ind)
    scale = np.max(np.abs(A))
    assert r == ind.shape[1] and gamma == eigs[r]
    assert np.max(np.abs(eigs - want)) <= 1e-12 * scale
    assert abs(gamma - want[r]) <= 1e-9 * want[r]
    # the zeros are the deflated ones alone, with or without zero faces
    zeros = np.sum(np.abs(eigs) < 1e-10 * scale)
    assert zeros == np.sum(np.abs(want) < 1e-10 * scale) == r


def test_dense_route_serves_a_ring_that_is_no_laplacian(op_256, monkeypatch):
    """A + I has the ring pattern but nonzero row sums: the dense route."""
    grid, geom, A = op_256
    B = A.toarray() + np.eye(grid.n)
    ind = lo.component_indicators(grid, geom)
    monkeypatch.setattr(lo, "_ring_spectrum", None)
    _, eigs, r = lo.spectrum_deflated(csr_matrix(B), ind)
    assert np.max(np.abs(eigs - oracle_deflated_eigenvalues(B, ind))) <= 1e-12 * np.max(np.abs(B))


def test_symmetry_guard_on_the_ring_band():
    A = lo.assemble(PeriodicGrid(1, 8), np.ones(8))
    A[3, 2] -= 1e-3
    A[3, 3] += 1e-3
    with pytest.raises(LinearAlgebraError, match="symmetry defect"):
        lo.spectrum_deflated(A, np.ones((8, 1)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 32).map(lambda k: 2 * k),
    jumps=st.lists(st.floats(-1.0, 0.999), min_size=2, max_size=12, unique=True),
    values=st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12),
    eps=st.sampled_from([0.3, 0.7]),
)
def test_tiny_jump_sets_agree_with_the_oracle_or_refuse(n, jumps, values, eps):
    grid = PeriodicGrid(1, n)
    try:
        geom = offgrid(JumpSet1D(tuple(sorted(jumps)), tuple(values[: len(jumps)])), grid)
    except ConfigError:  # jumps within round-off merge under the off-grid shift
        return
    A = lo.assemble(grid, lo.face_alpha(grid, geom, FracParams(eps)))
    ind = lo.component_indicators(grid, geom)
    try:
        _, eigs, _ = lo.spectrum_deflated(A, ind)
    except LinearAlgebraError:
        return
    want = oracle_deflated_eigenvalues(A, ind)
    assert np.max(np.abs(eigs - want)) <= 1e-12 * np.max(np.abs(A))


def traced_peak_bytes(fn):
    fn()  # its first call's imports stay outside the trace
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ring_route_allocates_no_dense_matrix():
    """What `fracpm spectrum` runs after set-up, at spectrum-1d's size."""
    grid = PeriodicGrid(1, 2048)
    geom = offgrid(JumpSet1D.symmetric_step(), grid)
    faces, ind = lo.face_alpha(grid, geom, P7), lo.component_indicators(grid, geom)

    def spectrum():
        A = lo.assemble(grid, faces)
        r = lo.spectrum_deflated(A, ind)[2]
        return lo.kernel_dim(A, r), lo.matrix_norm(A)

    assert traced_peak_bytes(spectrum) < 8e6  # a dense A would be 33.6 MB


def test_dense_route_holds_one_copy_of_the_matrix():
    grid = PeriodicGrid(2, 32)
    geom = offgrid(JumpSet2D(Circle((0.0, 0.0), 0.5)), grid)
    faces, ind = lo.face_alpha(grid, geom, P7), lo.component_indicators(grid, geom)
    peak = traced_peak_bytes(lambda: lo.spectrum_deflated(lo.assemble(grid, faces), ind))
    assert peak <= 2.0 * grid.n**4 * 8  # two N x N copies, N = n**2


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8)])
def test_stencil_energy_is_the_face_sum(dim, n):
    """w'Aw equals sum_f a_f (w_i - w_nb)^2 / h^2, summed here without the
    stencil code; A is symmetric and its rows sum to zero."""
    grid = PeriodicGrid(dim, n)
    rng = np.random.default_rng(n)
    w = rng.standard_normal(grid.shape)
    # faces[axis][i] sits between node i and its neighbour one step back
    faces = [rng.uniform(0.1, 2.0, grid.shape) for _ in range(dim)]
    face_sum = sum(
        np.sum(a * (w - np.roll(w, 1, axis=axis)) ** 2) for axis, a in enumerate(faces)
    )
    arg = faces[0] if dim == 1 else faces
    for A in (lo.assemble(grid, arg), lo.assemble_sparse(grid, arg).toarray()):
        energy = w.ravel() @ A @ w.ravel()
        assert abs(energy - face_sum / grid.h**2) <= 1e-12 * energy
        assert np.max(np.abs(A - A.T)) == 0.0
        assert np.max(np.abs(A.sum(axis=1))) <= 1e-12 * np.max(np.abs(A))


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8)])
def test_face_alpha_is_one_stack_of_axes(dim, n):
    """face_alpha is shaped (dim, *grid.shape) in every dimension; for the
    centred circle the y faces are the transposed x faces."""
    grid = PeriodicGrid(dim, n)
    geom = JumpSet1D.symmetric_step() if dim == 1 else JumpSet2D(Circle((0.0, 0.0), 0.49))
    faces = lo.face_alpha(grid, offgrid(geom, grid), P7)
    assert faces.shape == (dim, *grid.shape)
    assert np.all((faces > 0.0) & (faces <= 1.0))
    if dim == 2:
        assert np.max(np.abs(faces[1] - faces[0].T)) < 1e-12


def test_2d_stencil_is_the_kronecker_sum_of_1d_stencils():
    """x faces that vary along x only and y faces that vary along y only
    split the 2D operator into kron(A1(a), I) + kron(I, A1(b))."""
    from scipy.sparse import identity, kron

    n = 16
    g1, g2 = PeriodicGrid(1, n), PeriodicGrid(2, n)
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)
    faces = [np.broadcast_to(a[:, None], g2.shape), np.broadcast_to(b[None, :], g2.shape)]
    eye = identity(n)
    want = kron(lo.assemble_sparse(g1, a), eye) + kron(eye, lo.assemble_sparse(g1, b))
    got = lo.assemble_sparse(g2, faces)
    assert abs(got - want).max() <= 1e-12 * abs(want).max()


def test_dense_assembly_guards():
    with pytest.raises(ConfigError, match="length n"):
        lo.assemble(PeriodicGrid(1, 64), np.ones(63))
    for grid in (PeriodicGrid(1, lo.DENSE_MAX_NODES + 2), PeriodicGrid(2, 82)):
        faces = np.ones((grid.dim, *grid.shape))
        ind = np.ones((grid.n**grid.dim, 1))
        with pytest.raises(ConfigError, match=f"n\\*\\*dim <= {lo.DENSE_MAX_NODES}"):
            lo.spectrum_deflated(lo.assemble(grid, faces), ind)


@pytest.mark.parametrize("dim,n", [(1, 512), (2, 32)])
def test_iterative_spectrum_matches_dense(dim, n):
    """Both routes compute P A P: the bottom ten agree to round-off."""
    grid = PeriodicGrid(dim, n)
    base = JumpSet1D.symmetric_step() if dim == 1 else JumpSet2D(Circle((0.0, 0.0), 0.5))
    geom = offgrid(base, grid)
    A_sparse = lo.assemble(grid, lo.face_alpha(grid, geom, P7))
    ind = lo.component_indicators(grid, geom)
    gamma_dense, eigs_dense, r = lo.spectrum_deflated(A_sparse, ind)
    gamma_it, eigs_it, r_it = lo.spectrum_deflated_iterative(A_sparse, ind)
    assert r_it == r and gamma_it == eigs_it[0]
    want = eigs_dense[r : r + 10]
    assert np.max(np.abs(eigs_it - want) / want) < 1e-10


def dense_kernel_dim(A):
    """Oracle: count the near-zero eigenvalues of the whole dense matrix."""
    eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
    return int(np.sum(np.abs(eigs) < 1e-10 * np.max(np.abs(A))))


def test_kernel_dim_matches_dense_count(op_512):
    A_sparse = op_512[2]
    A = A_sparse.toarray()
    assert lo.kernel_dim(A_sparse, 2) == dense_kernel_dim(A) == 1
    assert lo.matrix_norm(A_sparse) == lo.matrix_norm(A) == np.max(np.abs(A))


def test_kernel_dim_matches_dense_count_2d():
    grid = PeriodicGrid(2, 16)
    geom = offgrid(JumpSet2D(Circle((0.0, 0.0), 0.49)), grid)
    A_sparse = lo.assemble_sparse(grid, lo.face_alpha(grid, geom, P7))
    assert lo.kernel_dim(A_sparse, 2) == dense_kernel_dim(A_sparse.toarray()) == 1


def test_kernel_dim_counts_a_cut_ring():
    """Two zero faces cut the periodic 1D chain into two pieces, each with
    its own constant null vector."""
    grid = PeriodicGrid(1, 512)
    faces = np.random.default_rng(3).uniform(0.1, 1.0, grid.n)
    faces[[100, 300]] = 0.0
    A_sparse = lo.assemble_sparse(grid, faces)
    assert lo.kernel_dim(A_sparse, 2) == dense_kernel_dim(A_sparse.toarray()) == 2


def test_constant_coefficient_spectrum_closed_form():
    for dim, n in ((1, 64), (2, 16)):
        grid = PeriodicGrid(dim, n)
        faces = np.ones(n) if dim == 1 else [np.ones(grid.shape) for _ in range(2)]
        eigs = np.sort(np.linalg.eigvalsh(lo.assemble(grid, faces).toarray()))
        assert np.max(np.abs(eigs - lo.fd_laplacian_eigenvalues(grid))) < 1e-10


def energy(w, alpha):
    """`dirichlet_energy` of the field w, from its rfftn coefficients."""
    return dirichlet_energy(w.grid, gradient(w.grid, spectral_ops(w.grid).forward(w.values)), alpha)


def test_form_value_exact_on_eigenmode():
    grid = PeriodicGrid(1, 256)
    s = ScalarField(grid, np.sin(np.pi * grid.axis_nodes()))
    assert abs(energy(s, np.ones(grid.n)) - np.pi**2) < 1e-10


def test_dirichlet_energy_vanishes_on_constants(op_256):
    grid, geom, _ = op_256
    S = precompute_singular_field(grid, geom, P7)
    alpha = 1.0 / (1.0 + S**2)
    assert energy(ScalarField(grid, np.full(grid.n, 2.3)), alpha) < 1e-12
    assert energy(ScalarField(grid, np.zeros(grid.n)), alpha) == 0.0


def test_form_value_consistent_with_matrix_quadratic_form():
    """h^dim * w'Aw is a second-order quadrature of the bilinear form;
    the gap must shrink 4x per grid doubling."""
    def low_modes(grid):
        rng = np.random.default_rng(0)
        c = np.zeros(grid.n, dtype=complex)
        for k in range(1, 9):
            c[k] = rng.standard_normal() + 1j * rng.standard_normal()
            c[-k] = np.conj(c[k])
        return ScalarField(grid, np.real(np.fft.ifft(c) * grid.n))

    gaps = {}
    for n in (256, 512):
        grid, geom, A = build(n)
        S = precompute_singular_field(grid, geom, P7)
        w = low_modes(grid)
        fv = energy(w, 1.0 / (1.0 + S**2))
        gaps[n] = abs(fv - grid.h * (w.values @ (A @ w.values))) / fv
    assert gaps[256] < 5e-3
    assert 3.5 < gaps[256] / gaps[512] < 4.5


def test_component_indicators_partition(circle_64):
    grid, geom = circle_64
    ind = lo.component_indicators(grid, geom)
    assert ind.shape == (grid.n**2, 2)
    assert np.array_equal(np.unique(ind), [0.0, 1.0])
    assert np.max(ind.sum(axis=1)) == 1.0  # disjoint supports
    assert ind.sum() == grid.n**2  # they tile the grid


def _ring_faces_of(kind, n, rng):
    faces = rng.uniform(1e-6, 1.0, n)
    if kind == "zeros":  # alpha underflows to 0 where v^2 overflows
        faces[rng.random(n) < 0.3] = 0.0
        faces[1] = 0.0
    elif kind == "cut":
        faces[0] = 0.0
    return faces


@pytest.mark.parametrize("kind", ["random", "zeros", "cut"])
@pytest.mark.parametrize("n", [4, 6, 64, 512, 1024])
def test_ring_solver_matches_the_dense_stencil(n, kind):
    """solve inverts I + c h^2 A, A = assemble_sparse (the one stencil): its
    normwise backward error ||b - M x|| / (||M|| ||x|| + ||b||) is at round-off
    for every stiffness, and it is symmetric. The plain ratio ||b - M x|| / ||b||
    grows like c eps for any solver, LAPACK's dense solve included."""
    grid = PeriodicGrid(1, n)
    rng = np.random.default_rng(n)
    faces = _ring_faces_of(kind, n, rng)
    stencil = grid.h**2 * lo.assemble_sparse(grid, faces).toarray()
    for c in (1e-3, 1.0, 131.0, 1e6, 1e9):
        M = np.eye(n) + c * stencil
        solve = lo.ring_solver(faces, c)
        b, u, v = rng.standard_normal((3, n))
        x = solve(b)
        norm_m = np.linalg.norm(M, np.inf)  # within 2x of ||M||_2 for this diagonally dominant M
        residual = np.linalg.norm(b - M @ x)
        assert residual <= 1e-10 * (norm_m * np.linalg.norm(x) + np.linalg.norm(b)), (c, residual)
        # forward error against the dense solve, within the condition number
        x_dense = np.linalg.solve(M, b)
        assert np.linalg.norm(x - x_dense) <= 1e-10 * norm_m * np.linalg.norm(x_dense)
        su, sv = solve(u), solve(v)
        assert abs(u @ sv - v @ su) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(sv)


def test_ring_solver_is_positive_definite_and_leaves_its_input():
    """With its truncated levels, solve is still an SPD operator: the matrix
    of its columns is symmetric with positive eigenvalues."""
    n, c = 64, 1e6
    faces = _ring_faces_of("zeros", n, np.random.default_rng(1))
    solve = lo.ring_solver(faces, c)
    b = np.eye(n)[3].copy()
    cols = np.stack([solve(e) for e in np.eye(n)], axis=1)
    assert np.max(np.abs(cols - cols.T)) <= 1e-13 * np.max(np.abs(cols))
    assert np.min(np.linalg.eigvalsh(0.5 * (cols + cols.T))) > 0
    solve(b)
    assert np.array_equal(b, np.eye(n)[3])
