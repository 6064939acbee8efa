"""Assembled matrix of -div(alpha grad .) and its deflated spectrum.

This is the conservative finite-difference realization (face-centered
coefficients), deliberately independent from the spectral operator used in
time stepping: the two discretizations cross-validate each other through
the decay-rate acceptance check.

The matrix annihilates constants by construction (zero row sums). Its
near-kernel is spanned by the indicators of the connected components of
the complement of the jump set; the "deflated gap" gamma is the smallest
eigenvalue after projecting that span out, and 1/sqrt(gamma) is the
corresponding Poincare-type constant. In 1D, A = D^T F D / h^2 with D the
node-to-face difference, so P A P = G^T G with G = F^(1/2) D P / h square,
whose spectrum the 1D full solve reads off the banded matrix G G^T. Every
routine takes the one CSR A of `assemble`; only 2D densifies it, once.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, LinearAlgebraError
from .grid import FracParams, PeriodicGrid
from .spectral import alpha_from_fracfield

DENSE_MAX_NODES = 4096  # largest n**dim with a full spectrum (a 128 MB dense matrix in 2D)


def face_alpha(grid: PeriodicGrid, geom, p: FracParams) -> np.ndarray:
    """Oracle diffusion coefficient at face midpoints, shape (dim, *grid.shape).

    faces[a] sits half a cell back along axis a: faces[a][i] is the face
    between node i - e_a and node i.
    """
    from .evolution import precompute_singular_field
    from .oracles import step_field

    field = step_field(geom, p)  # one evaluator for every axis
    return np.stack([
        alpha_from_fracfield(precompute_singular_field(grid, geom, p, offsets=o, field=field))
        for o in -0.5 * np.eye(grid.dim)  # half a cell back along one axis
    ])


def component_indicators(grid: PeriodicGrid, geom) -> np.ndarray:
    """Indicator vectors (columns) of the components of the complement of
    the jump set, one per label, at the nodes."""
    label = geom.label(*grid.nodes()).ravel()
    count = geom.component_count()
    return np.stack([label == j for j in range(count)], axis=1).astype(float)


def deflation_basis(indicators: np.ndarray) -> np.ndarray:
    """QR basis of the indicator span; rejects rank-deficient spans.

    A deflation column with (numerically) zero norm after orthogonalization,
    or more columns than nodes, means a component the grid does not
    resolve; proceeding would deflate a phantom direction, so this is a
    hard error.
    """
    from scipy.linalg import qr

    V = np.asarray(indicators, dtype=float)
    Q, R = qr(V, mode="economic")
    col_scale = np.max(np.abs(V), axis=0)
    diag = np.abs(np.diag(R))
    if V.shape[1] > V.shape[0] or np.any(diag <= 1e-10 * np.maximum(col_scale, 1.0)):
        raise LinearAlgebraError(
            "deflation space is rank-deficient: a component of the jump-set "
            "complement is not resolved by the grid"
        )
    return Q


def spectrum_deflated(A, indicators: np.ndarray):
    """Eigenvalues of P A P with P projecting out the indicator span.

    Returns (gamma, eigenvalues_ascending, deflation_dim). The first
    deflation_dim eigenvalues are the zeros manufactured by P; gamma is the
    next one. A, a CSR matrix of at most DENSE_MAX_NODES rows, must be
    symmetric PSD; symmetry defects beyond round-off raise LinearAlgebraError,
    and so does a deflation that leaves no eigenvalue above the deflated ones.
    A ring Laplacian (the 1D stencil) with disjointly supported indicators
    takes the banded route of `_ring_spectrum`; every other A is solved dense.
    """
    if A.shape[0] > DENSE_MAX_NODES:
        raise ConfigError(f"the full spectrum is limited to n**dim <= {DENSE_MAX_NODES} nodes")
    Q = deflation_basis(indicators)
    r = Q.shape[1]
    if r == A.shape[0]:
        raise LinearAlgebraError(
            f"the {r} deflated directions span all {r} nodes: no eigenvalue is left above them"
        )
    faces = _ring_faces(A)
    ind = np.asarray(indicators, dtype=float)
    if faces is not None and np.all(np.count_nonzero(ind, axis=1) <= 1):
        eigs = _ring_spectrum(faces, ind / np.linalg.norm(ind, axis=0))
    else:
        eigs = _dense_spectrum(A, Q)
    return float(eigs[r]), eigs, r


def _check_symmetry(defect: float, scale: float) -> None:
    if defect > _roundoff(scale):
        raise LinearAlgebraError(f"matrix symmetry defect {defect:.2e}")


def _roundoff(scale: float) -> float:
    """The tolerance of the symmetry and zero-row-sum tests, from max|A_ij|."""
    return 1e-10 * max(scale, 1.0)


def _ring_faces(A):
    """The face weights f_i = -A[i, i-1] when the CSR A is a ring Laplacian, else None.

    A ring Laplacian has every nonzero on the cyclic tridiagonal,
    nonpositive off-diagonals and zero row sums, so A = D^T diag(f) D with
    (D w)_i = w_i - w_{i-1}. The symmetry and scale checks read only the
    O(n) band entries.
    """
    i = np.arange(A.shape[0])
    diag, lower, upper = band = np.asarray(A[np.r_[i, i, i - 1], np.r_[i, i - 1, i]]).reshape(3, -1)
    if A.count_nonzero() != np.count_nonzero(band):
        return None
    scale = float(np.max(np.abs(band)))
    _check_symmetry(float(np.max(np.abs(lower - upper))), scale)
    row_sums = diag + lower + np.roll(upper, -1)
    if max(np.max(lower), np.max(upper)) > 0 or np.max(np.abs(row_sums)) > _roundoff(scale):
        return None
    return -lower


def _ring_spectrum(faces: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Every eigenvalue of P A P for A = D^T diag(faces) D, from a banded matrix.

    P A P = G^T G with G = S D P and S = diag(sqrt(faces)). G is square, so
    P A P has exactly the eigenvalues of K = G G^T, multiplicities
    included. In face space K = B B^T - (B Q)(B Q)^T with B = S D. With Q
    the normalized indicator columns, B Q is nonzero only on the jump
    faces, so K is the face ring plus one chord per arc between its end
    faces; reverse Cuthill-McKee turns it into a narrow band for LAPACK
    sbevd, O(n^2 b) in place of the O(n^3) dense solve.
    """
    from scipy.linalg import eigvals_banded
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = faces.size
    i = np.arange(n)
    s = np.sqrt(faces)
    B = csr_matrix(
        (np.concatenate([s, -s]), (np.tile(i, 2), np.concatenate([i, i - 1]) % n)), shape=(n, n)
    )
    BQ = B @ csr_matrix(Q)
    K = (B @ B.T - BQ @ BQ.T).tocsr()
    K.eliminate_zeros()
    order = reverse_cuthill_mckee(K, symmetric_mode=True)
    K = K[order][:, order].tocoo()
    lower = K.row >= K.col
    offset = (K.row - K.col)[lower]
    band = np.zeros((np.max(offset, initial=0) + 1, n))
    band[offset, K.col[lower]] = K.data[lower]
    return eigvals_banded(band, lower=True, overwrite_a_band=True, check_finite=False)


def _dense_spectrum(A, Q: np.ndarray) -> np.ndarray:
    """Every eigenvalue of P A P by a dense eigensolve, with one N x N copy.

    P A P = A - Q V^T - V Q^T with V = A Q - Q (Q^T A Q) / 2: one rank-2r
    update (BLAS syr2k) of the lower triangle of M, a Fortran-order dense
    copy of A. The symmetry check runs over row blocks of M, no N x N temporary.
    """
    from scipy.linalg import eigh
    from scipy.linalg.blas import dsyr2k

    M = A.toarray(order="F")
    defect = scale = 0.0
    for k in range(0, M.shape[0], 256):
        rows = slice(k, k + 256)
        defect = max(defect, float(np.max(np.abs(M[rows] - M[:, rows].T))))
        scale = max(scale, float(np.max(np.abs(M[rows]))))
    _check_symmetry(defect, scale)
    AQ = M @ Q
    V = AQ - 0.5 * (Q @ (Q.T @ AQ))
    M = dsyr2k(-1.0, Q, V, beta=1.0, c=M, lower=1, overwrite_c=1)
    return eigh(M, lower=True, eigvals_only=True, overwrite_a=True, check_finite=False)


def matrix_norm(A) -> float:
    """max |A_ij| of a dense or sparse A: the scale of the symmetry and kernel tests."""
    return float(abs(A).max())


def kernel_dim(A, r: int) -> int:
    """dim ker A: deflate the constants, then add one per eigenvalue below
    1e-10 max|A_ij| among the bottom min(r + 1, N - 1); r = indicator count."""
    ones = np.ones((A.shape[0], 1))
    k = min(r + 1, A.shape[0] - 1)
    _, bottom, _ = spectrum_deflated_iterative(A, ones, k=k)
    return int(np.sum(np.abs(bottom) < 1e-10 * matrix_norm(A))) + 1


def assemble(grid: PeriodicGrid, alpha_faces):
    """CSR matrix A with (A w)_i = -div(alpha grad w)_i, periodic FD.

    The one copy of the conservative stencil; every consumer reads this CSR.
    alpha_faces has the layout of `face_alpha`, shape (dim, *grid.shape);
    in 1D a bare length n array is accepted too. Per axis a, node i couples
    to i - e_a through faces[a][i] and to i + e_a through faces[a][i + e_a].
    """
    from scipy.sparse import coo_matrix

    faces = np.asarray(alpha_faces, dtype=float)
    if faces.shape == (grid.n,):
        faces = faces[None]
    if faces.shape != (grid.dim, *grid.shape):
        raise ConfigError(
            f"face coefficients must have shape {(grid.dim, *grid.shape)} "
            f"(or length n in 1D), got {faces.shape}"
        )
    idx = np.arange(grid.n**grid.dim).reshape(grid.shape)
    diag = np.zeros(grid.shape)
    cols, vals = [idx], [diag]
    for a, back in enumerate(faces):
        ahead = np.roll(back, -1, axis=a)
        diag += back
        diag += ahead
        cols += [np.roll(idx, -1, axis=a), np.roll(idx, 1, axis=a)]
        vals += [-ahead, -back]
    rows = np.tile(idx.ravel(), len(cols))
    cols = np.concatenate([c.ravel() for c in cols])
    data = np.concatenate([v.ravel() for v in vals]) * (1.0 / grid.h**2)
    return coo_matrix((data, (rows, cols)), shape=(idx.size,) * 2).tocsr()


# perfbench traces this name too; kept until the benchmark drops it
assemble_sparse = assemble


def ring_solver(faces, c: float):
    """solve(b) = M^-1 b for M = I + c D^T diag(faces) D (`assemble` times
    c h^2 plus I), numpy only. The chain T with face 0 cut is factored
    once as L diag(d) L^T; its multipliers lie in [0, 1), so both sweeps run
    by recursive doubling, y[s:] += a_s y[:-s] with a_2s[i] = a_s[i] a_s[i-s].
    Coefficients below 2^-53 become 0 and the first all-zero level ends the
    list (at most ceil(log2 n) kept); the backward sweep is the exact transpose
    of the forward one, so solve is SPD. Sherman-Morrison restores face 0,
    c f_0 v v^T with v = e_0 - e_(n-1). One caller at a time: the sweeps run
    in place on work buffers, with no temporaries."""
    f = (c * np.asarray(faces, dtype=float)).tolist()
    n = len(f)
    d = [1.0 + a + b for a, b in zip([0.0] + f[1:], f[1:] + [0.0])]
    for i in range(1, n):
        d[i] -= f[i] / d[i - 1] * f[i]  # the multiplier f_i / d_(i-1) times f_i
    inv_d, levels, a, s = 1.0 / np.array(d), [], np.array(f[1:]) / np.array(d[:-1]), 1
    while s < n:  # a holds a_s[s:]
        a[a < 2.0**-53] = 0.0
        if not a.any():
            break
        levels.append((s, a))
        a, s = a[s:] * a[:-s], 2 * s

    y, part = np.empty(n), np.empty(n)
    views = [(a, y[s:], y[:-s], part[s:]) for s, a in levels]

    def chain(b):  # y = T^-1 b
        y[:] = b
        for a, ahead, behind, t in views:
            np.multiply(a, behind, out=t)
            ahead += t
        np.multiply(y, inv_d, out=y)
        for a, ahead, behind, t in reversed(views):
            np.multiply(a, ahead, out=t)
            behind += t
        return y

    z = chain(np.r_[1.0, np.zeros(n - 2), -1.0]).copy()
    beta = f[0] / (1.0 + f[0] * (z[0] - z[-1]))
    return lambda b: (r := chain(b)) - (beta * (r[0] - r[-1])) * z


def spectrum_deflated_iterative(A, indicators: np.ndarray, k: int = 10):
    """Bottom eigenvalues of P A P, the operator of `spectrum_deflated`, by
    shift-invert on range(P). (P A P + I)^{-1} there is the solve of
    (A + I) y = b with Q^T y = 0: a sparse LU of A + I and a rank-r Schur
    correction. ARPACK (mode 3 applies only this inverse) iterates in
    range(P) from a seeded vector, so reruns agree bit for bit. Returns
    (gamma, bottom_eigenvalues, deflation_dim).
    """
    from scipy.sparse import eye as speye
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    Q = deflation_basis(indicators)
    r = Q.shape[1]
    n = A.shape[0]
    lu = splu((A + speye(n, format="csr")).tocsc())
    W = lu.solve(Q)
    S = Q.T @ W

    def project(x):
        return x - Q @ (Q.T @ x)

    def apply_inv(b):
        y0 = lu.solve(project(b))
        return project(y0 - W @ np.linalg.solve(S, Q.T @ y0))

    inv_op = LinearOperator((n, n), matvec=apply_inv, dtype=float)
    try:
        vals = eigsh(
            A, k=k, sigma=-1.0, which="LM", OPinv=inv_op,
            v0=project(np.random.default_rng(0).standard_normal(n)),
            return_eigenvectors=False,
        )
    except Exception as exc:  # ArpackNoConvergence and friends
        raise LinearAlgebraError(f"shifted inverse iteration failed: {exc}")
    vals = np.sort(vals)
    return float(vals[0]), vals, r


def poincare_constant(gamma: float) -> float:
    if gamma <= 0:
        raise LinearAlgebraError("Poincare constant needs a positive gap")
    return 1.0 / np.sqrt(gamma)


def fd_laplacian_eigenvalues(grid: PeriodicGrid) -> np.ndarray:
    """Exact eigenvalues (4/h^2) sin^2(pi k h / 2) of the alpha = 1 matrix."""
    n, h = grid.n, grid.h
    k = np.arange(n)
    lam = (4.0 / h**2) * np.sin(np.pi * k * h / 2.0) ** 2
    return np.sort(sum(np.meshgrid(*[lam] * grid.dim, indexing="ij")).ravel())
