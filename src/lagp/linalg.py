"""Dense real linear algebra substrate used by every other module.

Matrices are plain 2-D float64 ``numpy.ndarray`` objects in row-major
order. Factorizations are delegated to LAPACK through numpy/scipy, and
this module owns their contracts (jitter escalation, ordering, error
mapping). The triangular solves are its own: a blocked substitution over
panels of ``PANEL_ROWS`` rows, in which GEMM does nearly all the work
and each panel's diagonal block is inverted by LAPACK ``dtrtri`` and
applied by BLAS ``dtrmm`` (see ``solve_lower``). They run on a copy of the
right-hand side, or, in ``solve_lower`` with ``overwrite_b``, in place on
the caller's own C-contiguous float64 block; ``cholesky`` with
``overwrite_a`` likewise factors the caller's block in place. Where only
the eigenvalues and one vector's coordinates in the eigenbasis are
needed (the evidence search), ``eigvals_and_squares`` gets them from one
tridiagonal reduction and never forms the eigenvectors; ``sym_eig``
forms them.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack

from .errors import ConvergenceFailure, DimensionMismatch, NonFiniteValue, NotPositiveDefinite

# Gram matrices assembled from network Jacobians are routinely close to
# singular, so factorization failures escalate jitter geometrically
# between these two trace-scaled bounds before giving up.
JITTER_START_FACTOR = 1e-8
JITTER_CAP_FACTOR = 1e-2
SYMMETRY_TOL = 1e-10
PANEL_ROWS = 256  # rows per panel of the triangular solves; square tiles of the symmetry check


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the (jittered) input."""

    lower: np.ndarray
    dim: int
    jitter: float = 0.0


@dataclass(frozen=True)
class SymEig:
    """Spectral decomposition with eigenvalues sorted in descending order."""

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a finite 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{name} contains NaN or Inf")
    return arr


def check_symmetric(a, name="matrix", tol=SYMMETRY_TOL):
    """``a`` as a finite square matrix with max|a - a^T| <= tol * max(1, max|a|).

    The difference is formed one ``PANEL_ROWS``-square tile at a time,
    against the transposed mirror tile, so no (n, n) temporary is made.
    """
    a = as_matrix(a, name)
    n = a.shape[0]
    if n != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if a.size:
        # max|a| without an |a| temporary
        limit = tol * max(1.0, float(a.max()), -float(a.min()))
        for i in range(0, n, PANEL_ROWS):
            for j in range(i, n, PANEL_ROWS):
                d = a[i : i + PANEL_ROWS, j : j + PANEL_ROWS] - a[j : j + PANEL_ROWS, i : i + PANEL_ROWS].T
                if max(float(d.max()), -float(d.min())) > limit:
                    raise DimensionMismatch(f"{name} is not symmetric within {tol}")
    return a


def _own_block(b):
    """Whether b is a writeable, aligned, C-contiguous float64 matrix that LAPACK and BLAS can work on in place."""
    return (
        isinstance(b, np.ndarray)
        and b.ndim == 2
        and b.dtype == np.float64
        and b.flags.c_contiguous
        and b.flags.aligned
        and b.flags.writeable
    )


def cholesky(a, overwrite_a=False):
    """Factor a symmetric matrix as L @ L.T, escalating jitter on failure.

    The first attempt adds no jitter. If LAPACK rejects the matrix, the
    jitter starts at ``JITTER_START_FACTOR * trace(a) / dim`` and grows
    tenfold per retry until ``JITTER_CAP_FACTOR * trace(a) / dim``, after
    which NotPositiveDefinite is raised.

    LAPACK ``dpotrf`` runs on the column-major view a^T, which equals a,
    and writes U with a = U^T U over what is a's lower triangle; U^T, its
    strict upper triangle zeroed, is then the row-major lower factor, with
    no copy out. The input is left unmodified and only its lower triangle
    is read, unless ``overwrite_a`` is set (named as in scipy): then a
    writeable, C-contiguous float64 a is factored in place and becomes the
    factor's ``lower``, and any other a is copied. In place, a retry
    rebuilds the matrix from the strict upper triangle, which ``dpotrf``
    leaves untouched, and the diagonal saved before the first attempt, so
    for a matrix symmetric bit for bit the factor and jitter are the
    copying call's. An overwritten a holds no defined values after an
    error.
    """
    a = check_symmetric(a, "cholesky input")
    n = a.shape[0]
    if n < 1:
        raise DimensionMismatch("cholesky needs dim >= 1")

    in_place = overwrite_a and _own_block(a)
    mat = a if in_place else a.copy()
    diag = a.diagonal().copy()
    scale = float(np.trace(a)) / n
    if scale <= 0.0:
        scale = 1.0
    attempt = 0.0
    cap = JITTER_CAP_FACTOR * scale
    while True:
        if attempt:
            if in_place:
                for i in range(1, n):
                    mat[i, :i] = mat[:i, i]
            else:
                np.copyto(mat, a)
            np.fill_diagonal(mat, diag + attempt)
        # in place, a failed attempt must keep the strict upper triangle for the retry
        _, info = scipy.linalg.lapack.dpotrf(mat.T, lower=0, clean=int(not in_place), overwrite_a=1)
        if info == 0:
            if in_place:
                for i in range(n - 1):
                    mat[i, i + 1 :] = 0.0
            return CholeskyFactor(lower=mat, dim=n, jitter=attempt)
        nxt = JITTER_START_FACTOR * scale if attempt == 0.0 else attempt * 10.0
        if nxt > cap:
            raise NotPositiveDefinite(f"matrix not positive definite after jitter cap {cap:.3e}")
        attempt = nxt


def _inverse_transpose(lower):
    """L^-T of a lower triangle as an upper triangle in column-major order, by LAPACK ``dtrtri``.

    ``dtrtri`` runs on the column-major view L^T and reads only its upper
    triangle. A zero pivot raises NotPositiveDefinite.
    """
    inv_t, info = scipy.linalg.lapack.dtrtri(lower.T, lower=0)
    if info > 0:
        raise NotPositiveDefinite(f"triangular factor has a zero pivot at row {info - 1}")
    return inv_t


def inverse_lower(factor):
    """L^-1 as a row-major lower triangle: n^3/3 flops where solving against the identity costs n^3.

    Like the solves, it reads only the lower triangle of L.
    """
    return np.tril(_inverse_transpose(factor.lower).T)


def _substitute(lower, x, transpose):
    """x := L^-1 x, or L^-T x when ``transpose``, in place on a row-major (n, m) x, one panel at a time.

    BLAS works on the column-major view x[s:e]^T of a panel's rows. Each
    panel is first updated in place by one GEMM per panel t:u already
    solved: x[s:e] -= L[s:e, t:u] x[t:u], or x[s:e] -= L[t:u, s:e]^T x[t:u].
    Its diagonal block B is then applied as B^-1 (or B^-T) by ``dtrmm``,
    which multiplies x[s:e]^T from the right by B^-T (or B^-1). The
    scipy wrappers copy at most one (PANEL_ROWS, PANEL_ROWS) block of L
    per call into column-major order, and no (PANEL_ROWS, m) temporary
    is made.
    """
    n = lower.shape[0]
    panels = [(s, min(s + PANEL_ROWS, n)) for s in range(0, n, PANEL_ROWS)]
    if transpose:
        panels.reverse()
    for k, (s, e) in enumerate(panels):
        for t, u in panels[:k]:
            block = lower[t:u, s:e] if transpose else lower[s:e, t:u]
            scipy.linalg.blas.dgemm(
                -1.0, x[t:u].T, block.T, beta=1.0, c=x[s:e].T, trans_b=int(transpose), overwrite_c=1
            )
        inv_t = _inverse_transpose(lower[s:e, s:e])
        scipy.linalg.blas.dtrmm(1.0, inv_t, x[s:e].T, side=1, lower=0, trans_a=int(transpose), overwrite_b=1)
        if not transpose and not np.isfinite(x[s:e]).all():
            raise NonFiniteValue("triangular solve: the right-hand side holds NaN or Inf")


def _solve(factor, b, transposes, overwrite_b):
    """b as a row-major (dim, k) x, run through ``_substitute`` once per entry of ``transposes``.

    x is b itself when ``overwrite_b`` is set and b is a writeable,
    aligned, C-contiguous float64 matrix, and a row-major copy of b
    otherwise. A 1-D b is one right-hand side and gives a 1-D result.
    """
    x = b if overwrite_b and _own_block(b) else np.array(b, dtype=np.float64, order="C")
    vector_input = x.ndim == 1
    if vector_input:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != factor.dim:
        raise DimensionMismatch(f"rhs has shape {np.shape(b)}, expected ({factor.dim}, k)")
    if x.shape[1]:
        for transpose in transposes:
            _substitute(factor.lower, x, transpose)
    return x[:, 0] if vector_input else x


def solve_lower(factor, b, overwrite_b=False):
    """L^-1 b for one or more right-hand sides; a 1-D b gives a 1-D result.

    With r = L^-1 v, the quadratic form v^T (L L^T)^-1 v is r^T r. A NaN
    or Inf in b raises NonFiniteValue. The caller's b is left unmodified,
    unless ``overwrite_b`` is set (named as in scipy): then a writeable,
    C-contiguous float64 2-D b is solved in place and returned, so a
    caller that discards b saves its copy; any other b is copied. An
    overwritten b holds no defined values after an error.
    """
    return _solve(factor, b, (False,), overwrite_b)


def solve_psd(factor, b):
    """Solve (L @ L.T) x = b for one or more right-hand sides, as L^-T (L^-1 b)."""
    return _solve(factor, b, (False, True), False)


def logdet(factor):
    """Log-determinant of the factored matrix, from the diagonal of L."""
    return 2.0 * float(np.sum(np.log(np.diag(factor.lower))))


def sym_eig(a):
    """Full spectral decomposition of a symmetric matrix.

    Returns eigenvalues in descending order with matching orthonormal
    eigenvector columns.
    """
    a = check_symmetric(a, "sym_eig input")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from None
    order = np.argsort(values)[::-1]
    return SymEig(values=values[order], vectors=vectors[:, order])


def eigvals_and_squares(a, r):
    """Eigenvalues of a symmetric matrix and the squared coordinates of r in its eigenbasis.

    Returns (values, squares), the eigenvalues in descending order and
    (Q^T r)^2 in the same order for a = Q diag(values) Q^T, without
    forming Q: LAPACK ``dsytrd`` (blocked, its workspace sized by
    ``dsytrd_lwork``) reduces a to H T H^T, ``dormqr`` applies the n - 1
    Householder reflectors of H to r, and ``dstevd``, the
    divide-and-conquer solver that ``np.linalg.eigh`` runs, factors
    T = V diag(values) V^T, so the squares are (V^T H^T r)^2. This skips
    eigh's back-transformation H V of the (n, n) eigenvectors. Only the
    lower triangle of a is read, as by eigh.
    """
    a = check_symmetric(a, "eigvals_and_squares input")
    n = a.shape[0]
    r = np.asarray(r, dtype=np.float64)
    if n < 1 or r.shape != (n,):
        raise DimensionMismatch(
            f"eigvals_and_squares needs an (n, n) matrix, n >= 1, and an (n,) vector; got {a.shape} and {r.shape}"
        )
    if not np.all(np.isfinite(r)):
        raise NonFiniteValue("eigvals_and_squares vector contains NaN or Inf")
    if n == 1:
        return a[0].copy(), r * r
    lapack = scipy.linalg.lapack
    lwork, _ = lapack.dsytrd_lwork(n, lower=1)
    reduced, diag, offdiag, tau, _ = lapack.dsytrd(a, lower=1, lwork=int(lwork))
    # reflector i has its implicit unit entry at row i + 1 of column i and the
    # rest below it, so reduced[1:, :-1] holds them as a QR factorization would;
    # with lwork = 1 dormqr applies them one at a time, the cheap way for one column
    z = np.empty(n)
    z[0] = r[0]
    z[1:] = lapack.dormqr("L", "T", reduced[1:, :-1], tau, r[1:, None], lwork=1)[0][:, 0]
    values, vectors, info = lapack.dstevd(diag, offdiag, compute_v=1)
    if info != 0:
        raise ConvergenceFailure(f"tridiagonal eigensolver failed (info {info})")
    return values[::-1], (vectors.T @ z)[::-1] ** 2


def rng_stream(seed):
    """Deterministic random stream; identical seed gives identical draws."""
    return np.random.Generator(np.random.PCG64(int(seed)))
