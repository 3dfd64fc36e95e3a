"""Dense real linear algebra substrate used by every other module.

Matrices are plain 2-D float64 ``numpy.ndarray`` objects in row-major
order. Factorizations are delegated to LAPACK through numpy/scipy; this
module owns the contracts (jitter escalation, ordering, error mapping)
rather than the inner loops.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import ConvergenceFailure, DimensionMismatch, NonFiniteValue, NotPositiveDefinite

# Gram matrices assembled from network Jacobians are routinely close to
# singular, so factorization failures escalate jitter geometrically
# between these two trace-scaled bounds before giving up.
JITTER_START_FACTOR = 1e-8
JITTER_CAP_FACTOR = 1e-2
SYMMETRY_TOL = 1e-10


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
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if a.size:
        # max|a| without an |a| temporary; a - a^T is antisymmetric entry
        # for entry, so its largest entry is its largest magnitude
        scale = max(1.0, float(a.max()), -float(a.min()))
        if float((a - a.T).max()) > tol * scale:
            raise DimensionMismatch(f"{name} is not symmetric within {tol}")
    return a


def cholesky(a):
    """Factor a symmetric matrix as L @ L.T, escalating jitter on failure.

    The first attempt adds no jitter. If LAPACK rejects the matrix, the
    jitter starts at ``JITTER_START_FACTOR * trace(a) / dim`` and grows
    tenfold per retry until ``JITTER_CAP_FACTOR * trace(a) / dim``, after
    which NotPositiveDefinite is raised. The input is left unmodified.

    LAPACK ``dpotrf`` runs on the column-major view a^T, which equals a,
    and returns U with a = U^T U; U^T is then the row-major lower factor,
    with no copy out. Only the lower triangle of a is read.
    """
    a = check_symmetric(a, "cholesky input")
    n = a.shape[0]
    if n < 1:
        raise DimensionMismatch("cholesky needs dim >= 1")

    scale = float(np.trace(a)) / n
    if scale <= 0.0:
        scale = 1.0
    attempt = 0.0
    cap = JITTER_CAP_FACTOR * scale
    while True:
        mat = a.copy() if attempt == 0.0 else a + attempt * np.eye(n)
        upper, info = scipy.linalg.lapack.dpotrf(mat.T, lower=0, clean=1, overwrite_a=1)
        if info == 0:
            return CholeskyFactor(lower=upper.T, dim=n, jitter=attempt)
        nxt = JITTER_START_FACTOR * scale if attempt == 0.0 else attempt * 10.0
        if nxt > cap:
            raise NotPositiveDefinite(f"matrix not positive definite after jitter cap {cap:.3e}")
        attempt = nxt


def solve_lower(factor, b):
    """L^-1 b for one or more right-hand sides; a 1-D b gives a 1-D result.

    With r = L^-1 v, the quadratic form v^T (L L^T)^-1 v is r^T r.
    """
    b = np.asarray(b, dtype=np.float64)
    vector_input = b.ndim == 1
    if vector_input:
        b = b[:, None]
    if b.ndim != 2 or b.shape[0] != factor.dim:
        raise DimensionMismatch(
            f"rhs has shape {b.shape}, expected ({factor.dim}, k)"
        )
    y = scipy.linalg.solve_triangular(factor.lower, b, lower=True)
    return y[:, 0] if vector_input else y


def solve_psd(factor, b):
    """Solve (L @ L.T) x = b for one or more right-hand sides."""
    y = solve_lower(factor, b)
    return scipy.linalg.solve_triangular(factor.lower.T, y, lower=False)


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


def rng_stream(seed):
    """Deterministic random stream; identical seed gives identical draws."""
    return np.random.Generator(np.random.PCG64(int(seed)))
