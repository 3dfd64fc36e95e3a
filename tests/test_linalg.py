import numpy as np
import pytest
import scipy.linalg

from lagp.errors import ConvergenceFailure, DimensionMismatch, NonFiniteValue, NotPositiveDefinite
from lagp.linalg import (
    PANEL_ROWS,
    SYMMETRY_TOL,
    CholeskyFactor,
    check_symmetric,
    cholesky,
    eigvals_and_squares,
    inverse_lower,
    logdet,
    rng_stream,
    solve_lower,
    solve_psd,
    sym_eig,
)


def random_psd(rng, n, eps=1e-3):
    b = rng.normal(size=(n, n))
    return b @ b.T + eps * np.eye(n)


class TestCholesky:
    def test_identity_no_jitter(self):
        fac = cholesky(np.eye(3))
        assert np.array_equal(fac.lower, np.eye(3))
        assert fac.jitter == 0.0

    def test_two_by_two_reconstruction(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        fac = cholesky(a)
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert np.allclose(fac.lower, expected, atol=1e-12)
        assert np.allclose(fac.lower @ fac.lower.T, a, atol=1e-12)

    def test_indefinite_raises_after_cap(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            cholesky(a)

    def test_near_singular_rescued_by_jitter(self):
        v = np.array([[1.0], [1.0]])
        a = v @ v.T  # rank one
        fac = cholesky(a)
        assert fac.jitter > 0.0
        recon = fac.lower @ fac.lower.T
        assert np.allclose(recon, a + fac.jitter * np.eye(2), atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(DimensionMismatch):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_roundtrip_property(self):
        rng = rng_stream(7)
        for _ in range(100):
            n = int(rng.integers(1, 31))
            a = random_psd(rng, n)
            fac = cholesky(a)
            recon = fac.lower @ fac.lower.T - fac.jitter * np.eye(n)
            rel = np.linalg.norm(recon - a) / np.linalg.norm(a)
            assert rel <= 1e-8

    def test_lapack_factor_contract(self):
        rng = rng_stream(8)
        for n in (1, 2, 7, 40, 150, 300):
            a = random_psd(rng, n, eps=1.0)
            before = a.copy()
            fac = cholesky(a)
            assert np.array_equal(a, before)
            assert fac.dim == n and fac.jitter == 0.0
            assert fac.lower.flags["C_CONTIGUOUS"]
            assert np.all(np.triu(fac.lower, 1) == 0.0)
            oracle = np.linalg.cholesky(a)
            assert np.max(np.abs(fac.lower - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_jittered_input_left_unmodified(self):
        a = np.ones((3, 3))  # rank one: needs jitter
        fac = cholesky(a)
        assert fac.jitter > 0.0
        assert np.array_equal(a, np.ones((3, 3)))
        assert np.all(np.triu(fac.lower, 1) == 0.0)


class TestCholeskyOverwriteA:
    """``cholesky(..., overwrite_a=True)`` factors a writeable C-contiguous float64 matrix in place."""

    @pytest.mark.parametrize("n", [1, 2, PANEL_ROWS + 1])
    def test_in_place_factor_is_a_with_the_copying_bits(self, n):
        a = random_psd(rng_stream(500 + n), n, eps=1.0)
        a = 0.5 * (a + a.T)
        copied = cholesky(a)
        fac = cholesky(a, overwrite_a=True)
        assert fac.lower is a
        assert np.array_equal(fac.lower, copied.lower) and fac.jitter == copied.jitter == 0.0

    @pytest.mark.parametrize("n", [3, 40, PANEL_ROWS + 1])
    def test_jittered_factor_and_jitter_match_the_copying_call(self, n):
        # rank 2: the first attempts fail, each retry rebuilds the matrix from
        # its strict upper triangle and diagonal
        v = rng_stream(600 + n).normal(size=(n, 2))
        a = v @ v.T
        a = 0.5 * (a + a.T)
        copied = cholesky(a)
        fac = cholesky(a, overwrite_a=True)
        assert copied.jitter > 0.0
        assert fac.lower is a
        assert fac.jitter == copied.jitter
        assert np.array_equal(fac.lower, copied.lower)
        assert np.all(np.triu(fac.lower, 1) == 0.0)

    @pytest.mark.parametrize("kind", ["fortran", "int", "read-only", "strided"])
    def test_other_input_is_copied(self, kind):
        base = np.array([[4.0, 2.0, 0.0], [2.0, 3.0, 1.0], [0.0, 1.0, 5.0]])
        wide = np.zeros((3, 6))
        wide[:, ::2] = base
        a = {
            "fortran": np.asfortranarray(base),
            "int": base.astype(np.int64),
            "read-only": base.copy(),
            "strided": wide[:, ::2],
        }[kind]
        if kind == "read-only":
            a.flags.writeable = False
        before = a.copy()
        fac = cholesky(a, overwrite_a=True)
        assert not np.shares_memory(fac.lower, a)
        assert np.array_equal(a, before)
        assert np.array_equal(fac.lower, cholesky(base).lower)

    def test_indefinite_raises_in_place(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), overwrite_a=True)


class TestCheckSymmetric:
    @pytest.mark.parametrize("scale", [1.0, 4.0])
    def test_threshold_is_relative_to_largest_entry(self, scale):
        # with max|a| = scale (at least 1), an asymmetry of exactly
        # SYMMETRY_TOL * scale passes and the next float above it fails
        limit = SYMMETRY_TOL * scale
        for sign in (1.0, -1.0):
            inside = np.array([[-scale, sign * limit], [0.0, 0.5]])
            assert check_symmetric(inside) is not None
            outside = np.array([[-scale, sign * np.nextafter(limit, 1.0)], [0.0, 0.5]])
            with pytest.raises(DimensionMismatch):
                check_symmetric(outside)


    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_threshold_holds_in_every_tile(self, sign):
        # n = 600 spans three tiles per side: an asymmetry in the last
        # off-diagonal tile is measured exactly as in a 2 x 2 matrix
        n = 600
        limit = SYMMETRY_TOL * 4.0
        for i, j in ((n - 1, 3), (3, n - 1), (PANEL_ROWS, PANEL_ROWS - 1), (1, 0)):
            a = np.eye(n)
            a[0, 0] = -4.0
            a[i, j] = sign * limit
            assert check_symmetric(a) is a
            a[i, j] = sign * np.nextafter(limit, 1.0)
            with pytest.raises(DimensionMismatch):
                check_symmetric(a)


def well_conditioned_factor(rng, n):
    b = rng.normal(size=(n, n))
    return cholesky(b @ b.T / n + np.eye(n))


def rel_err(x, ref):
    return np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), 1e-300) if ref.size else 0.0


class TestPanelSolves:
    """The blocked solves against scipy's triangular solve, across the panel edges."""

    @pytest.mark.parametrize("n", [1, PANEL_ROWS - 1, PANEL_ROWS, PANEL_ROWS + 1, 600])
    @pytest.mark.parametrize("width", [0, 1, 7, None], ids=["w0", "w1", "w7", "vector"])
    def test_matches_scipy_oracle(self, n, width):
        rng = rng_stream(100 + n)
        fac = well_conditioned_factor(rng, n)
        b = rng.normal(size=(n,) if width is None else (n, width))
        before = b.copy()
        forward = scipy.linalg.solve_triangular(fac.lower, b, lower=True)
        both = scipy.linalg.solve_triangular(fac.lower.T, forward, lower=False)
        r, x = solve_lower(fac, b), solve_psd(fac, b)
        assert np.array_equal(b, before)
        assert r.shape == x.shape == b.shape
        assert rel_err(r, forward) <= 1e-12
        assert rel_err(x, both) <= 1e-12
        if b.size:
            residual = fac.lower @ (fac.lower.T @ x) - b
            assert np.max(np.abs(residual)) <= 1e-10 * (1.0 + np.max(np.abs(b)))

    def test_reads_only_the_lower_triangle(self):
        rng = rng_stream(14)
        fac = well_conditioned_factor(rng, 600)
        junk = CholeskyFactor(lower=fac.lower + np.triu(rng.normal(size=(600, 600)), 1), dim=600)
        b = rng.normal(size=(600, 3))
        assert np.array_equal(solve_lower(junk, b), solve_lower(fac, b))
        assert np.array_equal(solve_psd(junk, b), solve_psd(fac, b))
        assert np.array_equal(inverse_lower(junk), inverse_lower(fac))

    @pytest.mark.parametrize("n", [1, PANEL_ROWS + 1, 510])
    def test_inverse_lower(self, n):
        fac = well_conditioned_factor(rng_stream(300 + n), n)
        inv = inverse_lower(fac)
        assert inv.flags["C_CONTIGUOUS"]
        assert np.all(np.triu(inv, 1) == 0.0)
        assert rel_err(inv, scipy.linalg.solve_triangular(fac.lower, np.eye(n), lower=True)) <= 1e-12

    @pytest.mark.parametrize("row", [0, 5, 599])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rhs_raises(self, row, value):
        fac = well_conditioned_factor(rng_stream(15), 600)
        b = np.ones((600, 2))
        b[row, 1] = value
        for solve in (solve_lower, solve_psd):
            with pytest.raises(NonFiniteValue):
                solve(fac, b)

    @pytest.mark.parametrize("pivot", [0, 3, PANEL_ROWS + 3])
    def test_zero_pivot_raises(self, pivot):
        lower = well_conditioned_factor(rng_stream(16), 300).lower.copy()
        lower[pivot, pivot] = 0.0
        fac = CholeskyFactor(lower=lower, dim=300)
        for solve in (solve_lower, solve_psd):
            with pytest.raises(NotPositiveDefinite):
                solve(fac, np.ones((300, 2)))
        with pytest.raises(NotPositiveDefinite):
            inverse_lower(fac)


class TestOverwriteB:
    """``solve_lower(..., overwrite_b=True)`` solves a writeable C-contiguous float64 matrix in place and copies any other b."""

    @pytest.mark.parametrize("n", [1, PANEL_ROWS + 1, 600])
    def test_in_place_returns_b_with_the_copying_bits(self, n):
        rng = rng_stream(400 + n)
        fac = well_conditioned_factor(rng, n)
        b = rng.normal(size=(n, 5))
        copied = solve_lower(fac, b)
        out = solve_lower(fac, b, overwrite_b=True)
        assert out is b
        assert np.array_equal(out, copied)

    @pytest.mark.parametrize("kind", ["vector", "fortran", "int", "read-only", "strided"])
    def test_other_rhs_is_copied(self, kind):
        rng = rng_stream(17)
        fac = well_conditioned_factor(rng, 300)
        base = rng.normal(size=(300, 6))
        b = {
            "vector": base[:, 0].copy(),
            "fortran": np.asfortranarray(base),
            "int": np.rint(10.0 * base).astype(np.int64),
            "read-only": base.copy(),
            "strided": base[:, ::2],
        }[kind]
        if kind == "read-only":
            b.flags.writeable = False
        before = b.copy()
        out = solve_lower(fac, b, overwrite_b=True)
        assert out is not b and not np.shares_memory(out, b)
        assert np.array_equal(b, before)
        assert np.array_equal(out, solve_lower(fac, b))


class TestSolvePsd:
    def test_identity_factor(self):
        fac = CholeskyFactor(lower=np.eye(4), dim=4)
        b = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(solve_psd(fac, b), b)

    def test_two_by_two(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        x = solve_psd(cholesky(a), np.array([[1.0], [0.0]]))
        assert np.allclose(x, [[0.375], [-0.25]], atol=1e-12)
        assert np.allclose(a @ x, [[1.0], [0.0]], atol=1e-12)

    def test_dimension_mismatch(self):
        fac = cholesky(np.eye(3))
        with pytest.raises(DimensionMismatch):
            solve_psd(fac, np.ones((4, 1)))

    def test_residual_property(self):
        rng = rng_stream(11)
        for _ in range(100):
            n = int(rng.integers(1, 31))
            a = random_psd(rng, n)
            b = rng.normal(size=(n, 2))
            x = solve_psd(cholesky(a), b)
            resid = np.max(np.abs(a @ x - b))
            assert resid <= 1e-8 * (1.0 + np.max(np.abs(b)))

    def test_vector_rhs(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        x = solve_psd(cholesky(a), np.array([1.0, 0.0]))
        assert x.shape == (2,)
        assert np.allclose(x, [0.375, -0.25], atol=1e-12)


class TestSolveLower:
    def test_lower_times_result_is_rhs(self):
        rng = rng_stream(12)
        for _ in range(100):
            n = int(rng.integers(1, 31))
            fac = cholesky(random_psd(rng, n))
            b = rng.normal(size=(n, 3))
            r = solve_lower(fac, b)
            assert r.shape == (n, 3)
            assert np.max(np.abs(fac.lower @ r - b)) <= 1e-10 * (1.0 + np.max(np.abs(b)))

    def test_quadratic_form(self):
        rng = rng_stream(13)
        a = random_psd(rng, 6)
        v = rng.normal(size=(6, 2))
        fac = cholesky(a)
        r = solve_lower(fac, v)
        assert np.allclose(r.T @ r, v.T @ solve_psd(fac, v), rtol=1e-12, atol=0.0)

    def test_vector_rhs(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        fac = cholesky(a)
        r = solve_lower(fac, np.array([1.0, 0.0]))
        assert r.shape == (2,)
        assert np.allclose(r, [0.5, -0.5 / np.sqrt(2.0)], atol=1e-12)
        assert np.array_equal(r, solve_lower(fac, np.array([[1.0], [0.0]]))[:, 0])

    def test_dimension_mismatch(self):
        fac = cholesky(np.eye(3))
        for b in (np.ones((4, 1)), np.ones(4), np.ones((3, 1, 1))):
            with pytest.raises(DimensionMismatch):
                solve_lower(fac, b)


class TestSymEig:
    def test_diagonal(self):
        out = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(out.values, [3.0, 1.0])
        assert np.allclose(np.abs(out.vectors), np.eye(2), atol=1e-12)

    def test_two_by_two_hand_check(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-t)^2 - 1 = 0
        out = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(out.values, [3.0, 1.0], atol=1e-12)

    def test_scalar(self):
        out = sym_eig(np.array([[5.0]]))
        assert np.allclose(out.values, [5.0])

    def test_reconstruction_property(self):
        rng = rng_stream(13)
        for _ in range(100):
            n = int(rng.integers(1, 31))
            b = rng.normal(size=(n, n))
            a = 0.5 * (b + b.T)
            out = sym_eig(a)
            recon = (out.vectors * out.values) @ out.vectors.T
            assert np.linalg.norm(recon - a) <= 1e-6
            assert np.allclose(out.vectors.T @ out.vectors, np.eye(n), atol=1e-8)
            assert np.all(np.diff(out.values) <= 1e-12)

    def test_logdet_matches_slogdet(self):
        rng = rng_stream(3)
        a = random_psd(rng, 6)
        assert np.isclose(logdet(cholesky(a)), np.linalg.slogdet(a)[1], atol=1e-9)


def descending_eig(a):
    values, vectors = np.linalg.eigh(a)
    return values[::-1], vectors[:, ::-1]


def assert_matches_eigh(a, r, values, squares, distinct=None):
    """Eigenvalues within 1e-13 of max|lambda| of eigvalsh's, squares within 1e-12 |r|^2 of eigh's.

    Squares are compared one by one where the first ``distinct``
    eigenvalues (all when None) are apart, and as one sum over the rest,
    whose eigenvectors are not unique.
    """
    n = a.shape[0]
    reference, vectors = descending_eig(a)
    scale = max(1.0, float(np.max(np.abs(reference))))
    r2 = float(r @ r)
    assert values.shape == squares.shape == (n,)
    assert np.max(np.abs(values - np.linalg.eigvalsh(a)[::-1])) <= 1e-13 * scale
    expected = (vectors.T @ r) ** 2
    m = n if distinct is None else distinct
    assert np.all(np.abs(squares[:m] - expected[:m]) <= 1e-12 * r2)
    assert abs(squares[m:].sum() - expected[m:].sum()) <= 1e-12 * r2
    assert np.all(squares >= 0.0)
    assert abs(squares.sum() - r2) <= 1e-12 * r2


class TestEigvalsAndSquares:
    """``eigvals_and_squares`` against ``np.linalg.eigvalsh`` and ``eigh``, without forming the eigenvectors."""

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 300])
    def test_matches_eigh(self, n):
        # n = 1 has no reflectors; 300 reaches the blocked reduction
        rng = rng_stream(700 + n)
        b = rng.normal(size=(n, n))
        a = 0.5 * (b + b.T)
        r = rng.normal(size=n)
        values, squares = eigvals_and_squares(a, r)
        assert np.all(np.diff(values) <= 0.0)
        assert_matches_eigh(a, r, values, squares)

    def test_diagonal(self):
        d = np.array([0.5, 3.0, -1.0, 2.0])
        r = np.array([1.0, -2.0, 3.0, 0.25])
        values, squares = eigvals_and_squares(np.diag(d), r)
        order = np.argsort(d)[::-1]
        assert np.array_equal(values, d[order])
        assert np.allclose(squares, (r**2)[order], rtol=0.0, atol=1e-15 * float(r @ r))

    def test_rank_deficient_gram(self):
        # a rank-5 Gram of 120 points: rounding leaves some of its 115 null
        # eigenvalues below zero
        rng = rng_stream(71)
        j = rng.normal(size=(120, 5))
        a = j @ j.T
        a = 0.5 * (a + a.T)
        r = rng.normal(size=120)
        values, squares = eigvals_and_squares(a, r)
        assert np.any(values < 0.0)
        assert_matches_eigh(a, r, values, squares, distinct=5)

    def test_zero_vector(self):
        a = random_psd(rng_stream(72), 10)
        values, squares = eigvals_and_squares(0.5 * (a + a.T), np.zeros(10))
        assert np.array_equal(squares, np.zeros(10))
        assert np.max(np.abs(values - np.linalg.eigvalsh(0.5 * (a + a.T))[::-1])) <= 1e-13 * np.max(values)

    def test_input_left_unmodified(self):
        rng = rng_stream(73)
        a = random_psd(rng, 40)
        a = 0.5 * (a + a.T)
        r = rng.normal(size=40)
        before, r_before = a.copy(), r.copy()
        eigvals_and_squares(a, r)
        assert np.array_equal(a, before) and np.array_equal(r, r_before)

    @pytest.mark.parametrize("where", ["matrix", "vector"])
    def test_non_finite_raises(self, where):
        a, r = np.eye(3), np.ones(3)
        if where == "matrix":
            a[1, 1] = np.nan
        else:
            r[2] = np.inf
        with pytest.raises(NonFiniteValue):
            eigvals_and_squares(a, r)

    @pytest.mark.parametrize(
        "a, r",
        [
            (np.ones((2, 3)), np.ones(2)),
            (np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2)),
            (np.eye(3), np.ones(2)),
            (np.eye(3), np.ones((3, 1))),
            (np.zeros((0, 0)), np.zeros(0)),
        ],
        ids=["non-square", "asymmetric", "short-vector", "column-vector", "empty"],
    )
    def test_bad_shapes_raise(self, a, r):
        with pytest.raises(DimensionMismatch):
            eigvals_and_squares(a, r)


class TestRngStream:
    def test_determinism(self):
        a = rng_stream(0).normal(size=100)
        b = rng_stream(0).normal(size=100)
        assert np.array_equal(a, b)

    def test_normal_mean(self):
        draws = rng_stream(42).normal(size=100_000)
        assert abs(draws.mean()) < 0.02

    def test_uniform_mean(self):
        draws = rng_stream(42).uniform(size=100_000)
        assert abs(draws.mean() - 0.5) < 0.006

    def test_different_seeds_differ(self):
        assert not np.array_equal(rng_stream(0).normal(size=10), rng_stream(1).normal(size=10))
