import numpy as np
import pytest

from lagp.errors import ConvergenceFailure, DimensionMismatch, NotPositiveDefinite
from lagp.linalg import (
    SYMMETRY_TOL,
    CholeskyFactor,
    check_symmetric,
    cholesky,
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
