import sys
import tracemalloc
import weakref
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from lagp import ella, kernel, linalg, lla, valla
from lagp.errors import CapExceeded, DimensionMismatch, NonFiniteValue
from lagp.kernel import KernelContext, kernel_diag_blocks
from lagp.linalg import cholesky, logdet, rng_stream, solve_lower, solve_psd
from lagp.lla import (
    GaussianPredictive,
    LikelihoodModel,
    MapState,
    curvature_roots,
    fit_diag,
    fit_exact,
    fit_last_layer,
    gram_blocks,
    grid_search_hyperparameters,
    last_layer_features,
    softmax,
    whiten,
)
from lagp import nn
from lagp.nn import MlpArchitecture, MlpNetwork, as_inputs, forward
from lagp.ella import ella_fit
from lagp.serialize import load_state, save_state
from lagp.valla import TrainSchedule, _capacity_factor, fit_valla, objective_gradient

from test_ella import features
from test_kernel import dense_covariances, dense_ggn, gram_matrix, jacobian, random_ctx
from test_valla import make_state


def two_solve_blocks(prior, v, factor):
    """Oracle: blocks prior[i] - v_i^T (L L^T)^-1 v_i from both triangular solves, symmetrized.

    v_i is the (q, C) column block of point i in the point-major (q, N*C) v.
    """
    n, c, _ = prior.shape
    q = v.shape[0]
    w = solve_psd(factor, v)
    cov = prior - v.reshape(q, n, c).transpose(1, 2, 0) @ w.reshape(q, n, c).transpose(1, 0, 2)
    return 0.5 * (cov + cov.transpose(0, 2, 1))


def last_layer_jacobian(net, x):
    """Oracle: (C, (width+1)*C) Jacobian of one input w.r.t. the final layer's parameters only.

    Column ordering matches the checkpoint layout of the final layer:
    weight (i, j) at i*C + j, then the C bias entries, which together
    equal the feature index i paired with class j.
    """
    phi = last_layer_features(forward(net, as_inputs(x, net.arch.input_dim)))[0]
    c = net.arch.output_dim
    jac = np.zeros((c, phi.shape[0] * c))
    for o in range(c):
        jac[o, o :: c] = phi
    return jac


def curvature(lik, g):
    """The curvature block B B^T at one output g, from its closed-form root."""
    b = curvature_roots(lik, np.asarray(g, dtype=np.float64)[None, :])[0]
    return b @ b.T


class TestLambdaOf:
    """The curvature block Lambda, read as B B^T from ``curvature_roots``."""

    def test_gaussian_is_inverse_noise(self):
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.5)
        assert np.allclose(curvature(lik, np.zeros(1)), [[2.0]])

    def test_uniform_softmax(self):
        lik = LikelihoodModel(kind="categorical")
        lam = curvature(lik, np.zeros(3))
        expected = np.eye(3) / 3.0 - np.ones((3, 3)) / 9.0
        assert np.allclose(lam, expected, atol=1e-12)

    def test_matches_fd_hessian_of_log_softmax(self):
        rng = rng_stream(0)
        lik = LikelihoodModel(kind="categorical")
        g = rng.normal(size=4)
        lam = curvature(lik, g)
        h = 1e-4
        label = 2

        def f(v):
            return -np.log(softmax(v)[label])

        for a in range(4):
            for b in range(4):
                ea, eb = np.zeros(4), np.zeros(4)
                ea[a] = h
                eb[b] = h
                fd = (f(g + ea + eb) - f(g + ea - eb) - f(g - ea + eb) + f(g - ea - eb)) / (4 * h * h)
                assert abs(fd - lam[a, b]) <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 4),
        st.integers(1, 6),
        st.sampled_from([None, 0, -1]),
        st.floats(0.0, 60.0),
        st.integers(0, 2**32 - 1),
    )
    def test_roots_have_rank_columns(self, n, c, dominant, lead, seed):
        # K = C - 1 categorical columns, K = C Gaussian ones; the dominant
        # class (first or last), when set, takes p -> 1 as its lead grows
        g = rng_stream(seed).normal(scale=3.0, size=(n, c))
        if dominant is not None:
            g[:, dominant] += lead
        roots = curvature_roots(LikelihoodModel(kind="categorical"), g)
        assert roots.shape == (n, c, c - 1)
        p = softmax(g)
        lam = p[:, :, None] * np.eye(c) - p[:, :, None] * p[:, None, :]
        if n:
            assert np.max(np.abs(roots @ roots.transpose(0, 2, 1) - lam)) <= 1e-14
        gauss = curvature_roots(LikelihoodModel(kind="gaussian", noise_variance=0.3), g)
        assert gauss.shape == (n, c, c)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=6), st.floats(1e-4, 1e2))
    def test_roots_reproduce_curvature(self, logits, noise):
        g = np.array(logits)
        c = g.shape[0]
        p = softmax(g)
        lam = curvature(LikelihoodModel(kind="categorical"), g)
        assert np.max(np.abs(lam - (np.diag(p) - np.outer(p, p)))) <= 1e-14
        lam = curvature(LikelihoodModel(kind="gaussian", noise_variance=noise), g)
        # relative to the entries of I / noise, which reach 1e4
        assert np.max(np.abs(lam - np.eye(c) / noise)) <= 1e-14 * max(1.0, 1.0 / noise)


class TestFitExact:
    def test_empty_data_returns_prior(self):
        rng = rng_stream(1)
        ctx = random_ctx(rng, 2, [4], 2, log_prior_variance=0.2)
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.3)
        state = fit_exact(ctx, lik, np.zeros((0, 2)))
        x_star = rng.normal(size=2)
        pred = state.predict(x_star)[0]
        assert np.allclose(pred.covariance, gram_matrix(ctx, x_star, x_star), atol=1e-12)

    def test_huge_noise_recovers_prior(self):
        rng = rng_stream(2)
        ctx = random_ctx(rng, 1, [5], 1)
        x = rng.normal(size=(6, 1))
        y = rng.normal(size=(6, 1))
        lik = LikelihoodModel(kind="gaussian", noise_variance=1e9)
        state = fit_exact(ctx, lik, x)
        x_star = rng.normal(size=1)
        pred = state.predict(x_star)[0]
        prior = gram_matrix(ctx, x_star, x_star)
        assert np.max(np.abs(pred.covariance - prior)) <= 1e-6 * np.max(np.abs(prior))

    def test_cap_enforced(self):
        rng = rng_stream(3)
        ctx = random_ctx(rng, 1, [2], 1)
        with pytest.raises(CapExceeded):
            fit_exact(ctx, LikelihoodModel(kind="gaussian", noise_variance=1.0), np.zeros((11, 1)), cap=10)

    def test_interpolation_variance_vanishes_with_noise(self):
        rng = rng_stream(4)
        ctx = random_ctx(rng, 1, [6], 1)
        x = rng.normal(size=(5, 1))
        y = rng.normal(size=(5, 1))
        lik = LikelihoodModel(kind="gaussian", noise_variance=1e-10)
        state = fit_exact(ctx, lik, x)
        pred = state.predict(x[2])[0]
        assert pred.covariance[0, 0] <= 1e-6

    def test_posterior_deflation(self):
        rng = rng_stream(5)
        ctx = random_ctx(rng, 2, [5], 3)
        x = rng.normal(size=(6, 2))
        lik = LikelihoodModel(kind="categorical")
        state = fit_exact(ctx, lik, x)
        for _ in range(10):
            x_star = rng.normal(size=2)
            post = np.diag(state.predict(x_star)[0].covariance)
            prior = np.diag(gram_matrix(ctx, x_star, x_star))
            assert np.all(post <= prior + 1e-10)

    def test_query_chunks_match_one_cross_kernel(self, monkeypatch):
        rng = rng_stream(7)
        ctx = random_ctx(rng, 2, [4], 2)
        state = fit_exact(ctx, LikelihoodModel(kind="categorical"), rng.normal(size=(5, 2)))
        chunk = 3  # queries per block with 5 training points, C = 2 and K = C - 1 = 1
        monkeypatch.setattr(lla, "PREDICT_BLOCK_FLOATS", chunk * 5 * 1 * 2)
        x_star = rng.normal(size=(chunk + 1, 2))
        v = whiten(state.sqrt_lambda, gram_matrix(ctx, state.train_inputs, x_star))
        whole = gram_blocks(solve_lower(state.q_factor, v), 2, kernel_diag_blocks(ctx, x_star))
        pred = state.predict(x_star)
        assert np.array_equal(pred.mean, forward(ctx.net, x_star).output)
        assert np.max(np.abs(pred.covariance - whole)) <= 1e-12 * np.max(np.abs(whole))

    def test_mean_is_forward_pass_bitwise(self):
        rng = rng_stream(6)
        ctx = random_ctx(rng, 2, [4], 2)
        x = rng.normal(size=(4, 2))
        state = fit_exact(ctx, LikelihoodModel(kind="categorical"), x)
        x_star = rng.normal(size=(3, 2))
        preds = state.predict(x_star)
        outputs = forward(ctx.net, x_star).output
        for i, p in enumerate(preds):
            assert np.array_equal(p.mean, outputs[i])

    def test_fit_holds_one_block(self):
        # N*K = 900: Q is factored in place, so beyond Q the fit holds only
        # gram's panel scratch and a panel's gains, not a second block
        rng = rng_stream(12)
        ctx = random_ctx(rng, 2, [6], 4)
        x = rng.normal(size=(300, 2))
        lik = LikelihoodModel(kind="categorical")
        tracemalloc.start()
        try:
            state = fit_exact(ctx, lik, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = state.q_factor.lower.nbytes
        slack = 2 * 8 * kernel.PANEL_FLOATS + 2**16
        assert block == 8 * 900**2 and slack < block
        assert peak <= block + slack

    def test_in_place_factor_and_state_bytes_match_the_copying_cholesky(self, tmp_path):
        rng = rng_stream(13)
        ctx = random_ctx(rng, 2, [5], 3, log_prior_variance=-0.4)
        x = rng.normal(size=(90, 2))
        lik = LikelihoodModel(kind="categorical")
        state = fit_exact(ctx, lik, x)
        roots = curvature_roots(lik, forward(ctx.net, x).output)
        seed = np.sqrt(ctx.prior_variance) * roots.transpose(0, 2, 1)
        walk = list(nn.layer_walk(ctx.net, forward(ctx.net, x), seed))
        q = kernel.gram(walk, walk).reshape(180, 180)
        q.flat[::181] += 1.0
        copied = cholesky(q)
        assert np.array_equal(state.q_factor.lower, copied.lower)
        save_state(tmp_path / "in_place.bin", state)
        save_state(tmp_path / "copied.bin", replace(state, q_factor=copied))
        assert (tmp_path / "in_place.bin").read_bytes() == (tmp_path / "copied.bin").read_bytes()

    def test_one_class_categorical_keeps_the_prior(self, tmp_path):
        # C = 1: the softmax curvature is zero, so its roots have K = 0 columns
        rng = rng_stream(11)
        ctx = random_ctx(rng, 2, [4], 1, log_prior_variance=0.1)
        lik = LikelihoodModel(kind="categorical")
        x, x_star = rng.normal(size=(5, 2)), rng.normal(size=(3, 2))
        state = fit_exact(ctx, lik, x)
        assert state.q_factor is None and state.sqrt_lambda.shape == (5, 1, 0)
        prior = kernel_diag_blocks(ctx, x_star)
        assert np.array_equal(state.predict(x_star).covariance, prior)
        save_state(tmp_path / "one.bin", state)
        loaded, _ = load_state(tmp_path / "one.bin")
        assert np.array_equal(loaded.predict(x_star).covariance, prior)
        assert_close_relative(fit_diag(ctx, lik, x).predict(x_star).covariance, prior)
        assert_close_relative(dense_covariances(ctx.net, dense_ggn(ctx, lik, x), x_star), prior)
        assert fit_last_layer(ctx, lik, x).predict(x_star).covariance.shape == (3, 1, 1)
        assert ella_fit(ctx, lik, x, m=3, k=None, seed=0).predict(x_star).covariance.shape == (3, 1, 1)


def assert_matches_oracle(cov, oracle):
    """Symmetric blocks within 1e-12 of the oracle, relative to its largest entry."""
    assert cov.shape == oracle.shape
    assert np.array_equal(cov, cov.transpose(0, 2, 1))
    assert np.max(np.abs(cov - oracle)) <= 1e-12 * np.max(np.abs(oracle))


class TestOneSolveForm:
    """Exact, VaLLA and ELLA covariances from r = L^-1 v against the two-solve oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.integers(1, 6), max_size=2),
        st.integers(1, 6),
        st.sampled_from(["gaussian", "categorical"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_two_solve_oracle(self, d, c, hidden, n_query, kind, seed):
        rng = rng_stream(seed)
        ctx = random_ctx(rng, d, hidden, c, log_prior_variance=float(rng.normal(scale=0.5)))
        lik = LikelihoodModel(kind=kind, noise_variance=0.3)
        x = rng.normal(size=(5, d))
        x_star = rng.normal(size=(n_query, d))

        exact = fit_exact(ctx, lik, x)
        oracle = kernel_diag_blocks(ctx, x_star)
        if exact.q_factor is not None:  # None for one class: the categorical curvature is zero
            v = whiten(exact.sqrt_lambda, gram_matrix(ctx, x, x_star))
            oracle = two_solve_blocks(oracle, v, exact.q_factor)
        assert_matches_oracle(exact.predict(x_star).covariance, oracle)

        valla_state = make_state(rng, ctx, m=3, kind=kind)
        scaled = valla_state.ctx
        z = valla_state.inducing
        t = valla_state.a_factor.T @ gram_matrix(scaled, z, x_star)
        h_factor = _capacity_factor(valla_state.a_factor, gram_matrix(scaled, z, z))[1]
        oracle = two_solve_blocks(kernel_diag_blocks(scaled, x_star), t, h_factor)
        assert_matches_oracle(valla_state.predict(x_star).covariance, oracle)

        ella_state = ella_fit(ctx, lik, x, m=4, k=None, seed=0)
        phi = features(ctx, ella_state, x_star)  # (N, C, K)
        v = phi.reshape(-1, ella_state.feature_dim).T
        oracle = -two_solve_blocks(np.zeros((n_query, c, c)), v, ella_state.precision_factor)
        cov = ella_state.predict(x_star).covariance
        assert_matches_oracle(cov, oracle)
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12 * np.max(np.abs(cov))


class TestWeightSpaceEquivalence:
    @pytest.mark.parametrize("kind", ["gaussian", "categorical"])
    def test_function_space_matches_weight_space(self, kind):
        rng = rng_stream(7)
        for _ in range(5):
            c = int(rng.integers(1, 4))
            ctx = random_ctx(rng, 2, [3], c, log_prior_variance=float(rng.normal(scale=0.3)))
            assert ctx.net.param_count <= 40
            x = rng.normal(size=(8, 2))
            y = rng.normal(size=(8, c)) if kind == "gaussian" else None
            lik = LikelihoodModel(kind=kind, noise_variance=0.4)
            exact = fit_exact(ctx, lik, x)
            precision = dense_ggn(ctx, lik, x)
            for _ in range(4):
                x_star = rng.normal(size=(1, 2))
                a = exact.predict(x_star)[0].covariance
                b = dense_covariances(ctx.net, precision, x_star)[0]
                scale = max(1e-12, float(np.max(np.abs(a))))
                assert np.max(np.abs(a - b)) <= 1e-8 * scale

    def test_no_data_weight_space_covariance_is_prior(self):
        rng = rng_stream(8)
        ctx = random_ctx(rng, 2, [3], 1, log_prior_variance=np.log(0.7))
        lik = LikelihoodModel(kind="gaussian", noise_variance=1.0)
        precision = dense_ggn(ctx, lik, np.zeros((0, 2)))
        x_star = rng.normal(size=2)
        cov = dense_covariances(ctx.net, precision, [x_star])[0]
        assert np.allclose(cov, gram_matrix(ctx, x_star, x_star), atol=1e-10)

    @pytest.mark.parametrize("kind", ["gaussian", "categorical"])
    def test_single_point_precision_assembly(self, kind):
        rng = rng_stream(9)
        c = 1 if kind == "gaussian" else 3
        ctx = random_ctx(rng, 2, [], c)
        x = rng.normal(size=(1, 2))
        y = rng.normal(size=(1, 1))
        sigma2, prior = 0.5, 2.0
        lik = LikelihoodModel(kind=kind, noise_variance=sigma2)
        precision = dense_ggn(ctx.with_log_prior_variance(np.log(prior)), lik, x)
        # a network with no hidden layer is linear in its parameters: the
        # row of output o holds x at columns i*C + o, then a 1 at bias o
        j = np.concatenate([np.kron(x[0], np.eye(c)), np.eye(c)], axis=1)
        if kind == "gaussian":
            lam = np.eye(c) / sigma2
        else:
            p = softmax(x[0] @ ctx.net.weights[0] + ctx.net.biases[0])
            lam = np.diag(p) - np.outer(p, p)
        expected = j.T @ lam @ j + np.eye(ctx.net.param_count) / prior
        assert np.allclose(precision, expected, atol=1e-12)


class TestDiag:
    def test_matches_full_ggn_diagonal(self):
        rng = rng_stream(11)
        ctx = random_ctx(rng, 2, [3], 2)
        x = rng.normal(size=(5, 2))
        lik = LikelihoodModel(kind="categorical")
        ctx = ctx.with_log_prior_variance(np.log(1.5))
        full = dense_ggn(ctx, lik, x)
        diag = fit_diag(ctx, lik, x)
        assert np.max(np.abs(np.diag(full) - diag.precision_diag)) <= 1e-10

    def test_equals_weight_space_when_ggn_diagonal(self):
        # one data point at x = 0 makes the linear-model GGN exactly diagonal
        rng = rng_stream(12)
        arch = MlpArchitecture(1, (), 1)
        net = MlpNetwork(arch=arch, weights=(rng.normal(size=(1, 1)),), biases=(rng.normal(size=1),))
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.3)
        x = np.zeros((1, 1))
        y = rng.normal(size=(1, 1))
        ctx = KernelContext(net=net, log_prior_variance=np.log(0.8))
        d = fit_diag(ctx, lik, x)
        precision = dense_ggn(ctx, lik, x)
        for _ in range(5):
            x_star = rng.normal(size=1)
            assert np.allclose(
                d.predict(x_star)[0].covariance,
                dense_covariances(net, precision, [x_star])[0],
                atol=1e-12,
            )

    def test_variance_nonnegative(self):
        rng = rng_stream(13)
        ctx = random_ctx(rng, 3, [6], 2)
        x = rng.normal(size=(10, 3))
        diag = fit_diag(ctx, LikelihoodModel(kind="categorical"), x)
        for _ in range(20):
            pred = diag.predict(rng.normal(size=3))[0]
            assert np.all(np.diag(pred.covariance) >= 0)

    def test_overflowing_covariance_raises_non_finite_value(self):
        # a denormal precision is finite and positive, so the state passes its
        # check, but its inverse overflows; predict reports it without warnings
        rng = rng_stream(14)
        ctx = random_ctx(rng, 2, [4], 2)
        diag = fit_diag(ctx, LikelihoodModel(kind="gaussian", noise_variance=0.1), rng.normal(size=(5, 2)))
        tiny = replace(diag, precision_diag=np.full_like(diag.precision_diag, 1e-320))
        tiny.check()
        with pytest.raises(NonFiniteValue, match="lla-diag state predicted NaN or Inf covariances"):
            tiny.predict(rng.normal(size=(3, 2)))


class TestLastLayer:
    def test_single_layer_network_equals_weight_space(self):
        rng = rng_stream(14)
        ctx = random_ctx(rng, 3, [], 2)
        x = rng.normal(size=(6, 3))
        lik = LikelihoodModel(kind="categorical")
        ctx = ctx.with_log_prior_variance(np.log(1.2))
        ll = fit_last_layer(ctx, lik, x)
        precision = dense_ggn(ctx, lik, x)
        for _ in range(5):
            x_star = rng.normal(size=3)
            a = ll.predict(x_star)[0].covariance
            b = dense_covariances(ctx.net, precision, [x_star])[0]
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_jacobian_equals_explicit_slice(self):
        rng = rng_stream(15)
        ctx = random_ctx(rng, 2, [4, 3], 2)
        x = rng.normal(size=2)
        full = jacobian(ctx.net, x)
        last_cols = (3 + 1) * 2
        assert np.max(np.abs(last_layer_jacobian(ctx.net, x) - full[:, -last_cols:])) <= 1e-12

    def test_precision_matches_jacobian_slices(self):
        rng = rng_stream(23)
        ctx = random_ctx(rng, 2, [4, 3], 3)
        x = rng.normal(size=(7, 2))
        lik = LikelihoodModel(kind="categorical")
        ll = fit_last_layer(ctx.with_log_prior_variance(np.log(0.9)), lik, x)
        last_cols = (3 + 1) * 3
        expected = np.eye(last_cols) / 0.9
        for xi, g in zip(x, forward(ctx.net, x).output):
            j = jacobian(ctx.net, xi)[:, -last_cols:]
            p = softmax(g)
            expected += j.T @ (np.diag(p) - np.outer(p, p)) @ j
        lower = ll.precision_factor.lower
        assert np.max(np.abs(lower @ lower.T - expected)) <= 1e-12

    def test_no_data_covariance_is_prior(self):
        rng = rng_stream(24)
        ctx = random_ctx(rng, 2, [4], 3)
        ll = fit_last_layer(ctx.with_log_prior_variance(np.log(0.6)), LikelihoodModel(kind="categorical"), np.zeros((0, 2)))
        x_star = rng.normal(size=2)
        j = last_layer_jacobian(ctx.net, x_star)
        assert np.allclose(ll.predict(x_star)[0].covariance, 0.6 * j @ j.T, atol=1e-12)

    def test_mean_unchanged_from_map(self):
        rng = rng_stream(16)
        ctx = random_ctx(rng, 2, [5], 3)
        x = rng.normal(size=(4, 2))
        ll = fit_last_layer(ctx, LikelihoodModel(kind="categorical"), x)
        x_star = rng.normal(size=2)
        pred = ll.predict(x_star)[0]
        assert np.array_equal(pred.mean, forward(ctx.net, x_star[None, :]).output[0])

    def test_query_chunks_match_one_chunk(self, monkeypatch):
        rng = rng_stream(26)
        ctx = random_ctx(rng, 2, [4], 3)
        ll = fit_last_layer(ctx, LikelihoodModel(kind="categorical"), rng.normal(size=(5, 2)))
        x_star = rng.normal(size=(7, 2))
        whole = ll.predict(x_star)
        blocks = []

        def counted(r, c, prior=None):
            blocks.append(r.shape[1] // c)
            return gram_blocks(r, c, prior)

        monkeypatch.setattr(lla, "gram_blocks", counted)
        monkeypatch.setattr(lla, "PREDICT_BLOCK_FLOATS", 3 * (4 + 1) * 3 * 3)  # 3 queries per chunk
        chunked = ll.predict(x_star)
        assert blocks == [3, 3, 1]
        assert np.array_equal(chunked.mean, whole.mean)
        assert np.max(np.abs(chunked.covariance - whole.covariance)) <= 1e-12 * np.max(np.abs(whole.covariance))


def assert_close_relative(got, oracle):
    """Within 1e-12 of the oracle, relative to its largest entry; empty arrays match by shape alone."""
    assert got.shape == oracle.shape
    if oracle.size:
        assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


class TestLayerwise:
    """Diagonal and last-layer LLA from one pass per layer, against explicit Jacobians."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.integers(1, 6), max_size=2),
        st.sampled_from(["gaussian", "categorical"]),
        st.integers(0, 6),
        st.integers(0, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_jacobian_oracles(self, d, c, hidden, kind, n, n_query, seed):
        rng = rng_stream(seed)
        ctx = random_ctx(rng, d, hidden, c)
        lik = LikelihoodModel(kind=kind, noise_variance=0.3)
        ctx = ctx.with_log_prior_variance(rng.normal(scale=0.5))
        x = rng.normal(size=(n, d))
        x_star = rng.normal(size=(n_query, d))

        diag = fit_diag(ctx, lik, x)
        assert_close_relative(diag.precision_diag, np.diag(dense_ggn(ctx, lik, x)))
        pred = diag.predict(x_star)
        jacs = [jacobian(ctx.net, xi) for xi in x_star]
        oracle = np.array([(j / diag.precision_diag) @ j.T for j in jacs])
        assert np.array_equal(pred.mean, forward(ctx.net, x_star).output)
        assert_close_relative(pred.covariance, oracle.reshape(n_query, c, c))

        ll = fit_last_layer(ctx, lik, x)
        pred = ll.predict(x_star)
        jacs = [last_layer_jacobian(ctx.net, xi) for xi in x_star]
        oracle = np.array([j @ solve_psd(ll.precision_factor, j.T) for j in jacs])
        assert np.array_equal(pred.mean, forward(ctx.net, x_star).output)
        assert_close_relative(pred.covariance, oracle.reshape(n_query, c, c))

    def test_kernel_paths_read_layer_walk(self, monkeypatch):
        walked, forwards = [], []
        original_walk, original_forward = nn.layer_walk, nn.forward

        def counted(net, trace, seed=None):
            walked.append(trace.output.shape[0])
            return original_walk(net, trace, seed)

        def counted_forward(net, x):
            forwards.append(np.shape(x)[0])
            return original_forward(net, x)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("lagp"):
                for name, value in list(vars(module).items()):
                    if value is original_walk:
                        monkeypatch.setattr(module, name, counted)
                    elif value is original_forward:
                        monkeypatch.setattr(module, name, counted_forward)
        rng = rng_stream(28)
        ctx = random_ctx(rng, 3, [5, 4], 3)
        lik = LikelihoodModel(kind="categorical")
        x, z = rng.normal(size=(6, 3)), rng.normal(size=(2, 3))
        diag_state = fit_diag(ctx, lik, x)
        paths = {
            "ELLA fit": lambda: ella_fit(ctx, lik, x, m=3, k=None),
            "diagonal": lambda: kernel_diag_blocks(ctx, x),
            "tape": lambda: kernel.kernel_tape(ctx, z, forward(ctx.net, x)),
            "diagonal LLA fit": lambda: fit_diag(ctx, lik, x),
            "diagonal LLA predict": lambda: diag_state.predict(x),
        }
        for name, path in paths.items():
            walked.clear()
            path()
            assert walked, f"the {name} path does not call layer_walk"

        # each fit runs one forward pass over X and walks that same trace
        for fit, walks in ((fit_exact, [6]), (fit_diag, [6]), (fit_last_layer, [])):
            walked.clear()
            forwards.clear()
            fit(ctx, lik, x)
            assert forwards == [6] and walked == walks, f"{fit.__name__} ran {forwards} forward passes"

        # a VaLLA step and a VaLLA prediction each walk [Z; X] once, and
        # the inducing gradient reads the step's tape without walking again
        valla_state = make_state(rng, ctx, m=2, kind="categorical")
        tape = kernel.kernel_tape(ctx, z, forward(ctx.net, x))
        paths = {
            "VaLLA step": (lambda: objective_gradient(valla_state, x, rng.integers(0, 3, size=6), 6), 8),
            "VaLLA predict": (lambda: valla_state.predict(x), 8),
            "VaLLA zero-query predict": (lambda: valla_state.predict(x[:0]), 2),
        }
        for name, (path, rows) in paths.items():
            walked.clear()
            path()
            assert walked == [rows], f"the {name} path walks {walked} rows, not one walk over [Z; X]"
        walked.clear()
        kernel.kernel_input_vjp(ctx, tape, np.ones((8, 3, 2, 3)))
        assert walked == []

        # the exact fit assembles Q from one walk over X; its predictive
        # walks X once and the queries once
        walked.clear()
        exact = fit_exact(ctx, lik, x)
        assert walked == [6]
        walked.clear()
        exact.predict(z)
        assert walked == [6, 2]


class TestInPlacePredictiveSolves:
    """Each predictive solve runs in place on its fresh block, with no walk over the queries alive."""

    def spy_solves(self, monkeypatch, module, refs):
        """Per ``solve_lower`` call of ``module``: (in place, walk arrays in ``refs`` still alive)."""
        calls, original = [], module.solve_lower

        def spied(factor, b, overwrite_b=False):
            alive = sum(ref() is not None for ref in refs)
            out = original(factor, b, overwrite_b=overwrite_b)
            calls.append((overwrite_b and out is b, alive))
            return out

        monkeypatch.setattr(module, "solve_lower", spied)
        return calls

    def test_exact_chunks_drop_their_walk(self, monkeypatch):
        rng = rng_stream(31)
        ctx = random_ctx(rng, 3, [5, 4], 3)
        x, x_star = rng.normal(size=(6, 3)), rng.normal(size=(7, 3))
        state = fit_exact(ctx, LikelihoodModel(kind="categorical"), x)
        monkeypatch.setattr(lla, "PREDICT_BLOCK_FLOATS", 6 * 2 * 3 * 3)  # chunks of 3 queries
        expected = state.predict(x_star).covariance
        refs, original = [], lla.layer_walk

        def query_walk(net, trace, seed=None):
            for step in original(net, trace, seed):
                if seed is None:  # the queries' walks; the training walk is seeded
                    refs.append(weakref.ref(step[2]))
                yield step

        monkeypatch.setattr(lla, "layer_walk", query_walk)
        calls = self.spy_solves(monkeypatch, lla, refs)
        assert np.array_equal(state.predict(x_star).covariance, expected)
        assert calls == [(True, 0)] * 3 and len(refs) == 3 * 3

    def test_valla_releases_the_tape_walk(self, monkeypatch):
        rng = rng_stream(32)
        ctx = random_ctx(rng, 3, [5, 4], 3)
        state = make_state(rng, ctx, m=2, kind="categorical")
        x_star = rng.normal(size=(7, 3))
        expected = state.predict(x_star).covariance
        refs, original = [], valla.kernel_tape

        def tape(ctx, z, trace):
            out = original(ctx, z, trace)
            refs.extend(weakref.ref(arr) for pair in out.walk for arr in pair)
            return out

        monkeypatch.setattr(valla, "kernel_tape", tape)
        calls = self.spy_solves(monkeypatch, valla, refs)
        assert np.array_equal(state.predict(x_star).covariance, expected)
        assert calls == [(True, 0)] and len(refs) == 6
        # a training step's VJP still reads the walk of its own tape
        report, grads = objective_gradient(state, x_star, rng.integers(0, 3, size=7), 7)
        assert calls[1] == (True, 6) and np.all(np.isfinite(grads["inducing"]))

    def test_ella_solves_its_feature_block(self, monkeypatch):
        rng = rng_stream(33)
        ctx = random_ctx(rng, 3, [5, 4], 3)
        x, x_star = rng.normal(size=(8, 3)), rng.normal(size=(7, 3))
        state = ella_fit(ctx, LikelihoodModel(kind="categorical"), x, m=4, k=None)
        expected = state.predict(x_star).covariance
        calls = self.spy_solves(monkeypatch, ella, [])
        assert np.array_equal(state.predict(x_star).covariance, expected)
        assert calls == [(True, 0)]


class TestOneForwardPassPerInputSet:
    """Each query set, training chunk, anchor set and VaLLA batch reaches ``nn.forward`` once per call."""

    @pytest.fixture
    def rows(self, monkeypatch):
        """The row count of every ``nn.forward`` call, in call order."""
        seen, original = [], nn.forward

        def counted(net, x):
            trace = original(net, x)
            seen.append(trace.output.shape[0])
            return trace

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("lagp"):
                for name, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, name, counted)
        return seen

    @pytest.mark.parametrize("kind", ["gaussian", "categorical"])
    def test_rows_per_call(self, rows, monkeypatch, kind):
        rng = rng_stream(29)
        c = 1 if kind == "gaussian" else 3
        ctx = random_ctx(rng, 2, [5, 4], c)
        lik = LikelihoodModel(kind=kind, noise_variance=0.3)
        x, x_star, x_val = rng.normal(size=(6, 2)), rng.normal(size=(7, 2)), rng.normal(size=(5, 2))
        y, y_val = (rng.normal(size=(n, 1)) if c == 1 else rng.integers(0, c, size=n) for n in (6, 5))

        def ran(call, expected, what):
            rows.clear()
            result = call()
            assert rows == expected, f"{what} passed {rows} rows to nn.forward, expected {expected}"
            return result

        states = {
            "map": MapState(ctx=ctx, likelihood=lik),
            "lla_exact": ran(lambda: fit_exact(ctx, lik, x), [6], "fit_exact"),
            "lla_diag": ran(lambda: fit_diag(ctx, lik, x), [6], "fit_diag"),
            "lla_last_layer": ran(lambda: fit_last_layer(ctx, lik, x), [6], "fit_last_layer"),
            "ella": ran(lambda: ella_fit(ctx, lik, x, m=3, k=None, seed=0), [3, 6], "ella_fit"),
            "valla": make_state(rng, ctx, m=2, kind=kind),
        }
        support = {"lla_exact": [6], "ella": [3], "valla": [2]}
        for name, state in states.items():
            ran(lambda: state.predict(x_star), [7] + support.get(name, []), f"{name} predict")

        # a pass of two chunks evaluates the anchors once and each chunk once
        monkeypatch.setattr(ella, "PASS_CHUNK", 4)
        ran(lambda: ella_fit(ctx, lik, x, m=3, k=None, seed=0), [3, 4, 2], "ella_fit in two chunks")

        ran(lambda: objective_gradient(states["valla"], x, y, 6), [6, 2], "a VaLLA step")
        schedule = TrainSchedule(iterations=2, batch_size=4, learning_rate=0.01, validate_every=1)
        ran(lambda: fit_valla(ctx, lik, (x, y), (x_val, y_val), 2, schedule), [4, 2, 5, 2] * 2, "fit_valla")
        if kind == "gaussian":
            ran(lambda: grid_search_hyperparameters(ctx.net, x, y), [6], "the evidence search")


def unit_kernel_and_residuals(net, x, y):
    """The symmetrized unit-prior tangent kernel K and the residuals y - g(X) the search reads."""
    k = gram_matrix(KernelContext(net=net, log_prior_variance=0.0), x, x)
    return 0.5 * (k + k.T), np.asarray(y, dtype=np.float64) - forward(net, x).output.ravel()


def cholesky_log_evidence(k, resid, pv, nv):
    """Oracle: (log N(resid | 0, pv K + nv I), size of its terms), through a Cholesky factor.

    The size is (quadratic form + |log det| + N log 2 pi) / 2, what the
    evidence adds up before its terms cancel.
    """
    n = resid.shape[0]
    factor = cholesky(pv * k + nv * np.eye(n))
    quad, log_det, constant = resid @ solve_psd(factor, resid), logdet(factor), n * np.log(2.0 * np.pi)
    return float(-0.5 * (quad + log_det + constant)), 0.5 * (quad + abs(log_det) + constant)


def evidence(ctx, lik, x, y):
    """log N(y | g(X), kappa(X, X) + noise I) at ctx's prior variance, through a one-point grid."""
    pv = float(np.exp(ctx.log_prior_variance))
    return grid_search_hyperparameters(ctx.net, x, y, prior_grid=[pv], noise_grid=[lik.noise_variance])[2][0][2]


def assert_matches_cholesky_oracle(table, net, x, y):
    """Every row within 1e-9 of the Cholesky oracle, plus what the eigensolver's rounding allows.

    Returns the oracle's evidences and tolerances, row by row. The
    eigenvalues of the search's tridiagonal solver (``dstevd``, as in
    eigh) carry absolute errors near eps * lambda_max; in the terms
    r~^2 / (pv lambda + nv) of K's null space the ratio pv / nv (up to 1e7
    on the default grid) scales them by pv * lambda_max / nv. Both are
    measured against the size of the evidence's terms.
    """
    k, resid = unit_kernel_and_residuals(net, x, y)
    lambda_max = max(float(np.linalg.eigvalsh(k)[-1]), 0.0)
    oracle = []
    for pv, nv, value in table:
        expected, size = cholesky_log_evidence(k, resid, pv, nv)
        tol = (1e-9 + 16 * np.finfo(float).eps * pv * lambda_max / nv) * size
        assert np.isfinite(value)
        assert abs(value - expected) <= tol
        oracle.append((expected, tol))
    return oracle


class TestLogMarginalLikelihood:
    def test_single_point_zero_kernel_limit(self):
        rng = rng_stream(17)
        ctx = random_ctx(rng, 1, [3], 1, log_prior_variance=np.log(1e-300))
        x = rng.normal(size=(1, 1))
        y = np.array([0.7])
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.5)
        value = evidence(ctx, lik, x, y)
        mean = forward(ctx.net, x).output[0, 0]
        expected = scipy.stats.norm.logpdf(0.7, loc=mean, scale=np.sqrt(0.5))
        assert abs(value - expected) <= 1e-9

    def test_matches_dense_mvn_oracle(self):
        rng = rng_stream(18)
        ctx = random_ctx(rng, 2, [4], 1, log_prior_variance=0.4)
        x = rng.normal(size=(7, 2))
        y = rng.normal(size=7)
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.3)
        value = evidence(ctx, lik, x, y)
        mean = forward(ctx.net, x).output.ravel()
        cov = gram_matrix(ctx, x, x) + 0.3 * np.eye(7)
        expected = scipy.stats.multivariate_normal.logpdf(y, mean=mean, cov=cov)
        assert abs(value - expected) <= 1e-8

    def test_adding_perfect_point_increases_evidence(self):
        rng = rng_stream(19)
        ctx = random_ctx(rng, 1, [4], 1)
        x = rng.normal(size=(5, 1))
        y = forward(ctx.net, x).output.ravel() + 0.01 * rng.normal(size=5)
        lik = LikelihoodModel(kind="gaussian", noise_variance=1e-6)
        base = evidence(ctx, lik, x, y)
        x_new = np.vstack([x, rng.normal(size=(1, 1))])
        y_new = np.append(y, forward(ctx.net, x_new[-1:]).output.ravel())
        assert evidence(ctx, lik, x_new, y_new) > base

    def test_categorical_rejected(self):
        ctx = random_ctx(rng_stream(20), 1, [2], 2)
        with pytest.raises(DimensionMismatch):
            evidence(ctx, LikelihoodModel(kind="categorical"), np.zeros((1, 1)), np.zeros(1))


class TestGridSearch:
    def test_recovers_generating_scales(self):
        rng = rng_stream(21)
        ctx = random_ctx(rng, 1, [8], 1)
        x = rng.uniform(-1, 1, size=(40, 1))
        noise = 0.05
        y = forward(ctx.net, x).output.ravel() + noise * rng.normal(size=40)
        pv, nv, table = grid_search_hyperparameters(ctx.net, x, y)
        assert len(table) == 100
        # the selected noise should be within one grid step of the truth
        assert nv <= 0.1

    def test_best_entry_is_argmax_of_table(self):
        rng = rng_stream(22)
        ctx = random_ctx(rng, 1, [3], 1)
        x = rng.normal(size=(10, 1))
        y = rng.normal(size=10)
        pv, nv, table = grid_search_hyperparameters(ctx.net, x, y)
        best_row = max(table, key=lambda r: r[2])
        assert (pv, nv) == (best_row[0], best_row[1])

    @pytest.mark.parametrize(
        "grids",
        [
            {"prior_grid": []},
            {"noise_grid": []},
            {"prior_grid": [1.0, np.nan]},
            {"noise_grid": [np.inf]},
            {"prior_grid": [-np.inf, 1.0]},
            {"prior_grid": [0.0, 1.0]},
            {"noise_grid": [1e-2, 0.0]},
            {"prior_grid": [-1.0]},
            {"noise_grid": [-1e-4]},
            {"prior_grid": [[1.0, 2.0]]},
        ],
    )
    def test_bad_grid_rejected(self, grids):
        ctx = random_ctx(rng_stream(23), 1, [3], 1)
        x = np.linspace(-1.0, 1.0, 6)[:, None]
        with pytest.raises(DimensionMismatch):
            grid_search_hyperparameters(ctx.net, x, np.zeros(6), **grids)

    def test_bad_data_rejected(self):
        ctx = random_ctx(rng_stream(24), 1, [3], 1)
        with pytest.raises(DimensionMismatch):
            grid_search_hyperparameters(ctx.net, np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(DimensionMismatch):
            grid_search_hyperparameters(ctx.net, np.zeros((3, 1)), np.zeros(4))
        with pytest.raises(NonFiniteValue):
            grid_search_hyperparameters(ctx.net, np.zeros((3, 1)), np.array([0.0, np.nan, 1.0]))

    def test_rank_deficient_kernel_matches_cholesky_oracle(self):
        # 24 points through a net of 10 parameters: K has rank 10 at most,
        # and pv / nv = 1e7 is the default grid's worst-conditioned corner
        rng = rng_stream(25)
        ctx = random_ctx(rng, 1, [3], 1)
        x = rng.normal(size=(24, 1))
        y = forward(ctx.net, x).output.ravel() + 0.1 * rng.normal(size=24)
        assert np.linalg.matrix_rank(unit_kernel_and_residuals(ctx.net, x, y)[0]) <= 10
        _, _, table = grid_search_hyperparameters(ctx.net, x, y, prior_grid=[1e3], noise_grid=[1e-4])
        assert_matches_cholesky_oracle(table, ctx.net, x, y)

    def test_extended_precision_reference(self):
        # log det and the quadratic form at 60 digits, from the same float64 K and residuals
        rng = rng_stream(25)
        ctx = random_ctx(rng, 1, [3], 1)
        x = rng.normal(size=(24, 1))
        y = forward(ctx.net, x).output.ravel() + 0.1 * rng.normal(size=24)
        k, resid = unit_kernel_and_residuals(ctx.net, x, y)
        _, _, table = grid_search_hyperparameters(ctx.net, x, y, [1e-3, 1.0, 1e3], [1e-4, 1e-2, 10.0])
        with mpmath.workdps(60):
            kernel, r = mpmath.matrix(k.tolist()), mpmath.matrix(resid.tolist())
            for pv, nv, value in table:
                cov = mpmath.mpf(pv) * kernel + mpmath.mpf(nv) * mpmath.eye(24)
                lower = mpmath.cholesky(cov)
                log_det = 2 * mpmath.fsum(mpmath.log(lower[i, i]) for i in range(24))
                quad = mpmath.fsum(a * b for a, b in zip(r, mpmath.cholesky_solve(cov, r)))
                reference = -(quad + log_det + 24 * mpmath.log(2 * mpmath.pi)) / 2
                assert abs(value - reference) <= 5e-8 * abs(reference)

    def test_blocked_reduction_table_matches_cholesky_oracle(self):
        # N = 300 reaches the blocked tridiagonal reduction, which the
        # property test's N <= 30 never does
        rng = rng_stream(26)
        ctx = random_ctx(rng, 2, [10], 1)
        x = rng.normal(size=(300, 2))
        y = forward(ctx.net, x).output.ravel() + 0.3 * rng.normal(size=300)
        pv, nv, table = grid_search_hyperparameters(ctx.net, x, y)
        oracle = assert_matches_cholesky_oracle(table, ctx.net, x, y)
        best = max(range(len(table)), key=lambda i: oracle[i][0])
        assert (pv, nv) == table[best][:2]

    def test_search_forms_no_eigenvectors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the evidence search must not form eigenvectors")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(linalg, "sym_eig", refuse)
        rng = rng_stream(27)
        ctx = random_ctx(rng, 1, [4], 1)
        x = rng.normal(size=(50, 1))
        y = forward(ctx.net, x).output.ravel() + 0.1 * rng.normal(size=50)
        _, _, table = grid_search_hyperparameters(ctx.net, x, y)
        assert len(table) == 100 and all(np.isfinite(row[2]) for row in table)
        assert not hasattr(lla, "sym_eig")

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.lists(st.integers(1, 6), max_size=2),
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
    )
    def test_spectral_table_matches_cholesky_oracle(self, d, hidden, n, seed):
        rng = rng_stream(seed)
        ctx = random_ctx(rng, d, hidden, 1)
        x = rng.normal(size=(n, d))
        y = forward(ctx.net, x).output.ravel() + rng.normal(size=n)
        pv, nv, table = grid_search_hyperparameters(ctx.net, x, y)
        assert len(table) == 100
        oracle = assert_matches_cholesky_oracle(table, ctx.net, x, y)
        # the oracle's argmax, wherever its top two rows are told apart by more than their tolerances
        order = sorted(range(len(table)), key=lambda i: -oracle[i][0])
        (first, first_tol), (second, second_tol) = oracle[order[0]], oracle[order[1]]
        if first - second > first_tol + second_tol:
            assert (pv, nv) == table[order[0]][:2]
