import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagp.errors import DimensionMismatch
from lagp.kernel import kernel_block_fast, kernel_diag_blocks
from lagp.linalg import cholesky, rng_stream, solve_psd
from lagp.lla import LikelihoodModel, fit_exact
from lagp.nn import forward
from lagp.valla import (
    DualBasisReport,
    TrainSchedule,
    VallaState,
    _data_term,
    fit_valla,
    kmeans_init,
    objective_gradient,
)

from test_kernel import kernel_input_gradient_multi, random_ctx


def optimal_a(ctx, inducing, x, noise_variance):
    """Oracle: closed-form optimum of the correction matrix for Gaussian noise.

    A = (1/noise) K_Z^{-1} K_{Z,X} K_{X,Z} K_Z^{-1}; with the inducing set
    equal to the training inputs this reproduces the exact posterior.
    """
    q = inducing.shape[0] * ctx.net.arch.output_dim
    if x.shape[0] == 0:
        return np.zeros((q, q))
    k_ind = kernel_block_fast(ctx, inducing, inducing).values
    k_ind = 0.5 * (k_ind + k_ind.T)
    k_cross = kernel_block_fast(ctx, inducing, x).values
    w = solve_psd(cholesky(k_ind), k_cross)
    a = w @ w.T / noise_variance
    return 0.5 * (a + a.T)


def a_factor_from_matrix(a):
    """Lower-triangular L with L L^T = A, tolerating singular A."""
    a = 0.5 * (a + a.T)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return cholesky(a).lower


def make_state(rng, ctx, m=4, kind="gaussian", alpha=1.0, lower_scale=0.3, noise=0.25):
    d = ctx.net.arch.input_dim
    c = ctx.net.arch.output_dim
    q = m * c
    inducing = rng.normal(size=(m, d))
    raw = lower_scale * rng.normal(size=(q, q))
    lower = np.tril(raw) + 0.5 * np.eye(q)
    return VallaState(
        ctx=ctx.with_log_prior_variance(rng.normal(scale=0.2)),
        likelihood=LikelihoodModel(kind=kind, noise_variance=noise),
        inducing=inducing,
        a_factor=lower,
        alpha=alpha,
    )


def production_kl(state):
    """The divergence term of the training objective, read from ``objective_gradient`` on one point."""
    x = np.zeros((1, state.ctx.net.arch.input_dim))
    return objective_gradient(state, x, np.zeros(1), 1, compute_inducing_gradient=False)[0].kl_value


class TestPredict:
    def test_zero_correction_returns_prior(self):
        rng = rng_stream(0)
        ctx = random_ctx(rng, 2, [4], 2)
        state = make_state(rng, ctx, m=3)
        state = VallaState(
            ctx=state.ctx,
            likelihood=state.likelihood,
            inducing=state.inducing,
            a_factor=np.zeros_like(state.a_factor),
        )
        x_star = rng.normal(size=2)
        pred = state.predict(x_star)[0]
        assert np.allclose(pred.covariance, kernel_block_fast(state.ctx, x_star, x_star).values, atol=1e-12)

    def test_posterior_diagonal_deflated(self):
        rng = rng_stream(1)
        ctx = random_ctx(rng, 2, [5], 3)
        state = make_state(rng, ctx, m=4, kind="categorical")
        for _ in range(10):
            x_star = rng.normal(size=2)
            prior = kernel_block_fast(state.ctx, x_star, x_star).values
            post = state.predict(x_star)[0].covariance
            assert np.all(np.diag(post) <= np.diag(prior) + 1e-10)

    def test_mean_is_forward_output_bitwise(self):
        rng = rng_stream(2)
        ctx = random_ctx(rng, 3, [4], 2)
        state = make_state(rng, ctx, m=3, kind="categorical")
        xs = rng.normal(size=(6, 3))
        preds = state.predict(xs)
        outputs = forward(ctx.net, xs).output
        for i, p in enumerate(preds):
            assert np.array_equal(p.mean, outputs[i])


class TestOptimalA:
    def test_empty_data_gives_zero(self):
        rng = rng_stream(3)
        ctx = random_ctx(rng, 2, [3], 1)
        a = optimal_a(ctx, rng.normal(size=(4, 2)), np.zeros((0, 2)), 0.5)
        assert np.array_equal(a, np.zeros((4, 4)))

    def test_full_basis_recovers_exact_posterior(self):
        rng = rng_stream(4)
        ctx = random_ctx(rng, 1, [8], 1, log_prior_variance=0.3)
        x = rng.normal(size=(20, 1))
        y = rng.normal(size=(20, 1))
        noise = 0.2
        a = optimal_a(ctx, x, x, noise)
        state = VallaState(
            ctx=ctx,
            likelihood=LikelihoodModel(kind="gaussian", noise_variance=noise),
            inducing=x,
            a_factor=a_factor_from_matrix(a),
        )
        lik = LikelihoodModel(kind="gaussian", noise_variance=noise)
        exact = fit_exact(ctx, lik, x)
        for _ in range(8):
            x_star = rng.normal(size=1)
            ours = state.predict(x_star)[0].covariance
            ref = exact.predict(x_star)[0].covariance
            assert np.max(np.abs(ours - ref)) <= 1e-6

    def test_fd_stationarity_of_evidence_bound(self):
        # at the optimal correction the bound's gradient w.r.t. every raw
        # entry of A vanishes
        rng = rng_stream(5)
        ctx = random_ctx(rng, 1, [5], 1, log_prior_variance=-0.1)
        x = rng.normal(size=(12, 1))
        y = 0.5 * rng.normal(size=12)
        noise = 0.3
        z = x[:6]
        a_opt = optimal_a(ctx, z, x, noise)
        k_ind = kernel_block_fast(ctx, z, z).values
        k_cross = kernel_block_fast(ctx, z, x).values
        k_diag = np.array([kernel_block_fast(ctx, xi, xi).values[0, 0] for xi in x])

        def bound_terms(a_raw):
            # posterior variances and divergence evaluated at a raw
            # (possibly asymmetric) correction matrix, using the
            # inverse-free resolvent a (I + K a)^{-1} throughout
            capacity = np.eye(6) + k_ind @ a_raw
            resolvent = np.linalg.solve(capacity.T, a_raw.T).T
            v = k_diag - np.einsum("qb,qp,pb->b", k_cross, resolvent, k_cross)
            ld = np.linalg.slogdet(capacity)[1]
            kl = 0.5 * ld - 0.5 * np.trace(k_ind @ resolvent)
            return float(v.sum() / (2 * noise) + kl)  # negative bound, constants dropped

        h = 1e-2  # the bound is O(1); entries of the optimum are O(1e4)
        worst = 0.0
        for i in range(6):
            for j in range(6):
                ap, am = a_opt.copy(), a_opt.copy()
                ap[i, j] += h
                am[i, j] -= h
                worst = max(worst, abs(bound_terms(ap) - bound_terms(am)) / (2 * h))
        assert worst <= 1e-4


class TestKlDual:
    def test_zero_factor_gives_zero(self):
        rng = rng_stream(6)
        ctx = random_ctx(rng, 2, [4], 1)
        state = make_state(rng, ctx, m=3)
        state = VallaState(
            ctx=state.ctx,
            likelihood=state.likelihood,
            inducing=state.inducing,
            a_factor=np.zeros_like(state.a_factor),
        )
        assert production_kl(state) == 0.0

    def test_matches_direct_gaussian_kl(self):
        rng = rng_stream(7)
        for trial in range(20):
            c = 1 + trial % 2
            ctx = random_ctx(rng, 2, [4], c)
            state = make_state(rng, ctx, m=3, kind="categorical" if c > 1 else "gaussian")
            dual = production_kl(state)

            k = kernel_block_fast(state.ctx, state.inducing, state.inducing).values
            k = 0.5 * (k + k.T)
            lower = state.a_factor
            q = k.shape[0]
            h = np.eye(q) + lower.T @ k @ lower
            correction = k @ lower @ np.linalg.solve(h, lower.T @ k)
            cov_q = k - correction
            # direct covariance-part KL between N(0, cov_q) and N(0, k)
            k_jittered = k + 1e-10 * np.eye(q)
            solve = np.linalg.solve(k_jittered, cov_q)
            sign_q, ld_q = np.linalg.slogdet(cov_q)
            sign_k, ld_k = np.linalg.slogdet(k_jittered)
            direct = 0.5 * (np.trace(solve) - q + ld_k - ld_q)
            assert abs(dual - direct) <= 1e-8 * max(1.0, abs(direct))

    def test_nonnegative_for_random_states(self):
        rng = rng_stream(8)
        for _ in range(100):
            c = int(rng.integers(1, 3))
            ctx = random_ctx(rng, int(rng.integers(1, 4)), [int(rng.integers(2, 8))], c)
            state = make_state(rng, ctx, m=int(rng.integers(1, 5)), kind="categorical" if c > 1 else "gaussian")
            assert production_kl(state) >= -1e-8

    def test_scaling_factor_increases_logdet_term(self):
        rng = rng_stream(9)
        ctx = random_ctx(rng, 2, [4], 1)
        state = make_state(rng, ctx, m=4)
        scaled_state = VallaState(
            ctx=state.ctx,
            likelihood=state.likelihood,
            inducing=state.inducing,
            a_factor=2.0 * state.a_factor,
        )
        k = kernel_block_fast(state.ctx, state.inducing, state.inducing).values

        def logdet_term(s):
            h = np.eye(4) + s.a_factor.T @ k @ s.a_factor
            return np.linalg.slogdet(h)[1]

        assert logdet_term(scaled_state) > logdet_term(state)
        assert production_kl(scaled_state) > production_kl(state)


class TestAlphaObjective:
    def test_vanishing_variance_reduces_to_log_likelihood(self):
        rng = rng_stream(10)
        ctx = random_ctx(rng, 1, [4], 1)
        state = make_state(rng, ctx, m=3, noise=0.4)
        state = VallaState(
            ctx=state.ctx.with_log_prior_variance(np.log(1e-300)),
            likelihood=state.likelihood,
            inducing=state.inducing,
            a_factor=state.a_factor,
        )
        x = rng.normal(size=(6, 1))
        y = rng.normal(size=6)
        report = objective_gradient(state, x, y, n_total=6, compute_inducing_gradient=False)[0]
        means = forward(ctx.net, x).output.ravel()
        plain = np.sum(
            -0.5 * np.log(2 * np.pi * 0.4) - (y - means) ** 2 / (2 * 0.4)
        )
        assert abs(report.data_term - plain) <= 1e-9
        assert abs(report.kl_value) <= 1e-12

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_closed_form_matches_monte_carlo(self, alpha):
        rng = rng_stream(11)
        ctx = random_ctx(rng, 1, [5], 1)
        state = make_state(rng, ctx, m=3, alpha=alpha, noise=0.3)
        x = rng.normal(size=(3, 1))
        y = rng.normal(size=3)
        report = objective_gradient(state, x, y, n_total=3, compute_inducing_gradient=False)[0]

        preds = state.predict(x)
        mc_rng = rng_stream(123)
        total, total_se = 0.0, 0.0
        for p, target in zip(preds, y):
            m = float(p.mean[0])
            v = float(p.covariance[0, 0])
            f = m + np.sqrt(max(v, 0.0)) * mc_rng.normal(size=1_000_000)
            dens = (2 * np.pi * 0.3) ** (-0.5) * np.exp(-((target - f) ** 2) / (2 * 0.3))
            powered = dens**alpha
            est = powered.mean()
            se = powered.std() / np.sqrt(powered.size)
            total += np.log(est) / alpha
            total_se += se / (est * alpha)
        assert abs(report.data_term - total) <= 3.0 * total_se + 1e-9

    def test_alpha_outside_range_rejected(self):
        rng = rng_stream(12)
        ctx = random_ctx(rng, 1, [3], 1)
        state = make_state(rng, ctx, m=2, alpha=1.5)
        with pytest.raises(DimensionMismatch):
            objective_gradient(state, np.zeros((2, 1)), np.zeros(2), 2, compute_inducing_gradient=False)


def fd_gradient_check(state, x, y, n_total, mode="alpha", step=1e-6, tol=1e-4):
    """Compare the closed-form gradient against central differences."""
    report, grads = objective_gradient(state, x, y, n_total, mode=mode)

    def value(s):
        return objective_gradient(s, x, y, n_total, compute_inducing_gradient=False, mode=mode)[0].objective

    def rebuild(**kw):
        fields = {
            "ctx": state.ctx,
            "likelihood": state.likelihood,
            "inducing": state.inducing,
            "a_factor": state.a_factor,
            "alpha": state.alpha,
        }
        fields.update(kw)
        return VallaState(**fields)

    q = state.a_factor.shape[0]
    for i in range(q):
        for j in range(i + 1):
            bump = np.zeros_like(state.a_factor)
            bump[i, j] = step
            fd = (value(rebuild(a_factor=state.a_factor + bump)) - value(rebuild(a_factor=state.a_factor - bump))) / (2 * step)
            assert abs(fd - grads["a_factor"][i, j]) <= tol * (1.0 + abs(fd)), f"a_factor[{i},{j}]"

    for m_idx in range(state.inducing.shape[0]):
        for d_idx in range(state.inducing.shape[1]):
            bump = np.zeros_like(state.inducing)
            bump[m_idx, d_idx] = step
            fd = (value(rebuild(inducing=state.inducing + bump)) - value(rebuild(inducing=state.inducing - bump))) / (2 * step)
            assert abs(fd - grads["inducing"][m_idx, d_idx]) <= tol * (1.0 + abs(fd)), f"inducing[{m_idx},{d_idx}]"

    lpv = state.ctx.log_prior_variance
    fd = (
        value(rebuild(ctx=state.ctx.with_log_prior_variance(lpv + step)))
        - value(rebuild(ctx=state.ctx.with_log_prior_variance(lpv - step)))
    ) / (2 * step)
    assert abs(fd - grads["log_prior_variance"]) <= tol * (1.0 + abs(fd)), "log_prior_variance"

    if state.likelihood.kind == "gaussian":
        lnv = np.log(state.likelihood.noise_variance)

        def noisy(v):
            return rebuild(likelihood=LikelihoodModel(kind="gaussian", noise_variance=float(np.exp(v))))

        fd = (value(noisy(lnv + step)) - value(noisy(lnv - step))) / (2 * step)
        assert abs(fd - grads["log_noise_variance"]) <= tol * (1.0 + abs(fd)), "log_noise_variance"


class TestObjectiveGradient:
    def test_matches_finite_differences_regression(self):
        rng = rng_stream(13)
        for trial in range(5):
            ctx = random_ctx(rng, 2, [4], 1)
            state = make_state(rng, ctx, m=3, alpha=1.0 if trial % 2 else 0.7)
            x = rng.normal(size=(5, 2))
            y = rng.normal(size=5)
            fd_gradient_check(state, x, y, n_total=11, mode="alpha")

    def test_matches_finite_differences_classification(self):
        rng = rng_stream(14)
        for _ in range(3):
            ctx = random_ctx(rng, 2, [3], 3)
            state = make_state(rng, ctx, m=2, kind="categorical")
            x = rng.normal(size=(4, 2))
            y = rng.integers(0, 3, size=4)
            fd_gradient_check(state, x, y, n_total=9, mode="alpha")

    def test_matches_finite_differences_elbo(self):
        rng = rng_stream(15)
        for _ in range(2):
            ctx = random_ctx(rng, 1, [4], 1)
            state = make_state(rng, ctx, m=3)
            x = rng.normal(size=(5, 1))
            y = rng.normal(size=5)
            fd_gradient_check(state, x, y, n_total=5, mode="elbo")

    @pytest.mark.parametrize("kind, c", [("gaussian", 1), ("categorical", 3)])
    def test_matches_finite_differences_two_hidden_layers(self, kind, c):
        # the gaussian likelihood takes one output; C = 3 for the categorical
        rng = rng_stream(16)
        ctx = random_ctx(rng, 3, [4, 5], c)
        state = make_state(rng, ctx, m=3, kind=kind)
        x = rng.normal(size=(4, 3))
        x[1] = state.inducing[2]
        y = rng.normal(size=4) if kind == "gaussian" else rng.integers(0, c, size=4)
        fd_gradient_check(state, x, y, n_total=10, mode="alpha")


def assembled_objective_gradient(state, x, y, n_total, mode="alpha"):
    """Oracle: (objective, grads, scales) assembled from separate kernel calls.

    K_Z, the cross block kappa(Z, X) and the prior blocks each come from
    their own kernel call, in the (M*C, B*C) cross layout, and H^{-1} from
    a dense inverse. The inducing gradient contracts the cotangents of K_Z
    and of the cross block with the forward-mode derivatives of
    ``kernel_input_gradient_multi``. ``scales`` holds, for each scalar, the
    size of the terms it sums, against which its error is measured.
    """
    ctx = state.ctx
    z, lower = state.inducing, state.a_factor
    m, b, c = z.shape[0], x.shape[0], ctx.net.arch.output_dim
    q = m * c
    k_ind = kernel_block_fast(ctx, z, z).values
    k_ind = 0.5 * (k_ind + k_ind.T)
    cross = kernel_block_fast(ctx, z, x).values
    prior = kernel_diag_blocks(ctx, x)
    u = lower.T @ k_ind @ lower
    u = 0.5 * (u + u.T)
    h = np.eye(q) + u
    h_inv = np.linalg.inv(h)
    proj = lower @ h_inv @ lower.T
    blocks = cross.reshape(q, b, c)
    covs = prior - np.einsum("qbc,qp,pbd->bcd", blocks, proj, blocks)
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    data, g_blocks, d_dnoise = _data_term(state, forward(ctx.net, x).output, covs, y, n_total, mode)
    kl = 0.5 * np.linalg.slogdet(h)[1] - 0.5 * (q - np.trace(h_inv))

    w_kl = 0.5 * h_inv @ u @ h_inv
    weighted = np.einsum("qbc,bcd->qbd", blocks, g_blocks).reshape(q, b * c)
    omega = -weighted @ cross.T
    omega = 0.5 * (omega + omega.T)
    w_data = h_inv @ lower.T @ omega @ lower @ h_inv
    w_both = 0.5 * (w_data + w_data.T) + 0.5 * (w_kl + w_kl.T)
    psi = -lower @ w_both @ lower.T
    psi = 0.5 * (psi + psi.T)
    grad_cross = -2.0 * proj @ weighted
    lpv_terms = (np.sum(psi * k_ind), np.sum(grad_cross * cross), np.sum(g_blocks * prior))
    # psi weighs kappa(z_j, z_m) through both arguments; cross entry
    # (j p, b o) is kappa_{o p}(x_b, z_j)
    d_zz, d_xz = kernel_input_gradient_multi(ctx, z, z), kernel_input_gradient_multi(ctx, x, z)
    grad_z = 2.0 * np.einsum("jomp,jmopd->md", psi.reshape(m, c, m, c), d_zz)
    grad_z += np.einsum("jpbo,bjopd->jd", grad_cross.reshape(m, c, b, c), d_xz)
    grads = {
        "a_factor": np.tril(2.0 * omega @ lower @ h_inv - 2.0 * k_ind @ lower @ w_both),
        "inducing": grad_z,
        "log_prior_variance": sum(lpv_terms),
    }
    scales = {"objective": abs(data) + abs(kl), "log_prior_variance": sum(map(abs, lpv_terms))}
    if state.likelihood.kind == "gaussian":
        grads["log_noise_variance"] = state.likelihood.noise_variance * d_dnoise
        scales["log_noise_variance"] = max(abs(grads["log_noise_variance"]), 1.0)  # its terms are O(n_total)
    return data - kl, grads, scales


def assert_matches_assembly(state, x, y, n_total, mode="alpha", tol=1e-10):
    report, grads = objective_gradient(state, x, y, n_total, mode=mode)
    objective, ref, scales = assembled_objective_gradient(state, x, y, n_total, mode=mode)
    assert abs(report.objective - objective) <= tol * scales["objective"]
    assert set(grads) == set(ref)
    for name, want in ref.items():
        scale = scales.get(name, np.max(np.abs(want)))
        assert np.max(np.abs(grads[name] - want)) <= tol * scale, name


class TestObjectiveGradientAssembly:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3),
        st.sampled_from([1, 1, 2, 3]),
        st.lists(st.integers(1, 6), min_size=1, max_size=2),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 5),
        st.integers(0, 2**31 - 1),
    )
    def test_matches_separate_kernel_calls(self, d, c, hidden, m, b, shared, seed):
        rng = rng_stream(seed)
        ctx = random_ctx(rng, d, hidden, c)
        kind = "gaussian" if c == 1 else "categorical"
        state = make_state(rng, ctx, m=m, kind=kind, alpha=float(rng.uniform(0.3, 1.0)))
        x = rng.normal(size=(b, d))
        shared = min(shared, m, b)
        x[:shared] = state.inducing[:shared]  # X rows equal to Z rows
        y = rng.normal(size=b) if kind == "gaussian" else rng.integers(0, c, size=b)
        assert_matches_assembly(state, x, y, n_total=3 * b)
        if kind == "gaussian":
            assert_matches_assembly(state, x, y, n_total=3 * b, mode="elbo")

    def test_matches_separate_kernel_calls_at_twenty_locations(self):
        rng = rng_stream(30)
        ctx = random_ctx(rng, 1, [8, 8], 1)
        state = make_state(rng, ctx, m=20)
        x = rng.normal(size=(40, 1))
        assert_matches_assembly(state, x, rng.normal(size=40), n_total=400)

    def test_matches_separate_kernel_calls_at_ten_classes(self):
        # the benchmark's class count: q = M*C = 200
        rng = rng_stream(31)
        ctx = random_ctx(rng, 3, [8, 8], 10)
        state = make_state(rng, ctx, m=20, kind="categorical")
        x = rng.normal(size=(30, 3))
        x[:2] = state.inducing[:2]
        assert_matches_assembly(state, x, rng.integers(0, 10, size=30), n_total=300)


class TestKmeansInit:
    def test_full_m_returns_points(self):
        rng = rng_stream(16)
        x = rng.normal(size=(7, 2))
        centers = kmeans_init(x, 7, seed=0)
        # up to permutation
        found = {tuple(np.round(c, 12)) for c in centers}
        expected = {tuple(np.round(p, 12)) for p in x}
        assert found == expected

    def test_two_separated_clusters(self):
        rng = rng_stream(17)
        a = rng.normal(size=(40, 2)) * 0.05 + np.array([5.0, 0.0])
        b = rng.normal(size=(40, 2)) * 0.05 - np.array([5.0, 0.0])
        x = np.vstack([a, b])
        centers = kmeans_init(x, 2, seed=1)
        means = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda v: v[0])
        got = sorted(centers, key=lambda v: v[0])
        for g, m in zip(got, means):
            assert np.max(np.abs(g - m)) <= 1e-6

    def test_repeated_single_point(self):
        x = np.ones((5, 3)) * 2.5
        centers = kmeans_init(x, 1, seed=0)
        assert np.allclose(centers, [[2.5, 2.5, 2.5]])

    def test_deterministic(self):
        rng = rng_stream(18)
        x = rng.normal(size=(30, 2))
        assert np.array_equal(kmeans_init(x, 5, seed=3), kmeans_init(x, 5, seed=3))

    def test_m_exceeding_n_rejected(self):
        with pytest.raises(DimensionMismatch):
            kmeans_init(np.zeros((3, 1)), 4, seed=0)


class TestFitValla:
    def test_negative_learning_rate_rejected(self):
        with pytest.raises(DimensionMismatch, match="learning_rate"):
            TrainSchedule(iterations=20, batch_size=6, learning_rate=-1.0)

    def test_zero_learning_rate_keeps_state(self):
        rng = rng_stream(19)
        ctx = random_ctx(rng, 1, [4], 1, log_prior_variance=0.1)
        x = rng.normal(size=(12, 1))
        y = rng.normal(size=(12, 1))
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.3)
        schedule = TrainSchedule(iterations=20, batch_size=6, learning_rate=0.0, seed=0, validate_every=10)
        state = fit_valla(ctx, lik, (x, y), (x[:3], y[:3]), 4, schedule, early_stopping=False)
        assert np.array_equal(state.inducing, kmeans_init(x, 4, seed=0))
        assert np.array_equal(state.a_factor, 1e-3 * np.eye(4))
        assert state.ctx.log_prior_variance == 0.1
        assert np.isclose(state.likelihood.noise_variance, 0.3)

    def test_determinism(self):
        rng = rng_stream(20)
        ctx = random_ctx(rng, 1, [4], 1)
        x = rng.normal(size=(16, 1))
        y = rng.normal(size=(16, 1))
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.2)
        schedule = TrainSchedule(iterations=60, batch_size=8, learning_rate=1e-2, seed=4, validate_every=20)
        s1 = fit_valla(ctx, lik, (x, y), (x[:4], y[:4]), 3, schedule)
        s2 = fit_valla(ctx, lik, (x, y), (x[:4], y[:4]), 3, schedule)
        assert np.array_equal(s1.a_factor, s2.a_factor)
        assert np.array_equal(s1.inducing, s2.inducing)
        assert s1.ctx.log_prior_variance == s2.ctx.log_prior_variance

    def test_best_state_is_kept_apart_from_later_steps(self):
        rng = rng_stream(30)
        ctx = random_ctx(rng, 1, [4], 1)
        x = rng.normal(size=(16, 1))
        y = np.sin(2 * x) + 0.3 * rng.normal(size=(16, 1))
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.2)

        def fit(iterations, early_stopping):
            schedule = TrainSchedule(iterations=iterations, batch_size=8, learning_rate=5e-2, seed=4,
                                     validate_every=10, patience=100)
            return fit_valla(ctx, lik, (x[4:], y[4:]), (x[:4], y[:4]), 3, schedule, early_stopping=early_stopping)

        # the validation NLL of this fit is lowest at iteration 30 of 80
        best, at_30 = fit(80, True), fit(30, False)
        assert np.array_equal(best.a_factor, at_30.a_factor)
        assert np.array_equal(best.inducing, at_30.inducing)
        assert best.ctx.log_prior_variance == at_30.ctx.log_prior_variance
        assert best.likelihood.noise_variance == at_30.likelihood.noise_variance
        assert not np.array_equal(best.a_factor, fit(80, False).a_factor)

    def test_mean_invariant_during_training(self):
        rng = rng_stream(21)
        ctx = random_ctx(rng, 1, [5], 1)
        x = rng.uniform(-1, 1, size=(20, 1))
        y = forward(ctx.net, x).output + 0.1 * rng.normal(size=(20, 1))
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.01)
        probe = rng.normal(size=(5, 1))
        expected = forward(ctx.net, probe).output
        for iters in (1, 25, 100):
            schedule = TrainSchedule(iterations=iters, batch_size=20, learning_rate=5e-2, seed=0, validate_every=25)
            state = fit_valla(ctx, lik, (x, y), (x[:5], y[:5]), 5, schedule, early_stopping=False)
            preds = state.predict(probe)
            got = np.stack([p.mean for p in preds])
            assert np.array_equal(got, expected)

    def test_full_basis_elbo_training_approaches_exact_posterior(self):
        rng = rng_stream(22)
        ctx = random_ctx(rng, 1, [6], 1, log_prior_variance=0.0)
        n = 10
        x = rng.uniform(-1.5, 1.5, size=(n, 1))
        y = forward(ctx.net, x).output + 0.2 * rng.normal(size=(n, 1))
        noise = 0.1
        lik = LikelihoodModel(kind="gaussian", noise_variance=noise)
        schedule = TrainSchedule(
            iterations=12000, batch_size=n, learning_rate=3e-2, seed=1, validate_every=2000
        )
        state = fit_valla(
            ctx,
            lik,
            (x, y),
            None,
            n,
            schedule,
            train_inducing=False,
            train_prior_variance=False,
            train_noise_variance=False,
            early_stopping=False,
            objective="elbo",
        )
        exact = fit_exact(ctx, lik, x)
        grid = np.linspace(-2, 2, 9)[:, None]
        ours = np.array([p.covariance[0, 0] for p in state.predict(grid)])
        ref = np.array([p.covariance[0, 0] for p in (exact.predict(g)[0] for g in grid)])
        assert np.max(np.abs(ours - ref)) <= 1e-3

    def test_divergence_raises_with_iteration(self):
        from lagp.errors import NonFiniteValue

        rng = rng_stream(23)
        # an overflowing prior variance makes the objective non-finite
        ctx = random_ctx(rng, 1, [3], 1, log_prior_variance=800.0)
        x = rng.normal(size=(8, 1))
        y = rng.normal(size=(8, 1))
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.1)
        schedule = TrainSchedule(iterations=50, batch_size=8, learning_rate=1e-2, seed=0, validate_every=100)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteValue, match="iteration"):
                fit_valla(ctx, lik, (x, y), (x, y), 2, schedule, early_stopping=False)


class TestElboDegeneracy:
    def test_elbo_prefers_vanishing_prior_variance(self):
        rng = rng_stream(24)
        ctx = random_ctx(rng, 1, [5], 1)
        x = rng.uniform(-1, 1, size=(15, 1))
        y = forward(ctx.net, x).output.ravel() + 0.3 * rng.normal(size=15)
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.05)
        values = []
        alpha_values = []
        for pv in (1.0, 1e-2, 1e-4):
            state = VallaState(
                ctx=ctx.with_log_prior_variance(np.log(pv)),
                likelihood=lik,
                inducing=x[:5],
                a_factor=0.1 * np.eye(5),
            )
            values.append(objective_gradient(state, x, y, 15, compute_inducing_gradient=False, mode="elbo")[0].objective)
            alpha_values.append(objective_gradient(state, x, y, 15, compute_inducing_gradient=False)[0].objective)
        assert values[0] < values[1] < values[2]
        assert np.argmax(alpha_values) != 2
