import numpy as np
import pytest

from lagp.errors import DimensionMismatch, EigenFloorExhausted
from lagp.linalg import rng_stream, solve_psd
from lagp.lla import LikelihoodModel, fit_exact
from lagp.ella import _features, ella_fit
from lagp.nn import forward, layer_walk

from test_kernel import gram_matrix, random_ctx


def features(ctx, state, x):
    """(N, C, K) ELLA features of the inputs x under a fitted state."""
    anchors = list(layer_walk(ctx.net, forward(ctx.net, state.anchors)))
    phi_t = _features(ctx.net, state.projection, anchors, forward(ctx.net, x))  # (K, N*C)
    return phi_t.reshape(phi_t.shape[0], len(x), -1).transpose(1, 2, 0)


class TestEllaFit:
    def test_full_rank_feature_kernel_matches_tangent_kernel(self):
        rng = rng_stream(0)
        ctx = random_ctx(rng, 1, [6], 1, log_prior_variance=0.4)
        x = rng.normal(size=(10, 1))
        state = ella_fit(ctx, LikelihoodModel(kind="gaussian", noise_variance=0.1), x, m=10, k=None, seed=0)
        phi = features(ctx, state, x)  # (N, C, K)
        flat = phi.reshape(10, -1)
        unscaled = gram_matrix(ctx.with_log_prior_variance(0.0), x, x)
        assert np.max(np.abs(flat @ flat.T - unscaled)) <= 1e-8

    @pytest.mark.parametrize("kind,c", [("gaussian", 1), ("categorical", 3)])
    def test_full_rank_matches_exact_posterior(self, kind, c):
        rng = rng_stream(1)
        ctx = random_ctx(rng, 2, [5], c, log_prior_variance=-0.3)
        n = 8
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 1)) if kind == "gaussian" else rng.integers(0, c, size=n)
        lik = LikelihoodModel(kind=kind, noise_variance=0.25)
        state = ella_fit(ctx, lik, x, m=n, k=None, seed=3)
        exact = fit_exact(ctx, lik, x)
        # exactness holds on the anchor span, i.e. at the training points
        for x_star in x:
            ours = state.predict(x_star)[0].covariance
            ref = exact.predict(x_star)[0].covariance
            assert np.max(np.abs(ours - ref)) <= 1e-6

    def test_rank_one_posterior_nonnegative(self):
        rng = rng_stream(2)
        ctx = random_ctx(rng, 1, [4], 1)
        x = rng.normal(size=(12, 1))
        y = rng.normal(size=(12, 1))
        state = ella_fit(ctx, LikelihoodModel(kind="gaussian", noise_variance=0.2), x, m=5, k=1, seed=0)
        for _ in range(50):
            pred = state.predict(rng.normal(size=1))[0]
            assert pred.covariance[0, 0] >= 0.0

    def test_variance_nonnegative_many_points(self):
        rng = rng_stream(3)
        ctx = random_ctx(rng, 2, [5], 2)
        x = rng.normal(size=(20, 2))
        state = ella_fit(ctx, LikelihoodModel(kind="categorical"), x, m=8, k=6, seed=1)
        preds = state.predict(rng.normal(size=(1000, 2)))
        for p in preds:
            assert np.all(np.diag(p.covariance) >= -1e-12)

    @pytest.mark.parametrize("kind,c", [("gaussian", 1), ("categorical", 3)])
    def test_batched_predictive_matches_per_point_solves(self, kind, c):
        rng = rng_stream(4)
        ctx = random_ctx(rng, 2, [5, 4], c, log_prior_variance=0.2)
        x = rng.normal(size=(30, 2))
        state = ella_fit(ctx, LikelihoodModel(kind=kind, noise_variance=0.1), x, m=10, k=None, seed=2)
        x_star = rng.normal(size=(40, 2))
        phi = features(ctx, state, x_star)  # (N, C, K)
        loop = np.stack([p @ solve_psd(state.precision_factor, p.T) for p in phi])
        loop = 0.5 * (loop + loop.transpose(0, 2, 1))
        pred = state.predict(x_star)
        assert np.array_equal(pred.mean, forward(ctx.net, x_star).output)
        assert pred.covariance.shape == (40, c, c)
        assert np.max(np.abs(pred.covariance - loop)) <= 1e-12 * np.max(np.abs(loop))

    def test_eigen_floor_exhausted(self):
        rng = rng_stream(4)
        ctx = random_ctx(rng, 1, [3], 1)
        x = np.zeros((6, 1))  # identical anchors give a rank-one Gram matrix
        with pytest.raises(EigenFloorExhausted):
            ella_fit(ctx, LikelihoodModel(kind="gaussian", noise_variance=0.1), x, m=6, k=5, seed=0)

    def test_anchor_draw_deterministic_without_replacement(self):
        rng = rng_stream(5)
        ctx = random_ctx(rng, 1, [3], 1)
        x = rng.normal(size=(30, 1))
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.1)
        s1 = ella_fit(ctx, lik, x, m=10, k=5, seed=7)
        s2 = ella_fit(ctx, lik, x, m=10, k=5, seed=7)
        assert np.array_equal(s1.anchors, s2.anchors)
        assert len(np.unique(s1.anchors)) == 10

    def test_max_points_truncates_pass(self):
        rng = rng_stream(6)
        ctx = random_ctx(rng, 1, [4], 1)
        x = rng.normal(size=(20, 1))
        y = rng.normal(size=(20, 1))
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.2)
        truncated = ella_fit(ctx, lik, x, m=5, k=4, seed=2, max_points=8)
        manual = ella_fit(ctx, lik, x[:8], m=5, k=4, seed=2)
        # anchors differ (drawn from full set vs prefix), so compare the
        # precision only when anchors coincide
        assert truncated.anchors.shape == (5, 1)

    def test_mean_is_map_output(self):
        rng = rng_stream(7)
        ctx = random_ctx(rng, 2, [4], 2)
        x = rng.normal(size=(9, 2))
        state = ella_fit(ctx, LikelihoodModel(kind="categorical"), x, m=4, k=4, seed=0)
        probe = rng.normal(size=(3, 2))
        preds = state.predict(probe)
        outputs = forward(ctx.net, probe).output
        for i, p in enumerate(preds):
            assert np.array_equal(p.mean, outputs[i])

    def test_invalid_sizes_rejected(self):
        rng = rng_stream(8)
        ctx = random_ctx(rng, 1, [3], 1)
        x = rng.normal(size=(5, 1))
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.1)
        with pytest.raises(DimensionMismatch):
            ella_fit(ctx, lik, x, m=6, k=3)
        with pytest.raises(DimensionMismatch):
            ella_fit(ctx, lik, x, m=3, k=9)


class TestFidelity:
    def test_rms_deviation_non_increasing_in_rank(self):
        from lagp.data import synth_toy1d

        rng = rng_stream(9)
        ctx = random_ctx(rng, 1, [10], 1, log_prior_variance=np.log(0.5))
        ds = synth_toy1d(40, seed=1)
        lik = LikelihoodModel(kind="gaussian", noise_variance=0.01)
        exact = fit_exact(ctx, lik, ds.inputs)
        grid = np.linspace(-2, 2, 30)[:, None]
        ref = np.array([exact.predict(g)[0].covariance[0, 0] for g in grid])

        m = 20
        # rank of the anchor Gram caps the usable K; sweep within the
        # smallest rank seen across seeds
        rank = min(
            ella_fit(ctx, lik, ds.inputs, m=m, k=None, seed=s).feature_dim
            for s in range(5)
        )
        medians = []
        for k in (1, max(2, rank // 2), rank):
            devs = []
            for seed in range(5):
                state = ella_fit(ctx, lik, ds.inputs, m=m, k=k, seed=seed)
                got = np.array([p.covariance[0, 0] for p in state.predict(grid)])
                devs.append(np.sqrt(np.mean((np.sqrt(got) - np.sqrt(ref)) ** 2)))
            medians.append(np.median(devs))
        assert medians[0] >= medians[1] >= medians[2] - 1e-12
