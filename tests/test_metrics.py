import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from lagp.errors import DimensionMismatch, SimplexViolation
from lagp.linalg import rng_stream
from lagp.lla import GaussianPredictive, LikelihoodModel
from lagp.metrics import (
    accuracy,
    brier,
    coverage_curve,
    cqm,
    crps_gaussian,
    ece,
    nll_categorical,
    nll_gaussian,
    ood_auc,
    predictive_class_probs,
    predictive_entropy,
)


def gaussian_preds(means, function_vars, noise):
    lik = LikelihoodModel(kind="gaussian", noise_variance=noise)
    means = np.asarray(means, dtype=np.float64).reshape(-1, 1)
    function_vars = np.asarray(function_vars, dtype=np.float64).reshape(-1, 1, 1)
    return GaussianPredictive(mean=means, covariance=function_vars, likelihood=lik)


class TestNll:
    def test_unit_density_gives_zero(self):
        total_var = 1.0 / (2.0 * np.pi)
        preds = gaussian_preds([0.3], [0.0], noise=total_var)
        assert abs(nll_gaussian(preds, [0.3])) <= 1e-12

    def test_matches_formula_oracle(self):
        rng = rng_stream(0)
        means = rng.normal(size=20)
        fvars = rng.uniform(0.1, 2.0, size=20)
        noise = 0.3
        y = rng.normal(size=20)
        preds = gaussian_preds(means, fvars, noise)
        expected = np.mean([-scipy.stats.norm.logpdf(t, m, np.sqrt(v + noise)) for t, m, v in zip(y, means, fvars)])
        assert abs(nll_gaussian(preds, y) - expected) <= 1e-12

    def test_grows_with_variance(self):
        preds_small = gaussian_preds([0.0], [1.0], 0.1)
        preds_huge = gaussian_preds([0.0], [1e8], 0.1)
        assert nll_gaussian(preds_huge, [0.0]) > nll_gaussian(preds_small, [0.0])


class TestCrps:
    def test_centered_unit_value(self):
        preds = gaussian_preds([0.0], [1.0 - 0.25], 0.25)  # total variance 1
        assert abs(crps_gaussian(preds, [0.0]) - 0.2336950) <= 1e-6

    def test_positive_homogeneity(self):
        rng = rng_stream(1)
        m, v, y, c = 0.4, 0.8, -0.3, 2.5
        base = crps_gaussian(gaussian_preds([m], [v], 0.2), [y])
        scaled = crps_gaussian(gaussian_preds([c * m], [c * c * v], c * c * 0.2), [c * y])
        assert abs(scaled - c * base) <= 1e-10

    def test_matches_quadrature_oracle(self):
        rng = rng_stream(2)
        for _ in range(100):
            m = float(rng.normal())
            s = float(rng.uniform(0.2, 2.0))
            y = float(rng.normal())
            pred = gaussian_preds([m], [s * s], 1e-12)

            def integrand(t):
                return (scipy.stats.norm.cdf(t, m, s) - (t >= y)) ** 2

            lo, hi = min(m - 10 * s, y - 1.0), max(m + 10 * s, y + 1.0)
            oracle, _ = scipy.integrate.quad(integrand, lo, hi, points=[y], limit=200)
            assert abs(crps_gaussian(pred, [y]) - oracle) <= 1e-6

    def test_nonnegative(self):
        rng = rng_stream(3)
        preds = gaussian_preds(rng.normal(size=30), rng.uniform(0.01, 1, size=30), 0.05)
        assert crps_gaussian(preds, rng.normal(size=30)) >= 0.0


class TestCqm:
    def test_all_targets_at_means_attains_upper_bound(self):
        means = np.linspace(-1, 1, 50)
        preds = gaussian_preds(means, np.full(50, 0.3), 0.1)
        assert abs(cqm(preds, means) - 0.5) <= 1e-12

    def test_self_sampled_targets_well_calibrated(self):
        rng = rng_stream(4)
        n = 100_000
        means = rng.normal(size=n)
        fvars = rng.uniform(0.1, 1.0, size=n)
        noise = 0.2
        y = means + np.sqrt(fvars + noise) * rng.normal(size=n)
        preds = gaussian_preds(means, fvars, noise)
        assert cqm(preds, y) <= 0.01

    def test_bounds_always_hold(self):
        rng = rng_stream(5)
        for _ in range(10):
            n = int(rng.integers(3, 40))
            preds = gaussian_preds(rng.normal(size=n), rng.uniform(0.01, 2, size=n), 0.1)
            value = cqm(preds, rng.normal(size=n) * 10)
            assert 0.0 <= value <= 0.5

    def test_coverage_curve_endpoints(self):
        rng = rng_stream(6)
        preds = gaussian_preds(rng.normal(size=20), np.full(20, 0.5), 0.1)
        alphas, cov = coverage_curve(preds, rng.normal(size=20))
        assert alphas[0] == 0.0 and alphas[-1] == 1.0
        assert cov[-1] == 1.0
        assert len(alphas) == 11

    def test_permutation_invariance(self):
        rng = rng_stream(7)
        means = rng.normal(size=30)
        fvars = rng.uniform(0.1, 1, size=30)
        y = rng.normal(size=30)
        order = rng.permutation(30)
        a = cqm(gaussian_preds(means, fvars, 0.2), y)
        b = cqm(gaussian_preds(means[order], fvars[order], 0.2), y[order])
        assert abs(a - b) <= 1e-15


class TestEce:
    def test_perfectly_confident_correct(self):
        p = np.eye(4)[np.array([0, 1, 2, 3])]
        assert ece(p, [0, 1, 2, 3]) == 0.0

    def test_constant_confidence_single_bin(self):
        # all rows predict class 0 with confidence 0.8; accuracy 0.25
        p = np.array([[0.8, 0.2]] * 4)
        labels = [0, 1, 1, 1]
        assert abs(ece(p, labels) - abs(0.8 - 0.25)) <= 1e-12

    def test_matches_bruteforce_oracle(self):
        rng = rng_stream(8)
        n, c, bins = 200, 3, 15
        logits = rng.normal(size=(n, c))
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        labels = rng.integers(0, c, size=n)
        conf = p.max(axis=1)
        pred = p.argmax(axis=1)
        edges = np.linspace(0, 1, bins + 1)
        oracle = 0.0
        for b in range(bins):
            lo, hi = edges[b], edges[b + 1]
            mask = (conf > lo) & (conf <= hi) if b else (conf >= lo) & (conf <= hi)
            if mask.sum():
                acc = (pred[mask] == labels[mask]).mean()
                oracle += mask.sum() / n * abs(acc - conf[mask].mean())
        assert abs(ece(p, labels) - oracle) <= 1e-12

    def test_simplex_violation(self):
        with pytest.raises(SimplexViolation):
            ece(np.array([[0.5, 0.6]]), [0])


class TestBrier:
    def test_onehot_correct_is_zero(self):
        p = np.eye(3)[np.array([2, 0])]
        assert brier(p, [2, 0]) == 0.0

    def test_uniform_prediction_value(self):
        c = 4
        p = np.full((6, c), 1.0 / c)
        labels = np.arange(6) % c
        expected = (1 - 1 / c) ** 2 + (c - 1) / c**2
        assert abs(brier(p, labels) - expected) <= 1e-12

    def test_matches_formula_oracle(self):
        rng = rng_stream(9)
        logits = rng.normal(size=(50, 5))
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        labels = rng.integers(0, 5, size=50)
        onehot = np.zeros_like(p)
        onehot[np.arange(50), labels] = 1
        oracle = float(np.mean(((p - onehot) ** 2).sum(axis=1)))
        assert abs(brier(p, labels) - oracle) <= 1e-12


class TestOodAuc:
    def test_perfect_separation(self):
        assert ood_auc([0.1, 0.2, 0.3], [1.0, 2.0]) == 1.0

    def test_all_ties(self):
        assert ood_auc([1.0] * 5, [1.0] * 7) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = rng_stream(10)
        a = np.round(rng.normal(size=60), 1)  # rounding forces ties
        b = np.round(rng.normal(0.5, 1, size=40), 1)
        wins = sum((bo > ai) + 0.5 * (bo == ai) for ai in a for bo in b)
        assert abs(ood_auc(a, b) - wins / (60 * 40)) <= 1e-12

    def test_antisymmetry(self):
        rng = rng_stream(11)
        a = rng.normal(size=30)
        b = rng.normal(size=20)
        assert abs(ood_auc(a, b) + ood_auc(b, a) - 1.0) <= 1e-12


class TestPredictiveClassProbs:
    def test_zero_covariance_is_plain_softmax(self):
        m = np.array([0.5, -0.2, 1.0])
        p = predictive_class_probs(m, np.zeros((3, 3)))
        e = np.exp(m - m.max())
        assert np.allclose(p, e / e.sum(), atol=1e-15)

    def test_huge_variance_approaches_uniform(self):
        m = np.array([3.0, -1.0])
        p = predictive_class_probs(m, np.eye(2) * 1e12)
        assert np.max(np.abs(p - 0.5)) <= 1e-5

    def test_close_to_monte_carlo_expectation(self):
        # approximation-quality check at moderate logit uncertainty, the
        # regime a calibrated posterior actually produces
        rng = rng_stream(12)
        mc_rng = rng_stream(13)
        for _ in range(5):
            c = int(rng.integers(2, 5))
            m = rng.normal(scale=1.0, size=c)
            var = rng.uniform(0.05, 0.3, size=c)
            p = predictive_class_probs(m, np.diag(var))
            draws = m + np.sqrt(var) * mc_rng.normal(size=(1_000_000, c))
            shifted = draws - draws.max(axis=1, keepdims=True)
            soft = np.exp(shifted)
            soft /= soft.sum(axis=1, keepdims=True)
            mc = soft.mean(axis=0)
            assert np.max(np.abs(p - mc)) <= 0.02

    def test_entropy_of_uniform(self):
        p = np.full((1, 4), 0.25)
        assert abs(predictive_entropy(p)[0] - np.log(4)) <= 1e-12

    def test_accuracy_helper(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(p, [0, 1, 1]) == pytest.approx(2 / 3)


class TestClassLabels:
    @pytest.mark.parametrize("metric", [nll_categorical, brier, accuracy, ece])
    @pytest.mark.parametrize("bad", [-1, 3, 3.5])
    def test_label_outside_classes_rejected(self, metric, bad):
        p = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
        assert np.isfinite(metric(p, [0, 2]))
        with pytest.raises(DimensionMismatch, match=r"\[0, 3\)"):
            metric(p, [0, bad])

    @pytest.mark.parametrize("metric", [nll_categorical, brier, accuracy, ece])
    def test_label_count_must_match_rows(self, metric):
        p = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
        with pytest.raises(DimensionMismatch, match="labels for 2 points"):
            metric(p, [0, 1, 2])
