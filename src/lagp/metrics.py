"""Evaluation metrics for probabilistic predictions.

Regression metrics (NLL, CRPS, the centered-interval calibration score)
consume one batched ``GaussianPredictive`` with a single output and score
it in observation space, i.e. with the noise variance added to the
function variance. Classification metrics consume probability rows
obtained from the softmax approximation in ``predictive_class_probs``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DimensionMismatch, SimplexViolation

ECE_DEFAULT_BINS = 15
CQM_DEFAULT_GRID = 11


@dataclass(frozen=True)
class MetricsReport:
    n_points: int
    nll: float = None
    crps: float = None
    cqm: float = None
    ece: float = None
    brier: float = None
    acc: float = None

    def to_dict(self):
        out = {"n_points": self.n_points}
        for key in ("nll", "crps", "cqm", "ece", "brier", "acc"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


def _means_and_stds(pred, y):
    """Targets, means, standard deviations and variances of the first output."""
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(pred) != y.shape[0]:
        raise DimensionMismatch("predictions and targets differ in length")
    variances = pred.y_variance[:, 0]
    return y, pred.mean[:, 0], np.sqrt(variances), variances


def nll_gaussian(pred, y):
    """Average negative log density of y under each Gaussian predictive."""
    y, means, _, variances = _means_and_stds(pred, y)
    return float(np.mean(0.5 * np.log(2.0 * np.pi * variances) + (y - means) ** 2 / (2.0 * variances)))


def class_labels(labels, n_classes, n):
    """The n labels of n points as a 1-D int array, the one label reader.

    Raises DimensionMismatch when a label lies outside [0, n_classes) or
    there are not n labels.
    """
    raw = np.asarray(labels).ravel()
    if not np.all((raw >= 0) & (raw < n_classes)):
        raise DimensionMismatch(f"class labels must lie in [0, {n_classes})")
    if raw.shape[0] != n:
        raise DimensionMismatch(f"{raw.shape[0]} labels for {n} points")
    return raw.astype(int)


def nll_categorical(probabilities, labels):
    """Average negative log probability of each label, floored at 1e-300."""
    p = np.asarray(probabilities, dtype=np.float64)
    labels = class_labels(labels, p.shape[1], p.shape[0])
    return float(np.mean(-np.log(np.maximum(p[np.arange(p.shape[0]), labels], 1e-300))))


def crps_gaussian(pred, y):
    """Closed-form CRPS for Gaussian predictives.

    CRPS(y; m, s^2) = s * [z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi)]
    with z = (y - m)/s.
    """
    y, means, stds, _ = _means_and_stds(pred, y)
    z = (y - means) / stds
    pdf = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    per_point = stds * (z * (2.0 * ndtr(z) - 1.0) + 2.0 * pdf - 1.0 / np.sqrt(np.pi))
    return float(np.mean(per_point))


def coverage_curve(pred, y, grid_size=CQM_DEFAULT_GRID):
    """Empirical coverage of centered predictive intervals per mass level.

    For each level alpha on a uniform grid over [0, 1], the centered
    interval of a predictive N(m, s^2) is [q((1-alpha)/2), q((1+alpha)/2)]
    and the coverage is the fraction of targets inside it. Interval
    endpoints are included, so the degenerate alpha = 0 interval contains
    exactly the points sitting on the predictive median.
    """
    y, means, stds, _ = _means_and_stds(pred, y)
    alphas = np.linspace(0.0, 1.0, int(grid_size))
    coverage = np.empty_like(alphas)
    for i, alpha in enumerate(alphas):
        if alpha >= 1.0:
            coverage[i] = 1.0
            continue
        half = ndtri((1.0 + alpha) / 2.0)
        lo = means - half * stds
        hi = means + half * stds
        coverage[i] = float(np.mean((y >= lo) & (y <= hi)))
    return alphas, coverage


def cqm(pred, y, grid_size=CQM_DEFAULT_GRID):
    """Trapezoid integral of |coverage(alpha) - alpha| over the level grid."""
    alphas, coverage = coverage_curve(pred, y, grid_size)
    value = float(np.trapezoid(np.abs(coverage - alphas), alphas))
    if not (0.0 <= value <= 0.5 + 1e-12):
        raise AssertionError(f"coverage miscalibration {value} outside [0, 0.5]")
    return min(value, 0.5)


def _check_simplex(probabilities):
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 2:
        raise DimensionMismatch("probabilities must be (N, C)")
    if np.any(p < -1e-12) or np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-6:
        raise SimplexViolation("rows must be probability vectors summing to 1")
    return p


def ece(probabilities, labels, bins=ECE_DEFAULT_BINS):
    """Top-label expected calibration error with equal-width confidence bins."""
    p = _check_simplex(probabilities)
    labels = class_labels(labels, p.shape[1], p.shape[0])
    confidence = p.max(axis=1)
    predicted = p.argmax(axis=1)
    correct = (predicted == labels).astype(np.float64)
    edges = np.linspace(0.0, 1.0, bins + 1)
    total = 0.0
    n = p.shape[0]
    for b in range(bins):
        if b == 0:
            mask = (confidence >= edges[0]) & (confidence <= edges[1])
        else:
            mask = (confidence > edges[b]) & (confidence <= edges[b + 1])
        count = int(mask.sum())
        if count == 0:
            continue
        total += (count / n) * abs(correct[mask].mean() - confidence[mask].mean())
    return float(total)


def brier(probabilities, labels):
    """Mean squared distance between probability rows and one-hot labels."""
    p = _check_simplex(probabilities)
    labels = class_labels(labels, p.shape[1], p.shape[0])
    onehot = np.zeros_like(p)
    onehot[np.arange(p.shape[0]), labels] = 1.0
    return float(np.mean(np.sum((p - onehot) ** 2, axis=1)))


def accuracy(probabilities, labels):
    p = _check_simplex(probabilities)
    return float(np.mean(p.argmax(axis=1) == class_labels(labels, p.shape[1], p.shape[0])))


def predictive_entropy(probabilities):
    p = _check_simplex(probabilities)
    safe = np.clip(p, 1e-300, None)
    return -np.sum(safe * np.log(safe), axis=1)


def ood_auc(entropy_in, entropy_out):
    """AUC for ranking out-distribution above in-distribution by score.

    Mann-Whitney form: ties count one half, through the averaged ranks of
    tied values. Computed from ranks in O(n log n).
    """
    a = np.asarray(entropy_in, dtype=np.float64).ravel()
    b = np.asarray(entropy_out, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise DimensionMismatch("both score sets must be nonempty")
    from scipy.stats import rankdata  # imported here: loading scipy.stats costs a process ~40 MB of RSS and ~1 s

    rank_sum_out = rankdata(np.concatenate([a, b]))[a.size :].sum()
    u = rank_sum_out - b.size * (b.size + 1) / 2.0
    return float(u / (a.size * b.size))


def predictive_class_probs(mean, covariance):
    """Softmax class probabilities under an uncertain pre-softmax Gaussian.

    Takes means (..., C) and covariances (..., C, C), one point or a batch.
    Each logit is damped by its own variance, mean_c / sqrt(1 + pi/8 *
    var_c), before the softmax; only the covariance diagonal enters.
    """
    mean = np.asarray(mean, dtype=np.float64)
    var = np.diagonal(np.asarray(covariance, dtype=np.float64), axis1=-2, axis2=-1)
    if var.shape != mean.shape:
        raise DimensionMismatch("mean and covariance diagonal disagree")
    scaled = mean / np.sqrt(1.0 + (np.pi / 8.0) * np.clip(var, 0.0, None))
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
