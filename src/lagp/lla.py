"""Exact Gaussian-process posteriors for the linearized network.

The function-space route conditions the tangent-kernel prior on the
training data; the weight-space route assembles the Gauss-Newton
precision explicitly. The two agree through the Woodbury identity and
serve as mutual oracles in the tests. Diagonal and last-layer variants
restrict the weight-space construction.

The curvature block of the likelihood at a data point,

    curvature(g, y) = -d^2/dg^2 log p(y | g),

is 1/noise_variance * I for the Gaussian case and diag(p) - p p^T at the
softmax probabilities for the categorical case. The categorical block is
singular, so the data fit is factored through its PSD square root R:
solves use I + R kappa(X, X) R, which is always positive definite, instead
of inverting the curvature.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DimensionMismatch
from .kernel import (
    KernelContext,
    as_inputs,
    jacobian,
    kernel_block_fast,
    kernel_diag_blocks,
    _layer_inputs,
)
from .linalg import CholeskyFactor, cholesky, logdet, psd_sqrt, solve_psd
from .nn import forward

EXACT_CAP = 3000  # max N*C for the function-space route
WEIGHT_SPACE_CAP = 2000  # max parameter count for the explicit precision


@dataclass(frozen=True)
class LikelihoodModel:
    kind: str  # "gaussian" or "categorical"
    noise_variance: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "categorical"):
            raise DimensionMismatch(f"unknown likelihood kind {self.kind!r}")
        if self.kind == "gaussian" and self.noise_variance <= 0:
            raise DimensionMismatch("noise_variance must be positive")


@dataclass(frozen=True)
class GaussianPredictive:
    """Predictives at N inputs: means (N, C) and function-space covariances (N, C, C).

    ``pred[i]`` is the predictive at input i alone, with mean (C,) and
    covariance (C, C); iterating yields these one-point predictives.
    """

    mean: np.ndarray
    covariance: np.ndarray
    likelihood: LikelihoodModel

    def __len__(self):
        return self.mean.shape[0]

    def __getitem__(self, i):
        return GaussianPredictive(self.mean[i], self.covariance[i], self.likelihood)

    @property
    def y_variance(self):
        """Observation-space variances, (..., C): function variance plus noise."""
        v = np.diagonal(self.covariance, axis1=-2, axis2=-1)
        if self.likelihood.kind == "gaussian":
            return v + self.likelihood.noise_variance
        return v


def softmax(g):
    shifted = g - np.max(g, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def lambda_of(likelihood, net_output):
    """Likelihood curvature block for one data point; labels do not enter."""
    g = np.asarray(net_output, dtype=np.float64).ravel()
    c = g.shape[0]
    if likelihood.kind == "gaussian":
        return np.eye(c) / likelihood.noise_variance
    p = softmax(g)
    return np.diag(p) - np.outer(p, p)


def _lambda_blocks(likelihood, outputs):
    n, c = outputs.shape
    if likelihood.kind == "gaussian":
        blocks = np.broadcast_to(np.eye(c) / likelihood.noise_variance, (n, c, c)).copy()
        roots = np.broadcast_to(np.eye(c) / np.sqrt(likelihood.noise_variance), (n, c, c)).copy()
        return blocks, roots
    blocks = np.empty((n, c, c))
    roots = np.empty((n, c, c))
    for i in range(n):
        blocks[i] = lambda_of(likelihood, outputs[i])
        roots[i] = psd_sqrt(blocks[i])
    return blocks, roots


def _block_scale(roots, gram, n, c):
    """Apply the block-diagonal square roots on both sides of a Gram matrix."""
    g4 = gram.reshape(n, c, n, c)
    out = np.einsum("ica,iajb->icjb", roots, g4)
    out = np.einsum("icjb,jbd->icjd", out, roots)
    return out.reshape(n * c, n * c)


class PosteriorState:
    """What every fitted state offers: ``predict`` and a payload for ``serialize``.

    ``predict(x)`` returns the GaussianPredictive at the inputs x, read by
    ``kernel.as_inputs``. ``KIND`` tags the state in a state file. The
    payload holds the fields named in ``ARRAYS`` as arrays, the Cholesky
    factors named in ``FACTORS`` by their lower triangles (a factor that
    is None is left out), and the scalars in ``META`` (name -> type) as
    metadata. Every state also has ``ctx`` and ``likelihood``, which
    ``serialize`` stores.
    """

    KIND = None
    ARRAYS = ()
    FACTORS = ()
    META = {}

    def payload(self):
        """(meta, arrays) of the fields this kind adds to ctx and likelihood."""
        arrays = {name: getattr(self, name) for name in self.ARRAYS}
        for name in self.FACTORS:
            if getattr(self, name) is not None:
                arrays[name] = getattr(self, name).lower
        return {name: kind(getattr(self, name)) for name, kind in self.META.items()}, arrays

    @classmethod
    def from_payload(cls, ctx, likelihood, meta, arrays):
        fields = {name: arrays[name] for name in cls.ARRAYS}
        for name in cls.FACTORS:
            lower = arrays.get(name)
            fields[name] = None if lower is None else CholeskyFactor(lower=lower, dim=lower.shape[0])
        fields.update((name, meta[name]) for name in cls.META)
        return cls(ctx=ctx, likelihood=likelihood, **fields)


def deflated_blocks(prior, v, w):
    """Blocks prior[i] - v_i^T w_i, symmetrized.

    v_i and w_i are the (q, C) column blocks of point i in the point-major
    (q, N*C) matrices v and w. The stacked products run as one matmul over
    strided views, which gives the same bits as one product per point.
    """
    n, c, _ = prior.shape
    q = v.shape[0]
    cov = prior - v.reshape(q, n, c).transpose(1, 2, 0) @ w.reshape(q, n, c).transpose(1, 0, 2)
    return 0.5 * (cov + cov.transpose(0, 2, 1))


@dataclass(frozen=True)
class MapState(PosteriorState):
    """Point-estimate baseline: the network output with zero function variance."""

    KIND = "map"

    ctx: KernelContext
    likelihood: LikelihoodModel

    def predict(self, x):
        return predict_map_batch(self, x)


def predict_map_batch(state, x_star):
    x_star = as_inputs(x_star, state.ctx.net.arch.input_dim)
    means = forward(state.ctx.net, x_star).output
    n, c = means.shape
    return GaussianPredictive(means, np.zeros((n, c, c)), state.likelihood)


@dataclass(frozen=True)
class LlaExactState(PosteriorState):
    KIND = "lla-exact"
    ARRAYS = ("train_inputs", "sqrt_lambda")
    FACTORS = ("q_factor",)

    ctx: KernelContext
    likelihood: LikelihoodModel
    train_inputs: np.ndarray
    sqrt_lambda: np.ndarray  # (N, C, C) PSD square roots of the curvature blocks
    q_factor: object  # Cholesky of I + R kappa(X, X) R; None when N = 0

    def predict(self, x):
        return predict_exact_batch(self, x)


def fit_exact(ctx, likelihood, x, cap=EXACT_CAP):
    """Condition the tangent-kernel prior on the training data."""
    x = as_inputs(x, ctx.net.arch.input_dim)
    n = x.shape[0]
    c = ctx.net.arch.output_dim
    if n * c > cap:
        raise CapExceeded(f"N*C = {n * c} exceeds exact cap {cap}; use a sparse method")
    if n == 0:
        return LlaExactState(
            ctx=ctx,
            likelihood=likelihood,
            train_inputs=x,
            sqrt_lambda=np.zeros((0, c, c)),
            q_factor=None,
        )
    outputs = forward(ctx.net, x).output
    _, roots = _lambda_blocks(likelihood, outputs)
    gram = kernel_block_fast(ctx, x, x).values
    gram = 0.5 * (gram + gram.T)
    whitened = _block_scale(roots, gram, n, c)
    q = np.eye(n * c) + whitened
    q = 0.5 * (q + q.T)
    return LlaExactState(
        ctx=ctx,
        likelihood=likelihood,
        train_inputs=x,
        sqrt_lambda=roots,
        q_factor=cholesky(q),
    )


def _apply_roots_left(roots, cross, n, c):
    """Multiply a (N*C, M) matrix by the block-diagonal roots on the left."""
    m = cross.shape[1]
    return np.einsum("ica,iam->icm", roots, cross.reshape(n, c, m)).reshape(n * c, m)


def predict_exact_batch(state, x_star):
    """Predictives at each query point; mean comes from the network forward pass."""
    ctx = state.ctx
    x_star = as_inputs(x_star, ctx.net.arch.input_dim)
    c = ctx.net.arch.output_dim
    means = forward(ctx.net, x_star).output
    prior = kernel_diag_blocks(ctx, x_star)
    n_train = state.train_inputs.shape[0]
    if n_train == 0:
        return GaussianPredictive(means, prior, state.likelihood)
    cross = kernel_block_fast(ctx, state.train_inputs, x_star).values  # (NC, N*C')
    v = _apply_roots_left(state.sqrt_lambda, cross, n_train, c)
    w = solve_psd(state.q_factor, v)
    return GaussianPredictive(means, deflated_blocks(prior, v, w), state.likelihood)


def _per_point(state, x_star, block):
    """Predictive whose covariance at each input x is ``block(x)``, symmetrized.

    For the methods that need one Jacobian per input: stacking the
    Jacobians of a whole batch would take N*C*P floats.
    """
    x_star = as_inputs(x_star, state.ctx.net.arch.input_dim)
    means = forward(state.ctx.net, x_star).output
    n, c = means.shape
    covs = np.array([block(x) for x in x_star]).reshape(n, c, c)
    return GaussianPredictive(means, 0.5 * (covs + covs.transpose(0, 2, 1)), state.likelihood)


@dataclass(frozen=True)
class LlaWeightState(PosteriorState):
    KIND = "lla-weight"
    ARRAYS = ("precision",)
    FACTORS = ("covariance_factor",)

    ctx: KernelContext
    likelihood: LikelihoodModel
    precision: np.ndarray
    covariance_factor: object

    def predict(self, x):
        return predict_weight_space_batch(self, x)


def fit_weight_space(net, likelihood, x, prior_variance=1.0, cap=WEIGHT_SPACE_CAP):
    """Assemble the Gauss-Newton precision over all parameters explicitly."""
    p = net.param_count
    if p > cap:
        raise CapExceeded(f"P = {p} exceeds weight-space cap {cap}")
    x = as_inputs(x, net.arch.input_dim)
    ctx = KernelContext(net=net, log_prior_variance=float(np.log(prior_variance)))
    precision = np.eye(p) / prior_variance
    if x.shape[0]:
        outputs = forward(net, x).output
        blocks, _ = _lambda_blocks(likelihood, outputs)
        for i in range(x.shape[0]):
            j = jacobian(ctx, x[i]).values
            precision += j.T @ blocks[i] @ j
    precision = 0.5 * (precision + precision.T)
    return LlaWeightState(
        ctx=ctx,
        likelihood=likelihood,
        precision=precision,
        covariance_factor=cholesky(precision),
    )


def predict_weight_space_batch(state, x_star):
    def block(x):
        j = jacobian(state.ctx, x).values
        return j @ solve_psd(state.covariance_factor, j.T)

    return _per_point(state, x_star, block)


@dataclass(frozen=True)
class LlaDiagState(PosteriorState):
    KIND = "lla-diag"
    ARRAYS = ("precision_diag",)

    ctx: KernelContext
    likelihood: LikelihoodModel
    precision_diag: np.ndarray

    def predict(self, x):
        return predict_diag_batch(self, x)


def fit_diag(net, likelihood, x, prior_variance=1.0):
    """Keep only the diagonal of the Gauss-Newton precision."""
    x = as_inputs(x, net.arch.input_dim)
    ctx = KernelContext(net=net, log_prior_variance=float(np.log(prior_variance)))
    diag = np.full(net.param_count, 1.0 / prior_variance)
    if x.shape[0]:
        outputs = forward(net, x).output
        blocks, _ = _lambda_blocks(likelihood, outputs)
        for i in range(x.shape[0]):
            j = jacobian(ctx, x[i]).values
            diag += np.einsum("cp,cd,dp->p", j, blocks[i], j)
    return LlaDiagState(ctx=ctx, likelihood=likelihood, precision_diag=diag)


def predict_diag_batch(state, x_star):
    inv_root = 1.0 / np.sqrt(state.precision_diag)

    def block(x):
        scaled = jacobian(state.ctx, x).values * inv_root[None, :]
        return scaled @ scaled.T

    return _per_point(state, x_star, block)


@dataclass(frozen=True)
class LlaLastLayerState(PosteriorState):
    KIND = "lla-last-layer"
    FACTORS = ("precision_factor",)

    ctx: KernelContext
    likelihood: LikelihoodModel
    precision_factor: object  # Cholesky over the (width+1)*C last-layer parameters

    def predict(self, x):
        return predict_last_layer_batch(self, x)


def last_layer_features(net, x):
    """(N, width+1) inputs to the final layer with the bias column appended."""
    x = as_inputs(x, net.arch.input_dim)
    acts = _layer_inputs(net, x)
    return np.concatenate([acts[-1], np.ones((x.shape[0], 1))], axis=1)


def last_layer_jacobian(net, x):
    """(C, (width+1)*C) Jacobian w.r.t. final-layer parameters only.

    Column ordering matches the checkpoint layout of the final layer:
    weight (i, j) at i*C + j, then the C bias entries, which together
    equal the feature index i paired with class j.
    """
    phi = last_layer_features(net, x)[0]
    c = net.arch.output_dim
    jac = np.zeros((c, phi.shape[0] * c))
    for o in range(c):
        jac[o, o :: c] = phi
    return jac


def fit_last_layer(net, likelihood, x, prior_variance=1.0):
    """Weight-space pipeline restricted to the final layer's parameters."""
    x = as_inputs(x, net.arch.input_dim)
    ctx = KernelContext(net=net, log_prior_variance=float(np.log(prior_variance)))
    c = net.arch.output_dim
    phi = last_layer_features(net, x) if x.shape[0] else np.zeros((0, 1))
    width1 = net.arch.layer_dims[-2] + 1
    precision = np.eye(width1 * c) / prior_variance
    if x.shape[0]:
        outputs = forward(net, x).output
        blocks, _ = _lambda_blocks(likelihood, outputs)
        # precision[(i,j),(i',j')] = sum_n phi_i phi_i' Lambda_n[j,j'];
        # accumulate one (j, j') class pair at a time with plain GEMMs.
        for j in range(c):
            for l in range(j, c):
                m = (phi * blocks[:, j, l][:, None]).T @ phi
                precision[j::c, l::c] += m
                if l != j:
                    precision[l::c, j::c] += m.T
    precision = 0.5 * (precision + precision.T)
    return LlaLastLayerState(ctx=ctx, likelihood=likelihood, precision_factor=cholesky(precision))


def predict_last_layer_batch(state, x_star):
    def block(x):
        j = last_layer_jacobian(state.ctx.net, x)
        return j @ solve_psd(state.precision_factor, j.T)

    return _per_point(state, x_star, block)


def _log_evidence(resid, cov):
    """log N(resid | 0, cov), through a Cholesky factor of cov."""
    factor = cholesky(cov)
    alpha = solve_psd(factor, resid)
    return float(-0.5 * (resid @ alpha + logdet(factor) + resid.shape[0] * np.log(2.0 * np.pi)))


def log_marginal_likelihood(ctx, likelihood, x, y, cap=EXACT_CAP):
    """Log evidence of the linearized regression model.

    Gaussian likelihood only: log N(y | g(X), kappa(X, X) + noise * I).
    """
    if likelihood.kind != "gaussian":
        raise DimensionMismatch("marginal likelihood requires the gaussian likelihood")
    x = as_inputs(x, ctx.net.arch.input_dim)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = x.shape[0]
    if n * ctx.net.arch.output_dim > cap:
        raise CapExceeded(f"N*C = {n} exceeds exact cap {cap}")
    resid = y - forward(ctx.net, x).output.ravel()
    cov = kernel_block_fast(ctx, x, x).values + likelihood.noise_variance * np.eye(n)
    return _log_evidence(resid, 0.5 * (cov + cov.T))


def grid_search_hyperparameters(net, x, y, prior_grid=None, noise_grid=None):
    """Maximize the evidence over a log-space grid of the two variances.

    Returns (best_prior_variance, best_noise_variance, table) where the
    table rows are (prior_variance, noise_variance, evidence).
    """
    if prior_grid is None:
        prior_grid = np.logspace(-3, 3, 10)
    if noise_grid is None:
        noise_grid = np.logspace(-4, 1, 10)
    x = as_inputs(x, net.arch.input_dim)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = x.shape[0]
    base = KernelContext(net=net, log_prior_variance=0.0)
    resid = y - forward(net, x).output.ravel()
    unscaled = kernel_block_fast(base, x, x).values
    unscaled = 0.5 * (unscaled + unscaled.T)

    best = (None, None, -np.inf)
    table = []
    for pv in prior_grid:
        for nv in noise_grid:
            value = _log_evidence(resid, pv * unscaled + nv * np.eye(n))
            table.append((float(pv), float(nv), value))
            if value > best[2]:
                best = (float(pv), float(nv), value)
    return best[0], best[1], table
