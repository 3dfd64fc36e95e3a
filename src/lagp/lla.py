"""Exact Gaussian-process posteriors for the linearized network.

The function-space route conditions the tangent-kernel prior on the
training data; the weight-space route assembles the Gauss-Newton
precision explicitly. The two agree through the Woodbury identity and
serve as mutual oracles in the tests.

The diagonal and last-layer variants never form a Jacobian. The
checkpoint stores each layer's W_l (w_{l-1} x w_l, row-major) and then
b_l, so over layer l's parameters the Jacobian row of output c at input
x is kron(a~(x), s(x)_c), with a~ = [a_{l-1}, 1] the layer input and a
bias column and s the sensitivities (``kernel.layer_walk``). A diagonal
weighting of layer l's parameters then reduces to one GEMM of a~^2
against the sensitivities; the last layer's a~ is the feature vector phi.

The curvature block of the likelihood at a data point,

    curvature(g, y) = -d^2/dg^2 log p(y | g),

is 1/noise_variance * I for the Gaussian case and diag(p) - p p^T at the
softmax probabilities for the categorical case. Every fit takes it from
the closed-form factor B of ``curvature_roots``, with B B^T equal to the
curvature block. The categorical block is singular, so the function-space
route whitens the kernel with B: solves use Q = I + B^T kappa(X, X) B,
which is always positive definite, instead of inverting the curvature.
Its predictive covariance is cov = prior - r^T r blockwise, with
r = L^-1 v, v = B^T kappa(X, x*) and L the Cholesky factor of Q: one
triangular solve. The weight-space routes add G^T G with G = B^T J per
data point; only the last-layer fit forms B B^T, to keep its Kronecker
structure.

Regression picks its variances by maximizing the evidence
log N(y - g(X) | 0, pv K + nv I) over a grid of finite positive (pv, nv).
One eigendecomposition of the unit-prior kernel K, its eigenvalues
clipped at 0, prices each grid point in O(N): see
``grid_search_hyperparameters``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DimensionMismatch, FormatError, NonFiniteValue
from .kernel import (
    KernelContext,
    as_inputs,
    jacobian,
    kernel_block_fast,
    kernel_diag_blocks,
    layer_walk,
)
from .linalg import CholeskyFactor, cholesky, solve_lower, solve_psd, sym_eig
from .nn import forward

EXACT_CAP = 3000  # max N*C for the function-space route
WEIGHT_SPACE_CAP = 2000  # max parameter count for the explicit precision
PREDICT_BLOCK_FLOATS = 2**22  # max entries of one query chunk's block in exact_covariances and last_layer_covariances (32 MB)
EVIDENCE_CAP = 500  # training points the CLI's evidence search reads (the first ones)
PRIOR_GRID = tuple(np.logspace(-3, 3, 10))  # prior variances of the default evidence search
NOISE_GRID = tuple(np.logspace(-4, 1, 10))  # noise variances of the default evidence search


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


def curvature_roots(likelihood, outputs):
    """(N, C, C) factors B_n with B_n B_n^T the curvature block at each output.

    I / sqrt(noise_variance) for the Gaussian likelihood. For the
    categorical one, B = diag(sqrt(p)) - p sqrt(p)^T at the softmax
    probabilities p: because sum(p) = 1, B B^T = diag(p) - p p^T exactly.
    Labels do not enter.
    """
    n, c = outputs.shape
    if likelihood.kind == "gaussian":
        return np.broadcast_to(np.eye(c) / np.sqrt(likelihood.noise_variance), (n, c, c)).copy()
    p = softmax(outputs)
    root_p = np.sqrt(p)
    roots = -p[:, :, None] * root_p[:, None, :]
    roots[:, np.arange(c), np.arange(c)] += root_p
    return roots


def whiten(roots, m):
    """B^T m for the block-diagonal B of the (N, C, C) roots and a point-major (N*C, M) m."""
    n, c, _ = roots.shape
    return (roots.transpose(0, 2, 1) @ m.reshape(n, c, -1)).reshape(n * c, -1)


class PosteriorState:
    """What every fitted state offers: ``predict`` and a payload for ``serialize``.

    A state is its ``ctx`` (the network and the prior variance), its
    ``likelihood`` (with the noise variance) and the arrays of its kind.
    ``predict(x)`` returns the GaussianPredictive at the inputs x, read by
    ``kernel.as_inputs``: the mean is the network's output, and each kind
    supplies only ``covariances(x)``, the (N, C, C) function-space
    covariances at an (N, D) array x. ``KIND`` tags the state in a state
    file. The payload holds the fields named in ``ARRAYS`` as arrays, the
    Cholesky factors named in ``FACTORS`` by their lower triangles (a
    factor that is None is left out), and the scalars in ``META`` (name ->
    type) as metadata; ``serialize`` stores ctx and likelihood itself.
    ``check`` runs on every state read from a payload and raises
    FormatError when its arrays do not fit the network.
    """

    KIND = None
    ARRAYS = ()
    FACTORS = ()
    META = {}

    def predict(self, x):
        x = as_inputs(x, self.ctx.net.arch.input_dim)
        return GaussianPredictive(forward(self.ctx.net, x).output, self.covariances(x), self.likelihood)

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
        state = cls(ctx=ctx, likelihood=likelihood, **fields)
        state.check()
        return state

    def check(self):
        pass


def gram_blocks(r, c, prior=None):
    """Symmetrized (N, C, C) blocks r_i^T r_i, or prior[i] - r_i^T r_i given a prior.

    r_i is the (q, C) column block of point i in the point-major (q, N*C)
    matrix r. With r = L^-1 v for a Cholesky factor L, r_i^T r_i is the
    quadratic form v_i^T (L L^T)^-1 v_i from one triangular solve. The
    stacked products run as one matmul over strided views.
    """
    q, n = r.shape[0], r.shape[1] // c
    blocks = r.reshape(q, n, c).transpose(1, 2, 0) @ r.reshape(q, n, c).transpose(1, 0, 2)
    if prior is not None:
        blocks = prior - blocks
    return 0.5 * (blocks + blocks.transpose(0, 2, 1))


@dataclass(frozen=True)
class MapState(PosteriorState):
    """Point-estimate baseline: the network output with zero function variance."""

    KIND = "map"

    ctx: KernelContext
    likelihood: LikelihoodModel

    def covariances(self, x):
        c = self.ctx.net.arch.output_dim
        return np.zeros((x.shape[0], c, c))


@dataclass(frozen=True)
class LlaExactState(PosteriorState):
    KIND = "lla-exact"
    ARRAYS = ("train_inputs", "sqrt_lambda")
    FACTORS = ("q_factor",)

    ctx: KernelContext
    likelihood: LikelihoodModel
    train_inputs: np.ndarray
    sqrt_lambda: np.ndarray  # (N, C, C) roots B with B B^T the curvature block (older files: symmetric roots)
    q_factor: object  # Cholesky of I + B^T kappa(X, X) B; None when N = 0

    def covariances(self, x):
        return exact_covariances(self, x)


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
    roots = curvature_roots(likelihood, forward(ctx.net, x).output)
    gram = kernel_block_fast(ctx, x, x).values
    gram = 0.5 * (gram + gram.T)
    q = np.eye(n * c) + whiten(roots, whiten(roots, gram).T)
    q = 0.5 * (q + q.T)
    return LlaExactState(
        ctx=ctx,
        likelihood=likelihood,
        train_inputs=x,
        sqrt_lambda=roots,
        q_factor=cholesky(q),
    )


def exact_covariances(state, x_star):
    """Prior blocks minus r^T r at each query, r = L^-1 B^T kappa(X, x*), in query chunks."""
    ctx = state.ctx
    prior = kernel_diag_blocks(ctx, x_star)
    if state.train_inputs.shape[0] == 0:
        return prior
    # queries in chunks, so the (N*C, chunk*C) cross kernel stays within the block size
    n, c = state.sqrt_lambda.shape[:2]
    chunk = max(1, PREDICT_BLOCK_FLOATS // (n * c * c))
    covs = np.empty_like(prior)
    for start in range(0, x_star.shape[0], chunk):
        rows = slice(start, start + chunk)
        v = whiten(state.sqrt_lambda, kernel_block_fast(ctx, state.train_inputs, x_star[rows]).values)
        covs[rows] = gram_blocks(solve_lower(state.q_factor, v), c, prior[rows])
    return covs


@dataclass(frozen=True)
class LlaWeightState(PosteriorState):
    KIND = "lla-weight"
    ARRAYS = ("precision",)
    FACTORS = ("covariance_factor",)

    ctx: KernelContext
    likelihood: LikelihoodModel
    precision: np.ndarray
    covariance_factor: object

    def covariances(self, x):
        return weight_space_covariances(self, x)


def fit_weight_space(ctx, likelihood, x, cap=WEIGHT_SPACE_CAP):
    """Assemble the Gauss-Newton precision over all parameters explicitly."""
    p = ctx.net.param_count
    if p > cap:
        raise CapExceeded(f"P = {p} exceeds weight-space cap {cap}")
    x = as_inputs(x, ctx.net.arch.input_dim)
    precision = np.eye(p) / ctx.prior_variance
    roots = curvature_roots(likelihood, forward(ctx.net, x).output)
    for root, xi in zip(roots, x):
        g = root.T @ jacobian(ctx, xi)  # G_n = B_n^T J(x_n), so G^T G sums to J^T Lambda J
        precision += g.T @ g
    precision = 0.5 * (precision + precision.T)
    return LlaWeightState(
        ctx=ctx,
        likelihood=likelihood,
        precision=precision,
        covariance_factor=cholesky(precision),
    )


def weight_space_covariances(state, x_star):
    """J P^-1 J^T at each query, symmetrized, one Jacobian at a time: a batch of them would take N*C*P floats."""
    c = state.ctx.net.arch.output_dim
    jacs = (jacobian(state.ctx, x) for x in x_star)
    covs = np.array([j @ solve_psd(state.covariance_factor, j.T) for j in jacs]).reshape(-1, c, c)
    return 0.5 * (covs + covs.transpose(0, 2, 1))


def _layer_blocks(arch, params):
    """Views of a (P,) parameter vector, one (w_{l-1}+1, w_l) block per layer: W_l rows, then b_l."""
    dims = arch.layer_dims
    sizes = [(dims[l] + 1) * dims[l + 1] for l in range(arch.depth)]
    parts = np.split(params, np.cumsum(sizes)[:-1])
    return [part.reshape(dims[l] + 1, dims[l + 1]) for l, part in enumerate(parts)]


@dataclass(frozen=True)
class LlaDiagState(PosteriorState):
    KIND = "lla-diag"
    ARRAYS = ("precision_diag",)

    ctx: KernelContext
    likelihood: LikelihoodModel
    precision_diag: np.ndarray

    def covariances(self, x):
        return diag_covariances(self, x)

    def check(self):
        p = self.ctx.net.param_count
        diag = self.precision_diag
        if diag.shape != (p,) or not np.all(np.isfinite(diag)) or np.any(diag <= 0):
            raise FormatError(f"precision_diag must hold {p} finite positive entries, got shape {diag.shape}")


def fit_diag(ctx, likelihood, x):
    """Keep only the diagonal of the Gauss-Newton precision.

    With G_n = B_n^T s_n, layer l's block of the diagonal adds
    sum_n outer(a~_n^2, sum_k G_n[k]^2), one GEMM over the training points.
    """
    net = ctx.net
    x = as_inputs(x, net.arch.input_dim)
    diag = np.full(net.param_count, 1.0 / ctx.prior_variance)
    blocks = _layer_blocks(net.arch, diag)
    roots_t = curvature_roots(likelihood, forward(net, x).output).transpose(0, 2, 1)
    for l, a, s in layer_walk(net, x):
        g = roots_t @ s
        blocks[l] += (a * a).T @ (g * g).sum(axis=1)
    return LlaDiagState(ctx=ctx, likelihood=likelihood, precision_diag=diag)


def diag_covariances(state, x_star):
    """Covariance sum_l (s * (a~^2 D_l)) s^T, with D_l layer l's block of 1 / precision_diag."""
    net = state.ctx.net
    c = net.arch.output_dim
    inv = _layer_blocks(net.arch, 1.0 / state.precision_diag)
    covs = np.zeros((x_star.shape[0], c, c))
    for l, a, s in layer_walk(net, x_star):
        covs += (s * ((a * a) @ inv[l])[:, None, :]) @ s.transpose(0, 2, 1)
    return 0.5 * (covs + covs.transpose(0, 2, 1))


@dataclass(frozen=True)
class LlaLastLayerState(PosteriorState):
    KIND = "lla-last-layer"
    FACTORS = ("precision_factor",)

    ctx: KernelContext
    likelihood: LikelihoodModel
    precision_factor: object  # Cholesky over the (width+1)*C last-layer parameters

    def covariances(self, x):
        return last_layer_covariances(self, x)

    def check(self):
        arch = self.ctx.net.arch
        dim = (arch.layer_dims[-2] + 1) * arch.output_dim
        if self.precision_factor is None or self.precision_factor.lower.shape != (dim, dim):
            raise FormatError(f"precision_factor must be a ({dim}, {dim}) lower triangle")


def last_layer_features(net, x):
    """(N, width+1) inputs to the final layer with the bias column: the top a~ of ``layer_walk``."""
    _, phi, _ = next(layer_walk(net, as_inputs(x, net.arch.input_dim)))
    return phi


def fit_last_layer(ctx, likelihood, x):
    """Weight-space pipeline restricted to the final layer's parameters."""
    net = ctx.net
    x = as_inputs(x, net.arch.input_dim)
    n, c = x.shape[0], net.arch.output_dim
    phi = last_layer_features(net, x)
    roots = curvature_roots(likelihood, forward(net, x).output)
    # precision[(i,j),(i',j')] = sum_n phi_i phi_i' Lambda_n[j,j'] at the
    # checkpoint columns i*C + j. Contracting Lambda_n = B_n B_n^T first
    # keeps the Kronecker structure: C GEMMs of C*w^2*N flops each, where
    # one GEMM per column of B would take C times as many.
    lam = roots @ roots.transpose(0, 2, 1)
    cols = phi.shape[1] * c
    precision = np.eye(cols) / ctx.prior_variance
    for j in range(c):
        precision[j::c] += phi.T @ (phi[:, :, None] * lam[:, None, j, :]).reshape(n, cols)
    precision = 0.5 * (precision + precision.T)
    return LlaLastLayerState(ctx=ctx, likelihood=likelihood, precision_factor=cholesky(precision))


def last_layer_covariances(state, x_star):
    """Covariance r^T r at each input, with r = L^-1 J^T and L the precision factor.

    J's row for output o holds phi_i at column i*C + o, so with L^-1
    regrouped as (F*C, F, C), r = phi . L^-1 is one batched product per
    query chunk of at most ``PREDICT_BLOCK_FLOATS`` entries of r.
    """
    net = state.ctx.net
    phi = last_layer_features(net, x_star)
    n, c = x_star.shape[0], net.arch.output_dim
    fc = phi.shape[1] * c
    inv_lower = solve_lower(state.precision_factor, np.eye(fc)).reshape(fc, -1, c)
    chunk = max(1, PREDICT_BLOCK_FLOATS // (fc * c))
    covs = np.empty((n, c, c))
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        r = np.matmul(phi[rows], inv_lower)  # (F*C, chunk, C): r[:, q] = L^-1 J(x_q)^T
        covs[rows] = gram_blocks(r.reshape(fc, -1), c)
    return covs


def _variance_grid(grid, default, name):
    """A search grid as a 1-D float64 array of finite positive variances."""
    grid = np.asarray(default if grid is None else grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)) or np.any(grid <= 0):
        raise DimensionMismatch(f"{name} must be a nonempty list of finite positive variances")
    return grid


def _log_evidence(spectrum, rotated_sq, prior_variance, noise_grid):
    """log N(r | 0, prior_variance K + nv I) for each nv in noise_grid.

    K = Q diag(spectrum) Q^T and rotated_sq = (Q^T r)^2, so the log
    determinant and the quadratic form are sums over the N eigenvalues.
    """
    scaled = prior_variance * spectrum + noise_grid[:, None]
    quad = np.sum(rotated_sq / scaled, axis=1)
    return -0.5 * (quad + np.sum(np.log(scaled), axis=1) + spectrum.shape[0] * np.log(2.0 * np.pi))


def grid_search_hyperparameters(net, x, y, prior_grid=None, noise_grid=None):
    """Maximize the regression evidence over a grid of the two variances.

    The evidence of a single-output network's residuals r = y - g(X) is
    log N(r | 0, pv K + nv I), with K = kappa(X, X) the tangent kernel at
    unit prior variance. One eigendecomposition K = Q diag(lambda) Q^T
    prices every grid point in O(N): with r~ = Q^T r,

        log det(pv K + nv I) = sum_i log(pv lambda_i + nv),
        r^T (pv K + nv I)^-1 r = sum_i r~_i^2 / (pv lambda_i + nv).

    K = J J^T is positive semidefinite, so eigenvalues that rounding
    leaves below zero are clipped to 0. Both grids (``PRIOR_GRID`` and
    ``NOISE_GRID`` when None) must be nonempty lists of finite positive
    variances; anything else raises DimensionMismatch.

    Returns (best_prior_variance, best_noise_variance, table). The table
    rows are (prior_variance, noise_variance, evidence), prior-major in
    grid order; the best entry is the first row with the largest evidence.
    """
    prior_grid = _variance_grid(prior_grid, PRIOR_GRID, "prior_grid")
    noise_grid = _variance_grid(noise_grid, NOISE_GRID, "noise_grid")
    if net.arch.output_dim != 1:
        raise DimensionMismatch("the evidence search needs a single-output regression network")
    x = as_inputs(x, net.arch.input_dim)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[0] == 0 or y.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"evidence search needs N >= 1 inputs and N targets, got {x.shape[0]} and {y.shape[0]}")
    resid = y - forward(net, x).output.ravel()
    if not np.all(np.isfinite(resid)):
        raise NonFiniteValue("evidence search residuals contain NaN or Inf")
    unscaled = kernel_block_fast(KernelContext(net=net, log_prior_variance=0.0), x, x).values
    eig = sym_eig(0.5 * (unscaled + unscaled.T))
    spectrum = np.maximum(eig.values, 0.0)
    rotated_sq = (eig.vectors.T @ resid) ** 2

    values = np.array([_log_evidence(spectrum, rotated_sq, pv, noise_grid) for pv in prior_grid])
    i, j = np.unravel_index(np.argmax(values), values.shape)
    table = [
        (float(pv), float(nv), float(value))
        for pv, row in zip(prior_grid, values)
        for nv, value in zip(noise_grid, row)
    ]
    return float(prior_grid[i]), float(noise_grid[j]), table
