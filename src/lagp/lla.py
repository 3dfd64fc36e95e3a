"""Gaussian-process posteriors for the linearized network.

The exact route conditions the tangent-kernel prior on the training data
in function space. Through the Woodbury identity it equals J P^-1 J^T
with P = I / prior_variance + sum_n J_n^T Lambda_n J_n, the full
Gauss-Newton precision over every parameter; that dense precision is
never built here. The test suite keeps it, from explicit Jacobians, as
the oracle of the exact, diagonal and last-layer routes.

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
the closed-form (C, K) factor B of ``curvature_roots``, with B B^T equal
to the curvature block: K = C for the Gaussian case and K = C - 1, the
rank of the softmax block, for the categorical one. The categorical block
is singular, so the function-space route whitens the kernel with B:
solves use the N*K square Q = I + B^T kappa(X, X) B, which is always
positive definite, instead of inverting the curvature. ``fit_exact``
assembles Q in place from one ``layer_walk`` over X, each layer's
sensitivities whitened to B^T s first, so no (N*C)^2 kernel is formed.
The predictive covariance is cov = prior - r^T r blockwise, with
r = L^-1 v, v = B^T kappa(X, x*) and L the Cholesky factor of Q: one
triangular solve. The diagonal and last-layer fits add their part of
G^T G with G = B^T J per data point; only the last-layer fit forms
B B^T, to keep its Kronecker structure.

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
    _diag_term,
    _gram_term,
    as_inputs,
    kernel_block_fast,
    kernel_diag_blocks,
    layer_walk,
)
from .linalg import CholeskyFactor, cholesky, solve_lower, sym_eig
from .nn import forward, layer_blocks

EXACT_CAP = 3000  # max N*C for the function-space route
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
    """(N, C, K) factors B_n with B_n B_n^T the curvature block at each output.

    I / sqrt(noise_variance), K = C, for the Gaussian likelihood. The
    categorical block diag(p) - p p^T at the softmax probabilities p has
    rank C - 1 and null vector sqrt(p); it equals B B^T for
    B = diag(sqrt(p)) - p sqrt(p)^T, and B H too, with H the Householder
    reflection that maps sqrt(p) to -e_C (u = sqrt(p) + e_C, |u|^2 >= 2).
    B H has a zero last column, and its first K = C - 1 columns are

        rows i < C:  delta_ij sqrt(p_j) - p_i sqrt(p_j) / (1 + sqrt(p_C))
        row C:       -sqrt(p_C) sqrt(p_j).

    Labels do not enter.
    """
    n, c = outputs.shape
    if likelihood.kind == "gaussian":
        return np.broadcast_to(np.eye(c) / np.sqrt(likelihood.noise_variance), (n, c, c)).copy()
    p = softmax(outputs)
    root_p = np.sqrt(p)
    head = root_p[:, : c - 1]
    coef = p / (1.0 + root_p[:, -1:])
    coef[:, -1] = root_p[:, -1]
    roots = -coef[:, :, None] * head[:, None, :]
    roots[:, np.arange(c - 1), np.arange(c - 1)] += head
    return roots


def whiten(roots, m):
    """B^T m for the block-diagonal B of the (N, C, K) roots and a point-major (N*C, M) m: (N*K, M)."""
    n, c, k = roots.shape
    cols = m.shape[1]
    return (roots.transpose(0, 2, 1) @ m.reshape(n, c, cols)).reshape(n * k, cols)


def _whitened_walk(net, roots, x):
    """Yield (a~, B^T s) per ``layer_walk`` layer over x: the sensitivities whitened to (N, K, w)."""
    roots_t = roots.transpose(0, 2, 1)
    for _, a, s in layer_walk(net, x):
        yield a, roots_t @ s


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
    Reading a payload raises FormatError, naming the field, when an array
    or factor holds NaN or Inf; ``check`` then runs on the state and
    raises FormatError when its arrays do not fit the network.
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
        for name in (*cls.ARRAYS, *cls.FACTORS):
            if name in arrays and not np.isfinite(arrays[name]).all():
                raise FormatError(f"{name} holds NaN or Inf")
        for name in cls.FACTORS:
            lower = arrays.get(name)
            if lower is not None and lower.ndim != 2:
                raise FormatError(f"{name} must be a matrix, got shape {lower.shape}")
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
    sqrt_lambda: np.ndarray  # (N, C, K) roots B of ``curvature_roots``, K = C - 1 or C (older files: symmetric (N, C, C) roots)
    q_factor: object  # Cholesky of the N*K square I + B^T kappa(X, X) B; None when N*K = 0

    def covariances(self, x):
        return exact_covariances(self, x)

    def check(self):
        arch = self.ctx.net.arch
        c = arch.output_dim
        x, roots = self.train_inputs, self.sqrt_lambda
        if x.ndim != 2 or x.shape[1] != arch.input_dim:
            raise FormatError(f"train_inputs must be (N, {arch.input_dim}), got shape {x.shape}")
        n = x.shape[0]
        if roots.shape not in ((n, c, c - 1), (n, c, c)):
            raise FormatError(f"sqrt_lambda must be ({n}, {c}, {c - 1} or {c}), got shape {roots.shape}")
        dim = n * roots.shape[2]
        shape = None if self.q_factor is None else self.q_factor.lower.shape
        if shape != ((dim, dim) if dim else None):
            raise FormatError(f"q_factor must be a ({dim}, {dim}) lower triangle, absent when N*K = 0; got {shape}")


def fit_exact(ctx, likelihood, x, cap=EXACT_CAP):
    """Condition the tangent-kernel prior on the training data.

    Q = I + B^T kappa(X, X) B is accumulated layer by layer into one
    (N*K)^2 buffer from a single walk over X: with B scaled by
    sqrt(prior_variance), each layer adds (S S^T) * (A A^T) for the
    whitened sensitivities S = B^T s and the layer inputs A.
    """
    x = as_inputs(x, ctx.net.arch.input_dim)
    n = x.shape[0]
    c = ctx.net.arch.output_dim
    if n * c > cap:
        raise CapExceeded(f"N*C = {n * c} exceeds exact cap {cap}; use a sparse method")
    roots = curvature_roots(likelihood, forward(ctx.net, x).output)
    k = roots.shape[2]
    q_factor = None
    if n * k:
        q = np.zeros((n, k, n, k))
        for a, s in _whitened_walk(ctx.net, np.sqrt(ctx.prior_variance) * roots, x):
            q += _gram_term(a, s, a, s)
        q = q.reshape(n * k, n * k)
        q.flat[:: n * k + 1] += 1.0
        q_factor = cholesky(q)
    return LlaExactState(ctx=ctx, likelihood=likelihood, train_inputs=x, sqrt_lambda=roots, q_factor=q_factor)


def exact_covariances(state, x_star):
    """Prior blocks minus r^T r at each query, r = L^-1 B^T kappa(X, x*), in query chunks.

    X is walked once with its sensitivities whitened; each chunk of
    queries is walked once for both its cross block and its prior blocks.
    """
    ctx = state.ctx
    if state.q_factor is None:
        return kernel_diag_blocks(ctx, x_star)
    n, c, k = state.sqrt_lambda.shape
    train = list(_whitened_walk(ctx.net, ctx.prior_variance * state.sqrt_lambda, state.train_inputs))
    # queries in chunks, so the (N*K, chunk*C) cross block stays within the block size
    chunk = max(1, PREDICT_BLOCK_FLOATS // (n * k * c))
    covs = np.empty((x_star.shape[0], c, c))
    for start in range(0, x_star.shape[0], chunk):
        rows = x_star[start : start + chunk]
        v = np.zeros((n, k, rows.shape[0], c))
        prior = np.zeros((rows.shape[0], c, c))
        for (a, s), (_, aq, sq) in zip(train, layer_walk(ctx.net, rows)):
            v += _gram_term(a, s, aq, sq)
            prior += _diag_term(aq, sq)
        r = solve_lower(state.q_factor, v.reshape(n * k, -1))
        covs[start : start + chunk] = gram_blocks(r, c, ctx.prior_variance * prior)
        del v, r  # the next chunk's blocks must not coexist with these
    return covs


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
        if diag.shape != (p,) or np.any(diag <= 0):
            raise FormatError(f"precision_diag must hold {p} positive entries, got shape {diag.shape}")


def fit_diag(ctx, likelihood, x):
    """Keep only the diagonal of the Gauss-Newton precision.

    With G_n = B_n^T s_n, layer l's block of the diagonal adds
    sum_n outer(a~_n^2, sum_k G_n[k]^2), one GEMM over the training points.
    """
    net = ctx.net
    x = as_inputs(x, net.arch.input_dim)
    diag = np.full(net.param_count, 1.0 / ctx.prior_variance)
    blocks = layer_blocks(net.arch, diag)
    roots_t = curvature_roots(likelihood, forward(net, x).output).transpose(0, 2, 1)
    for l, a, s in layer_walk(net, x):
        g = roots_t @ s
        blocks[l] += (a * a).T @ (g * g).sum(axis=1)
    return LlaDiagState(ctx=ctx, likelihood=likelihood, precision_diag=diag)


def diag_covariances(state, x_star):
    """Covariance sum_l (s * (a~^2 D_l)) s^T, with D_l layer l's block of 1 / precision_diag."""
    net = state.ctx.net
    c = net.arch.output_dim
    inv = layer_blocks(net.arch, 1.0 / state.precision_diag)
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
