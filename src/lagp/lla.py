"""Gaussian-process posteriors for the linearized network.

The exact route conditions the tangent-kernel prior on the training data
in function space. Through the Woodbury identity it equals J P^-1 J^T
with P = I / prior_variance + sum_n J_n^T Lambda_n J_n, the full
Gauss-Newton precision over every parameter; that dense precision is
never built here. The test suite keeps it, from explicit Jacobians, as
the oracle of the exact, diagonal and last-layer routes.

No route forms a Jacobian. Each fit runs ``nn.forward`` once over X:
the outputs of that trace give the curvature roots B below, and the
exact and diagonal fits walk the same trace with ``nn.layer_walk``
seeded with B^T, so the sensitivities arrive whitened. A prediction
likewise runs ``nn.forward`` once over its queries: the trace gives the
mean, and each kind's ``covariances`` reads the same trace. The checkpoint
stores each layer's W_l (w_{l-1} x w_l, row-major) and then b_l, so over
layer l's parameters the Jacobian row of output c at input x is
kron(a(x), s(x)_c) followed by s(x)_c, with a the layer input and s the
sensitivities. A diagonal weighting of layer l's weights then reduces to
one GEMM of a^2 against the sensitivities, and its biases to a sum of
the squared sensitivities; the last layer's input with a ones column
appended is the feature vector phi.

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
takes Q from ``kernel.gram`` of one walk over X seeded with B^T, so the
sensitivities arrive whitened and no (N*C)^2 kernel is formed, and
factors Q in place (``linalg.cholesky`` with ``overwrite_a``), so the fit
holds one (N*K)^2 block. The predictive covariance is cov = prior - r^T r blockwise, with
r = L^-1 v, v = B^T kappa(X, x*) and L the Cholesky factor of Q, from
``linalg.solve_lower``, whose blocked substitution spends nearly all its
flops in GEMM and runs in place on each query chunk's fresh v. The
diagonal and last-layer fits add their part of G^T G with G = B^T J per
data point; only the last-layer fit forms B B^T, to keep its Kronecker
structure. The last-layer predictive reads
L^-1 itself, from one LAPACK ``dtrtri`` (``linalg.inverse_lower``).

Regression picks its variances by maximizing the evidence
log N(y - g(X) | 0, pv K + nv I) over a grid of finite positive (pv, nv).
The eigenvalues of the unit-prior kernel K, clipped at 0, and the squared
coordinates of the residuals in K's eigenbasis price each grid point in
O(N). One tridiagonal reduction gives both, and K's eigenvectors are
never formed: see ``grid_search_hyperparameters`` and
``linalg.eigvals_and_squares``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DimensionMismatch, FormatError, NonFiniteValue
from .kernel import KernelContext, diag_blocks, gram
from .linalg import CholeskyFactor, cholesky, eigvals_and_squares, inverse_lower, solve_lower
from .nn import forward, layer_blocks, layer_walk

EXACT_CAP = 3000  # max N*C for the function-space route
PREDICT_BLOCK_FLOATS = 2**22  # max entries of one query chunk's block in the exact and last-layer covariances (32 MB)
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


class PosteriorState:
    """What every fitted state offers: ``predict`` and a payload for ``serialize``.

    A state is its ``ctx`` (the network and the prior variance), its
    ``likelihood`` (with the noise variance) and the arrays of its kind.
    ``predict(x)`` returns the GaussianPredictive at the inputs x: it runs
    ``nn.forward`` once, which reads x by ``nn.as_inputs``, and takes the
    mean from that trace's output. Each kind supplies only
    ``covariances(trace)``, the (N, C, C) function-space covariances at
    the inputs of that same trace; a NaN or Inf among them raises
    NonFiniteValue. ``KIND`` tags the state in a state file. The
    payload holds the fields named in ``ARRAYS`` as arrays, the
    Cholesky factors named in ``FACTORS`` by their lower triangles (a
    factor that is None is left out), and the scalars in ``META`` (name ->
    type) as metadata; ``serialize`` stores ctx and likelihood itself.
    Reading a payload raises FormatError, naming the field, when an array
    or factor holds NaN or Inf, or when a factor's diagonal is not
    strictly positive; ``check`` then runs on the state and raises
    FormatError when its arrays do not fit the network.
    """

    KIND = None
    ARRAYS = ()
    FACTORS = ()
    META = {}

    def predict(self, x):
        trace = forward(self.ctx.net, x)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the check below reports it
            covs = self.covariances(trace)
        if not np.all(np.isfinite(covs)):
            raise NonFiniteValue(f"{self.KIND} state predicted NaN or Inf covariances")
        return GaussianPredictive(trace.output, covs, self.likelihood)

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
            if lower is not None:
                if lower.ndim != 2:
                    raise FormatError(f"{name} must be a matrix, got shape {lower.shape}")
                if not np.all(np.diagonal(lower) > 0.0):
                    raise FormatError(f"{name} must be a Cholesky factor with a strictly positive diagonal")
                lower = CholeskyFactor(lower=lower, dim=lower.shape[0])
            fields[name] = lower
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
    quadratic form v_i^T (L L^T)^-1 v_i. The stacked products run as one
    matmul over strided views.
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

    def covariances(self, trace):
        n, c = trace.output.shape
        return np.zeros((n, c, c))


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

    def covariances(self, trace):
        """Prior blocks minus r^T r at the queries of ``trace``, r = L^-1 B^T kappa(X, x*), in query chunks.

        X is walked once, seeded with B^T; each chunk of the query trace is
        walked once, and that walk gives both its prior blocks
        (``kernel.diag_blocks``) and its cross block (``kernel.gram``). The
        walk is dropped before the solve, which runs in place on the fresh
        cross block.
        """
        ctx = self.ctx
        if self.q_factor is None:  # N*K = 0: the posterior is the prior
            return ctx.prior_variance * diag_blocks(layer_walk(ctx.net, trace))
        n, c, k = self.sqrt_lambda.shape
        seed = ctx.prior_variance * self.sqrt_lambda.transpose(0, 2, 1)
        train = list(layer_walk(ctx.net, forward(ctx.net, self.train_inputs), seed))
        # queries in chunks, so the (N*K, chunk*C) cross block stays within the block size
        chunk = max(1, PREDICT_BLOCK_FLOATS // (n * k * c))
        covs = np.empty((trace.output.shape[0], c, c))
        for start in range(0, covs.shape[0], chunk):
            rows = slice(start, start + chunk)
            query = list(layer_walk(ctx.net, trace.rows(rows)))
            prior = diag_blocks(query)
            prior *= ctx.prior_variance
            cross = gram(train, query).reshape(n * k, -1)
            del query  # the solve does not read the walk
            covs[rows] = gram_blocks(solve_lower(self.q_factor, cross, overwrite_b=True), c, prior)
            del cross  # the next chunk's blocks must not coexist with these
        return covs

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

    Q = I + B^T kappa(X, X) B is ``kernel.gram`` of a single walk over X,
    seeded with B^T scaled by sqrt(prior_variance) and paired with
    itself: each layer adds (S S^T) * (A A^T + 1) for the whitened
    sensitivities S = B^T s and the layer inputs A. Q is factored in
    place: its block becomes the factor.
    """
    trace = forward(ctx.net, x)
    n, c = trace.output.shape
    if n * c > cap:
        raise CapExceeded(f"N*C = {n * c} exceeds exact cap {cap}; use a sparse method")
    roots = curvature_roots(likelihood, trace.output)
    k = roots.shape[2]
    q_factor = None
    if n * k:
        walk = list(layer_walk(ctx.net, trace, np.sqrt(ctx.prior_variance) * roots.transpose(0, 2, 1)))
        q = gram(walk, walk).reshape(n * k, n * k)
        q.flat[:: n * k + 1] += 1.0
        q_factor = cholesky(q, overwrite_a=True)
    return LlaExactState(
        ctx=ctx, likelihood=likelihood, train_inputs=trace.layer_inputs[0], sqrt_lambda=roots, q_factor=q_factor
    )


@dataclass(frozen=True)
class LlaDiagState(PosteriorState):
    KIND = "lla-diag"
    ARRAYS = ("precision_diag",)

    ctx: KernelContext
    likelihood: LikelihoodModel
    precision_diag: np.ndarray

    def covariances(self, trace):
        """sum_l (s * (a^2 V_l + u_l)) s^T over the walk of ``trace``, V_l and u_l rows of 1 / precision_diag."""
        net = self.ctx.net
        inv = layer_blocks(net.arch, 1.0 / self.precision_diag)
        n, c = trace.output.shape
        covs = np.zeros((n, c, c))
        for l, a, s in layer_walk(net, trace):
            scale = (a * a) @ inv[l][:-1] + inv[l][-1]
            covs += (s * scale[:, None, :]) @ s.transpose(0, 2, 1)
        return 0.5 * (covs + covs.transpose(0, 2, 1))

    def check(self):
        p = self.ctx.net.param_count
        diag = self.precision_diag
        if diag.shape != (p,) or np.any(diag <= 0):
            raise FormatError(f"precision_diag must hold {p} positive entries, got shape {diag.shape}")


def fit_diag(ctx, likelihood, x):
    """Keep only the diagonal of the Gauss-Newton precision.

    With G_n = B_n^T s_n from the walk seeded with B^T, layer l's weight
    rows of the diagonal add sum_n outer(a_n^2, sum_k G_n[k]^2), one GEMM
    over the training points, and its bias row adds sum_n sum_k G_n[k]^2.
    """
    net = ctx.net
    trace = forward(net, x)
    diag = np.full(net.param_count, 1.0 / ctx.prior_variance)
    blocks = layer_blocks(net.arch, diag)
    roots_t = curvature_roots(likelihood, trace.output).transpose(0, 2, 1)
    for l, a, s in layer_walk(net, trace, roots_t):
        g2 = (s * s).sum(axis=1)
        blocks[l][:-1] += (a * a).T @ g2
        blocks[l][-1] += g2.sum(axis=0)
    return LlaDiagState(ctx=ctx, likelihood=likelihood, precision_diag=diag)


@dataclass(frozen=True)
class LlaLastLayerState(PosteriorState):
    KIND = "lla-last-layer"
    FACTORS = ("precision_factor",)

    ctx: KernelContext
    likelihood: LikelihoodModel
    precision_factor: object  # Cholesky over the (width+1)*C last-layer parameters

    def covariances(self, trace):
        """Covariance r^T r at each input of ``trace``, with r = L^-1 J^T and L the precision factor.

        J's row for output o holds phi_i at column i*C + o, so with L^-1
        (``linalg.inverse_lower``) regrouped as (F*C, F, C), r = phi . L^-1
        is one batched product per query chunk of at most
        ``PREDICT_BLOCK_FLOATS`` entries of r.
        """
        phi = last_layer_features(trace)
        n, c = trace.output.shape
        fc = phi.shape[1] * c
        inv_lower = inverse_lower(self.precision_factor).reshape(fc, -1, c)
        chunk = max(1, PREDICT_BLOCK_FLOATS // (fc * c))
        covs = np.empty((n, c, c))
        for start in range(0, n, chunk):
            rows = slice(start, start + chunk)
            r = np.matmul(phi[rows], inv_lower)  # (F*C, chunk, C): r[:, q] = L^-1 J(x_q)^T
            covs[rows] = gram_blocks(r.reshape(fc, -1), c)
        return covs

    def check(self):
        arch = self.ctx.net.arch
        dim = (arch.layer_dims[-2] + 1) * arch.output_dim
        if self.precision_factor is None or self.precision_factor.lower.shape != (dim, dim):
            raise FormatError(f"precision_factor must be a ({dim}, {dim}) lower triangle")


def last_layer_features(trace):
    """(N, width+1) features phi of a ``nn.forward`` trace: the final layer's input and a ones column."""
    a = trace.layer_inputs[-1]
    return np.concatenate([a, np.ones((a.shape[0], 1))], axis=1)


def fit_last_layer(ctx, likelihood, x):
    """Weight-space pipeline restricted to the final layer's parameters."""
    trace = forward(ctx.net, x)
    n, c = trace.output.shape
    phi = last_layer_features(trace)
    roots = curvature_roots(likelihood, trace.output)
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
    unit prior variance. With K = Q diag(lambda) Q^T and r~ = Q^T r, every
    grid point costs O(N):

        log det(pv K + nv I) = sum_i log(pv lambda_i + nv),
        r^T (pv K + nv I)^-1 r = sum_i r~_i^2 / (pv lambda_i + nv).

    ``linalg.eigvals_and_squares`` gives lambda and r~^2 from one tridiagonal
    reduction of K, without forming Q. K = J J^T is positive
    semidefinite, so eigenvalues that rounding leaves below zero are
    clipped to 0. Both grids (``PRIOR_GRID`` and ``NOISE_GRID`` when
    None) must be nonempty lists of finite positive variances; anything
    else raises DimensionMismatch.

    Returns (best_prior_variance, best_noise_variance, table). The table
    rows are (prior_variance, noise_variance, evidence), prior-major in
    grid order; the best entry is the first row with the largest evidence.
    """
    prior_grid = _variance_grid(prior_grid, PRIOR_GRID, "prior_grid")
    noise_grid = _variance_grid(noise_grid, NOISE_GRID, "noise_grid")
    if net.arch.output_dim != 1:
        raise DimensionMismatch("the evidence search needs a single-output regression network")
    trace = forward(net, x)
    n = trace.output.shape[0]
    y = np.asarray(y, dtype=np.float64).ravel()
    if n == 0 or y.shape[0] != n:
        raise DimensionMismatch(f"evidence search needs N >= 1 inputs and N targets, got {n} and {y.shape[0]}")
    resid = y - trace.output.ravel()
    if not np.all(np.isfinite(resid)):
        raise NonFiniteValue("evidence search residuals contain NaN or Inf")
    walk = list(layer_walk(net, trace))
    unscaled = gram(walk, walk).reshape(n, n)
    spectrum, rotated_sq = eigvals_and_squares(0.5 * (unscaled + unscaled.T), resid)
    spectrum = np.maximum(spectrum, 0.0)

    values = np.array([_log_evidence(spectrum, rotated_sq, pv, noise_grid) for pv in prior_grid])
    i, j = np.unravel_index(np.argmax(values), values.shape)
    table = [
        (float(pv), float(nv), float(value))
        for pv, row in zip(prior_grid, values)
        for nv, value in zip(noise_grid, row)
    ]
    return float(prior_grid[i]), float(noise_grid[j]), table
