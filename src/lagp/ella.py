"""Accelerated low-rank posterior from a random anchor subset.

A subset of M training points anchors a low-rank approximation of the
unscaled tangent-kernel Gram matrix: its top-K eigenpairs define features

    phi(x) = eigval^{-1/2} eigvec^T vec(J(anchors) J(x)^T)

of dimension K per output channel, so phi(x) phi(x')^T approximates
J(x) J(x')^T. A single pass over the training data accumulates the
feature-space precision

    G = sum_n psi_n^T psi_n + (1/prior_variance) I_K,  psi_n = B_n^T phi(x_n)

with B_n the curvature root of ``lla.curvature_roots`` (B_n B_n^T is the
curvature block), one GEMM per chunk of points. Its inverse gives the
posterior covariance phi(x*) G^{-1} phi(x*)^T = r^T r, with
r = L_G^-1 phi(x*)^T from one triangular solve against the Cholesky
factor L_G of G, so every block is PSD by construction. At full rank (M = N,
K = N*C) this reproduces the exact posterior; at low rank it tends to
understate the variance away from the anchors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EigenFloorExhausted
from .kernel import as_inputs, kernel_block_fast
from .linalg import cholesky, rng_stream, solve_lower, sym_eig
from .lla import LikelihoodModel, PosteriorState, curvature_roots, gram_blocks, whiten
from .nn import forward

EIGEN_FLOOR_FACTOR = 1e-10
PASS_CHUNK = 256  # training points per GEMM of the accumulation pass


@dataclass(frozen=True)
class EllaState(PosteriorState):
    KIND = "ella"
    ARRAYS = ("anchors", "projection")
    FACTORS = ("precision_factor",)
    META = {"feature_dim": int}

    ctx: object
    likelihood: LikelihoodModel
    anchors: np.ndarray  # (M, D) subset of the training inputs
    feature_dim: int
    projection: np.ndarray  # (K, M*C), maps unscaled kernel columns to features
    precision_factor: object  # Cholesky of G

    def covariances(self, x):
        return ella_covariances(self, x)


def _features(state_ctx, projection, anchors, x):
    """(N, C, K) feature rows per output channel."""
    unscaled = state_ctx.with_log_prior_variance(0.0)
    k = projection.shape[0]
    n = x.shape[0]
    c = state_ctx.net.arch.output_dim
    proj = projection @ kernel_block_fast(unscaled, anchors, x).values  # (K, N*C)
    return proj.reshape(k, n, c).transpose(1, 2, 0)


def ella_fit(ctx, likelihood, x, m=20, k=20, seed=0, max_points=None):
    """Anchor, eigendecompose, then accumulate the precision in one pass.

    ``k=None`` keeps every eigenpair above the floor, which is the
    largest usable rank (anchor Gram matrices are routinely
    rank-deficient). ``max_points`` truncates the pass to the first
    points of ``x`` (the early-stopping variant); anchors are still drawn
    from the full set.
    """
    x = as_inputs(x, ctx.net.arch.input_dim)
    n = x.shape[0]
    c = ctx.net.arch.output_dim
    if not 1 <= m <= n:
        raise DimensionMismatch(f"need 1 <= M <= N, got M={m}, N={n}")
    if k is not None and not 1 <= k <= m * c:
        raise DimensionMismatch(f"need 1 <= K <= M*C, got K={k}")
    if max_points is not None and max_points < 1:
        raise DimensionMismatch(f"need max_points >= 1, got {max_points}")

    rng = rng_stream(seed)
    anchor_idx = np.sort(rng.choice(n, size=m, replace=False))
    anchors = x[anchor_idx].copy()

    unscaled = ctx.with_log_prior_variance(0.0)
    gram = kernel_block_fast(unscaled, anchors, anchors).values
    gram = 0.5 * (gram + gram.T)
    eig = sym_eig(gram)
    floor = EIGEN_FLOOR_FACTOR * max(eig.values[0], 0.0)
    usable = int(np.sum(eig.values > floor))
    if k is None:
        k = usable
    if usable < k:
        raise EigenFloorExhausted(
            f"only {usable} eigenvalues above floor {floor:.3e}, requested K={k}"
        )
    vals = eig.values[:k]
    vecs = eig.vectors[:, :k]
    projection = vecs.T / np.sqrt(vals)[:, None]

    n_pass = n if max_points is None else min(max_points, n)
    precision = np.eye(k) / ctx.prior_variance
    for start in range(0, n_pass, PASS_CHUNK):
        stop = min(start + PASS_CHUNK, n_pass)
        xb = x[start:stop]
        phi = _features(ctx, projection, anchors, xb)  # (B, C, K)
        roots = curvature_roots(likelihood, forward(ctx.net, xb).output)
        psi = whiten(roots, phi.reshape(-1, k))  # (B*C, K)
        precision += psi.T @ psi
    precision = 0.5 * (precision + precision.T)
    return EllaState(
        ctx=ctx,
        likelihood=likelihood,
        anchors=anchors,
        feature_dim=k,
        projection=projection,
        precision_factor=cholesky(precision),
    )


def ella_covariances(state, x_star):
    """r^T r at each query, r = L_G^-1 phi(x*)^T, from one triangular solve over every query."""
    phi = _features(state.ctx, state.projection, state.anchors, x_star)  # (N, C, K)
    r = solve_lower(state.precision_factor, phi.reshape(-1, state.feature_dim).T)
    return gram_blocks(r, phi.shape[1])
