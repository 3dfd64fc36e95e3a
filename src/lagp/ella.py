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
r = L_G^-1 phi(x*)^T from one ``linalg.solve_lower`` over every query,
in place on the fresh (K, N*C) feature block, against the Cholesky
factor L_G of G, so every block is PSD by construction. At full rank
(M = N, K = N*C) this reproduces the exact posterior; at low rank it
tends to understate the variance away from the anchors. The anchors are
walked once per fit or prediction, and ``kernel.gram`` pairs that walk
with itself for the anchor Gram and with each pass chunk's walk for its
features; the chunk's trace gives both its features and its curvature
roots.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EigenFloorExhausted, FormatError
from .kernel import gram
from .linalg import cholesky, rng_stream, solve_lower, sym_eig
from .lla import LikelihoodModel, PosteriorState, curvature_roots, gram_blocks, whiten
from .nn import as_inputs, forward, layer_walk

EIGEN_FLOOR_FACTOR = 1e-10
PASS_CHUNK = 256  # training points per GEMM of the accumulation pass


@dataclass(frozen=True)
class EllaState(PosteriorState):
    KIND = "ella"
    ARRAYS = ("anchors", "projection")
    FACTORS = ("precision_factor",)

    ctx: object
    likelihood: LikelihoodModel
    anchors: np.ndarray  # (M, D) subset of the training inputs
    projection: np.ndarray  # (K, M*C), maps unscaled kernel columns to features
    precision_factor: object  # Cholesky of G

    @property
    def feature_dim(self):
        return self.projection.shape[0]

    def covariances(self, trace):
        """r^T r at each query of ``trace``, r = L_G^-1 phi(x*)^T, from one ``solve_lower`` over every query."""
        net = self.ctx.net
        walk = list(layer_walk(net, forward(net, self.anchors)))
        r = solve_lower(self.precision_factor, _features(net, self.projection, walk, trace), overwrite_b=True)
        return gram_blocks(r, net.arch.output_dim)

    def check(self):
        arch = self.ctx.net.arch
        anchors, projection = self.anchors, self.projection
        if anchors.ndim != 2 or anchors.shape[0] < 1 or anchors.shape[1] != arch.input_dim:
            raise FormatError(f"anchors must be (M, {arch.input_dim}) with M >= 1, got shape {anchors.shape}")
        cols = anchors.shape[0] * arch.output_dim
        if projection.ndim != 2 or projection.shape[0] < 1 or projection.shape[1] != cols:
            raise FormatError(f"projection must be (K, {cols}) with K >= 1, got shape {projection.shape}")
        k = projection.shape[0]
        shape = None if self.precision_factor is None else self.precision_factor.lower.shape
        if shape != (k, k):
            raise FormatError(f"precision_factor must be a ({k}, {k}) lower triangle, got {shape}")


def _features(net, projection, anchors_walk, trace):
    """(K, N*C) features phi(x)^T at the inputs of ``trace``, point-major columns, from the stored anchor walk."""
    block = gram(anchors_walk, layer_walk(net, trace))  # (M, C, N, C), unscaled
    m, c, n, _ = block.shape
    return projection @ block.reshape(m * c, n * c)


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

    net = ctx.net
    walk = list(layer_walk(net, forward(net, anchors)))
    anchor_gram = gram(walk, walk).reshape(m * c, m * c)
    eig = sym_eig(0.5 * (anchor_gram + anchor_gram.T))
    floor = EIGEN_FLOOR_FACTOR * max(eig.values[0], 0.0)
    usable = int(np.sum(eig.values > floor))
    if k is None:
        k = usable
    if usable < k:
        raise EigenFloorExhausted(f"only {usable} eigenvalues above floor {floor:.3e}, requested K={k}")
    projection = eig.vectors[:, :k].T / np.sqrt(eig.values[:k])[:, None]

    n_pass = n if max_points is None else min(max_points, n)
    precision = np.eye(k) / ctx.prior_variance
    for start in range(0, n_pass, PASS_CHUNK):
        stop = min(start + PASS_CHUNK, n_pass)
        trace = forward(net, x[start:stop])
        phi = _features(net, projection, walk, trace).T  # (B*C, K)
        roots = curvature_roots(likelihood, trace.output)
        psi = whiten(roots, phi)  # (B*C', K), C' the column count of the roots
        precision += psi.T @ psi
    precision = 0.5 * (precision + precision.T)
    return EllaState(
        ctx=ctx,
        likelihood=likelihood,
        anchors=anchors,
        projection=projection,
        precision_factor=cholesky(precision),
    )
