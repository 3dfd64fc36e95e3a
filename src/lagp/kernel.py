"""Network-linearization kernels.

The prior covariance between two inputs is the scaled tangent kernel

    kappa(x, x') = prior_variance * J(x) @ J(x').T

with J(x) the (C, P) Jacobian of the network output at its trained
parameters. The Gram paths accumulate layer by layer and never
materialize a (N, C, P) tensor. With s_l(x) the back-propagated
sensitivities d(output)/d(pre-activation_l) and a~_l(x) = [a_{l-1}(x), 1]
the layer input with a bias column, the identity per layer l is

    sum over layer-l weights and biases of paired partials
        = <s_l(x)_o, s_l(x')_o'> * <a~_l(x), a~_l(x')>

because the derivative w.r.t. weight (i, j) factorizes into
sensitivity_j * input_i, and the bias column supplies the bias
derivatives' +1. Each layer's sensitivity pairs are one GEMM.

``layer_walk`` is the one walk that yields (a~, s) per layer: the Gram
(``kernel_block_fast``), diagonal (``kernel_diag_blocks``) and tape
(``kernel_tape``) paths read it, and so do the diagonal and last-layer
baselines of ``lla``. No path forms a Jacobian; the explicit one, with
a forward pass and back-propagation of its own, lives in the test suite
as the independent oracle of the walk.

A sparse-posterior step needs K_Z, the cross block kappa(X, Z), the prior
blocks kappa(x_i, x_i) and the gradient of the objective with respect to
Z. ``kernel_tape`` gets all of them from one walk over the stacked rows
[Z; X]: the block kappa([Z; X], Z), whose first rows are K_Z and whose
rest is the cross block, the prior blocks of the X rows, and each layer's
(a~, s) over every row. ``kernel_input_vjp`` reads that tape and takes the
gradient in reverse mode: a cotangent on the block is pushed through each
layer's pair and gain (recomputed, one GEMM each, so the tape never holds
anything the size of the block per layer), then back up the sensitivity
chain and down the tanh activations to Z, for about the cost of one more
kernel pass and no second walk.

Multi-output Gram matrices are laid out point-major: row i*C + c holds
output c of point i, keeping each (C, C) pair block contiguous.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class KernelContext:
    net: object
    log_prior_variance: float = 0.0

    @property
    def prior_variance(self):
        return float(np.exp(self.log_prior_variance))

    def with_log_prior_variance(self, value):
        return replace(self, log_prior_variance=float(value))


@dataclass(frozen=True)
class KernelBlockMatrix:
    left_points: int
    right_points: int
    outputs: int
    values: np.ndarray  # (left_points*C, right_points*C)


def as_inputs(x, input_dim):
    """Inputs as an (N, D) float64 array; the one shape rule of every public function.

    A 1-D array holds N scalar points when D = 1 and is one point when
    D > 1 (its length must then equal D). A 2-D array must be (N, D). Any
    other shape raises DimensionMismatch.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None] if input_dim == 1 else x[None, :]
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise DimensionMismatch(f"input has shape {x.shape}, expected (N, {input_dim})")
    return x


def layer_walk(net, x):
    """Yield (l, a~, s) for each layer l, from the last layer down.

    a~ = [a_{l-1}, 1] is the (N, w_{l-1}+1) layer input with a bias column
    and s the (N, C, w_l) sensitivities. The checkpoint stores W_l row-major
    and then b_l, so the Jacobian row of output c at point n over layer l's
    parameters is kron(a~[n], s[n, c]). Each a~ is one buffer, a column of
    ones after activations written in place. s starts as the (N, C, C)
    identities of the output layer and moves down one layer per GEMM over
    the N*C rows.
    """
    n, c = x.shape[0], net.arch.output_dim
    acts = [np.empty((n, w + 1)) for w in net.arch.layer_dims[:-1]]
    for a in acts:
        a[:, -1] = 1.0
    acts[0][:, :-1] = x
    for l in range(net.arch.depth - 1):
        h = acts[l][:, :-1] @ net.weights[l]
        h += net.biases[l]
        np.tanh(h, out=acts[l + 1][:, :-1])
    sens = np.zeros((n, c, c))
    sens.reshape(n, c * c)[:, :: c + 1] = 1.0
    for l in range(net.arch.depth - 1, -1, -1):
        yield l, acts[l], sens
        if l > 0:
            w, post = net.weights[l], acts[l][:, :-1]
            sens = (sens.reshape(n * c, w.shape[1]) @ w.T).reshape(n, c, w.shape[0])
            sens *= (1.0 - post * post)[:, None, :]


def _pair(sx, sz):
    """(N1, K1, N2, K2) sensitivity inner products <sx[i, o], sz[j, p]>, as one GEMM.

    K1 and K2 are C for plain sensitivities; ``lla`` also pairs whitened ones.
    """
    n1, k1, w = sx.shape
    n2, k2, _ = sz.shape
    return (sx.reshape(n1 * k1, w) @ sz.reshape(n2 * k2, w).T).reshape(n1, k1, n2, k2)


def _gram_term(ax, sx, az, sz):
    """(N1, K1, N2, K2) layer term of kappa(x_i, z_j): pair times gain <a~x_i, a~z_j>."""
    pair = _pair(sx, sz)
    pair *= (ax @ az.T)[:, None, :, None]
    return pair


def _diag_term(a, s):
    """(N, C, C) layer term of kappa(x_i, x_i): (s s^T) |a~|^2."""
    return (s @ s.transpose(0, 2, 1)) * np.einsum("ik,ik->i", a, a)[:, None, None]


def kernel_block_fast(ctx, batch_x, batch_z):
    """Gram matrix of kernel blocks for two batches; an empty batch gives an empty block.

    Accumulates the per-layer identity from the module docstring over one
    ``layer_walk`` per distinct batch, so no buffer ever scales with the
    parameter count. Equals the pairwise Jacobian products to
    floating-point accuracy.
    """
    x = as_inputs(batch_x, ctx.net.arch.input_dim)
    z = as_inputs(batch_z, ctx.net.arch.input_dim)
    net = ctx.net
    n1, n2 = x.shape[0], z.shape[0]
    c = net.arch.output_dim
    same = x.shape == z.shape and np.array_equal(x, z)
    walk = layer_walk(net, x)
    steps = ((step, step) for step in walk) if same else zip(walk, layer_walk(net, z))
    total = np.zeros((n1, c, n2, c))
    for (_, ax, sx), (_, az, sz) in steps:
        total += _gram_term(ax, sx, az, sz)

    values = ctx.prior_variance * total.reshape(n1 * c, n2 * c)
    return KernelBlockMatrix(left_points=n1, right_points=n2, outputs=c, values=values)


def kernel_diag_blocks(ctx, batch_x):
    """(N, C, C) diagonal blocks kappa(x_i, x_i) without the full Gram: sum_l (s s^T) |a~|^2."""
    x = as_inputs(batch_x, ctx.net.arch.input_dim)
    c = ctx.net.arch.output_dim
    total = np.zeros((x.shape[0], c, c))
    for _, a, s in layer_walk(ctx.net, x):
        total += _diag_term(a, s)
    return ctx.prior_variance * total


@dataclass(frozen=True)
class KernelTape:
    """One layer walk over the stacked rows [Z; X] and the kernel blocks read from it.

    ``stacked`` is kappa([Z; X], Z), ((M+N)*C, M*C) and point-major, so its
    first M*C rows are K_Z and the rest are kappa(X, Z). ``prior`` holds the
    (N, C, C) blocks kappa(x_i, x_i) of the X rows, and ``walk`` each
    layer's (a~, s) over all M+N rows, indexed by layer.
    """

    stacked: np.ndarray
    prior: np.ndarray
    walk: tuple

    @property
    def k_z(self):
        return self.stacked[: self.stacked.shape[1]]

    @property
    def cross(self):
        return self.stacked[self.stacked.shape[1] :]


def kernel_tape(ctx, z, x):
    """The ``KernelTape`` of the locations z and the inputs x, from one ``layer_walk``."""
    net = ctx.net
    z = as_inputs(z, net.arch.input_dim)
    x = as_inputs(x, net.arch.input_dim)
    m, n = z.shape[0], x.shape[0]
    c = net.arch.output_dim
    walk = [None] * net.arch.depth
    stacked = np.zeros((m + n, c, m, c))
    prior = np.zeros((n, c, c))
    for l, a, s in layer_walk(net, np.vstack([z, x])):
        walk[l] = (a, s)
        stacked += _gram_term(a, s, a[:m], s[:m])
        prior += _diag_term(a[m:], s[m:])
    stacked *= ctx.prior_variance
    prior *= ctx.prior_variance
    return KernelTape(stacked=stacked.reshape((m + n) * c, m * c), prior=prior, walk=tuple(walk))


def kernel_input_vjp(ctx, tape, cotangent):
    """(M, D) gradient of <cotangent, kappa([Z; X], Z)> w.r.t. the locations Z of the second argument.

    ``tape`` is the ``kernel_tape`` of Z and X, and ``cotangent`` is
    (M+N, C, M, C); entry [i, o, m, p] weights the (o, p) entry of
    kappa(row_i, z_m). Per layer, the pair and gain of the forward kernel
    are recomputed from the tape and give cotangents on the z-side layer
    inputs and sensitivities, each one GEMM. The sensitivity cotangents
    then run up the sensitivity chain s_{l-1} = (s_l W_l^T) * (1 - a_l^2),
    and the input cotangents down the tanh activations to Z.
    """
    net = ctx.net
    depth = net.arch.depth
    c = net.arch.output_dim
    n, m = tape.stacked.shape[0] // c, tape.stacked.shape[1] // c
    g = np.asarray(cotangent, dtype=np.float64)
    if g.shape != (n, c, m, c):
        raise DimensionMismatch(f"cotangent has shape {g.shape}, expected {(n, c, m, c)}")

    acts_z = [a[:m, :-1] for a, _ in tape.walk]  # z-side views of the tape
    sens_z = [s[:m] for _, s in tape.walk]
    act_bar = [None] * depth
    sens_bar = [None] * depth
    for l, (a, s) in enumerate(tape.walk):
        pair = _pair(s, sens_z[l])
        pair *= g
        gain_bar = pair.sum(axis=(1, 3))  # (M+N, M)
        act_bar[l] = gain_bar.T @ a[:, :-1]
        weighted = (g * (a @ a[:m].T)[:, None, :, None]).reshape(n * c, m * c)
        width = s.shape[2]
        sens_bar[l] = (weighted.T @ s.reshape(n * c, width)).reshape(m, c, width)

    # sensitivity cotangents flow up from layer 0; the top layer's
    # sensitivities are the constant identity and pass nothing on
    for l in range(1, depth):
        act_bar[l] -= 2.0 * acts_z[l] * (sens_bar[l - 1] * (sens_z[l] @ net.weights[l].T)).sum(axis=1)
        if l < depth - 1:
            sens_bar[l] += (sens_bar[l - 1] * (1.0 - acts_z[l] * acts_z[l])[:, None, :]) @ net.weights[l]

    for l in range(depth - 1, 0, -1):
        act_bar[l - 1] += (act_bar[l] * (1.0 - acts_z[l] * acts_z[l])) @ net.weights[l - 1].T
    return ctx.prior_variance * act_bar[0]
