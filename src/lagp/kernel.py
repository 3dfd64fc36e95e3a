"""Network-linearization kernels.

The prior covariance between two inputs is the scaled tangent kernel

    kappa(x, x') = prior_variance * J(x) @ J(x').T

with J(x) the (C, P) Jacobian of the network output at its trained
parameters. The Gram paths accumulate layer by layer and never
materialize a (N, C, P) tensor. With s_l(x) the back-propagated
sensitivities d(output)/d(h_l) and a_{l-1}(x) the input of layer l (x
itself for the first layer), the identity per layer l is

    sum over layer-l weights and biases of paired partials
        = <s_l(x)_o, s_l(x')_o'> * (<a_{l-1}(x), a_{l-1}(x')> + 1)

because the derivative w.r.t. weight (i, j) factorizes into
sensitivity_j * input_i, and the derivative w.r.t. bias j is
sensitivity_j alone, which adds the +1 to the gain. Each layer's
sensitivity pairs are one GEMM.

``gram`` (two ``nn.layer_walk`` walks read in step) and ``diag_blocks``
(one walk) are the only sums of these layer terms; both return unscaled
blocks. The tape below, the exact LLA of ``lla`` (its training walk
seeded with the curvature roots), the evidence search and ELLA all read
them. No path forms a Jacobian; the explicit one lives in the test suite
as the independent oracle of the walk. ``gram`` accumulates in panels of
left rows of at most about ``PANEL_FLOATS`` entries (one left point's
rows if those are more), so beyond the block it holds one panel scratch
and one panel's gain, not a second block. A walk paired with itself
gives a block symmetric to rounding, not bit for bit: each panel is its
own GEMM, so mirrored entries may come from different BLAS kernels.

A sparse-posterior step needs K_Z, the cross block kappa(X, Z), the prior
blocks kappa(x_i, x_i) and the gradient of the objective with respect to
Z. ``kernel_tape`` gets all of them from one walk over the stacked rows
[Z; X], X from the caller's trace: the block kappa([Z; X], Z), whose first
rows are K_Z and whose rest is the cross block, the prior blocks of the X
rows, and each layer's (a, s) over every row. ``kernel_input_vjp`` reads
that tape and takes the gradient in reverse mode: a cotangent on the block
is pushed through each layer's pair and gain (recomputed, one GEMM each,
so the tape never holds anything the size of the block per layer), then
back up the sensitivity chain and down the tanh activations to Z, for
about the cost of one more kernel pass and no second walk.

Multi-output Gram matrices are laid out point-major: row i*C + c holds
output c of point i, keeping each (C, C) pair block contiguous.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch
from .nn import ForwardTrace, forward, layer_walk

# block entries per panel of ``gram`` (2 MB). Swept over 2^15..2^19 on a 650-point 10-class
# exact predictive (one BLAS thread, 2 MB L2 per core): 2^18 and 2^19 ran fastest and 2^18 peaks lower.
PANEL_FLOATS = 2**18


@dataclass(frozen=True)
class KernelContext:
    net: object
    log_prior_variance: float = 0.0

    @property
    def prior_variance(self):
        return float(np.exp(self.log_prior_variance))

    def with_log_prior_variance(self, value):
        return replace(self, log_prior_variance=float(value))


def _pair(sx, sz):
    """(N1, K1, N2, K2) sensitivity inner products <sx[i, o], sz[j, p]>, as one GEMM.

    ``kernel_input_vjp`` recomputes each layer's pairs with it.
    """
    n1, k1, w = sx.shape
    n2, k2, _ = sz.shape
    return (sx.reshape(n1 * k1, w) @ sz.reshape(n2 * k2, w).T).reshape(n1, k1, n2, k2)


def _diag_term(a, s):
    """(N, C, C) layer term of kappa(x_i, x_i): (s s^T) (|a|^2 + 1)."""
    return (s @ s.transpose(0, 2, 1)) * (np.einsum("ik,ik->i", a, a) + 1.0)[:, None, None]


def gram(left, right):
    """Unscaled (N1, K1, N2, K2) block sum_l <s, s'> (<a, a'> + 1) of two ``nn.layer_walk`` walks.

    Both yield the steps (l, a, s) of the same layers in the same order,
    over N1 rows with K1 output combinations and N2 rows with K2. Layers
    are the outer loop, and panels of left rows holding about
    ``PANEL_FLOATS`` block entries the inner one. Per panel, the top
    layer's pairs are written straight into the block and every other
    layer's into one reused panel scratch; the gain, spread over the
    panel's contiguous (rows, N2*K2) layout, scales them in place, and
    the scratch is added to the block.
    """
    block = scratch = None
    for (_, a, s), (_, a2, s2) in zip(left, right):
        n1, k1, w = s.shape
        n2, k2, _ = s2.shape
        cols = n2 * k2
        if block is None:  # the top layer's pairs start the sum: no zero block to fill
            block = np.empty((n1 * k1, cols))
            step = max(1, min(n1, PANEL_FLOATS // max(1, k1 * cols)))  # left points per panel
        elif scratch is None:
            scratch = np.empty((step * k1, cols))
        left_rows, right_t = s.reshape(n1 * k1, w), s2.reshape(cols, w).T
        for start in range(0, n1, step):
            stop = min(start + step, n1)
            rows = slice(start * k1, stop * k1)
            out = block[rows] if scratch is None else scratch[: rows.stop - rows.start]
            np.matmul(left_rows[rows], right_t, out=out)
            gain = a[start:stop] @ a2.T
            gain += 1.0
            if k2 > 1:
                gain = np.repeat(gain, k2, axis=1)
            pairs = out.reshape(stop - start, k1, cols)
            pairs *= gain[:, None, :]
            if scratch is not None:
                block[rows] += out
    return block.reshape(n1, k1, n2, k2)


def diag_blocks(walk):
    """Unscaled (N, K, K) blocks sum_l (s s^T) (|a|^2 + 1) of one ``nn.layer_walk`` walk."""
    steps = iter(walk)
    _, a, s = next(steps)
    blocks = _diag_term(a, s)
    for _, a, s in steps:
        blocks += _diag_term(a, s)
    return blocks


def kernel_diag_blocks(ctx, batch_x):
    """(N, C, C) diagonal blocks kappa(x_i, x_i) without the full Gram."""
    return ctx.prior_variance * diag_blocks(layer_walk(ctx.net, forward(ctx.net, batch_x)))


@dataclass(frozen=True)
class KernelTape:
    """One layer walk over the stacked rows [Z; X] and the kernel blocks read from it.

    ``stacked`` is kappa([Z; X], Z), ((M+N)*C, M*C) and point-major, so its
    first M*C rows are K_Z and the rest are kappa(X, Z). ``prior`` holds the
    (N, C, C) blocks kappa(x_i, x_i) of the X rows, and ``walk`` each
    layer's (a, s) over all M+N rows, indexed by layer.
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


def kernel_tape(ctx, z, trace):
    """The ``KernelTape`` of the locations z and the batch of the ``nn.forward`` trace, from one ``nn.layer_walk``."""
    net = ctx.net
    tz = forward(net, z)
    m, n = tz.output.shape[0], trace.output.shape[0]
    c = net.arch.output_dim
    rows = ForwardTrace(
        tuple(np.vstack(pair) for pair in zip(tz.layer_inputs, trace.layer_inputs)),
        np.vstack([tz.output, trace.output]),
    )
    steps = list(layer_walk(net, rows))
    stacked = gram(steps, [(l, a[:m], s[:m]) for l, a, s in steps])
    prior = diag_blocks((l, a[m:], s[m:]) for l, a, s in steps)
    stacked *= ctx.prior_variance
    prior *= ctx.prior_variance
    walk = tuple((a, s) for _, a, s in reversed(steps))  # indexed by layer
    return KernelTape(stacked=stacked.reshape((m + n) * c, m * c), prior=prior, walk=walk)


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

    acts_z = [a[:m] for a, _ in tape.walk]  # z-side views of the tape
    sens_z = [s[:m] for _, s in tape.walk]
    act_bar = [None] * depth
    sens_bar = [None] * depth
    for l, (a, s) in enumerate(tape.walk):
        pair = _pair(s, sens_z[l])
        pair *= g
        gain_bar = pair.sum(axis=(1, 3))  # (M+N, M)
        act_bar[l] = gain_bar.T @ a
        weighted = (g * (a @ a[:m].T + 1.0)[:, None, :, None]).reshape(n * c, m * c)
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
