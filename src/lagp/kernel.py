"""Network-linearization kernels.

The prior covariance between two inputs is the scaled tangent kernel

    kappa(x, x') = prior_variance * J(x) @ J(x').T

with J(x) the (C, P) Jacobian of the network output at its trained
parameters. Two evaluation paths are provided: explicit Jacobian products
(the oracle), and a layer-by-layer accumulation that never materializes a
(N, C, P) tensor. The layerwise identity per layer l, with s_l(x) the
back-propagated sensitivities d(output)/d(pre-activation_l) and a_{l-1}(x)
the layer inputs, is

    sum over layer-l weights and biases of paired partials
        = <s_l(x)_o, s_l(x')_o'> * (<a_{l-1}(x), a_{l-1}(x')> + 1)

because the derivative w.r.t. weight (i, j) factorizes into
sensitivity_j * input_i, and the bias derivatives contribute the
trailing +1.

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


class StorageCounter:
    """Tallies auxiliary floats held by the fast kernel path.

    Covers activation and sensitivity buffers only, not the returned Gram
    matrix; it exists so tests can assert the fast path stays linear in
    layer widths instead of scaling with the parameter count.
    """

    def __init__(self):
        self.current = 0
        self.peak = 0

    def reset(self):
        self.current = 0
        self.peak = 0

    def add(self, n_floats):
        self.current += int(n_floats)
        self.peak = max(self.peak, self.current)

    def release(self, n_floats):
        self.current -= int(n_floats)


fast_path_counter = StorageCounter()


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


def _layer_inputs(net, x):
    """Inputs to each layer: [x, tanh(h_1), ..., tanh(h_{L-1})]."""
    acts = [x]
    current = x
    for l in range(net.arch.depth - 1):
        current = np.tanh(current @ net.weights[l] + net.biases[l])
        acts.append(current)
    return acts


def _next_sensitivity(net, sens, post, l_next):
    """Propagate (N, C, w_{l+1}) sensitivities down one layer."""
    return np.einsum("ncj,kj->nck", sens, net.weights[l_next]) * (1.0 - post * post)[:, None, :]


def _initial_sensitivity(n, c):
    return np.broadcast_to(np.eye(c), (n, c, c)).copy()


def jacobian(ctx, x):
    """Explicit (C, P) Jacobian of the network output at one input.

    Columns are layer-major and match the checkpoint parameter order.
    """
    x = as_inputs(x, ctx.net.arch.input_dim)
    if x.shape[0] != 1:
        raise DimensionMismatch("jacobian takes a single input vector")
    net = ctx.net
    depth = net.arch.depth
    c = net.arch.output_dim
    acts = _layer_inputs(net, x)
    blocks = [None] * depth
    sens = _initial_sensitivity(1, c)
    for l in range(depth - 1, -1, -1):
        a_in = acts[l][0]  # (w_{l-1},)
        s = sens[0]  # (C, w_l)
        w_part = (a_in[None, :, None] * s[:, None, :]).reshape(c, -1)
        blocks[l] = np.concatenate([w_part, s], axis=1)
        if l > 0:
            sens = _next_sensitivity(net, sens, acts[l], l)
    return np.concatenate(blocks, axis=1)


def kernel_block_fast(ctx, batch_x, batch_z):
    """Gram matrix of kernel blocks for two batches.

    Accumulates the per-layer identity from the module docstring, so no
    buffer ever scales with the parameter count. Equals the pairwise
    Jacobian products to floating-point accuracy.
    """
    x = as_inputs(batch_x, ctx.net.arch.input_dim)
    z = as_inputs(batch_z, ctx.net.arch.input_dim)
    if x.shape[0] == 0 or z.shape[0] == 0:
        raise DimensionMismatch("batches must be nonempty")
    net = ctx.net
    depth = net.arch.depth
    n1, n2 = x.shape[0], z.shape[0]
    c = net.arch.output_dim
    same = x.shape == z.shape and np.array_equal(x, z)

    fast_path_counter.reset()
    acts_x = _layer_inputs(net, x)
    fast_path_counter.add(sum(a.size for a in acts_x))
    if same:
        acts_z = acts_x
    else:
        acts_z = _layer_inputs(net, z)
        fast_path_counter.add(sum(a.size for a in acts_z))

    total = np.zeros((n1, c, n2, c))
    sx = _initial_sensitivity(n1, c)
    sz = sx if same else _initial_sensitivity(n2, c)
    fast_path_counter.add(sx.size + (0 if same else sz.size))
    for l in range(depth - 1, -1, -1):
        pair = np.einsum("ick,jdk->icjd", sx, sz)
        pair *= (acts_x[l] @ acts_z[l].T + 1.0)[:, None, :, None]
        total += pair
        if l > 0:
            released = sx.size + (0 if same else sz.size)
            sx = _next_sensitivity(net, sx, acts_x[l], l)
            sz = sx if same else _next_sensitivity(net, sz, acts_z[l], l)
            fast_path_counter.add(sx.size + (0 if same else sz.size))
            fast_path_counter.release(released)

    values = ctx.prior_variance * total.reshape(n1 * c, n2 * c)
    return KernelBlockMatrix(left_points=n1, right_points=n2, outputs=c, values=values)


def kernel_diag_blocks(ctx, batch_x):
    """(N, C, C) diagonal blocks kappa(x_i, x_i) without the full Gram."""
    x = as_inputs(batch_x, ctx.net.arch.input_dim)
    net = ctx.net
    depth = net.arch.depth
    n = x.shape[0]
    c = net.arch.output_dim
    acts = _layer_inputs(net, x)
    total = np.zeros((n, c, c))
    sens = _initial_sensitivity(n, c)
    for l in range(depth - 1, -1, -1):
        pair = np.einsum("ick,idk->icd", sens, sens)
        gain = np.einsum("ik,ik->i", acts[l], acts[l]) + 1.0
        total += pair * gain[:, None, None]
        if l > 0:
            sens = _next_sensitivity(net, sens, acts[l], l)
    return ctx.prior_variance * total


def kernel_input_gradient_multi(ctx, batch_x, batch_z):
    """(N, M, C, C, D) derivatives of kappa(x_i, z_m) w.r.t. each z_m.

    Forward-mode differentiation of the layerwise accumulation: the D
    tangent directions of each z_m are propagated through both the
    activation chain and the sensitivity chain, and combined with the
    untouched x side. The left batch's activations and sensitivities are
    computed once and shared across every differentiation point, which is
    what makes dense location gradients affordable inside a training loop.
    """
    x = as_inputs(batch_x, ctx.net.arch.input_dim)
    zs = as_inputs(batch_z, ctx.net.arch.input_dim)
    net = ctx.net
    depth = net.arch.depth
    n, m = x.shape[0], zs.shape[0]
    c = net.arch.output_dim
    d = zs.shape[1]

    # z side: activations, their input tangents, sensitivities, and the
    # sensitivities' input tangents, batched over the M locations
    a_z = _layer_inputs(net, zs)
    a_dot = [np.broadcast_to(np.eye(d), (m, d, d)).copy()]  # (M, w_{l-1}, D)
    for l in range(depth - 1):
        h_dot = np.einsum("ik,mid->mkd", net.weights[l], a_dot[l])
        t = 1.0 - a_z[l + 1] * a_z[l + 1]  # (M, w_l)
        a_dot.append(t[:, :, None] * h_dot)

    sens_z = [None] * depth
    sens_dot = [None] * depth
    sens_z[depth - 1] = _initial_sensitivity(m, c)
    sens_dot[depth - 1] = np.zeros((m, c, c, d))
    for l in range(depth - 2, -1, -1):
        w = net.weights[l + 1]  # (w_l, w_{l+1})
        t = 1.0 - a_z[l + 1] * a_z[l + 1]  # (M, w_l)
        back = np.einsum("moj,kj->mok", sens_z[l + 1], w)  # (M, C, w_l)
        sens_z[l] = back * t[:, None, :]
        t_dot = -2.0 * a_z[l + 1][:, :, None] * a_dot[l + 1]  # (M, w_l, D)
        back_dot = np.einsum("mojd,kj->mokd", sens_dot[l + 1], w)
        sens_dot[l] = back_dot * t[:, None, :, None] + back[:, :, :, None] * t_dot[:, None, :, :]

    # x side: plain activations and sensitivities, computed once
    acts_x = _layer_inputs(net, x)
    out = np.zeros((n, m, c, c, d))
    sx = _initial_sensitivity(n, c)
    for l in range(depth - 1, -1, -1):
        gain = acts_x[l] @ a_z[l].T + 1.0  # (N, M)
        gain_dot = np.einsum("ni,mid->nmd", acts_x[l], a_dot[l])  # (N, M, D)
        pair = np.einsum("nok,mpk->nmop", sx, sens_z[l])  # (N, M, C, C)
        pair_dot = np.einsum("nok,mpkd->nmopd", sx, sens_dot[l])
        out += pair_dot * gain[:, :, None, None, None]
        out += pair[:, :, :, :, None] * gain_dot[:, :, None, None, :]
        if l > 0:
            sx = _next_sensitivity(net, sx, acts_x[l], l)
    return ctx.prior_variance * out
