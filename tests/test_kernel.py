import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagp.errors import DimensionMismatch
from lagp.kernel import (
    KernelContext,
    as_inputs,
    kernel_block_fast,
    kernel_diag_blocks,
    kernel_input_vjp,
    kernel_tape,
    layer_walk,
)
from lagp.linalg import rng_stream
from lagp.nn import MlpArchitecture, MlpNetwork, forward


def random_ctx(rng, input_dim, hidden, output_dim, log_prior_variance=0.0, scale=1.0):
    arch = MlpArchitecture(input_dim=input_dim, hidden_dims=tuple(hidden), output_dim=output_dim)
    dims = arch.layer_dims
    weights = tuple(
        scale * rng.normal(size=(dims[l], dims[l + 1])) / np.sqrt(dims[l])
        for l in range(arch.depth)
    )
    biases = tuple(0.1 * rng.normal(size=(dims[l + 1],)) for l in range(arch.depth))
    net = MlpNetwork(arch=arch, weights=weights, biases=biases)
    return KernelContext(net=net, log_prior_variance=log_prior_variance)


def linear_ctx(rng, d, c=1, log_prior_variance=0.0):
    arch = MlpArchitecture(d, (), c)
    net = MlpNetwork(
        arch=arch,
        weights=(rng.normal(size=(d, c)),),
        biases=(rng.normal(size=(c,)),),
    )
    return KernelContext(net=net, log_prior_variance=log_prior_variance)


def jacobian(net, x):
    """Oracle: the explicit (C, P) Jacobian of the network output at one input.

    Its forward pass and back-propagation are its own and share no helper
    with ``kernel.layer_walk``, which it checks. Columns follow the
    checkpoint order: per layer, W_l row-major and then b_l.
    """
    x = as_inputs(x, net.arch.input_dim)
    if x.shape[0] != 1:
        raise DimensionMismatch("jacobian takes a single input vector")
    inputs = [x[0]]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        inputs.append(np.tanh(inputs[-1] @ w + b))
    c = net.arch.output_dim
    blocks = []
    sens = np.eye(c)  # d output / d top pre-activation
    for l in range(net.arch.depth - 1, -1, -1):
        # d out_o / d W_l[i, j] = a_{l-1}[i] * sens[o, j]; d out_o / d b_l[j] = sens[o, j]
        weight_cols = (sens[:, None, :] * inputs[l][None, :, None]).reshape(c, -1)
        blocks.insert(0, np.concatenate([weight_cols, sens], axis=1))
        if l > 0:
            sens = (sens @ net.weights[l].T) * (1.0 - inputs[l] ** 2)
    return np.concatenate(blocks, axis=1)


def dense_ggn(ctx, likelihood, x):
    """Oracle: the (P, P) Gauss-Newton precision I / pv + sum_n J_n^T Lambda_n J_n.

    Lambda_n is written out: I / noise_variance for the Gaussian
    likelihood, diag(p) - p p^T at the softmax probabilities of the
    network output for the categorical one.
    """
    net = ctx.net
    x = np.asarray(x, dtype=np.float64).reshape(-1, net.arch.input_dim)
    precision = np.eye(net.param_count) / ctx.prior_variance
    for xi, g in zip(x, forward(net, x).output):
        if likelihood.kind == "gaussian":
            lam = np.eye(g.shape[0]) / likelihood.noise_variance
        else:
            p = np.exp(g - g.max())
            p /= p.sum()
            lam = np.diag(p) - np.outer(p, p)
        j = jacobian(net, xi)
        precision += j.T @ lam @ j
    return 0.5 * (precision + precision.T)


def dense_covariances(net, precision, x_star):
    """Oracle: (N, C, C) covariances J P^-1 J^T at each query, symmetrized, from ``np.linalg.solve``."""
    covs = np.array([j @ np.linalg.solve(precision, j.T) for j in (jacobian(net, x) for x in x_star)])
    covs = covs.reshape(-1, net.arch.output_dim, net.arch.output_dim)
    return 0.5 * (covs + covs.transpose(0, 2, 1))


def pairwise_gram(ctx, xs, zs):
    """Oracle: assemble the Gram matrix from explicit Jacobian products."""
    c = ctx.net.arch.output_dim
    n1, n2 = xs.shape[0], zs.shape[0]
    out = np.zeros((n1 * c, n2 * c))
    jx = [jacobian(ctx.net, x) for x in xs]
    jz = [jacobian(ctx.net, z) for z in zs]
    for i in range(n1):
        for j in range(n2):
            out[i * c : (i + 1) * c, j * c : (j + 1) * c] = ctx.prior_variance * jx[i] @ jz[j].T
    return out


def kernel_input_gradient_multi(ctx, batch_x, batch_z):
    """Oracle: (N, M, C, C, D) derivatives of kappa(x_i, z_m) w.r.t. each z_m.

    Forward-mode differentiation of the layerwise accumulation: the D
    tangent directions of each z_m are propagated through both the
    activation chain and the sensitivity chain, and combined with the
    untouched x side.
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
    a_z = [None] * depth
    for l, a, _ in layer_walk(net, zs):
        a_z[l] = a[:, :-1]
    a_dot = [np.broadcast_to(np.eye(d), (m, d, d)).copy()]  # (M, w_{l-1}, D)
    for l in range(depth - 1):
        h_dot = np.einsum("ik,mid->mkd", net.weights[l], a_dot[l])
        t = 1.0 - a_z[l + 1] * a_z[l + 1]  # (M, w_l)
        a_dot.append(t[:, :, None] * h_dot)

    sens_z = [None] * depth
    sens_dot = [None] * depth
    sens_z[depth - 1] = np.broadcast_to(np.eye(c), (m, c, c))
    sens_dot[depth - 1] = np.zeros((m, c, c, d))
    for l in range(depth - 2, -1, -1):
        w = net.weights[l + 1]  # (w_l, w_{l+1})
        t = 1.0 - a_z[l + 1] * a_z[l + 1]  # (M, w_l)
        back = np.einsum("moj,kj->mok", sens_z[l + 1], w)  # (M, C, w_l)
        sens_z[l] = back * t[:, None, :]
        t_dot = -2.0 * a_z[l + 1][:, :, None] * a_dot[l + 1]  # (M, w_l, D)
        back_dot = np.einsum("mojd,kj->mokd", sens_dot[l + 1], w)
        sens_dot[l] = back_dot * t[:, None, :, None] + back[:, :, :, None] * t_dot[:, None, :, :]

    # x side: plain activations and sensitivities, from the walk
    out = np.zeros((n, m, c, c, d))
    for l, ax, sx in layer_walk(net, x):
        gain = ax[:, :-1] @ a_z[l].T + 1.0  # (N, M)
        gain_dot = np.einsum("ni,mid->nmd", ax[:, :-1], a_dot[l])  # (N, M, D)
        pair = np.einsum("nok,mpk->nmop", sx, sens_z[l])  # (N, M, C, C)
        pair_dot = np.einsum("nok,mpkd->nmopd", sx, sens_dot[l])
        out += pair_dot * gain[:, :, None, None, None]
        out += pair[:, :, :, :, None] * gain_dot[:, :, None, None, :]
    return ctx.prior_variance * out


def auxiliary_floats(ctx, xs, zs):
    """Traced peak of ``kernel_block_fast`` beyond its output, in floats."""
    tracemalloc.start()
    try:
        out = kernel_block_fast(ctx, xs, zs).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - out.nbytes) / 8


class TestJacobian:
    def test_linear_model_rows(self):
        rng = rng_stream(0)
        ctx = linear_ctx(rng, 3, c=1)
        x = rng.normal(size=3)
        jac = jacobian(ctx.net, x)
        assert jac.shape == (1, 4)
        assert np.allclose(jac[0], np.concatenate([x, [1.0]]), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = rng_stream(1)
        ctx = random_ctx(rng, 2, [4, 3], 2)
        net = ctx.net
        x = rng.normal(size=(1, 2))
        jac = jacobian(ctx.net, x)
        step = 1e-5

        flat = net.flat_parameters()
        for p in range(flat.size):
            def output_at(delta):
                v = flat.copy()
                v[p] += delta
                weights, biases, off = [], [], 0
                dims = net.arch.layer_dims
                for l in range(net.arch.depth):
                    cnt = dims[l] * dims[l + 1]
                    weights.append(v[off : off + cnt].reshape(dims[l], dims[l + 1]))
                    off += cnt
                    biases.append(v[off : off + dims[l + 1]])
                    off += dims[l + 1]
                probe = MlpNetwork(arch=net.arch, weights=tuple(weights), biases=tuple(biases))
                return forward(probe, x).output[0]

            fd = (output_at(step) - output_at(-step)) / (2 * step)
            for o in range(net.arch.output_dim):
                assert abs(fd[o] - jac[o, p]) <= 1e-6 * (1.0 + abs(fd[o]))

    def test_zero_input_zero_bias_first_layer_columns(self):
        rng = rng_stream(2)
        arch = MlpArchitecture(3, (4,), 2)
        dims = arch.layer_dims
        weights = tuple(rng.normal(size=(dims[l], dims[l + 1])) for l in range(2))
        biases = (np.zeros(4), np.zeros(2))
        ctx = KernelContext(net=MlpNetwork(arch=arch, weights=weights, biases=biases))
        jac = jacobian(ctx.net, np.zeros(3))
        first_layer_weight_cols = jac[:, : 3 * 4]
        assert np.array_equal(first_layer_weight_cols, np.zeros((2, 12)))

    def test_wrong_input_dim(self):
        ctx = random_ctx(rng_stream(0), 3, [2], 1)
        with pytest.raises(DimensionMismatch):
            jacobian(ctx.net, np.zeros(4))


class TestKernelBlock:
    def test_linear_model_closed_form(self):
        rng = rng_stream(3)
        ctx = linear_ctx(rng, 4, c=1, log_prior_variance=np.log(2.5))
        x = rng.normal(size=4)
        z = rng.normal(size=4)
        block = kernel_block_fast(ctx, x, z).values
        assert np.allclose(block, 2.5 * (x @ z + 1.0), atol=1e-12)

    def test_self_block_psd(self):
        rng = rng_stream(4)
        ctx = random_ctx(rng, 3, [5], 4)
        x = rng.normal(size=3)
        block = kernel_block_fast(ctx, x, x).values
        vals = np.linalg.eigvalsh(0.5 * (block + block.T))
        assert vals.min() >= -1e-10

    def test_layerwise_equals_explicit_jacobian_product(self):
        rng = rng_stream(5)
        ctx = random_ctx(rng, 3, [6, 4], 2, log_prior_variance=0.3)
        x = rng.normal(size=3)
        z = rng.normal(size=3)
        block = kernel_block_fast(ctx, x, z).values
        explicit = ctx.prior_variance * jacobian(ctx.net, x) @ jacobian(ctx.net, z).T
        assert np.max(np.abs(block - explicit)) <= 1e-10

    def test_symmetry_under_argument_swap(self):
        rng = rng_stream(6)
        ctx = random_ctx(rng, 2, [5, 5], 3)
        x = rng.normal(size=2)
        z = rng.normal(size=2)
        assert np.max(np.abs(kernel_block_fast(ctx, x, z).values - kernel_block_fast(ctx, z, x).values.T)) <= 1e-12

    def test_prior_variance_scaling_exact(self):
        rng = rng_stream(7)
        ctx1 = random_ctx(rng, 2, [4], 2, log_prior_variance=0.0)
        ctx2 = ctx1.with_log_prior_variance(np.log(2.0))
        x = rng.normal(size=2)
        z = rng.normal(size=2)
        assert np.array_equal(2.0 * kernel_block_fast(ctx1, x, z).values, kernel_block_fast(ctx2, x, z).values)


class TestKernelBlockFast:
    def test_single_pair_matches_kernel_block(self):
        rng = rng_stream(8)
        ctx = random_ctx(rng, 3, [4], 2)
        x = rng.normal(size=(1, 3))
        z = rng.normal(size=(1, 3))
        gram = kernel_block_fast(ctx, x, z)
        assert gram.values.shape == (2, 2)
        # one point given as a 1-D input of length D
        assert np.array_equal(gram.values, kernel_block_fast(ctx, x[0], z[0]).values)

    def test_batch_matches_pairwise_oracle(self):
        rng = rng_stream(9)
        ctx = random_ctx(rng, 4, [7, 5], 3, log_prior_variance=-0.2)
        xs = rng.normal(size=(10, 4))
        zs = rng.normal(size=(10, 4))
        gram = kernel_block_fast(ctx, xs, zs).values
        assert np.max(np.abs(gram - pairwise_gram(ctx, xs, zs))) <= 1e-10

    def test_depth_width_sweep_against_oracle(self):
        rng = rng_stream(10)
        for depth, width, c in [(1, 50, 5), (2, 30, 2), (3, 20, 4)]:
            hidden = [width] * (depth - 1) if depth > 1 else []
            ctx = random_ctx(rng, 3, hidden, c)
            xs = rng.normal(size=(4, 3))
            zs = rng.normal(size=(3, 3))
            gram = kernel_block_fast(ctx, xs, zs).values
            assert np.max(np.abs(gram - pairwise_gram(ctx, xs, zs))) <= 1e-10

    def test_diag_blocks_match_full_gram(self):
        rng = rng_stream(11)
        ctx = random_ctx(rng, 2, [6], 3)
        xs = rng.normal(size=(5, 2))
        full = kernel_block_fast(ctx, xs, xs).values
        diag = kernel_diag_blocks(ctx, xs)
        for i in range(5):
            assert np.allclose(diag[i], full[i * 3 : (i + 1) * 3, i * 3 : (i + 1) * 3], atol=1e-12)

    def test_gram_psd_many_random_nets(self):
        rng = rng_stream(12)
        for _ in range(50):
            ctx = random_ctx(rng, int(rng.integers(1, 4)), [int(rng.integers(2, 12))], int(rng.integers(1, 4)))
            xs = rng.normal(size=(int(rng.integers(2, 7)), ctx.net.arch.input_dim))
            gram = kernel_block_fast(ctx, xs, xs).values
            gram = 0.5 * (gram + gram.T)
            np.linalg.cholesky(gram + 1e-8 * np.eye(gram.shape[0]))

    def test_storage_counter_linear_in_width(self):
        # the traced peak beyond the returned block: never Jacobian-sized,
        # and sublinear in the parameter count as the widths double
        rng = rng_stream(13)
        n, c = 8, 3

        def aux_for(width):
            ctx = random_ctx(rng, 4, [width, width], c)
            xs = rng.normal(size=(n, 4))
            zs = rng.normal(size=(n, 4))
            return auxiliary_floats(ctx, xs, zs), ctx.net.param_count

        aux_w, p_w = aux_for(40)
        aux_2w, p_2w = aux_for(80)
        assert aux_w < n * c * p_w / 4
        assert p_2w / p_w > 3.0
        assert aux_2w / aux_w < 2.5

    def test_storage_counter_exact_accounting(self):
        # the traced peak beyond the returned block holds the activations of
        # both batches, two sensitivity levels at the widest transition and
        # the accumulator, and little more
        rng = rng_stream(14)
        dims, c = (3, 60, 50, 2), 2
        n1, n2 = 40, 70
        ctx = random_ctx(rng, dims[0], list(dims[1:-1]), c)
        xs = rng.normal(size=(n1, dims[0]))
        zs = rng.normal(size=(n2, dims[0]))
        n = n1 + n2
        acts = n * sum(dims[:-1])
        peak_sens = max(n * c * (dims[3] + dims[2]), n * c * (dims[2] + dims[1]))
        accounted = acts + peak_sens + n1 * c * n2 * c
        aux = auxiliary_floats(ctx, xs, zs)
        assert accounted <= aux <= 1.5 * accounted

    def test_empty_batches_give_empty_blocks(self):
        ctx = random_ctx(rng_stream(0), 2, [3], 2)
        x = rng_stream(1).normal(size=(3, 2))
        empty = np.zeros((0, 2))
        assert kernel_block_fast(ctx, empty, x).values.shape == (0, 6)
        assert kernel_block_fast(ctx, x, empty).values.shape == (6, 0)
        assert kernel_block_fast(ctx, empty, empty).values.shape == (0, 0)
        assert kernel_diag_blocks(ctx, empty).shape == (0, 2, 2)
        tape = kernel_tape(ctx, x, empty)  # the tape over Z alone
        assert tape.cross.shape == (0, 6) and tape.prior.shape == (0, 2, 2)
        grad = kernel_input_vjp(ctx, tape, np.zeros((3, 2, 3, 2)))
        assert np.array_equal(grad, np.zeros((3, 2)))
        tape = kernel_tape(ctx, empty, x)
        assert tape.stacked.shape == (6, 0)
        assert kernel_input_vjp(ctx, tape, np.zeros((3, 2, 0, 2))).shape == (0, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.integers(1, 6), max_size=2),
        st.integers(0, 5),
        st.integers(0, 5),
        st.integers(0, 2**31 - 1),
    )
    def test_gram_and_diagonal_match_pairwise_oracle(self, d, c, hidden, n, m, seed):
        rng = rng_stream(seed)
        ctx = random_ctx(rng, d, hidden, c, log_prior_variance=float(rng.normal(scale=0.5)))
        xs = rng.normal(size=(n, d))
        zs = rng.normal(size=(m, d))
        for left, right in ((xs, zs), (xs, xs)):
            ref = pairwise_gram(ctx, left, right)
            tol = 1e-12 * np.max(np.abs(ref), initial=0.0)
            assert np.max(np.abs(kernel_block_fast(ctx, left, right).values - ref), initial=0.0) <= tol
        blocks = ref.reshape(n, c, n, c)[np.arange(n), :, np.arange(n)]
        assert np.max(np.abs(kernel_diag_blocks(ctx, xs) - blocks), initial=0.0) <= tol

        tape = kernel_tape(ctx, zs, xs)
        ref = pairwise_gram(ctx, np.vstack([zs, xs]), zs)
        tol = 1e-12 * np.max(np.abs(ref), initial=0.0)
        assert np.max(np.abs(tape.stacked - ref), initial=0.0) <= tol
        assert np.max(np.abs(tape.prior - blocks), initial=0.0) <= 1e-12 * np.max(np.abs(blocks), initial=0.0)


class TestKernelInputGradient:
    def test_linear_model_gradient_is_scaled_x(self):
        rng = rng_stream(15)
        ctx = linear_ctx(rng, 3, c=1, log_prior_variance=np.log(1.7))
        x = rng.normal(size=3)
        z = rng.normal(size=3)
        grad = kernel_input_gradient_multi(ctx, x, z)[0, 0]
        assert grad.shape == (1, 1, 3)
        assert np.allclose(grad[0, 0], 1.7 * x, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = rng_stream(16)
        ctx = random_ctx(rng, 3, [5, 4], 2, log_prior_variance=0.1)
        x = rng.normal(size=3)
        z = rng.normal(size=3)
        grad = kernel_input_gradient_multi(ctx, x, z)[0, 0]
        step = 1e-5
        for d in range(3):
            zp, zm = z.copy(), z.copy()
            zp[d] += step
            zm[d] -= step
            fd = (kernel_block_fast(ctx, x, zp).values - kernel_block_fast(ctx, x, zm).values) / (2 * step)
            assert np.max(np.abs(fd - grad[:, :, d])) <= 1e-5 * (1.0 + np.max(np.abs(fd)))

    def test_coincident_points_finite_and_correct(self):
        rng = rng_stream(17)
        ctx = random_ctx(rng, 2, [6], 2)
        x = rng.normal(size=2)
        grad = kernel_input_gradient_multi(ctx, x, x)[0, 0]
        assert np.all(np.isfinite(grad))
        step = 1e-5
        for d in range(2):
            zp, zm = x.copy(), x.copy()
            zp[d] += step
            zm[d] -= step
            fd = (kernel_block_fast(ctx, x, zp).values - kernel_block_fast(ctx, x, zm).values) / (2 * step)
            assert np.max(np.abs(fd - grad[:, :, d])) <= 1e-5 * (1.0 + np.max(np.abs(fd)))

    def test_batch_version_matches_single(self):
        rng = rng_stream(18)
        ctx = random_ctx(rng, 2, [4], 2)
        xs = rng.normal(size=(5, 2))
        z = rng.normal(size=2)
        batched = kernel_input_gradient_multi(ctx, xs, z)[:, 0]
        for i in range(5):
            assert np.allclose(batched[i], kernel_input_gradient_multi(ctx, xs[i], z)[0, 0], atol=1e-14)


class TestKernelInputVjp:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.lists(st.integers(1, 6), max_size=2),
        st.integers(0, 5),
        st.integers(1, 5),
        st.integers(0, 5),
        st.integers(0, 2**31 - 1),
    )
    def test_matches_forward_mode_contraction(self, d, c, hidden, n, m, shared, seed):
        rng = rng_stream(seed)
        ctx = random_ctx(rng, d, hidden, c, log_prior_variance=float(rng.normal(scale=0.5)))
        zs = rng.normal(size=(m, d))
        xs = rng.normal(size=(n, d))
        shared = min(shared, n, m)
        xs[:shared] = zs[:shared]
        rows = np.vstack([zs, xs])
        g = rng.normal(size=(m + n, c, m, c))
        got = kernel_input_vjp(ctx, kernel_tape(ctx, zs, xs), g)
        ref = np.einsum("iomp,imopd->md", g, kernel_input_gradient_multi(ctx, rows, zs))
        assert got.shape == (m, d)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_wrong_cotangent_shape_rejected(self):
        ctx = random_ctx(rng_stream(0), 2, [3], 2)
        tape = kernel_tape(ctx, np.zeros((2, 2)), np.zeros((1, 2)))
        with pytest.raises(DimensionMismatch):
            kernel_input_vjp(ctx, tape, np.zeros((3, 2, 2, 1)))
