import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagp import nn
from lagp.errors import DimensionMismatch, FormatError, NonFiniteValue
from lagp.linalg import rng_stream
from lagp.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamOptimizer,
    MlpArchitecture,
    MlpNetwork,
    TrainConfig,
    _loss_and_output_grad,
    backward,
    forward,
    init_network,
    layer_blocks,
    layer_walk,
    load_network,
    minibatches,
    save_network,
    train_map,
)


def random_net(rng, input_dim, hidden, output_dim):
    arch = MlpArchitecture(input_dim=input_dim, hidden_dims=tuple(hidden), output_dim=output_dim)
    dims = arch.layer_dims
    weights = tuple(rng.normal(size=(dims[l], dims[l + 1])) for l in range(arch.depth))
    biases = tuple(rng.normal(size=(dims[l + 1],)) for l in range(arch.depth))
    return MlpNetwork(arch=arch, weights=weights, biases=biases)


class ListAdam:
    """Reference Adam over a list of arrays, each updated out of place, with classic L2."""

    def __init__(self, shapes, learning_rate, weight_decay=0.0):
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads):
        self.step_count += 1
        t = self.step_count
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            if self.weight_decay != 0.0:
                g = g + self.weight_decay * p
            self.m[i] = ADAM_BETA1 * self.m[i] + (1.0 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1.0 - ADAM_BETA2) * g * g
            m_hat = self.m[i] / (1.0 - ADAM_BETA1**t)
            v_hat = self.v[i] / (1.0 - ADAM_BETA2**t)
            out.append(p - self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        return out


def reference_backward(net, trace, g):
    """Reference gradient as (weight gradients, bias gradients), one fresh array per layer."""
    depth = net.arch.depth
    weight_grads, bias_grads = [None] * depth, [None] * depth
    delta = g
    for l in range(depth - 1, -1, -1):
        inputs = trace.layer_inputs[l]
        weight_grads[l] = inputs.T @ delta
        bias_grads[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ net.weights[l].T) * (1.0 - inputs * inputs)
    return weight_grads, bias_grads


def reference_train_map(arch, x, y, cfg):
    """Reference MAP loop: a new network per step and ``ListAdam`` over the per-layer arrays."""
    if y.ndim == 1:
        y = y[:, None]
    net = init_network(arch, cfg.seed)
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    opt = ListAdam([w.shape for w in weights] + [b.shape for b in biases], cfg.learning_rate, cfg.weight_decay)
    batches = minibatches(x.shape[0], cfg.batch_size, cfg.seed + 1)
    for _, idx in zip(range(cfg.iterations), batches):
        current = MlpNetwork(arch=arch, weights=tuple(weights), biases=tuple(biases))
        trace = forward(current, x[idx])
        _, out_grad = _loss_and_output_grad(trace.output, y[idx], cfg.loss)
        w_grads, b_grads = reference_backward(current, trace, out_grad)
        updated = opt.step(weights + biases, w_grads + b_grads)
        weights, biases = updated[: len(weights)], updated[len(weights) :]
    return weights, biases


class TestLayout:
    def test_blocks_are_views_in_checkpoint_order(self):
        arch = MlpArchitecture(3, (4, 2), 2)
        params = np.arange(float(arch.param_count))
        blocks = layer_blocks(arch, params)
        assert [b.shape for b in blocks] == [(4, 4), (5, 2), (3, 2)]
        assert all(np.shares_memory(b, params) for b in blocks)
        assert np.array_equal(np.concatenate([b.ravel() for b in blocks]), params)

    def test_from_flat_round_trips_and_shows_writes(self):
        net = random_net(rng_stream(8), 3, [4, 2], 2)
        params = net.flat_parameters()
        view = MlpNetwork.from_flat(net.arch, params)
        for a, b in zip(view.weights + view.biases, net.weights + net.biases):
            assert np.array_equal(a, b)
        params[:] = 0.0
        assert all(not w.any() for w in view.weights + view.biases)


class TestForward:
    def test_zero_net_outputs_zero(self):
        arch = MlpArchitecture(2, (3,), 2)
        net = MlpNetwork(
            arch=arch,
            weights=(np.zeros((2, 3)), np.zeros((3, 2))),
            biases=(np.zeros(3), np.zeros(2)),
        )
        out = forward(net, np.random.default_rng(0).normal(size=(5, 2))).output
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_single_linear_identity(self):
        arch = MlpArchitecture(3, (), 3)
        net = MlpNetwork(arch=arch, weights=(np.eye(3),), biases=(np.zeros(3),))
        x = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(forward(net, x).output, x)

    def test_matches_straight_line_composition(self):
        rng = rng_stream(1)
        net = random_net(rng, 3, [4, 5], 2)
        x = rng.normal(size=(1, 3))
        manual = np.tanh(x @ net.weights[0] + net.biases[0])
        manual = np.tanh(manual @ net.weights[1] + net.biases[1])
        manual = manual @ net.weights[2] + net.biases[2]
        assert np.allclose(forward(net, x).output, manual, atol=1e-12)

    def test_trace_contents(self):
        rng = rng_stream(2)
        net = random_net(rng, 2, [3], 2)
        x = rng.normal(size=(4, 2))
        trace = forward(net, x)
        assert len(trace.layer_inputs) == 2
        assert np.array_equal(trace.layer_inputs[0], x)
        hidden = np.tanh(x @ net.weights[0] + net.biases[0])
        assert np.array_equal(trace.layer_inputs[1], hidden)
        assert trace.layer_inputs[1].flags.c_contiguous
        assert np.array_equal(trace.output, hidden @ net.weights[1] + net.biases[1])

    def test_dimension_mismatch(self):
        net = random_net(rng_stream(0), 3, [2], 1)
        with pytest.raises(DimensionMismatch):
            forward(net, np.zeros((2, 4)))

    def test_nonfinite_rejected(self):
        arch = MlpArchitecture(1, (), 1)
        net = MlpNetwork(arch=arch, weights=(np.array([[1e308]]),), biases=(np.zeros(1),))
        with pytest.raises(NonFiniteValue):
            forward(net, np.array([[1e308]]))


class TestBackward:
    def test_zero_output_gradient(self):
        rng = rng_stream(3)
        net = random_net(rng, 2, [4], 2)
        x = rng.normal(size=(3, 2))
        trace = forward(net, x)
        grad = backward(net, trace, np.zeros_like(trace.output))
        assert np.array_equal(grad, np.zeros(net.param_count))

    def test_matches_finite_differences(self):
        rng = rng_stream(4)
        step = 1e-5
        for trial in range(20):
            depth = 1 + trial % 3
            hidden = [int(rng.integers(2, 10)) for _ in range(depth - 1)]
            net = random_net(rng, int(rng.integers(1, 6)), hidden, int(rng.integers(1, 4)))
            x = rng.normal(size=(3, net.arch.input_dim))
            coeff = rng.normal(size=(3, net.arch.output_dim))

            trace = forward(net, x)
            grad = backward(net, trace, coeff)
            params = net.flat_parameters()

            def loss_at(flat):
                probe = MlpNetwork.from_flat(net.arch, flat)
                return float(np.sum(coeff * forward(probe, x).output))

            for i in range(net.param_count):
                bump = np.zeros_like(params)
                bump[i] = step
                fd = (loss_at(params + bump) - loss_at(params - bump)) / (2 * step)
                assert abs(fd - grad[i]) <= 1e-6 * (1.0 + abs(fd))

    def test_matches_per_layer_products_bitwise(self):
        rng = rng_stream(6)
        net = random_net(rng, 3, [5, 4], 2)
        x = rng.normal(size=(7, 3))
        coeff = rng.normal(size=(7, 2))
        trace = forward(net, x)
        grad = backward(net, trace, coeff)
        w_grads, b_grads = reference_backward(net, trace, coeff)
        for block, w, b in zip(layer_blocks(net.arch, grad), w_grads, b_grads):
            assert np.array_equal(block[:-1], w)
            assert np.array_equal(block[-1], b)

    def test_linear_net_least_squares_gradient(self):
        rng = rng_stream(5)
        arch = MlpArchitecture(3, (), 2)
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=(2,))
        net = MlpNetwork(arch=arch, weights=(w,), biases=(b,))
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 2))
        trace = forward(net, x)
        resid = trace.output - y
        (block,) = layer_blocks(arch, backward(net, trace, 2.0 * resid))
        assert np.allclose(block[:-1], 2.0 * x.T @ resid, atol=1e-10)
        assert np.allclose(block[-1], 2.0 * resid.sum(axis=0), atol=1e-10)

    def test_wrong_output_gradient_shape(self):
        net = random_net(rng_stream(0), 2, [2], 1)
        trace = forward(net, np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            backward(net, trace, np.zeros((2, 1)))


class TestLayerWalk:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.lists(st.integers(1, 6), max_size=3),
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_seeded_walk_is_seed_times_identity_walk(self, d, c, hidden, n, k, seed):
        """At every layer, s from a seed equals seed @ s from the identity walk."""
        rng = np.random.default_rng(seed)
        net = random_net(rng, d, hidden, c)
        trace = forward(net, rng.normal(size=(n, d)))
        seed_rows = rng.normal(size=(n, k, c))
        steps = list(zip(layer_walk(net, trace), layer_walk(net, trace, seed_rows)))
        assert [l for (l, _, _), _ in steps] == list(range(net.arch.depth - 1, -1, -1))
        for (l, a, s), (l2, a2, s2) in steps:
            assert l2 == l and a2 is a is trace.layer_inputs[l]
            assert s.shape == (n, c, net.arch.layer_dims[l + 1]) and s2.shape == (n, k, s.shape[2])
            np.testing.assert_allclose(s2, seed_rows @ s, rtol=0, atol=1e-12 * (1.0 + np.abs(s).max()))

    def test_identity_walk_matches_explicit_sensitivities(self):
        rng = rng_stream(9)
        net = random_net(rng, 2, [3, 4], 2)
        x = rng.normal(size=(5, 2))
        trace = forward(net, x)
        steps = {l: s for l, _, s in layer_walk(net, trace)}
        assert np.array_equal(steps[2], np.broadcast_to(np.eye(2), (5, 2, 2)))
        a2 = trace.layer_inputs[2]
        want = (np.eye(2) @ net.weights[2].T)[None] * (1.0 - a2 * a2)[:, None, :]
        assert np.allclose(steps[1], want, atol=1e-14)

    def test_seed_shape_checked(self):
        net = random_net(rng_stream(1), 2, [3], 2)
        trace = forward(net, np.zeros((4, 2)))
        for bad in (np.zeros((4, 2)), np.zeros((3, 1, 2)), np.zeros((4, 1, 3))):
            with pytest.raises(DimensionMismatch):
                next(layer_walk(net, trace, bad))


def _package_trees():
    """(module file name, parsed syntax tree) of every source file of the package."""
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in Path(nn.__file__).parent.glob("*.py")]


class TestSingleEvaluator:
    """``nn.forward`` is the only evaluator of the network and of the input rule, ``nn.layer_walk`` the only walk."""

    def test_only_nn_calls_tanh(self):
        callers = sorted(
            name
            for name, tree in _package_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) == "tanh" or getattr(node.func, "id", None) == "tanh")
        )
        assert set(callers) == {"nn.py"}, f"tanh is called outside nn.py: {callers}"

    def test_private_names_stay_in_their_module(self):
        # an underscore name is its module's own: no module imports one from
        # another, and the kernel's layer terms are summed in kernel.py alone
        imported = sorted(
            f"{name}: {alias.name}"
            for name, tree in _package_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "lagp")
            for alias in node.names
            if alias.name.startswith("_")
        )
        assert imported == [], f"private names imported across modules: {imported}"
        term_users = sorted(
            path.name
            for path in Path(nn.__file__).parent.glob("*.py")
            for term in ("_pair", "_diag_term")
            if path.name != "kernel.py" and term in path.read_text(encoding="utf-8")
        )
        assert term_users == [], f"kernel layer terms named outside kernel.py: {term_users}"

    def test_layer_walk_defined_once_in_nn(self):
        defined = [
            name
            for name, tree in _package_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.endswith("_walk")
        ]
        assert defined == ["nn.py"]

    def test_as_inputs_defined_once_in_nn(self):
        defined = [
            name
            for name, tree in _package_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "as_inputs"
        ]
        assert defined == ["nn.py"], f"as_inputs is defined in {defined}"


class TestAdam:
    def test_single_step_matches_hand_computation(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.5, 0.25])
        lr, wd = 0.1, 0.01
        g_eff = g + wd * p
        m_hat = (0.1 * g_eff) / (1 - 0.9)
        v_hat = (0.001 * g_eff**2) / (1 - 0.999)
        expected = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

        opt = AdamOptimizer(p, lr, wd)
        g_before = g.copy()
        opt.step(g)
        assert np.allclose(p, expected, atol=1e-12)
        assert np.array_equal(g, g_before)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_matches_list_adam_bitwise(self, weight_decay):
        """50 steps over mixed leaves, 0-d ones among them, packed into one vector."""
        rng = rng_stream(7)
        shapes = [(4, 3), (), (5,), (), (2, 2)]
        leaves = [rng.normal(size=s) for s in shapes]
        sizes = [int(np.prod(s)) for s in shapes]
        offsets = np.cumsum([0] + sizes)
        params = np.concatenate([np.ravel(a) for a in leaves])
        flat = AdamOptimizer(params, 1e-2, weight_decay)
        ref = ListAdam(shapes, 1e-2, weight_decay)
        for _ in range(50):
            grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
            leaves = ref.step(leaves, grads)
            flat.step(np.concatenate([np.ravel(g) for g in grads]))
            for a, lo, hi in zip(leaves, offsets[:-1], offsets[1:]):
                assert np.array_equal(params[lo:hi], np.ravel(a))


class TestTrainMap:
    def test_linear_target_recovered(self):
        rng = rng_stream(0)
        x = rng.uniform(-1, 1, size=(64, 1))
        y = 2.0 * x
        arch = MlpArchitecture(1, (), 1)
        cfg = TrainConfig(iterations=5000, batch_size=64, learning_rate=1e-2, seed=0)
        net = train_map(arch, (x, y), cfg)
        rmse = float(np.sqrt(np.mean((forward(net, x).output - y) ** 2)))
        assert rmse <= 1e-3

    def test_toy_fit_below_noise_floor(self):
        from lagp.data import synth_toy1d, toy1d_mean

        ds = synth_toy1d(200, seed=3)
        arch = MlpArchitecture(1, (50, 50), 1)
        cfg = TrainConfig(iterations=12000, batch_size=200, learning_rate=1e-3, seed=0)
        net = train_map(arch, (ds.inputs, ds.targets), cfg)
        rmse = float(np.sqrt(np.mean((forward(net, ds.inputs).output - ds.targets) ** 2)))
        assert rmse < 0.1

    def test_zero_learning_rate_keeps_parameters(self):
        rng = rng_stream(1)
        x = rng.normal(size=(8, 2))
        y = rng.normal(size=(8, 1))
        arch = MlpArchitecture(2, (3,), 1)
        cfg = TrainConfig(iterations=10, batch_size=8, learning_rate=0.0, weight_decay=0.0, seed=5)
        net = train_map(arch, (x, y), cfg)
        ref = init_network(arch, 5)
        for a, b in zip(net.weights, ref.weights):
            assert np.array_equal(a, b)

    def test_bitwise_determinism(self):
        rng = rng_stream(2)
        x = rng.normal(size=(32, 2))
        y = rng.normal(size=(32, 1))
        arch = MlpArchitecture(2, (4,), 1)
        cfg = TrainConfig(iterations=200, batch_size=8, learning_rate=1e-3, weight_decay=1e-4, seed=9)
        n1 = train_map(arch, (x, y), cfg)
        n2 = train_map(arch, (x, y), cfg)
        for a, b in zip(n1.weights, n2.weights):
            assert np.array_equal(a, b)
        for a, b in zip(n1.biases, n2.biases):
            assert np.array_equal(a, b)

    def test_classification_loss_learns(self):
        rng = rng_stream(3)
        x = np.vstack([rng.normal(-2, 0.3, size=(30, 2)), rng.normal(2, 0.3, size=(30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        arch = MlpArchitecture(2, (8,), 2)
        cfg = TrainConfig(
            iterations=500, batch_size=60, learning_rate=1e-2, seed=0, loss="nll_classification"
        )
        net = train_map(arch, (x, y), cfg)
        preds = forward(net, x).output.argmax(axis=1)
        assert (preds == y).mean() > 0.95

    @pytest.mark.parametrize(
        ("loss", "weight_decay", "batch_size"),
        [("rmse", 0.0, 16), ("nll_classification", 0.0, 16), ("rmse", 1e-3, 16), ("nll_classification", 1e-2, 100)],
    )
    def test_matches_reference_loop_bitwise(self, loss, weight_decay, batch_size):
        rng = rng_stream(6)
        x = rng.normal(size=(40, 3))
        if loss == "rmse":
            y, arch = np.sin(x.sum(axis=1)), MlpArchitecture(3, (6, 5), 1)
        else:
            y, arch = (x[:, 0] > 0).astype(float) + (x[:, 1] > 0), MlpArchitecture(3, (6, 5), 3)
        cfg = TrainConfig(
            iterations=300, batch_size=batch_size, learning_rate=1e-2, weight_decay=weight_decay, seed=4, loss=loss
        )
        net = train_map(arch, (x, y), cfg)
        weights, biases = reference_train_map(arch, x, y, cfg)
        for got, want in zip(net.weights + net.biases, weights + biases):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_classes_rejected(self, label):
        x = rng_stream(8).normal(size=(6, 2))
        y = np.array([0, 1, 2, 0, 1, label])
        cfg = TrainConfig(iterations=5, batch_size=6, learning_rate=1e-2, loss="nll_classification")
        with pytest.raises(DimensionMismatch, match=r"\[0, 3\)"):
            train_map(MlpArchitecture(2, (4,), 3), (x, y), cfg)

    def test_divergence_names_the_iteration(self):
        rng = rng_stream(7)
        x = rng.normal(size=(20, 1))
        cfg = TrainConfig(iterations=50, batch_size=10, learning_rate=1e300, seed=0)
        with pytest.raises(NonFiniteValue, match="iteration 2"):
            train_map(MlpArchitecture(1, (8, 8), 1), (x, np.sin(x)), cfg)

    def test_training_log_written(self, tmp_path):
        rng = rng_stream(4)
        x = rng.normal(size=(16, 1))
        y = rng.normal(size=(16, 1))
        cfg = TrainConfig(iterations=300, batch_size=16, learning_rate=1e-3, seed=0)
        log = tmp_path / "train.csv"
        train_map(MlpArchitecture(1, (2,), 1), (x, y), cfg, log_path=log)
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 1 + 3  # logged at 100, 200, 300


class TestMinibatches:
    @pytest.mark.parametrize(("n", "batch_size"), [(7, 3), (6, 3), (5, 9), (1, 1)])
    def test_matches_permutation_and_cursor_loop(self, n, batch_size):
        rng = rng_stream(5)
        batch = min(batch_size, n)
        order, cursor, expected = rng.permutation(n), 0, []
        for _ in range(12):
            if cursor + batch > n:
                order, cursor = rng.permutation(n), 0
            expected.append(order[cursor : cursor + batch])
            cursor += batch
        batches = minibatches(n, batch_size, 5)
        for want in expected:
            assert np.array_equal(next(batches), want)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        net = random_net(rng_stream(6), 3, [4, 2], 2)
        path = tmp_path / "net.bin"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.arch == net.arch
        for a, b in zip(net.weights, loaded.weights):
            assert np.array_equal(a, b)
        for a, b in zip(net.biases, loaded.biases):
            assert np.array_equal(a, b)

    def test_truncated_file(self, tmp_path):
        net = random_net(rng_stream(7), 2, [2], 1)
        path = tmp_path / "net.bin"
        save_network(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(FormatError):
            load_network(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "net.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_network(path)
