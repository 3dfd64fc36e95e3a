import numpy as np
import pytest

from lagp.errors import DimensionMismatch, FormatError, NonFiniteValue
from lagp.linalg import rng_stream
from lagp.nn import (
    ADAM_EPS,
    AdamOptimizer,
    MlpArchitecture,
    MlpNetwork,
    TrainConfig,
    backward,
    forward,
    init_network,
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
        trace = forward(net, rng.normal(size=(4, 2)), keep_trace=True)
        assert len(trace.pre_activations) == 2
        assert len(trace.post_activations) == 1
        assert np.array_equal(trace.output, trace.pre_activations[-1])

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
        trace = forward(net, x, keep_trace=True)
        w_grads, b_grads = backward(net, x, trace, np.zeros_like(trace.output))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in w_grads)
        assert all(np.array_equal(g, np.zeros_like(g)) for g in b_grads)

    def test_matches_finite_differences(self):
        rng = rng_stream(4)
        step = 1e-5
        for trial in range(20):
            depth = 1 + trial % 3
            hidden = [int(rng.integers(2, 10)) for _ in range(depth - 1)]
            net = random_net(rng, int(rng.integers(1, 6)), hidden, int(rng.integers(1, 4)))
            x = rng.normal(size=(3, net.arch.input_dim))
            coeff = rng.normal(size=(3, net.arch.output_dim))

            trace = forward(net, x, keep_trace=True)
            w_grads, b_grads = backward(net, x, trace, coeff)

            def loss_at(weights, biases):
                probe = MlpNetwork(arch=net.arch, weights=weights, biases=biases)
                return float(np.sum(coeff * forward(probe, x).output))

            for l in range(net.arch.depth):
                w = net.weights[l]
                for idx in np.ndindex(*w.shape):
                    bump = np.zeros_like(w)
                    bump[idx] = step
                    w_plus = net.weights[:l] + (w + bump,) + net.weights[l + 1 :]
                    w_minus = net.weights[:l] + (w - bump,) + net.weights[l + 1 :]
                    fd = (loss_at(w_plus, net.biases) - loss_at(w_minus, net.biases)) / (2 * step)
                    assert abs(fd - w_grads[l][idx]) <= 1e-6 * (1.0 + abs(fd))
                b = net.biases[l]
                for j in range(b.size):
                    bump = np.zeros_like(b)
                    bump[j] = step
                    b_plus = net.biases[:l] + (b + bump,) + net.biases[l + 1 :]
                    b_minus = net.biases[:l] + (b - bump,) + net.biases[l + 1 :]
                    fd = (loss_at(net.weights, b_plus) - loss_at(net.weights, b_minus)) / (2 * step)
                    assert abs(fd - b_grads[l][j]) <= 1e-6 * (1.0 + abs(fd))

    def test_linear_net_least_squares_gradient(self):
        rng = rng_stream(5)
        arch = MlpArchitecture(3, (), 2)
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=(2,))
        net = MlpNetwork(arch=arch, weights=(w,), biases=(b,))
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 2))
        trace = forward(net, x, keep_trace=True)
        resid = trace.output - y
        w_grads, b_grads = backward(net, x, trace, 2.0 * resid)
        assert np.allclose(w_grads[0], 2.0 * x.T @ resid, atol=1e-10)
        assert np.allclose(b_grads[0], 2.0 * resid.sum(axis=0), atol=1e-10)

    def test_requires_trace(self):
        net = random_net(rng_stream(0), 2, [2], 1)
        x = np.zeros((1, 2))
        trace = forward(net, x, keep_trace=False)
        with pytest.raises(DimensionMismatch):
            backward(net, x, trace, np.zeros((1, 1)))


class TestAdam:
    def test_single_step_matches_hand_computation(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.5, 0.25])
        lr, wd = 0.1, 0.01
        opt = AdamOptimizer([p.shape], lr, wd)
        (updated,) = opt.step([p], [g])

        g_eff = g + wd * p
        m_hat = (0.1 * g_eff) / (1 - 0.9)
        v_hat = (0.001 * g_eff**2) / (1 - 0.999)
        expected = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        assert np.allclose(updated, expected, atol=1e-12)


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
