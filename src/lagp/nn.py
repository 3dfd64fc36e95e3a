"""Fully connected networks: definition, MAP training, and checkpoints.

Layer l computes ``h_l = a(h_{l-1}) @ W_l + b_l`` with ``W_l`` of shape
(fan_in, fan_out) and tanh activations between layers; the final layer is
linear. The forward pass can retain every pre- and post-activation, which
downstream modules need to assemble Jacobians and kernels.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, FormatError, NonFiniteValue, VersionMismatch
from .linalg import rng_stream

CHECKPOINT_MAGIC = b"MLPN"
CHECKPOINT_VERSION = 1
_ACTIVATIONS = {"tanh": 0}
_ACTIVATION_IDS = {v: k for k, v in _ACTIVATIONS.items()}

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOG_EVERY = 100  # iterations between rows of the MAP training log


@dataclass(frozen=True)
class MlpArchitecture:
    input_dim: int
    hidden_dims: tuple
    output_dim: int
    activation: str = "tanh"

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(int(d) < 1 for d in dims):
            raise DimensionMismatch(f"all layer dims must be >= 1, got {dims}")
        if self.activation not in _ACTIVATIONS:
            raise DimensionMismatch(f"unsupported activation {self.activation!r}")
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        object.__setattr__(self, "input_dim", int(self.input_dim))
        object.__setattr__(self, "output_dim", int(self.output_dim))

    @property
    def layer_dims(self):
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    @property
    def depth(self):
        return len(self.hidden_dims) + 1

    @property
    def param_count(self):
        dims = self.layer_dims
        return sum((dims[l] + 1) * dims[l + 1] for l in range(len(dims) - 1))


@dataclass(frozen=True)
class MlpNetwork:
    arch: MlpArchitecture
    weights: tuple
    biases: tuple

    def __post_init__(self):
        dims = self.arch.layer_dims
        if len(self.weights) != self.arch.depth or len(self.biases) != self.arch.depth:
            raise DimensionMismatch("layer count does not match architecture")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[l], dims[l + 1]) or b.shape != (dims[l + 1],):
                raise DimensionMismatch(
                    f"layer {l} shapes {w.shape}/{b.shape} do not chain {dims[l]}->{dims[l + 1]}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NonFiniteValue(f"layer {l} parameters contain NaN or Inf")

    @property
    def param_count(self):
        return self.arch.param_count

    def flat_parameters(self):
        """All parameters as one vector, layer-major: W_1, b_1, W_2, b_2, ..."""
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)


@dataclass(frozen=True)
class ForwardTrace:
    pre_activations: tuple
    post_activations: tuple
    output: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    iterations: int
    batch_size: int
    learning_rate: float
    weight_decay: float = 0.0
    seed: int = 0
    loss: str = "rmse"

    def __post_init__(self):
        if self.iterations < 1 or self.batch_size < 1:
            raise DimensionMismatch("iterations and batch_size must be >= 1")
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise DimensionMismatch("learning_rate and weight_decay must be nonnegative")
        if self.loss not in ("rmse", "nll_classification"):
            raise DimensionMismatch(f"unknown loss {self.loss!r}")


def init_network(arch, seed):
    """Weights drawn from N(0, 1/fan_in), biases zero."""
    rng = rng_stream(seed)
    dims = arch.layer_dims
    weights, biases = [], []
    for l in range(arch.depth):
        std = 1.0 / np.sqrt(dims[l])
        weights.append(rng.normal(0.0, std, size=(dims[l], dims[l + 1])))
        biases.append(np.zeros(dims[l + 1]))
    return MlpNetwork(arch=arch, weights=tuple(weights), biases=tuple(biases))


def forward(net, x, keep_trace=False):
    """Evaluate the network on a batch, optionally retaining all layer values."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.arch.input_dim:
        raise DimensionMismatch(
            f"input has shape {x.shape}, expected (N, {net.arch.input_dim})"
        )
    pre, post = [], []
    current = x
    depth = net.arch.depth
    for l in range(depth):
        h = current @ net.weights[l] + net.biases[l]
        if keep_trace:
            pre.append(h)
        if l < depth - 1:
            current = np.tanh(h)
            if keep_trace:
                post.append(current)
        else:
            current = h
    if not np.all(np.isfinite(current)):
        raise NonFiniteValue("forward pass produced NaN or Inf")
    return ForwardTrace(
        pre_activations=tuple(pre),
        post_activations=tuple(post),
        output=current,
    )


def backward(net, x, trace, output_gradient):
    """Gradient of a scalar loss with respect to every weight and bias.

    ``output_gradient`` holds d(loss)/d(output), one row per input; the
    trace must come from ``forward(..., keep_trace=True)`` on the same
    batch.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(output_gradient, dtype=np.float64)
    if not trace.pre_activations:
        raise DimensionMismatch("backward needs a trace kept during forward")
    if g.shape != trace.output.shape:
        raise DimensionMismatch(
            f"output gradient shape {g.shape} != output shape {trace.output.shape}"
        )
    depth = net.arch.depth
    weight_grads = [None] * depth
    bias_grads = [None] * depth
    delta = g
    for l in range(depth - 1, -1, -1):
        inputs = x if l == 0 else trace.post_activations[l - 1]
        weight_grads[l] = inputs.T @ delta
        bias_grads[l] = delta.sum(axis=0)
        if l > 0:
            post = trace.post_activations[l - 1]
            delta = (delta @ net.weights[l].T) * (1.0 - post * post)
    return tuple(weight_grads), tuple(bias_grads)


class AdamOptimizer:
    """Adam over a list of arrays, with classic L2 added to the gradient."""

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


def _loss_and_output_grad(outputs, targets, loss):
    n = outputs.shape[0]
    if loss == "rmse":
        resid = outputs - targets
        mse = float(np.mean(resid * resid))
        return np.sqrt(mse), resid * (2.0 / resid.size)
    # softmax cross-entropy; targets are integer labels
    labels = targets.astype(int).ravel()
    shifted = outputs - outputs.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    log_probs = shifted - log_z[:, None]
    nll = -float(np.mean(log_probs[np.arange(n), labels]))
    probs = np.exp(log_probs)
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    return nll, grad / n


def minibatches(n, batch_size, seed):
    """Endless index batches of min(batch_size, n) points out of n.

    Batches run through a seeded permutation that is redrawn when too few
    points are left for a full batch, so a fixed seed gives the same
    batches every time.
    """
    rng = rng_stream(seed)
    batch = min(batch_size, n)
    order = rng.permutation(n)
    cursor = 0
    while True:
        if cursor + batch > n:
            order = rng.permutation(n)
            cursor = 0
        yield order[cursor : cursor + batch]
        cursor += batch


def write_log(path, header, rows):
    """CSV of (iteration, value, ...) rows: ``repr(float(v))`` per value, an empty cell for None."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for it, *values in rows:
            fh.write(",".join([str(it)] + ["" if v is None else repr(float(v)) for v in values]) + "\n")


def train_map(arch, data, cfg, log_path=None):
    """Train a network to the MAP point with mini-batch Adam.

    ``data`` is an (inputs, targets) pair. Batches come from
    ``minibatches`` seeded with ``cfg.seed + 1``, so a fixed seed gives a
    bitwise-identical result. When ``log_path`` is given, a CSV of
    (iteration, loss) rows is written every ``LOG_EVERY`` iterations.
    """
    x, y = data
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise DimensionMismatch("training data is empty")
    if y.ndim == 1:
        y = y[:, None]
    net = init_network(arch, cfg.seed)
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    shapes = [w.shape for w in weights] + [b.shape for b in biases]
    opt = AdamOptimizer(shapes, cfg.learning_rate, cfg.weight_decay)
    log_rows = []
    batches = minibatches(x.shape[0], cfg.batch_size, cfg.seed + 1)
    for it, idx in zip(range(1, cfg.iterations + 1), batches):
        current = MlpNetwork(arch=arch, weights=tuple(weights), biases=tuple(biases))
        trace = forward(current, x[idx], keep_trace=True)
        loss, out_grad = _loss_and_output_grad(trace.output, y[idx], cfg.loss)
        if not np.isfinite(loss):
            raise NonFiniteValue(f"training diverged at iteration {it}")
        w_grads, b_grads = backward(current, x[idx], trace, out_grad)

        updated = opt.step(list(weights) + list(biases), list(w_grads) + list(b_grads))
        weights = updated[: len(weights)]
        biases = updated[len(weights) :]
        if it % LOG_EVERY == 0 or it == cfg.iterations:
            log_rows.append((it, loss))

    if log_path is not None:
        write_log(log_path, "iteration,loss", log_rows)
    return MlpNetwork(arch=arch, weights=tuple(weights), biases=tuple(biases))


def save_network(net, path):
    """Write a checkpoint: little-endian header then parameters layer-major."""
    arch = net.arch
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IB", CHECKPOINT_VERSION, _ACTIVATIONS[arch.activation]))
        fh.write(struct.pack("<II", arch.input_dim, len(arch.hidden_dims)))
        for d in arch.hidden_dims:
            fh.write(struct.pack("<I", d))
        fh.write(struct.pack("<I", arch.output_dim))
        for w, b in zip(net.weights, net.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_network(path):
    """Read a checkpoint written by save_network, validating shapes."""
    with open(path, "rb") as fh:
        blob = fh.read()

    def take(fmt, offset):
        size = struct.calcsize(fmt)
        if offset + size > len(blob):
            raise FormatError("checkpoint truncated")
        return struct.unpack_from(fmt, blob, offset), offset + size

    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError("bad magic bytes, not a network checkpoint")
    (version, act_id), off = take("<IB", 4)
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"unsupported checkpoint version {version}")
    if act_id not in _ACTIVATION_IDS:
        raise FormatError(f"unknown activation id {act_id}")
    (input_dim, n_hidden), off = take("<II", off)
    hidden = []
    for _ in range(n_hidden):
        (d,), off = take("<I", off)
        hidden.append(d)
    (output_dim,), off = take("<I", off)
    arch = MlpArchitecture(
        input_dim=input_dim,
        hidden_dims=tuple(hidden),
        output_dim=output_dim,
        activation=_ACTIVATION_IDS[act_id],
    )
    dims = arch.layer_dims
    weights, biases = [], []
    for l in range(arch.depth):
        w_count = dims[l] * dims[l + 1]
        end = off + 8 * (w_count + dims[l + 1])
        if end > len(blob):
            raise FormatError("checkpoint truncated inside parameters")
        w = np.frombuffer(blob, dtype="<f8", count=w_count, offset=off)
        off += 8 * w_count
        b = np.frombuffer(blob, dtype="<f8", count=dims[l + 1], offset=off)
        off += 8 * dims[l + 1]
        weights.append(w.reshape(dims[l], dims[l + 1]).copy())
        biases.append(b.copy())
    if off != len(blob):
        raise FormatError("trailing bytes after parameters")
    return MlpNetwork(arch=arch, weights=tuple(weights), biases=tuple(biases))
