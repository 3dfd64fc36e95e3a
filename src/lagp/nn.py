"""Fully connected networks: definition, MAP training, and checkpoints.

Layer l computes ``h_l = a(h_{l-1}) @ W_l + b_l`` with ``W_l`` of shape
(fan_in, fan_out) and tanh activations between layers; the final layer is
linear. All P parameters share one flat layout, owned by ``layer_blocks``:
per layer, W_l row-major then b_l, a (fan_in + 1, fan_out) block whose last
row is the bias. ``train_map`` builds its network once over views of one
such vector, which Adam updates in place from ``backward``'s flat gradient.
``forward`` rejects a non-finite output; the trainer rejects a non-finite
loss and, after each update, a non-finite parameter, naming the iteration;
a network built from arrays rejects non-finite parameters when built.
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

    @classmethod
    def from_flat(cls, arch, params):
        """The network over views of the (P,) vector ``params``: writes to it show through."""
        blocks = layer_blocks(arch, params)
        return cls(arch=arch, weights=tuple(b[:-1] for b in blocks), biases=tuple(b[-1] for b in blocks))

    def flat_parameters(self):
        """A copy of all parameters as one (P,) vector in the ``layer_blocks`` layout."""
        params = np.empty(self.param_count)
        for block, w, b in zip(layer_blocks(self.arch, params), self.weights, self.biases):
            block[:-1], block[-1] = w, b
        return params


def layer_blocks(arch, params):
    """Views of a (P,) parameter vector, one (w_{l-1}+1, w_l) block per layer: rows W_l, then the last row b_l."""
    dims, blocks, start = arch.layer_dims, [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        blocks.append(params[start : start + (fan_in + 1) * fan_out].reshape(fan_in + 1, fan_out))
        start += (fan_in + 1) * fan_out
    return blocks


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
    """Weights drawn from N(0, 1/fan_in), layer by layer, biases zero."""
    rng = rng_stream(seed)
    params = np.zeros(arch.param_count)
    for block in layer_blocks(arch, params):
        fan_in = block.shape[0] - 1
        block[:-1] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=block[:-1].shape)
    return MlpNetwork.from_flat(arch, params)


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
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
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
    """Gradient of a scalar loss with respect to every parameter, as one (P,) vector.

    ``output_gradient`` holds d(loss)/d(output), one row per input; the
    trace must come from ``forward(..., keep_trace=True)`` on the same
    batch. Each layer's products are written straight into its
    ``layer_blocks`` view of the gradient.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(output_gradient, dtype=np.float64)
    if not trace.pre_activations:
        raise DimensionMismatch("backward needs a trace kept during forward")
    if g.shape != trace.output.shape:
        raise DimensionMismatch(
            f"output gradient shape {g.shape} != output shape {trace.output.shape}"
        )
    grad = np.empty(net.param_count)
    blocks = layer_blocks(net.arch, grad)
    delta = g
    for l in range(net.arch.depth - 1, -1, -1):
        inputs = x if l == 0 else trace.post_activations[l - 1]
        np.matmul(inputs.T, delta, out=blocks[l][:-1])
        delta.sum(axis=0, out=blocks[l][-1])
        if l > 0:
            post = trace.post_activations[l - 1]
            delta = (delta @ net.weights[l].T) * (1.0 - post * post)
    return grad


class AdamOptimizer:
    """Adam over one flat vector, updated in place, with classic L2 added to the gradient.

    Each element runs m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
    p -= (lr m_hat) / (sqrt(v_hat) + eps) in this order, however it is packed.
    """

    def __init__(self, params, learning_rate, weight_decay=0.0):
        self.params = params
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = (np.empty_like(params), np.empty_like(params))

    def step(self, grad):
        """Update ``params`` in place from the gradient ``grad``, which is left as it is."""
        self.step_count += 1
        t = self.step_count
        a, b = self._scratch
        if self.weight_decay != 0.0:
            grad = np.add(grad, np.multiply(self.weight_decay, self.params, out=a), out=a)
        self.m *= ADAM_BETA1
        self.m += np.multiply(1.0 - ADAM_BETA1, grad, out=b)
        self.v *= ADAM_BETA2
        self.v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grad, out=b), grad, out=b)
        denom = np.sqrt(np.divide(self.v, 1.0 - ADAM_BETA2**t, out=b), out=b)
        denom += ADAM_EPS
        update = np.multiply(np.divide(self.m, 1.0 - ADAM_BETA1**t, out=a), self.learning_rate, out=a)
        self.params -= np.divide(update, denom, out=a)


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
    grad = np.exp(log_probs)
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
    params = init_network(arch, cfg.seed).flat_parameters()
    net = MlpNetwork.from_flat(arch, params)
    opt = AdamOptimizer(params, cfg.learning_rate, cfg.weight_decay)
    log_rows = []
    batches = minibatches(x.shape[0], cfg.batch_size, cfg.seed + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a divergence is reported as NonFiniteValue
        for it, idx in zip(range(1, cfg.iterations + 1), batches):
            batch_x = x[idx]
            trace = forward(net, batch_x, keep_trace=True)
            loss, out_grad = _loss_and_output_grad(trace.output, y[idx], cfg.loss)
            if not np.isfinite(loss):
                raise NonFiniteValue(f"training diverged at iteration {it}")
            opt.step(backward(net, batch_x, trace, out_grad))
            if not np.isfinite(params).all():
                raise NonFiniteValue(f"training diverged at iteration {it}: a parameter is NaN or Inf")
            if it % LOG_EVERY == 0 or it == cfg.iterations:
                log_rows.append((it, loss))

    if log_path is not None:
        write_log(log_path, "iteration,loss", log_rows)
    return net


def save_network(net, path):
    """Write a checkpoint: little-endian header then parameters layer-major."""
    arch = net.arch
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IB", CHECKPOINT_VERSION, _ACTIVATIONS[arch.activation]))
        hidden = arch.hidden_dims
        fh.write(struct.pack(f"<II{len(hidden)}II", arch.input_dim, len(hidden), *hidden, arch.output_dim))
        fh.write(net.flat_parameters().astype("<f8", copy=False).tobytes())


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
    hidden, off = take(f"<{n_hidden}I", off)
    (output_dim,), off = take("<I", off)
    arch = MlpArchitecture(
        input_dim=input_dim,
        hidden_dims=hidden,
        output_dim=output_dim,
        activation=_ACTIVATION_IDS[act_id],
    )
    size = 8 * arch.param_count
    if off + size > len(blob):
        raise FormatError("checkpoint truncated inside parameters")
    if off + size != len(blob):
        raise FormatError("trailing bytes after parameters")
    params = np.frombuffer(blob, dtype="<f8", count=arch.param_count, offset=off).astype(np.float64)
    return MlpNetwork.from_flat(arch, params)
