"""Reference computations and output checks, written apart from ``lagp``.

Nothing here calls the program's math. The network is read from the
checkpoint bytes by this module's own parser, the forward pass and the
per-point Jacobians are this module's own numpy code, and the dense GP
posterior is solved with ``numpy.linalg``. The program's outputs (its
predictive means and covariances, and the files the CLI writes) are then
compared against these references or against properties the method must
have.

Every check returns a list of failure messages; an empty list is a pass.
"""

import math
import struct

import numpy as np

MEAN_RTOL = 1e-9
METRIC_RTOL = 1e-9
PSD_TOL = 1e-9
DENSE_GP_RTOL = 1e-6
GRID_RTOL = 1e-9
# Brier thresholds for a regression predictive, as quantiles of the targets;
# many levels, so that every test point lies near some threshold
BRIER_LEVELS = np.linspace(0.01, 0.99, 99)


# ---------------------------------------------------------------- network


def read_checkpoint(path):
    """Weights and biases of an ``MLPN`` checkpoint (version 1, tanh)."""
    blob = open(path, "rb").read()
    if blob[:4] != b"MLPN":
        raise ValueError(f"{path}: not a network checkpoint")
    version, act = struct.unpack_from("<IB", blob, 4)
    if version != 1 or act != 0:
        raise ValueError(f"{path}: unsupported checkpoint version {version} / activation {act}")
    off = 9
    input_dim, n_hidden = struct.unpack_from("<II", blob, off)
    off += 8
    hidden = struct.unpack_from(f"<{n_hidden}I", blob, off)
    off += 4 * n_hidden
    (output_dim,) = struct.unpack_from("<I", blob, off)
    off += 4
    dims = (input_dim, *hidden, output_dim)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = np.frombuffer(blob, "<f8", fan_in * fan_out, off).reshape(fan_in, fan_out)
        off += 8 * fan_in * fan_out
        b = np.frombuffer(blob, "<f8", fan_out, off)
        off += 8 * fan_out
        weights.append(w.astype(np.float64))
        biases.append(b.astype(np.float64))
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes")
    return weights, biases


def forward(net, x):
    """Output of the tanh MLP: tanh between layers, linear last layer."""
    weights, biases = net
    a = np.asarray(x, dtype=np.float64)
    for l, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w + b
        if l < len(weights) - 1:
            a = np.tanh(a)
    return a


def jacobians(net, x):
    """(N, C, P) derivatives of every output w.r.t. every parameter, by backprop."""
    weights, biases = net
    acts = [np.asarray(x, dtype=np.float64)]
    for w, b in zip(weights[:-1], biases[:-1]):
        acts.append(np.tanh(acts[-1] @ w + b))
    n, c = acts[0].shape[0], weights[-1].shape[1]
    sens = np.broadcast_to(np.eye(c), (n, c, c))  # d output / d pre-activation
    parts = []
    for l in range(len(weights) - 1, -1, -1):
        d_w = acts[l][:, None, :, None] * sens[:, :, None, :]
        parts.append(sens)
        parts.append(d_w.reshape(n, c, -1))
        if l:
            sens = (sens @ weights[l].T) * (1.0 - acts[l] ** 2)[:, None, :]
    return np.concatenate(parts[::-1], axis=2)


def prior_blocks(net, x, prior_variance, chunk=64):
    """(N, C, C) prior covariance blocks prior_variance * J(x) J(x)^T."""
    out = []
    for start in range(0, len(x), chunk):
        j = jacobians(net, x[start : start + chunk])
        out.append(prior_variance * j @ j.transpose(0, 2, 1))
    return np.concatenate(out)


def softmax(g):
    e = np.exp(g - g.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def dense_gp_covariances(net, train_x, query_x, prior_variance, likelihood, noise_variance):
    """(Q, C, C) posterior covariances of the linearized-network GP.

    cov* = K** - K*X L (I + K L)^{-1} KX*, with K = prior_variance * J J^T
    and L the block-diagonal likelihood curvature: I / noise for Gaussian
    noise, diag(p) - p p^T at the softmax of the network output otherwise.
    """
    j_train = jacobians(net, train_x)
    n, c, _ = j_train.shape
    jx = j_train.reshape(n * c, -1)
    jq = jacobians(net, query_x)
    q = jq.shape[0]
    jq = jq.reshape(q * c, -1)
    k_xx = prior_variance * jx @ jx.T
    k_xq = prior_variance * jx @ jq.T
    k_qq = prior_variance * jq @ jq.T
    if likelihood == "gaussian":
        curvature = np.eye(n * c) / noise_variance
    else:
        p = softmax(forward(net, train_x))
        blocks = np.einsum("ic,cd->icd", p, np.eye(c)) - p[:, :, None] * p[:, None, :]
        curvature = np.zeros((n * c, n * c))
        for i in range(n):
            curvature[i * c : (i + 1) * c, i * c : (i + 1) * c] = blocks[i]
    solved = np.linalg.solve(np.eye(n * c) + k_xx @ curvature, k_xq)
    full = k_qq - k_xq.T @ curvature @ solved
    return np.stack([full[i * c : (i + 1) * c, i * c : (i + 1) * c] for i in range(q)])


# ---------------------------------------------------------------- metrics


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _cdf(z):
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))


def regression_scores(mean, y_var, y):
    """NLL, CRPS and threshold Brier score of Gaussian predictives N(mean, y_var)."""
    s = np.sqrt(y_var)
    z = (y - mean) / s
    nll = float(np.mean(0.5 * np.log(2.0 * math.pi * y_var) + 0.5 * z * z))
    crps = float(np.mean(s * (z * (2.0 * _cdf(z) - 1.0) + 2.0 * _phi(z) - 1.0 / math.sqrt(math.pi))))
    thresholds = np.quantile(y, BRIER_LEVELS)
    forecast = _cdf((thresholds[None, :] - mean[:, None]) / s[:, None])
    event = (y[:, None] <= thresholds[None, :]).astype(np.float64)
    brier = float(np.mean((forecast - event) ** 2))
    return {"nll": nll, "crps": crps, "brier": brier}


def class_probs(mean, cov):
    """Softmax of each logit damped by its variance: m / sqrt(1 + pi/8 v)."""
    var = np.clip(np.einsum("ncc->nc", cov), 0.0, None)
    return softmax(mean / np.sqrt(1.0 + (math.pi / 8.0) * var))


def classification_scores(probs, labels):
    """NLL, Brier, accuracy and ranked probability score (the discrete CRPS)."""
    n, c = probs.shape
    onehot = np.eye(c)[labels]
    nll = float(np.mean(-np.log(np.maximum(probs[np.arange(n), labels], 1e-300))))
    brier = float(np.mean(np.sum((probs - onehot) ** 2, axis=1)))
    acc = float(np.mean(probs.argmax(axis=1) == labels))
    crps = float(np.mean(np.sum((np.cumsum(probs, axis=1) - np.cumsum(onehot, axis=1)) ** 2, axis=1)))
    return {"nll": nll, "brier": brier, "acc": acc, "crps": crps}


# ---------------------------------------------------------------- checks


def _close(a, b, rtol, atol=0.0):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def check_mean(label, mean, reference):
    """The predictive mean is the network output (the pinned mean)."""
    scale = float(np.max(np.abs(reference))) if reference.size else 1.0
    if _close(mean, reference, MEAN_RTOL, MEAN_RTOL * scale):
        return []
    return [f"{label}: predictive mean differs from the network output"]


def check_sym_psd(label, covs):
    """Every covariance block is symmetric and positive semidefinite."""
    scale = max(1.0, float(np.max(np.abs(covs)))) if covs.size else 1.0
    out = []
    if float(np.max(np.abs(covs - covs.transpose(0, 2, 1)))) > PSD_TOL * scale:
        out.append(f"{label}: covariance not symmetric")
    sym = 0.5 * (covs + covs.transpose(0, 2, 1))
    if float(np.min(np.linalg.eigvalsh(sym))) < -PSD_TOL * scale:
        out.append(f"{label}: covariance not positive semidefinite")
    return out


def check_loewner(label, covs, prior):
    """prior - cov is PSD: conditioning never adds variance."""
    scale = max(1.0, float(np.max(np.abs(prior))))
    gap = prior - covs
    gap = 0.5 * (gap + gap.transpose(0, 2, 1))
    if float(np.min(np.linalg.eigvalsh(gap))) < -PSD_TOL * scale:
        return [f"{label}: posterior block exceeds the prior block"]
    return []


def check_diag_bound(label, covs, prior):
    """Each posterior variance is at most the prior variance."""
    scale = max(1.0, float(np.max(np.abs(prior))))
    excess = np.einsum("ncc->nc", covs) - np.einsum("ncc->nc", prior)
    if float(np.max(excess)) > PSD_TOL * scale:
        return [f"{label}: posterior variance exceeds the prior variance"]
    return []


def check_close(label, what, value, reference, rtol, atol=0.0):
    if _close(value, reference, rtol, atol):
        return []
    return [f"{label}: {what} differs from the reference"]


def check_simplex(label, probs):
    if np.all(probs >= 0.0) and np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12):
        return []
    return [f"{label}: class probabilities are off the simplex"]


def check_grid(label, grid, mean_reference, noise):
    """predict-grid rows: mean is the network output, std_y^2 = std_f^2 + noise."""
    out = check_mean(label + " grid", grid[:, 1], mean_reference)
    gap = grid[:, 3] ** 2 - grid[:, 2] ** 2
    if not _close(gap, np.full_like(gap, noise), GRID_RTOL, GRID_RTOL * float(np.max(grid[:, 3] ** 2))):
        out.append(f"{label}: predict-grid std_y^2 != std_function^2 + noise")
    return out
