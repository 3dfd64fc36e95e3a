"""Sparse variational posterior with the predictive mean pinned to the network.

The approximation keeps the trained network's outputs as the predictive
mean and learns only a covariance correction supported on M inducing
locations Z. With A = L L^T parameterizing the correction (L lower
triangular, so A is PSD by construction and may be singular), the
posterior covariance between two inputs is

    K*(x, x') = kappa(x, x')
                - k(x, Z) L (I + L^T K_Z L)^{-1} L^T k(Z, x')

which is the inverse-free rewriting of the textbook form
kappa - k (A^{-1} + K_Z)^{-1} k'. With L_H the Cholesky factor of
H = I + L^T K_Z L, its diagonal blocks are cov = prior - r^T r with
r = L_H^-1 L^T k(Z, x), from one ``linalg.solve_lower`` run in place on
the fresh L^T k(Z, x); equivalently cov = prior - k(x, Z) P k(Z, x) with
P = L H^{-1} L^T. The divergence from the prior over the inducing basis
reduces to the two covariance terms

    KL = 1/2 log|H| - 1/2 tr(H^{-1} L^T K_Z L) = 1/2 log|H| - 1/2 tr(K_Z P);

the quadratic mean term of the general decoupled-basis divergence is
constant here because the mean is not trained, so it is dropped from the
objective.

A fitted state is (ctx, likelihood, Z, L, alpha), with the fitted prior
variance in ctx and the fitted noise variance in the likelihood.

Every prediction, validation check and training step runs ``nn.forward``
once over its batch and reads one kernel tape (``kernel.kernel_tape``)
built on that trace: a single layer walk over the stacked rows [Z; X]
gives K_Z, the cross block kappa(X, Z) and the prior blocks of X, and the
step's inducing-location gradient is one reverse pass over the same tape
(``kernel.kernel_input_vjp``); a prediction releases the tape's walk
before its solve. The mean, in a prediction and in a step's data term
alike, is the output of that same trace.

Training maximizes a likelihood-power data term minus the KL. For
alpha = 1 and Gaussian noise the data term is the exact log marginal of
each observation, log N(y | m(x), noise + v(x)); general alpha in (0, 1]
has a closed Gaussian form. For classification the expectation is
replaced by the deterministic softmax damping of
``metrics.predictive_class_probs``.

Gradients are closed-form and checked against finite differences in the
tests. With G = L H^{-1}, the data term pulls back to P as
Omega = -sum_b k(Z, x_b) g_b k(x_b, Z), g_b its derivative by cov_b, and
W is the cross block weighted by the g_b. Through
dP = dL G^T + G dL^T - G dU G^T it reaches U = L^T K_Z L as -G^T Omega G,
and dKL/dU = 1/2 H^{-1} U H^{-1} = G^T (K_Z / 2) G, so both terms act
through T = Omega + K_Z / 2 (dU = L^T dK_Z L, or dL^T K_Z L + L^T K_Z dL):

    d(objective)/d(K_Z) = psi = -P T P
    d(objective)/d(L)         = tril(2 (Omega - K_Z P T) G)
    d(objective)/d(kappa(X, Z)) = -2 W P
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, FormatError, NonFiniteValue
from .kernel import KernelContext, kernel_input_vjp, kernel_tape
from .linalg import cholesky, logdet, rng_stream, solve_lower, solve_psd
from .lla import LikelihoodModel, PosteriorState, gram_blocks
from .metrics import class_labels, nll_categorical, nll_gaussian, predictive_class_probs
from .nn import AdamOptimizer, as_inputs, forward, minibatches, write_log

A_FACTOR_INIT_SCALE = 1e-3


@dataclass(frozen=True)
class VallaState(PosteriorState):
    KIND = "valla"
    ARRAYS = ("inducing", "a_factor")
    META = {"alpha": float}

    ctx: KernelContext  # at the fitted prior variance
    likelihood: LikelihoodModel  # at the fitted noise variance (regression)
    inducing: np.ndarray  # (M, D) locations of the covariance basis
    a_factor: np.ndarray  # (M*C, M*C) lower triangular, A = L L^T
    alpha: float = 1.0

    @property
    def scaled_ctx(self):
        # the benchmark's output check still reads this name; it goes with ROADMAP item 1
        return self.ctx

    def covariances(self, trace):
        """Prior blocks minus r^T r at each query of ``trace``, r = L_H^-1 L^T k(Z, x*), from one kernel tape.

        Only a training step's VJP reads the tape's walk, so it is released before the solve.
        """
        tape = replace(kernel_tape(self.ctx, self.inducing, trace), walk=())
        return _posterior_blocks(self, tape)[2]

    def check(self):
        arch = self.ctx.net.arch
        z, lower = self.inducing, self.a_factor
        if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] != arch.input_dim:
            raise FormatError(f"inducing must be (M, {arch.input_dim}) with M >= 1, got shape {z.shape}")
        q = z.shape[0] * arch.output_dim
        if lower.shape != (q, q):
            raise FormatError(f"a_factor must be a ({q}, {q}) matrix, got shape {lower.shape}")

    @classmethod
    def from_payload(cls, ctx, likelihood, meta, arrays):
        # older files keep the pre-fit noise in the likelihood record and the fitted one here
        if "log_noise_variance" in meta and likelihood.kind == "gaussian":
            likelihood = LikelihoodModel(kind="gaussian", noise_variance=float(np.exp(meta["log_noise_variance"])))
        return super().from_payload(ctx, likelihood, meta, arrays)


@dataclass(frozen=True)
class TrainSchedule:
    iterations: int
    batch_size: int
    learning_rate: float
    seed: int = 0
    validate_every: int = 100
    patience: int = 3

    def __post_init__(self):
        if min(self.iterations, self.batch_size, self.validate_every, self.patience) < 1:
            raise DimensionMismatch("schedule counts must be >= 1")
        if self.learning_rate < 0:
            raise DimensionMismatch("learning_rate must be nonnegative")


@dataclass(frozen=True)
class DualBasisReport:
    kl_value: float
    data_term: float
    objective: float


def _capacity_factor(lower, k_ind):
    """(K_Z, L_H): the symmetrized K_Z and the Cholesky factor of H = I + L^T K_Z L."""
    k_ind = 0.5 * (k_ind + k_ind.T)
    u = lower.T @ k_ind @ lower
    return k_ind, cholesky(np.eye(u.shape[0]) + 0.5 * (u + u.T))


def _gaussian_power_data_terms(y, means, variances, noise, alpha, n_scale):
    """Per-point value and derivative pieces of the likelihood-power term.

    Returns (values, d_dv, d_dnoise) where values[b] is
    (1/alpha) log E[N(y_b | f, noise)^alpha] under f ~ N(m_b, v_b).
    """
    s = noise / alpha + variances
    r = y - means
    const = -0.5 * math.log(2.0 * math.pi * noise) + (1.0 / (2.0 * alpha)) * math.log(
        2.0 * math.pi * noise / alpha
    )
    values = const + (1.0 / alpha) * (-0.5 * np.log(2.0 * math.pi * s) - r * r / (2.0 * s))
    inner = -0.5 / s + r * r / (2.0 * s * s)
    d_dv = (1.0 / alpha) * inner
    d_dnoise = (-0.5 / noise + 0.5 / (alpha * noise)) + inner / (alpha * alpha)
    return n_scale * values, n_scale * d_dv, n_scale * d_dnoise


def _categorical_data_terms(labels, means, variance_diags, n_scale):
    """Per-point log probability of the label under the damped softmax."""
    gamma = np.sqrt(1.0 + (np.pi / 8.0) * np.clip(variance_diags, 0.0, None))
    t = means / gamma
    t_max = t.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(t - t_max).sum(axis=1, keepdims=True)) + t_max
    rows = np.arange(len(labels))
    values = t[rows, labels] - log_z[:, 0]
    indicator = np.zeros_like(t)
    indicator[rows, labels] = 1.0
    dt_dv = -(np.pi / 16.0) * means / gamma**3
    return n_scale * values, n_scale * ((indicator - np.exp(t - log_z)) * dt_dv)


def _posterior_blocks(state, tape):
    """(K_Z, L_H, covs) of a ``kernel_tape``'s batch; the solve runs in place on the fresh L^T k(Z, X)."""
    k_ind, h_factor = _capacity_factor(state.a_factor, tape.k_z)
    r = solve_lower(h_factor, state.a_factor.T @ tape.cross.T, overwrite_b=True)
    return k_ind, h_factor, gram_blocks(r, tape.prior.shape[1], tape.prior)


def _data_term(state, means, covs, batch_y, n_total, mode):
    """The scaled data term at (B, C) means and (B, C, C) covs, its (B, C, C) derivative by covs and by the noise."""
    if not 0.0 < state.alpha <= 1.0:
        raise DimensionMismatch("alpha must lie in (0, 1]")
    b = covs.shape[0]
    n_scale = n_total / b
    if state.likelihood.kind == "gaussian":
        if covs.shape[1] != 1:
            raise DimensionMismatch("gaussian likelihood requires a single output")
        y = np.asarray(batch_y, dtype=np.float64).ravel()
        variances = covs[:, 0, 0]
        means = means.ravel()
        noise = state.likelihood.noise_variance
        if mode == "elbo":
            r = y - means
            values = -0.5 * np.log(2.0 * math.pi * noise) - r * r / (2.0 * noise) - variances / (2.0 * noise)
            d_dv = np.full(b, -0.5 / noise)
            d_dnoise = -0.5 / noise + (r * r + variances) / (2.0 * noise * noise)
            values, d_dv, d_dnoise = n_scale * values, n_scale * d_dv, n_scale * d_dnoise
        else:
            values, d_dv, d_dnoise = _gaussian_power_data_terms(
                y, means, variances, noise, state.alpha, n_scale
            )
        g_blocks = d_dv.reshape(b, 1, 1)
        return float(values.sum()), g_blocks, float(d_dnoise.sum())
    if mode == "elbo":
        raise DimensionMismatch("elbo data term is implemented for the gaussian likelihood only")
    c = covs.shape[1]
    labels = class_labels(batch_y, c, b)
    var_diags = np.diagonal(covs, axis1=1, axis2=2)
    values, d_dvdiag = _categorical_data_terms(labels, means, var_diags, n_scale)
    g_blocks = np.zeros((b, c, c))
    g_blocks[:, np.arange(c), np.arange(c)] = d_dvdiag
    return float(values.sum()), g_blocks, 0.0


def objective_gradient(state, batch_x, batch_y, n_total, compute_inducing_gradient=True, mode="alpha"):
    """Mini-batch objective and its closed-form gradient w.r.t. all trainable leaves.

    The objective is the scaled data term minus the KL of the batch's own
    capacity factor. ``mode="alpha"`` takes the likelihood-power data
    term. ``mode="elbo"`` (Gaussian case only) takes the plain evidence
    bound, sum of log N(y | m, noise) - v/(2 noise), scaled to the full
    dataset. The bound exposes the degeneracy that makes the
    likelihood-power objective necessary: with the mean pinned, it always
    improves as the prior variance shrinks to zero.

    Returns (report, grads) with grads holding 'a_factor' (masked to the
    lower triangle), 'inducing', 'log_prior_variance' and, for Gaussian
    likelihoods, 'log_noise_variance'. The inducing-location gradient is
    one reverse-mode pass over the batch's kernel tape
    (``kernel_input_vjp``) with the cotangents of K_Z and of the cross
    blocks; it is left at zero when the locations are frozen.
    """
    ctx = state.ctx
    trace = forward(ctx.net, batch_x)
    b, c = trace.output.shape
    q = state.inducing.shape[0] * c
    lower = state.a_factor

    tape = kernel_tape(ctx, state.inducing, trace)
    k_ind, h_factor, covs = _posterior_blocks(state, tape)
    cross = tape.cross  # (B*C, q), kappa(X, Z)
    data, g_blocks, d_dnoise = _data_term(state, trace.output, covs, batch_y, n_total, mode)

    # the identities of the module docstring; five q x q x q products
    g_t = solve_psd(h_factor, lower.T)  # G^T = H^{-1} L^T
    proj = lower @ g_t  # P
    kl = 0.5 * logdet(h_factor) - 0.5 * float(np.sum(k_ind * proj))
    report = DualBasisReport(kl_value=kl, data_term=data, objective=data - kl)

    weighted = (g_blocks.transpose(0, 2, 1) @ cross.reshape(b, c, q)).reshape(b * c, q)  # W
    omega = -weighted.T @ cross  # d(data)/dP
    omega = 0.5 * (omega + omega.T)
    pt = proj @ (omega + 0.5 * k_ind)  # P T
    grad_lower = np.tril(2.0 * (omega - k_ind @ pt) @ g_t.T)
    psi = -pt @ proj  # d(objective)/d(K_Z)
    psi = 0.5 * (psi + psi.T)
    grad_cross = -2.0 * weighted @ proj  # (B*C, q), d(data)/d(cross)

    # log prior variance: every kernel matrix is linear in the variance
    grad_lpv = float(
        np.sum(psi * k_ind)
        + np.sum(grad_cross * cross)
        + np.einsum("bcd,bcd->", g_blocks, tape.prior)
    )

    grads = {
        "a_factor": grad_lower,
        "log_prior_variance": grad_lpv,
    }
    if state.likelihood.kind == "gaussian":
        grads["log_noise_variance"] = float(state.likelihood.noise_variance * d_dnoise)

    if not compute_inducing_gradient:
        grads["inducing"] = np.zeros_like(state.inducing)
        return report, grads
    m = state.inducing.shape[0]
    # inducing locations: one reverse pass over the tape's kappa([Z; X], Z).
    # K_Z takes psi twice, because it depends on Z through both arguments
    cotangent = np.vstack([2.0 * psi, grad_cross]).reshape(m + b, c, m, c)
    grads["inducing"] = kernel_input_vjp(ctx, tape, cotangent)
    return report, grads


def kmeans_init(x, m, seed):
    """Deterministic k-means centers of the (N, D) points x.

    Plus-plus seeding, then Lloyd updates.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"points must be (N, D), got shape {x.shape}")
    n = x.shape[0]
    m = int(m)
    if m < 1 or m > n:
        raise DimensionMismatch(f"need 1 <= M <= N, got M={m}, N={n}")
    rng = rng_stream(seed)

    centers = np.empty((m, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for k in range(1, m):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[k] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[k]) ** 2, axis=1))

    for _ in range(50):
        dists = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assign = dists.argmin(axis=1)
        new_centers = centers.copy()
        for k in range(m):
            mask = assign == k
            if mask.any():
                new_centers[k] = x[mask].mean(axis=0)
        if np.max(np.abs(new_centers - centers)) < 1e-12:
            centers = new_centers
            break
        centers = new_centers
    return centers


def validation_nll(state, x, y):
    """Mean negative log likelihood on held-out data under the posterior."""
    pred = state.predict(x)
    if state.likelihood.kind == "gaussian":
        return nll_gaussian(pred, y)
    return nll_categorical(predictive_class_probs(pred.mean, pred.covariance), y)


def fit_valla(
    ctx,
    likelihood,
    train,
    validation,
    m_inducing,
    schedule,
    alpha=1.0,
    train_inducing=True,
    train_prior_variance=True,
    train_noise_variance=True,
    early_stopping=True,
    objective="alpha",
    log_path=None,
):
    """Fit the sparse posterior by stochastic ascent on the objective.

    Inducing locations start at k-means centers of the training inputs
    and the correction factor at a small multiple of the identity, so the
    initial predictive variance is close to the prior. Validation NLL is
    checked every ``schedule.validate_every`` iterations; after
    ``schedule.patience`` consecutive non-improving checks the best state
    seen is returned. Under the categorical likelihood a training label
    outside [0, C) raises DimensionMismatch.
    """
    x, y = train
    x = as_inputs(x, ctx.net.arch.input_dim)
    n = x.shape[0]
    if not 1 <= m_inducing <= n:
        raise DimensionMismatch(f"M = {m_inducing} must lie in [1, N = {n}]")
    if early_stopping and (validation is None or len(validation[0]) == 0):
        raise DimensionMismatch("early stopping needs a nonempty validation set")

    c = ctx.net.arch.output_dim
    if likelihood.kind == "categorical":
        y = class_labels(y, c, n)
    q = int(m_inducing) * c

    def leaves(vec):
        """Views (L, Z) of a vector that packs L, Z, log prior variance and log noise variance."""
        return vec[: q * q].reshape(q, q), vec[q * q : -2].reshape(m_inducing, x.shape[1])

    lnv = float(np.log(likelihood.noise_variance)) if likelihood.kind == "gaussian" else 0.0
    init = (A_FACTOR_INIT_SCALE * np.eye(q), kmeans_init(x, m_inducing, schedule.seed), [ctx.log_prior_variance, lnv])
    params = np.concatenate([np.ravel(leaf) for leaf in init])
    lower, inducing = leaves(params)
    upper = ~np.tri(q, dtype=bool)

    def make_state(keep=True):
        """The state at ``params``; one that is kept copies its arrays out."""
        noise = float(np.exp(params[-1])) if likelihood.kind == "gaussian" else likelihood.noise_variance
        return VallaState(
            ctx=ctx.with_log_prior_variance(float(params[-2])),
            likelihood=replace(likelihood, noise_variance=noise),
            inducing=inducing.copy() if keep else inducing,
            a_factor=lower.copy() if keep else lower,
            alpha=alpha,
        )

    train_noise = train_noise_variance and likelihood.kind == "gaussian"
    grad = np.zeros_like(params)
    grad_lower, grad_inducing = leaves(grad)
    opt = AdamOptimizer(params, schedule.learning_rate)

    best_state = make_state()
    best_nll = math.inf
    bad_checks = 0
    log_rows = []
    batches = minibatches(n, schedule.batch_size, schedule.seed + 1)
    for it, idx in zip(range(1, schedule.iterations + 1), batches):
        try:
            report, grads = objective_gradient(
                make_state(keep=False), x[idx], y[idx], n, compute_inducing_gradient=train_inducing, mode=objective
            )
        except NonFiniteValue as exc:
            raise NonFiniteValue(f"diverged at iteration {it}: {exc}") from None
        if not np.isfinite(report.objective):
            raise NonFiniteValue(f"objective diverged at iteration {it}")

        np.negative(grads["a_factor"], out=grad_lower)
        np.negative(grads["inducing"], out=grad_inducing)
        grad[-2] = -grads["log_prior_variance"] if train_prior_variance else 0.0
        grad[-1] = -grads.get("log_noise_variance", 0.0) if train_noise else 0.0
        opt.step(grad)
        lower[upper] = 0.0

        val_nll = None
        if it % schedule.validate_every == 0 or it == schedule.iterations:
            if validation is not None and len(validation[0]):
                val_nll = validation_nll(make_state(keep=False), validation[0], validation[1])
                if val_nll < best_nll - 1e-12:
                    best_nll = val_nll
                    best_state = make_state()
                    bad_checks = 0
                else:
                    bad_checks += 1
            log_rows.append((it, report.objective, report.kl_value, report.data_term, val_nll))
            if early_stopping and bad_checks >= schedule.patience:
                break

    if log_path is not None:
        write_log(log_path, "iteration,objective,kl,data_term,validation_nll", log_rows)

    if early_stopping and best_nll < math.inf:
        return best_state
    return make_state()
