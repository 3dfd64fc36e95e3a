"""Checks of one run's outputs against ``reference``; none are timed.

The program is asked for its predictive means and covariances the way
``lagp evaluate`` computes them (``load_state`` then ``predict_any`` on
the evaluated split), and the files the CLI wrote are read back.

Every check also runs once on a deliberately corrupted copy of the
output it checks, and that run must fail: a check that cannot fail is
reported as a failed self-test.
"""

import json

import numpy as np

import reference as ref
from workloads import METHODS

DENSE_GP_POINTS = 4


class Checks:
    """Collects (name, failures); each check and each self-test is one operation."""

    def __init__(self):
        self.results = []

    def add(self, name, check, output, corrupted, how):
        """Run ``check`` on ``output``, and on ``corrupted``, where it must fail."""
        self.results.append((name, list(check(output))))
        passed = not check(corrupted)
        self.results.append((f"{name} self-test", [f"{name}: check passed {how}"] if passed else []))

    @property
    def failures(self):
        return [f for _, fs in self.results for f in fs]


def _shifted(a, by=1e-6):
    return a + by * (1.0 + np.abs(a))


def _indefinite(covs):
    out = covs.copy()
    out[0] -= (float(np.max(np.abs(covs))) + 1.0) * np.eye(covs.shape[1])
    return out


def verify_outputs(wl, checks):
    """Run every output check of a workload; returns the two quality metrics."""
    from lagp.cli import load_config, predict_any, prepare_splits
    from lagp.kernel import kernel_diag_blocks
    from lagp.metrics import predictive_class_probs
    from lagp.serialize import load_state

    net = ref.read_checkpoint(wl.checkpoint)
    cfg, _ = load_config(wl.config("valla"))
    train, _, test, _ = prepare_splits(cfg)
    x = test.inputs
    mean_reference = ref.forward(net, x)
    gram = ref.prior_blocks(net, x, 1.0)  # J J^T per point; each state scales it
    regression = test.task == "regression"
    quality = {}

    for method in METHODS:
        state, normalization = load_state(wl.state(method))
        preds = predict_any(state, x)
        mean = np.stack([p.mean for p in preds])
        covs = np.stack([p.covariance for p in preds])

        checks.add(f"{method} pinned mean", lambda m: ref.check_mean(method, m, mean_reference),
                   mean, _shifted(mean), "a mean shifted by 1e-6")
        checks.add(f"{method} symmetric psd", lambda c: ref.check_sym_psd(method, c),
                   covs, _indefinite(covs), "an indefinite block")

        ctx = state.scaled_ctx if method == "valla" else state.ctx
        prior = ctx.prior_variance * gram
        scale = float(np.max(np.abs(prior)))
        checks.add(f"{method} prior blocks",
                   lambda p: ref.check_close(method, "kernel_diag_blocks", p, prior, 1e-9, 1e-12 * scale),
                   kernel_diag_blocks(ctx, x), 1.01 * prior, "a prior scaled by 1.01")
        if method in ("valla", "lla_exact"):
            checks.add(f"{method} loewner", lambda c: ref.check_loewner(method, c, prior),
                       covs, 1.01 * prior, "a covariance at 1.01 x the prior")
        elif method in ("lla_diag", "lla_last_layer"):
            checks.add(f"{method} variance bound", lambda c: ref.check_diag_bound(method, c, prior),
                       covs, 1.01 * prior, "a covariance at 1.01 x the prior")

        noise = preds[0].likelihood.noise_variance if regression else 0.0
        if method == "lla_exact":
            q = DENSE_GP_POINTS
            dense = ref.dense_gp_covariances(net, train.inputs, x[:q], ctx.prior_variance, state.likelihood.kind, noise)
            checks.add(f"{method} dense gp",
                       lambda c: ref.check_close(method, "covariance", c, dense, ref.DENSE_GP_RTOL, ref.DENSE_GP_RTOL * scale),
                       covs[:q], 1.01 * covs[:q], "a covariance scaled by 1.01")

        reported = json.loads(wl.metrics_file(method).read_text(encoding="utf-8"))
        if regression:
            shift, std = float(normalization.target_mean[0]), float(normalization.target_std[0])
            y = test.targets.ravel() * std + shift
            scores = ref.regression_scores(shift + std * mean[:, 0], std**2 * (covs[:, 0, 0] + noise), y)
            keys = ("crps", "nll")
            grid = np.loadtxt(wl.grid(method), delimiter=",", skiprows=1, ndmin=2)
            grid_inputs = (grid[:, :1] - normalization.input_mean) / normalization.input_std
            grid_mean = shift + std * ref.forward(net, grid_inputs)[:, 0]
            bad_grid = grid.copy()
            bad_grid[:, 3] += 1e-6
            checks.add(f"{method} predict-grid", lambda g: ref.check_grid(method, g, grid_mean, noise * std**2),
                       grid, bad_grid, "a std_y shifted by 1e-6")
        else:
            probs = np.stack([predictive_class_probs(p.mean, p.covariance) for p in preds])
            own = ref.class_probs(mean, covs)
            off_simplex = probs.copy()
            off_simplex[0, 0] += 1e-3
            checks.add(f"{method} simplex", lambda p: ref.check_simplex(method, p),
                       probs, off_simplex, "a row off the simplex")
            checks.add(f"{method} class probabilities",
                       lambda p: ref.check_close(method, "probabilities", p, own, 1e-12, 1e-15),
                       probs, _shifted(probs), "probabilities shifted by 1e-6")
            scores = ref.classification_scores(own, test.targets)
            keys = ("acc", "brier", "nll")
            entropy = np.loadtxt(wl.dirs(method) / "entropy_test.csv", skiprows=1, ndmin=1)
            own_entropy = -np.sum(own * np.log(np.clip(own, 1e-300, None)), axis=1)
            checks.add(f"{method} entropy file",
                       lambda e: ref.check_close(method, "entropy", e, own_entropy, ref.METRIC_RTOL, 1e-15),
                       entropy, _shifted(entropy), "entropies shifted by 1e-6")
        values = np.array([reported[k] for k in keys])
        checks.add(f"{method} metrics file",
                   lambda v: ref.check_close(method, f"metrics {keys}", v, [scores[k] for k in keys], ref.METRIC_RTOL),
                   values, _shifted(values), "metrics shifted by 1e-6")
        if method == "valla":
            quality = {"valla_test_crps": scores["crps"], "valla_test_brier": scores["brier"]}
    return quality
