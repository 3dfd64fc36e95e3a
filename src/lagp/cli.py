"""Experiment harness: train a network, fit a posterior, evaluate, compare.

Configuration files are plain text, one ``key = value`` per line, ``#``
comments allowed. Values parse as int, float, bool (true/false), a
comma-separated list of numbers, or a bare string. Unknown keys are
rejected before any compute. ``lagp show-defaults`` prints every key with
its default and meaning.

Each command writes into ``output_dir`` (one directory per run): a copy
of the input config, the resolved config with defaults applied, logs,
fitted states, and metric files. Wall-clock timings go to a separate
``timing.json`` so every other artifact is byte-identical across reruns
with the same seed.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import ella as ella_mod
from . import lla as lla_mod
from . import metrics as metrics_mod
from . import valla as valla_mod
from .errors import CapExceeded, ConfigError, LagpError
from .kernel import KernelContext
from .lla import EVIDENCE_CAP, NOISE_GRID, PRIOR_GRID, GaussianPredictive, LikelihoodModel
from .nn import MlpArchitecture, TrainConfig, load_network, save_network, train_map
from .serialize import load_state, save_state

METHODS = ("map", "lla_exact", "lla_diag", "lla_last_layer", "valla", "ella")

# key -> (default, help); None default means optional/unset
CONFIG_KEYS = {
    "seed": (0, "global seed for training and fitting"),
    "output_dir": ("runs/out", "directory receiving all artifacts of the run"),
    "dataset.kind": ("toy1d", "toy1d | csv | idx"),
    "dataset.n": (200, "number of points for the synthetic generator"),
    "dataset.seed": (0, "seed of the synthetic generator"),
    "dataset.path": (None, "csv file path (dataset.kind = csv)"),
    "dataset.target_column": (0, "target column index in the csv"),
    "dataset.images": (None, "idx image file (dataset.kind = idx)"),
    "dataset.labels": (None, "idx label file (dataset.kind = idx)"),
    "dataset.limit": (None, "optional cap on idx records"),
    "dataset.standardize": (True, "standardize inputs (and regression targets) on train stats"),
    "split.fractions": ((0.8, 0.1, 0.1), "train, validation, test fractions"),
    "split.shuffle": (0, "shuffle seed, or 'sequential' for in-order splits"),
    "arch.hidden": ((50, 50), "hidden layer widths"),
    "train.iterations": (12000, "MAP training iterations"),
    "train.batch_size": (100, "MAP training batch size"),
    "train.learning_rate": (1e-3, "MAP training Adam step size"),
    "train.weight_decay": (0.0, "L2 coefficient added to the gradient"),
    "train.loss": ("rmse", "rmse | nll_classification"),
    "method": ("valla", " | ".join(METHODS)),
    "method.prior_variance": (None, "prior variance; grid-searched when unset (regression)"),
    "method.noise_variance": (None, "observation noise variance; grid-searched when unset"),
    "method.inducing": (20, "number of inducing locations (valla)"),
    "method.alpha": (1.0, "likelihood power in (0, 1] (valla)"),
    "method.objective": ("alpha", "alpha | elbo training objective (valla)"),
    "method.iterations": (10000, "fit iterations (valla)"),
    "method.batch_size": (100, "fit batch size (valla)"),
    "method.learning_rate": (1e-2, "fit Adam step size (valla)"),
    "method.validate_every": (100, "iterations between validation checks (valla)"),
    "method.patience": (3, "non-improving checks before stopping (valla)"),
    "method.train_inducing": (True, "optimize inducing locations (valla)"),
    "method.train_prior_variance": (True, "optimize the prior variance (valla)"),
    "method.train_noise_variance": (True, "optimize the noise variance (valla)"),
    "method.early_stopping": (True, "use validation-based early stopping (valla)"),
    "method.anchors": (20, "anchor subset size (ella)"),
    "method.features": ("auto", "feature count, or 'auto' for the usable rank (ella)"),
    "method.max_points": (None, "optional cap on the accumulation pass (ella)"),
    "grid.range": ((-3.0, 3.0), "predict-grid input range"),
    "grid.resolution": (200, "predict-grid point count"),
}


def _parse_value(raw):
    raw = raw.strip()
    if raw == "":
        return None
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if "," in raw:
        return tuple(_parse_value(part) for part in raw.split(","))
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config_text(text):
    out = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        out[key] = _parse_value(raw)
    return out


def load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = dict((k, v) for k, (v, _) in CONFIG_KEYS.items())
    cfg.update(parse_config_text(text))
    validate_config(cfg)
    return cfg, text


def validate_config(cfg):
    kind = cfg["dataset.kind"]
    if kind not in ("toy1d", "csv", "idx"):
        raise ConfigError(f"dataset.kind must be toy1d|csv|idx, got {kind!r}")
    if kind == "csv":
        if not cfg["dataset.path"]:
            raise ConfigError("dataset.path required for csv datasets")
        if not Path(cfg["dataset.path"]).exists():
            raise ConfigError(f"dataset.path {cfg['dataset.path']!r} does not exist")
    if kind == "idx":
        for key in ("dataset.images", "dataset.labels"):
            if not cfg[key]:
                raise ConfigError(f"{key} required for idx datasets")
            if not Path(cfg[key]).exists():
                raise ConfigError(f"{key} {cfg[key]!r} does not exist")
    if cfg["method"] not in METHODS:
        raise ConfigError(f"method must be one of {', '.join(METHODS)}; got {cfg['method']!r}")
    if cfg["train.loss"] not in ("rmse", "nll_classification"):
        raise ConfigError(f"train.loss invalid: {cfg['train.loss']!r}")
    if cfg["method.objective"] not in ("alpha", "elbo"):
        raise ConfigError(f"method.objective invalid: {cfg['method.objective']!r}")
    fractions = cfg["split.fractions"]
    if not (isinstance(fractions, tuple) and len(fractions) == 3):
        raise ConfigError("split.fractions must be three comma-separated numbers")
    if int(cfg["grid.resolution"]) < 1:
        raise ConfigError("grid.resolution must be >= 1")


def resolved_config_text(cfg):
    lines = [f"{key} = {format_value(cfg[key])}" for key in sorted(CONFIG_KEYS)]
    return "\n".join(lines) + "\n"


def format_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


def prepare_splits(cfg):
    """Load, split, and (optionally) standardize with train statistics."""
    kind = cfg["dataset.kind"]
    if kind == "toy1d":
        ds = data_mod.synth_toy1d(int(cfg["dataset.n"]), seed=int(cfg["dataset.seed"]))
    elif kind == "csv":
        ds = data_mod.load_csv_regression(cfg["dataset.path"], int(cfg["dataset.target_column"]))
    else:
        ds = data_mod.load_idx_images(cfg["dataset.images"], cfg["dataset.labels"], cfg["dataset.limit"])
    spec = data_mod.SplitSpec(fractions=cfg["split.fractions"], shuffle_seed=cfg["split.shuffle"])
    train, val, test = data_mod.split(ds, spec)
    normalization = None
    if cfg["dataset.standardize"]:
        train = data_mod.standardize(train)
        normalization = train.normalization
        val = data_mod.standardize(val, stats=normalization)
        test = data_mod.standardize(test, stats=normalization)
    return train, val, test, normalization


def architecture_for(cfg, train):
    hidden = cfg["arch.hidden"]
    if isinstance(hidden, (int, float)):
        hidden = (int(hidden),)
    output_dim = train.n_classes if train.task == "classification" else train.targets.shape[1]
    return MlpArchitecture(
        input_dim=train.inputs.shape[1],
        hidden_dims=tuple(int(h) for h in hidden),
        output_dim=output_dim,
    )


def _prepare_outdir(cfg, config_text):
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config_text, encoding="utf-8")
    (out / "resolved_config.txt").write_text(resolved_config_text(cfg), encoding="utf-8")
    return out


def cmd_train_map(args):
    cfg, text = load_config(args.config)
    out = _prepare_outdir(cfg, text)
    train, _, _, _ = prepare_splits(cfg)
    arch = architecture_for(cfg, train)
    loss = cfg["train.loss"]
    if train.task == "classification" and loss == "rmse":
        loss = "nll_classification"
    tc = TrainConfig(
        iterations=int(cfg["train.iterations"]),
        batch_size=int(cfg["train.batch_size"]),
        learning_rate=float(cfg["train.learning_rate"]),
        weight_decay=float(cfg["train.weight_decay"]),
        seed=int(cfg["seed"]),
        loss=loss,
    )
    started = time.monotonic()
    net = train_map(arch, (train.inputs, train.targets), tc, log_path=out / "train_log.csv")
    elapsed = time.monotonic() - started
    save_network(net, out / "checkpoint.bin")
    (out / "timing.json").write_text(json.dumps({"train_map_seconds": elapsed}) + "\n")
    print(f"checkpoint written to {out / 'checkpoint.bin'}")
    return 0


def _choose_hyperparameters(cfg, net, train):
    """Fixed values from the config, or an evidence grid search (regression).

    Returns (prior_variance, noise_variance, search): ``search`` is empty
    when nothing was searched, else it records ``evidence_points`` (the
    first ``EVIDENCE_CAP`` training points at most are searched) and
    ``evidence_at_grid_edge`` (a searched variance is an end of its grid).
    """
    pv = cfg["method.prior_variance"]
    nv = cfg["method.noise_variance"]
    if train.task == "classification":
        return float(pv) if pv is not None else 1.0, None, {}
    if pv is not None and nv is not None:
        return float(pv), float(nv), {}
    x, y = train.inputs[:EVIDENCE_CAP], train.targets.ravel()[:EVIDENCE_CAP]
    best_pv, best_nv, _ = lla_mod.grid_search_hyperparameters(net, x, y)
    edge = (pv is None and best_pv in (PRIOR_GRID[0], PRIOR_GRID[-1])) or (
        nv is None and best_nv in (NOISE_GRID[0], NOISE_GRID[-1])
    )
    search = {"evidence_points": int(x.shape[0]), "evidence_at_grid_edge": bool(edge)}
    return (float(pv) if pv is not None else best_pv, float(nv) if nv is not None else best_nv, search)


def fit_method(cfg, net, train, val, log_dir=None):
    """Dispatch to the requested posterior; returns (state, info)."""
    method = cfg["method"]
    prior_variance, noise_variance, search = _choose_hyperparameters(cfg, net, train)
    ctx = KernelContext(net=net, log_prior_variance=float(np.log(prior_variance)))
    if train.task == "classification":
        likelihood = LikelihoodModel(kind="categorical")
    else:
        likelihood = LikelihoodModel(kind="gaussian", noise_variance=noise_variance)
    info = {"method": method, "prior_variance": prior_variance, "noise_variance": noise_variance, **search}

    if method == "map":
        return lla_mod.MapState(ctx=ctx, likelihood=likelihood), info
    if method == "lla_exact":
        try:
            return lla_mod.fit_exact(ctx, likelihood, train.inputs), info
        except CapExceeded as exc:
            raise CapExceeded(f"{exc}; use method = valla for datasets this large") from None
    if method == "lla_diag":
        return lla_mod.fit_diag(net, likelihood, train.inputs, prior_variance), info
    if method == "lla_last_layer":
        return lla_mod.fit_last_layer(net, likelihood, train.inputs, prior_variance), info
    if method == "ella":
        features = cfg["method.features"]
        state = ella_mod.ella_fit(
            ctx,
            likelihood,
            train.inputs,
            m=int(cfg["method.anchors"]),
            k=None if features == "auto" else int(features),
            seed=int(cfg["seed"]),
            max_points=cfg["method.max_points"],
        )
        info["features"] = state.feature_dim
        return state, info

    schedule = valla_mod.TrainSchedule(
        iterations=int(cfg["method.iterations"]),
        batch_size=int(cfg["method.batch_size"]),
        learning_rate=float(cfg["method.learning_rate"]),
        seed=int(cfg["seed"]),
        validate_every=int(cfg["method.validate_every"]),
        patience=int(cfg["method.patience"]),
    )
    log_path = None if log_dir is None else Path(log_dir) / f"fit_log_{method}.csv"
    state = valla_mod.fit_valla(
        ctx,
        likelihood,
        (train.inputs, train.targets),
        (val.inputs, val.targets) if val is not None and val.n else None,
        int(cfg["method.inducing"]),
        schedule,
        alpha=float(cfg["method.alpha"]),
        train_inducing=bool(cfg["method.train_inducing"]),
        train_prior_variance=bool(cfg["method.train_prior_variance"]),
        train_noise_variance=bool(cfg["method.train_noise_variance"]),
        early_stopping=bool(cfg["method.early_stopping"]) and val is not None and val.n > 0,
        objective=cfg["method.objective"],
        log_path=log_path,
    )
    info["prior_variance"] = state.prior_variance
    if likelihood.kind == "gaussian":
        info["noise_variance"] = state.noise_variance
    return state, info


def cmd_fit(args):
    cfg, text = load_config(args.config)
    out = _prepare_outdir(cfg, text)
    checkpoint = Path(args.checkpoint)
    if not checkpoint.exists():
        raise ConfigError(f"checkpoint {checkpoint} does not exist")
    net = load_network(checkpoint)
    train, val, _, normalization = prepare_splits(cfg)
    started = time.monotonic()
    state, info = fit_method(cfg, net, train, val, log_dir=out)
    elapsed = time.monotonic() - started
    state_path = out / f"state_{cfg['method']}.bin"
    save_state(state_path, state, normalization=normalization)
    (out / "timing.json").write_text(json.dumps({"fit_seconds": elapsed}) + "\n")
    (out / f"fit_info_{cfg['method']}.json").write_text(json.dumps(info, sort_keys=True) + "\n")
    print(f"state written to {state_path}")
    return 0


def predict_any(state, x):
    """GaussianPredictive of any fitted state at the inputs x: ``state.predict(x)``."""
    return state.predict(x)


def _to_original_units(pred, normalization):
    """Map a regression predictive from normalized to original target units."""
    if normalization is None:
        return pred
    scale = float(normalization.target_std[0])
    shift = float(normalization.target_mean[0])
    lik = pred.likelihood
    if lik.kind == "gaussian":
        lik = LikelihoodModel(kind="gaussian", noise_variance=lik.noise_variance * scale**2)
    return GaussianPredictive(mean=shift + scale * pred.mean, covariance=scale**2 * pred.covariance, likelihood=lik)


def evaluate_regression(pred, y):
    return metrics_mod.MetricsReport(
        n_points=len(pred),
        nll=metrics_mod.nll_gaussian(pred, y),
        crps=metrics_mod.crps_gaussian(pred, y),
        cqm=metrics_mod.cqm(pred, y),
    )


def evaluate_classification(pred, labels):
    probs = metrics_mod.predictive_class_probs(pred.mean, pred.covariance)
    report = metrics_mod.MetricsReport(
        n_points=len(pred),
        nll=metrics_mod.nll_categorical(probs, labels),
        ece=metrics_mod.ece(probs, labels),
        brier=metrics_mod.brier(probs, labels),
        acc=metrics_mod.accuracy(probs, labels),
    )
    return report, probs


def evaluate_split(state, part, normalization):
    """Metrics of a state on a split, and the curve ``evaluate`` writes with them.

    Regression is scored in the original target units; its curve is
    (alphas, coverage). For classification the curve is the predictive
    entropy of each point.
    """
    pred = state.predict(part.inputs)
    if part.task == "classification":
        report, probs = evaluate_classification(pred, part.targets)
        return report, metrics_mod.predictive_entropy(probs)
    pred = _to_original_units(pred, normalization)
    y = part.targets.ravel()
    if normalization is not None:
        y = y * float(normalization.target_std[0]) + float(normalization.target_mean[0])
    return evaluate_regression(pred, y), metrics_mod.coverage_curve(pred, y)


def cmd_evaluate(args):
    if args.ood_in is not None or args.ood_out is not None:
        if not (args.ood_in and args.ood_out):
            raise ConfigError("ood mode needs both --ood-in and --ood-out entropy files")
        score_in = np.loadtxt(args.ood_in, delimiter=",", skiprows=1, ndmin=1)
        score_out = np.loadtxt(args.ood_out, delimiter=",", skiprows=1, ndmin=1)
        value = metrics_mod.ood_auc(score_in, score_out)
        print(json.dumps({"ood_auc": value}))
        return 0

    if not args.config or not args.state:
        raise ConfigError("evaluate needs a config and --state (or --ood-in/--ood-out)")
    cfg, text = load_config(args.config)
    out = _prepare_outdir(cfg, text)
    state_path = Path(args.state)
    if not state_path.exists():
        raise ConfigError(f"state file {state_path} does not exist")
    state, normalization = load_state(state_path)
    train, val, test, _ = prepare_splits(cfg)
    part = {"train": train, "validation": val, "test": test}[args.split]
    if part.n == 0:
        raise ConfigError(f"split {args.split!r} is empty")

    report, curve = evaluate_split(state, part, normalization)
    if part.task == "regression":
        rows = ["alpha,coverage"] + [f"{float(a)!r},{float(c)!r}" for a, c in zip(*curve)]
        (out / f"coverage_{args.split}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    else:
        rows = ["entropy"] + [f"{float(e)!r}" for e in curve]
        (out / f"entropy_{args.split}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    payload = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    (out / f"metrics_{args.split}.json").write_text(payload)
    print(payload, end="")
    return 0


def cmd_predict_grid(args):
    state_path = Path(args.state)
    if not state_path.exists():
        raise ConfigError(f"state file {state_path} does not exist")
    if args.resolution < 1:
        raise ConfigError("resolution must be >= 1")
    state, normalization = load_state(state_path)
    if state.ctx.net.arch.input_dim != 1:
        raise ConfigError("predict-grid supports 1-D inputs only")
    lo, hi = float(args.range[0]), float(args.range[1])
    grid = np.linspace(lo, hi, int(args.resolution))
    x = grid[:, None]
    if normalization is not None:
        x = (x - normalization.input_mean) / normalization.input_std
    pred = _to_original_units(state.predict(x), normalization)
    var_f = np.maximum(pred.covariance[:, 0, 0], 0.0)
    noise = pred.likelihood.noise_variance if pred.likelihood.kind == "gaussian" else 0.0
    columns = zip(grid, pred.mean[:, 0], np.sqrt(var_f), np.sqrt(var_f + noise))
    rows = ["x,mean,std_function,std_y"] + [",".join(repr(float(v)) for v in row) for row in columns]
    output = "\n".join(rows) + "\n"
    if args.output:
        Path(args.output).write_text(output)
    else:
        print(output, end="")
    return 0


def cmd_compare(args):
    cfg, text = load_config(args.config)
    out = _prepare_outdir(cfg, text)
    checkpoint = Path(args.checkpoint)
    if not checkpoint.exists():
        raise ConfigError(f"checkpoint {checkpoint} does not exist")
    methods = args.methods.split(",") if args.methods else ["lla_exact", "valla", "ella", "lla_diag", "lla_last_layer"]
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; valid: {', '.join(METHODS)}")
    net = load_network(checkpoint)
    train, val, test, normalization = prepare_splits(cfg)
    if test.n == 0:
        raise ConfigError("test split is empty")

    # every method shares one choice of the variances (one evidence search)
    prior_variance, noise_variance, _ = _choose_hyperparameters(cfg, net, train)
    cfg = dict(cfg, **{"method.prior_variance": prior_variance, "method.noise_variance": noise_variance})
    rows = []
    timings = {}
    for method in methods:
        started = time.monotonic()
        state, _ = fit_method(dict(cfg, method=method), net, train, val, log_dir=out)
        timings[method] = time.monotonic() - started
        save_state(out / f"state_{method}.bin", state, normalization=normalization)
        rows.append((method, evaluate_split(state, test, normalization)[0]))

    metric_keys = sorted({k for _, r in rows for k in r.to_dict() if k != "n_points"})
    lines = ["method," + ",".join(metric_keys)]
    for method, report in rows:
        d = report.to_dict()
        lines.append(method + "," + ",".join(repr(d[k]) if k in d else "" for k in metric_keys))
    (out / "compare.csv").write_text("\n".join(lines) + "\n")
    (out / "timing.json").write_text(json.dumps({"fit_seconds": timings}, sort_keys=True) + "\n")
    print("\n".join(lines))
    return 0


def cmd_show_defaults(args):
    for key in sorted(CONFIG_KEYS):
        default, help_text = CONFIG_KEYS[key]
        print(f"{key} = {format_value(default)}  # {help_text}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="lagp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-map", help="train the network to its MAP point")
    p.add_argument("config")
    p.set_defaults(func=cmd_train_map)

    p = sub.add_parser("fit", help="fit the configured posterior around a checkpoint")
    p.add_argument("config")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="compute metrics for a fitted state on a split")
    p.add_argument("config", nargs="?")
    p.add_argument("--state")
    p.add_argument("--split", choices=("train", "validation", "test"), default="test")
    p.add_argument("--ood-in", dest="ood_in", help="entropy csv of in-distribution data")
    p.add_argument("--ood-out", dest="ood_out", help="entropy csv of out-of-distribution data")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict-grid", help="dump mean and std over a 1-D input grid")
    p.add_argument("--state", required=True)
    p.add_argument("--range", nargs=2, type=float, default=(-3.0, 3.0))
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--output")
    p.set_defaults(func=cmd_predict_grid)

    p = sub.add_parser("compare", help="fit several methods on one checkpoint and tabulate")
    p.add_argument("config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--methods", help="comma-separated subset of methods")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("show-defaults", help="print every config key with its default")
    p.set_defaults(func=cmd_show_defaults)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LagpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
