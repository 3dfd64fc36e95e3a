"""Experiment harness: train a network, fit a posterior, evaluate, compare.

Configuration files are plain text, one ``key = value`` per line, ``#``
comments allowed. ``CONFIG_KEYS`` declares each key's default and type:
an integer, a non-negative integer (seeds), a count (an integer >= 1:
iterations, batch sizes, inducing points, anchors), a finite number,
``true``/``false``, a path, one of a set of words, a non-negative
integer or a count that may also be one word (``sequential``,
``auto``), or a comma-separated list. Every value is read as
its key's type when the file loads, and a value that does not
fit, like an unknown key, is a ``ConfigError`` (exit 2) raised before any
output is written. An empty value unsets a key whose default is None
and is an error for any other key. ``lagp show-defaults`` prints every
key with its default, meaning and type.

Each command writes into ``output_dir`` (one directory per run): a copy
of the input config, the resolved config with defaults applied, logs,
fitted states, and metric files. Wall-clock timings go to a separate
``timing.json`` so every other artifact is byte-identical across reruns
with the same seed.
"""

import argparse
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import ella as ella_mod
from . import lla as lla_mod
from . import metrics as metrics_mod
from . import valla as valla_mod
from .errors import CapExceeded, ConfigError, DimensionMismatch, EmptyFile, LagpError, NonFiniteValue, ParseError
from .kernel import KernelContext
from .lla import EVIDENCE_CAP, NOISE_GRID, PRIOR_GRID, GaussianPredictive, LikelihoodModel
from .nn import MlpArchitecture, TrainConfig, load_network, save_network, train_map
from .serialize import load_state, save_state

METHODS = ("map", "lla_exact", "lla_diag", "lla_last_layer", "valla", "ella")


def _type(expected, parse=str, ok=lambda value: True):
    """A value type: what it expects, and a reader that raises ValueError on a misfit."""

    def read(raw):
        value = parse(raw)
        if not ok(value):
            raise ValueError(raw)
        return value

    return expected, read


def _words(*choices):
    return _type(" | ".join(choices), ok=lambda raw: raw in choices)


def _or(kind, word):
    """The value type ``kind``, or the one word ``word``."""
    expected, read = kind
    return f"{expected} or {word}", lambda raw: raw if raw == word else read(raw)


INT = _type("an integer", int)
NATURAL = _type("a non-negative integer", int, lambda value: value >= 0)
COUNT = _type("an integer >= 1", int, lambda value: value >= 1)
FLOAT = _type("a finite number", float, math.isfinite)
POSITIVE = _type("a finite number > 0", float, lambda value: math.isfinite(value) and value > 0.0)
BOOL = _type("true or false", lambda raw: {"true": True, "false": False}.get(raw.lower()), lambda v: v is not None)
PATH = _type("a path", ok=bool)
INTS = _type("comma-separated integers", lambda raw: tuple(int(part) for part in raw.split(",")))
FRACTIONS = _type(
    "three comma-separated finite numbers",
    lambda raw: tuple(float(part) for part in raw.split(",")),
    lambda values: len(values) == 3 and all(map(math.isfinite, values)),
)

# key -> (default, type, help); None default means optional/unset
CONFIG_KEYS = {
    "seed": (0, NATURAL, "global seed for training and fitting"),
    "output_dir": ("runs/out", PATH, "directory receiving all artifacts of the run"),
    "dataset.kind": ("toy1d", _words("toy1d", "csv", "idx"), "dataset source"),
    "dataset.n": (200, INT, "number of points for the synthetic generator"),
    "dataset.seed": (0, NATURAL, "seed of the synthetic generator"),
    "dataset.path": (None, PATH, "csv file path (dataset.kind = csv)"),
    "dataset.target_column": (0, INT, "target column index in the csv"),
    "dataset.images": (None, PATH, "idx image file (dataset.kind = idx)"),
    "dataset.labels": (None, PATH, "idx label file (dataset.kind = idx)"),
    "dataset.limit": (None, NATURAL, "optional cap on idx records"),
    "dataset.standardize": (True, BOOL, "standardize inputs (and regression targets) on train stats"),
    "split.fractions": ((0.8, 0.1, 0.1), FRACTIONS, "train, validation, test fractions"),
    "split.shuffle": (0, _or(NATURAL, "sequential"), "shuffle seed, or sequential for in-order splits"),
    "arch.hidden": ((50, 50), INTS, "hidden layer widths"),
    "train.iterations": (12000, COUNT, "MAP training iterations"),
    "train.batch_size": (100, COUNT, "MAP training batch size"),
    "train.learning_rate": (1e-3, FLOAT, "MAP training Adam step size"),
    "train.weight_decay": (0.0, FLOAT, "L2 coefficient added to the gradient"),
    "method": ("valla", _words(*METHODS), "posterior to fit"),
    "method.prior_variance": (None, POSITIVE, "prior variance; grid-searched when unset (regression)"),
    "method.noise_variance": (None, POSITIVE, "observation noise variance; grid-searched when unset"),
    "method.inducing": (20, COUNT, "number of inducing locations (valla)"),
    "method.alpha": (1.0, FLOAT, "likelihood power in (0, 1] (valla)"),
    "method.objective": ("alpha", _words("alpha", "elbo"), "training objective (valla)"),
    "method.iterations": (10000, COUNT, "fit iterations (valla)"),
    "method.batch_size": (100, COUNT, "fit batch size (valla)"),
    "method.learning_rate": (1e-2, FLOAT, "fit Adam step size (valla)"),
    "method.validate_every": (100, COUNT, "iterations between validation checks (valla)"),
    "method.patience": (3, COUNT, "non-improving checks before stopping (valla)"),
    "method.train_inducing": (True, BOOL, "optimize inducing locations (valla)"),
    "method.train_prior_variance": (True, BOOL, "optimize the prior variance (valla)"),
    "method.train_noise_variance": (True, BOOL, "optimize the noise variance (valla)"),
    "method.early_stopping": (True, BOOL, "use validation-based early stopping (valla)"),
    "method.anchors": (20, COUNT, "anchor subset size (ella)"),
    "method.features": ("auto", _or(COUNT, "auto"), "feature count, or auto for the usable rank (ella)"),
    "method.max_points": (None, COUNT, "optional cap on the accumulation pass (ella)"),
}


def _read_value(key, raw):
    default, (expected, parse), _ = CONFIG_KEYS[key]
    if raw == "" and default is None:
        return None
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{key} = {raw!r}: expected {expected}") from None


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
        out[key] = _read_value(key, raw.strip())
    return out


def load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = {key: default for key, (default, _, _) in CONFIG_KEYS.items()}
    cfg.update(parse_config_text(text))
    validate_config(cfg)
    return cfg, text


def validate_config(cfg):
    """Check that the files a csv or idx dataset needs are named and exist."""
    kind = cfg["dataset.kind"]
    for key in {"csv": ("dataset.path",), "idx": ("dataset.images", "dataset.labels")}.get(kind, ()):
        if cfg[key] is None:
            raise ConfigError(f"{key} required for {kind} datasets")
        if not Path(cfg[key]).exists():
            raise ConfigError(f"{key} {cfg[key]!r} does not exist")


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
        ds = data_mod.synth_toy1d(cfg["dataset.n"], seed=cfg["dataset.seed"])
    elif kind == "csv":
        ds = data_mod.load_csv_regression(cfg["dataset.path"], cfg["dataset.target_column"])
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
    output_dim = train.n_classes if train.task == "classification" else train.targets.shape[1]
    return MlpArchitecture(input_dim=train.inputs.shape[1], hidden_dims=cfg["arch.hidden"], output_dim=output_dim)


def check_task(what, net, part, likelihood_kind=None):
    """Raise DimensionMismatch, naming both, when a network or a state does not fit the data's task.

    Classification needs one output per class and a categorical
    likelihood, regression one output per target and a Gaussian one.
    """
    if part.task == "classification":
        outputs, kind, task = part.n_classes, "categorical", f"{part.n_classes}-class classification"
    else:
        outputs, kind, task = part.targets.shape[1], "gaussian", f"regression with {part.targets.shape[1]} target(s)"
    if net.arch.output_dim != outputs or likelihood_kind not in (None, kind):
        found = f"{net.arch.output_dim} output(s)" + (f" and a {likelihood_kind} likelihood" if likelihood_kind else "")
        raise DimensionMismatch(f"the {what} has {found}, but the data is {task}")


def _existing(path, what):
    if not Path(path).exists():
        raise ConfigError(f"{what} {path} does not exist")
    return Path(path)


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
    tc = TrainConfig(
        iterations=cfg["train.iterations"],
        batch_size=cfg["train.batch_size"],
        learning_rate=cfg["train.learning_rate"],
        weight_decay=cfg["train.weight_decay"],
        seed=cfg["seed"],
        loss="nll_classification" if train.task == "classification" else "rmse",
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

    A variance the config fixes is searched on a one-point grid of its
    value, so the other one is the best at it. Returns (prior_variance,
    noise_variance, search): ``search`` is empty when nothing was
    searched, else it records ``evidence_points`` (the first
    ``EVIDENCE_CAP`` training points at most are searched) and
    ``evidence_at_grid_edge`` (a searched variance is an end of its grid).
    """
    pv = cfg["method.prior_variance"]
    nv = cfg["method.noise_variance"]
    if train.task == "classification":
        return pv if pv is not None else 1.0, None, {}
    if pv is not None and nv is not None:
        return pv, nv, {}
    x, y = train.inputs[:EVIDENCE_CAP], train.targets.ravel()[:EVIDENCE_CAP]
    prior_grid = PRIOR_GRID if pv is None else [pv]
    noise_grid = NOISE_GRID if nv is None else [nv]
    best_pv, best_nv, _ = lla_mod.grid_search_hyperparameters(net, x, y, prior_grid, noise_grid)
    edge = (pv is None and best_pv in (PRIOR_GRID[0], PRIOR_GRID[-1])) or (
        nv is None and best_nv in (NOISE_GRID[0], NOISE_GRID[-1])
    )
    search = {"evidence_points": int(x.shape[0]), "evidence_at_grid_edge": bool(edge)}
    return best_pv, best_nv, search


def fit_method(cfg, net, train, val, log_dir=None):
    """Dispatch to the requested posterior; returns (state, info).

    ``info`` records the prior variance the state holds, and for
    regression its noise variance, as read back from the state.
    """
    method = cfg["method"]
    prior_variance, noise_variance, search = _choose_hyperparameters(cfg, net, train)
    ctx = KernelContext(net=net, log_prior_variance=float(np.log(prior_variance)))
    if train.task == "classification":
        likelihood = LikelihoodModel(kind="categorical")
    else:
        likelihood = LikelihoodModel(kind="gaussian", noise_variance=noise_variance)
    info = {"method": method, **search}

    if method == "map":
        state = lla_mod.MapState(ctx=ctx, likelihood=likelihood)
    elif method == "lla_exact":
        try:
            state = lla_mod.fit_exact(ctx, likelihood, train.inputs)
        except CapExceeded as exc:
            raise CapExceeded(f"{exc}; use method = valla for datasets this large") from None
    elif method == "lla_diag":
        state = lla_mod.fit_diag(ctx, likelihood, train.inputs)
    elif method == "lla_last_layer":
        state = lla_mod.fit_last_layer(ctx, likelihood, train.inputs)
    elif method == "ella":
        features = cfg["method.features"]
        state = ella_mod.ella_fit(
            ctx,
            likelihood,
            train.inputs,
            m=cfg["method.anchors"],
            k=None if features == "auto" else features,
            seed=cfg["seed"],
            max_points=cfg["method.max_points"],
        )
        info["features"] = state.feature_dim
    else:
        schedule = valla_mod.TrainSchedule(
            iterations=cfg["method.iterations"],
            batch_size=cfg["method.batch_size"],
            learning_rate=cfg["method.learning_rate"],
            seed=cfg["seed"],
            validate_every=cfg["method.validate_every"],
            patience=cfg["method.patience"],
        )
        log_path = None if log_dir is None else Path(log_dir) / f"fit_log_{method}.csv"
        state = valla_mod.fit_valla(
            ctx,
            likelihood,
            (train.inputs, train.targets),
            (val.inputs, val.targets) if val is not None and val.n else None,
            cfg["method.inducing"],
            schedule,
            alpha=cfg["method.alpha"],
            train_inducing=cfg["method.train_inducing"],
            train_prior_variance=cfg["method.train_prior_variance"],
            train_noise_variance=cfg["method.train_noise_variance"],
            early_stopping=cfg["method.early_stopping"] and val is not None and val.n > 0,
            objective=cfg["method.objective"],
            log_path=log_path,
        )
    info["prior_variance"] = state.ctx.prior_variance
    info["noise_variance"] = state.likelihood.noise_variance if likelihood.kind == "gaussian" else None
    return state, info


def cmd_fit(args):
    cfg, text = load_config(args.config)
    out = _prepare_outdir(cfg, text)
    net = load_network(_existing(args.checkpoint, "checkpoint"))
    train, val, _, normalization = prepare_splits(cfg)
    check_task("checkpoint", net, train)
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


def evaluate_split(state, part, normalization):
    """Metrics of a state on a split, and the curve ``evaluate`` writes with them.

    Regression is scored in the original target units; its curve is
    (alphas, coverage). For classification the curve is the predictive
    entropy of each point.
    """
    pred = state.predict(part.inputs)
    if part.task == "classification":
        probs = metrics_mod.predictive_class_probs(pred.mean, pred.covariance)
        report = metrics_mod.MetricsReport(
            n_points=len(pred),
            nll=metrics_mod.nll_categorical(probs, part.targets),
            ece=metrics_mod.ece(probs, part.targets),
            brier=metrics_mod.brier(probs, part.targets),
            acc=metrics_mod.accuracy(probs, part.targets),
        )
        return report, metrics_mod.predictive_entropy(probs)
    pred = _to_original_units(pred, normalization)
    y = part.targets.ravel()
    if normalization is not None:
        y = y * float(normalization.target_std[0]) + float(normalization.target_mean[0])
    report = metrics_mod.MetricsReport(
        n_points=len(pred),
        nll=metrics_mod.nll_gaussian(pred, y),
        crps=metrics_mod.crps_gaussian(pred, y),
        cqm=metrics_mod.cqm(pred, y),
    )
    return report, metrics_mod.coverage_curve(pred, y)


def _read_scores(path):
    """The scores of an entropy csv written by ``evaluate`` (one header row)."""
    try:
        with warnings.catch_warnings():  # a file with no rows is reported below
            warnings.simplefilter("ignore", UserWarning)
            scores = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1)
    except OSError as exc:
        raise ConfigError(f"cannot read scores {path}: {exc}") from None
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if scores.size == 0:
        raise EmptyFile(f"{path}: no scores below the header")
    if not np.all(np.isfinite(scores)):
        raise NonFiniteValue(f"{path}: scores contain NaN or Inf")
    return scores


def cmd_evaluate(args):
    if args.ood_in is not None or args.ood_out is not None:
        if not (args.ood_in and args.ood_out):
            raise ConfigError("ood mode needs both --ood-in and --ood-out entropy files")
        value = metrics_mod.ood_auc(_read_scores(args.ood_in), _read_scores(args.ood_out))
        print(json.dumps({"ood_auc": value}))
        return 0

    if not args.config or not args.state:
        raise ConfigError("evaluate needs a config and --state (or --ood-in/--ood-out)")
    cfg, text = load_config(args.config)
    out = _prepare_outdir(cfg, text)
    state, normalization = load_state(_existing(args.state, "state file"))
    train, val, test, _ = prepare_splits(cfg)
    part = {"train": train, "validation": val, "test": test}[args.split]
    if part.n == 0:
        raise ConfigError(f"split {args.split!r} is empty")
    check_task("state", state.ctx.net, part, state.likelihood.kind)

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
    if args.resolution < 1:
        raise ConfigError("resolution must be >= 1")
    if not np.all(np.isfinite(args.range)):
        raise ConfigError(f"--range must be two finite numbers, got {args.range[0]!r} {args.range[1]!r}")
    state, normalization = load_state(_existing(args.state, "state file"))
    arch = state.ctx.net.arch
    if arch.input_dim != 1:
        raise ConfigError("predict-grid supports 1-D inputs only")
    if arch.output_dim != 1 or state.likelihood.kind != "gaussian":
        raise DimensionMismatch(
            f"predict-grid needs a regression state with one output; the state has "
            f"{arch.output_dim} output(s) and a {state.likelihood.kind} likelihood"
        )
    grid = np.linspace(*args.range, args.resolution)
    x = grid[:, None]
    if normalization is not None:
        x = (x - normalization.input_mean) / normalization.input_std
    pred = _to_original_units(state.predict(x), normalization)
    var_f = np.maximum(pred.covariance[:, 0, 0], 0.0)
    columns = zip(grid, pred.mean[:, 0], np.sqrt(var_f), np.sqrt(var_f + pred.likelihood.noise_variance))
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
    checkpoint = _existing(args.checkpoint, "checkpoint")
    methods = args.methods.split(",") if args.methods else ["lla_exact", "valla", "ella", "lla_diag", "lla_last_layer"]
    methods = [_read_value("method", m) for m in methods]
    net = load_network(checkpoint)
    train, val, test, normalization = prepare_splits(cfg)
    if test.n == 0:
        raise ConfigError("test split is empty")
    check_task("checkpoint", net, train)

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
        default, (expected, _), help_text = CONFIG_KEYS[key]
        print(f"{key} = {format_value(default)}  # {help_text} [{expected}]")
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
