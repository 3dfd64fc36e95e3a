"""The three workloads: inputs made from the seed, set-up, and one round.

A round is a fixed list of CLI commands run one after another in process
(closed loop, one client). Every round of a workload runs the same
commands on the same files, so its outputs repeat bit for bit.
"""

import contextlib
import io
import struct
import sys
import time
import traceback
from pathlib import Path

import numpy as np

# CLI method name -> suffix of the fit_*_s and predict_*_pts_per_s metrics
METHODS = {
    "valla": "valla",
    "lla_exact": "exact",
    "ella": "ella",
    "lla_diag": "diag",
    "lla_last_layer": "last_layer",
}

TOY1D = {
    "dataset.n": 1600,
    # train 400 (the evidence search uses at most 500), validation 100, test 1100
    "split.fractions": "0.25,0.0625,0.6875",
    "arch.hidden": "50,50",
    "train.iterations": 2000,
    "train.batch_size": 100,
    "train.learning_rate": 0.003,
    "method.inducing": 20,
    "method.iterations": 250,
    "method.batch_size": 100,
    "method.learning_rate": 0.01,
    "method.validate_every": 50,
    "method.early_stopping": "false",
    "method.anchors": 20,
}
GRID_RESOLUTION = 400

CLS10 = {
    "arch.hidden": "50,50",
    "train.iterations": 1000,
    "train.batch_size": 100,
    "train.learning_rate": 0.001,
    "method.inducing": 10,
    "method.iterations": 5,
    "method.batch_size": 50,
    "method.learning_rate": 0.01,
    "method.validate_every": 5,
    "method.early_stopping": "false",
    "method.anchors": 20,
}
CLS10_DIM = (4, 5)  # D = 20 pixels per IDX image
CLS10_CLASSES = 10
CLS10_RADIUS = 2.5  # class centers: orthonormal directions scaled to this length
CLS10_NOISE = 1.2  # isotropic noise std around each center
CLS10_PIXEL_RANGE = 8.0  # inputs in [-8, 8] map linearly onto pixels 0..255
# n, and fractions (train, validation, test) with exact binary values:
# lla_exact needs N_train * C <= 3000
CLS10_FIT_SPLIT = (400, "0.5,0.125,0.375")  # train 200, validation 50, test 150
CLS10_SERVE_SPLIT = (800, "0.125,0.0625,0.8125")  # train 100, validation 50, test 650

SETUP_REPEATS = 3


class Cli:
    """Runs ``lagp.cli.main`` in process and counts the commands."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.tracer = None  # when set, each command is a span named bench.<command>

    def __call__(self, *argv, repeats=1):
        """Wall seconds of ``repeats`` back-to-back runs of one command, or
        None if any of them failed."""
        argv = [str(a) for a in argv]
        total = 0.0
        ok = True
        for _ in range(repeats):
            self.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            code = None
            span = self.tracer.span(f"bench.{argv[0]}") if self.tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                start = time.perf_counter()
                try:
                    code = self.main(argv)
                except Exception:  # a traceback is a failed command, not a crashed benchmark
                    traceback.print_exc(file=err)
                total += time.perf_counter() - start
            if code != 0:
                self.failed += 1
                ok = False
                print(f"command failed ({code}): lagp {' '.join(argv)}\n{err.getvalue()}", file=sys.stderr)
        return total if ok else None


def write_config(path, keys):
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")


def cls10_inputs(seed, n):
    """(pixels uint8 (n, 4, 5), labels uint8 (n,)) of the synthetic 10-class task.

    Class centers are CLS10_RADIUS times ten orthonormal directions in
    R^20, so every pair of classes is equally far apart whatever the seed;
    points add N(0, CLS10_NOISE^2) noise per coordinate. Labels cycle
    through the classes before a shuffle, so every class is present.
    """
    rng = np.random.Generator(np.random.PCG64([seed, 2302]))
    dim = CLS10_DIM[0] * CLS10_DIM[1]
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    centers = CLS10_RADIUS * q[:CLS10_CLASSES]
    labels = rng.permutation(np.arange(n) % CLS10_CLASSES)
    x = centers[labels] + CLS10_NOISE * rng.normal(size=(n, dim))
    scaled = (x + CLS10_PIXEL_RANGE) / (2 * CLS10_PIXEL_RANGE) * 255.0
    pixels = np.clip(np.rint(scaled), 0, 255).astype(np.uint8)
    return pixels.reshape(n, *CLS10_DIM), labels.astype(np.uint8)


def write_idx(images_path, labels_path, pixels, labels):
    """Big-endian IDX pair: magic 0x803 + (n, rows, cols) and 0x801 + (n,)."""
    n, rows, cols = pixels.shape
    images_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())


class Workload:
    """Configs per method, and the train, fit and evaluate steps of a round.

    ``fit_repeats`` and ``predict_repeats`` say how often a command runs
    back to back for one sample (default once). A sample is the mean over
    those runs, so that no sample is shorter than about a quarter second
    on a 2-core Xeon: shorter commands read mostly scheduler noise.
    """

    name = None
    split_n = None  # points in the evaluated split
    fit_repeats = {}
    predict_repeats = {}

    def __init__(self, work, seed):
        self.work = Path(work)
        self.seed = seed

    def dirs(self, method):
        return self.work / method

    def config(self, method):
        return self.work / f"{method}.cfg"

    def state(self, method):
        return self.dirs(method) / f"state_{method}.bin"

    def metrics_file(self, method):
        return self.dirs(method) / "metrics_test.json"

    def grid(self, method):
        """predict-grid output of a state, or None where there is no grid."""
        return None

    @property
    def checkpoint(self):
        return self.work / "map" / "checkpoint.bin"

    def write_configs(self, keys):
        self.work.mkdir(parents=True, exist_ok=True)
        for method in ("map", *METHODS):
            cfg = dict(keys, seed=self.seed, output_dir=self.dirs(method))
            cfg["method"] = "valla" if method == "map" else method
            write_config(self.config(method), cfg)

    def train_and_fit(self, cli, samples):
        _record(samples, "train_map_s", cli("train-map", self.config("map")))
        for method, short in METHODS.items():
            repeats = self.fit_repeats.get(short, 1)
            elapsed = cli("fit", self.config(method), "--checkpoint", self.checkpoint, repeats=repeats)
            _record(samples, f"fit_{short}_s", elapsed and elapsed / repeats)

    def evaluate_all(self, cli, samples):
        for method, short in METHODS.items():
            repeats = self.predict_repeats.get(short, 1)
            elapsed = cli("evaluate", self.config(method), "--state", self.state(method), repeats=repeats)
            points = self.split_n
            if elapsed and self.grid(method):
                grid = cli("predict-grid", "--state", self.state(method), "--resolution", GRID_RESOLUTION,
                           "--output", self.grid(method), repeats=repeats)
                elapsed = grid and elapsed + grid
                points += GRID_RESOLUTION
            _record(samples, f"predict_{short}_pts_per_s", elapsed and repeats * points / elapsed)

    def round_outputs(self):
        """Every file a round writes except the wall-clock timings."""
        return [p for m in ("map", *METHODS) for p in sorted(self.dirs(m).glob("*")) if p.name != "timing.json"]


def _record(samples, key, value):
    if value:
        samples.setdefault(key, []).append(value)


def warm_up(cli, work, keys):
    """A small pass of every command: loads and first-calls every code path.

    Sized to take about half a second, mostly numeric work, so that
    ``setup_s`` is not dominated by interpreter and file-system jitter.
    """
    small = Workload(work, 0)
    small.write_configs(keys)
    small.train_and_fit(cli, {})
    for method in METHODS:
        cli("evaluate", small.config(method), "--state", small.state(method))


class Toy1dRegression(Workload):
    name = "toy1d-regression"
    split_n = 1100
    predict_repeats = {"valla": 5, "exact": 2, "ella": 3, "diag": 2, "last_layer": 2}

    def keys(self):
        return dict(TOY1D, **{"dataset.kind": "toy1d", "dataset.seed": self.seed, "split.shuffle": self.seed})

    def grid(self, method):
        return self.dirs(method) / "grid.csv"

    def setup(self, cli, samples):
        self.write_configs(self.keys())
        warm_up(cli, self.work / "warmup", dict(TOY1D, **{
            "dataset.kind": "toy1d", "dataset.n": 200, "dataset.seed": 0, "split.fractions": "0.8,0.1,0.1",
            "train.iterations": 300, "method.inducing": 10, "method.iterations": 20,
            "method.batch_size": 50, "method.validate_every": 10, "method.anchors": 10}))

    def round(self, cli, samples):
        self.train_and_fit(cli, samples)
        self.evaluate_all(cli, samples)


class Cls10(Workload):
    split = None  # (n, "train,validation,test" fractions)

    def keys(self):
        return dict(CLS10, **{
            "dataset.kind": "idx",
            "dataset.images": self.work / "images.idx",
            "dataset.labels": self.work / "labels.idx",
            "split.fractions": self.split[1],
            "split.shuffle": self.seed,
        })

    def write_inputs(self):
        self.work.mkdir(parents=True, exist_ok=True)
        pixels, labels = cls10_inputs(self.seed, self.split[0])
        write_idx(self.work / "images.idx", self.work / "labels.idx", pixels, labels)
        self.write_configs(self.keys())


class Cls10Fit(Cls10):
    name = "cls10-fit"
    split = CLS10_FIT_SPLIT
    split_n = 150
    fit_repeats = {"diag": 2, "last_layer": 8}
    predict_repeats = {"valla": 8, "ella": 4, "diag": 6, "last_layer": 2}

    def setup(self, cli, samples):
        self.write_inputs()
        work = self.work / "warmup"
        work.mkdir()
        pixels, labels = cls10_inputs(0, 100)
        write_idx(work / "images.idx", work / "labels.idx", pixels, labels)
        warm_up(cli, work, dict(CLS10, **{
            "dataset.kind": "idx", "dataset.images": work / "images.idx", "dataset.labels": work / "labels.idx",
            "split.fractions": "0.5,0.25,0.25", "train.iterations": 200, "method.inducing": 4,
            "method.iterations": 2, "method.batch_size": 20, "method.validate_every": 2, "method.anchors": 5}))

    def round(self, cli, samples):
        self.train_and_fit(cli, samples)
        self.evaluate_all(cli, samples)


class Cls10Serve(Cls10):
    name = "cls10-serve"
    split = CLS10_SERVE_SPLIT
    split_n = 650
    fit_repeats = {"exact": 2, "diag": 3, "last_layer": 10}
    predict_repeats = {"valla": 2}

    def setup(self, cli, samples):
        self.write_inputs()
        self.train_and_fit(cli, samples)

    def round(self, cli, samples):
        self.evaluate_all(cli, samples)


WORKLOADS = {w.name: w for w in (Toy1dRegression, Cls10Fit, Cls10Serve)}
