"""Dataset generation, ingestion, normalization, and splitting."""

import csv
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DimensionMismatch, EmptyFile, FormatError, NonFiniteValue, ParseError
from .linalg import rng_stream

TOY1D_CLUSTER_CENTERS = (-1.0, 1.0)
TOY1D_CLUSTER_HALF_WIDTH = 0.6
TOY1D_NOISE_STD = 0.1

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Normalization:
    """Per-column statistics used to standardize inputs and targets."""

    input_mean: np.ndarray
    input_std: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    targets: np.ndarray
    task: str  # "regression" or "classification"
    n_classes: int = 0
    normalization: Normalization = None

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.targets)
        if x.ndim != 2:
            raise DimensionMismatch(f"inputs must be 2-D, got shape {x.shape}")
        if y.shape[0] != x.shape[0]:
            raise DimensionMismatch("inputs and targets disagree on N")
        if not np.all(np.isfinite(x)):
            raise NonFiniteValue("inputs contain NaN or Inf")
        if self.task == "classification":
            labels = y.astype(int).ravel()
            if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
                raise DimensionMismatch("labels outside [0, n_classes)")
            object.__setattr__(self, "targets", labels)
        else:
            yf = np.asarray(y, dtype=np.float64)
            if yf.ndim == 1:
                yf = yf[:, None]
            if not np.all(np.isfinite(yf)):
                raise NonFiniteValue("targets contain NaN or Inf")
            object.__setattr__(self, "targets", yf)
        object.__setattr__(self, "inputs", x)

    @property
    def n(self):
        return self.inputs.shape[0]


@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple  # (train, validation, test), summing to 1
    shuffle_seed: object = 0  # integer seed, or "sequential" for in-order splits

    def __post_init__(self):
        fr = tuple(float(f) for f in self.fractions)
        if len(fr) != 3 or any(f < 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
            raise ConfigError(f"fractions must be 3 nonnegative values summing to 1, got {fr}")
        object.__setattr__(self, "fractions", fr)


def toy1d_mean(x):
    """Noise-free target of the synthetic 1-D problem: 0.5*x + sin(2*x)."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x + np.sin(2.0 * x)


def synth_toy1d(n, seed=0):
    """Two input clusters around +-1.0 with a central gap.

    Inputs are uniform on [c - 0.6, c + 0.6] for cluster centers c in
    {-1.0, +1.0} (half the points each, remainder to the right cluster);
    targets are ``toy1d_mean(x)`` plus Gaussian noise of std 0.1. The
    generator is the repository's canonical regression fixture, so the
    noise floor 0.1 is a known constant for training tests.
    """
    n = int(n)
    if n < 0:
        raise DimensionMismatch(f"need n >= 0 points, got {n}")
    rng = rng_stream(seed)
    n_left = n // 2
    lo0, hi0 = TOY1D_CLUSTER_CENTERS[0] - TOY1D_CLUSTER_HALF_WIDTH, TOY1D_CLUSTER_CENTERS[0] + TOY1D_CLUSTER_HALF_WIDTH
    lo1, hi1 = TOY1D_CLUSTER_CENTERS[1] - TOY1D_CLUSTER_HALF_WIDTH, TOY1D_CLUSTER_CENTERS[1] + TOY1D_CLUSTER_HALF_WIDTH
    x = np.concatenate([rng.uniform(lo0, hi0, size=n_left), rng.uniform(lo1, hi1, size=n - n_left)])
    y = toy1d_mean(x) + TOY1D_NOISE_STD * rng.normal(size=n)
    return Dataset(inputs=x[:, None], targets=y[:, None], task="regression")


def load_csv_regression(path, target_column):
    """Load a numeric CSV (RFC-4180 subset, '.' decimal, optional header).

    The header row is skipped when any of its cells fails to parse as a
    number. Any later row with an unparseable cell raises ParseError with
    its location.
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        raw = [r for r in reader if r]
    if not raw:
        raise EmptyFile(f"{path} contains no rows")

    def parse_row(cells, row_idx):
        out = []
        for col_idx, cell in enumerate(cells):
            try:
                out.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"unparseable value {cell!r} at row {row_idx}, column {col_idx}",
                    row=row_idx,
                    col=col_idx,
                ) from None
        return out

    start = 0
    try:
        rows.append(parse_row(raw[0], 0))
        start = 1
    except ParseError:
        start = 1  # treat first row as header
    for i in range(start, len(raw)):
        rows.append(parse_row(raw[i], i))
    if not rows:
        raise EmptyFile(f"{path} contains a header but no data rows")

    width = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != width:
            raise ParseError(f"row {i} has {len(r)} cells, expected {width}", row=i)
    data = np.asarray(rows, dtype=np.float64)
    target_column = int(target_column)
    if not (0 <= target_column < width):
        raise ConfigError(f"target_column {target_column} out of range for {width} columns")
    y = data[:, target_column]
    x = np.delete(data, target_column, axis=1)
    return Dataset(inputs=x, targets=y[:, None], task="regression")


def _read_idx_header(blob, expect_magic, path):
    if len(blob) < 4:
        raise FormatError(f"{path}: file too short for an IDX header")
    (magic,) = struct.unpack_from(">I", blob, 0)
    if magic != expect_magic:
        raise FormatError(f"{path}: magic 0x{magic:08x}, expected 0x{expect_magic:08x}")
    ndim = magic & 0xFF
    dims = []
    off = 4
    for _ in range(ndim):
        if off + 4 > len(blob):
            raise FormatError(f"{path}: truncated dimension header")
        (d,) = struct.unpack_from(">I", blob, off)
        dims.append(d)
        off += 4
    return dims, off


def load_idx_images(images_path, labels_path, limit=None):
    """Parse the big-endian IDX image/label pair into a classification set.

    Images are flattened to D = rows * cols and scaled to [0, 1]. A
    ``limit`` keeps the first min(limit, count) records; a negative one
    raises DimensionMismatch.
    """
    if limit is not None and int(limit) < 0:
        raise DimensionMismatch(f"limit must be >= 0, got {limit}")
    with open(images_path, "rb") as fh:
        img_blob = fh.read()
    with open(labels_path, "rb") as fh:
        lbl_blob = fh.read()

    img_dims, img_off = _read_idx_header(img_blob, IDX_IMAGES_MAGIC, images_path)
    lbl_dims, lbl_off = _read_idx_header(lbl_blob, IDX_LABELS_MAGIC, labels_path)
    n_img, rows, cols = img_dims
    (n_lbl,) = lbl_dims
    if n_img != n_lbl:
        raise FormatError(f"image count {n_img} != label count {n_lbl}")
    expected = img_off + n_img * rows * cols
    if len(img_blob) < expected:
        raise FormatError(f"{images_path}: truncated pixel data")
    if len(lbl_blob) < lbl_off + n_lbl:
        raise FormatError(f"{labels_path}: truncated label data")

    n_keep = n_img if limit is None else min(int(limit), n_img)
    pixels = np.frombuffer(img_blob, dtype=np.uint8, count=n_keep * rows * cols, offset=img_off)
    labels = np.frombuffer(lbl_blob, dtype=np.uint8, count=n_keep, offset=lbl_off)
    x = pixels.reshape(n_keep, rows * cols).astype(np.float64) / 255.0
    n_classes = int(labels.max()) + 1 if n_keep else 0
    return Dataset(inputs=x, targets=labels.astype(int), task="classification", n_classes=n_classes)


def standardize(ds, stats=None):
    """Zero-mean unit-variance columns; stats from ``ds`` unless supplied.

    When ``stats`` is given (taken from the training split) it is applied
    unchanged, so validation and test data share the training statistics.
    Zero-variance columns keep std 1 and emit a warning.
    """
    x = ds.inputs
    if stats is None:
        x_mean = x.mean(axis=0) if ds.n else np.zeros(x.shape[1])
        x_std = x.std(axis=0) if ds.n else np.ones(x.shape[1])
        degenerate = x_std <= 0.0
        if np.any(degenerate):
            warnings.warn(f"{int(degenerate.sum())} constant input column(s); std forced to 1")
            x_std = np.where(degenerate, 1.0, x_std)
        if ds.task == "regression":
            t_mean = ds.targets.mean(axis=0)
            t_std = ds.targets.std(axis=0)
            bad = t_std <= 0.0
            if np.any(bad):
                warnings.warn("constant target column; std forced to 1")
                t_std = np.where(bad, 1.0, t_std)
        else:
            t_mean = np.zeros(1)
            t_std = np.ones(1)
        stats = Normalization(input_mean=x_mean, input_std=x_std, target_mean=t_mean, target_std=t_std)

    new_x = (x - stats.input_mean) / stats.input_std
    if ds.task == "regression":
        new_y = (ds.targets - stats.target_mean) / stats.target_std
    else:
        new_y = ds.targets
    return replace(ds, inputs=new_x, targets=new_y, normalization=stats)


def split(ds, spec):
    """Partition into (train, validation, test); remainder goes to train.

    ``shuffle_seed="sequential"`` keeps the file order, so the first
    train fraction is the earliest data; an integer seed shuffles first.
    """
    n = ds.n
    n_val = int(np.floor(spec.fractions[1] * n))
    n_test = int(np.floor(spec.fractions[2] * n))
    n_train = n - n_val - n_test
    if spec.shuffle_seed == "sequential":
        order = np.arange(n)
    else:
        order = rng_stream(int(spec.shuffle_seed)).permutation(n)

    def take(idx):
        return replace(ds, inputs=ds.inputs[idx], targets=ds.targets[idx])

    return (
        take(order[:n_train]),
        take(order[n_train : n_train + n_val]),
        take(order[n_train + n_val :]),
    )
