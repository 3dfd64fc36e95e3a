import numpy as np
import pytest

from lagp.data import (
    Dataset,
    SplitSpec,
    load_csv_regression,
    load_idx_images,
    split,
    standardize,
    synth_toy1d,
    toy1d_mean,
)
from lagp.errors import ConfigError, DimensionMismatch, EmptyFile, FormatError, ParseError


class TestToy1d:
    def test_empty(self):
        ds = synth_toy1d(0, seed=0)
        assert ds.n == 0 and ds.inputs.shape == (0, 1)

    def test_inputs_in_cluster_intervals(self):
        ds = synth_toy1d(500, seed=1)
        x = ds.inputs.ravel()
        in_left = (x >= -1.6) & (x <= -0.4)
        in_right = (x >= 0.4) & (x <= 1.6)
        assert np.all(in_left | in_right)
        assert in_left.sum() == 250

    def test_noise_floor_matches_generator(self):
        ds = synth_toy1d(10_000, seed=2)
        resid = ds.targets.ravel() - toy1d_mean(ds.inputs.ravel())
        assert abs(resid.std() - 0.1) <= 0.02

    def test_deterministic(self):
        a = synth_toy1d(50, seed=3)
        b = synth_toy1d(50, seed=3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)


class TestCsv:
    def test_exact_values(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.5,-1.5,0.25\n")
        ds = load_csv_regression(path, target_column=2)
        assert np.array_equal(ds.inputs, [[1.0, 2.0], [4.0, 5.0], [7.5, -1.5]])
        assert np.array_equal(ds.targets, [[3.0], [6.0], [0.25]])

    def test_headerless(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n")
        ds = load_csv_regression(path, target_column=0)
        assert np.array_equal(ds.targets.ravel(), [1.0, 3.0])

    def test_parse_error_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError) as err:
            load_csv_regression(path, target_column=0)
        assert err.value.row == 1 and err.value.col == 1

    def test_target_out_of_range(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ConfigError):
            load_csv_regression(path, target_column=5)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            load_csv_regression(path, target_column=0)


def write_idx_fixture(tmp_path, n=2, rows=2, cols=3, labels=(1, 0), pixel_base=10):
    import struct

    images = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(bytes(range(pixel_base, pixel_base + n * rows * cols)))
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(bytes(labels))
    return images, labels_path


class TestIdx:
    def test_exact_pixels_and_labels(self, tmp_path):
        images, labels = write_idx_fixture(tmp_path)
        ds = load_idx_images(images, labels)
        assert ds.inputs.shape == (2, 6)
        expected_first = np.arange(10, 16) / 255.0
        assert np.allclose(ds.inputs[0], expected_first, atol=1e-15)
        assert np.array_equal(ds.targets, [1, 0])
        assert ds.task == "classification"

    def test_count_mismatch(self, tmp_path):
        images, labels = write_idx_fixture(tmp_path, labels=(1, 0, 1))
        with pytest.raises(FormatError):
            load_idx_images(images, labels)

    def test_limit(self, tmp_path):
        images, labels = write_idx_fixture(tmp_path)
        ds = load_idx_images(images, labels, limit=1)
        assert ds.n == 1
        assert np.array_equal(ds.targets, [1])

    @pytest.mark.parametrize("limit", [-1, -3])
    def test_negative_limit_rejected(self, tmp_path, limit):
        # a negative count would read every record
        images, labels = write_idx_fixture(tmp_path)
        with pytest.raises(DimensionMismatch, match="limit"):
            load_idx_images(images, labels, limit=limit)

    def test_bad_magic(self, tmp_path):
        images, labels = write_idx_fixture(tmp_path)
        blob = images.read_bytes()
        images.write_bytes(b"\x00\x00\x09\x03" + blob[4:])
        with pytest.raises(FormatError):
            load_idx_images(images, labels)


class TestStandardize:
    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ds = Dataset(inputs=rng.normal(2, 3, size=(40, 2)), targets=rng.normal(size=(40, 1)), task="regression")
        once = standardize(ds)
        twice = standardize(Dataset(inputs=once.inputs, targets=once.targets, task="regression"))
        assert np.max(np.abs(twice.inputs - once.inputs)) <= 1e-12
        assert np.max(np.abs(twice.targets - once.targets)) <= 1e-12

    def test_constant_column_warns(self):
        ds = Dataset(inputs=np.column_stack([np.ones(10), np.arange(10.0)]), targets=np.arange(10.0), task="regression")
        with pytest.warns(UserWarning):
            out = standardize(ds)
        assert np.array_equal(out.inputs[:, 0], ds.inputs[:, 0] - 1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        ds = Dataset(inputs=rng.normal(5, 2, size=(30, 3)), targets=rng.normal(-1, 4, size=(30, 1)), task="regression")
        out = standardize(ds)
        stats = out.normalization
        inputs = out.inputs * stats.input_std + stats.input_mean
        targets = out.targets * stats.target_std + stats.target_mean
        assert np.max(np.abs(inputs - ds.inputs)) <= 1e-10
        assert np.max(np.abs(targets - ds.targets)) <= 1e-10

    def test_shared_statistics(self):
        rng = np.random.default_rng(2)
        train = Dataset(inputs=rng.normal(size=(20, 2)), targets=rng.normal(size=(20, 1)), task="regression")
        test = Dataset(inputs=rng.normal(size=(5, 2)), targets=rng.normal(size=(5, 1)), task="regression")
        train_std = standardize(train)
        test_std = standardize(test, stats=train_std.normalization)
        manual = (test.inputs - train_std.normalization.input_mean) / train_std.normalization.input_std
        assert np.array_equal(test_std.inputs, manual)


class TestSplit:
    def test_sequential_sizes(self):
        ds = Dataset(inputs=np.arange(10.0)[:, None], targets=np.arange(10.0), task="regression")
        tr, va, te = split(ds, SplitSpec(fractions=(0.8, 0.1, 0.1), shuffle_seed="sequential"))
        assert (tr.n, va.n, te.n) == (8, 1, 1)
        assert np.array_equal(tr.inputs.ravel(), np.arange(8.0))
        assert va.inputs[0, 0] == 8.0 and te.inputs[0, 0] == 9.0

    def test_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(3)
        ds = Dataset(inputs=rng.normal(size=(23, 2)), targets=rng.normal(size=(23, 1)), task="regression")
        tr, va, te = split(ds, SplitSpec(fractions=(0.6, 0.2, 0.2), shuffle_seed=5))
        rows = np.vstack([tr.inputs, va.inputs, te.inputs])
        assert rows.shape[0] == 23
        assert np.array_equal(np.sort(rows, axis=0), np.sort(ds.inputs, axis=0))

    def test_remainder_goes_to_train(self):
        ds = Dataset(inputs=np.arange(7.0)[:, None], targets=np.arange(7.0), task="regression")
        tr, va, te = split(ds, SplitSpec(fractions=(1 / 3, 1 / 3, 1 / 3), shuffle_seed="sequential"))
        assert (tr.n, va.n, te.n) == (3, 2, 2)

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            SplitSpec(fractions=(0.5, 0.2, 0.2))
