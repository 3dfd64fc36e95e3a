import struct
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings, strategies as st

from lagp.data import Normalization
from lagp.errors import FormatError, LagpError, VersionMismatch
from lagp.linalg import cholesky, rng_stream
from lagp.lla import (
    LikelihoodModel,
    LlaExactState,
    MapState,
    fit_diag,
    fit_exact,
    fit_last_layer,
    softmax,
)
from lagp.nn import forward
from lagp.ella import ella_fit
from lagp.serialize import MAGIC, STATE_KINDS, VERSION, load_state, read_container, save_state, write_container

from test_kernel import gram_matrix, random_ctx
from test_valla import make_state


class TestContainer:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.bin"
        arrays = {"a": np.arange(6.0).reshape(2, 3), "scalar": np.array(3.5)}
        write_container(path, "demo", {"x": 1, "s": "t"}, arrays)
        kind, meta, loaded = read_container(path)
        assert kind == "demo" and meta == {"x": 1, "s": "t"}
        assert np.array_equal(loaded["a"], arrays["a"])
        assert loaded["scalar"] == 3.5

    def test_array_bytes_follow_the_layout(self, tmp_path):
        # each array is written row-major as little-endian float64, whatever its order, stride or dtype
        base = np.arange(24.0).reshape(2, 3, 4) - 7.5
        arrays = {
            "c": base,
            "fortran": np.asfortranarray(base[0]),
            "strided": base[:, ::2, 1:],
            "int": np.arange(5),
            "big-endian": base[1].astype(">f8"),
            "empty": np.zeros((0, 3)),
        }
        path = tmp_path / "c.bin"
        write_container(path, "demo", {}, arrays)
        expected = MAGIC + struct.pack("<IH", VERSION, 4) + b"demo" + struct.pack("<I", 2) + b"{}"
        expected += struct.pack("<I", len(arrays))
        for name, arr in arrays.items():
            expected += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", arr.ndim)
            expected += b"".join(struct.pack("<Q", dim) for dim in arr.shape)
            expected += b"".join(struct.pack("<d", float(v)) for v in arr.ravel())
        assert path.read_bytes() == expected

    def test_large_array_written_without_a_copy(self, tmp_path):
        arr = np.ones((500, 500))  # 2 MB
        tracemalloc.start()
        try:
            write_container(tmp_path / "c.bin", "demo", {}, {"a": arr})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arr.nbytes // 8
        assert np.array_equal(read_container(tmp_path / "c.bin")[2]["a"], arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_container(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, "demo", {}, {"a": np.ones((4, 4))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(FormatError):
            read_container(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, "demo", {}, {})
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            read_container(path)

    @pytest.mark.parametrize(
        "meta_bytes", [b'{"x": 1', b"[1, 2]", b'{"s": "\xff"}'], ids=["bad-json", "not-an-object", "bad-utf8"]
    )
    def test_malformed_meta(self, tmp_path, meta_bytes):
        path = tmp_path / "c.bin"
        header = MAGIC + struct.pack("<I", VERSION) + struct.pack("<H", 4) + b"demo"
        path.write_bytes(header + struct.pack("<I", len(meta_bytes)) + meta_bytes + struct.pack("<I", 0))
        with pytest.raises(FormatError, match="meta"):
            read_container(path)

    def test_impossible_empty_shape(self, tmp_path):
        # an empty array whose other dimension no array can have
        path = tmp_path / "c.bin"
        header = MAGIC + struct.pack("<I", VERSION) + struct.pack("<H", 4) + b"demo" + struct.pack("<I", 2) + b"{}"
        array = struct.pack("<I", 1) + struct.pack("<H", 1) + b"a" + struct.pack("<BQQ", 2, 0, 2**62)
        path.write_bytes(header + array)
        with pytest.raises(FormatError, match="shape"):
            read_container(path)

    def test_kind_longer_than_file(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<H", 500) + b"demo")
        with pytest.raises(FormatError, match="kind"):
            read_container(path)


STATE_NAMES = ("map", "lla-exact", "lla-exact-empty", "lla-diag", "lla-last-layer", "valla", "ella")
NORMALIZATION_FIELDS = ("input_mean", "input_std", "target_mean", "target_std")


@lru_cache(maxsize=None)
def fitted_states(d, kind):
    """{name: (state, normalization)}: every state kind on one small network.

    Input width d; one output for the gaussian likelihood, two classes for
    the categorical one. The N = 0 exact state has no Cholesky factor, and
    the VaLLA state carries input and target normalization statistics.
    """
    rng = rng_stream(10 + d)
    ctx = random_ctx(rng, d, [4], 1 if kind == "gaussian" else 2, log_prior_variance=-0.2)
    lik = LikelihoodModel(kind=kind, noise_variance=0.2)
    x = rng.normal(size=(6, d))
    norm = Normalization(
        input_mean=np.linspace(-0.5, 0.5, d),
        input_std=np.linspace(1.5, 2.0, d),
        target_mean=np.array([1.0]),
        target_std=np.array([3.0]),
    )
    states = {
        "map": MapState(ctx=ctx, likelihood=lik),
        "lla-exact": fit_exact(ctx, lik, x),
        "lla-exact-empty": fit_exact(ctx, lik, np.zeros((0, d))),
        "lla-diag": fit_diag(ctx.with_log_prior_variance(np.log(0.7)), lik, x),
        "lla-last-layer": fit_last_layer(ctx.with_log_prior_variance(np.log(0.7)), lik, x),
        "valla": make_state(rng, ctx, m=3, kind=kind, alpha=0.5),
        "ella": ella_fit(ctx, lik, x, m=5, k=3, seed=0),
    }
    return {name: (state, norm if name == "valla" else None) for name, state in states.items()}


class TestStateRoundtrips:
    @pytest.mark.parametrize("kind", ["gaussian", "categorical"])
    @pytest.mark.parametrize("name", STATE_NAMES)
    def test_save_load_save(self, tmp_path, name, kind):
        state, norm = fitted_states(2, kind)[name]
        save_state(tmp_path / "a.bin", state, normalization=norm)
        loaded, got_norm = load_state(tmp_path / "a.bin")
        save_state(tmp_path / "b.bin", loaded, normalization=got_norm)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert type(loaded) is type(state)
        assert loaded.ctx.log_prior_variance == state.ctx.log_prior_variance
        assert loaded.likelihood == state.likelihood
        if norm is None:
            assert got_norm is None
        else:
            for field in NORMALIZATION_FIELDS:
                assert np.array_equal(getattr(got_norm, field), getattr(norm, field))
        if name == "lla-exact-empty":
            assert loaded.q_factor is None
        if name == "valla":
            assert loaded.alpha == state.alpha
        probe = rng_stream(99).normal(size=(5, 2))
        got, expected = loaded.predict(probe), state.predict(probe)
        assert got.likelihood == expected.likelihood
        assert np.array_equal(got.mean, expected.mean)
        assert np.array_equal(got.covariance, expected.covariance)

    def test_symmetric_root_state_predicts_like_fit_exact(self, tmp_path):
        # older exact states hold the symmetric eigh root of each curvature block
        rng = rng_stream(31)
        ctx = random_ctx(rng, 2, [4], 3, log_prior_variance=-0.2)
        lik = LikelihoodModel(kind="categorical")
        x = rng.normal(size=(6, 2))
        roots = []
        for p in softmax(forward(ctx.net, x).output):
            vals, vecs = np.linalg.eigh(np.diag(p) - np.outer(p, p))
            roots.append((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T)
        r = scipy.linalg.block_diag(*roots)
        gram = gram_matrix(ctx, x, x)
        q = np.eye(18) + r @ (0.5 * (gram + gram.T)) @ r
        old = LlaExactState(
            ctx=ctx,
            likelihood=lik,
            train_inputs=x,
            sqrt_lambda=np.array(roots),
            q_factor=cholesky(0.5 * (q + q.T)),
        )
        save_state(tmp_path / "old.bin", old)
        loaded, _ = load_state(tmp_path / "old.bin")
        probe = rng_stream(98).normal(size=(5, 2))
        got, expected = loaded.predict(probe), fit_exact(ctx, lik, x).predict(probe)
        assert np.array_equal(got.mean, expected.mean)
        assert np.max(np.abs(got.covariance - expected.covariance)) <= 1e-12

    def test_older_valla_file_loads_its_fitted_noise(self, tmp_path):
        # older VaLLA files kept the pre-fit noise in the likelihood record
        # and the fitted noise under the meta key log_noise_variance
        state, _ = fitted_states(2, "gaussian")["valla"]
        save_state(tmp_path / "new.bin", state)
        kind, meta, arrays = read_container(tmp_path / "new.bin")
        fitted_lnv = float(np.log(0.05))
        meta["log_noise_variance"] = fitted_lnv
        meta["likelihood"] = {"kind": "gaussian", "noise_variance": 0.9}
        write_container(tmp_path / "old.bin", kind, meta, arrays)
        loaded, _ = load_state(tmp_path / "old.bin")
        assert loaded.likelihood.noise_variance == float(np.exp(fitted_lnv))
        probe = rng_stream(97).normal(size=(5, 2))
        got, expected = loaded.predict(probe), state.predict(probe)
        assert np.array_equal(got.covariance, expected.covariance)
        assert np.array_equal(got.y_variance, np.diagonal(expected.covariance, axis1=1, axis2=2) + np.exp(fitted_lnv))

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(STATE_NAMES),
        st.sampled_from(["gaussian", "categorical"]),
        st.booleans(),
        st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)), min_size=1, max_size=3),
    )
    def test_corrupt_file_loads_or_raises_lagp_error(self, tmp_path, name, kind, truncate, edits):
        # each example overwrites the same file
        state, norm = fitted_states(2, kind)[name]
        save_state(tmp_path / "s.bin", state, normalization=norm)
        blob = bytearray((tmp_path / "s.bin").read_bytes())
        if truncate:
            blob = blob[: int(edits[0][0] * len(blob))]
        else:
            for where, value in edits:
                blob[int(where * len(blob))] = value
        (tmp_path / "s.bin").write_bytes(bytes(blob))
        # a state that loads must also predict, or fail as a LagpError
        try:
            loaded, _ = load_state(tmp_path / "s.bin")
            loaded.predict(rng_stream(95).normal(size=(3, 2)))
        except LagpError:
            pass

    def test_unknown_kind_rejected(self, tmp_path):
        write_container(tmp_path / "s.bin", "bogus", {}, {})
        with pytest.raises(FormatError):
            load_state(tmp_path / "s.bin")

    def test_weight_space_file_rejected_by_kind(self, tmp_path):
        # the dense weight-space kind is retired; its files name it in the error
        state, _ = fitted_states(2, "gaussian")["lla-diag"]
        save_state(tmp_path / "diag.bin", state)
        _, meta, arrays = read_container(tmp_path / "diag.bin")
        p = state.ctx.net.param_count
        arrays.update(precision=np.eye(p), covariance_factor=np.eye(p))
        write_container(tmp_path / "weight.bin", "lla-weight", meta, arrays)
        with pytest.raises(FormatError, match="unknown state kind 'lla-weight'"):
            load_state(tmp_path / "weight.bin")


def with_arrays_changed(tmp_path, state, change, normalization=None):
    """Path of a copy of ``state``'s file whose arrays went through ``change`` (edits the dict in place)."""
    save_state(tmp_path / "ok.bin", state, normalization=normalization)
    kind, meta, arrays = read_container(tmp_path / "ok.bin")
    change(arrays)
    write_container(tmp_path / "bad.bin", kind, meta, arrays)
    return tmp_path / "bad.bin"


def _set(name, edit):
    def change(arrays):
        arrays[name] = edit(arrays[name])

    return change


def _with_entry(value):
    def edit(d):
        d = d.copy()
        d[1] = value
        return d

    return edit


BAD_DIAGONALS = {
    "one-short": _set("precision_diag", lambda d: d[:-1]),
    "one-long": _set("precision_diag", lambda d: np.append(d, 1.0)),
    "row-matrix": _set("precision_diag", lambda d: d[None, :]),
    "negated": _set("precision_diag", lambda d: -d),
    "zero-entry": _set("precision_diag", _with_entry(0.0)),
    "nan-entry": _set("precision_diag", _with_entry(np.nan)),
    "inf-entry": _set("precision_diag", _with_entry(np.inf)),
}
BAD_LAST_LAYER_FACTORS = {
    "one-short": _set("precision_factor", lambda f: f[:-1, :-1]),
    "one-long": _set("precision_factor", lambda f: np.eye(f.shape[0] + 1)),
    "not-square": _set("precision_factor", lambda f: f[:, :-1]),
    "missing": lambda arrays: arrays.pop("precision_factor"),
}

BAD_EXACT_STATES = {
    "factor-one-short": ("q_factor", _set("q_factor", lambda f: f[:-1, :-1])),
    "factor-one-long": ("q_factor", _set("q_factor", lambda f: np.eye(f.shape[0] + 1))),
    "factor-missing": ("q_factor", lambda arrays: arrays.pop("q_factor")),
    "roots-too-many-columns": ("sqrt_lambda", _set("sqrt_lambda", lambda r: np.concatenate([r, r, r], axis=2))),
    "roots-one-point-short": ("sqrt_lambda", _set("sqrt_lambda", lambda r: r[:-1])),
    "inputs-wrong-width": ("train_inputs", _set("train_inputs", lambda x: x[:, :1])),
}

BAD_ELLA_STATES = {
    # one anchor fewer than the projection's columns: reported on the projection
    "anchors-one-short": ("projection", _set("anchors", lambda a: a[:-1])),
    "anchors-wrong-width": ("anchors", _set("anchors", lambda a: a[:, :1])),
    "projection-one-column-short": ("projection", _set("projection", lambda p: p[:, :-1])),
    "factor-one-short": ("precision_factor", _set("precision_factor", lambda f: f[:-1, :-1])),
    "factor-one-long": ("precision_factor", _set("precision_factor", lambda f: np.eye(f.shape[0] + 1))),
    "factor-vector": ("precision_factor", _set("precision_factor", lambda f: f[0])),
    "factor-missing": ("precision_factor", lambda arrays: arrays.pop("precision_factor")),
}
BAD_VALLA_STATES = {
    # one location fewer than the factor's blocks: reported on the factor
    "inducing-one-short": ("a_factor", _set("inducing", lambda z: z[:-1])),
    "inducing-wrong-width": ("inducing", _set("inducing", lambda z: z[:, :1])),
    "inducing-empty": ("inducing", _set("inducing", lambda z: z[:0])),
    "factor-one-short": ("a_factor", _set("a_factor", lambda f: f[:-1, :-1])),
    "factor-not-square": ("a_factor", _set("a_factor", lambda f: f[:, :-1])),
    "factor-nan-entry": ("a_factor", _set("a_factor", _with_entry(np.nan))),
}


def _last_entry(value):
    def edit(a):
        a = a.copy()
        a.flat[-1] = value
        return a

    return edit


BAD_NORMALIZATIONS = {
    "target-std-missing": ("norm_target_std", lambda arrays: arrays.pop("norm_target_std")),
    "input-mean-missing": ("norm_input_mean", lambda arrays: arrays.pop("norm_input_mean")),
    "target-std-nan": ("norm_target_std", _set("norm_target_std", _last_entry(np.nan))),
    "input-mean-nan": ("norm_input_mean", _set("norm_input_mean", _last_entry(np.nan))),
    "input-std-inf": ("norm_input_std", _set("norm_input_std", _last_entry(np.inf))),
    "input-std-zero": ("norm_input_std", _set("norm_input_std", _last_entry(0.0))),
    "target-std-negative": ("norm_target_std", _set("norm_target_std", lambda v: -v)),
    "input-mean-one-short": ("norm_input_mean", _set("norm_input_mean", lambda v: v[:-1])),
    "input-std-matrix": ("norm_input_std", _set("norm_input_std", lambda v: v[None, :])),
    "target-mean-empty": ("norm_target_mean", _set("norm_target_mean", lambda v: v[:0])),
    "target-std-one-long": ("norm_target_std", _set("norm_target_std", lambda v: np.append(v, 1.0))),
}

# (state name, field): every array and factor of every kind with entries to corrupt
STATE_FIELDS = [
    (name, field)
    for name in STATE_NAMES
    if name != "lla-exact-empty"
    for field in (*STATE_KINDS[name].ARRAYS, *STATE_KINDS[name].FACTORS)
]


# (state name, field) of every Cholesky factor a state file stores
CHOLESKY_FIELDS = [(name, field) for name in STATE_NAMES if name != "lla-exact-empty" for field in STATE_KINDS[name].FACTORS]


def _with_diagonal_entry(edit):
    def change(f):
        f = f.copy()
        f[1, 1] = edit(f[1, 1])
        return f

    return change


class TestMalformedStates:
    """States whose arrays do not fit the network are refused at load, before any predict."""

    @pytest.mark.parametrize("kind", ["gaussian", "categorical"])
    @pytest.mark.parametrize("change", BAD_DIAGONALS.values(), ids=BAD_DIAGONALS.keys())
    def test_bad_precision_diag_rejected(self, tmp_path, kind, change):
        state, _ = fitted_states(2, kind)["lla-diag"]
        with pytest.raises(FormatError, match="precision_diag"):
            load_state(with_arrays_changed(tmp_path, state, change))

    @pytest.mark.parametrize("kind", ["gaussian", "categorical"])
    @pytest.mark.parametrize("change", BAD_LAST_LAYER_FACTORS.values(), ids=BAD_LAST_LAYER_FACTORS.keys())
    def test_bad_last_layer_factor_rejected(self, tmp_path, kind, change):
        state, _ = fitted_states(2, kind)["lla-last-layer"]
        with pytest.raises(FormatError, match="precision_factor"):
            load_state(with_arrays_changed(tmp_path, state, change))

    @pytest.mark.parametrize("kind", ["gaussian", "categorical"])
    @pytest.mark.parametrize(("name", "change"), BAD_EXACT_STATES.values(), ids=BAD_EXACT_STATES.keys())
    def test_bad_exact_state_rejected(self, tmp_path, kind, name, change):
        state, _ = fitted_states(2, kind)["lla-exact"]
        with pytest.raises(FormatError, match=name):
            load_state(with_arrays_changed(tmp_path, state, change))

    @pytest.mark.parametrize("kind", ["gaussian", "categorical"])
    @pytest.mark.parametrize(("name", "change"), BAD_ELLA_STATES.values(), ids=BAD_ELLA_STATES.keys())
    def test_bad_ella_state_rejected(self, tmp_path, kind, name, change):
        state, _ = fitted_states(2, kind)["ella"]
        with pytest.raises(FormatError, match=name):
            load_state(with_arrays_changed(tmp_path, state, change))

    @pytest.mark.parametrize("kind", ["gaussian", "categorical"])
    @pytest.mark.parametrize(("name", "change"), BAD_VALLA_STATES.values(), ids=BAD_VALLA_STATES.keys())
    def test_bad_valla_state_rejected(self, tmp_path, kind, name, change):
        state, _ = fitted_states(2, kind)["valla"]
        with pytest.raises(FormatError, match=name):
            load_state(with_arrays_changed(tmp_path, state, change))

    @pytest.mark.parametrize("kind", ["gaussian", "categorical"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(("name", "field"), STATE_FIELDS)
    def test_non_finite_field_rejected(self, tmp_path, kind, value, name, field):
        state, _ = fitted_states(2, kind)[name]
        with pytest.raises(FormatError, match=field):
            load_state(with_arrays_changed(tmp_path, state, _set(field, _last_entry(value))))

    @pytest.mark.parametrize("kind", ["gaussian", "categorical"])
    @pytest.mark.parametrize("edit", [lambda v: 0.0, lambda v: -v], ids=["zero", "negated"])
    @pytest.mark.parametrize(("name", "field"), CHOLESKY_FIELDS)
    def test_non_positive_factor_diagonal_rejected(self, tmp_path, kind, edit, name, field):
        state, _ = fitted_states(2, kind)[name]
        assert getattr(state, field).lower[1, 1] > 0.0
        with pytest.raises(FormatError, match=f"{field} must be a Cholesky factor with a strictly positive diagonal"):
            load_state(with_arrays_changed(tmp_path, state, _set(field, _with_diagonal_entry(edit))))

    @pytest.mark.parametrize(("name", "change"), BAD_NORMALIZATIONS.values(), ids=BAD_NORMALIZATIONS.keys())
    def test_bad_normalization_rejected(self, tmp_path, name, change):
        state, norm = fitted_states(2, "gaussian")["valla"]
        with pytest.raises(FormatError, match=name):
            load_state(with_arrays_changed(tmp_path, state, change, normalization=norm))

    def test_older_ella_file_with_feature_dim_loads(self, tmp_path):
        # older ELLA files also stored the feature count K in their meta
        state, _ = fitted_states(2, "categorical")["ella"]
        save_state(tmp_path / "new.bin", state)
        kind, meta, arrays = read_container(tmp_path / "new.bin")
        assert "feature_dim" not in meta
        write_container(tmp_path / "old.bin", kind, dict(meta, feature_dim=state.feature_dim), arrays)
        loaded, _ = load_state(tmp_path / "old.bin")
        assert loaded.feature_dim == state.projection.shape[0]
        probe = rng_stream(96).normal(size=(5, 2))
        assert np.array_equal(loaded.predict(probe).covariance, state.predict(probe).covariance)

    def test_empty_exact_state_with_factor_rejected(self, tmp_path):
        state, _ = fitted_states(2, "categorical")["lla-exact-empty"]
        path = with_arrays_changed(tmp_path, state, lambda arrays: arrays.update(q_factor=np.eye(1)))
        with pytest.raises(FormatError, match="q_factor"):
            load_state(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta["arch"].update(hidden_dims=4),
            lambda meta: meta["arch"].update(input_dim="two"),
            lambda meta: meta.update(likelihood=[1.0]),
        ],
        ids=["hidden-dims-scalar", "input-dim-text", "likelihood-list"],
    )
    def test_malformed_meta_value_rejected(self, tmp_path, edit):
        state, _ = fitted_states(2, "categorical")["lla-diag"]
        save_state(tmp_path / "ok.bin", state)
        kind, meta, arrays = read_container(tmp_path / "ok.bin")
        edit(meta)
        write_container(tmp_path / "bad.bin", kind, meta, arrays)
        with pytest.raises(FormatError):
            load_state(tmp_path / "bad.bin")

    @pytest.mark.parametrize("name", ["precision_diag", "net_w0", "net_b1"])
    def test_missing_array_rejected(self, tmp_path, name):
        state, _ = fitted_states(2, "categorical")["lla-diag"]
        with pytest.raises(FormatError, match=name):
            load_state(with_arrays_changed(tmp_path, state, lambda arrays: arrays.pop(name)))
