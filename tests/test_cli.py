import json
import string
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagp.cli import BOOL, CONFIG_KEYS, COUNT, FLOAT, INT, NATURAL, POSITIVE, main, parse_config_text, validate_config
from lagp.errors import ConfigError
from lagp.serialize import load_state, read_container, write_container

TOY_BASE = """
seed = 0
dataset.kind = toy1d
dataset.n = 60
dataset.seed = 1
split.fractions = 0.7,0.15,0.15
split.shuffle = 0
arch.hidden = 8
train.iterations = 600
train.batch_size = 42
train.learning_rate = 0.01
method.prior_variance = 0.5
method.noise_variance = 0.01
method.inducing = 5
method.iterations = 150
method.batch_size = 42
method.learning_rate = 0.02
method.validate_every = 50
"""


def write_config(tmp_path, name, extra):
    path = tmp_path / name
    path.write_text(TOY_BASE + extra)
    return path


def train_checkpoint(tmp_path, run_name="map_run"):
    cfg = write_config(tmp_path, "train.cfg", f"output_dir = {tmp_path / run_name}\n")
    assert main(["train-map", str(cfg)]) == 0
    return tmp_path / run_name / "checkpoint.bin"


class TestShowDefaults:
    def test_runs(self, capsys):
        assert main(["show-defaults"]) == 0
        out = capsys.readouterr().out
        assert "method = valla" in out
        assert "dataset.kind" in out


def _wrong_values():
    """(key, value) pairs that do not fit the key's type."""
    wrong = {
        INT: ("abc", "2.7"),
        NATURAL: ("abc", "2.7", "-1"),
        COUNT: ("abc", "2.7", "0", "-2"),
        FLOAT: ("abc", "nan", "inf"),
        POSITIVE: ("abc", "nan", "inf"),
        BOOL: ("abc", "maybe"),
    }
    for key, (default, kind, _) in CONFIG_KEYS.items():
        for value in wrong.get(kind, ()):
            yield key, value
        if default is not None:
            yield key, ""
    yield from [
        ("dataset.standardize", "0"),
        ("arch.hidden", "abc"),
        ("arch.hidden", "50,,50"),
        ("method.features", "foo"),
        ("method.features", "2.5"),
        ("split.shuffle", "abc"),
        ("split.shuffle", "-3"),
        ("method.features", "-1"),
        ("method.features", "0"),
        ("split.fractions", "0.5,0.5"),
        ("split.fractions", "0.5,nan,0.5"),
        ("method.prior_variance", "0"),
        ("method.prior_variance", "-1"),
        ("method.noise_variance", "0"),
        ("dataset.kind", "Toy1d"),
        ("method.objective", "ELBO"),
    ]


class TestConfigTypes:
    @pytest.mark.parametrize(("key", "value"), list(_wrong_values()))
    def test_wrong_value_exits_2_before_output(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        lines = {"output_dir": str(out), key: value}
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert main(["train-map", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} = {value!r}: expected ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_typed_values(self):
        cfg = parse_config_text(
            "output_dir = 5\narch.hidden = 7\nsplit.shuffle = sequential\nmethod.features = 3\n"
            "train.learning_rate = 1\nmethod.early_stopping = False\ndataset.limit =\n"
        )
        assert cfg == {
            "output_dir": "5",
            "arch.hidden": (7,),
            "split.shuffle": "sequential",
            "method.features": 3,
            "train.learning_rate": 1.0,
            "method.early_stopping": False,
            "dataset.limit": None,
        }
        assert isinstance(cfg["train.learning_rate"], float)

    def test_show_defaults_loads_back_as_defaults(self, capsys):
        assert main(["show-defaults"]) == 0
        text = "".join(line.split("#", 1)[0] + "\n" for line in capsys.readouterr().out.splitlines())
        loaded = parse_config_text(text)
        assert {k: (type(v), v) for k, v in loaded.items()} == {
            k: (type(default), default) for k, (default, _, _) in CONFIG_KEYS.items()
        }

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(sorted(CONFIG_KEYS)),
        st.one_of(
            st.text(string.printable, max_size=20),
            st.integers().map(str),
            st.floats().map(str),
            st.sampled_from(["true", "false", "auto", "sequential", "csv", "idx", "elbo", "lla_diag", "3,4"]),
        ),
    )
    def test_any_value_loads_or_raises_config_error(self, key, value):
        cfg = {k: default for k, (default, _, _) in CONFIG_KEYS.items()}
        try:
            cfg.update(parse_config_text(f"{key} = {value}\n"))
            validate_config(cfg)
        except ConfigError:
            pass


class TestTrainMap:
    def test_writes_checkpoint_and_log(self, tmp_path):
        cfg = write_config(tmp_path, "t.cfg", f"output_dir = {tmp_path / 'run'}\n")
        assert main(["train-map", str(cfg)]) == 0
        out = tmp_path / "run"
        assert (out / "checkpoint.bin").exists()
        lines = (out / "train_log.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 1 + 600 // 100
        for line in lines[1:]:
            it, loss = line.split(",")
            int(it), float(loss)
        assert (out / "config.txt").exists()

    def test_rerun_bitwise_identical(self, tmp_path):
        cfg1 = write_config(tmp_path, "a.cfg", f"output_dir = {tmp_path / 'a'}\n")
        cfg2 = write_config(tmp_path, "b.cfg", f"output_dir = {tmp_path / 'b'}\n")
        assert main(["train-map", str(cfg1)]) == 0
        assert main(["train-map", str(cfg2)]) == 0
        a = (tmp_path / "a" / "checkpoint.bin").read_bytes()
        b = (tmp_path / "b" / "checkpoint.bin").read_bytes()
        assert a == b

    def test_divergence_exits_1_without_checkpoint(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TOY_BASE.replace("train.learning_rate = 0.01", "train.learning_rate = 1e300")
                       + f"output_dir = {tmp_path / 'run'}\n")
        assert main(["train-map", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "iteration 2" in err
        assert len(err.splitlines()) == 1  # the error alone, with no numpy warning ahead of it
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_missing_dataset_path_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dataset.kind = csv\ndataset.path = missing.csv\n")
        assert main(["train-map", str(cfg)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no.such.key = 1\n")
        assert main(["train-map", str(cfg)]) == 2

    @pytest.mark.parametrize("loss", ["rmse", "nll_classification"])
    def test_loss_key_is_unknown(self, tmp_path, capsys, loss):
        """The task decides the loss, so a config that names one fails before any output."""
        cfg = write_config(tmp_path, "loss.cfg", f"output_dir = {tmp_path / 'run'}\ntrain.loss = {loss}\n")
        assert main(["train-map", str(cfg)]) == 2
        assert "unknown key 'train.loss'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_toy_size_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "neg.cfg", f"output_dir = {tmp_path / 'neg'}\n").read_text()
        (tmp_path / "neg.cfg").write_text(cfg.replace("dataset.n = 60", "dataset.n = -5"))
        assert main(["train-map", str(tmp_path / "neg.cfg")]) == 1
        err = capsys.readouterr().err
        assert "n >= 0" in err
        assert "Traceback" not in err


class TestFit:
    def test_valla_fit_writes_state_and_log(self, tmp_path):
        checkpoint = train_checkpoint(tmp_path)
        cfg = write_config(
            tmp_path, "fit.cfg", f"output_dir = {tmp_path / 'fit_run'}\nmethod = valla\n"
        )
        assert main(["fit", str(cfg), "--checkpoint", str(checkpoint)]) == 0
        out = tmp_path / "fit_run"
        assert (out / "state_valla.bin").exists()
        header, *rows = (out / "fit_log_valla.csv").read_text().splitlines()
        assert header == "iteration,objective,kl,data_term,validation_nll"
        assert rows and all(row.split(",")[-1] for row in rows)
        for row in rows:
            for cell in row.split(","):
                if cell:
                    float(cell)
        info = json.loads((out / "fit_info_valla.json").read_text())
        state, _ = load_state(out / "state_valla.bin")
        assert info["prior_variance"] == state.ctx.prior_variance
        assert info["noise_variance"] == state.likelihood.noise_variance
        assert (out / "timing.json").exists()

    def test_exact_cap_exceeded_mentions_alternative(self, tmp_path, capsys):
        checkpoint = train_checkpoint(tmp_path)
        big = TOY_BASE.replace("dataset.n = 60", "dataset.n = 9000")
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(big + f"output_dir = {tmp_path / 'cap_run'}\nmethod = lla_exact\n")
        code = main(["fit", str(cfg), "--checkpoint", str(checkpoint)])
        assert code == 1
        assert "valla" in capsys.readouterr().err

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        checkpoint = train_checkpoint(tmp_path)
        cfg = write_config(
            tmp_path, "um.cfg", f"output_dir = {tmp_path / 'um'}\nmethod = bogus\n"
        )
        assert main(["fit", str(cfg), "--checkpoint", str(checkpoint)]) == 2
        assert "lla_exact" in capsys.readouterr().err

    def test_negative_valla_learning_rate_exits_1(self, tmp_path, capsys):
        checkpoint = train_checkpoint(tmp_path)
        cfg = write_config(tmp_path, "lr.cfg", f"output_dir = {tmp_path / 'lr'}\nmethod = valla\n")
        cfg.write_text(cfg.read_text().replace("method.learning_rate = 0.02", "method.learning_rate = -0.01"))
        capsys.readouterr()
        assert main(["fit", str(cfg), "--checkpoint", str(checkpoint)]) == 1
        err = capsys.readouterr().err
        assert "learning_rate" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "lr" / "state_valla.bin").exists()

    @pytest.mark.parametrize("alpha", ["0", "-1", "1.5"])
    def test_alpha_outside_unit_interval_exits_1(self, tmp_path, capsys, alpha):
        checkpoint = train_checkpoint(tmp_path)
        cfg = write_config(
            tmp_path, "al.cfg", f"output_dir = {tmp_path / 'al'}\nmethod = valla\nmethod.alpha = {alpha}\n"
        )
        assert main(["fit", str(cfg), "--checkpoint", str(checkpoint)]) == 1
        err = capsys.readouterr().err
        assert "alpha must lie in (0, 1]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("method", "key", "value"),
        [("ella", "method.max_points", "-1"), ("ella", "method.max_points", "0"), ("ella", "method.anchors", "-1"),
         ("valla", "method.inducing", "-2"), ("valla", "method.inducing", "0")],
    )
    def test_count_below_one_exits_2_before_output(self, tmp_path, capsys, method, key, value):
        checkpoint = train_checkpoint(tmp_path)
        base = "".join(line + "\n" for line in TOY_BASE.splitlines() if not line.startswith(key))
        cfg = tmp_path / "count.cfg"
        cfg.write_text(base + f"output_dir = {tmp_path / 'count'}\nmethod = {method}\n{key} = {value}\n")
        assert main(["fit", str(cfg), "--checkpoint", str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {key} = {value!r}: expected an integer >= 1\n"
        assert not (tmp_path / "count").exists()

    def test_missing_checkpoint_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "mc.cfg", f"output_dir = {tmp_path / 'mc'}\n")
        assert main(["fit", str(cfg), "--checkpoint", str(tmp_path / "nope.bin")]) == 2

    def test_evidence_search_records_cut_and_grid_edge(self, tmp_path):
        from lagp.lla import EVIDENCE_CAP, NOISE_GRID, PRIOR_GRID

        checkpoint = train_checkpoint(tmp_path)
        searched = TOY_BASE.replace("method.prior_variance = 0.5\n", "").replace("method.noise_variance = 0.01\n", "")
        cfg = tmp_path / "big.cfg"
        # 720 points, 504 of them in the training split
        big = searched.replace("dataset.n = 60", "dataset.n = 720")
        cfg.write_text(big + f"output_dir = {tmp_path / 'big'}\nmethod = map\n")
        assert main(["fit", str(cfg), "--checkpoint", str(checkpoint)]) == 0
        info = json.loads((tmp_path / "big" / "fit_info_map.json").read_text())
        assert info["evidence_points"] == EVIDENCE_CAP == 500
        pv, nv = info["prior_variance"], info["noise_variance"]
        edge = pv in (PRIOR_GRID[0], PRIOR_GRID[-1]) or nv in (NOISE_GRID[0], NOISE_GRID[-1])
        assert info["evidence_at_grid_edge"] is edge

        # fixed variances: nothing searched, nothing recorded
        cfg = write_config(tmp_path, "fixed.cfg", f"output_dir = {tmp_path / 'fixed'}\nmethod = map\n")
        assert main(["fit", str(cfg), "--checkpoint", str(checkpoint)]) == 0
        info = json.loads((tmp_path / "fixed" / "fit_info_map.json").read_text())
        assert "evidence_points" not in info and "evidence_at_grid_edge" not in info

    @pytest.mark.parametrize("fixed", ["prior", "noise"])
    def test_fixed_variance_searches_the_other_at_it(self, tmp_path, fixed):
        # the free variance is the evidence argmax at the fixed one, which
        # on this checkpoint is not the free half of the joint argmax
        from lagp.cli import load_config, prepare_splits
        from lagp.lla import grid_search_hyperparameters
        from lagp.nn import load_network

        checkpoint = train_checkpoint(tmp_path)
        value = {"prior": 0.001, "noise": 10.0}[fixed]
        searched = TOY_BASE.replace("method.prior_variance = 0.5\n", "").replace("method.noise_variance = 0.01\n", "")
        cfg = tmp_path / "one.cfg"
        cfg.write_text(searched + f"method.{fixed}_variance = {value}\noutput_dir = {tmp_path / 'one'}\nmethod = map\n")
        assert main(["fit", str(cfg), "--checkpoint", str(checkpoint)]) == 0
        info = json.loads((tmp_path / "one" / "fit_info_map.json").read_text())
        assert info["evidence_points"] == 42

        train = prepare_splits(load_config(cfg)[0])[0]
        net, x, y = load_network(checkpoint), train.inputs, train.targets.ravel()
        joint = grid_search_hyperparameters(net, x, y)[:2]
        if fixed == "prior":
            best = grid_search_hyperparameters(net, x, y, prior_grid=[value])[1]
            assert info["noise_variance"] == best != joint[1]
        else:
            best = grid_search_hyperparameters(net, x, y, noise_grid=[value])[0]
            assert info["noise_variance"] == value
            assert info["prior_variance"] == pytest.approx(best, rel=1e-15) and best != joint[0]

    def test_fit_info_records_the_state_variances(self, tmp_path):
        # a state holds log pv and predicts with exp(log pv), which for
        # pv = 0.001 is 0.0010000000000000002
        checkpoint = train_checkpoint(tmp_path)
        base = TOY_BASE.replace("method.prior_variance = 0.5\n", "method.prior_variance = 0.001\n")
        for method in ("map", "lla_exact", "lla_diag", "lla_last_layer", "ella", "valla"):
            cfg = tmp_path / f"{method}.cfg"
            cfg.write_text(base + f"output_dir = {tmp_path / method}\nmethod = {method}\n")
            assert main(["fit", str(cfg), "--checkpoint", str(checkpoint)]) == 0
            info = json.loads((tmp_path / method / f"fit_info_{method}.json").read_text())
            state, _ = load_state(tmp_path / method / f"state_{method}.bin")
            assert info["prior_variance"] == state.ctx.prior_variance, method
            assert info["noise_variance"] == state.likelihood.noise_variance, method

    def test_determinism_across_reruns(self, tmp_path):
        checkpoint = train_checkpoint(tmp_path)
        outs = []
        for name in ("d1", "d2"):
            cfg = write_config(
                tmp_path, f"{name}.cfg", f"output_dir = {tmp_path / name}\nmethod = valla\n"
            )
            assert main(["fit", str(cfg), "--checkpoint", str(checkpoint)]) == 0
            outs.append(tmp_path / name)
        # everything except the timing file and the config copies (which
        # embed the differing output paths) must match byte for byte
        for fname in ("state_valla.bin", "fit_log_valla.csv", "fit_info_valla.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


METRICS_SCHEMA = {
    "type": "object",
    "properties": {
        "n_points": {"type": "integer", "minimum": 1},
        "nll": {"type": "number"},
        "crps": {"type": "number", "minimum": 0},
        "cqm": {"type": "number", "minimum": 0, "maximum": 0.5},
        "acc": {"type": "number", "minimum": 0, "maximum": 1},
        "ece": {"type": "number", "minimum": 0, "maximum": 1},
        "brier": {"type": "number", "minimum": 0},
    },
    "required": ["n_points", "nll"],
    "additionalProperties": False,
}


@pytest.fixture(scope="module")
def fitted_states_dir(tmp_path_factory):
    """(config, run directory) where one checkpoint was fitted by every method whose state holds arrays."""
    tmp = tmp_path_factory.mktemp("fitted")
    checkpoint = train_checkpoint(tmp)
    for method in ("lla_exact", "lla_diag", "lla_last_layer", "ella", "valla"):
        cfg = write_config(tmp, f"{method}.cfg", f"output_dir = {tmp / 'ev'}\nmethod = {method}\n")
        assert main(["fit", str(cfg), "--checkpoint", str(checkpoint)]) == 0
    return cfg, tmp / "ev"


class TestEvaluate:
    def fit_state(self, tmp_path, method="lla_exact"):
        checkpoint = train_checkpoint(tmp_path)
        cfg = write_config(
            tmp_path, "ev.cfg", f"output_dir = {tmp_path / 'ev'}\nmethod = {method}\n"
        )
        assert main(["fit", str(cfg), "--checkpoint", str(checkpoint)]) == 0
        return cfg, tmp_path / "ev" / f"state_{method}.bin"

    def test_regression_metrics_and_schema(self, tmp_path):
        import jsonschema

        cfg, state = self.fit_state(tmp_path)
        assert main(["evaluate", str(cfg), "--state", str(state), "--split", "test"]) == 0
        payload = json.loads((tmp_path / "ev" / "metrics_test.json").read_text())
        jsonschema.validate(payload, METRICS_SCHEMA)
        assert set(payload) >= {"nll", "crps", "cqm", "n_points"}
        coverage = (tmp_path / "ev" / "coverage_test.csv").read_text().splitlines()
        assert coverage[0] == "alpha,coverage"
        assert len(coverage) == 1 + 11

    def test_train_split_nll_is_small(self, tmp_path):
        cfg, state = self.fit_state(tmp_path)
        assert main(["evaluate", str(cfg), "--state", str(state), "--split", "train"]) == 0
        payload = json.loads((tmp_path / "ev" / "metrics_train.json").read_text())
        assert payload["nll"] < 0.5

    def test_ood_mode(self, tmp_path, capsys):
        a = tmp_path / "in.csv"
        b = tmp_path / "out.csv"
        a.write_text("entropy\n0.1\n0.2\n0.3\n")
        b.write_text("entropy\n0.9\n1.1\n")
        assert main(["evaluate", "--ood-in", str(a), "--ood-out", str(b)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"ood_auc": 1.0}

    @pytest.mark.parametrize(
        ("scores", "code"),
        [
            (None, 2),
            ("entropy\n0.1\nabc\n", 1),
            ("entropy\n0.1\nnan\n", 1),
            ("entropy\n0.1\ninf\n", 1),
            ("entropy\n", 1),
        ],
    )
    def test_ood_bad_scores(self, tmp_path, capsys, scores, code):
        good = tmp_path / "in.csv"
        good.write_text("entropy\n0.1\n0.2\n")
        bad = tmp_path / "out.csv"
        if scores is not None:
            bad.write_text(scores)
        with warnings.catch_warnings():  # a warning on the way to the error fails the test
            warnings.simplefilter("error")
            assert main(["evaluate", "--ood-in", str(good), "--ood-out", str(bad)]) == code
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "Traceback" not in err

    def test_exact_factor_off_by_one_exits_1(self, tmp_path, capsys):
        cfg, state = self.fit_state(tmp_path)
        kind, meta, arrays = read_container(state)
        arrays["q_factor"] = arrays["q_factor"][:-1, :-1]
        write_container(tmp_path / "bad.bin", kind, meta, arrays)
        capsys.readouterr()
        assert main(["evaluate", str(cfg), "--state", str(tmp_path / "bad.bin"), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert "q_factor" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(("method", "field"), [("ella", "projection"), ("valla", "inducing")])
    def test_ella_and_valla_off_by_one_exit_1(self, tmp_path, capsys, method, field):
        cfg, state = self.fit_state(tmp_path, method)
        kind, meta, arrays = read_container(state)
        arrays[field] = arrays[field][:, :-1]
        write_container(tmp_path / "bad.bin", kind, meta, arrays)
        capsys.readouterr()
        assert main(["evaluate", str(cfg), "--state", str(tmp_path / "bad.bin"), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("method", "field"),
        [
            ("lla_exact", "train_inputs"),
            ("lla_exact", "sqrt_lambda"),
            ("lla_exact", "q_factor"),
            ("lla_diag", "precision_diag"),
            ("lla_last_layer", "precision_factor"),
            ("ella", "anchors"),
            ("ella", "projection"),
            ("ella", "precision_factor"),
            ("valla", "inducing"),
            ("valla", "a_factor"),
        ],
    )
    def test_non_finite_field_exits_1(self, tmp_path, capsys, fitted_states_dir, method, field):
        cfg, run = fitted_states_dir
        kind, meta, arrays = read_container(run / f"state_{method}.bin")
        arrays[field] = arrays[field].copy()
        arrays[field].flat[-1] = np.nan
        write_container(tmp_path / "bad.bin", kind, meta, arrays)
        capsys.readouterr()
        assert main(["evaluate", str(cfg), "--state", str(tmp_path / "bad.bin"), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize(
        ("method", "field"),
        [("lla_exact", "q_factor"), ("lla_last_layer", "precision_factor"), ("ella", "precision_factor")],
    )
    def test_non_positive_factor_diagonal_exits_1(self, tmp_path, capsys, fitted_states_dir, method, field, value):
        cfg, run = fitted_states_dir
        kind, meta, arrays = read_container(run / f"state_{method}.bin")
        arrays[field] = arrays[field].copy()
        arrays[field][1, 1] = value
        write_container(tmp_path / "bad.bin", kind, meta, arrays)
        capsys.readouterr()
        assert main(["evaluate", str(cfg), "--state", str(tmp_path / "bad.bin"), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert field in err and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_overflowing_covariance_exits_1(self, tmp_path, capsys, fitted_states_dir):
        # 1e-320 is finite and positive, so the state loads, but its inverse overflows
        cfg, run = fitted_states_dir
        kind, meta, arrays = read_container(run / "state_lla_diag.bin")
        arrays["precision_diag"] = np.full_like(arrays["precision_diag"], 1e-320)
        write_container(tmp_path / "tiny.bin", kind, meta, arrays)
        cfg = retarget(cfg, tmp_path / "tiny.cfg", tmp_path / "out")
        capsys.readouterr()
        assert main(["evaluate", str(cfg), "--state", str(tmp_path / "tiny.bin"), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err == "error: lla-diag state predicted NaN or Inf covariances\n"
        assert not (tmp_path / "out" / "metrics_test.json").exists()
        assert main(["predict-grid", "--state", str(tmp_path / "tiny.bin"), "--output", str(tmp_path / "grid.csv")]) == 1
        assert capsys.readouterr().err == "error: lla-diag state predicted NaN or Inf covariances\n"
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize(
        "change",
        [
            lambda arrays: arrays.pop("norm_target_std"),
            lambda arrays: arrays.update(norm_target_std=np.array([np.nan])),
        ],
        ids=["target-std-missing", "target-std-nan"],
    )
    def test_bad_normalization_exits_1(self, tmp_path, capsys, fitted_states_dir, change):
        cfg, run = fitted_states_dir
        kind, meta, arrays = read_container(run / "state_lla_diag.bin")
        change(arrays)
        write_container(tmp_path / "bad.bin", kind, meta, arrays)
        capsys.readouterr()
        assert main(["evaluate", str(cfg), "--state", str(tmp_path / "bad.bin"), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert "norm_target_std" in err and len(err.splitlines()) == 1

    def test_weight_space_state_exits_1(self, tmp_path, capsys, fitted_states_dir):
        cfg, run = fitted_states_dir
        _, meta, arrays = read_container(run / "state_lla_diag.bin")
        p = arrays["precision_diag"].size
        arrays.update(precision=np.eye(p), covariance_factor=np.eye(p))
        write_container(tmp_path / "weight.bin", "lla-weight", meta, arrays)
        capsys.readouterr()
        assert main(["evaluate", str(cfg), "--state", str(tmp_path / "weight.bin"), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err == "error: unknown state kind 'lla-weight'\n"

    def test_missing_state_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "ms.cfg", f"output_dir = {tmp_path / 'ms'}\n")
        assert main(["evaluate", str(cfg), "--state", str(tmp_path / "none.bin")]) == 2


@pytest.fixture(scope="module")
def three_class_run(tmp_path_factory):
    """(config, checkpoint, lla_diag state) of a 3-class IDX task with one input per point."""
    import struct

    tmp = tmp_path_factory.mktemp("three_class")
    n = 60
    (tmp / "images.idx").write_bytes(struct.pack(">IIII", 0x803, n, 1, 1) + bytes(range(100, 100 + n)))
    (tmp / "labels.idx").write_bytes(struct.pack(">II", 0x801, n) + bytes(i % 3 for i in range(n)))
    idx = f"dataset.kind = idx\ndataset.images = {tmp / 'images.idx'}\ndataset.labels = {tmp / 'labels.idx'}\n"
    cfg = tmp / "idx.cfg"
    cfg.write_text(TOY_BASE.replace("dataset.kind = toy1d\n", idx) + f"output_dir = {tmp / 'run'}\nmethod = lla_diag\n")
    assert main(["train-map", str(cfg)]) == 0
    assert main(["fit", str(cfg), "--checkpoint", str(tmp / "run" / "checkpoint.bin")]) == 0
    return cfg, tmp / "run" / "checkpoint.bin", tmp / "run" / "state_lla_diag.bin"


def retarget(cfg, path, out, method="lla_diag"):
    """A copy of the config at ``cfg`` written to ``path``, writing into ``out`` with ``method``."""
    lines = cfg.read_text().splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith(("output_dir", "method =")))
    path.write_text(kept + f"output_dir = {out}\nmethod = {method}\n")
    return path


class TestTaskMismatch:
    """A checkpoint or state that does not fit the data's task exits 1 with one line and writes nothing."""

    def run(self, capsys, argv, written):
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not written.exists()
        return err

    def test_regression_state_on_class_data(self, tmp_path, capsys, fitted_states_dir, three_class_run):
        cfg = retarget(three_class_run[0], tmp_path / "mismatch.cfg", tmp_path / "ev")
        state = fitted_states_dir[1] / "state_lla_diag.bin"
        err = self.run(capsys, ["evaluate", cfg, "--state", state], tmp_path / "ev" / "metrics_test.json")
        assert "1 output(s) and a gaussian likelihood" in err and "3-class classification" in err

    def test_class_state_on_regression_data(self, tmp_path, capsys, three_class_run):
        _, _, state = three_class_run
        cfg = write_config(tmp_path, "toy.cfg", f"output_dir = {tmp_path / 'ev'}\n")
        err = self.run(capsys, ["evaluate", cfg, "--state", state], tmp_path / "ev" / "metrics_test.json")
        assert "3 output(s) and a categorical likelihood" in err and "regression with 1 target(s)" in err

    @pytest.mark.parametrize("method", ["lla_diag", "valla"])
    def test_fit_of_regression_checkpoint_on_class_data(self, tmp_path, capsys, three_class_run, method):
        cfg = retarget(three_class_run[0], tmp_path / "mismatch.cfg", tmp_path / "fit", method)
        checkpoint = train_checkpoint(tmp_path)
        err = self.run(capsys, ["fit", cfg, "--checkpoint", checkpoint], tmp_path / "fit" / f"state_{method}.bin")
        assert "checkpoint has 1 output(s)" in err and "3-class classification" in err

    def test_compare_of_class_checkpoint_on_regression_data(self, tmp_path, capsys, three_class_run):
        _, checkpoint, _ = three_class_run
        cfg = write_config(tmp_path, "toy.cfg", f"output_dir = {tmp_path / 'cmp'}\n")
        err = self.run(capsys, ["compare", cfg, "--checkpoint", checkpoint], tmp_path / "cmp" / "compare.csv")
        assert "checkpoint has 3 output(s)" in err and "regression" in err
        assert not list((tmp_path / "cmp").glob("state_*"))


class TestPredictGrid:
    def test_grid_csv_contract(self, tmp_path):
        cfg, state = TestEvaluate().fit_state(tmp_path)
        out_csv = tmp_path / "grid.csv"
        assert (
            main(
                [
                    "predict-grid",
                    "--state",
                    str(state),
                    "--range",
                    "-2.0",
                    "2.0",
                    "--resolution",
                    "7",
                    "--output",
                    str(out_csv),
                ]
            )
            == 0
        )
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "x,mean,std_function,std_y"
        assert len(lines) == 8
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[0] == -2.0 and last[0] == 2.0
        # std_y^2 = std_function^2 + noise, row by row
        state_obj, norm = load_state(state)
        noise = state_obj.likelihood.noise_variance * float(norm.target_std[0]) ** 2
        for line in lines[1:]:
            _, _, std_f, std_y = (float(v) for v in line.split(","))
            assert abs(std_y**2 - (std_f**2 + noise)) <= 1e-12 * max(1.0, std_y**2)

    @pytest.mark.parametrize("bounds", [("nan", "1"), ("0", "inf"), ("inf", "nan")])
    def test_non_finite_range_exits_2(self, tmp_path, capsys, fitted_states_dir, bounds):
        # refused before the state is read: a missing state file gives the same message
        _, run = fitted_states_dir
        for state in (run / "state_lla_exact.bin", tmp_path / "missing.bin"):
            capsys.readouterr()
            out_csv = tmp_path / "grid.csv"
            argv = ["predict-grid", "--state", str(state), "--range", *bounds, "--output", str(out_csv)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"config error: --range must be two finite numbers, got {float(bounds[0])!r} {float(bounds[1])!r}\n"
            assert not out_csv.exists()

    def test_zero_resolution_exits_2(self, tmp_path):
        cfg, state = TestEvaluate().fit_state(tmp_path)
        assert main(["predict-grid", "--state", str(state), "--resolution", "0"]) == 2

    def test_classification_state_exits_1(self, tmp_path, capsys, three_class_run):
        # one input per point, but three logits and a categorical likelihood: no regression curve to draw
        _, _, state = three_class_run
        capsys.readouterr()
        out_csv = tmp_path / "grid.csv"
        assert main(["predict-grid", "--state", str(state), "--output", str(out_csv)]) == 1
        err = capsys.readouterr().err
        assert err == "error: predict-grid needs a regression state with one output; the state has 3 output(s) and a categorical likelihood\n"
        assert not out_csv.exists()


class TestCompare:
    def test_five_method_suite(self, tmp_path):
        checkpoint = train_checkpoint(tmp_path)
        cfg = write_config(tmp_path, "cmp.cfg", f"output_dir = {tmp_path / 'cmp'}\n")
        assert main(["compare", str(cfg), "--checkpoint", str(checkpoint)]) == 0
        lines = (tmp_path / "cmp" / "compare.csv").read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 methods
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["lla_exact", "valla", "ella", "lla_diag", "lla_last_layer"]

        # shared checkpoint pins every method's predictive mean bitwise
        from lagp.cli import predict_any

        probe = np.linspace(-1.5, 1.5, 5)[:, None]
        means = []
        for m in methods:
            state, _ = load_state(tmp_path / "cmp" / f"state_{m}.bin")
            means.append(np.stack([p.mean for p in predict_any(state, probe)]))
        for other in means[1:]:
            assert np.array_equal(means[0], other)

    def test_one_evidence_search_shared_by_every_method(self, tmp_path, monkeypatch):
        import lagp.lla

        checkpoint = train_checkpoint(tmp_path)
        searched = TOY_BASE.replace("method.prior_variance = 0.5\n", "").replace("method.noise_variance = 0.01\n", "")
        cfg = tmp_path / "search.cfg"
        cfg.write_text(searched + f"output_dir = {tmp_path / 'search'}\n")
        calls = []
        search = lagp.lla.grid_search_hyperparameters
        monkeypatch.setattr(lagp.lla, "grid_search_hyperparameters", lambda *a, **k: calls.append(a) or search(*a, **k))
        assert main(["compare", str(cfg), "--checkpoint", str(checkpoint)]) == 0
        assert len(calls) == 1
        header, *rows = (tmp_path / "search" / "compare.csv").read_text().splitlines()
        keys = header.split(",")[1:]
        # each row scores as a fit of that method alone, with its own search, then evaluate
        for row in rows:
            method, *values = row.split(",")
            method_cfg = tmp_path / f"{method}.cfg"
            method_cfg.write_text(searched + f"output_dir = {tmp_path / method}\nmethod = {method}\n")
            assert main(["fit", str(method_cfg), "--checkpoint", str(checkpoint)]) == 0
            state = tmp_path / method / f"state_{method}.bin"
            assert main(["evaluate", str(method_cfg), "--state", str(state)]) == 0
            metrics = json.loads((tmp_path / method / "metrics_test.json").read_text())
            assert [float(v) for v in values] == [metrics[k] for k in keys]

    def test_missing_checkpoint_fails_before_fit(self, tmp_path):
        cfg = write_config(tmp_path, "c2.cfg", f"output_dir = {tmp_path / 'c2'}\n")
        assert main(["compare", str(cfg), "--checkpoint", str(tmp_path / "none.bin")]) == 2
        assert not (tmp_path / "c2" / "compare.csv").exists()
