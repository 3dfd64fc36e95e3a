"""The one input rule (``nn.as_inputs``) as ``nn.forward`` and every state kind's ``predict`` see it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagp import GaussianPredictive
from lagp.cli import predict_any
from lagp.errors import DimensionMismatch
from lagp.nn import as_inputs, forward

from test_serialize import STATE_NAMES, fitted_states


def states(d):
    kind = "gaussian" if d % 2 else "categorical"
    return [(name, state) for name, (state, _) in fitted_states(d, kind).items()]


def assert_same_trace(net, x, d):
    """forward(net, x) equals the forward pass of as_inputs(x, d), layer by layer."""
    trace, reference = forward(net, x), forward(net, as_inputs(x, d))
    assert trace.layer_inputs[0].shape == (reference.output.shape[0], d)
    for a, b in zip((*trace.layer_inputs, trace.output), (*reference.layer_inputs, reference.output)):
        assert np.array_equal(a, b)


def assert_same(a, b):
    assert a.likelihood == b.likelihood
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.covariance, b.covariance)


@st.composite
def inputs(draw):
    """(D, N, x) with x an (N, D) array, or its 1-D form where the rule has one."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=n * d, max_size=n * d))
    x = np.array(values).reshape(n, d)
    if draw(st.booleans()):
        if d == 1:
            x = x[:, 0]
        elif n == 1:
            x = x[0]
    return d, n, x


class TestInputRule:
    @settings(max_examples=40, deadline=None)
    @given(inputs())
    def test_predict_reads_inputs_through_the_rule(self, case):
        d, n, x = case
        for _, state in states(d):
            assert_same_trace(state.ctx.net, x, d)
            pred = state.predict(x)
            assert_same(pred, state.predict(as_inputs(x, d)))
            c = state.ctx.net.arch.output_dim
            assert len(pred) == n
            assert pred.mean.shape == (n, c) and pred.covariance.shape == (n, c, c)
            for i in range(n):
                assert_same(pred[i], GaussianPredictive(pred.mean[i], pred.covariance[i], pred.likelihood))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6))
    def test_other_widths_rejected(self, d, n, width):
        bad = [np.zeros((n, d, 1))]
        if width != d:
            bad.append(np.zeros((n, width)))
            if d > 1:
                bad.append(np.zeros(width))
        for _, state in states(d):
            for x in bad:
                with pytest.raises(DimensionMismatch):
                    state.predict(x)
                with pytest.raises(DimensionMismatch):
                    forward(state.ctx.net, x)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_zero_queries_give_empty_predictive(self, d):
        for name, state in states(d):
            c = state.ctx.net.arch.output_dim
            assert forward(state.ctx.net, np.zeros((0, d))).output.shape == (0, c), name
            pred = state.predict(np.zeros((0, d)))
            assert pred.mean.shape == (0, c), name
            assert pred.covariance.shape == (0, c, c), name

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_one_dimensional_input(self, d):
        x = np.linspace(-1.0, 1.0, 5 if d == 1 else d)
        for _, state in states(d):
            assert_same_trace(state.ctx.net, x, d)
            assert forward(state.ctx.net, x).output.shape[0] == (5 if d == 1 else 1)
            pred = state.predict(x)
            assert len(pred) == (5 if d == 1 else 1)
            assert_same(pred, state.predict(x.reshape(-1, d)))

    @pytest.mark.parametrize("name", STATE_NAMES)
    def test_three_input_probe_is_one_point(self, name):
        state = dict(states(3))[name]
        pred = predict_any(state, [0.1, 0.2, 0.3])
        assert len(pred) == 1
        assert_same(pred, state.predict(np.array([[0.1, 0.2, 0.3]])))
