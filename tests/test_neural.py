import math

import numpy as np
import numpy.testing as npt
import pytest

from dpvfl.config import TrainingSection
from dpvfl.errors import ArgumentError, CheckpointError, ConfigError, StateError
from dpvfl.neural import (
    DenseNet,
    Layer,
    cross_entropy_softmax,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    softmax,
    squared_error,
)
from dpvfl.numerics import Rng

from conftest import central_difference, relative_error


def make_net(dims, activations, seed=0):
    return DenseNet.create(dims, activations, Rng(seed).split("init"))


def flatten_params(net):
    return np.concatenate([
        np.concatenate([l.weights.ravel(), l.bias.ravel()]) for l in net.layers
    ])


def set_params(net, flat):
    pos = 0
    for layer in net.layers:
        w_size = layer.weights.size
        layer.weights[...] = flat[pos:pos + w_size].reshape(layer.weights.shape)
        pos += w_size
        b_size = layer.bias.size
        layer.bias[...] = flat[pos:pos + b_size]
        pos += b_size


def backward_reference(net, x, upstream):
    """Backpropagation that recomputes every activation from its pre-activation."""
    inputs, zs, a = [], [], x
    for layer in net.layers:
        inputs.append(a)
        z = a @ layer.weights + layer.bias
        zs.append(z)
        a = {"identity": lambda v: v, "relu": lambda v: np.maximum(v, 0.0),
             "tanh": np.tanh, "softmax": softmax}[layer.activation](z)
    grads, da = [None] * len(net.layers), upstream
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.activation == "identity":
            dz = da
        elif layer.activation == "relu":
            dz = da * (zs[i] > 0.0)
        elif layer.activation == "tanh":
            t = np.tanh(zs[i])
            dz = da * (1.0 - t * t)
        else:
            dz = a * (da - np.einsum("ij,ij->i", da, a)[:, None])
        grads[i] = (inputs[i].T @ dz, dz.sum(axis=0))
        da = dz @ layer.weights.T
    return grads, da


class TestForward:
    def test_identity_single_layer(self):
        net = DenseNet([Layer(np.eye(3), np.zeros(3), "identity")])
        x = Rng(1).normal(0, 1, (4, 3))
        npt.assert_array_equal(net.forward(x), x)

    def test_relu_kills_negative_input(self):
        net = DenseNet([Layer(np.eye(2), np.zeros(2), "relu")])
        npt.assert_array_equal(net.forward(-np.ones((3, 2))), np.zeros((3, 2)))

    def test_two_layer_hand_computation(self):
        w1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        b1 = np.array([0.5, -0.5])
        w2 = np.array([[1.0, -1.0], [0.5, 0.5]])
        b2 = np.array([0.0, 1.0])
        net = DenseNet([Layer(w1, b1, "identity"), Layer(w2, b2, "identity")])
        x = np.array([[1.0, 1.0]])
        # z1 = [1+3+0.5, 2+4-0.5] = [4.5, 5.5]
        # z2 = [4.5 + 2.75, -4.5 + 2.75 + 1] = [7.25, -0.75]
        npt.assert_allclose(net.forward(x), [[7.25, -0.75]])

    def test_dimension_mismatch(self):
        net = make_net([3, 2], ["tanh"])
        with pytest.raises(ArgumentError):
            net.forward(np.zeros((4, 5)))

    def test_deterministic_and_bitwise_identical(self):
        a = make_net([4, 8, 3], ["tanh", "identity"], seed=9)
        b = make_net([4, 8, 3], ["tanh", "identity"], seed=9)
        x = Rng(2).normal(0, 1, (6, 4))
        out_a, out_b = a.forward(x), b.forward(x)
        assert out_a.tobytes() == out_b.tobytes()

    def test_softmax_only_final(self):
        with pytest.raises(ArgumentError):
            DenseNet([
                Layer(np.eye(2), np.zeros(2), "softmax"),
                Layer(np.eye(2), np.zeros(2), "identity"),
            ])


class TestBackward:
    def test_requires_forward(self):
        net = make_net([2, 2], ["identity"])
        with pytest.raises(StateError):
            net.backward(np.zeros((1, 2)))

    def test_linear_least_squares_closed_form(self):
        net = make_net([3, 2], ["identity"], seed=4)
        x = Rng(5).normal(0, 1, (4, 3))
        y = Rng(6).normal(0, 1, (4, 2))
        pred = net.forward(x)
        # loss = sum((xW + b - y)^2): dW = 2 x^T (pred - y), db = 2 sum(pred - y)
        grads, _ = net.backward(2.0 * (pred - y))
        npt.assert_allclose(grads[0][0], 2.0 * x.T @ (pred - y), atol=1e-12)
        npt.assert_allclose(grads[0][1], 2.0 * (pred - y).sum(axis=0), atol=1e-12)

    def test_zero_upstream_zero_gradients(self):
        net = make_net([3, 4, 2], ["relu", "identity"], seed=7)
        net.forward(Rng(8).normal(0, 1, (5, 3)))
        grads, input_grad = net.backward(np.zeros((5, 2)))
        for dw, db in grads:
            npt.assert_array_equal(dw, np.zeros_like(dw))
            npt.assert_array_equal(db, np.zeros_like(db))
        npt.assert_array_equal(input_grad, np.zeros((5, 3)))

    @pytest.mark.parametrize("seed", range(10))
    def test_param_gradients_match_finite_differences(self, seed):
        rng = Rng(seed)
        activations = [
            ["tanh", "identity"], ["relu", "identity"],
            ["identity", "tanh"], ["tanh", "softmax"],
        ][seed % 4]
        net = make_net([3, 5, 4], activations, seed=seed)
        x = rng.normal(0, 1, (6, 3))
        labels = np.asarray(rng.integers(0, 4, size=6))

        def loss_at(flat):
            probe = net.copy()
            set_params(probe, flat)
            out = probe.forward(x)
            if activations[-1] == "softmax":
                n = out.shape[0]
                return float(-np.log(out[np.arange(n), labels]).mean())
            loss, _ = cross_entropy_softmax(out, labels)
            return loss

        out = net.forward(x)
        if activations[-1] == "softmax":
            n = out.shape[0]
            upstream = np.zeros_like(out)
            upstream[np.arange(n), labels] = -1.0 / (n * out[np.arange(n), labels])
        else:
            _, upstream = cross_entropy_softmax(out, labels)
        grads, _ = net.backward(upstream)
        analytic = np.concatenate([
            np.concatenate([dw.ravel(), db.ravel()]) for dw, db in grads
        ])
        numeric = central_difference(loss_at, flatten_params(net), step=1e-5)
        assert relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_input_gradients_match_finite_differences(self, seed):
        net = make_net([4, 6, 3], ["tanh", "identity"], seed=100 + seed)
        x = Rng(200 + seed).normal(0, 1, (5, 4))
        labels = np.asarray(Rng(300 + seed).integers(0, 3, size=5))

        def loss_at(x_flat):
            out = net.copy().forward(x_flat.reshape(5, 4))
            loss, _ = cross_entropy_softmax(out, labels)
            return loss

        _, upstream = cross_entropy_softmax(net.forward(x), labels)
        _, input_grad = net.backward(upstream)
        numeric = central_difference(loss_at, x.ravel(), step=1e-5).reshape(5, 4)
        assert relative_error(input_grad, numeric) < 1e-4

    @pytest.mark.parametrize("activations", [
        ["tanh", "tanh", "identity"], ["relu", "tanh", "tanh"], ["tanh", "identity", "softmax"],
    ])
    def test_bit_equal_to_recomputing_reference(self, activations):
        net = make_net([5, 8, 6, 3], activations, seed=31)
        x = Rng(32).normal(0, 1, (12, 5))
        upstream = Rng(33).normal(0, 1, (12, 3))
        net.forward(x)
        grads, input_grad = net.backward(upstream)
        ref_grads, ref_input_grad = backward_reference(net, x, upstream)
        for (dw, db), (ref_dw, ref_db) in zip(grads, ref_grads):
            assert np.array_equal(dw, ref_dw) and np.array_equal(db, ref_db)
        assert np.array_equal(input_grad, ref_input_grad)

    def test_backward_consumes_cache(self):
        net = make_net([2, 2], ["identity"])
        net.forward(np.zeros((1, 2)))
        net.backward(np.zeros((1, 2)))
        with pytest.raises(StateError):
            net.backward(np.zeros((1, 2)))


class TestCrossEntropySoftmax:
    def test_uniform_logits_ln_c(self):
        for c in (2, 3, 10):
            loss, _ = cross_entropy_softmax(np.zeros((4, c)), [0] * 4)
            assert abs(loss - math.log(c)) < 1e-12

    def test_confident_correct_goes_to_zero(self):
        logits = np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        loss, _ = cross_entropy_softmax(logits, [0, 1])
        assert loss < 1e-10

    def test_matches_explicit_softmax_oracle(self):
        logits = Rng(13).normal(0, 2, (4, 3))
        labels = [2, 0, 1, 1]
        z = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        expected = -np.mean([math.log(probs[i, labels[i]]) for i in range(4)])
        loss, grad = cross_entropy_softmax(logits, labels)
        assert abs(loss - expected) < 1e-12
        onehot = np.zeros((4, 3))
        onehot[np.arange(4), labels] = 1.0
        npt.assert_allclose(grad, (probs - onehot) / 4, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ArgumentError):
            cross_entropy_softmax(np.zeros((2, 3)), [0, 3])


class TestSgdStep:
    def config(self, lr=0.1, wd=0.0):
        return TrainingSection(learning_rate=lr, batch_size=2, epochs=1, weight_decay=wd)

    def test_zero_grad_zero_decay_fixed_point(self):
        net = make_net([2, 2], ["identity"], seed=3)
        before = flatten_params(net).copy()
        grads = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
        sgd_step(net, grads, self.config())
        npt.assert_array_equal(flatten_params(net), before)

    def test_single_scalar_step(self):
        net = DenseNet([Layer(np.array([[1.0]]), np.zeros(1), "identity")])
        sgd_step(net, [(np.array([[1.0]]), np.zeros(1))], self.config(lr=0.1))
        assert abs(net.layers[0].weights[0, 0] - 0.9) < 1e-15

    def test_weight_decay_term(self):
        net = DenseNet([Layer(np.array([[1.0]]), np.zeros(1), "identity")])
        sgd_step(net, [(np.zeros((1, 1)), np.zeros(1))], self.config(lr=0.1, wd=0.1))
        assert abs(net.layers[0].weights[0, 0] - 0.99) < 1e-15

    def test_shape_mismatch(self):
        net = make_net([2, 2], ["identity"])
        with pytest.raises(ArgumentError):
            sgd_step(net, [(np.zeros((3, 3)), np.zeros(2))], self.config())

    def test_training_config_validation(self):
        with pytest.raises(ConfigError, match="training.learning_rate must be positive"):
            TrainingSection(learning_rate=0.0, batch_size=4, epochs=1)
        with pytest.raises(ConfigError, match="training.batch_size must be at least 2"):
            TrainingSection(learning_rate=0.1, batch_size=1, epochs=1)


class TestTrainerSanity:
    def test_separable_two_class_loss_decreases_monotonically(self):
        rng = Rng(17)
        n = 40
        x = np.vstack([
            rng.normal(0, 0.2, (n // 2, 2)) + np.array([2.0, 0.0]),
            rng.normal(0, 0.2, (n // 2, 2)) + np.array([-2.0, 0.0]),
        ])
        y = np.array([0] * (n // 2) + [1] * (n // 2))
        net = make_net([2, 8, 2], ["tanh", "identity"], seed=23)
        config = TrainingSection(learning_rate=1e-2, batch_size=n, epochs=1, weight_decay=0.0)
        losses = []
        for _ in range(50):
            loss, grad = cross_entropy_softmax(net.forward(x), y)
            losses.append(loss)
            grads, _ = net.backward(grad)
            sgd_step(net, grads, config)
        assert all(a > b for a, b in zip(losses, losses[1:]))


class TestSquaredError:
    def test_value_and_gradient(self):
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.zeros((2, 2))
        loss, grad = squared_error(pred, target)
        assert abs(loss - (1 + 4 + 9 + 16) / 4) < 1e-12
        npt.assert_allclose(grad, 2 * pred / 4)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = make_net([3, 5, 2], ["tanh", "identity"], seed=31)
        path = tmp_path / "net.bin"
        save_checkpoint(net, path)
        restored = load_checkpoint(path)
        assert restored.dims == net.dims
        for a, b in zip(net.layers, restored.layers):
            npt.assert_array_equal(a.weights, b.weights)
            npt.assert_array_equal(a.bias, b.bias)
            assert a.activation == b.activation

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_corruption_fails_checksum(self, tmp_path):
        net = make_net([3, 2], ["identity"], seed=1)
        path = tmp_path / "net.bin"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)
