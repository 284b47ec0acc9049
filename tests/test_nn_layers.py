"""Tests for layers, losses, optimizers, and module machinery."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Adam,
    BatchNorm,
    Dropout,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Tensor,
    huber_loss,
    log_softmax,
    mse_loss,
    softmax_cross_entropy,
)


def rng():
    return np.random.default_rng(0)


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 8, rng())
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 8)

    def test_shared_mlp_over_leading_axes(self):
        layer = Linear(4, 8, rng())
        out = layer(Tensor(np.ones((2, 7, 4))))
        assert out.shape == (2, 7, 8)

    def test_rejects_wrong_width(self):
        layer = Linear(4, 8, rng())
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((5, 3))))

    def test_gradients_reach_parameters(self):
        layer = Linear(3, 2, rng())
        loss = (layer(Tensor(np.ones((4, 3)))) ** 2).sum()
        loss.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestBatchNorm:
    def test_normalizes_training_batch(self):
        bn = BatchNorm(4)
        x = Tensor(np.random.default_rng(1).normal(5.0, 3.0, size=(64, 4)))
        out = bn(x)
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=0), 1.0, atol=1e-2)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(2, momentum=1.0)
        x = np.random.default_rng(2).normal(3.0, 2.0, size=(256, 2))
        bn(Tensor(x))  # one training pass with momentum 1 adopts batch stats
        bn.eval()
        out = bn(Tensor(x))
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-2)

    def test_differentiable(self):
        bn = BatchNorm(3)
        x = Tensor(np.random.default_rng(3).normal(size=(8, 3)), requires_grad=True)
        bn(x).sum().backward()
        assert x.grad is not None
        assert bn.gamma.grad is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchNorm(0)
        with pytest.raises(ValueError):
            BatchNorm(4, momentum=0.0)


class TestDropout:
    def test_identity_at_eval(self):
        d = Dropout(0.5)
        d.eval()
        x = np.ones((10, 10))
        assert np.array_equal(d(Tensor(x)).data, x)

    def test_scales_at_train(self):
        d = Dropout(0.5, rng=np.random.default_rng(0))
        out = d(Tensor(np.ones((100, 100))))
        # Inverted dropout preserves the expectation.
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_default_layers_draw_independent_masks(self):
        # Regression: default-constructed layers each used to build their
        # own default_rng(0), so stacked dropout layers masked identical
        # positions every step (perfectly correlated masking).
        a, b = Dropout(0.5), Dropout(0.5)
        x = Tensor(np.ones((64, 64)))
        assert not np.array_equal(a(x).data, b(x).data)

    def test_explicit_rng_still_reproducible(self):
        x = Tensor(np.ones((32, 32)))
        out1 = Dropout(0.5, rng=np.random.default_rng(7))(x)
        out2 = Dropout(0.5, rng=np.random.default_rng(7))(x)
        assert np.array_equal(out1.data, out2.data)


class TestSequentialAndMLP:
    def test_sequential_composes(self):
        net = Sequential(Linear(3, 5, rng()), ReLU(), Linear(5, 2, rng()))
        out = net(Tensor(np.ones((4, 3))))
        assert out.shape == (4, 2)
        assert len(net) == 3

    def test_mlp_builder(self):
        net = MLP([3, 16, 8], rng())
        out = net(Tensor(np.ones((4, 3))))
        assert out.shape == (4, 8)

    def test_mlp_no_final_activation(self):
        net = MLP([3, 16, 8], rng(), final_activation=False)
        out = net(Tensor(np.random.default_rng(1).normal(size=(40, 3))))
        assert (out.data < 0).any()  # logits can be negative

    def test_mlp_needs_two_widths(self):
        with pytest.raises(ValueError):
            MLP([3], rng())


class TestModuleMachinery:
    def make(self):
        return Sequential(Linear(3, 4, rng()), ReLU(), Linear(4, 2, rng()))

    def test_parameters_found_in_lists(self):
        net = self.make()
        assert len(net.parameters()) == 4  # 2 weights + 2 biases

    def test_train_eval_propagates(self):
        net = self.make()
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad(self):
        net = self.make()
        (net(Tensor(np.ones((2, 3)))) ** 2).sum().backward()
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestLosses:
    def test_log_softmax_normalizes(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        logp = log_softmax(logits)
        assert np.allclose(np.exp(logp.data).sum(axis=-1), 1.0)

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = softmax_cross_entropy(logits, np.array([0, 1, 2]))
        assert loss.item() == pytest.approx(np.log(4))

    def test_cross_entropy_segmentation_shape(self):
        logits = Tensor(np.zeros((2, 5, 3)))
        labels = np.zeros((2, 5), dtype=int)
        assert softmax_cross_entropy(logits, labels).item() == pytest.approx(np.log(3))

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(3, dtype=int))

    def test_mse(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = mse_loss(pred, np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)
        loss.backward()
        assert np.allclose(pred.grad, [1.0, 2.0])

    def test_huber_small_equals_half_mse(self):
        pred = Tensor(np.array([0.5]), requires_grad=True)
        assert huber_loss(pred, np.array([0.0])).item() == pytest.approx(0.125)

    def test_huber_large_is_linear(self):
        pred = Tensor(np.array([10.0]))
        assert huber_loss(pred, np.array([0.0])).item() == pytest.approx(9.5)


class TestOptimizers:
    def quadratic_problem(self):
        w = Parameter(np.array([5.0, -3.0]))
        return w

    def test_adam_converges_on_quadratic(self):
        w = self.quadratic_problem()
        opt = Adam([w], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            (w * w).sum().backward()
            opt.step()
        assert np.abs(w.data).max() < 1e-2

    def test_weight_decay_shrinks(self):
        w = Parameter(np.array([1.0]))
        opt = Adam([w], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (w * 0.0).sum().backward()
        opt.step()
        assert w.data[0] < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=-1)
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], betas=(1.0, 0.9))

    def test_training_loop_learns_xor(self):
        # End-to-end sanity: a 2-layer net learns XOR.
        rng_local = np.random.default_rng(4)
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        net = Sequential(
            Linear(2, 8, rng_local), ReLU(), Linear(8, 2, rng_local)
        )
        opt = Adam(net.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            loss = softmax_cross_entropy(net(Tensor(x)), y)
            loss.backward()
            opt.step()
        pred = net(Tensor(x)).data.argmax(axis=1)
        assert np.array_equal(pred, y)
