"""Autograd correctness: every op checked against numerical gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, no_grad


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn(x)
        flat[i] = orig - eps
        minus = fn(x)
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * eps)
    return grad


def check_grad(build, x0, atol=1e-5):
    """build(Tensor) -> scalar Tensor; compares autograd vs numerical."""
    t = Tensor(x0.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    num = numerical_grad(lambda arr: build(Tensor(arr)).item(), x0.copy())
    assert np.allclose(t.grad, num, atol=atol), f"grad mismatch: {t.grad} vs {num}"


RNG = np.random.default_rng(0)


class TestElementwise:
    def test_add(self):
        check_grad(lambda t: (t + 3.0).sum(), RNG.normal(size=(3, 4)))

    def test_mul(self):
        check_grad(lambda t: (t * t).sum(), RNG.normal(size=(3, 4)))

    def test_div(self):
        check_grad(lambda t: (t / 2.5).sum(), RNG.normal(size=(4,)))

    def test_rdiv(self):
        x = RNG.uniform(1.0, 2.0, size=(4,))
        check_grad(lambda t: (1.0 / t).sum(), x)

    def test_pow(self):
        x = RNG.uniform(0.5, 2.0, size=(5,))
        check_grad(lambda t: (t**3).sum(), x)

    def test_neg_sub(self):
        check_grad(lambda t: (5.0 - t).sum(), RNG.normal(size=(3,)))

    def test_exp_log(self):
        x = RNG.uniform(0.5, 2.0, size=(4,))
        check_grad(lambda t: (t.exp() + t.log()).sum(), x)

    def test_relu(self):
        x = RNG.normal(size=(10,))
        x[np.abs(x) < 1e-3] = 0.5  # keep away from the kink
        check_grad(lambda t: (t.relu() * 2.0).sum(), x)

    def test_tanh_sigmoid(self):
        check_grad(lambda t: (t.tanh() + t.sigmoid()).sum(), RNG.normal(size=(6,)))


class TestBroadcastingAndMatmul:
    def test_broadcast_add(self):
        a0 = RNG.normal(size=(3, 4))
        b0 = RNG.normal(size=(4,))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_matmul(self):
        w0 = RNG.normal(size=(4, 2))
        x0 = RNG.normal(size=(3, 4))

        def f(t):
            return (t @ Tensor(w0)).sum()

        check_grad(f, x0)

    def test_matmul_weight_grad(self):
        x0 = RNG.normal(size=(3, 4))
        w0 = RNG.normal(size=(4, 2))
        w = Tensor(w0.copy(), requires_grad=True)
        (Tensor(x0) @ w).sum().backward()
        num = numerical_grad(lambda arr: (Tensor(x0) @ Tensor(arr)).sum().item(), w0.copy())
        assert np.allclose(w.grad, num, atol=1e-5)

    def test_batched_matmul(self):
        x0 = RNG.normal(size=(2, 3, 4))
        w0 = RNG.normal(size=(4, 5))
        check_grad(lambda t: ((t @ Tensor(w0)) ** 2).sum(), x0)


class TestReductionsAndShape:
    def test_sum_axis(self):
        check_grad(lambda t: (t.sum(axis=0) ** 2).sum(), RNG.normal(size=(3, 4)))

    def test_mean(self):
        check_grad(lambda t: (t.mean(axis=1) ** 2).sum(), RNG.normal(size=(3, 4)))

    def test_max_axis(self):
        x = RNG.normal(size=(4, 5))
        check_grad(lambda t: (t.max(axis=1) * 2.0).sum(), x)

    def test_max_routes_to_single_argmax_on_ties(self):
        x = np.ones((1, 3))
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        assert t.grad.sum() == 1.0  # not 3.0

    def test_reshape(self):
        check_grad(lambda t: (t.reshape(6) ** 2).sum(), RNG.normal(size=(2, 3)))

    def test_transpose(self):
        check_grad(lambda t: (t.transpose(1, 0) ** 2).sum(), RNG.normal(size=(2, 3)))

    def test_take_gather(self):
        x0 = RNG.normal(size=(5, 3))
        idx = np.array([[0, 1], [1, 1]])
        check_grad(lambda t: (t.take(idx) ** 2).sum(), x0)

    def test_take_repeated_indices_accumulate(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        x.take(np.array([0, 0, 0])).sum().backward()
        assert np.allclose(x.grad[0], 3.0)
        assert np.allclose(x.grad[1:], 0.0)

    def test_concat(self):
        a0 = RNG.normal(size=(2, 3))
        b0 = RNG.normal(size=(2, 2))
        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        a.concat([b], axis=1).sum().backward()
        assert np.allclose(a.grad, 1.0) and np.allclose(b.grad, 1.0)


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        assert np.allclose(x.grad, 7.0)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(1)).backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad

    def test_diamond_graph(self):
        # f(x) = (x*2) + (x*2) reuses a node; gradient must not double-count.
        x = Tensor(np.array([1.0]), requires_grad=True)
        a = x * 2.0
        y = a + a
        y.backward()
        assert np.allclose(x.grad, 4.0)

    def test_deep_chain(self):
        x = Tensor(np.array([1.001]), requires_grad=True)
        y = x
        for _ in range(50):
            y = y * 1.0 + 0.0
        y.backward()
        assert np.allclose(x.grad, 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_property_composite_expression_grad(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.2, 1.5, size=(3, 3))

    def f(t):
        return ((t @ Tensor(np.eye(3))).relu().sum(axis=0) ** 2).mean()

    check_grad(f, x0, atol=1e-4)
