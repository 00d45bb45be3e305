"""The flat two-layer network, its Adam optimizer and the one softmax,
each against an oracle written out here."""

import numpy as np
import pytest

from envswitch.mlp import Adam, TwoLayerNet, softmax


def shifted_softmax(z):
    """The oracle: the max-shifted ``e / e.sum(axis=-1, keepdims=True)``."""
    z = np.asarray(z, dtype=float)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TensorAdam:
    """The reference optimizer: Adam kept per named tensor, as a dict."""

    def __init__(self, net, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(a) for k, a in net.tensors().items()}
        self.v = {k: np.zeros_like(a) for k, a in net.tensors().items()}
        self.t = 0

    def step(self, net, grads: dict):
        self.t += 1
        new = {}
        for k, param in net.tensors().items():
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * grads[k]
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * grads[k] ** 2
            mhat = self.m[k] / (1.0 - self.beta1 ** self.t)
            vhat = self.v[k] / (1.0 - self.beta2 ** self.t)
            new[k] = param - self.lr * mhat / (np.sqrt(vhat) + self.eps)
        return TwoLayerNet.from_tensors(new)


def logits(rng, shape):
    """Random, tied, +-700 and NaN logits of ``shape`` (..., k)."""
    k = shape[-1]
    z = rng.normal(0.0, 3.0, shape)
    z[..., 0, :] = 1.5                                   # a fully tied row
    z[..., 1, :] = rng.choice([-700.0, 700.0], k)        # exp(-1400) underflows
    z[..., 2, :k // 2 + 1] = z[..., 2, -1:]              # ties with the last
    z[..., 3, -1] = np.nan
    z[..., 4, 0] = np.nan
    return z


class TestSoftmax:
    def test_rows_equal_the_shifted_quotient_bit_for_bit(self, rng):
        for k in range(1, 8):
            for shape in ((6, k), (40, k), (2, 7, k)):
                z = logits(rng, shape)
                assert softmax(z).tobytes() == shifted_softmax(z).tobytes(), shape
                for row in z.reshape(-1, k):
                    assert softmax(row).tobytes() == shifted_softmax(row).tobytes(), row
                # a NaN's sign is numpy's to choose: only where NaNs fall is compared
                z[..., 4, 0] = -np.nan
                assert np.array_equal(softmax(z), shifted_softmax(z), equal_nan=True)

    def test_a_column_slice_equals_its_copy(self, rng):
        out = rng.normal(0.0, 2.0, (651, 5))
        assert softmax(out[:, :4]).tobytes() == softmax(out[:, :4].copy()).tobytes()
        assert softmax(out[:, :4]).tobytes() == shifted_softmax(out[:, :4]).tobytes()


class TestFlatNetwork:
    def test_tensors_are_views_of_the_flat_vector(self, rng):
        net = TwoLayerNet.from_seed(3, 4, 2, seed=1)
        net.params[:] = rng.normal(size=net.params.size)
        tensors = net.tensors()
        assert [a.shape for a in tensors.values()] == [(4, 3), (4,), (2, 4), (2,)]
        assert all(np.shares_memory(a, net.params) for a in tensors.values())
        back = TwoLayerNet.from_tensors(tensors)
        assert back.params.tobytes() == net.params.tobytes()
        assert np.concatenate([a.ravel() for a in tensors.values()]).tobytes() \
            == net.to_vector().tobytes()
        # to_vector and copy own their memory; from_vector keeps its vector
        assert not np.shares_memory(net.to_vector(), net.params)
        assert not np.shares_memory(net.copy().params, net.params)
        vec = net.to_vector()
        assert net.from_vector(vec).params is vec

    def test_from_vector_refuses_another_size(self):
        net = TwoLayerNet.zeros(3, 4, 2)
        with pytest.raises(ValueError, match="expected 26 values, got 25"):
            net.from_vector(np.zeros(25))

    def test_backward_matches_finite_differences(self, rng):
        net = TwoLayerNet.from_seed(3, 4, 2, seed=2)
        x = rng.normal(size=(5, 3))
        dy = rng.normal(size=(5, 2))

        def loss(vec):
            return float(np.sum(dy * net.from_vector(vec).forward(x)[0]))

        grad = net.backward(net.forward(x)[1], dy)
        assert grad.shape == net.params.shape
        h = 1e-6
        fd = [(loss(net.params + h * e) - loss(net.params - h * e)) / (2 * h)
              for e in np.eye(net.params.size)]
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)
        # a single row is a batch of one
        single = net.backward(net.forward(x[0])[1], dy[0])
        assert single.tobytes() == net.backward(net.forward(x[:1])[1], dy[:1]).tobytes()


class TestAdam:
    def test_equals_the_per_tensor_optimizer_bit_for_bit(self, rng):
        flat = named = TwoLayerNet.from_seed(4, 6, 3, seed=4)
        x = rng.normal(size=(9, 4))
        target = rng.normal(size=(9, 3))
        flat_opt, named_opt = Adam(flat, lr=0.05), TensorAdam(named, lr=0.05)
        for _ in range(20):
            grads = []
            for net in (flat, named):
                y, cache = net.forward(x)
                grads.append(net.backward(cache, 2.0 * (y - target) / len(x)))
            flat = flat_opt.step(flat, grads[0])
            named = named_opt.step(named, named.from_vector(grads[1]).tensors())
            assert flat.params.tobytes() == named.params.tobytes()
        assert not np.array_equal(flat.params, TwoLayerNet.from_seed(4, 6, 3, seed=4).params)
