"""Minimal two-layer tanh network with hand-written backprop.

One small architecture covers every learned map in the engine (filter
selector, handover policy, feedback reward model): an affine layer, tanh,
and a second affine layer.  Everything is plain float64 numpy so training
is bit-reproducible given a seed.  Only this module knows the layout of
the flat parameter vector that gradients and optimizer moments share.
"""

import functools

import numpy as np


class TwoLayerNet:
    """y = w2 @ tanh(w1 @ x + b1) + b2, with batched forward/backward.

    ``params`` holds every parameter in one flat vector laid out (w1, b1,
    w2, b2), and ``w1`` ... ``b2`` are reshaped views of it; gradients and
    ``Adam``'s moments are flat vectors of the same layout."""

    __slots__ = ("params", "shape", "w1", "b1", "w2", "b2")

    def __init__(self, params, shape):
        """The network of ``shape`` (n_in, n_hidden, n_out) whose parameters
        are ``params``, kept itself, not copied."""
        n_in, n_hidden, n_out = self.shape = tuple(shape)
        self.params = np.asarray(params, dtype=float)
        a, b = n_hidden * n_in, n_hidden * (n_in + 1)
        c = b + n_out * n_hidden
        if self.params.shape != (c + n_out,):
            raise ValueError(f"expected {c + n_out} values, got {self.params.size}")
        self.w1 = self.params[:a].reshape(n_hidden, n_in)
        self.b1 = self.params[a:b]
        self.w2 = self.params[b:c].reshape(n_out, n_hidden)
        self.b2 = self.params[c:]

    @classmethod
    def from_seed(cls, n_in: int, n_hidden: int, n_out: int,
                  seed: int) -> "TwoLayerNet":
        """Gaussian weights with std 0.3 / sqrt(fan-in), zero biases."""
        rng = np.random.default_rng(seed)
        w1 = rng.normal(0.0, 0.3 / np.sqrt(n_in), size=(n_hidden, n_in))
        w2 = rng.normal(0.0, 0.3 / np.sqrt(n_hidden), size=(n_out, n_hidden))
        return cls.from_tensors({"w1": w1, "b1": np.zeros(n_hidden),
                                 "w2": w2, "b2": np.zeros(n_out)})

    @classmethod
    def zeros(cls, n_in: int, n_hidden: int, n_out: int) -> "TwoLayerNet":
        return cls(np.zeros(n_hidden * (n_in + 1) + n_out * (n_hidden + 1)),
                   (n_in, n_hidden, n_out))

    def copy(self) -> "TwoLayerNet":
        return self.from_vector(self.to_vector())

    def forward(self, x):
        """Return (y, cache).  x is (n_in,) or (batch, n_in)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xb = x[None, :] if single else x
        h = np.tanh(xb @ self.w1.T + self.b1)
        y = h @ self.w2.T + self.b2
        cache = (xb, h)
        return (y[0] if single else y), cache

    def backward(self, cache, dy) -> np.ndarray:
        """The gradient of sum(dy * y) w.r.t. ``params``, in its layout."""
        xb, h = cache
        dy = np.asarray(dy, dtype=float)
        dyb = dy[None, :] if dy.ndim == 1 else dy
        dh = (dyb @ self.w2) * (1.0 - h * h)
        return np.concatenate([(dh.T @ xb).ravel(), dh.sum(axis=0),
                               (dyb.T @ h).ravel(), dyb.sum(axis=0)])

    def to_vector(self) -> np.ndarray:
        return self.params.copy()

    def from_vector(self, vec) -> "TwoLayerNet":
        """The network of this shape whose parameters are ``vec``, kept itself."""
        return TwoLayerNet(vec, self.shape)

    def step(self, grads: np.ndarray, lr: float) -> "TwoLayerNet":
        """One plain gradient-descent step; returns a new network."""
        return self.from_vector(self.params - lr * grads)

    def tensors(self, prefix: str = "") -> dict:
        return {prefix + "w1": self.w1, prefix + "b1": self.b1,
                prefix + "w2": self.w2, prefix + "b2": self.b2}

    @classmethod
    def from_tensors(cls, tensors: dict, prefix: str = "") -> "TwoLayerNet":
        """The network ``tensors(prefix)`` wrote; refuses a missing tensor or unchained shapes."""
        names = [prefix + k for k in ("w1", "b1", "w2", "b2")]
        w1, b1, w2, b2 = arrays = [np.asarray(a, dtype=float)
                                   for a in pick_tensors(tensors, names)]
        if not (w1.ndim == 2 and b1.shape == w1.shape[:1] and b2.ndim == 1
                and w2.shape == b2.shape + b1.shape):
            raise ValueError("tensors " + ", ".join(f"{n} {a.shape}" for n, a in zip(names, arrays))
                             + " are not (h, n_in), (h,), (n_out, h), (n_out,)")
        return cls(np.concatenate([a.ravel() for a in arrays]), (w1.shape[1],) + w2.shape[::-1])


def pick_tensors(tensors: dict, names) -> list:
    """The tensors of ``names``, in order; a missing one raises ValueError."""
    for name in names:
        if name not in tensors:
            raise ValueError(f"missing tensor {name}")
    return [tensors[name] for name in names]


class Adam:
    """Per-parameter adaptive steps; keeps policy and value scales balanced."""

    def __init__(self, net: TwoLayerNet, lr: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        self.t = 0

    def step(self, net: TwoLayerNet, grads: np.ndarray) -> TwoLayerNet:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grads
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grads ** 2
        mhat = self.m / (1.0 - self.beta1 ** self.t)
        vhat = self.v / (1.0 - self.beta2 ** self.t)
        return net.from_vector(net.params - self.lr * mhat / (np.sqrt(vhat) + self.eps))


def softmax(z):
    """The softmax of ``z`` along its last axis, shifted by the max.

    A 1-D ``z`` takes Python's max of its entries, one ``np.exp`` and
    ``np.add.reduce``.  A batch takes its maxima with ``np.maximum`` and
    adds its columns left to right, one at a time: for fewer than 8
    columns that is the sum numpy's own last-axis reduction makes, so
    each row equals the softmax of that row alone, at less cost."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        e = np.exp(z - max(z.tolist()))
        return e / np.add.reduce(e)
    top = functools.reduce(np.maximum, np.moveaxis(z, -1, 0))
    e = np.exp(z - top[..., None])
    return e / functools.reduce(np.add, np.moveaxis(e, -1, 0))[..., None]


def softmax_backward(p, dp):
    """dz for z -> p = softmax(z), given dL/dp.  Works on 1-D inputs."""
    p = np.asarray(p, dtype=float)
    dp = np.asarray(dp, dtype=float)
    return p * (dp - float(np.dot(p, dp)))
