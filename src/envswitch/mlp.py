"""Minimal two-layer tanh network with hand-written backprop.

One small architecture covers every learned map in the engine (filter
selector, handover policy, feedback reward model): an affine layer, tanh,
and a second affine layer.  Everything is plain float64 numpy so training
is bit-reproducible given a seed.
"""

import numpy as np


class TwoLayerNet:
    """y = w2 @ tanh(w1 @ x + b1) + b2, with batched forward/backward."""

    __slots__ = ("w1", "b1", "w2", "b2")

    def __init__(self, w1, b1, w2, b2):
        self.w1 = np.asarray(w1, dtype=float)
        self.b1 = np.asarray(b1, dtype=float)
        self.w2 = np.asarray(w2, dtype=float)
        self.b2 = np.asarray(b2, dtype=float)

    @classmethod
    def from_seed(cls, n_in: int, n_hidden: int, n_out: int,
                  seed: int) -> "TwoLayerNet":
        """Gaussian weights with std 0.3 / sqrt(fan-in), zero biases."""
        rng = np.random.default_rng(seed)
        w1 = rng.normal(0.0, 0.3 / np.sqrt(n_in), size=(n_hidden, n_in))
        w2 = rng.normal(0.0, 0.3 / np.sqrt(n_hidden), size=(n_out, n_hidden))
        return cls(w1, np.zeros(n_hidden), w2, np.zeros(n_out))

    @classmethod
    def zeros(cls, n_in: int, n_hidden: int, n_out: int) -> "TwoLayerNet":
        return cls(np.zeros((n_hidden, n_in)), np.zeros(n_hidden),
                   np.zeros((n_out, n_hidden)), np.zeros(n_out))

    def copy(self) -> "TwoLayerNet":
        return TwoLayerNet(self.w1.copy(), self.b1.copy(),
                           self.w2.copy(), self.b2.copy())

    def forward(self, x):
        """Return (y, cache).  x is (n_in,) or (batch, n_in)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xb = x[None, :] if single else x
        h = np.tanh(xb @ self.w1.T + self.b1)
        y = h @ self.w2.T + self.b2
        cache = (xb, h)
        return (y[0] if single else y), cache

    def backward(self, cache, dy) -> dict:
        """Gradients of sum(dy * y) w.r.t. the parameters, keyed by name."""
        xb, h = cache
        dy = np.asarray(dy, dtype=float)
        dyb = dy[None, :] if dy.ndim == 1 else dy
        dh = (dyb @ self.w2) * (1.0 - h * h)
        return {"w1": dh.T @ xb, "b1": dh.sum(axis=0),
                "w2": dyb.T @ h, "b2": dyb.sum(axis=0)}

    # -- flat parameter view (used by finite-difference checks and clipping) --

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.w1.ravel(), self.b1.ravel(),
                               self.w2.ravel(), self.b2.ravel()])

    def from_vector(self, vec) -> "TwoLayerNet":
        vec = np.asarray(vec, dtype=float)
        out, i = {}, 0
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(self, name)
            out[name] = vec[i:i + arr.size].reshape(arr.shape)
            i += arr.size
        if i != vec.size:
            raise ValueError(f"expected {i} values, got {vec.size}")
        return TwoLayerNet(out["w1"], out["b1"], out["w2"], out["b2"])

    def step(self, grads: dict, lr: float) -> "TwoLayerNet":
        """One plain gradient-descent step; returns a new network."""
        return TwoLayerNet(self.w1 - lr * grads["w1"], self.b1 - lr * grads["b1"],
                           self.w2 - lr * grads["w2"], self.b2 - lr * grads["b2"])

    def tensors(self, prefix: str = "") -> dict:
        return {prefix + "w1": self.w1, prefix + "b1": self.b1,
                prefix + "w2": self.w2, prefix + "b2": self.b2}

    @classmethod
    def from_tensors(cls, tensors: dict, prefix: str = "") -> "TwoLayerNet":
        """The network ``tensors(prefix)`` wrote; refuses a missing tensor or unchained shapes."""
        names = [prefix + k for k in ("w1", "b1", "w2", "b2")]
        w1, b1, w2, b2 = arrays = pick_tensors(tensors, names)
        if not (w1.ndim == 2 and b1.shape == w1.shape[:1] and b2.ndim == 1
                and w2.shape == b2.shape + b1.shape):
            raise ValueError("tensors " + ", ".join(f"{n} {a.shape}" for n, a in zip(names, arrays))
                             + " are not (h, n_in), (h,), (n_out, h), (n_out,)")
        return cls(*arrays)


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
        self.m = grads_zeros_like(net)
        self.v = grads_zeros_like(net)
        self.t = 0

    def step(self, net: TwoLayerNet, grads: dict) -> TwoLayerNet:
        self.t += 1
        new = {}
        for k in self.m:
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * grads[k]
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * grads[k] ** 2
            mhat = self.m[k] / (1.0 - self.beta1 ** self.t)
            vhat = self.v[k] / (1.0 - self.beta2 ** self.t)
            new[k] = getattr(net, k) - self.lr * mhat / (np.sqrt(vhat) + self.eps)
        return TwoLayerNet(new["w1"], new["b1"], new["w2"], new["b2"])


def grads_zeros_like(net: TwoLayerNet) -> dict:
    return {"w1": np.zeros_like(net.w1), "b1": np.zeros_like(net.b1),
            "w2": np.zeros_like(net.w2), "b2": np.zeros_like(net.b2)}


def grads_add(acc: dict, grads: dict) -> dict:
    for k in acc:
        acc[k] += grads[k]
    return acc


def grads_scale(grads: dict, scale: float) -> dict:
    return {k: v * scale for k, v in grads.items()}


def softmax(z):
    z = np.asarray(z, dtype=float)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(p, dp):
    """dz for z -> p = softmax(z), given dL/dp.  Works on 1-D inputs."""
    p = np.asarray(p, dtype=float)
    dp = np.asarray(dp, dtype=float)
    return p * (dp - float(np.dot(p, dp)))


def sigmoid(z):
    """1 / (1 + e) for z >= 0 and e / (1 + e) below, e = exp(-|z|) <= 1."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
