"""Adaptive denoising bank and the learned per-window filter selector.

Three scalar denoisers (constant-state Kalman, truncated Gaussian, exponential
low-pass) plus a small network that maps window context (RSSI variance, scan
age, step rate, modality presence) to a distribution over the three filters
and their coefficients.  At inference the argmax filter runs
(``denoise_matrix``) down every column of a window, or of a whole stack of
windows at once, into an output of its own: no filter keeps buffers between
calls.  The scalar ``apply_*`` functions define each filter and are the
reference the batched ones equal bit for bit.  During training a soft
mixture of all three keeps the selection differentiable
(``soft_denoise_matrix``, along the same axis of any stack of windows), and
each filter carries analytic derivatives w.r.t. its own coefficient, run
forward with vector state over the columns, so gradients reach the selector
parameters.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import FilterConfig
from .mlp import TwoLayerNet, grads_add, grads_scale, grads_zeros_like, sigmoid, softmax, softmax_backward
from .serialize import dump_tensors, parse_tensors

FILTER_ORDER = ("kalman", "gaussian", "elp")
CONTEXT_DIM = 8  # rssi_variance, scan_age, step_rate, presence x5


# ---------------------------------------------------------------------------
# the three denoisers
# ---------------------------------------------------------------------------


def apply_kalman(series, q: float, r: float, init_mean: float = 0.0,
                 init_var: float = 1.0) -> np.ndarray:
    """Scalar random-walk Kalman smoother.

    Predict: variance += q.  Update: gain = var / (var + r).  The state is
    the signal level itself, so the output is the filtered estimate per step.
    """
    if r <= 0.0:
        raise ValueError("kalman measurement variance r must be > 0")
    if q < 0.0:
        raise ValueError("kalman process variance q must be >= 0")
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("series must be nonempty")
    out = np.empty_like(x)
    mean, var = float(init_mean), float(init_var)
    for i, xi in enumerate(x):
        var = var + q
        gain = var / (var + r)
        mean = mean + gain * (xi - mean)
        var = (1.0 - gain) * var
        out[i] = mean
    return out


@functools.lru_cache(maxsize=64)
def _gaussian_offsets(radius: int):
    """The offsets -radius..radius and their negated squares; read-only."""
    offsets = np.arange(-radius, radius + 1)
    negated_squares = -(offsets.astype(float) ** 2)
    for a in (offsets, negated_squares):
        a.setflags(write=False)
    return offsets, negated_squares


def _gaussian_kernel(sigma: float):
    """Offsets and weights of the +-3 sigma truncated Gaussian."""
    offsets, negated_squares = _gaussian_offsets(max(1, int(math.ceil(3.0 * sigma))))
    return offsets, np.exp(negated_squares / (2.0 * sigma * sigma))


def apply_gaussian(series, sigma: float) -> np.ndarray:
    """Convolve with a +-3 sigma truncated Gaussian, renormalized at the edges."""
    if sigma <= 0.0:
        raise ValueError("gaussian sigma must be > 0")
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("series must be nonempty")
    offsets, weights = _gaussian_kernel(sigma)
    num = np.zeros_like(x)
    den = np.zeros_like(x)
    n = x.size
    for off, w in zip(offsets, weights):
        lo = max(0, -off)
        hi = min(n, n - off)
        if lo >= hi:
            continue
        num[lo:hi] += w * x[lo + off:hi + off]
        den[lo:hi] += w
    return num / den


def apply_elp(series, alpha: float) -> np.ndarray:
    """Exponential low-pass: y0 = x0; yi = alpha*xi + (1-alpha)*y(i-1)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("elp alpha must lie in (0, 1]")
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("series must be nonempty")
    out = np.empty_like(x)
    out[0] = x[0]
    for i in range(1, x.size):
        out[i] = alpha * x[i] + (1.0 - alpha) * out[i - 1]
    return out


# ---------------------------------------------------------------------------
# context, choice, selector
# ---------------------------------------------------------------------------


@dataclass
class FilterContext:
    """Window context the selector conditions on."""

    rssi_variance: float = 0.0
    scan_age: float = 0.0
    step_rate: float = 0.0
    presence: tuple = (True, True, True, True, True)

    def __post_init__(self):
        for v in (self.rssi_variance, self.scan_age, self.step_rate):
            if not math.isfinite(v) or v < 0.0:
                raise ValueError("context fields must be finite and nonnegative")
        if len(self.presence) != 5:
            raise ValueError("presence must hold 5 flags, one per modality")

    def features(self) -> np.ndarray:
        pres = [1.0 if p else 0.0 for p in self.presence]
        return np.array([self.rssi_variance, self.scan_age, self.step_rate] + pres)


@dataclass
class FilterChoice:
    """Distribution over the bank plus one coefficient set per filter."""

    weights: np.ndarray
    q: float
    r: float
    sigma: float
    alpha: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (3,):
            raise ValueError("weights must be a 3-vector over (kalman, gaussian, elp)")
        # checked on Python floats, each written so that a NaN fails it; the
        # sum adds in numpy's order for three terms
        k, g, e = self.weights.tolist()
        if not (k >= 0.0 and g >= 0.0 and e >= 0.0 and abs(k + g + e - 1.0) <= 1e-9):
            raise ValueError("weights must be nonnegative and sum to 1")
        # an infinite q, r or sigma would filter to NaN, to a flat copy of
        # the first row or overflow the Gaussian's radius
        if not (0.0 < self.r < math.inf and 0.0 <= self.q < math.inf
                and 0.0 < self.sigma < math.inf and 0.0 < self.alpha <= 1.0):
            raise ValueError("filter coefficients out of range")

    def hard_kind(self) -> str:
        # the first largest weight: ties break by the documented order
        # kalman < gaussian < elp
        w = self.weights.tolist()
        return FILTER_ORDER[w.index(max(w))]


@dataclass
class SelectorModel:
    """Two-layer map from context to 3 filter logits + 4 raw coefficients."""

    net: TwoLayerNet
    cfg: FilterConfig = field(default_factory=FilterConfig)

    @classmethod
    def from_seed(cls, seed: int, cfg: FilterConfig | None = None) -> "SelectorModel":
        cfg = cfg or FilterConfig()
        return cls(TwoLayerNet.from_seed(CONTEXT_DIM, cfg.hidden, 7, seed), cfg)

    @classmethod
    def zeros(cls, cfg: FilterConfig | None = None) -> "SelectorModel":
        cfg = cfg or FilterConfig()
        return cls(TwoLayerNet.zeros(CONTEXT_DIM, cfg.hidden, 7), cfg)

    def serialize(self) -> str:
        return dump_tensors(self.net.tensors("selector."))

    @classmethod
    def deserialize(cls, text: str, cfg: FilterConfig | None = None) -> "SelectorModel":
        return cls(TwoLayerNet.from_tensors(parse_tensors(text), "selector."),
                   cfg or FilterConfig())


def _squash(raw: np.ndarray, cfg: FilterConfig):
    """Map 4 raw outputs into the legal (q, r, sigma, alpha) boxes.  Returns
    the values, as a list of Python floats, and the sigmoids of ``raw``
    (``_squash_slopes`` reads them)."""
    s = sigmoid(raw)
    ranges = (cfg.q_range, cfg.r_range, cfg.sigma_range, cfg.alpha_range)
    # Python floats round every step as float64 scalars do, at less cost
    return [lo + (hi - lo) * si for (lo, hi), si in zip(ranges, s.tolist())], s


def _squash_slopes(s: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """d(value)/d(raw) of ``_squash``, from its sigmoids; training only."""
    ranges = (cfg.q_range, cfg.r_range, cfg.sigma_range, cfg.alpha_range)
    return np.array([(hi - lo) * si * (1.0 - si) for (lo, hi), si in zip(ranges, s)])


def select_filter(model: SelectorModel, ctx: FilterContext) -> FilterChoice:
    """Deterministic map (model, context) -> FilterChoice: the choice of
    ``selector_forward_training``, without the caches only training reads."""
    out, _ = model.net.forward(ctx.features())
    # ``softmax`` of the filter logits without its wrappers: Python's max of
    # them is numpy's, and ``np.add.reduce`` is the sum it takes
    e = np.exp(out[:3] - max(out[:3].tolist()))
    return FilterChoice(e / np.add.reduce(e), *_squash(out[3:], model.cfg)[0])


def context_from_windows(features, present, scan_age: float) -> FilterContext:
    """Selector context of a live window: (T, 14) features, (T, 5) presence.

    RSSI variance and step rate are taken over the window's normalized
    features; presence is that of the newest window.
    """
    features = np.asarray(features, dtype=float)
    present = np.asarray(present, dtype=bool)
    n, rssi = features.shape[0], features[:, 3]
    # the reductions np.var and np.mean run, in their order, without their
    # wrappers: a decision pays for these once a second
    centered = rssi - np.add.reduce(rssi, keepdims=True) / n
    return FilterContext(
        rssi_variance=float(np.add.reduce(np.square(centered, out=centered))) / n,
        scan_age=scan_age,
        step_rate=max(0.0, float(np.add.reduce(features[:, 0])) / n),
        presence=tuple(present[-1].tolist()))


def _along_time(kernel, arr: np.ndarray, *coef) -> np.ndarray:
    """``kernel(x, *coef)`` on a C-contiguous time-major (T, K) copy ``x`` of
    (..., T, F), column k one series (K is the product of the leading axes
    times F); the kernel allocates its (T, K) output, returned in ``arr``'s
    shape.  An input that already is a
    C-contiguous time-major array seen through a transpose (``match`` hands
    its (T, B, F) stack over as ``stack.transpose(1, 0, 2)``) is filtered in
    place of the copy, and its result is the same view of a time-major
    result; any other comes back C-contiguous."""
    nd, T = arr.ndim, arr.shape[-2]
    x = arr.transpose((nd - 2,) + tuple(range(nd - 2)) + (nd - 1,))
    out = kernel(np.ascontiguousarray(x).reshape(T, -1), *coef).reshape(x.shape)
    out = out.transpose(tuple(range(1, nd - 1)) + (0, nd - 1))
    return out if x.flags.c_contiguous else np.ascontiguousarray(out)


def _kalman_batch(x: np.ndarray, q: float, r: float) -> np.ndarray:
    # gain and variance do not depend on the data, so one scalar recursion
    # serves every series; each series starts from its own first value
    out = np.empty_like(x)
    mean = x[0]
    var = 1.0
    for i in range(x.shape[0]):
        var = var + q
        gain = var / (var + r)
        out[i] = mean = mean + gain * (x[i] - mean)
        var = (1.0 - gain) * var
    return out


@functools.lru_cache(maxsize=64)
def _gaussian_gather(radius: int, n: int):
    """For a kernel of ``radius`` over n steps: the (2 radius + 1, n) rows
    that each offset reads at each step of the series padded with
    ``radius`` zero rows at each end, and the indicator of the rows inside
    the series; read-only."""
    index = np.arange(2 * radius + 1)[:, None] + np.arange(n)
    reach = ((index >= radius) & (index < n + radius)).astype(float)
    for a in (index, reach):
        a.setflags(write=False)
    return index, reach


def _gaussian_sums(x: np.ndarray, *weights):
    """Edge-truncated weighted sums along axis -2 of x (..., T, F): one
    (num, den[:, None]) per kernel in ``weights``.  The zero-padded series
    is gathered once into its (..., 2 radius + 1, T, F) taps, each kernel
    weights them (the last in place) and the tap axis is summed from +0.0.
    numpy adds down a leading axis row by row, so each sum adds in offset
    order, as ``apply_gaussian`` does, and an off-edge tap adds +0.0,
    which changes no sum started from +0.0; den is the same reduction of
    the reach indicator."""
    radius, T = weights[0].size // 2, x.shape[-2]
    index, reach = _gaussian_gather(radius, T)
    padded = np.zeros(x.shape[:-2] + (T + 2 * radius, x.shape[-1]))
    padded[..., radius:radius + T, :] = x
    taps = np.take(padded, index, axis=-2)
    sums = []
    for k, w in enumerate(weights):
        weighted = np.multiply(taps, w[:, None, None], out=taps if k == len(weights) - 1 else None)
        sums.append((np.add.reduce(weighted, axis=-3, initial=0.0),
                     np.add.reduce(w[:, None] * reach, axis=0, initial=0.0)[:, None]))
    return sums


def _gaussian_batch(x: np.ndarray, sigma: float) -> np.ndarray:
    (num, den), = _gaussian_sums(x, _gaussian_kernel(sigma)[1])
    return np.divide(num, den, out=num)


def _elp_batch(x: np.ndarray, alpha: float) -> np.ndarray:
    # alpha * x[i] for every row at once, then + (1 - alpha) * out[i - 1]
    out = np.multiply(x, alpha)
    out[0] = x[0]
    for i in range(1, x.shape[0]):
        out[i] += (1.0 - alpha) * out[i - 1]
    return out


def denoise_matrix(choice: FilterChoice, arr: np.ndarray) -> np.ndarray:
    """Run the hard-selected filter along axis -2 of (..., T, F).

    Every column of every leading batch entry is one series: ``(T, F)`` is one
    window, ``(B, T, F)`` a stack of B windows of equal length (``match``
    stacks the live window on the prototypes of its length).  The filter runs
    once over a time-major (T, K) layout, K = B * F, into an output of its
    own (``_along_time`` says which layout comes back): the Kalman and
    low-pass recursions step over its rows, the Gaussian gathers the taps
    of every offset at once.  Each series gets the same IEEE operations, in
    the same order, as the scalar ``apply_kalman`` (initialized at the
    series' first value, variance 1), ``apply_gaussian`` or ``apply_elp``,
    so the results are bit-identical to filtering column by column.
    """
    arr = np.asarray(arr, dtype=float)
    if arr.ndim < 2 or arr.shape[-2] == 0:
        raise ValueError("denoise_matrix needs a nonempty (..., T, F) array")
    kind = choice.hard_kind()
    if kind == "kalman":
        return _along_time(_kalman_batch, arr, choice.q, choice.r)
    if kind == "gaussian":
        return _along_time(_gaussian_batch, arr, choice.sigma)
    return _along_time(_elp_batch, arr, choice.alpha)


def denoise(choice: FilterChoice, series) -> np.ndarray:
    """Hard selection at inference: run the argmax-weight filter on one series."""
    series = np.asarray(series, dtype=float)
    return denoise_matrix(choice, series[:, None])[:, 0]


# ---------------------------------------------------------------------------
# differentiable (training-mode) path
# ---------------------------------------------------------------------------


def _kalman_with_sens(x: np.ndarray, q: float, r: float):
    """Kalman output along axis -2 (``_kalman_batch``) plus d(out)/dq and
    d(out)/dr, via forward sensitivities.  Variance, gain and their
    derivatives do not depend on the data, so they are scalars; the mean's
    derivatives are vectors over every series."""
    out = _along_time(_kalman_batch, x, q, r)
    dq_out = np.empty_like(x)
    dr_out = np.empty_like(x)
    dmean_q = dmean_r = np.zeros_like(x[..., 0, :])
    var, dvar_q, dvar_r = 1.0, 0.0, 0.0
    for i in range(x.shape[-2]):
        var_p = var + q
        dvar_pq = dvar_q + 1.0
        dvar_pr = dvar_r
        denom = var_p + r
        gain = var_p / denom
        dgain_q = (dvar_pq * denom - var_p * dvar_pq) / (denom * denom)
        dgain_r = (dvar_pr * denom - var_p * (dvar_pr + 1.0)) / (denom * denom)
        # the filter starts at the series' first value
        resid = x[..., i, :] - (out[..., i - 1, :] if i else x[..., 0, :])
        dmean_q = dmean_q + dgain_q * resid - gain * dmean_q
        dmean_r = dmean_r + dgain_r * resid - gain * dmean_r
        var = (1.0 - gain) * var_p
        dvar_q = -dgain_q * var_p + (1.0 - gain) * dvar_pq
        dvar_r = -dgain_r * var_p + (1.0 - gain) * dvar_pr
        dq_out[..., i, :] = dmean_q
        dr_out[..., i, :] = dmean_r
    return out, dq_out, dr_out


def _gaussian_with_sens(x: np.ndarray, sigma: float):
    """Gaussian smoothing along axis -2 plus d(out)/dsigma (kernel radius
    held fixed)."""
    offsets, weights = _gaussian_kernel(sigma)
    dweights = weights * (offsets.astype(float) ** 2) / sigma ** 3
    (num, den), (dnum, dden) = _gaussian_sums(x, weights, dweights)
    return num / den, (dnum * den - num * dden) / (den * den)


def _elp_with_sens(x: np.ndarray, alpha: float):
    """Exponential low-pass along axis -2 (``_elp_batch``) plus d(out)/dalpha."""
    out = _along_time(_elp_batch, x, alpha)
    dal = np.empty_like(x)
    dal[..., 0, :] = 0.0
    for i in range(1, x.shape[-2]):
        dal[..., i, :] = (x[..., i, :] - out[..., i - 1, :]) + (1.0 - alpha) * dal[..., i - 1, :]
    return out, dal


def soft_denoise_matrix(choice: FilterChoice, arr: np.ndarray):
    """Weighted mixture of the three filters along axis -2 of (..., T, F).

    Every column of every leading batch entry is one series, as in
    ``denoise_matrix``.  Returns (filtered, cache); the cache holds the three
    filter outputs and the mixture's sensitivities to (q, r, sigma, alpha),
    and feeds ``soft_denoise_backward``.  Equals the hard path exactly when
    one weight is 1.
    """
    arr = np.asarray(arr, dtype=float)
    if arr.ndim < 2 or arr.shape[-2] == 0:
        raise ValueError("soft_denoise_matrix needs a nonempty (..., T, F) array")
    yk, dq, dr = _kalman_with_sens(arr, choice.q, choice.r)
    yg, ds = _gaussian_with_sens(arr, choice.sigma)
    ye, da = _elp_with_sens(arr, choice.alpha)
    w = choice.weights
    outs = np.stack([yk, yg, ye])
    # d(out)/d(q, r, sigma, alpha) of the mixture
    sens = np.stack([w[0] * dq, w[0] * dr, w[1] * ds, w[2] * da])
    # mix window by window: one contraction over a whole stack may round
    # differently from the same windows mixed one at a time
    windows = outs.reshape((3, -1) + arr.shape[-2:])
    mixed = np.stack([np.tensordot(w, windows[:, b], axes=(0, 0))
                      for b in range(windows.shape[1])]).reshape(arr.shape)
    return mixed, (outs, sens)


def soft_denoise_backward(cache, dout: np.ndarray):
    """Backprop through the mixture: d(loss)/dweights (3,), d/d(q,r,sig,al) (4,)."""
    outs, sens = cache
    axes = (tuple(range(1, outs.ndim)), tuple(range(dout.ndim)))
    dweights = np.tensordot(outs, dout, axes=axes)
    dparams = np.tensordot(sens, dout, axes=axes)
    return dweights, dparams


def selector_forward_training(model: SelectorModel, ctx: FilterContext):
    """Forward pass retaining caches so gradients can reach the parameters."""
    feats = ctx.features()
    out, net_cache = model.net.forward(feats)
    weights = softmax(out[:3])
    params, s = _squash(out[3:], model.cfg)
    choice = FilterChoice(weights, *params)
    return choice, (net_cache, weights, _squash_slopes(s, model.cfg))


def selector_backward(model: SelectorModel, cache, dweights, dparams):
    """Map mixture gradients back to selector parameter gradients."""
    net_cache, weights, dparams_draw = cache
    dout = np.empty(7)
    dout[:3] = softmax_backward(weights, dweights)
    dout[3:] = dparams * dparams_draw
    grads, _ = model.net.backward(net_cache, dout)
    return grads


def _soft_filter_item(model: SelectorModel, ctx: FilterContext, pairs):
    """Selector forward and soft mixture of one training item.

    Picks the item's choice, then filters every query and proto array of
    ``pairs`` with one ``soft_denoise_matrix`` call per array length.
    Returns the selector cache, the filtered pairs and one
    ``(query cache, proto cache)`` of mixture caches per pair.
    """
    choice, sel_cache = selector_forward_training(model, ctx)
    arrays = [pair[k] for pair in pairs for k in (0, 2)]
    by_length = {}
    for a, arr in enumerate(arrays):
        by_length.setdefault(np.shape(arr)[0], []).append(a)
    mixed, caches = [None] * len(arrays), [None] * len(arrays)
    for members in by_length.values():
        out, (outs, sens) = soft_denoise_matrix(choice, np.stack([arrays[a] for a in members]))
        for b, a in enumerate(members):
            mixed[a] = out[b]
            caches[a] = (outs[:, b], sens[:, b])
    filtered = [(mixed[2 * k], pair[1], mixed[2 * k + 1], pair[3])
                for k, pair in enumerate(pairs)]
    return sel_cache, filtered, list(zip(caches[0::2], caches[1::2]))


def train_selector(model: SelectorModel, paired_batches, alignment_loss_fn,
                   epochs: int = 1, step_size: float = 0.05) -> SelectorModel:
    """Gradient descent on an alignment margin loss through the soft mixture.

    ``paired_batches`` is a list of items ``(ctx, pos_pair, neg_pairs)`` where
    each pair is ``(query_feats, query_present, proto_feats, proto_present)``.
    Each epoch filters every item (``_soft_filter_item``), then makes one
    ``alignment_loss_fn(filtered_items)`` call over the whole epoch: it takes
    one ``(filtered_pos_pair, filtered_neg_pairs)`` per item and returns one
    ``(loss, feature_grads)`` per item, with the gradient of that item's loss
    w.r.t. every filtered feature array in the same structure (None for an
    array the loss does not read).  The backward then runs item by item, in
    order.  Returns a new model; the input is untouched.
    """
    if not paired_batches:
        raise ValueError("empty training batch")
    net = model.net.copy()
    current = SelectorModel(net, model.cfg)
    for _ in range(max(0, epochs)):
        forwards = [_soft_filter_item(current, ctx, [pos_pair] + list(neg_pairs))
                    for ctx, pos_pair, neg_pairs in paired_batches]
        losses = alignment_loss_fn([(filtered[0], filtered[1:])
                                    for _, filtered, _ in forwards])
        acc = grads_zeros_like(net)
        total = 0.0
        for (sel_cache, _, caches), (loss, fgrads) in zip(forwards, losses):
            total += loss
            dweights = np.zeros(3)
            dparams = np.zeros(4)
            for (gq, gp), (cq, cp) in zip(fgrads, caches):
                for grad, cache in ((gq, cq), (gp, cp)):
                    if grad is None:
                        continue
                    dw, dp = soft_denoise_backward(cache, grad)
                    dweights += dw
                    dparams += dp
            grads_add(acc, selector_backward(current, sel_cache, dweights, dparams))
        if not math.isfinite(total):
            raise FloatingPointError("selector training loss is not finite")
        current = SelectorModel(current.net.step(grads_scale(acc, 1.0 / len(paired_batches)),
                                                 step_size), current.cfg)
    return current
