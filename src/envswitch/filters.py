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
(``soft_denoise_matrix``, over any stack of windows, under one choice or one
per window, so a selector epoch filters each array length in one pass), and
each filter carries analytic derivatives w.r.t. its own coefficient in its
own recursion, so gradients reach the selector parameters.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fingerprints import FEATURE_NAMES, MODALITIES
from .mlp import TwoLayerNet, softmax_backward
from .serialize import dump_tensors, parse_tensors

FILTER_ORDER = ("kalman", "gaussian", "elp")
# rssi_variance, scan_age, step_rate, one presence flag per modality
CONTEXT_DIM = 3 + len(MODALITIES)
_WIFI_LEVEL = FEATURE_NAMES.index("wifi_topk_mean")
_STEP_RATE = FEATURE_NAMES.index("pdr_step_rate")
# the legal (lo, hi) box of each coefficient, in (q, r, sigma, alpha) order:
# the selector's four raw coefficient outputs squash into them
COEFFICIENT_RANGES = ((0.0, 1.0), (0.01, 10.0), (0.1, 3.0), (0.05, 1.0))
SELECTOR_HIDDEN = 16            # selector network width


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


def _gaussian_radius(sigma: float) -> int:
    """Reach of the +-3 sigma truncated Gaussian, at least one step."""
    return max(1, int(math.ceil(3.0 * sigma)))


def _gaussian_kernel(sigma: float):
    """Offsets and weights of the +-3 sigma truncated Gaussian."""
    offsets, negated_squares = _gaussian_offsets(_gaussian_radius(sigma))
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
    presence: tuple = (True,) * len(MODALITIES)

    def __post_init__(self):
        for v in (self.rssi_variance, self.scan_age, self.step_rate):
            if not math.isfinite(v) or v < 0.0:
                raise ValueError("context fields must be finite and nonnegative")
        if len(self.presence) != len(MODALITIES):
            raise ValueError("presence must hold one flag per modality")

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
    """Two-layer map from context to 3 filter logits + 4 raw coefficients,
    ``SELECTOR_HIDDEN`` wide; the coefficients squash into
    ``COEFFICIENT_RANGES``, so a trained selector serves with the boxes it
    was trained in."""

    net: TwoLayerNet

    @classmethod
    def from_seed(cls, seed: int) -> "SelectorModel":
        return cls(TwoLayerNet.from_seed(CONTEXT_DIM, SELECTOR_HIDDEN, 7, seed))

    @classmethod
    def zeros(cls) -> "SelectorModel":
        return cls(TwoLayerNet.zeros(CONTEXT_DIM, SELECTOR_HIDDEN, 7))

    def serialize(self) -> str:
        return dump_tensors(self.net.tensors("selector."))

    @classmethod
    def deserialize(cls, text: str) -> "SelectorModel":
        net = TwoLayerNet.from_tensors(parse_tensors(text), "selector.")
        if (net.w1.shape[1], len(net.b2)) != (CONTEXT_DIM, 7):
            raise ValueError(f"tensors selector.w1 {net.w1.shape} and selector.b2 {net.b2.shape} "
                             f"do not map {CONTEXT_DIM} inputs to 7 outputs")
        return cls(net)


def _squash_slopes(s: list) -> np.ndarray:
    """d(coefficient)/d(raw output) from ``_choice``'s sigmoids; training only."""
    return np.array([(hi - lo) * si * (1.0 - si)
                     for (lo, hi), si in zip(COEFFICIENT_RANGES, s)])


def _choice(out: np.ndarray):
    """The FilterChoice of the selector's 7 outputs: the softmax of the 3
    filter logits, and the 4 coefficients squashed into
    ``COEFFICIENT_RANGES`` by sigmoids; also the sigmoids, as a list, which
    only training reads.  One ``np.exp`` takes the softmax's logits less
    their max and the sigmoids' -|raw|; the rest runs on Python floats,
    which round every step as ``mlp.softmax`` and float64 arrays do.  A
    sigmoid is 1 / (1 + e) for raw >= 0 and e / (1 + e) below, e =
    exp(-|raw|) <= 1."""
    row = out.tolist()
    top = max(row[:3])
    e = np.exp([v - top for v in row[:3]] + [-abs(v) for v in row[3:]]).tolist()
    total = e[0] + e[1] + e[2]
    s = [1.0 / (1.0 + ei) if v >= 0 else ei / (1.0 + ei) for v, ei in zip(row[3:], e[3:])]
    return FilterChoice([ei / total for ei in e[:3]],
                        *[lo + (hi - lo) * si for (lo, hi), si in zip(COEFFICIENT_RANGES, s)]), s


def select_filter(model: SelectorModel, ctx: FilterContext) -> FilterChoice:
    """Deterministic map (model, context) -> FilterChoice: the choice of
    ``selector_forward_training``, without the caches only training reads."""
    return _choice(model.net.forward(ctx.features())[0])[0]


def context_from_windows(features, present, scan_age: float) -> FilterContext:
    """Selector context of a live window: (T, 14) features, (T, 5) presence.

    RSSI variance and step rate are taken over the window's normalized
    features; presence is that of the newest window.
    """
    features = np.asarray(features, dtype=float)
    present = np.asarray(present, dtype=bool)
    n, rssi = features.shape[0], features[:, _WIFI_LEVEL]
    # the reductions np.var and np.mean run, in their order, without their
    # wrappers: a decision pays for these once a second
    centered = rssi - np.add.reduce(rssi, keepdims=True) / n
    return FilterContext(
        rssi_variance=float(np.add.reduce(np.square(centered, out=centered))) / n,
        scan_age=scan_age,
        step_rate=max(0.0, float(np.add.reduce(features[:, _STEP_RATE])) / n),
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


def _kalman_batch(x: np.ndarray, q, r, sens: bool):
    """Kalman filter along axis 0 of a time-major x, each series started at
    its first value, variance 1.  Gain and variance, data-free, are scalars
    or (B, 1) columns of x (T, B, K).  With ``sens`` the recursion also
    carries d(out)/dq and d(out)/dr, and returns (out, dq_out, dr_out)."""
    out, mean, var = np.empty_like(x), x[0], 1.0
    if sens:
        dq_out, dr_out = np.empty_like(x), np.empty_like(x)
        dmean_q = dmean_r = np.zeros_like(x[0])
        dvar_q = dvar_r = 0.0
    for i in range(x.shape[0]):
        var_p = var + q
        denom = var_p + r
        gain = var_p / denom
        resid = x[i] - mean
        out[i] = mean = mean + gain * resid
        if sens:
            dvar_pq = dvar_q + 1.0
            dgain_q = (dvar_pq * denom - var_p * dvar_pq) / (denom * denom)
            dgain_r = (dvar_r * denom - var_p * (dvar_r + 1.0)) / (denom * denom)
            dq_out[i] = dmean_q = dmean_q + dgain_q * resid - gain * dmean_q
            dr_out[i] = dmean_r = dmean_r + dgain_r * resid - gain * dmean_r
            dvar_q = -dgain_q * var_p + (1.0 - gain) * dvar_pq
            dvar_r = -dgain_r * var_p + (1.0 - gain) * dvar_r
        var = (1.0 - gain) * var_p
    return (out, dq_out, dr_out) if sens else out


@functools.lru_cache(maxsize=64)
def _gaussian_reach(radius: int, n: int):
    """The (2 radius + 1, n) indicator of the taps of a kernel of ``radius``
    that fall inside a series of n steps; read-only."""
    index = np.arange(2 * radius + 1)[:, None] + np.arange(n)
    reach = ((index >= radius) & (index < n + radius)).astype(float)
    reach.setflags(write=False)
    return reach


def _zero_padded(x: np.ndarray, radius: int) -> np.ndarray:
    """x (T, ...) with ``radius`` rows of +0.0 before and after it."""
    padded = np.zeros((len(x) + 2 * radius,) + x.shape[1:])
    padded[radius:radius + len(x)] = x
    return padded


def _gaussian_taps(padded: np.ndarray, radius: int) -> np.ndarray:
    """The taps of a kernel of ``radius`` along axis 0 of a time-major
    series zero-padded by ``radius`` rows at each end, a C-contiguous
    ``padded`` (T + 2 radius, ...): a read-only (2 radius + 1, T, ...) view
    whose entry [k, t] is step t + k - radius of the series, +0.0 off
    either edge.  Being a view, the taps cost only the padded copy of the
    series to gather, and a caller whose series do not change
    (``alignment.match``'s prototypes) keeps them."""
    T = len(padded) - 2 * radius
    taps = np.ndarray((2 * radius + 1, T) + padded.shape[1:], float, padded, 0,
                      padded.strides[:1] + padded.strides)
    taps.flags.writeable = False
    return taps


def _gaussian_sums(taps: np.ndarray, w: np.ndarray):
    """Edge-truncated weighted sums (num, den) of ``_gaussian_taps`` under
    the kernel weights w (2 radius + 1, ...), broadcast against one step.
    The taps are weighted into a C-contiguous array of their own and summed
    over the tap axis from +0.0.  numpy adds down the leading axis row by
    row, so each sum adds in offset order, as ``apply_gaussian`` does; an
    off-edge tap adds +-0.0, which changes no sum started from +0.0, and
    den is the same reduction of the reach indicator."""
    reach = _gaussian_reach(len(w) // 2, taps.shape[1])
    reach = reach.reshape(reach.shape + (1,) * (w.ndim - 1))
    return (np.add.reduce(np.multiply(taps, w[:, None], order="C"), axis=0, initial=0.0),
            np.add.reduce(w[:, None] * reach, axis=0, initial=0.0))


def _gaussian_from_taps(taps: np.ndarray, sigma: float) -> np.ndarray:
    """The Gaussian of ``sigma`` along axis 0 of the series whose
    ``_gaussian_taps`` of sigma's radius are ``taps``."""
    w = _gaussian_kernel(sigma)[1]
    num, den = _gaussian_sums(taps, w.reshape(w.shape + (1,) * (taps.ndim - 2)))
    return np.divide(num, den, out=num)


def _gaussian_batch(x: np.ndarray, sigma: float) -> np.ndarray:
    radius = _gaussian_radius(sigma)
    return _gaussian_from_taps(_gaussian_taps(_zero_padded(x, radius), radius), sigma)


def _elp_batch(x: np.ndarray, alpha, sens: bool):
    # alpha * x[i] for every row at once, then + (1 - alpha) * out[i - 1], alpha
    # a scalar or a (B, 1) column; with sens the pass also returns d(out)/dalpha
    out = np.multiply(x, alpha)
    out[0] = x[0]
    dal = np.zeros_like(x) if sens else None
    for i in range(1, x.shape[0]):
        if sens:
            dal[i] = (x[i] - out[i - 1]) + (1.0 - alpha) * dal[i - 1]
        out[i] += (1.0 - alpha) * out[i - 1]
    return (out, dal) if sens else out


def denoise_matrix(choice: FilterChoice, arr: np.ndarray) -> np.ndarray:
    """Run the hard-selected filter along axis -2 of (..., T, F).

    Every column of every leading batch entry is one series: ``(T, F)`` is one
    window, ``(B, T, F)`` a stack of B windows of equal length (``match``
    stacks the live window on the prototypes of its length; for the
    Gaussian it keeps that stack's taps and weighs them itself,
    ``_gaussian_from_taps``).  The filter runs once over a time-major (T,
    K) layout, K = B * F, into an output of its own (``_along_time`` says
    which layout comes back): the Kalman and low-pass recursions step over
    its rows, the Gaussian gathers the taps of every offset at once and
    weighs them (``_gaussian_sums``).  Each series gets the same IEEE operations, in
    the same order, as the scalar ``apply_kalman`` (initialized at the
    series' first value, variance 1), ``apply_gaussian`` or ``apply_elp``,
    so the results are bit-identical to filtering column by column.
    """
    arr = np.asarray(arr, dtype=float)
    if arr.ndim < 2 or arr.shape[-2] == 0:
        raise ValueError("denoise_matrix needs a nonempty (..., T, F) array")
    kind = choice.hard_kind()
    if kind == "kalman":
        return _along_time(_kalman_batch, arr, choice.q, choice.r, False)
    if kind == "gaussian":
        return _along_time(_gaussian_batch, arr, choice.sigma)
    return _along_time(_elp_batch, arr, choice.alpha, False)


# ---------------------------------------------------------------------------
# differentiable (training-mode) path
# ---------------------------------------------------------------------------


def _gaussian_with_sens(x: np.ndarray, sigmas):
    """Gaussian smoothing along axis 0 of a time-major x (T, B, K), entry b
    with ``sigmas[b]``, plus d(out)/dsigma (radius held fixed); each entry's
    kernel is padded with zero weights to the widest radius, adding +-0.0."""
    radii = [_gaussian_radius(s) for s in sigmas]
    offsets, negated_squares = _gaussian_offsets(max(radii))
    # 2 sigma^2 and sigma^3 of Python floats: numpy's cube of an array differs
    weights = np.exp(negated_squares[:, None] / [2.0 * v * v for v in sigmas])
    weights[np.abs(offsets)[:, None] > radii] = 0.0
    dweights = weights * (offsets.astype(float) ** 2)[:, None] / [v ** 3 for v in sigmas]
    taps = _gaussian_taps(_zero_padded(x, len(offsets) // 2), len(offsets) // 2)
    (num, den), (dnum, dden) = (_gaussian_sums(taps, v[..., None]) for v in (weights, dweights))
    return num / den, (dnum * den - num * dden) / (den * den)


def soft_denoise_matrix(choice, arr: np.ndarray):
    """Weighted mixture of the three filters along axis -2 of (..., T, F).

    Every column of every leading batch entry is one series, as in
    ``denoise_matrix``.  ``choice`` is one FilterChoice, or one per entry
    of a (B, T, F) stack (``train_selector``'s arrays of one length).  The
    filters run time-major, (T, B, K), each entry's coefficients a (B, 1)
    column (B = 1 for one choice), so each series gets the operations of
    filtering it alone.  Returns (filtered, cache); the cache holds the three
    filter outputs (3, ..., T, F) and the mixture's sensitivities to (q, r,
    sigma, alpha) (4, ..., T, F) for ``soft_denoise_backward``.  Equals the
    hard path exactly when one weight is 1.
    """
    arr = np.asarray(arr, dtype=float)
    if arr.ndim < 2 or arr.shape[-2] == 0:
        raise ValueError("soft_denoise_matrix needs a nonempty (..., T, F) array")
    single = isinstance(choice, FilterChoice)
    choices = [choice] if single else list(choice)
    if not single and (arr.ndim != 3 or len(choices) != len(arr)):
        raise ValueError("soft_denoise_matrix needs one FilterChoice per entry of (B, T, F)")
    time_major = np.moveaxis(arr, -2, 0)
    x = np.ascontiguousarray(time_major).reshape(len(time_major), len(choices), -1)
    q, r, alpha = (np.array([[getattr(c, name)] for c in choices]) for name in ("q", "r", "alpha"))
    yg, ds = _gaussian_with_sens(x, [c.sigma for c in choices])
    yk, dq, dr = _kalman_batch(x, q, r, True)
    ye, da = _elp_batch(x, alpha, True)
    w = np.array([c.weights for c in choices])[:, :, None]
    # the outputs and d(mixture)/d(q, r, sigma, alpha), written in arr's layout
    outs, sens = np.empty((3,) + arr.shape), np.empty((4,) + arr.shape)
    for dst, a in zip([*outs, *sens], [yk, yg, ye, w[:, 0] * dq, w[:, 0] * dr,
                                       w[:, 1] * ds, w[:, 2] * da]):
        np.moveaxis(dst, -2, 0)[...] = a.reshape(time_major.shape)
    # mix window by window: one contraction over a whole stack may round
    # differently from the same windows mixed one at a time; each window is
    # the (1, 3) by (3, T * F) product ``np.tensordot(w, window, (0, 0))`` makes
    windows = outs.reshape((3, -1) + arr.shape[-2:])
    mix = [c.weights.reshape(1, 3) for c in choices] * (windows.shape[1] // len(choices))
    mixed = np.stack([np.dot(m, windows[:, b].reshape(3, -1))
                      for b, m in enumerate(mix)]).reshape(arr.shape)
    return mixed, (outs, sens)


def soft_denoise_backward(cache, dout: np.ndarray):
    """Backprop through the mixture: d(loss)/dweights (3,), d/d(q,r,sig,al) (4,)."""
    outs, sens = cache
    # the 2-D product ``np.tensordot(outs, dout, dout.ndim)`` makes
    dout = dout.reshape(-1, 1)
    dweights = np.dot(outs.reshape(len(outs), -1), dout)[:, 0]
    dparams = np.dot(sens.reshape(len(sens), -1), dout)[:, 0]
    return dweights, dparams


def selector_forward_training(model: SelectorModel, ctx: FilterContext):
    """Forward pass retaining caches so gradients can reach the parameters."""
    out, net_cache = model.net.forward(ctx.features())
    choice, s = _choice(out)
    return choice, (net_cache, choice.weights, _squash_slopes(s))


def selector_backward(model: SelectorModel, cache, dweights, dparams):
    """Map mixture gradients back to selector parameter gradients."""
    net_cache, weights, dparams_draw = cache
    dout = np.empty(7)
    dout[:3] = softmax_backward(weights, dweights)
    dout[3:] = dparams * dparams_draw
    return model.net.backward(net_cache, dout)


def _selector_epoch(model: SelectorModel, items, sides, stacks, alignment_loss_fn):
    """One epoch of ``train_selector``: the summed loss and parameter
    gradients, in a function so that no epoch's stacked arrays outlive it."""
    forwards = [selector_forward_training(model, ctx) for ctx, _, _ in items]
    # per item and side: the filtered side and its mixture cache
    done = [[None] * len(item_sides) for item_sides in sides]
    for places, stack in stacks:
        out, (outs, sens) = soft_denoise_matrix([forwards[k][0] for k, _ in places], stack)
        for b, (k, j) in enumerate(places):
            done[k][j] = (out[b], sides[k][j][1]), (outs[:, b], sens[:, b])
    pairs = [[(q[0], p[0]) for q, p in zip(d[0::2], d[1::2])] for d in done]
    losses = alignment_loss_fn([(p[0], p[1:]) for p in pairs])
    acc = np.zeros_like(model.net.params)
    total = 0.0
    for (_, sel_cache), d, (loss, fgrads) in zip(forwards, done, losses):
        total += loss
        dweights = np.zeros(3)
        dparams = np.zeros(4)
        # the query, then the proto of every pair
        for grad, (_, cache) in zip((g for pair in fgrads for g in pair), d):
            dw, dp = soft_denoise_backward(cache, grad)
            dweights += dw
            dparams += dp
        acc += selector_backward(model, sel_cache, dweights, dparams)
    return total, acc


def train_selector(model: SelectorModel, items, alignment_loss_fn,
                   epochs: int = 1, step_size: float = 0.05) -> SelectorModel:
    """Gradient descent on an alignment margin loss through the soft mixture.

    ``items`` is a list of ``(ctx, positive, negatives)``, each pair a
    ``((q_feats, q_present), (p_feats, p_present))`` as ``train_metric``
    takes them.  Each epoch runs the selector forward item by item, then
    filters both sides of every pair of every item, each under its item's
    choice, in one ``soft_denoise_matrix`` call per array length; presence
    passes through.  One ``alignment_loss_fn(filtered_items)`` call covers
    the epoch: it takes one ``(filtered_positive, filtered_negatives)`` per
    item and returns one ``(loss, feature_grads)`` per item, the gradient of
    that item's loss w.r.t. the query and proto features of every pair,
    positive first (``make_alignment_loss``).  The backward runs item by
    item, in order.  Returns a new model; the input is untouched.
    """
    if not items:
        raise ValueError("empty training batch")
    current = SelectorModel(model.net.copy())
    # each item's sides, pair by pair, and per length their places and stack
    sides = [[side for pair in [positive] + list(negatives) for side in pair]
             for _, positive, negatives in items]
    by_length = {}
    for k, item_sides in enumerate(sides):
        for j, (feats, _) in enumerate(item_sides):
            by_length.setdefault(len(feats), []).append((k, j))
    stacks = [(places, np.stack([sides[k][j][0] for k, j in places]))
              for places in by_length.values()]
    for _ in range(max(0, epochs)):
        total, acc = _selector_epoch(current, items, sides, stacks, alignment_loss_fn)
        if not math.isfinite(total):
            raise FloatingPointError("selector training loss is not finite")
        current = SelectorModel(current.net.step(acc * (1.0 / len(items)), step_size))
    return current
