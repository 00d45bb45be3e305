"""Banded DTW and soft-DTW over a learned modality-weighted metric.

The cell cost between two fingerprint windows is a sum over modalities of a
learned weight times the squared Euclidean distance between linearly embedded
features, zeroed whenever the modality is absent on either side; one stacked
kernel embeds each side once for all modalities (``cost_matrix``).  Exact DTW
under a Sakoe-Chiba band gives the alignment distance d and the similarity
exp(-beta * d) in (0, 1], with a fixed scale beta = 1.  One forward sweep
over the anti-diagonals of a skewed banded layout (``_sweep``) runs both
recursions on a stack of cost matrices: with a hard min for exact DTW
(``dtw`` on one pair, ``match`` on each length group of a library), and with
a soft-min for soft-DTW (``soft_dtw`` on one pair, and every margin loss on
all pairs of its positives and negatives at once).
Soft-DTW is differentiable: its backward weights sweep the same layout in
reverse, and hand-written gradients let the metric (and, through the filter
mixture, the selector) train with plain gradient descent.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fingerprints import (FEATURE_DIMS, MODALITIES, N_FEATURES,
                           Fingerprint, FingerprintLibrary, FingerprintSequence,
                           group_by_length)
from .mlp import softmax
from .serialize import dump_tensors, parse_tensors


class BandTooNarrowError(ValueError):
    """Raised when no monotone path fits inside the requested band."""


# ---------------------------------------------------------------------------
# the metric
# ---------------------------------------------------------------------------


@dataclass
class MetricModel:
    """Per-modality linear embeddings and softmax-weighted modality scores;
    every parameter is trained."""

    embeddings: dict           # modality -> (embed_dim, feature_dim)
    scores: np.ndarray         # (5,) trainable; weights = softmax(scores)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        if self.scores.shape != (len(MODALITIES),):
            raise ValueError("scores must have one entry per modality")
        for m in MODALITIES:
            W = np.asarray(self.embeddings[m], dtype=float)
            if W.shape != (len(self.embeddings[MODALITIES[0]]), FEATURE_DIMS[m]):
                raise ValueError(f"embedding for {m} must be (embed_dim, {FEATURE_DIMS[m]})")
            self.embeddings[m] = W

    @property
    def embed_dim(self) -> int:
        return self.embeddings[MODALITIES[0]].shape[0]

    @property
    def weights(self) -> np.ndarray:
        return softmax(self.scores)

    @property
    def beta(self) -> float:
        """Fixed similarity scale: similarity = exp(-beta * distance)."""
        return 1.0

    @classmethod
    def identity(cls, embed_dim: int = 4) -> "MetricModel":
        emb = {m: np.eye(embed_dim, FEATURE_DIMS[m]) for m in MODALITIES}
        return cls(emb, np.zeros(len(MODALITIES)))

    @classmethod
    def from_seed(cls, seed: int, embed_dim: int = 4, noise: float = 0.01) -> "MetricModel":
        rng = np.random.default_rng(seed)
        emb = {m: np.eye(embed_dim, FEATURE_DIMS[m])
               + noise * rng.standard_normal((embed_dim, FEATURE_DIMS[m]))
               for m in MODALITIES}
        return cls(emb, np.zeros(len(MODALITIES)))

    def copy(self) -> "MetricModel":
        return self.from_vector(self.to_vector())

    # flat parameter view, used by finite-difference tests and the trainers
    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.embeddings[m].ravel() for m in MODALITIES] + [self.scores])

    def from_vector(self, vec) -> "MetricModel":
        vec = np.asarray(vec, dtype=float)
        emb, i = {}, 0
        for m in MODALITIES:
            W = self.embeddings[m]
            emb[m] = vec[i:i + W.size].reshape(W.shape).copy()
            i += W.size
        return MetricModel(emb, vec[i:i + len(MODALITIES)].copy())

    def serialize(self) -> str:
        return dump_tensors({**{f"metric.W_{m}": self.embeddings[m] for m in MODALITIES},
                             "metric.scores": self.scores})

    @classmethod
    def deserialize(cls, text: str) -> "MetricModel":
        t = parse_tensors(text)
        return cls({m: t[f"metric.W_{m}"] for m in MODALITIES}, t["metric.scores"])


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------


def cell_cost(model: MetricModel, q: Fingerprint, f: Fingerprint) -> float:
    """Masked, weighted, embedded squared distance between two windows."""
    if q.features.shape != f.features.shape:
        raise ValueError("fingerprint schema mismatch")
    w = model.weights
    total = 0.0
    for i, m in enumerate(MODALITIES):
        if not (q.present[i] and f.present[i]):
            continue
        W = model.embeddings[m]
        d = W @ (q.modality_features(m) - f.modality_features(m))
        total += w[i] * float(d @ d)
    return total


def _pack(seq):
    """Accept a FingerprintSequence or a (features, present) pair."""
    if isinstance(seq, FingerprintSequence):
        return seq.packed()
    feats, pres = seq
    return np.asarray(feats, dtype=float), np.asarray(pres, dtype=bool)


@functools.lru_cache(maxsize=8)
def _block_layout(embed_dim: int):
    """Flat index of every ``to_vector`` embedding entry into the (E, 14)
    block-diagonal embedding, E = 5 * embed_dim (its blocks in row-major
    order), and the (E, 5) modality indicator of its rows.  Read-only."""
    indicator = np.repeat(np.eye(len(MODALITIES)), embed_dim, axis=0)
    features = np.repeat(np.eye(len(MODALITIES)), [FEATURE_DIMS[m] for m in MODALITIES], axis=0)
    index = np.flatnonzero(indicator @ features.T)
    for a in (index, indicator):
        a.setflags(write=False)
    return index, indicator


def _rows(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``x @ M`` as one 2-D product, not one small gemm per leading slice."""
    return (x.reshape(-1, x.shape[-1]) @ M).reshape(x.shape[:-1] + M.shape[1:])


def cost_matrix(model: MetricModel, query, proto):
    """Full (n, m) cost matrix plus the caches of the backward pass.

    ``proto`` may carry a leading prototype axis, features (P, m, F) and
    presence (P, m, 5) for P prototypes of one length m; the cost is then
    (P, n, m) and each slice equals the cost of that prototype alone.  A
    query stacked the same way, (P, n, F), pairs query p with prototype p.

    No loop over modalities: both sides are embedded once by one block-
    diagonal Wb (E, 14), differences (..., n, m, E) are taken in embedded
    space, a product with the (E, 5) modality indicator gives the squared
    distances and, masked, one with the weights sums them; identical
    windows cost exactly 0.  Caches: ``(qf, pf, Wb, diff, sq, mask)``.
    """
    qf, qp = _pack(query)
    pf, pp = _pack(proto)
    if qf.shape[-1] != pf.shape[-1]:
        raise ValueError("fingerprint schema mismatch")
    index, indicator = _block_layout(model.embed_dim)
    Wb = np.zeros((indicator.shape[0], N_FEATURES))
    Wb.flat[index] = model.to_vector()[:index.size]
    diff = _rows(qf, Wb.T)[..., :, None, :] - _rows(pf, Wb.T)[..., None, :, :]
    sq = _rows(diff * diff, indicator)
    mask = qp[..., :, None, :] & pp[..., None, :, :]
    return _rows(sq * mask, model.weights), (qf, pf, Wb, diff, sq, mask)


def _cost_gradients(model: MetricModel, caches, E, want_feature_grads=False):
    """Chain dV/dcost = E (P, n, m) into metric and feature gradients.

    With M = E * mask * w on each modality's embedded coordinates, the sums
    of M * diff over proto windows A (P, n, E) and over query windows B
    (P, m, E) give every gradient: 2 (A^T q - B^T p) for the block-diagonal
    embedding Wb, 2 A Wb for the query and -2 B Wb for the proto features.
    Returns the flat metric gradient of every pair, (P, n_params) in the
    ``to_vector`` layout, and with ``want_feature_grads`` the feature
    gradients (P, n, 14) and (P, m, 14); otherwise those two are None.
    """
    qf, pf, Wb, diff, sq, mask = caches
    w, (P, n, m) = model.weights, E.shape
    index = _block_layout(model.embed_dim)[0]
    Em = E[..., None] * mask
    dcost_dw = np.sum(Em * sq, axis=(1, 2))
    Em *= w
    # M * diff overwrites the cached differences (the caches are used up)
    Md = diff.reshape(P, n, m, len(MODALITIES), -1)
    Md *= Em[..., None]
    A, B = diff.sum(axis=2), diff.sum(axis=1)
    gW = 2.0 * (np.swapaxes(A, 1, 2) @ qf - np.swapaxes(B, 1, 2) @ pf)
    G = np.empty((P, index.size + len(MODALITIES)))
    G[:, :index.size] = gW.reshape(P, -1)[:, index]
    # softmax jacobian: scores -> weights.  One dot per pair: a batched
    # product may sum the five terms in another order and round differently
    for p in range(P):
        G[p, index.size:] = w * (dcost_dw[p] - float(np.dot(w, dcost_dw[p])))
    if not want_feature_grads:
        return G, None, None
    return G, _rows(2.0 * A, Wb), _rows(-2.0 * B, Wb)


# ---------------------------------------------------------------------------
# the band
# ---------------------------------------------------------------------------


def in_band(i: int, j: int, n: int, m: int, band: int) -> bool:
    """Sakoe-Chiba corridor, slope-scaled for unequal lengths."""
    return abs(i * (m / n) - j) <= band


def band_mask(n: int, m: int, band: int) -> np.ndarray:
    return np.abs(np.arange(n)[:, None] * (m / n) - np.arange(m)[None, :]) <= band


# ---------------------------------------------------------------------------
# exact DTW
# ---------------------------------------------------------------------------


@dataclass
class AlignmentResult:
    distance: float
    path: list
    similarity: float


@functools.lru_cache(maxsize=256)
def _skew_index(n: int, m: int, band: int):
    """Where ``_skew`` reads each entry of its layout from: the flat index
    ``i * m + j`` into an (n, m) matrix and whether the cell is kept (on the
    grid and inside the band), both (n + m - 1, n).  Read-only, and cached
    per (n, m, band): they depend on nothing else."""
    d = np.arange(n + m - 1)[:, None]
    i = np.arange(n)[None, :]
    j = d - i
    jc = np.clip(j, 0, m - 1)
    keep = (j >= 0) & (j < m) & band_mask(n, m, band)[i, jc]
    flat = i * m + jc
    for a in (flat, keep):
        a.setflags(write=False)
    return flat, keep


def _skew(cost: np.ndarray, band: int) -> np.ndarray:
    """Skewed banded layout of a (P, n, m) cost stack, (P, n + m - 1, n).

    ``skew[:, d, i]`` holds cell (i, d - i), so row d is anti-diagonal d;
    cells outside the band or off the (n, m) grid are inf.  Cells on one
    anti-diagonal depend only on the two before it (forward) or the two after
    it (backward), so a recursion sweeps the rows of this layout, each one a
    single vectorized step over every pair and every cell of the diagonal.
    """
    P, n, m = cost.shape
    flat, keep = _skew_index(n, m, band)
    return np.where(keep, cost.reshape(P, n * m)[:, flat], np.inf)


def _unskew(S: np.ndarray, n: int, m: int) -> np.ndarray:
    """(P, n, m) view of a skewed table laid out like ``_skew``."""
    ii, jj = np.indices((n, m))
    return S[:, ii + jj, ii]


def _sweep(skew: np.ndarray, step) -> np.ndarray:
    """Forward recursion R[i, j] = step(cost[i, j], R[i-1, j], R[i, j-1],
    R[i-1, j-1]) over a skewed cost stack, with R[0, 0] = cost[0, 0].

    ``step(cost, vertical, horizontal, diagonal, out)`` fills ``out`` for one
    anti-diagonal.  Returns the skewed table, (P, n + m - 1, n) like
    ``skew``; a predecessor off the grid is inf.
    """
    P, D, n = skew.shape
    # S[:, d + 1, i + 1] holds cell (i, d - i); row 0 (the diagonal before
    # the first) and column 0 are inf padding
    S = np.full((P, D + 1, n + 1), np.inf)
    S[:, 1, 1:] = skew[:, 0]
    for k in range(1, D):
        step(skew[:, k], S[:, k, :-1], S[:, k, 1:], S[:, k - 1, :-1], S[:, k + 1, 1:])
    return S[:, 1:, 1:]


def _hard_step(cost, vertical, horizontal, diagonal, out):
    best = np.minimum(diagonal, vertical)
    np.minimum(best, horizontal, out=best)
    np.add(cost, best, out=out)


def _dtw_tables(cost: np.ndarray, band: int) -> np.ndarray:
    """Banded exact-DTW tables D for a (P, n, m) stack of cost matrices.

    D[p, i, j] = cost[p, i, j] + min(D[p, i-1, j-1], D[p, i-1, j],
    D[p, i, j-1]) inside the band and inf outside it or where no monotone
    path reaches the cell.
    """
    _, n, m = cost.shape
    return _unskew(_sweep(_skew(cost, band), _hard_step), n, m)


def _backtrack(D: np.ndarray) -> list:
    """Warping path through one table: each step moves to the finite
    predecessor of least value; ties go to the diagonal, then the vertical,
    then the horizontal one."""
    rows = D.tolist()
    i, j = len(rows) - 1, len(rows[0]) - 1
    path = [(i, j)]
    while (i, j) != (0, 0):
        best = None
        for a, b in ((i - 1, j - 1), (i - 1, j), (i, j - 1)):
            if a >= 0 and b >= 0 and math.isfinite(rows[a][b]) \
                    and (best is None or rows[a][b] < rows[best[0]][best[1]]):
                best = (a, b)
        i, j = best
        path.append(best)
    path.reverse()
    return path


def dtw(model: MetricModel, query, proto, band: int = 3) -> AlignmentResult:
    """Exact minimum-cost banded alignment with deterministic backtracking.

    The table comes from the banded recursion ``match`` runs over a whole
    library (``_dtw_tables`` on a stack of one).  Backtracking prefers the
    diagonal predecessor, then the vertical (previous query window) one.
    """
    if band < 1:
        raise ValueError("band must be >= 1")
    cost, _ = cost_matrix(model, query, proto)
    n, m = cost.shape
    if n < 2 or m < 2:
        raise ValueError("both sequences need at least 2 windows")
    D = _dtw_tables(cost[None], band)[0]
    distance = float(D[n - 1, m - 1])
    if not np.isfinite(distance):
        raise BandTooNarrowError("band too narrow: no admissible warping path")
    return AlignmentResult(distance, _backtrack(D), math.exp(-model.beta * distance))


# ---------------------------------------------------------------------------
# soft-DTW
# ---------------------------------------------------------------------------


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """Apply a scalar ``math`` function to every entry of a 1-D array.

    The soft recursions use the platform libm through ``math``: numpy's own
    exp and log may round differently in the last bit.
    """
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _soft_step(gamma: float):
    """Soft-min step: cost + lo - gamma * log(sum exp(-(v - lo) / gamma))
    over the finite predecessors v, lo their minimum; inf if none is finite."""
    def step(cost, vertical, horizontal, diagonal, out):
        lo = np.minimum(np.minimum(vertical, horizontal), diagonal)
        ok = np.isfinite(cost) & np.isfinite(lo)
        lo = lo[ok]
        # an infinite predecessor contributes exp(-inf) = 0
        e = _libm(math.exp, (-(np.stack([vertical[ok], horizontal[ok], diagonal[ok]])
                               - lo) / gamma).ravel()).reshape(3, -1)
        out[ok] = cost[ok] + (lo - gamma * _libm(math.log, e[0] + e[1] + e[2]))
    return step


def _soft_dtw_tables(cost: np.ndarray, band: int, gamma: float):
    """Banded soft-DTW over a (P, n, m) stack of cost matrices.

    Returns the values (P,), the forward soft-min tables R (P, n, m), inf
    outside the band, and the backward weight tables E = dvalue/dcost
    (P, n, m) (Cuturi & Blondel 2017).  Both recursions sweep anti-diagonals
    of the ``_skew`` layout; E adds its successors' contributions in the
    order vertical, horizontal, diagonal.  Raises ``BandTooNarrowError`` if
    any pair has no admissible path.
    """
    P, n, m = cost.shape
    skew = _skew(cost, band)
    Rs = _sweep(skew, _soft_step(gamma))
    D = n + m - 1
    values = Rs[:, D - 1, n - 1]
    if not np.all(np.isfinite(values)):
        raise BandTooNarrowError("band too narrow: no admissible warping path")
    # pad two diagonals past the last and one row past the last: inf for R
    # and the cost, 0 for E, so every successor of a cell is addressable
    Rp = np.full((P, D + 2, n + 1), np.inf)
    Rp[:, :D, :n] = Rs
    Cp = np.full((P, D + 2, n + 1), np.inf)
    Cp[:, :D, :n] = skew
    cur = Rp[:, :D, :n]
    weights = []
    for dd, di in ((1, 1), (1, 0), (2, 1)):    # vertical, horizontal, diagonal
        succ = Rp[:, dd:D + dd, di:n + di]
        ok = np.isfinite(cur) & np.isfinite(succ)
        wgt = np.zeros((P, D, n))
        wgt[ok] = _libm(math.exp, (succ[ok] - Cp[:, dd:D + dd, di:n + di][ok] - cur[ok]) / gamma)
        weights.append(wgt)
    wv, wh, wd = weights
    Es = np.zeros((P, D + 2, n + 1))
    Es[:, D - 1, n - 1] = 1.0
    for k in range(D - 2, -1, -1):
        acc = Es[:, k + 1, 1:] * wv[:, k]
        acc += Es[:, k + 1, :n] * wh[:, k]
        acc += Es[:, k + 2, 1:] * wd[:, k]
        Es[:, k, :n] = acc
    return values, _unskew(Rs, n, m), _unskew(Es, n, m)


def _soft_dtw_pairs(model: MetricModel, pairs, band: int, gamma: float,
                    want_feature_grads: bool = False):
    """Soft-DTW value and gradients of every ``(query, proto)`` pair.

    Pairs of one (n, m) shape run together: one ``cost_matrix``, one
    ``_soft_dtw_tables`` and one ``_cost_gradients`` per shape.  Returns the
    values (N,), the flat metric gradients (N, n_params) and, with
    ``want_feature_grads``, a list of (dquery, dproto) per pair.
    """
    if gamma <= 0.0:
        raise ValueError("soft-min smoothing gamma must be > 0")
    if band < 1:
        raise ValueError("band must be >= 1")
    packed = [(_pack(q), _pack(p)) for q, p in pairs]
    groups = {}
    for k, ((qf, _), (pf, _)) in enumerate(packed):
        if qf.shape[0] < 2 or pf.shape[0] < 2:
            raise ValueError("both sequences need at least 2 windows")
        groups.setdefault((qf.shape[0], pf.shape[0]), []).append(k)
    values = np.empty(len(pairs))
    G = np.empty((len(pairs), model.to_vector().size))
    fgrads = [None] * len(pairs)
    for members in groups.values():
        query = tuple(np.stack([packed[k][0][t] for k in members]) for t in (0, 1))
        proto = tuple(np.stack([packed[k][1][t] for k in members]) for t in (0, 1))
        cost, caches = cost_matrix(model, query, proto)
        vals, _, E = _soft_dtw_tables(cost, band, gamma)
        g, dq, dp = _cost_gradients(model, caches, E, want_feature_grads)
        values[members] = vals
        G[members] = g
        if want_feature_grads:
            for t, k in enumerate(members):
                fgrads[k] = (dq[t], dp[t])
    return values, G, fgrads


def soft_dtw(model: MetricModel, query, proto, band: int = 3,
             gamma: float = 0.1, want_feature_grads: bool = False):
    """Soft-min banded alignment value and its gradients.

    Returns ``(value, metric gradient)`` or, with ``want_feature_grads``,
    ``(value, metric gradient, dvalue/dquery_features,
    dvalue/dproto_features)``; the metric gradient is flat, in the
    ``MetricModel.to_vector`` layout.  The value is always <= the exact dtw
    distance on the same inputs and can be negative for near-identical
    sequences.  The tables come from the stacked kernel ``_soft_dtw_tables``
    on a stack of one.
    """
    values, G, fgrads = _soft_dtw_pairs(model, [(query, proto)], band, gamma,
                                        want_feature_grads)
    out = (float(values[0]), G[0])
    return out + tuple(fgrads[0]) if want_feature_grads else out


def soft_dtw_value(model: MetricModel, query, proto, band: int = 3,
                   gamma: float = 0.1) -> float:
    return soft_dtw(model, query, proto, band, gamma)[0]


# ---------------------------------------------------------------------------
# margin loss and metric training
# ---------------------------------------------------------------------------


def _hinge(values, G, margin: float, fg=None):
    """Margin loss of one positive (index 0) against its negatives (1..k).

    Returns the loss, its flat metric gradient and, given each pair's
    feature gradients ``fg`` (a list of ``(dquery, dproto)``), the loss's
    gradient w.r.t. every pair's query and proto features, as a list of
    ``[dquery, dproto]``; otherwise None.  Gradients accumulate in negative
    order.
    """
    values = values.tolist()
    k = len(values) - 1
    total = 0.0
    acc = np.zeros(G.shape[1])
    active = []
    for t in range(1, k + 1):
        hinge = margin + values[0] - values[t]
        if hinge > 0.0:
            total += hinge
            acc += (1.0 / k) * G[0]
            acc += (-1.0 / k) * G[t]
            active.append(t)
    if fg is None:
        return total / k, acc, None
    fgrads = [[np.zeros_like(dq), np.zeros_like(dp)] for dq, dp in fg]
    for t in active:
        for side in (0, 1):
            fgrads[0][side] += fg[0][side] / k
            fgrads[t][side] -= fg[t][side] / k
    return total / k, acc, fgrads


def _margin_losses(model: MetricModel, items, margin: float, gamma: float,
                   band: int, want_feature_grads: bool = False):
    """``_hinge`` of every ``(positive, negatives)`` item, each pair a
    ``(query, proto)``; every pair of every item is scored in one
    ``_soft_dtw_pairs`` batch.  Returns one ``(loss, metric gradient,
    feature gradients or None)`` per item."""
    if margin <= 0.0:
        raise ValueError("margin must be > 0")
    pairs, bounds = [], [0]
    for positive, negatives in items:
        if not negatives:
            raise ValueError("margin loss needs at least one negative pair")
        pairs += [positive] + list(negatives)
        bounds.append(len(pairs))
    values, G, fg = _soft_dtw_pairs(model, pairs, band, gamma, want_feature_grads)
    return [_hinge(values[lo:hi], G[lo:hi], margin, fg[lo:hi] if want_feature_grads else None)
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def margin_loss(model: MetricModel, positive, negatives, margin: float = 1.0,
                gamma: float = 0.1, band: int = 3) -> float:
    """Mean over negatives of max(0, margin + sdtw(pos) - sdtw(neg))."""
    return _margin_losses(model, [(positive, negatives)], margin, gamma, band)[0][0]


def margin_loss_grads(model: MetricModel, positive, negatives,
                      margin: float = 1.0, gamma: float = 0.1, band: int = 3,
                      want_feature_grads: bool = False):
    """Margin loss and its flat metric gradient, in the
    ``MetricModel.to_vector`` layout.  With ``want_feature_grads`` also
    returns, per pair (positive first), the gradients w.r.t. its query and
    proto features."""
    loss, grad, fgrads = _margin_losses(model, [(positive, negatives)], margin,
                                        gamma, band, want_feature_grads)[0]
    return (loss, grad, fgrads) if want_feature_grads else (loss, grad)


def make_alignment_loss(model: MetricModel, margin: float = 1.0,
                        gamma: float = 0.1, band: int = 3):
    """Closure handed to the filter-selector trainer.

    Takes a list of items ``(pos_pair, neg_pairs)``, each pair filtered
    ``(q_feats, q_present, p_feats, p_present)``, and returns one
    ``(loss, [[dq, dp], ...])`` per item: its ``margin_loss_grads`` loss and
    the gradients w.r.t. the filtered feature arrays, positive first.  Every
    pair of every item is scored in one ``_soft_dtw_pairs`` batch.
    """
    def as_pair(it):
        return (it[0], it[1]), (it[2], it[3])

    def loss_fn(items):
        items = [(as_pair(pos), [as_pair(neg) for neg in negs]) for pos, negs in items]
        return [(loss, fgrads) for loss, _, fgrads in
                _margin_losses(model, items, margin, gamma, band, want_feature_grads=True)]
    return loss_fn


def train_metric(model: MetricModel, pairs, epochs: int = 20,
                 step_size: float = 0.05, margin: float = 1.0,
                 gamma: float = 0.1, band: int = 3) -> MetricModel:
    """Plain gradient descent on the margin loss over (positive, negatives).

    ``pairs`` is a list of ``(positive_pair, negative_pairs)`` where a pair is
    ``(query, proto)`` and each element is a FingerprintSequence or a packed
    ``(features, present)`` tuple.  Every pair of an epoch is scored in one
    batch; the hinges then accumulate item by item, in order.  Weights stay a
    valid softmax by construction; ``epochs=0`` returns the model unchanged.
    """
    if not pairs:
        raise ValueError("no positive pairs to train on")
    current = model.copy()
    for _ in range(max(0, epochs)):
        vec = current.to_vector()
        acc = np.zeros(vec.size)
        for _, g, _ in _margin_losses(current, pairs, margin, gamma, band):
            acc += (1.0 / len(pairs)) * g
        current = current.from_vector(vec - step_size * acc)
    return current


def mean_margin_loss(model: MetricModel, pairs, margin: float = 1.0,
                     gamma: float = 0.1, band: int = 3) -> float:
    return float(np.mean([loss for loss, _, _ in
                          _margin_losses(model, pairs, margin, gamma, band)]))


# ---------------------------------------------------------------------------
# weak supervision pairs and matching
# ---------------------------------------------------------------------------


def pairs_from_switch_tags(segments, library, negatives_per_positive: int = 4,
                           seed: int = 0):
    """Build (positive, negatives) tuples from switch-tagged segments.

    Positives pair a live pre-switch segment with a library prototype of the
    same switch kind; negatives come from prototypes of a different kind and
    from time-shuffled copies of the matched prototype.
    """
    rng = np.random.default_rng(seed)
    protos = list(library.items())
    pairs = []
    for seg in segments:
        kind = seg.label.kind if seg.label is not None else None
        same = [(pid, s) for pid, s in protos
                if s.label is not None and s.label.kind == kind
                and s.prototype_id != seg.prototype_id]
        if kind is None or not same:
            continue
        pid, proto = same[rng.integers(len(same))]
        negatives = []
        other = [(p, s) for p, s in protos
                 if s.label is None or s.label.kind != kind]
        rng.shuffle(other)
        for _, s in other[:negatives_per_positive // 2]:
            negatives.append((seg, s))
        while len(negatives) < negatives_per_positive:
            feats, pres = proto.packed()
            perm = rng.permutation(feats.shape[0])
            negatives.append((seg, (feats[perm], pres[perm])))
        pairs.append(((seg, proto), negatives))
    if not pairs:
        raise ValueError("no positives could be formed from the switch tags")
    return pairs


def match(model: MetricModel, selector, live_window, library, band: int,
          top_k: int, ctx):
    """Rank library prototypes by similarity to the live window.

    The live window and every prototype are denoised with the filter the
    selector chooses for ``ctx``, the live window's ``FilterContext``, before
    alignment, so a prototype that equals the live window scores similarity
    1.0 exactly.  Prototypes of one length are filtered, scored and aligned
    together: one ``denoise_matrix``, one ``cost_matrix`` and one banded
    recursion per length group.  The live window is stacked on top of the
    group of its own length and filtered in that group's ``denoise_matrix``
    call; it is filtered alone only when no group shares its length.  Each
    series is filtered on its own, so stacking changes no bit.  A
    ``FingerprintLibrary`` keeps its groups
    between calls (``FingerprintLibrary.length_groups``); any other iterable
    of ``(prototype_id, prototype)``, or mapping, is grouped per call.  A
    prototype with no admissible path inside the band is left out.  Each
    result equals ``dtw`` on that prototype alone; distances are read from
    the last cell of each recursion, and tables are unskewed and paths
    backtracked only for the ``top_k`` results returned.  Ties break on the
    smaller prototype id.  An empty library yields an empty list.
    """
    # imported at call time, so a rebinding of these names in the filters
    # module (bench/spans.py traces them that way) takes effect here
    from .filters import denoise_matrix, select_filter

    if isinstance(library, FingerprintLibrary):
        groups = library.length_groups()
    else:
        entries = library.items() if hasattr(library, "items") else library
        groups = group_by_length((pid, _pack(proto)) for pid, proto in entries)
    if not groups:
        return []
    if band < 1:
        raise ValueError("band must be >= 1")
    qf, qp = _pack(live_window)
    n = qf.shape[0]
    if n < 2 or min(pf.shape[1] for _, pf, _ in groups) < 2:
        raise ValueError("both sequences need at least 2 windows")
    choice = select_filter(selector, ctx)
    # the live window rides on top of the group of its own length, so one
    # filter pass serves both; with no such group it is filtered alone
    own = next((g for g, (_, pf, _) in enumerate(groups) if pf.shape[1] == n), None)
    filtered = [None] * len(groups)
    if own is None:
        query = (denoise_matrix(choice, qf), qp)
    else:
        both = denoise_matrix(choice, np.concatenate([qf[None], groups[own][1]]))
        query, filtered[own] = (both[0], qp), both[1:]
    beta = model.beta
    tables, scored = [], []
    for (ids, pf, pp), pf_filtered in zip(groups, filtered):
        if pf_filtered is None:
            pf_filtered = denoise_matrix(choice, pf)
        cost, _ = cost_matrix(model, query, (pf_filtered, pp))
        S = _sweep(_skew(cost, band), _hard_step)
        last = S[:, -1, n - 1].tolist()
        for t, (pid, distance) in enumerate(zip(ids, last)):
            if math.isfinite(distance):
                scored.append((pid, distance, math.exp(-beta * distance), len(tables), t))
        tables.append(S)
    scored.sort(key=lambda e: (-e[2], e[0]))
    results = []
    for pid, distance, similarity, g, t in scored[:max(0, top_k)]:
        D = _unskew(tables[g][t:t + 1], n, groups[g][1].shape[1])[0]
        results.append((pid, AlignmentResult(distance, _backtrack(D), similarity)))
    return results
