"""Banded DTW and soft-DTW over a learned modality-weighted metric.

The cell cost between two fingerprint windows is a sum over modalities of a
learned weight times the squared Euclidean distance between linearly embedded
features, zeroed whenever the modality is absent on either side.  Exact DTW
under a Sakoe-Chiba band gives the alignment distance; a learned inverse
temperature calibrates it to a similarity in (0, 1].  One anti-diagonal
recursion computes the exact tables, for one pair (``dtw``) or for a whole
stack of equal-length prototypes (``match``).  The soft-min variant of
the same recursion is differentiable, and this module carries hand-written
backward passes so the metric (and, through the filter mixture, the selector)
trains with plain gradient descent.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fingerprints import (FEATURE_DIMS, MODALITIES, MODALITY_SLICES,
                           Fingerprint, FingerprintSequence)
from .serialize import dump_tensors, fmt, parse_tensors


class BandTooNarrowError(ValueError):
    """Raised when no monotone path fits inside the requested band."""


# ---------------------------------------------------------------------------
# the metric
# ---------------------------------------------------------------------------


@dataclass
class MetricModel:
    """Per-modality linear embeddings, softmax-weighted modality scores,
    and a log-parameterized inverse temperature."""

    embeddings: dict           # modality -> (embed_dim, feature_dim)
    scores: np.ndarray         # (5,) trainable; weights = softmax(scores)
    log_beta: float = 0.0

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        if self.scores.shape != (len(MODALITIES),):
            raise ValueError("scores must have one entry per modality")
        for m in MODALITIES:
            W = np.asarray(self.embeddings[m], dtype=float)
            if W.shape[1] != FEATURE_DIMS[m]:
                raise ValueError(f"embedding for {m} must have {FEATURE_DIMS[m]} columns")
            self.embeddings[m] = W

    @property
    def weights(self) -> np.ndarray:
        e = np.exp(self.scores - self.scores.max())
        return e / e.sum()

    @property
    def beta(self) -> float:
        return math.exp(self.log_beta)

    @classmethod
    def identity(cls, embed_dim: int = 4) -> "MetricModel":
        emb = {m: np.eye(embed_dim, FEATURE_DIMS[m]) for m in MODALITIES}
        return cls(emb, np.zeros(len(MODALITIES)), 0.0)

    @classmethod
    def from_seed(cls, seed: int, embed_dim: int = 4, noise: float = 0.01) -> "MetricModel":
        rng = np.random.default_rng(seed)
        emb = {m: np.eye(embed_dim, FEATURE_DIMS[m])
               + noise * rng.standard_normal((embed_dim, FEATURE_DIMS[m]))
               for m in MODALITIES}
        return cls(emb, np.zeros(len(MODALITIES)), 0.0)

    def copy(self) -> "MetricModel":
        return MetricModel({m: W.copy() for m, W in self.embeddings.items()},
                           self.scores.copy(), self.log_beta)

    # flat parameter view, used by finite-difference tests and the trainers
    def to_vector(self) -> np.ndarray:
        parts = [self.embeddings[m].ravel() for m in MODALITIES]
        parts.append(self.scores)
        parts.append(np.array([self.log_beta]))
        return np.concatenate(parts)

    def from_vector(self, vec) -> "MetricModel":
        vec = np.asarray(vec, dtype=float)
        emb, i = {}, 0
        for m in MODALITIES:
            W = self.embeddings[m]
            emb[m] = vec[i:i + W.size].reshape(W.shape).copy()
            i += W.size
        scores = vec[i:i + len(MODALITIES)].copy()
        i += len(MODALITIES)
        return MetricModel(emb, scores, float(vec[i]))

    def serialize(self) -> str:
        tensors = {f"metric.W_{m}": self.embeddings[m] for m in MODALITIES}
        tensors["metric.scores"] = self.scores
        tensors["metric.log_beta"] = np.array([self.log_beta])
        return dump_tensors(tensors)

    @classmethod
    def deserialize(cls, text: str) -> "MetricModel":
        t = parse_tensors(text)
        emb = {m: t[f"metric.W_{m}"] for m in MODALITIES}
        return cls(emb, t["metric.scores"], float(np.asarray(t["metric.log_beta"]).ravel()[0]))


@dataclass
class MetricGrads:
    embeddings: dict
    scores: np.ndarray
    log_beta: float = 0.0

    @classmethod
    def zeros_like(cls, model: MetricModel) -> "MetricGrads":
        return cls({m: np.zeros_like(W) for m, W in model.embeddings.items()},
                   np.zeros_like(model.scores), 0.0)

    def add(self, other: "MetricGrads", scale: float = 1.0) -> "MetricGrads":
        for m in self.embeddings:
            self.embeddings[m] += scale * other.embeddings[m]
        self.scores += scale * other.scores
        self.log_beta += scale * other.log_beta
        return self

    def to_vector(self) -> np.ndarray:
        parts = [self.embeddings[m].ravel() for m in MODALITIES]
        parts.append(self.scores)
        parts.append(np.array([self.log_beta]))
        return np.concatenate(parts)


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


def cost_matrix(model: MetricModel, query, proto):
    """Full (n, m) cost matrix plus per-modality caches for the backward pass.

    ``proto`` may carry a leading prototype axis, features (P, m, F) and
    presence (P, m, 5) for P prototypes of one length m; the cost is then
    (P, n, m) and each slice equals the cost of that prototype alone.
    """
    qf, qp = _pack(query)
    pf, pp = _pack(proto)
    if qf.shape[-1] != pf.shape[-1]:
        raise ValueError("fingerprint schema mismatch")
    n, m = qf.shape[0], pf.shape[-2]
    w = model.weights
    cost = np.zeros(pf.shape[:-2] + (n, m))
    caches = {}
    for i, mod in enumerate(MODALITIES):
        sl = MODALITY_SLICES[mod]
        diff = qf[:, None, sl] - pf[..., None, :, sl]
        emb = diff @ model.embeddings[mod].T
        sq = np.einsum("...ijk,...ijk->...ij", emb, emb)
        mask = (qp[:, None, i] & pp[..., None, :, i]).astype(float)
        cost += w[i] * sq * mask
        caches[mod] = (diff, emb, sq, mask)
    return cost, caches


def _cost_gradients(model: MetricModel, caches, E):
    """Chain dV/dcost = E into metric-parameter and feature gradients."""
    w = model.weights
    grads = MetricGrads.zeros_like(model)
    dcost_dw = np.zeros(len(MODALITIES))
    n, m = E.shape
    dq_feats = np.zeros((n, 14))
    dp_feats = np.zeros((m, 14))
    for i, mod in enumerate(MODALITIES):
        diff, emb, sq, mask = caches[mod]
        Em = E * mask
        grads.embeddings[mod] = 2.0 * w[i] * np.einsum("ij,ijk,ijl->kl", Em, emb, diff)
        dcost_dw[i] = float(np.sum(Em * sq))
        sl = MODALITY_SLICES[mod]
        dq_feats[:, sl] = 2.0 * w[i] * np.einsum("ij,ijk->ik", Em, emb) @ model.embeddings[mod]
        dp_feats[:, sl] = -2.0 * w[i] * np.einsum("ij,ijk->jk", Em, emb) @ model.embeddings[mod]
    # softmax jacobian: scores -> weights
    grads.scores = w * (dcost_dw - float(np.dot(w, dcost_dw)))
    grads.log_beta = 0.0
    return grads, dq_feats, dp_feats


# ---------------------------------------------------------------------------
# the band
# ---------------------------------------------------------------------------


def in_band(i: int, j: int, n: int, m: int, band: int) -> bool:
    """Sakoe-Chiba corridor, slope-scaled for unequal lengths."""
    return abs(i * (m / n) - j) <= band


def band_mask(n: int, m: int, band: int) -> np.ndarray:
    ii = np.arange(n)[:, None] * (m / n)
    jj = np.arange(m)[None, :]
    return np.abs(ii - jj) <= band


# ---------------------------------------------------------------------------
# exact DTW
# ---------------------------------------------------------------------------


@dataclass
class AlignmentResult:
    distance: float
    path: list
    similarity: float

    def export_line(self, proto_id: str) -> str:
        return f"{proto_id},{fmt(self.distance)},{fmt(self.similarity)},{len(self.path)}"


def _dtw_tables(cost: np.ndarray, band: int) -> np.ndarray:
    """Banded exact-DTW tables D for a (P, n, m) stack of cost matrices.

    D[p, i, j] = cost[p, i, j] + min(D[p, i-1, j-1], D[p, i-1, j],
    D[p, i, j-1]) inside the band and inf outside it or where no monotone
    path reaches the cell.  Cells on one anti-diagonal depend only on the two
    before it, so the recursion sweeps anti-diagonals, each one a single
    vectorized step over every prototype and every cell of the diagonal.
    """
    P, n, m = cost.shape
    INF = np.inf
    # skewed layout: S[:, d + 1, i + 1] holds cell (i, d - i); row 0 (the
    # diagonal before the first) and column 0 are inf padding
    d = np.arange(n + m - 1)[:, None]
    i = np.arange(n)[None, :]
    j = d - i
    jc = np.clip(j, 0, m - 1)
    keep = (j >= 0) & (j < m) & band_mask(n, m, band)[i, jc]
    skew = np.where(keep, cost[:, i, jc], INF)
    S = np.full((P, n + m, n + 1), INF)
    S[:, 1, 1:] = skew[:, 0]
    best = np.empty((P, n))
    for k in range(1, n + m - 1):
        np.minimum(S[:, k - 1, :-1], S[:, k, :-1], out=best)   # diagonal, vertical
        np.minimum(best, S[:, k, 1:], out=best)                # horizontal
        np.add(skew[:, k], best, out=S[:, k + 1, 1:])
    ii, jj = np.indices((n, m))
    return S[:, ii + jj + 1, ii + 1]


def _backtrack(D: np.ndarray) -> list:
    """Warping path through one table; diagonal, then vertical, then horizontal."""
    n, m = D.shape
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        candidates = []
        if i > 0 and j > 0:
            candidates.append((D[i - 1, j - 1], 0, (i - 1, j - 1)))
        if i > 0:
            candidates.append((D[i - 1, j], 1, (i - 1, j)))
        if j > 0:
            candidates.append((D[i, j - 1], 2, (i, j - 1)))
        candidates = [c for c in candidates if np.isfinite(c[0])]
        _, _, (i, j) = min(candidates, key=lambda c: (c[0], c[1]))
        path.append((i, j))
    path.reverse()
    return path


def dtw(model: MetricModel, query, proto, band: int = 3) -> AlignmentResult:
    """Exact minimum-cost banded alignment with deterministic backtracking.

    The table comes from the same banded recursion ``match`` runs over a
    whole library (``_dtw_tables`` on a stack of one).  Backtracking
    tie-break prefers the diagonal predecessor, then the vertical one
    (previous query window), then the horizontal one.
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


def _softmin3(a: float, b: float, c: float, gamma: float) -> float:
    lo = min(a, b, c)
    if not np.isfinite(lo):
        return np.inf
    s = 0.0
    for v in (a, b, c):
        if np.isfinite(v):
            s += math.exp(-(v - lo) / gamma)
    return lo - gamma * math.log(s)


def _soft_dtw_tables(cost: np.ndarray, mask: np.ndarray, gamma: float):
    """Forward soft-min table R (padded) and the backward weight table E."""
    n, m = cost.shape
    INF = np.inf
    R = np.full((n + 1, m + 1), INF)
    R[0, 0] = 0.0
    for i in range(n):
        for j in range(m):
            if not mask[i, j]:
                continue
            if i == 0 and j == 0:
                R[1, 1] = cost[0, 0]
                continue
            R[i + 1, j + 1] = cost[i, j] + _softmin3(
                R[i, j + 1], R[i + 1, j], R[i, j], gamma)
    value = R[n, m]
    if not np.isfinite(value):
        raise BandTooNarrowError("band too narrow: no admissible warping path")
    E = np.zeros((n, m))
    E[n - 1, m - 1] = 1.0
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if (i, j) == (n - 1, m - 1) or not mask[i, j] or not np.isfinite(R[i + 1, j + 1]):
                continue
            acc = 0.0
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                si, sj = i + di, j + dj
                if si >= n or sj >= m or not mask[si, sj]:
                    continue
                if not np.isfinite(R[si + 1, sj + 1]):
                    continue
                wgt = math.exp((R[si + 1, sj + 1] - cost[si, sj] - R[i + 1, j + 1]) / gamma)
                acc += E[si, sj] * wgt
            E[i, j] = acc
    return float(value), E


def soft_dtw(model: MetricModel, query, proto, band: int = 3,
             gamma: float = 0.1, want_feature_grads: bool = False):
    """Soft-min banded alignment value and its gradients.

    Returns ``(value, MetricGrads)`` or, with ``want_feature_grads``,
    ``(value, MetricGrads, dvalue/dquery_features, dvalue/dproto_features)``.
    The value is always <= the exact dtw distance on the same inputs and can
    be negative for near-identical sequences.
    """
    if gamma <= 0.0:
        raise ValueError("soft-min smoothing gamma must be > 0")
    if band < 1:
        raise ValueError("band must be >= 1")
    cost, caches = cost_matrix(model, query, proto)
    n, m = cost.shape
    if n < 2 or m < 2:
        raise ValueError("both sequences need at least 2 windows")
    mask = band_mask(n, m, band)
    value, E = _soft_dtw_tables(cost, mask, gamma)
    grads, dq, dp = _cost_gradients(model, caches, E)
    if want_feature_grads:
        return value, grads, dq, dp
    return value, grads


def soft_dtw_value(model: MetricModel, query, proto, band: int = 3,
                   gamma: float = 0.1) -> float:
    value, _ = soft_dtw(model, query, proto, band, gamma)
    return value


# ---------------------------------------------------------------------------
# margin loss and metric training
# ---------------------------------------------------------------------------


def margin_loss(model: MetricModel, positive, negatives, margin: float = 1.0,
                gamma: float = 0.1, band: int = 3) -> float:
    """Mean over negatives of max(0, margin + sdtw(pos) - sdtw(neg))."""
    loss, _ = margin_loss_grads(model, positive, negatives, margin, gamma, band)
    return loss


def margin_loss_grads(model: MetricModel, positive, negatives,
                      margin: float = 1.0, gamma: float = 0.1, band: int = 3,
                      want_feature_grads: bool = False):
    if not negatives:
        raise ValueError("margin loss needs at least one negative pair")
    if margin <= 0.0:
        raise ValueError("margin must be > 0")
    pos_val, pos_g, pos_dq, pos_dp = soft_dtw(
        model, positive[0], positive[1], band, gamma, want_feature_grads=True)
    total = 0.0
    acc = MetricGrads.zeros_like(model)
    k = len(negatives)
    fgrads = [[np.zeros_like(pos_dq), np.zeros_like(pos_dp)]]
    for nq, np_ in negatives:
        neg_val, neg_g, neg_dq, neg_dp = soft_dtw(
            model, nq, np_, band, gamma, want_feature_grads=True)
        hinge = margin + pos_val - neg_val
        fgrads.append([np.zeros_like(neg_dq), np.zeros_like(neg_dp)])
        if hinge > 0.0:
            total += hinge
            acc.add(pos_g, 1.0 / k)
            acc.add(neg_g, -1.0 / k)
            fgrads[0][0] += pos_dq / k
            fgrads[0][1] += pos_dp / k
            fgrads[-1][0] -= neg_dq / k
            fgrads[-1][1] -= neg_dp / k
    loss = total / k
    if want_feature_grads:
        return loss, acc, fgrads
    return loss, acc


def make_alignment_loss(model: MetricModel, margin: float = 1.0,
                        gamma: float = 0.1, band: int = 3):
    """Closure handed to the filter-selector trainer.

    Takes filtered items ``(q_feats, q_present, p_feats, p_present)`` for the
    positive and each negative, and returns ``(loss, [(dq, dp), ...])`` with
    gradients w.r.t. the filtered feature arrays.
    """
    def loss_fn(pos_item, neg_items):
        positive = ((pos_item[0], pos_item[1]), (pos_item[2], pos_item[3]))
        negatives = [((it[0], it[1]), (it[2], it[3])) for it in neg_items]
        pos_pair = (positive[0], positive[1])
        loss, _, fgrads = margin_loss_grads(model, pos_pair, negatives,
                                            margin, gamma, band,
                                            want_feature_grads=True)
        return loss, [(g[0], g[1]) for g in fgrads]
    return loss_fn


def train_metric(model: MetricModel, pairs, epochs: int = 20,
                 step_size: float = 0.05, margin: float = 1.0,
                 gamma: float = 0.1, band: int = 3) -> MetricModel:
    """Plain gradient descent on the margin loss over (positive, negatives).

    ``pairs`` is a list of ``(positive_pair, negative_pairs)`` where a pair is
    ``(query, proto)`` and each element is a FingerprintSequence or a packed
    ``(features, present)`` tuple.  Weights stay a valid softmax by
    construction; ``epochs=0`` returns the model unchanged.
    """
    if not pairs:
        raise ValueError("no positive pairs to train on")
    current = model.copy()
    for _ in range(max(0, epochs)):
        acc = MetricGrads.zeros_like(current)
        for positive, negatives in pairs:
            _, g = margin_loss_grads(current, positive, negatives, margin, gamma, band)
            acc.add(g, 1.0 / len(pairs))
        emb = {m: current.embeddings[m] - step_size * acc.embeddings[m]
               for m in MODALITIES}
        scores = current.scores - step_size * acc.scores
        log_beta = current.log_beta - step_size * acc.log_beta
        current = MetricModel(emb, scores, log_beta)
    return current


def mean_margin_loss(model: MetricModel, pairs, margin: float = 1.0,
                     gamma: float = 0.1, band: int = 3) -> float:
    return float(np.mean([margin_loss(model, p, n, margin, gamma, band)
                          for p, n in pairs]))


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


def match(model: MetricModel, selector, live_window, library,
          band: int = 3, top_k: int = 3, ctx=None):
    """Rank library prototypes by calibrated similarity to the live window.

    The live window and every prototype are denoised with the filter chosen
    from the live window's context (``context_from_windows`` with scan age 0
    when ``ctx`` is None) before alignment, so a prototype that equals the
    live window scores similarity 1.0 exactly.  Prototypes of one length are
    filtered, scored and aligned together: one ``denoise_matrix``, one
    ``cost_matrix`` and one banded recursion per length.  A prototype with no
    admissible path inside the band is left out.  Each result equals
    ``dtw`` on that prototype alone; paths are backtracked only for the
    ``top_k`` results returned.  Ties break on the smaller prototype id.  An
    empty library yields an empty list.
    """
    from .filters import context_from_windows, denoise_matrix, select_filter

    entries = list(library.items()) if hasattr(library, "items") else list(library)
    if not entries:
        return []
    if band < 1:
        raise ValueError("band must be >= 1")
    qf, qp = _pack(live_window)
    if ctx is None:
        ctx = context_from_windows(qf, qp, 0.0)
    choice = select_filter(selector, ctx)
    query = (denoise_matrix(choice, qf), qp)
    packed = [_pack(proto) for _, proto in entries]
    by_length = {}
    for k, (pf, _) in enumerate(packed):
        by_length.setdefault(pf.shape[0], []).append(k)
    if qf.shape[0] < 2 or min(by_length) < 2:
        raise ValueError("both sequences need at least 2 windows")
    tables = [None] * len(entries)
    for members in by_length.values():
        pf = np.stack([packed[k][0] for k in members])
        pp = np.stack([packed[k][1] for k in members])
        cost, _ = cost_matrix(model, query, (denoise_matrix(choice, pf), pp))
        for k, D in zip(members, _dtw_tables(cost, band)):
            tables[k] = D
    beta = model.beta
    scored = []
    for (pid, _), D in zip(entries, tables):
        distance = float(D[-1, -1])
        if np.isfinite(distance):
            scored.append((pid, distance, math.exp(-beta * distance), D))
    scored.sort(key=lambda e: (-e[2], e[0]))
    return [(pid, AlignmentResult(distance, _backtrack(D), similarity))
            for pid, distance, similarity, D in scored[:max(0, top_k)]]
