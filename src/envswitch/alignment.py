"""Banded DTW and soft-DTW over a learned modality-weighted metric.

The cell cost between two fingerprint windows is a sum over modalities of a
learned weight times the squared Euclidean distance between linearly embedded
features, zeroed whenever the modality is absent on either side.  One kernel
costs every alignment, ``_kept_costs``: from both sides embedded once for all
modalities and laid out time-major, it gathers only the cells inside the
Sakoe-Chiba band, anti-diagonal by anti-diagonal with the pairs innermost,
(kept cell, pair), the order the recursion reads them in.  One forward
sweep (``_sweep``) runs both recursions on a diagonal-major (anti-diagonal,
row, pair) table, through views planned per shape and band (``_sweep_plan``):
with a hard min for exact DTW (``dtw`` on a stack of one, ``match`` on each
length group of a library), and with a soft-min for soft-DTW (``soft_dtw``
on one pair, and every margin loss on all pairs of its positives and
negatives at once).  Buffers and tables are allocated per call, except in
``match``: it scores a library in groups of one prototype length
(``_Group``), a plan kept per library and version that holds what the
version fixes (the prototypes in a padded stack per filter radius, with
their Gaussian taps), and costs and sweeps each group in a workspace kept
per shape (``_workspace``), so a call redoes only the work that depends on
it.  The metric's kernel is built once per metric content (``_kernel``,
and for ``match`` ``_costing``, which drops the all-zero embedding rows).
Exact DTW gives the alignment distance d and the similarity exp(-beta * d)
in (0, 1], with a fixed scale beta = 1; a distance is read from the last
cell, and no warping path is backtracked.  Soft-DTW is differentiable: its
backward weights sweep the same layout in reverse, and hand-written
gradients let the metric (and, through the filter mixture, the selector)
train with plain gradient descent.  ``cost_matrix`` costs every cell
densely; it is the reference the tests check the banded costs against.
"""

import functools
import heapq
import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import filters
from .fingerprints import (FEATURE_DIMS, MODALITIES, MODALITY_SLICES, N_FEATURES,
                           Fingerprint, FingerprintLibrary, FingerprintSequence)
from .mlp import pick_tensors, softmax
from .serialize import dump_tensors, parse_tensors


class BandTooNarrowError(ValueError):
    """Raised when no monotone path fits inside the requested band."""


# ---------------------------------------------------------------------------
# the metric
# ---------------------------------------------------------------------------


@dataclass
class MetricModel:
    """Per-modality linear embeddings and softmax-weighted modality scores.

    ``train_metric`` can fit every parameter, but the pipeline serves
    ``identity``: a fitted metric lowered TTS at 8 of 9 training seeds."""

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
        *embeddings, scores = pick_tensors(
            parse_tensors(text), [f"metric.W_{m}" for m in MODALITIES] + ["metric.scores"])
        return cls(dict(zip(MODALITIES, embeddings)), scores)


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
        d = W @ (q.features[MODALITY_SLICES[m]] - f.features[MODALITY_SLICES[m]])
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


def _kernel(model: MetricModel):
    """What every cost is computed from: the (E, 14) block-diagonal
    embedding Wb of all modalities at once, the (E, 5) modality indicator of
    its rows and the (5,) weights; read-only.  Built once per metric
    content, keyed by the bytes of ``to_vector`` and the embed dim:
    ``MetricModel`` is mutable, and an edited or new model gets a fresh
    kernel."""
    return _kernel_of(model.to_vector().tobytes(), model.embed_dim)


@functools.lru_cache(maxsize=8)
def _kernel_of(vector: bytes, embed_dim: int):
    index, indicator = _block_layout(embed_dim)
    vec = np.frombuffer(vector)
    Wb = np.zeros((indicator.shape[0], N_FEATURES))
    Wb.flat[index] = vec[:index.size]
    w = softmax(vec[index.size:].copy())
    for a in (Wb, w):
        a.setflags(write=False)
    return Wb, indicator, w


def _costing(model: MetricModel):
    """``match``'s form of ``_kernel``: ``(Wt, kernel)``, the kernel of the
    costing coordinates and the (14, E) product that embeds a window into
    them, None when that product is the identity.  The costing coordinates
    are the rows of Wb that are not all zero: a zero row embeds every
    window to +-0.0, whose square adds +0.0 to every sum of its modality,
    so leaving it out leaves the other squares summed in the same order.
    ``MetricModel.identity`` keeps 14 of its 20 rows, and they form the
    identity, so its windows are costed on their features as they are.
    Read-only, built once per metric content, as ``_kernel`` is."""
    return _costing_of(model.to_vector().tobytes(), model.embed_dim)


@functools.lru_cache(maxsize=8)
def _costing_of(vector: bytes, embed_dim: int):
    Wb, indicator, w = _kernel_of(vector, embed_dim)
    rows = Wb.any(axis=1)
    kernel = (Wb[rows], indicator[rows], w)
    for a in kernel[:2]:
        a.setflags(write=False)
    return (None if np.array_equal(kernel[0], np.eye(N_FEATURES)) else kernel[0].T), kernel


def _cell_costs(kernel, squares: np.ndarray, mask, sq=None, cost=None,
                masked=None):
    """Costs (...) of cells with squared embedded differences ``squares``
    (..., E) and presence ``mask`` (..., 5), and their squared distances sq
    (..., 5): a product with the (E, 5) modality indicator gives sq and,
    masked, one with the weights sums them.  A ``mask`` of None says every
    modality is present on both sides of every cell, and its product, with
    1.0 everywhere and so exact, is skipped.  ``sq`` (N, 5), ``cost`` (N,)
    and ``masked`` (N, 5), N cells, are the buffers the three steps write
    into, allocated when None; ``masked`` may be ``sq`` itself."""
    _, indicator, w = kernel
    sq = np.matmul(squares.reshape(-1, squares.shape[-1]), indicator, out=sq)
    masked = sq if mask is None else np.multiply(sq, mask.reshape(sq.shape), out=masked)
    cost = np.matmul(masked, w, out=cost)
    lead = squares.shape[:-1]
    return cost.reshape(lead), sq.reshape(lead + (len(MODALITIES),))


def _check_schema(qf: np.ndarray, pf: np.ndarray):
    if qf.shape[-1] != pf.shape[-1]:
        raise ValueError("fingerprint schema mismatch")


def cost_matrix(model: MetricModel, query, proto) -> np.ndarray:
    """Dense reference cost of every cell, inside the band or not, (n, m).

    ``proto`` may carry a leading prototype axis, features (P, m, F) and
    presence (P, m, 5) for P prototypes of one length m; the cost is then
    (P, n, m).  A query stacked the same way, (P, n, F), pairs query p with
    prototype p.  No pipeline path reads it: ``_banded_costs`` costs the
    cells inside the band alone, by the same kernel, and the tests check it
    against this matrix cell by cell.
    """
    qf, qp = _pack(query)
    pf, pp = _pack(proto)
    _check_schema(qf, pf)
    kernel = _kernel(model)
    Wt = kernel[0].T
    diff = _rows(qf, Wt)[..., :, None, :] - _rows(pf, Wt)[..., None, :, :]
    return _cell_costs(kernel, diff * diff, qp[..., :, None, :] & pp[..., None, :, :])[0]


def _ordered_sums(x: np.ndarray, major, order, size: int) -> np.ndarray:
    """Sums (P, size, ...) of the (C, P, ...) terms ``x`` of the kept cells
    over each grid row (or column) ``major``, visiting the cells in
    ``order``.  Each sum starts from +0.0 and adds its terms one at a time
    in grid order, as the sum over a dense zero-filled grid does (adding
    its +0.0 cells changes nothing), so it keeps every bit, signed zeros
    included."""
    out = np.zeros((size,) + x.shape[1:])
    for c, at in zip(order.tolist(), major[order].tolist()):
        out[at] += x[c]
    return np.ascontiguousarray(out.swapaxes(0, 1))


def _cost_gradients(model: MetricModel, caches, E):
    """Chain dV/dcost = E into metric and feature gradients.

    ``caches`` come from ``_banded_costs`` and E is skewed like the tables
    of ``_soft_dtw_tables``, (P, n + m - 1, n).  With M = E * mask * w on
    each modality's embedded coordinates, the sums of M * diff over proto
    windows A (P, n, E) and over query windows B (P, m, E) give every
    gradient: 2 (A^T q - B^T p) for the block-diagonal embedding Wb, 2 A Wb
    for the query and -2 B Wb for the proto features.  E is read at the
    kept cells only, and their terms are summed one at a time in the order
    a dense (n, m) grid sums them, along each row and each column
    (``_ordered_sums`` over the kept cells in row-major and column-major
    order), so no gradient changes a bit and no grid is allocated.
    Returns the flat metric gradient of every pair, (P, n_params) in the
    ``to_vector`` layout, and the feature gradients (P, n, 14) and (P, m,
    14).
    """
    qf, pf, (Wb, _, w), diff, sq, mask, band = caches
    (P, m, _), n = pf.shape, qf.shape[-2]
    keep, rows, cols = _skew_index(n, m, band)
    by_row, by_col = np.lexsort((cols, rows)), np.lexsort((rows, cols))
    index = _block_layout(model.embed_dim)[0]
    Em = E.transpose(1, 2, 0)[keep][..., None] * mask
    # summed down the kept cells in row-major order: numpy adds row by row
    dcost_dw = (Em * sq)[by_row].sum(axis=0)
    Em *= w
    # M * diff overwrites the cached differences (the caches are used up)
    Md = diff.reshape(diff.shape[:2] + (len(MODALITIES), model.embed_dim))
    Md *= Em[..., None]
    A, B = _ordered_sums(diff, rows, by_row, n), _ordered_sums(diff, cols, by_col, m)
    gW = 2.0 * (np.swapaxes(A, 1, 2) @ qf - np.swapaxes(B, 1, 2) @ pf)
    G = np.empty((P, index.size + len(MODALITIES)))
    G[:, :index.size] = gW.reshape(P, -1)[:, index]
    # softmax jacobian: scores -> weights.  One dot per pair: a batched
    # product may sum the five terms in another order and round differently
    for p in range(P):
        G[p, index.size:] = w * (dcost_dw[p] - float(np.dot(w, dcost_dw[p])))
    return G, _rows(2.0 * A, Wb), _rows(-2.0 * B, Wb)


# ---------------------------------------------------------------------------
# the band
# ---------------------------------------------------------------------------


def band_mask(n: int, m: int, band: int) -> np.ndarray:
    return np.abs(np.arange(n)[:, None] * (m / n) - np.arange(m)[None, :]) <= band


# ---------------------------------------------------------------------------
# exact DTW
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignmentResult:
    """Distance and similarity of one alignment."""

    distance: float
    similarity: float


@functools.lru_cache(maxsize=256)
def _skew_index(n: int, m: int, band: int):
    """The cells the band keeps in the skewed layout of an (n, m) grid:
    ``keep`` (n + m - 1, n) marks entry (d, i), cell (i, d - i), when it is
    on the grid and inside the band, and ``rows`` and ``cols`` hold the row
    and column of every kept cell, in the order of ``layout[keep]``.
    Read-only, and cached per (n, m, band): they depend on nothing else."""
    d = np.arange(n + m - 1)[:, None]
    i = np.arange(n)[None, :]
    j = d - i
    keep = (j >= 0) & (j < m) & band_mask(n, m, band)[i, np.clip(j, 0, m - 1)]
    rows, cols = np.broadcast_to(i, keep.shape)[keep], j[keep]
    for a in (keep, rows, cols):
        a.setflags(write=False)
    return keep, rows, cols


def _time_major(a: np.ndarray) -> np.ndarray:
    """(T, F) -> (T, 1, F) and (B, T, F) -> (T, B, F), both views."""
    return a[:, None] if a.ndim == 2 else a.swapaxes(0, 1)


class _CostScratch:
    """The buffers ``_kept_costs`` writes for C kept cells, Q query series,
    P prototypes and E embedded coordinates: the gathered query rows (C, Q,
    E) and presence (C, Q, 5), the differences (C, P, E), the mask (C, P,
    5), the squared distances (C * P, 5) and the costs (C * P,)."""

    __slots__ = ("qrows", "qmask", "diff", "mask", "sq", "cost")

    def __init__(self, C: int, Q: int, P: int, E: int):
        K = len(MODALITIES)
        self.qrows, self.qmask = np.empty((C, Q, E)), np.empty((C, Q, K), bool)
        self.diff, self.mask = np.empty((C, P, E)), np.empty((C, P, K), bool)
        self.sq, self.cost = np.empty((C * P, K)), np.empty(C * P)


def _kept_costs(kernel, qe, pe, rows, cols, masks=None, scratch=None):
    """Costs (C, P) of the cells the band keeps, cell c at query row
    ``rows[c]`` and prototype column ``cols[c]`` (``_skew_index``).

    Both sides come embedded and time-major: the query qe (n, Q, E), Q = 1
    or P, and the prototypes pe (m, P, E).  ``masks`` holds the query's
    presence (n, Q, 5) and the prototypes' presence already gathered at the
    kept columns (C, P, 5); None says every modality is present on both
    sides, and no mask is formed.  The cells are gathered as (C, P, E)
    differences, so the costs come out in the order of the skewed layout,
    diagonal by diagonal, with the pairs innermost.  Every step writes into
    a ``_CostScratch``.  Given one (``match`` passes the one of its
    group's ``_workspace``), the differences are squared and the squared
    distances masked in place, nothing is allocated and the costs are a
    view of ``scratch.cost``.  Without one (``_banded_costs``), a fresh one
    is built and the squares and the masked distances get arrays of their
    own, so the differences, the squared distances (C, P, 5) and the
    presence mask (C, P, 5), also returned, are what ``_cost_gradients``
    reads.
    """
    keep = scratch is None
    s = _CostScratch(rows.size, qe.shape[1], pe.shape[1], pe.shape[2]) if keep else scratch
    # mode="clip" lets take write into out without a buffer; the indices
    # are in range, so it changes nothing else
    pe.take(cols, axis=0, out=s.diff, mode="clip")
    np.subtract(qe.take(rows, axis=0, out=s.qrows, mode="clip"), s.diff, out=s.diff)
    mask = None
    if masks is not None:
        qp, pp_kept = masks
        mask = np.bitwise_and(qp.take(rows, axis=0, out=s.qmask, mode="clip"), pp_kept,
                              out=s.mask)
    squares = s.diff * s.diff if keep else np.multiply(s.diff, s.diff, out=s.diff)
    cost, sq = _cell_costs(kernel, squares, mask, s.sq, s.cost, None if keep else s.sq)
    return cost, s.diff, sq, mask


def _banded_costs(model: MetricModel, query, proto, band: int):
    """Costs of the cells inside the band, (C, P), in the order ``_sweep``
    reads them, and the caches of their backward pass; ``dtw`` and soft-DTW
    training cost through it, ``match`` through its core ``_kept_costs``.

    ``proto`` is a stack of P prototypes of one length m, (P, m, F), and
    ``query`` one (n, F) sequence or a stack (P, n, F) whose query p pairs
    with prototype p.  Both sides are embedded once by the block-diagonal
    Wb (E, 14) and ``_kept_costs`` gathers and reduces the kept cells, so
    each cost equals the dense ``cost_matrix`` cell bit for bit and
    identical windows cost 0.  The caches ``(qf, pf, kernel, diff, sq,
    mask, band)`` feed ``_cost_gradients``.
    """
    qf, qp = _pack(query)
    pf, pp = _pack(proto)
    _check_schema(qf, pf)
    _, rows, cols = _skew_index(qf.shape[-2], pf.shape[1], band)
    kernel = _kernel(model)
    Wt = kernel[0].T
    cost, *cells = _kept_costs(kernel, _time_major(_rows(qf, Wt)), _time_major(_rows(pf, Wt)),
                               rows, cols,
                               (_time_major(qp), np.take(_time_major(pp), cols, axis=0)))
    return cost, (qf, pf, kernel, *cells, band)


@functools.lru_cache(maxsize=256)
def _sweep_slices(n: int, m: int, band: int, P: int):
    """The flat slices ``_sweep`` steps through, per (n, m, band, P).

    The table is a flat C-contiguous (n + m, n + 1, P) array whose entry
    [d + 1, i + 1] holds cell (i, d - i) of every pair; row 0 and column 0
    are inf padding.  The kept cells of anti-diagonal k are the rows i in
    one run [lo, hi), and their costs one run of the (C, P) costs.  Its
    step reads those costs and the vertical [k, lo:hi], horizontal
    [k, lo + 1:hi + 1] and diagonal [k - 1, lo:hi] predecessors, and writes
    [k + 1, lo + 1:hi + 1]: five 1-D slices.  Returns the (costs, out)
    slices of diagonal 0 and the five slices of every later diagonal that
    keeps a cell.
    """
    keep = _skew_index(n, m, band)[0]
    row = (n + 1) * P
    steps, start = [], 0
    lows, counts = keep.argmax(axis=1).tolist(), keep.sum(axis=1).tolist()
    for k, (lo, c) in enumerate(zip(lows, counts)):
        if c:
            a, b = k * row + lo * P, k * row + (lo + c) * P
            steps.append((slice(start * P, (start + c) * P), slice(a, b),
                          slice(a + P, b + P), slice(a - row, b - row),
                          slice(a + row + P, b + row + P)))
        start += c
    return (steps[0][0], steps[0][4]), tuple(steps[1:])


def _sweep_plan(n: int, m: int, band: int, cost: np.ndarray):
    """The views ``_sweep`` steps through for the C-contiguous (C, P) costs
    ``cost`` of an (n, m) band, bound to ``cost`` and to an inf-filled flat
    table of its own: ``(table, (costs, out) of diagonal 0, the five views
    of every later step)``, the table as ``_sweep`` returns it.  A plan can
    be swept again: a sweep rewrites every kept cell and reads only kept
    cells and the inf cells outside the band, which it never writes.
    """
    P = cost.shape[1]
    (cells0, out0), steps = _sweep_slices(n, m, band, P)
    c = cost.reshape(-1)
    S = np.full((n + m) * (n + 1) * P, np.inf)
    view = S.reshape(n + m, n + 1, P)[1:, 1:].transpose(2, 0, 1)
    return view, (c[cells0], S[out0]), tuple(
        (c[cells], S[vertical], S[horizontal], S[diagonal], S[out])
        for cells, vertical, horizontal, diagonal, out in steps)


def _sweep(cost: np.ndarray, n: int, m: int, band: int, step=None, plan=None) -> np.ndarray:
    """Forward recursion R[i, j] = step(cost[i, j], R[i-1, j], R[i, j-1],
    R[i-1, j-1]) over the kept cells of an (n, m) band, with R[0, 0] =
    cost[0, 0].

    ``cost`` (C, P) comes from ``_banded_costs`` or ``_kept_costs``, the
    producers of costs.  ``step(cost, vertical, horizontal, diagonal,
    out)`` fills ``out`` for the kept cells of one anti-diagonal: soft-DTW
    (``_soft_dtw_tables``) passes ``_soft_step``.  Without a step the sweep
    is exact DTW's (``dtw``, ``match``), cost + min(diagonal, vertical,
    horizontal), its three ufuncs called in the loop: ``match`` sweeps once
    per group and call, and a step callback cost 3-4.5 us more per sweep
    of 15-21 us (n = 6-10, m = 10, band 3, P = 6-24, one x86_64 core).
    The recursion runs diagonal-major, on a C-contiguous (n + m, n + 1, P)
    table, through the views of ``_sweep_plan``: each step works on contiguous runs of all pairs at
    once and reads ``cost`` without a copy.  ``plan`` is a ``_sweep_plan``
    bound to ``cost``; without it one is built for the call.  Returns the
    skewed table as a (P, n + m - 1, n) view, cell (i, j) at [:, i + j, i];
    a cell outside the band, off the grid or without a finite predecessor
    is inf.
    """
    S, (cells, out), steps = _sweep_plan(n, m, band, cost) if plan is None else plan
    out[...] = cells
    if step is not None:
        for views in steps:
            step(*views)
        return S
    minimum, add = np.minimum, np.add
    for c, vertical, horizontal, diagonal, o in steps:
        minimum(diagonal, vertical, out=o)
        minimum(o, horizontal, out=o)
        add(c, o, out=o)
    return S


def dtw(model: MetricModel, query, proto, band: int = 3) -> AlignmentResult:
    """Exact minimum-cost banded alignment.

    ``match``'s banded recursion on a stack of one: ``_banded_costs``, the
    exact-DTW ``_sweep`` and the distance from the last cell.
    """
    if band < 1:
        raise ValueError("band must be >= 1")
    qf, qp = _pack(query)
    pf, pp = _pack(proto)
    n, m = qf.shape[0], pf.shape[0]
    if n < 2 or m < 2:
        raise ValueError("both sequences need at least 2 windows")
    cost = _banded_costs(model, (qf, qp), (pf[None], pp[None]), band)[0]
    S = _sweep(cost, n, m, band)[0]
    distance = float(S[-1, n - 1])
    if not math.isfinite(distance):
        raise BandTooNarrowError("band too narrow: no admissible warping path")
    return AlignmentResult(distance, math.exp(-model.beta * distance))


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
    over the finite predecessors v, lo their minimum; inf if none is finite.

    Only the terms libm would round are sent to it: a predecessor equal to
    lo contributes exp(-0) = 1 and an infinite one exp(-inf) = 0, exactly.
    """
    def step(cost, vertical, horizontal, diagonal, out):
        lo = np.minimum(np.minimum(vertical, horizontal), diagonal)
        ok = np.isfinite(cost) & np.isfinite(lo)
        lo = lo[ok]
        gap = np.stack([vertical[ok], horizontal[ok], diagonal[ok]]) - lo
        e = (gap == 0.0).astype(float)
        rest = np.isfinite(gap) & (gap != 0.0)
        e[rest] = _libm(math.exp, -gap[rest] / gamma)
        out[ok] = cost[ok] + (lo - gamma * _libm(math.log, e[0] + e[1] + e[2]))
    return step


def _soft_dtw_tables(cost: np.ndarray, n: int, m: int, band: int, gamma: float):
    """Banded soft-DTW over the (C, P) kept costs of an (n, m) band, from
    ``_banded_costs``.

    Returns the values (P,), the forward soft-min tables R and the backward
    weight tables E = dvalue/dcost (Cuturi & Blondel 2017), both skewed
    like ``_sweep``'s table, (P, n + m - 1, n): R is inf and E is 0 outside
    the band.
    R is the soft-min ``_sweep``; E sweeps the same anti-diagonals in
    reverse, adding its successors' contributions in the order vertical,
    horizontal, diagonal.  Raises ``BandTooNarrowError`` if any pair has no
    admissible path.
    """
    P, D = cost.shape[1], n + m - 1
    Rs = _sweep(cost, n, m, band, _soft_step(gamma))
    values = Rs[:, D - 1, n - 1]
    if not np.all(np.isfinite(values)):
        raise BandTooNarrowError("band too narrow: no admissible warping path")
    # diagonal-major like ``_sweep``, padded two diagonals past the last and
    # one row past the last: inf for R and the cost, 0 for E, so every
    # successor of a cell is addressable
    Rp = np.full((D + 2, n + 1, P), np.inf)
    Rp[:D, :n] = Rs.transpose(1, 2, 0)
    Cp = np.full((D + 2, n + 1, P), np.inf)
    Cp[:D, :n][_skew_index(n, m, band)[0]] = cost
    cur = Rp[:D, :n]
    weights = []
    for dd, di in ((1, 1), (1, 0), (2, 1)):    # vertical, horizontal, diagonal
        succ = Rp[dd:D + dd, di:n + di]
        ok = np.isfinite(cur) & np.isfinite(succ)
        wgt = np.zeros((D, n, P))
        wgt[ok] = _libm(math.exp, (succ[ok] - Cp[dd:D + dd, di:n + di][ok] - cur[ok]) / gamma)
        weights.append(wgt)
    wv, wh, wd = weights
    Es = np.zeros((D + 2, n + 1, P))
    Es[D - 1, n - 1] = 1.0
    for k in range(D - 2, -1, -1):
        acc = Es[k + 1, 1:] * wv[k]
        acc += Es[k + 1, :n] * wh[k]
        acc += Es[k + 2, 1:] * wd[k]
        Es[k, :n] = acc
    return values, Rs, Es[:D, :n].transpose(2, 0, 1)


def _soft_dtw_pairs(model: MetricModel, pairs, band: int, gamma: float):
    """Soft-DTW value and gradients of every ``(query, proto)`` pair.

    Pairs of one (n, m) shape run together: one ``_banded_costs``, one
    ``_soft_dtw_tables`` and one ``_cost_gradients`` per shape.  Returns the
    values (N,), the flat metric gradients (N, n_params) and a list of
    (dquery, dproto) feature gradients per pair.
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
    for (n, m), members in groups.items():
        query = tuple(np.stack([packed[k][0][t] for k in members]) for t in (0, 1))
        proto = tuple(np.stack([packed[k][1][t] for k in members]) for t in (0, 1))
        cost, caches = _banded_costs(model, query, proto, band)
        vals, _, E = _soft_dtw_tables(cost, n, m, band, gamma)
        g, dq, dp = _cost_gradients(model, caches, E)
        values[members] = vals
        G[members] = g
        for t, k in enumerate(members):
            fgrads[k] = (dq[t], dp[t])
    return values, G, fgrads


def soft_dtw(model: MetricModel, query, proto, band: int = 3,
             gamma: float = 0.1):
    """Soft-min banded alignment value and its metric gradient.

    Returns ``(value, metric gradient)``; the metric gradient is flat, in
    the ``MetricModel.to_vector`` layout.  The value is always <= the exact
    dtw distance on the same inputs and can be negative for near-identical
    sequences.  The tables come from ``_banded_costs`` and the stacked
    kernel ``_soft_dtw_tables`` on a stack of one.
    """
    values, G, _ = _soft_dtw_pairs(model, [(query, proto)], band, gamma)
    return float(values[0]), G[0]


# ---------------------------------------------------------------------------
# margin loss and metric training
# ---------------------------------------------------------------------------


def _hinge(values, G, margin: float, fg):
    """Margin loss of one positive (index 0) against its negatives (1..k).

    Returns the loss, its flat metric gradient and, from each pair's
    feature gradients ``fg`` (a list of ``(dquery, dproto)``), the loss's
    gradient w.r.t. every pair's query and proto features, as a list of
    ``[dquery, dproto]``.  Gradients accumulate in negative order.
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
    fgrads = [[np.zeros_like(dq), np.zeros_like(dp)] for dq, dp in fg]
    for t in active:
        for side in (0, 1):
            fgrads[0][side] += fg[0][side] / k
            fgrads[t][side] -= fg[t][side] / k
    return total / k, acc, fgrads


def _margin_losses(model: MetricModel, items, margin: float, gamma: float, band: int):
    """``_hinge`` of every ``(positive, negatives)`` item, each pair a
    ``(query, proto)``; every pair of every item is scored in one
    ``_soft_dtw_pairs`` batch.  Returns one ``(loss, metric gradient,
    feature gradients)`` per item."""
    if margin <= 0.0:
        raise ValueError("margin must be > 0")
    pairs, bounds = [], [0]
    for positive, negatives in items:
        if not negatives:
            raise ValueError("margin loss needs at least one negative pair")
        pairs += [positive] + list(negatives)
        bounds.append(len(pairs))
    values, G, fg = _soft_dtw_pairs(model, pairs, band, gamma)
    return [_hinge(values[lo:hi], G[lo:hi], margin, fg[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def margin_loss_grads(model: MetricModel, positive, negatives,
                      margin: float = 1.0, gamma: float = 0.1, band: int = 3,
                      want_feature_grads: bool = False):
    """Margin loss, the mean over negatives of max(0, margin + sdtw(pos) -
    sdtw(neg)), and its flat metric gradient, in the
    ``MetricModel.to_vector`` layout.  With ``want_feature_grads`` also
    returns, per pair (positive first), the gradients w.r.t. its query and
    proto features."""
    loss, grad, fgrads = _margin_losses(model, [(positive, negatives)], margin, gamma, band)[0]
    return (loss, grad, fgrads) if want_feature_grads else (loss, grad)


def make_alignment_loss(model: MetricModel, margin: float = 1.0,
                        gamma: float = 0.1, band: int = 3):
    """Closure handed to the filter-selector trainer.

    Takes a list of ``(positive, negatives)`` items of filtered
    ``((q_feats, q_present), (p_feats, p_present))`` pairs, as
    ``train_metric`` does, and returns one ``(loss, [[dq, dp], ...])`` per
    item: its ``margin_loss_grads`` loss and the gradients w.r.t. the
    filtered feature arrays, positive first.  Every pair of every item is
    scored in one ``_soft_dtw_pairs`` batch.
    """
    def loss_fn(items):
        return [(loss, fgrads) for loss, _, fgrads in
                _margin_losses(model, items, margin, gamma, band)]
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


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _workspace(n: int, m: int, band: int, P: int, E: int):
    """What ``match`` costs and sweeps a group of P prototypes of length m
    in, for a live length n, band and E costing coordinates: the kept
    cells' ``rows`` and ``cols`` (``_skew_index``), a ``_CostScratch`` of
    its own and a ``_sweep_plan`` bound to its costs.  Cached per shape, as
    ``_skew_index`` and ``_sweep_slices`` are: one workspace serves every
    group, library and library version of its shape, since ``match``
    overwrites every buffer it reads on each call and copies its results
    out."""
    _, rows, cols = _skew_index(n, m, band)
    costs = _CostScratch(cols.size, 1, P, E)
    return rows, cols, costs, _sweep_plan(n, m, band, costs.cost.reshape(-1, P))


class _Group:
    """Prototypes of one length m, with what ``match`` needs of them that
    only a library version changes: ``ids`` in entry order, their
    time-major ``features`` (m, P, 14) and ``present`` (m, P, 5), both
    read-only, and ``all_present``, whether every modality of every window
    is present.  Per filter radius the group keeps a padded stack of its
    prototypes with a column for the live window, and the stack's taps
    (``filtered``); ``match`` overwrites the stacks' live column on every
    call.  What ``match`` costs and sweeps a group in depends only on its
    shape, and is kept per shape (``_workspace``), not per group."""

    __slots__ = ("ids", "features", "present", "all_present", "_stacks")

    def __init__(self, ids, features, present):
        self.ids = tuple(ids)
        self.features = np.stack(features, axis=1)
        self.present = np.stack(present, axis=1)
        for a in (self.features, self.present):
            a.setflags(write=False)
        self.all_present = bool(self.present.all())
        self._stacks = {}

    def filtered(self, choice, live):
        """``choice``'s filter of the prototypes, (m, P, 14) time-major, and
        of ``live``, a live window of their length or None, (m, 14) or None.

        Per Gaussian radius (0 for the other filters) the group keeps a
        time-major stack zero-padded by that radius, (m + 2 radius, 1 + P,
        14): the prototypes in columns 1.., written once, and column 0 for
        the live window.  The Gaussian weighs the taps of the stack,
        gathered once (``filters._gaussian_taps``); the other filters run
        ``denoise_matrix`` on it.  Without a live window column 0 holds a
        stale one, whose result is dropped: filtering it costs less than
        leaving it out.  Each series is filtered on its own, as alone."""
        gaussian = choice.hard_kind() == "gaussian"
        radius = filters._gaussian_radius(choice.sigma) if gaussian else 0
        m, P, F = self.features.shape
        kept = self._stacks.get(radius)
        if kept is None:
            stack = np.zeros((m + 2 * radius, 1 + P, F))
            stack[radius:radius + m, 1:] = self.features
            # taps of the series as the columns of one (T, (1 + P) * F)
            # array; numpy weighs them several times faster than a view of
            # them that leaves column 0 out
            taps = filters._gaussian_taps(stack.reshape(len(stack), -1), radius)
            kept = self._stacks[radius] = (stack, taps)
        stack, taps = kept
        if live is not None:
            stack[radius:radius + m, 0] = live
        if gaussian:
            out = filters._gaussian_from_taps(taps, choice.sigma).reshape(m, 1 + P, F)
        else:
            out = filters.denoise_matrix(choice, stack.transpose(1, 0, 2)).transpose(1, 0, 2)
        return out[:, 1:], (None if live is None else out[:, 0])


def _group_by_length(entries):
    """Group ``(prototype_id, (features (T, 14), present (T, 5)))`` entries
    by length T: one ``_Group`` per length, lengths in order of first
    appearance and members in entry order."""
    by_length = {}
    for pid, (feats, pres) in entries:
        by_length.setdefault(feats.shape[0], []).append((pid, feats, pres))
    return tuple(_Group(*zip(*members)) for members in by_length.values())


_plans = weakref.WeakKeyDictionary()     # library -> (version, groups)


def _plan(library: FingerprintLibrary):
    """``_group_by_length`` of the library's packed sequences in id order,
    kept with the groups' buffers until ``library.version`` changes; the
    entry goes with its library."""
    version, groups = _plans.get(library, (None, ()))
    if version != library.version:
        groups = _group_by_length((pid, seq.packed()) for pid, seq in library.items())
        _plans[library] = (library.version, groups)
    return groups


def match(model: MetricModel, selector, live_window,
          library: FingerprintLibrary, band: int, top_k: int, ctx):
    """Rank library prototypes by similarity to the live window.

    The live window and every prototype are denoised with the filter the
    selector chooses for ``ctx``, the live window's ``FilterContext``, and
    aligned by banded exact DTW.  Each series is filtered and each cell
    costed on its own, so each result equals ``dtw`` on that prototype
    alone, bit for bit, and a prototype equal to the live window scores
    1.0.  A prototype with no admissible path inside the band is left out;
    a group whose band leaves out the end cell is dropped before any work,
    so a call with no group left (the first window of a walk, at the
    default band) makes no selector pass.  Ties break on the smaller
    prototype id.

    What a library version fixes is kept in its plan (``_plan``), one
    ``_Group`` per prototype length: the prototypes in a padded stack per
    filter radius with their Gaussian taps.  Each group is costed and swept
    in the ``_workspace`` of its shape (n, m, band, P, E), shared by every
    group, library and version of that shape.  A call does only what
    depends on it: one selector pass, one filter pass per group (for the
    Gaussian, a weighing of the kept taps) that takes the live window along
    in the group of its length n (a window no group shares, early in a
    walk, is filtered alone), the product into the costing coordinates
    (``_costing``; none for the identity metric), the kept cells' costs
    (with no mask when every modality is present on both sides), one hard
    sweep per group and the top-k pick.  A result is ``AlignmentResult(distance, similarity)``.
    Since the workspaces are shared, no two ``match`` calls may run
    concurrently in one process; the pipeline is single-threaded.  An
    empty library yields an empty list once ``band`` and the live window's
    length pass their checks.  The library's types hold every prototype to
    at least 2 windows of ``N_FEATURES``, so only the live window's width
    is checked."""
    if band < 1:
        raise ValueError("band must be >= 1")
    qf, qp = _pack(live_window)
    n = qf.shape[0]
    if n < 2:
        raise ValueError("both sequences need at least 2 windows")
    groups = _plan(library)
    if not groups:
        return []
    # before the live window is written into a group's stack, all N_FEATURES wide
    _check_schema(qf, groups[0].features)
    # a group whose band leaves out the end cell, band_mask(n, m, band)[-1, -1],
    # has no admissible path: no work is done for it
    groups = [g for g in groups
              if abs((n - 1) * (len(g.features) / n) - (len(g.features) - 1)) <= band]
    if not groups:
        return []
    # resolved through the module at call time, so a rebinding of these
    # names (bench/spans.py traces them that way) takes effect here
    choice = filters.select_filter(selector, ctx)
    Wt, kernel = _costing(model)
    E = kernel[0].shape[0]
    own = next((g for g in groups if len(g.features) == n), None)
    if own is None:
        query = filters.denoise_matrix(choice, qf)
    else:
        own_protos, query = own.filtered(choice, qf)
    query = _time_major(query if Wt is None else _rows(query, Wt))
    live_present = bool(qp.all())
    beta = model.beta
    scored = []
    for g in groups:
        protos = own_protos if g is own else g.filtered(choice, None)[0]
        if Wt is not None:
            protos = _rows(protos, Wt)
        m, P = g.features.shape[:2]
        rows, cols, scratch, plan = _workspace(n, m, band, P, E)
        masks = None if live_present and g.all_present else (
            _time_major(qp), np.take(g.present, cols, axis=0))
        cost = _kept_costs(kernel, query, protos, rows, cols, masks, scratch)[0]
        S = _sweep(cost, n, m, band, plan=plan)
        for pid, distance in zip(g.ids, S[:, -1, n - 1].tolist()):
            if math.isfinite(distance):
                # ranked by (-similarity, id); a library's ids are distinct
                scored.append((-math.exp(-beta * distance), pid, distance))
    return [(pid, AlignmentResult(distance, -neg))
            for neg, pid, distance in heapq.nsmallest(max(0, top_k), scored)]
