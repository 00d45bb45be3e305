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
negatives at once).  Buffers and tables are allocated per call, except
where ``match`` scores a live window as long as some prototypes: there it
runs in workspaces that the library's plan keeps per version, each owning
its buffers.  The metric's kernel is built once per metric content
(``_kernel``).  Exact DTW gives the alignment distance d and the similarity
exp(-beta * d) in (0, 1], with a fixed scale beta = 1; a distance is read
from the last cell, and ``match`` backtracks a warping path only when a
result's ``.path`` is read.  Soft-DTW is differentiable: its backward
weights sweep the same layout in reverse, and hand-written gradients let
the metric (and, through the filter mixture, the selector) train with
plain gradient descent.  ``cost_matrix`` costs every cell densely; it is
the reference the tests check the banded costs against.
"""

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import filters
from .fingerprints import (FEATURE_DIMS, MODALITIES, MODALITY_SLICES, N_FEATURES,
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


def _cell_costs(kernel, squares: np.ndarray, mask: np.ndarray, sq=None,
                cost=None, masked=None):
    """Costs (...) of cells with squared embedded differences ``squares``
    (..., E) and presence ``mask`` (..., 5), and their squared distances sq
    (..., 5): a product with the (E, 5) modality indicator gives sq and,
    masked, one with the weights sums them.  ``sq`` (N, 5), ``cost`` (N,)
    and ``masked`` (N, 5), N cells, are the buffers the three steps write
    into, allocated when None; ``masked`` may be ``sq`` itself."""
    _, indicator, w = kernel
    sq = np.matmul(squares.reshape(-1, squares.shape[-1]), indicator, out=sq)
    masked = np.multiply(sq, mask.reshape(sq.shape), out=masked)
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


def _run_sums(x: np.ndarray, runs, size: int) -> np.ndarray:
    """Sums (P, size, ...) of the (C, P, ...) terms ``x`` of the kept cells
    over each grid row (or column), from ``_band_sums``' runs: zeros, then
    the first kept cell of every row added at once, then the second, and so
    on.  Each sum starts from +0.0 and adds its terms in grid order, as the
    sum over a dense zero-filled grid does (adding its +0.0 cells changes
    nothing), so it keeps every bit, signed zeros included."""
    out = np.zeros((x.shape[1], size) + x.shape[2:])
    for cells, at in runs:
        out[:, at] += x[cells].swapaxes(0, 1)
    return out


def _cost_gradients(model: MetricModel, caches, E, want_feature_grads=False):
    """Chain dV/dcost = E into metric and feature gradients.

    ``caches`` come from ``_banded_costs`` and E is skewed like the tables
    of ``_soft_dtw_tables``, (P, n + m - 1, n).  With M = E * mask * w on
    each modality's embedded coordinates, the sums of M * diff over proto
    windows A (P, n, E) and over query windows B (P, m, E) give every
    gradient: 2 (A^T q - B^T p) for the block-diagonal embedding Wb, 2 A Wb
    for the query and -2 B Wb for the proto features.  E is read at the
    kept cells only, and their terms are summed in the order a dense (n, m)
    grid sums them, along each row and each column (``_run_sums``), so no
    gradient changes a bit and no grid is allocated.  Returns the flat
    metric gradient of every pair, (P, n_params) in the ``to_vector``
    layout, and with ``want_feature_grads`` the feature gradients
    (P, n, 14) and (P, m, 14); otherwise those two are None.
    """
    qf, pf, (Wb, _, w), diff, sq, mask, band = caches
    (P, m, _), n = pf.shape, qf.shape[-2]
    keep = _skew_index(n, m, band)[0]
    row_runs, col_runs, by_row = _band_sums(n, m, band)
    index = _block_layout(model.embed_dim)[0]
    Em = E.transpose(1, 2, 0)[keep][..., None] * mask
    # summed down the kept cells in row-major order: numpy adds row by row
    dcost_dw = (Em * sq)[by_row].sum(axis=0)
    Em *= w
    # M * diff overwrites the cached differences (the caches are used up)
    Md = diff.reshape(diff.shape[:2] + (len(MODALITIES), model.embed_dim))
    Md *= Em[..., None]
    A, B = _run_sums(diff, row_runs, n), _run_sums(diff, col_runs, m)
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


def band_mask(n: int, m: int, band: int) -> np.ndarray:
    return np.abs(np.arange(n)[:, None] * (m / n) - np.arange(m)[None, :]) <= band


# ---------------------------------------------------------------------------
# exact DTW
# ---------------------------------------------------------------------------


class AlignmentResult:
    """Distance, warping path and similarity of one alignment.

    ``path`` may be given as a zero-argument callable: it is called on the
    first read of ``.path`` and its list kept.  ``match`` gives one, so a
    result whose path is never read is never backtracked.
    """

    def __init__(self, distance: float, path, similarity: float):
        self.distance, self._path, self.similarity = distance, path, similarity

    @property
    def path(self) -> list:
        if callable(self._path):
            self._path = self._path()
        return self._path

    def __eq__(self, other):
        if not isinstance(other, AlignmentResult):
            return NotImplemented
        return ((self.distance, self.path, self.similarity)
                == (other.distance, other.path, other.similarity))


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


@functools.lru_cache(maxsize=256)
def _band_sums(n: int, m: int, band: int):
    """How ``_cost_gradients`` sums the kept cells of ``_skew_index`` in the
    order of a dense (n, m) grid.  Returns the row runs and column runs of
    ``_run_sums``: for rank r, the kept cells that are the r-th of their row
    (column), in increasing column (row) order along it, and the row
    (column) each belongs to; and the kept cells in row-major order.
    Read-only, and cached per (n, m, band)."""
    _, rows, cols = _skew_index(n, m, band)

    def runs(major, minor):
        order = np.lexsort((minor, major))
        first = np.searchsorted(major[order], major[order])
        rank = np.arange(order.size) - first
        return tuple((order[rank == r], major[order][rank == r])
                     for r in range(int(rank.max()) + 1))

    row_runs, col_runs = runs(rows, cols), runs(cols, rows)
    by_row = np.lexsort((cols, rows))
    for a in (by_row,) + sum(row_runs + col_runs, ()):
        a.setflags(write=False)
    return row_runs, col_runs, by_row


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


def _kept_costs(kernel, qe, qp, pe, pp_kept, rows, cols, scratch=None):
    """Costs (C, P) of the cells the band keeps, cell c at query row
    ``rows[c]`` and prototype column ``cols[c]`` (``_skew_index``).

    Both sides come embedded and time-major: the query qe (n, Q, E), Q = 1
    or P, with presence qp (n, Q, 5), the prototypes pe (m, P, E) with
    their presence already gathered at the kept columns, ``pp_kept`` (C, P,
    5).  The cells are gathered as (C, P, E) differences, so the costs come
    out in the order of the skewed layout, diagonal by diagonal, with the
    pairs innermost.  Every step writes into a ``_CostScratch``.  Given one
    (``match`` passes the one its kept workspace owns), the
    differences are squared and the squared distances masked in place,
    nothing is allocated and the costs are a view of ``scratch.cost``.
    Without one, a fresh one is built and the squares and the masked
    distances get arrays of their own, so the differences, the squared
    distances (C, P, 5) and the presence mask (C, P, 5), also returned, are
    what ``_cost_gradients`` reads.
    """
    keep = scratch is None
    s = _CostScratch(rows.size, qe.shape[1], pe.shape[1], pe.shape[2]) if keep else scratch
    # mode="clip" lets take write into out without a buffer; the indices
    # are in range, so it changes nothing else
    np.take(pe, cols, axis=0, out=s.diff, mode="clip")
    np.subtract(np.take(qe, rows, axis=0, out=s.qrows, mode="clip"), s.diff, out=s.diff)
    np.bitwise_and(np.take(qp, rows, axis=0, out=s.qmask, mode="clip"), pp_kept, out=s.mask)
    squares = s.diff * s.diff if keep else np.multiply(s.diff, s.diff, out=s.diff)
    cost, sq = _cell_costs(kernel, squares, s.mask, s.sq, s.cost, None if keep else s.sq)
    return cost, s.diff, sq, s.mask


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
    cost, *cells = _kept_costs(kernel, _time_major(_rows(qf, Wt)), _time_major(qp),
                               _time_major(_rows(pf, Wt)),
                               np.take(_time_major(pp), cols, axis=0), rows, cols)
    return cost, (qf, pf, kernel, *cells, band)


def _unskew(S: np.ndarray, n: int, m: int) -> np.ndarray:
    """(P, n, m) view of a skewed table laid out like ``_sweep``'s."""
    ii, jj = np.indices((n, m))
    return S[:, ii + jj, ii]


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


def _sweep(cost: np.ndarray, n: int, m: int, band: int, step, plan=None) -> np.ndarray:
    """Forward recursion R[i, j] = step(cost[i, j], R[i-1, j], R[i, j-1],
    R[i-1, j-1]) over the kept cells of an (n, m) band, with R[0, 0] =
    cost[0, 0].

    ``cost`` (C, P) comes from ``_banded_costs`` or ``_kept_costs``, the
    producers of costs: exact DTW (``dtw``, ``match``) sweeps it with
    ``_hard_step`` and soft-DTW (``_soft_dtw_tables``) with ``_soft_step``.
    ``step(cost, vertical, horizontal, diagonal, out)`` fills ``out`` for the
    kept cells of one anti-diagonal.  The recursion runs diagonal-major, on
    a C-contiguous (n + m, n + 1, P) table, through the views of
    ``_sweep_plan``: each step works on contiguous runs of all pairs at
    once and reads ``cost`` without a copy.  ``plan`` is a ``_sweep_plan``
    bound to ``cost``; without it one is built for the call.  Returns the
    skewed table as a (P, n + m - 1, n) view, cell (i, j) at [:, i + j, i];
    a cell outside the band, off the grid or without a finite predecessor
    is inf.
    """
    S, (cells, out), steps = _sweep_plan(n, m, band, cost) if plan is None else plan
    out[...] = cells
    for views in steps:
        step(*views)
    return S


def _hard_step(cost, vertical, horizontal, diagonal, out):
    np.minimum(diagonal, vertical, out=out)
    np.minimum(out, horizontal, out=out)
    np.add(cost, out, out=out)


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


def _warping_path(S: np.ndarray) -> list:
    """``_backtrack`` of one skewed table (n + m - 1, n)."""
    D, n = S.shape
    return _backtrack(_unskew(S[None], n, D - n + 1)[0])


def dtw(model: MetricModel, query, proto, band: int = 3) -> AlignmentResult:
    """Exact minimum-cost banded alignment with deterministic backtracking.

    ``match``'s banded recursion on a stack of one: ``_banded_costs``, the
    hard-min ``_sweep``, the distance from the last cell and the path from
    ``_warping_path``.  Backtracking prefers the diagonal predecessor, then
    the vertical (previous query window) one.
    """
    if band < 1:
        raise ValueError("band must be >= 1")
    qf, qp = _pack(query)
    pf, pp = _pack(proto)
    n, m = qf.shape[0], pf.shape[0]
    if n < 2 or m < 2:
        raise ValueError("both sequences need at least 2 windows")
    cost = _banded_costs(model, (qf, qp), (pf[None], pp[None]), band)[0]
    S = _sweep(cost, n, m, band, _hard_step)[0]
    distance = float(S[-1, n - 1])
    if not math.isfinite(distance):
        raise BandTooNarrowError("band too narrow: no admissible warping path")
    return AlignmentResult(distance, _warping_path(S), math.exp(-model.beta * distance))


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


def _soft_dtw_pairs(model: MetricModel, pairs, band: int, gamma: float,
                    want_feature_grads: bool = False):
    """Soft-DTW value and gradients of every ``(query, proto)`` pair.

    Pairs of one (n, m) shape run together: one ``_banded_costs``, one
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
    for (n, m), members in groups.items():
        query = tuple(np.stack([packed[k][0][t] for k in members]) for t in (0, 1))
        proto = tuple(np.stack([packed[k][1][t] for k in members]) for t in (0, 1))
        cost, caches = _banded_costs(model, query, proto, band)
        vals, _, E = _soft_dtw_tables(cost, n, m, band, gamma)
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
    sequences.  The tables come from ``_banded_costs`` and the stacked
    kernel ``_soft_dtw_tables`` on a stack of one.
    """
    values, G, fgrads = _soft_dtw_pairs(model, [(query, proto)], band, gamma,
                                        want_feature_grads)
    out = (float(values[0]), G[0])
    return out + tuple(fgrads[0]) if want_feature_grads else out


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


def margin_loss_grads(model: MetricModel, positive, negatives,
                      margin: float = 1.0, gamma: float = 0.1, band: int = 3,
                      want_feature_grads: bool = False):
    """Margin loss, the mean over negatives of max(0, margin + sdtw(pos) -
    sdtw(neg)), and its flat metric gradient, in the
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


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


class _Embedded:
    """A group's time-major (m, 1 + P, 14) stack, its prototypes written in
    once and column 0 left for a live window of length m, and the
    (m, 1 + P, E) embedding of the filtered stack: column 0 ``query``, the
    rest ``protos``.  Each series is filtered and embedded on its own, so
    column 0, whatever it holds, changes no prototype's result."""

    __slots__ = ("stack", "flat", "query", "protos")

    def __init__(self, protos: np.ndarray, E: int):
        T, P, F = protos.shape
        self.stack = np.zeros((T, 1 + P, F))
        self.stack[:, 1:] = protos
        self.flat = np.empty((T * (1 + P), E))
        embedded = self.flat.reshape(T, 1 + P, E)
        self.query, self.protos = embedded[:, :1], embedded[:, 1:]

    def run(self, choice, Wt: np.ndarray):
        """One ``denoise_matrix`` call on the stack, whose result comes back
        time-major, and one product that embeds it into ``flat``."""
        filtered = filters.denoise_matrix(choice, self.stack.transpose(1, 0, 2))
        np.matmul(filtered.transpose(1, 0, 2).reshape(len(self.flat), -1), Wt, out=self.flat)


class _GroupScratch:
    """What ``match`` costs and sweeps one group in, for one live length n
    and band, owning its buffers: the kept cells, the group's presence
    gathered at them (read-only), a ``_CostScratch`` and a ``_sweep_plan``
    bound to its costs."""

    __slots__ = ("rows", "cols", "present", "costs", "plan")

    def __init__(self, group, n: int, band: int, E: int):
        m, P = len(group.features), len(group.ids)
        _, self.rows, self.cols = _skew_index(n, m, band)
        self.present = np.take(group.present, self.cols, axis=0)
        self.present.setflags(write=False)
        self.costs = _CostScratch(self.cols.size, 1, P, E)
        self.plan = _sweep_plan(n, m, band, self.costs.cost.reshape(-1, P))


def match(model: MetricModel, selector, live_window, library, band: int,
          top_k: int, ctx):
    """Rank library prototypes by similarity to the live window.

    The live window and every prototype are denoised with the filter the
    selector chooses for ``ctx``, the live window's ``FilterContext``, and
    aligned by banded exact DTW.  Each series is filtered and each cell
    costed on its own, so each result equals ``dtw`` on that prototype
    alone, bit for bit, and a prototype equal to the live window scores
    1.0.  A prototype with no admissible path inside the band is left out;
    ties break on the smaller prototype id.

    A ``FingerprintLibrary`` hands over its plan (``length_groups``), kept
    per ``version``; any other iterable of ``(prototype_id, prototype)``,
    or mapping, is grouped per call.  Each group keeps a stack and its
    embedding per E (``_Embedded``); the filter allocates its output per
    call.  When a group
    has the live window's length n, the window goes into column 0 of that
    group's stack and every group costs and sweeps in the ``_GroupScratch``
    it keeps per (n, band, E).  Otherwise (the first windows of a walk)
    the window is filtered and embedded alone and each group is costed and
    swept per call, keeping nothing new.  A result holds a copy of its
    table and backtracks only when ``.path`` is read.  ``match`` on one
    library must not run concurrently.  An empty library yields an empty
    list, once ``band`` and the live window have passed the checks a
    non-empty one applies.
    """
    if band < 1:
        raise ValueError("band must be >= 1")
    qf, qp = _pack(live_window)
    n = qf.shape[0]
    if n < 2:
        raise ValueError("both sequences need at least 2 windows")
    if isinstance(library, FingerprintLibrary):
        groups = library.length_groups()
    else:
        entries = library.items() if hasattr(library, "items") else library
        groups = group_by_length((pid, _pack(proto)) for pid, proto in entries)
    if not groups:
        return []
    if min(len(g.features) for g in groups) < 2:
        raise ValueError("both sequences need at least 2 windows")
    # before the live window is written into a group's stack
    for g in groups:
        _check_schema(qf, g.features)
    # resolved through the module at call time, so a rebinding of these
    # names (bench/spans.py traces them that way) takes effect here
    choice = filters.select_filter(selector, ctx)
    kernel = _kernel(model)
    Wt, E = kernel[0].T, kernel[0].shape[0]

    def embedded(group):
        """The group's stack, kept per E."""
        return group.scratch(("stack", E), lambda: _Embedded(group.features, E))

    own = next((g for g in groups if len(g.features) == n), None)
    if own is None:
        query = _time_major(_rows(filters.denoise_matrix(choice, qf), Wt))
    else:
        window = embedded(own)
        window.stack[:, 0] = qf
        window.run(choice, Wt)
        query = window.query
    qp = qp[:, None]
    beta = model.beta
    scored = []
    for g in groups:
        m = len(g.features)
        stack = embedded(g)
        if g is not own:
            stack.run(choice, Wt)
        if own is None:
            _, rows, cols = _skew_index(n, m, band)
            cost = _kept_costs(kernel, query, qp, stack.protos,
                               np.take(g.present, cols, axis=0), rows, cols)[0]
            S = _sweep(cost, n, m, band, _hard_step)
        else:
            work = g.scratch(("costs", n, band, E), lambda: _GroupScratch(g, n, band, E))
            cost = _kept_costs(kernel, query, qp, stack.protos, work.present, work.rows,
                               work.cols, work.costs)[0]
            S = _sweep(cost, n, m, band, _hard_step, work.plan)
        for t, (pid, distance) in enumerate(zip(g.ids, S[:, -1, n - 1].tolist())):
            if math.isfinite(distance):
                similarity = math.exp(-beta * distance)
                # ranked by (-similarity, id); the running count keeps equal
                # keys in scoring order, as a stable sort would
                scored.append((-similarity, pid, len(scored), distance, S, t))
    return [(pid, AlignmentResult(distance, functools.partial(_warping_path, S[t].copy()), -neg))
            for neg, pid, _, distance, S, t in heapq.nsmallest(max(0, top_k), scored)]
