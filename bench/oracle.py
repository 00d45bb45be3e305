"""Independent match oracle: scalar filters per column plus a plain banded DP.

It re-scores live windows against a library the slow, obvious way and is
compared with ``envswitch.alignment.match`` outside the timed region.  Only
the selector's filter choice and the metric's parameters are taken from the
program; filtering, costs and the warping recursion are written out here.
"""

import math

import numpy as np

from envswitch.fingerprints import MODALITIES, MODALITY_SLICES

FILTER_ORDER = ("kalman", "gaussian", "elp")
SIMILARITY_TOL = 1e-9


def filter_column(choice, x):
    """The argmax-weight filter of ``choice`` applied to one series."""
    kind = FILTER_ORDER[int(np.argmax(choice.weights))]
    n = len(x)
    out = [0.0] * n
    if kind == "kalman":
        mean, var = float(x[0]), 1.0
        for i in range(n):
            var = var + choice.q
            gain = var / (var + choice.r)
            mean = mean + gain * (float(x[i]) - mean)
            var = (1.0 - gain) * var
            out[i] = mean
    elif kind == "gaussian":
        sigma = choice.sigma
        radius = max(1, int(math.ceil(3.0 * sigma)))
        for i in range(n):
            num = den = 0.0
            for off in range(-radius, radius + 1):
                if 0 <= i + off < n:
                    w = math.exp(-float(off * off) / (2.0 * sigma * sigma))
                    num += w * float(x[i + off])
                    den += w
            out[i] = num / den
    else:
        out[0] = float(x[0])
        for i in range(1, n):
            out[i] = choice.alpha * float(x[i]) + (1.0 - choice.alpha) * out[i - 1]
    return out


def filter_matrix(choice, feats):
    cols = [filter_column(choice, feats[:, j]) for j in range(feats.shape[1])]
    return np.array(cols).T


def cell_cost(metric, q, qp, p, pp):
    weights = metric.weights
    total = 0.0
    for k, mod in enumerate(MODALITIES):
        if not (qp[k] and pp[k]):
            continue
        sl = MODALITY_SLICES[mod]
        d = metric.embeddings[mod] @ (q[sl] - p[sl])
        total += weights[k] * float(d @ d)
    return total


def banded_distance(metric, query, proto, band):
    """Exact DTW distance inside the slope-scaled Sakoe-Chiba band; inf if no path."""
    (qf, qp), (pf, pp) = query, proto
    n, m = len(qf), len(pf)
    inf = math.inf
    D = [[inf] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            if abs(i * (m / n) - j) > band:
                continue
            c = cell_cost(metric, qf[i], qp[i], pf[j], pp[j])
            if i == 0 and j == 0:
                D[i][j] = c
                continue
            best = min(D[i - 1][j - 1] if i and j else inf,
                       D[i - 1][j] if i else inf,
                       D[i][j - 1] if j else inf)
            if best < inf:
                D[i][j] = c + best
    return D[n - 1][m - 1]


def top1(metric, choice, live, library, band):
    """(prototype id, similarity) of the best match, ties to the smaller id."""
    qf, qp = live
    query = (filter_matrix(choice, qf), qp)
    best = None
    for pid, proto in library.items():
        pf, pp = proto.packed()
        d = banded_distance(metric, query, (filter_matrix(choice, pf), pp), band)
        if math.isinf(d):
            continue
        sim = math.exp(-metric.beta * d)
        if best is None or sim > best[1] or (sim == best[1] and pid < best[0]):
            best = (pid, sim)
    return best


def agrees(program_top, oracle_top) -> bool:
    if program_top is None or oracle_top is None:
        return program_top is None and oracle_top is None
    return (program_top[0] == oracle_top[0]
            and abs(program_top[1] - oracle_top[1]) <= SIMILARITY_TOL)


def self_test(trials: int = 24) -> list:
    """Check the oracle against ``alignment.dtw`` and ``filters.denoise_matrix``.

    Random windows and presence masks, lengths 2-10, bands 1-3.  Returns a
    list of mismatch descriptions; empty means the oracle agrees.
    """
    from envswitch.alignment import BandTooNarrowError, MetricModel, dtw
    from envswitch.filters import FilterChoice, denoise_matrix

    rng = np.random.default_rng(20250917)
    problems = []
    for trial in range(trials):
        n, m = (int(v) for v in rng.integers(2, 11, size=2))
        query = (rng.normal(0.0, 1.0, (n, 14)), rng.random((n, 5)) > 0.2)
        proto = (rng.normal(0.0, 1.0, (m, 14)), rng.random((m, 5)) > 0.2)
        metric = MetricModel.from_seed(trial, 4, noise=0.3)
        band = int(rng.integers(1, 4))
        try:
            expected = dtw(metric, query, proto, band).distance
        except BandTooNarrowError:
            expected = math.inf
        got = banded_distance(metric, query, proto, band)
        if not (got == expected or abs(got - expected) <= 1e-9 * max(1.0, abs(expected))):
            problems.append(f"dtw trial {trial}: oracle {got!r} program {expected!r}")
        weights = np.zeros(3)
        weights[trial % 3] = 1.0
        choice = FilterChoice(weights, q=float(rng.uniform(0.0, 1.0)),
                              r=float(rng.uniform(0.01, 10.0)),
                              sigma=float(rng.uniform(0.1, 3.0)),
                              alpha=float(rng.uniform(0.05, 1.0)))
        diff = np.max(np.abs(filter_matrix(choice, query[0]) - denoise_matrix(choice, query[0])))
        if diff > 1e-12:
            problems.append(f"filter trial {trial} ({FILTER_ORDER[trial % 3]}): max diff {diff!r}")
    return problems
