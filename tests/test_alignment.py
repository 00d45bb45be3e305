import gc
import math
import weakref

import numpy as np
import pytest

from envswitch import alignment, filters
from envswitch.alignment import (AlignmentResult, BandTooNarrowError, MetricModel,
                                 _banded_costs, _libm, _skew_index,
                                 _soft_dtw_pairs, _soft_dtw_tables, _soft_step,
                                 _sweep, band_mask,
                                 cell_cost, cost_matrix, dtw,
                                 margin_loss_grads, match, soft_dtw,
                                 train_metric)
from envswitch.config import LibraryConfig
from envswitch.fingerprints import (MODALITIES, MODALITY_SLICES, Fingerprint,
                                    FingerprintLibrary, FingerprintSequence,
                                    SwitchEvent)
from envswitch.filters import (FILTER_ORDER, FilterContext, SelectorModel,
                               context_from_windows, denoise_matrix,
                               select_filter)

from conftest import make_fingerprint, make_sequence, random_packed


def packed_library(protos, capacity=64):
    """A library holding each packed ``(features, present)`` prototype,
    committed as a sequence with unit timestamps; returns it and the ids
    ``commit_segment`` gave, in commit order."""
    lib = FingerprintLibrary(LibraryConfig(capacity=capacity))
    ids = []
    for day, (feats, pres) in enumerate(protos):
        seq = FingerprintSequence(Fingerprint(float(t + 1), f, p)
                                  for t, (f, p) in enumerate(zip(feats, pres)))
        ids.append(lib.commit_segment(
            seq, SwitchEvent(seq.windows[-1].timestamp, "wifi_to_cell"), created_day=day))
    return lib, ids


def in_band(i: int, j: int, n: int, m: int, band: int) -> bool:
    """Sakoe-Chiba corridor, slope-scaled for unequal lengths."""
    return abs(i * (m / n) - j) <= band


def brute_force_distance(model, query, proto, band):
    """Exhaustive minimum over banded monotone paths (independent oracle)."""
    cost = cost_matrix(model, query, proto)
    n, m = cost.shape
    best = [math.inf]

    def walk(i, j, acc):
        if not in_band(i, j, n, m, band):
            return
        acc += cost[i, j]
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def kept(cost, band):
    """The (C, P) costs ``_banded_costs`` gives for a raw (P, n, m) cost
    stack: the cells ``_skew_index`` keeps, in its order, pairs innermost."""
    _, rows, cols = _skew_index(*cost.shape[1:], band)
    return np.ascontiguousarray(cost[:, rows, cols].T)


def unskew(S, n, m):
    """(P, n, m) view of a skewed table laid out like ``_sweep``'s."""
    ii, jj = np.indices((n, m))
    return S[:, ii + jj, ii]


def dtw_tables(cost, band):
    """Exact-DTW tables (P, n, m) of a raw cost stack, by the banded sweep."""
    n, m = cost.shape[1:]
    return unskew(_sweep(kept(cost, band), n, m, band), n, m)


def stacked(protos):
    return tuple(np.stack(a) for a in zip(*protos))


def scalar_banded_table(cost, band):
    """Plain banded DP over one (n, m) cost matrix, as an (n, m) array; inf
    outside the band and where no path reaches a cell."""
    n, m = cost.shape
    D = [[math.inf] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            if not in_band(i, j, n, m, band):
                continue
            if i == 0 and j == 0:
                D[i][j] = float(cost[0, 0])
                continue
            best = min(D[i - 1][j - 1] if i and j else math.inf,
                       D[i - 1][j] if i else math.inf,
                       D[i][j - 1] if j else math.inf)
            D[i][j] = float(cost[i, j]) + best
    return np.array(D)


def scalar_banded_distance(cost, band):
    """Plain banded DP distance; inf when no path fits."""
    return float(scalar_banded_table(cost, band)[-1, -1])


def _softmin3(a: float, b: float, c: float, gamma: float) -> float:
    lo = min(a, b, c)
    if not np.isfinite(lo):
        return np.inf
    s = 0.0
    for v in (a, b, c):
        if np.isfinite(v):
            s += math.exp(-(v - lo) / gamma)
    return lo - gamma * math.log(s)


def all_libm_soft_step(gamma):
    """The soft-min step with every exp term through libm, exp(-0) and
    exp(-inf) included: the reference ``_soft_step`` must equal bit for bit."""
    def step(cost, vertical, horizontal, diagonal, out):
        lo = np.minimum(np.minimum(vertical, horizontal), diagonal)
        ok = np.isfinite(cost) & np.isfinite(lo)
        lo = lo[ok]
        e = _libm(math.exp, (-(np.stack([vertical[ok], horizontal[ok], diagonal[ok]])
                               - lo) / gamma).ravel()).reshape(3, -1)
        out[ok] = cost[ok] + (lo - gamma * _libm(math.log, e[0] + e[1] + e[2]))
    return step


def scalar_soft_dtw_tables(cost, band, gamma):
    """Cell-by-cell soft-DTW over one (n, m) cost matrix: the value, the
    padded forward table R (n + 1, m + 1) and the backward weights E."""
    n, m = cost.shape
    mask = band_mask(n, m, band)
    R = np.full((n + 1, m + 1), np.inf)
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
    return float(value), R, E


def single_modality_packed(values):
    """1-D series embedded in the PDR slot, everything else masked out."""
    values = np.asarray(values, dtype=float)
    feats = np.zeros((values.size, 14))
    feats[:, 0] = values
    pres = np.zeros((values.size, 5), dtype=bool)
    pres[:, 0] = True
    return feats, pres


def pdr_only_model():
    # near-one-hot softmax weight on PDR, identity embedding
    scores = np.array([60.0, 0.0, 0.0, 0.0, 0.0])
    emb = {m: np.eye(4, 3 if m != "time" else 2) for m in MODALITIES}
    return MetricModel(emb, scores)


class TestCellCost:
    def test_identical_windows_cost_zero(self, rng):
        fp = make_fingerprint(rng, 1.0)
        assert cell_cost(MetricModel.identity(), fp, fp) == 0.0

    def test_absent_modality_contributes_nothing(self, rng):
        model = MetricModel.identity()
        base = rng.normal(0, 1, 14)
        pres_q = np.array([True, False, True, True, True])
        q1 = Fingerprint(1.0, base, pres_q)
        noisy = base.copy()
        noisy[MODALITY_SLICES["wifi"]] += 100.0
        q2 = Fingerprint(1.0, noisy, pres_q)
        f = make_fingerprint(rng, 2.0)
        assert cell_cost(model, q1, f) == cell_cost(model, q2, f)

    def test_unit_difference_costs_one(self, rng):
        model = pdr_only_model()
        feats_a = np.zeros(14)
        feats_b = np.zeros(14)
        feats_b[0] = 1.0   # PDR features differ by (1, 0, 0)
        a = Fingerprint(1.0, feats_a, np.ones(5, bool))
        b = Fingerprint(2.0, feats_b, np.ones(5, bool))
        assert cell_cost(model, a, b) == pytest.approx(1.0, abs=1e-12)


class TestDtw:
    def test_self_alignment(self, rng):
        seq = make_sequence(rng, 7)
        result = dtw(MetricModel.identity(), seq, seq, band=3)
        assert result.distance == 0.0
        assert result.similarity == 1.0

    def test_one_dimensional_example(self):
        model = pdr_only_model()
        q = single_modality_packed([0.0, 1.0, 2.0])
        p = single_modality_packed([0.0, 1.0, 1.0, 2.0])
        oracle = brute_force_distance(model, q, p, band=2)
        result = dtw(model, q, p, band=2)
        assert oracle == pytest.approx(0.0, abs=1e-12)
        assert result.distance == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_on_random_pairs(self, rng):
        for trial in range(60):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 7))
            band = int(rng.integers(2, 5))
            q = random_packed(rng, n)
            p = random_packed(rng, m)
            model = MetricModel.from_seed(trial)
            oracle = brute_force_distance(model, q, p, band)
            try:
                got = dtw(model, q, p, band).distance
            except BandTooNarrowError:
                got = math.inf
            if math.isinf(oracle):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(oracle, abs=1e-9)

    def test_band_too_narrow_raises(self):
        model = pdr_only_model()
        q = single_modality_packed(np.arange(2))
        p = single_modality_packed(np.arange(8))
        with pytest.raises(BandTooNarrowError):
            dtw(model, q, p, band=1)

    def test_band_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            dtw(MetricModel.identity(), random_packed(rng, 3),
                random_packed(rng, 3), band=0)


class TestBatchedDtw:
    def test_batched_cost_equals_single(self, rng):
        model = MetricModel.from_seed(5, noise=0.3)
        for n, m, P in ((2, 9, 3), (10, 10, 24), (7, 3, 1)):
            q = random_packed(rng, n)
            protos = [random_packed(rng, m) for _ in range(P)]
            cost = cost_matrix(model, q, stacked(protos))
            assert cost.shape == (P, n, m)
            for k, p in enumerate(protos):
                assert np.array_equal(cost[k], cost_matrix(model, q, p))

    def test_stacked_kernel_equals_cell_cost(self, rng):
        # the one block-diagonal kernel must agree with the scalar
        # per-modality cell cost on every cell, for a single query and for a
        # stacked one (query p pairs with prototype p), and cost a copied
        # window exactly 0
        for trial in range(80):
            embed_dim = 2 + trial % 4
            n, m = (int(v) for v in rng.integers(2, 9, size=2))
            P = int(rng.integers(1, 6))
            model = MetricModel(MetricModel.from_seed(trial, embed_dim, 0.3).embeddings,
                                rng.normal(size=5))
            pf, pp = rng.normal(size=(P, m, 14)), rng.random((P, m, 5)) > 0.3
            stacked = trial % 2 == 1
            if stacked:
                qf, qp = rng.normal(size=(P, n, 14)), rng.random((P, n, 5)) > 0.3
            else:
                qf, qp = (np.broadcast_to(a, (P,) + a.shape) for a in random_packed(rng, n))
            copies = [(p, int(rng.integers(n)), int(rng.integers(m))) for p in range(P)]
            for p, i, j in copies:
                pf[p, j], pp[p, j] = qf[p, i], qp[p, i]
            query = (qf, qp) if stacked else (qf[0], qp[0])
            cost = cost_matrix(model, query, (pf, pp))
            assert cost.shape == (P, n, m)
            for p in range(P):
                for i in range(n):
                    a = Fingerprint(0.0, qf[p, i], qp[p, i])
                    for j in range(m):
                        b = Fingerprint(0.0, pf[p, j], pp[p, j])
                        assert cost[p, i, j] == pytest.approx(cell_cost(model, a, b),
                                                              rel=1e-12, abs=0.0)
            assert all(cost[c] == 0.0 for c in copies)

    def test_distance_equals_scalar_dp(self, rng):
        narrow = 0
        for trial in range(60):
            n, m = (int(v) for v in rng.integers(2, 11, size=2))
            if n == m:
                m = n + 1
            band = int(rng.integers(1, 4))
            P = int(rng.integers(1, 6))
            model = MetricModel.from_seed(trial, noise=0.3)
            q = random_packed(rng, n)
            protos = [random_packed(rng, m) for _ in range(P)]
            cost = cost_matrix(model, q, stacked(protos))
            costs, _ = _banded_costs(model, q, stacked(protos), band)
            got = _sweep(costs, n, m, band)[:, -1, n - 1]
            for k, p in enumerate(protos):
                want = scalar_banded_distance(cost[k], band)
                assert got[k] == want
                try:
                    assert dtw(model, q, p, band).distance == want
                except BandTooNarrowError:
                    assert math.isinf(want)
                    narrow += 1
        assert narrow > 0          # the too-narrow case was exercised

    def test_tables_equal_scalar_dp(self, rng):
        # the whole table of every pair of a stack, through the
        # diagonal-major sweep, against the plain DP cell by cell
        for trial in range(40):
            n, m = (int(v) for v in rng.integers(2, 11, size=2))
            if n == m:
                m = n + 1
            band = 1 + trial % 4
            P = int(rng.integers(2, 7))
            cost = rng.uniform(0.0, 3.0, size=(P, n, m))
            D = dtw_tables(cost, band)
            assert D.shape == (P, n, m)
            for k in range(P):
                assert np.array_equal(D[k], scalar_banded_table(cost[k], band))


class TestSoftDtw:
    def test_self_alignment_nonpositive_and_limit(self, rng):
        seq = random_packed(rng, 5)
        model = MetricModel.from_seed(1)
        for gamma in (1.0, 0.1, 1e-3):
            value = soft_dtw(model, seq, seq, 3, gamma)[0]
            assert value <= 1e-12
        assert abs(soft_dtw(model, seq, seq, 3, 1e-3)[0]) < 1e-2

    def test_value_below_hard_distance(self, rng):
        for trial in range(30):
            q = random_packed(rng, int(rng.integers(2, 7)))
            p = random_packed(rng, int(rng.integers(2, 7)))
            model = MetricModel.from_seed(trial)
            hard = dtw(model, q, p, 3).distance
            for gamma in (1.0, 0.1):
                assert soft_dtw(model, q, p, 3, gamma)[0] <= hard + 1e-12

    def test_small_gamma_agrees_with_hard(self, rng):
        for trial in range(25):
            q = random_packed(rng, int(rng.integers(2, 6)))
            p = random_packed(rng, int(rng.integers(2, 6)))
            model = MetricModel.from_seed(100 + trial)
            hard = dtw(model, q, p, 3).distance
            soft = soft_dtw(model, q, p, 3, 1e-3)[0]
            assert abs(soft - hard) < 1e-2

    def test_gradients_match_finite_differences(self, rng):
        model = MetricModel.from_seed(7)
        q = random_packed(rng, 5)
        p = random_packed(rng, 6)
        _, gvec = soft_dtw(model, q, p, 3, 0.1)
        vec = model.to_vector()
        h = 1e-5
        checked = 0
        for i in rng.choice(vec.size, size=25, replace=False):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fp = soft_dtw(model.from_vector(vp), q, p, 3, 0.1)[0]
            fm = soft_dtw(model.from_vector(vm), q, p, 3, 0.1)[0]
            fd = (fp - fm) / (2 * h)
            if abs(fd) < 1e-10 and abs(gvec[i]) < 1e-10:
                continue
            rel = abs(gvec[i] - fd) / max(1e-8, abs(gvec[i]), abs(fd))
            assert rel < 1e-3
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("embed_dim", [2, 3, 5])
    def test_batched_gradients_match_finite_differences(self, rng, embed_dim):
        # pairs of several shapes with absent modalities, scored in one
        # _soft_dtw_pairs batch: an offset slip in the block layout would
        # put a gradient on the wrong embedding entry or feature
        model = MetricModel(MetricModel.from_seed(embed_dim, embed_dim, 0.3).embeddings,
                            rng.normal(size=5))
        pairs = [(random_packed(rng, n), random_packed(rng, m))
                 for n, m in ((4, 5), (6, 4), (4, 5), (5, 5))]
        pairs[1][0][1][:, 2] = False          # cell absent from one whole query
        pairs[2][1][1][:, 4] = False          # time absent from one whole proto
        _, G, fgrads = _soft_dtw_pairs(model, pairs, 3, 0.1)
        h = 1e-6

        def values(model, batch):
            return _soft_dtw_pairs(model, batch, 3, 0.1)[0]

        vec = model.to_vector()
        for i in range(vec.size):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fd = (values(model.from_vector(vp), pairs)
                  - values(model.from_vector(vm), pairs)) / (2 * h)
            assert np.allclose(G[:, i], fd, rtol=1e-5, atol=1e-7)

        def perturbed(pair, side, idx, delta):
            feats = pair[side][0].copy()
            feats[idx] += delta
            return tuple((feats, s[1]) if t == side else s for t, s in enumerate(pair))

        for pair, grads in zip(pairs, fgrads):
            for side in (0, 1):
                idxs = list(np.ndindex(pair[side][0].shape))
                fd = (values(model, [perturbed(pair, side, idx, h) for idx in idxs])
                      - values(model, [perturbed(pair, side, idx, -h) for idx in idxs])) / (2 * h)
                assert np.allclose(grads[side][tuple(zip(*idxs))], fd, rtol=1e-5, atol=1e-7)
        assert np.all(fgrads[1][0][:, MODALITY_SLICES["cell"]] == 0.0)
        assert np.all(fgrads[2][1][:, MODALITY_SLICES["time"]] == 0.0)

    def test_gamma_validation(self, rng):
        with pytest.raises(ValueError):
            soft_dtw(MetricModel.identity(), random_packed(rng, 3),
                     random_packed(rng, 3), 3, 0.0)


class TestSoftDtwKernel:
    def test_tables_equal_scalar_oracle(self, rng):
        narrow = checked = 0
        for trial in range(48):
            n, m = (int(v) for v in rng.integers(2, 11, size=2))
            if n == m:
                m = n + 1
            band = 1 + trial % 3
            gamma = (0.1, 1.0)[trial % 2]
            P = int(rng.integers(2, 5))
            model = MetricModel.from_seed(trial, noise=0.3)
            q = random_packed(rng, n)
            protos = [random_packed(rng, m) for _ in range(P)]
            cost = cost_matrix(model, q, stacked(protos))
            costs, _ = _banded_costs(model, q, stacked(protos), band)
            try:
                oracles = [scalar_soft_dtw_tables(c, band, gamma) for c in cost]
            except BandTooNarrowError:
                with pytest.raises(BandTooNarrowError):
                    _soft_dtw_tables(costs, n, m, band, gamma)
                narrow += 1
                continue
            values, R, E = _soft_dtw_tables(costs, n, m, band, gamma)
            R, E = unskew(R, n, m), unskew(E, n, m)
            for k, (value, R_k, E_k) in enumerate(oracles):
                assert values[k] == value
                assert np.array_equal(R[k], R_k[1:, 1:])
                assert np.array_equal(E[k], E_k)
            checked += 1
        assert narrow > 0 and checked > 20

    def test_step_equals_the_all_libm_step(self, rng):
        ties = infinite = 0
        for trial in range(300):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)))
            gamma = (0.1, 1.0, 7.5)[trial % 3]
            # values on a coarse grid tie often; some entries are inf
            args = [rng.integers(0, 3, shape) * 0.7 + (trial % 2) * rng.normal(0, 1e-3, shape)
                    for _ in range(4)]
            for a in args:
                a[rng.random(shape) < 0.25] = np.inf
            cost, vertical, horizontal, diagonal = args
            got, want = np.full(shape, 9.0), np.full(shape, 9.0)
            _soft_step(gamma)(cost, vertical, horizontal, diagonal, got)
            all_libm_soft_step(gamma)(cost, vertical, horizontal, diagonal, want)
            assert got.tobytes() == want.tobytes()
            preds = np.stack([vertical, horizontal, diagonal])
            lo = preds.min(axis=0)
            live = np.isfinite(cost) & np.isfinite(lo)
            ties += int(((preds == lo).sum(axis=0) > 1)[live].sum())
            infinite += int((np.isinf(preds).any(axis=0))[live].sum())
        assert ties > 50 and infinite > 50

    def test_sweep_equals_the_all_libm_sweep(self, rng):
        for trial in range(40):
            n, m = (int(v) for v in rng.integers(2, 11, size=2))
            band = 1 + trial % 3
            gamma = (0.1, 1.0)[trial % 2]
            P = int(rng.integers(1, 5))
            # integer costs tie; the sweep leaves inf outside the band
            costs = kept(rng.integers(0, 4, size=(P, n, m)).astype(float), band)
            got = _sweep(costs, n, m, band, _soft_step(gamma))
            want = _sweep(costs, n, m, band, all_libm_soft_step(gamma))
            assert got.tobytes() == want.tobytes()

    def test_soft_dtw_is_kernel_on_stack_of_one(self, rng):
        model = MetricModel.from_seed(4, noise=0.3)
        q, p = random_packed(rng, 7), random_packed(rng, 5)
        value, _, _ = scalar_soft_dtw_tables(cost_matrix(model, q, p), 2, 0.1)
        assert soft_dtw(model, q, p, 2, 0.1)[0] == value

    def test_too_narrow_band_raises_everywhere(self, rng):
        model = pdr_only_model()
        ok = (random_packed(rng, 4), random_packed(rng, 4))
        narrow = (single_modality_packed(np.arange(2.0)),
                  single_modality_packed(np.arange(8.0)))
        with pytest.raises(BandTooNarrowError):
            soft_dtw(model, *narrow, band=1)
        # one unalignable pair in a batch fails the whole call, whether it is
        # the positive or a negative
        with pytest.raises(BandTooNarrowError):
            margin_loss_grads(model, ok, [ok, narrow], band=1)
        with pytest.raises(BandTooNarrowError):
            margin_loss_grads(model, narrow, [ok], band=1)
        with pytest.raises(BandTooNarrowError):
            train_metric(model, [(ok, [ok]), (ok, [narrow])], epochs=1, band=1)


class TestMarginLoss:
    def make_pairs_with_values(self, rng, pos_val_low=True):
        q = random_packed(rng, 5, all_present=True)
        if pos_val_low:
            pos = (q, (q[0] + 1e-9, q[1]))
        else:
            pos = (q, (q[0] + rng.normal(0, 2, q[0].shape), q[1]))
        return pos

    def test_inactive_hinge(self, rng):
        model = MetricModel.identity()
        q = random_packed(rng, 5, all_present=True)
        pos = (q, q)                              # sdtw(pos) <= 0
        far = (q, (q[0] + 5.0, q[1]))             # sdtw(neg) large
        assert margin_loss_grads(model, pos, [far], margin=1.0)[0] == 0.0

    def test_direct_formula_and_mean(self, rng):
        model = MetricModel.identity()
        q = random_packed(rng, 5, all_present=True)
        near = (q, (q[0] + 0.05, q[1]))
        far_pos = (q, (q[0] + 3.0, q[1]))
        sp = soft_dtw(model, *far_pos, 3, 0.1)[0]
        sn = soft_dtw(model, *near, 3, 0.1)[0]
        expected = max(0.0, 1.0 + sp - sn)
        got = margin_loss_grads(model, far_pos, [near], margin=1.0)[0]
        assert got == pytest.approx(expected, abs=1e-12)
        # mean over two negatives, one active and one inactive
        inactive = (q, (q[0] + 10.0, q[1]))
        h_active = max(0.0, 1.0 + sp - sn)
        h_inactive = max(0.0, 1.0 + sp - soft_dtw(model, *inactive, 3, 0.1)[0])
        got2 = margin_loss_grads(model, far_pos, [near, inactive], margin=1.0)[0]
        assert got2 == pytest.approx((h_active + h_inactive) / 2.0, abs=1e-12)

    def test_requires_negatives(self, rng):
        with pytest.raises(ValueError):
            margin_loss_grads(MetricModel.identity(),
                              (random_packed(rng, 4), random_packed(rng, 4)), [])

    def test_gradients_match_finite_differences(self, rng):
        model = MetricModel.from_seed(3)
        q = random_packed(rng, 5, all_present=True)
        pos = (q, (q[0] + rng.normal(0, 1.5, q[0].shape), q[1]))
        negs = [(q, (q[0] + rng.normal(0, 0.05, q[0].shape), q[1]))
                for _ in range(2)]
        loss0, gvec = margin_loss_grads(model, pos, negs, 1.0, 0.1, 3)
        assert loss0 > 0.0
        vec = model.to_vector()
        h = 1e-5
        checked = 0
        for i in rng.choice(vec.size, size=20, replace=False):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fp = margin_loss_grads(model.from_vector(vp), pos, negs, 1.0, 0.1, 3)[0]
            fm = margin_loss_grads(model.from_vector(vm), pos, negs, 1.0, 0.1, 3)[0]
            fd = (fp - fm) / (2 * h)
            if abs(fd) < 1e-10 and abs(gvec[i]) < 1e-10:
                continue
            rel = abs(gvec[i] - fd) / max(1e-8, abs(gvec[i]), abs(fd))
            assert rel < 1e-3
            checked += 1
        assert checked >= 8

    def test_every_parameter_gets_a_gradient(self, rng):
        model = MetricModel.from_seed(5, noise=0.3)
        q = random_packed(rng, 5, all_present=True)
        pos = (q, random_packed(rng, 6, all_present=True))
        negs = [(q, random_packed(rng, 5, all_present=True)) for _ in range(2)]
        loss, grad = margin_loss_grads(model, pos, negs, margin=50.0)
        assert loss > 0.0
        assert grad.shape == model.to_vector().shape
        assert np.all(grad != 0.0)


def wifi_discriminative_pairs(seed, n_pairs=6):
    """Synthetic task where only the WiFi features separate pos from neg.

    The separation is deliberately below the margin at initialization, so the
    hinge is active and training has to amplify the WiFi channel to win.
    """
    rng = np.random.default_rng(seed)
    sl = MODALITY_SLICES["wifi"]
    pairs = []
    for _ in range(n_pairs):
        base = rng.normal(0, 0.5, size=(6, 14))
        pos_q = base.copy()
        pos_p = base + rng.normal(0, 0.02, base.shape)   # same WiFi pattern
        negs = []
        for _ in range(3):
            neg = base + rng.normal(0, 0.02, base.shape)
            neg[:, sl] = base[:, sl] + rng.normal(0, 0.25, size=(6, 3))
            pres = np.ones((6, 5), dtype=bool)
            negs.append(((pos_q, pres.copy()), (neg, pres.copy())))
        pres = np.ones((6, 5), dtype=bool)
        pairs.append((((pos_q, pres.copy()), (pos_p, pres.copy())), negs))
    return pairs


class TestTrainMetric:
    def test_wifi_weight_wins_on_synthetic_task(self):
        wins = 0
        for seed in range(10):
            pairs = wifi_discriminative_pairs(seed)
            model = MetricModel.from_seed(seed)
            trained = train_metric(model, pairs, epochs=30, step_size=0.3)
            if int(np.argmax(trained.weights)) == MODALITIES.index("wifi"):
                wins += 1
        assert wins >= 9

    def test_margin_loss_halves(self):
        pairs = wifi_discriminative_pairs(0)
        model = MetricModel.from_seed(0)
        before = np.mean([margin_loss_grads(model, pos, negs)[0] for pos, negs in pairs])
        trained = train_metric(model, pairs, epochs=30, step_size=0.3)
        after = np.mean([margin_loss_grads(trained, pos, negs)[0] for pos, negs in pairs])
        assert after <= 0.5 * before

    def test_zero_epochs_is_identity(self, rng):
        pairs = wifi_discriminative_pairs(1, 2)
        model = MetricModel.from_seed(1)
        out = train_metric(model, pairs, epochs=0)
        assert np.array_equal(out.to_vector(), model.to_vector())

    def test_deterministic(self):
        pairs = wifi_discriminative_pairs(2, 3)
        a = train_metric(MetricModel.from_seed(2), pairs, epochs=10, step_size=0.2)
        b = train_metric(MetricModel.from_seed(2), pairs, epochs=10, step_size=0.2)
        assert np.allclose(a.to_vector(), b.to_vector(), atol=1e-12)

    def test_requires_pairs(self):
        with pytest.raises(ValueError):
            train_metric(MetricModel.identity(), [])

    def test_weights_stay_normalized(self):
        pairs = wifi_discriminative_pairs(3, 2)
        trained = train_metric(MetricModel.from_seed(3), pairs, epochs=15,
                               step_size=0.4)
        assert trained.weights.min() >= 0.0
        assert trained.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_score_scaling_keeps_argmax(self):
        model = MetricModel.identity()
        model.scores = np.array([0.3, 1.2, -0.5, 0.8, 0.1])
        argmax = int(np.argmax(model.weights))
        for c in (0.5, 2.0, 7.0):
            scaled = MetricModel(model.embeddings, model.scores * c)
            assert int(np.argmax(scaled.weights)) == argmax


def looped_train_metric(model, pairs, epochs, step_size, margin=1.0,
                        gamma=0.1, band=3):
    """Gradient descent with one margin_loss_grads call per pair."""
    current = model.copy()
    for _ in range(epochs):
        acc = np.zeros(current.to_vector().size)
        for positive, negatives in pairs:
            _, g = margin_loss_grads(current, positive, negatives, margin, gamma, band)
            acc += (1.0 / len(pairs)) * g
        current = current.from_vector(current.to_vector() - step_size * acc)
    return current


class TestTrainMetricBatching:
    def mixed_length_pairs(self, seed):
        rng = np.random.default_rng(seed)
        pairs = []
        for n, m in ((6, 6), (8, 5), (6, 6), (8, 5), (6, 6)):
            q = random_packed(rng, n)
            negs = [(q, random_packed(rng, mm)) for mm in (m, m + 1, m)]
            pairs.append(((q, random_packed(rng, m)), negs))
        return pairs

    def test_batched_epochs_equal_per_pair_loop(self):
        for seed in range(3):
            pairs = self.mixed_length_pairs(seed)
            model = MetricModel.from_seed(seed, noise=0.3)
            batched = train_metric(model, pairs, epochs=4, step_size=0.2, margin=2.0)
            looped = looped_train_metric(model, pairs, 4, 0.2, margin=2.0)
            assert np.array_equal(batched.to_vector(), looped.to_vector())
            assert not np.array_equal(batched.to_vector(), model.to_vector())

    def test_rejects_pair_without_negatives_and_bad_margin(self):
        pairs = self.mixed_length_pairs(0)
        with pytest.raises(ValueError):
            train_metric(MetricModel.identity(), pairs + [(pairs[0][0], [])])
        with pytest.raises(ValueError):
            train_metric(MetricModel.identity(), pairs, margin=0.0)


class TestMatch:
    def build_library(self, rng, sequences):
        lib = FingerprintLibrary(LibraryConfig())
        for day, seq in enumerate(sequences):
            event = SwitchEvent(seq.windows[-1].timestamp, "wifi_to_cell")
            lib.commit_segment(seq, event, created_day=day)
        return lib

    def test_exact_copy_ranks_first_with_similarity_one(self, rng):
        live = make_sequence(rng, 6)
        decoy = make_sequence(rng, 6)
        lib = self.build_library(rng, [decoy, FingerprintSequence(live.windows)])
        ranked = match(MetricModel.identity(), SelectorModel.zeros(), live, lib,
                       3, 2, FilterContext())
        assert ranked[0][1].similarity == pytest.approx(1.0, abs=1e-12)
        assert ranked[0][1].distance == pytest.approx(0.0, abs=1e-12)

    def test_top_k_clamps_to_library_size(self, rng):
        lib = self.build_library(rng, [make_sequence(rng, 5)])
        ranked = match(MetricModel.identity(), SelectorModel.zeros(),
                       make_sequence(rng, 5), lib, 3, 10, FilterContext())
        assert len(ranked) == 1

    def test_near_beats_far(self, rng):
        live = make_sequence(rng, 6)
        near = FingerprintSequence(
            [Fingerprint(w.timestamp, w.features + 0.01, w.present) for w in live.windows])
        far = FingerprintSequence(
            [Fingerprint(w.timestamp, w.features + 3.0, w.present) for w in live.windows])
        lib = self.build_library(rng, [far, near])
        ranked = match(MetricModel.identity(), SelectorModel.zeros(), live, lib,
                       3, 2, FilterContext())
        assert len(ranked) == 2
        assert ranked[0][1].similarity > ranked[1][1].similarity
        near_id = [pid for pid, s in lib.items()
                   if np.allclose(s.packed()[0], near.packed()[0])][0]
        assert ranked[0][0] == near_id

    def test_empty_library_returns_empty(self, rng):
        lib = FingerprintLibrary()
        assert match(MetricModel.identity(), SelectorModel.zeros(),
                     make_sequence(rng, 5), lib, 3, 3, FilterContext()) == []

    @pytest.mark.parametrize("empty", [True, False])
    def test_inputs_checked_before_the_library(self, rng, empty):
        # an empty library must not hide a bad band or a one-window live query
        lib = FingerprintLibrary() if empty else self.build_library(rng, [make_sequence(rng, 5)])
        args = (MetricModel.identity(), SelectorModel.zeros())
        with pytest.raises(ValueError, match="band"):
            match(*args, make_sequence(rng, 5), lib, 0, 3, FilterContext())
        with pytest.raises(ValueError, match="2 windows"):
            match(*args, make_sequence(rng, 1), lib, 3, 3, FilterContext())

    def test_similarity_is_monotone_in_distance(self, rng):
        model = MetricModel.from_seed(11)
        results = []
        live = random_packed(rng, 6)
        for _ in range(8):
            proto = random_packed(rng, 6)
            results.append(dtw(model, live, proto, 3))
        by_distance = sorted(results, key=lambda r: r.distance)
        by_similarity = sorted(results, key=lambda r: -r.similarity)
        assert [r.distance for r in by_distance] == [r.distance for r in by_similarity]


    @staticmethod
    def assert_equals_per_prototype_alignment(model, selector, live, library,
                                              band, ctx):
        """``match`` against filtering and aligning every prototype on its
        own with ``dtw``: the same ranking, distances and similarities, and
        no warping path."""
        want = per_prototype(model, selector, live, library, band, ctx)
        ranked = match(model, selector, live, library, band, len(library), ctx)
        assert [pid for pid, _ in ranked] == sorted(
            want, key=lambda pid: (-want[pid].similarity, pid))
        for pid, got in ranked:
            assert got == AlignmentResult(want[pid].distance, want[pid].similarity)
        return ranked

    def test_mixed_lengths_equal_per_prototype_alignment(self, rng):
        for trial in range(12):
            model = MetricModel.from_seed(trial, noise=0.3)
            selector = SelectorModel.from_seed(trial)
            live = random_packed(rng, int(rng.integers(2, 11)))
            library, _ = packed_library(
                [random_packed(rng, int(rng.integers(2, 11)))
                 for _ in range(int(rng.integers(4, 16)))] + [live])
            ctx = FilterContext(rssi_variance=float(rng.uniform(0.0, 1.0)),
                                step_rate=float(rng.uniform(0.0, 1.0)))
            band = int(rng.integers(1, 4))
            ranked = self.assert_equals_per_prototype_alignment(
                model, selector, live, library, band, ctx)
            assert ranked[0][1].similarity == 1.0        # the live copy

    @staticmethod
    def selector_for(kind):
        # a zero network's filter weights are the softmax of its output bias
        selector = SelectorModel.zeros()
        selector.net.b2[FILTER_ORDER.index(kind)] = 5.0
        return selector

    @pytest.mark.parametrize("kind", FILTER_ORDER)
    def test_live_length_in_no_group(self, rng, kind):
        live = random_packed(rng, 5)
        library, _ = packed_library([random_packed(rng, n) for n in (4, 6, 7, 6, 4, 3)])
        ranked = self.assert_equals_per_prototype_alignment(
            MetricModel.from_seed(4, noise=0.3), self.selector_for(kind), live,
            library, 2, FilterContext())
        assert len(ranked) == len(library)

    @pytest.mark.parametrize("kind", FILTER_ORDER)
    def test_live_length_shared_by_one_of_several_groups(self, rng, kind):
        live = random_packed(rng, 6)
        library, ids = packed_library([random_packed(rng, n) for n in (4, 6, 8, 6, 5, 6, 4)]
                                      + [(live[0].copy(), live[1].copy())])
        ranked = self.assert_equals_per_prototype_alignment(
            MetricModel.from_seed(5, noise=0.3), self.selector_for(kind), live,
            library, 3, FilterContext())
        assert len(ranked) == len(library)
        assert ranked[0][0] == ids[-1] and ranked[0][1].similarity == 1.0


class TestIdentityMetric:
    """The pipeline's metric, ``MetricModel.identity``, is costed on the raw
    features (14 of its 20 embedded coordinates are not all zero, and they
    form the identity), and all-present windows skip the mask: ``match``
    still equals ``dtw`` on each prototype alone, bit for bit."""

    @pytest.mark.parametrize("P", [1, 6, 24])
    def test_match_equals_per_prototype_dtw_across_a_commit_and_an_eviction(self, rng, P):
        model = MetricModel.identity()
        Wt, (Wk, indicator, _) = alignment._costing(model)
        assert Wt is None and np.array_equal(Wk, np.eye(14)) and indicator.shape == (14, 5)
        lib, _ = packed_library([random_packed(rng, 10, all_present=True) for _ in range(P)],
                                capacity=P + 1)
        checked, versions = 0, []
        for change in range(3):
            if change:              # the first commit fills the library, the second evicts
                lib.commit_segment(make_sequence(rng, 10, t0=1000.0 * change),
                                   SwitchEvent(1000.0 * change + 10.0, "wifi_to_cell"),
                                   created_day=P + change)
            versions.append(len(lib))
            for kind in FILTER_ORDER:
                selector = selector_for_kind(kind)
                for n in range(2, 11):
                    live, ctx = random_packed(rng, n, all_present=True), random_context(rng)
                    for band in (1, 2, 3):
                        want = per_prototype(model, selector, live, lib, band, ctx)
                        got = match(model, selector, live, lib, band, len(lib), ctx)
                        assert bits(got) == bits(in_match_order(want))
                        checked += len(got)
        assert versions == [P, P + 1, P + 1] and checked > 0
        assert all(g.all_present for g in alignment._plan(lib))


class TestAbsentModality:
    """A window with an absent modality is still masked where it is absent:
    the group or the live window that holds it takes the masked path."""

    def test_a_prototype_with_an_absent_modality_is_masked(self, rng):
        model, selector = MetricModel.identity(), selector_for_kind("gaussian")
        ctx = FilterContext()
        protos = [random_packed(rng, 8, all_present=True) for _ in range(5)]
        feats, pres = protos[2]
        absent = pres.copy()
        absent[:, 1] = False                        # wifi absent throughout
        live = random_packed(rng, 8, all_present=True)

        def scored(feats, pres):
            """(distance, similarity) of the third prototype, in hex."""
            library, ids = packed_library(protos[:2] + [(feats, pres)] + protos[3:])
            got = match(model, selector, live, library, 3, len(library), ctx)
            want = per_prototype(model, selector, live, library, 3, ctx)
            assert alignment._plan(library)[0].all_present == pres.all()
            assert bits(got) == bits(in_match_order(want))
            return [r for pid, *r in bits(got) if pid == ids[2]]

        moved = feats.copy()
        moved[:, MODALITY_SLICES["wifi"]] += 40.0
        # the absent modality's features, however far off, change nothing
        assert scored(feats, absent) == scored(moved, absent)
        # where present they would
        assert scored(moved, pres) != scored(feats, pres)

    def test_a_live_window_with_an_absent_modality_is_masked(self, rng):
        model, selector, ctx = MetricModel.identity(), selector_for_kind("kalman"), FilterContext()
        library, _ = packed_library([random_packed(rng, 7, all_present=True) for _ in range(4)])
        feats, pres = random_packed(rng, 7, all_present=True)
        pres[:, 4] = False                          # time absent throughout
        got = match(model, selector, (feats, pres), library, 2, len(library), ctx)
        want = per_prototype(model, selector, (feats, pres), library, 2, ctx)
        assert alignment._plan(library)[0].all_present
        assert bits(got) == bits(in_match_order(want))
        moved = feats.copy()
        moved[:, MODALITY_SLICES["time"]] = 9.0
        got_moved = match(model, selector, (moved, pres), library, 2, len(library), ctx)
        assert bits(got_moved) == bits(got)


class TestBandedCosts:
    @pytest.mark.parametrize("P", [1, 5])
    def test_equal_cost_matrix_at_every_kept_cell(self, rng, P):
        absent = 0
        for trial in range(32):
            n, m = (int(v) for v in rng.integers(2, 12, size=2))
            if n == m:
                m = n + 1
            band = 1 + trial % 4
            model = MetricModel.from_seed(trial, noise=0.3)
            # a stack pairing query p with prototype p, or one query for all
            qf, qp = stacked([random_packed(rng, n) for _ in range(P)])
            if trial % 2:
                qf, qp = qf[0], qp[0]
            pf, pp = stacked([random_packed(rng, m) for _ in range(P)])
            if trial % 3 == 0:             # a modality absent on one side throughout
                (qp if trial % 2 else pp)[..., trial % 5] = False
            absent += int(not qp.any(axis=-2).all() or not pp.any(axis=(0, 1)).all())
            costs, _ = _banded_costs(model, (qf, qp), (pf, pp), band)
            cost = cost_matrix(model, (qf, qp), (pf, pp))
            keep, rows, cols = _skew_index(n, m, band)
            # entry (d, i) of the layout is cell (i, d - i); kept cells are
            # exactly the band's
            d, i = np.nonzero(keep)
            assert np.array_equal(rows, i) and np.array_equal(cols, d - i)
            assert band_mask(n, m, band)[rows, cols].all()
            assert keep.sum() == band_mask(n, m, band).sum()
            assert costs.shape == (keep.sum(), P)
            assert np.array_equal(costs, cost[:, rows, cols].T)
            # the recursion's table is inf wherever the band keeps no cell
            table = _sweep(costs, n, m, band)
            assert np.isinf(table[:, ~keep]).all()
        assert absent > 0


def grid_gradients(model, caches, E):
    """``_cost_gradients`` as it was on a zero-filled dense grid: every kept
    cell's terms written at (p, i, j) of a (P, n, m, .) grid, summed by
    numpy along j (for A) and along i (for B)."""
    qf, pf, (Wb, _, w), diff, sq, mask, band = caches
    (P, m, _), n = pf.shape, qf.shape[-2]
    keep, rows, cols = _skew_index(n, m, band)
    index = alignment._block_layout(model.embed_dim)[0]
    Em = E.transpose(1, 2, 0)[keep][..., None] * mask
    grid = np.zeros((P, n, m, len(MODALITIES)))
    grid[:, rows, cols] = (Em * sq).swapaxes(0, 1)
    dcost_dw = grid.sum(axis=(1, 2))
    Md = diff.reshape(diff.shape[:2] + (len(MODALITIES), -1)) * (Em * w)[..., None]
    grid = np.zeros((P, n, m, Wb.shape[0]))
    grid[:, rows, cols] = Md.reshape(diff.shape).swapaxes(0, 1)
    A, B = grid.sum(axis=2), grid.sum(axis=1)
    gW = 2.0 * (np.swapaxes(A, 1, 2) @ qf - np.swapaxes(B, 1, 2) @ pf)
    G = np.empty((P, index.size + len(MODALITIES)))
    G[:, :index.size] = gW.reshape(P, -1)[:, index]
    for p in range(P):
        G[p, index.size:] = w * (dcost_dw[p] - float(np.dot(w, dcost_dw[p])))
    return (G, alignment._rows(2.0 * A, Wb), alignment._rows(-2.0 * B, Wb)), A, B


class TestCostGradients:
    def test_equal_the_dense_grid_sums_bit_for_bit(self, rng):
        """Summed without the grid, every gradient keeps its bits, signed
        zeros included: a row or column whose kept terms are all -0.0 sums
        to +0.0, as on the grid."""
        negative_zero_runs = 0
        for trial in range(60):
            n, m = (int(v) for v in rng.integers(2, 11, size=2))
            band, P = 1 + trial % 3, int(rng.integers(1, 5))
            model = MetricModel.from_seed(trial, noise=0.3)
            qf, qp = stacked([random_packed(rng, n) for _ in range(P)])
            pf, pp = stacked([random_packed(rng, m) for _ in range(P)])
            # a modality absent on some query rows and proto columns, with
            # the query's values below the protos': its terms there are -0.0
            k = MODALITY_SLICES[MODALITIES[trial % 5]]
            qf[..., k] -= 50.0
            qp[:, rng.random(n) < 0.4, trial % 5] = False
            pp[:, rng.random(m) < 0.4, trial % 5] = False
            try:
                costs, caches = _banded_costs(model, (qf, qp), (pf, pp), band)
                _, _, E = _soft_dtw_tables(costs, n, m, band, 0.1)
            except BandTooNarrowError:
                continue
            want, A, B = grid_gradients(model, _banded_costs(model, (qf, qp), (pf, pp), band)[1], E)
            got = alignment._cost_gradients(model, caches, E)
            for g, v in zip(got, want):
                assert g.tobytes() == v.tobytes()
            # the sums themselves, from the weighted terms written over the
            # cached differences: a -0.0 here need not reach a gradient
            terms = caches[3]
            _, rows, cols = _skew_index(n, m, band)
            by_row, by_col = np.lexsort((cols, rows)), np.lexsort((rows, cols))
            assert alignment._ordered_sums(terms, rows, by_row, n).tobytes() == A.tobytes()
            assert alignment._ordered_sums(terms, cols, by_col, m).tobytes() == B.tobytes()
            assert not (np.signbit(A) & (A == 0.0)).any()
            for at, size in ((rows, n), (cols, m)):
                for r in range(size):
                    run = terms[at == r]
                    negative_zero_runs += int((np.signbit(run) & (run == 0.0)).all(axis=0).sum())
        assert negative_zero_runs > 0


class TestSweepPlan:
    def test_each_diagonal_keeps_one_run_of_rows(self):
        """``_sweep_plan`` steps each anti-diagonal as one run of rows."""
        for n in range(2, 25):
            for m in range(2, 25):
                for band in (1, 2, 3, 5):
                    for row in _skew_index(n, m, band)[0]:
                        kept = np.flatnonzero(row)
                        assert kept.size == 0 or kept[-1] - kept[0] + 1 == kept.size

    def test_a_shorter_live_window_keeps_no_more_cells(self):
        """A warm-up window, n < m, keeps no more cells than one of the
        prototypes' own length, so its workspace is no larger."""
        for m in range(2, 25):
            for band in (1, 2, 3, 5):
                full = _skew_index(m, m, band)[1].size
                assert all(_skew_index(n, m, band)[1].size <= full for n in range(2, m))


class TestLazyPath:
    """``match`` backtracks no warping path: its distances and similarities
    equal ``dtw``'s on each prototype alone."""

    def scene(self, rng):
        model, selector = MetricModel.from_seed(2, noise=0.3), SelectorModel.from_seed(3)
        live = random_packed(rng, 7)
        library, _ = packed_library([random_packed(rng, n) for n in (7, 5, 8, 7, 6)])
        return model, selector, live, library, FilterContext(step_rate=0.4)

    def test_paths_read_after_later_matches_equal_dtw(self, rng):
        """Every call sweeps into tables of its own: a result read only
        after later calls of the same shapes is still that result's own."""
        model, selector, _, library, ctx = self.scene(rng)
        lives = [random_packed(rng, 7) for _ in range(3)]
        first = match(model, selector, lives[0], library, 2, len(library), ctx)
        for live in lives[1:]:
            match(model, selector, live, library, 2, len(library), ctx)
        want = per_prototype(model, selector, lives[0], library, 2, ctx)
        assert len(first) == len(want)
        for pid, result in first:
            assert result == AlignmentResult(want[pid].distance, want[pid].similarity)
        with pytest.raises(AttributeError):
            first[0][1].distance = 0.0              # results are frozen
        # a library keeps the scratch every call computes in: results read
        # only after 50 later matches with other windows and coefficients,
        # on the live length of a group and on a length no group shares,
        # are still each prototype's own, for every filter
        lib = scratch_library(rng, [7, 5, 8, 7, 6, 7])
        for kind in FILTER_ORDER:
            selector = selector_for_kind(kind)
            sigmas = set()
            for n in (7, 9):
                live, ctx = random_packed(rng, n), random_context(rng)
                got = match(model, selector, live, lib, 3, len(lib), ctx)
                kept = [(pid, r.distance, r.similarity) for pid, r in got]
                for _ in range(50):
                    other = random_context(rng)
                    sigmas.add(select_filter(selector, other).sigma)
                    match(model, selector, random_packed(rng, int(rng.integers(4, 10))),
                          lib, 3, len(lib), other)
                want = per_prototype(model, selector, live, lib, 3, ctx)
                assert len(got) == len(want) > 0
                assert [(pid, r.distance, r.similarity) for pid, r in got] == kept
                for pid, result in got:
                    assert result.distance == want[pid].distance
                    assert result.similarity == want[pid].similarity
            assert select_filter(selector, random_context(rng)).hard_kind() == kind
            assert len(sigmas) > 1


def scratch_library(rng, lengths):
    lib = FingerprintLibrary(LibraryConfig(capacity=64))
    for day, n in enumerate(lengths):
        seq = make_sequence(rng, n, t0=100.0 * day)
        lib.commit_segment(seq, SwitchEvent(seq.windows[-1].timestamp, "wifi_to_cell"),
                           created_day=day)
    return lib


def selector_for_kind(kind, seed=3):
    """A seeded network whose output bias settles the filter kind, so sigma
    and the other coefficients still move with the context."""
    selector = SelectorModel.from_seed(seed)
    selector.net.b2[FILTER_ORDER.index(kind)] = 8.0
    return selector


def random_context(rng):
    return FilterContext(rssi_variance=float(rng.uniform(0.0, 40.0)),
                         scan_age=float(rng.uniform(0.0, 5.0)),
                         step_rate=float(rng.uniform(0.0, 2.0)))


def per_prototype(model, selector, live, lib, band, ctx):
    """Each prototype of ``lib`` filtered and aligned on its own by ``dtw``."""
    choice = select_filter(selector, ctx)
    query = (denoise_matrix(choice, live[0]), live[1])
    want = {}
    for pid, seq in lib.items():
        pf, pp = seq.packed()
        try:
            want[pid] = dtw(model, query, (denoise_matrix(choice, pf), pp), band)
        except BandTooNarrowError:
            pass
    return want


def bits(results):
    """``(id, distance, similarity)`` of ``(id, AlignmentResult)`` pairs,
    floats in hex."""
    return [(pid, r.distance.hex(), r.similarity.hex()) for pid, r in results]


def in_match_order(want):
    """``per_prototype``'s results in ``match``'s order: by similarity,
    ties to the smaller id."""
    return sorted(want.items(), key=lambda kv: (-kv[1].similarity, kv[0]))


def workspaces(lib, lengths, band, E):
    """The ``_workspace`` of every group of ``lib``'s plan at each live
    length, looked up as ``match`` looks them up."""
    return [alignment._workspace(n, len(g.features), band, len(g.ids), E)
            for g in alignment._plan(lib) for n in lengths]


def arrays_in(obj, found=None):
    """Every array reachable from ``obj`` through tuples, lists, dict values
    and slots."""
    found = [] if found is None else found
    if isinstance(obj, np.ndarray):
        found.append(obj)
    elif isinstance(obj, (tuple, list, dict)):
        for item in (obj.values() if isinstance(obj, dict) else obj):
            arrays_in(item, found)
    else:
        for name in getattr(type(obj), "__slots__", ()):
            arrays_in(getattr(obj, name, None), found)
    return found


class TestScratch:
    """``match`` computes in scratch that a ``FingerprintLibrary``'s plan
    keeps between calls; nothing it returns may depend on that scratch."""

    def test_caller_buffers_edited_after_return_change_nothing(self, rng):
        model, selector, ctx = MetricModel.from_seed(2, noise=0.3), SelectorModel.from_seed(4), \
            FilterContext(step_rate=0.7)
        lib = scratch_library(rng, [6, 6, 5, 6])
        feats, pres = random_packed(rng, 6)
        want = per_prototype(model, selector, (feats.copy(), pres.copy()), lib, 2, ctx)
        got = match(model, selector, (feats, pres), lib, 2, len(lib), ctx)
        feats[...] = 7.0
        pres[...] = False
        for pid, result in got:
            assert result.distance == want[pid].distance
            assert result.similarity == want[pid].similarity

    def test_metric_edited_in_place_gets_a_fresh_kernel(self, rng):
        """``MetricModel`` is mutable: after an in-place edit of an
        embedding, ``match`` costs as a fresh copy of the edited model does."""
        model, selector, ctx = MetricModel.from_seed(2, noise=0.3), SelectorModel.from_seed(4), \
            FilterContext(step_rate=0.7)
        lib = scratch_library(rng, [6, 6, 5, 6])
        live = random_packed(rng, 6)

        def bits(m):
            return [(pid, r.distance.hex()) for pid, r in match(m, selector, live, lib, 2, 8, ctx)]

        before = bits(model)
        model.embeddings["wifi"][0, 0] += 0.75
        model.scores[1] -= 0.5
        after = bits(model)
        assert after != before
        assert after == bits(model.copy())
        Wb, indicator, w = alignment._kernel(model)
        for a in (Wb, indicator, w):
            with pytest.raises(ValueError):
                a.flat[0] = 0.0

    def test_nothing_returned_shares_memory_with_scratch(self, rng):
        model, selector = MetricModel.from_seed(2, noise=0.3), selector_for_kind("gaussian")
        lib = scratch_library(rng, [6, 5, 6, 8])
        results = []
        for n in (6, 4, 6):
            results += match(model, selector, random_packed(rng, n), lib, 3, len(lib),
                             random_context(rng))
        E = alignment._costing(model)[1][0].shape[0]
        misses = alignment._workspace.cache_info().misses
        # the stacks and taps of every group and the workspaces of both live
        # lengths, every one of them built by the calls above
        buffers = arrays_in([g._stacks for g in alignment._plans[lib][1]]) \
            + arrays_in(workspaces(lib, (6, 4), 3, E))
        assert alignment._workspace.cache_info().misses == misses
        assert len(buffers) > 50
        # a result holds two floats and no table, so no array of it can
        # share memory with the scratch
        assert len(results) == 3 * len(lib)
        for _, result in results:
            assert [type(v) for v in vars(result).values()] == [float, float]

    @staticmethod
    def owned(work):
        """A ``_workspace``'s cost buffers and its sweep table."""
        return arrays_in(work[2]), work[3][0]

    def test_warm_up_workspaces_own_their_buffers(self, rng):
        """A walk's warm-up windows, shorter than every prototype, cost and
        sweep in a workspace of their own live length, whatever the filter
        and the metric: it owns its cost buffers, none larger than those of
        the prototypes' own length, and its sweep table.  No two workspaces,
        of any length or band, share memory; every result stays each
        prototype's own.  A live length whose band leaves out the end cell
        (n = 2, and n = 3 at band 2) builds no workspace."""
        for model, E in ((MetricModel.from_seed(2, noise=0.3), 20), (MetricModel.identity(), 14)):
            assert alignment._costing(model)[1][0].shape[0] == E
            lib = scratch_library(rng, [10] * 6)
            for kind in FILTER_ORDER:
                for band in (2, 3):
                    for n in (*range(2, 11), 4, 10, 3):
                        live, ctx = random_packed(rng, n), random_context(rng)
                        selector = selector_for_kind(kind)
                        want = per_prototype(model, selector, live, lib, band, ctx)
                        got = match(model, selector, live, lib, band, len(lib), ctx)
                        assert bits(got) == bits(in_match_order(want))
            misses = alignment._workspace.cache_info().misses
            first = {2: 4, 3: 3}              # the shortest live length each band admits
            owned = {(n, band): self.owned(alignment._workspace(n, 10, band, 6, E))
                     for band in (2, 3) for n in range(first[band], 11)}
            assert alignment._workspace.cache_info().misses == misses    # all built by match
            for band in (2, 3):
                full_costs, full_table = owned[10, band]
                for n in range(first[band], 11):
                    costs, table = owned[n, band]
                    assert len(costs) == len(full_costs) == 6
                    for a, b in zip(costs, full_costs):
                        assert a.base is None and a.nbytes <= b.nbytes
                    assert table.size <= full_table.size
            buffers = [a for costs, table in owned.values() for a in (*costs, table)]
            assert len(buffers) == 15 * 7
            for i, a in enumerate(buffers):
                assert not any(np.shares_memory(a, b) for b in buffers[i + 1:])

    def test_a_band_that_leaves_out_the_end_cell_does_no_work(self, rng, monkeypatch):
        """A live window whose band admits no path to any group's end cell
        (2 windows against 10 at band 3: |1 * 10 / 2 - 9| = 4 > 3) is ranked
        empty with no selector pass and no workspace; ``dtw`` refuses each
        prototype on its own.  A group that is admitted is still ranked."""
        model = MetricModel.identity()
        lib = scratch_library(rng, [10] * 3 + [3] * 2)
        live, ctx = random_packed(rng, 2), random_context(rng)
        for _, seq in lib.items():
            if len(seq.packed()[0]) == 10:
                with pytest.raises(BandTooNarrowError):
                    dtw(model, live, seq.packed(), 3)
        calls, workspace = [], alignment._workspace
        monkeypatch.setattr(filters, "select_filter",
                            lambda *a: calls.append("select_filter") or select_filter(*a))
        monkeypatch.setattr(alignment, "_workspace",
                            lambda *a: calls.append(a[:2]) or workspace(*a))
        only_long = scratch_library(rng, [10] * 3)
        assert match(model, SelectorModel.zeros(), live, only_long, 3, 5, ctx) == []
        assert calls == []
        got = match(model, SelectorModel.zeros(), live, lib, 3, 5, ctx)
        assert calls == ["select_filter", (2, 3)]
        assert bits(got) == bits(in_match_order(
            per_prototype(model, SelectorModel.zeros(), live, lib, 3, ctx)))
        assert len(got) == 2
        # the width check still runs first
        with pytest.raises(ValueError, match="schema mismatch"):
            match(model, SelectorModel.zeros(), (live[0][:, :5], live[1]), only_long, 3, 5, ctx)


class TestLengthGroups:
    def commit(self, lib, rng, n, day):
        seq = make_sequence(rng, n, t0=100.0 * day)
        return lib.commit_segment(seq, SwitchEvent(seq.windows[-1].timestamp, "wifi_to_cell"),
                                  created_day=day)

    def library(self, rng, lengths, capacity=256):
        lib = FingerprintLibrary(LibraryConfig(capacity=capacity))
        for day, n in enumerate(lengths):
            self.commit(lib, rng, n, day)
        return lib

    def fresh(self, lib):
        copy = FingerprintLibrary(lib.cfg)
        for _, seq in lib.items():
            copy.commit_segment(seq, seq.label, created_day=seq.created_at)
        return copy

    def ranked(self, library, live, band=1):
        return [(pid, r.distance, r.similarity)
                for pid, r in match(MetricModel.from_seed(3, noise=0.3),
                                    SelectorModel.from_seed(5), live, library,
                                    band, 64,
                                    context_from_windows(*live.packed(), 0.0))]

    def test_library_equals_plain_list(self, rng):
        lib = self.library(rng, [6, 4, 6, 10, 5, 4])
        live = make_sequence(rng, 3)
        got = self.ranked(lib, live)
        assert got == self.ranked(self.fresh(lib), live)
        # 3 live windows against 10 leave no path inside band 1
        too_long = [pid for pid, seq in lib.items() if len(seq.windows) == 10]
        assert len(got) == len(lib) - 1 and too_long[0] not in [g[0] for g in got]
        assert self.ranked(lib, live) == got        # from the cached groups
        wide = self.ranked(lib, live, band=3)
        assert len(wide) == len(lib) and wide == self.ranked(self.fresh(lib), live, band=3)

    def test_groups_follow_eviction_and_maintain(self, rng):
        lib = self.library(rng, [6, 4, 6, 5], capacity=4)
        live = make_sequence(rng, 5)
        before = self.ranked(lib, live)
        groups = alignment._plan(lib)
        assert alignment._plan(lib) is groups
        assert alignment._plans[lib] == (lib.version, groups)
        oldest = [pid for pid, seq in lib.items() if seq.created_at == 0]
        self.commit(lib, rng, 4, day=4)             # evicts day 0
        assert len(lib) == 4 and oldest[0] not in lib.sequences
        after = self.ranked(lib, live)
        assert after != before and after == self.ranked(self.fresh(lib), live)

    @staticmethod
    def bits(ranked):
        return [(pid, r.distance.hex(), r.similarity.hex()) for pid, r in ranked]

    def test_plan_equals_a_fresh_library_after_every_change(self, rng):
        """After each commit and eviction, ``match`` on the
        library's kept plan equals ``match`` on a fresh library with the same
        items, bit for bit: ids, order, distances and similarities."""
        lib = self.library(rng, [6, 4, 6, 5], capacity=5)
        lives = [make_sequence(rng, n) for n in (6, 4, 3)]
        model, selector = MetricModel.from_seed(3, noise=0.3), SelectorModel.from_seed(5)

        def run(library):
            return [self.bits(match(model, selector, live, library, 2, 64,
                                    context_from_windows(*live.packed(), 0.0)))
                    for live in lives]

        run(lib)                                    # fills the plan of this version
        changes = ((6, 4),      # no eviction
                   (4, 5),      # evicts day 0
                   (3, 6))      # evicts day 1; no group had length 3
        days = []
        for n, day in changes:
            groups = alignment._plan(lib)
            self.commit(lib, rng, n, day)
            days.append(sorted(seq.created_at for _, seq in lib.items()))
            assert alignment._plan(lib) is not groups
            assert run(lib) == run(self.fresh(lib))
        assert days == [[0, 1, 2, 3, 4], [1, 2, 3, 4, 5], [2, 3, 4, 5, 6]]

    def test_a_commit_and_eviction_that_keep_the_shapes_build_no_workspace(self, rng):
        """A commit that evicts a prototype of its own length keeps every
        group's shape, so the new version's calls look up the workspaces
        the last version's calls built and build none, and they still equal
        ``match`` on a fresh library of the same items, bit for bit."""
        lib = self.library(rng, [6, 6, 4, 6], capacity=4)
        lives = [make_sequence(rng, n) for n in (6, 4, 3)]
        model, selector = MetricModel.from_seed(3, noise=0.3), SelectorModel.from_seed(5)

        def run(library):
            return [self.bits(match(model, selector, live, library, 2, 64,
                                    context_from_windows(*live.packed(), 0.0)))
                    for live in lives]

        E = alignment._costing(model)[1][0].shape[0]
        before = run(lib)
        groups = alignment._plan(lib)
        used = workspaces(lib, (6, 4, 3), 2, E)
        misses = alignment._workspace.cache_info().misses
        self.commit(lib, rng, 6, day=4)             # evicts day 0, also of length 6
        assert sorted(seq.created_at for _, seq in lib.items()) == [1, 2, 3, 4]
        after = run(lib)
        assert alignment._plan(lib) is not groups
        assert [g.features.shape for g in alignment._plan(lib)] \
            == [g.features.shape for g in groups]
        assert alignment._workspace.cache_info().misses == misses
        assert all(a is b for a, b in zip(workspaces(lib, (6, 4, 3), 2, E), used, strict=True))
        assert after != before and after == run(self.fresh(lib))

    def test_libraries_of_one_shape_share_a_workspace(self, rng):
        """Two libraries of one shape cost and sweep in the same workspaces:
        the second library's call builds none and leaves the first's in
        place.  With their calls interleaved, each result, read after the
        other library's call, equals ``dtw`` on its prototype alone, bit for
        bit."""
        model, selector = MetricModel.from_seed(2, noise=0.3), SelectorModel.from_seed(4)
        E = alignment._costing(model)[1][0].shape[0]
        libs = [scratch_library(rng, [10] * 6) for _ in range(2)]
        for n in (10, 4, 10, 7, 3, 4):
            live, ctx = random_packed(rng, n), random_context(rng)
            got, used = [], []
            for lib in libs:
                misses = alignment._workspace.cache_info().misses
                got.append(match(model, selector, live, lib, 3, len(lib), ctx))
                used += workspaces(lib, (n,), 3, E)
            assert alignment._workspace.cache_info().misses == misses
            assert used[0] is used[1]
            assert bits(got[0]) != bits(got[1])
            for lib, results in zip(libs, got):
                want = per_prototype(model, selector, live, lib, 3, ctx)
                assert len(results) == len(lib) and bits(results) == bits(in_match_order(want))

    def test_cached_arrays_are_read_only(self, rng):
        """What a version fixes is read-only: the prototypes, their presence,
        the Gaussian taps and the kept cells.  The taps are gathered once
        per radius, view the group's padded stack (prototypes in columns
        1.., the live window in column 0) and are rebuilt when the version
        changes; no two groups, and no group's stack and features, share
        memory."""
        lib = self.library(rng, [6, 4])
        model, selector = MetricModel.identity(), selector_for_kind("gaussian")
        ctx = FilterContext()
        radius = filters._gaussian_radius(select_filter(selector, ctx).sigma)
        live = make_sequence(rng, 6)
        match(model, selector, live, lib, 2, 1, ctx)
        kept = []
        for g in alignment._plan(lib):
            stack, taps = g._stacks[radius]         # gathered by match
            m, P, F = g.features.shape
            zeros = np.zeros((radius, 1 + P, F))
            column0 = live.packed()[0] if m == 6 else np.zeros((m, F))
            padded = np.concatenate([zeros, np.concatenate([column0[:, None], g.features], axis=1),
                                     zeros]).reshape(m + 2 * radius, -1)
            assert stack.tobytes() == padded.tobytes()
            # entry [k, t] is step t + k - radius, +0.0 off either edge
            assert taps.shape == (2 * radius + 1, m, (1 + P) * F)
            assert taps.tobytes() == np.stack([padded[k:k + m]
                                               for k in range(2 * radius + 1)]).tobytes()
            assert list(g._stacks) == [radius] and np.shares_memory(taps, stack)
            assert not np.shares_memory(stack, g.features)
            kept.append(taps)
            for a, v in ((g.features, 1.0), (g.present, False), (taps, 0.0)):
                with pytest.raises(ValueError):
                    a.flat[0] = v
        match(model, selector, make_sequence(rng, 6), lib, 2, 1, ctx)
        groups = alignment._plan(lib)
        assert all(g._stacks[radius][1] is k for g, k in zip(groups, kept))
        # each group costs in the workspace of its own shape
        arrays = [arrays_in([g.features, g.present, g._stacks,
                             alignment._workspace(6, len(g.features), 2, len(g.ids), 14)])
                  for g in groups]
        assert not any(np.shares_memory(a, b) for a in arrays[0] for b in arrays[1])
        self.commit(lib, rng, 4, day=2)
        match(model, selector, make_sequence(rng, 6), lib, 2, 1, ctx)
        rebuilt = [g._stacks[radius][1] for g in alignment._plan(lib)]
        assert len(rebuilt) == 2
        assert not any(np.shares_memory(a, b) for a in rebuilt for b in kept)
        keep, rows, cols = _skew_index(6, 4, 2)
        for a, v in ((keep, False), (rows, 1), (cols, 1)):
            with pytest.raises(ValueError):
                a.flat[0] = v

    def test_plan_released_with_its_library(self, rng):
        """The plan cache holds its library weakly: once the library is
        gone, so are its entry and the buffers of its groups, the
        prototypes and their padded stacks and taps.  The workspaces stay:
        they belong to their shapes, not to a library."""
        gc.collect()                                # libraries of earlier tests
        lib = self.library(rng, [6, 4])
        self.ranked(lib, make_sequence(rng, 6))
        version, groups = alignment._plans[lib]
        assert version == lib.version and len(groups) == 2
        library, stack = weakref.ref(lib), weakref.ref(groups[0].features)
        taps = [weakref.ref(a) for g in groups for kept in g._stacks.values() for a in kept]
        assert len(taps) == 4
        entries, workspaces = len(alignment._plans), alignment._workspace.cache_info()
        del lib, groups
        gc.collect()
        assert library() is None and stack() is None and all(ref() is None for ref in taps)
        assert len(alignment._plans) == entries - 1
        assert all(ref() is not None for ref in alignment._plans.keyrefs())
        assert alignment._workspace.cache_info() == workspaces


class TestSchemaMismatch:
    def test_narrow_query_raises_everywhere(self, rng):
        model = MetricModel.identity()
        feats, pres = random_packed(rng, 5)
        narrow, proto = (feats[:, :13], pres), random_packed(rng, 5)
        for align in (dtw, soft_dtw):
            with pytest.raises(ValueError, match="schema"):
                align(model, narrow, proto)
        wide = (np.concatenate([feats, feats[:, :1]], axis=1), pres)
        workspaces = alignment._workspace.cache_info()
        # the live length shared by a prototype group (the first or a later
        # one), and by none
        for library in (packed_library([proto])[0],
                        packed_library([random_packed(rng, 6), proto])[0],
                        packed_library([random_packed(rng, 6)])[0]):
            for live in (narrow, wide):
                with pytest.raises(ValueError, match="schema"):
                    match(model, SelectorModel.zeros(), live, library, 3, 1, FilterContext())
            # checked before the call gathers taps or looks a workspace up
            assert all(g._stacks == {} for g in alignment._plan(library))
            assert alignment._workspace.cache_info() == workspaces


class TestMaskConsistency:
    def test_absent_modality_everywhere_changes_nothing(self, rng):
        model = MetricModel.from_seed(4)
        n, m = 5, 6
        qf, qp = random_packed(rng, n, all_present=True)
        pf, pp = random_packed(rng, m, all_present=True)
        qp2, pp2 = qp.copy(), pp.copy()
        qp2[:, 3] = False   # gnss absent in every query window
        pp2[:, 3] = False
        base = dtw(model, (qf, qp2), (pf, pp2), 3).distance
        qf2 = qf.copy()
        qf2[:, MODALITY_SLICES["gnss"]] = rng.normal(0, 9, (n, 3))
        assert dtw(model, (qf2, qp2), (pf, pp2), 3).distance == pytest.approx(base, abs=1e-12)


def test_metric_serialize_roundtrip():
    model = MetricModel.from_seed(21)
    model.scores = np.array([0.2, -0.4, 1.0, 0.0, -1.1])
    back = MetricModel.deserialize(model.serialize())
    assert np.array_equal(back.to_vector(), model.to_vector())


def test_metric_needs_one_embed_dim():
    # the block-diagonal cost kernel gives every modality embed_dim rows
    emb = MetricModel.identity(4).embeddings
    with pytest.raises(ValueError):
        MetricModel({**emb, "gnss": np.eye(3)}, np.zeros(5))
    with pytest.raises(ValueError):
        MetricModel({**emb, "time": np.eye(4, 3)}, np.zeros(5))
