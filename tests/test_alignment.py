import math

import numpy as np
import pytest

from envswitch.alignment import (BandTooNarrowError, MetricModel, _backtrack,
                                 _dtw_tables, _skew_index, _soft_dtw_tables, band_mask,
                                 cell_cost, cost_matrix, dtw, in_band,
                                 margin_loss,
                                 margin_loss_grads, match,
                                 pairs_from_switch_tags, soft_dtw,
                                 soft_dtw_value, train_metric,
                                 mean_margin_loss)
from envswitch.config import LibraryConfig
from envswitch.fingerprints import (MODALITIES, MODALITY_SLICES, Fingerprint,
                                    FingerprintLibrary, FingerprintSequence,
                                    SwitchEvent)
from envswitch.filters import (FilterContext, SelectorModel,
                               context_from_windows, denoise_matrix,
                               select_filter)

from conftest import make_fingerprint, make_sequence, random_packed


def brute_force_distance(model, query, proto, band):
    """Exhaustive minimum over banded monotone paths (independent oracle)."""
    cost, _ = cost_matrix(model, query, proto)
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


def reference_backtrack(D):
    """Warping path through one table with numpy scalars: the least finite
    predecessor, ties to the diagonal, then the vertical, then the horizontal."""
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


def scalar_banded_distance(cost, band):
    """Plain banded DP over one (n, m) cost matrix; inf when no path fits."""
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
    return D[n - 1][m - 1]


def _softmin3(a: float, b: float, c: float, gamma: float) -> float:
    lo = min(a, b, c)
    if not np.isfinite(lo):
        return np.inf
    s = 0.0
    for v in (a, b, c):
        if np.isfinite(v):
            s += math.exp(-(v - lo) / gamma)
    return lo - gamma * math.log(s)


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
    return MetricModel(emb, scores, 0.0)


class TestCellCost:
    def test_identical_windows_cost_zero(self, rng):
        fp = make_fingerprint(rng, 1.0)
        assert cell_cost(MetricModel.identity(), fp, fp) == 0.0

    def test_absent_modality_contributes_nothing(self, rng):
        model = MetricModel.identity()
        base = rng.normal(0, 1, 14)
        pres_q = np.array([True, False, True, True, True])
        q1 = Fingerprint(1.0, base, pres_q, np.ones(5) * pres_q)
        noisy = base.copy()
        noisy[MODALITY_SLICES["wifi"]] += 100.0
        q2 = Fingerprint(1.0, noisy, pres_q, np.ones(5) * pres_q)
        f = make_fingerprint(rng, 2.0)
        assert cell_cost(model, q1, f) == cell_cost(model, q2, f)

    def test_unit_difference_costs_one(self, rng):
        model = pdr_only_model()
        feats_a = np.zeros(14)
        feats_b = np.zeros(14)
        feats_b[0] = 1.0   # PDR features differ by (1, 0, 0)
        a = Fingerprint(1.0, feats_a, np.ones(5, bool), np.ones(5))
        b = Fingerprint(2.0, feats_b, np.ones(5, bool), np.ones(5))
        assert cell_cost(model, a, b) == pytest.approx(1.0, abs=1e-12)


class TestDtw:
    def test_self_alignment(self, rng):
        seq = make_sequence(rng, 7)
        result = dtw(MetricModel.identity(), seq, seq, band=3)
        assert result.distance == 0.0
        assert result.similarity == 1.0
        assert result.path == [(i, i) for i in range(7)]

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

    def test_backtrack_tie_break_equals_reference(self, rng):
        # costs in {0, 1, 2} make equal predecessors common
        ties = 0
        for trial in range(60):
            n, m = (int(v) for v in rng.integers(2, 8, size=2))
            cost = rng.integers(0, 3, size=(1, n, m)).astype(float)
            D = _dtw_tables(cost, int(rng.integers(1, 4)))[0]
            if not np.isfinite(D[-1, -1]):
                continue
            path = _backtrack(D)
            assert path == reference_backtrack(D)
            for (i, j) in path[1:]:
                preds = [D[a, b] for a, b in ((i - 1, j - 1), (i - 1, j), (i, j - 1))
                         if a >= 0 and b >= 0 and np.isfinite(D[a, b])]
                ties += len(preds) - len(set(preds))
        assert ties > 0
        # all three predecessors equal: the diagonal wins
        assert _backtrack(np.ones((2, 2))) == [(0, 0), (1, 1)]

    def test_path_respects_band_and_steps(self, rng):
        for trial in range(20):
            n = int(rng.integers(3, 7))
            m = int(rng.integers(3, 7))
            band = int(rng.integers(2, 4))
            try:
                result = dtw(MetricModel.from_seed(trial),
                             random_packed(rng, n), random_packed(rng, m), band)
            except BandTooNarrowError:
                continue
            path = result.path
            assert path[0] == (0, 0) and path[-1] == (n - 1, m - 1)
            for (i0, j0), (i1, j1) in zip(path, path[1:]):
                assert (i1 - i0, j1 - j0) in ((1, 0), (0, 1), (1, 1))
            for i, j in path:
                assert in_band(i, j, n, m, band)

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
            stacked = (np.stack([p[0] for p in protos]),
                       np.stack([p[1] for p in protos]))
            cost, _ = cost_matrix(model, q, stacked)
            assert cost.shape == (P, n, m)
            for k, p in enumerate(protos):
                assert np.array_equal(cost[k], cost_matrix(model, q, p)[0])

    def test_embedding_equals_stacked_product(self, rng):
        # cost_matrix embeds the difference tensor with one 2-D product; it
        # must equal numpy's stacked (P, n, m, k) @ (k, e) product bit for bit
        for trial in range(200):
            n, m = (int(v) for v in rng.integers(2, 12, size=2))
            P = int(rng.integers(1, 30))
            model = MetricModel.from_seed(trial, int(rng.integers(2, 6)), 0.3)
            protos = (rng.normal(size=(P, m, 14)), rng.random((P, m, 5)) > 0.2)
            if trial % 2:
                query = random_packed(rng, n)
            else:
                query = (rng.normal(size=(P, n, 14)), rng.random((P, n, 5)) > 0.2)
            cost, caches = cost_matrix(model, query, protos)
            want = np.zeros_like(cost)
            for i, mod in enumerate(MODALITIES):
                diff, emb, _, mask = caches[mod]
                stacked = diff @ model.embeddings[mod].T
                assert np.array_equal(emb, stacked)
                want += model.weights[i] * np.einsum(
                    "...ijk,...ijk->...ij", stacked, stacked) * mask
            assert np.array_equal(cost, want)

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
            cost, _ = cost_matrix(model, q, (np.stack([p[0] for p in protos]),
                                             np.stack([p[1] for p in protos])))
            got = _dtw_tables(cost, band)[:, n - 1, m - 1]
            for k, p in enumerate(protos):
                want = scalar_banded_distance(cost[k], band)
                assert got[k] == want
                try:
                    assert dtw(model, q, p, band).distance == want
                except BandTooNarrowError:
                    assert math.isinf(want)
                    narrow += 1
        assert narrow > 0          # the too-narrow case was exercised


class TestSoftDtw:
    def test_self_alignment_nonpositive_and_limit(self, rng):
        seq = random_packed(rng, 5)
        model = MetricModel.from_seed(1)
        for gamma in (1.0, 0.1, 1e-3):
            value = soft_dtw_value(model, seq, seq, 3, gamma)
            assert value <= 1e-12
        assert abs(soft_dtw_value(model, seq, seq, 3, 1e-3)) < 1e-2

    def test_value_below_hard_distance(self, rng):
        for trial in range(30):
            q = random_packed(rng, int(rng.integers(2, 7)))
            p = random_packed(rng, int(rng.integers(2, 7)))
            model = MetricModel.from_seed(trial)
            hard = dtw(model, q, p, 3).distance
            for gamma in (1.0, 0.1):
                assert soft_dtw_value(model, q, p, 3, gamma) <= hard + 1e-12

    def test_small_gamma_agrees_with_hard(self, rng):
        for trial in range(25):
            q = random_packed(rng, int(rng.integers(2, 6)))
            p = random_packed(rng, int(rng.integers(2, 6)))
            model = MetricModel.from_seed(100 + trial)
            hard = dtw(model, q, p, 3).distance
            soft = soft_dtw_value(model, q, p, 3, 1e-3)
            assert abs(soft - hard) < 1e-2

    def test_gradients_match_finite_differences(self, rng):
        model = MetricModel.from_seed(7)
        q = random_packed(rng, 5)
        p = random_packed(rng, 6)
        _, grads = soft_dtw(model, q, p, 3, 0.1)
        gvec = grads.to_vector()
        vec = model.to_vector()
        h = 1e-5
        checked = 0
        for i in rng.choice(vec.size, size=25, replace=False):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fp = soft_dtw_value(model.from_vector(vp), q, p, 3, 0.1)
            fm = soft_dtw_value(model.from_vector(vm), q, p, 3, 0.1)
            fd = (fp - fm) / (2 * h)
            if abs(fd) < 1e-10 and abs(gvec[i]) < 1e-10:
                continue
            rel = abs(gvec[i] - fd) / max(1e-8, abs(gvec[i]), abs(fd))
            assert rel < 1e-3
            checked += 1
        assert checked >= 10

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
            cost, _ = cost_matrix(model, q, (np.stack([p[0] for p in protos]),
                                             np.stack([p[1] for p in protos])))
            try:
                oracles = [scalar_soft_dtw_tables(c, band, gamma) for c in cost]
            except BandTooNarrowError:
                with pytest.raises(BandTooNarrowError):
                    _soft_dtw_tables(cost, band, gamma)
                narrow += 1
                continue
            values, R, E = _soft_dtw_tables(cost, band, gamma)
            for k, (value, R_k, E_k) in enumerate(oracles):
                assert values[k] == value
                assert np.array_equal(R[k], R_k[1:, 1:])
                assert np.array_equal(E[k], E_k)
            checked += 1
        assert narrow > 0 and checked > 20

    def test_soft_dtw_is_kernel_on_stack_of_one(self, rng):
        model = MetricModel.from_seed(4, noise=0.3)
        q, p = random_packed(rng, 7), random_packed(rng, 5)
        cost, _ = cost_matrix(model, q, p)
        value, _, _ = scalar_soft_dtw_tables(cost, 2, 0.1)
        assert soft_dtw_value(model, q, p, 2, 0.1) == value

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
        assert margin_loss(model, pos, [far], margin=1.0) == 0.0

    def test_direct_formula_and_mean(self, rng):
        model = MetricModel.identity()
        q = random_packed(rng, 5, all_present=True)
        near = (q, (q[0] + 0.05, q[1]))
        far_pos = (q, (q[0] + 3.0, q[1]))
        sp = soft_dtw_value(model, *far_pos, 3, 0.1)
        sn = soft_dtw_value(model, *near, 3, 0.1)
        expected = max(0.0, 1.0 + sp - sn)
        got = margin_loss(model, far_pos, [near], margin=1.0)
        assert got == pytest.approx(expected, abs=1e-12)
        # mean over two negatives, one active and one inactive
        inactive = (q, (q[0] + 10.0, q[1]))
        h_active = max(0.0, 1.0 + sp - sn)
        h_inactive = max(0.0, 1.0 + sp - soft_dtw_value(model, *inactive, 3, 0.1))
        got2 = margin_loss(model, far_pos, [near, inactive], margin=1.0)
        assert got2 == pytest.approx((h_active + h_inactive) / 2.0, abs=1e-12)

    def test_requires_negatives(self, rng):
        with pytest.raises(ValueError):
            margin_loss(MetricModel.identity(),
                        (random_packed(rng, 4), random_packed(rng, 4)), [])

    def test_gradients_match_finite_differences(self, rng):
        model = MetricModel.from_seed(3)
        q = random_packed(rng, 5, all_present=True)
        pos = (q, (q[0] + rng.normal(0, 1.5, q[0].shape), q[1]))
        negs = [(q, (q[0] + rng.normal(0, 0.05, q[0].shape), q[1]))
                for _ in range(2)]
        loss0, grads = margin_loss_grads(model, pos, negs, 1.0, 0.1, 3)
        assert loss0 > 0.0
        gvec = grads.to_vector()
        vec = model.to_vector()
        h = 1e-5
        checked = 0
        for i in rng.choice(vec.size, size=20, replace=False):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fp = margin_loss(model.from_vector(vp), pos, negs, 1.0, 0.1, 3)
            fm = margin_loss(model.from_vector(vm), pos, negs, 1.0, 0.1, 3)
            fd = (fp - fm) / (2 * h)
            if abs(fd) < 1e-10 and abs(gvec[i]) < 1e-10:
                continue
            rel = abs(gvec[i] - fd) / max(1e-8, abs(gvec[i]), abs(fd))
            assert rel < 1e-3
            checked += 1
        assert checked >= 8


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
        before = mean_margin_loss(model, pairs)
        trained = train_metric(model, pairs, epochs=30, step_size=0.3)
        after = mean_margin_loss(trained, pairs)
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
            scaled = MetricModel(model.embeddings, model.scores * c, 0.0)
            assert int(np.argmax(scaled.weights)) == argmax


def looped_train_metric(model, pairs, epochs, step_size, margin=1.0,
                        gamma=0.1, band=3):
    """Gradient descent with one margin_loss_grads call per pair."""
    current = model.copy()
    for _ in range(epochs):
        acc = np.zeros(current.to_vector().size)
        for positive, negatives in pairs:
            _, g = margin_loss_grads(current, positive, negatives, margin, gamma, band)
            acc += (1.0 / len(pairs)) * g.to_vector()
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
            [w.replace_features(w.features + 0.01) for w in live.windows])
        far = FingerprintSequence(
            [w.replace_features(w.features + 3.0) for w in live.windows])
        lib = self.build_library(rng, [far, near])
        ranked = match(MetricModel.identity(), SelectorModel.zeros(), live, lib,
                       3, 2, FilterContext())
        assert len(ranked) == 2
        assert ranked[0][1].similarity > ranked[1][1].similarity
        near_id = [pid for pid, s in lib.items()
                   if np.allclose(s.features(), near.features())][0]
        assert ranked[0][0] == near_id

    def test_empty_library_returns_empty(self, rng):
        lib = FingerprintLibrary()
        assert match(MetricModel.identity(), SelectorModel.zeros(),
                     make_sequence(rng, 5), lib, 3, 3, FilterContext()) == []

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


    def test_mixed_lengths_equal_per_prototype_alignment(self, rng):
        for trial in range(12):
            model = MetricModel.from_seed(trial, noise=0.3)
            selector = SelectorModel.from_seed(trial)
            live = random_packed(rng, int(rng.integers(2, 11)))
            library = [(f"p{k:02d}", random_packed(rng, int(rng.integers(2, 11))))
                       for k in range(int(rng.integers(4, 16)))]
            library.append(("zz", live))
            ctx = FilterContext(rssi_variance=float(rng.uniform(0.0, 1.0)),
                                step_rate=float(rng.uniform(0.0, 1.0)))
            band = int(rng.integers(1, 4))
            # reference: filter and align every prototype on its own
            choice = select_filter(selector, ctx)
            query = (denoise_matrix(choice, live[0]), live[1])
            expected = []
            for pid, (pf, pp) in library:
                try:
                    result = dtw(model, query, (denoise_matrix(choice, pf), pp), band)
                except BandTooNarrowError:
                    continue
                expected.append((pid, result))
            expected.sort(key=lambda e: (-e[1].similarity, e[0]))
            ranked = match(model, selector, live, library, band,
                           len(library), ctx)
            assert [pid for pid, _ in ranked] == [pid for pid, _ in expected]
            for (_, got), (_, want) in zip(ranked, expected):
                assert got.distance == want.distance
                assert got.similarity == want.similarity
                assert got.path == want.path
            assert ranked[0][1].similarity == 1.0        # the live copy


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
        return [(pid, r.distance, r.similarity, r.path)
                for pid, r in match(MetricModel.from_seed(3, noise=0.3),
                                    SelectorModel.from_seed(5), live, library,
                                    band, 64,
                                    context_from_windows(*live.packed(), 0.0))]

    def test_library_equals_plain_list(self, rng):
        lib = self.library(rng, [6, 4, 6, 10, 5, 4])
        live = make_sequence(rng, 3)
        got = self.ranked(lib, live)
        assert got == self.ranked(list(lib.items()), live)
        # 3 live windows against 10 leave no path inside band 1
        too_long = [pid for pid, seq in lib.items() if len(seq) == 10]
        assert len(got) == len(lib) - 1 and too_long[0] not in [g[0] for g in got]
        assert self.ranked(lib, live) == got        # from the cached groups
        wide = self.ranked(lib, live, band=3)
        assert len(wide) == len(lib) and wide == self.ranked(list(lib.items()), live, band=3)

    def test_groups_follow_eviction_and_maintain(self, rng):
        lib = self.library(rng, [6, 4, 6, 5], capacity=4)
        live = make_sequence(rng, 5)
        before = self.ranked(lib, live)
        groups = lib.length_groups()
        assert lib.length_groups() is groups
        oldest = [pid for pid, seq in lib.items() if seq.created_at == 0]
        self.commit(lib, rng, 4, day=4)             # evicts day 0
        assert len(lib) == 4 and oldest[0] not in lib.sequences
        after = self.ranked(lib, live)
        assert after != before and after == self.ranked(self.fresh(lib), live)
        lib.maintain(lib.cfg.retention_days + 2)    # drops day 1
        assert len(lib) == 3
        kept = self.ranked(lib, live)
        assert kept != after and kept == self.ranked(self.fresh(lib), live)

    def test_cached_arrays_are_read_only(self, rng):
        lib = self.library(rng, [6, 4])
        for _, feats, pres in lib.length_groups():
            with pytest.raises(ValueError):
                feats[0, 0, 0] = 1.0
            with pytest.raises(ValueError):
                pres[0, 0, 0] = False
        flat, keep = _skew_index(6, 4, 2)
        with pytest.raises(ValueError):
            flat[0, 0] = 1
        with pytest.raises(ValueError):
            keep[0, 0] = False


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


class TestPairsFromSwitchTags:
    def test_pairs_have_negatives_and_same_kind_positive(self, rng):
        lib = FingerprintLibrary()
        for day in range(4):
            seq = make_sequence(rng, 6, kind="wifi_to_cell", day=day)
            lib.commit_segment(seq, seq.label, created_day=day)
        for day in range(2):
            seq = make_sequence(rng, 6, kind="cell_to_wifi", day=10 + day)
            lib.commit_segment(seq, seq.label, created_day=10 + day)
        segments = [s for _, s in lib.items()
                    if s.label.kind == "wifi_to_cell"]
        pairs = pairs_from_switch_tags(segments, lib, negatives_per_positive=4,
                                       seed=0)
        assert len(pairs) == len(segments)
        for (pos_q, pos_p), negatives in pairs:
            assert pos_p.label.kind == "wifi_to_cell"
            assert pos_p.prototype_id != pos_q.prototype_id
            assert len(negatives) == 4

    def test_no_positives_raises(self, rng):
        lib = FingerprintLibrary()
        seq = make_sequence(rng, 6, kind="wifi_to_cell")
        lib.commit_segment(seq, seq.label, created_day=0)
        only = [s for _, s in lib.items()]
        with pytest.raises(ValueError):
            pairs_from_switch_tags(only, lib, seed=0)


def test_metric_serialize_roundtrip():
    model = MetricModel.from_seed(21)
    model.scores = np.array([0.2, -0.4, 1.0, 0.0, -1.1])
    back = MetricModel.deserialize(model.serialize())
    assert np.array_equal(back.to_vector(), model.to_vector())


def test_alignment_result_export_line(rng):
    seq = make_sequence(rng, 5)
    result = dtw(MetricModel.identity(), seq, seq, 3)
    line = result.export_line("p0123")
    proto, distance, similarity, path_len = line.split(",")
    assert proto == "p0123"
    assert float(distance) == 0.0
    assert float(similarity) == 1.0
    assert int(path_len) == 5
