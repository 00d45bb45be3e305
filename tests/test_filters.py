import math

import numpy as np
import pytest

from envswitch.alignment import (MetricModel, make_alignment_loss, margin_loss_grads,
                                 soft_dtw)
from envswitch.config import FilterConfig
from envswitch.filters import (FILTER_ORDER, FilterChoice, FilterContext,
                               SelectorModel, _gaussian_kernel, apply_elp,
                               apply_gaussian, apply_kalman, context_from_windows, denoise,
                               denoise_matrix, select_filter, selector_backward,
                               selector_forward_training, soft_denoise_backward,
                               soft_denoise_matrix, train_selector)
from envswitch.mlp import grads_add, grads_scale, grads_zeros_like

from conftest import random_packed


def kalman_oracle(series, q, r, init_mean, init_var):
    """Independent closed-form gain recursion, written out step by step."""
    mean, var = init_mean, init_var
    out = []
    for x in series:
        var = var + q
        gain = var / (var + r)
        mean = mean + gain * (x - mean)
        var = (1.0 - gain) * var
        out.append(mean)
    return np.array(out)


def kalman_with_sens_oracle(x, q, r):
    """Scalar Kalman output plus d(out)/dq and d(out)/dr on one series."""
    n = x.size
    out = np.empty(n)
    dq_out = np.empty(n)
    dr_out = np.empty(n)
    mean, var = float(x[0]), 1.0
    dmean_q = dvar_q = 0.0
    dmean_r = dvar_r = 0.0
    for i in range(n):
        var_p = var + q
        dvar_pq = dvar_q + 1.0
        dvar_pr = dvar_r
        denom = var_p + r
        gain = var_p / denom
        dgain_q = (dvar_pq * denom - var_p * dvar_pq) / (denom * denom)
        dgain_r = (dvar_pr * denom - var_p * (dvar_pr + 1.0)) / (denom * denom)
        resid = x[i] - mean
        new_mean = mean + gain * resid
        dmean_q = dmean_q + dgain_q * resid - gain * dmean_q
        dmean_r = dmean_r + dgain_r * resid - gain * dmean_r
        mean = new_mean
        var = (1.0 - gain) * var_p
        dvar_q = -dgain_q * var_p + (1.0 - gain) * dvar_pq
        dvar_r = -dgain_r * var_p + (1.0 - gain) * dvar_pr
        out[i] = mean
        dq_out[i] = dmean_q
        dr_out[i] = dmean_r
    return out, dq_out, dr_out


def gaussian_with_sens_oracle(x, sigma):
    """Scalar Gaussian smoothing plus d(out)/dsigma on one series."""
    offsets, weights = _gaussian_kernel(sigma)
    dweights = weights * (offsets.astype(float) ** 2) / sigma ** 3
    n = x.size
    num = np.zeros(n); den = np.zeros(n)
    dnum = np.zeros(n); dden = np.zeros(n)
    for off, w, dw in zip(offsets, weights, dweights):
        lo = max(0, -off)
        hi = min(n, n - off)
        if lo >= hi:
            continue
        seg = x[lo + off:hi + off]
        num[lo:hi] += w * seg
        dnum[lo:hi] += dw * seg
        den[lo:hi] += w
        dden[lo:hi] += dw
    out = num / den
    dsig = (dnum * den - num * dden) / (den * den)
    return out, dsig


def elp_with_sens_oracle(x, alpha):
    """Scalar exponential low-pass plus d(out)/dalpha on one series."""
    n = x.size
    out = np.empty(n)
    dal = np.empty(n)
    out[0] = x[0]
    dal[0] = 0.0
    for i in range(1, n):
        out[i] = alpha * x[i] + (1.0 - alpha) * out[i - 1]
        dal[i] = (x[i] - out[i - 1]) + (1.0 - alpha) * dal[i - 1]
    return out, dal


def soft_denoise_oracle(choice, arr):
    """Filter outputs (3, T, F) and mixture sensitivities (4, T, F), column
    by column."""
    T, F = arr.shape
    outs = np.empty((3, T, F))
    sens = np.empty((4, T, F))
    for j in range(F):
        col = arr[:, j]
        yk, dq, dr = kalman_with_sens_oracle(col, choice.q, choice.r)
        yg, ds = gaussian_with_sens_oracle(col, choice.sigma)
        ye, da = elp_with_sens_oracle(col, choice.alpha)
        outs[:, :, j] = yk, yg, ye
        sens[0, :, j] = choice.weights[0] * dq
        sens[1, :, j] = choice.weights[0] * dr
        sens[2, :, j] = choice.weights[1] * ds
        sens[3, :, j] = choice.weights[2] * da
    return outs, sens


class TestKalman:
    def test_constant_series_monotone_convergence(self):
        series = [5.0] * 5
        out = apply_kalman(series, q=0.0, r=1.0, init_mean=0.0, init_var=100.0)
        oracle = kalman_oracle(series, 0.0, 1.0, 0.0, 100.0)
        assert np.allclose(out, oracle, atol=1e-12)
        assert np.all(np.diff(out) > 0)          # approaches 5 from below
        assert abs(out[-1] - 5.0) < 0.05

    def test_huge_r_ignores_measurements(self):
        out = apply_kalman([3.0, -8.0, 12.0], q=0.0, r=1e12, init_mean=7.0,
                           init_var=1.0)
        assert np.allclose(out, 7.0, atol=1e-6)

    def test_single_sample_is_convex_combination(self):
        out = apply_kalman([10.0], q=0.0, r=2.0, init_mean=0.0, init_var=1.0)
        assert out.shape == (1,)
        assert 0.0 < out[0] < 10.0

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            apply_kalman([1.0], q=0.0, r=0.0)
        with pytest.raises(ValueError):
            apply_kalman([1.0], q=-0.1, r=1.0)
        with pytest.raises(ValueError):
            apply_kalman([], q=0.0, r=1.0)


class TestGaussian:
    def test_constant_preserved_exactly(self):
        out = apply_gaussian([2.5] * 7, sigma=1.2)
        assert np.allclose(out, 2.5, atol=1e-12)

    def test_subsample_sigma_is_identity(self, rng):
        x = rng.normal(0, 1, 9)
        out = apply_gaussian(x, sigma=0.01)
        assert np.allclose(out, x, atol=1e-6)

    def test_interior_impulse_direct_convolution_oracle(self):
        # direct convolution oracle: with the impulse far from both edges the
        # renormalization is inert, so the response is the kernel itself
        n, c, sigma = 13, 6, 1.0
        x = np.zeros(n)
        x[c] = 1.0
        offsets = np.arange(-3, 4)
        kernel = np.exp(-offsets.astype(float) ** 2 / (2 * sigma * sigma))
        kernel /= kernel.sum()
        out = apply_gaussian(x, sigma)
        assert np.allclose(out[c - 3:c + 4], kernel, atol=1e-12)
        assert out[c] == out.max()
        assert np.allclose(out, out[::-1], atol=1e-12)   # symmetric
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sigma_error(self):
        with pytest.raises(ValueError):
            apply_gaussian([1.0, 2.0], sigma=0.0)


class TestElp:
    def test_alpha_one_is_identity(self, rng):
        x = rng.normal(0, 1, 8)
        assert np.array_equal(apply_elp(x, 1.0), x)

    def test_constant_fixed_point(self):
        assert np.allclose(apply_elp([4.0] * 6, 0.3), 4.0, atol=1e-12)

    def test_one_step_recursion(self):
        assert np.allclose(apply_elp([0.0, 1.0], 0.5), [0.0, 0.5])

    def test_alpha_range(self):
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                apply_elp([1.0], bad)


class TestSharedProperties:
    def test_constant_preservation_all_filters(self, rng):
        for trial in range(20):
            c = float(rng.normal(0, 5))
            series = np.full(int(rng.integers(3, 12)), c)
            assert np.allclose(apply_gaussian(series, 0.8), c, atol=1e-12)
            assert np.allclose(apply_elp(series, 0.4), c, atol=1e-12)
            # Kalman with q=0 converges toward the constant
            out = apply_kalman(series, 0.0, 1.0, init_mean=c + 3.0, init_var=100.0)
            errs = np.abs(out - c)
            assert np.all(np.diff(errs) <= 1e-12)

    def test_shift_equivariance(self, rng):
        for trial in range(20):
            x = rng.normal(0, 1, 10)
            c = float(rng.normal(0, 4))
            assert np.allclose(apply_gaussian(x + c, 1.1),
                               apply_gaussian(x, 1.1) + c, atol=1e-9)
            assert np.allclose(apply_elp(x + c, 0.35),
                               apply_elp(x, 0.35) + c, atol=1e-9)
            base = apply_kalman(x, 0.1, 0.7, init_mean=0.0, init_var=2.0)
            shifted = apply_kalman(x + c, 0.1, 0.7, init_mean=c, init_var=2.0)
            assert np.allclose(shifted, base + c, atol=1e-9)


class TestSelector:
    def test_zero_model_uniform_weights(self):
        model = SelectorModel.zeros()
        choice = select_filter(model, FilterContext())
        assert np.allclose(choice.weights, 1.0 / 3.0, atol=1e-12)

    def test_random_outputs_always_legal(self, rng):
        cfg = FilterConfig()
        for trial in range(30):
            model = SelectorModel.from_seed(trial)
            ctx = FilterContext(rssi_variance=float(rng.uniform(0, 50)),
                                scan_age=float(rng.uniform(0, 10)),
                                step_rate=float(rng.uniform(0, 3)),
                                presence=tuple(rng.random(5) > 0.5))
            choice = select_filter(model, ctx)   # FilterChoice validates itself
            assert abs(choice.weights.sum() - 1.0) < 1e-9
            assert cfg.q_range[0] <= choice.q <= cfg.q_range[1]
            assert cfg.r_range[0] <= choice.r <= cfg.r_range[1]
            assert cfg.sigma_range[0] <= choice.sigma <= cfg.sigma_range[1]
            assert cfg.alpha_range[0] <= choice.alpha <= cfg.alpha_range[1]

    def test_deterministic(self):
        model = SelectorModel.from_seed(5)
        ctx = FilterContext(1.0, 2.0, 1.5, (True,) * 5)
        a = select_filter(model, ctx)
        b = select_filter(model, ctx)
        assert np.array_equal(a.weights, b.weights)
        assert (a.q, a.r, a.sigma, a.alpha) == (b.q, b.r, b.sigma, b.alpha)

    def test_context_validation(self):
        with pytest.raises(ValueError):
            FilterContext(rssi_variance=-1.0)

    @pytest.mark.parametrize("presence", [(True,), (True,) * 7, ()])
    def test_presence_must_be_five_flags(self, presence):
        # one flag would fail inside the selector's product, seven would
        # build a 10-vector without a word
        with pytest.raises(ValueError, match="presence"):
            FilterContext(presence=presence)
        assert FilterContext(presence=tuple(np.ones(5, bool))).features().shape == (8,)

    def test_serialize_roundtrip(self):
        model = SelectorModel.from_seed(9)
        back = SelectorModel.deserialize(model.serialize())
        assert np.array_equal(back.net.to_vector(), model.net.to_vector())


class TestDenoise:
    def test_elp_identity_selected(self, rng):
        x = rng.normal(0, 1, 7)
        choice = FilterChoice(np.array([0.1, 0.1, 0.8]), 0.2, 1.0, 1.0, 1.0)
        assert np.array_equal(denoise(choice, x), x)

    def test_tie_breaks_to_kalman(self):
        choice = FilterChoice(np.array([0.5, 0.5, 0.0]), 0.2, 1.0, 1.0, 0.5)
        assert choice.hard_kind() == "kalman"
        assert FILTER_ORDER[0] == "kalman"

    def test_smoothing_reduces_residual_variance(self, rng):
        # oracle: residual variance about the least-squares line, both sides
        t = np.arange(30, dtype=float)
        ramp = 0.3 * t + rng.normal(0, 1.0, 30)
        choice = FilterChoice(np.array([0.0, 1.0, 0.0]), 0.2, 1.0, 1.0, 0.5)
        smooth = denoise(choice, ramp)

        def resid_var(y):
            coef = np.polyfit(t, ramp, 1)
            line = np.polyval(coef, t)
            return float(np.var(y - line))

        assert resid_var(smooth) <= resid_var(ramp)

    def test_weights_must_be_distribution(self):
        with pytest.raises(ValueError):
            FilterChoice(np.array([0.5, 0.2, 0.2]), 0.1, 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("field", ["weights", "q", "r", "sigma", "alpha"])
    def test_nan_is_rejected(self, field):
        # every check is written so that a NaN fails it
        args = dict(weights=np.full(3, 1.0 / 3.0), q=0.2, r=1.0, sigma=1.0, alpha=0.5)
        FilterChoice(**args)
        args[field] = np.array([np.nan, 0.5, 0.5]) if field == "weights" else float("nan")
        with pytest.raises(ValueError):
            FilterChoice(**args)

    @pytest.mark.parametrize("field", ["q", "r", "sigma"])
    def test_infinite_coefficient_is_rejected(self, field):
        args = dict(weights=np.full(3, 1.0 / 3.0), q=0.2, r=1.0, sigma=1.0, alpha=0.5)
        args[field] = 1e300
        FilterChoice(**args)
        args[field] = math.inf
        with pytest.raises(ValueError, match="coefficients"):
            FilterChoice(**args)


def scalar_filter(choice, series):
    """The hard-selected scalar filter on one series (the oracle)."""
    kind = choice.hard_kind()
    if kind == "kalman":
        return apply_kalman(series, choice.q, choice.r, init_mean=series[0],
                            init_var=1.0)
    if kind == "gaussian":
        return apply_gaussian(series, choice.sigma)
    return apply_elp(series, choice.alpha)


class TestBatchedDenoise:
    """The batched filters against the scalar ones, bit for bit."""

    @pytest.mark.parametrize("kind", FILTER_ORDER)
    def test_batch_equals_scalar_per_column(self, rng, kind):
        weights = np.eye(3)[FILTER_ORDER.index(kind)]
        for T in range(2, 13):
            # sigma up to 5 gives a kernel radius of up to 15, beyond T
            choice = FilterChoice(weights, q=float(rng.uniform(0.0, 1.0)),
                                  r=float(rng.uniform(0.01, 10.0)),
                                  sigma=float(rng.uniform(0.1, 5.0)),
                                  alpha=float(rng.uniform(0.05, 1.0)))
            B, F = int(rng.integers(1, 6)), int(rng.integers(1, 15))
            arr = rng.normal(0.0, 3.0, size=(B, T, F))
            # signed zeros, scattered and as whole series (column 0), so the
            # sign of a filtered zero is compared too
            arr[rng.random(arr.shape) < 0.2] = -0.0
            arr[..., 0] = -0.0
            out = denoise_matrix(choice, arr)
            assert out.shape == arr.shape
            for b in range(B):
                assert out[b].tobytes() == denoise_matrix(choice, arr[b]).tobytes()
                for j in range(F):
                    assert out[b, :, j].tobytes() == scalar_filter(choice, arr[b, :, j]).tobytes()

    @pytest.mark.parametrize("kind", FILTER_ORDER)
    def test_layouts_equal_scalar_per_column(self, rng, kind):
        # two leading axes, transposed (non-contiguous) views and F = 1
        choice = FilterChoice(np.eye(3)[FILTER_ORDER.index(kind)], 0.4, 1.5, 1.6, 0.3)
        cases = [rng.normal(0.0, 3.0, size=(2, 3, 7, 5)),
                 rng.normal(0.0, 3.0, size=(4, 9, 6)).transpose(0, 2, 1),
                 rng.normal(0.0, 3.0, size=(8, 11)).T,
                 rng.normal(0.0, 3.0, size=(3, 6, 1)),
                 rng.normal(0.0, 3.0, size=(5, 1))]
        assert not cases[1].flags.c_contiguous and not cases[2].flags.c_contiguous
        # a time-major stack seen through a transpose, as ``match`` passes it,
        # is filtered without a copy and comes back the same way
        time_major = rng.normal(0.0, 3.0, size=(7, 3, 5))
        for arr in cases + [time_major.transpose(1, 0, 2)]:
            out = denoise_matrix(choice, arr)
            layout = out.transpose(1, 0, 2) if arr.base is time_major else out
            assert out.shape == arr.shape and layout.flags.c_contiguous
            series = arr.reshape((-1,) + arr.shape[-2:])
            got = out.reshape(series.shape)
            for b in range(series.shape[0]):
                for j in range(series.shape[2]):
                    assert np.array_equal(got[b, :, j],
                                          scalar_filter(choice, series[b, :, j]))

    def test_gaussian_radius_beyond_window(self, rng):
        choice = FilterChoice(np.array([0.0, 1.0, 0.0]), 0.1, 1.0, 4.0, 0.5)
        arr = rng.normal(0.0, 1.0, size=(3, 2, 14))   # radius 12 > T = 2
        out = denoise_matrix(choice, arr)
        for b in range(3):
            for j in range(14):
                assert np.array_equal(out[b, :, j], apply_gaussian(arr[b, :, j], 4.0))

    def test_one_series_matches_scalar(self, rng):
        x = rng.normal(0.0, 1.0, 9)
        for kind in range(3):
            choice = FilterChoice(np.eye(3)[kind], 0.3, 2.0, 1.4, 0.4)
            assert np.array_equal(denoise(choice, x), scalar_filter(choice, x))

    def test_empty_window_rejected(self):
        choice = FilterChoice(np.array([0.0, 1.0, 0.0]), 0.1, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            denoise_matrix(choice, np.zeros((2, 0, 14)))


class TestContextFromWindows:
    def test_live_window_rule(self, rng):
        feats, pres = random_packed(rng, 7)
        feats[:, 0] = -np.abs(feats[:, 0])       # negative mean step rate
        ctx = context_from_windows(feats, pres, 2.5)
        assert ctx.rssi_variance == float(np.var([f[3] for f in feats]))
        assert ctx.step_rate == 0.0
        assert ctx.scan_age == 2.5
        assert ctx.presence == tuple(bool(b) for b in pres[-1])
        feats[:, 0] = np.abs(feats[:, 0])
        ctx = context_from_windows(feats, pres, 0.0)
        assert ctx.step_rate == float(np.mean([f[0] for f in feats]))


class TestSoftMixture:
    def test_soft_equals_hard_at_one_hot(self, rng):
        arr = rng.normal(0, 1, size=(9, 4))
        for k in range(3):
            w = np.zeros(3)
            w[k] = 1.0
            choice = FilterChoice(w, 0.2, 1.0, 0.8, 0.6)
            soft, _ = soft_denoise_matrix(choice, arr)
            assert np.allclose(soft, denoise_matrix(choice, arr), atol=1e-12)


class TestSoftMixtureOracle:
    def random_choice(self, rng):
        return FilterChoice(rng.dirichlet(np.ones(3)), float(rng.uniform(0.0, 0.5)),
                            float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.3, 4.0)),
                            float(rng.uniform(0.05, 1.0)))

    def test_outputs_and_sensitivities_equal_per_column(self, rng):
        for T in range(2, 13):
            choice = self.random_choice(rng)
            arr = rng.normal(0, 1, size=(T, 14))
            mixed, (outs, sens) = soft_denoise_matrix(choice, arr)
            want_outs, want_sens = soft_denoise_oracle(choice, arr)
            assert np.array_equal(outs, want_outs)
            assert np.array_equal(sens, want_sens)
            assert np.array_equal(mixed, np.tensordot(choice.weights, want_outs, axes=(0, 0)))

    def test_stack_equals_windows_one_at_a_time(self, rng):
        for T in (2, 5, 12):
            choice = self.random_choice(rng)
            arr = rng.normal(0, 1, size=(4, T, 14))
            mixed, (outs, sens) = soft_denoise_matrix(choice, arr)
            dout = rng.normal(0, 1, size=arr.shape)
            dw, dp = soft_denoise_backward((outs, sens), dout)
            for b in range(arr.shape[0]):
                want_outs, want_sens = soft_denoise_oracle(choice, arr[b])
                assert np.array_equal(outs[:, b], want_outs)
                assert np.array_equal(sens[:, b], want_sens)
                assert np.array_equal(mixed[b], soft_denoise_matrix(choice, arr[b])[0])
            assert np.allclose(dw, sum(soft_denoise_backward((outs[:, b], sens[:, b]), dout[b])[0]
                                       for b in range(arr.shape[0])), atol=1e-12)
            assert np.allclose(dp, sum(soft_denoise_backward((outs[:, b], sens[:, b]), dout[b])[1]
                                       for b in range(arr.shape[0])), atol=1e-12)


def make_selector_items(rng, metric, n_items=2):
    items = []
    for _ in range(n_items):
        ctx = FilterContext(rssi_variance=float(rng.uniform(0.5, 3)),
                            scan_age=float(rng.uniform(0, 3)),
                            step_rate=float(rng.uniform(0.5, 2)),
                            presence=(True,) * 5)
        pos_q = random_packed(rng, 6, all_present=True)
        pos_p = random_packed(rng, 6, all_present=True)
        negs = [random_packed(rng, 6, all_present=True)
                + random_packed(rng, 5, all_present=True) for _ in range(2)]
        items.append((ctx, pos_q + pos_p, [tuple(n) for n in negs]))
    return items


class TestTrainSelector:
    def test_empty_batch_rejected(self):
        model = SelectorModel.from_seed(0)
        with pytest.raises(ValueError):
            train_selector(model, [], lambda *a: (0.0, []))

    def test_zero_loss_leaves_model_unchanged(self, rng):
        # a loss that is already zero everywhere has zero gradient
        model = SelectorModel.from_seed(1)
        items = make_selector_items(rng, None, 1)

        def flat_loss(batch):
            return [(0.0, [(np.zeros_like(it[0]), np.zeros_like(it[2]))
                           for it in [pos_item] + list(neg_items)])
                    for pos_item, neg_items in batch]

        out = train_selector(model, items, flat_loss, epochs=3, step_size=0.5)
        assert np.allclose(out.net.to_vector(), model.net.to_vector(), atol=1e-12)

    def test_training_smoke_loss_nonincreasing(self, rng):
        metric = MetricModel.from_seed(2)
        loss_fn = make_alignment_loss(metric, margin=1.0, gamma=0.1, band=3)
        items = make_selector_items(rng, metric, 2)
        model = SelectorModel.from_seed(3)

        def batch_loss(m):
            total = 0.0
            for ctx, pos, negs in items:
                choice = select_filter(m, ctx)
                filtered = []
                for item in [pos] + list(negs):
                    fq, _ = soft_denoise_matrix(choice, item[0])
                    fp, _ = soft_denoise_matrix(choice, item[2])
                    filtered.append((fq, item[1], fp, item[3]))
                [(loss, _)] = loss_fn([(filtered[0], filtered[1:])])
                total += loss
            return total / len(items)

        losses = [batch_loss(model)]
        current = model
        for _ in range(50):
            current = train_selector(current, items, loss_fn, epochs=1,
                                     step_size=0.02)
            losses.append(batch_loss(current))
        smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
        assert smooth[-1] <= smooth[0] + 1e-9

    def test_gradient_matches_finite_difference(self, rng):
        metric = MetricModel.from_seed(4)
        loss_fn = make_alignment_loss(metric, margin=1.0, gamma=0.1, band=3)
        model = SelectorModel.from_seed(5)
        ctx = FilterContext(rssi_variance=1.5, scan_age=1.0, step_rate=1.2,
                            presence=(True,) * 5)
        # hinge must be active: the positive pair is distant while the
        # negatives are near-identical pairs
        pos_q = random_packed(rng, 6, all_present=True)
        pos_p = (pos_q[0] + rng.normal(0, 2.0, pos_q[0].shape), pos_q[1])
        negs = []
        for _ in range(2):
            nq = random_packed(rng, 6, all_present=True)
            np_p = (nq[0] + rng.normal(0, 0.05, nq[0].shape), nq[1])
            negs.append(nq + np_p)
        pos = pos_q + pos_p

        # analytic gradient through the soft mixture and the selector net
        choice, cache = selector_forward_training(model, ctx)
        filtered, mix_caches = [], []
        for item in [pos] + list(negs):
            fq, cq = soft_denoise_matrix(choice, item[0])
            fp, cp = soft_denoise_matrix(choice, item[2])
            filtered.append((fq, item[1], fp, item[3]))
            mix_caches.append((cq, cp))
        [(loss0, fgrads)] = loss_fn([(filtered[0], filtered[1:])])
        dweights, dparams = np.zeros(3), np.zeros(4)
        for (gq, gp), (cq, cp) in zip(fgrads, mix_caches):
            for grad, c in ((gq, cq), (gp, cp)):
                dw, dp = soft_denoise_backward(c, grad)
                dweights += dw
                dparams += dp
        grads = selector_backward(model, cache, dweights, dparams)
        flat = np.concatenate([grads[k].ravel() for k in ("w1", "b1", "w2", "b2")])

        def loss_at(vec):
            m = SelectorModel(model.net.from_vector(vec), model.cfg)
            choice, _ = selector_forward_training(m, ctx)
            filt = []
            for item in [pos] + list(negs):
                fq, _ = soft_denoise_matrix(choice, item[0])
                fp, _ = soft_denoise_matrix(choice, item[2])
                filt.append((fq, item[1], fp, item[3]))
            [(loss, _)] = loss_fn([(filt[0], filt[1:])])
            return loss

        vec = model.net.to_vector()
        h = 1e-4
        checked = 0
        for i in rng.choice(vec.size, size=12, replace=False):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fd = (loss_at(vp) - loss_at(vm)) / (2 * h)
            if abs(fd) < 1e-10 and abs(flat[i]) < 1e-10:
                continue
            rel = abs(flat[i] - fd) / max(1e-8, abs(flat[i]), abs(fd))
            assert rel < 1e-3, (i, flat[i], fd)
            checked += 1
        assert checked >= 3


def looped_train_selector(model, items, metric, epochs, step_size, margin=1.0,
                          gamma=0.1, band=3):
    """Gradient descent with one soft_denoise_matrix call per array and one
    margin_loss_grads call per item."""
    current = SelectorModel(model.net.copy(), model.cfg)
    for _ in range(epochs):
        acc = grads_zeros_like(current.net)
        for ctx, pos, negs in items:
            choice, sel_cache = selector_forward_training(current, ctx)
            filtered, caches = [], []
            for pair in [pos] + list(negs):
                fq, cq = soft_denoise_matrix(choice, pair[0])
                fp, cp = soft_denoise_matrix(choice, pair[2])
                filtered.append(((fq, pair[1]), (fp, pair[3])))
                caches.append((cq, cp))
            _, _, fgrads = margin_loss_grads(metric, filtered[0], filtered[1:], margin,
                                             gamma, band, want_feature_grads=True)
            dweights, dparams = np.zeros(3), np.zeros(4)
            for (gq, gp), (cq, cp) in zip(fgrads, caches):
                for grad, cache in ((gq, cq), (gp, cp)):
                    dw, dp = soft_denoise_backward(cache, grad)
                    dweights += dw
                    dparams += dp
            grads_add(acc, selector_backward(current, sel_cache, dweights, dparams))
        current = SelectorModel(current.net.step(grads_scale(acc, 1.0 / len(items)),
                                                 step_size), current.cfg)
    return current


class TestTrainSelectorBatching:
    def items(self, rng):
        """Queries of 6 windows, protos of 5.  Each positive is a near copy;
        one negative is near (active hinge) and one far (inactive), and one
        item has a far positive (every hinge active)."""
        def near(feats):
            return feats[:5] + rng.normal(0.0, 0.05, (5, 14))

        items = []
        for k, rssi_variance in enumerate((0.01, 0.4, 3.0, 40.0)):
            ctx = FilterContext(rssi_variance=rssi_variance, scan_age=0.5 * k,
                                step_rate=float(rng.uniform(0.5, 2.0)),
                                presence=(True, k != 1, True, True, True))
            q, qp = random_packed(rng, 6)
            p = near(q) + (3.0 if k == 3 else 0.0)
            nq, nqp = random_packed(rng, 6)
            fq, fqp = random_packed(rng, 6)
            items.append((ctx, (q, qp, p, qp[:5]),
                          [(nq, nqp, near(nq), nqp[:5]),
                           (fq, fqp, fq[:5] + 3.0, fqp[:5])]))
        return items

    def test_batched_epochs_equal_per_item_loop(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            items = self.items(rng)
            metric = MetricModel.from_seed(seed, noise=0.3)
            model = SelectorModel.from_seed(seed + 10)
            model.net.w2[5] *= 30.0     # sigma's raw output follows the context
            # the items' sigmas reach different Gaussian radii, and their
            # hinges are both active and inactive
            radii, active = set(), set()
            for ctx, pos, negs in items:
                choice, _ = selector_forward_training(model, ctx)
                radii.add(_gaussian_kernel(choice.sigma)[0].size)
                values = [soft_dtw(metric, (soft_denoise_matrix(choice, it[0])[0], it[1]),
                                   (soft_denoise_matrix(choice, it[2])[0], it[3]))[0]
                          for it in [pos] + negs]
                active.update(1.0 + values[0] - v > 0.0 for v in values[1:])
            assert len(radii) >= 2 and active == {True, False}
            loss_fn = make_alignment_loss(metric, margin=1.0, gamma=0.1, band=3)
            batched = train_selector(model, items, loss_fn, epochs=3, step_size=0.5)
            looped = looped_train_selector(model, items, metric, 3, 0.5)
            assert np.array_equal(batched.net.to_vector(), looped.net.to_vector())
            assert not np.array_equal(batched.net.to_vector(), model.net.to_vector())
