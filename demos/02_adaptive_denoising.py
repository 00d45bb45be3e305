"""The denoising bank and its context-driven selector.

Shows the three filters on a noisy RSSI ramp, how the selector maps window
context to a filter distribution plus coefficients, and that the training
mixture agrees with hard selection when the distribution is peaked.
"""

import numpy as np

from envswitch.filters import (FilterChoice, FilterContext, SelectorModel,
                               apply_elp, apply_gaussian, apply_kalman,
                               denoise_matrix, select_filter, soft_denoise_matrix)

rng = np.random.default_rng(3)

# a decaying RSSI ramp with shadowing-like noise
t = np.arange(20.0)
clean = -55.0 - 0.9 * t
noisy = clean + rng.normal(0, 2.0, t.size)

kalman = apply_kalman(noisy, q=0.05, r=4.0, init_mean=noisy[0], init_var=4.0)
gauss = apply_gaussian(noisy, sigma=1.5)
elp = apply_elp(noisy, alpha=0.35)

print("residual RMS against the clean ramp:")
print(f"  raw       {np.sqrt(np.mean((noisy - clean) ** 2)):5.2f} dB")
print(f"  kalman    {np.sqrt(np.mean((kalman - clean) ** 2)):5.2f} dB")
print(f"  gaussian  {np.sqrt(np.mean((gauss - clean) ** 2)):5.2f} dB")
print(f"  elp       {np.sqrt(np.mean((elp - clean) ** 2)):5.2f} dB")

# the selector maps window context to a choice; high variance and fresh scans
# versus calm, stale windows produce different coefficients
selector = SelectorModel.from_seed(11)
for label, ctx in [
    ("noisy window, fresh scans", FilterContext(rssi_variance=9.0, scan_age=0.0,
                                                step_rate=1.7, presence=(True,) * 5)),
    ("calm window, stale scans", FilterContext(rssi_variance=0.5, scan_age=4.0,
                                               step_rate=0.2, presence=(True,) * 5)),
]:
    choice = select_filter(selector, ctx)
    print(f"\n{label}:")
    print(f"  weights (kalman, gaussian, elp) = {np.round(choice.weights, 3)}")
    print(f"  q={choice.q:.3f} r={choice.r:.3f} sigma={choice.sigma:.3f} "
          f"alpha={choice.alpha:.3f}  -> hard pick: {choice.hard_kind()}")

# hard selection vs the differentiable mixture used during training
one_hot = FilterChoice(np.array([0.0, 1.0, 0.0]), 0.1, 1.0, 1.2, 0.5)
hard = denoise_matrix(one_hot, noisy[:, None])[:, 0]
soft, _ = soft_denoise_matrix(one_hot, noisy[:, None])
print(f"\none-hot mixture equals hard selection: "
      f"{np.allclose(soft[:, 0], hard, atol=1e-12)}")
