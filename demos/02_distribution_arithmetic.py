"""Arithmetic on distributions: the law of W*X + B as a layer.

Treats length-N vectors as histograms of random variables.  Each stage of
the layer is a kernel folded into an (N, N) scatter matrix: applying it to
f_X gives the law of W*X or of X + W.  Both stages run against a
Monte-Carlo simulation of the same arithmetic, then the layer shows its
learnable near-identity initialization.

Run:  python demos/02_distribution_arithmetic.py
"""

import numpy as np

from histlearn.distlayers import (
    ArithmeticDistributionLayer,
    init_kernel,
    product_matrix,
    sum_matrix,
)
from histlearn.histogram import HistogramSpec, bin_index

rng = np.random.default_rng(1)
N = 16
spec = HistogramSpec(n_bins=N, bandwidth=0.05)

# X concentrated mid-left, W concentrated near +0.8
f_x = np.exp(-0.5 * ((spec.centers + 0.3) / 0.15) ** 2)
f_x /= f_x.sum()
f_w = np.exp(-0.5 * ((spec.centers - 0.8) / 0.1) ** 2)
f_w /= f_w.sum()

f_prod = product_matrix(f_w, spec) @ f_x
f_sum = sum_matrix(f_w, spec) @ f_x

draws = 500_000
xs = spec.centers[rng.choice(N, draws, p=f_x)]
ws = spec.centers[rng.choice(N, draws, p=f_w)]
mc_prod = np.bincount(bin_index(xs * ws, spec), minlength=N) / draws
mc_sum = np.bincount(
    np.clip(np.floor((xs + ws + 1.0) * (N / 2)).astype(int), 0, N - 1), minlength=N
) / draws

print(f"{draws} Monte-Carlo draws vs the exact scatter (N={N})")
print(f"  product layer total-variation distance: {0.5 * np.abs(mc_prod - f_prod).sum():.4f}")
print(f"  sum layer     total-variation distance: {0.5 * np.abs(mc_sum - f_sum).sum():.4f}\n")

print("center   f_X      W*X      X+W")
for i in range(N):
    print(f"  {spec.centers[i]:+.3f}  {f_x[i]:.4f}  {f_prod[i]:.4f}  {f_sum[i]:.4f}")

print("\nmass is conserved up to rounding:")
print(f"  sum(f_prod) = {f_prod.sum():.15f}")
print(f"  sum(f_sum)  = {f_sum.sum():.15f}")

# the trainable module starts as a near-identity map: W a delta by 1,
# B a delta at 0 (exact identity when a bin is centered at zero)
spec_odd = HistogramSpec(n_bins=15, bandwidth=0.05)
f = np.exp(-0.5 * ((spec_odd.centers - 0.2) / 0.2) ** 2)
f /= f.sum()
f_w0, f_b0 = init_kernel(spec_odd, seed=0, noise_scale=0.0)
out = ArithmeticDistributionLayer(spec_odd, f_w0, f_b0).forward(f[None])[0]  # a batch of one
print(f"\nnoise-free init on 15 bins: max |module(f) - f| = {np.abs(out - f).max():.1e}")
print("training nudges the two kernel histograms away from this identity")
