"""A smooth histogram you can differentiate through.

Builds the KDE-based histogram of a toy image, compares it with the plain
counting histogram across bandwidths, and pushes a gradient back to the
pixels to show the whole map is differentiable.  Every histogram function
takes a batch of images, so the one toy image goes in as a batch of one;
the backward pass runs over the same band of bins around each pixel as
the forward pass.

Run:  python demos/01_differentiable_histogram.py
"""

import numpy as np

from histlearn.histogram import (
    HistogramSpec,
    discrete_histogram,
    kde_histogram,
    kde_histogram_backward,
)

rng = np.random.default_rng(0)

# a toy "image": a dark background plus two brightness populations
pixels = np.concatenate([
    np.full(600, -0.9),
    rng.normal(0.1, 0.05, 120).clip(-1, 1),
    rng.normal(0.7, 0.03, 64).clip(-1, 1),
])

print(f"{pixels.size} pixels in [-1, 1]\n")

print("bandwidth sweep, 16 bins: peak mass and distance to the counting histogram")
spec16 = HistogramSpec(n_bins=16, bandwidth=1.0)  # geometry only
counted = discrete_histogram(pixels[None], spec16)[0]
for bandwidth in (1e-4, 1e-3, 1e-2, 5e-2, 2e-1):
    spec = HistogramSpec(n_bins=16, bandwidth=bandwidth)
    smooth = kde_histogram(pixels[None], spec)[0]
    gap = np.abs(smooth - counted).max()
    print(f"  B={bandwidth:<7g} peak={smooth.max():.4f}  max|smooth-counted|={gap:.2e}")
print("smaller bandwidths approach the counting histogram; larger ones blur it\n")

spec = HistogramSpec(n_bins=16, bandwidth=0.05)
smooth = kde_histogram(pixels[None], spec)[0]  # a batch of one image
print("bin centers and masses at B=0.05:")
for center, mass in zip(spec.centers, smooth):
    bar = "#" * int(round(mass * 120))
    print(f"  {center:+.3f} {mass:.4f} {bar}")

# gradients: ask for more mass in the brightest bin, less in the darkest
wish = np.zeros(16)
wish[-1] = 1.0
wish[0] = -1.0
grad = kde_histogram_backward(wish[None], pixels[None], spec)[0]
print("\npixel gradients for 'more mass bright, less mass dark':")
print(f"  gradient at a dark pixel      {grad[0]:+.4f}")
print(f"  gradient at a mid pixel       {grad[650]:+.4f}")
print(f"  gradient at a bright pixel    {grad[-1]:+.4f}")
print("  (nonzero only near bin boundaries the kernel can feel, as expected)")

total = kde_histogram_backward(np.ones((1, 16)), pixels[None], spec)
print(f"\nuniform upstream gradient -> max |pixel grad| = {np.abs(total).max():.2e}")
print("the histogram always sums to 1, so that direction is exactly flat")
