"""Differentiable histograms of pixel values on [-1, 1].

A classical histogram counts pixels per bin and is a step function of the
pixel values, so no gradient can flow through it.  Here each pixel instead
contributes a Gaussian bump of bandwidth ``B``, and a bin's mass is the
exact integral of that kernel-density estimate over the bin interval.  For
a Gaussian kernel the integral has a closed form as a difference of error
functions evaluated at the bin bounds, which makes the whole map from
pixels to bin masses smooth, cheap, and analytically differentiable.

With ``M`` pixels ``x_j``, ``N`` bins of width ``W = 2/N`` centered at
``mu_i`` with half-width ``D = W/2``, the raw mass of bin ``i`` is

    raw[i] = (1 / 2M) * sum_j [ erf((mu_i + D - x_j) / (sqrt(2) B))
                              - erf((mu_i - D - x_j) / (sqrt(2) B)) ]

and the returned histogram is ``raw`` renormalized to sum exactly to 1,
which also absorbs the sliver of kernel mass lying beyond the domain edges
at -1 and +1.  As ``B`` shrinks the result converges to the counting
histogram implemented by :func:`discrete_histogram`.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

# erf(8) differs from 1 by ~1e-29 and exp(-64) ~ 1.6e-28: past this point the
# kernel terms are numerically saturated and are short-circuited.
_SATURATION = 8.0

_SQRT2 = np.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


@dataclass
class HistogramSpec:
    """Bin partition of [-1, 1] plus the KDE bandwidth.

    The domain is split into ``n_bins`` equal bins.  Derived geometry
    (width, half-width, edges, centers) is computed once at construction.
    """

    n_bins: int = 256
    bandwidth: float = 0.001
    bin_width: float = field(init=False)
    half_width: float = field(init=False)
    edges: np.ndarray = field(init=False, repr=False)
    centers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.n_bins, (int, np.integer)) or self.n_bins < 1:
            raise ValueError(f"n_bins must be a positive integer, got {self.n_bins!r}")
        if not 0 < self.bandwidth < np.inf:
            raise ValueError(f"bandwidth must be finite and > 0, got {self.bandwidth!r}")
        self.n_bins = int(self.n_bins)
        self.bandwidth = float(self.bandwidth)
        self.bin_width = 2.0 / self.n_bins
        self.half_width = self.bin_width / 2.0
        self.edges = -1.0 + np.arange(self.n_bins + 1, dtype=np.float64) * self.bin_width
        self.centers = -1.0 + (np.arange(self.n_bins, dtype=np.float64) + 0.5) * self.bin_width


def _check_pixels(pixels, spec: HistogramSpec) -> np.ndarray:
    px = np.asarray(pixels, dtype=np.float64).ravel()
    if px.size < 1:
        raise ValueError("need at least one pixel value")
    if not np.all(np.isfinite(px)):
        raise ValueError("pixel values must be finite")
    lo, hi = px.min(), px.max()
    if lo < -1.0 or hi > 1.0:
        raise ValueError(f"pixel values must lie in [-1, 1], got range [{lo}, {hi}]")
    return px


def bin_index(x, spec: HistogramSpec):
    """Map values in [-1, 1] to 0-based bin indices.

    Bins are half-open ``[edge_i, edge_{i+1})``; the top edge ``x = 1``
    closes into the last bin.  Accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bin_index requires finite values")
    if arr.size and (arr.min() < -1.0 or arr.max() > 1.0):
        raise ValueError(f"value outside [-1, 1]: range [{arr.min()}, {arr.max()}]")
    idx = np.floor((arr + 1.0) * (spec.n_bins / 2.0)).astype(np.int64)
    idx = np.clip(idx, 0, spec.n_bins - 1)
    if np.isscalar(x) or np.ndim(x) == 0:
        return int(idx)
    return idx


def _erf_saturated(args: np.ndarray) -> np.ndarray:
    """erf with the tails short-circuited to +-1 beyond the saturation point."""
    out = np.sign(args)
    small = np.abs(args) < _SATURATION
    if np.any(small):
        out[small] = erf(args[small])
    return out


def _gauss_saturated(args: np.ndarray) -> np.ndarray:
    """exp(-args^2), zero beyond the saturation point."""
    out = np.zeros_like(args)
    small = np.abs(args) < _SATURATION
    if np.any(small):
        out[small] = np.exp(-np.square(args[small]))
    return out


def _edge_erf_sums(px: np.ndarray, spec: HistogramSpec) -> np.ndarray:
    """sum_j erf((edge_i - x_j) / (sqrt(2) B)) for every edge, shape (N+1,).

    Equal pixels contribute equal terms, so erf is evaluated once per
    distinct value and weighted by its count.  An MNIST image has at most
    256 distinct values among its 784 pixels, usually far fewer.  The values
    come out of ``np.unique`` sorted, so the sums do not depend on the order
    of the pixels at all, not even in the last bit.
    """
    values, counts = np.unique(px, return_counts=True)
    inv = 1.0 / (_SQRT2 * spec.bandwidth)
    return counts @ _erf_saturated((spec.edges[None, :] - values[:, None]) * inv)


def kde_histogram(pixels, spec: HistogramSpec) -> np.ndarray:
    """Smooth N-bin histogram of pixel values, normalized to sum to 1.

    ``pixels`` may have any shape; it is flattened.  Each bin's raw mass is
    the closed-form Gaussian-kernel integral over the bin (see the module
    docstring); the vector is then divided by its total.  Consecutive bins
    share edges, so only N+1 erf sums are evaluated per call, each over the
    distinct pixel values only.
    """
    px = _check_pixels(pixels, spec)
    per_edge = _edge_erf_sums(px, spec)
    raw = (per_edge[1:] - per_edge[:-1]) / (2.0 * px.size)
    total = (per_edge[-1] - per_edge[0]) / (2.0 * px.size)
    return raw / total


def kde_histogram_backward(grad_bins, pixels, spec: HistogramSpec) -> np.ndarray:
    """Gradient of ``sum_i grad_bins[i] * kde_histogram(pixels)[i]`` w.r.t. pixels.

    The raw bin masses have derivative

        d raw[i] / d x_j = c * [ exp(-((L_i - x_j)/(sqrt(2) B))^2)
                               - exp(-((R_i - x_j)/(sqrt(2) B))^2) ]

    with ``c = (1/2M) * (2/sqrt(pi)) / (sqrt(2) B)``, and the normalization
    ``bins = raw / total`` contributes the quotient-rule term.  Returned
    gradients have the same shape as ``pixels``.

    A uniform ``grad_bins`` always yields zero gradients: the output sums
    to 1 for every input, so that direction is flat by construction.
    """
    px_in = np.asarray(pixels, dtype=np.float64)
    px = _check_pixels(px_in, spec)
    g = np.asarray(grad_bins, dtype=np.float64).ravel()
    if g.size != spec.n_bins:
        raise ValueError(f"grad_bins has length {g.size}, expected {spec.n_bins}")

    m = px.size
    inv = 1.0 / (_SQRT2 * spec.bandwidth)
    c = _TWO_OVER_SQRT_PI * inv / (2.0 * m)
    args = (spec.edges[None, :] - px[:, None]) * inv
    gauss = _gauss_saturated(args)  # (M, N+1)

    per_edge = _edge_erf_sums(px, spec)
    raw = (per_edge[1:] - per_edge[:-1]) / (2.0 * m)
    total = (per_edge[-1] - per_edge[0]) / (2.0 * m)
    bins = raw / total

    # sum_i g_i * d raw_i / d x_j, folded into one matvec over the edges:
    # edge e appears in d raw_{e} (weight -g_e... ) and d raw_{e-1}; the net
    # per-edge coefficient is g_e - g_{e-1} with g_{-1} = g_N = 0.
    edge_coeff = np.zeros(spec.n_bins + 1)
    edge_coeff[:-1] = g
    edge_coeff[1:] -= g
    s = c * (gauss @ edge_coeff)

    # quotient rule: d total / d x_j only sees the two domain edges.
    dtotal = c * (gauss[:, 0] - gauss[:, -1])
    grad = s / total - (g @ bins) / total * dtotal
    return grad.reshape(px_in.shape)


def discrete_histogram(pixels, spec: HistogramSpec) -> np.ndarray:
    """Counting histogram: fraction of pixels per bin (top edge closed)."""
    px = _check_pixels(pixels, spec)
    counts = np.bincount(bin_index(px, spec), minlength=spec.n_bins)
    return counts / px.size
