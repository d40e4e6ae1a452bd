"""Layers that do arithmetic on distributions.

A length-N vector is read as the bin masses of a random variable on the
partition of [-1, 1] defined by a :class:`~histlearn.histogram.HistogramSpec`.
Given an input variable X and two learnable kernel histograms W and B, the
layer computes the distribution of ``W*X + B`` for independent variables:
a product stage followed by a sum stage.

Both stages are *mass-pairing scatters*: the joint mass ``f_W[i] * f_X[m]``
of every index pair lands in the bin containing ``centers[i] * centers[m]``
(product) or ``centers[i] + centers[m]`` (sum).  This is the exact law of
the product/sum of the two discretized variables.  It needs no 1/|w|
weighting and no interpolation, it conserves mass (sums that leave [-1, 1]
clamp into the boundary bins), and because the map is bilinear the
backward pass is its exact adjoint: finite differences agree to rounding
error, not just to discretization order.

Each stage is linear in its input, so a kernel is folded once into an
(N, N) matrix: :func:`product_matrix` gives P with ``P @ f_x`` the law of
W*X, :func:`sum_matrix` gives S with ``S @ f_x`` the law of X + B.  The
fold is one ``np.bincount`` whose cells add their terms in ascending
kernel index, so the matrices are reproducible bit for bit.  Applying them
is BLAS matrix multiplication, whose summation order is the library's.
:class:`ArithmeticDistributionLayer` is these two matrices applied to a
batch of distributions, shaped (batch, N); it takes batches only.
"""

from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .histogram import HistogramSpec, bin_index
from .nn import Parameter, _checked_grad


@lru_cache(maxsize=8)
def _index_maps(n_bins: int):
    """Scatter geometry for one bin count.

    Pair (i, m), kernel bin i against input bin m, lands in output bin
    k(i, m); ``prod_flat`` / ``sum_flat`` hold the composite indices
    ``k * N + m`` into an (N, N) matrix, pairs in row-major order.

    The sum's bin is computed in integers: ``(centers[i] + centers[m] + 1)
    * N/2`` is exactly ``i + m + 1 - N/2``, which floors to ``i + m + 1 -
    ceil(N/2)``.  Evaluated in floats it can round just below an integer
    (at even N that is not a power of two) and land a bin low.
    """
    spec = HistogramSpec(n_bins=n_bins, bandwidth=1.0)
    centers = spec.centers
    prod = bin_index(np.multiply.outer(centers, centers), spec)
    cols = np.arange(n_bins)
    sum_ = np.clip(cols[:, None] + cols[None, :] + 1 - (n_bins + 1) // 2, 0, n_bins - 1)
    return {
        "prod_flat": (prod * n_bins + cols).ravel(),
        "sum_flat": (sum_ * n_bins + cols).ravel(),
    }


def _scatter_matrix(kernel, spec: HistogramSpec, key: str, what: str) -> np.ndarray:
    """M[k, m] = sum of kernel[i] over the pairs (i, m) that land in bin k."""
    kernel = np.asarray(kernel, dtype=np.float64)
    n = spec.n_bins
    if kernel.shape != (n,):
        raise ShapeError(f"{what} has shape {kernel.shape}, expected ({n},)")
    flat_idx = _index_maps(n)[key]
    return np.bincount(flat_idx, weights=np.repeat(kernel, n), minlength=n * n).reshape(n, n)


def product_matrix(f_w, spec: HistogramSpec) -> np.ndarray:
    """The (N, N) matrix P such that ``P @ f_x`` is the law of W*X."""
    return _scatter_matrix(f_w, spec, "prod_flat", "f_w")


def sum_matrix(f_b, spec: HistogramSpec) -> np.ndarray:
    """The (N, N) matrix S such that ``S @ f_x`` is the law of X + B."""
    return _scatter_matrix(f_b, spec, "sum_flat", "f_b")


def init_kernel(spec: HistogramSpec, seed: int, noise_scale: float = 0.01):
    """Near-identity kernels ``(weight_hist, bias_hist)``: W a delta at the
    bin of 1 - D, B a delta at 0.

    Uniform noise of amplitude ``noise_scale`` is added entrywise (weight
    noise drawn before bias noise), so the module starts as a slightly
    perturbed identity map.  Deterministic per seed.
    """
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")
    rng = np.random.default_rng(seed)
    n = spec.n_bins
    weight = np.zeros(n)
    weight[bin_index(1.0 - spec.half_width, spec)] = 1.0
    weight += rng.uniform(-noise_scale, noise_scale, size=n)
    bias = np.zeros(n)
    bias[bin_index(0.0, spec)] = 1.0
    bias += rng.uniform(-noise_scale, noise_scale, size=n)
    return weight, bias


class ArithmeticDistributionLayer:
    """Batched W*X + B distribution layer over learnable kernel histograms.

    ``weight_hist`` and ``bias_hist`` are the (N,) kernels of W and B, for
    example from :func:`init_kernel`.  Their entries are unconstrained
    reals: nothing forces nonnegativity or unit mass during training.

    The forward pass folds the current kernels into :func:`product_matrix`
    and :func:`sum_matrix` and applies both to the batch; the backward pass
    is their exact adjoint, plain matmuls plus one gather per kernel, and
    writes both kernel gradients.

    A kernel is folded once per value, not once per batch: the layer keeps
    a copy of each kernel it last folded and refolds only when the current
    value differs (``np.array_equal``), so evaluation folds once for all
    its chunks, while a training step, whose Adam update edits the kernels
    in place, refolds both.  Values that compare equal fold to the same
    bits: they can differ only in the sign of a zero, and a zero weight
    adds nothing to a cell of the fold.
    """

    def __init__(self, spec: HistogramSpec, weight_hist, bias_hist, name="arith"):
        self.spec = spec
        self.weight_hist = Parameter(weight_hist, name=f"{name}.weight_hist")
        self.bias_hist = Parameter(bias_hist, name=f"{name}.bias_hist")
        w, b = self.weight_hist.value, self.bias_hist.value
        if w.shape != (spec.n_bins,) or b.shape != (spec.n_bins,):
            raise ShapeError(
                f"kernel histograms have shapes {w.shape} and {b.shape}, expected ({spec.n_bins},) each"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("kernel histograms must be finite")
        self._folded_w = self._folded_b = None  # the kernel values _mw and _mb fold
        self._fx = None

    def params(self):
        return [self.weight_hist, self.bias_hist]

    def forward(self, f_x):
        x = np.asarray(f_x, dtype=np.float64)
        n = self.spec.n_bins
        if x.ndim != 2 or x.shape[1] != n:
            raise ShapeError(f"expected histograms of shape (batch, {n}), got {x.shape}")
        w, b = self.weight_hist.value, self.bias_hist.value
        if not np.array_equal(w, self._folded_w):
            self._mw = product_matrix(w, self.spec)
            self._folded_w = w.copy()
        if not np.array_equal(b, self._folded_b):
            self._mb = sum_matrix(b, self.spec)
            self._folded_b = b.copy()
        self._fx = x
        self._fy = x @ self._mw.T
        return self._fy @ self._mb.T

    def backward(self, grad, input_grad=True):
        g = _checked_grad("arith", grad, None if self._fx is None else self._fx.shape)
        n = self.spec.n_bins
        maps = _index_maps(n)
        # d loss / d bias[i] = sum_{batch, m} g[., k(i,m)] * f_y[., m]
        corr_b = g.T @ self._fy
        np.sum(corr_b.ravel()[maps["sum_flat"]].reshape(n, n), axis=1, out=self.bias_hist.grad)
        g_y = g @ self._mb
        corr_w = g_y.T @ self._fx
        np.sum(corr_w.ravel()[maps["prod_flat"]].reshape(n, n), axis=1, out=self.weight_hist.grad)
        return g_y @ self._mw if input_grad else None
