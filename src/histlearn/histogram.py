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

Evaluation (:func:`kde_histogram`, one batch of images at a time).  Equal
pixels add equal terms, so each image is reduced to its distinct values and
their counts, in ascending order, in one of two ways chosen from the input.
A group of rows whose every pixel is a byte's value (``data.normalize`` of
0..255: training images, and eval's originals and translations) counts its
byte codes in one ``np.bincount`` (:func:`byte_counts`) and reads each
value's erf differences from a table of all 256 bytes, computed once per
bin count and bandwidth.  Such a row's histogram depends on its byte
counts alone, so ``models.evaluate`` reuses an original's row for a
flipped, shuffled or translated copy with the same counts.  Any other
group (rotated images, arbitrary values) sorts each row and run-length
encodes it.  The two give the same
values, counts and terms in the same order, hence the same bits; an MNIST
image has at most 256 distinct values.
Every erf term saturates: erf itself rounds to exactly +-1.0 from
``|edge - x| / (sqrt(2) B)`` of about 5.92 on, below ``_SATURATION`` = 8.
A bin whose two edges are both past ``_SATURATION`` on the same side of
``x`` therefore gets exactly 0 from ``x``, and only a band of bins
around the value's own bin can get more: ``2R + 1`` bins with
``R = ceil(8 sqrt(2) B / W)``, which is 2 at 256 bins and B = 0.001 and
covers every bin at wide bandwidths.  Each distinct value adds
``count * (erf(right) - erf(left))`` to the bins of its band, a group of
whole rows in one ``np.bincount`` keyed by ``row * N + bin``, and each row
is then divided by its sum.  A bin receives its terms in ascending value
order, so a row is bitwise the same whatever the order of its pixels and
whatever the other rows of the batch.

Summing each bin's terms directly, rather than summing erf over all
pixels at every edge and differencing neighbouring edges (the earlier
evaluation), avoids cancelling two large sums.  Against an exact rational
sum of the same erf values the band is within 2.2e-16 and the per-edge
differences were within 1.6e-15 (rotated digits at 256 bins and
B = 0.001, 16 bins and B = 0.05, 8 bins and B = 0.5).  The two agree to
4.4e-16 at 256 bins and B = 0.001, and to 2.7e-15 at the wide bandwidths.

Gradient (:func:`kde_histogram_backward`, the same batches).  The raw mass
of bin ``i`` has pixel derivative ``c * [G(e_i - x) - G(e_{i+1} - x)]`` with
``G(u) = exp(-(u / (sqrt(2) B))^2)`` and ``c = (2/sqrt(pi)) / (sqrt(2) B 2M)``,
so an upstream gradient ``g`` reaches pixel ``x`` as ``c * sum_e G(e - x)
(g_e - g_{e-1})`` with ``g_{-1} = g_N = 0``.  The renormalization by the
total adds the quotient-rule term ``-(g . bins) * d total / total``, and
``total`` only moves with the two domain edges.  Subtracting a constant
from ``g`` changes exactly those two edge coefficients, so the whole rule
is one centring step per row, ``h = g - (g . bins)``, and the gradient is
``c * sum_e G(e - x) (h_e - h_{e-1}) / total``.  ``G`` is exactly 0 where
the erf is saturated, so the sum runs over the pixel's band of edges from
the forward pass, again in bounded groups of whole rows.  Equal pixels of a
row get equal gradients, so the sum is evaluated once per distinct value of
each row, as in the forward pass, and gathered back to the pixels through
the sort's order; each pixel gets the bits its own evaluation would give.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .data import normalize
from .errors import ShapeError

# erf is exactly +-1.0 past ~5.92 and exp(-64) ~ 1.6e-28: past this point the
# kernel terms are saturated, and the Gaussian is short-circuited to 0.
_SATURATION = 8.0

# band edges (distinct values x band width) a histogram evaluates per group
# of rows: about 8 MB per temporary array
_BAND_TERMS = 1 << 20

# Python floats, so a huge bandwidth's reach overflows to inf without a warning
_SQRT2 = math.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


@dataclass
class HistogramSpec:
    """Bin partition of [-1, 1] plus the KDE bandwidth.

    The domain is split into ``n_bins`` equal bins, at most ``MAX_BINS``.
    Derived geometry (width, half-width, edges, centers) is computed once
    at construction.
    """

    # The distribution layer holds (N, N) scatter maps and matrices, 8 MB
    # each at this bound; a config or checkpoint asking for more is refused
    # here, before anything of that size is allocated.
    MAX_BINS = 1024
    # Past this the kernel terms at MAX_BINS, about 1.13 * W / (sqrt(2) B),
    # near the subnormal range (1e-303 here), and sqrt(2) B overflows at
    # about 1.3e308; the histogram is uniform to rounding long before.
    MAX_BANDWIDTH = 1e300
    # Below about 3.9e-309, 1 / (sqrt(2) B) overflows to inf and a pixel on a
    # bin edge (the background at -1.0 sits on the first) gets 0 * inf = NaN;
    # just above it the backward pass overflows.  At this bound both passes
    # are finite, with no warning, at 1 to MAX_BINS bins.
    MIN_BANDWIDTH = 1e-300

    n_bins: int = 256
    bandwidth: float = 0.001
    bin_width: float = field(init=False)
    half_width: float = field(init=False)
    edges: np.ndarray = field(init=False, repr=False)
    centers: np.ndarray = field(init=False, repr=False)

    @classmethod
    def check(cls, name, value):
        """``value`` as a plain ``int`` (``n_bins``) or ``float``
        (``bandwidth``) if it is a valid field ``name``, else ``ValueError``;
        the command line checks each option this way.  ``n_bins`` is an
        integer and ``bandwidth`` a real number, and neither a ``bool``.
        Any other ``name`` passes ``value`` through."""
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if name == "n_bins":
            if not (number and isinstance(value, numbers.Integral) and 1 <= value <= cls.MAX_BINS):
                raise ValueError(f"n_bins must be an integer in [1, {cls.MAX_BINS}], got {value!r}")
            return int(value)
        if name == "bandwidth":
            if not (number and cls.MIN_BANDWIDTH <= value <= cls.MAX_BANDWIDTH):
                raise ValueError(
                    f"bandwidth must be in [{cls.MIN_BANDWIDTH:g}, {cls.MAX_BANDWIDTH:g}], got {value!r}"
                )
            return float(value)
        return value

    def __post_init__(self):
        self.n_bins = self.check("n_bins", self.n_bins)
        self.bandwidth = self.check("bandwidth", self.bandwidth)
        self.bin_width = 2.0 / self.n_bins
        self.half_width = self.bin_width / 2.0
        self.edges = -1.0 + np.arange(self.n_bins + 1, dtype=np.float64) * self.bin_width
        self.centers = -1.0 + (np.arange(self.n_bins, dtype=np.float64) + 0.5) * self.bin_width


def _check_rows(images) -> np.ndarray:
    """A batch ``(B, ...)`` as checked rows ``(B, M)``, one image per row.

    A bad row raises exactly what it would raise as a lone image: the range
    in the message is that row's, not the batch's.
    """
    px = np.asarray(images, dtype=np.float64)
    if px.ndim < 2:
        raise ShapeError(f"expected a batch of images (batch, ...), got shape {px.shape}")
    rows = px.reshape(px.shape[0], int(np.prod(px.shape[1:])))
    if rows.shape[1] < 1:
        raise ValueError("need at least one pixel value")
    if not np.all(np.isfinite(rows)):
        raise ValueError("pixel values must be finite")
    if rows.size and (rows.min() < -1.0 or rows.max() > 1.0):
        lo, hi = rows.min(axis=1), rows.max(axis=1)
        r = np.flatnonzero((lo < -1.0) | (hi > 1.0))[0]
        raise ValueError(f"pixel values must lie in [-1, 1], got range [{lo[r]}, {hi[r]}]")
    return rows


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


def _gauss_saturated(args: np.ndarray) -> np.ndarray:
    """exp(-args^2), zero beyond the saturation point."""
    out = np.zeros_like(args)
    small = np.abs(args) < _SATURATION
    if np.any(small):
        out[small] = np.exp(-np.square(args[small]))
    return out


def _band_radius(spec: HistogramSpec) -> int:
    """Bins R on each side of a value's own bin in the value's band.

    Only edges closer to a value than the reach ``r = _SATURATION * sqrt(2) * B``
    have an erf other than exactly +-1.  With ``R = ceil(r / W)`` every such
    edge of a value in bin k lies in ``e_{k-R} .. e_{k+R+1}``, the edges of
    the band: an edge outside it is at least ``(R + 1) * W`` from a value in
    ``[e_k, e_{k+1})``, and still at least ``R * W >= r`` from a value whose
    bin index rounded to a neighbour.  (erf itself already rounds to exactly
    +-1.0 near argument 5.9, below the cut-off.)  The bitwise test against
    the same scatter over all bins checks this, including a bandwidth whose
    reach is a whole number of bins.  R = 2 at 256 bins and B = 0.001.
    """
    # clamped in float, before any int conversion: a band never needs more
    # than every bin, and a huge bandwidth's reach would overflow int64
    return math.ceil(min(_SATURATION * _SQRT2 * spec.bandwidth / spec.bin_width, spec.n_bins))


def _band_width(spec: HistogramSpec) -> int:
    """Bins in a band: ``2R + 1``, or every bin when that is fewer."""
    return min(2 * _band_radius(spec) + 1, spec.n_bins)


def _band(values: np.ndarray, spec: HistogramSpec):
    """``(lo, edges)``: each value's leftmost band bin, and the indices
    ``lo .. lo + width`` of its band's edges along a new last axis.

    The band is slid inward at the domain ends so it stays in range.
    """
    n = spec.n_bins
    width = _band_width(spec)
    lo = np.floor((values + 1.0) * (n / 2.0)).astype(np.int64) - _band_radius(spec)
    lo = np.clip(lo, 0, n - width)
    return lo, lo[..., None] + np.arange(width + 1)


def _row_groups(rows: np.ndarray, spec: HistogramSpec):
    """Slices of whole rows, each at most ``_BAND_TERMS`` band edges at one
    edge set per pixel, so memory stays bounded for any batch size and
    bandwidth; a group holds whole rows, so grouping changes no bit."""
    b, m = rows.shape
    step = max(1, _BAND_TERMS // (m * (_band_width(spec) + 1)))
    return [slice(lo, lo + step) for lo in range(0, b, step)]


def _runs(srt: np.ndarray):
    """``(first, starts, values)`` of rows sorted along axis 1: whether each
    entry starts a run of equal values, the flat index of each run's start,
    and its value; runs never span two rows."""
    first = np.ones(srt.shape, dtype=bool)
    first[:, 1:] = srt[:, 1:] != srt[:, :-1]
    starts = np.flatnonzero(first)
    return first, starts, srt.ravel()[starts]


def _band_terms(values: np.ndarray, spec: HistogramSpec):
    """``(lo, diffs)``: each value's leftmost band bin, and its
    ``erf(right) - erf(left)`` for each bin of its band."""
    from scipy.special import erf  # local: only dadm's histograms load scipy
    lo, edges = _band(values, spec)
    erfs = erf((spec.edges[edges] - values[:, None]) * (1.0 / (_SQRT2 * spec.bandwidth)))
    return lo, erfs[:, 1:] - erfs[:, :-1]


# the pixel value of every byte, as data.normalize maps it
_BYTE_VALUES = normalize(np.arange(256))


@lru_cache(maxsize=8)
def _byte_terms(n_bins: int, bandwidth: float):
    """:func:`_band_terms` of every byte's pixel value, one row per byte."""
    return _band_terms(_BYTE_VALUES, HistogramSpec(n_bins, bandwidth))


def _byte_codes(rows: np.ndarray):
    """Each pixel's byte when every pixel of ``rows`` is a byte's pixel
    value, else ``None``.  The first row is tried alone before the rest, so
    a group of rotated rows costs about one row's check."""
    for part in (rows[:1], rows):
        codes = part + 1.0
        codes *= 127.5
        np.rint(codes, out=codes)
        if not np.array_equal(normalize(codes), part):
            return None
    return codes.astype(np.intp)


def byte_counts(codes) -> np.ndarray:
    """Each row's count of every byte, shaped (B, 256), from a batch
    ``(B, ...)`` of byte codes 0..255 (uint8 images, or the codes of
    byte-valued pixels): one ``np.bincount`` keyed by ``row * 256 + byte``.

    A byte-valued row's histogram is a function of this row of counts
    alone, so two images with equal counts have bitwise equal histograms.
    """
    b = codes.shape[0]
    keys = codes.reshape(b, -1) + 256 * np.arange(b)[:, None]
    return np.bincount(keys.ravel(), minlength=256 * b).reshape(b, 256)


def _banded_masses(rows: np.ndarray, spec: HistogramSpec) -> np.ndarray:
    """Unnormalized bin masses ``2M * raw`` of checked rows, shaped (B, N).

    Each row's distinct values are found in ascending order with their
    counts: from one ``np.bincount`` of byte codes when every pixel of the
    rows is a byte's value, taking each value's erf differences from a
    per-spec table, and by sorting and run-length encoding each row
    otherwise.  The two give the same values, counts and terms in the same
    order.  Each distinct value adds ``count * (erf(right) - erf(left))`` to
    the bins of its band, all rows in one ``np.bincount`` keyed by
    ``row * N + bin``.  A cell receives its terms in ascending value order,
    so it does not depend on the order of the pixels or on the other rows.
    """
    b, m = rows.shape
    n = spec.n_bins
    codes = _byte_codes(rows)
    if codes is not None:
        per_row = byte_counts(codes).ravel()
        present = np.flatnonzero(per_row)
        counts, row = per_row[present], present // 256
        lo, diffs = (table[present % 256] for table in _byte_terms(n, spec.bandwidth))
    else:
        srt = np.sort(rows, axis=1)
        _, starts, values = _runs(srt)
        counts, row = np.diff(starts, append=srt.size), starts // m
        lo, diffs = _band_terms(values, spec)
    terms = counts[:, None] * diffs
    keys = (row * n + lo)[:, None] + np.arange(terms.shape[1])
    return np.bincount(keys.ravel(), weights=terms.ravel(), minlength=b * n).reshape(b, n)


def _kde_rows(rows: np.ndarray, spec: HistogramSpec):
    """``(histograms, raw totals)`` of checked (B, M) rows, in row groups."""
    masses = np.empty((rows.shape[0], spec.n_bins))
    for group in _row_groups(rows, spec):
        masses[group] = _banded_masses(rows[group], spec)
    sums = masses.sum(axis=1)
    return masses / sums[:, None], sums / (2.0 * rows.shape[1])


def kde_histogram(images, spec: HistogramSpec) -> np.ndarray:
    """Smooth N-bin histograms of a batch of images, shaped (B, N).

    ``images`` is ``(B, ...)``; each row is flattened into one image's
    pixels, so one image is a batch of one (``images[None]``).  Row ``i``
    is the closed-form Gaussian-kernel integral over each bin (see the
    module docstring) of image ``i``, normalized to sum to 1, and is
    bitwise the same whatever the other rows of the batch and whatever the
    order of the image's pixels.
    """
    return _kde_rows(_check_rows(images), spec)[0]


def kde_histogram_backward(grad_bins, images, spec: HistogramSpec) -> np.ndarray:
    """Gradient of ``sum(grad_bins * kde_histogram(images))`` w.r.t. the
    pixels, shaped like ``images``.

    ``images`` is ``(B, ...)`` as for :func:`kde_histogram` and
    ``grad_bins`` is ``(B, N)``, one upstream gradient per row.  Each row
    is centred, ``h = g - (g . bins)``, and each pixel gets
    ``c * sum_e G(e - x) (h_e - h_{e-1}) / total`` over the edges of its
    band (see the module docstring).  A row's result does not depend on the
    other rows of the batch.

    A uniform ``grad_bins`` row always yields zero gradients: the output
    sums to 1 for every input, so that direction is flat by construction.
    """
    rows = _check_rows(images)
    b, m = rows.shape
    n = spec.n_bins
    g = np.asarray(grad_bins, dtype=np.float64)
    if g.shape != (b, n):
        raise ShapeError(f"grad_bins has shape {g.shape}, expected {(b, n)}")
    bins, totals = _kde_rows(rows, spec)
    h = g - (g * bins).sum(axis=1, keepdims=True)
    # edge e is the left bound of bin e and the right bound of bin e - 1
    coeff = np.diff(h, axis=1, prepend=0.0, append=0.0)
    inv = 1.0 / (_SQRT2 * spec.bandwidth)
    c = _TWO_OVER_SQRT_PI * inv / (2.0 * m)
    out = np.empty_like(rows)
    for group in _row_groups(rows, spec):
        px = rows[group]
        order = np.argsort(px, axis=1)
        srt = np.take_along_axis(px, order, axis=1)
        first, starts, values = _runs(srt)
        row = starts // m + group.start
        _, edges = _band(values, spec)
        gauss = _gauss_saturated((spec.edges[edges] - values[:, None]) * inv)
        per_value = c * (gauss * coeff[row[:, None], edges]).sum(axis=1) / totals[row]
        # each sorted pixel takes its run's value, put back in pixel order
        run = np.cumsum(first.ravel()).reshape(srt.shape) - 1
        np.put_along_axis(out[group], order, per_value[run], axis=1)
    return out.reshape(np.shape(images))


def discrete_histogram(images, spec: HistogramSpec) -> np.ndarray:
    """Counting histograms of a batch ``(B, ...)``, shaped (B, N): each
    row's fraction of pixels per bin (top edge closed)."""
    rows = _check_rows(images)
    b, m = rows.shape
    keys = np.arange(b)[:, None] * spec.n_bins + bin_index(rows, spec)
    return np.bincount(keys.ravel(), minlength=b * spec.n_bins).reshape(b, spec.n_bins) / m
