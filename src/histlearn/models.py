"""The four benchmark architectures, training, and evaluation.

Architectures (final layer emits 10 logits; the log-softmax + NLL loss is
fused into :func:`histlearn.nn.log_softmax_nll`):

lenet  Conv(1->6, 5x5) / MaxPool / ReLU / Conv(6->16, 5x5) / MaxPool / ReLU
       / Linear(256->120) / ReLU / Linear(120->84) / ReLU / Linear(84->10)
base   Linear(784->256) / ReLU / Linear(256->512) / ReLU / Linear(512->10)
cnn    Conv(1->4, 3x3) / ReLU / Linear(2704->256) / ReLU / Linear(256->512)
       / ReLU / Linear(512->10)
dadm   per-image KDE histogram (256 bins) -> distribution-arithmetic layer
       (two learnable 256-kernels) / ReLU / Linear(256->512) / ReLU
       / Linear(512->10)

A ``Linear`` reads its ``(batch, C, H, W)`` input as one row per sample.
lenet's ReLUs follow its pools, where they see a quarter of the values:
ReLU is monotone, so it commutes with the max, and a window whose max is not
positive passes no gradient either way, so the logits and gradients are
bitwise those of the usual ReLU-then-pool order.

An image set is held as its bytes (see
:class:`~histlearn.data.ImageSet`), and only the rows a step or chunk reads
are normalized to float pixels.  dadm's first layer, its histogram, has
nothing to learn, so :func:`_histograms` builds its output from bytes
``EVAL_BATCH`` images at a time into one array, which :func:`train` does
once over the fixed training set and :func:`evaluate` once per block and
kind; every step and every block then runs from the trained layers on.
lenet, base and cnn normalize each batch as its step reads it.

:func:`evaluate` runs the test set in blocks.  lenet, base and cnn take
blocks of ``EVAL_BATCH`` images, each normalized once, and run one forward
pass per block and kind.  dadm takes blocks of ``PREFIX_CHUNK`` images,
held as bytes, and runs its trained layers once over each block's
histograms.  The originals and rotate histogram every row.  Translate,
flip and shuffle only move pixels, so they move the bytes, and a row whose
byte counts equal its original's takes its original's histogram row, which
is bitwise the one the layer would compute; only the other rows (a
translation that pushed strokes out of the frame) are normalized and
histogrammed.  A kind with no such row (every flip and shuffle) takes the
originals' predictions for the block.  The forward pass is the one
training runs; it leaves the backward's masks unbuilt, and dadm's
distribution layer folds its kernels once for all blocks, as they do not
change between them.  A parameter allocates its gradient array at the
first backward, so a model loaded to be evaluated holds none: what an
evaluation holds beyond the parameters is one block of bytes or float
pixels, its histograms, the layers' outputs for it, and a sub-chunk's
transform temporaries.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from .data import ImageSet, normalize
from .distlayers import ArithmeticDistributionLayer, init_kernel
from .errors import NonFiniteError, ShapeError
from .histogram import HistogramSpec, byte_counts, kde_histogram, kde_histogram_backward
from .nn import Adam, Conv2d, Linear, MaxPool2d, ReLU, _checked_grad, check_lr, log_softmax_nll
from .transforms import TRANSFORM_KINDS, _check_seed, stream_states, transform_batch

ARCHITECTURES = ("lenet", "base", "cnn", "dadm")

# Images per chunk that evaluate transforms and that dadm's histogram layer
# reads, in train and in evaluate; lenet, base and cnn also run their layers
# on one such chunk at a time.  Small enough that a chunk's transform
# temporaries and layer outputs stay near cache (lenet's conv1 output is
# 0.9 MB at 32 images, 7.1 MB at 256; its im2col is built in blocks of
# nn.IM2COL_BYTES at any size).  perfbench eval-battery, 25 s runs, 4 rounds in rotating order at seeds 811-814,
# median ref_img_per_s (range) and peak_rss_mb: 32 -> 13114 (12964-13394),
# 78 MB; 64 -> 11756 (11565-11804), 80 MB; 128 -> 11474 (11212-11644),
# 90 MB (1 BLAS thread, 2-vCPU Xeon VM with 2 MiB L2 per core).  32 is
# fastest in every round and holds least.
EVAL_BATCH = 32

# Images per block over which evaluate runs dadm's trained layers once per
# kind.  Measured with a loaded dadm checkpoint on 1024 perfbench images,
# chunk size -> normalize plus kde_histogram of the training set in chunks
# of that size (median of 7, two runs), dadm evaluate of the test set under
# five kinds (median of 15 rounds over the sizes in turn, two runs) and
# evaluate's traced numpy peak:
#   32 -> 16.0/15.1 ms, 240/238 ms, 3.0 MiB
#   64 -> 17.4/17.1 ms, 217/219 ms, 3.7 MiB
#  128 -> 15.6/15.4 ms, 204/208 ms, 4.9 MiB
#  256 -> 17.6/17.1 ms, 195/200 ms, 7.4 MiB
#  512 -> 17.3/16.7 ms, 194/195 ms, 14.4 MiB
#  the whole set -> 16.8/16.6 ms, 195/197 ms, 28.5 MiB
# (1 BLAS thread, 2-vCPU Xeon VM).  From 128 up evaluate is within 5% while
# the peak grows by half or more per step, and perfbench eval-battery
# reads the same img/s at 128 as at 256 with about 4.8 MB less peak RSS:
# 128 is the smallest block at that speed.  train builds the training set's
# histograms in EVAL_BATCH chunks: at 32 they took 13.5-15.0 ms against
# 12.7-14.2 ms at 128 (medians of 15, three runs), under 1 ms of a 5-epoch
# perfbench train-dadm command, whose img/s did not move.
PREFIX_CHUNK = 128


@dataclass
class ModelConfig:
    architecture: str
    epochs: int = 10
    batch_size: int = 64
    lr: float = 0.001
    seed: int = 0
    n_bins: int = 256
    bandwidth: float = 0.001

    @staticmethod
    def check(name, value):
        """``value`` as its plain Python ``str``, ``int`` or ``float`` if it
        is a valid field ``name``, else ``ValueError``; the command line
        checks each option this way, and a checkpoint's config block holds
        what it returns.  ``lr`` follows :func:`~histlearn.nn.check_lr`,
        ``seed`` the transforms' seed rule, ``n_bins`` and ``bandwidth``
        :meth:`HistogramSpec.check`.  No number field takes a ``bool``."""
        if name == "architecture":
            if value not in ARCHITECTURES:
                raise ValueError(f"unknown architecture {value!r}, expected one of {ARCHITECTURES}")
            return str(value)
        if name in ("epochs", "batch_size"):
            if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            return int(value)
        if name == "lr":
            return check_lr(value)
        if name == "seed":
            _check_seed(value, name)
            return int(value)
        return HistogramSpec.check(name, value)

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, self.check(f.name, getattr(self, f.name)))

    def histogram_spec(self) -> HistogramSpec:
        return HistogramSpec(n_bins=self.n_bins, bandwidth=self.bandwidth)


class HistogramLayer:
    """Turns a batch of images, shaped (batch, channels, H, W) like every
    model's input, into one KDE histogram per image, shaped (batch, N).

    The forward pass is one :func:`~histlearn.histogram.kde_histogram`
    call over the whole batch, which works through it in groups of whole
    rows with bounded memory.  :func:`train` and :func:`evaluate` feed it
    ``EVAL_BATCH`` images at a time (see :func:`_histograms`), or only a
    chunk's rows whose byte counts a translation changed.
    Each row's histogram is bitwise what the image alone would give.

    No learnable parameters.  The backward pass is one
    :func:`~histlearn.histogram.kde_histogram_backward` call over the whole
    batch, over the same bands of bins as the forward pass, and returns
    per-pixel gradients shaped like the input, so upstream feature
    extractors could be trained through this layer even though the
    benchmark models use it as the first layer on raw images.
    """

    _images = None

    def __init__(self, spec: HistogramSpec):
        self.spec = spec

    def params(self):
        return []

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ShapeError(f"histogram layer: expected (batch, channels, H, W), got shape {x.shape}")
        self._images = x
        return kde_histogram(x, self.spec)

    def backward(self, grad):
        images = self._images
        out_shape = None if images is None else (images.shape[0], self.spec.n_bins)
        return kde_histogram_backward(_checked_grad("histogram layer", grad, out_shape), images, self.spec)


class Model:
    """An ordered layer list with a named architecture."""

    def __init__(self, architecture: str, layers: list):
        self.architecture = architecture
        self.layers = layers

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def forward(self, x, start=0):
        for layer in self.layers[start:]:
            x = layer.forward(x)
        return x

    def backward(self, grad, stop=0):
        """Backpropagate ``grad`` through ``layers[stop:]``, setting every
        parameter gradient, and return the gradient with respect to the
        input of ``layers[stop]``."""
        for layer in reversed(self.layers[stop:]):
            grad = layer.backward(grad)
        return grad


def build_model(cfg: ModelConfig, stored=None) -> Model:
    """Assemble one architecture with seeded initialization.

    Linear/conv weights and biases start uniform in +-1/sqrt(fan_in); the
    dadm kernels start as a near-identity pair (see ``init_kernel``).
    ``stored``, a function ``(name, shape) -> array`` called for each
    parameter in model order (a checkpoint's values), gives the values
    instead, and then nothing is drawn.
    """
    init = np.random.default_rng([cfg.seed, 0]) if stored is None else stored
    arch = cfg.architecture
    if arch == "lenet":
        layers = [
            Conv2d(1, 6, 5, 5, init, name="conv1"),
            MaxPool2d(),
            ReLU(),
            Conv2d(6, 16, 5, 5, init, name="conv2"),
            MaxPool2d(),
            ReLU(),
            Linear(256, 120, init, name="fc1"),
            ReLU(),
            Linear(120, 84, init, name="fc2"),
            ReLU(),
            Linear(84, 10, init, name="fc3"),
        ]
    elif arch == "base":
        layers = [
            Linear(784, 256, init, name="fc1"),
            ReLU(),
            Linear(256, 512, init, name="fc2"),
            ReLU(),
            Linear(512, 10, init, name="fc3"),
        ]
    elif arch == "cnn":
        layers = [
            Conv2d(1, 4, 3, 3, init, name="conv1"),
            ReLU(),
            Linear(2704, 256, init, name="fc1"),  # 4 channels x 26 x 26
            ReLU(),
            Linear(256, 512, init, name="fc2"),
            ReLU(),
            Linear(512, 10, init, name="fc3"),
        ]
    elif arch == "dadm":
        spec = cfg.histogram_spec()
        if stored is None:
            kernels = init_kernel(spec, int(init.integers(2**31 - 1)))
        else:
            shape = (spec.n_bins,)
            kernels = stored("arith.weight_hist", shape), stored("arith.bias_hist", shape)
        layers = [
            HistogramLayer(spec),
            ArithmeticDistributionLayer(spec, *kernels, name="arith"),
            ReLU(),
            Linear(spec.n_bins, 512, init, name="fc1"),
            ReLU(),
            Linear(512, 10, init, name="fc2"),
        ]
    else:  # pragma: no cover - ModelConfig already validated
        raise ValueError(f"unknown architecture {arch!r}")
    return Model(arch, layers)


# --------------------------------------------------------------------------
# Training and evaluation


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    train_accuracy: float


@dataclass
class EvalReport:
    """Accuracy of one model under one transform, plus the drop vs original."""

    model: str
    transform: str
    top1: float
    per_class: list  # 10 accuracies, percent
    delta: float  # original top1 - this top1, percent

    def __post_init__(self):
        self.per_class = [float(v) for v in self.per_class]
        if len(self.per_class) != 10:
            raise ShapeError(f"per_class must have 10 entries, got {len(self.per_class)}")


def _histograms(layer, images, streams=None, kind="none"):
    """dadm's histogram ``layer`` over uint8 ``images`` (B, H, W),
    ``EVAL_BATCH`` images at a time, into one (B, N) array.  Each sub-chunk
    is normalized and, for a ``kind`` other than ``none``, transformed with
    its slice of the ``streams`` record, so only a sub-chunk is ever float
    pixels."""
    out = np.empty((images.shape[0], layer.spec.n_bins))
    for lo in range(0, images.shape[0], EVAL_BATCH):
        rows = slice(lo, lo + EVAL_BATCH)
        x = normalize(images[rows])
        if kind != "none":
            x = transform_batch(x, streams[rows], kind)
        out[rows] = layer.forward(x[:, None, :, :])
    return out


@np.errstate(over="ignore", invalid="ignore")
def train(model: Model, train_set: ImageSet, cfg: ModelConfig, log=None):
    """Adam + NLL minibatch training; returns the per-epoch loss/accuracy curve.

    dadm's histogram layer has no parameters and the training set is
    fixed, so it runs once over the whole set (see :func:`_histograms`),
    and every step starts at the distribution layer, whose backward skips
    the input gradient nobody reads.  lenet, base and cnn instead
    normalize each batch's rows as the step reads them.  An empty set
    raises ``ValueError`` before any work.  Overflow warnings are off: an
    overflow shows as a non-finite loss, which raises
    :class:`~histlearn.errors.NonFiniteError`.
    Training is fully deterministic given ``cfg.seed``: initialization is
    seeded at build time and the batch shuffle stream here derives from the
    same seed.  The training set is consumed as-is; there is no
    augmentation hook.  ``log`` receives one line per epoch with the
    epoch's mean loss, training accuracy, wall seconds and images/s.
    """
    n = train_set.count
    if n == 0:
        raise ValueError("train: the training set holds no images")
    start = int(isinstance(model.layers[0], HistogramLayer))
    inputs = _histograms(model.layers[0], train_set.images) if start else None
    labels = train_set.labels
    optimizer = Adam(model.parameters(), lr=cfg.lr)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    curve = []
    for epoch in range(1, cfg.epochs + 1):
        began = time.perf_counter()
        order = shuffle_rng.permutation(n)
        total_loss = 0.0
        correct = 0
        for batch_no, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = order[lo : lo + cfg.batch_size]
            batch = inputs[idx] if start else train_set.take(idx)[:, None, :, :]
            logits = model.forward(batch, start=start)
            loss, grad = log_softmax_nll(logits, labels[idx])
            if not np.isfinite(loss):
                raise NonFiniteError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no} "
                    f"({model.architecture})"
                )
            # the trained layer's output gradient is passed, not bound to a
            # name, so it is freed before the next forward
            model.layers[start].backward(model.backward(grad, stop=start + 1), input_grad=False)
            optimizer.step()
            total_loss += loss * idx.size
            correct += int((logits.argmax(axis=1) == labels[idx]).sum())
        seconds = time.perf_counter() - began
        stats = EpochStats(epoch, float(total_loss / n), 100.0 * correct / n)
        curve.append(stats)
        if log is not None:
            log(
                f"epoch {stats.epoch:3d}  loss {stats.mean_loss:.4f}  "
                f"train acc {stats.train_accuracy:.2f}%  "
                f"{seconds:.2f} s  {n / seconds:.0f} img/s"
            )
    return curve


def accuracy_breakdown(predictions: np.ndarray, labels: np.ndarray):
    """(overall %, per-class % list) from predictions; empty classes read 0."""
    overall = 100.0 * float((predictions == labels).mean())
    per_class = []
    for c in range(10):
        mask = labels == c
        per_class.append(100.0 * float((predictions[mask] == c).mean()) if mask.any() else 0.0)
    return overall, per_class


def _moved_histograms(layer, images, streams, kind, originals, counts):
    """dadm's histogram ``layer`` over a block of uint8 test ``images``
    under translate, flip or shuffle, ``EVAL_BATCH`` images at a time.

    These kinds move bytes without changing them, so each sub-chunk is
    transformed as bytes.  A row whose byte counts equal its original's
    (``counts``) takes its original's row of ``originals``: the histogram
    of byte-valued pixels depends only on their counts, so that row is
    bitwise what the layer would return (see
    :func:`~histlearn.histogram.byte_counts`).  Only the other rows are
    normalized and run through the layer.  Returns ``originals`` itself
    when no row's counts changed.
    """
    out = originals
    for lo in range(0, images.shape[0], EVAL_BATCH):
        rows = slice(lo, lo + EVAL_BATCH)
        moved = transform_batch(images[rows], streams[rows], kind)
        changed = np.flatnonzero((byte_counts(moved) != counts[rows]).any(axis=1))
        if changed.size:
            if out is originals:
                out = originals.copy()
            out[lo + changed] = layer.forward(normalize(moved[changed])[:, None, :, :])
    return out


@np.errstate(over="ignore", invalid="ignore")
def evaluate(model: Model, test_set: ImageSet, kinds, seed=0) -> list:
    """One :class:`EvalReport` per transform kind, in the order given.

    One pass over blocks of the test set (see the module docstring), so
    neither a float nor a transformed copy of the whole set is built.  For
    the originals and for each kind other than ``none``, a block is
    transformed by :func:`~histlearn.transforms.transform_batch` and run
    through the model.  lenet, base and cnn take blocks of ``EVAL_BATCH``
    float images.  dadm takes blocks of ``PREFIX_CHUNK`` images held as
    bytes, histograms them by :func:`_histograms`, or under translate, flip
    and shuffle by :func:`_moved_histograms`, and runs its trained layers
    once over the block's histograms; a kind whose histograms are the
    originals' array itself takes the originals' predictions for the block.
    The streams ``default_rng([seed, i])`` of the whole set are computed
    once per evaluate, for all those kinds, and each sub-chunk reads its
    slice; none are computed when only ``none`` is asked for.
    The originals' accuracy is every report's reference for ``delta`` (so
    ``none`` reads 0), and their predictions are the ``none`` report's.  A
    bad seed (checked first, even when no kind is listed), an unknown kind,
    a kind listed twice and an empty set raise ``ValueError``, and
    non-finite logits (an overflow, as in :func:`train`)
    ``NonFiniteError`` naming kind and model.
    """
    _check_seed(seed)
    if test_set.count == 0:
        raise ValueError("evaluate: the test set holds no images")
    kinds = list(kinds)
    repeated = sorted({kind for kind in kinds if kinds.count(kind) > 1})
    if repeated:
        raise ValueError(f"transform kinds listed more than once: {repeated}")
    for kind in kinds:
        if kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind {kind!r}, expected one of {TRANSFORM_KINDS}")
    histogram = model.layers[0] if isinstance(model.layers[0], HistogramLayer) else None
    start = int(histogram is not None)
    # the originals come first: every other kind's memo compares with them
    preds = {kind: np.empty(test_set.count, dtype=np.int64) for kind in ["none", *kinds]}
    if len(preds) > 1:
        streams = stream_states(seed, range(test_set.count))
    block = EVAL_BATCH if histogram is None else PREFIX_CHUNK
    for lo in range(0, test_set.count, block):
        index = slice(lo, lo + block)
        images = test_set.take(index) if histogram is None else test_set.images[index]
        hi = lo + images.shape[0]
        for kind, out in preds.items():
            part = None if kind == "none" else streams[lo:hi]
            if histogram is None:
                x = (images if part is None else transform_batch(images, part, kind))[:, None, :, :]
            elif kind in ("translate", "flip", "shuffle"):
                x = _moved_histograms(histogram, images, part, kind, originals, counts)
            else:
                x = _histograms(histogram, images, part, kind)
            if kind == "none":
                originals = x
                if histogram is not None:
                    # at most H * W per cell: uint16 for 28 x 28 images
                    counts = byte_counts(images).astype(np.min_scalar_type(images[0].size))
            elif x is originals:
                out[lo:hi] = preds["none"][lo:hi]
                continue
            logits = model.forward(x, start=start)
            if not np.isfinite(logits).all():
                raise NonFiniteError(f"non-finite logits under {kind} ({model.architecture})")
            out[lo:hi] = logits.argmax(axis=1)
    original_top1, _ = accuracy_breakdown(preds["none"], test_set.labels)
    reports = []
    for kind in kinds:
        top1, per_class = accuracy_breakdown(preds[kind], test_set.labels)
        reports.append(EvalReport(model.architecture, kind, top1, per_class, original_top1 - top1))
    return reports
