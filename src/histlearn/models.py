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
are normalized to float pixels.  The layers in front of a model's first
layer with parameters have nothing to learn and training inputs are fixed,
so :func:`train` runs that frozen prefix (dadm's histogram) once,
``PREFIX_CHUNK`` images at a time, into one array, and every step from the
first trained layer on; a model with no frozen prefix (lenet, base, cnn)
normalizes each batch as its step reads it.

:func:`evaluate` runs the test set in blocks, normalizing each block once.
For a model with a frozen prefix (dadm) a block is ``PREFIX_CHUNK``
images: each kind's transform and the prefix run ``EVAL_BATCH`` images at
a time, while a sub-chunk's buffers are still in cache, and the trained
layers run once over the block's prefix outputs.  A kind whose block of
prefix outputs is bitwise that of the originals (dadm's histograms of a
flipped or shuffled image) takes the originals' predictions for the
block; the comparison is made on every block, so a block in which any row
differs runs the trained layers.  A model with no frozen prefix (lenet,
base, cnn) takes blocks of ``EVAL_BATCH`` images and runs one forward pass
per block and kind.  The forward pass is the one training runs; it leaves
the backward's masks unbuilt, and dadm's distribution layer folds its
kernels once for all blocks, as they do not change between them.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from .data import ImageSet
from .distlayers import ArithmeticDistributionLayer, init_kernel
from .errors import NonFiniteError, ShapeError
from .histogram import HistogramSpec, kde_histogram, kde_histogram_backward
from .nn import Adam, Conv2d, Linear, MaxPool2d, ReLU, _checked_grad, log_softmax_nll
from .transforms import TransformSpec, _check_seed, stream_states, transform_batch

ARCHITECTURES = ("lenet", "base", "cnn", "dadm")

# Images per chunk that evaluate transforms and runs through a frozen
# prefix; a model with no frozen prefix (lenet, base, cnn) also runs its
# layers on one such chunk at a time.  Small enough that a chunk's
# transform temporaries and layer outputs stay near cache
# (lenet's conv1 output is 0.9 MB at 32 images, 7.1 MB at 256; its im2col
# is built in blocks of nn.IM2COL_BYTES at any size).  perfbench
# eval-battery, 25 s runs, 4 rounds in rotating order at seeds 811-814,
# median ref_img_per_s (range) and peak_rss_mb: 32 -> 13114 (12964-13394),
# 78 MB; 64 -> 11756 (11565-11804), 80 MB; 128 -> 11474 (11212-11644),
# 90 MB (1 BLAS thread, 2-vCPU Xeon VM with 2 MiB L2 per core).  32 is
# fastest in every round and holds least.
EVAL_BATCH = 32

# Images per chunk of the frozen prefix that train runs once over the set
# (dadm's histograms), near the histogram's own group of 222 rows at 256
# bins and bandwidth 0.001.  Normalize plus kde_histogram of 1024 perfbench
# images, median of 7: 32 -> 20.0 ms, 64 -> 18.8, 128 -> 18.7, 256 -> 19.0,
# the whole set at once -> 19.0 (1 BLAS thread, 2-vCPU Xeon VM).
# Also the block over which evaluate runs a frozen-prefix model's trained
# layers once per kind.  dadm evaluate of 1024 perfbench test images, five
# kinds, medians of 15 alternating rounds in two runs, and traced numpy
# peak: 32 -> 325/338 ms, 4.1 MiB; 64 -> 275/309, 4.9; 128 -> 263/286, 6.0;
# 256 -> 266/301, 8.3; 512 -> 247/296, 14.4; the whole set -> 266/266,
# 28.5 (same machine).  From 128 up the sizes tie within run noise while
# the peak grows.
PREFIX_CHUNK = 256


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
        """``value`` if it is a valid field ``name``, else ``ValueError``; the
        command line checks each option this way.  ``seed`` follows the
        transforms' seed rule, ``n_bins`` and ``bandwidth``
        :meth:`HistogramSpec.check`."""
        if name == "architecture" and value not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {value!r}, expected one of {ARCHITECTURES}")
        if name in ("epochs", "batch_size") and not (isinstance(value, (int, np.integer)) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if name == "lr" and not 0 < value < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {value!r}")
        if name == "seed":
            _check_seed(value, name)
        return HistogramSpec.check(name, value)

    def __post_init__(self):
        for f in fields(self):
            self.check(f.name, getattr(self, f.name))

    def histogram_spec(self) -> HistogramSpec:
        return HistogramSpec(n_bins=self.n_bins, bandwidth=self.bandwidth)


class HistogramLayer:
    """Turns a batch of images, shaped (batch, channels, H, W) like every
    model's input, into one KDE histogram per image, shaped (batch, N).

    The forward pass is one :func:`~histlearn.histogram.kde_histogram`
    call over the whole batch, which works through it in groups of whole
    rows with bounded memory.  :func:`train` feeds it the training set
    ``PREFIX_CHUNK`` images at a time (see :func:`_prefix_outputs`), and
    :func:`evaluate` each transformed test chunk, ``EVAL_BATCH`` images.
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


def build_model(cfg: ModelConfig) -> Model:
    """Assemble one architecture with seeded initialization.

    Linear/conv weights and biases start uniform in +-1/sqrt(fan_in); the
    dadm kernels start as a near-identity pair (see ``init_kernel``).
    """
    rng = np.random.default_rng([cfg.seed, 0])
    arch = cfg.architecture
    if arch == "lenet":
        layers = [
            Conv2d(1, 6, 5, 5, rng, name="conv1"),
            MaxPool2d(),
            ReLU(),
            Conv2d(6, 16, 5, 5, rng, name="conv2"),
            MaxPool2d(),
            ReLU(),
            Linear(256, 120, rng, name="fc1"),
            ReLU(),
            Linear(120, 84, rng, name="fc2"),
            ReLU(),
            Linear(84, 10, rng, name="fc3"),
        ]
    elif arch == "base":
        layers = [
            Linear(784, 256, rng, name="fc1"),
            ReLU(),
            Linear(256, 512, rng, name="fc2"),
            ReLU(),
            Linear(512, 10, rng, name="fc3"),
        ]
    elif arch == "cnn":
        layers = [
            Conv2d(1, 4, 3, 3, rng, name="conv1"),
            ReLU(),
            Linear(2704, 256, rng, name="fc1"),  # 4 channels x 26 x 26
            ReLU(),
            Linear(256, 512, rng, name="fc2"),
            ReLU(),
            Linear(512, 10, rng, name="fc3"),
        ]
    elif arch == "dadm":
        spec = cfg.histogram_spec()
        kernel_seed = int(rng.integers(2**31 - 1))
        layers = [
            HistogramLayer(spec),
            ArithmeticDistributionLayer(spec, *init_kernel(spec, kernel_seed), name="arith"),
            ReLU(),
            Linear(spec.n_bins, 512, rng, name="fc1"),
            ReLU(),
            Linear(512, 10, rng, name="fc2"),
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


def _first_trained(model: Model) -> int:
    """Index of the model's first layer with parameters; the layers in
    front of it are its frozen prefix."""
    return next(i for i, layer in enumerate(model.layers) if layer.params())


def _prefix_outputs(layers, image_set: ImageSet) -> np.ndarray:
    """``layers`` run over the whole set, ``PREFIX_CHUNK`` images at a time,
    into one array: only a chunk of the set is ever float pixels."""
    out = None
    for lo in range(0, image_set.count, PREFIX_CHUNK):
        x = image_set.take(slice(lo, lo + PREFIX_CHUNK))[:, None, :, :]
        for layer in layers:
            x = layer.forward(x)
        if out is None:
            out = np.empty((image_set.count, *x.shape[1:]), dtype=x.dtype)
        out[lo : lo + x.shape[0]] = x
    return out


@np.errstate(over="ignore", invalid="ignore")
def train(model: Model, train_set: ImageSet, cfg: ModelConfig, log=None):
    """Adam + NLL minibatch training; returns the per-epoch loss/accuracy curve.

    The frozen prefix, the layers in front of the first layer with
    parameters, runs once over the whole training set, chunk by chunk, and
    every step starts at the first trained layer, whose backward skips the
    input gradient nobody reads.  A model with no frozen prefix (lenet,
    base, cnn) instead normalizes each batch's rows as the step reads them.
    Overflow warnings are off: an overflow shows as a non-finite loss, which
    raises :class:`~histlearn.errors.NonFiniteError`.
    Training is fully deterministic given ``cfg.seed``: initialization is
    seeded at build time and the batch shuffle stream here derives from the
    same seed.  The training set is consumed as-is; there is no
    augmentation hook.  ``log`` receives one line per epoch with the
    epoch's mean loss, training accuracy, wall seconds and images/s.
    """
    start = _first_trained(model)
    inputs = _prefix_outputs(model.layers[:start], train_set) if start else None
    labels = train_set.labels
    n = train_set.count
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


@np.errstate(over="ignore", invalid="ignore")
def evaluate(model: Model, test_set: ImageSet, kinds, seed=0) -> list:
    """One :class:`EvalReport` per transform kind, in the order given.

    One pass over blocks of the test set (see the module docstring), so
    neither a float nor a transformed copy of the whole set is built.  A
    block is ``PREFIX_CHUNK`` images for a model with a frozen prefix and
    ``EVAL_BATCH`` images otherwise, and is normalized once.  For the
    originals and for each kind other than ``none``, the block is
    transformed by :func:`~histlearn.transforms.transform_batch` and run
    through the frozen prefix ``EVAL_BATCH`` images at a time into one
    array, and the trained layers run once over that array.  With a frozen
    prefix, a kind whose array is bitwise equal (``np.array_equal``) to the
    originals' takes the originals' predictions for the block instead;
    without one the arrays are pixels, which the transforms move, and are
    not compared.  The streams ``default_rng([seed, i])`` of the whole set
    are computed once per evaluate, for all those kinds, and each sub-chunk
    reads its slice; none are computed when only ``none`` is asked for.
    The originals' accuracy is every report's reference for ``delta`` (so
    ``none`` reads 0), and their predictions are the ``none`` report's.  A
    kind listed twice raises ``ValueError``, and non-finite logits (an
    overflow, as in :func:`train`) ``NonFiniteError`` naming kind and model.
    """
    kinds = list(kinds)
    repeated = sorted({kind for kind in kinds if kinds.count(kind) > 1})
    if repeated:
        raise ValueError(f"transform kinds listed more than once: {repeated}")
    for kind in kinds:
        TransformSpec(kind, rng_seed=seed)  # rejects an unknown kind or a bad seed
    start = _first_trained(model)
    prefix = model.layers[:start]
    # the originals come first: every other kind's memo compares with them
    preds = {kind: np.empty(test_set.count, dtype=np.int64) for kind in ["none", *kinds]}
    if len(preds) > 1:
        streams = stream_states(seed, range(test_set.count))
    block = PREFIX_CHUNK if prefix else EVAL_BATCH
    for lo in range(0, test_set.count, block):
        images = test_set.take(slice(lo, lo + block))
        hi = lo + images.shape[0]
        for kind, out in preds.items():
            parts = []
            for sub in range(lo, hi, EVAL_BATCH):
                x = images[sub - lo : sub - lo + EVAL_BATCH]
                if kind != "none":
                    x = transform_batch(x, streams[sub : sub + x.shape[0]], kind)
                x = x[:, None, :, :]
                for layer in prefix:
                    x = layer.forward(x)
                parts.append(x)
            x = parts[0] if len(parts) == 1 else np.concatenate(parts)
            if kind == "none":
                originals = x
            elif prefix and np.array_equal(x, originals):
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
