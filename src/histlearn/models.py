"""The four benchmark architectures, training, and evaluation.

Architectures (final layer emits 10 logits; the log-softmax + NLL loss is
fused into :func:`histlearn.nn.log_softmax_nll`):

lenet  Conv(1->6, 5x5) / ReLU / MaxPool / Conv(6->16, 5x5) / ReLU / MaxPool
       / Linear(256->120) / ReLU / Linear(120->84) / ReLU / Linear(84->10)
base   Linear(784->256) / ReLU / Linear(256->512) / ReLU / Linear(512->10)
cnn    Conv(1->4, 3x3) / ReLU / Linear(2704->256) / ReLU / Linear(256->512)
       / ReLU / Linear(512->10)
dadm   per-image KDE histogram (256 bins) -> distribution-arithmetic layer
       (two learnable 256-kernels) / ReLU / Linear(256->512) / ReLU
       / Linear(512->10)

The layers in front of a model's first layer with parameters have nothing
to learn and training inputs are fixed, so :func:`train` runs that frozen
prefix once, in memory (dadm's histograms, base's ``Flatten`` view), and
every step from the first trained layer on.
"""

import time
from dataclasses import dataclass

import numpy as np

from .data import ImageSet
from .distlayers import ArithmeticDistributionLayer, init_kernel
from .errors import NonFiniteError, ShapeError
from .histogram import HistogramSpec, kde_histogram, kde_histogram_backward
from .nn import Adam, Conv2d, Flatten, Linear, MaxPool2d, ReLU, log_softmax_nll
from .transforms import TransformSpec, stream_states, transform_batch

ARCHITECTURES = ("lenet", "base", "cnn", "dadm")

EVAL_BATCH = 256  # images per forward pass in predict, per chunk in evaluate


@dataclass
class ModelConfig:
    architecture: str
    epochs: int = 10
    batch_size: int = 64
    lr: float = 0.001
    seed: int = 0
    n_bins: int = 256
    bandwidth: float = 0.001

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}, expected one of {ARCHITECTURES}"
            )
        for key in ("epochs", "batch_size"):
            value = getattr(self, key)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        # n_bins and bandwidth follow HistogramSpec's rules
        self.histogram_spec()

    def histogram_spec(self) -> HistogramSpec:
        return HistogramSpec(n_bins=self.n_bins, bandwidth=self.bandwidth)


class HistogramLayer:
    """Turns a batch of images, shaped (batch, channels, H, W) like every
    model's input, into one KDE histogram per image, shaped (batch, N).

    The forward pass is one :func:`~histlearn.histogram.kde_histogram`
    call over the whole batch, which works through it in groups of whole
    rows with bounded memory, so the 60k training images of a dadm run go
    through in one call.  Each row's histogram is bitwise what the image
    alone would give.

    No learnable parameters.  The backward pass is one
    :func:`~histlearn.histogram.kde_histogram_backward` call over the whole
    batch, over the same bands of bins as the forward pass, and returns
    per-pixel gradients shaped like the input, so upstream feature
    extractors could be trained through this layer even though the
    benchmark models use it as the first layer on raw images.
    """

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
        return kde_histogram_backward(grad, self._images, self.spec)


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
            ReLU(),
            MaxPool2d(),
            Conv2d(6, 16, 5, 5, rng, name="conv2"),
            ReLU(),
            MaxPool2d(),
            Flatten(),
            Linear(256, 120, rng, name="fc1"),
            ReLU(),
            Linear(120, 84, rng, name="fc2"),
            ReLU(),
            Linear(84, 10, rng, name="fc3"),
        ]
    elif arch == "base":
        layers = [
            Flatten(),
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
            Flatten(),
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
            ArithmeticDistributionLayer(spec, init_kernel(spec, kernel_seed), name="arith"),
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


def train(model: Model, train_set: ImageSet, cfg: ModelConfig, log=None):
    """Adam + NLL minibatch training; returns the per-epoch loss/accuracy curve.

    The frozen prefix, the layers in front of the first layer with
    parameters, runs once over the whole training set, and every step
    starts at the first trained layer, whose backward skips the input
    gradient nobody reads.  Training is fully deterministic given
    ``cfg.seed``: initialization is seeded at build time and the batch
    shuffle stream here derives from the same seed.  The training set is
    consumed as-is; there is no augmentation hook.  ``log`` receives one
    line per epoch with the epoch's mean loss, training accuracy, wall
    seconds and images/s.
    """
    start = next(i for i, layer in enumerate(model.layers) if layer.params())
    inputs = train_set.pixels[:, None, :, :]
    for layer in model.layers[:start]:
        inputs = layer.forward(inputs)
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
            logits = model.forward(inputs[idx], start=start)
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


def predict(model: Model, images: np.ndarray) -> np.ndarray:
    """Top-1 class per image of a (count, H, W) array, forward passes of
    ``EVAL_BATCH`` images."""
    inputs = images[:, None, :, :]
    out = np.empty(images.shape[0], dtype=np.int64)
    for lo in range(0, images.shape[0], EVAL_BATCH):
        logits = model.forward(inputs[lo : lo + EVAL_BATCH])
        out[lo : lo + logits.shape[0]] = logits.argmax(axis=1)
    return out


def accuracy_breakdown(predictions: np.ndarray, labels: np.ndarray):
    """(overall %, per-class % list) from predictions; empty classes read 0."""
    overall = 100.0 * float((predictions == labels).mean())
    per_class = []
    for c in range(10):
        mask = labels == c
        per_class.append(100.0 * float((predictions[mask] == c).mean()) if mask.any() else 0.0)
    return overall, per_class


def evaluate(model: Model, test_set: ImageSet, kinds, seed=0) -> list:
    """One :class:`EvalReport` per transform kind, in the order given.

    One pass over chunks of ``EVAL_BATCH`` test images, so no transformed
    copy of the whole set is built: each chunk's originals are predicted,
    then for each kind other than ``none`` the chunk is transformed by
    :func:`~histlearn.transforms.transform_batch` and predicted.  The
    chunk's streams ``default_rng([seed, i])`` are seeded once for all
    those kinds, and not at all when only ``none`` is asked for.  The
    originals' accuracy is every report's reference for ``delta`` (so
    ``none`` reads 0), and their predictions are the ``none`` report's.
    """
    for kind in kinds:
        TransformSpec(kind, rng_seed=seed)  # rejects an unknown kind or a negative seed
    original = np.empty(test_set.count, dtype=np.int64)
    preds = {kind: np.empty_like(original) for kind in kinds if kind != "none"}
    for lo in range(0, test_set.count, EVAL_BATCH):
        chunk = test_set.pixels[lo : lo + EVAL_BATCH]
        hi = lo + chunk.shape[0]
        original[lo:hi] = predict(model, chunk)
        if preds:
            states = stream_states(seed, range(lo, hi))
        for kind, out in preds.items():
            out[lo:hi] = predict(model, transform_batch(chunk, states, kind))
    preds["none"] = original
    original_top1, _ = accuracy_breakdown(original, test_set.labels)
    reports = []
    for kind in kinds:
        top1, per_class = accuracy_breakdown(preds[kind], test_set.labels)
        reports.append(EvalReport(model.architecture, kind, top1, per_class, original_top1 - top1))
    return reports
