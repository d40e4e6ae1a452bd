"""Span tracing installed around histlearn's public boundaries from outside.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces each traced function or method with a wrapper that records a span
(name, start, end, parent) and, for a few boundaries, a count.  A function
is patched under every name a histlearn module binds it to, because
modules import each other's functions by name (``models`` calls its own
``kde_histogram`` binding, ``checkpoint`` its own ``build_model``).
:meth:`Tracer.uninstall` puts the originals back, so traced and untraced
iterations can alternate in one process.

Spans stay in memory until the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

import functools
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# Parameter-free layers have no name of their own; the tracer names them by
# this prefix and their position among the model's layers of that type.
_UNNAMED_PREFIX = {"ReLU": "relu", "MaxPool2d": "pool", "Flatten": "flatten"}

# Layer instances of the architectures the workloads run, in model order.
# Metric names come from this table so every run reports the same set.
NN_LAYERS = {
    "lenet": ("conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "flatten1",
              "fc1", "relu3", "fc2", "relu4", "fc3"),
    "cnn": ("conv1", "relu1", "flatten1", "fc1", "relu2", "fc2", "relu3", "fc3"),
    "dadm": ("relu1", "fc1", "relu2", "fc2"),
}
TRANSFORM_KINDS = ("none", "rotate", "translate", "flip", "shuffle")
THROUGHPUTS = ("train_img_per_s.dadm", "train_img_per_s.lenet", "train_img_per_s.cnn",
               "eval_img_per_s.dadm", "eval_img_per_s.lenet")


def _per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports."""
    m = [
        ("cli.train.self_s", "s", "lower"),
        ("cli.eval.self_s", "s", "lower"),
        ("data.load_mnist.self_s", "s", "lower"),
        ("data.pixel_bytes", "bytes", "lower"),
        ("histogram.kde_histogram.calls", "count", "lower"),
        ("histogram.kde_histogram.self_s", "s", "lower"),
        ("histogram.kde_histogram.us_per_image", "us", "lower"),
        ("models.cache_histograms.self_s", "s", "lower"),
        ("models.load_or_build_histogram_cache.self_s", "s", "lower"),
        ("models.HistogramLayer.forward.self_s", "s", "lower"),
        ("models.train.self_s", "s", "lower"),
        ("models.train.steps", "count", "lower"),
        ("models.predict.self_s", "s", "lower"),
        ("models.evaluate.self_s", "s", "lower"),
        ("distlayers.arith.fwd_ms_p50", "ms", "lower"),
        ("distlayers.arith.bwd_ms_p50", "ms", "lower"),
        ("distlayers.arith.self_s", "s", "lower"),
    ]
    for arch, layers in NN_LAYERS.items():
        for layer in layers:
            m += [
                (f"nn.{arch}.{layer}.fwd_ms_p50", "ms", "lower"),
                (f"nn.{arch}.{layer}.bwd_ms_p50", "ms", "lower"),
                (f"nn.{arch}.{layer}.self_s", "s", "lower"),
            ]
    m += [("nn.loss.self_s", "s", "lower"), ("nn.adam.step_ms_p50", "ms", "lower")]
    for kind in TRANSFORM_KINDS:
        m += [(f"transforms.{kind}.self_s", "s", "lower"),
              (f"transforms.{kind}.us_per_image", "us", "lower")]
    m += [
        ("checkpoint.save.self_s", "s", "lower"),
        ("checkpoint.load.self_s", "s", "lower"),
        ("checkpoint.bytes", "bytes", "lower"),
        ("reports.write.self_s", "s", "lower"),
        ("inputs.byte_valued_share", "ratio", "higher"),
        ("inputs.unsaturated_share", "ratio", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    m += [(name, "img/s", "higher") for name in THROUGHPUTS]
    m += [("machine.ref_ms_p50", "ms", "lower")]
    return m


PER_LAYER_METRICS = _per_layer_metrics()

# Layers traced as a forward/backward span pair named "<base>.fwd"/"<base>.bwd".
LAYER_BASES = {"distlayers.arith"} | {
    f"nn.{arch}.{layer}" for arch, layers in NN_LAYERS.items() for layer in layers
}


class Tracer:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.absent = []
        self._stack = []
        self._saved = []  # (owner, attribute, original)
        self._layer_names = {}  # id(layer) -> span name prefix

    # -- spans -------------------------------------------------------------

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, original, name, observe):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name(args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                # its own span, so its cost leaves the caller's self time
                index = self.open("trace.observe")
                try:
                    observe(args, result)
                finally:
                    self.close(index)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def _patch_function(self, module_name, attr, name, observe=None):
        home = sys.modules.get(module_name)
        original = getattr(home, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        traced = self._wrapper(original, name, observe)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "histlearn":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, key, original))
                    setattr(module, key, traced)

    def _patch_method(self, module_name, cls_name, attr, name, observe=None):
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            self.absent.append(f"{module_name}.{cls_name}.{attr}")
            return
        self._saved.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, observe))

    def install(self):
        """Wrap every traced boundary; a target that no longer exists is
        recorded in ``absent`` rather than failing the run."""
        self.absent = []
        counts = self.counts

        def loaded(args, result):
            counts["data.pixel_bytes"] += result.pixels.nbytes + result.labels.nbytes

        def transformed(args, result):
            counts[f"transforms.{args[1].kind}.images"] += args[0].count

        def saved(args, result):
            counts["checkpoint.bytes"] += os.path.getsize(args[2])

        def loaded_ckpt(args, result):
            counts["checkpoint.bytes"] += os.path.getsize(args[0])

        f = self._patch_function
        f("histlearn.data", "load_mnist", "data.load_mnist", loaded)
        f("histlearn.histogram", "kde_histogram", "histogram.kde_histogram", self._histogram_inputs)
        f("histlearn.models", "build_model", "models.build_model", self._name_layers)
        f("histlearn.models", "cache_histograms", "models.cache_histograms")
        f("histlearn.models", "load_or_build_histogram_cache", "models.load_or_build_histogram_cache")
        f("histlearn.models", "train", "models.train")
        f("histlearn.models", "predict", "models.predict")
        f("histlearn.models", "evaluate", "models.evaluate")
        f("histlearn.nn", "log_softmax_nll", "nn.loss")
        f("histlearn.transforms", "apply_transform",
          lambda args: f"transforms.{args[1].kind}", transformed)
        f("histlearn.checkpoint", "save_checkpoint", "checkpoint.save", saved)
        f("histlearn.checkpoint", "load_checkpoint", "checkpoint.load", loaded_ckpt)
        f("histlearn.reports", "write_loss_curve", "reports.write")
        f("histlearn.reports", "write_eval_reports", "reports.write")

        if not hasattr(sys.modules.get("histlearn.histogram"), "_SATURATION"):
            self.absent.append("histlearn.histogram._SATURATION")

        m = self._patch_method
        m("histlearn.models", "HistogramLayer", "forward", "models.HistogramLayer.forward")
        m("histlearn.nn", "Adam", "step", "nn.adam.step")
        for module_name, cls_name in (
            ("histlearn.distlayers", "ArithmeticDistributionLayer"),
            ("histlearn.nn", "Linear"),
            ("histlearn.nn", "Conv2d"),
            ("histlearn.nn", "MaxPool2d"),
            ("histlearn.nn", "ReLU"),
            ("histlearn.nn", "Flatten"),
        ):
            m(module_name, cls_name, "forward", lambda args: self._layer_name(args[0]) + ".fwd")
            m(module_name, cls_name, "backward", lambda args: self._layer_name(args[0]) + ".bwd")

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- observers ---------------------------------------------------------

    def _name_layers(self, args, model):
        """Name each layer of a model ``build_model`` returned: by its
        parameters' prefix (conv1, fc2, arith) or by type and position
        (relu1, pool2)."""
        seen = defaultdict(int)
        for layer in model.layers:
            cls = type(layer).__name__
            if cls in _UNNAMED_PREFIX:
                seen[cls] += 1
                local = f"{_UNNAMED_PREFIX[cls]}{seen[cls]}"
            elif layer.params():
                local = layer.params()[0].name.split(".")[0]
            else:
                continue  # the histogram layer has a span name of its own
            home = "distlayers" if cls == "ArithmeticDistributionLayer" else f"nn.{model.architecture}"
            self._layer_names[id(layer)] = f"{home}.{local}"

    def _layer_name(self, layer):
        return self._layer_names.get(id(layer), f"unnamed.{type(layer).__name__}")

    def _histogram_inputs(self, args, result):
        """Input properties a faster histogram path could key on.

        byte-valued: every pixel equals v/127.5 - 1 for an integer byte v.
        unsaturated: the share of (pixel, edge) pairs whose scaled distance
        |edge - pixel| / (sqrt(2) B) is below the erf saturation point, i.e.
        the terms the histogram's saturated-erf path actually evaluates.
        """
        px = np.asarray(args[0], dtype=np.float64).ravel()
        spec = args[1]
        counts = self.counts
        counts["inputs.images"] += 1
        v = np.rint((px + 1.0) * 127.5)
        counts["inputs.byte_valued"] += bool(np.all(v / 127.5 - 1.0 == px))
        saturation = getattr(sys.modules["histlearn.histogram"], "_SATURATION", None)
        if saturation is None:
            return
        reach = saturation * np.sqrt(2.0) * spec.bandwidth
        edges = spec.edges
        inside = (np.searchsorted(edges, px + reach, "left")
                  - np.searchsorted(edges, px - reach, "right"))
        counts["inputs.unsaturated"] += float(inside.sum())
        counts["inputs.pairs"] += px.size * edges.size


def self_times(spans):
    """Per-span self time: duration minus the duration of direct children."""
    selfs = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def layer_metrics(tracer, iterations, untraced_walls, traced_walls, units, scale):
    """Per-layer metrics from the spans of ``iterations`` traced iterations.

    Times and counts are per iteration of the workload's command sequence;
    ``*_ms_p50`` are medians over single calls.  ``untraced_walls`` and
    ``traced_walls`` map each command (``"train.dadm"``) to its wall times
    in the untraced and traced iterations; ``units`` maps it to the images
    one command processes.  Span times are multiplied by ``scale`` to bring
    them to the reference machine speed the walls are already expressed in.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    self_sum = defaultdict(float)
    durations = defaultdict(list)
    calls = defaultdict(int)
    for (name, start, end, _), own in zip(spans, selfs):
        self_sum[name] += scale * own
        durations[name].append(scale * (end - start))
        calls[name] += 1

    def per_iter(value):
        return value / iterations if iterations else 0.0

    def p50_ms(name):
        return 1e3 * statistics.median(durations[name]) if durations[name] else 0.0

    counts = tracer.counts
    out = {}
    for name, _, _ in PER_LAYER_METRICS:
        base, _, stat = name.rpartition(".")
        if stat == "self_s":
            parts = (base + ".fwd", base + ".bwd") if base in LAYER_BASES else (base,)
            out[name] = per_iter(sum(self_sum[p] for p in parts))
        elif stat == "fwd_ms_p50":
            out[name] = p50_ms(base + ".fwd")
        elif stat == "bwd_ms_p50":
            out[name] = p50_ms(base + ".bwd")
        elif stat == "step_ms_p50":
            out[name] = p50_ms(base + ".step")
        elif stat == "calls":
            out[name] = per_iter(calls[base])
        elif stat == "us_per_image":
            images = calls[base] if base.startswith("histogram.") else counts[base + ".images"]
            out[name] = 1e6 * self_sum[base] / images if images else 0.0
    out["models.train.steps"] = per_iter(calls["nn.adam.step"])
    out["data.pixel_bytes"] = per_iter(counts["data.pixel_bytes"])
    out["checkpoint.bytes"] = per_iter(counts["checkpoint.bytes"])
    images = counts["inputs.images"]
    out["inputs.byte_valued_share"] = counts["inputs.byte_valued"] / images if images else 0.0
    pairs = counts["inputs.pairs"]
    out["inputs.unsaturated_share"] = counts["inputs.unsaturated"] / pairs if pairs else 0.0

    untraced = sum(statistics.median(w) for w in untraced_walls.values())
    traced = sum(statistics.median(w) for w in traced_walls.values())
    out["trace.overhead_share"] = traced / untraced - 1.0
    for name in THROUGHPUTS:
        kind, _, arch = name.partition("_img_per_s.")
        walls = untraced_walls.get(f"{kind}.{arch}")
        out[name] = units[f"{kind}.{arch}"] / statistics.median(walls) if walls else 0.0
    return out
