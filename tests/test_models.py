"""Architectures, training loop, evaluation."""

import re
import tracemalloc

import numpy as np
import pytest

from conftest import make_imageset, transform_set
from histlearn import models, nn
from histlearn.data import ImageSet, normalize
from histlearn.errors import NonFiniteError
from histlearn.histogram import kde_histogram, kde_histogram_backward
from histlearn.reports import write_eval_reports
from histlearn.selftest import _adam_reference
from histlearn.transforms import TRANSFORM_KINDS, stream_states

ARCHS = ("lenet", "base", "cnn", "dadm")


def tiny_cfg(arch, **kw):
    defaults = dict(epochs=1, batch_size=32, seed=0)
    defaults.update(kw)
    return models.ModelConfig(arch, **defaults)


def batch_of(image_set, n):
    return image_set.pixels[:n, None, :, :]


def _held_bytes(model):
    """Bytes of the distinct arrays a model's layers keep between calls,
    parameters aside; views count as the array they view."""
    owners = {}
    for layer in model.layers:
        for value in vars(layer).values():
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                owners[id(value)] = value.nbytes
    return sum(owners.values())


class TestBuildModel:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_forward_shapes(self, arch, small_set):
        model = models.build_model(tiny_cfg(arch))
        logits = model.forward(batch_of(small_set, 3))
        assert logits.shape == (3, 10)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_initial_draws_are_rng_uniform_bytewise(self, arch, monkeypatch):
        # every shape build_model draws, at several seeds: the same doubles
        # as rng.uniform, and the generator left in the same state
        calls = []
        draw = nn._uniform_init

        def record(rng, shape, fan_in):
            calls.append((shape, fan_in))
            return draw(rng, shape, fan_in)

        monkeypatch.setattr(nn, "_uniform_init", record)
        models.build_model(tiny_cfg(arch))
        assert calls
        for shape, fan_in in calls:
            bound = 1.0 / np.sqrt(fan_in)
            for seed in range(4):
                ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
                assert draw(ours, shape, fan_in).tobytes() == numpy.uniform(-bound, bound, shape).tobytes()
                assert ours.bit_generator.state == numpy.bit_generator.state

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            models.ModelConfig("resnet")

    def test_lenet_parameter_count(self):
        model = models.build_model(tiny_cfg("lenet"))
        total = sum(p.value.size for p in model.parameters())
        # conv1 6*(25+... bias 6) + conv2 + three linears = 44,426
        assert total == 44426

    def test_dadm_kernel_learnables(self):
        model = models.build_model(tiny_cfg("dadm"))
        kernel_params = [p for p in model.parameters() if "hist" in p.name]
        assert sum(p.value.size for p in kernel_params) == 512

    def test_cnn_flatten_width(self):
        model = models.build_model(tiny_cfg("cnn"))
        fc1 = next(p for p in model.parameters() if p.name == "fc1.weight")
        assert fc1.value.shape == (256, 2704)  # 4 x 26 x 26 after the 3x3 conv

    def test_config_validation(self):
        with pytest.raises(ValueError):
            models.ModelConfig("base", epochs=0)
        with pytest.raises(ValueError):
            models.ModelConfig("base", lr=-1.0)
        with pytest.raises(ValueError):
            models.ModelConfig("base", epochs=2.5)
        with pytest.raises(ValueError):
            models.ModelConfig("dadm", n_bins=0)
        with pytest.raises(ValueError):
            models.ModelConfig("dadm", bandwidth=0.0)
        with pytest.raises(ValueError):
            models.ModelConfig("base", lr=float("inf"))

    @pytest.mark.parametrize("name, value", [
        ("architecture", "resnet"), ("epochs", 0), ("batch_size", 2.5), ("lr", 0.0),
        ("n_bins", 2000), ("bandwidth", 0.0), ("seed", 1.5), ("seed", -1), ("seed", "0"),
        ("epochs", True), ("batch_size", True), ("seed", True), ("n_bins", True),
        ("lr", True), ("lr", "0.1"), ("lr", None), ("bandwidth", True), ("bandwidth", "x"),
    ])
    def test_field_check_is_the_constructors_refusal(self, name, value):
        # the command line checks one option by this; the config says the same
        with pytest.raises(ValueError) as built:
            models.ModelConfig(**{"architecture": "base", name: value})
        with pytest.raises(ValueError) as checked:
            models.ModelConfig.check(name, value)
        assert str(checked.value) == str(built.value)
        good = models.ModelConfig("dadm")
        assert models.ModelConfig.check(name, getattr(good, name)) == getattr(good, name)

    def test_seeded_build_is_deterministic(self):
        a = models.build_model(tiny_cfg("lenet"))
        b = models.build_model(tiny_cfg("lenet"))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.value, pb.value)


class TestForward:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_duplicated_input_rows_match(self, arch, small_set):
        model = models.build_model(tiny_cfg(arch))
        batch = np.repeat(batch_of(small_set, 1), 64, axis=0)
        logits = model.forward(batch)
        assert np.array_equal(logits, np.tile(logits[0], (64, 1)))

    @pytest.mark.parametrize("arch", ARCHS)
    def test_repeat_calls_bit_identical(self, arch, small_set):
        model = models.build_model(tiny_cfg(arch))
        batch = batch_of(small_set, 4)
        assert np.array_equal(model.forward(batch), model.forward(batch))

    def test_untrained_chance_level(self, balanced_set):
        # balanced labels: whatever class an untrained net collapses to,
        # accuracy lands near 10%
        for arch in ARCHS:
            model = models.build_model(tiny_cfg(arch))
            preds = model.forward(balanced_set.pixels[:, None]).argmax(1)
            acc = 100.0 * (preds == balanced_set.labels).mean()
            assert 7.0 <= acc <= 13.0, f"{arch}: {acc}"

    def test_dadm_logits_shuffle_invariant(self, small_set):
        model = models.build_model(tiny_cfg("dadm"))
        shuffled = transform_set(small_set, "shuffle", 1)
        a = model.forward(batch_of(small_set, 8))
        b = model.forward(shuffled[:8, None, :, :])
        assert np.abs(a - b).max() < 1e-9


class TestEndToEndGradients:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_full_loss_gradient_every_parameter(self, arch, small_set):
        # central differences against the chained backward for a 2-image
        # batch; every parameter tensor is probed at sampled coordinates
        cfg = tiny_cfg(arch) if arch != "dadm" else tiny_cfg("dadm", n_bins=16, bandwidth=0.05)
        model = models.build_model(cfg)
        labels = small_set.labels[:2]
        if arch == "dadm":
            spec = cfg.histogram_spec()
            feats = kde_histogram(small_set.pixels[:2], spec)
            start = 1
        else:
            feats = batch_of(small_set, 2)
            start = 0

        def loss_and_grads():
            logits = model.forward(feats, start=start)
            loss, grad = nn.log_softmax_nll(logits, labels)
            model.backward(grad, stop=start)
            return loss, {p.name: p.grad.copy() for p in model.parameters()}

        _, analytic = loss_and_grads()
        rng = np.random.default_rng(0)
        # a small step keeps the probe inside one linear piece of the
        # ReLU/maxpool landscape; coordinates whose gradient is at the
        # noise floor are compared absolutely instead of relatively
        h = 1e-6
        for p in model.parameters():
            flat = p.value.ravel()
            n_probe = min(12, flat.size)
            coords = rng.choice(flat.size, size=n_probe, replace=False)
            for c in coords:
                orig = flat[c]
                flat[c] = orig + h
                up, _ = nn.log_softmax_nll(model.forward(feats, start=start), labels)
                flat[c] = orig - h
                down, _ = nn.log_softmax_nll(model.forward(feats, start=start), labels)
                flat[c] = orig
                numeric = (up - down) / (2 * h)
                a = analytic[p.name].ravel()[c]
                rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
                assert rel < 1e-4 or abs(a - numeric) < 1e-8, f"{arch} {p.name}[{c}]: {rel}"

    def test_dadm_pixel_gradients(self, small_set):
        # the histogram layer's backward gives usable image gradients, the
        # hook a feature extractor in front of the module would train by
        cfg = tiny_cfg("dadm", n_bins=16, bandwidth=0.05)
        model = models.build_model(cfg)
        # park pixels mid-bin so finite differences stay in smooth regions
        spec = cfg.histogram_spec()
        rng = np.random.default_rng(1)
        img = spec.centers[rng.integers(0, 16, (28, 28))] + rng.uniform(-0.02, 0.02, (28, 28))
        feats = img[None, None, :, :]
        label = np.array([3])

        logits = model.forward(feats)
        _, grad = nn.log_softmax_nll(logits, label)
        pixel_grad = model.backward(grad)
        assert pixel_grad.shape == feats.shape

        h = 1e-5
        flat = feats.copy()
        for c in [0, 391, 617]:
            probe = flat.copy()
            probe.ravel()[c] += h
            up, _ = nn.log_softmax_nll(model.forward(probe), label)
            probe.ravel()[c] -= 2 * h
            down, _ = nn.log_softmax_nll(model.forward(probe), label)
            numeric = (up - down) / (2 * h)
            a = pixel_grad.ravel()[c]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            assert rel < 1e-3, f"pixel {c}: {rel}"

    def test_histogram_layer_backward_is_one_batched_call(self, small_set, monkeypatch):
        cfg = tiny_cfg("dadm", n_bins=16, bandwidth=0.05)
        layer = models.build_model(cfg).layers[0]
        assert isinstance(layer, models.HistogramLayer)
        images = batch_of(small_set, 5)
        layer.forward(images)
        grad = np.random.default_rng(2).standard_normal((5, 16))
        calls = []

        def spy(grad_bins, x, spec):
            calls.append(np.shape(x))
            return kde_histogram_backward(grad_bins, x, spec)

        monkeypatch.setattr(models, "kde_histogram_backward", spy)
        out = layer.backward(grad)
        assert calls == [images.shape]
        assert np.array_equal(out, kde_histogram_backward(grad, images, cfg.histogram_spec()))


class TestReluAfterPool:
    """lenet runs each ReLU after its max-pool, on a quarter of the values.
    ReLU is monotone, so it commutes with the max, and a window whose max is
    not positive passes no gradient either way: the swap changes no bit."""

    @staticmethod
    def _logits_and_grads(model, x, labels):
        logits = model.forward(x)
        _, grad = nn.log_softmax_nll(logits, labels)
        model.backward(grad)
        return logits, [p.grad.copy() for p in model.parameters()]

    @pytest.mark.parametrize("case", ["digits", "ties", "signed-zeros", "nan"])
    def test_logits_and_gradients_match_relu_before_pool_bitwise(self, case, small_set):
        rng = np.random.default_rng(40)
        if case == "digits":
            x = batch_of(small_set, 16)
        elif case == "ties":
            # few levels and wide flat areas: tied windows, many all-negative
            x = normalize(rng.choice([0, 0, 0, 128, 255], size=(16, 1, 28, 28)))
            x[:4] = -1.0
        elif case == "signed-zeros":
            x = rng.choice([0.0, -0.0, -1.0], size=(16, 1, 28, 28))
        else:
            x = batch_of(small_set, 16).copy()
            x[3, 0, 10, 12] = np.nan
        labels = rng.integers(0, 10, 16)
        after = models.build_model(tiny_cfg("lenet"))
        conv1, pool1, relu1, conv2, pool2, relu2, *head = after.layers
        assert [type(layer) for layer in (pool1, relu1, pool2, relu2)] == [
            nn.MaxPool2d, nn.ReLU, nn.MaxPool2d, nn.ReLU,
        ]
        before = models.Model("lenet", [conv1, relu1, pool1, conv2, relu2, pool2, *head])
        logits, grads = self._logits_and_grads(after, x, labels)
        want_logits, want_grads = self._logits_and_grads(before, x, labels)
        assert np.array_equal(logits.view(np.uint64), want_logits.view(np.uint64))
        for got, want in zip(grads, want_grads):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if case == "nan":
            assert np.isnan(logits[3]).all() and not np.isnan(logits[:3]).any()


def reference_epoch(model, train_set, cfg):
    """One epoch as textbook as it gets: the full forward and backward of
    every batch, input gradient included, and selftest's out-of-place Adam
    per parameter."""
    inputs = train_set.take(slice(None))[:, None, :, :]
    params = model.parameters()
    m = [np.zeros_like(p.value) for p in params]
    v = [np.zeros_like(p.value) for p in params]
    order = np.random.default_rng([cfg.seed, 1]).permutation(train_set.count)
    for t, lo in enumerate(range(0, train_set.count, cfg.batch_size), start=1):
        idx = order[lo : lo + cfg.batch_size]
        logits = model.forward(inputs[idx])
        _, grad = nn.log_softmax_nll(logits, train_set.labels[idx])
        model.backward(grad)
        for i, p in enumerate(params):
            p.value[...], m[i], v[i] = _adam_reference(p.value, m[i], v[i], p.grad, t, cfg.lr)


class TestTraining:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_epoch_matches_textbook_loop_bitwise(self, arch):
        train_set = make_imageset(80, seed=25)
        cfg = tiny_cfg(arch)
        trained = models.build_model(cfg)
        models.train(trained, train_set, cfg)
        reference = models.build_model(cfg)
        reference_epoch(reference, train_set, cfg)
        for got, want in zip(trained.parameters(), reference.parameters()):
            assert np.array_equal(got.value, want.value), got.name

    @pytest.mark.parametrize(
        "arch, frozen", [("base", []), ("dadm", [models.HistogramLayer])], ids=["base", "dadm"]
    )
    def test_frozen_prefix_runs_forward_once_and_never_backward(self, arch, frozen, monkeypatch):
        # dadm's histogram is the only frozen prefix: base's first layer is trained
        train_set = make_imageset(80, seed=27)
        cfg = tiny_cfg(arch, epochs=2)
        model = models.build_model(cfg)
        prefix, trained = model.layers[: len(frozen)], model.layers[len(frozen)]
        assert [type(layer) for layer in prefix] == frozen and trained.params()
        assert not any(layer.params() for layer in prefix)
        calls = []

        def spy(owner, method):
            original = getattr(owner, method)

            def recording(*args, **kwargs):
                calls.append((owner, method, kwargs))
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, method, recording)

        spy(models, "_histograms")
        for layer in prefix:
            spy(layer, "forward")
            spy(layer, "backward")
        spy(trained, "backward")
        models.train(model, train_set, cfg)
        # dadm's histograms: one build, one forward per EVAL_BATCH chunk of
        # the set (32, 32 and 16 images), all before the first step
        chunks = len(range(0, train_set.count, models.EVAL_BATCH))
        histograms = [(models, "_histograms", {})] + [(layer, "forward", {}) for layer in prefix] * chunks
        steps = cfg.epochs * len(range(0, train_set.count, cfg.batch_size))
        step_calls = [(trained, "backward", {"input_grad": False})] * steps
        assert calls == (histograms if prefix else []) + step_calls

    def test_dadm_prefix_in_chunks_trains_and_evaluates_alike(self, monkeypatch):
        train_set, test_set = make_imageset(100, seed=28), make_imageset(3 * models.EVAL_BATCH + 5, seed=29)
        cfg = tiny_cfg("dadm")

        def run():
            model = models.build_model(cfg)
            models.train(model, train_set, cfg)
            reports = models.evaluate(model, test_set, list(TRANSFORM_KINDS), seed=5)
            return [p.value for p in model.parameters()], reports

        want_params, want_reports = run()
        # histograms built in chunks that end in a partial one: 100 training
        # images are 14 * 7 + 2, and the 101 test images 4 * 24 + 5 in
        # blocks whose sub-chunks end in partial ones (24 = 3 * 7 + 3)
        monkeypatch.setattr(models, "PREFIX_CHUNK", 24)
        monkeypatch.setattr(models, "EVAL_BATCH", 7)
        params, reports = run()
        assert all(np.array_equal(a, b) for a, b in zip(params, want_params))
        assert reports == want_reports

    @pytest.mark.parametrize("arch", ARCHS)
    def test_train_and_evaluate_read_no_whole_set_pixels(self, arch, monkeypatch):
        train_set, test_set = make_imageset(80, seed=30), make_imageset(40, seed=31)

        def whole_set(self):
            raise AssertionError("read a whole set's float pixels")

        monkeypatch.setattr(ImageSet, "pixels", property(whole_set))
        cfg = tiny_cfg(arch)
        model = models.build_model(cfg)
        models.train(model, train_set, cfg)
        assert len(models.evaluate(model, test_set, list(TRANSFORM_KINDS))) == len(TRANSFORM_KINDS)

    def test_lenet_train_memory_does_not_scale_with_float_pixels(self):
        # a set holds its bytes, and only each batch is normalized, so a
        # bigger set costs its shuffle order, not a float copy of its pixels
        cfg = tiny_cfg("lenet")
        peaks = {}
        for count in (512, 2048):
            train_set = make_imageset(count, seed=32)
            model = models.build_model(cfg)
            tracemalloc.start()
            models.train(model, train_set, cfg)
            peaks[count] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        float_copy_of_added = (2048 - 512) * 28 * 28 * 8
        assert peaks[2048] - peaks[512] < float_copy_of_added / 8

    def test_epoch_log_line_format(self):
        train_set = make_imageset(64, seed=26)
        cfg = tiny_cfg("base", epochs=2)
        lines = []
        models.train(models.build_model(cfg), train_set, cfg, log=lines.append)
        assert len(lines) == 2
        for epoch, line in enumerate(lines, start=1):
            match = re.fullmatch(
                r"epoch +(\d+)  loss (\d+\.\d{4})  train acc (\d+\.\d{2})%  "
                r"(\d+\.\d{2}) s  (\d+) img/s",
                line,
            )
            assert match, line
            assert int(match.group(1)) == epoch
            assert int(match.group(5)) > 0


    @pytest.mark.parametrize("arch", ARCHS)
    def test_one_epoch_descends(self, arch):
        train_set = make_imageset(512, seed=20)
        cfg = tiny_cfg(arch)
        model = models.build_model(cfg)
        inputs = train_set.pixels[:, None, :, :]
        initial, _ = nn.log_softmax_nll(model.forward(inputs[:256]), train_set.labels[:256])
        models.train(model, train_set, cfg)
        final, _ = nn.log_softmax_nll(model.forward(inputs[:256]), train_set.labels[:256])
        assert final < initial

    def test_same_seed_reproduces_bitwise(self):
        train_set = make_imageset(256, seed=21)
        curves = []
        params = []
        for _ in range(2):
            cfg = tiny_cfg("base", epochs=2)
            model = models.build_model(cfg)
            curves.append(models.train(model, train_set, cfg))
            params.append([p.value.copy() for p in model.parameters()])
        assert [(s.epoch, s.mean_loss, s.train_accuracy) for s in curves[0]] == [
            (s.epoch, s.mean_loss, s.train_accuracy) for s in curves[1]
        ]
        for a, b in zip(params[0], params[1]):
            assert np.array_equal(a, b)

    def test_nonfinite_loss_aborts_with_location(self):
        train_set = make_imageset(64, seed=23)
        cfg = tiny_cfg("base")
        model = models.build_model(cfg)
        model.parameters()[0].value[0, 0] = np.nan
        with pytest.raises(NonFiniteError) as err:
            models.train(model, train_set, cfg)
        assert "epoch 1" in str(err.value) and "batch 0" in str(err.value)

    def test_empty_set_is_refused_before_any_work(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("worked on an empty set")

        monkeypatch.setattr(models, "_histograms", unexpected)
        monkeypatch.setattr(models.Model, "forward", unexpected)
        empty = ImageSet(np.zeros((0, 28, 28), np.uint8), np.zeros(0, np.int64))
        for arch in ("base", "dadm"):
            cfg = tiny_cfg(arch)
            with pytest.raises(ValueError, match="training set holds no images"):
                models.train(models.build_model(cfg), empty, cfg)

    def test_curve_rows_per_epoch(self):
        train_set = make_imageset(64, seed=24)
        cfg = tiny_cfg("base", epochs=3)
        model = models.build_model(cfg)
        curve = models.train(model, train_set, cfg)
        assert [s.epoch for s in curve] == [1, 2, 3]


def test_bad_seed_refused_with_no_kind_listed(small_set):
    # the seed is checked once, before any work, not through each listed kind
    model = models.build_model(tiny_cfg("base"))
    for seed in (-1, "x", 1.5):
        with pytest.raises(ValueError, match="rng_seed"):
            models.evaluate(model, small_set, [], seed=seed)


class TestEvaluate:
    def setup_method(self):
        self.train_set = make_imageset(512, seed=31)
        self.test_set = make_imageset(200, seed=32)
        self.cfg = tiny_cfg("base", epochs=3)
        self.model = models.build_model(self.cfg)
        models.train(self.model, self.train_set, self.cfg)

    def test_none_transform_zero_delta(self):
        [report] = models.evaluate(self.model, self.test_set, ["none"])
        assert report.delta == 0.0
        assert report.transform == "none"

    def test_none_only_seeds_no_stream(self, monkeypatch):
        # train's final test pass asks for none alone
        def unexpected(seed, indices):
            raise AssertionError("seeded a transform stream")

        monkeypatch.setattr(models, "stream_states", unexpected)
        [report] = models.evaluate(self.model, self.test_set, ["none"])
        assert report.delta == 0.0

    def test_overall_is_support_weighted_mean(self):
        [report] = models.evaluate(self.model, self.test_set, ["none"])
        support = np.bincount(self.test_set.labels, minlength=10)
        weighted = (np.array(report.per_class) * support).sum() / support.sum()
        assert abs(weighted - report.top1) < 1e-9

    def test_delta_against_original(self):
        original, shuffled = models.evaluate(self.model, self.test_set, ["none", "shuffle"], seed=1)
        assert abs(shuffled.delta - (original.top1 - shuffled.top1)) < 1e-12
        # a kind evaluated alone gives the same report as inside a battery
        [again] = models.evaluate(self.model, self.test_set, ["shuffle"], seed=1)
        assert again == shuffled
        # kinds are read more than once, so an iterator of them is taken whole
        reports = models.evaluate(self.model, self.test_set, iter(["none", "shuffle"]), seed=1)
        assert reports == [original, shuffled]

    def test_bad_kind_or_seed_rejected_before_any_pass(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("ran a pass before validating")

        # every pass transforms a chunk or runs the model's layers
        monkeypatch.setattr(models, "transform_batch", unexpected)
        monkeypatch.setattr(models.Model, "forward", unexpected)
        with pytest.raises(ValueError, match="zoom"):
            models.evaluate(self.model, self.test_set, ["none", "zoom"])
        for seed in (-1, 1.5, "3", True):
            with pytest.raises(ValueError, match="rng_seed"):
                models.evaluate(self.model, self.test_set, ["none", "flip"], seed=seed)
        with pytest.raises(ValueError, match="rotate"):
            models.evaluate(self.model, self.test_set, ["rotate", "none", "rotate"])

    @pytest.mark.parametrize("arch", ["base", "dadm"])
    def test_empty_set_is_refused_before_any_work(self, arch, monkeypatch):
        # not numpy's "Mean of empty slice" warning, nor a NaN top-1
        def unexpected(*args, **kwargs):
            raise AssertionError("worked on an empty set")

        model = models.build_model(tiny_cfg(arch))
        monkeypatch.setattr(models, "stream_states", unexpected)
        monkeypatch.setattr(models.Model, "forward", unexpected)
        empty = ImageSet(np.zeros((0, 28, 28), np.uint8), np.zeros(0, np.int64))
        with pytest.raises(ValueError, match="test set holds no images"):
            models.evaluate(model, empty, list(TRANSFORM_KINDS))

    def test_battery_predicts_originals_once(self, monkeypatch):
        # base has no frozen prefix: each EVAL_BATCH chunk of each kind is
        # one forward pass from the first layer
        calls = []
        forward = models.Model.forward

        def counting_forward(model, x, start=0):
            calls.append((x, start))
            return forward(model, x, start=start)

        monkeypatch.setattr(models.Model, "forward", counting_forward)
        test_set = make_imageset(300, seed=33)
        assert models.EVAL_BATCH < test_set.count  # a chunk boundary falls inside the set
        kinds = ["flip", "none", "rotate"]
        reports = models.evaluate(self.model, test_set, kinds, seed=2)
        assert [r.transform for r in reports] == kinds
        # per chunk: the originals once, then one pass per transform other than none
        starts = range(0, test_set.count, models.EVAL_BATCH)
        assert len(calls) == 3 * len(starts) and {start for _, start in calls} == {0}
        for lo, (original, *transformed) in zip(starts, (calls[i : i + 3] for i in range(0, len(calls), 3))):
            chunk = normalize(test_set.images[lo : lo + models.EVAL_BATCH])[:, None, :, :]
            assert np.array_equal(original[0], chunk)
            assert not any(np.shares_memory(x, original[0]) for x, _ in transformed)
        monkeypatch.setattr(models.Model, "forward", forward)
        for i, kind in ((0, "flip"), (2, "rotate")):
            out = transform_set(test_set, kind, 2)
            preds = self.model.forward(out[:, None]).argmax(1)
            top1, per_class = models.accuracy_breakdown(preds, test_set.labels)
            assert (reports[i].top1, reports[i].per_class) == (top1, per_class)
        assert reports[1].delta == 0.0

    def test_chunks_read_their_slice_of_one_record(self, monkeypatch, tmp_path):
        # 300 images end in a tail chunk of 6 at EVAL_BATCH 7 and of 12 at 32
        test_set = make_imageset(300, seed=36)
        seed = 2**64 + 3
        transform_batch = models.transform_batch
        outs = []

        def recording(images, streams, kind):
            outs.append((kind, transform_batch(images, streams, kind)))
            return outs[-1][1]

        monkeypatch.setattr(models, "transform_batch", recording)
        written = []
        for size in (7, 32):
            monkeypatch.setattr(models, "EVAL_BATCH", size)
            outs.clear()
            reports = models.evaluate(self.model, test_set, list(TRANSFORM_KINDS), seed=seed)
            for kind in TRANSFORM_KINDS[1:]:
                out = np.concatenate([o for k, o in outs if k == kind])
                assert out.tobytes() == transform_set(test_set, kind, seed).tobytes(), (size, kind)
            path = tmp_path / f"reports-{size}.csv"
            write_eval_reports(path, reports, {"eval_seed": seed})
            written.append(path.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("arch", ["lenet", "dadm"])
    def test_chunk_size_changes_no_report(self, arch, monkeypatch):
        cfg = tiny_cfg(arch)
        model = models.build_model(cfg)
        models.train(model, self.train_set, cfg)
        test_set = make_imageset(3 * models.EVAL_BATCH + 5, seed=34)  # ends in a partial chunk
        kinds = list(TRANSFORM_KINDS)
        chunked = models.evaluate(model, test_set, kinds, seed=3)
        # (PREFIX_CHUNK, EVAL_BATCH): the set as one block of one sub-chunk;
        # blocks that end in a partial sub-chunk; blocks smaller than one
        for prefix_chunk, eval_batch in ((test_set.count,) * 2, (24, 7), (5, 32)):
            monkeypatch.setattr(models, "PREFIX_CHUNK", prefix_chunk)
            monkeypatch.setattr(models, "EVAL_BATCH", eval_batch)
            assert models.evaluate(model, test_set, kinds, seed=3) == chunked, (prefix_chunk, eval_batch)

    def test_lenet_holds_one_chunk_after_evaluate(self):
        # every layer keeps only its newest forward's arrays, so after a
        # battery the model holds one chunk's buffers, not the set's.  The
        # one-image batch owns its memory: conv1 keeps its input, which for
        # one image is a view of the caller's array
        model = models.build_model(tiny_cfg("lenet"))
        model.forward(batch_of(self.test_set, 1).copy())
        per_image = _held_bytes(model)
        models.evaluate(model, make_imageset(2 * models.EVAL_BATCH, seed=35), ["none", "rotate"], seed=4)
        held = _held_bytes(model)
        assert held == models.EVAL_BATCH * per_image
        # about 60 KiB per image, with no im2col buffer held: chunks of up to
        # 64 images stay under this bound (the whole-batch buffers held 233
        # KiB per image)
        assert held < 4 * 2**20

    def test_lenet_forward_builds_no_whole_batch_im2col_buffer(self):
        # conv1's im2col of 256 images would be 29.5 MB at once; in blocks of
        # output rows one forward peaks at about 16 MiB, all buffers included
        model = models.build_model(tiny_cfg("lenet"))
        x = batch_of(make_imageset(256, seed=36), 256)
        tracemalloc.start()
        model.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("arch", ARCHS)
    def test_non_finite_logits_are_a_numeric_error_naming_kind_and_model(self, arch):
        # a diverged model's overflow is reported, not warned about
        model = models.build_model(tiny_cfg(arch))
        for param in model.parameters():
            param.value[...] = 1e300
        with pytest.raises(NonFiniteError, match=rf"logits under none \({arch}\)"):
            models.evaluate(model, self.test_set, ["none", "flip"])

    def test_dadm_prediction_invariance_on_multiset_transforms(self):
        cfg = tiny_cfg("dadm", epochs=2)
        model = models.build_model(cfg)
        models.train(model, self.train_set, cfg)
        base_preds = model.forward(self.test_set.pixels[:, None]).argmax(1)
        for kind in ("flip", "shuffle"):
            out = transform_set(self.test_set, kind, 2)
            preds = model.forward(out[:, None]).argmax(1)
            assert (preds == base_preds).mean() >= 0.999


@pytest.fixture(scope="module")
def trained_lenet_dadm():
    train_set = make_imageset(256, seed=37)
    trained = {}
    for arch in ("lenet", "dadm"):
        cfg = tiny_cfg(arch)
        trained[arch] = models.build_model(cfg)
        models.train(trained[arch], train_set, cfg)
    return trained


def chunk_by_chunk_reports(model, test_set, kinds, seed):
    """The battery the plain way: each kind's whole transformed set, each
    EVAL_BATCH chunk forwarded from the first layer on its own."""
    preds = {}
    for kind in ["none", *kinds]:
        x = transform_set(test_set, kind, seed)[:, None, :, :]
        chunks = range(0, test_set.count, models.EVAL_BATCH)
        preds[kind] = np.concatenate([model.forward(x[lo : lo + models.EVAL_BATCH]).argmax(axis=1) for lo in chunks])
    original_top1, _ = models.accuracy_breakdown(preds["none"], test_set.labels)
    reports = []
    for kind in kinds:
        top1, per_class = models.accuracy_breakdown(preds[kind], test_set.labels)
        reports.append(models.EvalReport(model.architecture, kind, top1, per_class, original_top1 - top1))
    return reports


def _counts_changed(test_set, kind, seed):
    """Whether each image's multiset of pixel values differs from its
    original's under ``kind``, from the sorted pixels of the float battery."""
    moved = transform_set(test_set, kind, seed).reshape(test_set.count, -1)
    before = test_set.pixels.reshape(test_set.count, -1)
    return (np.sort(moved, axis=1) != np.sort(before, axis=1)).any(axis=1)


def spy_rows(monkeypatch, layer):
    """Record the batch size of every forward call of one layer."""
    rows = []
    forward = layer.forward

    def recording(x):
        rows.append(len(x))
        return forward(x)

    monkeypatch.setattr(layer, "forward", recording)
    return rows


class TestEvaluateBlocks:
    """A frozen prefix (dadm's histogram) runs EVAL_BATCH images at a time
    into a PREFIX_CHUNK block, the trained layers run once per block, and a
    kind whose block of prefix outputs equals the originals' skips them."""

    # 300 images end in a partial block and a partial sub-chunk at both
    # settings: 256 + 44 (32 + 12) and 12 * 24 + 12 (7 + 5)
    @pytest.mark.parametrize("sizes", [None, (24, 7)], ids=["default", "24-7"])
    @pytest.mark.parametrize("arch", ["lenet", "dadm"])
    def test_reports_equal_chunk_by_chunk_reference(self, arch, sizes, trained_lenet_dadm, monkeypatch,
                                                    tmp_path):
        if sizes:
            monkeypatch.setattr(models, "PREFIX_CHUNK", sizes[0])
            monkeypatch.setattr(models, "EVAL_BATCH", sizes[1])
        model = trained_lenet_dadm[arch]
        test_set = make_imageset(300, seed=38)
        kinds = list(TRANSFORM_KINDS)
        written = []
        for reports in (models.evaluate(model, test_set, kinds, seed=6),
                        chunk_by_chunk_reports(model, test_set, kinds, seed=6)):
            path = tmp_path / "reports.csv"
            write_eval_reports(path, reports, {"eval_seed": 6})
            written.append(path.read_bytes())
        assert written[0] == written[1]

    def test_trained_layers_run_once_per_block_and_never_for_flip_or_shuffle(self, trained_lenet_dadm,
                                                                              monkeypatch):
        monkeypatch.setattr(models, "PREFIX_CHUNK", 24)
        monkeypatch.setattr(models, "EVAL_BATCH", 7)
        model = trained_lenet_dadm["dadm"]
        rows = spy_rows(monkeypatch, model.layers[1])
        test_set = make_imageset(58, seed=39)  # blocks of 24, 24 and 10
        models.evaluate(model, test_set, ["flip", "rotate", "none", "shuffle", "translate"], seed=7)
        # each block: none, rotate and translate, in the order evaluate runs them
        assert rows == [24] * 3 + [24] * 3 + [10] * 3
        rows.clear()
        models.evaluate(model, test_set, ["flip", "shuffle"], seed=7)
        assert rows == [24, 24, 10]  # the originals alone

    def test_one_pixel_off_flip_runs_the_trained_layers_for_its_block(self, trained_lenet_dadm, monkeypatch):
        monkeypatch.setattr(models, "PREFIX_CHUNK", 24)
        monkeypatch.setattr(models, "EVAL_BATCH", 7)
        model = trained_lenet_dadm["dadm"]
        test_set = make_imageset(58, seed=39)
        target, seed = 30, 8  # block 1, the sub-chunk of images 28-34
        target_stream = stream_states(seed, [target])[0]
        transform_batch = models.transform_batch
        stroke = 230  # the stroke byte of make_imageset's bars

        def one_pixel_off(images, streams, kind):
            out = transform_batch(images, streams, kind)
            hit = np.flatnonzero(streams == target_stream)
            if kind == "flip" and hit.size:
                out = out.copy()
                # a background pixel takes the stroke's value: a byte in a
                # chunk of bytes, its pixel value in a chunk of floats
                out[hit[0], 0, 0] = stroke if out.dtype == np.uint8 else normalize(stroke)
            return out

        monkeypatch.setattr(models, "transform_batch", one_pixel_off)
        rows = spy_rows(monkeypatch, model.layers[1])
        seen = {}
        accuracy_breakdown = models.accuracy_breakdown

        def recording(predictions, labels):
            seen.setdefault("preds", predictions.copy())
            return accuracy_breakdown(predictions, labels)

        monkeypatch.setattr(models, "accuracy_breakdown", recording)
        models.evaluate(model, test_set, ["flip"], seed=seed)
        assert rows == [24, 24, 24, 10]  # the originals' three blocks, then flip's block 1
        flipped = transform_set(test_set, "flip", seed)
        flipped[target, 0, 0] = normalize(stroke)
        assert np.array_equal(seen["preds"], model.forward(flipped[:, None, :, :]).argmax(axis=1))

    def test_dadm_reports_equal_per_kind_kde_reference(self, trained_lenet_dadm, monkeypatch):
        # each kind's whole transformed set through kde_histogram, then the
        # trained layers over the same blocks; the set's translate keeps four
        # rows' byte counts (18, 44, 48 and 52) and changes the rest, and
        # its 58 images span three blocks of 24
        monkeypatch.setattr(models, "PREFIX_CHUNK", 24)
        monkeypatch.setattr(models, "EVAL_BATCH", 7)
        model = trained_lenet_dadm["dadm"]
        test_set, seed = make_imageset(58, seed=39), 3
        kept = ~_counts_changed(test_set, "translate", seed)
        assert 0 < kept.sum() < test_set.count
        seen = []
        accuracy_breakdown = models.accuracy_breakdown

        def recording(predictions, labels):
            seen.append(predictions.copy())
            return accuracy_breakdown(predictions, labels)

        monkeypatch.setattr(models, "accuracy_breakdown", recording)
        kinds = list(TRANSFORM_KINDS)
        reports = models.evaluate(model, test_set, kinds, seed=seed)
        spec = model.layers[0].spec
        preds = {}
        for kind in ["none", *kinds]:
            hist = kde_histogram(transform_set(test_set, kind, seed), spec)
            blocks = range(0, test_set.count, models.PREFIX_CHUNK)
            logits = [model.forward(hist[lo : lo + models.PREFIX_CHUNK], start=1) for lo in blocks]
            preds[kind] = np.concatenate(logits).argmax(axis=1)
        assert [p.tolist() for p in seen[1:]] == [preds[kind].tolist() for kind in kinds]
        top1, _ = accuracy_breakdown(preds["none"], test_set.labels)
        for kind, report in zip(kinds, reports):
            kind_top1, per_class = accuracy_breakdown(preds[kind], test_set.labels)
            assert report == models.EvalReport("dadm", kind, kind_top1, per_class, top1 - kind_top1)

    def test_only_rows_whose_byte_counts_changed_are_histogrammed(self, trained_lenet_dadm, monkeypatch):
        monkeypatch.setattr(models, "PREFIX_CHUNK", 24)
        monkeypatch.setattr(models, "EVAL_BATCH", 7)
        model = trained_lenet_dadm["dadm"]
        test_set, seed = make_imageset(58, seed=39), 3
        seen = []

        def recording(images, spec):
            seen.append(np.asarray(images).reshape(len(images), -1))
            return kde_histogram(images, spec)

        monkeypatch.setattr(models, "kde_histogram", recording)
        rows = {}
        for kind in TRANSFORM_KINDS:
            seen.clear()
            models.evaluate(model, test_set, [kind], seed=seed)
            rows[kind] = sorted(row.tobytes() for row in np.concatenate(seen))
        originals = [row.tobytes() for row in test_set.pixels.reshape(test_set.count, -1)]
        assert rows["none"] == rows["flip"] == rows["shuffle"] == sorted(originals)
        changed = _counts_changed(test_set, "translate", seed)
        for kind, reaching in (("rotate", np.ones(test_set.count, dtype=bool)), ("translate", changed)):
            moved = transform_set(test_set, kind, seed)[reaching].reshape(reaching.sum(), -1)
            assert rows[kind] == sorted(originals + [row.tobytes() for row in moved]), kind

    def test_dadm_holds_one_block_after_evaluate(self, trained_lenet_dadm, monkeypatch):
        # every layer keeps only its newest forward's arrays: after a battery
        # over three blocks, dadm's layers hold at most one block's rows
        model = trained_lenet_dadm["dadm"]
        test_set = make_imageset(82, seed=40)
        model.forward(test_set.take(slice(0, 1))[:, None, :, :])
        one = _held_bytes(model)
        model.forward(test_set.take(slice(0, 2))[:, None, :, :])
        per_row = _held_bytes(model) - one
        monkeypatch.setattr(models, "PREFIX_CHUNK", 24)
        monkeypatch.setattr(models, "EVAL_BATCH", 7)
        models.evaluate(model, test_set, list(TRANSFORM_KINDS), seed=9)
        assert _held_bytes(model) <= one + (models.PREFIX_CHUNK - 1) * per_row
