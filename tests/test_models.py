"""Architectures, training loop, evaluation."""

import re

import numpy as np
import pytest

from conftest import make_imageset, transform_set
from histlearn import models, nn
from histlearn.errors import NonFiniteError
from histlearn.histogram import kde_histogram, kde_histogram_backward

ARCHS = ("lenet", "base", "cnn", "dadm")


def tiny_cfg(arch, **kw):
    defaults = dict(epochs=1, batch_size=32, seed=0)
    defaults.update(kw)
    return models.ModelConfig(arch, **defaults)


def batch_of(image_set, n):
    return image_set.pixels[:n, None, :, :]


class TestBuildModel:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_forward_shapes(self, arch, small_set):
        model = models.build_model(tiny_cfg(arch))
        logits = model.forward(batch_of(small_set, 3))
        assert logits.shape == (3, 10)

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
            preds = models.predict(model, balanced_set.pixels)
            acc = 100.0 * (preds == balanced_set.labels).mean()
            assert 7.0 <= acc <= 13.0, f"{arch}: {acc}"

    def test_dadm_logits_shuffle_invariant(self, small_set):
        model = models.build_model(tiny_cfg("dadm"))
        shuffled = transform_set(small_set, "shuffle", 1)
        a = model.forward(batch_of(small_set, 8))
        b = model.forward(shuffled.pixels[:8, None, :, :])
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


def reference_epoch(model, train_set, cfg):
    """One epoch as textbook as it gets: the full forward and backward of
    every batch, input gradient included, and out-of-place Adam per
    parameter."""
    lr, b1, b2, eps = cfg.lr, 0.9, 0.999, 1e-8
    inputs = train_set.pixels[:, None, :, :]
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
            g = p.grad.copy()
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g**2
            m_hat = m[i] / (1.0 - b1**t)
            v_hat = v[i] / (1.0 - b2**t)
            p.value[...] = p.value - lr * m_hat / (np.sqrt(v_hat) + eps)


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
        "arch, frozen", [("base", nn.Flatten), ("dadm", models.HistogramLayer)], ids=["base", "dadm"]
    )
    def test_frozen_prefix_runs_forward_once_and_never_backward(self, arch, frozen, monkeypatch):
        train_set = make_imageset(80, seed=27)
        cfg = tiny_cfg(arch, epochs=2)
        model = models.build_model(cfg)
        prefix, trained = model.layers[0], model.layers[1]
        assert isinstance(prefix, frozen) and not prefix.params() and trained.params()
        calls = []

        def spy(layer, method):
            original = getattr(layer, method)

            def recording(*args, **kwargs):
                calls.append((layer, method, kwargs))
                return original(*args, **kwargs)

            monkeypatch.setattr(layer, method, recording)

        spy(prefix, "forward")
        spy(prefix, "backward")
        spy(trained, "backward")
        models.train(model, train_set, cfg)
        steps = cfg.epochs * len(range(0, train_set.count, cfg.batch_size))
        assert [c for c in calls if c[0] is prefix] == [(prefix, "forward", {})]
        assert [c for c in calls if c[0] is trained] == [(trained, "backward", {"input_grad": False})] * steps

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

    def test_curve_rows_per_epoch(self):
        train_set = make_imageset(64, seed=24)
        cfg = tiny_cfg("base", epochs=3)
        model = models.build_model(cfg)
        curve = models.train(model, train_set, cfg)
        assert [s.epoch for s in curve] == [1, 2, 3]


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

    def test_bad_kind_or_seed_rejected_before_any_pass(self, monkeypatch):
        def unexpected(model, images):
            raise AssertionError("predicted before validating")

        monkeypatch.setattr(models, "predict", unexpected)
        with pytest.raises(ValueError, match="zoom"):
            models.evaluate(self.model, self.test_set, ["none", "zoom"])
        with pytest.raises(ValueError, match="rng_seed"):
            models.evaluate(self.model, self.test_set, ["none", "flip"], seed=-1)

    def test_battery_predicts_originals_once(self, monkeypatch):
        calls = []
        predict = models.predict

        def counting_predict(model, images):
            calls.append(images)
            return predict(model, images)

        monkeypatch.setattr(models, "predict", counting_predict)
        test_set = make_imageset(300, seed=33)
        assert models.EVAL_BATCH < test_set.count  # a chunk boundary falls inside the set
        kinds = ["flip", "none", "rotate"]
        reports = models.evaluate(self.model, test_set, kinds, seed=2)
        assert [r.transform for r in reports] == kinds
        # per chunk: the originals once, then one pass per transform other than none
        assert len(calls) == 6
        for lo, (original, *transformed) in ((0, calls[:3]), (models.EVAL_BATCH, calls[3:])):
            assert np.array_equal(original, test_set.pixels[lo : lo + models.EVAL_BATCH])
            assert np.shares_memory(original, test_set.pixels)
            assert not any(np.shares_memory(c, test_set.pixels) for c in transformed)
        for i, kind in ((0, "flip"), (2, "rotate")):
            out = transform_set(test_set, kind, 2)
            top1, per_class = models.accuracy_breakdown(predict(self.model, out.pixels), out.labels)
            assert (reports[i].top1, reports[i].per_class) == (top1, per_class)
        assert reports[1].delta == 0.0

    def test_dadm_prediction_invariance_on_multiset_transforms(self):
        cfg = tiny_cfg("dadm", epochs=2)
        model = models.build_model(cfg)
        models.train(model, self.train_set, cfg)
        base_preds = models.predict(model, self.test_set.pixels)
        for kind in ("flip", "shuffle"):
            out = transform_set(self.test_set, kind, 2)
            preds = models.predict(model, out.pixels)
            assert (preds == base_preds).mean() >= 0.999

