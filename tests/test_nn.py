"""Layers, loss, Adam, and the finite-difference harness."""

import numpy as np
import pytest

from conftest import assert_check_passed
from histlearn import nn
from histlearn.distlayers import ArithmeticDistributionLayer, init_kernel
from histlearn.errors import NonFiniteError, ShapeError
from histlearn.histogram import HistogramSpec
from histlearn.models import HistogramLayer
from histlearn.selftest import _adam_reference, _probe_input, _probe_param


def conv2d_reference(x, weight, bias, grad):
    """Direct-definition conv forward and gradients, one loop per kernel tap."""
    b, c, h, w = x.shape
    k, _, kh, kw = weight.shape
    oh, ow = h - kh + 1, w - kw + 1
    y = np.zeros((b, k, oh, ow)) + bias[None, :, None, None]
    dw = np.zeros_like(weight)
    dx = np.zeros_like(x)
    for ci in range(c):
        for u in range(kh):
            for v in range(kw):
                patch = x[:, ci, u : u + oh, v : v + ow]  # (B, OH, OW)
                tap = weight[:, ci, u, v][None, :, None, None]
                y += tap * patch[:, None]
                dw[:, ci, u, v] = (grad * patch[:, None]).sum(axis=(0, 2, 3))
                dx[:, ci, u : u + oh, v : v + ow] += (tap * grad).sum(axis=1)
    return y, dw, grad.sum(axis=(0, 2, 3)), dx


def conv2d_whole_buffer(x, weight, bias, grad):
    """Conv forward and gradients through one im2col buffer of the whole
    batch and one GEMM, as ``Conv2d`` computed them before it worked in
    blocks of output rows: the bits the blocked layer keeps."""
    b, c, h, w = x.shape
    k, _, kh, kw = weight.shape
    oh, ow = h - kh + 1, w - kw + 1
    xt = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).reshape(c, h, w * b)
    cols = np.empty((c, kh, kw, oh, ow * b))
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = xt[:, u : u + oh, v * b : (v + ow) * b]
    cols = cols.reshape(c * kh * kw, oh * ow * b)
    wmat = weight.reshape(k, -1)
    y = wmat @ cols
    y += bias[:, None]
    g_last = np.ascontiguousarray(grad.transpose(1, 2, 3, 0)).reshape(k, oh * ow * b)
    # per output row: (OH, K, OW*B) @ (OH, OW*B, C*kh*kw), summed over rows
    rows = g_last.reshape(k, oh, ow * b).transpose(1, 0, 2)
    dw = np.sum(rows @ cols.reshape(-1, oh, ow * b).transpose(1, 2, 0), axis=0)
    dcols = (wmat.T @ g_last).reshape(c, kh, kw, oh, ow * b)
    dx = np.zeros((c, h, w * b))
    for u in range(kh):
        for v in range(kw):
            dx[:, u : u + oh, v * b : (v + ow) * b] += dcols[:, u, v]
    return (
        y.reshape(k, oh, ow, b).transpose(3, 0, 1, 2),
        dw.reshape(weight.shape),
        np.sum(g_last, axis=1),
        dx.reshape(c, h, w, b).transpose(3, 0, 1, 2),
    )


def maxpool_reference(x, grad):
    """2x2/2 max pool by explicit loops; ties go to the first tap in row-major order."""
    b, c, h, w = x.shape
    out = np.zeros((b, c, h // 2, w // 2))
    dx = np.zeros_like(x)
    for n in range(b):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    taps = [(2 * i + r, 2 * j + q) for r in (0, 1) for q in (0, 1)]
                    values = [x[n, ci, r, q] for r, q in taps]
                    first = values.index(max(values))
                    out[n, ci, i, j] = values[first]
                    r, q = taps[first]
                    dx[n, ci, r, q] = grad[n, ci, i, j]
    return out, dx


class TestLinear:
    def test_flattened_image_to_features(self):
        rng = np.random.default_rng(0)
        layer = nn.Linear(784, 256, rng)
        y = layer.forward(rng.uniform(-1, 1, (2, 784)))
        assert y.shape == (2, 256)

    def test_identity_weights(self):
        rng = np.random.default_rng(0)
        layer = nn.Linear(4, 4, rng)
        layer.weight.value[...] = np.eye(4)
        layer.bias.value[...] = 0.0
        x = np.array([[0.5, -1.0, 2.0, 0.0]])
        assert np.array_equal(layer.forward(x), x)

    def test_finite_difference_grads(self, property_results):
        # input, weight and bias gradients against central differences
        assert_check_passed(property_results, "gradient-linear", 1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        rng = np.random.default_rng(2)
        layer = nn.Linear(4, 3, rng)
        with pytest.raises(ShapeError) as err:
            layer.forward(np.zeros((2, 5)))
        assert "(2, 5)" in str(err.value) and "(3, 4)" in str(err.value)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        layer = nn.Linear(6, 4, rng)
        xs = rng.standard_normal((5, 6))
        batched = layer.forward(xs)
        for i in range(5):
            assert np.allclose(batched[i], layer.forward(xs[i : i + 1])[0], atol=1e-12)

    def test_image_batch_is_its_rows(self):
        # (B, C, H, W) reads as (B, C*H*W) rows: the same bits forward and
        # for the parameters, and the input gradient in the input's shape
        rng = np.random.default_rng(6)
        layer = nn.Linear(2 * 3 * 4, 5, rng)
        x = rng.standard_normal((3, 2, 3, 4))
        g = rng.standard_normal((3, 5))
        got_y, got_dx = layer.forward(x), layer.backward(g)
        got_grads = [p.grad.copy() for p in layer.params()]
        rows = x.reshape(3, -1)
        want_y, want_dx = layer.forward(rows), layer.backward(g)
        assert np.array_equal(got_y, want_y)
        assert all(np.array_equal(a, p.grad) for a, p in zip(got_grads, layer.params()))
        assert got_dx.shape == x.shape and np.array_equal(got_dx, want_dx.reshape(x.shape))
        layer.forward(x)
        assert layer.backward(g, input_grad=False) is None

    def test_batch_innermost_input_is_read_in_place(self):
        # a convolution's output, (C, H, W, B) in memory, gives the bits of
        # its C-contiguous copy, and its input gradient comes back in the
        # same memory order, where the convolution's backward reads it
        rng = np.random.default_rng(8)
        layer = nn.Linear(2 * 3 * 4, 5, rng)
        x = np.ascontiguousarray(rng.standard_normal((2, 3, 4, 6))).transpose(3, 0, 1, 2)
        g = rng.standard_normal((6, 5))
        got_y, got_dx = layer.forward(x), layer.backward(g)
        assert np.shares_memory(layer._x, x)
        got_grads = [p.grad.copy() for p in layer.params()]
        want_y, want_dx = layer.forward(np.ascontiguousarray(x)), layer.backward(g)
        assert np.array_equal(got_y, want_y)
        assert all(np.array_equal(a, p.grad) for a, p in zip(got_grads, layer.params()))
        assert np.array_equal(got_dx, want_dx)
        assert got_dx.transpose(1, 2, 3, 0).flags.c_contiguous and want_dx.flags.c_contiguous

    def test_finite_difference_grads_on_image_batch(self):
        rng = np.random.default_rng(7)
        layer = nn.Linear(2 * 2 * 3, 4, rng)
        x = rng.standard_normal((2, 2, 2, 3))
        w = rng.standard_normal((2, 4))
        assert nn.grad_check(_probe_input(layer, w), x) < 1e-6


# lenet's conv1 and conv2 and cnn's conv1 at batch 1, 32 and 64, with
# IM2COL_BYTES at its default, at one output row a block, and at five rows a
# block, so that the last block of every shape is partial; the batch-64
# default case keeps the plain shape id
CONV_CASES = [
    pytest.param(*shape, batch, blocks, id=name if (batch, blocks) == (64, "default") else f"{name}-{batch}-{blocks}")
    for shape, name in (((1, 6, 5, 28), "lenet-conv1"), ((6, 16, 5, 12), "lenet-conv2"), ((1, 4, 3, 28), "cnn-conv1"))
    for batch in (1, 32, 64)
    for blocks in ("default", "one-row", "partial")
]


class TestConv2d:
    def test_output_shape(self):
        rng = np.random.default_rng(4)
        layer = nn.Conv2d(1, 6, 5, 5, rng)
        y = layer.forward(rng.standard_normal((2, 1, 28, 28)))
        assert y.shape == (2, 6, 24, 24)

    def test_one_by_one_identity_kernel(self):
        rng = np.random.default_rng(5)
        layer = nn.Conv2d(1, 1, 1, 1, rng)
        layer.weight.value[...] = 1.0
        layer.bias.value[...] = 0.0
        x = rng.standard_normal((1, 1, 6, 6))
        assert np.array_equal(layer.forward(x), x)

    def test_finite_difference_grads(self, property_results):
        # input, weight and bias gradients, one and several channels
        assert_check_passed(property_results, "gradient-conv2d", 1e-6)

    def test_kernel_larger_than_input(self):
        rng = np.random.default_rng(7)
        layer = nn.Conv2d(1, 1, 5, 5, rng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 1, 4, 4)))

    def test_channel_mismatch(self):
        rng = np.random.default_rng(8)
        layer = nn.Conv2d(3, 2, 2, 2, rng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 1, 6, 6)))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(9)
        layer = nn.Conv2d(2, 3, 3, 3, rng)
        xs = rng.standard_normal((4, 2, 7, 7))
        batched = layer.forward(xs)
        for i in range(4):
            assert np.allclose(batched[i], layer.forward(xs[i : i + 1])[0], atol=1e-12)

    @staticmethod
    def _blocked_layer(monkeypatch, blocks, c_in, c_out, kernel, size, batch):
        """A layer after a forward and backward of random ``batch`` images
        at one of ``CONV_CASES``' block sizes; returns the layer, its
        outputs ``(y, dx)`` and its inputs ``(x, g)``."""
        out = size - kernel + 1
        row_bytes = c_in * kernel * kernel * out * batch * 8
        budget = {"default": nn.IM2COL_BYTES, "one-row": 1, "partial": 5 * row_bytes}[blocks]
        monkeypatch.setattr(nn, "IM2COL_BYTES", budget)
        rng = np.random.default_rng(20)
        layer = nn.Conv2d(c_in, c_out, kernel, kernel, rng)
        x = rng.standard_normal((batch, c_in, size, size))
        g = rng.standard_normal((batch, c_out, out, out))
        y = layer.forward(x)
        dx = layer.backward(g)
        starts = [r0 for r0, _, _ in layer._im2col_blocks()]
        rows = {"default": max(1, budget // row_bytes), "one-row": 1, "partial": 5}[blocks]
        assert starts == list(range(0, out, rows))
        return layer, (y, dx), (x, g)

    @pytest.mark.parametrize("c_in,c_out,kernel,size,batch,blocks", CONV_CASES)
    def test_production_shapes_match_loop_reference(self, monkeypatch, c_in, c_out, kernel, size, batch, blocks):
        layer, (y, dx), (x, g) = self._blocked_layer(monkeypatch, blocks, c_in, c_out, kernel, size, batch)
        ref = conv2d_reference(x, layer.weight.value, layer.bias.value, g)
        # batch-innermost: (K, OH, OW, B) in memory, an NCHW-shaped view
        assert y.transpose(1, 2, 3, 0).flags.c_contiguous
        for got, want in zip((y, layer.weight.grad, layer.bias.grad, dx), ref):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("c_in,c_out,kernel,size,batch,blocks", CONV_CASES)
    def test_row_blocks_keep_the_whole_buffer_bits(self, monkeypatch, c_in, c_out, kernel, size, batch, blocks):
        # BLAS sums each element over C*kh*kw in one order whatever columns a
        # call covers, and the weight gradient's rows and the input
        # gradient's taps add in the whole-buffer order
        layer, (y, dx), (x, g) = self._blocked_layer(monkeypatch, blocks, c_in, c_out, kernel, size, batch)
        ref = conv2d_whole_buffer(x, layer.weight.value, layer.bias.value, g)
        for got, want in zip((y, layer.weight.grad, layer.bias.grad, dx), ref):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "c_in,c_out,kernel,size", [(6, 16, 5, 12), (1, 4, 3, 28)], ids=["lenet-conv2", "cnn-conv1"]
    )
    def test_input_grad_is_per_sample_col2im_bitwise(self, c_in, c_out, kernel, size):
        rng = np.random.default_rng(21)
        layer = nn.Conv2d(c_in, c_out, kernel, kernel, rng)
        x = rng.standard_normal((64, c_in, size, size))
        out = size - kernel + 1
        g = rng.standard_normal((64, c_out, out, out))
        layer.forward(x)
        dx = layer.backward(g)
        # the (B, C, kh, kw, OH, OW) col2im: one GEMM per sample, OW-long runs
        wmat = layer.weight.value.reshape(c_out, -1)
        dcols = (wmat.T @ g.reshape(64, c_out, out * out)).reshape(64, c_in, kernel, kernel, out, out)
        want = np.zeros(x.shape)
        for u in range(kernel):
            for v in range(kernel):
                want[:, :, u : u + out, v : v + out] += dcols[:, :, u, v]
        assert dx.transpose(1, 2, 3, 0).flags.c_contiguous
        assert np.array_equal(dx, want)


class TestInputGradOff:
    """``backward(grad, input_grad=False)``: no input gradient, and it writes
    the same parameter gradients."""

    @staticmethod
    def _layer_and_input(name, rng):
        if name == "linear":
            return nn.Linear(20, 7, rng), rng.standard_normal((9, 20))
        if name == "conv-c1":
            return nn.Conv2d(1, 6, 5, 5, rng), rng.standard_normal((9, 1, 28, 28))
        if name == "conv-c6":
            return nn.Conv2d(6, 16, 5, 5, rng), rng.standard_normal((9, 6, 12, 12))
        spec = HistogramSpec(n_bins=16, bandwidth=0.05)
        return ArithmeticDistributionLayer(spec, *init_kernel(spec, 3)), rng.random((9, 16))

    @pytest.mark.parametrize("name", ["linear", "conv-c1", "conv-c6", "arith"])
    def test_returns_none_with_bitwise_parameter_grads(self, name):
        rng = np.random.default_rng(24)
        layer, x = self._layer_and_input(name, rng)
        out = layer.forward(x)
        g = rng.standard_normal(out.shape)
        assert layer.backward(g) is not None
        full = [p.grad.copy() for p in layer.params()]
        for p in layer.params():
            p.grad.fill(np.nan)
        assert layer.backward(g, input_grad=False) is None
        for p, want in zip(layer.params(), full):
            assert np.array_equal(p.grad, want), p.name


class TestBackwardSetsGradients:
    """A second ``backward`` with the same inputs writes the same parameter
    gradients: backward sets them, it does not add to them."""

    @pytest.mark.parametrize("name", ["linear", "conv-c1", "conv-c6", "arith"])
    def test_second_backward_leaves_grads_bitwise_equal(self, name):
        rng = np.random.default_rng(25)
        layer, x = TestInputGradOff._layer_and_input(name, rng)
        out = layer.forward(x)
        g = rng.standard_normal(out.shape)
        layer.backward(g)
        once = [p.grad.copy() for p in layer.params()]
        assert all(np.any(want != 0) for want in once)
        layer.backward(g)
        for p, want in zip(layer.params(), once):
            assert np.array_equal(p.grad.view(np.uint64), want.view(np.uint64)), p.name


class TestParameter:
    def test_owns_its_array_and_allocates_its_gradient_on_first_use(self):
        value = np.arange(6.0).reshape(2, 3)
        p = nn.Parameter(value, "p")
        assert p.value is value
        assert [a for a in vars(p).values() if isinstance(a, np.ndarray)] == [value]
        assert p.grad.shape == (2, 3) and not p.grad.any() and p.grad is p.grad
        # anything but a C-contiguous float64 array is converted once
        for other in (np.asfortranarray(value), np.arange(6).reshape(2, 3), [[0.0, 1.0, 2.0]] * 2):
            q = nn.Parameter(other, "q")
            assert q.value.dtype == np.float64 and q.value.flags.c_contiguous
            assert q.value is not other


class TestGradientShape:
    """A backward whose gradient is not shaped like the last forward's
    output, or that comes before any forward, is a ``ShapeError`` raised
    before any work: no parameter gradient is written."""

    @staticmethod
    def _layer_and_input(name, rng):
        if name == "maxpool2d":
            return nn.MaxPool2d(), rng.standard_normal((9, 2, 6, 6))
        if name == "relu":
            return nn.ReLU(), rng.standard_normal((9, 2, 6, 6))
        if name == "histogram":
            return HistogramLayer(HistogramSpec(n_bins=16, bandwidth=0.05)), rng.uniform(-1, 1, (9, 1, 4, 4))
        return TestInputGradOff._layer_and_input(name, rng)

    @pytest.mark.parametrize("case", ["smaller-batch", "batch-of-one", "before-forward"])
    @pytest.mark.parametrize("name", ["linear", "conv-c1", "conv-c6", "maxpool2d", "relu", "arith", "histogram"])
    def test_mismatch_is_shape_error_naming_both_shapes(self, name, case):
        rng = np.random.default_rng(26)
        layer, x = self._layer_and_input(name, rng)
        out_shape = None
        if case == "before-forward":
            g = rng.standard_normal((9, 1))
        else:
            out_shape = layer.forward(x).shape
            g = rng.standard_normal(((8 if case == "smaller-batch" else 1),) + out_shape[1:])
        for p in layer.params():
            p.grad.fill(np.nan)
        with pytest.raises(ShapeError) as err:
            layer.backward(g)
        if out_shape is None:
            assert "before any forward" in str(err.value)
        else:
            assert str(g.shape) in str(err.value) and str(out_shape) in str(err.value)
        for p in layer.params():
            assert np.isnan(p.grad).all(), p.name


class TestMaxPool2d:
    def test_output_shape(self):
        layer = nn.MaxPool2d()
        y = layer.forward(np.random.default_rng(0).standard_normal((2, 6, 24, 24)))
        assert y.shape == (2, 6, 12, 12)

    def test_constant_input_routes_to_first_window_element(self):
        layer = nn.MaxPool2d()
        x = np.ones((1, 1, 4, 4))
        out = layer.forward(x)
        assert np.all(out == 1.0)
        dx = layer.backward(np.ones((1, 1, 2, 2)))
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, ::2, ::2] = 1.0  # first element of each 2x2 window
        assert np.array_equal(dx, expected)

    def test_finite_difference_grads_untied(self, property_results):
        # distinct values, so every window has one maximum
        assert_check_passed(property_results, "gradient-maxpool", 1e-6)

    def test_plateaus_and_zeros_match_loop_reference(self):
        rng = np.random.default_rng(21)
        x = rng.integers(-1, 2, size=(5, 3, 6, 8)).astype(float)  # many tied windows and zeros
        x[0, 0] = 0.0
        x[1, 2, :2, :2] = -0.0
        g = rng.standard_normal((5, 3, 3, 4))
        layer = nn.MaxPool2d()
        out = layer.forward(x)
        dx = layer.backward(g)
        ref_out, ref_dx = maxpool_reference(x, g)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dx, ref_dx)

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            nn.MaxPool2d().forward(np.zeros((1, 1, 5, 4)))

    @staticmethod
    def _where_routing(x, g):
        """Max and dx through int64 nested-``np.where`` routing, the form
        the one-byte code replaced."""
        t0, t1, t2, t3 = (x[:, :, i::2, j::2] for i, j in nn.MaxPool2d._TAPS)
        out = np.maximum(np.maximum(t0, t1), np.maximum(t2, t3))
        argmax = np.where(t0 == out, 0, np.where(t1 == out, 1, np.where(t2 == out, 2, 3)))
        dx = np.empty(x.shape)
        for tap, (i, j) in enumerate(nn.MaxPool2d._TAPS):
            np.multiply(g, argmax == tap, out=dx[:, :, i::2, j::2])
        return out, dx

    @pytest.mark.parametrize("case", ["ties", "signed-zeros", "nan", "random"])
    def test_one_byte_routing_matches_where_routing_bitwise(self, case):
        rng = np.random.default_rng(30)
        if case == "ties":
            x = rng.integers(0, 2, size=(6, 3, 8, 8)).astype(float)
        elif case == "signed-zeros":
            x = rng.choice([0.0, -0.0, -1.0], size=(6, 3, 8, 8))
        elif case == "nan":
            x = rng.standard_normal((6, 3, 8, 8))
            x[rng.random(x.shape) < 0.1] = np.nan
        else:
            x = rng.standard_normal((64, 6, 24, 24))
        g = rng.standard_normal((x.shape[0], x.shape[1], x.shape[2] // 2, x.shape[3] // 2))
        layer = nn.MaxPool2d()
        out = layer.forward(x)
        dx = layer.backward(g)
        code = layer._code()
        assert code.dtype == np.uint8 and code.shape == out.shape
        ref_out, ref_dx = self._where_routing(x, g)
        # compared as bits: sign of zero and NaN payloads included
        assert np.array_equal(out.view(np.uint64), ref_out.view(np.uint64))
        assert np.array_equal(dx.view(np.uint64), ref_dx.view(np.uint64))
        if case == "nan":
            windows = np.isnan(out)
            assert windows.any() and np.all(code[windows] == 3)


class TestReLU:
    def test_sign_cases(self):
        out = nn.ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_all_negative(self):
        layer = nn.ReLU()
        out = layer.forward(np.full(5, -3.0))
        assert np.all(out == 0.0)
        assert np.all(layer.backward(np.ones(5)) == 0.0)

    def test_backward_routes_where_input_positive(self):
        # backward reads its mask off the output: y > 0 exactly where x > 0
        x = np.array([np.nan, -0.0, 0.0, -np.inf, np.inf, 5e-324, -5e-324, 2.0])
        layer = nn.ReLU()
        layer.forward(x)
        g = np.arange(1.0, 9.0)
        assert np.array_equal(layer.backward(g), g * (x > 0))

    def test_finite_difference_grads_away_from_kink(self, property_results):
        assert_check_passed(property_results, "gradient-relu", 1e-6)


class TestLogSoftmaxNll:
    def test_uniform_logits(self):
        loss, grad = nn.log_softmax_nll(np.zeros((1, 10)), [0])
        assert abs(loss - np.log(10)) < 1e-12
        assert abs(grad[0, 0] - (0.1 - 1.0)) < 1e-12

    def test_saturated_correct_logit(self):
        logits = np.zeros((1, 10))
        logits[0, 4] = 1000.0
        loss, grad = nn.log_softmax_nll(logits, [4])
        assert loss < 1e-12
        assert np.abs(grad).max() < 1e-12

    def test_finite_difference_grads(self, property_results):
        # the mean loss of a batch of 3
        assert_check_passed(property_results, "gradient-log-softmax-nll", 1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            nn.log_softmax_nll(np.zeros((2, 10)), [0, 10])
        with pytest.raises(ValueError):
            nn.log_softmax_nll(np.zeros((2, 10)), [-1, 0])

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((2, 10))
        base, _ = nn.log_softmax_nll(logits, [3, 8])
        shifted, _ = nn.log_softmax_nll(logits + 123.456, [3, 8])
        assert abs(base - shifted) < 1e-10

    def test_batch_is_mean_of_singles(self):
        rng = np.random.default_rng(14)
        logits = rng.standard_normal((6, 10))
        labels = rng.integers(0, 10, 6)
        loss, grad = nn.log_softmax_nll(logits, labels)
        singles = [nn.log_softmax_nll(logits[i : i + 1], labels[i : i + 1]) for i in range(6)]
        assert abs(loss - np.mean([s[0] for s in singles])) < 1e-12
        for i in range(6):
            assert np.allclose(grad[i], singles[i][1][0] / 6, atol=1e-12)


def one_adam(value, lr=0.001, name="p"):
    """A parameter of ``value`` and an Adam over it alone: (param, optimizer)."""
    p = nn.Parameter(value, name)
    return p, nn.Adam([p], lr=lr)


class TestAdam:
    def test_zeros_gradient_is_noop(self):
        p, opt = one_adam(np.array([1.0, -2.0]))
        opt.step()
        assert np.array_equal(p.value, [1.0, -2.0])
        assert opt.t == 1

    def test_scalar_first_step(self):
        # m_hat = v_hat = 1 after the first step, so the move is ~lr
        p, opt = one_adam(np.array(0.0))
        p.grad[...] = 1.0
        opt.step()
        assert abs(p.value + 0.001) < 1e-9

    def test_identical_parameters_update_identically(self):
        rng = np.random.default_rng(15)
        values = rng.standard_normal(7)
        grads = rng.standard_normal(7)
        updated = []
        for _ in range(2):
            p, opt = one_adam(values.copy(), lr=0.01)
            p.grad[...] = grads
            opt.step()
            updated.append(p.value.copy())
        assert np.array_equal(updated[0], updated[1])

    @pytest.mark.parametrize(
        "shape",
        [(3, 4), (), (256, 2704), (3 * nn.CHUNK + 5,)],
        ids=["2d", "0d", "cnn-fc1", "chunks-plus-tail"],
    )
    def test_five_steps_match_textbook_formula_bitwise(self, shape):
        # the blocked in-place update is bitwise selftest's out-of-place one,
        # which adam-vs-textbook holds to the textbook formula
        rng = np.random.default_rng(22)
        lr = 0.01
        value = rng.standard_normal(shape)
        p, opt = one_adam(value.copy(), lr=lr)
        m = v = np.zeros(shape)
        for t in range(1, 6):
            g = rng.standard_normal(shape)
            p.grad[...] = g
            opt.step()
            value, m, v = _adam_reference(value, m, v, g, t, lr)
            assert np.array_equal(p.value, value)
            assert np.array_equal(opt.m[0], m) and np.array_equal(opt.v[0], v)
        assert p.value.shape == shape

    @pytest.mark.parametrize("big", [1e154, 1e200], ids=["norm-overflows", "squares-overflow-too"])
    def test_finite_gradient_whose_norm_overflows_steps(self, big):
        # the guard's squared norm overflows to inf, yet every element is
        # finite, so the step goes ahead; at 1e200 each square overflows
        # too and v holds inf there, which stops those elements, as the
        # textbook formula does
        rng = np.random.default_rng(24)
        value = rng.standard_normal(3 * nn.CHUNK + 5)
        p, opt = one_adam(value.copy(), lr=0.01)
        g = rng.standard_normal(value.shape)
        g[[7, -2]] = big, -big
        p.grad[...] = g
        with np.errstate(over="ignore" if big > 1e155 else "raise"):
            opt.step()
            want, m, v = _adam_reference(value, 0.0, 0.0, g, 1, 0.01)
        assert opt.t == 1 and np.all(np.isfinite(p.value))
        assert np.array_equal(p.value, want)
        assert np.array_equal(opt.m[0], m) and np.array_equal(opt.v[0], v)

    def test_nonfinite_grad_names_parameter(self):
        p, opt = one_adam(np.zeros(3), name="fc1.weight")
        p.grad[1] = np.nan
        with pytest.raises(NonFiniteError) as err:
            opt.step()
        assert "fc1.weight" in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_in_last_chunk_leaves_state_untouched(self, bad):
        rng = np.random.default_rng(23)
        p, opt = one_adam(rng.standard_normal(3 * nn.CHUNK + 5), lr=0.01, name="fc1.weight")
        p.grad[...] = rng.standard_normal(p.value.shape)
        opt.step()
        p.grad[...] = rng.standard_normal(p.value.shape)
        p.grad[-2] = bad
        before = [a.copy() for a in (p.value, p.grad, opt.m[0], opt.v[0])]
        with pytest.raises(NonFiniteError, match="fc1.weight"):
            opt.step()
        assert opt.t == 1
        for got, want in zip((p.value, p.grad, opt.m[0], opt.v[0]), before):
            assert np.array_equal(got, want, equal_nan=True)

    def test_noncontiguous_state_raises_before_update(self):
        p, opt = one_adam(np.ones((3, 4)), lr=0.01, name="fc1.weight")
        p.value = p.value.T
        p.grad = np.ones((4, 3))
        opt.m[0], opt.v[0] = np.zeros((4, 3)), np.zeros((4, 3))
        with pytest.raises(ValueError, match="C-contiguous"):
            opt.step()
        assert opt.t == 0 and np.all(p.value == 1.0) and np.all(p.grad == 1.0)

    def test_bad_lr(self):
        # refused once, when the optimizer is built, not on every step
        for lr in (0.0, -1e-3, np.nan):
            with pytest.raises(ValueError, match="learning rate"):
                one_adam(np.ones(3), lr=lr)

    def test_optimizer_tracks_states(self):
        # one step counter, and moment sums shaped like each parameter
        rng = np.random.default_rng(16)
        params = [nn.Parameter(rng.standard_normal(s), f"p{i}") for i, s in enumerate([4, (2, 3), ()])]
        opt = nn.Adam(params, lr=0.01)
        for p in params:
            p.grad[...] = 1.0
        opt.step()
        assert opt.t == 1
        for p, m, v in zip(params, opt.m, opt.v):
            assert m.shape == v.shape == p.value.shape
            assert np.all(m == 1.0) and np.all(v == 1.0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "noncontiguous"])
    def test_refused_step_in_a_later_parameter_moves_nothing(self, bad):
        # every parameter is checked before any moves: a bad p1 leaves p0's
        # value, both parameters' moments and the counter bitwise as they were
        rng = np.random.default_rng(25)
        params = [nn.Parameter(rng.standard_normal((3, 4)), f"p{i}") for i in range(2)]
        opt = nn.Adam(params, lr=0.01)
        for p in params:
            p.grad[...] = rng.standard_normal(p.value.shape)
        opt.step()
        for p in params:
            p.grad[...] = rng.standard_normal(p.value.shape)
        p0, p1 = params
        if bad == "noncontiguous":
            p1.grad = np.asfortranarray(p1.grad)
        else:
            p1.grad[1, 2] = float(bad)
        before = [a.copy() for a in (p0.value, p1.value, *opt.m, *opt.v)]
        error = ValueError if bad == "noncontiguous" else NonFiniteError
        with pytest.raises(error, match="'p1'"):
            opt.step()
        assert opt.t == 1
        for got, want in zip((p0.value, p1.value, *opt.m, *opt.v), before):
            assert np.array_equal(got, want)
        # the next good step is step 2 for both parameters
        p1.grad = rng.standard_normal(p1.value.shape)
        want = [_adam_reference(value, m, v, p.grad, 2, 0.01)[0]
                for p, value, m, v in zip(params, before[:2], before[2:4], before[4:])]
        opt.step()
        assert opt.t == 2
        for p, w in zip(params, want):
            assert np.array_equal(p.value, w)


class TestGradCheck:
    def test_quadratic_is_exact(self):
        def f(x):
            return float(x**2), np.asarray(2.0 * x)

        assert nn.grad_check(f, np.array(3.0)) < 1e-10

    def test_relu_sum_away_from_kink(self):
        def f(x):
            return float(np.maximum(x, 0).sum()), (x > 0).astype(float)

        assert nn.grad_check(f, np.array([1.0, -1.0])) < 1e-6

    def test_bad_step_size(self):
        with pytest.raises(ValueError):
            nn.grad_check(lambda x: (0.0, x), np.zeros(2), h=0.0)

    def test_nonfinite_function(self):
        def f(x):
            return float(np.nan), x

        with pytest.raises(NonFiniteError):
            nn.grad_check(f, np.zeros(2))


class TestLayerInvariants:
    def test_backward_matches_fd_at_100_random_points(self):
        # every layer family, 100+ random coordinates, h=1e-3, rel err < 1e-4
        rng = np.random.default_rng(18)
        checked = {}

        for trial in range(3):
            layer = nn.Linear(6, 5, rng)
            x = rng.standard_normal((2, 6))
            w = rng.standard_normal((2, 5))
            assert nn.grad_check(_probe_input(layer, w), x) < 1e-4
            assert nn.grad_check(_probe_param(layer, layer.weight, x, w), layer.weight.value.copy()) < 1e-4
            checked["linear"] = checked.get("linear", 0) + 12 + 30

        for trial in range(3):
            layer = nn.Conv2d(1, 2, 3, 3, rng)
            x = rng.standard_normal((2, 1, 5, 5))
            w = rng.standard_normal((2, 2, 3, 3))
            assert nn.grad_check(_probe_input(layer, w), x) < 1e-4
            assert nn.grad_check(_probe_param(layer, layer.weight, x, w), layer.weight.value.copy()) < 1e-4
            checked["conv"] = checked.get("conv", 0) + 50 + 18

        for trial in range(7):
            layer = nn.MaxPool2d()
            x = rng.permutation(32).astype(float).reshape(2, 1, 4, 4)
            w = rng.standard_normal((2, 1, 2, 2))
            assert nn.grad_check(_probe_input(layer, w), x) < 1e-4
            checked["maxpool"] = checked.get("maxpool", 0) + 32

        for trial in range(10):
            layer = nn.ReLU()
            x = rng.standard_normal(10)
            x[np.abs(x) < 0.05] = 0.4
            w = rng.standard_normal(10)
            assert nn.grad_check(_probe_input(layer, w), x) < 1e-4
            checked["relu"] = checked.get("relu", 0) + 10

        for trial in range(10):
            logits = rng.standard_normal((2, 10))
            labels = rng.integers(0, 10, 2)
            assert nn.grad_check(lambda z: nn.log_softmax_nll(z, labels), logits) < 1e-4
            checked["nll"] = checked.get("nll", 0) + 20

        assert all(count >= 100 for count in checked.values())

    def test_forwards_are_pure(self):
        rng = np.random.default_rng(19)
        pairs = [
            (nn.Linear(5, 4, rng), rng.standard_normal((2, 5))),
            (nn.Conv2d(1, 2, 2, 2, rng), rng.standard_normal((2, 1, 4, 4))),
            (nn.MaxPool2d(), rng.standard_normal((2, 1, 4, 4))),
            (nn.ReLU(), rng.standard_normal(9)),
            (nn.Linear(9, 4, rng), rng.standard_normal((2, 1, 3, 3))),
        ]
        for layer, x in pairs:
            assert np.array_equal(layer.forward(x), layer.forward(x))

    @pytest.mark.parametrize(
        "name",
        ["linear", "conv2d", "maxpool2d", "flatten", "log-softmax-nll", "arithmetic-layer", "histogram-layer"],
    )
    def test_former_single_sample_rank_is_shape_error(self, name):
        # every layer takes batches only: one sample without its batch axis
        # is rejected, not read as a batch of rows or channels
        forward, sample, batch_of_one = single_sample_cases()[name]
        with pytest.raises(ShapeError):
            forward(sample, 3)
        forward(batch_of_one, [3])


def single_sample_cases():
    """name -> (forward(x, label), one sample in its former unbatched rank,
    the same sample as a batch of one)."""
    rng = np.random.default_rng(23)
    spec = HistogramSpec(n_bins=8, bandwidth=0.05)
    arith = ArithmeticDistributionLayer(spec, *init_kernel(spec, 0))
    image = np.zeros((28, 28))
    cases = {
        "linear": (lambda x, _: nn.Linear(4, 3, rng).forward(x), np.zeros(4)),
        "conv2d": (lambda x, _: nn.Conv2d(1, 2, 2, 2, rng).forward(x), np.zeros((1, 4, 4))),
        "maxpool2d": (lambda x, _: nn.MaxPool2d().forward(x), np.zeros((1, 4, 4))),
        # one image is 28 rows of 28 features, not one row of 784
        "flatten": (lambda x, _: nn.Linear(784, 3, rng).forward(x), image),
        "log-softmax-nll": (nn.log_softmax_nll, np.zeros(10)),
        "arithmetic-layer": (lambda x, _: arith.forward(x), np.full(8, 0.125)),
    }
    out = {name: (forward, x, x[None]) for name, (forward, x) in cases.items()}
    # model input is (batch, channels, H, W); the former single sample was one 2-D image
    out["histogram-layer"] = (lambda x, _: HistogramLayer(spec).forward(x), image, image[None, None])
    return out
