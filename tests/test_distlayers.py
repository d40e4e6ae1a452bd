"""Distribution layer: scatter matrices, adjoints, independent oracles."""

import operator

import numpy as np
import pytest

from conftest import assert_check_passed
from histlearn import distlayers, nn, selftest
from histlearn.distlayers import ArithmeticDistributionLayer, init_kernel, product_matrix, sum_matrix
from histlearn.errors import ShapeError
from histlearn.histogram import HistogramSpec, bin_index


def spec_of(n):
    return HistogramSpec(n_bins=n, bandwidth=0.05)


def delta(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def layer_grads(layer, fx, g):
    """(grad_w, grad_b, grad_x) of one forward/backward pass."""
    layer.forward(fx)
    gx = layer.backward(g)
    return layer.weight_hist.grad.copy(), layer.bias_hist.grad.copy(), gx


def check_constant_upstream_grad(fx, fw, fb, c):
    # a constant upstream gradient c sees only the total mass
    # c * sum(w) * sum(b) * sum(x) of the bilinear output
    spec = spec_of(fw.size)
    grad_w, grad_b, grad_x = layer_grads(ArithmeticDistributionLayer(spec, fw, fb), fx, np.full(fx.shape, c))
    np.testing.assert_allclose(grad_w, c * fb.sum() * fx.sum(), atol=1e-12)
    np.testing.assert_allclose(grad_b, c * fw.sum() * fx.sum(), atol=1e-12)
    np.testing.assert_allclose(grad_x, c * fw.sum() * fb.sum(), atol=1e-12)


class TestProductLayer:
    def test_point_masses(self):
        spec = spec_of(8)
        for i, m in ((0, 0), (3, 6), (7, 2), (5, 5)):
            fz = product_matrix(delta(8, i), spec) @ delta(8, m)
            k = bin_index(spec.centers[i] * spec.centers[m], spec)
            assert fz[k] == 1.0 and fz.sum() == 1.0

    def test_delta_weight_at_top_bin_is_identity(self):
        # scaling by the outermost center moves every center by strictly
        # less than a half-width, so nothing changes bins
        rng = np.random.default_rng(0)
        for n in (8, 256):
            spec = spec_of(n)
            fx = rng.random(n)
            fz = product_matrix(delta(n, n - 1), spec) @ fx
            assert np.array_equal(fz, fx)

    def test_matches_double_loop_bitwise(self, property_results):
        assert_check_passed(property_results, "scatter-vs-bruteforce", 0.0)

    def test_monte_carlo_oracle(self, property_results):
        # total variation against 1e6 draws of W and X at N=8
        assert_check_passed(property_results, "scatter-vs-montecarlo", 0.01)

    def test_constant_upstream_grad_conserves(self):
        rng = np.random.default_rng(3)
        check_constant_upstream_grad(rng.random((1, 8)), rng.random(8), rng.random(8), 2.5)

    def test_backward_finite_differences(self, property_results):
        assert_check_passed(property_results, "gradient-product-layer", 1e-8)
        assert_check_passed(property_results, "gradient-arithmetic-module", 1e-8)

    def test_zero_input_zero_weight_grad(self):
        spec = spec_of(8)
        layer = ArithmeticDistributionLayer(spec, np.ones(8), np.ones(8))
        grad_w, _, _ = layer_grads(layer, np.zeros((1, 8)), np.ones((1, 8)))
        assert np.all(grad_w == 0.0)

    def test_positive_weight_support_preserves_probability(self):
        rng = np.random.default_rng(4)
        spec = spec_of(8)
        fw = np.zeros(8)
        fw[4:] = rng.random(4)  # positive centers only
        fw /= fw.sum()
        fx = rng.random(8)
        fx /= fx.sum()
        fz = product_matrix(fw, spec) @ fx
        assert np.all(fz >= 0)
        assert abs(fz.sum() - 1.0) < 1e-12

    def test_length_mismatch(self):
        spec = spec_of(8)
        with pytest.raises(ShapeError):
            product_matrix(np.zeros(7), spec)
        with pytest.raises(ShapeError):
            sum_matrix(np.zeros(7), spec)


class TestSumLayer:
    def test_boundary_sum_maps_up(self):
        # N=4, centers -0.75 -0.25 0.25 0.75: 0.25 + (-0.25) = 0 sits on
        # the bin 1/2 edge and the half-open convention sends it to bin 2
        spec = spec_of(4)
        fz = sum_matrix(delta(4, 2), spec) @ delta(4, 1)
        assert fz[2] == 1.0 and fz.sum() == 1.0

    def test_center_bias_is_identity_for_odd_bins(self):
        rng = np.random.default_rng(5)
        spec = spec_of(5)
        fx = rng.random(5)
        fz = sum_matrix(delta(5, 2), spec) @ fx  # center bin is exactly 0
        assert np.array_equal(fz, fx)

    def test_out_of_range_mass_clamps_into_boundary_bins(self):
        spec = spec_of(4)
        fz = sum_matrix(delta(4, 3), spec) @ delta(4, 3)  # 0.75+0.75=1.5
        assert fz[3] == 1.0
        fz = sum_matrix(delta(4, 0), spec) @ delta(4, 0)  # -1.5
        assert fz[0] == 1.0

    def test_matches_double_loop_bitwise(self, property_results):
        assert_check_passed(property_results, "scatter-vs-bruteforce", 0.0)

    @pytest.mark.parametrize("n", [6, 12])
    def test_matches_rational_law(self, n):
        # even N that is not a power of two: evaluated in floats, some pair
        # sums round just below a bin edge and would land a bin low; the
        # loop fold bins each pair sum exactly
        spec = spec_of(n)
        fb = np.random.default_rng(n).standard_normal(n)
        assert np.array_equal(sum_matrix(fb, spec), selftest._fold_bruteforce(fb, spec, operator.add))

    def test_monte_carlo_oracle(self, property_results):
        # total variation against 1e6 draws of B and X at N=8
        assert_check_passed(property_results, "scatter-vs-montecarlo", 0.01)

    def test_commutative_exactly(self, property_results):
        # point masses at N=4, 8, 64, 256
        assert_check_passed(property_results, "sum-commutativity", 0.0)

    def test_constant_upstream_grad_conserves(self):
        rng = np.random.default_rng(9)
        fx = rng.random((3, 8))
        check_constant_upstream_grad(fx, rng.random(8), rng.random(8), -1.5)

    def test_backward_finite_differences(self, property_results):
        assert_check_passed(property_results, "gradient-sum-layer", 1e-8)
        assert_check_passed(property_results, "gradient-arithmetic-module", 1e-8)

    def test_zero_bias_zero_input_grad(self):
        spec = spec_of(8)
        layer = ArithmeticDistributionLayer(spec, np.ones(8), np.zeros(8))
        _, _, grad_x = layer_grads(layer, np.ones((1, 8)), np.ones((1, 8)))
        assert np.all(grad_x == 0.0)


class TestMassConservation:
    def test_exact_for_unconstrained_vectors(self, property_results):
        # both stages at N=8, 16, 64, 256
        assert_check_passed(property_results, "mass-conservation", 1e-12)


class TestContinuumLimit:
    def test_scatter_approaches_literal_integrals(self):
        # the continuum forms (1/|w|-weighted product integral, additive
        # convolution) evaluated by Riemann sums over piecewise-constant
        # densities agree with the mass-pairing scatter once bins are fine;
        # the weight density stays away from w=0 where the literal product
        # integrand is singular
        n = 64
        spec = spec_of(n)
        centers = spec.centers
        width = spec.bin_width
        fw = np.exp(-0.5 * ((centers - 0.6) / 0.08) ** 2)
        fw /= fw.sum()
        fx = np.exp(-0.5 * ((centers + 0.1) / 0.3) ** 2)
        fx /= fx.sum()

        sub = 9
        offsets = (np.arange(sub) + 0.5) / sub * width - width / 2.0
        w_pts = (centers[:, None] + offsets[None, :]).ravel()
        w_density = np.repeat(fw / width, sub)

        def x_density(t):
            t = np.asarray(t)
            inside = (t >= -1.0) & (t <= 1.0)
            vals = np.zeros(t.shape)
            idx = np.clip(np.floor((t + 1.0) * (n / 2.0)).astype(np.int64), 0, n - 1)
            vals[inside] = fx[idx[inside]] / width
            return vals

        z_pts = (centers[:, None] + offsets[None, :]).ravel()
        dz = width / sub
        dw = width / sub

        dens_prod = (w_density[None, :] * x_density(z_pts[:, None] / w_pts[None, :])
                     / np.abs(w_pts[None, :])).sum(axis=1) * dw
        literal_prod = (dens_prod.reshape(n, sub) * dz).sum(axis=1)
        scatter_prod = product_matrix(fw, spec) @ fx
        assert 0.5 * np.abs(literal_prod - scatter_prod).sum() < 0.05

        dens_sum = (w_density[None, :] * x_density(z_pts[:, None] - w_pts[None, :])).sum(axis=1) * dw
        literal_sum = (dens_sum.reshape(n, sub) * dz).sum(axis=1)
        scatter_sum = sum_matrix(fw, spec) @ fx
        assert 0.5 * np.abs(literal_sum - scatter_sum).sum() < 0.05


class TestArithmeticModule:
    def test_identity_composition_odd_bins(self):
        rng = np.random.default_rng(11)
        spec = spec_of(9)
        fx = rng.random((1, 9))
        fz = ArithmeticDistributionLayer(spec, *init_kernel(spec, 0, noise_scale=0.0)).forward(fx)
        assert np.array_equal(fz, fx)

    def test_default_width_chains_into_classifier(self):
        # 256-bin module output feeds a 512x256 linear layer; the kernels
        # contribute exactly 2 x 256 learnable values
        rng = np.random.default_rng(12)
        spec = HistogramSpec()
        layer = ArithmeticDistributionLayer(spec, *init_kernel(spec, 3))
        assert sum(p.value.size for p in layer.params()) == 512
        fx = rng.random((2, 256))
        fx /= fx.sum(axis=1, keepdims=True)
        fz = layer.forward(fx)
        assert fz.shape == (2, 256)
        out = nn.Linear(256, 512, rng).forward(fz)
        assert out.shape == (2, 512)

    def test_full_module_finite_differences(self, property_results):
        # d/d input, weight_hist and bias_hist at N=8 and N=256
        for name in ("gradient-arithmetic-module", "gradient-product-layer", "gradient-sum-layer"):
            assert_check_passed(property_results, name, 1e-8)


class TestInitKernel:
    def test_zero_noise_gives_exact_deltas(self):
        spec = spec_of(8)
        weight, bias = init_kernel(spec, 0, noise_scale=0.0)
        assert np.array_equal(weight, delta(8, 7))
        assert np.array_equal(bias, delta(8, 4))

    def test_deterministic_per_seed(self):
        spec = spec_of(16)
        a = init_kernel(spec, 42)
        b = init_kernel(spec, 42)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        spec = spec_of(16)
        a = init_kernel(spec, 0)
        b = init_kernel(spec, 1)
        assert not np.array_equal(a[0], b[0])

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            init_kernel(spec_of(8), 0, noise_scale=-0.1)


class TestBatchedLayer:
    def test_matches_functional_ops(self):
        # each batch row against the layer run on that row as a batch of one
        rng = np.random.default_rng(14)
        spec = spec_of(16)
        kernel = rng.standard_normal(16), rng.standard_normal(16)
        layer = ArithmeticDistributionLayer(spec, *kernel)
        batch = rng.standard_normal((5, 16))
        out = layer.forward(batch)
        for i in range(5):
            ref = ArithmeticDistributionLayer(spec, *kernel).forward(batch[i : i + 1])[0]
            assert np.abs(out[i] - ref).max() < 1e-12

    def test_backward_matches_functional_adjoints(self):
        # batch gradients against the sum of passes over batches of one
        rng = np.random.default_rng(15)
        spec = spec_of(16)
        kernel = rng.standard_normal(16), rng.standard_normal(16)
        layer = ArithmeticDistributionLayer(spec, *kernel)
        batch = rng.standard_normal((4, 16))
        grads = rng.standard_normal((4, 16))
        layer.forward(batch)
        gx = layer.backward(grads)

        want_w = np.zeros(16)
        want_b = np.zeros(16)
        for i in range(4):
            layer_i = ArithmeticDistributionLayer(spec, *kernel)
            gw, gb, gxi = layer_grads(layer_i, batch[i : i + 1], grads[i : i + 1])
            want_w += gw
            want_b += gb
            assert np.abs(gx[i] - gxi[0]).max() < 1e-12
        assert np.abs(layer.weight_hist.grad - want_w).max() < 1e-12
        assert np.abs(layer.bias_hist.grad - want_b).max() < 1e-12

    def test_folds_once_per_kernel_value(self, monkeypatch):
        # forwards with unchanged kernels reuse the folds; an in-place edit,
        # as Adam's update and selftest's probes make, refolds that kernel
        rng = np.random.default_rng(16)
        spec = spec_of(16)
        layer = ArithmeticDistributionLayer(spec, rng.standard_normal(16), rng.standard_normal(16))
        folds = []
        for name in ("product_matrix", "sum_matrix"):
            fold = getattr(distlayers, name)
            monkeypatch.setattr(
                distlayers, name, lambda k, s, fold=fold, name=name: folds.append(name) or fold(k, s)
            )
        batch = rng.standard_normal((3, 16))
        first = layer.forward(batch)
        assert np.array_equal(layer.forward(batch), first)
        assert folds == ["product_matrix", "sum_matrix"]
        layer.weight_hist.value[3] += 0.5
        layer.forward(batch)
        assert folds[2:] == ["product_matrix"]
        layer.bias_hist.value[...] = rng.standard_normal(16)
        out = layer.forward(batch)
        assert folds[3:] == ["sum_matrix"]
        fresh = ArithmeticDistributionLayer(spec, layer.weight_hist.value, layer.bias_hist.value)
        assert np.array_equal(out, fresh.forward(batch))

    def test_shape_errors(self):
        spec = spec_of(8)
        layer = ArithmeticDistributionLayer(spec, *init_kernel(spec, 0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 7)))
        with pytest.raises(ShapeError):
            ArithmeticDistributionLayer(spec_of(16), *init_kernel(spec, 0))
        weight, bias = init_kernel(spec, 0)
        for bad in ((weight, bias[:7]), (weight[None], bias), (weight, np.zeros((8, 8)))):
            with pytest.raises(ShapeError):
                ArithmeticDistributionLayer(spec, *bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_kernel_rejected(self, bad):
        spec = spec_of(8)
        for which in (0, 1):
            kernel = list(init_kernel(spec, 0))
            kernel[which][2] = bad
            with pytest.raises(ValueError, match="finite"):
                ArithmeticDistributionLayer(spec, *kernel)
