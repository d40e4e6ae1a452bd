"""The property-check harness itself: passes when healthy, fails when broken."""

import numpy as np

from histlearn import distlayers, histogram, nn, selftest, transforms
from histlearn.distlayers import ArithmeticDistributionLayer
from histlearn.histogram import HistogramSpec

CHECK_NAMES = {
    "gradient-linear",
    "gradient-conv2d",
    "gradient-maxpool",
    "gradient-relu",
    "gradient-log-softmax-nll",
    "gradient-kde-histogram",
    "gradient-product-layer",
    "gradient-sum-layer",
    "gradient-arithmetic-module",
    "kde-vs-quadrature",
    "kde-normalization",
    "kde-vs-discrete",
    "kde-permutation-invariance",
    "kde-byte-vs-sort",
    "scatter-vs-bruteforce",
    "layer-vs-bruteforce",
    "scatter-vs-montecarlo",
    "mass-conservation",
    "sum-commutativity",
    "adam-vs-textbook",
    "transform-streams-vs-numpy",
}


def test_all_checks_pass_on_fresh_build(selftest_run):
    results, _ = selftest_run
    failures = [r.name for r in results if not r.passed]
    assert failures == []
    names = [r.name for r in results]
    assert len(names) == len(CHECK_NAMES) and set(names) == CHECK_NAMES


def test_runs_inside_time_budget(selftest_run):
    _, seconds = selftest_run
    assert seconds < 120.0


def test_perturbed_backward_is_named_failure(monkeypatch):
    backward = nn.Linear.backward

    def off_by_a_little(self, grad, input_grad=True):
        return backward(self, grad, input_grad=input_grad) + 1e-2

    monkeypatch.setattr(nn.Linear, "backward", off_by_a_little)
    results = selftest.run_all()
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["gradient-linear"]
    assert failed[0].measured > failed[0].allowed


def test_broken_layer_backward_fails_the_layer_gradient_checks(monkeypatch):
    # the gradient oracles run the layer dadm trains with, not a copy of it
    backward = ArithmeticDistributionLayer.backward

    def off_by_a_little(self, grad):
        grad_x = backward(self, grad)
        for p in self.params():
            p.grad += 1e-2
        return grad_x + 1e-2

    monkeypatch.setattr(ArithmeticDistributionLayer, "backward", off_by_a_little)
    failed = sorted(r.name for r in selftest.run_all() if not r.passed)
    assert failed == ["gradient-arithmetic-module", "gradient-product-layer", "gradient-sum-layer"]


def test_loss_gradient_without_batch_scale_fails_the_loss_check(monkeypatch):
    # training feeds the loss a batch, whose gradient carries a 1/batch
    # factor; the oracle must see that factor, not a single-sample path
    log_softmax_nll = nn.log_softmax_nll

    def unscaled(logits, labels):
        loss, grad = log_softmax_nll(logits, labels)
        return loss, grad * np.size(labels)

    monkeypatch.setattr(nn, "log_softmax_nll", unscaled)
    failed = [r.name for r in selftest.run_all() if not r.passed]
    assert failed == ["gradient-log-softmax-nll"]


def test_float_sum_bins_fail_the_scatter_check(monkeypatch):
    # the sum stage's bin evaluated in floats, (centers[i] + centers[m] + 1)
    # * N/2, lands some pairs a bin low at N=6 and 12; the loop folds bin
    # each pair exactly, so the scatter check must see it
    index_maps = distlayers._index_maps

    def float_sum_maps(n_bins):
        maps = dict(index_maps(n_bins))
        centers = HistogramSpec(n_bins=n_bins, bandwidth=1.0).centers
        pair_sums = np.add.outer(centers, centers)
        sum_ = np.clip(np.floor((pair_sums + 1.0) * (n_bins / 2.0)).astype(np.int64), 0, n_bins - 1)
        maps["sum_flat"] = (sum_ * n_bins + np.arange(n_bins)).ravel()
        return maps

    monkeypatch.setattr(distlayers, "_index_maps", float_sum_maps)
    result = selftest.check_scatter_vs_bruteforce()
    assert not result.passed and result.measured > result.allowed


def test_byte_table_off_by_an_ulp_fails_only_the_byte_check(monkeypatch):
    # the other kde oracles run batches mixing byte and rotated rows, which
    # take the sort path; only the byte check sees the byte-count path
    byte_terms = histogram._byte_terms

    def off_by_an_ulp(n_bins, bandwidth):
        lo, diffs = byte_terms(n_bins, bandwidth)
        return lo, np.nextafter(diffs, np.inf)

    monkeypatch.setattr(histogram, "_byte_terms", off_by_an_ulp)
    result = selftest.check_kde_byte_vs_sort()
    assert not result.passed and result.measured > result.allowed
    others = (selftest.check_kde_vs_quadrature, selftest.check_kde_normalization,
              selftest.check_kde_vs_discrete, selftest.check_kde_permutation_invariance)
    assert all(check().passed for check in others)


def test_one_bit_off_in_the_pcg_multiplier_fails_only_the_stream_check(monkeypatch):
    # the other checks that use transforms pass explicit angles and offsets
    high, low = transforms._PCG_MULT
    monkeypatch.setattr(transforms, "_PCG_MULT", (high, low ^ 1 << 17))
    result = selftest.check_transform_streams()
    assert not result.passed and result.measured > result.allowed
    others = (selftest.check_kde_grad, selftest.check_kde_vs_quadrature, selftest.check_kde_normalization,
              selftest.check_kde_vs_discrete, selftest.check_kde_permutation_invariance,
              selftest.check_kde_byte_vs_sort)
    assert all(check().passed for check in others)


def test_histogram_backward_off_only_at_256_bins_fails_the_production_case(monkeypatch):
    # a relative error of 1e-3 reads about 5e-4 against the check's 1e-4;
    # the toy case runs 8 bins, so only the production case can see it
    backward = histogram.kde_histogram_backward

    def off_at_256_bins(grad_bins, images, spec):
        out = backward(grad_bins, images, spec)
        return out * (1.0 + 1e-3) if spec.n_bins == 256 else out

    monkeypatch.setattr(histogram, "kde_histogram_backward", off_at_256_bins)
    assert selftest._kde_grad_toy()[0] <= 1e-4 < selftest._kde_grad_production()[0]
    result = selftest.check_kde_grad()
    assert not result.passed and result.measured > result.allowed


def test_adam_learning_rate_off_by_a_little_fails_the_adam_check(monkeypatch):
    # a learning rate, and so every step size, off by a relative 1e-9 moves
    # the parameters by about 1e-10 over the check's 1000 steps, far above
    # its tolerance
    init = nn.Adam.__init__

    def off_by_a_little(self, params, lr=0.001):
        init(self, params, lr * (1.0 + 1e-9))

    monkeypatch.setattr(nn.Adam, "__init__", off_by_a_little)
    result = selftest.check_adam_vs_textbook()
    assert not result.passed and result.measured > result.allowed


def test_input_gradient_oracles_call_the_full_backward(monkeypatch):
    # training skips the first layer's input gradient; the oracles must
    # still measure the input gradient the layers build by default
    calls = []
    for cls in (nn.Linear, nn.Conv2d, ArithmeticDistributionLayer):
        backward = cls.backward

        def recording(self, grad, input_grad=True, _backward=backward):
            calls.append((type(self).__name__, input_grad))
            return _backward(self, grad, input_grad=input_grad)

        monkeypatch.setattr(cls, "backward", recording)
    results = [selftest.check_linear_grad(), selftest.check_conv2d_grad(), selftest.check_arithmetic_grad()]
    assert all(r.passed for r in results)
    assert {name for name, _ in calls} == {"Linear", "Conv2d", "ArithmeticDistributionLayer"}
    assert all(input_grad for _, input_grad in calls)


def test_result_lines_carry_tolerances():
    result = selftest.CheckResult("demo", False, 0.5, 1e-3, "context")
    line = result.line()
    assert "[FAIL]" in line and "5.000e-01" in line and "1.000e-03" in line and "context" in line
