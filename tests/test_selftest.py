"""The property-check harness itself: passes when healthy, fails when broken."""

import numpy as np

from histlearn import nn, selftest
from histlearn.distlayers import ArithmeticDistributionLayer

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
    "scatter-vs-bruteforce",
    "layer-vs-bruteforce",
    "scatter-vs-montecarlo",
    "mass-conservation",
    "sum-commutativity",
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
