"""Dataset-free property checks.

Every check pairs an implementation path with an independent oracle:
finite differences for gradients, adaptive quadrature for the KDE
histogram, literal Python double loops and Monte-Carlo sampling for the
distribution layers.  Each result carries the measured error and the
allowed tolerance so failures are directly actionable.

The whole battery runs in well under two minutes on a desktop CPU and
needs no dataset.  ``perturb`` deliberately breaks a named backward pass;
the test suite uses it to prove the harness can actually fail.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import distlayers, histogram, nn

PERTURBATIONS = ("linear-backward",)


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    allowed: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: measured {self.measured:.3e}, allowed {self.allowed:.3e}"
        if self.detail:
            text += f" ({self.detail})"
        return text


def _result(name, measured, allowed, detail=""):
    return CheckResult(name, bool(measured <= allowed), float(measured), float(allowed), detail)


def _probe_input(layer, x, w):
    def f(xv):
        out = layer.forward(xv)
        gx = layer.backward(w)
        for p in layer.params():
            p.zero_grad()
        return float((out * w).sum()), gx

    return f


def _probe_param(layer, param, x, w):
    def f(pv):
        param.value[...] = pv
        out = layer.forward(x)
        layer.backward(w)
        g = param.grad.copy()
        for p in layer.params():
            p.zero_grad()
        return float((out * w).sum()), g

    return f


def check_linear_grad(perturb=frozenset()):
    rng = np.random.default_rng(11)
    layer = nn.Linear(4, 3, rng)
    x = rng.standard_normal(4)
    w = rng.standard_normal(3)
    broken = "linear-backward" in perturb

    def f(xv):
        out = layer.forward(xv)
        gx = layer.backward(w)
        for p in layer.params():
            p.zero_grad()
        if broken:
            gx = gx + 1e-2
        return float((out * w).sum()), gx

    err = nn.grad_check(f, x)
    err = max(err, nn.grad_check(_probe_param(layer, layer.weight, x, w), layer.weight.value.copy()))
    err = max(err, nn.grad_check(_probe_param(layer, layer.bias, x, w), layer.bias.value.copy()))
    return _result("gradient-linear", err, 1e-4)


def check_conv2d_grad():
    rng = np.random.default_rng(12)
    layer = nn.Conv2d(1, 2, 2, 2, rng)
    x = rng.standard_normal((1, 5, 5))
    w = rng.standard_normal((2, 4, 4))
    err = nn.grad_check(_probe_input(layer, x, w), x)
    err = max(err, nn.grad_check(_probe_param(layer, layer.weight, x, w), layer.weight.value.copy()))
    err = max(err, nn.grad_check(_probe_param(layer, layer.bias, x, w), layer.bias.value.copy()))
    return _result("gradient-conv2d", err, 1e-4)


def check_maxpool_grad():
    rng = np.random.default_rng(13)
    layer = nn.MaxPool2d()
    # distinct values keep every window un-tied, so the max is differentiable
    x = rng.permutation(16).astype(np.float64).reshape(1, 4, 4) * 0.37
    w = rng.standard_normal((1, 2, 2))
    err = nn.grad_check(_probe_input(layer, x, w), x)
    return _result("gradient-maxpool", err, 1e-4)


def check_relu_grad():
    rng = np.random.default_rng(14)
    layer = nn.ReLU()
    x = rng.standard_normal(12)
    x[np.abs(x) < 0.1] = 0.5  # keep clear of the kink at 0
    w = rng.standard_normal(12)
    err = nn.grad_check(_probe_input(layer, x, w), x)
    return _result("gradient-relu", err, 1e-4)


def check_log_softmax_nll_grad():
    rng = np.random.default_rng(15)
    logits = rng.standard_normal(10)

    def f(z):
        return nn.log_softmax_nll(z, 3)

    err = nn.grad_check(f, logits)
    return _result("gradient-log-softmax-nll", err, 1e-4)


def check_kde_grad():
    rng = np.random.default_rng(16)
    spec = histogram.HistogramSpec(n_bins=8, bandwidth=0.05)
    # pixels kept > 2h away from every bin edge so central differences
    # sample a smooth region
    px = spec.centers[rng.integers(0, 8, size=6)] + rng.uniform(-0.08, 0.08, size=6)
    g = rng.standard_normal(8)

    def f(p):
        bins = histogram.kde_histogram(p, spec)
        return float(bins @ g), histogram.kde_histogram_backward(g, p, spec)

    err = nn.grad_check(f, px, h=1e-4)
    return _result("gradient-kde-histogram", err, 1e-4)


def _dist_layer_probe(forward, backward, other, order):
    """FD probe for one argument of a bilinear distribution op."""

    def f(v):
        spec = histogram.HistogramSpec(n_bins=v.size, bandwidth=0.05)
        if order == "x":
            fz = forward(v, other, spec)
            g = np.cos(np.arange(v.size) * 0.7)
            grads = backward(g, v, other, spec)
            return float(fz @ g), grads[1]
        fz = forward(other, v, spec)
        g = np.cos(np.arange(v.size) * 0.7)
        grads = backward(g, other, v, spec)
        return float(fz @ g), grads[0]

    return f


def check_product_grad():
    rng = np.random.default_rng(17)
    fx = rng.standard_normal(8)
    fw = rng.standard_normal(8)
    err = nn.grad_check(
        _dist_layer_probe(distlayers.product_dist_forward, distlayers.product_dist_backward, fw, "x"),
        fx,
    )
    err = max(
        err,
        nn.grad_check(
            _dist_layer_probe(
                distlayers.product_dist_forward, distlayers.product_dist_backward, fx, "w"
            ),
            fw,
        ),
    )
    return _result("gradient-product-layer", err, 1e-8)


def check_sum_grad():
    rng = np.random.default_rng(18)
    fx = rng.standard_normal(8)
    fb = rng.standard_normal(8)
    err = nn.grad_check(
        _dist_layer_probe(distlayers.sum_dist_forward, distlayers.sum_dist_backward, fb, "x"), fx
    )
    err = max(
        err,
        nn.grad_check(
            _dist_layer_probe(distlayers.sum_dist_forward, distlayers.sum_dist_backward, fx, "w"),
            fb,
        ),
    )
    return _result("gradient-sum-layer", err, 1e-8)


def check_arithmetic_grad():
    rng = np.random.default_rng(19)
    spec = histogram.HistogramSpec(n_bins=8, bandwidth=0.05)
    fx = rng.standard_normal(8)
    kernel = distlayers.DistributionKernel(rng.standard_normal(8), rng.standard_normal(8))
    probe = np.sin(np.arange(8) * 1.3)

    def f_x(v):
        fz = distlayers.arithmetic_forward(v, kernel, spec)
        _, _, gx = distlayers.arithmetic_backward(probe, v, kernel, spec)
        return float(fz @ probe), gx

    def f_w(v):
        k = distlayers.DistributionKernel(v, kernel.bias_hist)
        fz = distlayers.arithmetic_forward(fx, k, spec)
        gw, _, _ = distlayers.arithmetic_backward(probe, fx, k, spec)
        return float(fz @ probe), gw

    def f_b(v):
        k = distlayers.DistributionKernel(kernel.weight_hist, v)
        fz = distlayers.arithmetic_forward(fx, k, spec)
        _, gb, _ = distlayers.arithmetic_backward(probe, fx, k, spec)
        return float(fz @ probe), gb

    err = max(
        nn.grad_check(f_x, fx),
        nn.grad_check(f_w, kernel.weight_hist.copy()),
        nn.grad_check(f_b, kernel.bias_hist.copy()),
    )
    return _result("gradient-arithmetic-module", err, 1e-8)


def check_kde_vs_quadrature():
    rng = np.random.default_rng(20)
    spec = histogram.HistogramSpec(n_bins=16, bandwidth=0.05)
    px = rng.uniform(-0.5, 0.5, size=16)  # away from the domain edges
    bins = histogram.kde_histogram(px, spec)

    b = spec.bandwidth

    def density(x):
        return np.exp(-0.5 * ((x - px) / b) ** 2).sum() / (px.size * b * np.sqrt(2 * np.pi))

    raw = np.array(
        [
            quad(density, spec.edges[i], spec.edges[i + 1], epsabs=1e-13, epsrel=1e-12, limit=200)[0]
            for i in range(spec.n_bins)
        ]
    )
    oracle = raw / raw.sum()
    err = np.abs(bins - oracle).max()
    return _result("kde-vs-quadrature", err, 1e-10, "N=16 B=0.05")


def check_kde_normalization():
    rng = np.random.default_rng(21)
    worst = 0.0
    for n_bins, bandwidth, m in ((256, 0.001, 784), (16, 0.05, 40), (8, 0.2, 5)):
        spec = histogram.HistogramSpec(n_bins=n_bins, bandwidth=bandwidth)
        px = rng.uniform(-1, 1, size=m)
        worst = max(worst, abs(histogram.kde_histogram(px, spec).sum() - 1.0))
    return _result("kde-normalization", worst, 1e-12)


def check_kde_vs_discrete():
    rng = np.random.default_rng(22)
    spec = histogram.HistogramSpec(n_bins=16, bandwidth=1e-6)
    # pixels parked well inside bins: > 1e-4 from every boundary
    px = spec.centers[rng.integers(0, 16, size=50)] + rng.uniform(-0.02, 0.02, size=50)
    err = np.abs(
        histogram.kde_histogram(px, spec) - histogram.discrete_histogram(px, spec)
    ).max()
    return _result("kde-vs-discrete", err, 1e-6, "B=1e-6")


def check_kde_permutation_invariance():
    rng = np.random.default_rng(23)
    spec = histogram.HistogramSpec()
    px = rng.uniform(-1, 1, size=784)
    bins = histogram.kde_histogram(px, spec)
    worst = 0.0
    for _ in range(3):
        shuffled = rng.permutation(px)
        worst = max(worst, np.abs(histogram.kde_histogram(shuffled, spec) - bins).max())
    return _result("kde-permutation-invariance", worst, 0.0)


def _product_bruteforce(fx, fw, spec):
    n = spec.n_bins
    centers = spec.centers
    out = np.zeros(n)
    for i in range(n):
        for m in range(n):
            k = int(np.floor((centers[i] * centers[m] + 1.0) * (n / 2.0)))
            out[min(max(k, 0), n - 1)] += fw[i] * fx[m]
    return out


def _sum_bruteforce(fx, fb, spec):
    n = spec.n_bins
    centers = spec.centers
    out = np.zeros(n)
    for i in range(n):
        for j in range(i, n):
            k = int(np.floor((centers[i] + centers[j] + 1.0) * (n / 2.0)))
            k = min(max(k, 0), n - 1)
            if i == j:
                out[k] += fb[i] * fx[i]
            else:
                out[k] += fb[i] * fx[j] + fb[j] * fx[i]
    return out


def check_scatter_vs_bruteforce():
    rng = np.random.default_rng(24)
    worst = 0.0
    for n in (4, 8):
        spec = histogram.HistogramSpec(n_bins=n, bandwidth=0.05)
        fx = rng.random(n)
        fw = rng.standard_normal(n)
        a = distlayers.product_dist_forward(fx, fw, spec)
        b = _product_bruteforce(fx, fw, spec)
        worst = max(worst, float(np.abs(a - b).max()))
        c = distlayers.sum_dist_forward(fx, fw, spec)
        d = _sum_bruteforce(fx, fw, spec)
        worst = max(worst, float(np.abs(c - d).max()))
    return _result("scatter-vs-bruteforce", worst, 0.0, "bit-for-bit at N<=8")


def check_scatter_vs_montecarlo():
    rng = np.random.default_rng(25)
    n = 8
    spec = histogram.HistogramSpec(n_bins=n, bandwidth=0.05)
    fw = rng.random(n)
    fw /= fw.sum()
    fx = rng.random(n)
    fx /= fx.sum()
    draws = 1_000_000
    wi = rng.choice(n, size=draws, p=fw)
    xm = rng.choice(n, size=draws, p=fx)

    prod_vals = spec.centers[wi] * spec.centers[xm]
    emp_prod = np.bincount(histogram.bin_index(prod_vals, spec), minlength=n) / draws
    tv_prod = 0.5 * np.abs(emp_prod - distlayers.product_dist_forward(fx, fw, spec)).sum()

    sums = spec.centers[wi] + spec.centers[xm]
    k = np.clip(np.floor((sums + 1.0) * (n / 2.0)).astype(np.int64), 0, n - 1)
    emp_sum = np.bincount(k, minlength=n) / draws
    tv_sum = 0.5 * np.abs(emp_sum - distlayers.sum_dist_forward(fx, fw, spec)).sum()

    return _result("scatter-vs-montecarlo", max(tv_prod, tv_sum), 0.01, "1e6 draws")


def check_mass_conservation():
    rng = np.random.default_rng(26)
    worst = 0.0
    for n in (8, 16, 64):
        spec = histogram.HistogramSpec(n_bins=n, bandwidth=0.05)
        fx = rng.standard_normal(n)
        fk = rng.standard_normal(n)
        expected = fk.sum() * fx.sum()
        worst = max(worst, abs(distlayers.product_dist_forward(fx, fk, spec).sum() - expected))
        worst = max(worst, abs(distlayers.sum_dist_forward(fx, fk, spec).sum() - expected))
    return _result("mass-conservation", worst, 1e-12)


def check_sum_commutativity():
    rng = np.random.default_rng(27)
    worst = 0.0
    for n in (8, 64, 256):
        spec = histogram.HistogramSpec(n_bins=n, bandwidth=0.05)
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        diff = distlayers.sum_dist_forward(a, b, spec) - distlayers.sum_dist_forward(b, a, spec)
        worst = max(worst, float(np.abs(diff).max()))
    return _result("sum-commutativity", worst, 0.0, "exact")


def run_all(perturb=frozenset()):
    """Run every check; returns a list of :class:`CheckResult`."""
    perturb = frozenset(perturb)
    unknown = perturb - set(PERTURBATIONS)
    if unknown:
        raise ValueError(f"unknown perturbations: {sorted(unknown)}")
    return [
        check_linear_grad(perturb),
        check_conv2d_grad(),
        check_maxpool_grad(),
        check_relu_grad(),
        check_log_softmax_nll_grad(),
        check_kde_grad(),
        check_product_grad(),
        check_sum_grad(),
        check_arithmetic_grad(),
        check_kde_vs_quadrature(),
        check_kde_normalization(),
        check_kde_vs_discrete(),
        check_kde_permutation_invariance(),
        check_scatter_vs_bruteforce(),
        check_scatter_vs_montecarlo(),
        check_mass_conservation(),
        check_sum_commutativity(),
    ]
