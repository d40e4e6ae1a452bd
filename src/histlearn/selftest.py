"""Dataset-free property checks.

Every check pairs an implementation path with an independent oracle:
finite differences for gradients, adaptive quadrature for the KDE
histogram, literal Python double loops and Monte-Carlo sampling for the
scatter matrices of the W*X + B layer and for the layer itself, the code
that dadm trains with, and the textbook formula for the Adam optimizer
every architecture trains with.  The histogram oracles likewise run
``kde_histogram``, the function the dadm histogram layer calls, on
batches that mix byte-valued and rotated images, which take its sort
path; ``kde-byte-vs-sort`` holds its byte-count path, the one all-byte
batches take, to the same bits, and ``kde-vs-quadrature`` also runs each
path alone at the production settings, 256 bins and bandwidth 0.001,
where ``gradient-kde-histogram`` also checks a seeded sample of pixels of
a byte and a rotated 28x28 row.  ``transform-streams-vs-numpy`` holds the
eval battery's array-computed random streams and draws to the generators
numpy seeds one image at a time.  Each result carries the
measured error and the allowed tolerance so failures are directly
actionable.

This module is the one home of those oracles and of the gradient probes
(``_probe_input``, ``_probe_param``, ``_fold_bruteforce``,
``_law_bruteforce``, ``_adam_reference``, ``_reference_draws``, ...).
The test suite imports them rather than keeping copies, and a test whose
assertion a check here already carries reads that check's result from its
one session run of the battery.

The whole battery runs in well under two minutes on a desktop CPU and
needs no dataset.  The test suite breaks layers' backward passes, the
histogram's backward at 256 bins only, the sum stage's bins and Adam's
step size by monkeypatching them, to prove the harness can actually
fail.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from . import data, distlayers, histogram, nn, transforms


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


def _probe_input(layer, w):
    def f(xv):
        out = layer.forward(xv)
        return float((out * w).sum()), layer.backward(w)

    return f


def _probe_param(layer, param, x, w):
    def f(pv):
        param.value[...] = pv
        out = layer.forward(x)
        layer.backward(w)
        return float((out * w).sum()), param.grad.copy()

    return f


def check_linear_grad():
    rng = np.random.default_rng(11)
    layer = nn.Linear(4, 3, rng)
    x = rng.standard_normal((2, 4))
    w = rng.standard_normal((2, 3))
    err = nn.grad_check(_probe_input(layer, w), x)
    err = max(err, nn.grad_check(_probe_param(layer, layer.weight, x, w), layer.weight.value.copy()))
    err = max(err, nn.grad_check(_probe_param(layer, layer.bias, x, w), layer.bias.value.copy()))
    return _result("gradient-linear", err, 1e-6)


def check_conv2d_grad():
    rng = np.random.default_rng(12)
    err = 0.0
    # a single-channel and a multi-channel batch of two
    for c_in, c_out, k, x_shape in ((1, 2, 2, (2, 1, 5, 5)), (2, 3, 3, (2, 2, 5, 5))):
        layer = nn.Conv2d(c_in, c_out, k, k, rng)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(layer.forward(x).shape)
        err = max(err, nn.grad_check(_probe_input(layer, w), x))
        err = max(err, nn.grad_check(_probe_param(layer, layer.weight, x, w), layer.weight.value.copy()))
        err = max(err, nn.grad_check(_probe_param(layer, layer.bias, x, w), layer.bias.value.copy()))
    return _result("gradient-conv2d", err, 1e-6)


def check_maxpool_grad():
    rng = np.random.default_rng(13)
    layer = nn.MaxPool2d()
    # distinct values keep every window un-tied, so the max is differentiable
    x = rng.permutation(32).astype(np.float64).reshape(2, 1, 4, 4) * 0.37
    w = rng.standard_normal((2, 1, 2, 2))
    err = nn.grad_check(_probe_input(layer, w), x)
    return _result("gradient-maxpool", err, 1e-6)


def check_relu_grad():
    rng = np.random.default_rng(14)
    layer = nn.ReLU()
    x = rng.standard_normal(12)
    x[np.abs(x) < 0.1] = 0.5  # keep clear of the kink at 0
    w = rng.standard_normal(12)
    err = nn.grad_check(_probe_input(layer, w), x)
    return _result("gradient-relu", err, 1e-6)


def check_log_softmax_nll_grad():
    rng = np.random.default_rng(15)
    logits = rng.standard_normal((3, 10))
    labels = np.array([3, 0, 7])

    def f(z):
        return nn.log_softmax_nll(z, labels)

    err = nn.grad_check(f, logits)
    return _result("gradient-log-softmax-nll", err, 1e-6, "batch of 3, mean loss")


def _kde_grad_toy():
    """FD error of the histogram gradient at 8 bins and B=0.05, and what
    it ran on."""
    rng = np.random.default_rng(16)
    spec = histogram.HistogramSpec(n_bins=8, bandwidth=0.05)
    h = 1e-4
    # a row of pixels parked > 2h away from every bin edge, and byte and
    # rotated rows, each with its own upstream gradient; the batch is scaled
    # so a step of h keeps every pixel (rotation fills with -1) in [-1, 1]
    px = spec.centers[rng.integers(0, 8, size=6)] + rng.uniform(-0.08, 0.08, size=6)
    rows = np.concatenate([px[None], _byte_and_rotated_rows(rng, (2, 3))]) * (1.0 - 2.0 * h)
    g = rng.standard_normal((len(rows), 8))

    def f(p):
        bins = histogram.kde_histogram(p, spec)
        return float((bins * g).sum()), histogram.kde_histogram_backward(g, p, spec)

    return nn.grad_check(f, rows, h=h), "N=8 B=0.05 parked, byte and rotated rows, h=1e-4"


def _kde_grad_production():
    """FD error of the histogram gradient at 256 bins and B=0.001, on one
    byte and one rotated 28x28 row, at a seeded sample of each row's pixels
    where the gradient is not zero and a step of h stays inside [-1, 1];
    and what it ran on."""
    rng = np.random.default_rng(31)
    spec = histogram.HistogramSpec()
    # far below the bandwidth: at h=1e-5, a hundredth of B, truncation error
    # reads 2e-3; checking all 784 pixels of each row takes about 3 s
    h, sample = 1e-6, 64
    rows = _byte_and_rotated_rows(rng, (28, 28), count=1)
    g = rng.standard_normal((2, spec.n_bins))
    grad = histogram.kde_histogram_backward(g, rows, spec)
    inside = (grad != 0.0) & (np.abs(rows) <= 1.0 - h)
    picks = [rng.choice(np.flatnonzero(row), sample, replace=False) for row in inside]
    idx = np.concatenate([r * rows.shape[1] + np.sort(p) for r, p in enumerate(picks)])

    def f(values):
        p = rows.copy()
        p.ravel()[idx] = values
        bins = histogram.kde_histogram(p, spec)
        return float((bins * g).sum()), histogram.kde_histogram_backward(g, p, spec).ravel()[idx]

    detail = f"N=256 B=0.001 byte and rotated 28x28 rows, {sample} sampled pixels each, h={h:g}"
    return nn.grad_check(f, rows.ravel()[idx], h=h), detail


def check_kde_grad():
    (toy, toy_detail), (production, production_detail) = _kde_grad_toy(), _kde_grad_production()
    return _result("gradient-kde-histogram", max(toy, production), 1e-4, f"{toy_detail}; {production_detail}")


def _layer_grad_check(name, seed, target):
    """FD check of the W*X + B layer against one of its gradients.

    The layer is linear in each of its three arguments, so a central
    difference is exact for any step; a unit step keeps the rounding noise
    of the difference far below the tolerance at N=256.
    """
    err = 0.0
    for n in (8, 256):
        rng = np.random.default_rng(seed)
        spec = histogram.HistogramSpec(n_bins=n, bandwidth=0.05)
        layer = distlayers.ArithmeticDistributionLayer(spec, rng.standard_normal(n), rng.standard_normal(n))
        x = rng.standard_normal((2, n))
        w = rng.standard_normal((2, n))
        if target == "input":
            err = max(err, nn.grad_check(_probe_input(layer, w), x, h=1.0))
        else:
            param = getattr(layer, target)
            probe = _probe_param(layer, param, x, w)
            err = max(err, nn.grad_check(probe, param.value.copy(), h=1.0))
    return _result(name, err, 1e-8, f"d/d {target} at N=8 and N=256")


def check_product_grad():
    return _layer_grad_check("gradient-product-layer", 17, "weight_hist")


def check_sum_grad():
    return _layer_grad_check("gradient-sum-layer", 18, "bias_hist")


def check_arithmetic_grad():
    return _layer_grad_check("gradient-arithmetic-module", 19, "input")


def _byte_and_rotated_rows(rng, shape, count=2):
    """``count`` byte-valued images of ``shape`` and the same images each
    rotated by a random angle, as the rows of one batch: the two kinds of
    input the dadm histogram layer gets (originals and the eval battery)."""
    byte = data.normalize(rng.integers(0, 256, (count, *shape)))
    rotated = np.stack([transforms.rotate(img, rng.uniform(0.0, 90.0)) for img in byte])
    return np.concatenate([byte, rotated]).reshape(2 * count, -1)


def _quadrature_histogram(px, spec):
    b = spec.bandwidth

    def density(x):
        return np.exp(-0.5 * ((x - px) / b) ** 2).sum() / (px.size * b * np.sqrt(2 * np.pi))

    raw = np.array(
        [
            quad(density, spec.edges[i], spec.edges[i + 1], epsabs=1e-13, epsrel=1e-12, limit=200)[0]
            for i in range(spec.n_bins)
        ]
    )
    return raw / raw.sum()


def _quadrature_error(rows, spec):
    """Largest gap between ``kde_histogram`` of a batch and each row's quadrature."""
    bins = histogram.kde_histogram(rows, spec)
    return max(np.abs(b - _quadrature_histogram(row, spec)).max() for b, row in zip(bins, rows))


def check_kde_vs_quadrature():
    rng = np.random.default_rng(20)
    px = rng.uniform(-0.5, 0.5, size=16)  # away from the domain edges
    rows = np.concatenate([px[None], _byte_and_rotated_rows(rng, (4, 4))])
    err = _quadrature_error(rows, histogram.HistogramSpec(n_bins=16, bandwidth=0.05))
    # the production settings: all-byte rows alone take the byte-count path,
    # their rotations the sort path
    rows = _byte_and_rotated_rows(rng, (4, 4))
    spec = histogram.HistogramSpec()
    err = max(err, _quadrature_error(rows[:2], spec), _quadrature_error(rows[2:], spec))
    detail = "N=16 B=0.05 uniform, byte and rotated rows; N=256 B=0.001 byte rows, rotated rows"
    return _result("kde-vs-quadrature", err, 1e-10, detail)


def check_kde_normalization():
    rng = np.random.default_rng(21)
    worst = 0.0
    for n_bins, bandwidth, shape in ((256, 0.001, (28, 28)), (16, 0.05, (5, 8)), (8, 0.2, (1, 5))):
        spec = histogram.HistogramSpec(n_bins=n_bins, bandwidth=bandwidth)
        px = rng.uniform(-1, 1, size=(1, np.prod(shape)))
        rows = np.concatenate([px, _byte_and_rotated_rows(rng, shape)])
        worst = max(worst, np.abs(histogram.kde_histogram(rows, spec).sum(axis=1) - 1.0).max())
    return _result("kde-normalization", worst, 1e-12)


def check_kde_vs_discrete():
    rng = np.random.default_rng(22)
    spec = histogram.HistogramSpec(n_bins=16, bandwidth=1e-6)
    # every pixel parked well inside its bin, > 1e-4 from every boundary:
    # bin centers plus a little, and bytes 1-254 (0 and 255 are the domain
    # edges); a right-angle rotation keeps the values, only moves them
    px = spec.centers[rng.integers(0, 16, size=64)] + rng.uniform(-0.02, 0.02, size=64)
    byte = data.normalize(rng.integers(1, 255, size=64))
    images = np.stack([px, byte]).reshape(2, 8, 8)
    rotated = np.stack([transforms.rotate(img, 90.0) for img in images])
    rows = np.concatenate([images, rotated]).reshape(4, -1)
    err = np.abs(histogram.kde_histogram(rows, spec) - histogram.discrete_histogram(rows, spec)).max()
    return _result("kde-vs-discrete", err, 1e-6, "B=1e-6")


def check_kde_permutation_invariance():
    # bit for bit: neither the order of a row's pixels nor the order of the
    # rows may change a histogram
    rng = np.random.default_rng(23)
    spec = histogram.HistogramSpec()
    px = rng.uniform(-1, 1, size=(1, 784))
    rows = np.concatenate([px, _byte_and_rotated_rows(rng, (28, 28))])
    bins = histogram.kde_histogram(rows, spec)
    worst = 0.0
    for _ in range(3):
        order = rng.permutation(len(rows))
        shuffled = rng.permuted(rows[order], axis=1)
        worst = max(worst, np.abs(histogram.kde_histogram(shuffled, spec) - bins[order]).max())
    return _result("kde-permutation-invariance", worst, 0.0, "byte and rotated rows")


def check_kde_byte_vs_sort():
    # the byte-count path, which all-byte batches take (training and four of
    # eval's five kinds), against the sort path the oracles above run: a row
    # has the same bits alone and in any batch, so each all-byte batch goes
    # once alone and once beside a rotated row, which makes its group sort
    rng = np.random.default_rng(30)
    images = data.normalize(rng.integers(0, 256, (2, 28, 28)))
    rows = np.concatenate([
        images,
        transforms.translate(images[0], 5, -7)[None],
        np.full((1, 28, 28), -1.0),
        np.full((1, 28, 28), images[1, 0, 0]),
    ]).reshape(5, -1)
    rotated = transforms.rotate(images[1], 33.0).reshape(1, -1)
    worst = 0.0
    for n_bins, bandwidth in ((256, 0.001), (16, 0.5)):
        spec = histogram.HistogramSpec(n_bins=n_bins, bandwidth=bandwidth)
        counted = histogram.kde_histogram(rows, spec)
        sorted_ = histogram.kde_histogram(np.concatenate([rows, rotated]), spec)[:-1]
        worst = max(worst, np.abs(counted - sorted_).max())
    return _result("kde-byte-vs-sort", worst, 0.0, "all-byte rows at N=256 B=0.001 and N=16 B=0.5")


def _reference_draws(seed, i, kind, n_pixels):
    """Image ``i``'s draws for ``kind``, straight from its own generator
    ``default_rng([seed, i])``: rotate's angle, translate's ``(dx, dy)``,
    flip's horizontal flag or shuffle's permutation."""
    rng = np.random.default_rng([seed, i])
    if kind == "rotate":
        return rng.uniform(0.0, transforms.MAX_DEGREES)
    if kind == "translate":
        span = (-transforms.MAX_OFFSET, transforms.MAX_OFFSET + 1)
        return int(rng.integers(*span)), int(rng.integers(*span))
    if kind == "flip":
        return rng.random() < 0.5
    return rng.permutation(n_pixels)


def check_transform_streams():
    # every seed length SeedSequence treats differently: entropy of 2 to 6
    # uint32 words, short of, filling and past its 4-word pool; indices at
    # both ends of their one word
    seeds = (0, 7, 2**32 + 5, 2**64 + 3, 2**128 + 1)
    indices = np.r_[0:24, 2**31, 2**32 - 1]
    kinds = ("rotate", "translate", "flip", "shuffle")
    bad = set()
    for seed in seeds:
        streams = transforms.stream_states(seed, indices)
        draws = {kind: transforms.stream_draws(streams, kind, 784) for kind in kinds}
        draws["translate"] = np.stack(draws["translate"], axis=1)
        for j, i in enumerate(indices.tolist()):
            bit_generator = np.random.default_rng([seed, i]).bit_generator
            state = bit_generator.state["state"]
            state_hi, state_lo, inc_hi, inc_lo, r0 = streams[j].tolist()
            ok = state["state"] == state_hi << 64 | state_lo and state["inc"] == inc_hi << 64 | inc_lo
            ok = ok and int(bit_generator.random_raw()) == r0
            for kind in kinds:
                ok = ok and np.array_equal(draws[kind][j], _reference_draws(seed, i, kind, 784))
            if not ok:
                bad.add((seed, i))
    detail = f"images whose state, first output or draws differ, of {len(seeds) * len(indices)}"
    return _result("transform-streams-vs-numpy", len(bad), 0, detail)


@lru_cache(maxsize=8)
def _pair_bins(n, op):
    """Bin of op(centers[i], centers[m]) for every pair, as rows i of columns m.

    Center i is a / n for the integer a = 2i + 1 - n, so a sum is an
    integer over n and a product an integer over n**2.  The bin
    floor((z + 1) * n/2), half-open and clamped into [0, N), is therefore
    floored exactly in integers; in floats the pair value can round to just
    below a bin edge and land a bin low.
    """
    den = {operator.add: n, operator.mul: n * n}[op]
    a = [2 * i + 1 - n for i in range(n)]
    return [[min(max((op(x, y) + den) * n // (2 * den), 0), n - 1) for y in a] for x in a]


def _clamped_bins(values, n):
    """Bins of Monte-Carlo pair values: half-open, clamped into [0, N)."""
    return np.clip(np.floor((values + 1.0) * (n / 2.0)).astype(np.int64), 0, n - 1)


def _fold_bruteforce(kernel, spec, op):
    """Loop fold of a kernel: M[k(i, m), m] += kernel[i], i ascending."""
    n = spec.n_bins
    bins = _pair_bins(n, op)
    out = [[0.0] * n for _ in range(n)]
    for i, value in enumerate(kernel.tolist()):
        for m in range(n):
            out[bins[i][m]][m] += value
    return np.array(out)


def _law_bruteforce(fx, fk, spec, op):
    """Literal double loop: out[k(i, m)] += fk[i] * fx[m]."""
    n = spec.n_bins
    bins = _pair_bins(n, op)
    fx = fx.tolist()
    out = [0.0] * n
    for i, value in enumerate(fk.tolist()):
        for m in range(n):
            out[bins[i][m]] += value * fx[m]
    return np.array(out)


_BUILDERS = ((distlayers.product_matrix, operator.mul), (distlayers.sum_matrix, operator.add))


def check_scatter_vs_bruteforce():
    rng = np.random.default_rng(24)
    worst = 0.0
    # 6 and 12: even bin counts that are not powers of two, where a float
    # pair sum can round to just below a bin edge
    for n in (4, 6, 8, 12, 256):
        spec = histogram.HistogramSpec(n_bins=n, bandwidth=0.05)
        fk = rng.standard_normal(n)
        for build, op in _BUILDERS:
            diff = build(fk, spec) - _fold_bruteforce(fk, spec, op)
            worst = max(worst, float(np.abs(diff).max()))
    return _result("scatter-vs-bruteforce", worst, 0.0, "bit-for-bit folds at N=4, 6, 8, 12, 256")


def check_layer_vs_bruteforce():
    rng = np.random.default_rng(28)
    spec = histogram.HistogramSpec()
    n = spec.n_bins
    fw = rng.standard_normal(n)
    fb = rng.standard_normal(n)
    layer = distlayers.ArithmeticDistributionLayer(spec, fw, fb)
    x = rng.standard_normal((4, n))
    products = [_law_bruteforce(row, fw, spec, operator.mul) for row in x]
    ref = np.stack([_law_bruteforce(fy, fb, spec, operator.add) for fy in products])
    err = np.abs(layer.forward(x) - ref).max() / np.abs(ref).max()
    return _result("layer-vs-bruteforce", err, 1e-12, f"4 rows at N={n}, relative to max|ref|")


def _random_law(rng, n):
    f = rng.random(n)
    return f / f.sum()


def check_scatter_vs_montecarlo():
    rng = np.random.default_rng(25)
    n = 8
    spec = histogram.HistogramSpec(n_bins=n, bandwidth=0.05)
    fw = _random_law(rng, n)
    fx = _random_law(rng, n)
    draws = 1_000_000
    wi = rng.choice(n, size=draws, p=fw)
    xm = rng.choice(n, size=draws, p=fx)

    prod_vals = spec.centers[wi] * spec.centers[xm]
    emp_prod = np.bincount(histogram.bin_index(prod_vals, spec), minlength=n) / draws
    tv_prod = 0.5 * np.abs(emp_prod - distlayers.product_matrix(fw, spec) @ fx).sum()

    sums = spec.centers[wi] + spec.centers[xm]
    emp_sum = np.bincount(_clamped_bins(sums, n), minlength=n) / draws
    tv_sum = 0.5 * np.abs(emp_sum - distlayers.sum_matrix(fw, spec) @ fx).sum()

    # the whole layer at N=256 on a batch of two input laws: W, X and B
    # drawn independently (both rows share the W and B draws), W*X
    # discretized to its bin center before B is added
    spec = histogram.HistogramSpec()
    n = spec.n_bins
    fw, fb = _random_law(rng, n), _random_law(rng, n)
    fxs = np.stack([_random_law(rng, n) for _ in range(2)])
    layer = distlayers.ArithmeticDistributionLayer(spec, fw, fb)
    counts = np.zeros((2, n))
    chunks = 4
    for _ in range(chunks):
        wi = rng.choice(n, size=draws, p=fw)
        bj = rng.choice(n, size=draws, p=fb)
        for row, fx in zip(counts, fxs):
            xm = rng.choice(n, size=draws, p=fx)
            y = histogram.bin_index(spec.centers[wi] * spec.centers[xm], spec)
            row += np.bincount(_clamped_bins(spec.centers[y] + spec.centers[bj], n), minlength=n)
    tv_layer = 0.5 * np.abs(counts / (chunks * draws) - layer.forward(fxs)).sum(axis=1).max()

    return _result(
        "scatter-vs-montecarlo",
        max(tv_prod, tv_sum, tv_layer),
        0.01,
        "stages at N=8 with 1e6 draws, layer on 2 rows at N=256 with 4e6 each",
    )


def check_mass_conservation():
    rng = np.random.default_rng(26)
    worst = 0.0
    for n in (8, 16, 64, 256):
        spec = histogram.HistogramSpec(n_bins=n, bandwidth=0.05)
        fx = rng.standard_normal(n)
        fk = rng.standard_normal(n)
        expected = fk.sum() * fx.sum()
        for build, _ in _BUILDERS:
            worst = max(worst, abs((build(fk, spec) @ fx).sum() - expected))
    return _result("mass-conservation", worst, 1e-12)


def check_sum_commutativity():
    # sum_matrix(e_j) @ e_m is column m of sum_matrix(e_j); its nonzero
    # cells, keyed (j, m, output bin), must match those keyed (m, j, bin)
    worst = 0.0
    for n in (4, 8, 64, 256):
        spec = histogram.HistogramSpec(n_bins=n, bandwidth=0.05)
        eye = np.eye(n)
        cells = {}
        for j in range(n):
            s = distlayers.sum_matrix(eye[j], spec)
            for k, m in zip(*np.nonzero(s)):
                cells[j, m, k] = s[k, m]
        for (j, m, k), value in cells.items():
            worst = max(worst, abs(value - cells.get((m, j, k), 0.0)))
    return _result("sum-commutativity", worst, 0.0, "point masses at N=4, 8, 64, 256")


def _adam_reference(value, m, v, g, t, lr):
    """Adam step ``t`` as :meth:`nn.Adam.step` runs it, out of place and
    unblocked: bias-free moment sums and both corrections folded into the
    step size and the denominator guard.  Returns the new ``(value, m, v)``."""
    b1, b2 = nn.BETA1, nn.BETA2
    r = math.sqrt((1.0 - b2**t) / (1.0 - b2))
    alpha = lr * (1.0 - b1) / (1.0 - b1**t) * r
    m = b1 * m + g
    v = b2 * v + g * g
    return value - alpha * (m / (np.sqrt(v) + nn.EPS * r)), m, v


def _adam_textbook(value, m, v, g, t, lr):
    """Adam step ``t`` as Kingma & Ba (2015) write it: bias-corrected
    moment estimates.  Returns the new ``(value, m, v)``."""
    b1, b2 = nn.BETA1, nn.BETA2
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g**2
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    return value - lr * m_hat / (np.sqrt(v_hat) + nn.EPS), m, v


def check_adam_vs_textbook():
    rng = np.random.default_rng(29)
    lr, steps = 0.001, 1000
    value = rng.standard_normal(256)
    param = nn.Parameter(value.copy(), "p")
    optimizer = nn.Adam([param], lr=lr)
    m = v = np.zeros_like(value)
    # each element keeps one gradient scale in 1e-9..1e2, where sqrt(v_hat)
    # is far below and far above EPS; signs and sizes are redrawn each step
    scale = 10.0 ** rng.uniform(-9.0, 2.0, size=value.size)
    worst = 0.0
    for t in range(1, steps + 1):
        g = scale * rng.standard_normal(value.size)
        param.grad[...] = g
        optimizer.step()
        value, m, v = _adam_textbook(value, m, v, g, t, lr)
        worst = max(worst, float(np.abs(param.value - value).max()))
    detail = f"max |p - p_textbook| over {steps} steps, |g| 1e-9..1e2"
    return _result("adam-vs-textbook", worst, 1e-12, detail)


def run_all():
    """Run every check; returns a list of :class:`CheckResult`."""
    return [
        check_linear_grad(),
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
        check_kde_byte_vs_sort(),
        check_scatter_vs_bruteforce(),
        check_layer_vs_bruteforce(),
        check_scatter_vs_montecarlo(),
        check_mass_conservation(),
        check_sum_commutativity(),
        check_adam_vs_textbook(),
        check_transform_streams(),
    ]
