"""Dense-tensor layers with hand-written backward passes, plus Adam.

There is no autograd here.  During ``forward`` every layer keeps the
arrays its backward pass reads, its input or output; anything derived from
them alone, such as ReLU's and max-pool's routing masks and a
convolution's im2col columns, is built in ``backward``, so a forward-only
pass builds nothing it does not use.  Each layer exposes an explicit
``backward`` that sets each parameter gradient (it writes
``Parameter.grad`` rather than adding to it, so nothing zeroes gradients
between steps) and returns the gradient with respect to its input.  A
gradient not shaped like the last forward's output is a ``ShapeError``,
raised before any work.  A layer with parameters takes
``input_grad=False`` to skip that input gradient when nobody reads it (the
first trained layer of a model) and return ``None``; its parameter
gradients are the same bits.
All math is float64 and every layer takes batches only: the leading
dimension is the batch, and a single sample is a batch of one.
An input of the wrong rank is a ``ShapeError``, never reinterpreted.
Reshaping a batch to rows has one home, ``Linear``: it reads any
``(batch, ...)`` input as one row per sample, so no layer only flattens.

Convolutions compute batch-innermost: ``Conv2d`` returns an NCHW-shaped
view of a ``(C, H, W, B)`` buffer, max-pooling and ReLU keep their input's
memory order, and so the next ``Conv2d`` reads its input in place and a
``Linear`` reads it as the transpose of an ``(in_features, batch)``
matrix.  ``Linear``, ``Conv2d`` and ``MaxPool2d`` return their input
gradient in their input's memory order and ``ReLU`` in its upstream
gradient's, so backward passes need no relayout either.

``grad_check`` closes the loop: central finite differences against any
``f(x) -> (scalar, grad)`` pair, used throughout the test suite.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonFiniteError, ShapeError


class Parameter:
    """A learnable tensor and the gradient its layer's last backward wrote.

    It owns ``value``: a C-contiguous float64 array is taken as it is, not
    copied (anything else is converted once).  The gradient array is
    allocated, zeroed, on first use, the first read of ``grad`` by a
    layer's backward or by an ``Adam`` built over the parameter, so a model
    that only runs forward holds none."""

    def __init__(self, value, name: str = "param"):
        self.value = np.asarray(value, dtype=np.float64, order="C")
        self._grad = None
        self.name = name

    @property
    def grad(self):
        """The gradient array, allocated and zeroed at the first read."""
        if self._grad is None:
            self._grad = np.zeros(self.value.shape)
        return self._grad

    @grad.setter
    def grad(self, grad):
        self._grad = grad

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.value.shape})"


def _checked_grad(layer, grad, out_shape):
    """``grad`` as float64, shaped ``out_shape``, the last forward's output
    shape (``None`` before any forward), or else a ``ShapeError``."""
    g = np.asarray(grad, dtype=np.float64)
    if out_shape is None:
        raise ShapeError(f"{layer}: backward before any forward")
    if g.shape != out_shape:
        raise ShapeError(
            f"{layer}: gradient shape {g.shape} does not match output shape {out_shape}"
        )
    return g


def _uniform_init(rng, shape, fan_in):
    """``rng.uniform(-bound, bound, shape)`` bit for bit, which is
    ``low + (high - low) * rng.random()`` per draw, computed in place."""
    bound = 1.0 / np.sqrt(fan_in)
    out = rng.random(shape)
    out *= bound - -bound
    out += -bound
    return out


def _initial(init, name, shape, fan_in):
    """Parameter ``name`` of a new layer.  ``init`` is a numpy Generator,
    from which its values are drawn uniform in +-1/sqrt(fan_in), or a
    function ``(name, shape) -> array`` that gives them (a checkpoint's
    stored values), and then nothing is drawn."""
    if isinstance(init, np.random.Generator):
        return Parameter(_uniform_init(init, shape, fan_in), name)
    return Parameter(init(name, shape), name)


class Linear:
    """y = x @ W.T + b with weight shaped (out_features, in_features).

    ``x`` is ``(batch, ...)``, read as ``(batch, in_features)`` rows in C
    order; a batch-innermost ``x`` is read in place.  The input gradient
    comes back in ``x``'s shape and memory order.  ``init`` gives the
    initial weight, then bias (see ``_initial``)."""

    def __init__(self, in_features, out_features, init, name="linear"):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = _initial(init, f"{name}.weight", (out_features, in_features), in_features)
        self.bias = _initial(init, f"{name}.bias", (out_features,), in_features)
        self._x = None
        self._out_shape = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2 or np.prod(x.shape[1:]) != self.in_features:
            raise ShapeError(
                f"linear: input shape {x.shape} does not match "
                f"weight shape {self.weight.value.shape}"
            )
        self._in_shape = x.shape
        self._out_shape = (x.shape[0], self.out_features)
        # a batch-innermost input (a convolution's) is read in place, as the
        # transpose of an (in_features, batch) matrix
        last = x.transpose(*range(1, x.ndim), 0)
        self._batch_last = not x.flags.c_contiguous and last.flags.c_contiguous
        if self._batch_last:
            self._x = last.reshape(self.in_features, x.shape[0]).T
        else:
            self._x = x.reshape(x.shape[0], self.in_features)
        return self._x @ self.weight.value.T + self.bias.value

    def backward(self, grad, input_grad=True):
        g = _checked_grad("linear", grad, self._out_shape)
        np.matmul(g.T, self._x, out=self.weight.grad)
        np.sum(g, axis=0, out=self.bias.grad)
        if not input_grad:
            return None
        dx = (g @ self.weight.value).reshape(self._in_shape)
        if self._batch_last:
            # back in the input's memory order, the order a convolution reads
            return np.moveaxis(np.ascontiguousarray(np.moveaxis(dx, 0, -1)), -1, 0)
        return dx


# Bytes of the im2col block that Conv2d fills and multiplies at a time, a
# whole number of output rows and at least one, so that the GEMM reads the
# block while it is still in L2 cache.  perfbench digits, 20 rounds
# alternating with one whole-batch buffer, median ms: lenet evaluate of 256
# images under 5 kinds, whole 123.6, 256 KiB 94.1, 384 KiB 92.9, 512 KiB
# 90.4, 768 KiB 101.6, 1 MiB 107.1; one lenet and one cnn training epoch of
# 1024 images, whole 576, 256 KiB 524, 512 KiB 554, 1 MiB 541, all within
# one another's quartiles (1 BLAS thread, 2-vCPU Xeon VM with 2 MiB L2 per
# core).
IM2COL_BYTES = 2**19


class Conv2d:
    """Valid cross-correlation, stride 1, one bias per output channel.

    The layer computes batch-innermost.  ``forward`` reads its input as
    ``(C, H, W*B)``, which costs nothing when the input is the output of
    another batch-innermost layer, and keeps only that.  It works through
    the output rows in blocks of about ``IM2COL_BYTES`` of im2col: one copy
    of ``OW*B``-long runs, from a window view of the input, into a
    ``(C*kh*kw, rows*OW*B)`` buffer whose rows follow the weight's
    ``(C, kh, kw)`` flattening, and one GEMM ``W @ cols`` into those rows
    of a ``(K, OH, OW, B)`` buffer, returned as an NCHW-shaped view of it;
    pooling and ReLU keep that memory order.  BLAS sums each output element
    over ``C*kh*kw`` in the same order whatever columns a call covers, so
    the blocks change no bit.  ``backward`` reads the gradient in the same
    order, for free when it comes from such a layer.  It rebuilds each
    block's columns from the kept input and reduces the weight gradient one
    output row at a time, a GEMM of ``OW*B``-long runs per row, summed over
    the rows in ascending order.  It takes the input gradient as one GEMM
    ``W.T @ g`` and a col2im of kh*kw tap adds into a ``(C, H, W, B)``
    buffer, again returned as an NCHW-shaped view.  Every input-gradient
    element adds its taps in the same (u, v) order from zero, so it is
    bitwise that of the per-sample ``(B, C, kh, kw, OH, OW)`` col2im.
    ``input_grad=False`` skips both.  No im2col buffer is held between
    calls.  ``init`` gives the initial weight, then bias (see
    ``_initial``).
    """

    def __init__(self, in_channels, out_channels, kernel_h, kernel_w, init, name="conv"):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_h = kernel_h
        self.kernel_w = kernel_w
        fan_in = in_channels * kernel_h * kernel_w
        shape = (out_channels, in_channels, kernel_h, kernel_w)
        self.weight = _initial(init, f"{name}.weight", shape, fan_in)
        self.bias = _initial(init, f"{name}.bias", (out_channels,), fan_in)
        self._xt = None
        self._out_shape = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv2d: input shape {x.shape} does not match kernel shape "
                f"{self.weight.value.shape}"
            )
        b, c, h, w = x.shape
        k, kh, kw = self.out_channels, self.kernel_h, self.kernel_w
        if kh > h or kw > w:
            raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than input {h}x{w}")
        oh, ow = h - kh + 1, w - kw + 1
        self._xt = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).reshape(c, h, w * b)
        self._out_shape = (b, k, oh, ow)
        wmat = self.weight.value.reshape(k, -1)
        y = np.empty((k, oh, ow * b))
        for r0, r1, cols in self._im2col_blocks():
            np.matmul(wmat, cols, out=y[:, r0:r1].reshape(k, -1))
        y += self.bias.value[:, None, None]
        return y.reshape(k, oh, ow, b).transpose(3, 0, 1, 2)

    def _im2col_blocks(self):
        """``(r0, r1, cols)`` per block of output rows ``r0..r1-1``, in
        ascending order: ``cols`` is that block's ``(C*kh*kw, (r1-r0)*OW*B)``
        im2col of the kept input, in one buffer that the next block
        overwrites."""
        b, _, oh, ow = self._out_shape
        c, kh, kw = self.in_channels, self.kernel_h, self.kernel_w
        run = ow * b
        # every tap's window of OW*B-long runs, (C, kh, kw, OH, OW*B): tap
        # (u, v) of output row i is input row i + u from column v*B on
        windows = sliding_window_view(self._xt, (kh, run), axis=(1, 2))[:, :, ::b]
        windows = windows.transpose(0, 3, 2, 1, 4)
        rows = min(oh, max(1, IM2COL_BYTES // (c * kh * kw * run * 8)))
        buf = np.empty(c * kh * kw * rows * run)
        for r0 in range(0, oh, rows):
            r1 = min(r0 + rows, oh)
            cols = buf[: c * kh * kw * (r1 - r0) * run].reshape(c, kh, kw, r1 - r0, run)
            cols[...] = windows[:, :, :, r0:r1]
            yield r0, r1, cols.reshape(c * kh * kw, -1)

    def backward(self, grad, input_grad=True):
        g = _checked_grad("conv2d", grad, self._out_shape)
        b, k, oh, ow = g.shape
        g_last = np.ascontiguousarray(g.transpose(1, 2, 3, 0)).reshape(k, oh, ow * b)
        wmat = self.weight.value.reshape(k, -1)
        # one (K, OW*B) @ (OW*B, C*kh*kw) product per output row, summed over
        # the rows in ascending order
        per_row = np.empty((oh, k, wmat.shape[1]))
        for r0, r1, cols in self._im2col_blocks():
            np.matmul(
                g_last[:, r0:r1].transpose(1, 0, 2),
                cols.reshape(-1, r1 - r0, ow * b).transpose(1, 2, 0),
                out=per_row[r0:r1],
            )
        np.sum(per_row, axis=0, out=self.weight.grad.reshape(k, -1))
        np.sum(g_last.reshape(k, -1), axis=1, out=self.bias.grad)
        if not input_grad:
            return None
        c, h, wb = self._xt.shape
        kh, kw = self.kernel_h, self.kernel_w
        dcols = (wmat.T @ g_last.reshape(k, -1)).reshape(c, kh, kw, oh, ow * b)
        dx = np.zeros((c, h, wb))
        for u in range(kh):
            for v in range(kw):
                dx[:, u : u + oh, v * b : (v + ow) * b] += dcols[:, u, v]
        return dx.reshape(c, h, wb // b, b).transpose(3, 0, 1, 2)


class MaxPool2d:
    """2x2 max pooling with stride 2.

    The four window taps are the strided views ``x[:, :, i::2, j::2]``.
    Backward routes the upstream gradient to the first maximal tap of each
    window in row-major scan order, which keeps the pass deterministic on
    plateaus.  ``forward`` keeps its input and output, and ``backward``
    derives that tap from them as one ``uint8`` code per window,
    ``ne0 * (1 + ne1 * (1 + ne2))`` with ``ne_k = t_k != max``: the index
    of the first tap equal to the max, and 3 when none is, as in a window
    holding NaN.  The output and the input gradient keep the input's memory
    order (``np.maximum`` of the taps, ``np.empty_like``), so after a
    batch-innermost ``Conv2d`` both stay batch-innermost.
    """

    _TAPS = ((0, 0), (0, 1), (1, 0), (1, 1))
    _out = None

    def params(self):
        return []

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ShapeError(f"maxpool2d: expected (batch, channels, H, W), got shape {x.shape}")
        _, _, h, w = x.shape
        if h % 2 or w % 2:
            raise ShapeError(f"maxpool2d: spatial dims must be even, got {h}x{w}")
        t0, t1, t2, t3 = (x[:, :, i::2, j::2] for i, j in self._TAPS)
        out = np.maximum(np.maximum(t0, t1), np.maximum(t2, t3))
        self._x, self._out = x, out
        return out

    def _code(self):
        """The ``uint8`` code of each window of the last forward pass."""
        ne0, ne1, ne2 = (self._x[:, :, i::2, j::2] != self._out for i, j in self._TAPS[:3])
        return ne0 * (1 + ne1 * (1 + ne2.view(np.uint8)))

    def backward(self, grad):
        g = _checked_grad("maxpool2d", grad, None if self._out is None else self._out.shape)
        code = self._code()
        dx = np.empty_like(self._x)
        for tap, (i, j) in enumerate(self._TAPS):
            np.multiply(g, code == tap, out=dx[:, :, i::2, j::2])
        return dx


class ReLU:
    _y = None

    def params(self):
        return []

    def forward(self, x):
        self._y = np.maximum(np.asarray(x, dtype=np.float64), 0.0)
        return self._y

    def backward(self, grad):
        # y > 0 exactly where x > 0, NaN included; subgradient 0 at exactly 0
        g = _checked_grad("relu", grad, None if self._y is None else self._y.shape)
        return g * (self._y > 0)


def log_softmax_nll(logits, labels):
    """Negative log likelihood through a numerically stable log-softmax.

    ``logits`` is (batch, classes) and ``labels`` a vector of class indices.
    The loss is the batch mean of ``-(logits[label] - logsumexp(logits))``
    and the gradient ``(softmax(logits) - onehot) / batch``.
    """
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if z.ndim != 2:
        raise ShapeError(f"logits must be (batch, classes), got shape {z.shape}")
    n, k = z.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match logits shape {z.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range: got {labels.min()}..{labels.max()} for {k} classes")

    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    log_probs = (z - zmax) - np.log(sez)
    rows = np.arange(n)
    loss = -log_probs[rows, labels].mean()
    grad = ez / sez
    grad[rows, labels] -= 1.0
    return loss, grad / n


# Adam's moment decay rates and denominator guard, the textbook defaults
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# Elements per block of Adam.step: a block of the 4 state arrays plus the
# buffer is 1.25 MiB of float64, so each block's 10 passes stay in L2 cache
# (16384..65536 tie and 4096 and 131072 are slower, on a 2-vCPU Xeon VM
# with 2 MiB L2 per core)
CHUNK = 32768


class Adam:
    """Adam over a parameter list (Kingma & Ba 2015).

    ``m[i]`` and ``v[i]`` hold parameter ``i``'s bias-free moment sums
    ``m = BETA1*m + g`` and ``v = BETA2*v + g**2``: the textbook moment
    estimates divided by ``1 - BETA1`` and ``1 - BETA2``.  ``t`` counts the
    steps.  With ``b1, b2, eps = BETA1, BETA2, EPS`` and ``t`` the new step
    count, a step moves each parameter by
    ``p -= alpha * (m / (sqrt(v) + eps_t))`` with
    ``r = sqrt((1 - b2**t) / (1 - b2))``,
    ``alpha = lr * (1 - b1) / (1 - b1**t) * r`` and ``eps_t = eps * r``.
    That is the textbook ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` with its
    bias corrections folded into the step size (end of section 2), equal up
    to rounding.

    ``step`` reads ``Parameter.grad``, which the next backward overwrites,
    and updates moments and parameters in place, block by block over flat
    views of ``CHUNK`` elements through one buffer: 10 elementwise passes
    per block, so the result is bitwise that of the out-of-place formula
    (``selftest._adam_reference``); blocking only keeps each block's passes
    in cache.  It checks every parameter before it writes anything: a NaN
    or infinite gradient raises ``NonFiniteError`` and a non-contiguous
    array ``ValueError``, naming the parameter and leaving every parameter,
    moment and ``t`` as they were.  A finite gradient whose squared norm
    overflows still steps.
    """

    def __init__(self, params, lr=0.001):
        if not lr > 0:
            raise ValueError(f"learning rate must be > 0, got {lr}")
        self.params = list(params)
        self.lr = lr
        # each gradient is allocated here, before the first forward, beside
        # its moments: allocated by the first backward, among that pass's
        # temporaries, it left the process's peak RSS about 0.8 MB higher
        # in cnn training (glibc placement; the traced peak was the same)
        for p in self.params:
            p.grad
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        self.t = 0
        self._buf = np.empty(CHUNK)

    def step(self):
        flat = []
        for p, m, v in zip(self.params, self.m, self.v):
            arrays = (p.grad, m, v, p.value)
            # reshape of a C-contiguous array is a view; of any other it
            # would be a copy whose writes are lost
            if not all(a.flags.c_contiguous for a in arrays):
                raise ValueError(f"parameter {p.name!r}: value, grad and moments must be C-contiguous")
            g = p.grad.reshape(-1)
            # one BLAS pass: the squared norm is finite unless g holds NaN or
            # +-inf or the sum overflows, which the exact check then tells
            # apart (vdot, unlike dot, raises no overflow warning)
            if not np.isfinite(np.vdot(g, g)) and not np.all(np.isfinite(g)):
                raise NonFiniteError(f"non-finite gradient in parameter {p.name!r}")
            flat.append([a.reshape(-1) for a in arrays])
        self.t += 1
        r = math.sqrt((1.0 - BETA2**self.t) / (1.0 - BETA2))
        alpha = self.lr * (1.0 - BETA1) / (1.0 - BETA1**self.t) * r
        eps = EPS * r
        for g, m, v, p in flat:
            for lo in range(0, g.size, CHUNK):
                hi = min(lo + CHUNK, g.size)
                gc, mc, vc, pc = g[lo:hi], m[lo:hi], v[lo:hi], p[lo:hi]
                d = self._buf[: hi - lo]
                mc *= BETA1
                mc += gc
                np.multiply(gc, gc, out=d)
                vc *= BETA2
                vc += d
                np.sqrt(vc, out=d)
                d += eps
                np.divide(mc, d, out=d)
                d *= alpha
                pc -= d


def grad_check(f, point, h=1e-3):
    """Max relative error between f's analytic gradient and central differences.

    ``f(x)`` must return ``(scalar_value, gradient_like_x)``.  The error at
    coordinate i is ``|a_i - n_i| / max(1e-8, |a_i| + |n_i|)``.
    """
    if not h > 0:
        raise ValueError(f"step size must be > 0, got {h}")
    x0 = np.asarray(point, dtype=np.float64)
    value, analytic = f(x0)
    analytic = np.asarray(analytic, dtype=np.float64)
    if not np.isfinite(value) or not np.all(np.isfinite(analytic)):
        raise NonFiniteError("grad_check: non-finite evaluation at the base point")
    worst = 0.0
    flat = x0.ravel()
    for i in range(flat.size):
        xp = x0.copy()
        xp.ravel()[i] += h
        xm = x0.copy()
        xm.ravel()[i] -= h
        fp, _ = f(xp)
        fm, _ = f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteError(f"grad_check: non-finite evaluation at coordinate {i}")
        numeric = (fp - fm) / (2.0 * h)
        a = analytic.ravel()[i]
        err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, err)
    return worst
