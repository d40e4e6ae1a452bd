"""Distribution learning for grayscale images.

The package turns an image into a smooth, differentiable histogram of its
pixel values (a kernel-density estimate integrated over fixed bins) and
learns on that representation with layers that do arithmetic directly on
distributions.  Because a histogram ignores where pixels sit, classifiers
built this way keep working when test images are rotated, shifted, flipped,
or even pixel-shuffled.  Conventional CNN/MLP baselines, a tiny manual
backprop engine, MNIST ingestion, and a robustness-benchmark CLI round out
the toolkit.

Submodules
----------
histogram   differentiable KDE histograms on [-1, 1] and the counting oracle
distlayers  one W*X+B distribution layer: exact mass-pairing scatter
            matrices, exact adjoints, the learnable kernel pair
nn          dense layers with hand-written backward passes, Adam, grad_check
data        IDX (MNIST) parsing, normalization, dataset download
transforms  test-time rotate / translate / flip / shuffle battery
models      the four benchmark architectures, training and evaluation
checkpoint  binary model checkpoints
reports     CSV report schemas (evaluation tables, loss curves, dumps)
selftest    dataset-free property checks with named tolerances
cli         `histlearn` command line: fetch|train|eval|ablation|report|selftest
"""

__version__ = "0.1.0"

__all__ = [
    "histogram",
    "distlayers",
    "nn",
    "data",
    "transforms",
    "models",
    "checkpoint",
    "reports",
    "selftest",
    "cli",
]
