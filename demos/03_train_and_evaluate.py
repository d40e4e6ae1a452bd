"""Train two small models and watch what test-time transforms do to them.

Self-contained: generates a synthetic dataset whose class signal lives in
the pixel-value distribution (bright area scales with the class), trains
the plain MLP baseline and the histogram-based model, then scores both
under the rotate/translate/flip/shuffle battery.

The histogram model cannot tell a shuffled image from the original, so its
shuffle column matches its original column; the MLP's collapses.

Run:  python demos/03_train_and_evaluate.py   (about a minute on a laptop)
"""

import numpy as np

from histlearn import models
from histlearn.data import ImageSet


def make_set(count, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, count)
    pixels = np.full((count, 28, 28), -1.0)
    for i, label in enumerate(labels):
        c = int(label)
        height = 2 + 2 * c
        r0 = int(rng.integers(1, 25 - height)) if height < 24 else 1
        c0 = int(rng.integers(2, 18))
        pixels[i, r0 : r0 + height, c0 : c0 + 8] = 0.8
        pixels[i, 26, :] = -1.0 + 2.0 * (c + 1) / 11.0
    return ImageSet(np.rint((pixels + 1.0) * 127.5).astype(np.uint8), labels)


train_set = make_set(2048, seed=0)
test_set = make_set(512, seed=1)
print(f"synthetic data: {train_set.count} train / {test_set.count} test images\n")

battery = ("none", "rotate", "translate", "flip", "shuffle")
results = {}
for arch in ("base", "dadm"):
    cfg = models.ModelConfig(arch, epochs=8, batch_size=64, seed=0, n_bins=64, bandwidth=0.01)
    model = models.build_model(cfg)
    print(f"training {arch} ({sum(p.value.size for p in model.parameters())} parameters)")
    models.train(model, train_set, cfg, log=lambda line: print("  " + line))
    results[arch] = models.evaluate(model, test_set, battery, seed=0)
    print()

header = "model   " + "".join(f"{kind:>11s}" for kind in battery)
print(header)
for arch, reports in results.items():
    row = f"{arch:6s}  " + "".join(f"{r.top1:10.1f}%" for r in reports)
    print(row)

print("\ndrops against the original column (lower is more robust):")
for arch, reports in results.items():
    row = f"{arch:6s}  " + "".join(f"{r.delta:10.1f} " for r in reports)
    print(row)
