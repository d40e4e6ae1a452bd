"""The full MNIST robustness experiment, end to end.

Requires the MNIST IDX files (about 12 MB download):

    histlearn fetch --data-dir data

then run this script, or do the same thing through the CLI:

    histlearn train --arch dadm --data-dir data --out-dir runs/dadm
    histlearn eval runs/dadm/model_dadm.ckpt --data-dir data --out-dir runs/dadm
    histlearn ablation --data-dir data --out-dir runs/ablation
    histlearn report runs/dadm/reports.csv --data-dir data --out-dir runs/report

Training all four architectures for the full 10 epochs takes a while on a
laptop.

Run:  python demos/04_mnist_robustness.py [data_dir]
"""

import sys
import time

from histlearn import models
from histlearn.data import load_mnist, mnist_files_present

data_dir = sys.argv[1] if len(sys.argv) > 1 else "data"
if not mnist_files_present(data_dir):
    sys.exit(f"MNIST files not found in {data_dir!r}; run `histlearn fetch --data-dir {data_dir}` first")

train_set = load_mnist(data_dir, "train")
test_set = load_mnist(data_dir, "test")
print(f"MNIST loaded: {train_set.count} train / {test_set.count} test\n")

battery = ("none", "rotate", "translate", "flip", "shuffle")
rows = {}
for arch in ("lenet", "base", "cnn", "dadm"):
    cfg = models.ModelConfig(arch, epochs=10, batch_size=64, seed=0)
    model = models.build_model(cfg)
    print(f"training {arch}")
    start = time.monotonic()
    models.train(model, train_set, cfg, log=lambda line: print("  " + line))
    print(f"  {time.monotonic() - start:.0f}s")
    rows[arch] = models.evaluate(model, test_set, battery, seed=0)
    print()

print("top-1 accuracy (%) under test-time transforms")
print("model   " + "".join(f"{kind:>11s}" for kind in battery))
for arch, reports in rows.items():
    print(f"{arch:6s}  " + "".join(f"{r.top1:10.2f} " for r in reports))
